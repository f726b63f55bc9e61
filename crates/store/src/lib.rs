//! Out-of-core storage: the spill-file disk implementation of
//! `tgp_graph`'s [`MemoryBacking`], and a spilling request buffer.
//!
//! The paper's algorithms scan vertices in index order, so a graph is
//! fundamentally a handful of parallel arrays. `tgp_graph`'s flat graphs
//! (`FlatPath`, `FlatTree`; `PathGraph` and `Tree` are their RAM
//! instantiations) keep those arrays behind a [`MemoryBacking`], so the
//! *same* solver code runs over heap memory or, with [`DiskBacking`],
//! over a spill file, letting the service partition graphs larger than
//! RAM while the kernel pages the arrays in and out.
//!
//! * [`DiskBacking`] / [`DiskVec`] — arrays in unlinked spill files,
//!   appended with `pwrite` and read through a read-only shared mapping
//!   (`mmap` gives contiguous addressable memory, so a disk array is
//!   still a plain slice).
//! * [`SpillBuf`] — a byte buffer that starts on the heap and spills to
//!   an unlinked mmap-backed file past a threshold, for a reader that
//!   streams a request body rather than receiving it framed.
//!
//! The only `unsafe` in the crate is the minimal mmap FFI surface in
//! [`sys`], mirroring the epoll layer in `tgp-net`, and in [`DiskVec`]
//! the slice views over its mappings and the byte view of the elements
//! it writes.
//!
//! [`MemoryBacking`]: tgp_graph::MemoryBacking

#![warn(missing_docs)]

mod disk;
mod spill;
pub mod sys;

pub use disk::{DiskBacking, DiskVec, RUN_BYTES};
pub use spill::SpillBuf;
