//! Out-of-core graph substrate: pluggable memory backing and flat
//! SoA graph representations.
//!
//! The paper's algorithms scan vertices in index order, so a graph is
//! fundamentally a handful of parallel arrays — vertex weights, edge
//! weights, prefix sums, and (for trees) edge endpoints. This crate
//! stores those arrays behind a [`MemoryBacking`] so the *same* solver
//! code runs over heap memory ([`RamBacking`]) or an mmap-backed spill
//! file ([`DiskBacking`]), letting the service partition graphs larger
//! than RAM while the kernel pages the arrays in and out.
//!
//! * [`MemoryBacking`] — chooses where arrays live; [`Array`] is the
//!   uniform accessor both backings provide (`mmap` gives contiguous
//!   addressable memory, so a disk array is still a plain slice).
//! * [`RamVec`] / [`DiskVec`] — the two array implementations.
//! * [`FlatPath`] / [`FlatTree`] — flat graph representations that
//!   implement [`tgp_graph::ChainView`] / [`tgp_graph::TreeView`], the
//!   access traits the solver hot paths are generic over. Their
//!   builders run the pointer graphs' validation (and so return the
//!   same [`GraphError`] values), so responses stay byte-identical
//!   whichever representation served them.
//! * [`SpillBuf`] — a byte buffer that starts on the heap and spills to
//!   an unlinked mmap-backed file past a threshold, for a reader that
//!   streams a request body rather than receiving it framed.
//!
//! The only `unsafe` in the crate is the minimal mmap FFI surface in
//! [`sys`], mirroring the epoll layer in `tgp-net`.
//!
//! [`GraphError`]: tgp_graph::GraphError

#![warn(missing_docs)]

mod backing;
mod flat;
mod spill;
pub mod sys;

pub use backing::{
    Array, BackingKind, DiskBacking, DiskVec, MemoryBacking, Pod, RamBacking, RamVec,
};
pub use flat::{BuildError, FlatPath, FlatPathBuilder, FlatTree, FlatTreeBuilder};
pub use spill::SpillBuf;
