//! The syscalls the disk backing needs beyond std: `mmap`/`munmap` to
//! address a spill file as read-only memory.
//!
//! Mirrors the epoll layer in `tgp-net`: no external dependency, just
//! the minimal FFI surface, wrapped in fallible safe functions that
//! translate failure sentinels into [`std::io::Error`]. Everything
//! above this module is safe code.

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::ptr::NonNull;

const PROT_READ: c_int = 0x1;
const MAP_SHARED: c_int = 0x01;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
}

/// Maps `len` bytes of `fd` (from offset 0) as shared read-only memory:
/// the mapping reads the file's page-cache pages, so it sees every byte
/// written to the file, and a store through it faults. The
/// mapping is page-aligned, so casting it to any primitive element type
/// is alignment-safe. It may extend past the end of the file; only the
/// pages past the end must not be read.
///
/// # Errors
///
/// The raw `mmap` failure (`ENOMEM`, `ENODEV`, …) as an I/O error.
pub fn map_read(fd: RawFd, len: usize) -> io::Result<NonNull<u8>> {
    // SAFETY: a NULL hint with a fresh length asks the kernel to pick
    // the placement; the fd stays open for the mapping's lifetime (the
    // owning DiskVec holds the File) and offset 0 is always valid.
    let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, fd, 0) };
    if ptr == usize::MAX as *mut c_void {
        return Err(io::Error::last_os_error());
    }
    NonNull::new(ptr.cast::<u8>()).ok_or_else(|| io::Error::other("mmap returned NULL"))
}

/// Unmaps a region previously returned by [`map_read`].
pub fn unmap(ptr: NonNull<u8>, len: usize) {
    // SAFETY: the caller owns the mapping and guarantees `ptr`/`len`
    // are exactly what `map_read` returned; the owning type calls this
    // exactly once, in `Drop` or just before remapping.
    let _ = unsafe { munmap(ptr.as_ptr().cast::<c_void>(), len) };
}
