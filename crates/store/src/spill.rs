//! [`SpillBuf`]: a byte buffer that starts on the heap and moves to an
//! unlinked mmap-backed spill file once it crosses a threshold.
//!
//! A reader that streams a request body from a socket or file can
//! collect it here so the body pins at most `threshold` bytes of heap —
//! everything past that lives in the page cache, evictable under memory
//! pressure. `tgp_service::http::read_request_spilling` does; the
//! server does not, because its event loop has framed the whole body on
//! the heap before a worker sees it, and the worker solves from that
//! buffer.

use std::io;
use std::path::{Path, PathBuf};

use tgp_graph::Array;

use crate::disk::DiskVec;

enum Inner {
    Ram(Vec<u8>),
    Disk(DiskVec<u8>),
}

/// A growable byte buffer with a heap-residency cap.
pub struct SpillBuf {
    inner: Inner,
    threshold: usize,
    dir: PathBuf,
}

impl SpillBuf {
    /// An empty buffer that spills into `dir` once it exceeds
    /// `threshold` bytes.
    pub fn new(threshold: usize, dir: impl Into<PathBuf>) -> Self {
        SpillBuf {
            inner: Inner::Ram(Vec::new()),
            threshold,
            dir: dir.into(),
        }
    }

    /// Appends bytes, migrating to disk if the total crosses the
    /// threshold.
    ///
    /// # Errors
    ///
    /// Spill-file creation or growth failure.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) -> io::Result<()> {
        match &mut self.inner {
            Inner::Ram(v) => {
                if v.len() + bytes.len() > self.threshold {
                    let mut disk =
                        DiskVec::<u8>::with_capacity_in(&self.dir, v.len() + bytes.len())?;
                    disk.extend_from_slice(v)?;
                    disk.extend_from_slice(bytes)?;
                    self.inner = Inner::Disk(disk);
                } else {
                    v.extend_from_slice(bytes);
                }
                Ok(())
            }
            Inner::Disk(d) => d.extend_from_slice(bytes),
        }
    }

    /// Number of buffered bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Ram(v) => v.len(),
            Inner::Disk(d) => d.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered bytes as one contiguous slice (the disk variant is
    /// an mmap, so this is free).
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            Inner::Ram(v) => v,
            Inner::Disk(d) => d.as_slice(),
        }
    }

    /// Whether the buffer has migrated to a spill file.
    pub fn is_spilled(&self) -> bool {
        matches!(self.inner, Inner::Disk(_))
    }

    /// The configured spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl std::fmt::Debug for SpillBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillBuf")
            .field("len", &self.len())
            .field("spilled", &self.is_spilled())
            .field("threshold", &self.threshold)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_ram_below_threshold() {
        let mut b = SpillBuf::new(1024, std::env::temp_dir());
        b.extend_from_slice(&[7u8; 1024]).unwrap();
        assert!(!b.is_spilled());
        assert_eq!(b.len(), 1024);
        assert!(b.as_slice().iter().all(|&x| x == 7));
    }

    #[test]
    fn spills_past_threshold_and_preserves_prefix() {
        let mut b = SpillBuf::new(100, std::env::temp_dir());
        let first: Vec<u8> = (0..90u8).collect();
        b.extend_from_slice(&first).unwrap();
        assert!(!b.is_spilled());
        let second: Vec<u8> = (90..200).map(|x| (x % 256) as u8).collect();
        b.extend_from_slice(&second).unwrap();
        assert!(b.is_spilled());
        assert_eq!(b.len(), 200);
        let expect: Vec<u8> = (0..200u32).map(|x| x as u8).collect();
        assert_eq!(b.as_slice(), &expect[..]);
        // Further appends stay on disk.
        b.extend_from_slice(&[1, 2, 3]).unwrap();
        assert_eq!(b.len(), 203);
        assert_eq!(&b.as_slice()[200..], &[1, 2, 3]);
    }
}
