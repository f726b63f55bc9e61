//! The disk implementation of `tgp_graph`'s [`MemoryBacking`]: arrays
//! in spill files, filled with `pwrite` and read through a read-only
//! mapping.

#![allow(unsafe_code)]

use std::fs::{File, OpenOptions};
use std::io;
use std::marker::PhantomData;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use tgp_graph::{Array, BackingKind, MemoryBacking, Pod};

use crate::sys;

/// Smallest mapping a [`DiskVec`] makes — one growth unit. Growing
/// doubles from here, so a million-element array needs ~9 remaps.
const MIN_MAP_BYTES: usize = 64 * 1024;

/// The bytes a disk array should take per `pwrite`: a run long enough
/// that the syscall's fixed cost is small beside the copy.
/// [`DiskVec::extend_from_fn`] stages this many bytes per write, and
/// callers that append in blocks size them from it.
pub const RUN_BYTES: usize = 64 * 1024;

/// Distinguishes concurrently created spill files within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A growable array in an *unlinked* spill file: appends are `pwrite`s
/// into the file, and reads go through a read-only shared mapping of
/// it, so no page is ever filled by a write fault.
///
/// The file is created in the spill directory, opened, and immediately
/// removed from the namespace — the kernel keeps it alive while the fd
/// is open and reclaims the space automatically on drop or crash, so
/// spill files can never leak. An append writes at byte offset
/// `len × size_of::<T>()`, and the file grows with the writes; the
/// mapping reads the same page-cache pages, so a slice over it sees
/// every element appended so far. When an append would run past the
/// mapping, the mapping doubles (unmap and map again; the data lives
/// in the file, so nothing is copied). A failed write leaves the
/// length as it was and returns its error.
#[derive(Debug)]
pub struct DiskVec<T: Pod> {
    file: File,
    ptr: NonNull<u8>,
    map_bytes: usize,
    len: usize,
    _marker: PhantomData<T>,
}

// SAFETY: the mapping is owned exclusively by this value (the file is
// unlinked and the fd private), `T` is a primitive (`tgp_graph::Pod` is
// sealed to u8, u32 and u64), and all access flows through &self /
// &mut self — the usual container rules.
unsafe impl<T: Pod> Send for DiskVec<T> {}
// SAFETY: &DiskVec only hands out &[T] over a read-only mapping.
unsafe impl<T: Pod> Sync for DiskVec<T> {}

/// The bytes of `values`.
fn bytes_of<T: Pod>(values: &[T]) -> &[u8] {
    // SAFETY: `Pod` is sealed to u8, u32 and u64, which have no padding,
    // so every byte of the slice is initialized; u8 has alignment 1.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

impl<T: Pod> DiskVec<T> {
    /// Creates an empty disk array spilling into `dir`, its mapping
    /// sized for `capacity` elements up front (it still grows beyond
    /// that).
    ///
    /// # Errors
    ///
    /// File creation or mapping failure.
    pub fn with_capacity_in(dir: &Path, capacity: usize) -> io::Result<Self> {
        let name = format!(
            "tgp-spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path: PathBuf = dir.join(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlink immediately: the open fd keeps the inode alive and the
        // space is reclaimed automatically however the process exits.
        std::fs::remove_file(&path)?;
        let want = capacity.saturating_mul(std::mem::size_of::<T>());
        let map_bytes = want.next_power_of_two().max(MIN_MAP_BYTES);
        let ptr = sys::map_read(file.as_raw_fd(), map_bytes)?;
        Ok(DiskVec {
            file,
            ptr,
            map_bytes,
            len: 0,
            _marker: PhantomData,
        })
    }

    fn grow_to_fit(&mut self, extra: usize) -> io::Result<()> {
        let need = (self.len + extra).saturating_mul(std::mem::size_of::<T>());
        if need <= self.map_bytes {
            return Ok(());
        }
        let new_bytes = need.next_power_of_two().max(self.map_bytes * 2);
        let ptr = sys::map_read(self.file.as_raw_fd(), new_bytes)?;
        sys::unmap(self.ptr, self.map_bytes);
        self.ptr = ptr;
        self.map_bytes = new_bytes;
        Ok(())
    }

    /// Writes `values` as elements `at..at + values.len()`, which the
    /// mapping must already cover, with `pwrite` (std's `write_all_at`
    /// retries short writes and `EINTR`). The data lands in the page
    /// cache, where the mapping reads it.
    fn write_at(&self, at: usize, values: &[T]) -> io::Result<()> {
        let offset = (at * std::mem::size_of::<T>()) as u64;
        self.file.write_all_at(bytes_of(values), offset)
    }
}

impl<T: Pod> Array<T> for DiskVec<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn as_slice(&self) -> &[T] {
        // SAFETY: the mapping is page-aligned (so aligned for any Pod)
        // and at least `len * size_of::<T>()` bytes long, and the file
        // holds every one of those bytes: each was written by an append
        // before `len` covered it. The types tgp-graph's sealed `Pod`
        // admits — u8, u32, u64 — are valid for all bit patterns.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<T>(), self.len) }
    }

    fn push(&mut self, value: T) -> io::Result<()> {
        self.extend_from_slice(&[value])
    }

    fn extend_from_slice(&mut self, values: &[T]) -> io::Result<()> {
        self.grow_to_fit(values.len())?;
        self.write_at(self.len, values)?;
        self.len += values.len();
        Ok(())
    }

    fn extend_from_fn(&mut self, count: usize, mut f: impl FnMut(usize) -> T) -> io::Result<()> {
        self.grow_to_fit(count)?;
        let run = (RUN_BYTES / std::mem::size_of::<T>()).min(count);
        let mut chunk = Vec::with_capacity(run);
        let mut done = 0;
        while done < count {
            let end = (done + run).min(count);
            chunk.clear();
            chunk.extend((done..end).map(&mut f));
            self.write_at(self.len + done, &chunk)?;
            done = end;
        }
        self.len += count;
        Ok(())
    }

    fn reserve(&mut self, additional: usize) -> io::Result<()> {
        self.grow_to_fit(additional)
    }

    fn resident_bytes(&self) -> u64 {
        0 // pages live in the reclaimable page cache, not process RAM
    }
}

impl<T: Pod> Drop for DiskVec<T> {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.map_bytes);
        // The unlinked file's space is reclaimed when `self.file` closes.
    }
}

/// Disk backing: arrays are spill files in a directory, read through
/// read-only mappings.
#[derive(Debug, Clone)]
pub struct DiskBacking {
    dir: PathBuf,
}

impl DiskBacking {
    /// A backing that spills into `dir` (which must exist and be
    /// writable — ideally a real filesystem, not tmpfs, so spilled
    /// pages are actually evictable under memory pressure).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskBacking { dir: dir.into() }
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl MemoryBacking for DiskBacking {
    type Array<T: Pod> = DiskVec<T>;

    fn kind(&self) -> BackingKind {
        BackingKind::Disk
    }

    fn new_array<T: Pod>(&self, capacity: usize) -> io::Result<DiskVec<T>> {
        DiskVec::with_capacity_in(&self.dir, capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::{EdgeId, FlatTreeBuilder, RamBacking, TreeView};

    fn tmp() -> PathBuf {
        std::env::temp_dir()
    }

    #[test]
    fn disk_array_roundtrip_and_growth() {
        let backing = DiskBacking::new(tmp());
        assert_eq!(backing.kind(), BackingKind::Disk);
        let mut a = backing.new_array::<u64>(8).unwrap();
        // Push well past the initial 64 KiB mapping to force remaps.
        let n = 64 * 1024;
        for i in 0..n as u64 {
            a.push(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).unwrap();
        }
        assert_eq!(a.len(), n);
        for (i, &v) in a.as_slice().iter().enumerate() {
            assert_eq!(v, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        assert_eq!(a.resident_bytes(), 0);
        assert_eq!(a.byte_len(), (n * 8) as u64);
    }

    #[test]
    fn disk_extend_matches_push() {
        let backing = DiskBacking::new(tmp());
        let mut a = backing.new_array::<u32>(0).unwrap();
        let vals: Vec<u32> = (0..50_000).collect();
        a.extend_from_slice(&vals).unwrap();
        a.extend_from_slice(&vals).unwrap();
        assert_eq!(a.len(), 100_000);
        assert_eq!(&a.as_slice()[..50_000], &vals[..]);
        assert_eq!(&a.as_slice()[50_000..], &vals[..]);
    }

    #[test]
    fn extend_from_fn_and_reserve_match_push_on_both_backings() {
        fn check<B: MemoryBacking>(backing: &B) {
            let mut a = backing.new_array::<u32>(0).unwrap();
            a.push(7).unwrap();
            a.reserve(40_000).unwrap();
            a.extend_from_fn(40_000, |k| k as u32 * 3).unwrap();
            assert_eq!(a.len(), 40_001);
            assert_eq!(a.as_slice()[0], 7);
            assert!(a.as_slice()[1..]
                .iter()
                .enumerate()
                .all(|(k, &v)| v == k as u32 * 3));
        }
        check(&RamBacking);
        check(&DiskBacking::new(tmp()));
        // A RAM reserve is exact: resident bytes are the payload.
        let mut a = RamBacking.new_array::<u64>(0).unwrap();
        a.reserve(1000).unwrap();
        a.extend_from_fn(1000, |k| k as u64).unwrap();
        assert_eq!(a.resident_bytes(), a.byte_len());
    }

    fn spill_file_count(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("tgp-spill-"))
            .count()
    }

    #[test]
    fn spill_files_do_not_linger() {
        // A directory of its own: other tests create spill files in the
        // shared temp dir concurrently, each visible for a moment
        // before its unlink.
        let dir = tmp().join(format!("tgp-linger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let before = spill_file_count(&dir);
        let a = DiskVec::<u64>::with_capacity_in(&dir, 1024).unwrap();
        // Even while alive, the file is already unlinked.
        assert_eq!(spill_file_count(&dir), before);
        drop(a);
        assert_eq!(spill_file_count(&dir), before);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn block_pushes_build_the_same_tree_as_single_pushes() {
        let nodes = [1u64, 2, 3, 4, 5, 6, 7];
        let edges = [
            (0, 1, 10),
            (1, 2, 20),
            (2, 3, 30),
            (1, 4, 40),
            (1, 5, 50),
            (2, 6, 60),
        ];
        let mut single = FlatTreeBuilder::new(RamBacking, nodes.len()).unwrap();
        for &w in &nodes {
            single.push_node(w).unwrap();
        }
        for &(a, b, w) in &edges {
            single.push_edge(a, b, w).unwrap();
        }
        let single = single.finish().unwrap();
        let backing = DiskBacking::new(std::env::temp_dir());
        let mut node_w = backing.new_array::<u64>(0).unwrap();
        node_w.extend_from_slice(&nodes).unwrap();
        let mut blocks = FlatTreeBuilder::with_nodes(&backing, node_w).unwrap();
        blocks.extend_edges(&edges[..4]).unwrap();
        blocks.extend_edges(&edges[4..]).unwrap();
        let blocks = blocks.finish().unwrap();
        for i in 0..6 {
            let edge = EdgeId::new(i);
            assert_eq!(TreeView::edge(&blocks, edge), TreeView::edge(&single, edge));
        }
        assert_eq!(
            TreeView::total_weight(&blocks),
            TreeView::total_weight(&single)
        );
        assert_eq!(single.resident_bytes(), single.byte_len());
    }
}
