//! Where a flat graph's arrays live: the [`MemoryBacking`] trait, the
//! [`Array`] accessor every backing provides, and heap arrays
//! ([`RamBacking`], [`RamVec`]). `tgp-store` adds the mmap-backed disk
//! backing behind the same trait.

use std::io;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Element types an [`Array`] may hold: fixed-size primitives that are
/// valid for every bit pattern, so a page-aligned mapping of them can
/// be viewed as a slice. Sealed — the safety of `tgp-store`'s
/// mmap-backed `DiskVec` rests on this list staying primitives-only.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + Default + 'static {}

impl Pod for u8 {}
impl Pod for u32 {}
impl Pod for u64 {}

/// Which medium holds an array — the `/metrics` label value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackingKind {
    /// Heap memory.
    Ram,
    /// An mmap-backed spill file.
    Disk,
}

impl BackingKind {
    /// The lowercase label used in metrics and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            BackingKind::Ram => "ram",
            BackingKind::Disk => "disk",
        }
    }
}

/// A growable typed array, the uniform accessor over both backings.
///
/// Arrays are append-only: elements go in at the end, in runs, and are
/// read back as one slice. `mmap` gives contiguous addressable memory,
/// so even the disk implementation exposes a plain slice — solver hot
/// paths index it with zero per-access overhead and the kernel pages
/// data in and out underneath. A disk array writes each append to its
/// file in one `pwrite` (see `tgp-store`), so callers batch appends
/// into runs of many elements.
pub trait Array<T: Pod> {
    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether the array holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements as a contiguous slice.
    fn as_slice(&self) -> &[T];

    /// Appends one element, growing the storage if needed.
    ///
    /// # Errors
    ///
    /// Growth failure (`ENOSPC` on a spill file); heap growth aborts
    /// instead, as all Rust allocation does.
    fn push(&mut self, value: T) -> io::Result<()>;

    /// Appends a run of elements.
    ///
    /// # Errors
    ///
    /// As [`Array::push`].
    fn extend_from_slice(&mut self, values: &[T]) -> io::Result<()> {
        for &v in values {
            self.push(v)?;
        }
        Ok(())
    }

    /// Appends `count` elements, the `k`-th (from 0) being `f(k)`, with
    /// one growth check for the whole run.
    ///
    /// # Errors
    ///
    /// As [`Array::push`].
    fn extend_from_fn(&mut self, count: usize, f: impl FnMut(usize) -> T) -> io::Result<()>;

    /// Makes room for at least `additional` more elements, for a caller
    /// that knows the final length. A RAM array reserves exactly that
    /// much, so its [`Array::resident_bytes`] stays the payload size.
    ///
    /// # Errors
    ///
    /// As [`Array::push`].
    fn reserve(&mut self, additional: usize) -> io::Result<()>;

    /// Bytes of *RAM* this array pins (a disk array pins none — its
    /// pages live in the reclaimable page cache).
    fn resident_bytes(&self) -> u64;

    /// Logical payload size in bytes, whichever medium holds it.
    fn byte_len(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }
}

/// A heap-backed array: a thin wrapper over `Vec<T>`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RamVec<T: Pod>(Vec<T>);

impl<T: Pod> RamVec<T> {
    /// Creates an empty array with the given capacity hint.
    pub fn with_capacity(capacity: usize) -> Self {
        RamVec(Vec::with_capacity(capacity))
    }
}

impl<T: Pod> From<Vec<T>> for RamVec<T> {
    fn from(values: Vec<T>) -> Self {
        RamVec(values)
    }
}

impl<T: Pod> Array<T> for RamVec<T> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn as_slice(&self) -> &[T] {
        &self.0
    }

    fn push(&mut self, value: T) -> io::Result<()> {
        self.0.push(value);
        Ok(())
    }

    fn extend_from_slice(&mut self, values: &[T]) -> io::Result<()> {
        self.0.extend_from_slice(values);
        Ok(())
    }

    fn extend_from_fn(&mut self, count: usize, f: impl FnMut(usize) -> T) -> io::Result<()> {
        self.0.extend((0..count).map(f));
        Ok(())
    }

    fn reserve(&mut self, additional: usize) -> io::Result<()> {
        self.0.reserve_exact(additional);
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        (self.0.capacity() * std::mem::size_of::<T>()) as u64
    }
}

/// Chooses where arrays live. Graph builders are generic over this, so
/// one code path serves every medium.
pub trait MemoryBacking {
    /// The array type this backing produces.
    type Array<T: Pod>: Array<T>;

    /// Which medium this backing allocates on.
    fn kind(&self) -> BackingKind;

    /// Allocates an empty array sized for `capacity` elements.
    ///
    /// # Errors
    ///
    /// Spill-file creation failure (`tgp-store`'s `DiskBacking` only).
    fn new_array<T: Pod>(&self, capacity: usize) -> io::Result<Self::Array<T>>;
}

/// Heap backing: arrays are `Vec`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RamBacking;

/// Heap arrays grow or abort, so a RAM build never sees an I/O error.
pub(crate) const HEAP_GROWS: &str = "heap arrays grow or abort";

impl MemoryBacking for RamBacking {
    type Array<T: Pod> = RamVec<T>;

    fn kind(&self) -> BackingKind {
        BackingKind::Ram
    }

    fn new_array<T: Pod>(&self, capacity: usize) -> io::Result<RamVec<T>> {
        Ok(RamVec::with_capacity(capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_array_roundtrip() {
        let backing = RamBacking;
        assert_eq!(backing.kind(), BackingKind::Ram);
        let mut a = backing.new_array::<u64>(4).unwrap();
        for i in 0..100u64 {
            a.push(i * 3).unwrap();
        }
        assert_eq!(a.len(), 100);
        assert_eq!(a.as_slice()[77], 231);
        assert!(a.resident_bytes() >= a.byte_len());
    }
}
