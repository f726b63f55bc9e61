//! Property test of the disk array's write path: any interleaving of
//! appends and reserves leaves a `DiskVec` equal to a `RamVec` that
//! took the same calls, read back through `as_slice` after every step.

use proptest::prelude::*;

use tgp_graph::{Array, MemoryBacking, Pod, RamBacking};
use tgp_store::DiskBacking;

/// One call: 0 = `push`, 1 = `extend_from_slice`, 2 = `extend_from_fn`,
/// 3 = `reserve`; a run length; a seed for the values.
type Op = (u8, usize, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Runs up to 40 000 elements over up to 14 calls take a u64 array
    // through several doublings of its 64 KiB first mapping.
    prop::collection::vec((0u8..4, 0usize..40_000, any::<u64>()), 1..14)
}

fn value<T: Pod + From<u32>>(seed: u64, k: usize) -> T {
    T::from((seed.wrapping_mul(k as u64 + 1) >> 16) as u32)
}

fn replay<T: Pod + From<u32> + PartialEq + std::fmt::Debug>(ops: &[Op]) {
    let dir = std::env::temp_dir();
    let mut disk = DiskBacking::new(&dir).new_array::<T>(0).unwrap();
    let mut ram = RamBacking.new_array::<T>(0).unwrap();
    for &(kind, len, seed) in ops {
        match kind {
            0 => {
                disk.push(value(seed, 0)).unwrap();
                ram.push(value(seed, 0)).unwrap();
            }
            1 => {
                let run: Vec<T> = (0..len).map(|k| value(seed, k)).collect();
                disk.extend_from_slice(&run).unwrap();
                ram.extend_from_slice(&run).unwrap();
            }
            2 => {
                disk.extend_from_fn(len, |k| value(seed, k)).unwrap();
                ram.extend_from_fn(len, |k| value(seed, k)).unwrap();
            }
            _ => {
                disk.reserve(len).unwrap();
                ram.reserve(len).unwrap();
            }
        }
        prop_assert_eq!(disk.len(), ram.len());
        prop_assert!(disk.as_slice() == ram.as_slice());
        prop_assert_eq!(disk.byte_len(), ram.byte_len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The interleaving lands the same elements in a `u64` disk array
    /// as in a RAM array.
    #[test]
    fn disk_u64_appends_match_ram(ops in arb_ops()) {
        replay::<u64>(&ops);
    }

    /// The same for `u32`, the element of a tree's edge endpoints, which
    /// packs twice as many elements into each written run.
    #[test]
    fn disk_u32_appends_match_ram(ops in arb_ops()) {
        replay::<u32>(&ops);
    }
}
