//! Bokhari's non-homogeneous case: chain partitioning over processors of
//! different speeds.
//!
//! Bokhari (1988) "considered the problem for both homogeneous and
//! non-homogeneous processors" (reproduced paper, §1). Here the linear
//! array's processor `j` has speed `s_j`; a block's execution time is its
//! computation divided by the speed of the processor it lands on (rounded
//! up), plus its boundary communication (the interconnect is uniform, as
//! everywhere in this workspace). Because blocks are assigned to
//! processors *in chain order*, the layered-graph DP carries over with a
//! speed-indexed layer: `O(n²m)` exactly as in the homogeneous case.

#![allow(clippy::needless_range_loop)] // index-based DP reads clearer here

use tgp_graph::{ChainView, EdgeId, Weight};

use crate::bokhari::CocResult;
use crate::coc::{ChainAssignment, CocError};

/// A linear array of processors with per-processor speeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroArray {
    speeds: Vec<u64>,
}

impl HeteroArray {
    /// Creates an array from per-processor speeds (work units per time
    /// unit), in chain order.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is empty or any speed is zero.
    pub fn new(speeds: Vec<u64>) -> Self {
        assert!(!speeds.is_empty(), "at least one processor is required");
        assert!(
            speeds.iter().all(|&s| s > 0),
            "processor speeds must be positive"
        );
        HeteroArray { speeds }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Speed of processor `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn speed(&self, j: usize) -> u64 {
        self.speeds[j]
    }

    /// The time processor `j` spends on block `[s, t]` of `path`:
    /// `ceil(computation / speed_j)` plus the boundary edges (transferred
    /// at unit bandwidth).
    pub fn block_time<C: ChainView>(&self, path: &C, j: usize, s: usize, t: usize) -> u64 {
        let n = path.len();
        let mut cost = path.span_weight(s, t).get().div_ceil(self.speeds[j]);
        if s > 0 {
            cost += path.edge_weight(EdgeId::new(s - 1)).get();
        }
        if t < n - 1 {
            cost += path.edge_weight(EdgeId::new(t)).get();
        }
        cost
    }

    /// Bottleneck of an assignment on this array.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has more blocks than processors.
    pub fn bottleneck<C: ChainView>(&self, path: &C, assignment: &ChainAssignment) -> u64 {
        assert!(assignment.processors() <= self.len());
        (0..assignment.processors())
            .map(|j| {
                let (s, t) = assignment.block(j, path.len());
                self.block_time(path, j, s, t)
            })
            .max()
            .expect("at least one block")
    }
}

/// Exact minimax chain partition onto a heterogeneous linear array
/// (blocks assigned to processors in order): `O(n²m)` layered-graph DP.
///
/// # Errors
///
/// [`CocError::BadProcessorCount`] unless `1 ≤ array.len() ≤ n`.
///
/// # Examples
///
/// ```
/// use tgp_baselines::hetero::{hetero_partition, HeteroArray};
/// use tgp_graph::PathGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chain = PathGraph::from_raw(&[8, 8, 8, 8], &[0, 0, 0])?;
/// // A fast processor followed by a slow one: the fast one takes more.
/// let array = HeteroArray::new(vec![4, 1]);
/// let r = hetero_partition(&chain, &array)?;
/// assert_eq!(r.assignment.boundaries(), &[3]);
/// assert_eq!(r.bottleneck, tgp_graph::Weight::new(8)); // 24/4 vs 8/1
/// # Ok(())
/// # }
/// ```
pub fn hetero_partition<C: ChainView>(
    path: &C,
    array: &HeteroArray,
) -> Result<CocResult, CocError> {
    let n = path.len();
    let m = array.len();
    if m < 1 || m > n {
        return Err(CocError::BadProcessorCount { n, m });
    }
    const INF: u64 = u64::MAX;
    let mut dp = vec![vec![INF; n]; m];
    let mut split = vec![vec![usize::MAX; n]; m];
    for t in 0..n {
        dp[0][t] = array.block_time(path, 0, 0, t);
    }
    for j in 1..m {
        for t in j..n {
            let mut best = INF;
            let mut best_s = usize::MAX;
            for s in j..=t {
                let prev = dp[j - 1][s - 1];
                if prev == INF {
                    continue;
                }
                let cost = prev.max(array.block_time(path, j, s, t));
                if cost < best {
                    best = cost;
                    best_s = s;
                }
            }
            dp[j][t] = best;
            split[j][t] = best_s;
        }
    }
    let bottleneck = dp[m - 1][n - 1];
    debug_assert_ne!(bottleneck, INF);
    let mut boundaries = Vec::with_capacity(m - 1);
    let mut t = n - 1;
    for j in (1..m).rev() {
        let s = split[j][t];
        boundaries.push(s);
        t = s - 1;
    }
    boundaries.reverse();
    let assignment = ChainAssignment::new(boundaries);
    debug_assert_eq!(array.bottleneck(path, &assignment), bottleneck);
    Ok(CocResult {
        assignment,
        bottleneck: Weight::new(bottleneck),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bokhari::bokhari_partition;
    use tgp_graph::PathGraph;

    fn brute(path: &PathGraph, array: &HeteroArray) -> u64 {
        fn rec(
            path: &PathGraph,
            array: &HeteroArray,
            boundaries: &mut Vec<usize>,
            next: usize,
            remaining: usize,
            best: &mut u64,
        ) {
            let n = path.len();
            if remaining == 0 {
                let a = ChainAssignment::new(boundaries.clone());
                *best = (*best).min(array.bottleneck(path, &a));
                return;
            }
            for b in next..=(n - remaining) {
                boundaries.push(b);
                rec(path, array, boundaries, b + 1, remaining - 1, best);
                boundaries.pop();
            }
        }
        let mut best = u64::MAX;
        rec(path, array, &mut Vec::new(), 1, array.len() - 1, &mut best);
        best
    }

    #[test]
    fn unit_speeds_reduce_to_bokhari() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x4E7);
        for _ in 0..40 {
            let n: usize = rng.gen_range(1..20);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..30)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..30)).collect();
            let p = PathGraph::from_raw(&nodes, &edges).unwrap();
            let m = rng.gen_range(1..=n);
            let hetero = hetero_partition(&p, &HeteroArray::new(vec![1; m])).unwrap();
            let homo = bokhari_partition(&p, m).unwrap();
            assert_eq!(hetero.bottleneck, homo.bottleneck, "n={n} m={m}");
        }
    }

    #[test]
    fn matches_brute_force_with_mixed_speeds() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x4E8);
        for _ in 0..60 {
            let n: usize = rng.gen_range(1..9);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..40)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..20)).collect();
            let p = PathGraph::from_raw(&nodes, &edges).unwrap();
            let m = rng.gen_range(1..=n);
            let speeds: Vec<u64> = (0..m).map(|_| rng.gen_range(1..5)).collect();
            let array = HeteroArray::new(speeds.clone());
            let r = hetero_partition(&p, &array).unwrap();
            assert_eq!(
                r.bottleneck.get(),
                brute(&p, &array),
                "nodes={nodes:?} edges={edges:?} speeds={speeds:?}"
            );
        }
    }

    #[test]
    fn fast_processor_takes_the_bigger_block() {
        let p = PathGraph::from_raw(&[6, 6, 6, 6, 6, 6], &[0, 0, 0, 0, 0]).unwrap();
        let array = HeteroArray::new(vec![2, 1]);
        let r = hetero_partition(&p, &array).unwrap();
        // Fast (speed 2) should take 4 modules (24/2 = 12), slow takes 2
        // (12/1 = 12): perfectly balanced.
        assert_eq!(r.assignment.boundaries(), &[4]);
        assert_eq!(r.bottleneck, Weight::new(12));
    }

    #[test]
    fn rejects_bad_processor_counts() {
        let p = PathGraph::from_raw(&[1, 2], &[3]).unwrap();
        assert!(hetero_partition(&p, &HeteroArray::new(vec![1, 1, 1])).is_err());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_speed_panics() {
        HeteroArray::new(vec![1, 0]);
    }
}
