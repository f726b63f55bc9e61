//! Bokhari's layered-graph partitioning (IEEE ToC 1988).
//!
//! Bokhari partitions a chain of `n` modules over `m` processors of a
//! linear array, minimizing the bottleneck (maximum per-processor
//! computation + boundary communication). His original algorithm builds a
//! layered graph whose `O(n²m)` arcs encode all `(block, processor)`
//! choices and extracts a minimax path in `O(n³m)` time.
//!
//! [`bokhari_partition`] evaluates exactly that layered graph by dynamic
//! programming, using prefix sums for O(1) block costs — the standard
//! presentation of Bokhari's method, `O(n²m)` time and `O(nm)` space. It
//! is the exact reference the faster baselines are verified against.

#![allow(clippy::needless_range_loop)] // index-based DP reads clearer here

use tgp_graph::{ChainView, Weight};

use crate::coc::{segment_cost, ChainAssignment, CocError};

/// Result of a chains-on-chains bottleneck partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CocResult {
    /// The optimal assignment of modules to processors.
    pub assignment: ChainAssignment,
    /// Its bottleneck value.
    pub bottleneck: Weight,
}

/// Bokhari's layered-graph algorithm: exact minimax chain partition over
/// `m` processors, `O(n²m)` time.
///
/// # Errors
///
/// [`CocError::BadProcessorCount`] unless `1 ≤ m ≤ n`.
///
/// # Examples
///
/// ```
/// use tgp_baselines::bokhari::bokhari_partition;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chain = PathGraph::from_raw(&[5, 5, 5, 5], &[1, 1, 1])?;
/// let r = bokhari_partition(&chain, 2)?;
/// assert_eq!(r.bottleneck, Weight::new(11)); // 5+5 plus one boundary edge
/// # Ok(())
/// # }
/// ```
pub fn bokhari_partition<C: ChainView>(path: &C, m: usize) -> Result<CocResult, CocError> {
    let n = path.len();
    if m < 1 || m > n {
        return Err(CocError::BadProcessorCount { n, m });
    }
    const INF: u64 = u64::MAX;
    // dp[j][t] = minimal bottleneck assigning modules 0..=t to j+1
    // processors (layer j of Bokhari's graph); split[j][t] reconstructs.
    let mut dp = vec![vec![INF; n]; m];
    let mut split = vec![vec![usize::MAX; n]; m];
    for t in 0..n {
        dp[0][t] = segment_cost(path, 0, t).get();
    }
    for j in 1..m {
        for t in j..n {
            // Last block is s..=t; previous blocks cover 0..=s-1 with j
            // processors: s ranges over j..=t.
            let mut best = INF;
            let mut best_s = usize::MAX;
            for s in j..=t {
                let prev = dp[j - 1][s - 1];
                if prev == INF {
                    continue;
                }
                let cost = prev.max(segment_cost(path, s, t).get());
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
    debug_assert_ne!(bottleneck, INF, "m <= n guarantees a valid assignment");
    // Reconstruct boundaries right to left.
    let mut boundaries = Vec::with_capacity(m - 1);
    let mut t = n - 1;
    for j in (1..m).rev() {
        let s = split[j][t];
        boundaries.push(s);
        t = s - 1;
    }
    boundaries.reverse();
    let assignment = ChainAssignment::new(boundaries);
    debug_assert_eq!(assignment.bottleneck(path).get(), bottleneck);
    Ok(CocResult {
        assignment,
        bottleneck: Weight::new(bottleneck),
    })
}

/// Bokhari's problem with "at most `m` processors" semantics: because a
/// block pays for its boundary communication, using *fewer* processors is
/// sometimes strictly better; this wrapper returns the best exact-`j`
/// solution over `1 ≤ j ≤ min(m, n)`.
///
/// # Errors
///
/// [`CocError::BadProcessorCount`] if `m == 0`.
///
/// # Examples
///
/// ```
/// use tgp_baselines::bokhari::bokhari_partition_at_most;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Splitting this chain anywhere costs more than running it whole.
/// let chain = PathGraph::from_raw(&[3, 3], &[100])?;
/// let r = bokhari_partition_at_most(&chain, 2)?;
/// assert_eq!(r.assignment.processors(), 1);
/// assert_eq!(r.bottleneck, Weight::new(6));
/// # Ok(())
/// # }
/// ```
pub fn bokhari_partition_at_most<C: ChainView>(path: &C, m: usize) -> Result<CocResult, CocError> {
    let n = path.len();
    if m == 0 {
        return Err(CocError::BadProcessorCount { n, m });
    }
    let mut best: Option<CocResult> = None;
    for j in 1..=m.min(n) {
        let r = bokhari_partition(path, j)?;
        if best.as_ref().is_none_or(|b| r.bottleneck < b.bottleneck) {
            best = Some(r);
        }
    }
    Ok(best.expect("j = 1 always succeeds"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coc::brute_force_bottleneck;
    use tgp_graph::PathGraph;

    #[test]
    fn rejects_bad_processor_counts() {
        let p = PathGraph::from_raw(&[1, 2], &[3]).unwrap();
        assert!(matches!(
            bokhari_partition(&p, 0),
            Err(CocError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            bokhari_partition(&p, 3),
            Err(CocError::BadProcessorCount { .. })
        ));
    }

    #[test]
    fn one_processor_takes_everything() {
        let p = PathGraph::from_raw(&[1, 2, 3], &[9, 9]).unwrap();
        let r = bokhari_partition(&p, 1).unwrap();
        assert_eq!(r.assignment.processors(), 1);
        assert_eq!(r.bottleneck, Weight::new(6));
    }

    #[test]
    fn n_processors_isolate_every_module() {
        let p = PathGraph::from_raw(&[4, 4, 4], &[1, 1]).unwrap();
        let r = bokhari_partition(&p, 3).unwrap();
        assert_eq!(r.assignment.processors(), 3);
        assert_eq!(r.bottleneck, Weight::new(6)); // middle: 4 + 1 + 1
    }

    #[test]
    fn communication_steers_the_split() {
        // Splitting at the cheap edge beats the balanced split.
        let p = PathGraph::from_raw(&[4, 4, 4, 4], &[100, 1, 100]).unwrap();
        let r = bokhari_partition(&p, 2).unwrap();
        assert_eq!(r.assignment.boundaries(), &[2]);
        assert_eq!(r.bottleneck, Weight::new(9)); // 4+4 plus edge 1
    }

    #[test]
    fn at_most_semantics_can_beat_exact() {
        // Heavy boundary edges punish splitting.
        let p = PathGraph::from_raw(&[3, 3, 3], &[100, 100]).unwrap();
        let exact = bokhari_partition(&p, 3).unwrap();
        let at_most = bokhari_partition_at_most(&p, 3).unwrap();
        assert_eq!(at_most.assignment.processors(), 1);
        assert!(at_most.bottleneck < exact.bottleneck);
    }

    #[test]
    fn at_most_is_monotone_in_m() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xA7);
        for _ in 0..30 {
            let n: usize = rng.gen_range(1..15);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..30)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..30)).collect();
            let p = PathGraph::from_raw(&nodes, &edges).unwrap();
            let mut prev = None;
            for m in 1..=n + 2 {
                let r = bokhari_partition_at_most(&p, m).unwrap();
                if let Some(prev) = prev {
                    assert!(r.bottleneck <= prev);
                }
                prev = Some(r.bottleneck);
            }
        }
    }

    #[test]
    fn matches_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..120 {
            let n = rng.gen_range(1..9);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..20)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..20)).collect();
            let p = PathGraph::from_raw(&nodes, &edges).unwrap();
            for m in 1..=n {
                let r = bokhari_partition(&p, m).unwrap();
                let expect = brute_force_bottleneck(&p, m).unwrap();
                assert_eq!(
                    r.bottleneck, expect,
                    "nodes={nodes:?} edges={edges:?} m={m}"
                );
            }
        }
    }
}
