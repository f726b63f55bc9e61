//! Shared workload builders and sweep drivers for the benchmark harness.
//!
//! The figure-regeneration binaries (`figure2`, `experiments`) and the
//! Criterion benches all draw their instances from here so results are
//! comparable across entry points. Everything is seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp_core::bandwidth::{analyze_bandwidth, BandwidthStats};
use tgp_graph::generators::{random_chain, random_tree, WeightDist};
use tgp_graph::{ChainView, PathGraph, Tree, Weight};

/// A seeded random chain with vertex weights uniform on `[w_lo, w_hi]`
/// and edge weights uniform on `[1, 1000]` (the Figure 2 workload; the
/// paper's average-case analysis assumes uniform vertex weights).
pub fn chain_instance(n: usize, w_lo: u64, w_hi: u64, seed: u64) -> PathGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    random_chain(
        n,
        WeightDist::Uniform { lo: w_lo, hi: w_hi },
        WeightDist::Uniform { lo: 1, hi: 1000 },
        &mut rng,
    )
}

/// A seeded random tree with the same weight regime as [`chain_instance`].
pub fn tree_instance(n: usize, w_lo: u64, w_hi: u64, seed: u64) -> Tree {
    let mut rng = SmallRng::seed_from_u64(seed);
    random_tree(
        n,
        WeightDist::Uniform { lo: w_lo, hi: w_hi },
        WeightDist::Uniform { lo: 1, hi: 1000 },
        &mut rng,
    )
}

/// `points` values of `K` swept geometrically from `max α` (the
/// feasibility floor) to the total chain weight (above which the empty cut
/// wins) — covering the paper's "high and low K" regimes.
pub fn k_sweep(path: &PathGraph, points: usize) -> Vec<Weight> {
    assert!(points >= 2, "a sweep needs at least two points");
    let lo = path.max_node_weight().get().max(1);
    let hi = path.total_weight().get().max(lo + 1);
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (points as f64 - 1.0));
    let mut ks: Vec<Weight> = (0..points)
        .map(|i| Weight::new((lo as f64 * ratio.powi(i as i32)).round() as u64))
        .collect();
    ks.dedup();
    ks
}

/// One row of the Figure 2 reproduction: instance statistics for a single
/// `(n, K, weight range)` combination.
#[derive(Debug, Clone, Copy)]
pub struct Figure2Row {
    /// Chain length.
    pub n: usize,
    /// The load bound `K`.
    pub k: u64,
    /// Maximum vertex weight of the weight distribution.
    pub w_max: u64,
    /// Bandwidth statistics of the solved instance.
    pub stats: BandwidthStats,
}

/// Sweeps `K` over a chain, solving each instance with the TEMP_S
/// algorithm and recording the paper's Figure 2 quantities.
pub fn figure2_sweep(
    n: usize,
    w_lo: u64,
    w_hi: u64,
    k_points: usize,
    seed: u64,
) -> Vec<Figure2Row> {
    let path = chain_instance(n, w_lo, w_hi, seed);
    k_sweep(&path, k_points)
        .into_iter()
        .map(|k| {
            let (_, stats) =
                analyze_bandwidth(&path, k).expect("K >= max vertex weight by construction");
            Figure2Row {
                n,
                k: k.get(),
                w_max: w_hi,
                stats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_instances_are_reproducible() {
        let a = chain_instance(100, 1, 50, 7);
        let b = chain_instance(100, 1, 50, 7);
        assert_eq!(a, b);
        let c = chain_instance(100, 1, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn k_sweep_spans_floor_to_total() {
        let p = chain_instance(500, 1, 100, 1);
        let ks = k_sweep(&p, 10);
        assert!(ks.len() >= 2);
        assert_eq!(ks[0], p.max_node_weight());
        assert_eq!(*ks.last().unwrap(), p.total_weight());
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn figure2_rows_cover_the_sweep() {
        let rows = figure2_sweep(1000, 1, 100, 8, 3);
        assert!(rows.len() >= 2);
        // Lowest K: many primes; highest K: none (empty cut).
        assert!(rows.first().unwrap().stats.p > 0);
        assert_eq!(rows.last().unwrap().stats.p, 0);
        // The headline claim on every row: p log q <= n log n.
        for r in &rows {
            assert!(r.stats.p_log_q <= r.stats.n_log_n, "k={}", r.k);
        }
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn tiny_sweep_panics() {
        let p = chain_instance(10, 1, 5, 1);
        k_sweep(&p, 1);
    }
}
