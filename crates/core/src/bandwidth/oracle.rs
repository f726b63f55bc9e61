//! Reference dynamic programs for bandwidth minimization on a path.
//!
//! Two implementations that do not use the paper's prime-subpath machinery,
//! used as correctness oracles and ablation baselines:
//!
//! * [`min_bandwidth_cut_oracle`] — direct textbook DP, O(n · L) where `L`
//!   is the longest feasible segment length (worst case O(n²)),
//! * [`min_bandwidth_cut_window`] — the same DP with a monotonic-deque
//!   sliding-window minimum, O(n). This technique post-dates the paper and
//!   is included as a modern reference point for the benches.

use std::collections::VecDeque;

use tgp_graph::{ChainView, CutSet, EdgeId, PathGraph, Weight};

use crate::error::{check_bound, PartitionError};

const INF: u64 = u64::MAX;

/// Shared scaffolding: handles the trivial cases, otherwise calls `solve`
/// to fill the DP tables and reconstructs the cut.
fn run_dp(
    path: &PathGraph,
    bound: Weight,
    solve: impl FnOnce(&PathGraph, Weight, &mut [u64], &mut [usize]),
) -> Result<CutSet, PartitionError> {
    check_bound(path.max_node_weight(), path.node_weights(), bound)?;
    if path.total_weight() <= bound {
        return Ok(CutSet::empty());
    }
    let m = path.edge_count();
    debug_assert!(m >= 1, "total > bound with one node is impossible");
    // cost[j] = min cut weight such that edge j is cut and the prefix of
    // nodes 0..=j is feasibly segmented; parent[j] = previous cut edge
    // (usize::MAX = none).
    let mut cost = vec![INF; m];
    let mut parent = vec![usize::MAX; m];
    solve(path, bound, &mut cost, &mut parent);
    // Choose the last cut: edge j whose suffix (j+1..n-1) fits the bound.
    let n = path.len();
    let mut best: Option<usize> = None;
    for j in (0..m).rev() {
        if path.span_weight(j + 1, n - 1) > bound {
            break; // suffix only grows as j decreases
        }
        if cost[j] < INF && best.is_none_or(|b| cost[j] < cost[b]) {
            best = Some(j);
        }
    }
    let mut j = best.expect("a feasible cut exists whenever bound >= max vertex weight");
    let mut edges = Vec::new();
    loop {
        edges.push(EdgeId::new(j));
        if parent[j] == usize::MAX {
            break;
        }
        j = parent[j];
    }
    Ok(CutSet::new(edges))
}

/// Minimum-weight feasible cut by the direct textbook DP (the oracle).
///
/// For every edge `j`, scans candidate previous cuts backwards while the
/// intermediate segment still fits the bound: O(n · L) time, O(n) space.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_core::bandwidth::min_bandwidth_cut_oracle;
/// use tgp_graph::{ChainView, PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[4, 4, 4, 4], &[9, 1, 9])?;
/// let cut = min_bandwidth_cut_oracle(&p, Weight::new(8))?;
/// assert_eq!(p.cut_weight(&cut)?, Weight::new(1)); // cut the middle edge
/// # Ok(())
/// # }
/// ```
pub fn min_bandwidth_cut_oracle(path: &PathGraph, bound: Weight) -> Result<CutSet, PartitionError> {
    run_dp(path, bound, |path, bound, cost, parent| {
        let m = path.edge_count();
        for j in 0..m {
            let beta = path.edge_weight(EdgeId::new(j)).get();
            // Base case: the whole prefix 0..=j forms one segment.
            if path.span_weight(0, j) <= bound {
                cost[j] = beta;
                parent[j] = usize::MAX;
            }
            // Previous cut at i: segment i+1..=j must fit.
            for i in (0..j).rev() {
                if path.span_weight(i + 1, j) > bound {
                    break;
                }
                if cost[i] < INF && cost[i].saturating_add(beta) < cost[j] {
                    cost[j] = cost[i] + beta;
                    parent[j] = i;
                }
            }
        }
    })
}

/// Minimum-weight feasible cut via a monotonic-deque sliding-window
/// minimum over the same DP: O(n) time, O(n) space.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
pub fn min_bandwidth_cut_window(path: &PathGraph, bound: Weight) -> Result<CutSet, PartitionError> {
    run_dp(path, bound, |path, bound, cost, parent| {
        let m = path.edge_count();
        // Deque of candidate predecessor edges i with strictly increasing
        // cost front-to-back; the window of valid i for edge j is
        // [lo_j, j-1], with lo_j non-decreasing in j.
        let mut deque: VecDeque<usize> = VecDeque::new();
        let mut lo = 0usize; // smallest i still possibly valid
        for j in 0..m {
            // Admit i = j - 1 (newly available predecessor).
            if j >= 1 {
                let i = j - 1;
                if cost[i] < INF {
                    while deque.back().is_some_and(|&b| cost[b] >= cost[i]) {
                        deque.pop_back();
                    }
                    deque.push_back(i);
                }
            }
            // Evict predecessors whose segment i+1..=j no longer fits.
            while lo < j && path.span_weight(lo + 1, j) > bound {
                lo += 1;
            }
            while deque.front().is_some_and(|&f| f < lo) {
                deque.pop_front();
            }
            let beta = path.edge_weight(EdgeId::new(j)).get();
            if path.span_weight(0, j) <= bound {
                cost[j] = beta;
                parent[j] = usize::MAX;
            }
            if let Some(&i) = deque.front() {
                let candidate = cost[i].saturating_add(beta);
                if candidate < cost[j] {
                    cost[j] = candidate;
                    parent[j] = i;
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[u64], edges: &[u64]) -> PathGraph {
        PathGraph::from_raw(nodes, edges).unwrap()
    }

    /// Brute force over all 2^(n-1) cuts.
    fn brute(path: &PathGraph, bound: Weight) -> Option<u64> {
        let m = path.edge_count();
        let mut best: Option<u64> = None;
        for mask in 0u32..(1 << m) {
            let cut: CutSet = (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(EdgeId::new)
                .collect();
            if path.is_feasible_cut(&cut, bound).unwrap() {
                let w = path.cut_weight(&cut).unwrap().get();
                if best.is_none_or(|b| w < b) {
                    best = Some(w);
                }
            }
        }
        best
    }

    #[test]
    fn empty_cut_when_everything_fits() {
        let p = path(&[1, 2, 3], &[10, 10]);
        assert!(min_bandwidth_cut_oracle(&p, Weight::new(6))
            .unwrap()
            .is_empty());
        assert!(min_bandwidth_cut_window(&p, Weight::new(6))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn infeasible_bound_errors() {
        let p = path(&[1, 9], &[1]);
        for f in [min_bandwidth_cut_oracle, min_bandwidth_cut_window] {
            assert!(matches!(
                f(&p, Weight::new(8)),
                Err(PartitionError::BoundTooSmall { .. })
            ));
        }
    }

    #[test]
    fn picks_cheapest_edge_in_forced_window() {
        let p = path(&[4, 4, 4, 4], &[9, 1, 9]);
        for f in [min_bandwidth_cut_oracle, min_bandwidth_cut_window] {
            let cut = f(&p, Weight::new(8)).unwrap();
            assert_eq!(p.cut_weight(&cut).unwrap(), Weight::new(1));
            assert!(p.is_feasible_cut(&cut, Weight::new(8)).unwrap());
        }
    }

    #[test]
    fn single_node_never_needs_cutting() {
        let p = path(&[5], &[]);
        for f in [min_bandwidth_cut_oracle, min_bandwidth_cut_window] {
            assert!(f(&p, Weight::new(5)).unwrap().is_empty());
        }
    }

    #[test]
    fn tight_bound_cuts_every_edge() {
        let p = path(&[3, 3, 3], &[7, 11]);
        for f in [min_bandwidth_cut_oracle, min_bandwidth_cut_window] {
            let cut = f(&p, Weight::new(3)).unwrap();
            assert_eq!(cut.len(), 2);
            assert_eq!(p.cut_weight(&cut).unwrap(), Weight::new(18));
        }
    }

    #[test]
    fn both_match_brute_force_exhaustively() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..300 {
            let n = rng.gen_range(1..11);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..15)).collect();
            let p = path(&nodes, &edges);
            let max = nodes.iter().copied().max().unwrap();
            let k = rng.gen_range(max..=max + 20);
            let expect = brute(&p, Weight::new(k)).unwrap();
            for f in [min_bandwidth_cut_oracle, min_bandwidth_cut_window] {
                let cut = f(&p, Weight::new(k)).unwrap();
                assert!(p.is_feasible_cut(&cut, Weight::new(k)).unwrap());
                assert_eq!(
                    p.cut_weight(&cut).unwrap().get(),
                    expect,
                    "nodes={nodes:?} edges={edges:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn window_matches_oracle_on_larger_random_inputs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..40 {
            let n = rng.gen_range(2..400);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..50)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..1000)).collect();
            let p = path(&nodes, &edges);
            let max = nodes.iter().copied().max().unwrap();
            let k = rng.gen_range(max..=max * 4);
            let a = min_bandwidth_cut_oracle(&p, Weight::new(k)).unwrap();
            let b = min_bandwidth_cut_window(&p, Weight::new(k)).unwrap();
            assert_eq!(
                p.cut_weight(&a).unwrap(),
                p.cut_weight(&b).unwrap(),
                "n={n} k={k}"
            );
        }
    }
}
