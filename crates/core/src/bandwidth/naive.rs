//! The paper's naive recurrence over prime subpaths (§2.3).
//!
//! `S_1 = {e_s}` with `β_s` minimal over `E(P_1)`, and
//! `S_{i+1} = {e_s} ∪ S_{γ_s}` where `e_s` minimizes
//! `β_j + β(S_{γ_j})` over `e_j ∈ E(P_{i+1})`; `γ_j = c_j − 1` is the
//! number of prime subpaths wholly to the left of `e_j`.
//!
//! Evaluated directly this costs `O(Σ|P_i|)` — up to `O(np)` — which is
//! why the paper develops the TEMP_S implementation
//! ([`super::temps`]). Kept as a faithful mid-complexity reference.

use tgp_graph::{ChainView, CutSet, EdgeId, PathGraph, Weight};

use super::prime::prime_subpaths;
use crate::error::PartitionError;

/// Minimum-weight feasible cut via the paper's naive prime-subpath
/// recurrence: `O(Σ|P_i|)` time (worst case `O(np)`), `O(n)` space.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_core::bandwidth::min_bandwidth_cut_naive;
/// use tgp_graph::{ChainView, PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[4, 4, 4, 4], &[9, 1, 9])?;
/// let cut = min_bandwidth_cut_naive(&p, Weight::new(8))?;
/// assert_eq!(p.cut_weight(&cut)?, Weight::new(1));
/// # Ok(())
/// # }
/// ```
pub fn min_bandwidth_cut_naive(path: &PathGraph, bound: Weight) -> Result<CutSet, PartitionError> {
    let primes = prime_subpaths(path, bound)?;
    if primes.is_empty() {
        return Ok(CutSet::empty());
    }
    let p = primes.len();
    // c_of_edge[j] = index of the first prime subpath containing edge j.
    // Filled by sweeping primes left to right (later primes do not
    // overwrite).
    let mut c_of_edge = vec![usize::MAX; path.edge_count()];
    for (i, pr) in primes.iter().enumerate() {
        for e in pr.edges() {
            if c_of_edge[e.index()] == usize::MAX {
                c_of_edge[e.index()] = i;
            }
        }
    }
    // Persistent solution sets: arena of (edge, parent) cons cells.
    let mut arena: Vec<(EdgeId, Option<usize>)> = Vec::with_capacity(p);
    // cost[i] = β(S_{i+1}) in paper terms (0-based prime index);
    // set[i] = arena index of the last cons cell of S_{i+1}.
    let mut cost = vec![u64::MAX; p];
    let mut set: Vec<Option<usize>> = vec![None; p];
    for (i, pr) in primes.iter().enumerate() {
        let mut best: Option<(u64, EdgeId, Option<usize>)> = None;
        for e in pr.edges() {
            let c = c_of_edge[e.index()];
            debug_assert!(c <= i, "edge of P_i first appears in a prime <= i");
            let gamma_cost = if c == 0 { 0 } else { cost[c - 1] };
            let gamma_set = if c == 0 { None } else { set[c - 1] };
            debug_assert_ne!(gamma_cost, u64::MAX);
            let w = path.edge_weight(e).get() + gamma_cost;
            if best.as_ref().is_none_or(|&(bw, _, _)| w < bw) {
                best = Some((w, e, gamma_set));
            }
        }
        let (w, e, gamma_set) = best.expect("every prime subpath has at least one edge");
        arena.push((e, gamma_set));
        cost[i] = w;
        set[i] = Some(arena.len() - 1);
    }
    // Reconstruct S_p.
    let mut edges = Vec::new();
    let mut cursor = set[p - 1];
    while let Some(idx) = cursor {
        let (e, parent) = arena[idx];
        edges.push(e);
        cursor = parent;
    }
    let cut = CutSet::new(edges);
    debug_assert_eq!(path.cut_weight(&cut).map(|w| w.get()), Ok(cost[p - 1]));
    debug_assert_eq!(path.is_feasible_cut(&cut, bound), Ok(true));
    Ok(cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::min_bandwidth_cut_oracle;

    fn path(nodes: &[u64], edges: &[u64]) -> PathGraph {
        PathGraph::from_raw(nodes, edges).unwrap()
    }

    #[test]
    fn empty_cut_when_everything_fits() {
        let p = path(&[1, 2, 3], &[10, 10]);
        assert!(min_bandwidth_cut_naive(&p, Weight::new(6))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn infeasible_bound_errors() {
        let p = path(&[1, 9], &[1]);
        assert!(matches!(
            min_bandwidth_cut_naive(&p, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn forced_single_cut() {
        let p = path(&[4, 4, 4, 4], &[9, 1, 9]);
        let cut = min_bandwidth_cut_naive(&p, Weight::new(8)).unwrap();
        assert_eq!(cut.len(), 1);
        assert!(cut.contains(EdgeId::new(1)));
    }

    #[test]
    fn shared_edge_between_overlapping_primes_is_reused() {
        // [10, 1, 1, 10], K = 11: primes [0..=2] and [1..=3]; the shared
        // middle edge 1 (weight 1) hits both, beating cutting edges 0 and
        // 2 (weight 5 + 5).
        let p = path(&[10, 1, 1, 10], &[5, 1, 5]);
        let cut = min_bandwidth_cut_naive(&p, Weight::new(11)).unwrap();
        assert_eq!(cut.len(), 1);
        assert!(cut.contains(EdgeId::new(1)));
    }

    #[test]
    fn matches_oracle_on_random_inputs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for round in 0..200 {
            let n = rng.gen_range(1..80);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..12)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..40)).collect();
            let p = path(&nodes, &edges);
            let max = nodes.iter().copied().max().unwrap();
            let k = rng.gen_range(max..=max * 3);
            let ours = min_bandwidth_cut_naive(&p, Weight::new(k)).unwrap();
            let oracle = min_bandwidth_cut_oracle(&p, Weight::new(k)).unwrap();
            assert!(p.is_feasible_cut(&ours, Weight::new(k)).unwrap());
            assert_eq!(
                p.cut_weight(&ours).unwrap(),
                p.cut_weight(&oracle).unwrap(),
                "round={round} nodes={nodes:?} edges={edges:?} k={k}"
            );
        }
    }
}
