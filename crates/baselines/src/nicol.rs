//! Nicol & O'Hallaron-style `O(n log n)` bandwidth minimization.
//!
//! Nicol & O'Hallaron (IEEE ToC 1991) solved the shared-memory bandwidth
//! minimization problem — the very problem the reproduced paper's TEMP_S
//! algorithm improves to `O(n + p log q)` — in `O(n log n)` time and
//! `O(n)` space. Their original pseudo-code is not in the reproduced text,
//! so this module implements the same DP recurrence with an ordered-map
//! sliding-window minimum, which matches their stated complexity exactly
//! and produces cuts of identical weight to `tgp_core::bandwidth` (cross
//! checked in the workspace integration tests).
//!
//! This is the head-to-head baseline for the paper's headline claim.

use std::collections::BTreeMap;

use tgp_graph::{ChainView, CutSet, EdgeId, NodeId, Weight};

/// Errors for the baseline bandwidth solver (mirrors
/// `tgp_core::PartitionError` without depending on it, to keep the
/// baseline crate self-contained).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NicolError {
    /// A single vertex outweighs the load bound: no feasible cut.
    BoundTooSmall {
        /// The offending vertex.
        node: NodeId,
        /// Its weight.
        weight: Weight,
        /// The bound.
        bound: Weight,
    },
}

impl std::fmt::Display for NicolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicolError::BoundTooSmall {
                node,
                weight,
                bound,
            } => write!(
                f,
                "load bound {bound} is smaller than the weight {weight} of node {node}"
            ),
        }
    }
}

impl std::error::Error for NicolError {}

/// An ordered multiset of `(cost, edge)` entries supporting O(log n)
/// insert/remove and O(log n) minimum — the window structure behind the
/// `O(n log n)` bound.
#[derive(Debug, Default)]
struct WindowMin {
    map: BTreeMap<(u64, usize), ()>,
}

impl WindowMin {
    fn insert(&mut self, cost: u64, edge: usize) {
        self.map.insert((cost, edge), ());
    }

    fn remove(&mut self, cost: u64, edge: usize) {
        self.map.remove(&(cost, edge));
    }

    fn min(&self) -> Option<(u64, usize)> {
        self.map.keys().next().copied()
    }
}

/// Minimum-weight cut keeping every segment within `bound`, via the
/// `O(n log n)` ordered-map DP (the Nicol & O'Hallaron baseline), over
/// any [`ChainView`] (pointer `PathGraph` or a flat RAM- or
/// disk-backed chain).
///
/// # Errors
///
/// [`NicolError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_baselines::nicol::nicol_bandwidth_cut;
/// use tgp_graph::{ChainView, PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[4, 4, 4, 4], &[9, 1, 9])?;
/// let cut = nicol_bandwidth_cut(&p, Weight::new(8))?;
/// assert_eq!(p.cut_weight(&cut)?, Weight::new(1));
/// # Ok(())
/// # }
/// ```
pub fn nicol_bandwidth_cut<C: ChainView>(path: &C, bound: Weight) -> Result<CutSet, NicolError> {
    for i in 0..path.len() {
        let w = path.node_weight(NodeId::new(i));
        if w > bound {
            return Err(NicolError::BoundTooSmall {
                node: NodeId::new(i),
                weight: w,
                bound,
            });
        }
    }
    if path.total_weight() <= bound {
        return Ok(CutSet::empty());
    }
    const INF: u64 = u64::MAX;
    let n = path.len();
    let m = path.edge_count();
    let mut cost = vec![INF; m];
    let mut parent = vec![usize::MAX; m];
    let mut window = WindowMin::default();
    let mut lo = 0usize; // smallest predecessor index still in the window
    for j in 0..m {
        if j >= 1 && cost[j - 1] < INF {
            window.insert(cost[j - 1], j - 1);
        }
        while lo < j && path.span_weight(lo + 1, j) > bound {
            if cost[lo] < INF {
                window.remove(cost[lo], lo);
            }
            lo += 1;
        }
        let beta = path.edge_weight(EdgeId::new(j)).get();
        if path.span_weight(0, j) <= bound {
            cost[j] = beta;
            parent[j] = usize::MAX;
        }
        if let Some((c, i)) = window.min() {
            let candidate = c.saturating_add(beta);
            if candidate < cost[j] {
                cost[j] = candidate;
                parent[j] = i;
            }
        }
    }
    let mut best: Option<usize> = None;
    for j in (0..m).rev() {
        if path.span_weight(j + 1, n - 1) > bound {
            break;
        }
        if cost[j] < INF && best.is_none_or(|b| cost[j] < cost[b]) {
            best = Some(j);
        }
    }
    let mut j = best.expect("bound >= max vertex weight guarantees feasibility");
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

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::PathGraph;

    #[test]
    fn empty_cut_when_everything_fits() {
        let p = PathGraph::from_raw(&[1, 2, 3], &[10, 10]).unwrap();
        assert!(nicol_bandwidth_cut(&p, Weight::new(6)).unwrap().is_empty());
    }

    #[test]
    fn infeasible_bound_errors() {
        let p = PathGraph::from_raw(&[1, 9], &[1]).unwrap();
        let err = nicol_bandwidth_cut(&p, Weight::new(8)).unwrap_err();
        assert!(matches!(err, NicolError::BoundTooSmall { .. }));
        assert!(err.to_string().contains("v1"));
    }

    #[test]
    fn forced_single_cut() {
        let p = PathGraph::from_raw(&[4, 4, 4, 4], &[9, 1, 9]).unwrap();
        let cut = nicol_bandwidth_cut(&p, Weight::new(8)).unwrap();
        assert_eq!(cut.len(), 1);
        assert!(cut.contains(EdgeId::new(1)));
    }

    #[test]
    fn matches_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            let n = rng.gen_range(1..11);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..15)).collect();
            let p = PathGraph::from_raw(&nodes, &edges).unwrap();
            let max = nodes.iter().copied().max().unwrap();
            let k = rng.gen_range(max..=max + 15);
            let cut = nicol_bandwidth_cut(&p, Weight::new(k)).unwrap();
            assert!(p.is_feasible_cut(&cut, Weight::new(k)).unwrap());
            // Brute force.
            let m = p.edge_count();
            let mut best = u64::MAX;
            for mask in 0u32..(1 << m) {
                let c: CutSet = (0..m)
                    .filter(|&j| mask & (1 << j) != 0)
                    .map(EdgeId::new)
                    .collect();
                if p.is_feasible_cut(&c, Weight::new(k)).unwrap() {
                    best = best.min(p.cut_weight(&c).unwrap().get());
                }
            }
            assert_eq!(p.cut_weight(&cut).unwrap().get(), best);
        }
    }
}
