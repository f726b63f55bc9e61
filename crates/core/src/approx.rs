//! Partitioning general process graphs via super-graph approximation.
//!
//! The paper's algorithms are exact for chains and trees; its conclusion
//! extends them to general systems: "more general cases may be
//! approximated by generating a linear or tree supergraph of the original
//! process graph". This module implements both routes behind one API:
//!
//! * **linear** ([`ApproxMethod::LinearIdentity`],
//!   [`ApproxMethod::LinearBfs`]) — arrange the processes on a line,
//!   build the boundary-weighted chain
//!   ([`tgp_graph::supergraph`]), and run the exact `O(n + p log q)`
//!   bandwidth minimization;
//! * **tree** ([`ApproxMethod::SpanningTree`]) — keep a maximum-weight
//!   spanning tree ([`tgp_graph::spanning`]) and minimize bandwidth on it
//!   with the exact pseudo-polynomial DP
//!   ([`crate::tree_bandwidth`]) while the `n·K` state space is
//!   affordable, falling back to the polynomial bottleneck + processor
//!   minimization pipeline for huge bounds. (Exact bandwidth minimization
//!   on trees is NP-complete — Theorem 1 — so pseudo-polynomial is the
//!   best possible.)
//!
//! Every candidate is scored by its *true* cut cost on the original
//! graph, so [`partition_process_graph_best`] can fairly pick the winner.

use tgp_graph::spanning::tree_supergraph;
use tgp_graph::supergraph::{linear_supergraph, LinearOrdering};
use tgp_graph::{NodeId, ProcessGraph, Weight};

use crate::budget::Budget;
use crate::error::PartitionError;
use crate::pipeline::{partition_chain, partition_tree};

/// Which super-graph approximation to use for a general process graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ApproxMethod {
    /// Linear super-graph over the natural node order (best when the
    /// system is already pipeline- or ring-shaped).
    LinearIdentity,
    /// Linear super-graph over a BFS order from a pseudo-peripheral node.
    LinearBfs,
    /// Maximum-weight spanning tree, bandwidth-minimized exactly with the
    /// pseudo-polynomial DP when affordable (bottleneck + processor
    /// minimization pipeline otherwise).
    SpanningTree,
}

impl ApproxMethod {
    /// All methods, in the order [`partition_process_graph_best`] tries
    /// them.
    pub const ALL: [ApproxMethod; 3] = [
        ApproxMethod::LinearIdentity,
        ApproxMethod::LinearBfs,
        ApproxMethod::SpanningTree,
    ];
}

/// A partition of a general process graph into load-bounded parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessPartition {
    /// `part_of[v]` = part hosting process `v`.
    pub part_of: Vec<usize>,
    /// Number of parts (processors).
    pub parts: usize,
    /// Total vertex weight per part.
    pub part_weights: Vec<Weight>,
    /// True total weight of graph edges crossing parts (evaluated on the
    /// original graph, not the super-graph).
    pub cut_weight: Weight,
    /// The approximation that produced this partition.
    pub method: ApproxMethod,
}

impl ProcessPartition {
    /// The heaviest part.
    pub fn max_part_weight(&self) -> Weight {
        self.part_weights
            .iter()
            .copied()
            .max()
            .unwrap_or(Weight::ZERO)
    }

    fn from_assignment(
        g: &ProcessGraph,
        part_of: Vec<usize>,
        method: ApproxMethod,
    ) -> ProcessPartition {
        let parts = part_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut part_weights = vec![Weight::ZERO; parts];
        for (v, &p) in part_of.iter().enumerate() {
            part_weights[p] += g.node_weight(NodeId::new(v));
        }
        let mut cut_weight = Weight::ZERO;
        for e in g.edges() {
            if part_of[e.a.index()] != part_of[e.b.index()] {
                cut_weight += e.weight;
            }
        }
        ProcessPartition {
            part_of,
            parts,
            part_weights,
            cut_weight,
            method,
        }
    }
}

/// Partitions a general process graph under a per-part load bound using
/// the given approximation.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if some process alone outweighs the
/// bound (no approximation can fix that).
///
/// # Examples
///
/// ```
/// use tgp_core::approx::{partition_process_graph, ApproxMethod};
/// use tgp_graph::{ProcessGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = ProcessGraph::from_raw(
///     &[3, 3, 3, 3],
///     &[(0, 1, 10), (1, 2, 10), (2, 3, 10), (3, 0, 10)],
/// )?;
/// let part = partition_process_graph(&ring, Weight::new(6), ApproxMethod::LinearIdentity)?;
/// assert!(part.max_part_weight() <= Weight::new(6));
/// # Ok(())
/// # }
/// ```
pub fn partition_process_graph(
    g: &ProcessGraph,
    bound: Weight,
    method: ApproxMethod,
) -> Result<ProcessPartition, PartitionError> {
    let part_of = match method {
        ApproxMethod::LinearIdentity | ApproxMethod::LinearBfs => {
            let ordering = if method == ApproxMethod::LinearIdentity {
                LinearOrdering::Identity
            } else {
                LinearOrdering::BfsFromPeriphery
            };
            let sup = linear_supergraph(g, ordering)?;
            let part = partition_chain(sup.path(), bound, &Budget::unlimited())?;
            let mut part_of = vec![0usize; g.len()];
            for (idx, seg) in part.segments.iter().enumerate() {
                for pos in seg.start..=seg.end {
                    part_of[sup.process_at(pos).index()] = idx;
                }
            }
            part_of
        }
        ApproxMethod::SpanningTree => {
            let sup = tree_supergraph(g);
            // Prefer the exact pseudo-polynomial bandwidth DP while its
            // n·K state space is affordable; fall back to the polynomial
            // bottleneck + procmin pipeline for huge bounds.
            const STATE_BUDGET: u128 = 20_000_000;
            let states = g.len() as u128 * (u128::from(bound.get()) + 1);
            if states <= STATE_BUDGET {
                let cut = crate::tree_bandwidth::min_tree_bandwidth_cut(sup.tree(), bound)?;
                let comps = sup.components(&cut);
                (0..g.len())
                    .map(|v| comps.component_of(NodeId::new(v)))
                    .collect()
            } else {
                let part = partition_tree(sup.tree(), bound)?;
                (0..g.len())
                    .map(|v| part.components.component_of(NodeId::new(v)))
                    .collect()
            }
        }
    };
    Ok(ProcessPartition::from_assignment(g, part_of, method))
}

/// Tries every [`ApproxMethod`] and returns the partition with the lowest
/// true cut weight (ties: fewer parts, then method order).
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if some process alone outweighs the
/// bound.
pub fn partition_process_graph_best(
    g: &ProcessGraph,
    bound: Weight,
) -> Result<ProcessPartition, PartitionError> {
    let mut best: Option<ProcessPartition> = None;
    for method in ApproxMethod::ALL {
        let candidate = partition_process_graph(g, bound, method)?;
        let better = match &best {
            None => true,
            Some(b) => (candidate.cut_weight, candidate.parts) < (b.cut_weight, b.parts),
        };
        if better {
            best = Some(candidate);
        }
    }
    Ok(best.expect("at least one method ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, node_w: u64, edge_w: u64) -> ProcessGraph {
        let nodes = vec![node_w; n];
        let edges: Vec<(usize, usize, u64)> = (0..n).map(|i| (i, (i + 1) % n, edge_w)).collect();
        ProcessGraph::from_raw(&nodes, &edges).unwrap()
    }

    #[test]
    fn all_methods_respect_the_bound() {
        let g = ring(12, 5, 7);
        for method in ApproxMethod::ALL {
            let part = partition_process_graph(&g, Weight::new(20), method).unwrap();
            assert!(part.max_part_weight() <= Weight::new(20), "{method:?}");
            assert_eq!(part.part_of.len(), 12);
            assert!(part.part_of.iter().all(|&p| p < part.parts));
            let total: Weight = part.part_weights.iter().copied().sum();
            assert_eq!(total, g.total_weight());
        }
    }

    #[test]
    fn bound_too_small_errors() {
        let g = ring(4, 9, 1);
        for method in ApproxMethod::ALL {
            assert!(matches!(
                partition_process_graph(&g, Weight::new(8), method),
                Err(PartitionError::BoundTooSmall { .. })
            ));
        }
    }

    #[test]
    fn identity_order_wins_on_rings() {
        // On a uniform ring the identity order cuts exactly where needed;
        // BFS interleaves the two directions and pays for it.
        let g = ring(32, 1, 10);
        let best = partition_process_graph_best(&g, Weight::new(8)).unwrap();
        let ident =
            partition_process_graph(&g, Weight::new(8), ApproxMethod::LinearIdentity).unwrap();
        assert_eq!(best.cut_weight, ident.cut_weight);
    }

    #[test]
    fn spanning_tree_wins_on_star_heavy_graphs() {
        // A hub with heavy spokes plus a light ring among the leaves: the
        // spanning tree keeps the spokes, so the tree pipeline can cut
        // only light ring edges... whereas any linear order must separate
        // hub from some heavy spoke.
        let mut edges: Vec<(usize, usize, u64)> = (1..9).map(|i| (0, i, 100)).collect();
        for i in 1..8 {
            edges.push((i, i + 1, 1));
        }
        let nodes = vec![4u64; 9];
        let g = ProcessGraph::from_raw(&nodes, &edges).unwrap();
        let tree_part =
            partition_process_graph(&g, Weight::new(20), ApproxMethod::SpanningTree).unwrap();
        let best = partition_process_graph_best(&g, Weight::new(20)).unwrap();
        assert!(best.cut_weight <= tree_part.cut_weight);
        // The best choice never loses to any single method.
        for method in ApproxMethod::ALL {
            let p = partition_process_graph(&g, Weight::new(20), method).unwrap();
            assert!(best.cut_weight <= p.cut_weight, "{method:?}");
        }
    }

    #[test]
    fn loose_bound_yields_single_part() {
        let g = ring(6, 2, 3);
        let part = partition_process_graph_best(&g, Weight::new(12)).unwrap();
        assert_eq!(part.parts, 1);
        assert_eq!(part.cut_weight, Weight::ZERO);
    }

    #[test]
    fn single_process_graph() {
        let g = ProcessGraph::from_raw(&[5], &[]).unwrap();
        for method in ApproxMethod::ALL {
            let part = partition_process_graph(&g, Weight::new(5), method).unwrap();
            assert_eq!(part.parts, 1);
        }
    }
}
