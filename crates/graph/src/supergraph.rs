//! Linear super-graph approximation of a general process graph.
//!
//! Section 3 of the paper: "for a more general system, we may first
//! approximate the original system by generating a super-graph, which is
//! linear, from the process graph, then apply the algorithm to the
//! super-graph."
//!
//! The approximation works in two steps:
//!
//! 1. Arrange the processes on a line (a *linear ordering*). We provide the
//!    identity ordering and a BFS ordering from a pseudo-peripheral node
//!    (which keeps neighbours close for circular/linear-ish systems, the
//!    case the paper targets).
//! 2. Build a [`PathGraph`] whose node `i` is the `i`-th process in the
//!    ordering, and whose edge `i` carries the total weight of original
//!    edges *crossing the boundary* between positions `≤ i` and `> i`.
//!
//! Cutting boundary `i` of the super-graph then costs exactly the message
//! volume that would cross that boundary. For an original edge spanning
//! several boundaries of which more than one is cut, the model counts it at
//! each cut boundary — an over-estimate, which is why this is an
//! *approximation* (exact for circular/linear systems where edges connect
//! near neighbours).

use crate::{GraphError, NodeId, PathGraph, ProcessGraph, Weight};

/// How to arrange the processes on a line before building the super-graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum LinearOrdering {
    /// Keep the node-index order (appropriate when the system is already
    /// pipeline-shaped).
    Identity,
    /// Breadth-first order from a pseudo-peripheral node (double BFS sweep).
    #[default]
    BfsFromPeriphery,
}

/// The linear super-graph of a process graph together with the ordering
/// used to build it.
#[derive(Debug, Clone)]
pub struct LinearSupergraph {
    path: PathGraph,
    /// `order[i]` = the process placed at position `i`.
    order: Vec<NodeId>,
    /// `position[v]` = the position of process `v`.
    position: Vec<usize>,
}

impl LinearSupergraph {
    /// The resulting path graph.
    pub fn path(&self) -> &PathGraph {
        &self.path
    }

    /// The process placed at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn process_at(&self, i: usize) -> NodeId {
        self.order[i]
    }

    /// The position of process `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn position_of(&self, v: NodeId) -> usize {
        self.position[v.index()]
    }

    /// The full ordering.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }
}

/// Builds the linear super-graph of `g` under the given ordering.
///
/// # Errors
///
/// [`GraphError::WeightOverflow`] if a boundary weight or the total vertex
/// weight overflows `u64`.
///
/// # Examples
///
/// ```
/// use tgp_graph::supergraph::{linear_supergraph, LinearOrdering};
/// use tgp_graph::{ChainView, EdgeId, ProcessGraph, Weight};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// let ring = ProcessGraph::from_raw(
///     &[1, 1, 1, 1],
///     &[(0, 1, 10), (1, 2, 10), (2, 3, 10), (3, 0, 10)],
/// )?;
/// let sup = linear_supergraph(&ring, LinearOrdering::Identity)?;
/// assert_eq!(sup.path().len(), 4);
/// // Boundary 0 is crossed by edges (0,1) and (3,0): weight 20.
/// assert_eq!(sup.path().edge_weight(EdgeId::new(0)), Weight::new(20));
/// # Ok(())
/// # }
/// ```
pub fn linear_supergraph(
    g: &ProcessGraph,
    ordering: LinearOrdering,
) -> Result<LinearSupergraph, GraphError> {
    let order: Vec<NodeId> = match ordering {
        LinearOrdering::Identity => (0..g.len()).map(NodeId::new).collect(),
        LinearOrdering::BfsFromPeriphery => g.bfs_order(g.peripheral_node()),
    };
    debug_assert_eq!(order.len(), g.len());
    let mut position = vec![0usize; g.len()];
    for (i, &v) in order.iter().enumerate() {
        position[v.index()] = i;
    }
    let node_weights: Vec<Weight> = order.iter().map(|&v| g.node_weight(v)).collect();
    // boundary_weight[i] = Σ weight of edges (u, v) with
    // position[u] <= i < position[v]. Computed by a sweep over a difference
    // array: an edge spanning positions [lo, hi) contributes to boundaries
    // lo..hi.
    let n = g.len();
    let mut diff = vec![0i128; n + 1];
    for e in g.edges() {
        let (mut lo, mut hi) = (position[e.a.index()], position[e.b.index()]);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        diff[lo] += i128::from(e.weight.get());
        diff[hi] -= i128::from(e.weight.get());
    }
    let mut edge_weights = Vec::with_capacity(n.saturating_sub(1));
    let mut acc: i128 = 0;
    for d in diff.iter().take(n.saturating_sub(1)) {
        acc += d;
        let w = u64::try_from(acc).map_err(|_| GraphError::WeightOverflow)?;
        edge_weights.push(Weight::new(w));
    }
    let path = PathGraph::from_weights(node_weights, edge_weights)?;
    Ok(LinearSupergraph {
        path,
        order,
        position,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainView;

    #[test]
    fn identity_on_a_path_graph_is_exact() {
        // A process graph that is already a path: super-graph must be it.
        let g =
            ProcessGraph::from_raw(&[2, 3, 5, 7], &[(0, 1, 10), (1, 2, 20), (2, 3, 30)]).unwrap();
        let sup = linear_supergraph(&g, LinearOrdering::Identity).unwrap();
        assert!(sup
            .path()
            .node_weights()
            .eq(g.node_weights().iter().copied()));
        let ws: Vec<u64> = sup.path().edge_weights().map(Weight::get).collect();
        assert_eq!(ws, vec![10, 20, 30]);
    }

    #[test]
    fn ring_boundaries_count_both_crossing_edges() {
        let ring = ProcessGraph::from_raw(
            &[1, 1, 1, 1],
            &[(0, 1, 10), (1, 2, 20), (2, 3, 30), (3, 0, 40)],
        )
        .unwrap();
        let sup = linear_supergraph(&ring, LinearOrdering::Identity).unwrap();
        let ws: Vec<u64> = sup.path().edge_weights().map(Weight::get).collect();
        // Boundary 0: edges (0,1) + (0,3) = 50; boundary 1: (1,2) + (0,3) = 60;
        // boundary 2: (2,3) + (0,3) = 70.
        assert_eq!(ws, vec![50, 60, 70]);
    }

    #[test]
    fn bfs_ordering_is_a_permutation_and_positions_invert_it() {
        let g = ProcessGraph::from_raw(
            &[1, 1, 1, 1, 1],
            &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)],
        )
        .unwrap();
        let sup = linear_supergraph(&g, LinearOrdering::BfsFromPeriphery).unwrap();
        let mut seen = [false; 5];
        for i in 0..5 {
            let v = sup.process_at(i);
            assert!(!seen[v.index()]);
            seen[v.index()] = true;
            assert_eq!(sup.position_of(v), i);
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(sup.order().len(), 5);
    }

    #[test]
    fn single_process_supergraph() {
        let g = ProcessGraph::from_raw(&[9], &[]).unwrap();
        let sup = linear_supergraph(&g, LinearOrdering::default()).unwrap();
        assert_eq!(sup.path().len(), 1);
        assert_eq!(sup.path().edge_count(), 0);
    }

    #[test]
    fn total_weight_is_preserved() {
        let g = ProcessGraph::from_raw(&[2, 4, 8], &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]).unwrap();
        for ordering in [LinearOrdering::Identity, LinearOrdering::BfsFromPeriphery] {
            let sup = linear_supergraph(&g, ordering).unwrap();
            assert_eq!(sup.path().total_weight(), g.total_weight());
        }
    }
}
