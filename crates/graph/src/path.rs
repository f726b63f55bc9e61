//! Linear (path) task graphs.

use crate::backing::HEAP_GROWS;
use crate::{
    check_weight_totals, BuildError, FlatPath, FlatPathBuilder, GraphError, RamBacking, RamVec,
    Weight,
};

/// A linear task graph `P = (V, E)` with `V = {v_0, …, v_{n-1}}` and
/// `E = {e_i = (v_i, v_{i+1})}`: the RAM instantiation of [`FlatPath`],
/// read through [`ChainView`](crate::ChainView).
///
/// This is the graph class for which the paper's headline bandwidth
/// minimization algorithm applies: pipelined computations, iterative strip
/// decompositions of grids, and linear approximations of more general
/// process graphs (Section 3).
///
/// Vertex weights (`α` in the paper) model processing requirements; edge
/// weights (`β`) model communication volumes. Prefix sums over the vertex
/// weights are precomputed so that the weight of any span is an O(1) query.
///
/// # Examples
///
/// ```
/// use tgp_graph::{ChainView, PathGraph, Weight};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// let p = PathGraph::from_raw(&[2, 3, 5, 7], &[10, 20, 30])?;
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.edge_count(), 3);
/// assert_eq!(p.span_weight(1, 2), Weight::new(8)); // v1 + v2
/// assert_eq!(p.max_node_weight(), Weight::new(7));
/// # Ok(())
/// # }
/// ```
pub type PathGraph = FlatPath<RamBacking>;

impl PathGraph {
    /// Builds a path graph from vertex and edge weight vectors.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if `node_weights` is empty.
    /// * [`GraphError::WrongEdgeCount`] if
    ///   `edge_weights.len() != node_weights.len() - 1`.
    /// * [`GraphError::WeightOverflow`] if the combined total of all vertex
    ///   and edge weights reaches `u64::MAX` — the constraint that keeps
    ///   every derived quantity (span weights, cut weights, DP costs)
    ///   overflow-free downstream.
    pub fn from_weights(
        node_weights: Vec<Weight>,
        edge_weights: Vec<Weight>,
    ) -> Result<Self, GraphError> {
        let raw = |weights: Vec<Weight>| weights.into_iter().map(Weight::get).collect();
        build(raw(node_weights), &raw(edge_weights))
    }

    /// Builds a path graph from raw `u64` slices.
    ///
    /// # Errors
    ///
    /// Same as [`PathGraph::from_weights`].
    pub fn from_raw(node_weights: &[u64], edge_weights: &[u64]) -> Result<Self, GraphError> {
        build(node_weights.to_vec(), edge_weights)
    }
}

/// Builds a chain on heap arrays, adopting `node_weights` as its node
/// array.
fn build(node_weights: Vec<u64>, edge_weights: &[u64]) -> Result<PathGraph, GraphError> {
    let nodes = RamVec::from(node_weights);
    let mut chain = FlatPathBuilder::with_nodes(&RamBacking, nodes).expect(HEAP_GROWS);
    chain.extend_edges(edge_weights).expect(HEAP_GROWS);
    chain.finish().map_err(BuildError::into_graph_error)
}

/// The checks [`FlatPathBuilder::finish`] runs on every backing, and so
/// every [`PathGraph`] constructor, in order: no nodes, the edge count,
/// then [`check_weight_totals`] of the summed weights.
pub fn check_chain(
    nodes: usize,
    edges: usize,
    node_total: u128,
    edge_total: u128,
) -> Result<(), GraphError> {
    if nodes == 0 {
        return Err(GraphError::Empty);
    }
    if edges != nodes - 1 {
        return Err(GraphError::WrongEdgeCount { nodes, edges });
    }
    check_weight_totals(node_total, edge_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChainView, EdgeId, NodeId};

    fn sample() -> PathGraph {
        PathGraph::from_raw(&[2, 3, 5, 7, 11], &[1, 2, 3, 4]).unwrap()
    }

    #[test]
    fn construction_happy_path() {
        let p = sample();
        assert_eq!(p.len(), 5);
        assert_eq!(p.edge_count(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.total_weight(), Weight::new(28));
        assert_eq!(p.max_node_weight(), Weight::new(11));
    }

    #[test]
    fn construction_rejects_empty() {
        assert_eq!(PathGraph::from_raw(&[], &[]), Err(GraphError::Empty));
    }

    #[test]
    fn construction_rejects_bad_edge_count() {
        assert_eq!(
            PathGraph::from_raw(&[1, 2], &[1, 2]),
            Err(GraphError::WrongEdgeCount { nodes: 2, edges: 2 })
        );
        assert_eq!(
            PathGraph::from_raw(&[1, 2, 3], &[1]),
            Err(GraphError::WrongEdgeCount { nodes: 3, edges: 1 })
        );
    }

    #[test]
    fn construction_rejects_overflow() {
        assert_eq!(
            PathGraph::from_raw(&[u64::MAX, 1], &[1]),
            Err(GraphError::WeightOverflow)
        );
    }

    #[test]
    fn single_node_path_is_valid() {
        let p = PathGraph::from_raw(&[9], &[]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.total_weight(), Weight::new(9));
        assert_eq!(p.span_weight(0, 0), Weight::new(9));
    }

    #[test]
    fn span_weight_matches_manual_sum() {
        let p = sample();
        assert_eq!(p.span_weight(0, 4), Weight::new(28));
        assert_eq!(p.span_weight(1, 3), Weight::new(15));
        assert_eq!(p.span_weight(2, 2), Weight::new(5));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn span_weight_rejects_out_of_range() {
        sample().span_weight(0, 5);
    }

    // The `lo <= hi` check is a `debug_assert!` on the solvers' hot path.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be <=")]
    fn span_weight_rejects_inverted_span() {
        sample().span_weight(3, 2);
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.node_weight(NodeId::new(2)), Weight::new(5));
        assert_eq!(p.edge_weight(EdgeId::new(3)), Weight::new(4));
        assert_eq!(p.node_weights().count(), 5);
        assert_eq!(p.edge_weights().count(), 4);
        assert_eq!(p.edge_weights().last(), Some(Weight::new(4)));
    }
}
