//! Linear (path) task graphs.

use crate::weight::{check_weight_totals, weight_sum};
use crate::{EdgeId, GraphError, NodeId, Weight};

/// A linear task graph `P = (V, E)` with `V = {v_0, …, v_{n-1}}` and
/// `E = {e_i = (v_i, v_{i+1})}`.
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
/// use tgp_graph::{PathGraph, Weight};
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathGraph {
    node_weights: Vec<Weight>,
    edge_weights: Vec<Weight>,
    /// `prefix[i]` = sum of node weights `0..i`; length `n + 1`.
    prefix: Vec<u64>,
}

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
        check_chain(
            node_weights.len(),
            edge_weights.len(),
            weight_sum(node_weights.iter().copied()),
            weight_sum(edge_weights.iter().copied()),
        )?;
        let prefix = Self::build_prefix(&node_weights)?;
        Ok(PathGraph {
            node_weights,
            edge_weights,
            prefix,
        })
    }

    /// Builds a path graph from raw `u64` slices (convenience for tests and
    /// examples).
    ///
    /// # Errors
    ///
    /// Same as [`PathGraph::from_weights`].
    pub fn from_raw(node_weights: &[u64], edge_weights: &[u64]) -> Result<Self, GraphError> {
        Self::from_weights(
            node_weights.iter().copied().map(Weight::new).collect(),
            edge_weights.iter().copied().map(Weight::new).collect(),
        )
    }

    fn build_prefix(node_weights: &[Weight]) -> Result<Vec<u64>, GraphError> {
        let mut prefix = Vec::with_capacity(node_weights.len() + 1);
        prefix.push(0u64);
        let mut acc: u64 = 0;
        for w in node_weights {
            acc = acc.checked_add(w.get()).ok_or(GraphError::WeightOverflow)?;
            prefix.push(acc);
        }
        Ok(prefix)
    }

    /// Number of nodes `n`.
    pub fn len(&self) -> usize {
        self.node_weights.len()
    }

    /// Always `false`: construction rejects empty graphs.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (`n - 1`).
    pub fn edge_count(&self) -> usize {
        self.edge_weights.len()
    }

    /// Weight `α_i` of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.len()`.
    pub fn node_weight(&self, node: NodeId) -> Weight {
        self.node_weights[node.index()]
    }

    /// Weight `β_i` of edge `i` (connecting nodes `i` and `i + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `edge.index() >= self.edge_count()`.
    pub fn edge_weight(&self, edge: EdgeId) -> Weight {
        self.edge_weights[edge.index()]
    }

    /// All node weights in order.
    pub fn node_weights(&self) -> &[Weight] {
        &self.node_weights
    }

    /// All edge weights in order.
    pub fn edge_weights(&self) -> &[Weight] {
        &self.edge_weights
    }

    /// Total vertex weight of the whole path.
    pub fn total_weight(&self) -> Weight {
        Weight::new(*self.prefix.last().expect("prefix never empty"))
    }

    /// The maximum single vertex weight (the feasibility floor for the load
    /// bound `K`).
    pub fn max_node_weight(&self) -> Weight {
        self.node_weights
            .iter()
            .copied()
            .max()
            .expect("path graphs are non-empty")
    }

    /// Sum of vertex weights over the inclusive span `lo..=hi`, O(1).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi >= self.len()`.
    pub fn span_weight(&self, lo: usize, hi: usize) -> Weight {
        assert!(lo <= hi, "span lo {lo} must be <= hi {hi}");
        assert!(hi < self.len(), "span hi {hi} out of range {}", self.len());
        Weight::new(self.prefix[hi + 1] - self.prefix[lo])
    }

    /// Iterates over `(NodeId, Weight)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.node_weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (NodeId::new(i), w))
    }

    /// Iterates over `(EdgeId, Weight)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Weight)> + '_ {
        self.edge_weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (EdgeId::new(i), w))
    }

    /// The two endpoints of edge `edge`: `(v_i, v_{i+1})`.
    ///
    /// # Panics
    ///
    /// Panics if `edge.index() >= self.edge_count()`.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        assert!(
            edge.index() < self.edge_count(),
            "edge {edge} out of range {}",
            self.edge_count()
        );
        (NodeId::new(edge.index()), NodeId::new(edge.index() + 1))
    }
}

/// The checks [`PathGraph::from_weights`] and the flat builder in
/// `tgp-store` run, in order: no nodes, the edge count, then
/// [`check_weight_totals`] of the summed weights.
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
    #[should_panic(expected = "out of range")]
    fn span_weight_rejects_out_of_range() {
        sample().span_weight(0, 5);
    }

    #[test]
    #[should_panic(expected = "must be <=")]
    fn span_weight_rejects_inverted_span() {
        sample().span_weight(3, 2);
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.node_weight(NodeId::new(2)), Weight::new(5));
        assert_eq!(p.edge_weight(EdgeId::new(3)), Weight::new(4));
        assert_eq!(
            p.endpoints(EdgeId::new(2)),
            (NodeId::new(2), NodeId::new(3))
        );
        assert_eq!(p.nodes().count(), 5);
        assert_eq!(p.edges().count(), 4);
        let (last_edge, w) = p.edges().last().unwrap();
        assert_eq!(last_edge, EdgeId::new(3));
        assert_eq!(w, Weight::new(4));
    }
}
