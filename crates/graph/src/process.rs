//! General process graphs (arbitrary connected weighted graphs).
//!
//! Section 3 of the paper applies the linear-graph algorithms to systems
//! whose process graph is *not* linear by first approximating the system
//! with a linear super-graph. [`ProcessGraph`] is the input to that
//! approximation (see [`crate::supergraph`]).

use std::collections::VecDeque;

use crate::weight::{check_weight_totals, weight_sum};
use crate::{GraphError, NodeId, UnionFind32, Weight};

/// An undirected edge of a [`ProcessGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessEdge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Message volume between the two processes.
    pub weight: Weight,
}

/// A general connected weighted graph of communicating processes.
///
/// Unlike [`Tree`](crate::Tree) and [`PathGraph`](crate::PathGraph), a
/// process graph may contain cycles (e.g. a feedback loop in a simulated
/// logic circuit). Parallel edges are merged at construction by summing
/// their weights, since only the total message volume between a pair of
/// processes matters for partitioning.
///
/// # Examples
///
/// ```
/// use tgp_graph::ProcessGraph;
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// // A triangle with one doubled edge.
/// let g = ProcessGraph::from_raw(&[1, 1, 1], &[(0, 1, 5), (1, 2, 7), (2, 0, 2), (0, 1, 3)])?;
/// assert_eq!(g.edge_count(), 3); // parallel (0,1) edges merged: 5 + 3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessGraph {
    node_weights: Vec<Weight>,
    edges: Vec<ProcessEdge>,
    adjacency: Vec<Vec<(NodeId, usize)>>,
}

impl ProcessGraph {
    /// Builds a process graph from vertex weights and an edge list.
    ///
    /// Parallel edges are merged (weights summed); edge order is
    /// normalized so `a < b`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if there are no nodes.
    /// * [`GraphError::NodeOutOfRange`] if an edge endpoint is invalid.
    /// * [`GraphError::SelfLoop`] if an edge connects a node to itself.
    /// * [`GraphError::Disconnected`] if the graph is not connected.
    /// * [`GraphError::WeightOverflow`] if the combined total of all vertex
    ///   and edge weights reaches `u64::MAX`.
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` nodes (the connectivity check's
    /// union-find is `u32`, 8 bytes per node).
    pub fn from_edges(
        node_weights: Vec<Weight>,
        raw_edges: Vec<ProcessEdge>,
    ) -> Result<Self, GraphError> {
        let n = node_weights.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        check_weight_totals(
            weight_sum(node_weights.iter().copied()),
            weight_sum(raw_edges.iter().map(|e| e.weight)),
        )?;
        let mut normalized: Vec<(usize, usize, Weight)> = Vec::with_capacity(raw_edges.len());
        for e in &raw_edges {
            for endpoint in [e.a, e.b] {
                if endpoint.index() >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: endpoint,
                        len: n,
                    });
                }
            }
            if e.a == e.b {
                return Err(GraphError::SelfLoop { node: e.a });
            }
            let (lo, hi) = if e.a < e.b { (e.a, e.b) } else { (e.b, e.a) };
            normalized.push((lo.index(), hi.index(), e.weight));
        }
        normalized.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut edges: Vec<ProcessEdge> = Vec::with_capacity(normalized.len());
        for (a, b, w) in normalized {
            match edges.last_mut() {
                Some(last) if last.a.index() == a && last.b.index() == b => {
                    last.weight += w;
                }
                _ => edges.push(ProcessEdge {
                    a: NodeId::new(a),
                    b: NodeId::new(b),
                    weight: w,
                }),
            }
        }
        let mut uf = UnionFind32::new(n);
        for e in &edges {
            uf.union(e.a.index() as u32, e.b.index() as u32);
        }
        if uf.component_count() != 1 {
            return Err(GraphError::Disconnected);
        }
        let mut g = ProcessGraph {
            node_weights,
            edges,
            adjacency: Vec::new(),
        };
        g.rebuild_cache();
        Ok(g)
    }

    /// Builds a process graph from raw tuples (convenience for tests and
    /// examples).
    ///
    /// # Errors
    ///
    /// Same as [`ProcessGraph::from_edges`].
    pub fn from_raw(
        node_weights: &[u64],
        edges: &[(usize, usize, u64)],
    ) -> Result<Self, GraphError> {
        Self::from_edges(
            node_weights.iter().copied().map(Weight::new).collect(),
            edges
                .iter()
                .map(|&(a, b, w)| ProcessEdge {
                    a: NodeId::new(a),
                    b: NodeId::new(b),
                    weight: Weight::new(w),
                })
                .collect(),
        )
    }

    /// Derives the adjacency lists from the edges.
    fn rebuild_cache(&mut self) {
        let mut adjacency = vec![Vec::new(); self.node_weights.len()];
        for (i, e) in self.edges.iter().enumerate() {
            adjacency[e.a.index()].push((e.b, i));
            adjacency[e.b.index()].push((e.a, i));
        }
        self.adjacency = adjacency;
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.node_weights.len()
    }

    /// Always `false`: construction rejects empty graphs.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of (merged) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Weight of a process.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_weight(&self, node: NodeId) -> Weight {
        self.node_weights[node.index()]
    }

    /// All node weights in index order.
    pub fn node_weights(&self) -> &[Weight] {
        &self.node_weights
    }

    /// All merged edges, sorted by `(a, b)`.
    pub fn edges(&self) -> &[ProcessEdge] {
        &self.edges
    }

    /// `(neighbor, edge index)` pairs incident to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, usize)] {
        &self.adjacency[node.index()]
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> Weight {
        self.node_weights.iter().copied().sum()
    }

    /// Breadth-first order starting from `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn bfs_order(&self, start: NodeId) -> Vec<NodeId> {
        assert!(start.index() < self.len(), "start {start} out of range");
        let mut order = Vec::with_capacity(self.len());
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::new();
        queue.push_back(start);
        seen[start.index()] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(u, _) in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
        order
    }

    /// A pseudo-peripheral node found by a double BFS sweep — a good start
    /// point for linear orderings.
    pub fn peripheral_node(&self) -> NodeId {
        let far1 = *self
            .bfs_order(NodeId::new(0))
            .last()
            .expect("graph is non-empty");
        *self.bfs_order(far1).last().expect("graph is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> ProcessGraph {
        ProcessGraph::from_raw(
            &[1, 2, 3, 4, 5],
            &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5)],
        )
        .unwrap()
    }

    #[test]
    fn construction_allows_cycles() {
        let g = cycle5();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.total_weight(), Weight::new(15));
    }

    #[test]
    fn parallel_edges_are_merged() {
        let g = ProcessGraph::from_raw(&[1, 1], &[(0, 1, 5), (1, 0, 7)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges()[0].weight, Weight::new(12));
    }

    #[test]
    fn rejects_empty_self_loop_range_disconnected() {
        assert_eq!(ProcessGraph::from_raw(&[], &[]), Err(GraphError::Empty));
        assert_eq!(
            ProcessGraph::from_raw(&[1, 2], &[(0, 0, 1), (0, 1, 1)]),
            Err(GraphError::SelfLoop {
                node: NodeId::new(0)
            })
        );
        assert_eq!(
            ProcessGraph::from_raw(&[1, 2], &[(0, 7, 1)]),
            Err(GraphError::NodeOutOfRange {
                node: NodeId::new(7),
                len: 2
            })
        );
        assert_eq!(
            ProcessGraph::from_raw(&[1, 2, 3], &[(0, 1, 1)]),
            Err(GraphError::Disconnected)
        );
    }

    #[test]
    fn bfs_order_covers_all_nodes() {
        let g = cycle5();
        let order = g.bfs_order(NodeId::new(2));
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], NodeId::new(2));
        let mut sorted: Vec<usize> = order.iter().map(|v| v.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peripheral_node_on_path_is_an_end() {
        let g = ProcessGraph::from_raw(&[1, 1, 1, 1], &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let p = g.peripheral_node();
        assert!(p == NodeId::new(0) || p == NodeId::new(3));
    }

    #[test]
    fn single_node_graph() {
        let g = ProcessGraph::from_raw(&[4], &[]).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.peripheral_node(), NodeId::new(0));
    }
}
