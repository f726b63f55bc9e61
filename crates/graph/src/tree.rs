//! Weighted free trees (tree task graphs).

use crate::backing::HEAP_GROWS;
use crate::{
    check_weight_totals, BuildError, EdgeId, FlatTree, FlatTreeBuilder, GraphError, NodeId,
    RamBacking, RamVec, UnionFind32, Weight,
};

/// An undirected edge of a tree with a communication weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeEdge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Communication weight `δ(e)`.
    pub weight: Weight,
}

impl TreeEdge {
    /// Creates an edge between `a` and `b` with the given weight.
    pub fn new(a: NodeId, b: NodeId, weight: Weight) -> Self {
        TreeEdge { a, b, weight }
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this edge.
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!(
                "node {node} is not an endpoint of edge ({}, {})",
                self.a, self.b
            )
        }
    }
}

/// A weighted free (unrooted) tree task graph `T = (V, E)`: the RAM
/// instantiation of [`FlatTree`], read through
/// [`TreeView`](crate::TreeView) and walked through
/// [`Rooted`](crate::Rooted).
///
/// Vertex weights model processing requirements (`ω` in the paper), edge
/// weights model communication volumes (`δ`). This is the graph class for
/// the paper's bottleneck-minimization (Algorithm 2.1) and
/// processor-minimization (Algorithm 2.2) problems.
///
/// Construction validates that the edge set forms a tree: exactly `n - 1`
/// edges, no self loops, no duplicates, no cycles (which together with the
/// edge count implies connectivity).
///
/// # Examples
///
/// ```
/// use tgp_graph::{EdgeId, NodeId, Tree, TreeView, Weight};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// // A star: center v0 with three leaves.
/// let tree = Tree::from_raw(&[1, 2, 3, 4], &[(0, 1, 10), (0, 2, 20), (0, 3, 30)])?;
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.edge(EdgeId::new(1)).other(NodeId::new(0)), NodeId::new(2));
/// assert_eq!(tree.total_weight(), Weight::new(10));
/// # Ok(())
/// # }
/// ```
pub type Tree = FlatTree<RamBacking>;

impl Tree {
    /// Builds a tree from vertex weights and an edge list.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if there are no nodes.
    /// * [`GraphError::WrongEdgeCount`] if `edges.len() != nodes - 1`.
    /// * [`GraphError::NodeOutOfRange`] if an edge endpoint is invalid.
    /// * [`GraphError::SelfLoop`] if an edge connects a node to itself.
    /// * [`GraphError::DuplicateEdge`] if two edges connect the same pair.
    /// * [`GraphError::Cycle`] if the edges contain a cycle.
    /// * [`GraphError::WeightOverflow`] if the combined total of all vertex
    ///   and edge weights reaches `u64::MAX` (the crate-wide budget that
    ///   keeps downstream arithmetic overflow-free).
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` nodes (edge endpoints are `u32`).
    pub fn from_edges(node_weights: Vec<Weight>, edges: Vec<TreeEdge>) -> Result<Self, GraphError> {
        let edges: Vec<(usize, usize, u64)> = edges
            .into_iter()
            .map(|e| (e.a.index(), e.b.index(), e.weight.get()))
            .collect();
        build(raw(node_weights), &edges)
    }

    /// Builds a tree from raw tuples: `edges[i] = (a, b, weight)`.
    ///
    /// # Errors
    ///
    /// Same as [`Tree::from_edges`].
    ///
    /// # Panics
    ///
    /// As [`Tree::from_edges`].
    pub fn from_raw(
        node_weights: &[u64],
        edges: &[(usize, usize, u64)],
    ) -> Result<Self, GraphError> {
        build(node_weights.to_vec(), edges)
    }

    /// Builds a rooted tree from a parent array: node 0 is the root;
    /// `parents[i] = (parent, edge weight)` attaches node `i + 1`.
    ///
    /// This is the natural constructor for trees produced by recursive
    /// decompositions (heaps, divide-and-conquer task trees).
    ///
    /// # Errors
    ///
    /// Same as [`Tree::from_edges`]; additionally every parent index must
    /// be `< i + 1` or [`GraphError::Cycle`]/[`GraphError::NodeOutOfRange`]
    /// is reported by the underlying validation.
    ///
    /// # Panics
    ///
    /// As [`Tree::from_edges`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tgp_graph::{NodeId, Rooted, Tree, Weight};
    ///
    /// # fn main() -> Result<(), tgp_graph::GraphError> {
    /// // A binary heap shape: node i's parent is (i - 1) / 2.
    /// let tree = Tree::from_parents(
    ///     vec![Weight::new(1); 7],
    ///     &[(0, 5), (0, 5), (1, 3), (1, 3), (2, 3), (2, 3)]
    ///         .map(|(p, w)| (NodeId::new(p), Weight::new(w))),
    /// )?;
    /// let rooted = Rooted::new(&tree, NodeId::new(0));
    /// assert_eq!(rooted.degree(NodeId::new(0)), 2);
    /// assert_eq!((0..7).filter(|&v| rooted.degree(NodeId::new(v)) == 1).count(), 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_parents(
        node_weights: Vec<Weight>,
        parents: &[(NodeId, Weight)],
    ) -> Result<Self, GraphError> {
        let edges: Vec<(usize, usize, u64)> = parents
            .iter()
            .enumerate()
            .map(|(i, &(p, w))| (p.index(), i + 1, w.get()))
            .collect();
        build(raw(node_weights), &edges)
    }
}

fn raw(weights: Vec<Weight>) -> Vec<u64> {
    weights.into_iter().map(Weight::get).collect()
}

/// Builds a tree on heap arrays, adopting `node_weights` as its node
/// array.
fn build(node_weights: Vec<u64>, edges: &[(usize, usize, u64)]) -> Result<Tree, GraphError> {
    let nodes = RamVec::from(node_weights);
    let mut tree = FlatTreeBuilder::with_nodes(&RamBacking, nodes).expect(HEAP_GROWS);
    tree.extend_edges(edges).expect(HEAP_GROWS);
    tree.finish().map_err(BuildError::into_graph_error)
}

/// The checks that make `edges` edges on `nodes` nodes a tree, in the
/// order [`FlatTreeBuilder::finish`] runs them on every backing, and so
/// every [`Tree`] constructor: no nodes, the edge count, [`check_weight_totals`], then per
/// edge in id order its endpoints' range, a self-loop, and an edge that
/// closes a cycle — a duplicate when it joins the same pair as an
/// earlier edge. `n - 1` edges that close no cycle connect all `n`
/// nodes. `endpoints(i)` reads edge `i`'s endpoints as given, once per
/// edge, plus once per earlier edge when a cycle is found.
///
/// # Panics
///
/// If `nodes` exceeds `u32::MAX` (the union-find is `u32`, 8 bytes per
/// node).
pub fn check_tree(
    nodes: usize,
    edges: usize,
    node_total: u128,
    edge_total: u128,
    endpoints: impl Fn(usize) -> (usize, usize),
) -> Result<(), GraphError> {
    let n = nodes;
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if edges != n - 1 {
        return Err(GraphError::WrongEdgeCount { nodes: n, edges });
    }
    check_weight_totals(node_total, edge_total)?;
    let mut uf = UnionFind32::new(n);
    for i in 0..edges {
        let (a, b) = endpoints(i);
        for endpoint in [a, b] {
            if endpoint >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: NodeId::new(endpoint),
                    len: n,
                });
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop {
                node: NodeId::new(a),
            });
        }
        if !uf.union(a as u32, b as u32) {
            // The edge closed a cycle; distinguish a parallel edge for a
            // friendlier message.
            if (0..i).any(|j| {
                let pair = endpoints(j);
                pair == (a, b) || pair == (b, a)
            }) {
                return Err(GraphError::DuplicateEdge {
                    a: NodeId::new(a),
                    b: NodeId::new(b),
                });
            }
            return Err(GraphError::Cycle {
                edge: EdgeId::new(i),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rooted, TreeView};

    /// Nodes in post-order under the rooting at `root`.
    fn post_order(t: &Tree, root: NodeId) -> Vec<NodeId> {
        Rooted::new(t, root).pre_order().rev().collect()
    }

    /// The caterpillar 0-1-2-3 with legs 4,5 on node 1 and leg 6 on node 2.
    fn caterpillar() -> Tree {
        Tree::from_raw(
            &[1, 2, 3, 4, 5, 6, 7],
            &[
                (0, 1, 10),
                (1, 2, 20),
                (2, 3, 30),
                (1, 4, 40),
                (1, 5, 50),
                (2, 6, 60),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_happy_path() {
        let t = caterpillar();
        assert_eq!(t.len(), 7);
        assert_eq!(t.edge_count(), 6);
        assert_eq!(t.total_weight(), Weight::new(28));
        assert_eq!(t.max_node_weight(), Weight::new(7));
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::from_raw(&[5], &[]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(Rooted::new(&t, NodeId::new(0)).degree(NodeId::new(0)), 0);
        assert_eq!(post_order(&t, NodeId::new(0)), vec![NodeId::new(0)]);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Tree::from_raw(&[], &[]), Err(GraphError::Empty));
    }

    #[test]
    fn rejects_wrong_edge_count() {
        assert_eq!(
            Tree::from_raw(&[1, 2, 3], &[(0, 1, 1)]),
            Err(GraphError::WrongEdgeCount { nodes: 3, edges: 1 })
        );
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Tree::from_raw(&[1, 2], &[(1, 1, 5)]),
            Err(GraphError::SelfLoop {
                node: NodeId::new(1)
            })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Tree::from_raw(&[1, 2], &[(0, 5, 1)]),
            Err(GraphError::NodeOutOfRange {
                node: NodeId::new(5),
                len: 2
            })
        );
    }

    #[test]
    fn rejects_cycle() {
        assert_eq!(
            Tree::from_raw(&[1, 2, 3, 4], &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            Err(GraphError::Cycle {
                edge: EdgeId::new(2)
            })
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        assert_eq!(
            Tree::from_raw(&[1, 2, 3], &[(0, 1, 1), (1, 0, 2)]),
            Err(GraphError::DuplicateEdge {
                a: NodeId::new(1),
                b: NodeId::new(0)
            })
        );
    }

    #[test]
    fn rejects_disconnected_as_cycle_or_count() {
        // 4 nodes, 3 edges but one is a duplicate pair component: the edge
        // (0,1) twice with (2,3) leaves the graph disconnected; union-find
        // reports the duplicate.
        let err = Tree::from_raw(&[1, 1, 1, 1], &[(0, 1, 1), (0, 1, 2), (2, 3, 1)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdge {
                a: NodeId::new(0),
                b: NodeId::new(1)
            }
        );
    }

    #[test]
    fn rejects_weight_overflow() {
        assert_eq!(
            Tree::from_raw(&[u64::MAX, 1], &[(0, 1, 1)]),
            Err(GraphError::WeightOverflow)
        );
    }

    #[test]
    fn degrees_and_leaves() {
        let t = caterpillar();
        let rooted = Rooted::new(&t, NodeId::new(0));
        let degree = |v: usize| rooted.degree(NodeId::new(v));
        assert_eq!(degree(1), 4);
        assert_eq!(degree(0), 1);
        let leaves: Vec<usize> = (0..t.len()).filter(|&v| degree(v) <= 1).collect();
        assert_eq!(leaves, vec![0, 3, 4, 5, 6]);
        let internal: Vec<usize> = (0..t.len()).filter(|&v| degree(v) > 1).collect();
        assert_eq!(internal, vec![1, 2]);
        let incident: Vec<usize> = rooted
            .incident_edges(NodeId::new(1))
            .map(EdgeId::index)
            .collect();
        assert_eq!(incident, vec![0, 1, 3, 4]);
    }

    #[test]
    fn edge_accessors() {
        let t = caterpillar();
        let e = t.edge(EdgeId::new(1));
        assert_eq!((e.a, e.b), (NodeId::new(1), NodeId::new(2)));
        assert_eq!(e.weight, Weight::new(20));
        assert_eq!(e.other(NodeId::new(1)), NodeId::new(2));
        assert_eq!(e.other(NodeId::new(2)), NodeId::new(1));
        assert_eq!(t.edge_weight(EdgeId::new(5)), Weight::new(60));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let t = caterpillar();
        t.edge(EdgeId::new(0)).other(NodeId::new(6));
    }

    #[test]
    fn post_order_visits_children_first() {
        let t = caterpillar();
        let order = post_order(&t, NodeId::new(0));
        assert_eq!(order.len(), 7);
        let pos = |v: usize| order.iter().position(|&x| x == NodeId::new(v)).unwrap();
        // Root last; every child precedes its parent under rooting at 0.
        assert_eq!(order.last(), Some(&NodeId::new(0)));
        assert!(pos(2) < pos(1));
        assert!(pos(4) < pos(1));
        assert!(pos(5) < pos(1));
        assert!(pos(3) < pos(2));
        assert!(pos(6) < pos(2));
    }

    #[test]
    fn parents_under_rooting() {
        let t = caterpillar();
        let rooted = Rooted::new(&t, NodeId::new(0));
        let parent = |v: usize| {
            let v = NodeId::new(v);
            rooted.parent_edge(v).map(|e| t.edge(e).other(v))
        };
        assert_eq!(parent(0), None);
        assert_eq!(parent(1), Some(NodeId::new(0)));
        assert_eq!(parent(2), Some(NodeId::new(1)));
        assert_eq!(parent(3), Some(NodeId::new(2)));
        assert_eq!(parent(4), Some(NodeId::new(1)));
    }

    #[test]
    fn deep_path_post_order_does_not_overflow_stack() {
        let n = 200_000;
        let weights = vec![1u64; n];
        let edges: Vec<(usize, usize, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let t = Tree::from_raw(&weights, &edges).unwrap();
        let order = post_order(&t, NodeId::new(0));
        assert_eq!(order.len(), n);
        assert_eq!(order[0], NodeId::new(n - 1));
        assert_eq!(order[n - 1], NodeId::new(0));
    }
}
