//! Weighted free trees (tree task graphs).

use crate::weight::{check_weight_totals, weight_sum};
use crate::{EdgeId, GraphError, NodeId, Rooted, UnionFind32, Weight};

/// An undirected edge of a [`Tree`] with a communication weight.
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

/// A weighted free (unrooted) tree task graph `T = (V, E)`.
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
/// use tgp_graph::{NodeId, Tree, Weight};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// // A star: center v0 with three leaves.
/// let tree = Tree::from_raw(&[1, 2, 3, 4], &[(0, 1, 10), (0, 2, 20), (0, 3, 30)])?;
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.degree(NodeId::new(0)), 3);
/// assert!(tree.is_leaf(NodeId::new(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    node_weights: Vec<Weight>,
    edges: Vec<TreeEdge>,
    /// `adjacency[v]` lists `(neighbor, edge id)` pairs.
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
}

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
    /// If there are more than `u32::MAX` nodes (the union-find is `u32`,
    /// 8 bytes per node).
    pub fn from_edges(node_weights: Vec<Weight>, edges: Vec<TreeEdge>) -> Result<Self, GraphError> {
        let node_total = weight_sum(node_weights.iter().copied());
        let edge_total = weight_sum(edges.iter().map(|e| e.weight));
        check_tree(
            node_weights.len(),
            edges.len(),
            node_total,
            edge_total,
            |i| (edges[i].a.index(), edges[i].b.index()),
        )?;
        let adjacency = adjacency(node_weights.len(), &edges);
        Ok(Tree {
            node_weights,
            edges,
            adjacency,
        })
    }

    /// Builds a tree from raw tuples (convenience for tests and examples):
    /// `edges[i] = (a, b, weight)`.
    ///
    /// # Errors
    ///
    /// Same as [`Tree::from_edges`].
    pub fn from_raw(
        node_weights: &[u64],
        edges: &[(usize, usize, u64)],
    ) -> Result<Self, GraphError> {
        Self::from_edges(
            node_weights.iter().copied().map(Weight::new).collect(),
            edges
                .iter()
                .map(|&(a, b, w)| TreeEdge::new(NodeId::new(a), NodeId::new(b), Weight::new(w)))
                .collect(),
        )
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
    /// # Examples
    ///
    /// ```
    /// use tgp_graph::{NodeId, Tree, Weight};
    ///
    /// # fn main() -> Result<(), tgp_graph::GraphError> {
    /// // A binary heap shape: node i's parent is (i - 1) / 2.
    /// let tree = Tree::from_parents(
    ///     vec![Weight::new(1); 7],
    ///     &[(0, 5), (0, 5), (1, 3), (1, 3), (2, 3), (2, 3)]
    ///         .map(|(p, w)| (NodeId::new(p), Weight::new(w))),
    /// )?;
    /// assert_eq!(tree.degree(NodeId::new(0)), 2);
    /// assert_eq!(tree.leaves().count(), 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_parents(
        node_weights: Vec<Weight>,
        parents: &[(NodeId, Weight)],
    ) -> Result<Self, GraphError> {
        let edges: Vec<TreeEdge> = parents
            .iter()
            .enumerate()
            .map(|(i, &(p, w))| TreeEdge::new(p, NodeId::new(i + 1), w))
            .collect();
        Self::from_edges(node_weights, edges)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.node_weights.len()
    }

    /// Always `false`: construction rejects empty trees.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (`n - 1`).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Weight `ω(v)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.len()`.
    pub fn node_weight(&self, node: NodeId) -> Weight {
        self.node_weights[node.index()]
    }

    /// All node weights in index order.
    pub fn node_weights(&self) -> &[Weight] {
        &self.node_weights
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `edge.index() >= self.edge_count()`.
    pub fn edge(&self, edge: EdgeId) -> TreeEdge {
        self.edges[edge.index()]
    }

    /// Weight `δ(e)` of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge.index() >= self.edge_count()`.
    pub fn edge_weight(&self, edge: EdgeId) -> Weight {
        self.edges[edge.index()].weight
    }

    /// All edges in id order.
    pub fn edges(&self) -> &[TreeEdge] {
        &self.edges
    }

    /// Total vertex weight of the tree.
    pub fn total_weight(&self) -> Weight {
        self.node_weights.iter().copied().sum()
    }

    /// The maximum single vertex weight (the feasibility floor for the load
    /// bound `K`).
    pub fn max_node_weight(&self) -> Weight {
        self.node_weights
            .iter()
            .copied()
            .max()
            .expect("trees are non-empty")
    }

    /// Degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.len()`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// `(neighbor, edge)` pairs incident to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.len()`.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adjacency[node.index()]
    }

    /// Returns `true` if `node` has degree ≤ 1 (a leaf, or the sole node of
    /// a single-vertex tree).
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.degree(node) <= 1
    }

    /// All leaves in index order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len())
            .map(NodeId::new)
            .filter(move |&v| self.is_leaf(v))
    }

    /// All internal (non-leaf) nodes in index order.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len())
            .map(NodeId::new)
            .filter(move |&v| !self.is_leaf(v))
    }

    /// Nodes in post-order of the tree rooted at `root` (children before
    /// parents): the reversed pre-order of [`Rooted`].
    ///
    /// # Panics
    ///
    /// Panics if `root.index() >= self.len()`.
    pub fn post_order(&self, root: NodeId) -> Vec<NodeId> {
        Rooted::new(self, root).pre_order().rev().collect()
    }

    /// For every node, its parent and connecting edge under the rooting at
    /// `root`; `parent[root] = None`.
    ///
    /// # Panics
    ///
    /// Panics if `root.index() >= self.len()`.
    pub fn parents(&self, root: NodeId) -> Vec<Option<(NodeId, EdgeId)>> {
        let rooted = Rooted::new(self, root);
        (0..self.len())
            .map(NodeId::new)
            .map(|v| rooted.parent_edge(v).map(|e| (self.edge(e).other(v), e)))
            .collect()
    }
}

/// `(neighbor, edge id)` lists per node, each in increasing edge-id order.
fn adjacency(n: usize, edges: &[TreeEdge]) -> Vec<Vec<(NodeId, EdgeId)>> {
    let mut adjacency = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        adjacency[e.a.index()].push((e.b, EdgeId::new(i)));
        adjacency[e.b.index()].push((e.a, EdgeId::new(i)));
    }
    adjacency
}

/// The checks that make `edges` edges on `nodes` nodes a tree, in the
/// order [`Tree::from_edges`] and the flat builder in `tgp-store` run
/// them: no nodes, the edge count, [`check_weight_totals`], then per
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
        assert!(t.is_leaf(NodeId::new(0)));
        assert_eq!(t.leaves().count(), 1);
        assert_eq!(t.internal_nodes().count(), 0);
        assert_eq!(t.post_order(NodeId::new(0)), vec![NodeId::new(0)]);
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
        assert_eq!(t.degree(NodeId::new(1)), 4);
        assert_eq!(t.degree(NodeId::new(0)), 1);
        let leaves: Vec<usize> = t.leaves().map(NodeId::index).collect();
        assert_eq!(leaves, vec![0, 3, 4, 5, 6]);
        let internal: Vec<usize> = t.internal_nodes().map(NodeId::index).collect();
        assert_eq!(internal, vec![1, 2]);
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
        let order = t.post_order(NodeId::new(0));
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
        let parent = t.parents(NodeId::new(0));
        assert_eq!(parent[0], None);
        assert_eq!(parent[1].unwrap().0, NodeId::new(0));
        assert_eq!(parent[2].unwrap().0, NodeId::new(1));
        assert_eq!(parent[3].unwrap().0, NodeId::new(2));
        assert_eq!(parent[4].unwrap().0, NodeId::new(1));
    }

    #[test]
    fn deep_path_post_order_does_not_overflow_stack() {
        let n = 200_000;
        let weights = vec![1u64; n];
        let edges: Vec<(usize, usize, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let t = Tree::from_raw(&weights, &edges).unwrap();
        let order = t.post_order(NodeId::new(0));
        assert_eq!(order.len(), n);
        assert_eq!(order[0], NodeId::new(n - 1));
        assert_eq!(order[n - 1], NodeId::new(0));
    }
}
