//! Read-only access traits the solver hot paths are generic over.
//!
//! The paper's algorithms only ever *read* a graph: weights by index,
//! O(1) span sums on chains, edge endpoints on trees. [`ChainView`] and
//! [`TreeView`] capture exactly that surface. The flat graphs implement
//! them on every memory backing ([`PathGraph`] and [`Tree`] are the RAM
//! instantiations, `tgp-store` adds mmap-backed disk arrays), and so
//! does a [`Contraction`](crate::Contraction), whose super-nodes are
//! read without building a tree. One solver code path serves all of
//! them, and [`Rooted`] is the one rooted traversal over any tree view.
//!
//! [`PathGraph`]: crate::PathGraph
//! [`Tree`]: crate::Tree

use crate::{
    Components, CutSet, EdgeId, GraphError, NodeId, Segment, TreeEdge, UnionFind32, Weight,
};

/// Read access to a linear task graph `v_0 — v_1 — … — v_{n-1}`.
///
/// Implementations must be non-empty (`len() >= 1`) and uphold the
/// crate-wide invariant that the combined total of all vertex and edge
/// weights is below `u64::MAX`, so downstream arithmetic cannot
/// overflow. Index-out-of-range access may panic.
pub trait ChainView {
    /// Number of nodes `n` (always ≥ 1).
    fn len(&self) -> usize;

    /// Always `false`: chains are non-empty by construction.
    fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (`n - 1`).
    fn edge_count(&self) -> usize {
        self.len() - 1
    }

    /// Weight `α_i` of node `i`.
    fn node_weight(&self, node: NodeId) -> Weight;

    /// Weight `β_i` of edge `i` (connecting nodes `i` and `i + 1`).
    fn edge_weight(&self, edge: EdgeId) -> Weight;

    /// Sum of vertex weights over the inclusive span `lo..=hi`; O(1)
    /// on every provided implementation (prefix sums).
    ///
    /// # Panics
    ///
    /// Panics if `hi >= self.len()`. The flat chains check `lo <= hi`
    /// in debug builds only: this is the solvers' innermost read, and a
    /// release build given an inverted span returns a meaningless
    /// weight instead of panicking.
    fn span_weight(&self, lo: usize, hi: usize) -> Weight;

    /// Every vertex weight, in node order.
    fn node_weights(&self) -> impl Iterator<Item = Weight> + '_ {
        (0..self.len()).map(|v| self.node_weight(NodeId::new(v)))
    }

    /// Every edge weight, in edge order.
    fn edge_weights(&self) -> impl Iterator<Item = Weight> + '_ {
        (0..self.edge_count()).map(|e| self.edge_weight(EdgeId::new(e)))
    }

    /// Total vertex weight of the whole chain.
    fn total_weight(&self) -> Weight {
        self.span_weight(0, self.len() - 1)
    }

    /// The maximum single vertex weight (the feasibility floor for the
    /// load bound `K`).
    fn max_node_weight(&self) -> Weight {
        self.node_weights().max().expect("chains are non-empty")
    }

    /// Total weight of the cut edges (the "bandwidth" objective,
    /// `β(S)`).
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// chain does not have.
    fn cut_weight(&self, cut: &CutSet) -> Result<Weight, GraphError> {
        cut.check_range(self.edge_count())?;
        Ok(cut.iter().map(|e| self.edge_weight(e)).sum())
    }

    /// Maximum weight over the cut edges (the "bottleneck" objective);
    /// zero for the empty cut.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// chain does not have.
    fn bottleneck(&self, cut: &CutSet) -> Result<Weight, GraphError> {
        cut.check_range(self.edge_count())?;
        Ok(cut
            .iter()
            .map(|e| self.edge_weight(e))
            .max()
            .unwrap_or(Weight::ZERO))
    }

    /// The maximal contiguous segments of `P − S`, left to right.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// chain does not have.
    fn segments(&self, cut: &CutSet) -> Result<Vec<Segment>, GraphError> {
        cut.check_range(self.edge_count())?;
        let mut segments = Vec::with_capacity(cut.len() + 1);
        let mut start = 0usize;
        for e in cut.iter() {
            // Cutting edge e = (v_e, v_{e+1}) ends a segment at node e.
            let end = e.index();
            segments.push(Segment {
                start,
                end,
                weight: self.span_weight(start, end),
            });
            start = end + 1;
        }
        let last = self.len() - 1;
        segments.push(Segment {
            start,
            end: last,
            weight: self.span_weight(start, last),
        });
        Ok(segments)
    }

    /// Returns `true` if every segment of `P − S` weighs at most
    /// `bound`.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// chain does not have.
    fn is_feasible_cut(&self, cut: &CutSet, bound: Weight) -> Result<bool, GraphError> {
        Ok(self
            .segments(cut)?
            .iter()
            .all(|segment| segment.weight <= bound))
    }
}

/// Read access to a weighted free tree.
///
/// Same invariants as [`ChainView`]: non-empty, combined weight total
/// below `u64::MAX`, panics on out-of-range ids.
pub trait TreeView {
    /// Number of nodes (always ≥ 1).
    fn len(&self) -> usize;

    /// Always `false`: trees are non-empty by construction.
    fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (`n - 1`).
    fn edge_count(&self) -> usize {
        self.len() - 1
    }

    /// Weight `ω(v)` of a node.
    fn node_weight(&self, node: NodeId) -> Weight;

    /// The edge with the given id, endpoints in the orientation the
    /// graph was built with (solvers and cache keys depend on stable
    /// orientation).
    fn edge(&self, edge: EdgeId) -> TreeEdge;

    /// Weight `δ(e)` of an edge.
    fn edge_weight(&self, edge: EdgeId) -> Weight {
        self.edge(edge).weight
    }

    /// Every vertex weight, in node order.
    fn node_weights(&self) -> impl Iterator<Item = Weight> + '_ {
        (0..self.len()).map(|v| self.node_weight(NodeId::new(v)))
    }

    /// Every edge, in id order.
    fn edges(&self) -> impl Iterator<Item = TreeEdge> + '_ {
        (0..self.edge_count()).map(|e| self.edge(EdgeId::new(e)))
    }

    /// Total vertex weight of the tree.
    fn total_weight(&self) -> Weight {
        self.node_weights().sum()
    }

    /// The maximum single vertex weight (the feasibility floor for the
    /// load bound `K`).
    fn max_node_weight(&self) -> Weight {
        self.node_weights().max().expect("trees are non-empty")
    }

    /// Total weight of the cut edges (the "bandwidth" objective).
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// tree does not have.
    fn cut_weight(&self, cut: &CutSet) -> Result<Weight, GraphError> {
        cut.check_range(self.edge_count())?;
        Ok(cut.iter().map(|e| self.edge_weight(e)).sum())
    }

    /// Maximum weight over the cut edges (the "bottleneck" objective);
    /// zero for the empty cut.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// tree does not have.
    fn bottleneck(&self, cut: &CutSet) -> Result<Weight, GraphError> {
        cut.check_range(self.edge_count())?;
        Ok(cut
            .iter()
            .map(|e| self.edge_weight(e))
            .max()
            .unwrap_or(Weight::ZERO))
    }

    /// The connected components of `T − S`, the one labelling every
    /// tree view shares ([`contract`](crate::contract) calls it). Ids are dense in node
    /// order: node 0 is in component 0, and each node that is the
    /// lowest of its component takes the next id.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] if the cut refers to an edge this
    /// tree does not have.
    ///
    /// # Panics
    ///
    /// If the tree has more than `u32::MAX` nodes (the union-find is
    /// `u32`).
    fn components(&self, cut: &CutSet) -> Result<Components, GraphError> {
        cut.check_range(self.edge_count())?;
        let n = self.len();
        let mut uf = UnionFind32::new(n);
        // The cut is sorted, so one walk alongside the edges skips it.
        let mut cut_edges = cut.iter().peekable();
        for i in 0..self.edge_count() {
            let e = EdgeId::new(i);
            if cut_edges.next_if_eq(&e).is_none() {
                let TreeEdge { a, b, .. } = self.edge(e);
                uf.union(a.index() as u32, b.index() as u32);
            }
        }
        let mut dense = vec![u32::MAX; n];
        let mut count = 0u32;
        let comp_of = (0..n as u32)
            .map(|v| {
                let root = uf.find(v) as usize;
                if dense[root] == u32::MAX {
                    dense[root] = count;
                    count += 1;
                }
                dense[root] as usize
            })
            .collect();
        Ok(Components::from_comp_of(
            comp_of,
            count as usize,
            self.node_weights(),
        ))
    }
}

/// A tree rooted at one node, the one rooted traversal of any
/// [`TreeView`] and the only tree adjacency: four `u32` arrays, 20 bytes
/// per node — each node's incident edge ids as one CSR in increasing id
/// order, a stack pre-order from the root, which pushes children in that
/// order, and each node's parent edge. Iterative, so
/// arbitrarily deep trees are safe.
#[derive(Debug, Clone)]
pub struct Rooted {
    start: Vec<u32>,
    incident: Vec<u32>,
    order: Vec<u32>,
    parent_edge: Vec<u32>,
}

/// The parent-edge sentinel of the root.
const NO_EDGE: u32 = u32::MAX;

impl Rooted {
    /// Roots `tree` at `root`.
    ///
    /// # Panics
    ///
    /// If `root` is out of range, or past `2^31` nodes.
    pub fn new<T: TreeView + ?Sized>(tree: &T, root: NodeId) -> Self {
        let (n, m) = (tree.len(), tree.edge_count());
        assert!(root.index() < n, "root {root} out of range");
        assert!(
            u32::try_from(2 * m).is_ok(),
            "tree node count exceeds u32 incidence offsets"
        );
        // Counting sort: degree of v at start[v + 2], prefix sums make
        // start[v + 1] the first slot of v, and scattering advances it to
        // the first slot of v + 1, leaving start[v]..start[v + 1] as v's
        // range. Scattering edges in id order keeps each range sorted.
        let mut start = vec![0u32; n + 2];
        for e in 0..m {
            let edge = tree.edge(EdgeId::new(e));
            start[edge.a.index() + 2] += 1;
            start[edge.b.index() + 2] += 1;
        }
        for i in 2..start.len() {
            start[i] += start[i - 1];
        }
        let mut incident = vec![0u32; 2 * m];
        for e in 0..m {
            let edge = tree.edge(EdgeId::new(e));
            for v in [edge.a.index(), edge.b.index()] {
                incident[start[v + 1] as usize] = e as u32;
                start[v + 1] += 1;
            }
        }
        start.truncate(n + 1);
        let mut order = Vec::with_capacity(n);
        let mut parent_edge = vec![NO_EDGE; n];
        let mut stack = vec![root.index() as u32];
        while let Some(v) = stack.pop() {
            order.push(v);
            let (v, up) = (v as usize, parent_edge[v as usize]);
            for &e in &incident[start[v] as usize..start[v + 1] as usize] {
                if e != up {
                    let u = tree.edge(EdgeId::new(e as usize)).other(NodeId::new(v));
                    parent_edge[u.index()] = e;
                    stack.push(u.index() as u32);
                }
            }
        }
        Rooted {
            start,
            incident,
            order,
            parent_edge,
        }
    }

    /// Every node in pre-order from the root (parents before children);
    /// reversed, a post-order.
    #[inline]
    pub fn pre_order(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.order.iter().map(|&v| NodeId::new(v as usize))
    }

    /// The edge joining `node` to its parent; `None` for the root.
    #[inline]
    pub fn parent_edge(&self, node: NodeId) -> Option<EdgeId> {
        let e = self.parent_edge[node.index()];
        (e != NO_EDGE).then(|| EdgeId::new(e as usize))
    }

    /// Every edge incident to `node`, its parent edge included, in
    /// increasing id order.
    #[inline]
    pub fn incident_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let v = node.index();
        self.incident[self.start[v] as usize..self.start[v + 1] as usize]
            .iter()
            .map(|&e| EdgeId::new(e as usize))
    }

    /// The number of edges incident to `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        let v = node.index();
        (self.start[v + 1] - self.start[v]) as usize
    }

    /// The edges joining `node` to its children, in increasing id order.
    #[inline]
    pub fn child_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let up = self.parent_edge[node.index()] as usize;
        self.incident_edges(node).filter(move |e| e.index() != up)
    }

    /// `node`'s children with their connecting edges, in increasing
    /// edge-id order.
    #[inline]
    pub fn children<'a, T: TreeView + ?Sized>(
        &'a self,
        tree: &'a T,
        node: NodeId,
    ) -> impl Iterator<Item = (NodeId, EdgeId)> + 'a {
        self.child_edges(node)
            .map(move |e| (tree.edge(e).other(node), e))
    }
}
