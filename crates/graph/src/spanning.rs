//! Tree super-graph approximation of a general process graph.
//!
//! The paper's conclusion: "more general cases may be approximated by
//! generating a linear **or tree** supergraph of the original process
//! graph". The tree variant keeps a *maximum-weight spanning tree* of the
//! process graph: the heaviest-communication pairs stay adjacent in the
//! tree (so the tree algorithms try hard to keep them together), and every
//! dropped non-tree edge is the lightest one on some cycle.
//!
//! A cut of the spanning tree under-estimates the true cut cost (dropped
//! edges may also cross the partition); callers evaluate candidate
//! partitions back on the original graph — see
//! [`TreeSupergraph::cut_cost_on_graph`].

use crate::{
    Components, CutSet, NodeId, ProcessGraph, Tree, TreeEdge, TreeView, UnionFind32, Weight,
};

/// A maximum-weight spanning tree of a process graph, with the mapping
/// back to the original edges.
#[derive(Debug, Clone)]
pub struct TreeSupergraph {
    tree: Tree,
    /// `graph_edge[t]` = index into the process graph's edge list of the
    /// edge that became tree edge `t`.
    graph_edge: Vec<usize>,
}

impl TreeSupergraph {
    /// The spanning tree (same node ids and weights as the process graph).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The process-graph edge index behind tree edge `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn graph_edge(&self, t: crate::EdgeId) -> usize {
        self.graph_edge[t.index()]
    }

    /// Evaluates a spanning-tree cut on the *original* process graph:
    /// total weight of all graph edges whose endpoints land in different
    /// components (including non-tree edges the approximation ignored).
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not fit the spanning tree or `g` is not the
    /// graph this super-graph was built from.
    pub fn cut_cost_on_graph(&self, g: &ProcessGraph, cut: &CutSet) -> Weight {
        let comps = self
            .tree
            .components(cut)
            .expect("cut must fit the spanning tree");
        let mut total = Weight::ZERO;
        for e in g.edges() {
            if comps.component_of(e.a) != comps.component_of(e.b) {
                total += e.weight;
            }
        }
        total
    }

    /// The components a spanning-tree cut induces (valid for the process
    /// graph too, since the node sets coincide).
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not fit the spanning tree.
    pub fn components(&self, cut: &CutSet) -> Components {
        self.tree
            .components(cut)
            .expect("cut must fit the spanning tree")
    }
}

/// Builds the maximum-weight spanning tree super-graph of `g` (Kruskal on
/// descending edge weight; ties broken by edge index for determinism).
///
/// # Examples
///
/// ```
/// use tgp_graph::spanning::tree_supergraph;
/// use tgp_graph::{ProcessGraph, TreeView};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// // A triangle: the lightest edge (weight 2) is dropped.
/// let g = ProcessGraph::from_raw(&[1, 1, 1], &[(0, 1, 5), (1, 2, 7), (2, 0, 2)])?;
/// let sup = tree_supergraph(&g);
/// assert_eq!(sup.tree().edge_count(), 2);
/// let kept: u64 = sup.tree().edges().map(|e| e.weight.get()).sum();
/// assert_eq!(kept, 12);
/// # Ok(())
/// # }
/// ```
pub fn tree_supergraph(g: &ProcessGraph) -> TreeSupergraph {
    let n = g.len();
    let mut order: Vec<usize> = (0..g.edge_count()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(g.edges()[i].weight), i));
    let mut uf = UnionFind32::new(n);
    let mut edges: Vec<TreeEdge> = Vec::with_capacity(n - 1);
    let mut graph_edge = Vec::with_capacity(n - 1);
    for i in order {
        let e = g.edges()[i];
        if uf.union(e.a.index() as u32, e.b.index() as u32) {
            edges.push(TreeEdge::new(e.a, e.b, e.weight));
            graph_edge.push(i);
            if edges.len() == n - 1 {
                break;
            }
        }
    }
    debug_assert_eq!(edges.len(), n - 1, "connected graphs span fully");
    let node_weights: Vec<Weight> = (0..n).map(|v| g.node_weight(NodeId::new(v))).collect();
    let tree = Tree::from_edges(node_weights, edges).expect("a spanning tree is a valid tree");
    TreeSupergraph { tree, graph_edge }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    fn ring_with_chord() -> ProcessGraph {
        ProcessGraph::from_raw(
            &[1, 2, 3, 4, 5],
            &[
                (0, 1, 10),
                (1, 2, 20),
                (2, 3, 30),
                (3, 4, 40),
                (4, 0, 50),
                (1, 3, 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn keeps_heavy_edges() {
        let g = ring_with_chord();
        let sup = tree_supergraph(&g);
        assert_eq!(sup.tree().len(), 5);
        assert_eq!(sup.tree().edge_count(), 4);
        let kept: Vec<u64> = sup.tree().edges().map(|e| e.weight.get()).collect();
        // Heaviest four of {10, 20, 30, 40, 50, 5} that stay acyclic:
        // 50, 40, 30, 20.
        let mut sorted = kept.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![20, 30, 40, 50]);
    }

    #[test]
    fn node_weights_carry_over() {
        let g = ring_with_chord();
        let sup = tree_supergraph(&g);
        for v in 0..5 {
            assert_eq!(
                sup.tree().node_weight(NodeId::new(v)),
                g.node_weight(NodeId::new(v))
            );
        }
        assert_eq!(sup.tree().total_weight(), g.total_weight());
    }

    #[test]
    fn graph_edge_mapping_is_consistent() {
        let g = ring_with_chord();
        let sup = tree_supergraph(&g);
        for t in 0..sup.tree().edge_count() {
            let te = sup.tree().edge(EdgeId::new(t));
            let ge = g.edges()[sup.graph_edge(EdgeId::new(t))];
            assert_eq!((te.a, te.b, te.weight), (ge.a, ge.b, ge.weight));
        }
    }

    #[test]
    fn cut_cost_on_graph_counts_dropped_edges() {
        let g = ring_with_chord();
        let sup = tree_supergraph(&g);
        // Empty cut: one component, zero crossing cost.
        assert_eq!(sup.cut_cost_on_graph(&g, &CutSet::empty()), Weight::ZERO);
        // Any single tree-edge cut: the true cost includes the dropped
        // ring edge (10) and possibly the chord, so it is at least the
        // tree edge's own weight.
        for t in 0..sup.tree().edge_count() {
            let cut = CutSet::new(vec![EdgeId::new(t)]);
            let true_cost = sup.cut_cost_on_graph(&g, &cut);
            let tree_cost = sup.tree().cut_weight(&cut).unwrap();
            assert!(true_cost >= tree_cost, "tree cost under-estimates");
            let comps = sup.components(&cut);
            assert_eq!(comps.count(), 2);
        }
    }

    #[test]
    fn deterministic_under_ties() {
        let g = ProcessGraph::from_raw(&[1, 1, 1], &[(0, 1, 5), (1, 2, 5), (2, 0, 5)]).unwrap();
        let a = tree_supergraph(&g);
        let b = tree_supergraph(&g);
        assert_eq!(a.tree(), b.tree());
        // Ties broken by edge index: edges (0,1) and (1,2) kept.
        assert_eq!(a.graph_edge(EdgeId::new(0)), 0);
        assert_eq!(a.graph_edge(EdgeId::new(1)), 1);
    }

    #[test]
    fn single_node_graph() {
        let g = ProcessGraph::from_raw(&[7], &[]).unwrap();
        let sup = tree_supergraph(&g);
        assert_eq!(sup.tree().len(), 1);
        assert_eq!(sup.tree().edge_count(), 0);
    }
}
