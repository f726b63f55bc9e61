//! Super-node contraction: reading the components of `T − S` as a tree.
//!
//! Section 2.2 of the paper observes that after bottleneck minimization cuts
//! a tree into components, "there may be at most one edge between two
//! connected components", so lumping every component into a super-node
//! (whose weight is the component's total vertex weight) yields another
//! tree whose edges are exactly the cut edges. Processor minimization then
//! runs on that contracted tree. A [`Contraction`] is that tree as a
//! [`TreeView`]: it reads super-node weights from the component labelling
//! and keeps one entry per cut edge, so no tree is built or validated.

use crate::{
    check_tree, Components, CutSet, EdgeId, GraphError, NodeId, TreeEdge, TreeView, Weight,
};

/// The result of contracting the components of `T − S` into super-nodes,
/// readable as the contracted tree through [`TreeView`].
///
/// Super-node `c` is component `c` of `T − S` (ids as
/// [`TreeView::components`] numbers them) and weighs what that component
/// weighs; contracted edge `i` joins the super-nodes of the cut's `i`-th
/// smallest edge and carries that edge's weight.
///
/// # Examples
///
/// ```
/// use tgp_graph::{contract, CutSet, EdgeId, Tree, TreeView, Weight};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// let t = Tree::from_raw(&[1, 2, 3, 4], &[(0, 1, 10), (1, 2, 20), (2, 3, 30)])?;
/// let cut = CutSet::new(vec![EdgeId::new(1)]);
/// let c = contract(&t, &cut)?;
/// assert_eq!(c.len(), 2);           // two super-nodes
/// assert_eq!(c.total_weight(), t.total_weight());
/// assert_eq!(c.original_edge(EdgeId::new(0)), EdgeId::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Contraction {
    /// `edges[e']` = contracted edge `e'`, between super-nodes.
    edges: Vec<TreeEdge>,
    /// `edge_map[e']` = original edge id of contracted edge `e'`.
    edge_map: Vec<EdgeId>,
    /// Super-node `c` is component `c` of the original tree under the
    /// cut.
    components: Components,
}

impl Contraction {
    /// The super-node containing original node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the original tree.
    pub fn super_node_of(&self, v: NodeId) -> NodeId {
        NodeId::new(self.components.component_of(v))
    }

    /// The original edge that became contracted edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the contracted tree.
    pub fn original_edge(&self, e: EdgeId) -> EdgeId {
        self.edge_map[e.index()]
    }

    /// Translates a cut on the contracted tree back to original edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `cut` refers to edges outside the contracted tree.
    pub fn lift_cut(&self, cut: &CutSet) -> CutSet {
        cut.iter().map(|e| self.original_edge(e)).collect()
    }
}

impl TreeView for Contraction {
    fn len(&self) -> usize {
        self.components.count()
    }

    fn node_weight(&self, node: NodeId) -> Weight {
        self.components.weight(node.index())
    }

    fn edge(&self, edge: EdgeId) -> TreeEdge {
        self.edges[edge.index()]
    }
}

/// Contracts each component of `tree − cut` into a super-node.
///
/// Labels the components once ([`TreeView::components`]) and maps each
/// cut edge onto the super-nodes of its endpoints; the returned
/// [`Contraction`] reads as the contracted tree and keeps the tables
/// relating original and contracted ids. Any tree view contracts the
/// same way, so RAM and disk-backed trees yield equal contractions.
///
/// # Errors
///
/// [`GraphError::EdgeOutOfRange`] if the cut refers to edges the tree does
/// not have.
pub fn contract<T: TreeView>(tree: &T, cut: &CutSet) -> Result<Contraction, GraphError> {
    let components = tree.components(cut)?;
    let super_node = |v: NodeId| NodeId::new(components.component_of(v));
    let edges: Vec<TreeEdge> = cut
        .iter()
        .map(|e| {
            let TreeEdge { a, b, weight } = tree.edge(e);
            TreeEdge::new(super_node(a), super_node(b), weight)
        })
        .collect();
    debug_assert_eq!(
        check_tree(
            components.count(),
            edges.len(),
            components
                .weights()
                .iter()
                .map(|w| u128::from(w.get()))
                .sum(),
            edges.iter().map(|e| u128::from(e.weight.get())).sum(),
            |i| (edges[i].a.index(), edges[i].b.index()),
        ),
        Ok(()),
        "components of a tree minus a cut always contract to a tree"
    );
    Ok(Contraction {
        edges,
        edge_map: cut.as_slice().to_vec(),
        components,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tree;

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
    fn empty_cut_contracts_to_single_node() {
        let t = caterpillar();
        let c = contract(&t, &CutSet::empty()).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_weight(), t.total_weight());
        assert_eq!(c.edge_count(), 0);
    }

    #[test]
    fn full_cut_contracts_to_original_shape() {
        let t = caterpillar();
        let cut: CutSet = (0..t.edge_count()).map(EdgeId::new).collect();
        let c = contract(&t, &cut).unwrap();
        assert_eq!(c.len(), t.len());
        assert_eq!(c.edge_count(), t.edge_count());
        assert_eq!(c.total_weight(), t.total_weight());
    }

    #[test]
    fn weights_are_preserved_and_mapped() {
        let t = caterpillar();
        let cut = CutSet::new(vec![EdgeId::new(1)]); // split {0,1,4,5} | {2,3,6}
        let c = contract(&t, &cut).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_weight(), Weight::new(28));
        let s0 = c.super_node_of(NodeId::new(0));
        assert_eq!(c.super_node_of(NodeId::new(4)), s0);
        assert_eq!(c.super_node_of(NodeId::new(5)), s0);
        let s2 = c.super_node_of(NodeId::new(2));
        assert_ne!(s0, s2);
        assert_eq!(c.super_node_of(NodeId::new(6)), s2);
        // Component weights: {1,2,5,6}=14 and {3,4,7}=14.
        assert_eq!(c.node_weight(s0), Weight::new(14));
        assert_eq!(c.node_weight(s2), Weight::new(14));
        // Contracted edge carries original weight and maps back.
        assert_eq!(c.edge_weight(EdgeId::new(0)), Weight::new(20));
        assert_eq!(c.original_edge(EdgeId::new(0)), EdgeId::new(1));
    }

    #[test]
    fn lift_cut_translates_ids() {
        let t = caterpillar();
        let cut = CutSet::new(vec![EdgeId::new(1), EdgeId::new(3)]);
        let c = contract(&t, &cut).unwrap();
        let all: CutSet = (0..c.edge_count()).map(EdgeId::new).collect();
        let lifted = c.lift_cut(&all);
        assert_eq!(lifted, cut);
        let none = c.lift_cut(&CutSet::empty());
        assert!(none.is_empty());
    }

    #[test]
    fn out_of_range_cut_rejected() {
        let t = caterpillar();
        let cut = CutSet::new(vec![EdgeId::new(99)]);
        assert!(matches!(
            contract(&t, &cut),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
    }
}
