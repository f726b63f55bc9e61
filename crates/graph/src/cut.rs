//! Edge cuts and the components they induce.

use crate::{EdgeId, GraphError, NodeId, Weight};

/// A set of edges removed from a graph (the `S ⊆ E` of the paper).
///
/// Stored as a sorted, de-duplicated vector of edge ids, so membership tests
/// are `O(log |S|)` and iteration is in edge order.
///
/// # Examples
///
/// ```
/// use tgp_graph::{CutSet, EdgeId};
///
/// let cut = CutSet::new(vec![EdgeId::new(3), EdgeId::new(1), EdgeId::new(3)]);
/// assert_eq!(cut.len(), 2);
/// assert!(cut.contains(EdgeId::new(1)));
/// assert!(!cut.contains(EdgeId::new(0)));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct CutSet {
    edges: Vec<EdgeId>,
}

impl CutSet {
    /// Creates a cut from an arbitrary list of edge ids (sorted and
    /// de-duplicated internally).
    pub fn new(mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        CutSet { edges }
    }

    /// The empty cut.
    pub fn empty() -> Self {
        CutSet::default()
    }

    /// Number of edges in the cut.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges are cut.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns `true` if `edge` is in the cut.
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// Iterates over the cut edges in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().copied()
    }

    /// The cut edges as a sorted slice.
    pub fn as_slice(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Adds an edge to the cut (no-op if already present).
    pub fn insert(&mut self, edge: EdgeId) {
        if let Err(pos) = self.edges.binary_search(&edge) {
            self.edges.insert(pos, edge);
        }
    }

    /// Set union of two cuts.
    pub fn union(&self, other: &CutSet) -> CutSet {
        let mut edges = Vec::with_capacity(self.len() + other.len());
        edges.extend_from_slice(&self.edges);
        edges.extend_from_slice(&other.edges);
        CutSet::new(edges)
    }

    /// Returns `true` if `self` is a subset of `other`.
    pub fn is_subset_of(&self, other: &CutSet) -> bool {
        self.iter().all(|e| other.contains(e))
    }

    pub(crate) fn check_range(&self, edge_count: usize) -> Result<(), GraphError> {
        if let Some(&last) = self.edges.last() {
            if last.index() >= edge_count {
                return Err(GraphError::EdgeOutOfRange {
                    edge: last,
                    len: edge_count,
                });
            }
        }
        Ok(())
    }
}

impl FromIterator<EdgeId> for CutSet {
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        CutSet::new(iter.into_iter().collect())
    }
}

impl Extend<EdgeId> for CutSet {
    fn extend<I: IntoIterator<Item = EdgeId>>(&mut self, iter: I) {
        self.edges.extend(iter);
        self.edges.sort_unstable();
        self.edges.dedup();
    }
}

/// The connected components of `G − S` for some graph `G` and cut `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `comp_of[v]` = dense component index of node `v`.
    comp_of: Vec<usize>,
    /// Total vertex weight per component.
    weights: Vec<Weight>,
    /// Node count per component.
    sizes: Vec<usize>,
}

impl Components {
    /// Tallies `count` components from each node's component id
    /// (`comp_of`, every id below `count`) and its weight, in node
    /// order.
    pub(crate) fn from_comp_of(
        comp_of: Vec<usize>,
        count: usize,
        node_weights: impl Iterator<Item = Weight>,
    ) -> Self {
        let mut weights = vec![Weight::ZERO; count];
        let mut sizes = vec![0usize; count];
        for (&c, w) in comp_of.iter().zip(node_weights) {
            weights[c] += w;
            sizes[c] += 1;
        }
        Components {
            comp_of,
            weights,
            sizes,
        }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.weights.len()
    }

    /// Component index of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn component_of(&self, node: NodeId) -> usize {
        self.comp_of[node.index()]
    }

    /// Total vertex weight of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.count()`.
    pub fn weight(&self, c: usize) -> Weight {
        self.weights[c]
    }

    /// Node count of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.count()`.
    pub fn size(&self, c: usize) -> usize {
        self.sizes[c]
    }

    /// All component weights.
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// The heaviest component weight.
    pub fn max_weight(&self) -> Weight {
        self.weights.iter().copied().max().unwrap_or(Weight::ZERO)
    }

    /// Returns `true` if every component weight is at most `bound`
    /// (condition 1 — "execution time bound" — of Section 2).
    pub fn is_feasible(&self, bound: Weight) -> bool {
        self.max_weight() <= bound
    }

    /// Groups node ids by component.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.count()];
        for (v, &c) in self.comp_of.iter().enumerate() {
            out[c].push(NodeId::new(v));
        }
        out
    }
}

/// A maximal contiguous run of nodes of a chain after a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// First node index (inclusive).
    pub start: usize,
    /// Last node index (inclusive).
    pub end: usize,
    /// Total vertex weight of the segment.
    pub weight: Weight,
}

impl Segment {
    /// Number of nodes in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Segments are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChainView, PathGraph, Tree, TreeView};

    fn path() -> PathGraph {
        PathGraph::from_raw(&[2, 3, 5, 7, 11], &[1, 2, 3, 4]).unwrap()
    }

    fn star() -> Tree {
        Tree::from_raw(&[0, 10, 20, 30], &[(0, 1, 5), (0, 2, 6), (0, 3, 7)]).unwrap()
    }

    #[test]
    fn cutset_basics() {
        let cut = CutSet::new(vec![EdgeId::new(2), EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(cut.len(), 2);
        assert!(!cut.is_empty());
        assert!(cut.contains(EdgeId::new(0)));
        assert!(cut.contains(EdgeId::new(2)));
        assert!(!cut.contains(EdgeId::new(1)));
        let ids: Vec<usize> = cut.iter().map(EdgeId::index).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(CutSet::empty().is_empty());
    }

    #[test]
    fn cutset_insert_union_subset() {
        let mut cut = CutSet::empty();
        cut.insert(EdgeId::new(3));
        cut.insert(EdgeId::new(1));
        cut.insert(EdgeId::new(3));
        assert_eq!(cut.len(), 2);
        let other = CutSet::new(vec![EdgeId::new(0)]);
        let merged = cut.union(&other);
        assert_eq!(merged.len(), 3);
        assert!(cut.is_subset_of(&merged));
        assert!(!merged.is_subset_of(&cut));
    }

    #[test]
    fn cutset_from_iterator_and_extend() {
        let cut: CutSet = [EdgeId::new(1), EdgeId::new(1), EdgeId::new(0)]
            .into_iter()
            .collect();
        assert_eq!(cut.len(), 2);
        let mut cut2 = cut.clone();
        cut2.extend([EdgeId::new(5), EdgeId::new(0)]);
        assert_eq!(cut2.len(), 3);
    }

    #[test]
    fn path_segments_empty_cut() {
        let p = path();
        let segs = p.segments(&CutSet::empty()).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs[0].end, 4);
        assert_eq!(segs[0].weight, Weight::new(28));
        assert_eq!(segs[0].len(), 5);
        assert!(!segs[0].is_empty());
    }

    #[test]
    fn path_segments_with_cuts() {
        let p = path();
        let cut = CutSet::new(vec![EdgeId::new(1), EdgeId::new(3)]);
        let segs = p.segments(&cut).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].start, segs[0].end), (0, 1));
        assert_eq!(segs[0].weight, Weight::new(5));
        assert_eq!((segs[1].start, segs[1].end), (2, 3));
        assert_eq!(segs[1].weight, Weight::new(12));
        assert_eq!((segs[2].start, segs[2].end), (4, 4));
        assert_eq!(segs[2].weight, Weight::new(11));
    }

    #[test]
    fn path_cut_weight_and_bottleneck() {
        let p = path();
        let cut = CutSet::new(vec![EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(p.cut_weight(&cut).unwrap(), Weight::new(4));
        assert_eq!(p.bottleneck(&cut).unwrap(), Weight::new(3));
        assert_eq!(p.bottleneck(&CutSet::empty()).unwrap(), Weight::ZERO);
    }

    #[test]
    fn path_feasibility() {
        let p = path();
        let cut = CutSet::new(vec![EdgeId::new(1), EdgeId::new(3)]);
        assert!(p.is_feasible_cut(&cut, Weight::new(12)).unwrap());
        assert!(!p.is_feasible_cut(&cut, Weight::new(11)).unwrap());
    }

    #[test]
    fn path_components_match_segments() {
        // The chain read as a tree: its components are its segments.
        let p = Tree::from_raw(
            &[2, 3, 5, 7, 11],
            &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)],
        )
        .unwrap();
        let cut = CutSet::new(vec![EdgeId::new(2)]);
        let comps = p.components(&cut).unwrap();
        let segments = path().segments(&cut).unwrap();
        let segment_weights: Vec<Weight> = segments.iter().map(|s| s.weight).collect();
        assert_eq!(comps.weights(), &segment_weights[..]);
        assert_eq!(comps.count(), 2);
        assert_eq!(comps.component_of(NodeId::new(0)), 0);
        assert_eq!(comps.component_of(NodeId::new(2)), 0);
        assert_eq!(comps.component_of(NodeId::new(3)), 1);
        assert_eq!(comps.weight(0), Weight::new(10));
        assert_eq!(comps.weight(1), Weight::new(18));
        assert_eq!(comps.max_weight(), Weight::new(18));
        assert_eq!(comps.size(0), 3);
        assert!(comps.is_feasible(Weight::new(18)));
        assert!(!comps.is_feasible(Weight::new(17)));
    }

    #[test]
    fn out_of_range_cut_is_rejected() {
        let p = path();
        let cut = CutSet::new(vec![EdgeId::new(9)]);
        assert!(matches!(
            p.segments(&cut),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
        assert!(matches!(
            p.cut_weight(&cut),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
        let t = star();
        assert!(matches!(
            t.components(&cut),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
    }

    #[test]
    fn tree_components_and_objectives() {
        let t = star();
        let cut = CutSet::new(vec![EdgeId::new(0), EdgeId::new(2)]);
        let comps = t.components(&cut).unwrap();
        assert_eq!(comps.count(), 3);
        // v0 and v2 stay together (edge 1 kept); v1 and v3 are singletons.
        assert_eq!(
            comps.component_of(NodeId::new(0)),
            comps.component_of(NodeId::new(2))
        );
        assert_ne!(
            comps.component_of(NodeId::new(1)),
            comps.component_of(NodeId::new(3))
        );
        assert_eq!(comps.max_weight(), Weight::new(30));
        assert_eq!(t.cut_weight(&cut).unwrap(), Weight::new(12));
        assert_eq!(t.bottleneck(&cut).unwrap(), Weight::new(7));
        let members = comps.members();
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn tree_empty_cut_single_component() {
        let t = star();
        let comps = t.components(&CutSet::empty()).unwrap();
        assert_eq!(comps.count(), 1);
        assert_eq!(comps.weight(0), Weight::new(60));
    }

    #[test]
    fn full_cut_isolates_every_node() {
        let t = star();
        let cut = CutSet::new((0..3).map(EdgeId::new).collect());
        let comps = t.components(&cut).unwrap();
        assert_eq!(comps.count(), 4);
        for c in 0..4 {
            assert_eq!(comps.size(c), 1);
        }
    }
}
