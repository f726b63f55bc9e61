//! Flat SoA graph representations over a [`MemoryBacking`]: the one
//! representation of each graph class.
//!
//! [`FlatPath`] and [`FlatTree`] store a graph as parallel primitive
//! arrays (`u64` weights, `u32` edge endpoints, prefix sums) on any
//! backing; [`PathGraph`](crate::PathGraph) and [`Tree`](crate::Tree)
//! are their RAM instantiations. Their builders are *incremental* —
//! weights and edges stream in one at a time or in blocks, which is what
//! lets the service parse a huge JSON upload directly into (possibly
//! disk-backed) arrays without ever materializing the document tree.
//!
//! Builders validate with [`check_chain`] and [`check_tree`], so a graph
//! fails (or succeeds) with the same [`GraphError`] whichever backing it
//! is built on.

use std::fmt;
use std::io;

use crate::backing::{Array, BackingKind, MemoryBacking};
use crate::{
    check_chain, check_tree, ChainView, EdgeId, GraphError, NodeId, TreeEdge, TreeView, Weight,
};

/// Why a flat graph could not be built.
#[derive(Debug)]
pub enum BuildError {
    /// The input does not describe a valid graph.
    Graph(GraphError),
    /// The backing failed (spill-file creation or growth).
    Io(io::Error),
    /// More nodes than the compact `u32` index space can address.
    TooLarge {
        /// The offending node count.
        nodes: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Graph(e) => e.fmt(f),
            BuildError::Io(e) => write!(f, "backing error: {e}"),
            BuildError::TooLarge { nodes } => {
                write!(f, "{nodes} node(s) exceed the u32 index space")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl BuildError {
    /// The graph error of a build on heap arrays, which grow or abort
    /// and so fail no other way short of more than `u32::MAX` nodes.
    ///
    /// # Panics
    ///
    /// On [`BuildError::TooLarge`] or [`BuildError::Io`].
    pub(crate) fn into_graph_error(self) -> GraphError {
        match self {
            BuildError::Graph(e) => e,
            other => panic!("{other}"),
        }
    }
}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

impl From<io::Error> for BuildError {
    fn from(e: io::Error) -> Self {
        BuildError::Io(e)
    }
}

/// The node-weight total and heaviest node a builder keeps as weights
/// stream in. An overflowing total surfaces as WeightOverflow in
/// `finish`.
#[derive(Default)]
struct NodeStats {
    total: u128,
    max: u64,
}

impl NodeStats {
    /// Counts one more node weight; returns the running total, truncated
    /// (a truncated prefix is never observed: `finish` refuses it).
    #[inline]
    fn absorb(&mut self, weight: u64) -> u64 {
        self.total += u128::from(weight);
        self.max = self.max.max(weight);
        self.total as u64
    }
}

// ---------------------------------------------------------------------------
// FlatPath
// ---------------------------------------------------------------------------

/// A linear task graph as three parallel arrays: node weights, edge
/// weights, and vertex-weight prefix sums (length `n + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatPath<B: MemoryBacking> {
    node_w: B::Array<u64>,
    edge_w: B::Array<u64>,
    prefix: B::Array<u64>,
    max_node: u64,
    kind: BackingKind,
}

impl<B: MemoryBacking> FlatPath<B> {
    /// Which medium holds this graph.
    pub fn backing_kind(&self) -> BackingKind {
        self.kind
    }

    /// Bytes of process RAM the graph pins (0 when disk-backed).
    pub fn resident_bytes(&self) -> u64 {
        self.node_w.resident_bytes() + self.edge_w.resident_bytes() + self.prefix.resident_bytes()
    }

    /// Logical size of the graph's arrays in bytes, whichever medium
    /// holds them.
    pub fn byte_len(&self) -> u64 {
        self.node_w.byte_len() + self.edge_w.byte_len() + self.prefix.byte_len()
    }
}

impl<B: MemoryBacking> ChainView for FlatPath<B> {
    fn len(&self) -> usize {
        self.node_w.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_w.len()
    }

    fn node_weight(&self, node: NodeId) -> Weight {
        Weight::new(self.node_w.as_slice()[node.index()])
    }

    fn edge_weight(&self, edge: EdgeId) -> Weight {
        Weight::new(self.edge_w.as_slice()[edge.index()])
    }

    #[inline]
    fn span_weight(&self, lo: usize, hi: usize) -> Weight {
        debug_assert!(lo <= hi, "span lo {lo} must be <= hi {hi}");
        let p = self.prefix.as_slice();
        Weight::new(p[hi + 1] - p[lo])
    }

    fn total_weight(&self) -> Weight {
        Weight::new(*self.prefix.as_slice().last().expect("prefix never empty"))
    }

    fn max_node_weight(&self) -> Weight {
        Weight::new(self.max_node)
    }
}

/// Incremental builder for [`FlatPath`]: stream node weights and edge
/// weights in order, one at a time or in blocks, then
/// [`finish`](FlatPathBuilder::finish).
pub struct FlatPathBuilder<B: MemoryBacking> {
    node_w: B::Array<u64>,
    edge_w: B::Array<u64>,
    prefix: B::Array<u64>,
    nodes: NodeStats,
    edge_total: u128,
    kind: BackingKind,
}

impl<B: MemoryBacking> FlatPathBuilder<B> {
    /// A builder allocating on `backing`, sized for `nodes_hint` nodes.
    ///
    /// # Errors
    ///
    /// Backing allocation failure.
    pub fn new(backing: &B, nodes_hint: usize) -> io::Result<Self> {
        let node_w = backing.new_array::<u64>(nodes_hint)?;
        FlatPathBuilder::with_nodes_hint(backing, node_w, nodes_hint)
    }

    /// A builder that adopts `node_w`, node weights already streamed
    /// into an array on `backing`, with edge storage sized for a chain
    /// over them.
    ///
    /// # Errors
    ///
    /// Backing allocation failure.
    pub fn with_nodes(backing: &B, node_w: B::Array<u64>) -> io::Result<Self> {
        let n = node_w.len();
        let mut builder = FlatPathBuilder::with_nodes_hint(backing, node_w, n)?;
        let b = &mut builder;
        Self::absorb_nodes(&mut b.prefix, &mut b.nodes, b.node_w.as_slice())?;
        Ok(builder)
    }

    fn with_nodes_hint(backing: &B, node_w: B::Array<u64>, nodes_hint: usize) -> io::Result<Self> {
        let mut prefix = backing.new_array::<u64>(nodes_hint + 1)?;
        prefix.push(0)?;
        Ok(FlatPathBuilder {
            node_w,
            edge_w: backing.new_array::<u64>(nodes_hint.saturating_sub(1))?,
            prefix,
            nodes: NodeStats::default(),
            edge_total: 0,
            kind: backing.kind(),
        })
    }

    /// Makes room for `additional` more node weights.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn reserve_nodes(&mut self, additional: usize) -> io::Result<()> {
        self.node_w.reserve(additional)?;
        self.prefix.reserve(additional)
    }

    /// Appends the next node weight.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn push_node(&mut self, weight: u64) -> io::Result<()> {
        self.extend_nodes(&[weight])
    }

    /// Appends the next node weights.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn extend_nodes(&mut self, weights: &[u64]) -> io::Result<()> {
        self.node_w.extend_from_slice(weights)?;
        Self::absorb_nodes(&mut self.prefix, &mut self.nodes, weights)
    }

    /// Extends the prefix sums and `stats` over `weights`, the node
    /// weights just appended — read from the caller's slice, not back
    /// from the array they went into.
    fn absorb_nodes(
        prefix: &mut B::Array<u64>,
        stats: &mut NodeStats,
        weights: &[u64],
    ) -> io::Result<()> {
        prefix.extend_from_fn(weights.len(), |k| stats.absorb(weights[k]))
    }

    /// Appends the next edge weight.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn push_edge(&mut self, weight: u64) -> io::Result<()> {
        self.extend_edges(&[weight])
    }

    /// Appends the next edge weights.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn extend_edges(&mut self, weights: &[u64]) -> io::Result<()> {
        self.edge_w.extend_from_slice(weights)?;
        self.edge_total += weights.iter().map(|&w| u128::from(w)).sum::<u128>();
        Ok(())
    }

    /// Number of nodes pushed so far.
    pub fn nodes(&self) -> usize {
        self.node_w.len()
    }

    /// Number of edges pushed so far.
    pub fn edges(&self) -> usize {
        self.edge_w.len()
    }

    /// Validates and seals the graph with [`check_chain`].
    ///
    /// # Errors
    ///
    /// [`GraphError::Empty`], [`GraphError::WrongEdgeCount`] or
    /// [`GraphError::WeightOverflow`].
    pub fn finish(self) -> Result<FlatPath<B>, BuildError> {
        let n = self.node_w.len();
        check_chain(n, self.edge_w.len(), self.nodes.total, self.edge_total)?;
        debug_assert_eq!(self.prefix.len(), n + 1);
        Ok(FlatPath {
            node_w: self.node_w,
            edge_w: self.edge_w,
            prefix: self.prefix,
            max_node: self.nodes.max,
            kind: self.kind,
        })
    }
}

// ---------------------------------------------------------------------------
// FlatTree
// ---------------------------------------------------------------------------

/// A weighted free tree as parallel arrays: `edge_a[i]`/`edge_b[i]` are
/// edge `i`'s endpoints in input orientation. There is no adjacency
/// index: [`TreeView`] exposes none, and the solvers that walk the tree
/// root it with [`Rooted`](crate::Rooted), which builds its own
/// incidence from the edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTree<B: MemoryBacking> {
    node_w: B::Array<u64>,
    edge_a: B::Array<u32>,
    edge_b: B::Array<u32>,
    edge_w: B::Array<u64>,
    total: u64,
    max_node: u64,
    kind: BackingKind,
}

impl<B: MemoryBacking> FlatTree<B> {
    /// Which medium holds this graph.
    pub fn backing_kind(&self) -> BackingKind {
        self.kind
    }

    /// Bytes of process RAM the graph pins (0 when disk-backed).
    pub fn resident_bytes(&self) -> u64 {
        self.node_w.resident_bytes()
            + self.edge_a.resident_bytes()
            + self.edge_b.resident_bytes()
            + self.edge_w.resident_bytes()
    }

    /// Logical size of the graph's arrays in bytes, whichever medium
    /// holds them.
    pub fn byte_len(&self) -> u64 {
        self.node_w.byte_len()
            + self.edge_a.byte_len()
            + self.edge_b.byte_len()
            + self.edge_w.byte_len()
    }
}

impl<B: MemoryBacking> TreeView for FlatTree<B> {
    fn len(&self) -> usize {
        self.node_w.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_w.len()
    }

    fn node_weight(&self, node: NodeId) -> Weight {
        Weight::new(self.node_w.as_slice()[node.index()])
    }

    fn edge(&self, edge: EdgeId) -> TreeEdge {
        let i = edge.index();
        TreeEdge::new(
            NodeId::new(self.edge_a.as_slice()[i] as usize),
            NodeId::new(self.edge_b.as_slice()[i] as usize),
            Weight::new(self.edge_w.as_slice()[i]),
        )
    }

    fn edge_weight(&self, edge: EdgeId) -> Weight {
        Weight::new(self.edge_w.as_slice()[edge.index()])
    }

    fn total_weight(&self) -> Weight {
        Weight::new(self.total)
    }

    fn max_node_weight(&self) -> Weight {
        Weight::new(self.max_node)
    }
}

/// Incremental builder for [`FlatTree`]: stream node weights, then (or
/// interleaved) edges, one at a time or in blocks, then
/// [`finish`](FlatTreeBuilder::finish).
pub struct FlatTreeBuilder<B: MemoryBacking> {
    node_w: B::Array<u64>,
    edge_a: B::Array<u32>,
    edge_b: B::Array<u32>,
    edge_w: B::Array<u64>,
    /// The first edge with an endpoint too large to store as `u32`, and
    /// its original endpoints. Such an endpoint is out of range for any
    /// node count `finish` accepts, so validation stops at this edge at
    /// the latest, and its error names the original value from here.
    first_oversized: Option<(usize, [usize; 2])>,
    nodes: NodeStats,
    edge_total: u128,
    kind: BackingKind,
}

impl<B: MemoryBacking> FlatTreeBuilder<B> {
    /// A builder allocating on `backing`, sized for `nodes_hint` nodes.
    ///
    /// # Errors
    ///
    /// Backing allocation failure.
    pub fn new(backing: B, nodes_hint: usize) -> io::Result<Self> {
        let node_w = backing.new_array::<u64>(nodes_hint)?;
        FlatTreeBuilder::with_nodes_hint(&backing, node_w, nodes_hint)
    }

    /// A builder that adopts `node_w`, node weights already streamed
    /// into an array on `backing`, with edge storage sized for a tree
    /// over them.
    ///
    /// # Errors
    ///
    /// Backing allocation failure.
    pub fn with_nodes(backing: &B, node_w: B::Array<u64>) -> io::Result<Self> {
        let n = node_w.len();
        let mut builder = FlatTreeBuilder::with_nodes_hint(backing, node_w, n)?;
        for &w in builder.node_w.as_slice() {
            builder.nodes.absorb(w);
        }
        Ok(builder)
    }

    fn with_nodes_hint(backing: &B, node_w: B::Array<u64>, nodes_hint: usize) -> io::Result<Self> {
        let m = nodes_hint.saturating_sub(1);
        Ok(FlatTreeBuilder {
            node_w,
            edge_a: backing.new_array::<u32>(m)?,
            edge_b: backing.new_array::<u32>(m)?,
            edge_w: backing.new_array::<u64>(m)?,
            first_oversized: None,
            nodes: NodeStats::default(),
            edge_total: 0,
            kind: backing.kind(),
        })
    }

    /// Makes room for `additional` more node weights.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn reserve_nodes(&mut self, additional: usize) -> io::Result<()> {
        self.node_w.reserve(additional)
    }

    /// Appends the next node weight.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn push_node(&mut self, weight: u64) -> io::Result<()> {
        self.extend_nodes(&[weight])
    }

    /// Appends the next node weights.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn extend_nodes(&mut self, weights: &[u64]) -> io::Result<()> {
        self.node_w.extend_from_slice(weights)?;
        for &w in weights {
            self.nodes.absorb(w);
        }
        Ok(())
    }

    /// Appends the next edge `(a, b, weight)` in input orientation.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn push_edge(&mut self, a: usize, b: usize, weight: u64) -> io::Result<()> {
        self.extend_edges(&[(a, b, weight)])
    }

    /// Appends the next edges, each `(a, b, weight)` in input
    /// orientation.
    ///
    /// # Errors
    ///
    /// Backing growth failure.
    pub fn extend_edges(&mut self, edges: &[(usize, usize, u64)]) -> io::Result<()> {
        let narrow = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
        if self.first_oversized.is_none() {
            let wide = |&(a, b, _): &(usize, usize, u64)| {
                u32::try_from(a).is_err() || u32::try_from(b).is_err()
            };
            if let Some(k) = edges.iter().position(wide) {
                let (a, b, _) = edges[k];
                self.first_oversized = Some((self.edge_w.len() + k, [a, b]));
            }
        }
        self.edge_a
            .extend_from_fn(edges.len(), |k| narrow(edges[k].0))?;
        self.edge_b
            .extend_from_fn(edges.len(), |k| narrow(edges[k].1))?;
        self.edge_w.extend_from_fn(edges.len(), |k| edges[k].2)?;
        self.edge_total += edges.iter().map(|e| u128::from(e.2)).sum::<u128>();
        Ok(())
    }

    /// Number of nodes pushed so far.
    pub fn nodes(&self) -> usize {
        self.node_w.len()
    }

    /// Number of edges pushed so far.
    pub fn edges(&self) -> usize {
        self.edge_w.len()
    }

    /// Edge `edge`'s endpoints as pushed (`a`, `b`), in O(1).
    fn endpoints(&self, edge: usize) -> (usize, usize) {
        match self.first_oversized {
            Some((e, [a, b])) if e == edge => (a, b),
            _ => (
                self.edge_a.as_slice()[edge] as usize,
                self.edge_b.as_slice()[edge] as usize,
            ),
        }
    }

    /// Validates the edge set and seals the graph with [`check_tree`],
    /// including its duplicate-edge / cycle distinction.
    ///
    /// # Errors
    ///
    /// Any [`GraphError`] [`check_tree`] reports,
    /// [`BuildError::TooLarge`] for node counts beyond `u32`, or a
    /// backing failure as [`BuildError::Io`].
    pub fn finish(self) -> Result<FlatTree<B>, BuildError> {
        let n = self.node_w.len();
        // Only a non-empty tree is too large, so checking first keeps
        // check_tree's order.
        if n > u32::MAX as usize {
            return Err(BuildError::TooLarge { nodes: n });
        }
        let m = self.edge_w.len();
        check_tree(n, m, self.nodes.total, self.edge_total, |i| {
            self.endpoints(i)
        })?;
        Ok(FlatTree {
            node_w: self.node_w,
            edge_a: self.edge_a,
            edge_b: self.edge_b,
            edge_w: self.edge_w,
            total: self.nodes.total as u64,
            max_node: self.nodes.max,
            kind: self.kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::RamBacking;

    fn build_path<B: MemoryBacking>(
        backing: &B,
        nodes: &[u64],
        edges: &[u64],
    ) -> Result<FlatPath<B>, BuildError> {
        let mut b = FlatPathBuilder::new(backing, nodes.len()).unwrap();
        for &w in nodes {
            b.push_node(w).unwrap();
        }
        for &w in edges {
            b.push_edge(w).unwrap();
        }
        b.finish()
    }

    fn graph_err(e: BuildError) -> GraphError {
        match e {
            BuildError::Graph(g) => g,
            other => panic!("expected graph error, got {other}"),
        }
    }

    #[test]
    fn many_oversized_endpoints_validate_in_linear_time() {
        // k valid edges (a path), then k edges whose `a` does not fit
        // `u32`: validation reads every valid edge's endpoints, so a
        // lookup that scanned the oversized endpoints would make it
        // quadratic in k.
        let k = 100_000;
        let mut b = FlatTreeBuilder::new(RamBacking, 2 * k + 1).unwrap();
        for _ in 0..=2 * k {
            b.push_node(1).unwrap();
        }
        for i in 0..k {
            b.push_edge(i, i + 1, 1).unwrap();
        }
        let big = u32::MAX as usize + 1;
        for i in 0..k {
            b.push_edge(big + i, k + 1 + i, 1).unwrap();
        }
        let started = std::time::Instant::now();
        let err = graph_err(b.finish().unwrap_err());
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(big),
                len: 2 * k + 1
            }
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "finish took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn adopted_nodes_build_the_same_chain() {
        let nodes = [2u64, 3, 5, 7, 11];
        let edges = [1u64, 2, 3, 4];
        let single = build_path(&RamBacking, &nodes, &edges).unwrap();
        let mut node_w = RamBacking.new_array::<u64>(0).unwrap();
        node_w.extend_from_slice(&nodes).unwrap();
        let mut adopted = FlatPathBuilder::with_nodes(&RamBacking, node_w).unwrap();
        adopted.extend_edges(&edges).unwrap();
        let adopted = adopted.finish().unwrap();
        for lo in 0..nodes.len() {
            for hi in lo..nodes.len() {
                assert_eq!(adopted.span_weight(lo, hi), single.span_weight(lo, hi));
            }
        }
        assert_eq!(adopted.max_node_weight(), single.max_node_weight());
        assert_eq!(adopted.resident_bytes(), adopted.byte_len());
    }

    #[test]
    fn oversized_endpoint_reports_original_value() {
        let big = u32::MAX as usize + 7;
        let err = {
            let mut b = FlatTreeBuilder::new(RamBacking, 2).unwrap();
            b.push_node(1).unwrap();
            b.push_node(2).unwrap();
            b.push_edge(0, big, 1).unwrap();
            graph_err(b.finish().unwrap_err())
        };
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(big),
                len: 2
            }
        );
    }
}
