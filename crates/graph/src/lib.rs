//! Weighted task-graph substrate for the `tgp` workspace.
//!
//! This crate provides the graph machinery on which the partitioning
//! algorithms of Ray & Jiang (ICDCS 1994) operate:
//!
//! * [`FlatPath`] / [`FlatTree`] — the one representation of each graph
//!   class: parallel primitive arrays on a [`MemoryBacking`], built
//!   incrementally by [`FlatPathBuilder`] / [`FlatTreeBuilder`];
//! * [`PathGraph`] — linear task graphs (pipelines, iterative strip
//!   computations), the RAM instantiation `FlatPath<RamBacking>`,
//! * [`Tree`] — tree task graphs (divide-and-conquer computations), the
//!   RAM instantiation `FlatTree<RamBacking>`,
//! * [`ChainView`] / [`TreeView`] — the read access every solver is
//!   generic over, and [`Rooted`], the one rooted traversal of a tree,
//! * [`CutSet`] — sets of edges removed by a partition, with component
//!   extraction and cut/bottleneck weights,
//! * [`Contraction`] — lumping components into super-nodes (used between
//!   the bottleneck- and processor-minimization phases), read as a tree,
//! * [`ProcessGraph`] and [`supergraph`] — general process graphs and their
//!   linear super-graph approximation (Section 3 of the paper),
//! * [`spanning`] — the tree super-graph approximation the paper's
//!   conclusion proposes for general systems,
//! * [`generators`] — reproducible random workloads used by tests and the
//!   benchmark harness.
//!
//! Heap arrays ([`RamBacking`]) live here; `tgp-store` adds mmap-backed
//! disk arrays behind the same [`MemoryBacking`] trait, so one solve
//! serves both.
//!
//! # Conventions
//!
//! All weights are non-negative integers wrapped in the [`Weight`] newtype.
//! Node and edge indices are wrapped in [`NodeId`] and [`EdgeId`]. In a
//! [`PathGraph`] with `n` nodes, edge `i` connects nodes `i` and `i + 1`
//! (`0 <= i < n - 1`), matching the paper's `e_i = (v_i, v_{i+1})`.
//!
//! # Example
//!
//! ```
//! use tgp_graph::{ChainView, PathGraph, Weight};
//!
//! # fn main() -> Result<(), tgp_graph::GraphError> {
//! let chain = PathGraph::from_weights(
//!     vec![Weight::new(3), Weight::new(1), Weight::new(4)],
//!     vec![Weight::new(10), Weight::new(20)],
//! )?;
//! assert_eq!(chain.len(), 3);
//! assert_eq!(chain.total_weight(), Weight::new(8));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backing;
mod contraction;
mod cut;
pub mod dot;
mod error;
mod flat;
pub mod generators;
mod ids;
pub mod json;
mod path;
mod process;
pub mod spanning;
pub mod supergraph;
mod tree;
mod union_find;
mod view;
mod weight;

pub use backing::{Array, BackingKind, MemoryBacking, Pod, RamBacking, RamVec};
pub use contraction::{contract, Contraction};
pub use cut::{Components, CutSet, Segment};
pub use error::GraphError;
pub use flat::{BuildError, FlatPath, FlatPathBuilder, FlatTree, FlatTreeBuilder};
pub use ids::{EdgeId, NodeId};
pub use path::{check_chain, PathGraph};
pub use process::{ProcessEdge, ProcessGraph};
pub use tree::{check_tree, Tree, TreeEdge};
pub use union_find::UnionFind32;
pub use view::{ChainView, Rooted, TreeView};
pub use weight::{check_weight_totals, Weight};
