//! Flat graphs inside the one request type.
//!
//! [`GraphInput`] holds every chain and tree in `tgp-graph`'s flat
//! arrays, RAM- or disk-backed, whichever parser built them. Every chain
//! and tree solver writes its solve once, generic over
//! `ChainView`/`TreeView`, inside [`on_chain!`] or [`on_tree!`], which
//! expand it once per backing, with no dynamic dispatch inside a solve.
//! Responses and canonical keys are therefore byte-identical across RAM
//! and disk graphs, and a cache entry produced from one serves both.

use tgp_graph::{BackingKind, FlatPath, FlatTree, MemoryBacking, RamBacking};
use tgp_store::DiskBacking;

use crate::request::GraphInput;

/// Binds `$g` to the chain inside a [`GraphInput`] — RAM or disk — and
/// evaluates `$body` for it. Panics on a tree or process graph: parsers
/// only build the graph kind a solver declares.
macro_rules! on_chain {
    ($graph:expr, |$g:ident| $body:expr) => {
        match $graph {
            $crate::GraphInput::ChainRam($g) => $body,
            $crate::GraphInput::ChainDisk($g) => $body,
            other => panic!("solver expected a chain, request holds a {}", other.kind()),
        }
    };
}

/// As [`on_chain!`], for the tree inside a [`GraphInput`].
macro_rules! on_tree {
    ($graph:expr, |$g:ident| $body:expr) => {
        match $graph {
            $crate::GraphInput::TreeRam($g) => $body,
            $crate::GraphInput::TreeDisk($g) => $body,
            other => panic!("solver expected a tree, request holds a {}", other.kind()),
        }
    };
}

pub(crate) use {on_chain, on_tree};

/// Wraps a finished builder product into the [`GraphInput`] variant for
/// its backing.
pub(crate) trait FromBuilt<B: MemoryBacking>: Sized {
    fn from_path(path: FlatPath<B>) -> Self;
    fn from_tree(tree: FlatTree<B>) -> Self;
}

impl FromBuilt<RamBacking> for GraphInput {
    fn from_path(path: FlatPath<RamBacking>) -> Self {
        GraphInput::ChainRam(path)
    }
    fn from_tree(tree: FlatTree<RamBacking>) -> Self {
        GraphInput::TreeRam(tree)
    }
}

impl FromBuilt<DiskBacking> for GraphInput {
    fn from_path(path: FlatPath<DiskBacking>) -> Self {
        GraphInput::ChainDisk(path)
    }
    fn from_tree(tree: FlatTree<DiskBacking>) -> Self {
        GraphInput::TreeDisk(tree)
    }
}

impl GraphInput {
    /// Which medium holds the graph: disk for the mmap-backed flat
    /// variants, RAM for the rest.
    pub fn backing_kind(&self) -> BackingKind {
        match self {
            GraphInput::ChainDisk(_) | GraphInput::TreeDisk(_) => BackingKind::Disk,
            _ => BackingKind::Ram,
        }
    }

    /// Bytes of process RAM the graph's flat arrays pin: their size when
    /// RAM-backed, 0 when disk-backed. The process graph reports 0, as
    /// the `tgp_graph_resident_bytes` gauge this feeds counts flat arrays
    /// only.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            GraphInput::ChainRam(g) => g.resident_bytes(),
            GraphInput::ChainDisk(g) => g.resident_bytes(),
            GraphInput::TreeRam(g) => g.resident_bytes(),
            GraphInput::TreeDisk(g) => g.resident_bytes(),
            GraphInput::Process(_) => 0,
        }
    }
}
