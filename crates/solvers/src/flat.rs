//! The flat-substrate solve path: [`FlatRequest`] is the counterpart of
//! [`crate::Request`] for graphs living in `tgp-store`'s flat arrays
//! (RAM- or disk-backed), covering five objectives: `bandwidth`,
//! `bottleneck`, `lexicographic`, `procmin` and `nicol`.
//!
//! Responses and canonical cache keys are byte-identical to the legacy
//! pointer-graph path: the rendering helpers are shared with
//! `objectives.rs`, and [`FlatRequest::canonical_key`] replays the exact
//! [`KeyBuilder`] sequence of `Solver::canonical_key`, so a cache entry
//! produced by one path is served verbatim by the other.

use tgp_baselines::nicol::nicol_bandwidth_cut;
use tgp_core::bandwidth::{min_bandwidth_cut_lexicographic, min_bandwidth_cut_lexicographic_warm};
use tgp_core::bottleneck::min_bottleneck_cut;
use tgp_core::budget::Budget;
use tgp_core::pipeline::partition_chain_budgeted;
use tgp_core::procmin::proc_min;
use tgp_graph::{ChainView, TreeView, Weight};
use tgp_store::{BackingKind, DiskBacking, FlatPath, FlatTree, RamBacking};

use crate::error::SolveError;
use crate::key::KeyBuilder;
use crate::objectives::{
    render_bandwidth, render_bottleneck, render_lexicographic, render_nicol, render_procmin,
};
use crate::request::{GraphKind, Params, Response};

/// A flat graph on either backing. The four concrete variants keep the
/// solver loops monomorphized — no dynamic dispatch inside a solve.
pub enum FlatGraph {
    /// A chain in RAM-backed flat arrays.
    ChainRam(FlatPath<RamBacking>),
    /// A chain in disk-backed (mmap) flat arrays.
    ChainDisk(FlatPath<DiskBacking>),
    /// A tree in RAM-backed flat arrays.
    TreeRam(FlatTree<RamBacking>),
    /// A tree in disk-backed (mmap) flat arrays.
    TreeDisk(FlatTree<DiskBacking>),
}

impl std::fmt::Debug for FlatGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlatGraph::{:?}/{}",
            self.graph_kind(),
            self.backing_kind().as_str()
        )
    }
}

impl FlatGraph {
    /// Which graph class this is.
    pub fn graph_kind(&self) -> GraphKind {
        match self {
            FlatGraph::ChainRam(_) | FlatGraph::ChainDisk(_) => GraphKind::Chain,
            FlatGraph::TreeRam(_) | FlatGraph::TreeDisk(_) => GraphKind::Tree,
        }
    }

    /// Which medium holds the graph.
    pub fn backing_kind(&self) -> BackingKind {
        match self {
            FlatGraph::ChainRam(g) => g.backing_kind(),
            FlatGraph::ChainDisk(g) => g.backing_kind(),
            FlatGraph::TreeRam(g) => g.backing_kind(),
            FlatGraph::TreeDisk(g) => g.backing_kind(),
        }
    }

    /// Bytes of process RAM the graph pins (0 when disk-backed).
    pub fn resident_bytes(&self) -> u64 {
        match self {
            FlatGraph::ChainRam(g) => g.resident_bytes(),
            FlatGraph::ChainDisk(g) => g.resident_bytes(),
            FlatGraph::TreeRam(g) => g.resident_bytes(),
            FlatGraph::TreeDisk(g) => g.resident_bytes(),
        }
    }

    /// Logical size of the graph's arrays in bytes.
    pub fn byte_len(&self) -> u64 {
        match self {
            FlatGraph::ChainRam(g) => g.byte_len(),
            FlatGraph::ChainDisk(g) => g.byte_len(),
            FlatGraph::TreeRam(g) => g.byte_len(),
            FlatGraph::TreeDisk(g) => g.byte_len(),
        }
    }

    /// Nodes plus edges — same measure as `GraphInput::work_units`.
    pub fn work_units(&self) -> u64 {
        match self {
            FlatGraph::ChainRam(g) => (g.len() + g.edge_count()) as u64,
            FlatGraph::ChainDisk(g) => (g.len() + g.edge_count()) as u64,
            FlatGraph::TreeRam(g) => (TreeView::len(g) + TreeView::edge_count(g)) as u64,
            FlatGraph::TreeDisk(g) => (TreeView::len(g) + TreeView::edge_count(g)) as u64,
        }
    }

    /// Writes the graph's content into a canonical key — the exact byte
    /// sequence `GraphInput::write_key` produces for the same graph.
    fn write_key(&self, key: &mut KeyBuilder) {
        fn chain_key<B: tgp_store::MemoryBacking>(g: &FlatPath<B>, key: &mut KeyBuilder) {
            key.write(b"/chain");
            key.write_u64(g.node_w().len() as u64);
            for &w in g.node_w() {
                key.write_u64(w);
            }
            for &w in g.edge_w() {
                key.write_u64(w);
            }
        }
        fn tree_key<B: tgp_store::MemoryBacking>(g: &FlatTree<B>, key: &mut KeyBuilder) {
            key.write(b"/tree");
            key.write_u64(g.node_w().len() as u64);
            for &w in g.node_w() {
                key.write_u64(w);
            }
            for i in 0..g.edge_w().len() {
                let (a, b) = g.endpoints_raw(i);
                key.write_u64(a as u64);
                key.write_u64(b as u64);
                key.write_u64(g.edge_w()[i]);
            }
        }
        match self {
            FlatGraph::ChainRam(g) => chain_key(g, key),
            FlatGraph::ChainDisk(g) => chain_key(g, key),
            FlatGraph::TreeRam(g) => tree_key(g, key),
            FlatGraph::TreeDisk(g) => tree_key(g, key),
        }
    }
}

/// The objectives the flat path covers. Other objectives fall back to
/// the legacy [`crate::Registry`] dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatObjective {
    /// Minimum-bandwidth chain partition (§2.3).
    Bandwidth,
    /// Minimum-bottleneck tree cut (Algorithm 2.1).
    Bottleneck,
    /// Lexicographic (bottleneck, bandwidth) chain cut (§3).
    Lexicographic,
    /// Minimum-processor tree partition (Algorithm 2.2).
    Procmin,
    /// The Nicol & O'Hallaron `O(n log n)` chain bandwidth baseline.
    Nicol,
}

impl FlatObjective {
    /// The registry name of the objective.
    pub fn name(self) -> &'static str {
        match self {
            FlatObjective::Bandwidth => "bandwidth",
            FlatObjective::Bottleneck => "bottleneck",
            FlatObjective::Lexicographic => "lexicographic",
            FlatObjective::Procmin => "procmin",
            FlatObjective::Nicol => "nicol",
        }
    }

    /// Resolves a request's objective string, if the flat path covers it.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "bandwidth" => Some(FlatObjective::Bandwidth),
            "bottleneck" => Some(FlatObjective::Bottleneck),
            "lexicographic" => Some(FlatObjective::Lexicographic),
            "procmin" => Some(FlatObjective::Procmin),
            "nicol" => Some(FlatObjective::Nicol),
            _ => None,
        }
    }

    /// The graph class the objective requires.
    pub fn graph_kind(self) -> GraphKind {
        match self {
            FlatObjective::Bandwidth | FlatObjective::Lexicographic | FlatObjective::Nicol => {
                GraphKind::Chain
            }
            FlatObjective::Bottleneck | FlatObjective::Procmin => GraphKind::Tree,
        }
    }
}

/// A validated flat-substrate request: objective, bound, and a graph
/// already resident in flat arrays.
#[derive(Debug)]
pub struct FlatRequest {
    /// The objective to run.
    pub objective: FlatObjective,
    /// The load bound `K`.
    pub bound: u64,
    /// The graph, on whichever backing ingest chose.
    pub graph: FlatGraph,
}

impl FlatRequest {
    /// The canonical cache key — byte-identical to what
    /// `Solver::canonical_key` produces for the equivalent legacy
    /// request, so flat and legacy solves share cache entries.
    pub fn canonical_key(&self) -> Vec<u8> {
        let mut key = KeyBuilder::default();
        key.write_str(self.objective.name());
        Params {
            bound: Some(self.bound),
            ..Params::default()
        }
        .write_key(&mut key);
        self.graph.write_key(&mut key);
        key.finish()
    }

    /// Same admission measure as `Solver::cost_estimate` for these
    /// objectives (all linear: nodes + edges).
    pub fn cost_estimate(&self) -> u64 {
        self.graph.work_units()
    }

    /// The session warm-memory key — objective + params *without* the
    /// graph, byte-identical to the key the legacy session path builds
    /// from `Solver::name` + `Params::write_key`, so a warm window
    /// certified by one path is honored by the other.
    pub fn warm_key(&self) -> Vec<u8> {
        let mut key = KeyBuilder::default();
        key.write_str(self.objective.name());
        Params {
            bound: Some(self.bound),
            ..Params::default()
        }
        .write_key(&mut key);
        key.finish()
    }

    /// Runs the objective; the response is byte-identical to the legacy
    /// solver's on the same instance.
    ///
    /// # Errors
    ///
    /// The same [`SolveError`]s the legacy solver reports (infeasible
    /// bounds, etc.).
    pub fn run(&self) -> Result<Response, SolveError> {
        self.run_budgeted(&Budget::unlimited())
    }

    /// Cost-sliced [`FlatRequest::run`] — same slicing discipline as
    /// `Solver::run_budgeted` on the legacy path.
    ///
    /// # Errors
    ///
    /// As [`FlatRequest::run`], plus deadline/cancel surfacing as
    /// [`SolveError::DeadlineExceeded`] / [`SolveError::Cancelled`].
    pub fn run_budgeted(&self, budget: &Budget) -> Result<Response, SolveError> {
        match self.objective {
            // These charge the budget inside their own loops.
            FlatObjective::Bandwidth | FlatObjective::Lexicographic => {}
            // No sliced loop; mirror the legacy default: admission-check,
            // charge the whole estimate, then run.
            FlatObjective::Bottleneck | FlatObjective::Procmin | FlatObjective::Nicol => {
                budget.check_now().map_err(SolveError::from_exceeded)?;
                budget
                    .charge(self.cost_estimate())
                    .map_err(SolveError::from_exceeded)?;
            }
        }
        let bound = Weight::new(self.bound);
        match &self.graph {
            FlatGraph::ChainRam(g) => solve_chain(self.objective, g, bound, budget),
            FlatGraph::ChainDisk(g) => solve_chain(self.objective, g, bound, budget),
            FlatGraph::TreeRam(g) => solve_tree(self.objective, g, bound),
            FlatGraph::TreeDisk(g) => solve_tree(self.objective, g, bound),
        }
    }

    /// Warm-started run with a `[hint_lo, hint_hi]` bottleneck window —
    /// same certification contract as `Solver::run_warm`. `None` means
    /// fall back to the cold path.
    pub fn run_warm(&self, hint_lo: u64, hint_hi: u64) -> Option<Result<Response, SolveError>> {
        let bound = Weight::new(self.bound);
        let (lo, hi) = (Weight::new(hint_lo), Weight::new(hint_hi));
        match (self.objective, &self.graph) {
            (FlatObjective::Lexicographic, FlatGraph::ChainRam(g)) => {
                run_lex_warm(g, bound, lo, hi)
            }
            (FlatObjective::Lexicographic, FlatGraph::ChainDisk(g)) => {
                run_lex_warm(g, bound, lo, hi)
            }
            _ => None,
        }
    }
}

/// One arm per chain objective, monomorphized per backing.
fn solve_chain<C: ChainView>(
    objective: FlatObjective,
    chain: &C,
    bound: Weight,
    budget: &Budget,
) -> Result<Response, SolveError> {
    match objective {
        FlatObjective::Bandwidth => {
            let part = partition_chain_budgeted(chain, bound, budget)
                .map_err(SolveError::from_partition)?;
            Ok(render_bandwidth(bound, &part))
        }
        FlatObjective::Lexicographic => {
            let cut = min_bandwidth_cut_lexicographic(chain, bound, budget)
                .map_err(SolveError::from_partition)?;
            render_lexicographic(chain, bound, &cut)
        }
        FlatObjective::Nicol => {
            let cut = nicol_bandwidth_cut(chain, bound).map_err(SolveError::infeasible)?;
            render_nicol(chain, bound, &cut)
        }
        tree_objective => mismatch(tree_objective, GraphKind::Chain),
    }
}

/// One arm per tree objective, monomorphized per backing.
fn solve_tree<T: TreeView>(
    objective: FlatObjective,
    tree: &T,
    bound: Weight,
) -> Result<Response, SolveError> {
    match objective {
        FlatObjective::Bottleneck => {
            let r = min_bottleneck_cut(tree, bound).map_err(SolveError::infeasible)?;
            // Cutting k edges of a tree always leaves k + 1 components,
            // which is exactly what the legacy path's
            // components().count() reports.
            let components = r.cut.len() + 1;
            Ok(render_bottleneck(bound, &r.cut, r.bottleneck, components))
        }
        FlatObjective::Procmin => {
            let r = proc_min(tree, bound).map_err(SolveError::infeasible)?;
            Ok(render_procmin(bound, &r))
        }
        chain_objective => mismatch(chain_objective, GraphKind::Tree),
    }
}

/// Ingest only builds requests whose graph kind matches the objective.
fn mismatch(objective: FlatObjective, held: GraphKind) -> ! {
    panic!(
        "flat request mismatch: {} expects a {}, holds a {held}",
        objective.name(),
        objective.graph_kind(),
    )
}

fn run_lex_warm<C: ChainView>(
    chain: &C,
    bound: Weight,
    lo: Weight,
    hi: Weight,
) -> Option<Result<Response, SolveError>> {
    let cut = min_bandwidth_cut_lexicographic_warm(chain, bound, lo, hi).ok()??;
    Some(render_lexicographic(chain, bound, &cut))
}
