//! The typed request/response pair every solver shares, plus the strict
//! field-level parser that turns a raw JSON object into a [`Request`].
//!
//! Parsing is *strict*: a request may only carry `objective`, `graph`
//! and the parameters its solver declares — anything else is rejected
//! with [`SolveError::UnknownField`]. This is what lets the CLI and the
//! HTTP service guarantee identical behaviour: there is exactly one
//! schema per objective and it lives here, not in each front end.
//!
//! The graph parses straight into `tgp-graph`'s flat arrays (a process
//! graph excepted), on the backing the caller names, with the field
//! checks and error messages of `PathGraph`/`Tree`'s `from_json`.
//! [`crate::ingest_flat`] is the second parser of the same type: it
//! streams the bodies of chain and tree objectives whose only parameter
//! is `bound` into the same arrays and declines everything else, so
//! error bodies always come from this one.

use std::error::Error;
use std::fmt;

use tgp_core::budget::Budget;
use tgp_graph::json::{self, FromJson, JsonError, Text, Value};
use tgp_graph::{
    BuildError, ChainView, EdgeId, FlatPath, FlatPathBuilder, FlatTree, FlatTreeBuilder,
    MemoryBacking, NodeId, ProcessGraph, RamBacking, TreeView,
};
use tgp_store::DiskBacking;

use crate::error::SolveError;
use crate::flat::{on_chain, on_tree, FromBuilt};
use crate::ingest::{IngestBacking, BLOCK};
use crate::key::KeyBuilder;
use crate::registry::Solver;

/// The graph class a solver accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// A linear task graph: `{"node_weights": [...], "edge_weights": [...]}`.
    Chain,
    /// A tree task graph: `{"node_weights": [...], "edges": [{"a","b","weight"}, ...]}`.
    Tree,
    /// A general process graph (same encoding as a tree, cycles allowed).
    Process,
}

impl GraphKind {
    /// The kind's lowercase name, as used in error messages and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            GraphKind::Chain => "chain",
            GraphKind::Tree => "tree",
            GraphKind::Process => "process",
        }
    }
}

impl fmt::Display for GraphKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A validated input graph. Chains and trees live in `tgp-graph`'s flat
/// arrays, RAM- or disk-backed, whichever parser built them; a general
/// process graph (`approx`) is the one pointer graph.
#[derive(Debug)]
pub enum GraphInput {
    /// A general process graph.
    Process(ProcessGraph),
    /// A chain in RAM-backed flat arrays.
    ChainRam(FlatPath<RamBacking>),
    /// A chain in disk-backed (mmap) flat arrays.
    ChainDisk(FlatPath<DiskBacking>),
    /// A tree in RAM-backed flat arrays.
    TreeRam(FlatTree<RamBacking>),
    /// A tree in disk-backed (mmap) flat arrays.
    TreeDisk(FlatTree<DiskBacking>),
}

impl GraphInput {
    /// The process graph, for solvers registered with
    /// [`GraphKind::Process`].
    ///
    /// # Panics
    ///
    /// If the request holds a chain or tree — parsers only build the
    /// graph kind a solver declares, so a panic here is a registry bug,
    /// not bad input.
    pub fn process(&self) -> &ProcessGraph {
        match self {
            GraphInput::Process(g) => g,
            other => panic!("solver expected a process graph, got a {}", other.kind()),
        }
    }

    /// Which graph class this input holds.
    pub fn kind(&self) -> GraphKind {
        match self {
            GraphInput::ChainRam(_) | GraphInput::ChainDisk(_) => GraphKind::Chain,
            GraphInput::TreeRam(_) | GraphInput::TreeDisk(_) => GraphKind::Tree,
            GraphInput::Process(_) => GraphKind::Process,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.size().0
    }

    /// Nodes and edges.
    fn size(&self) -> (usize, usize) {
        match (self, self.kind()) {
            (GraphInput::Process(g), _) => (g.len(), g.edge_count()),
            (chain, GraphKind::Chain) => on_chain!(chain, |c| (c.len(), c.edge_count())),
            (tree, _) => on_tree!(tree, |t| (TreeView::len(t), TreeView::edge_count(t))),
        }
    }

    /// A rough size-of-instance measure — nodes plus edges — used as the
    /// default [`crate::Solver::cost_estimate`]. Solvers whose running
    /// time is super-linear in the instance override the estimate
    /// instead of this accessor.
    pub fn work_units(&self) -> u64 {
        let (nodes, edges) = self.size();
        (nodes + edges) as u64
    }

    /// Writes the graph's validated content into a canonical key. RAM
    /// and disk arrays holding the same graph write the same bytes, so
    /// both backings share cache entries.
    pub fn write_key(&self, key: &mut KeyBuilder) {
        match (self, self.kind()) {
            (GraphInput::Process(g), _) => {
                key.write(PROCESS_TAG);
                key.write_u64(g.len() as u64);
                for w in g.node_weights() {
                    key.write_u64(w.get());
                }
                for e in g.edges() {
                    key.write_u64(e.a.index() as u64);
                    key.write_u64(e.b.index() as u64);
                    key.write_u64(e.weight.get());
                }
            }
            (chain, GraphKind::Chain) => on_chain!(chain, |c| write_chain_key(c, key)),
            (tree, _) => on_tree!(tree, |t| write_tree_key(t, key)),
        }
    }

    /// The length of what [`GraphInput::write_key`] writes: a tag, then
    /// one tagged `u64` for the node count, one per node weight and one
    /// per edge field.
    pub fn key_len(&self) -> usize {
        let (nodes, edges) = self.size();
        let (tag, edge_fields) = match self.kind() {
            GraphKind::Process => (PROCESS_TAG, 3 * edges),
            GraphKind::Chain => (CHAIN_TAG, edges),
            GraphKind::Tree => (TREE_TAG, 3 * edges),
        };
        tag.len() + KeyBuilder::U64_LEN * (1 + nodes + edge_fields)
    }
}

/// The tags that open a graph's canonical key, one per graph class.
const PROCESS_TAG: &[u8] = b"/process";
const CHAIN_TAG: &[u8] = b"/chain";
const TREE_TAG: &[u8] = b"/tree";

fn write_chain_key<C: ChainView>(chain: &C, key: &mut KeyBuilder) {
    key.write(CHAIN_TAG);
    key.write_u64(chain.len() as u64);
    for i in 0..chain.len() {
        key.write_u64(chain.node_weight(NodeId::new(i)).get());
    }
    for e in 0..chain.edge_count() {
        key.write_u64(chain.edge_weight(EdgeId::new(e)).get());
    }
}

fn write_tree_key<T: TreeView>(tree: &T, key: &mut KeyBuilder) {
    key.write(TREE_TAG);
    key.write_u64(tree.len() as u64);
    for i in 0..tree.len() {
        key.write_u64(tree.node_weight(NodeId::new(i)).get());
    }
    for e in 0..tree.edge_count() {
        let edge = tree.edge(EdgeId::new(e));
        key.write_u64(edge.a.index() as u64);
        key.write_u64(edge.b.index() as u64);
        key.write_u64(edge.weight.get());
    }
}

/// The JSON type a declared parameter must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A non-negative integer.
    U64,
    /// A non-empty array of non-negative integers.
    U64List,
    /// A string.
    Str,
}

/// One parameter a solver declares: its field name, type, and whether
/// the request must carry it.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// The JSON field name.
    pub name: &'static str,
    /// The value type.
    pub kind: ParamKind,
    /// Whether omission is an error.
    pub required: bool,
}

impl ParamSpec {
    /// A required parameter.
    pub const fn required(name: &'static str, kind: ParamKind) -> Self {
        ParamSpec {
            name,
            kind,
            required: true,
        }
    }

    /// An optional parameter.
    pub const fn optional(name: &'static str, kind: ParamKind) -> Self {
        ParamSpec {
            name,
            kind,
            required: false,
        }
    }
}

/// The scalar parameters of a validated request — the union of every
/// solver's declared parameters, each present only when declared and
/// supplied.
#[derive(Debug, Clone, Default)]
pub struct Params {
    /// Load bound `K` (most objectives).
    pub bound: Option<u64>,
    /// Processor count `m` (chains-on-chains objectives).
    pub processors: Option<u64>,
    /// Maximum satellite count (`host-satellite`).
    pub satellites: Option<u64>,
    /// Host/root vertex (`host-satellite`).
    pub root: Option<u64>,
    /// Sub-algorithm selector (`coc`: `"bokhari"` or `"probe"`).
    pub algorithm: Option<String>,
    /// Processor speeds (`hetero`).
    pub speeds: Option<Vec<u64>>,
}

impl Params {
    /// Writes every present parameter into a canonical key, in a fixed
    /// order with presence tags, so two requests differing in any
    /// parameter (or in which parameters they carry) never share a key.
    pub fn write_key(&self, key: &mut KeyBuilder) {
        for opt in [self.bound, self.processors, self.satellites, self.root] {
            match opt {
                Some(v) => {
                    key.write_u64(1);
                    key.write_u64(v);
                }
                None => key.write_u64(0),
            }
        }
        match &self.algorithm {
            Some(a) => {
                key.write_u64(1);
                key.write_str(a);
            }
            None => key.write_u64(0),
        }
        match &self.speeds {
            Some(s) => {
                key.write_u64(1 + s.len() as u64);
                for &v in s {
                    key.write_u64(v);
                }
            }
            None => key.write_u64(0),
        }
    }

    /// The length of what [`Params::write_key`] writes.
    pub fn key_len(&self) -> usize {
        let u64_len = KeyBuilder::U64_LEN;
        let present = |present: bool| if present { 2 * u64_len } else { u64_len };
        let scalars: usize = [self.bound, self.processors, self.satellites, self.root]
            .iter()
            .map(|opt| present(opt.is_some()))
            .sum();
        let algorithm = self
            .algorithm
            .as_deref()
            .map_or(u64_len, |a| u64_len + KeyBuilder::str_len(a));
        let speeds = self
            .speeds
            .as_ref()
            .map_or(u64_len, |s| u64_len * (1 + s.len()));
        scalars + algorithm + speeds
    }
}

/// A fully validated request: the solver it names, the typed graph and
/// the solver's parameters. Built only by the two parsers — the
/// JSON-tree one behind [`crate::Registry::dispatch`] and the streaming
/// [`crate::ingest_flat`] — so holding one means the graph kind and
/// every declared parameter already check out.
#[derive(Debug)]
pub struct Request {
    /// The solver the request's `"objective"` names.
    pub objective: &'static dyn Solver,
    /// The validated input graph (variant matches the solver's kind).
    pub graph: GraphInput,
    /// The validated scalar parameters.
    pub params: Params,
}

impl Request {
    /// The canonical cache key of this request: objective name,
    /// parameters, then graph content — independent of the original
    /// JSON formatting, and of which parser built the request. Two
    /// requests with equal keys are guaranteed to produce equal
    /// responses, so a cache may serve one for the other.
    pub fn canonical_key(&self) -> Vec<u8> {
        let mut key = KeyBuilder::default();
        key.write_str(self.objective.name());
        self.params.write_key(&mut key);
        self.graph.write_key(&mut key);
        key.finish()
    }

    /// The length of [`Request::canonical_key`], computed without
    /// building the key, so a cache can refuse a key too large to hold
    /// before paying for it.
    pub fn canonical_key_len(&self) -> usize {
        KeyBuilder::str_len(self.objective.name()) + self.params.key_len() + self.graph.key_len()
    }

    /// The named solver's [`Solver::cost_estimate`] for this request.
    pub fn cost_estimate(&self) -> u64 {
        self.objective.cost_estimate(self)
    }

    /// The session delta-baseline key: objective and parameters
    /// *without* the graph, so it keeps pointing at the previous solve
    /// across edits.
    pub fn baseline_key(&self) -> Vec<u8> {
        let mut key = KeyBuilder::default();
        key.write_str(self.objective.name());
        self.params.write_key(&mut key);
        key.finish()
    }

    /// [`Request::run_budgeted`] with no deadline.
    ///
    /// # Errors
    ///
    /// The named solver's own failure.
    pub fn run(&self) -> Result<Response, SolveError> {
        self.run_budgeted(&Budget::unlimited())
    }

    /// Runs the named solver under `budget`: refuses the request if its
    /// deadline has already passed, then [`Solver::solve`]s it.
    ///
    /// # Errors
    ///
    /// [`SolveError::DeadlineExceeded`] when the budget runs out, else
    /// the named solver's own failure.
    pub fn run_budgeted(&self, budget: &Budget) -> Result<Response, SolveError> {
        self.objective.run_budgeted(self, budget)
    }
}

/// A solver's result: the response body both front ends emit, as the
/// compact JSON text the solver wrote with [`json::Writer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The response object's text, its fields in the solver's fixed
    /// order, so it is byte-stable. Named `value`, though it is text,
    /// only for the benchmark's frozen replay
    /// (`perfbench/src/replay.rs`), which renders it with
    /// `response.value.to_string()`: `Text`'s `Display` writes it as it
    /// is.
    pub value: Text,
}

impl Response {
    /// Wraps a written response.
    pub fn new(value: Text) -> Self {
        Response { value }
    }
}

/// Strictly parses `value` against `objective`'s declared schema.
///
/// Checks, in order: the request is an object; it carries no field
/// outside `objective`, `graph` and `params`; every required parameter
/// is present with the right type; the graph parses as the solver's
/// kind, into arrays on `backing`.
pub(crate) fn parse_request(
    objective: &'static dyn Solver,
    value: &Value,
    backing: &IngestBacking,
) -> Result<Request, SolveError> {
    let name = objective.name();
    let params = objective.params();
    let fields = value.as_object().ok_or(SolveError::MissingField {
        field: "graph",
        expected: "a request must be a JSON object",
    })?;
    for (field, _) in fields {
        let known =
            field == "objective" || field == "graph" || params.iter().any(|p| p.name == field);
        if !known {
            return Err(SolveError::UnknownField {
                field: field.clone(),
                objective: name,
            });
        }
    }
    if let Some(claimed) = value.get("objective") {
        let claimed = claimed.as_str().ok_or(SolveError::MissingField {
            field: "objective",
            expected: "a string",
        })?;
        if claimed != name {
            return Err(SolveError::InvalidField {
                field: "objective".into(),
                message: format!("request names {claimed:?} but was parsed by {name:?}"),
            });
        }
    }

    let mut parsed = Params::default();
    for spec in params {
        let Some(raw) = value.get(spec.name) else {
            if spec.required {
                return Err(SolveError::MissingField {
                    field: spec.name,
                    expected: expected_of(spec.kind),
                });
            }
            continue;
        };
        match spec.kind {
            ParamKind::U64 => {
                let v = raw.as_u64().ok_or(SolveError::MissingField {
                    field: spec.name,
                    expected: expected_of(spec.kind),
                })?;
                let slot = match spec.name {
                    "bound" => &mut parsed.bound,
                    "processors" => &mut parsed.processors,
                    "satellites" => &mut parsed.satellites,
                    "root" => &mut parsed.root,
                    other => unreachable!("undeclared u64 parameter {other}"),
                };
                *slot = Some(v);
            }
            ParamKind::U64List => {
                let list = raw
                    .as_array()
                    .ok_or(SolveError::MissingField {
                        field: spec.name,
                        expected: expected_of(spec.kind),
                    })?
                    .iter()
                    .map(|v| {
                        v.as_u64().ok_or(SolveError::InvalidField {
                            field: spec.name.into(),
                            message: "every element must be a non-negative integer".into(),
                        })
                    })
                    .collect::<Result<Vec<u64>, _>>()?;
                debug_assert_eq!(spec.name, "speeds", "the only list parameter");
                parsed.speeds = Some(list);
            }
            ParamKind::Str => {
                let s = raw.as_str().ok_or(SolveError::MissingField {
                    field: spec.name,
                    expected: expected_of(spec.kind),
                })?;
                debug_assert_eq!(spec.name, "algorithm", "the only string parameter");
                parsed.algorithm = Some(s.to_string());
            }
        }
    }

    let graph_value = value.get("graph").ok_or(SolveError::MissingField {
        field: "graph",
        expected: "a graph object",
    })?;
    let graph = parse_graph(name, objective.graph_kind(), graph_value, backing)?;
    Ok(Request {
        objective,
        graph,
        params: parsed,
    })
}

fn expected_of(kind: ParamKind) -> &'static str {
    match kind {
        ParamKind::U64 => "a non-negative integer",
        ParamKind::U64List => "an array of non-negative integers",
        ParamKind::Str => "a string",
    }
}

/// Parses the `"graph"` object as `kind`: a chain or tree straight into
/// flat arrays on `backing` with the flat builders, a process
/// graph as a pointer graph. Field errors come from the same
/// `tgp_graph::json` helpers, in the same order, as `PathGraph` and
/// `Tree`'s `from_json`, which build through the same builders and
/// return the same [`GraphError`](tgp_graph::GraphError)s, so every
/// error message is theirs.
fn parse_graph(
    objective: &'static str,
    kind: GraphKind,
    value: &Value,
    backing: &IngestBacking,
) -> Result<GraphInput, SolveError> {
    let built = match (kind, backing) {
        (GraphKind::Process, _) => ProcessGraph::from_json(value)
            .map(GraphInput::Process)
            .map_err(Into::into),
        (_, IngestBacking::Ram) => build_graph(kind, value, &RamBacking),
        // A disk backing that fails (spill dir unwritable, disk full)
        // falls back to RAM arrays, where an invalid graph fails again
        // with the same error.
        (_, IngestBacking::Disk { dir }) => build_graph(kind, value, &DiskBacking::new(dir))
            .or_else(|_| build_graph(kind, value, &RamBacking)),
    };
    built.map_err(|e| SolveError::WrongGraphKind {
        objective,
        expected: kind,
        message: e.to_string(),
    })
}

/// Streams a chain's or tree's fields into a builder on `backing`, in
/// blocks of up to [`BLOCK`] elements.
fn build_graph<B>(kind: GraphKind, value: &Value, backing: &B) -> Result<GraphInput, Box<dyn Error>>
where
    B: MemoryBacking + Clone,
    GraphInput: FromBuilt<B>,
{
    let ty = if kind == GraphKind::Chain {
        "PathGraph"
    } else {
        "Tree"
    };
    let invalid = |e: BuildError| JsonError::msg(format!("{ty}: {e}"));
    let nodes = json::array_field(value, "node_weights", ty)?;
    if kind == GraphKind::Chain {
        let mut chain = FlatPathBuilder::new(backing, nodes.len())?;
        weight_blocks(nodes, "node_weights", ty, |block| chain.extend_nodes(block))?;
        let edges = json::array_field(value, "edge_weights", ty)?;
        weight_blocks(edges, "edge_weights", ty, |block| chain.extend_edges(block))?;
        return Ok(GraphInput::from_path(chain.finish().map_err(invalid)?));
    }
    let mut tree = FlatTreeBuilder::new(backing.clone(), nodes.len())?;
    weight_blocks(nodes, "node_weights", ty, |block| tree.extend_nodes(block))?;
    let edges = json::array_field(value, "edges", ty)?;
    let mut block = Vec::with_capacity(edges.len().min(BLOCK));
    for chunk in edges.chunks(BLOCK) {
        block.clear();
        for edge in chunk {
            let (a, b, w) = json::edge_fields(edge)?;
            block.push((a.index(), b.index(), w.get()));
        }
        tree.extend_edges(&block)?;
    }
    Ok(GraphInput::from_tree(tree.finish().map_err(invalid)?))
}

/// Checks each of `items` as element of the weight array `key` and hands
/// them to `append` in blocks of up to [`BLOCK`].
fn weight_blocks(
    items: &[Value],
    key: &str,
    ty: &str,
    mut append: impl FnMut(&[u64]) -> std::io::Result<()>,
) -> Result<(), Box<dyn Error>> {
    let mut block = Vec::with_capacity(items.len().min(BLOCK));
    for (c, chunk) in items.chunks(BLOCK).enumerate() {
        block.clear();
        for (k, item) in chunk.iter().enumerate() {
            block.push(json::weight_item(item, key, ty, c * BLOCK + k)?);
        }
        append(&block)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[ParamSpec] = &[
        ParamSpec::required("bound", ParamKind::U64),
        ParamSpec::optional("algorithm", ParamKind::Str),
    ];

    /// A chain objective declaring `SPEC`, for driving the parser.
    struct Demo;

    impl Solver for Demo {
        fn name(&self) -> &'static str {
            "demo"
        }
        fn graph_kind(&self) -> GraphKind {
            GraphKind::Chain
        }
        fn params(&self) -> &'static [ParamSpec] {
            SPEC
        }
        fn summary(&self) -> &'static str {
            "parser fixture"
        }
        fn solve(&self, _: &Request, _: &Budget) -> Result<Response, SolveError> {
            unreachable!("the fixture is never run")
        }
    }

    fn parse(text: &str) -> Result<Request, SolveError> {
        parse_request(&Demo, &Value::parse(text).unwrap(), &IngestBacking::Ram)
    }

    #[test]
    fn accepts_declared_fields_only() {
        let ok = parse(
            r#"{"objective":"demo","bound":5,
                "graph":{"node_weights":[1,2],"edge_weights":[3]}}"#,
        )
        .unwrap();
        assert_eq!(ok.params.bound, Some(5));
        assert_eq!(on_chain!(&ok.graph, |c| c.len()), 2);

        let err = parse(
            r#"{"objective":"demo","bound":5,"buond":6,
                "graph":{"node_weights":[1],"edge_weights":[]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "unknown_field");
    }

    #[test]
    fn missing_and_mistyped_fields_are_reported() {
        let err = parse(r#"{"graph":{"node_weights":[1],"edge_weights":[]}}"#).unwrap_err();
        assert_eq!(err.code(), "missing_field");
        let err = parse(r#"{"bound":"five","graph":{"node_weights":[1],"edge_weights":[]}}"#)
            .unwrap_err();
        assert_eq!(err.code(), "missing_field");
        let err = parse(r#"{"bound":5}"#).unwrap_err();
        assert_eq!(err.code(), "missing_field");
    }

    #[test]
    fn wrong_graph_kind_is_its_own_code() {
        let err = parse(
            r#"{"bound":5,"graph":{"node_weights":[1,2],
                "edges":[{"a":0,"b":1,"weight":1}]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "wrong_graph_kind");
        assert!(err.to_string().contains("chain"), "{err}");
    }

    #[test]
    fn mismatched_objective_name_is_rejected() {
        let err = parse(
            r#"{"objective":"other","bound":5,
                "graph":{"node_weights":[1],"edge_weights":[]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "invalid_field");
    }

    #[test]
    fn params_key_distinguishes_presence_from_value() {
        let mut with_none = KeyBuilder::default();
        Params::default().write_key(&mut with_none);
        let mut with_zero = KeyBuilder::default();
        Params {
            bound: Some(0),
            ..Params::default()
        }
        .write_key(&mut with_zero);
        assert_ne!(with_none.finish(), with_zero.finish());
    }
}
