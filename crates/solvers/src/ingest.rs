//! Streaming request-body ingest into flat graph arrays.
//!
//! [`ingest_flat`] scans a raw JSON request body byte-by-byte and
//! streams the graph's weights straight into `tgp-store` builders —
//! the document tree (`json::Value`) is never materialized, so a
//! 100-million-element upload costs a few flat arrays (RAM- or
//! disk-backed, chosen by the caller) instead of a heap of boxed JSON
//! nodes several times the body's size.
//!
//! It is the registry's second parser: it produces the same
//! [`Request`] as [`crate::Registry::dispatch`], with the graph in
//! [`crate::GraphInput`]'s flat variants, for the objectives whose
//! solver [accepts streamed graphs](crate::Solver::accepts_streamed_graph)
//! (`bandwidth`, `lexicographic` and `nicol` on chains; `bottleneck` and
//! `procmin` on trees). It is deliberately *conservative*: it
//! understands exactly the shape those objectives accept —
//!
//! ```json
//! {"objective": "...", "bound": N,
//!  "graph": {"node_weights": [...], "edge_weights": [...]}}
//! {"objective": "...", "bound": N,
//!  "graph": {"node_weights": [...], "edges": [{"a":0,"b":1,"weight":2}, ...]}}
//! ```
//!
//! (fields in any order) — and returns `Ok(None)` for anything else:
//! unknown fields, other objectives, string escapes, malformed JSON,
//! graph-validation failures. The caller then falls back to the
//! JSON-tree parser, which produces the canonical error envelope. Ingest
//! therefore never has to replicate error *messages*; success bytes are
//! the same because the request it builds runs the same solver.
//!
//! Work is cost-sliced: one [`Budget`] unit per parsed element, so an
//! expired deadline or a raised cancel flag stops a huge upload
//! mid-parse instead of after it.

use std::path::Path;

use tgp_core::budget::{Budget, Exceeded};
use tgp_store::{
    DiskBacking, FlatPath, FlatPathBuilder, FlatTree, FlatTreeBuilder, MemoryBacking, RamBacking,
};

use crate::error::SolveError;
use crate::registry::{Registry, Solver};
use crate::request::{GraphInput, Params, Request};

/// How the graph arrays should be backed.
#[derive(Debug, Clone)]
pub enum IngestBacking {
    /// Ordinary heap vectors.
    Ram,
    /// Unlinked mmap spill files in the given directory.
    Disk {
        /// Directory for spill files.
        dir: std::path::PathBuf,
    },
}

impl IngestBacking {
    /// Disk backing rooted at `dir`.
    pub fn disk(dir: impl AsRef<Path>) -> Self {
        IngestBacking::Disk {
            dir: dir.as_ref().to_path_buf(),
        }
    }
}

/// Why the streaming parser gave up on a body.
enum Abort {
    /// Not the shape we stream; the caller falls back to the JSON-tree
    /// parser.
    Unsupported,
    /// The budget ran out mid-parse.
    Exceeded(Exceeded),
}

impl From<Exceeded> for Abort {
    fn from(e: Exceeded) -> Self {
        Abort::Exceeded(e)
    }
}

impl From<std::io::Error> for Abort {
    // A backing failure (spill dir unwritable, disk full). The in-RAM
    // JSON-tree path may still succeed, so treat it as a fallback.
    fn from(_: std::io::Error) -> Self {
        Abort::Unsupported
    }
}

type Scan<'a, T> = Result<T, Abort>;

/// Streams `body` into a [`Request`] with a flat graph if it has the
/// exact shape of a request for an objective that accepts streamed
/// graphs.
///
/// Returns `Ok(None)` when the body is anything else — the caller must
/// then parse it through [`crate::Registry::dispatch`], which owns the
/// canonical error behaviour.
///
/// # Errors
///
/// Only budget exhaustion: [`SolveError::DeadlineExceeded`] or
/// [`SolveError::Cancelled`].
pub fn ingest_flat(
    body: &[u8],
    backing: &IngestBacking,
    budget: &Budget,
) -> Result<Option<Request>, SolveError> {
    let result = match backing {
        IngestBacking::Ram => parse_body(body, &RamBacking, budget),
        IngestBacking::Disk { dir } => parse_body(body, &DiskBacking::new(dir), budget),
    };
    match result {
        Ok(request) => Ok(Some(request)),
        Err(Abort::Unsupported) => Ok(None),
        Err(Abort::Exceeded(e)) => Err(SolveError::from_exceeded(e)),
    }
}

fn parse_body<B>(body: &[u8], backing: &B, budget: &Budget) -> Scan<'static, Request>
where
    B: MemoryBacking + Clone,
    GraphInput: FromBuilt<B>,
{
    let mut s = Cursor::new(body, budget);
    s.skip_ws();
    s.expect(b'{')?;
    let mut objective: Option<&'static dyn Solver> = None;
    let mut bound: Option<u64> = None;
    let mut graph: Option<GraphInput> = None;
    if !s.try_consume(b'}') {
        loop {
            let key_range = s.string_range()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            match s.slice(key_range) {
                b"objective" => {
                    if objective.is_some() {
                        return Err(Abort::Unsupported);
                    }
                    let r = s.string_range()?;
                    objective = Some(streamed_solver(s.slice(r)).ok_or(Abort::Unsupported)?);
                }
                b"bound" => {
                    if bound.is_some() {
                        return Err(Abort::Unsupported);
                    }
                    bound = Some(s.number()?);
                }
                b"graph" => {
                    if graph.is_some() {
                        return Err(Abort::Unsupported);
                    }
                    graph = Some(parse_graph(&mut s, backing)?);
                }
                _ => return Err(Abort::Unsupported),
            }
            s.skip_ws();
            if s.try_consume(b',') {
                s.skip_ws();
                continue;
            }
            s.expect(b'}')?;
            break;
        }
    }
    s.skip_ws();
    if !s.at_end() {
        return Err(Abort::Unsupported);
    }
    let (objective, bound, graph) = match (objective, bound, graph) {
        (Some(o), Some(b), Some(g)) => (o, b, g),
        _ => return Err(Abort::Unsupported),
    };
    if graph.kind() != objective.graph_kind() {
        return Err(Abort::Unsupported);
    }
    let request = Request {
        objective,
        graph,
        params: Params {
            bound: Some(bound),
            ..Params::default()
        },
    };
    objective
        .validate(&request)
        .map_err(|_| Abort::Unsupported)?;
    Ok(request)
}

/// The registered solver `name` names, if it accepts streamed graphs.
fn streamed_solver(name: &[u8]) -> Option<&'static dyn Solver> {
    let (_, solver) = Registry::shared().get(std::str::from_utf8(name).ok()?)?;
    debug_assert!(
        !solver.accepts_streamed_graph() || matches!(solver.params(), [p] if p.name == "bound"),
        "{}: a streamed objective takes only `bound`, the one parameter this parser reads",
        solver.name()
    );
    solver.accepts_streamed_graph().then_some(solver)
}

/// Wraps a finished builder product into the right [`GraphInput`]
/// variant for its backing.
trait FromBuilt<B: MemoryBacking>: Sized {
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

/// Parses the `"graph"` object. The cursor sits on its `{`.
fn parse_graph<B>(s: &mut Cursor<'_>, backing: &B) -> Scan<'static, GraphInput>
where
    B: MemoryBacking + Clone,
    GraphInput: FromBuilt<B>,
{
    // The graph's kind is decided by its first "edges" or "edge_weights"
    // key, and "node_weights" may precede it. A cheap structural
    // pre-scan (skip values, read keys) up to that key settles chain vs.
    // tree before any array is parsed, so weights stream into the right
    // builder on the first (and only) real pass. Keys after the deciding
    // one are left to that pass, which rejects unknown, duplicate and
    // mixed keys itself; a graph with no deciding key (`{}`, a lone
    // "node_weights") fails here, at its closing brace.
    let is_tree = {
        let mut probe = s.clone();
        probe.expect(b'{')?;
        probe.skip_ws();
        loop {
            let key = probe.string_range()?;
            match probe.slice(key) {
                b"edges" => break true,
                b"edge_weights" => break false,
                b"node_weights" => {}
                _ => return Err(Abort::Unsupported),
            }
            probe.skip_ws();
            probe.expect(b':')?;
            probe.skip_ws();
            probe.skip_value()?;
            probe.skip_ws();
            probe.expect(b',')?;
            probe.skip_ws();
        }
    };
    if is_tree {
        parse_tree_graph(s, backing).map(GraphInput::from_tree)
    } else {
        parse_chain_graph(s, backing).map(GraphInput::from_path)
    }
}

fn parse_chain_graph<B: MemoryBacking + Clone>(
    s: &mut Cursor<'_>,
    backing: &B,
) -> Scan<'static, FlatPath<B>> {
    let mut builder = FlatPathBuilder::new(backing, 0)?;
    let mut seen_nodes = false;
    let mut seen_edges = false;
    s.expect(b'{')?;
    s.skip_ws();
    if !s.try_consume(b'}') {
        loop {
            let key = s.string_range()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            match s.slice(key) {
                b"node_weights" => {
                    if std::mem::replace(&mut seen_nodes, true) {
                        return Err(Abort::Unsupported);
                    }
                    s.u64_array(|w| builder.push_node(w))?;
                }
                b"edge_weights" => {
                    if std::mem::replace(&mut seen_edges, true) {
                        return Err(Abort::Unsupported);
                    }
                    s.u64_array(|w| builder.push_edge(w))?;
                }
                _ => return Err(Abort::Unsupported),
            }
            s.skip_ws();
            if s.try_consume(b',') {
                s.skip_ws();
                continue;
            }
            s.expect(b'}')?;
            break;
        }
    }
    if !(seen_nodes && seen_edges) {
        return Err(Abort::Unsupported);
    }
    builder.finish().map_err(|_| Abort::Unsupported)
}

fn parse_tree_graph<B: MemoryBacking + Clone>(
    s: &mut Cursor<'_>,
    backing: &B,
) -> Scan<'static, FlatTree<B>> {
    let mut builder = FlatTreeBuilder::new(backing.clone(), 0)?;
    let mut seen_nodes = false;
    let mut seen_edges = false;
    s.expect(b'{')?;
    s.skip_ws();
    if !s.try_consume(b'}') {
        loop {
            let key = s.string_range()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            match s.slice(key) {
                b"node_weights" => {
                    if std::mem::replace(&mut seen_nodes, true) {
                        return Err(Abort::Unsupported);
                    }
                    s.u64_array(|w| builder.push_node(w))?;
                }
                b"edges" => {
                    if std::mem::replace(&mut seen_edges, true) {
                        return Err(Abort::Unsupported);
                    }
                    parse_tree_edges(s, &mut builder)?;
                }
                _ => return Err(Abort::Unsupported),
            }
            s.skip_ws();
            if s.try_consume(b',') {
                s.skip_ws();
                continue;
            }
            s.expect(b'}')?;
            break;
        }
    }
    if !(seen_nodes && seen_edges) {
        return Err(Abort::Unsupported);
    }
    builder.finish().map_err(|_| Abort::Unsupported)
}

/// Parses `[{"a":0,"b":1,"weight":2}, ...]` (fields in any order)
/// straight into the tree builder.
fn parse_tree_edges<B: MemoryBacking>(
    s: &mut Cursor<'_>,
    builder: &mut FlatTreeBuilder<B>,
) -> Scan<'static, ()> {
    s.expect(b'[')?;
    s.skip_ws();
    if s.try_consume(b']') {
        return Ok(());
    }
    loop {
        s.expect(b'{')?;
        s.skip_ws();
        let (mut a, mut b, mut w) = (None, None, None);
        if !s.try_consume(b'}') {
            loop {
                let key = s.string_range()?;
                s.skip_ws();
                s.expect(b':')?;
                s.skip_ws();
                let slot = match s.slice(key) {
                    b"a" => &mut a,
                    b"b" => &mut b,
                    b"weight" => &mut w,
                    _ => return Err(Abort::Unsupported),
                };
                if slot.is_some() {
                    return Err(Abort::Unsupported);
                }
                *slot = Some(s.number()?);
                s.skip_ws();
                if s.try_consume(b',') {
                    s.skip_ws();
                    continue;
                }
                s.expect(b'}')?;
                break;
            }
        }
        let (a, b, w) = match (a, b, w) {
            (Some(a), Some(b), Some(w)) => (a, b, w),
            _ => return Err(Abort::Unsupported),
        };
        let (a, b) = match (usize::try_from(a), usize::try_from(b)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => return Err(Abort::Unsupported),
        };
        builder.push_edge(a, b, w)?;
        s.budget_tick()?;
        s.skip_ws();
        if s.try_consume(b',') {
            s.skip_ws();
            continue;
        }
        s.expect(b']')?;
        return Ok(());
    }
}

/// A byte cursor over the body with budget accounting.
#[derive(Clone)]
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
    budget: &'a Budget,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8], budget: &'a Budget) -> Self {
        Cursor { b, i: 0, budget }
    }

    fn at_end(&self) -> bool {
        self.i >= self.b.len()
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Scan<'static, ()> {
        if self.peek() == Some(byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(Abort::Unsupported)
        }
    }

    fn try_consume(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// One budget unit per parsed element, with the stride machinery in
    /// [`Budget`] keeping the common case to a counter decrement.
    fn budget_tick(&mut self) -> Scan<'static, ()> {
        self.budget.charge(1).map_err(Abort::from)
    }

    fn slice(&self, range: (usize, usize)) -> &'a [u8] {
        &self.b[range.0..range.1]
    }

    /// Consumes a JSON string with no escapes and returns its byte
    /// range. Escapes are not needed for any field the flat schema
    /// accepts, so a backslash simply falls back to the JSON-tree
    /// parser.
    fn string_range(&mut self) -> Scan<'static, (usize, usize)> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let end = self.i;
                    self.i += 1;
                    return Ok((start, end));
                }
                Some(b'\\') | None => return Err(Abort::Unsupported),
                Some(_) => self.i += 1,
            }
        }
    }

    /// Consumes a strict JSON non-negative integer fitting `u64`.
    /// Minus signs, fractions, exponents, leading zeros and overflow
    /// all fall back (the JSON-tree parser owns their canonical errors).
    fn number(&mut self) -> Scan<'static, u64> {
        let start = self.i;
        let mut value: u64 = 0;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(c - b'0')))
                .ok_or(Abort::Unsupported)?;
            self.i += 1;
        }
        let len = self.i - start;
        if len == 0 || (len > 1 && self.b[start] == b'0') {
            return Err(Abort::Unsupported);
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(Abort::Unsupported);
        }
        Ok(value)
    }

    /// Streams `[n, n, ...]` into `push`, one budget unit per element.
    fn u64_array(&mut self, mut push: impl FnMut(u64) -> std::io::Result<()>) -> Scan<'static, ()> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.try_consume(b']') {
            return Ok(());
        }
        loop {
            let v = self.number()?;
            push(v)?;
            self.budget_tick()?;
            self.skip_ws();
            if self.try_consume(b',') {
                self.skip_ws();
                continue;
            }
            self.expect(b']')?;
            return Ok(());
        }
    }

    /// Skips one JSON value structurally (for the kind pre-scan),
    /// charging a budget unit per 64 bytes skipped.
    fn skip_value(&mut self) -> Scan<'static, ()> {
        let start = self.i;
        match self.peek() {
            Some(b'"') => {
                self.string_range()?;
            }
            Some(b'{' | b'[') => {
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        None => return Err(Abort::Unsupported),
                        Some(b'"') => {
                            self.string_range()?;
                        }
                        Some(b'{' | b'[') => {
                            depth += 1;
                            self.i += 1;
                        }
                        Some(b'}' | b']') => {
                            depth -= 1;
                            self.i += 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(_) => self.i += 1,
                    }
                }
            }
            Some(_) => {
                // A scalar: runs until a separator or whitespace.
                while let Some(c) = self.peek() {
                    if matches!(c, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                        break;
                    }
                    self.i += 1;
                }
                if self.i == start {
                    return Err(Abort::Unsupported);
                }
            }
            None => return Err(Abort::Unsupported),
        }
        self.budget
            .charge(((self.i - start) / 64 + 1) as u64)
            .map_err(Abort::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use tgp_graph::json::Value;

    fn ingest(body: &str) -> Option<Request> {
        ingest_flat(body.as_bytes(), &IngestBacking::Ram, &Budget::unlimited()).unwrap()
    }

    const CHAIN_BODY: &str = r#"{"objective": "bandwidth", "bound": 10,
        "graph": {"node_weights": [2, 3, 5, 7], "edge_weights": [10, 1, 10]}}"#;
    const TREE_BODY: &str = r#"{"objective": "bottleneck", "bound": 10,
        "graph": {"node_weights": [1, 2, 3, 4],
                  "edges": [{"a": 0, "b": 1, "weight": 10},
                            {"a": 0, "b": 2, "weight": 20},
                            {"weight": 30, "b": 3, "a": 2}]}}"#;

    fn legacy_response(body: &str) -> String {
        let value = Value::parse(body).unwrap();
        let (_, solver, request) = Registry::shared().dispatch(&value).unwrap();
        solver.run(&request).unwrap().value.to_string()
    }

    #[test]
    fn streams_a_chain_body_and_matches_legacy_bytes() {
        let flat = ingest(CHAIN_BODY).expect("eligible body");
        assert_eq!(flat.params.bound, Some(10));
        assert_eq!(flat.objective.name(), "bandwidth");
        let response = flat.run().unwrap().value.to_string();
        assert_eq!(response, legacy_response(CHAIN_BODY));
    }

    #[test]
    fn streams_a_tree_body_with_reordered_fields() {
        let flat = ingest(TREE_BODY).expect("eligible body");
        let response = flat.run().unwrap().value.to_string();
        assert_eq!(response, legacy_response(TREE_BODY));
    }

    #[test]
    fn field_order_does_not_matter() {
        let reordered = r#"{"graph": {"edge_weights": [10, 1, 10], "node_weights": [2, 3, 5, 7]},
            "bound": 10, "objective": "lexicographic"}"#;
        let flat = ingest(reordered).expect("eligible body");
        assert_eq!(flat.objective.name(), "lexicographic");
        assert_eq!(
            flat.run().unwrap().value.to_string(),
            legacy_response(reordered)
        );
    }

    #[test]
    fn canonical_key_matches_the_legacy_solver() {
        for body in [CHAIN_BODY, TREE_BODY] {
            let flat = ingest(body).expect("eligible body");
            let value = Value::parse(body).unwrap();
            let (_, solver, request) = Registry::shared().dispatch(&value).unwrap();
            assert_eq!(flat.canonical_key(), solver.canonical_key(&request));
        }
    }

    #[test]
    fn ineligible_bodies_fall_back() {
        for body in [
            // other objective
            r#"{"objective": "compose", "bound": 1, "graph": {"node_weights": [1],
                "edges": []}}"#,
            // unknown top-level field
            r#"{"objective": "bandwidth", "bound": 1, "bogus": 2,
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            // unknown graph field
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [1], "edge_weights": [], "x": 0}}"#,
            // objective/graph-kind mismatch
            r#"{"objective": "bottleneck", "bound": 1,
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            // malformed JSON
            r#"{"objective": "bandwidth", "bound": 1, "graph": "#,
            // negative weight
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [-1], "edge_weights": []}}"#,
            // float bound
            r#"{"objective": "bandwidth", "bound": 1.5,
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            // invalid graph (wrong edge count) — legacy owns the error
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [1, 2], "edge_weights": [1, 2]}}"#,
            // missing bound
            r#"{"objective": "bandwidth",
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            // trailing garbage
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [1], "edge_weights": []}} x"#,
            // both deciding keys, in either order
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [1], "edge_weights": [], "edges": []}}"#,
            r#"{"objective": "procmin", "bound": 1,
                "graph": {"edges": [], "node_weights": [1], "edge_weights": []}}"#,
            // an unknown key after the deciding key
            r#"{"objective": "procmin", "bound": 1,
                "graph": {"edges": [], "x": 0, "node_weights": [1]}}"#,
            // no deciding key: a lone node_weights, an empty graph
            r#"{"objective": "nicol", "bound": 1, "graph": {"node_weights": [1]}}"#,
            r#"{"objective": "nicol", "bound": 1, "graph": {}}"#,
        ] {
            assert!(ingest(body).is_none(), "must fall back: {body}");
        }
    }

    #[test]
    fn streams_procmin_and_nicol_bodies_on_both_backings() {
        let procmin = TREE_BODY.replace("bottleneck", "procmin");
        let nicol = CHAIN_BODY.replace("bandwidth", "nicol");
        // Tight bounds force cuts; the shared renderers fix the bytes.
        let tight = |body: &str, bound: &str| body.replace(r#""bound": 10"#, bound);
        for body in [
            tight(&procmin, r#""bound": 5"#),
            tight(&nicol, r#""bound": 8"#),
        ] {
            let want = legacy_response(&body);
            for backing in [
                IngestBacking::Ram,
                IngestBacking::disk(std::env::temp_dir()),
            ] {
                let flat = ingest_flat(body.as_bytes(), &backing, &Budget::unlimited())
                    .unwrap()
                    .expect("eligible body");
                assert_eq!(flat.run().unwrap().value.to_string(), want, "{body}");
            }
        }
        assert_eq!(
            ingest(&procmin).map(|f| f.objective.name()),
            Some("procmin")
        );
        assert_eq!(ingest(&nicol).map(|f| f.objective.name()), Some("nicol"));
    }

    #[test]
    fn disk_backing_produces_identical_bytes() {
        let flat = ingest_flat(
            CHAIN_BODY.as_bytes(),
            &IngestBacking::disk(std::env::temp_dir()),
            &Budget::unlimited(),
        )
        .unwrap()
        .expect("eligible body");
        assert_eq!(flat.graph.backing_kind(), tgp_store::BackingKind::Disk);
        assert_eq!(flat.graph.resident_bytes(), 0);
        assert_eq!(
            flat.run().unwrap().value.to_string(),
            legacy_response(CHAIN_BODY)
        );
    }

    #[test]
    fn expired_budget_stops_ingest() {
        let budget = Budget::with_deadline(std::time::Instant::now()).with_stride(0);
        let err = ingest_flat(CHAIN_BODY.as_bytes(), &IngestBacking::Ram, &budget).unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded");
    }

    #[test]
    fn expired_budget_stops_a_procmin_tree_ingest() {
        let body = TREE_BODY.replace("bottleneck", "procmin");
        let budget = Budget::with_deadline(std::time::Instant::now()).with_stride(0);
        let err = ingest_flat(body.as_bytes(), &IngestBacking::Ram, &budget).unwrap_err();
        assert!(matches!(err, SolveError::DeadlineExceeded), "{err:?}");
    }
}
