//! Streaming request-body ingest into flat graph arrays.
//!
//! [`ingest_flat`] scans a raw JSON request body once and streams the
//! graph's weights straight into flat graph arrays — the document
//! tree (`json::Value`) is never materialized, so a 100-million-element
//! upload costs a few flat arrays (RAM- or disk-backed, chosen by the
//! caller) instead of a heap of boxed JSON nodes several times the
//! body's size.
//!
//! It is the registry's second parser: it produces the same
//! [`Request`] as [`crate::Registry::dispatch`], with the graph in the
//! same flat arrays, for every chain or tree objective whose only
//! parameter is `bound` (`bandwidth`, `lexicographic` and `nicol` on
//! chains; `bottleneck`, `procmin`, `compose` and `tree-bandwidth` on
//! trees). It is deliberately *conservative*: it understands exactly the
//! shape those objectives accept —
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
//! The scan is a grammar over `tgp_graph::json`'s [`Lexer`], the
//! tokenizer under [`tgp_graph::json::Value::parse`] too: this module
//! decides only which keys and values the schema takes, and every
//! lexer failure is a decline. Numbers take the lexer's strict `u64`
//! scan, eight digits per word.
//!
//! Arrays are parsed in blocks of up to [`BLOCK`] elements, each
//! appended to its array in one call — for a disk array, one `pwrite`
//! of at least [`RUN_BYTES`] per full block. Work is cost-sliced: one
//! [`Budget`] unit per parsed element, charged as each block is
//! appended, so an expired deadline stops a huge upload mid-parse
//! instead of after it.

use std::borrow::Cow;
use std::path::Path;

use tgp_core::budget::{Budget, Exceeded};
use tgp_graph::json::{LexError, Lexer};
use tgp_graph::{Array, FlatPathBuilder, FlatTreeBuilder, MemoryBacking, RamBacking};
use tgp_store::{DiskBacking, RUN_BYTES};

use crate::error::SolveError;
use crate::flat::FromBuilt;
use crate::registry::{Registry, Solver};
use crate::request::{GraphInput, Params, Request};

/// Elements parsed between two appends to an array (and two budget
/// charges): one [`RUN_BYTES`] run of the narrowest column (a tree's
/// `u32` edge endpoints), so a disk array takes each full block in
/// runs at least that long.
pub(crate) const BLOCK: usize = RUN_BYTES / std::mem::size_of::<u32>();

/// The capacity a block buffer starts with. A buffer grows to
/// [`BLOCK`] only when its array is that long, so a small body pays one
/// small allocation per array.
const FIRST_BLOCK: usize = 512;

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

impl From<LexError> for Abort {
    // Malformed JSON, or a token outside the flat schema (an escape, a
    // sign, a fraction, ...): the JSON-tree parser answers it.
    fn from(_: LexError) -> Self {
        Abort::Unsupported
    }
}

impl From<std::io::Error> for Abort {
    // A backing failure (spill dir unwritable, disk full). The in-RAM
    // JSON-tree path may still succeed, so treat it as a fallback.
    fn from(_: std::io::Error) -> Self {
        Abort::Unsupported
    }
}

type Scan<T> = Result<T, Abort>;

/// Streams `body` into a [`Request`] with a flat graph if it has the
/// exact shape of a request for a chain or tree objective whose only
/// parameter is `bound`.
///
/// Returns `Ok(None)` when the body is anything else — the caller must
/// then parse it through [`crate::Registry::dispatch`], which owns the
/// canonical error behaviour.
///
/// # Errors
///
/// Only budget exhaustion: [`SolveError::DeadlineExceeded`].
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

fn parse_body<B>(body: &[u8], backing: &B, budget: &Budget) -> Scan<Request>
where
    B: MemoryBacking + Clone,
    GraphInput: FromBuilt<B>,
{
    let mut lex = Lexer::new(body);
    let mut objective: Option<&'static dyn Solver> = None;
    let mut bound: Option<u64> = None;
    let mut graph: Option<GraphInput> = None;
    lex.skip_ws();
    lex.expect(b'{')?;
    lex.skip_ws();
    members(&mut lex, name, |lex, key| {
        match key {
            "objective" if objective.is_none() => {
                objective = Some(streamed_solver(name(lex)?).ok_or(Abort::Unsupported)?);
            }
            "bound" if bound.is_none() => bound = Some(weight(lex)?),
            "graph" if graph.is_none() => graph = Some(parse_graph(lex, backing, budget)?),
            _ => return Err(Abort::Unsupported),
        }
        Ok(())
    })?;
    lex.skip_ws();
    if !lex.at_end() {
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

/// The registered solver `name` names, if its only parameter is
/// `bound` — the one parameter this parser reads. The graph-kind check
/// in [`parse_body`] then declines `approx`, whose process graphs it
/// does not build.
fn streamed_solver(name: &str) -> Option<&'static dyn Solver> {
    let (_, solver) = Registry::shared().get(name)?;
    matches!(solver.params(), [p] if p.name == "bound").then_some(solver)
}

/// A graph whose kind its deciding key (`"edge_weights"` or `"edges"`)
/// has settled.
enum Builder<B: MemoryBacking> {
    Chain(FlatPathBuilder<B>),
    Tree(FlatTreeBuilder<B>),
}

/// Parses the `"graph"` object. The lexer sits on its `{`.
///
/// The graph's kind is decided by its first `"edges"` or
/// `"edge_weights"` key, and `"node_weights"` may precede it: the
/// weights then stream into an array of their own, which the builder
/// adopts once the deciding key names it. Whichever array comes second
/// is sized from the first one's count; growth still covers a body
/// whose counts disagree, which the builder then rejects. Unknown,
/// duplicate and mixed keys fall back, and so does a graph with no
/// deciding key (`{}`, a lone `"node_weights"`).
fn parse_graph<B>(lex: &mut Lexer<'_>, backing: &B, budget: &Budget) -> Scan<GraphInput>
where
    B: MemoryBacking + Clone,
    GraphInput: FromBuilt<B>,
{
    let mut nodes: Option<B::Array<u64>> = None;
    let mut seen_nodes = false;
    let mut graph: Option<Builder<B>> = None;
    lex.expect(b'{')?;
    lex.skip_ws();
    members(lex, name, |lex, key| {
        match (key, &mut graph) {
            ("node_weights", _) if seen_nodes => return Err(Abort::Unsupported),
            ("node_weights", None) => {
                let mut array = backing.new_array::<u64>(0)?;
                blocks(lex, budget, weight, |block| array.extend_from_slice(block))?;
                nodes = Some(array);
                seen_nodes = true;
            }
            ("node_weights", Some(Builder::Chain(chain))) => {
                chain.reserve_nodes(chain.edges() + 1)?;
                blocks(lex, budget, weight, |block| chain.extend_nodes(block))?;
                seen_nodes = true;
            }
            ("node_weights", Some(Builder::Tree(tree))) => {
                tree.reserve_nodes(tree.edges() + 1)?;
                blocks(lex, budget, weight, |block| tree.extend_nodes(block))?;
                seen_nodes = true;
            }
            ("edge_weights", None) => {
                let mut chain = match nodes.take() {
                    Some(node_w) => FlatPathBuilder::with_nodes(backing, node_w)?,
                    None => FlatPathBuilder::new(backing, 0)?,
                };
                blocks(lex, budget, weight, |block| chain.extend_edges(block))?;
                graph = Some(Builder::Chain(chain));
            }
            ("edges", None) => {
                let mut tree = match nodes.take() {
                    Some(node_w) => FlatTreeBuilder::with_nodes(backing, node_w)?,
                    None => FlatTreeBuilder::new(backing.clone(), 0)?,
                };
                blocks(lex, budget, tree_edge, |edges| tree.extend_edges(edges))?;
                graph = Some(Builder::Tree(tree));
            }
            _ => return Err(Abort::Unsupported),
        }
        Ok(())
    })?;
    if !seen_nodes {
        return Err(Abort::Unsupported);
    }
    match graph {
        Some(Builder::Chain(chain)) => chain.finish().map(GraphInput::from_path),
        Some(Builder::Tree(tree)) => tree.finish().map(GraphInput::from_tree),
        None => return Err(Abort::Unsupported),
    }
    .map_err(|_| Abort::Unsupported)
}

/// Walks an object's members, the lexer just inside its `{` (before any
/// whitespace): reads each key with `key`, then hands it to `value` with
/// the lexer on the member's value.
#[inline]
fn members<'a, K>(
    lex: &mut Lexer<'a>,
    key: impl Fn(&mut Lexer<'a>) -> Scan<K>,
    mut value: impl FnMut(&mut Lexer<'a>, K) -> Scan<()>,
) -> Scan<()> {
    if lex.eat(b'}') {
        return Ok(());
    }
    loop {
        let k = key(lex)?;
        lex.skip_ws();
        lex.expect(b':')?;
        lex.skip_ws();
        value(lex, k)?;
        lex.skip_ws();
        if !lex.eat(b',') {
            return Ok(lex.expect(b'}')?);
        }
        lex.skip_ws();
    }
}

/// A string with no escapes. Escapes are not needed for any field the
/// flat schema accepts, so a backslash simply falls back to the
/// JSON-tree parser.
fn name<'a>(lex: &mut Lexer<'a>) -> Scan<&'a str> {
    match lex.string()? {
        Cow::Borrowed(text) => Ok(text),
        Cow::Owned(_) => Err(Abort::Unsupported),
    }
}

/// Streams a JSON array into `append` in blocks of up to [`BLOCK`]
/// elements, each read by `item`, charging the budget one unit per
/// element as each block is appended.
fn blocks<'a, T>(
    lex: &mut Lexer<'a>,
    budget: &Budget,
    item: impl Fn(&mut Lexer<'a>) -> Scan<T>,
    mut append: impl FnMut(&[T]) -> std::io::Result<()>,
) -> Scan<()> {
    lex.expect(b'[')?;
    lex.skip_ws();
    if lex.eat(b']') {
        return Ok(());
    }
    let mut block = Vec::with_capacity(FIRST_BLOCK);
    loop {
        block.push(item(lex)?);
        lex.skip_ws();
        let more = lex.eat(b',');
        if block.len() == BLOCK || !more {
            append(&block)?;
            budget.charge(block.len() as u64)?;
            block.clear();
        }
        if !more {
            return Ok(lex.expect(b']')?);
        }
        lex.skip_ws();
    }
}

/// A strict non-negative integer: a weight, a bound or an endpoint.
#[inline]
fn weight(lex: &mut Lexer<'_>) -> Scan<u64> {
    lex.u64().ok_or(Abort::Unsupported)
}

/// One edge object, `{"a":0,"b":1,"weight":2}` with its fields in any
/// order. An edge written compactly in that order takes a fast path
/// that matches the keys as literals; any other spelling restarts at
/// its `{` on the general path.
fn tree_edge(lex: &mut Lexer<'_>) -> Scan<(usize, usize, u64)> {
    let start = lex.clone();
    if let Some(edge) = compact_edge(lex) {
        return Ok(edge);
    }
    *lex = start;
    lex.expect(b'{')?;
    lex.skip_ws();
    let mut fields = [None; 3];
    members(lex, edge_key, |lex, slot| {
        if fields[slot].is_some() {
            return Err(Abort::Unsupported);
        }
        fields[slot] = Some(weight(lex)?);
        Ok(())
    })?;
    match fields {
        [Some(a), Some(b), Some(w)] => match (usize::try_from(a), usize::try_from(b)) {
            (Ok(a), Ok(b)) => Ok((a, b, w)),
            _ => Err(Abort::Unsupported),
        },
        _ => Err(Abort::Unsupported),
    }
}

/// `{"a":N,"b":N,"weight":N}` exactly, or `None` somewhere inside
/// anything else.
#[inline]
fn compact_edge(lex: &mut Lexer<'_>) -> Option<(usize, usize, u64)> {
    lex.literal("{\"a\":").then_some(())?;
    let a = lex.u64()?;
    lex.literal(",\"b\":").then_some(())?;
    let b = lex.u64()?;
    lex.literal(",\"weight\":").then_some(())?;
    let w = lex.u64()?;
    lex.literal("}").then_some(())?;
    Some((usize::try_from(a).ok()?, usize::try_from(b).ok()?, w))
}

/// An edge object's key — `"a"`, `"b"` or `"weight"`, exactly, matched
/// as literals — as its field slot. Any other key, escaped spellings
/// included, falls back.
#[inline]
fn edge_key(lex: &mut Lexer<'_>) -> Scan<usize> {
    ["\"a\"", "\"b\"", "\"weight\""]
        .into_iter()
        .position(|key| lex.literal(key))
        .ok_or(Abort::Unsupported)
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
    fn whitespace_after_the_opening_brace_streams() {
        let pretty = r#"{
  "objective": "lexicographic",
  "bound": 10,
  "graph": {
    "node_weights": [2, 3, 5, 7],
    "edge_weights": [10, 1, 10]
  }
}
"#;
        let spaced = r#"{ "objective": "bandwidth", "bound": 10,
            "graph": {"node_weights": [2, 3, 5, 7], "edge_weights": [10, 1, 10]}}"#;
        let tabbed = "{\t\r\n\"objective\": \"bandwidth\", \"bound\": 10, \
                      \"graph\": {\"node_weights\": [1], \"edge_weights\": []}}";
        for body in [pretty, spaced, tabbed] {
            let flat = ingest(body).unwrap_or_else(|| panic!("declined {body:?}"));
            assert_eq!(flat.run().unwrap().value.to_string(), legacy_response(body));
        }
    }

    #[test]
    fn canonical_key_matches_the_legacy_solver() {
        for body in [CHAIN_BODY, TREE_BODY] {
            let flat = ingest(body).expect("eligible body");
            let value = Value::parse(body).unwrap();
            let (_, solver, request) = Registry::shared().dispatch(&value).unwrap();
            assert_eq!(flat.canonical_key(), solver.canonical_key(&request));
            assert_eq!(flat.canonical_key_len(), flat.canonical_key().len());
        }
    }

    #[test]
    fn ineligible_bodies_fall_back() {
        // A number the old scanner refused, past the first block of
        // elements (and so after a block was already appended).
        let past_first_block = |bad: &str| {
            let ones = vec!["1"; BLOCK + 1].join(",");
            format!(
                r#"{{"objective": "nicol", "bound": 1,
                    "graph": {{"edge_weights": [{ones},{bad}], "node_weights": [1]}}}}"#
            )
        };
        let straddling: Vec<String> = ["01", "-0", "1e3", "1.0", "18446744073709551616"]
            .iter()
            .map(|bad| past_first_block(bad))
            .collect();
        for body in straddling.iter().map(String::as_str).chain([
            // 20 digits past u64::MAX, and 21 digits, in each number slot
            r#"{"objective": "bandwidth", "bound": 18446744073709551616,
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [184467440737095516150], "edge_weights": []}}"#,
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [1, 1], "edge_weights": [18446744073709551616]}}"#,
            r#"{"objective": "procmin", "bound": 1, "graph": {"node_weights": [1, 1],
                "edges": [{"a": 18446744073709551616, "b": 1, "weight": 1}]}}"#,
            r#"{"objective": "procmin", "bound": 1, "graph": {"node_weights": [1, 1],
                "edges": [{"a":0,"b":1,"weight":18446744073709551616}]}}"#,
            // leading zeros, negative zero, exponents, fractions
            r#"{"objective": "bandwidth", "bound": 01,
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [00], "edge_weights": []}}"#,
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [-0], "edge_weights": []}}"#,
            r#"{"objective": "bandwidth", "bound": 1e3,
                "graph": {"node_weights": [1], "edge_weights": []}}"#,
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [1.0], "edge_weights": []}}"#,
            r#"{"objective": "procmin", "bound": 9, "graph": {"node_weights": [1, 1],
                "edges": [{"a":0,"b":01,"weight":1}]}}"#,
            r#"{"objective": "procmin", "bound": 9, "graph": {"node_weights": [1, 1],
                "edges": [{"a":0,"b":1,"weight":1e3}]}}"#,
            // empty arrays: no nodes is no graph
            r#"{"objective": "bandwidth", "bound": 1,
                "graph": {"node_weights": [], "edge_weights": []}}"#,
            r#"{"objective": "bottleneck", "bound": 1,
                "graph": {"edges": [], "node_weights": []}}"#,
            // an escaped key, a missing field, a repeated field in an edge
            r#"{"objective": "procmin", "bound": 9, "graph": {"node_weights": [1, 1],
                "edges": [{"\u0061":0,"b":1,"weight":1}]}}"#,
            r#"{"objective": "procmin", "bound": 9, "graph": {"node_weights": [1, 1],
                "edges": [{"a":0,"b":1}]}}"#,
            r#"{"objective": "procmin", "bound": 9, "graph": {"node_weights": [1, 1],
                "edges": [{"a":0,"a":0,"b":1,"weight":1}]}}"#,
        ]) {
            assert!(ingest(body).is_none(), "must fall back: {body}");
        }
        for body in [
            // other objective
            r#"{"objective": "coc", "bound": 1, "graph": {"node_weights": [1],
                "edge_weights": []}}"#,
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
        assert_eq!(flat.graph.backing_kind(), tgp_graph::BackingKind::Disk);
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
