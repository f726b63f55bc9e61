//! Streaming request-body ingest into flat graph arrays.
//!
//! [`ingest_flat`] scans a raw JSON request body once and streams the
//! graph's weights straight into `tgp-store` arrays — the document
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
//! Arrays are parsed in blocks of up to [`BLOCK`] elements, each
//! appended to its array in one call. Work is cost-sliced: one
//! [`Budget`] unit per parsed element, charged as each block is
//! appended, so an expired deadline or a raised cancel flag stops a
//! huge upload mid-parse instead of after it.

use std::path::Path;

use tgp_core::budget::{Budget, Exceeded};
use tgp_store::{Array, DiskBacking, FlatPathBuilder, FlatTreeBuilder, MemoryBacking, RamBacking};

use crate::error::SolveError;
use crate::flat::FromBuilt;
use crate::registry::{Registry, Solver};
use crate::request::{GraphInput, Params, Request};

/// Elements parsed between two appends to an array (and two budget
/// charges).
pub(crate) const BLOCK: usize = 512;

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
/// exact shape of a request for a chain or tree objective whose only
/// parameter is `bound`.
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

/// The registered solver `name` names, if its only parameter is
/// `bound` — the one parameter this parser reads. The graph-kind check
/// in [`parse_body`] then declines `approx`, whose process graphs it
/// does not build.
fn streamed_solver(name: &[u8]) -> Option<&'static dyn Solver> {
    let (_, solver) = Registry::shared().get(std::str::from_utf8(name).ok()?)?;
    matches!(solver.params(), [p] if p.name == "bound").then_some(solver)
}

/// A graph whose kind its deciding key (`"edge_weights"` or `"edges"`)
/// has settled.
enum Builder<B: MemoryBacking> {
    Chain(FlatPathBuilder<B>),
    Tree(FlatTreeBuilder<B>),
}

/// Parses the `"graph"` object. The cursor sits on its `{`.
///
/// The graph's kind is decided by its first `"edges"` or
/// `"edge_weights"` key, and `"node_weights"` may precede it: the
/// weights then stream into an array of their own, which the builder
/// adopts once the deciding key names it. Whichever array comes second
/// is sized from the first one's count; growth still covers a body
/// whose counts disagree, which the builder then rejects. Unknown,
/// duplicate and mixed keys fall back, and so does a graph with no
/// deciding key (`{}`, a lone `"node_weights"`).
fn parse_graph<B>(s: &mut Cursor<'_>, backing: &B) -> Scan<'static, GraphInput>
where
    B: MemoryBacking + Clone,
    GraphInput: FromBuilt<B>,
{
    let mut nodes: Option<B::Array<u64>> = None;
    let mut seen_nodes = false;
    let mut graph: Option<Builder<B>> = None;
    s.expect(b'{')?;
    s.skip_ws();
    if !s.try_consume(b'}') {
        loop {
            let key = s.string_range()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            match (s.slice(key), &mut graph) {
                (b"node_weights", _) if seen_nodes => return Err(Abort::Unsupported),
                (b"node_weights", None) => {
                    let mut array = backing.new_array::<u64>(0)?;
                    s.u64_array(|block| array.extend_from_slice(block))?;
                    nodes = Some(array);
                    seen_nodes = true;
                }
                (b"node_weights", Some(Builder::Chain(chain))) => {
                    chain.reserve_nodes(chain.edges() + 1)?;
                    s.u64_array(|block| chain.extend_nodes(block))?;
                    seen_nodes = true;
                }
                (b"node_weights", Some(Builder::Tree(tree))) => {
                    tree.reserve_nodes(tree.edges() + 1)?;
                    s.u64_array(|block| tree.extend_nodes(block))?;
                    seen_nodes = true;
                }
                (b"edge_weights", None) => {
                    let mut chain = match nodes.take() {
                        Some(node_w) => FlatPathBuilder::with_nodes(backing, node_w)?,
                        None => FlatPathBuilder::new(backing, 0)?,
                    };
                    s.u64_array(|block| chain.extend_edges(block))?;
                    graph = Some(Builder::Chain(chain));
                }
                (b"edges", None) => {
                    let mut tree = match nodes.take() {
                        Some(node_w) => FlatTreeBuilder::with_nodes(backing, node_w)?,
                        None => FlatTreeBuilder::new(backing.clone(), 0)?,
                    };
                    s.tree_edges(&mut tree)?;
                    graph = Some(Builder::Tree(tree));
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

/// A byte cursor over the body with budget accounting.
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

    /// Charges one budget unit per element of a block just appended,
    /// with the stride machinery in [`Budget`] keeping the common case
    /// to a counter decrement.
    fn charge(&self, elements: usize) -> Scan<'static, ()> {
        self.budget.charge(elements as u64).map_err(Abort::from)
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
    #[inline]
    fn number(&mut self) -> Scan<'static, u64> {
        let digits = &self.b[self.i..];
        // The first (up to) eight digits in one word, then one digit at
        // a time. Nineteen digits never overflow (10^19 - 1 <
        // u64::MAX), so only a longer run needs checked arithmetic.
        let (mut value, mut len) = match digits.first_chunk::<8>() {
            Some(word) => eight_digits(u64::from_le_bytes(*word)),
            None => (0, 0),
        };
        if len == 8 || digits.len() < 8 {
            while len < 19 {
                match digits.get(len) {
                    Some(&c @ b'0'..=b'9') => value = value * 10 + u64::from(c - b'0'),
                    _ => break,
                }
                len += 1;
            }
            while let Some(&c @ b'0'..=b'9') = digits.get(len) {
                value = value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(c - b'0')))
                    .ok_or(Abort::Unsupported)?;
                len += 1;
            }
        }
        if len == 0 || (len > 1 && digits[0] == b'0') {
            return Err(Abort::Unsupported);
        }
        if matches!(digits.get(len), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(Abort::Unsupported);
        }
        self.i += len;
        Ok(value)
    }

    /// Streams `[n, n, ...]` into `append` in blocks of up to [`BLOCK`]
    /// values.
    fn u64_array(
        &mut self,
        mut append: impl FnMut(&[u64]) -> std::io::Result<()>,
    ) -> Scan<'static, ()> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.try_consume(b']') {
            return Ok(());
        }
        let mut block = [0u64; BLOCK];
        let mut len = 0;
        loop {
            block[len] = self.number()?;
            len += 1;
            self.skip_ws();
            let more = self.try_consume(b',');
            if len == BLOCK || !more {
                append(&block[..len])?;
                self.charge(len)?;
                len = 0;
            }
            if !more {
                return self.expect(b']');
            }
            self.skip_ws();
        }
    }

    /// Streams `[{"a":0,"b":1,"weight":2}, ...]` (fields in any order)
    /// into the tree builder in blocks of up to [`BLOCK`] edges.
    fn tree_edges<B: MemoryBacking>(
        &mut self,
        builder: &mut FlatTreeBuilder<B>,
    ) -> Scan<'static, ()> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.try_consume(b']') {
            return Ok(());
        }
        let (mut a, mut b, mut w) = ([0usize; BLOCK], [0usize; BLOCK], [0u64; BLOCK]);
        let mut len = 0;
        loop {
            (a[len], b[len], w[len]) = self.tree_edge()?;
            len += 1;
            self.skip_ws();
            let more = self.try_consume(b',');
            if len == BLOCK || !more {
                builder.extend_edges(&a[..len], &b[..len], &w[..len])?;
                self.charge(len)?;
                len = 0;
            }
            if !more {
                return self.expect(b']');
            }
            self.skip_ws();
        }
    }

    /// One edge object, `{"a":0,"b":1,"weight":2}` with its fields in
    /// any order. An edge written compactly in that order takes a fast
    /// path that matches the keys as literals; any other spelling
    /// restarts at its `{` on the general path.
    fn tree_edge(&mut self) -> Scan<'static, (usize, usize, u64)> {
        let start = self.i;
        if let Some(edge) = self.compact_edge() {
            return Ok(edge);
        }
        self.i = start;
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = [None; 3];
        if !self.try_consume(b'}') {
            loop {
                let slot = &mut fields[self.edge_key()?];
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                if slot.is_some() {
                    return Err(Abort::Unsupported);
                }
                *slot = Some(self.number()?);
                self.skip_ws();
                if self.try_consume(b',') {
                    self.skip_ws();
                    continue;
                }
                self.expect(b'}')?;
                break;
            }
        }
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
    fn compact_edge(&mut self) -> Option<(usize, usize, u64)> {
        self.literal(b"{\"a\":")?;
        let a = self.number().ok()?;
        self.literal(b",\"b\":")?;
        let b = self.number().ok()?;
        self.literal(b",\"weight\":")?;
        let w = self.number().ok()?;
        self.literal(b"}")?;
        Some((usize::try_from(a).ok()?, usize::try_from(b).ok()?, w))
    }

    /// Consumes `bytes` if the body continues with them.
    fn literal(&mut self, bytes: &[u8]) -> Option<()> {
        self.b[self.i..]
            .starts_with(bytes)
            .then(|| self.i += bytes.len())
    }

    /// Consumes an edge object's key — `"a"`, `"b"` or `"weight"`,
    /// exactly — and returns its field slot. Any other key, escaped
    /// spellings included, falls back.
    fn edge_key(&mut self) -> Scan<'static, usize> {
        let (slot, len) = match &self.b[self.i..] {
            [b'"', b'a', b'"', ..] => (0, 3),
            [b'"', b'b', b'"', ..] => (1, 3),
            [b'"', b'w', b'e', b'i', b'g', b'h', b't', b'"', ..] => (2, 8),
            _ => return Err(Abort::Unsupported),
        };
        self.i += len;
        Ok(slot)
    }
}

/// The value and count of the ASCII digits that open `word` (eight
/// body bytes read little-endian, so the first byte is the lowest),
/// without a branch per digit: a mask finds the first non-digit byte, a
/// shift drops it and everything after, and three multiply-shift steps
/// combine the digits pairwise (SWAR, "SIMD within a register").
fn eight_digits(word: u64) -> (u64, usize) {
    const LANES: u64 = 0x0101_0101_0101_0101;
    // A byte is a digit iff its high nibble is 3 and adding 6 keeps it
    // there. A carry out of a byte >= 0xFA can only disturb bytes after
    // the first non-digit, which are dropped anyway.
    let high = word & (0xF0 * LANES);
    let plus6 = word.wrapping_add(0x06 * LANES) & (0xF0 * LANES);
    let not_digit = (high ^ (0x30 * LANES)) | (plus6 ^ (0x30 * LANES));
    let len = (not_digit.trailing_zeros() / 8) as usize;
    if len == 0 {
        return (0, 0);
    }
    // Digit values, moved up so the run ends at the top byte; the
    // vacated low bytes read as leading zeros.
    let mut v = (word & (0x0F * LANES)) << (8 * (8 - len));
    v = (v.wrapping_mul(10 * 256 + 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    v = (v.wrapping_mul(100 * 65_536 + 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    v = v.wrapping_mul(10_000 * (1 << 32) + 1) >> 32;
    (v, len)
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
            assert_eq!(flat.canonical_key_len(), flat.canonical_key().len());
        }
    }

    #[test]
    fn eight_digit_words_parse_like_a_digit_loop() {
        let mut bytes = *b"00000000";
        let digits = b"0123456789";
        let others = b" ,]}.e-+/:\xff\x00";
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            for byte in &mut bytes {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *byte = if state.is_multiple_of(4) {
                    others[(state >> 8) as usize % others.len()]
                } else {
                    digits[(state >> 8) as usize % digits.len()]
                };
            }
            let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
            let value = bytes[..len]
                .iter()
                .fold(0u64, |v, &b| v * 10 + u64::from(b - b'0'));
            assert_eq!(
                eight_digits(u64::from_le_bytes(bytes)),
                (value, len),
                "{bytes:?}"
            );
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
