//! Seeded inputs: graphs, request bodies and each workload's op
//! sequence. Everything here is a pure function of the seed, so the
//! measured run and the traced replay see the same requests.

use std::fmt::Write as _;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The point at fraction `u` of the log scale from `lo` to `hi`.
fn log_lerp(lo: u64, hi: u64, u: f64) -> u64 {
    let x = (lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln());
    (x.exp().round() as u64).clamp(lo, hi)
}

/// Vertex weights U[1,100] and edge weights U[1,1000]: the defaults of
/// the paper's Figure 2 reproduction.
pub const NODE_W: (u64, u64) = (1, 100);
pub const EDGE_W: (u64, u64) = (1, 1000);

/// A chain (`parent` empty) or a tree (`parent[i]` is the parent of
/// node `i + 1`; edge `i` joins them and weighs `edge_w[i]`).
#[derive(Debug, Clone)]
pub struct Graph {
    pub node_w: Vec<u64>,
    pub edge_w: Vec<u64>,
    pub parent: Vec<u32>,
}

impl Graph {
    pub fn chain(rng: &mut Rng, n: usize, edge_hi: u64) -> Graph {
        Graph {
            node_w: (0..n).map(|_| rng.range(NODE_W.0, NODE_W.1)).collect(),
            edge_w: (1..n).map(|_| rng.range(EDGE_W.0, edge_hi)).collect(),
            parent: Vec::new(),
        }
    }

    /// A random recursive tree: node `i` hangs off a uniform earlier node.
    pub fn tree(rng: &mut Rng, n: usize) -> Graph {
        Graph {
            node_w: (0..n).map(|_| rng.range(NODE_W.0, NODE_W.1)).collect(),
            edge_w: (1..n).map(|_| rng.range(EDGE_W.0, EDGE_W.1)).collect(),
            parent: (1..n).map(|i| rng.range(0, i as u64 - 1) as u32).collect(),
        }
    }

    pub fn is_tree(&self) -> bool {
        !self.parent.is_empty()
    }

    /// The graph object in `style`.
    pub fn render(&self, style: Style) -> String {
        let (sep, colon) = style.separators();
        let list = |out: &mut String, xs: &[u64]| {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                write!(out, "{x}").expect("write to String");
            }
            out.push(']');
        };
        let mut nodes = String::with_capacity(self.node_w.len() * 4);
        list(&mut nodes, &self.node_w);
        let mut edges = String::with_capacity(self.edge_w.len() * 36);
        if self.is_tree() {
            edges.push('[');
            for (i, w) in self.edge_w.iter().enumerate() {
                if i > 0 {
                    edges.push_str(sep);
                }
                write!(
                    edges,
                    "{{\"a\"{colon}{}{sep}\"b\"{colon}{}{sep}\"weight\"{colon}{w}}}",
                    self.parent[i],
                    i + 1
                )
                .expect("write to String");
            }
            edges.push(']');
        } else {
            list(&mut edges, &self.edge_w);
        }
        let edge_key = if self.is_tree() {
            "edges"
        } else {
            "edge_weights"
        };
        match style {
            Style::Serde => format!("{{\"node_weights\":{nodes},\"{edge_key}\":{edges}}}"),
            // Sorted keys: "edge_weights" and "edges" both sort before
            // "node_weights".
            Style::Python => format!("{{\"{edge_key}\": {edges}, \"node_weights\": {nodes}}}"),
        }
    }
}

/// How a client encodes a request body. Half the traffic is each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// `serde_json` with struct field order: `objective` first, compact.
    Serde,
    /// Python `json.dumps(sort_keys=True)`: sorted keys, `", "` and
    /// `": "` separators. `objective` sorts last.
    Python,
}

impl Style {
    pub fn of(index: u64) -> Style {
        if index.is_multiple_of(2) {
            Style::Serde
        } else {
            Style::Python
        }
    }

    fn separators(self) -> (&'static str, &'static str) {
        match self {
            Style::Serde => (",", ":"),
            Style::Python => (", ", ": "),
        }
    }

    /// The body text around a pre-rendered graph object:
    /// `prefix + graph + suffix` is the whole request body.
    pub fn wrap(self, objective: &str, bound: u64) -> (String, String) {
        match self {
            Style::Serde => (
                format!("{{\"objective\":\"{objective}\",\"bound\":{bound},\"graph\":"),
                "}".to_string(),
            ),
            Style::Python => (
                format!("{{\"bound\": {bound}, \"graph\": "),
                format!(", \"objective\": \"{objective}\"}}"),
            ),
        }
    }

    /// A session solve body (no graph: the server holds it).
    pub fn session_solve(self, objective: &str, bound: u64) -> String {
        match self {
            Style::Serde => format!("{{\"objective\":\"{objective}\",\"bound\":{bound}}}"),
            Style::Python => format!("{{\"bound\": {bound}, \"objective\": \"{objective}\"}}"),
        }
    }
}

/// One HTTP request as the generator sends it: method, path and the
/// body in parts (so a large graph is written without being copied).
#[derive(Debug, Clone)]
pub struct Req<'a> {
    pub method: &'static str,
    pub path: String,
    pub parts: [&'a [u8]; 3],
}

impl Req<'_> {
    pub fn body_len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// The full request bytes, exactly as written to the socket.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = head(self.method, &self.path, self.body_len()).into_bytes();
        for part in self.parts {
            out.extend_from_slice(part);
        }
        out
    }
}

pub fn head(method: &str, path: &str, body_len: usize) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {body_len}\r\n\r\n"
    )
}

// ---------------------------------------------------------------- small-mix

/// Six bound objectives: three flat-path (bandwidth, lexicographic,
/// bottleneck) and three legacy-path (nicol, procmin, compose).
pub const SMALL_OBJECTIVES: [(&str, bool); 6] = [
    ("bandwidth", false),
    ("lexicographic", false),
    ("nicol", false),
    ("bottleneck", true),
    ("procmin", true),
    ("compose", true),
];
/// Bodies every op may repeat; sent once during warm-up.
pub const SMALL_HOT: usize = 256;
/// Bodies cycled through without repeats in cache reach: each caller
/// walks its own half, and the 8 MiB server cache holds far fewer.
pub const SMALL_COLD: usize = 4096;

/// The finite small-mix body set: `SMALL_HOT` hot bodies, then
/// `SMALL_COLD` cold ones. Sizes (log-scale 64..1024 nodes) and bounds
/// (log-scale 150..5000) follow golden-ratio and √2 rotations from a
/// seeded start, so every seed's hot set covers both ranges evenly and
/// the work per op does not swing with the seed.
pub fn small_bodies(seed: u64) -> Vec<(&'static str, String)> {
    let start = Rng::derive(seed, 0x5200).unit();
    (0..(SMALL_HOT + SMALL_COLD) as u64)
        .map(|i| {
            let mut rng = Rng::derive(seed, 0x5000_0000 + i);
            let (objective, tree) = SMALL_OBJECTIVES[(i % 6) as usize];
            let n = log_lerp(64, 1024, (start + i as f64 * 0.618_033_988_75).fract()) as usize;
            let graph = if tree {
                Graph::tree(&mut rng, n)
            } else {
                Graph::chain(&mut rng, n, EDGE_W.1)
            };
            let bound = log_lerp(150, 5000, (start + i as f64 * 0.414_213_562_37).fract());
            let style = Style::of(i / 6);
            let (prefix, suffix) = style.wrap(objective, bound);
            (
                objective,
                format!("{prefix}{}{suffix}", graph.render(style)),
            )
        })
        .collect()
}

/// Caller `caller`'s small-mix op sequence: body indices. Half the
/// ops repeat a hot body; the rest walk the caller's half of the cold
/// bodies in order.
#[derive(Debug, Clone)]
pub struct SmallOps {
    rng: Rng,
    caller: usize,
    cold_next: usize,
}

impl SmallOps {
    pub fn new(seed: u64, caller: usize) -> SmallOps {
        SmallOps {
            rng: Rng::derive(seed, 0x5100 + caller as u64),
            caller,
            cold_next: 0,
        }
    }
}

impl Iterator for SmallOps {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.rng.coin() {
            return Some(self.rng.range(0, SMALL_HOT as u64 - 1) as usize);
        }
        let slot = self.cold_next % (SMALL_COLD / 2);
        self.cold_next += 1;
        Some(SMALL_HOT + 2 * slot + self.caller)
    }
}

// -------------------------------------------------------------- large-solve

pub const LARGE_NODES: usize = 100_000;
/// Distinct graphs per shape; each is sent in both styles.
pub const LARGE_GRAPHS: usize = 8;
/// One round of large-solve ops. Bandwidth (the paper's headline
/// solver) gets three slots; procmin, which pays the JSON-tree parse on
/// a 3 MB body, gets one, so enough ops finish for a stable p99.
pub const LARGE_ROUND: [(&str, bool); 8] = [
    ("bandwidth", false),
    ("lexicographic", false),
    ("bottleneck", true),
    ("bandwidth", false),
    ("procmin", true),
    ("bandwidth", false),
    ("lexicographic", false),
    ("bottleneck", true),
];
/// `--graph-spill-bytes` for large-solve. A 100k-node chain is about
/// 0.68 MB in `Serde` style and 0.88 MB in `Python` style, and a tree
/// is over 3 MB in either, so half the chain bodies and every tree
/// body (11 of 16) are above it: their flat ingest is disk-backed
/// (`DiskVec`).
pub const LARGE_SPILL_BYTES: u64 = 786_432;

/// The large-solve graph pool: chains then trees, each rendered in
/// both styles (`[serde, python]`).
pub struct LargePool {
    pub chains: Vec<[String; 2]>,
    pub trees: Vec<[String; 2]>,
    /// The chains themselves, for the Figure 2 ratio.
    pub chain_graphs: Vec<Graph>,
}

impl LargePool {
    pub fn generate(seed: u64) -> LargePool {
        let render = |g: &Graph| [g.render(Style::Serde), g.render(Style::Python)];
        let chain_graphs: Vec<Graph> = (0..LARGE_GRAPHS as u64)
            .map(|i| Graph::chain(&mut Rng::derive(seed, 0x6000 + i), LARGE_NODES, EDGE_W.1))
            .collect();
        let tree_graphs: Vec<Graph> = (0..LARGE_GRAPHS as u64)
            .map(|i| Graph::tree(&mut Rng::derive(seed, 0x6100 + i), LARGE_NODES))
            .collect();
        LargePool {
            chains: chain_graphs.iter().map(render).collect(),
            trees: tree_graphs.iter().map(render).collect(),
            chain_graphs,
        }
    }
}

/// One large-solve op: which graph, in which style, under which
/// objective and bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LargeOp {
    pub objective: &'static str,
    pub tree: bool,
    pub graph: usize,
    pub style: Style,
    pub bound: u64,
}

impl LargeOp {
    /// Op `k` of caller `caller`. Each round of eight ops walks
    /// `LARGE_ROUND` on one chain and one tree in one style; styles
    /// alternate by round.
    ///
    /// The bound steps through 200..20200 by a golden-ratio stride, so
    /// any stretch of ops covers the range evenly (the cost of an op
    /// moves with its bound). The step index is unique per
    /// (graph, caller, slot, visit), so no (graph, objective, bound)
    /// triple repeats and every op misses the cache.
    pub fn nth(seed: u64, caller: usize, k: u64) -> LargeOp {
        let graphs = LARGE_GRAPHS as u64;
        let slot = k % 8;
        let round = k / 8;
        let g = (round + caller as u64 * (graphs / 2)) % graphs;
        // Visits of this caller to graph `g` so far; unique below 1250.
        let visit = round / graphs;
        let step = (caller as u64 * 8 + slot) * 1_250 + visit;
        let (objective, tree) = LARGE_ROUND[slot as usize];
        LargeOp {
            objective,
            tree,
            graph: g as usize,
            style: Style::of(round),
            // 12_361 / 20_000 ≈ 0.618, and is coprime to 20_000.
            bound: 200 + (step * 12_361 + seed.wrapping_mul(0x9E37_79B9)) % 20_000,
        }
    }

    pub fn graph_text<'p>(&self, pool: &'p LargePool) -> &'p str {
        let both = if self.tree {
            &pool.trees[self.graph]
        } else {
            &pool.chains[self.graph]
        };
        match self.style {
            Style::Serde => &both[0],
            Style::Python => &both[1],
        }
    }
}

// ------------------------------------------------------------- session-tune

pub const SESSION_NODES: usize = 100_000;
pub const SESSION_BATCH: usize = 16;
/// Every `SESSION_STRUCTURAL`-th batch adds and removes a leaf, which
/// invalidates the warm window and forces a cold re-solve.
pub const SESSION_STRUCTURAL: u64 = 8;
/// Edge weights span 1..=2^24, as in the §SESS experiment: wide enough
/// that a small drift window certifies a warm re-solve.
pub const SESSION_EDGE_HI: u64 = 1 << 24;
/// The resident chains are the same for every seed: a tuning loop
/// works on one application graph, and the seed picks the edit stream.
/// Seeded chains made the cost per op swing by a third between seeds:
/// a warm re-solve's probes stop where the chain first becomes
/// infeasible, and how many candidates sit near the optimum, both vary
/// from chain to chain.
const SESSION_GRAPH_SEED: u64 = 0x5E55_1011;

/// Each caller's lexicographic bound.
const SESSION_BOUNDS: [u64; 2] = [4_000, 12_000];

/// Each caller's resident chain and its lexicographic bound.
pub fn session_graph(caller: usize) -> (Graph, u64) {
    let mut rng = Rng::derive(SESSION_GRAPH_SEED, 0x7000 + caller as u64);
    let graph = Graph::chain(&mut rng, SESSION_NODES, SESSION_EDGE_HI);
    (graph, SESSION_BOUNDS[caller % SESSION_BOUNDS.len()])
}

/// One edit, as sent and as mirrored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    EdgeWeight { index: usize, weight: u64 },
    AddLeaf { node_weight: u64, edge_weight: u64 },
    RemoveLeaf,
}

/// Batch `k` of caller `caller` against the caller's current mirror:
/// 16 edge-weight nudges of at most 4, or, every eighth batch, 14
/// nudges plus one leaf added and removed again.
pub fn session_batch(seed: u64, caller: usize, k: u64, edge_w: &[u64]) -> Vec<Edit> {
    let mut rng = Rng::derive(seed, 0x7100 + ((caller as u64) << 32) + k);
    let structural = k % SESSION_STRUCTURAL == SESSION_STRUCTURAL - 1;
    let nudges = if structural {
        SESSION_BATCH - 2
    } else {
        SESSION_BATCH
    };
    let mut edits: Vec<Edit> = (0..nudges)
        .map(|_| {
            let index = rng.range(0, edge_w.len() as u64 - 1) as usize;
            let delta = rng.range(1, 4);
            let old = edge_w[index];
            let weight = if rng.coin() {
                (old + delta).min(SESSION_EDGE_HI)
            } else {
                old.saturating_sub(delta).max(1)
            };
            Edit::EdgeWeight { index, weight }
        })
        .collect();
    if structural {
        edits.push(Edit::AddLeaf {
            node_weight: rng.range(NODE_W.0, NODE_W.1),
            edge_weight: rng.range(1, SESSION_EDGE_HI),
        });
        edits.push(Edit::RemoveLeaf);
    }
    edits
}

/// The `PATCH` body for a batch.
pub fn patch_body(version: u64, edits: &[Edit]) -> String {
    let mut out = format!("{{\"version\":{version},\"edits\":[");
    for (i, edit) in edits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match *edit {
            Edit::EdgeWeight { index, weight } => write!(
                out,
                "{{\"op\":\"edge_weight\",\"index\":{index},\"weight\":{weight}}}"
            ),
            Edit::AddLeaf {
                node_weight,
                edge_weight,
            } => write!(
                out,
                "{{\"op\":\"add_leaf\",\"node_weight\":{node_weight},\"edge_weight\":{edge_weight}}}"
            ),
            Edit::RemoveLeaf => write!(out, "{{\"op\":\"remove_leaf\"}}"),
        }
        .expect("write to String");
    }
    out.push_str("]}");
    out
}

/// Applies an acknowledged batch to the client-side mirror.
pub fn mirror_apply(graph: &mut Graph, edits: &[Edit]) {
    for edit in edits {
        match *edit {
            Edit::EdgeWeight { index, weight } => graph.edge_w[index] = weight,
            Edit::AddLeaf {
                node_weight,
                edge_weight,
            } => {
                graph.node_w.push(node_weight);
                graph.edge_w.push(edge_weight);
            }
            Edit::RemoveLeaf => {
                graph.node_w.pop();
                graph.edge_w.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_ops_never_repeat_a_cache_key() {
        let mut seen = std::collections::HashSet::new();
        for caller in 0..2 {
            for k in 0..60_000 {
                let op = LargeOp::nth(7, caller, k);
                assert!(seen.insert((op.objective, op.graph, op.bound)), "{op:?}");
            }
        }
    }

    #[test]
    fn styles_render_valid_json() {
        let mut rng = Rng::derive(1, 2);
        for graph in [Graph::chain(&mut rng, 5, 1000), Graph::tree(&mut rng, 5)] {
            for style in [Style::Serde, Style::Python] {
                let (prefix, suffix) = style.wrap("bandwidth", 9);
                let body = format!("{prefix}{}{suffix}", graph.render(style));
                tgp_graph::json::Value::parse(&body).expect("valid JSON");
            }
        }
    }
}
