//! The resident-graph store: versioned graphs, edit batches, delta
//! baselines and the byte budget.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tgp_graph::json::{FromJson, Value};
use tgp_graph::{json, ChainView, PathGraph, Tree, TreeView};

use crate::journal::{self, Journal};

/// Magic of the session journal file (see [`crate::journal`]). Payloads
/// are compact JSON operation objects: `register`, `patch` and `delete`
/// (appended live, *before* the mutation is acknowledged) and
/// `snapshot` (written whole at compaction).
const JOURNAL_MAGIC: &[u8; 8] = b"TGPSESSJ";

/// Decodes one session journal payload; `None` ends the replay.
fn decode_op(payload: &[u8]) -> Option<Value> {
    Value::parse(std::str::from_utf8(payload).ok()?).ok()
}

/// Default resident-byte budget: enough for a few hundred 100k-node
/// chains, small enough that a misbehaving client cannot pin the heap.
pub const DEFAULT_SESSION_BUDGET: u64 = 256 << 20;

/// A session-layer failure, mapped onto the service's error envelope.
#[derive(Debug)]
pub enum SessionError {
    /// No resident graph under that id (never registered, or deleted).
    NotFound { id: String },
    /// The edit batch named a version that is no longer current.
    VersionConflict {
        id: String,
        expected: u64,
        actual: u64,
    },
    /// Registering or growing the graph would exceed the byte budget.
    BudgetExceeded { requested: u64, budget: u64 },
    /// The registered graph body is not a valid chain or tree.
    InvalidGraph { message: String },
    /// An edit in the batch is malformed or names a nonexistent target.
    InvalidEdit { message: String },
}

impl SessionError {
    /// The stable error code for the `{"error", "code"}` envelope.
    pub fn code(&self) -> &'static str {
        match self {
            SessionError::NotFound { .. } => "session_not_found",
            SessionError::VersionConflict { .. } => "version_conflict",
            SessionError::BudgetExceeded { .. } => "session_budget_exceeded",
            SessionError::InvalidGraph { .. } => "invalid_graph",
            SessionError::InvalidEdit { .. } => "invalid_edit",
        }
    }

    /// The HTTP status the service maps this error to.
    pub fn status(&self) -> u16 {
        match self {
            SessionError::NotFound { .. } => 404,
            SessionError::VersionConflict { .. } => 409,
            SessionError::BudgetExceeded { .. } => 413,
            SessionError::InvalidGraph { .. } | SessionError::InvalidEdit { .. } => 422,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NotFound { id } => write!(f, "no session graph with id {id:?}"),
            SessionError::VersionConflict {
                id,
                expected,
                actual,
            } => write!(
                f,
                "version conflict on {id:?}: batch targets version {expected}, \
                 graph is at version {actual}"
            ),
            SessionError::BudgetExceeded { requested, budget } => write!(
                f,
                "resident graphs would occupy {requested} bytes, exceeding the \
                 session budget of {budget}"
            ),
            SessionError::InvalidGraph { message } => write!(f, "invalid graph: {message}"),
            SessionError::InvalidEdit { message } => write!(f, "invalid edit: {message}"),
        }
    }
}

impl std::error::Error for SessionError {}

fn invalid_edit(message: impl Into<String>) -> SessionError {
    SessionError::InvalidEdit {
        message: message.into(),
    }
}

/// The graph class a resident graph was registered as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// `{"node_weights", "edge_weights"}` — a linear task graph.
    Chain,
    /// `{"node_weights", "edges"}` — a tree task graph.
    Tree,
}

impl GraphKind {
    /// The kind's wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            GraphKind::Chain => "chain",
            GraphKind::Tree => "tree",
        }
    }
}

/// One edit in a `PATCH` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Set node `index`'s weight.
    VertexWeight { index: usize, weight: u64 },
    /// Set edge `index`'s weight (chain: position in `edge_weights`;
    /// tree: position in `edges`).
    EdgeWeight { index: usize, weight: u64 },
    /// Append a new leaf node. Chains extend at the tail; trees attach
    /// the new node to `attach`.
    AddLeaf {
        attach: Option<usize>,
        node_weight: u64,
        edge_weight: u64,
    },
    /// Remove the highest-indexed node, which must be a leaf, along
    /// with its incident edge.
    RemoveLeaf,
}

impl Edit {
    /// Parses one edit object; rejects unknown ops and undeclared fields.
    pub fn from_json(value: &Value) -> Result<Edit, SessionError> {
        let Some(entries) = value.as_object() else {
            return Err(invalid_edit("each edit must be an object"));
        };
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid_edit("edit is missing the \"op\" string"))?;
        let allowed: &[&str] = match op {
            "vertex_weight" | "edge_weight" => &["op", "index", "weight"],
            "add_leaf" => &["op", "attach", "node_weight", "edge_weight"],
            "remove_leaf" => &["op"],
            other => {
                return Err(invalid_edit(format!(
                    "unknown op {other:?}; expected vertex_weight, edge_weight, \
                     add_leaf or remove_leaf"
                )))
            }
        };
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(invalid_edit(format!("op {op:?} has no field {key:?}")));
            }
        }
        let u64_field = |field: &str| {
            value.get(field).and_then(Value::as_u64).ok_or_else(|| {
                invalid_edit(format!(
                    "op {op:?} needs {field:?} as a non-negative integer"
                ))
            })
        };
        let index_field = |field: &str| {
            u64_field(field).and_then(|v| {
                usize::try_from(v)
                    .map_err(|_| invalid_edit(format!("{field:?} {v} is out of range")))
            })
        };
        match op {
            "vertex_weight" => Ok(Edit::VertexWeight {
                index: index_field("index")?,
                weight: u64_field("weight")?,
            }),
            "edge_weight" => Ok(Edit::EdgeWeight {
                index: index_field("index")?,
                weight: u64_field("weight")?,
            }),
            "add_leaf" => Ok(Edit::AddLeaf {
                attach: match value.get("attach") {
                    None => None,
                    Some(_) => Some(index_field("attach")?),
                },
                node_weight: u64_field("node_weight")?,
                edge_weight: u64_field("edge_weight")?,
            }),
            "remove_leaf" => Ok(Edit::RemoveLeaf),
            _ => unreachable!("op checked above"),
        }
    }

    /// Parses a `PATCH` batch's `"edits"` array.
    pub fn batch_from_json(value: &Value) -> Result<Vec<Edit>, SessionError> {
        let Some(items) = value.as_array() else {
            return Err(invalid_edit("\"edits\" must be an array of edit objects"));
        };
        items.iter().map(Edit::from_json).collect()
    }

    /// The edit's canonical wire form (what the journal records).
    pub fn to_json(&self) -> Value {
        match self {
            Edit::VertexWeight { index, weight } => json!({
                "op": "vertex_weight", "index": *index as u64, "weight": *weight,
            }),
            Edit::EdgeWeight { index, weight } => json!({
                "op": "edge_weight", "index": *index as u64, "weight": *weight,
            }),
            Edit::AddLeaf {
                attach,
                node_weight,
                edge_weight,
            } => match attach {
                Some(a) => json!({
                    "op": "add_leaf", "attach": *a as u64,
                    "node_weight": *node_weight, "edge_weight": *edge_weight,
                }),
                None => json!({
                    "op": "add_leaf",
                    "node_weight": *node_weight, "edge_weight": *edge_weight,
                }),
            },
            Edit::RemoveLeaf => json!({ "op": "remove_leaf" }),
        }
    }
}

/// One resident graph: the mutable JSON body, its version, and the
/// delta baselines of its solves.
#[derive(Debug)]
pub struct Resident {
    /// The graph's kind, fixed at registration.
    pub kind: GraphKind,
    /// The graph object (`node_weights` + `edge_weights`/`edges`),
    /// mutated in place by edit batches. Public so the service can move
    /// it into a dispatch request without cloning; callers that take it
    /// must put it back before releasing the lock.
    pub graph: Value,
    /// Monotonic version: 1 at registration, +1 per applied batch.
    pub version: u64,
    /// Current node count.
    pub nodes: usize,
    /// Current edge count.
    pub edges: usize,
    /// The last full response per `(objective, params)` key, which a
    /// `"response": "delta"` solve diffs against; each charged to the
    /// store's byte budget (see [`SessionStore::replace_baseline`]).
    baselines: Vec<(Vec<u8>, String)>,
    /// Set by a delete, so that a solve or an edit batch that looked
    /// the graph up before it went can neither charge a baseline to it
    /// nor edit it.
    deleted: bool,
    /// The graph's shape as `info` and `list` report it, republished
    /// after every change.
    listing: Listing,
}

/// A graph's shape, as `GET /v1/graphs` reports it.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: GraphKind,
    version: u64,
    nodes: usize,
    edges: usize,
}

impl Shape {
    /// The `GET /v1/graphs/<id>` metadata body.
    fn info(&self, id: &str) -> Value {
        json!({
            "id": id,
            "version": self.version,
            "kind": self.kind.as_str(),
            "nodes": self.nodes as u64,
            "edges": self.edges as u64,
            "bytes": resident_cost(self.kind, self.nodes, self.edges),
        })
    }
}

/// A resident graph's [`Shape`], published beside it so that `info` and
/// `list` never wait for a solve that holds the graph; `None` once the
/// graph is deleted. A leaf lock: held only to copy a shape in or out.
type Listing = Arc<Mutex<Option<Shape>>>;

/// A resident graph and its published shape.
#[derive(Debug)]
struct Entry {
    resident: Arc<Mutex<Resident>>,
    listing: Listing,
}

impl Entry {
    fn new(resident: Resident) -> Self {
        Entry {
            listing: Arc::clone(&resident.listing),
            resident: Arc::new(Mutex::new(resident)),
        }
    }
}

impl Resident {
    /// The graph's deterministic resident-size estimate — the figure
    /// the store's byte budget charges for it. The service compares
    /// this against `--graph-spill-bytes` to decide whether a solve on
    /// this graph should run out-of-core (disk-backed flat arrays).
    pub fn resident_bytes(&self) -> u64 {
        resident_cost(self.kind, self.nodes, self.edges)
    }

    /// Always `None`: session re-solves have no warm start. Kept only
    /// for the benchmark's frozen replay (`perfbench/src/replay.rs`),
    /// which then solves cold.
    pub fn warm_window(&self, key: &[u8]) -> Option<(u64, u64)> {
        let _ = key;
        None
    }

    /// Does nothing: there is no warm start to remember a solve for.
    /// Kept only for the benchmark's frozen replay.
    pub fn note_solve(&mut self, key: &[u8], bottleneck: u64) {
        let _ = (key, bottleneck);
    }

    /// Whether a delete has removed the graph: a caller that looked it
    /// up before must answer as if it were not found.
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }

    /// A graph as registered or replayed, its shape published.
    fn new(kind: GraphKind, graph: Value, version: u64, nodes: usize, edges: usize) -> Self {
        let resident = Resident {
            kind,
            graph,
            version,
            nodes,
            edges,
            baselines: Vec::new(),
            deleted: false,
            listing: Listing::default(),
        };
        resident.publish();
        resident
    }

    /// Republishes the graph's shape for `info` and `list`.
    fn publish(&self) {
        let shape = Shape {
            kind: self.kind,
            version: self.version,
            nodes: self.nodes,
            edges: self.edges,
        };
        *self.listing.lock().expect("listing poisoned") = (!self.deleted).then_some(shape);
    }
}

/// Deterministic resident-size estimate: eight bytes per stored scalar
/// (chain edges are one scalar, tree edges are three). The budget is an
/// admission bound on heap growth, not an exact allocator measurement.
fn resident_cost(kind: GraphKind, nodes: usize, edges: usize) -> u64 {
    let scalars = match kind {
        GraphKind::Chain => nodes as u64 + edges as u64,
        GraphKind::Tree => nodes as u64 + 3 * edges as u64,
    };
    8 * scalars
}

/// The bytes a delta baseline charges to the budget: its key and its
/// rendered response.
fn baseline_cost(key: &[u8], rendered: &str) -> u64 {
    (key.len() + rendered.len()) as u64
}

#[derive(Debug, Default)]
struct Inner {
    graphs: HashMap<String, Entry>,
    next_id: u64,
}

/// The store: id-keyed resident graphs behind a byte budget, plus the
/// optional journal that makes them survive restarts.
///
/// Lock order (deadlock freedom): `inner` → any `Resident` → `journal`,
/// and a graph's published listing last (a leaf, held only to copy its
/// shape). No method acquires an earlier lock while holding a later one.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<Inner>,
    journal: Mutex<Option<Journal>>,
    budget: u64,
    resident_bytes: AtomicU64,
    edits_total: AtomicU64,
    solves: AtomicU64,
    journal_records: AtomicU64,
}

impl SessionStore {
    /// An in-memory store (no journal) with the given byte budget.
    pub fn new(budget: u64) -> Self {
        SessionStore {
            inner: Mutex::new(Inner::default()),
            journal: Mutex::new(None),
            budget,
            resident_bytes: AtomicU64::new(0),
            edits_total: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a journal-backed store: replays every intact
    /// record in `path`, truncates any torn tail, and appends new
    /// operations to the same file.
    ///
    /// # Errors
    ///
    /// I/O failures, a foreign or future-versioned file, or a journal
    /// whose replay violates the budget or its own version sequence.
    /// The file is left untouched on error so nothing is destroyed by a
    /// misconfigured restart.
    pub fn with_journal(path: &Path, budget: u64) -> std::io::Result<SessionStore> {
        let store = SessionStore::new(budget);
        let keep_len = match journal::read(path, JOURNAL_MAGIC, decode_op)? {
            None => {
                *store.journal.lock().expect("journal lock poisoned") =
                    Some(Journal::create(path, JOURNAL_MAGIC)?);
                return Ok(store);
            }
            Some(replay) => {
                for record in &replay.records {
                    store.apply_record(record).map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("journal replay failed: {e}"),
                        )
                    })?;
                    store.journal_records.fetch_add(1, Ordering::Relaxed);
                }
                replay.keep_len
            }
        };
        *store.journal.lock().expect("journal lock poisoned") =
            Some(Journal::open_for_append(path, JOURNAL_MAGIC, keep_len)?);
        Ok(store)
    }

    /// Read-only journal inspection: replays `path` into a throwaway
    /// in-memory store — the file is never opened for writing, and a
    /// torn tail is reported rather than truncated — and returns the
    /// graph listing plus journal health fields.
    pub fn inspect(path: &Path) -> std::io::Result<Value> {
        let replay = journal::read(path, JOURNAL_MAGIC, decode_op)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no such session journal")
        })?;
        let store = SessionStore::new(u64::MAX);
        for record in &replay.records {
            store.apply_record(record).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journal replay failed: {e}"),
                )
            })?;
        }
        let mut value = store.list();
        if let Value::Object(entries) = &mut value {
            entries.push((
                "journal_records".to_string(),
                json!(replay.records.len() as u64),
            ));
            entries.push(("truncated_tail".to_string(), json!(replay.truncated)));
            entries.push((
                "resident_bytes".to_string(),
                json!(store.resident_bytes.load(Ordering::Relaxed)),
            ));
        }
        Ok(value)
    }

    /// Replays one journal record into the store (no journal writes).
    fn apply_record(&self, record: &Value) -> Result<(), SessionError> {
        let op = record
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid_edit("journal record has no op"))?;
        let id = || {
            record
                .get("id")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid_edit(format!("journal {op} record has no id")))
        };
        match op {
            "register" => {
                let graph = record
                    .get("graph")
                    .ok_or_else(|| invalid_edit("journal register record has no graph"))?;
                self.insert_graph(id()?, graph.clone(), 1)?;
            }
            "patch" => {
                let id = id()?;
                let version = record
                    .get("version")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| invalid_edit("journal patch record has no version"))?;
                let edits = record
                    .get("edits")
                    .map(Edit::batch_from_json)
                    .transpose()?
                    .ok_or_else(|| invalid_edit("journal patch record has no edits"))?;
                self.apply_parsed(&id, version.saturating_sub(1), &edits, false)?;
            }
            "delete" => {
                self.delete_inner(&id()?, false)?;
            }
            "snapshot" => {
                let graphs = record
                    .get("graphs")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid_edit("journal snapshot record has no graphs"))?;
                for entry in graphs {
                    let id = entry
                        .get("id")
                        .and_then(Value::as_str)
                        .ok_or_else(|| invalid_edit("snapshot entry has no id"))?;
                    let version = entry
                        .get("version")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| invalid_edit("snapshot entry has no version"))?;
                    let graph = entry
                        .get("graph")
                        .ok_or_else(|| invalid_edit("snapshot entry has no graph"))?;
                    self.insert_graph(id.to_string(), graph.clone(), version)?;
                }
                if let Some(next) = record.get("next_id").and_then(Value::as_u64) {
                    let mut inner = self.inner.lock().expect("session store poisoned");
                    inner.next_id = inner.next_id.max(next);
                }
            }
            other => return Err(invalid_edit(format!("unknown journal op {other:?}"))),
        }
        Ok(())
    }

    /// Validates a graph body and returns its kind and shape.
    fn validate_graph(graph: &Value) -> Result<(GraphKind, usize, usize), SessionError> {
        let fail = |message: String| SessionError::InvalidGraph { message };
        if graph.get("edges").is_some() {
            let tree =
                Tree::from_json(graph).map_err(|e| fail(format!("not a valid tree: {e}")))?;
            Ok((GraphKind::Tree, tree.len(), tree.len().saturating_sub(1)))
        } else if graph.get("edge_weights").is_some() {
            let chain =
                PathGraph::from_json(graph).map_err(|e| fail(format!("not a valid chain: {e}")))?;
            Ok((GraphKind::Chain, chain.len(), chain.edge_count()))
        } else {
            Err(fail(
                "expected a chain ({\"node_weights\", \"edge_weights\"}) or a tree \
                 ({\"node_weights\", \"edges\"})"
                    .to_string(),
            ))
        }
    }

    /// Claims `delta` bytes of budget, or fails without changing it.
    fn claim_bytes(&self, delta: u64) -> Result<(), SessionError> {
        self.resident_bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
                let next = current.saturating_add(delta);
                (next <= self.budget).then_some(next)
            })
            .map(|_| ())
            .map_err(|current| SessionError::BudgetExceeded {
                requested: current.saturating_add(delta),
                budget: self.budget,
            })
    }

    fn release_bytes(&self, delta: u64) {
        let mut current = self.resident_bytes.load(Ordering::SeqCst);
        loop {
            let next = current.saturating_sub(delta);
            match self.resident_bytes.compare_exchange(
                current,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Validates and inserts a graph under an explicit id and version
    /// (registration and replay share this path).
    fn insert_graph(
        &self,
        id: String,
        graph: Value,
        version: u64,
    ) -> Result<(GraphKind, usize, usize), SessionError> {
        let (kind, nodes, edges) = Self::validate_graph(&graph)?;
        self.claim_bytes(resident_cost(kind, nodes, edges))?;
        let resident = Resident::new(kind, graph, version, nodes, edges);
        let mut inner = self.inner.lock().expect("session store poisoned");
        if let Some(num) = id.strip_prefix('g').and_then(|n| n.parse::<u64>().ok()) {
            inner.next_id = inner.next_id.max(num);
        }
        inner.graphs.insert(id, Entry::new(resident));
        Ok((kind, nodes, edges))
    }

    /// Registers a graph: validates it, claims budget, journals the
    /// registration, and returns `(id, version 1)`.
    pub fn register(&self, graph: Value) -> Result<(String, u64), SessionError> {
        let (kind, nodes, edges) = Self::validate_graph(&graph)?;
        self.claim_bytes(resident_cost(kind, nodes, edges))?;
        let mut inner = self.inner.lock().expect("session store poisoned");
        inner.next_id += 1;
        let id = format!("g{}", inner.next_id);
        // Write-ahead: the record must be durable in the journal before
        // the registration is acknowledged.
        if let Err(e) = self.journal_append(&format!(
            "{{\"op\":\"register\",\"id\":\"{id}\",\"graph\":{graph}}}"
        )) {
            self.release_bytes(resident_cost(kind, nodes, edges));
            return Err(e);
        }
        let resident = Resident::new(kind, graph, 1, nodes, edges);
        inner.graphs.insert(id.clone(), Entry::new(resident));
        Ok((id, 1))
    }

    /// The resident graph under `id`, for callers that need to hold it
    /// across a solve. Lock it *after* releasing any store-level
    /// borrow, and never call back into the store while holding it.
    pub fn resident(&self, id: &str) -> Result<Arc<Mutex<Resident>>, SessionError> {
        self.inner
            .lock()
            .expect("session store poisoned")
            .graphs
            .get(id)
            .map(|entry| Arc::clone(&entry.resident))
            .ok_or_else(|| SessionError::NotFound { id: id.to_string() })
    }

    /// Graph metadata for `GET /v1/graphs/<id>`, from the published
    /// shape: a solve holding the graph does not hold up the answer.
    pub fn info(&self, id: &str) -> Result<Value, SessionError> {
        let shape = {
            let inner = self.inner.lock().expect("session store poisoned");
            let entry = inner.graphs.get(id);
            entry.and_then(|entry| *entry.listing.lock().expect("listing poisoned"))
        };
        shape
            .map(|shape| shape.info(id))
            .ok_or_else(|| SessionError::NotFound { id: id.to_string() })
    }

    /// Metadata for every resident graph, id-sorted, from the published
    /// shapes: a solve holding a graph does not hold up the listing, and
    /// a graph whose delete is under way is not listed.
    pub fn list(&self) -> Value {
        let mut shapes = self.shapes();
        shapes.sort_by(|(a, _), (b, _)| {
            let num = |s: &str| s.trim_start_matches('g').parse::<u64>().unwrap_or(u64::MAX);
            num(a).cmp(&num(b)).then_with(|| a.cmp(b))
        });
        let graphs: Vec<Value> = shapes.iter().map(|(id, shape)| shape.info(id)).collect();
        json!({ "graphs": graphs })
    }

    /// The published shape of every graph not deleted. A listing is a
    /// leaf lock, so taking it under `inner` keeps the lock order.
    fn shapes(&self) -> Vec<(String, Shape)> {
        let inner = self.inner.lock().expect("session store poisoned");
        inner
            .graphs
            .iter()
            .filter_map(|(id, entry)| {
                let shape = *entry.listing.lock().expect("listing poisoned");
                Some((id.clone(), shape?))
            })
            .collect()
    }

    /// Deletes a graph, releasing its budget and journaling the delete.
    pub fn delete(&self, id: &str) -> Result<(), SessionError> {
        self.delete_inner(id, true)
    }

    /// Deletes `id` without holding the store lock while it waits for
    /// the graph's own lock, which a long solve may hold: lookups,
    /// registrations and listings of other graphs go on meanwhile.
    fn delete_inner(&self, id: &str, journal: bool) -> Result<(), SessionError> {
        let arc = self.resident(id)?;
        // Lock the graph before journaling the delete: an edit batch that
        // looked the graph up first either journals its patch before the
        // delete or finds the graph deleted, so replay never meets a
        // patch of a graph it has already dropped.
        let mut resident = arc.lock().expect("resident graph poisoned");
        if resident.deleted {
            // A concurrent delete got the lock first.
            return Err(SessionError::NotFound { id: id.to_string() });
        }
        if journal {
            self.journal_append(&format!("{{\"op\":\"delete\",\"id\":\"{id}\"}}"))?;
        }
        resident.deleted = true;
        resident.publish();
        let baselines: u64 = resident
            .baselines
            .drain(..)
            .map(|(key, rendered)| baseline_cost(&key, &rendered))
            .sum();
        self.release_bytes(
            resident_cost(resident.kind, resident.nodes, resident.edges) + baselines,
        );
        drop(resident);
        // The graph's lock is released before the store's is taken (the
        // lock order), so the id may have been replaced meanwhile; only
        // this graph's entry is removed.
        let mut inner = self.inner.lock().expect("session store poisoned");
        if inner
            .graphs
            .get(id)
            .is_some_and(|entry| Arc::ptr_eq(&entry.resident, &arc))
        {
            inner.graphs.remove(id);
        }
        Ok(())
    }

    /// Applies one edit batch under an optimistic version check and
    /// returns the new version. The batch is atomic: it is validated in
    /// full against the current graph before any edit is applied, so a
    /// failing batch changes nothing.
    pub fn apply(
        &self,
        id: &str,
        expected_version: u64,
        edits: &[Edit],
    ) -> Result<u64, SessionError> {
        self.apply_parsed(id, expected_version, edits, true)
    }

    fn apply_parsed(
        &self,
        id: &str,
        expected_version: u64,
        edits: &[Edit],
        journal: bool,
    ) -> Result<u64, SessionError> {
        let arc = self.resident(id)?;
        let mut resident = arc.lock().expect("resident graph poisoned");
        if resident.deleted {
            return Err(SessionError::NotFound { id: id.to_string() });
        }
        if resident.version != expected_version {
            return Err(SessionError::VersionConflict {
                id: id.to_string(),
                expected: expected_version,
                actual: resident.version,
            });
        }
        let byte_delta = validate_batch(&resident, edits)?;
        if byte_delta > 0 {
            self.claim_bytes(byte_delta as u64)?;
        }
        if journal {
            let rendered: Vec<String> = edits.iter().map(|e| e.to_json().to_string()).collect();
            let record = format!(
                "{{\"op\":\"patch\",\"id\":\"{id}\",\"version\":{},\"edits\":[{}]}}",
                resident.version + 1,
                rendered.join(",")
            );
            if let Err(e) = self.journal_append(&record) {
                if byte_delta > 0 {
                    self.release_bytes(byte_delta as u64);
                }
                return Err(e);
            }
        }
        apply_batch(&mut resident, edits);
        if byte_delta < 0 {
            self.release_bytes(byte_delta.unsigned_abs());
        }
        resident.version += 1;
        resident.publish();
        self.edits_total
            .fetch_add(edits.len() as u64, Ordering::Relaxed);
        Ok(resident.version)
    }

    fn journal_append(&self, payload: &str) -> Result<(), SessionError> {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        if let Some(journal) = journal.as_mut() {
            journal
                .append(payload.as_bytes())
                .map_err(|e| SessionError::InvalidEdit {
                    message: format!("journal write failed: {e}"),
                })?;
            self.journal_records.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Rewrites the journal as one snapshot of the current state.
    /// Intended for graceful shutdown (the server calls it after the
    /// workers have drained); it takes every resident lock, so it must
    /// not race in-flight solves for liveness reasons alone —
    /// correctness is protected by the locks.
    pub fn compact(&self) -> std::io::Result<()> {
        let inner = self.inner.lock().expect("session store poisoned");
        let mut ids: Vec<&String> = inner.graphs.keys().collect();
        ids.sort();
        // A graph whose delete is under way is journaled as deleted
        // already, so the snapshot leaves it out.
        let guards: Vec<(&String, MutexGuard<'_, Resident>)> = ids
            .iter()
            .map(|id| {
                (
                    *id,
                    inner.graphs[*id]
                        .resident
                        .lock()
                        .expect("resident graph poisoned"),
                )
            })
            .filter(|(_, resident)| !resident.deleted)
            .collect();
        let entries: Vec<String> = guards
            .iter()
            .map(|(id, r)| {
                format!(
                    "{{\"id\":\"{id}\",\"version\":{},\"graph\":{}}}",
                    r.version, r.graph
                )
            })
            .collect();
        let payload = format!(
            "{{\"op\":\"snapshot\",\"next_id\":{},\"graphs\":[{}]}}",
            inner.next_id,
            entries.join(",")
        );
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        if let Some(journal) = journal.as_mut() {
            journal.rewrite(&[payload])?;
            self.journal_records.store(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Number of resident graphs.
    pub fn open_count(&self) -> usize {
        self.inner
            .lock()
            .expect("session store poisoned")
            .graphs
            .len()
    }

    /// Total edits applied since start (replay included).
    pub fn edits_total(&self) -> u64 {
        self.edits_total.load(Ordering::Relaxed)
    }

    /// Counts a session solve.
    pub fn record_solve(&self) {
        self.solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Keeps `rendered`, a solve's full response, as `resident`'s delta
    /// baseline under `key`, and returns the baseline it replaces. The
    /// replaced baseline's bytes are released and the new one's are
    /// claimed from the byte budget; a baseline that does not fit, or
    /// whose graph was deleted, is not kept, so the next delta solve
    /// under `key` answers in full.
    pub fn replace_baseline(
        &self,
        resident: &mut Resident,
        key: Vec<u8>,
        rendered: String,
    ) -> Option<String> {
        let position = resident.baselines.iter().position(|(k, _)| *k == key);
        let previous = position.map(|i| resident.baselines.swap_remove(i).1);
        if let Some(previous) = &previous {
            self.release_bytes(baseline_cost(&key, previous));
        }
        if !resident.deleted && self.claim_bytes(baseline_cost(&key, &rendered)).is_ok() {
            resident.baselines.push((key, rendered));
        }
        previous
    }

    /// Appends the store's Prometheus series to a `/metrics` body.
    pub fn render_metrics(&self, out: &mut String) {
        out.push_str("# HELP tgp_sessions_open Resident session graphs.\n");
        out.push_str("# TYPE tgp_sessions_open gauge\n");
        out.push_str(&format!("tgp_sessions_open {}\n", self.open_count()));
        out.push_str(
            "# HELP tgp_session_resident_bytes Estimated bytes held by resident graphs \
             and their delta baselines.\n",
        );
        out.push_str("# TYPE tgp_session_resident_bytes gauge\n");
        out.push_str(&format!(
            "tgp_session_resident_bytes {}\n",
            self.resident_bytes.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP tgp_session_edits_total Edits applied to session graphs.\n");
        out.push_str("# TYPE tgp_session_edits_total counter\n");
        out.push_str(&format!("tgp_session_edits_total {}\n", self.edits_total()));
        out.push_str("# HELP tgp_session_solves_total Session partition solves.\n");
        out.push_str("# TYPE tgp_session_solves_total counter\n");
        out.push_str(&format!(
            "tgp_session_solves_total {}\n",
            self.solves.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP tgp_session_journal_records_total Records in the session journal.\n");
        out.push_str("# TYPE tgp_session_journal_records_total counter\n");
        out.push_str(&format!(
            "tgp_session_journal_records_total {}\n",
            self.journal_records.load(Ordering::Relaxed)
        ));
    }

    /// The journal path, if this store persists.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .as_ref()
            .map(|journal| journal.path().to_path_buf())
    }
}

/// Looks up the mutable array under `key` in a validated graph object.
fn array_mut<'v>(graph: &'v mut Value, key: &str) -> &'v mut Vec<Value> {
    let Value::Object(entries) = graph else {
        unreachable!("validated graph is an object")
    };
    // Duplicate keys resolve to the last occurrence, matching
    // `Value::get`.
    let slot = entries
        .iter_mut()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .expect("validated graph has the field");
    let Value::Array(items) = slot else {
        unreachable!("validated graph field is an array")
    };
    items
}

/// The edge array endpoints `(a, b)` of tree edge `index`.
fn tree_edge_nodes(graph: &Value, index: usize) -> Option<(u64, u64)> {
    let edge = graph.get("edges")?.as_array()?.get(index)?;
    Some((edge.get("a")?.as_u64()?, edge.get("b")?.as_u64()?))
}

/// Validates a batch against the resident graph, simulating node/edge
/// counts so later edits see earlier ones, and returns the batch's
/// resident-byte change (leaf adds grow, removes shrink). Read-only, so
/// a failing batch leaves the graph untouched.
fn validate_batch(resident: &Resident, edits: &[Edit]) -> Result<i64, SessionError> {
    let mut nodes = resident.nodes;
    let mut edges = resident.edges;
    let mut byte_delta = 0i64;
    let mut grew = false;
    let per_leaf =
        resident_cost(resident.kind, 2, 1) as i64 - resident_cost(resident.kind, 1, 0) as i64;
    for (position, edit) in edits.iter().enumerate() {
        let fail = |message: String| Err(invalid_edit(format!("edit {position}: {message}")));
        match edit {
            Edit::VertexWeight { index, .. } => {
                if *index >= nodes {
                    return fail(format!("vertex index {index} out of range (n = {nodes})"));
                }
            }
            Edit::EdgeWeight { index, .. } => {
                if *index >= edges {
                    return fail(format!("edge index {index} out of range (m = {edges})"));
                }
            }
            Edit::AddLeaf { attach, .. } => {
                match resident.kind {
                    GraphKind::Chain => {
                        if attach.is_some() {
                            return fail(
                                "chains grow at the tail; \"attach\" is not accepted".to_string(),
                            );
                        }
                    }
                    GraphKind::Tree => {
                        let Some(attach) = attach else {
                            return fail("tree add_leaf needs \"attach\"".to_string());
                        };
                        if *attach >= nodes {
                            return fail(format!(
                                "attach node {attach} out of range (n = {nodes})"
                            ));
                        }
                    }
                }
                nodes += 1;
                edges += 1;
                grew = true;
                byte_delta += per_leaf;
            }
            Edit::RemoveLeaf => {
                if nodes <= 1 {
                    return fail("cannot remove the last node".to_string());
                }
                if resident.kind == GraphKind::Tree {
                    // The removed node is always the highest-indexed
                    // one; it must be a leaf *now*. Nodes added earlier
                    // in this batch are invisible to the resident graph,
                    // so their degrees cannot be checked read-only and
                    // add-then-remove mixes are refused. Earlier removes
                    // are fine: they only ever drop the tail, so the
                    // surviving edges are exactly those with both
                    // endpoints below the simulated node count.
                    if grew {
                        return fail("remove_leaf cannot follow add_leaf in one batch".to_string());
                    }
                    let last = (nodes - 1) as u64;
                    let degree = (0..resident.edges)
                        .filter_map(|i| tree_edge_nodes(&resident.graph, i))
                        .filter(|(a, b)| *a < nodes as u64 && *b < nodes as u64)
                        .filter(|(a, b)| *a == last || *b == last)
                        .count();
                    if degree != 1 {
                        return fail(format!(
                            "node {last} has degree {degree}; only leaves can be removed"
                        ));
                    }
                }
                nodes -= 1;
                edges -= 1;
                byte_delta -= per_leaf;
            }
        }
    }
    Ok(byte_delta)
}

/// Applies a validated batch in place.
fn apply_batch(resident: &mut Resident, edits: &[Edit]) {
    for edit in edits {
        match edit {
            Edit::VertexWeight { index, weight } => {
                array_mut(&mut resident.graph, "node_weights")[*index] = Value::from(*weight);
            }
            Edit::EdgeWeight { index, weight } => match resident.kind {
                GraphKind::Chain => {
                    array_mut(&mut resident.graph, "edge_weights")[*index] = Value::from(*weight);
                }
                GraphKind::Tree => {
                    let edge = &mut array_mut(&mut resident.graph, "edges")[*index];
                    let Value::Object(fields) = edge else {
                        unreachable!("validated tree edge is an object")
                    };
                    let slot = fields
                        .iter_mut()
                        .rev()
                        .find(|(k, _)| k == "weight")
                        .map(|(_, v)| v)
                        .expect("validated tree edge has a weight");
                    *slot = Value::from(*weight);
                }
            },
            Edit::AddLeaf {
                attach,
                node_weight,
                edge_weight,
            } => {
                let new_index = resident.nodes as u64;
                array_mut(&mut resident.graph, "node_weights").push(Value::from(*node_weight));
                match resident.kind {
                    GraphKind::Chain => {
                        array_mut(&mut resident.graph, "edge_weights")
                            .push(Value::from(*edge_weight));
                    }
                    GraphKind::Tree => {
                        let attach = attach.expect("validated tree add_leaf has attach") as u64;
                        array_mut(&mut resident.graph, "edges").push(json!({
                            "a": attach, "b": new_index, "weight": *edge_weight,
                        }));
                    }
                }
                resident.nodes += 1;
                resident.edges += 1;
            }
            Edit::RemoveLeaf => {
                let last = (resident.nodes - 1) as u64;
                array_mut(&mut resident.graph, "node_weights").pop();
                match resident.kind {
                    GraphKind::Chain => {
                        array_mut(&mut resident.graph, "edge_weights").pop();
                    }
                    GraphKind::Tree => {
                        let edges = array_mut(&mut resident.graph, "edges");
                        let position = edges
                            .iter()
                            .position(|e| {
                                let a = e.get("a").and_then(Value::as_u64);
                                let b = e.get("b").and_then(Value::as_u64);
                                a == Some(last) || b == Some(last)
                            })
                            .expect("validated leaf has one incident edge");
                        edges.remove(position);
                    }
                }
                resident.nodes -= 1;
                resident.edges -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph() -> Value {
        Value::parse(r#"{"node_weights": [2, 3, 5, 7], "edge_weights": [10, 1, 10]}"#).unwrap()
    }

    fn tree_graph() -> Value {
        Value::parse(
            r#"{"node_weights": [1, 2, 3, 4],
                "edges": [{"a": 0, "b": 1, "weight": 10},
                          {"a": 0, "b": 2, "weight": 20},
                          {"a": 2, "b": 3, "weight": 30}]}"#,
        )
        .unwrap()
    }

    fn edits(text: &str) -> Vec<Edit> {
        Edit::batch_from_json(&Value::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn register_get_delete_round_trip() {
        let store = SessionStore::new(1 << 20);
        let (id, version) = store.register(chain_graph()).unwrap();
        assert_eq!((id.as_str(), version), ("g1", 1));
        let info = store.info(&id).unwrap();
        assert_eq!(info["kind"].as_str(), Some("chain"));
        assert_eq!(info["nodes"].as_u64(), Some(4));
        assert_eq!(info["edges"].as_u64(), Some(3));
        assert_eq!(info["version"].as_u64(), Some(1));
        let (id2, _) = store.register(tree_graph()).unwrap();
        assert_eq!(id2, "g2");
        assert_eq!(store.open_count(), 2);
        let list = store.list();
        let ids: Vec<&str> = list["graphs"]
            .as_array()
            .unwrap()
            .iter()
            .map(|g| g["id"].as_str().unwrap())
            .collect();
        assert_eq!(ids, ["g1", "g2"]);
        store.delete(&id).unwrap();
        assert!(matches!(
            store.info(&id),
            Err(SessionError::NotFound { .. })
        ));
        assert!(matches!(
            store.delete(&id),
            Err(SessionError::NotFound { .. })
        ));
        assert_eq!(store.open_count(), 1);
        // Deleted ids are never reused.
        let (id3, _) = store.register(chain_graph()).unwrap();
        assert_eq!(id3, "g3");
    }

    #[test]
    fn rejects_unregisterable_bodies() {
        let store = SessionStore::new(1 << 20);
        for bad in [
            "{}",
            r#"{"node_weights": [1]}"#,
            r#"{"node_weights": [1, 2], "edge_weights": [1, 2]}"#,
            r#"{"node_weights": [1, 2], "edges": []}"#,
        ] {
            let err = store.register(Value::parse(bad).unwrap()).unwrap_err();
            assert!(
                matches!(err, SessionError::InvalidGraph { .. }),
                "{bad} gave {err}"
            );
            assert_eq!(err.status(), 422);
        }
        assert_eq!(store.open_count(), 0);
    }

    #[test]
    fn budget_refuses_oversized_registrations_and_recovers_on_delete() {
        // Chain cost = 8 * (4 + 3) = 56 bytes.
        let store = SessionStore::new(100);
        let (id, _) = store.register(chain_graph()).unwrap();
        let err = store.register(chain_graph()).unwrap_err();
        assert!(matches!(err, SessionError::BudgetExceeded { .. }), "{err}");
        assert_eq!(err.status(), 413);
        assert_eq!(err.code(), "session_budget_exceeded");
        store.delete(&id).unwrap();
        store.register(chain_graph()).unwrap();
    }

    #[test]
    fn version_conflicts_are_detected_and_atomic() {
        let store = SessionStore::new(1 << 20);
        let (id, v1) = store.register(chain_graph()).unwrap();
        let batch = edits(r#"[{"op": "edge_weight", "index": 0, "weight": 4}]"#);
        let v2 = store.apply(&id, v1, &batch).unwrap();
        assert_eq!(v2, 2);
        let err = store.apply(&id, v1, &batch).unwrap_err();
        assert!(matches!(err, SessionError::VersionConflict { .. }), "{err}");
        assert_eq!(err.status(), 409);
        assert_eq!(err.code(), "version_conflict");
    }

    #[test]
    fn chain_edits_apply_in_place() {
        let store = SessionStore::new(1 << 20);
        let (id, v) = store.register(chain_graph()).unwrap();
        let batch = edits(
            r#"[{"op": "vertex_weight", "index": 1, "weight": 9},
                {"op": "edge_weight", "index": 2, "weight": 6},
                {"op": "add_leaf", "node_weight": 8, "edge_weight": 2},
                {"op": "edge_weight", "index": 3, "weight": 5}]"#,
        );
        store.apply(&id, v, &batch).unwrap();
        let arc = store.resident(&id).unwrap();
        let resident = arc.lock().unwrap();
        assert_eq!(
            resident.graph.to_string(),
            r#"{"node_weights":[2,9,5,7,8],"edge_weights":[10,1,6,5]}"#
        );
        assert_eq!((resident.nodes, resident.edges), (5, 4));
        drop(resident);
        let batch = edits(r#"[{"op": "remove_leaf"}, {"op": "remove_leaf"}]"#);
        store.apply(&id, 2, &batch).unwrap();
        let resident = arc.lock().unwrap();
        assert_eq!(
            resident.graph.to_string(),
            r#"{"node_weights":[2,9,5],"edge_weights":[10,1]}"#
        );
    }

    #[test]
    fn tree_edits_apply_in_place() {
        let store = SessionStore::new(1 << 20);
        let (id, v) = store.register(tree_graph()).unwrap();
        let batch = edits(
            r#"[{"op": "edge_weight", "index": 1, "weight": 7},
                {"op": "add_leaf", "attach": 1, "node_weight": 2, "edge_weight": 5}]"#,
        );
        store.apply(&id, v, &batch).unwrap();
        let arc = store.resident(&id).unwrap();
        {
            let resident = arc.lock().unwrap();
            assert_eq!((resident.nodes, resident.edges), (5, 4));
            let edges = resident.graph.get("edges").unwrap().as_array().unwrap();
            assert_eq!(edges[1]["weight"].as_u64(), Some(7));
            assert_eq!(edges[3]["a"].as_u64(), Some(1));
            assert_eq!(edges[3]["b"].as_u64(), Some(4));
            // The edited body still parses as a tree.
            Tree::from_json(&resident.graph).unwrap();
        }
        // Node 4 is a leaf; removing it restores the old shape.
        store
            .apply(&id, 2, &edits(r#"[{"op": "remove_leaf"}]"#))
            .unwrap();
        let resident = arc.lock().unwrap();
        assert_eq!((resident.nodes, resident.edges), (4, 3));
        Tree::from_json(&resident.graph).unwrap();
    }

    #[test]
    fn invalid_edits_fail_whole_batch_without_side_effects() {
        let store = SessionStore::new(1 << 20);
        let (id, v) = store.register(tree_graph()).unwrap();
        let before = store
            .resident(&id)
            .unwrap()
            .lock()
            .unwrap()
            .graph
            .to_string();
        for bad in [
            r#"[{"op": "vertex_weight", "index": 99, "weight": 1}]"#,
            r#"[{"op": "edge_weight", "index": 0, "weight": 1},
                {"op": "edge_weight", "index": 99, "weight": 1}]"#,
            r#"[{"op": "add_leaf", "node_weight": 1, "edge_weight": 1}]"#,
            r#"[{"op": "add_leaf", "attach": 99, "node_weight": 1, "edge_weight": 1}]"#,
            r#"[{"op": "add_leaf", "attach": 0, "node_weight": 1, "edge_weight": 1},
                {"op": "remove_leaf"}]"#,
        ] {
            let err = store.apply(&id, v, &edits(bad)).unwrap_err();
            assert!(
                matches!(err, SessionError::InvalidEdit { .. }),
                "{bad}: {err}"
            );
        }
        let after = store
            .resident(&id)
            .unwrap()
            .lock()
            .unwrap()
            .graph
            .to_string();
        assert_eq!(before, after, "failed batches must not mutate the graph");
        assert_eq!(store.edits_total(), 0);
        // Repeated removes in one batch are legal when each tail node
        // is a leaf at the moment it goes: node 4 first, then node 3
        // (its degree drops to 1 once 4 is gone).
        let batch =
            edits(r#"[{"op": "add_leaf", "attach": 3, "node_weight": 1, "edge_weight": 1}]"#);
        store.apply(&id, v, &batch).unwrap();
        store
            .apply(
                &id,
                v + 1,
                &edits(r#"[{"op": "remove_leaf"}, {"op": "remove_leaf"}]"#),
            )
            .unwrap();
        let resident = store.resident(&id).unwrap();
        assert_eq!(resident.lock().unwrap().nodes, 3);

        // But a tail that is still internal after the first remove is
        // refused, and the batch stays atomic: node 4 is a leaf of the
        // star below, while node 3 keeps degree 3 without it.
        let star = Value::parse(
            r#"{"node_weights": [1, 1, 1, 1, 1],
                "edges": [{"a": 0, "b": 3, "weight": 1},
                          {"a": 1, "b": 3, "weight": 1},
                          {"a": 2, "b": 3, "weight": 1},
                          {"a": 3, "b": 4, "weight": 1}]}"#,
        )
        .unwrap();
        let (id, v) = store.register(star).unwrap();
        let err = store
            .apply(
                &id,
                v,
                &edits(r#"[{"op": "remove_leaf"}, {"op": "remove_leaf"}]"#),
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::InvalidEdit { .. }), "{err}");
        assert_eq!(
            store.resident(&id).unwrap().lock().unwrap().nodes,
            5,
            "refused batches must not mutate the graph"
        );
    }

    #[test]
    fn malformed_edit_objects_are_rejected() {
        for bad in [
            r#"[7]"#,
            r#"[{"index": 0, "weight": 1}]"#,
            r#"[{"op": "frobnicate"}]"#,
            r#"[{"op": "remove_leaf", "index": 0}]"#,
            r#"[{"op": "edge_weight", "index": 0}]"#,
            r#"[{"op": "edge_weight", "index": -1, "weight": 2}]"#,
        ] {
            let err = Edit::batch_from_json(&Value::parse(bad).unwrap()).unwrap_err();
            assert!(
                matches!(err, SessionError::InvalidEdit { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn baselines_are_charged_to_the_budget_and_released_with_the_graph() {
        // Chain cost 56; each baseline below costs its key plus its body.
        let store = SessionStore::new(100);
        let (id, _) = store.register(chain_graph()).unwrap();
        let arc = store.resident(&id).unwrap();
        let bytes = || store.resident_bytes.load(Ordering::Relaxed);
        let mut resident = arc.lock().unwrap();
        let key = b"k1".to_vec();
        assert_eq!(
            store.replace_baseline(&mut resident, key.clone(), "x".repeat(18)),
            None
        );
        assert_eq!(bytes(), 56 + 20);
        // Replacing releases the old bytes before claiming the new.
        assert_eq!(
            store.replace_baseline(&mut resident, key.clone(), "y".repeat(38)),
            Some("x".repeat(18))
        );
        assert_eq!(bytes(), 56 + 40);
        // A baseline past the budget is not kept, and the one it
        // replaces is gone too: the next delta answers in full.
        assert_eq!(
            store.replace_baseline(&mut resident, key.clone(), "z".repeat(50)),
            Some("y".repeat(38))
        );
        assert_eq!(bytes(), 56);
        assert_eq!(
            store.replace_baseline(&mut resident, key, String::new()),
            None
        );
        assert_eq!(bytes(), 56 + 2);
        drop(resident);
        // Deleting the graph releases its baselines with it, and a
        // caller still holding the graph cannot charge a new one.
        store.delete(&id).unwrap();
        assert_eq!(bytes(), 0);
        let mut resident = arc.lock().unwrap();
        assert_eq!(
            store.replace_baseline(&mut resident, b"k2".to_vec(), "w".to_string()),
            None
        );
        assert_eq!(bytes(), 0);
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tgp-session-store-{tag}-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn state_of(store: &SessionStore) -> Vec<(String, u64, String)> {
        let list = store.list();
        list["graphs"]
            .as_array()
            .unwrap()
            .iter()
            .map(|g| {
                let id = g["id"].as_str().unwrap().to_string();
                let arc = store.resident(&id).unwrap();
                let resident = arc.lock().unwrap();
                (id.clone(), resident.version, resident.graph.to_string())
            })
            .collect()
    }

    #[test]
    fn journal_replay_restores_exact_versions_and_graphs() {
        let path = temp_journal("replay");
        {
            let store = SessionStore::with_journal(&path, 1 << 20).unwrap();
            let (a, v) = store.register(chain_graph()).unwrap();
            store
                .apply(
                    &a,
                    v,
                    &edits(r#"[{"op": "edge_weight", "index": 0, "weight": 4}]"#),
                )
                .unwrap();
            store
                .apply(
                    &a,
                    v + 1,
                    &edits(r#"[{"op": "add_leaf", "node_weight": 6, "edge_weight": 2}]"#),
                )
                .unwrap();
            let (b, _) = store.register(tree_graph()).unwrap();
            store.delete(&b).unwrap();
            store.register(tree_graph()).unwrap();
            // No compaction, no graceful anything: the reopen sees the
            // raw log, exactly what a kill -9 leaves behind.
            let expected = state_of(&store);
            drop(store);
            let reopened = SessionStore::with_journal(&path, 1 << 20).unwrap();
            assert_eq!(state_of(&reopened), expected);
            // Ids keep advancing past deleted ones after replay.
            let (next, _) = reopened.register(chain_graph()).unwrap();
            assert_eq!(next, "g4");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// An edit batch that looked its graph up just before a delete
    /// (here: while a solve holds the graph) must not journal its patch
    /// after the delete, or the journal can no longer be replayed; and
    /// the bytes of its `add_leaf` must not outlive the graph.
    #[test]
    fn patch_racing_a_delete_keeps_the_journal_replayable() {
        let path = temp_journal("patch-delete-race");
        {
            let store = Arc::new(SessionStore::with_journal(&path, 1 << 20).unwrap());
            let (id, version) = store.register(chain_graph()).unwrap();
            let arc = store.resident(&id).unwrap();
            let solving = arc.lock().unwrap();
            let patch = {
                let (store, id) = (Arc::clone(&store), id.clone());
                std::thread::spawn(move || {
                    let leaf = r#"[{"op": "add_leaf", "node_weight": 6, "edge_weight": 2}]"#;
                    store.apply(&id, version, &edits(leaf))
                })
            };
            // The patch has looked the graph up once it holds a third
            // reference, and has left the store lock once that is free.
            while Arc::strong_count(&arc) < 3 {
                std::thread::yield_now();
            }
            drop(store.inner.lock().unwrap());
            let delete = {
                let (store, id) = (Arc::clone(&store), id.clone());
                std::thread::spawn(move || store.delete(&id))
            };
            // The delete has looked the graph up once it holds a fourth
            // reference; it then waits for the graph's lock.
            while Arc::strong_count(&arc) < 4 {
                std::thread::yield_now();
            }
            drop(solving);
            delete.join().unwrap().unwrap();
            // The patch either landed before the delete or found the
            // graph gone.
            if let Err(error) = patch.join().unwrap() {
                assert_eq!(error.code(), "session_not_found");
            }
            assert_eq!(store.resident_bytes.load(Ordering::SeqCst), 0);
        }
        let reopened = SessionStore::with_journal(&path, 1 << 20).unwrap();
        assert_eq!(reopened.open_count(), 0);
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    /// A delete that waits for a graph a solve holds must not hold up
    /// calls about other graphs: lookups, registrations and listings
    /// return meanwhile, and the delete lands once the solve ends.
    #[test]
    fn a_waiting_delete_does_not_stall_other_graphs() {
        use std::sync::mpsc;
        use std::time::Duration;
        let path = temp_journal("delete-stall");
        let (g1, g2, g3) = {
            let store = Arc::new(SessionStore::with_journal(&path, 1 << 20).unwrap());
            let (g1, _) = store.register(chain_graph()).unwrap();
            let (g2, _) = store.register(tree_graph()).unwrap();
            let arc = store.resident(&g1).unwrap();
            let solving = arc.lock().unwrap();
            let delete = {
                let (store, id) = (Arc::clone(&store), g1.clone());
                std::thread::spawn(move || store.delete(&id))
            };
            // The delete holds a third reference once it has looked g1
            // up; it then waits for g1's lock.
            while Arc::strong_count(&arc) < 3 {
                std::thread::yield_now();
            }
            let (done, calls) = mpsc::channel();
            {
                let (store, g2) = (Arc::clone(&store), g2.clone());
                std::thread::spawn(move || {
                    let info = store.info(&g2).map(|v| v["id"].as_str().map(String::from));
                    let registered = store.register(chain_graph()).map(|(id, _)| id);
                    let listed = store.list()["graphs"].as_array().map_or(0, Vec::len);
                    let _ = done.send((info, registered, listed));
                });
            }
            let (info, registered, listed) = calls
                .recv_timeout(Duration::from_secs(10))
                .expect("calls about other graphs return while the delete waits");
            assert_eq!(info.unwrap(), Some(g2.clone()));
            let g3 = registered.unwrap();
            assert_eq!(listed, 3, "g1 is listed until its delete lands");
            assert!(!delete.is_finished());
            drop(solving);
            delete.join().unwrap().unwrap();
            assert_eq!(store.info(&g1).unwrap_err().code(), "session_not_found");
            assert_eq!(store.delete(&g1).unwrap_err().code(), "session_not_found");
            (g1, g2, g3)
        };
        let reopened = SessionStore::with_journal(&path, 1 << 20).unwrap();
        let ids: Vec<String> = state_of(&reopened)
            .into_iter()
            .map(|(id, _, _)| id)
            .collect();
        assert_eq!(ids, [g2, g3]);
        assert!(reopened.resident(&g1).is_err());
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_log_replays_on_top() {
        let path = temp_journal("compact");
        {
            let store = SessionStore::with_journal(&path, 1 << 20).unwrap();
            let (a, v) = store.register(chain_graph()).unwrap();
            store
                .apply(
                    &a,
                    v,
                    &edits(r#"[{"op": "edge_weight", "index": 1, "weight": 9}]"#),
                )
                .unwrap();
            store.compact().unwrap();
            // Post-compaction appends replay on top of the snapshot.
            store
                .apply(
                    &a,
                    v + 1,
                    &edits(r#"[{"op": "vertex_weight", "index": 0, "weight": 3}]"#),
                )
                .unwrap();
            let expected = state_of(&store);
            drop(store);
            let replay = journal::read(&path, JOURNAL_MAGIC, decode_op)
                .unwrap()
                .unwrap();
            assert_eq!(replay.records.len(), 2, "snapshot + one patch");
            assert_eq!(replay.records[0]["op"].as_str(), Some("snapshot"));
            let reopened = SessionStore::with_journal(&path, 1 << 20).unwrap();
            assert_eq!(state_of(&reopened), expected);
            let arc = reopened.resident(&a).unwrap();
            assert_eq!(arc.lock().unwrap().version, 3);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_that_exceeds_the_budget_refuses_to_open() {
        let path = temp_journal("overbudget");
        {
            let store = SessionStore::with_journal(&path, 1 << 20).unwrap();
            store.register(chain_graph()).unwrap();
        }
        let err = SessionStore::with_journal(&path, 10).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The file is untouched: reopening with a sane budget works.
        let store = SessionStore::with_journal(&path, 1 << 20).unwrap();
        assert_eq!(store.open_count(), 1);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metrics_render_counts() {
        let store = SessionStore::new(1 << 20);
        let (id, v) = store.register(chain_graph()).unwrap();
        store
            .apply(
                &id,
                v,
                &edits(r#"[{"op": "edge_weight", "index": 0, "weight": 7}]"#),
            )
            .unwrap();
        store.record_solve();
        store.record_solve();
        store.record_solve();
        let mut out = String::new();
        store.render_metrics(&mut out);
        assert!(out.contains("tgp_sessions_open 1"), "{out}");
        assert!(out.contains("tgp_session_edits_total 1"), "{out}");
        assert!(out.contains("tgp_session_solves_total 3"), "{out}");
        assert!(out.contains("tgp_session_resident_bytes 56"), "{out}");
    }
}
