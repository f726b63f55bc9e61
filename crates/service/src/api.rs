//! Request routing and the JSON API handlers.
//!
//! Endpoints:
//!
//! * `POST /v1/partition` — run any objective registered in
//!   [`tgp_solvers::Registry`] (all thirteen: chains, trees and general
//!   process graphs). Accepts a single request object or
//!   `{"requests": [...]}` for a batch; batch items are scattered
//!   across the worker pool and gathered back in order (see
//!   [`BatchSubtask`]).
//! * `POST /v1/simulate` — partition a chain and replay it through the
//!   shared-memory pipeline simulator.
//! * `GET /healthz` — liveness probe.
//! * `GET /metrics` — Prometheus text exposition.
//!
//! Handlers are pure functions of `(state, request)`; the transport layer
//! in [`crate::server`] owns sockets and threads. The partition endpoint
//! is a thin shell over the solver registry: dispatch resolves the
//! objective, the solver parses and runs, and the service only moves
//! bytes — which is what keeps HTTP responses byte-identical to the CLI's.
//!
//! # Error contract
//!
//! * `400` — the body is not usable JSON at all (bad UTF-8, syntax
//!   error, or the wrong JSON shape for the envelope).
//! * `422` — the body parsed but the request is semantically unusable:
//!   unknown objective, missing/invalid/undeclared field, wrong graph
//!   kind, cost-cap refusal, infeasible instance.
//! * `503` — queue full (`overloaded`) or shed near capacity
//!   (`shed_expensive`/`shed_deadline`).
//! * `504` — the request's deadline (`x-deadline-ms`, or a batch
//!   item's `deadline_ms`) expired before the solve completed
//!   (`deadline_exceeded`).
//!
//! Every error body is the v2 envelope from [`crate::envelope`]:
//! `{"code": <stable tag>, "message": <human text>, ...}` with optional
//! `retry_after`, `deadline_remaining_ms` and `partial` fields; the
//! codes for 422s come from [`SolveError::code`].
//!
//! Every partition response is cached under the request's canonical key
//! ([`tgp_solvers::Request::canonical_key`]) of the *validated* content,
//! so formatting differences (whitespace, key order) between equivalent
//! requests still hit.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tgp_core::budget::Budget;
use tgp_core::pipeline::partition_chain;
use tgp_graph::json::{FromJson, Value};
use tgp_graph::{json, ChainView, PathGraph, Weight};
use tgp_net::{ConnId, WriteTag};
use tgp_obs::trace::{self, SpanRecorder};
use tgp_obs::{EventKind, Journal, Stage, TraceId, TraceRecord, TraceStore};
use tgp_session::{Edit, SessionError, SessionStore, DEFAULT_SESSION_BUDGET};
use tgp_shmem::machine::{Interconnect, Machine};
use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec};
use tgp_solvers::{
    ingest_flat, GraphKind, IngestBacking, KeyBuilder, Registry, SolveError, Solver,
};

use crate::cache::{CacheConfig, ResultCache};
use crate::envelope;
use crate::http::Request;
use crate::metrics::Metrics;
use crate::pool::{QueueSet, Work};

/// Events the in-memory journal retains (see `GET /debug/events`).
const JOURNAL_CAPACITY: usize = 4096;

/// Completed traces retained for `GET /debug/trace/<id>` and
/// `GET /debug/slow`.
const TRACE_CAPACITY: usize = 512;

/// Most journal events one `/debug/events` response returns.
const DEBUG_EVENTS_MAX: usize = 256;

/// Default and maximum `n` for `GET /debug/slow?n=`.
const DEBUG_SLOW_DEFAULT: usize = 10;
const DEBUG_SLOW_MAX: usize = 100;

/// Largest `items` accepted by `/v1/simulate`. The simulator schedules
/// one event per item, so this bounds per-request CPU and memory for a
/// field a client controls with a handful of bytes.
pub const MAX_SIMULATE_ITEMS: u64 = 1_000_000;

/// Largest `processors` accepted by `/v1/simulate`. The machine model
/// allocates per-processor state, so this bounds allocation the same
/// way.
pub const MAX_SIMULATE_PROCESSORS: u64 = 4_096;

/// Most subtasks one batch scatters onto the worker-pool queue. Larger
/// batches are split into contiguous *chunks* of items instead of one
/// subtask per item, so a thousand-item batch costs at most this many
/// queue operations rather than a thousand (ordering and the claim-based
/// deadlock-freedom argument are per-item and unaffected).
pub const MAX_BATCH_SUBTASKS: usize = 64;

/// Queue occupancy (numerator/denominator of capacity) at which the
/// cost-based admission guard starts shedding expensive requests.
const SHED_OCCUPANCY_NUM: usize = 3;
const SHED_OCCUPANCY_DEN: usize = 4;

/// Shared handler state: one per server.
#[derive(Debug)]
pub struct AppState {
    /// Rendered-response cache.
    pub cache: ResultCache,
    /// Service metrics.
    pub metrics: Metrics,
    /// Emit one structured access-log line per request to stderr.
    pub log_requests: bool,
    /// Recent-events journal, shared with the transport layer (the
    /// epoll loop appends accept/close/timeout events; workers append
    /// request-scoped events).
    pub journal: Arc<Journal>,
    /// Recently completed request traces.
    pub traces: TraceStore,
    /// Serve the `/debug/*` surfaces (off by default: they expose
    /// request timing internals).
    pub debug_endpoints: bool,
    /// Resident session graphs (`/v1/graphs`). In-memory by default;
    /// the server swaps in a journal-backed store via
    /// [`AppState::with_sessions`] when `--session-file` is set.
    pub sessions: Arc<SessionStore>,
    /// The worker-pool queues batch handlers scatter subtasks onto —
    /// one per event loop, round-robined by [`QueueSet`]. Unset when
    /// the state runs without a pool (unit tests, embedders calling
    /// [`handle`] directly) — batches then execute inline.
    fanout: OnceLock<Arc<QueueSet<Work>>>,
    /// Cost-based admission limit: with `Some(limit)`, a cache-missing
    /// request whose [`tgp_solvers::Solver::cost_estimate`] exceeds
    /// `limit` is refused with 503 (`shed_expensive`) while the worker
    /// queue is nearly full. `None` disables shedding.
    shed_cost: Option<u64>,
    /// Remaining-time admission limit: with `Some(ms)`, a cache-missing
    /// request whose deadline has fewer than `ms` milliseconds left is
    /// refused with 503 (`shed_deadline`) while the worker queue is
    /// nearly full — the solve would almost certainly time out anyway,
    /// so the slot goes to a request that can still make its deadline.
    shed_remaining: Option<u64>,
    /// Bodies at or above this size take the flat-ingest path with
    /// *disk* (mmap) backing instead of RAM (`--graph-spill-bytes`).
    graph_spill_bytes: u64,
    /// Directory for spill files; `None` uses the system temp dir.
    graph_spill_dir: Option<PathBuf>,
}

impl AppState {
    /// Creates state with a cache under the given policy.
    pub fn new(cache: CacheConfig) -> Self {
        AppState {
            cache: ResultCache::new(cache),
            metrics: Metrics::default(),
            log_requests: false,
            journal: Arc::new(Journal::new(JOURNAL_CAPACITY)),
            traces: TraceStore::new(TRACE_CAPACITY),
            debug_endpoints: false,
            sessions: Arc::new(SessionStore::new(DEFAULT_SESSION_BUDGET)),
            fanout: OnceLock::new(),
            shed_cost: None,
            shed_remaining: None,
            graph_spill_bytes: 64 << 20,
            graph_spill_dir: None,
        }
    }

    /// Sets the flat-ingest spill policy: bodies at or above `bytes`
    /// ingest into disk-backed (mmap) arrays rooted at `dir` (the
    /// system temp dir when `None`); smaller eligible bodies use flat
    /// RAM arrays.
    pub fn with_graph_spill(mut self, bytes: u64, dir: Option<PathBuf>) -> Self {
        self.graph_spill_bytes = bytes;
        self.graph_spill_dir = dir;
        self
    }

    /// Where spill files go: `--graph-spill-dir`, else the system temp
    /// dir.
    fn spill_dir(&self) -> PathBuf {
        self.graph_spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
    }

    /// How flat ingest backs a graph of `bytes`: unlinked-mmap disk
    /// arrays at or past `--graph-spill-bytes`, RAM below it.
    fn ingest_backing(&self, bytes: u64) -> IngestBacking {
        if bytes >= self.graph_spill_bytes {
            IngestBacking::disk(self.spill_dir())
        } else {
            IngestBacking::Ram
        }
    }

    /// Replaces the session store (the server injects a journal-backed
    /// one when `--session-file` is set).
    pub fn with_sessions(mut self, sessions: Arc<SessionStore>) -> Self {
        self.sessions = sessions;
        self
    }

    /// Enables or disables the per-request access log.
    pub fn with_access_log(mut self, enabled: bool) -> Self {
        self.log_requests = enabled;
        self
    }

    /// Enables or disables the `/debug/*` endpoints.
    pub fn with_debug_endpoints(mut self, enabled: bool) -> Self {
        self.debug_endpoints = enabled;
        self
    }

    /// Write completion from the transport: records the `write` stage
    /// and patches the span into the trace `tag` names. Responses with
    /// no committed trace (canned errors, frame errors) carry no tag.
    pub fn complete_write(&self, conn: ConnId, tag: Option<WriteTag>, elapsed: Duration) {
        self.metrics.record_stage(Stage::Write, elapsed);
        let id = match tag {
            Some(WriteTag { trace, seq }) => {
                self.traces
                    .append_span_at(seq, trace, Stage::Write, elapsed);
                trace
            }
            None => TraceId::NONE,
        };
        if self.debug_endpoints {
            self.journal.append(
                EventKind::WriteDone,
                id.as_u64(),
                u64::from(conn.index),
                elapsed.as_nanos() as u64,
            );
        }
    }

    /// Sets the cost-based admission limit (see the `shed_cost` field).
    pub fn with_shed_cost(mut self, limit: Option<u64>) -> Self {
        self.shed_cost = limit;
        self
    }

    /// Sets the remaining-time admission limit (see the
    /// `shed_remaining` field).
    pub fn with_shed_remaining(mut self, limit: Option<u64>) -> Self {
        self.shed_remaining = limit;
        self
    }

    /// Whether the worker queue is under enough pressure for the
    /// admission guards to start shedding (at least 3/4 full).
    fn queue_pressured(&self) -> bool {
        match self.fanout.get() {
            Some(pool) => pool.len() * SHED_OCCUPANCY_DEN >= pool.capacity() * SHED_OCCUPANCY_NUM,
            None => false,
        }
    }

    /// The admission guard: decides whether a cache-missing request of
    /// the given estimated cost and deadline should be refused right
    /// now. Sheds only when a limit is configured, a pool is attached
    /// and the queue is at least 3/4 full; then a request more expensive
    /// than `--shed-cost` is refused (`shed_expensive`), and a request
    /// with less than `--shed-remaining` milliseconds of deadline left
    /// is refused (`shed_deadline`) — it would almost certainly time out
    /// mid-solve and waste the slot. Cheap requests with time to spare
    /// keep flowing even under pressure, and cache *hits* never reach
    /// this check at all.
    fn shed_verdict(&self, cost: u64, deadline: Option<Instant>) -> Option<Failure> {
        if !self.queue_pressured() {
            return None;
        }
        if let Some(limit) = self.shed_cost {
            if cost > limit {
                self.metrics.record_shed_by_cost();
                let mut f = failure(
                    503,
                    format!(
                        "estimated cost {cost} exceeds the shed limit {limit} while the queue is \
                         nearly full; retry when load drops"
                    ),
                    "shed_expensive",
                );
                let queued = self.fanout.get().map_or(0, |pool| pool.len());
                f.retry_after = Some(crate::http::retry_after_secs(queued, 1).min(5));
                return Some(f);
            }
        }
        if let (Some(limit), Some(deadline)) = (self.shed_remaining, deadline) {
            let remaining = remaining_ms(deadline);
            if remaining < limit {
                self.metrics.record_deadline_drop("admission");
                let mut f = failure(
                    503,
                    format!(
                        "only {remaining}ms of the deadline remain, below the shed threshold of \
                         {limit}ms while the queue is nearly full"
                    ),
                    "shed_deadline",
                );
                f.deadline_remaining_ms = Some(remaining);
                return Some(f);
            }
        }
        None
    }

    /// Attaches the worker-pool queues so batch requests can scatter
    /// subtasks across them. Called once by
    /// [`crate::server::Server::start`]; later calls are ignored.
    pub fn attach_pool(&self, pool: Arc<QueueSet<Work>>) {
        let _ = self.fanout.set(pool);
    }

    /// Grows the per-loop connection counters to `loops` sets (see
    /// [`Metrics::set_net_loops`]); call before the state is shared.
    pub fn with_net_loops(mut self, loops: usize) -> Self {
        self.metrics.set_net_loops(loops);
        self
    }
}

/// What a handler tells the transport to send.
#[derive(Debug)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: String,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Metrics endpoint label.
    pub endpoint: &'static str,
    /// Objective label for the access log: the dispatched solver's name,
    /// `"batch"` for batch requests, `"-"` when no objective applies.
    pub objective: &'static str,
    /// The request's trace id ([`TraceId::NONE`] until
    /// [`handle_traced`] stamps it).
    pub trace: TraceId,
    /// The trace's commit sequence in [`AppState::traces`] — the O(1)
    /// handle the transport uses to patch the `write` span in after
    /// the response is flushed. `None` until [`handle_traced`] commits.
    pub trace_seq: Option<u64>,
    /// Extra response headers (name, value) — the session partition
    /// endpoint signals `x-tgp-response: full|delta` here, so the body
    /// carries only the response itself.
    pub headers: Vec<(&'static str, String)>,
}

fn json_response(status: u16, endpoint: &'static str, body: String) -> ApiResponse {
    ApiResponse {
        status,
        body,
        content_type: "application/json",
        endpoint,
        objective: "-",
        trace: TraceId::NONE,
        trace_seq: None,
        headers: Vec::new(),
    }
}

/// A handler-level failure: status code, human message, stable code,
/// plus the optional v2 envelope fields.
#[derive(Debug, Clone)]
struct Failure {
    status: u16,
    message: String,
    code: &'static str,
    /// Seconds to wait before retrying; also emitted as a `retry-after`
    /// response header.
    retry_after: Option<u64>,
    /// Milliseconds the request's deadline had left when it failed
    /// (zero once expired).
    deadline_remaining_ms: Option<u64>,
}

impl Failure {
    fn body(&self) -> String {
        envelope::envelope_body(
            self.code,
            &self.message,
            self.retry_after,
            self.deadline_remaining_ms,
            false,
        )
    }

    /// Whether this failure means the request's deadline interrupted
    /// it rather than that it was rejected.
    fn is_interrupt(&self) -> bool {
        self.code == "deadline_exceeded"
    }
}

fn failure(status: u16, message: impl Into<String>, code: &'static str) -> Failure {
    Failure {
        status,
        message: message.into(),
        code,
        retry_after: None,
        deadline_remaining_ms: None,
    }
}

/// 400: the body never made it to a JSON object.
fn bad(message: impl Into<String>) -> Failure {
    failure(400, message, "bad_request")
}

/// A registry-level rejection carrying the solver error's code: 422 for
/// semantic rejections, 504 when the request's deadline interrupted the
/// solve.
fn solve_failure(error: SolveError) -> Failure {
    if matches!(error, SolveError::DeadlineExceeded) {
        let mut f = failure(504, error.to_string(), error.code());
        f.deadline_remaining_ms = Some(0);
        return f;
    }
    failure(422, error.to_string(), error.code())
}

fn error_response(endpoint: &'static str, failure: &Failure) -> ApiResponse {
    let mut response = json_response(failure.status, endpoint, failure.body());
    if let Some(secs) = failure.retry_after {
        response.headers.push(("retry-after", secs.to_string()));
    }
    response
}

/// Transport-level rejection: 404 (`not_found`) or 405
/// (`method_not_allowed`), in the same v2 envelope as every other
/// error.
fn simple_error(status: u16, endpoint: &'static str, message: &str) -> ApiResponse {
    let code = match status {
        404 => "not_found",
        405 => "method_not_allowed",
        _ => "bad_request",
    };
    json_response(
        status,
        endpoint,
        envelope::envelope_body(code, message, None, None, false),
    )
}

/// Milliseconds until `deadline`, saturating at zero.
fn remaining_ms(deadline: Instant) -> u64 {
    let now = Instant::now();
    if deadline <= now {
        0
    } else {
        u64::try_from((deadline - now).as_millis()).unwrap_or(u64::MAX)
    }
}

/// Transport-supplied timing context for one request: when and where
/// it entered the system. [`RequestCtx::default`] (no queue history,
/// "now" as the base) fits embedders that call [`handle`] directly.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// Trace id minted by the transport before parse;
    /// [`TraceId::NONE`] to mint (or adopt) one at handle time.
    pub trace: TraceId,
    /// When the work was pushed onto the worker queue, if it queued.
    pub enqueued_at: Option<Instant>,
    /// When a worker picked the work up (the trace base when nothing
    /// queued).
    pub dequeued_at: Instant,
    /// Time spent parsing the framed request bytes.
    pub parse: Duration,
    /// Absolute deadline the transport already extracted from the
    /// request (the event loop reads `x-deadline-ms` at frame time). `None`
    /// lets [`handle_traced`] fall back to parsing the header itself.
    pub deadline: Option<Instant>,
}

impl Default for RequestCtx {
    fn default() -> Self {
        RequestCtx {
            trace: TraceId::NONE,
            enqueued_at: None,
            dequeued_at: Instant::now(),
            parse: Duration::ZERO,
            deadline: None,
        }
    }
}

/// The client-requested deadline header: a whole number of milliseconds
/// the client is willing to wait, anchored at `anchor` (the moment the
/// request was fully read). Returns `Err` on a malformed value.
pub const DEADLINE_HEADER: &str = "x-deadline-ms";

fn effective_deadline(
    req: &Request,
    ctx: &RequestCtx,
    anchor: Instant,
) -> Result<Option<Instant>, Failure> {
    if ctx.deadline.is_some() {
        return Ok(ctx.deadline);
    }
    match req.header(DEADLINE_HEADER) {
        None => Ok(None),
        Some(text) => match text.trim().parse::<u64>() {
            Ok(ms) => Ok(Some(anchor + Duration::from_millis(ms))),
            Err(_) => Err(bad(format!(
                "{DEADLINE_HEADER} must be a non-negative integer of milliseconds, got {text:?}"
            ))),
        },
    }
}

/// Routes one request, records its metrics, and (when enabled) writes
/// one structured access-log line to stderr. Embedder-facing shorthand
/// for [`handle_traced`] with an empty [`RequestCtx`].
pub fn handle(state: &AppState, req: &Request) -> ApiResponse {
    handle_traced(state, req, RequestCtx::default())
}

/// [`handle`] with transport timing: runs the request under a trace
/// (client `x-trace-id`/`traceparent` headers win over the transport's
/// minted id), records queue/parse spans from `ctx`, per-stage
/// histograms, the journal `respond` event, and commits the trace to
/// [`AppState::traces`]. The `write` stage happens after this returns
/// and is patched in by the transport ([`AppState::complete_write`]).
///
/// Trace records and journal events exist only to be read back through
/// `GET /debug/*`, so both are captured only while
/// [`AppState::debug_endpoints`] is set; with the flag off the hot path
/// pays for the `/metrics` histograms and the access log alone.
pub fn handle_traced(state: &AppState, req: &Request, ctx: RequestCtx) -> ApiResponse {
    // Parsing finished the moment the transport built `ctx`, so the
    // handler clock starts there — derived, not a fresh clock read.
    let started = ctx.dequeued_at + ctx.parse;
    let id = req
        .header("x-trace-id")
        .and_then(TraceId::parse_hex)
        .or_else(|| {
            req.header("traceparent")
                .and_then(TraceId::from_traceparent)
        })
        .unwrap_or(ctx.trace);
    let id = if id.is_none() { TraceId::mint() } else { id };
    let base = ctx.enqueued_at.unwrap_or(ctx.dequeued_at);
    let queue_wait = ctx.dequeued_at.saturating_duration_since(base);
    if ctx.enqueued_at.is_some() {
        state.metrics.record_stage(Stage::Queue, queue_wait);
    }
    if !ctx.parse.is_zero() {
        state.metrics.record_stage(Stage::Parse, ctx.parse);
    }
    // Trace and journal capture only feed the `/debug/*` surfaces, so
    // they are captured only when those surfaces are being served; the
    // `/metrics` histograms above stay on unconditionally.
    if state.debug_endpoints {
        let mut recorder = SpanRecorder::new(id, base);
        recorder.add(Stage::Queue, base, queue_wait);
        recorder.add(Stage::Parse, ctx.dequeued_at, ctx.parse);
        trace::begin(recorder);
    }

    let mut response = match effective_deadline(req, &ctx, started) {
        Ok(deadline) => route(state, req, deadline),
        Err(failure) => error_response("other", &failure),
    };
    // One clock read closes the request: handler elapsed, the journal
    // timestamp, the end-to-end total and the trace total all share it.
    let done = Instant::now();
    let elapsed = done.saturating_duration_since(started);
    state
        .metrics
        .record_request(response.endpoint, response.status, elapsed);
    if state.debug_endpoints {
        state.journal.append_at(
            done,
            EventKind::Respond,
            id.as_u64(),
            u64::from(response.status),
            elapsed.as_nanos() as u64,
        );
        if let Some(record) =
            trace::finish_at(done, response.endpoint, response.objective, response.status)
        {
            response.trace_seq = Some(state.traces.commit(record));
        }
    }
    if state.log_requests {
        let total = done.saturating_duration_since(base);
        eprintln!(
            "tgp-access method={} path={} objective={} status={} micros={} queue_us={} total_us={} trace={}",
            req.method,
            req.path,
            response.objective,
            response.status,
            elapsed.as_micros(),
            queue_wait.as_micros(),
            total.as_micros(),
            id
        );
    }
    response.trace = id;
    response
}

fn route(state: &AppState, req: &Request, deadline: Option<Instant>) -> ApiResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => json_response(200, "healthz", "{\"status\":\"ok\"}\n".into()),
        ("GET", "/metrics") => {
            let mut body = state.metrics.render();
            state.cache.render_metrics(&mut body);
            state.sessions.render_metrics(&mut body);
            render_journal_metrics(state, &mut body);
            ApiResponse {
                status: 200,
                body,
                content_type: "text/plain; version=0.0.4",
                endpoint: "metrics",
                objective: "-",
                trace: TraceId::NONE,
                trace_seq: None,
                headers: Vec::new(),
            }
        }
        ("POST", "/v1/partition") => partition_endpoint(state, &req.body, deadline),
        ("POST", "/v1/simulate") => simulate_endpoint(state, &req.body, deadline),
        ("POST", "/v1/graphs") => graphs_register(state, &req.body),
        ("GET", "/v1/graphs") => {
            json_response(200, "graphs", format!("{}\n", state.sessions.list()))
        }
        (method, path) if path.starts_with("/v1/graphs/") => {
            graphs_item(state, method, path, &req.body, deadline)
        }
        ("GET", path) if path.starts_with("/debug/") => debug_endpoint(state, path),
        (_, "/healthz") | (_, "/metrics") | (_, "/v1/partition") | (_, "/v1/simulate") => {
            simple_error(405, "other", "method not allowed")
        }
        (_, "/v1/graphs") => simple_error(405, "graphs", "method not allowed"),
        _ => simple_error(404, "other", "no such endpoint"),
    }
}

/// Journal health series appended to `/metrics`.
fn render_journal_metrics(state: &AppState, out: &mut String) {
    out.push_str("# HELP tgp_journal_events_total Events appended to the in-memory journal.\n");
    out.push_str("# TYPE tgp_journal_events_total counter\n");
    out.push_str(&format!(
        "tgp_journal_events_total {}\n",
        state.journal.appended()
    ));
    out.push_str(
        "# HELP tgp_journal_overwritten_total Journal events lost to drop-oldest overwrite.\n",
    );
    out.push_str("# TYPE tgp_journal_overwritten_total counter\n");
    out.push_str(&format!(
        "tgp_journal_overwritten_total {}\n",
        state.journal.overwritten()
    ));
    out.push_str("# HELP tgp_traces_retained Completed request traces currently retained.\n");
    out.push_str("# TYPE tgp_traces_retained gauge\n");
    out.push_str(&format!("tgp_traces_retained {}\n", state.traces.len()));
}

/// `GET /debug/*`: trace and journal inspection, served only when
/// `--debug-endpoints` is set. When disabled the paths are
/// indistinguishable from unknown endpoints (404, `other`).
fn debug_endpoint(state: &AppState, path: &str) -> ApiResponse {
    if !state.debug_endpoints {
        return simple_error(404, "other", "no such endpoint");
    }
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    if let Some(id_text) = route.strip_prefix("/debug/trace/") {
        let Some(id) = TraceId::parse_hex(id_text) else {
            return error_response("debug", &bad("trace id must be 1-16 hex chars"));
        };
        return match state.traces.get(id) {
            Some(record) => json_response(200, "debug", format!("{}\n", render_trace(&record))),
            None => error_response(
                "debug",
                &failure(
                    404,
                    "trace not found (expired from the ring or never existed)",
                    "not_found",
                ),
            ),
        };
    }
    match route {
        "/debug/slow" => {
            let n = query
                .split('&')
                .find_map(|pair| pair.strip_prefix("n="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEBUG_SLOW_DEFAULT)
                .clamp(1, DEBUG_SLOW_MAX);
            let traces: Vec<Value> = state.traces.slowest(n).iter().map(render_trace).collect();
            json_response(200, "debug", format!("{}\n", json!({ "traces": traces })))
        }
        "/debug/events" => {
            let events: Vec<Value> = state
                .journal
                .snapshot(DEBUG_EVENTS_MAX)
                .iter()
                .map(|e| {
                    let trace = if e.trace == 0 {
                        "-".to_string()
                    } else {
                        format!("{:016x}", e.trace)
                    };
                    json!({
                        "seq": e.seq,
                        "nanos": e.nanos,
                        "kind": e.kind.as_str(),
                        "trace": trace,
                        "a": e.a,
                        "b": e.b,
                    })
                })
                .collect();
            json_response(
                200,
                "debug",
                format!(
                    "{}\n",
                    json!({
                        "appended": state.journal.appended(),
                        "overwritten": state.journal.overwritten(),
                        "events": events,
                    })
                ),
            )
        }
        _ => simple_error(404, "other", "no such endpoint"),
    }
}

/// Renders one trace as the `/debug/trace/<id>` JSON shape. Durations
/// are floored to microseconds, so rendered span durations sum to at
/// most the rendered total (flooring each term of `sum(spans) <=
/// total` keeps the inequality).
fn render_trace(record: &TraceRecord) -> Value {
    let spans: Vec<Value> = record
        .spans
        .iter()
        .map(|s| {
            json!({
                "stage": s.stage.as_str(),
                "start_us": s.start_ns / 1_000,
                "dur_us": s.dur_ns / 1_000,
            })
        })
        .collect();
    json!({
        "trace": record.id.to_string(),
        "endpoint": record.endpoint,
        "objective": record.objective,
        "status": u64::from(record.status),
        "total_us": record.total_ns / 1_000,
        "spans": spans,
    })
}

fn parse_body(body: &[u8]) -> Result<Value, Failure> {
    let text = std::str::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
    Value::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))
}

/// Parse-throughput estimate (bytes per millisecond, ~50 MB/s) used to
/// refuse bodies that cannot plausibly finish parsing inside their
/// deadline. The estimate deliberately errs toward refusing: a body
/// whose parse alone would eat most of the deadline leaves nothing for
/// the solve, so the solver's budget pre-charge would kill the request
/// right after the (expensive) decode anyway. Bodies under the floor
/// still get the cooperative mid-parse poll as a safety net.
const PARSE_BYTES_PER_MS: u64 = 50_000;

/// As [`parse_body`], but deadline-aware in two layers: a body so large
/// it cannot finish parsing inside its remaining deadline (by the
/// generous [`PARSE_BYTES_PER_MS`] floor) is refused before the first
/// byte is decoded, and a parse that outlives its deadline anyway is
/// abandoned within a few thousand values by the parser's cooperative
/// check. Either way the worker answers 504 (drop site `parse`) in
/// microseconds-to-milliseconds instead of decoding megabytes for a
/// doomed request. Without a deadline this is byte-for-byte
/// [`parse_body`].
fn parse_body_budgeted(
    state: &AppState,
    body: &[u8],
    deadline: Option<Instant>,
) -> Result<Value, Failure> {
    let Some(deadline) = deadline else {
        return parse_body(body);
    };
    let remaining = remaining_ms(deadline);
    if body.len() as u64 / PARSE_BYTES_PER_MS > remaining {
        state.metrics.record_deadline_drop("parse");
        let mut f = failure(
            504,
            format!(
                "a {} byte body cannot be parsed within the {remaining}ms left of the deadline",
                body.len()
            ),
            "deadline_exceeded",
        );
        f.deadline_remaining_ms = Some(remaining);
        return Err(f);
    }
    let text = std::str::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
    let mut expired = || Instant::now() >= deadline;
    Value::parse_with_check(text, &mut expired).map_err(|e| {
        if e.interrupted {
            state.metrics.record_deadline_drop("parse");
            let mut f = failure(
                504,
                "deadline expired while the request body was being parsed",
                "deadline_exceeded",
            );
            f.deadline_remaining_ms = Some(0);
            f
        } else {
            bad(format!("invalid JSON: {e}"))
        }
    })
}

fn partition_endpoint(state: &AppState, body: &[u8], deadline: Option<Instant>) -> ApiResponse {
    // Streaming fast path: a single request whose objective accepts
    // streamed graphs scans straight into flat graph arrays
    // (disk-backed past `--graph-spill-bytes`) without materializing a
    // JSON tree. Anything else — batches, other objectives, malformed
    // bodies — falls through untouched, so the JSON-tree parser keeps
    // sole ownership of the canonical error behavior.
    if let Some(response) = partition_streamed(state, body, deadline) {
        return response;
    }
    let value = match parse_body_budgeted(state, body, deadline) {
        Ok(v) => v,
        Err(failure) => return error_response("partition", &failure),
    };
    // Batch form: {"requests": [...]}. The batch itself is 200 as long
    // as the envelope parses; per-item failures are reported in place so
    // one bad graph doesn't void its siblings. Items are scattered
    // across the worker pool and gathered back in request order.
    if let Some(requests) = value.get("requests") {
        let Some(items) = requests.as_array() else {
            return error_response("partition", &bad("\"requests\" must be an array"));
        };
        let prepared = prepare_batch_items(items.to_vec(), deadline);
        let outcomes = run_batch(state, prepared);
        // Every item is tagged with its index and an HTTP-style status,
        // the batch reports aggregate counts so callers can check
        // success without walking the array, and items the deadline
        // interrupted are marked `partial` (as is the batch itself, at
        // top level). A solved item's rendered response is spliced in
        // as it is: compact JSON with no float, so printing a re-parse
        // of it would give the same bytes.
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut partial = false;
        let mut results = String::from("[");
        for (index, outcome) in outcomes.into_iter().enumerate() {
            if index > 0 {
                results.push(',');
            }
            match outcome {
                Ok(rendered) => {
                    completed += 1;
                    let _ = write!(
                        results,
                        r#"{{"index":{index},"status":200,"body":{rendered}}}"#
                    );
                }
                Err(failure) => {
                    failed += 1;
                    let dropped = failure.is_interrupt();
                    partial |= dropped;
                    let item = json!({
                        "index": index as u64,
                        "status": u64::from(failure.status),
                        "body": envelope::envelope_value(
                            failure.code,
                            &failure.message,
                            failure.retry_after,
                            failure.deadline_remaining_ms,
                            dropped,
                        ),
                    });
                    let _ = write!(results, "{item}");
                }
            }
        }
        let partial = if partial { r#","partial":true"# } else { "" };
        let body = format!(
            "{{\"completed\":{completed},\"failed\":{failed}{partial},\"results\":{results}]}}\n"
        );
        let mut response = json_response(200, "partition", body);
        response.objective = "batch";
        return response;
    }
    let objective = dispatched_objective(&value);
    partition_response(partition_one(state, &value, deadline), objective)
}

/// The single-request `/v1/partition` response: the rendered body or
/// the failure's envelope, labelled with its objective. The body moves
/// into the response as it is, its newline appended in place.
fn partition_response(outcome: Result<String, Failure>, objective: &'static str) -> ApiResponse {
    let mut response = match outcome {
        Ok(rendered) => json_response(200, "partition", with_newline(rendered)),
        Err(failure) => error_response("partition", &failure),
    };
    response.objective = objective;
    response
}

/// The streaming half of `POST /v1/partition`: scans the raw body with
/// `ingest_flat` into a [`tgp_solvers::Request`] over flat arrays (RAM
/// below [`AppState::with_graph_spill`]'s threshold, unlinked-mmap disk
/// at or above it) and hands it to [`solve_request`], the same tail the
/// JSON-tree parser's requests take. The scan is timed as the `ingest`
/// stage whether or not the parser accepts — a declined scan's time is
/// how wasted ingest shows — and an accepted request's backing is
/// counted in `tgp_store_backing`.
///
/// Returns `None` when the streaming parser declines the body (batch
/// envelope, an objective that does not stream, unexpected field,
/// malformed JSON, spill dir unwritable…): the JSON-tree parser then
/// answers it, and renders every error, so the two parsers cannot drift
/// apart on failure bodies. The one exception is a deadline that
/// expires during the ingest scan itself, answered like one inside the
/// JSON-tree parse.
fn partition_streamed(
    state: &AppState,
    body: &[u8],
    deadline: Option<Instant>,
) -> Option<ApiResponse> {
    let started = Instant::now();
    let budget = budget_for(deadline);
    let backing = state.ingest_backing(body.len() as u64);
    let (outcome, _) = timed_stage_from(state, Stage::Ingest, started, || {
        ingest_flat(body, &backing, &budget)
    });
    let request = match outcome {
        Ok(request) => request?,
        Err(error) => {
            if matches!(error, SolveError::DeadlineExceeded) {
                state.metrics.record_deadline_drop("parse");
            }
            return Some(error_response("partition", &solve_failure(error)));
        }
    };
    state
        .metrics
        .record_store_backing(request.graph.backing_kind().as_str());
    let outcome = solve_request(state, &request, &budget, deadline, started);
    Some(partition_response(outcome, request.objective.name()))
}

/// A budget for `deadline`, unlimited without one.
fn budget_for(deadline: Option<Instant>) -> Budget {
    match deadline {
        Some(d) => Budget::with_deadline(d),
        None => Budget::unlimited(),
    }
}

/// One prepared batch item: the request object with its (already
/// removed) per-item `deadline_ms` resolved against the batch-level
/// deadline, or the failure its preparation produced.
type BatchItem = Result<(Value, Option<Instant>), Failure>;

/// Resolves each item's effective deadline: the per-item `deadline_ms`
/// field (removed before dispatch — solvers reject undeclared fields)
/// anchored at batch start, clipped by the request-level deadline.
fn prepare_batch_items(items: Vec<Value>, deadline: Option<Instant>) -> Vec<BatchItem> {
    let anchor = Instant::now();
    items
        .into_iter()
        .map(|mut item| {
            let own = take_deadline_ms(&mut item)?.map(|ms| anchor + Duration::from_millis(ms));
            let effective = match (own, deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            Ok((item, effective))
        })
        .collect()
}

/// Removes and parses a batch item's `"deadline_ms"` field, if any.
fn take_deadline_ms(item: &mut Value) -> Result<Option<u64>, Failure> {
    let Value::Object(entries) = item else {
        return Ok(None);
    };
    let Some(pos) = entries.iter().position(|(k, _)| k == "deadline_ms") else {
        return Ok(None);
    };
    let (_, v) = entries.remove(pos);
    match v.as_u64() {
        Some(ms) => Ok(Some(ms)),
        None => Err(invalid_field(
            "deadline_ms",
            "must be a non-negative integer of milliseconds",
        )),
    }
}

/// Runs a batch's items, scattering across the worker pool when one is
/// attached and the batch is worth parallelising, and returns outcomes
/// in request order.
fn run_batch(state: &AppState, items: Vec<BatchItem>) -> Vec<Result<String, Failure>> {
    state.metrics.record_batch();
    let pool = state.fanout.get();
    if items.len() < 2 || pool.is_none() {
        return items
            .iter()
            .map(|item| {
                state.metrics.record_batch_subtask(false);
                run_batch_item(state, item)
            })
            .collect();
    }
    let pool = pool.expect("checked above");
    let job = Arc::new(BatchJob::new(items));
    // Scatter: enqueue contiguous chunks of items, at most
    // MAX_BATCH_SUBTASKS of them, so a thousand-item batch costs tens of
    // queue operations instead of a thousand. A full queue is not an
    // error — whatever fails to scatter simply runs inline below, so a
    // saturated pool degrades to sequential execution instead of
    // deadlocking the worker that is coordinating this batch.
    let chunk = job.len().div_ceil(MAX_BATCH_SUBTASKS).max(1);
    let mut start = 0;
    while start < job.len() {
        let end = (start + chunk).min(job.len());
        // Raise the gauge before the push: a worker may pop (and
        // decrement) the instant the push lands.
        state.metrics.queue_changed(1);
        let subtask = BatchSubtask {
            job: Arc::clone(&job),
            start,
            end,
        };
        if pool.try_push_rotating(Work::Batch(subtask)).is_err() {
            state.metrics.queue_changed(-1);
            break;
        }
        start = end;
    }
    // Gather, stealing: claim and run every item no worker has started
    // yet (including items we queued — a worker popping one later finds
    // the claim taken and drops it). Because the coordinator can always
    // claim its own unstarted work, batch completion never depends on
    // queue capacity, which is what makes the scheme deadlock-free.
    for index in 0..job.len() {
        if job.run_claimed(state, index) {
            state.metrics.record_batch_subtask(false);
        }
    }
    // Items claimed by pool workers may still be in flight; wait for
    // the last store. Every claimed item is actively executing on some
    // thread, so this wait is bounded by solver time, not queue state.
    job.wait()
}

/// A scattered `/v1/partition` batch: the items, one claim flag per
/// item, and the gathered results.
///
/// Claims make work stealing race-free: whoever flips the flag first —
/// a pool worker that popped the subtask, or the coordinator sweeping
/// unstarted items — runs the item exactly once.
#[derive(Debug)]
struct BatchJob {
    items: Vec<BatchItem>,
    claims: Vec<AtomicBool>,
    slots: Mutex<BatchSlots>,
    done: Condvar,
}

/// Runs one prepared batch item: a preparation failure is reported in
/// place; an item whose deadline already expired is dropped without
/// dispatching (counted under `where="batch"`); everything else solves
/// under its effective deadline.
fn run_batch_item(state: &AppState, item: &BatchItem) -> Result<String, Failure> {
    match item {
        Err(failure) => Err(failure.clone()),
        Ok((value, deadline)) => {
            if let Some(d) = deadline {
                if Instant::now() >= *d {
                    state.metrics.record_deadline_drop("batch");
                    return Err(solve_failure(SolveError::DeadlineExceeded));
                }
            }
            partition_one(state, value, *deadline)
        }
    }
}

#[derive(Debug)]
struct BatchSlots {
    results: Vec<Option<Result<String, Failure>>>,
    remaining: usize,
}

impl BatchJob {
    fn new(items: Vec<BatchItem>) -> Self {
        let n = items.len();
        BatchJob {
            items,
            claims: (0..n).map(|_| AtomicBool::new(false)).collect(),
            slots: Mutex::new(BatchSlots {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// Claims and runs item `index`; returns `false` (without running)
    /// when another thread already claimed it.
    fn run_claimed(&self, state: &AppState, index: usize) -> bool {
        if self.claims[index].swap(true, Ordering::AcqRel) {
            return false;
        }
        let result = run_batch_item(state, &self.items[index]);
        let mut slots = self.slots.lock().expect("batch slots poisoned");
        slots.results[index] = Some(result);
        slots.remaining -= 1;
        if slots.remaining == 0 {
            self.done.notify_all();
        }
        true
    }

    /// Blocks until every item has stored its result, then returns them
    /// in request order.
    fn wait(&self) -> Vec<Result<String, Failure>> {
        let mut slots = self.slots.lock().expect("batch slots poisoned");
        while slots.remaining > 0 {
            slots = self.done.wait(slots).expect("batch slots poisoned");
        }
        slots
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("all items completed"))
            .collect()
    }
}

/// One scattered chunk of batch items (`start..end`), executed by a
/// pool worker. Claims stay per-item, so any item the coordinator stole
/// first is simply skipped — chunking changes queue traffic, not the
/// execution or ordering guarantees.
#[derive(Debug)]
pub struct BatchSubtask {
    job: Arc<BatchJob>,
    start: usize,
    end: usize,
}

impl BatchSubtask {
    /// Runs every still-unclaimed item in the chunk. Called from the
    /// worker loop in [`crate::server`].
    pub fn run(&self, state: &AppState) {
        for index in self.start..self.end {
            if self.job.run_claimed(state, index) {
                state.metrics.record_batch_subtask(true);
            }
        }
    }
}

/// The registered solver a request object's `"objective"` names, with
/// its registry index (the dense metrics key).
fn named_solver(value: &Value) -> Option<(usize, &'static dyn Solver)> {
    value
        .get("objective")
        .and_then(Value::as_str)
        .and_then(|name| Registry::shared().get(name))
}

/// The registered name the request dispatches to, for log labels —
/// `"-"` when the objective is missing or unknown.
fn dispatched_objective(value: &Value) -> &'static str {
    named_solver(value).map_or("-", |(_, solver)| solver.name())
}

/// Runs `f` under a named stage: the duration lands in the per-stage
/// histogram and (when this thread carries an active trace) as a span.
/// Batch subtasks on sibling workers have no active recorder, so their
/// stage metrics still record while span collection no-ops. Takes the
/// stage's start instant and returns the end instant so adjacent
/// stages chain boundaries (the end of `solve` is the start of
/// `serialize`) instead of paying a clock read per edge.
fn timed_stage_from<R>(
    state: &AppState,
    stage: Stage,
    started: Instant,
    f: impl FnOnce() -> R,
) -> (R, Instant) {
    let result = f();
    let done = Instant::now();
    record_stage(state, stage, started, done);
    (result, done)
}

/// Records `stage` as having run from `started` to `done`.
fn record_stage(state: &AppState, stage: Stage, started: Instant, done: Instant) {
    let elapsed = done.saturating_duration_since(started);
    state.metrics.record_stage(stage, elapsed);
    trace::record(stage, started, elapsed);
}

/// Handles one partition request object (a whole body or a batch item):
/// registry dispatch, then [`solve_request`] under a [`Budget`] for the
/// request's deadline. Returns the rendered (compact) response JSON.
/// Per-objective metrics are recorded here and in the tail, so batch
/// items count too.
fn partition_one(
    state: &AppState,
    value: &Value,
    deadline: Option<Instant>,
) -> Result<String, Failure> {
    let started = Instant::now();
    match Registry::shared().dispatch(value) {
        Ok((_, _, request)) => {
            solve_request(state, &request, &budget_for(deadline), deadline, started)
        }
        Err(error) => {
            // Label the failure when the objective at least resolved;
            // unknown objectives have no series to attribute to.
            let outcome = Err(solve_failure(error));
            record_outcome(state, named_solver(value), &outcome, started);
            outcome
        }
    }
}

/// The one stateless solve tail, whichever parser built `request`: the
/// cache under the request's canonical key, and on a miss
/// [`solve_and_render`] under `budget`; then [`record_outcome`] from
/// `started`. A long solve is interrupted mid-loop instead of holding
/// the worker.
///
/// The key's length is known before the key is built, so a key the
/// cache must refuse (a 100k-node graph's runs to megabytes) is never
/// built: the request goes through the cache as an unkeyed miss.
fn solve_request(
    state: &AppState,
    request: &tgp_solvers::Request,
    budget: &Budget,
    deadline: Option<Instant>,
    started: Instant,
) -> Result<String, Failure> {
    let cost = request.cost_estimate();
    let key = state
        .cache
        .admits(request.canonical_key_len(), cost)
        .then(|| request.canonical_key());
    let outcome = cache_through(state, key.as_deref(), cost, deadline, || {
        solve_and_render(state, request, budget, Instant::now())
    });
    let objective = Registry::shared().get(request.objective.name());
    record_outcome(state, objective, &outcome, started);
    outcome
}

/// The one partition solve step, for stateless requests and session
/// solves alike: solves `request` under `budget`, timed as the `solve`
/// stage (from `solve_started`), and takes the body the solver wrote,
/// timed as the `serialize` stage. The solver writes its JSON text as
/// it solves, so what `serialize` times is handing that text over, not
/// rendering it. The request's RAM-pinned graph bytes count in
/// `tgp_graph_resident_bytes` for the length of the solve.
fn solve_and_render(
    state: &AppState,
    request: &tgp_solvers::Request,
    budget: &Budget,
    solve_started: Instant,
) -> Result<String, Failure> {
    let bytes = request.graph.resident_bytes() as i64;
    state.metrics.graph_resident_changed(bytes);
    let (response, solve_done) = timed_stage_from(state, Stage::Solve, solve_started, || {
        request.run_budgeted(budget).map_err(solve_failure)
    });
    state.metrics.graph_resident_changed(-bytes);
    let response = response?;
    let (rendered, _) = timed_stage_from(state, Stage::Serialize, solve_done, || {
        response.value.into_string()
    });
    Ok(rendered)
}

/// A rendered body with the newline every response body ends with,
/// appended in place: the body is not copied unless its buffer is full.
fn with_newline(mut rendered: String) -> String {
    rendered.push('\n');
    rendered
}

/// Records how a solve that began at `started` ended: the outcome and
/// latency of its objective, when one resolved, and for a deadline
/// interrupt a `cancelled` stage span (the time the doomed solve
/// consumed before noticing) and one tick of
/// `tgp_deadline_drops_total{where="solve"}`.
fn record_outcome<T>(
    state: &AppState,
    objective: Option<(usize, &'static dyn Solver)>,
    outcome: &Result<T, Failure>,
    started: Instant,
) {
    if let Some((index, _)) = objective {
        state
            .metrics
            .record_objective(index, outcome.is_ok(), started.elapsed());
    }
    if outcome.as_ref().is_err_and(Failure::is_interrupt) {
        let elapsed = started.elapsed();
        state.metrics.record_stage(Stage::Cancelled, elapsed);
        trace::record(Stage::Cancelled, started, elapsed);
        state.metrics.record_deadline_drop("solve");
    }
}

/// A session-store rejection, carrying the session error's stable code
/// and status (`session_not_found` → 404, `version_conflict` → 409,
/// `session_budget_exceeded` → 413, invalid graph/edit → 422).
fn session_failure(error: SessionError) -> Failure {
    failure(error.status(), error.to_string(), error.code())
}

/// `POST /v1/graphs`: registers a resident graph, returning its id and
/// initial version. Body is `{"graph": <chain or tree object>}`.
fn graphs_register(state: &AppState, body: &[u8]) -> ApiResponse {
    let value = match parse_body(body) {
        Ok(v) => v,
        Err(failure) => return error_response("graphs", &failure),
    };
    let Value::Object(entries) = value else {
        return error_response("graphs", &bad("request body must be a JSON object"));
    };
    let mut graph = None;
    for (key, field) in entries {
        match key.as_str() {
            "graph" => graph = Some(field),
            other => {
                return error_response(
                    "graphs",
                    &invalid_field(other, "not a field of the register request"),
                )
            }
        }
    }
    let Some(graph) = graph else {
        return error_response(
            "graphs",
            &missing_field("graph", "a chain or tree graph object"),
        );
    };
    match state.sessions.register(graph) {
        Ok((id, _version)) => {
            let info = state
                .sessions
                .info(&id)
                .expect("freshly registered graph is resident");
            json_response(200, "graphs", format!("{info}\n"))
        }
        Err(error) => error_response("graphs", &session_failure(error)),
    }
}

/// Routes `/v1/graphs/<id>` and `/v1/graphs/<id>/partition`.
fn graphs_item(
    state: &AppState,
    method: &str,
    path: &str,
    body: &[u8],
    deadline: Option<Instant>,
) -> ApiResponse {
    let rest = path.strip_prefix("/v1/graphs/").expect("routed by prefix");
    if let Some(id) = rest.strip_suffix("/partition") {
        if id.is_empty() || id.contains('/') {
            return simple_error(404, "graphs", "no such endpoint");
        }
        if method != "POST" {
            return simple_error(405, "graphs", "method not allowed");
        }
        return session_partition(state, id, body, deadline);
    }
    let id = rest;
    if id.is_empty() || id.contains('/') {
        return simple_error(404, "graphs", "no such endpoint");
    }
    match method {
        "GET" => match state.sessions.info(id) {
            Ok(info) => json_response(200, "graphs", format!("{info}\n")),
            Err(error) => error_response("graphs", &session_failure(error)),
        },
        "DELETE" => match state.sessions.delete(id) {
            Ok(()) => json_response(
                200,
                "graphs",
                format!("{}\n", json!({ "id": id, "deleted": true })),
            ),
            Err(error) => error_response("graphs", &session_failure(error)),
        },
        "PATCH" => graphs_patch(state, id, body),
        _ => simple_error(405, "graphs", "method not allowed"),
    }
}

/// `PATCH /v1/graphs/<id>`: applies one atomic edit batch under an
/// optimistic version check. Body is `{"version": N, "edits": [...]}`.
fn graphs_patch(state: &AppState, id: &str, body: &[u8]) -> ApiResponse {
    let value = match parse_body(body) {
        Ok(v) => v,
        Err(failure) => return error_response("graphs", &failure),
    };
    let failure = 'patch: {
        let Some(entries) = value.as_object() else {
            break 'patch bad("request body must be a JSON object");
        };
        if let Some((key, _)) = entries.iter().find(|(k, _)| k != "version" && k != "edits") {
            break 'patch invalid_field(key, "not a field of the edit request");
        }
        let Some(version) = value.get("version").and_then(Value::as_u64) else {
            break 'patch missing_field("version", "the graph version the batch applies to");
        };
        let Some(edits_value) = value.get("edits") else {
            break 'patch missing_field("edits", "an array of edit objects");
        };
        let edits = match Edit::batch_from_json(edits_value) {
            Ok(edits) => edits,
            Err(error) => break 'patch session_failure(error),
        };
        match state.sessions.apply(id, version, &edits) {
            Ok(new_version) => {
                return json_response(
                    200,
                    "graphs",
                    format!(
                        "{}\n",
                        json!({
                            "id": id,
                            "version": new_version,
                            "applied": edits.len() as u64,
                        })
                    ),
                )
            }
            Err(error) => break 'patch session_failure(error),
        }
    };
    error_response("graphs", &failure)
}

/// `POST /v1/graphs/<id>/partition`: solves an objective against the
/// resident graph, under the request's deadline. Full responses are
/// byte-identical to the stateless endpoint's.
fn session_partition(
    state: &AppState,
    id: &str,
    body: &[u8],
    deadline: Option<Instant>,
) -> ApiResponse {
    let started = Instant::now();
    let mut value = match parse_body_budgeted(state, body, deadline) {
        Ok(v) => v,
        Err(failure) => return error_response("graphs", &failure),
    };
    let objective = named_solver(&value);
    let outcome = session_partition_one(state, id, &mut value, deadline);
    record_outcome(state, objective, &outcome, started);
    let mut response = match outcome {
        Ok(solved) => {
            state.sessions.record_solve();
            let mut response = json_response(200, "graphs", solved.body);
            if let Some(mode) = solved.response_mode {
                response.headers.push(("x-tgp-response", mode.to_string()));
            }
            response
        }
        Err(failure) => error_response("graphs", &failure),
    };
    response.objective = objective.map_or("-", |(_, solver)| solver.name());
    response
}

/// Outcome of one session solve: the response body (full, or just the
/// changed fields) and — when the client asked via `"response"` — which
/// body shape was actually returned.
struct SessionSolve {
    body: String,
    response_mode: Option<&'static str>,
}

/// The session solve: looks up the resident graph, splices it into the
/// request for parsing (moved, not cloned — a 100k-node graph costs two
/// pointer swaps; see [`session_request`]), and solves it under the
/// request's budget. Whichever backing the request's arrays got, the
/// solve, serialize and delta bookkeeping below are the same.
///
/// Session solves bypass the [`ResultCache`] deliberately: every
/// re-solve recomputes, which is what `loadgen --strict` verifies
/// against the stateless endpoint.
fn session_partition_one(
    state: &AppState,
    id: &str,
    value: &mut Value,
    deadline: Option<Instant>,
) -> Result<SessionSolve, Failure> {
    let session_started = Instant::now();
    if value.get("graph").is_some() {
        return Err(invalid_field(
            "graph",
            "session partitions use the resident graph; remove the \"graph\" field",
        ));
    }
    let Value::Object(_) = value else {
        return Err(bad("request body must be a JSON object"));
    };
    // The `"response"` field is service-level ("full" | "delta"), not a
    // solver parameter: extract and remove it before dispatch.
    let response_mode = take_response_mode(value)?;
    let arc = state.sessions.resident(id).map_err(session_failure)?;
    let mut resident = arc.lock().expect("resident graph poisoned");
    if resident.is_deleted() {
        // Deleted while this solve waited for it.
        let id = id.to_string();
        return Err(session_failure(SessionError::NotFound { id }));
    }
    let budget = budget_for(deadline);
    // Move the resident graph into the request object, parse, move it
    // back. No early return while the graph is out.
    let resident_bytes = resident.resident_bytes();
    let graph = std::mem::replace(&mut resident.graph, Value::Null);
    if let Value::Object(entries) = value {
        entries.push(("graph".to_string(), graph));
    }
    let parsed = session_request(state, value, resident_bytes, session_started);
    let graph = match value {
        Value::Object(entries) => entries.pop().map(|(_, graph)| graph).unwrap_or(Value::Null),
        _ => Value::Null,
    };
    resident.graph = graph;
    let (request, parsed_at) = parsed?;
    let rendered = solve_and_render(state, &request, &budget, parsed_at)?;
    // Keep the full response as the baseline of this (objective,
    // params) key, still under the resident lock so per-graph solves
    // serialize with their baselines, and answer delta requests with
    // only the fields that changed since the last solve.
    let previous =
        state
            .sessions
            .replace_baseline(&mut resident, request.baseline_key(), rendered.clone());
    let (body, response_mode) = match response_mode {
        Some("delta") => match previous {
            Some(previous) => (
                format!("{}\n", delta_changed(&previous, &rendered)),
                Some("delta"),
            ),
            // No baseline to diff against: fall back to the full body.
            None => (with_newline(rendered), Some("full")),
        },
        Some(_) => (with_newline(rendered), Some("full")),
        None => (with_newline(rendered), None),
    };
    Ok(SessionSolve {
        body,
        response_mode,
    })
}

/// Parses a session solve, the resident graph already spliced into
/// `value`, once, onto the arrays the graph's size calls for: disk-backed
/// at or past `--graph-spill-bytes`, so that a solve does not double a
/// large resident graph's footprint, RAM below it (registry dispatch
/// falls back to RAM when the spill dir fails). Records the `session`
/// stage (lookup through parse, from `session_started`) exactly once,
/// and a chain's or tree's backing in `tgp_store_backing`. Returns the
/// request and the instant its solve may start.
fn session_request(
    state: &AppState,
    value: &Value,
    resident_bytes: u64,
    session_started: Instant,
) -> Result<(tgp_solvers::Request, Instant), Failure> {
    let backing = state.ingest_backing(resident_bytes);
    let (_, _, request) = Registry::shared()
        .dispatch_onto(value, &backing)
        .map_err(solve_failure)?;
    let parsed = Instant::now();
    record_stage(state, Stage::Session, session_started, parsed);
    if request.graph.kind() != GraphKind::Process {
        state
            .metrics
            .record_store_backing(request.graph.backing_kind().as_str());
    }
    Ok((request, parsed))
}

/// Removes and validates the session solve's `"response"` field.
fn take_response_mode(value: &mut Value) -> Result<Option<&'static str>, Failure> {
    let Value::Object(entries) = value else {
        return Ok(None);
    };
    let Some(pos) = entries.iter().position(|(k, _)| k == "response") else {
        return Ok(None);
    };
    let (_, v) = entries.remove(pos);
    match v.as_str() {
        Some("full") => Ok(Some("full")),
        Some("delta") => Ok(Some("delta")),
        _ => Err(invalid_field("response", "must be \"full\" or \"delta\"")),
    }
}

/// The delta body: the fields of the `current` full response whose
/// rendered value differs from the stored `previous` one, in response
/// order. Both are compact renderings with no float, so the parsed
/// fields print back byte-identically. Reconstructing the full body =
/// taking `previous` and substituting each changed field's value;
/// session_e2e pins that round trip byte-identical.
fn delta_changed(previous: &str, current: &str) -> Value {
    let prev = Value::parse(previous).expect("stored solve is rendered JSON");
    let current = Value::parse(current).expect("a solve renders JSON");
    let mut changed: Vec<(String, Value)> = Vec::new();
    if let Value::Object(entries) = current {
        for (k, v) in entries {
            let same = prev
                .get(&k)
                .map(|p| p.to_string() == v.to_string())
                .unwrap_or(false);
            if !same {
                changed.push((k, v));
            }
        }
    }
    Value::Object(vec![("changed".to_string(), Value::Object(changed))])
}

fn simulate_endpoint(state: &AppState, body: &[u8], deadline: Option<Instant>) -> ApiResponse {
    let started = Instant::now();
    let value = match parse_body_budgeted(state, body, deadline) {
        Ok(v) => v,
        Err(failure) => return error_response("simulate", &failure),
    };
    let outcome = simulate_one(state, &value, deadline);
    record_outcome(state, None, &outcome, started);
    match outcome {
        Ok(rendered) => json_response(200, "simulate", with_newline(rendered)),
        Err(failure) => error_response("simulate", &failure),
    }
}

/// 422 constructors matching the registry's error codes, for the
/// simulate endpoint (which takes no objective and so bypasses the
/// registry but follows the same error contract).
fn missing_field(field: &'static str, expected: &'static str) -> Failure {
    solve_failure(SolveError::MissingField { field, expected })
}

fn invalid_field(field: &str, message: impl Into<String>) -> Failure {
    solve_failure(SolveError::InvalidField {
        field: field.into(),
        message: message.into(),
    })
}

fn too_expensive(message: String) -> Failure {
    failure(422, message, "too_expensive")
}

fn infeasible(error: impl std::fmt::Display) -> Failure {
    solve_failure(SolveError::infeasible(error))
}

fn simulate_one(
    state: &AppState,
    value: &Value,
    deadline: Option<Instant>,
) -> Result<String, Failure> {
    let bound = value["bound"]
        .as_u64()
        .ok_or_else(|| missing_field("bound", "a non-negative integer"))?;
    let items = value["items"]
        .as_u64()
        .ok_or_else(|| missing_field("items", "a non-negative integer"))?;
    if items > MAX_SIMULATE_ITEMS {
        return Err(too_expensive(format!(
            "\"items\" is {items}, which exceeds the limit of {MAX_SIMULATE_ITEMS}"
        )));
    }
    let items = items as usize;
    let graph = value
        .get("graph")
        .ok_or_else(|| missing_field("graph", "a chain graph object"))?;
    let chain = PathGraph::from_json(graph)
        .map_err(|e| invalid_field("graph", format!("not a valid chain: {e}")))?;
    let processors_override = match value.get("processors") {
        None => None,
        Some(v) => {
            let p = v
                .as_u64()
                .ok_or_else(|| invalid_field("processors", "must be a non-negative integer"))?;
            if p > MAX_SIMULATE_PROCESSORS {
                return Err(too_expensive(format!(
                    "\"processors\" is {p}, which exceeds the limit of {MAX_SIMULATE_PROCESSORS}"
                )));
            }
            Some(p as usize)
        }
    };
    let interconnect_name = match value.get("interconnect") {
        None => "bus",
        Some(v) => v
            .as_str()
            .ok_or_else(|| invalid_field("interconnect", "must be \"bus\" or \"crossbar\""))?,
    };
    let interconnect = match interconnect_name {
        "bus" => Interconnect::Bus,
        "crossbar" => Interconnect::Crossbar,
        other => {
            return Err(invalid_field(
                "interconnect",
                format!("must be \"bus\" or \"crossbar\", got {other:?}"),
            ))
        }
    };

    let mut builder = KeyBuilder::default();
    builder.write(b"simulate/");
    builder.write(interconnect_name.as_bytes());
    builder.write_u64(bound);
    builder.write_u64(items as u64);
    builder.write_u64(processors_override.map(|p| p as u64 + 1).unwrap_or(0));
    builder.write_u64(chain.len() as u64);
    for w in chain.node_weights() {
        builder.write_u64(w.get());
    }
    for w in chain.edge_weights() {
        builder.write_u64(w.get());
    }
    let key = builder.finish();

    // One simulation event per item per stage, roughly: the admission
    // guard should treat long simulations as expensive to recompute.
    let cost = (items as u64).saturating_mul(chain.len() as u64);
    cache_through(state, Some(key.as_slice()), cost, deadline, || {
        let budget = budget_for(deadline);
        let (solved, solve_done) = timed_stage_from(state, Stage::Solve, Instant::now(), || {
            let part = partition_chain(&chain, Weight::new(bound), &budget)
                .map_err(|e| solve_failure(SolveError::from_partition(e)))?;
            let processors = processors_override.unwrap_or(part.processors);
            let machine = Machine::new(processors, 1, 1, 0, interconnect).map_err(infeasible)?;
            let spec = PipelineSpec::from_partition(&chain, &part.cut).map_err(infeasible)?;
            let report = simulate_pipeline(&spec, &machine, items).map_err(infeasible)?;
            Ok::<_, Failure>((processors, report))
        });
        let (processors, report) = solved?;
        let (rendered, _) = timed_stage_from(state, Stage::Serialize, solve_done, || {
            json!({
                "bound": bound,
                "processors": processors,
                "items": items,
                "makespan": report.makespan,
                "throughput": report.throughput(),
                "mean_utilization": report.mean_utilization(),
                "interconnect_utilization": report.interconnect_utilization(),
                "total_traffic": report.total_traffic,
            })
            .to_string()
        });
        Ok(rendered)
    })
}

/// Cache-through: serve a rendered response from the cache or compute,
/// render and remember it. Only successes are cached — a failure (e.g.
/// infeasible bound) is cheap to recompute and should not occupy space.
/// `cost` is the solver's work estimate, used twice: by the cache's
/// admission guard to decide whether a large response is worth keeping,
/// and by [`AppState::shed_verdict`] to refuse expensive recomputation
/// while the worker queue is nearly full. The shed check sits *after*
/// the cache probe on purpose: a hit costs nothing to serve, so cached
/// requests are never shed no matter how expensive their solve was.
///
/// A `None` key stands for a key the admission guard refuses, left
/// unbuilt. It is never probed, counts as a miss, and its insert as the
/// guard's oversize rejection, exactly as a built key of that length
/// would.
fn cache_through(
    state: &AppState,
    key: Option<&[u8]>,
    cost: u64,
    deadline: Option<Instant>,
    compute: impl FnOnce() -> Result<String, Failure>,
) -> Result<String, Failure> {
    // Timed inline (not via `timed_stage_from`) so the probe's end
    // instant also stamps the hit/miss journal event — one clock read
    // saved on every request.
    let probe_started = Instant::now();
    // A key the admission guard would refuse even with an empty value
    // can never be cached, so its probe (an FNV pass over the whole key)
    // is skipped; it still counts as a miss and still reaches `insert`.
    let hit = match key {
        Some(key) if state.cache.admits(key.len(), cost) => state.cache.get(key),
        _ => None,
    };
    let probe_done = Instant::now();
    let probe = probe_done.saturating_duration_since(probe_started);
    state.metrics.record_stage(Stage::Cache, probe);
    trace::record(Stage::Cache, probe_started, probe);
    if let Some(hit) = hit {
        state.metrics.record_cache(true);
        if state.debug_endpoints {
            let trace_id = trace::current_id().unwrap_or(TraceId::NONE).as_u64();
            state
                .journal
                .append_at(probe_done, EventKind::CacheHit, trace_id, cost, 0);
        }
        return Ok(hit);
    }
    if let Some(failure) = state.shed_verdict(cost, deadline) {
        // Shed before counting a miss: the request neither consulted
        // compute nor occupied the cache, so it is not cache traffic.
        return Err(failure);
    }
    state.metrics.record_cache(false);
    if state.debug_endpoints {
        let trace_id = trace::current_id().unwrap_or(TraceId::NONE).as_u64();
        state
            .journal
            .append_at(probe_done, EventKind::CacheMiss, trace_id, cost, 0);
    }
    let rendered = compute()?;
    match key {
        Some(key) => {
            state.cache.insert(key, rendered.clone(), cost);
        }
        None => state.cache.note_refused(),
    }
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BoundedQueue;
    use tgp_core::pipeline::partition_chain;
    use tgp_solvers::GraphKind;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec().into(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new().into(),
            keep_alive: true,
        }
    }

    const CHAIN: &str = r#"{"node_weights": [2, 3, 5, 7], "edge_weights": [10, 1, 10]}"#;
    const TREE: &str = r#"{"node_weights": [1, 2, 3, 4],
        "edges": [{"a": 0, "b": 1, "weight": 10},
                  {"a": 0, "b": 2, "weight": 20},
                  {"a": 2, "b": 3, "weight": 30}]}"#;

    /// A runnable request for any registered objective, used to prove
    /// the endpoint really exposes the whole registry.
    fn golden_body(objective: &str) -> String {
        let (_, solver) = Registry::shared().get(objective).expect("registered");
        let graph = match solver.graph_kind() {
            GraphKind::Chain => CHAIN,
            GraphKind::Tree | GraphKind::Process => TREE,
        };
        let params = match objective {
            "coc" | "bokhari" | "hansen-lih" => r#""processors": 2"#,
            "hetero" => r#""speeds": [2, 1]"#,
            "host-satellite" => r#""satellites": 2"#,
            _ => r#""bound": 10"#,
        };
        format!(r#"{{"objective": "{objective}", {params}, "graph": {graph}}}"#)
    }

    #[test]
    fn healthz_is_ok() {
        let state = AppState::new(CacheConfig::default());
        let r = handle(&state, &get("/healthz"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("ok"));
    }

    #[test]
    fn every_registered_objective_is_served() {
        let state = AppState::new(CacheConfig::default());
        for solver in Registry::shared().iter() {
            let body = golden_body(solver.name());
            let r = handle(&state, &post("/v1/partition", &body));
            assert_eq!(r.status, 200, "{}: {}", solver.name(), r.body);
            let v = Value::parse(&r.body).unwrap();
            assert_eq!(v["objective"].as_str(), Some(solver.name()), "{}", r.body);
            assert_eq!(r.objective, solver.name());
        }
        // Each objective produced one request + one miss in the metrics.
        let text = state.metrics.render();
        for solver in Registry::shared().iter() {
            assert!(
                text.contains(&format!(
                    "tgp_objective_requests_total{{objective=\"{}\"}} 1",
                    solver.name()
                )),
                "missing metrics for {}",
                solver.name()
            );
        }
    }

    /// A batch item's body is the single-request response's bytes,
    /// spliced into the envelope, for every registered objective.
    #[test]
    fn a_one_item_batch_carries_the_single_response_bytes() {
        for solver in Registry::shared().iter() {
            let body = golden_body(solver.name());
            let single = handle(
                &AppState::new(CacheConfig::default()),
                &post("/v1/partition", &body),
            );
            assert_eq!(single.status, 200, "{}: {}", solver.name(), single.body);
            let batch = handle(
                &AppState::new(CacheConfig::default()),
                &post("/v1/partition", &format!(r#"{{"requests": [{body}]}}"#)),
            );
            assert_eq!(batch.status, 200, "{}: {}", solver.name(), batch.body);
            let item = single.body.strip_suffix('\n').expect("newline-terminated");
            assert_eq!(
                batch.body,
                format!(
                    "{{\"completed\":1,\"failed\":0,\"results\":[{{\"index\":0,\"status\":200,\"body\":{item}}}]}}\n"
                ),
                "{}",
                solver.name()
            );
        }
    }

    /// `tgp_graph_resident_bytes` counts a flat RAM graph while it is
    /// solved, whichever way its request arrived: a streamed body, a body
    /// the streaming parser declines, a batch item, a session re-solve.
    /// Each kind is sent until a poll lands inside its solve.
    #[test]
    fn resident_bytes_count_every_graph_being_solved() {
        fn gauge(state: &AppState) -> u64 {
            let text = state.metrics.render();
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix("tgp_graph_resident_bytes "));
            line.and_then(|v| v.parse().ok()).expect("gauge rendered")
        }
        let n = 20_000;
        let graph = format!(
            r#"{{"node_weights": [{}], "edge_weights": [{}]}}"#,
            vec!["7"; n].join(","),
            vec!["3"; n - 1].join(",")
        );
        let state = AppState::new(CacheConfig::default());
        let r = handle(
            &state,
            &post("/v1/graphs", &format!(r#"{{"graph": {graph}}}"#)),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let id = Value::parse(&r.body).unwrap()["id"]
            .as_str()
            .unwrap()
            .to_string();
        let requests = |bound: u64| {
            let streamed =
                format!(r#"{{"objective": "bandwidth", "bound": {bound}, "graph": {graph}}}"#);
            [
                (
                    "declined",
                    "/v1/partition".to_string(),
                    streamed.replacen("\"bound\"", "\"bo\\u0075nd\"", 1),
                ),
                (
                    "batch item",
                    "/v1/partition".to_string(),
                    format!(r#"{{"requests": [{streamed}]}}"#),
                ),
                (
                    "session",
                    format!("/v1/graphs/{id}/partition"),
                    format!(r#"{{"objective": "bandwidth", "bound": {bound}}}"#),
                ),
                ("streamed", "/v1/partition".to_string(), streamed),
            ]
        };
        for k in 0..4 {
            let mut seen = false;
            let mut kind = "";
            // A fresh bound per attempt, so that no attempt is a cache hit.
            for bound in 100..130 {
                let (name, path, body) = &requests(bound)[k];
                kind = name;
                std::thread::scope(|scope| {
                    let solving = scope.spawn(|| handle(&state, &post(path, body)));
                    while !solving.is_finished() {
                        seen |= gauge(&state) > 0;
                    }
                    let r = solving.join().unwrap();
                    assert_eq!(r.status, 200, "{kind}: {}", r.body);
                    assert!(!r.body.contains("\"status\":4"), "{kind}: {}", r.body);
                });
                if seen {
                    break;
                }
            }
            assert!(seen, "{kind}: no poll saw the graph counted");
            assert_eq!(gauge(&state), 0, "{kind}: released after the solve");
        }
    }

    #[test]
    fn bandwidth_partition_matches_direct_solver() {
        let state = AppState::new(CacheConfig::default());
        let body = format!(r#"{{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}}"#);
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();

        let chain = PathGraph::from_json(&Value::parse(CHAIN).unwrap()).unwrap();
        let direct = partition_chain(&chain, Weight::new(10), &Budget::unlimited()).unwrap();
        assert_eq!(
            v["processors"].as_u64().unwrap() as usize,
            direct.processors
        );
        assert_eq!(v["bandwidth"].as_u64().unwrap(), direct.bandwidth.get());
        let cut: Vec<u64> = v["cut"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.as_u64().unwrap())
            .collect();
        let direct_cut: Vec<u64> = direct.cut.iter().map(|e| e.index() as u64).collect();
        assert_eq!(cut, direct_cut);
    }

    #[test]
    fn tree_objectives_work() {
        let state = AppState::new(CacheConfig::default());
        for (objective, expect_key) in [("bottleneck", "components"), ("procmin", "processors")] {
            let body = format!(r#"{{"objective": "{objective}", "bound": 10, "graph": {TREE}}}"#);
            let r = handle(&state, &post("/v1/partition", &body));
            assert_eq!(r.status, 200, "{objective}: {}", r.body);
            let v = Value::parse(&r.body).unwrap();
            assert!(v[expect_key].as_u64().is_some(), "{objective}: {}", r.body);
        }
    }

    #[test]
    fn equivalent_requests_hit_the_cache() {
        let state = AppState::new(CacheConfig::default());
        let a = format!(r#"{{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}}"#);
        // Same content, different formatting and field order.
        let b = format!(r#"{{ "graph": {CHAIN},   "bound": 10, "objective": "bandwidth" }}"#);
        let r1 = handle(&state, &post("/v1/partition", &a));
        let r2 = handle(&state, &post("/v1/partition", &b));
        assert_eq!(r1.body, r2.body);
        assert_eq!(state.metrics.cache_hits(), 1);
    }

    #[test]
    fn keys_the_cache_cannot_hold_are_never_probed() {
        let state = AppState::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: None,
            max_entry_bytes: 1024,
            shards: 8,
        });
        let computes = std::cell::Cell::new(0);
        let solve = || {
            computes.set(computes.get() + 1);
            Ok("body".to_string())
        };
        // An admissible entry is stored by the first call and hit by the
        // second.
        let small = [b's'; 64];
        for _ in 0..2 {
            assert_eq!(
                cache_through(&state, Some(small.as_slice()), 0, None, solve).unwrap(),
                "body"
            );
        }
        assert_eq!((computes.get(), state.metrics.cache_hits()), (1, 1));
        // A key over the cheap-entry limit, planted under the relaxed
        // allowance of a costly solve: a probe at a cheap cost would
        // find it, so computing again proves no probe ran.
        let big = vec![b'b'; 2048];
        assert!(state.cache.insert(&big, "planted".to_string(), u64::MAX));
        assert_eq!(
            cache_through(&state, Some(big.as_slice()), 0, None, solve).unwrap(),
            "body"
        );
        assert_eq!((computes.get(), state.metrics.cache_hits()), (2, 1));
    }

    #[test]
    fn unbuilt_refused_keys_count_like_built_ones() {
        // A key over the admission limit is never built, yet it counts
        // as a miss and an oversize rejection per request, as a built
        // and refused key does; a key the guard admits is still stored.
        let state = AppState::new(CacheConfig {
            budget_bytes: 1 << 20,
            ttl: None,
            max_entry_bytes: 512,
            shards: 8,
        });
        let chain = |n: usize| {
            format!(
                r#"{{"objective":"bandwidth","bound":1000,"graph":{{"node_weights":[{}],"edge_weights":[{}]}}}}"#,
                vec!["1"; n].join(","),
                vec!["1"; n - 1].join(",")
            )
        };
        let counters = |state: &AppState| {
            let text = handle(state, &get("/metrics")).body;
            let value = |name: &str| -> u64 {
                let line = text
                    .lines()
                    .find(|l| l.starts_with(&format!("{name} ")))
                    .unwrap_or_else(|| panic!("{name} missing"));
                line.rsplit(' ').next().unwrap().parse().unwrap()
            };
            (
                value("tgp_cache_misses_total"),
                value("tgp_cache_rejected_oversize_total"),
                value("tgp_cache_entries"),
            )
        };
        let large = chain(200);
        for round in 1..=2 {
            let r = handle(&state, &post("/v1/partition", &large));
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(counters(&state), (round, round, 0));
        }
        let small = chain(4);
        handle(&state, &post("/v1/partition", &small));
        handle(&state, &post("/v1/partition", &small));
        assert_eq!(counters(&state), (3, 2, 1));
        assert_eq!(state.metrics.cache_hits(), 1);
    }

    #[test]
    fn batch_requests_partition_independently() {
        let state = AppState::new(CacheConfig::default());
        let body = format!(
            r#"{{"requests": [
                {{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}},
                {{"objective": "nonsense", "bound": 10, "graph": {CHAIN}}},
                {{"objective": "procmin", "bound": 10, "graph": {TREE}}}
            ]}}"#
        );
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.objective, "batch");
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["completed"].as_u64(), Some(2), "{}", r.body);
        assert_eq!(v["failed"].as_u64(), Some(1), "{}", r.body);
        let results = v["results"].as_array().unwrap();
        assert_eq!(results.len(), 3);
        // v2: every item is tagged {index, status, body}, in order.
        for (i, item) in results.iter().enumerate() {
            assert_eq!(item["index"].as_u64(), Some(i as u64));
        }
        assert_eq!(results[0]["status"].as_u64(), Some(200));
        assert!(results[0]["body"]["objective"].as_str().is_some());
        assert_eq!(results[1]["status"].as_u64(), Some(422));
        assert_eq!(
            results[1]["body"]["code"].as_str(),
            Some("unknown_objective")
        );
        assert_eq!(results[2]["status"].as_u64(), Some(200));
        assert!(results[2]["body"]["processors"].as_u64().is_some());
    }

    #[test]
    fn batch_compat_key_is_ignored() {
        // The v1 `compat` shape is gone: the key is one more envelope
        // key the server does not read, whatever its value.
        let state = AppState::new(CacheConfig::default());
        for flag in ["true", "1"] {
            let body = format!(
                r#"{{"compat": {flag}, "requests": [
                    {{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}},
                    {{"objective": "nonsense", "bound": 10, "graph": {CHAIN}}}
                ]}}"#
            );
            let r = handle(&state, &post("/v1/partition", &body));
            assert_eq!(r.status, 200, "{}", r.body);
            let v = Value::parse(&r.body).unwrap();
            assert_eq!(v["completed"].as_u64(), Some(1), "{}", r.body);
            assert_eq!(v["failed"].as_u64(), Some(1), "{}", r.body);
            let results = v["results"].as_array().unwrap();
            assert!(results[0]["body"]["objective"].as_str().is_some());
            assert_eq!(
                results[1]["body"]["code"].as_str(),
                Some("unknown_objective")
            );
        }
    }

    #[test]
    fn batch_without_pool_runs_inline_and_counts_subtasks() {
        let state = AppState::new(CacheConfig::default());
        let body = format!(
            r#"{{"requests": [
                {{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}},
                {{"objective": "nicol", "bound": 10, "graph": {CHAIN}}}
            ]}}"#
        );
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let text = state.metrics.render();
        assert!(text.contains("tgp_batch_requests_total 1"), "{text}");
        assert!(
            text.contains("tgp_batch_subtasks_total{path=\"inline\"} 2"),
            "no pool attached → both items inline: {text}"
        );
    }

    #[test]
    fn batch_scatters_across_an_attached_pool() {
        use std::sync::Arc;
        let state = Arc::new(AppState::new(CacheConfig::default()));
        let pool = Arc::new(BoundedQueue::<Work>::new(64));
        state.attach_pool(Arc::new(QueueSet::single(Arc::clone(&pool))));
        // Two pool "workers" draining subtasks, as the server would.
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while let Some(work) = pool.pop() {
                        state.metrics.queue_changed(-1);
                        if let Work::Batch(subtask) = work {
                            subtask.run(&state);
                        }
                    }
                })
            })
            .collect();

        let items: Vec<String> = (1..=32)
            .map(|k| {
                format!(
                    r#"{{"objective": "bandwidth", "bound": {}, "graph": {CHAIN}}}"#,
                    k + 9
                )
            })
            .collect();
        let body = format!(r#"{{"requests": [{}]}}"#, items.join(","));
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["completed"].as_u64(), Some(32), "{}", r.body);
        let results = v["results"].as_array().unwrap();
        // Results arrive in request order with matching bounds.
        for (i, item) in results.iter().enumerate() {
            assert_eq!(item["index"].as_u64(), Some(i as u64));
            assert_eq!(item["body"]["bound"].as_u64(), Some(i as u64 + 10));
        }
        pool.close();
        for w in workers {
            w.join().unwrap();
        }
        // All 32 ran exactly once, split between pool and inline paths.
        let text = state.metrics.render();
        let count = |path: &str| -> u64 {
            let needle = format!("tgp_batch_subtasks_total{{path=\"{path}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&needle))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        assert_eq!(count("pool") + count("inline"), 32, "{text}");
    }

    #[test]
    fn large_batches_scatter_in_bounded_chunks() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let state = Arc::new(AppState::new(CacheConfig::default()));
        let pool = Arc::new(BoundedQueue::<Work>::new(256));
        state.attach_pool(Arc::new(QueueSet::single(Arc::clone(&pool))));
        let popped_subtasks = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let state = Arc::clone(&state);
                let popped = Arc::clone(&popped_subtasks);
                std::thread::spawn(move || {
                    while let Some(work) = pool.pop() {
                        state.metrics.queue_changed(-1);
                        if let Work::Batch(subtask) = work {
                            popped.fetch_add(1, Ordering::Relaxed);
                            subtask.run(&state);
                        }
                    }
                })
            })
            .collect();

        // 130 items > MAX_BATCH_SUBTASKS: must scatter as chunks.
        let items: Vec<String> = (0..130)
            .map(|k| {
                format!(
                    r#"{{"objective": "bandwidth", "bound": {}, "graph": {CHAIN}}}"#,
                    k + 10
                )
            })
            .collect();
        let body = format!(r#"{{"requests": [{}]}}"#, items.join(","));
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["completed"].as_u64(), Some(130), "{}", r.body);
        // Order is preserved item-by-item even though scatter is chunked.
        for (i, item) in v["results"].as_array().unwrap().iter().enumerate() {
            assert_eq!(item["index"].as_u64(), Some(i as u64));
            assert_eq!(item["body"]["bound"].as_u64(), Some(i as u64 + 10));
        }
        pool.close();
        for w in workers {
            w.join().unwrap();
        }
        // The queue saw at most MAX_BATCH_SUBTASKS subtasks for 130
        // items — the whole point of chunking.
        assert!(
            popped_subtasks.load(Ordering::Relaxed) <= MAX_BATCH_SUBTASKS,
            "queue traffic was not chunked: {} subtasks popped",
            popped_subtasks.load(Ordering::Relaxed)
        );
        // Every item ran exactly once, wherever it ran.
        let text = state.metrics.render();
        let count = |path: &str| -> u64 {
            let needle = format!("tgp_batch_subtasks_total{{path=\"{path}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&needle))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        assert_eq!(count("pool") + count("inline"), 130, "{text}");
    }

    #[test]
    fn expensive_requests_shed_when_queue_nearly_full() {
        use std::sync::Arc;
        let state = Arc::new(AppState::new(CacheConfig::default()).with_shed_cost(Some(0)));
        let pool = Arc::new(BoundedQueue::<Work>::new(4));
        state.attach_pool(Arc::new(QueueSet::single(Arc::clone(&pool))));
        let body = format!(r#"{{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}}"#);

        // Queue below 3/4 capacity: nothing is shed.
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);

        // Fill the queue to 3/4 with inert subtasks nobody drains; now a
        // cache-missing request above the limit is refused.
        let inert = Arc::new(BatchJob::new(Vec::new()));
        for _ in 0..3 {
            pool.try_push(Work::Batch(BatchSubtask {
                job: Arc::clone(&inert),
                start: 0,
                end: 0,
            }))
            .unwrap();
        }
        let other = format!(r#"{{"objective": "bandwidth", "bound": 11, "graph": {CHAIN}}}"#);
        let r = handle(&state, &post("/v1/partition", &other));
        assert_eq!(r.status, 503, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["code"].as_str(), Some("shed_expensive"), "{}", r.body);
        assert!(
            state.metrics.render().contains("tgp_shed_by_cost_total 1"),
            "shed counter must move"
        );

        // The request served before the pressure is cached — hits are
        // never shed, even at full occupancy.
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(
            r.status, 200,
            "cache hits bypass the shed guard: {}",
            r.body
        );

        // Pressure released: the previously shed request now computes.
        for _ in 0..3 {
            let _ = pool.pop();
        }
        let r = handle(&state, &post("/v1/partition", &other));
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn shedding_is_off_without_a_configured_limit() {
        use std::sync::Arc;
        let state = Arc::new(AppState::new(CacheConfig::default()));
        let pool = Arc::new(BoundedQueue::<Work>::new(1));
        state.attach_pool(Arc::new(QueueSet::single(Arc::clone(&pool))));
        let inert = Arc::new(BatchJob::new(Vec::new()));
        pool.try_push(Work::Batch(BatchSubtask {
            job: inert,
            start: 0,
            end: 0,
        }))
        .unwrap();
        let body = format!(r#"{{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}}"#);
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(
            r.status, 200,
            "no limit configured → never shed: {}",
            r.body
        );
    }

    #[test]
    fn batch_survives_a_saturated_pool_with_no_workers() {
        use std::sync::Arc;
        // A pool nobody drains, with capacity for only one subtask:
        // the coordinator must steal everything back and still answer.
        let state = Arc::new(AppState::new(CacheConfig::default()));
        let pool = Arc::new(BoundedQueue::<Work>::new(1));
        state.attach_pool(Arc::new(QueueSet::single(Arc::clone(&pool))));
        let body = format!(
            r#"{{"requests": [
                {{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}},
                {{"objective": "bandwidth", "bound": 11, "graph": {CHAIN}}},
                {{"objective": "bandwidth", "bound": 12, "graph": {CHAIN}}}
            ]}}"#
        );
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["completed"].as_u64(), Some(3), "{}", r.body);
    }

    #[test]
    fn non_json_bodies_are_400() {
        let state = AppState::new(CacheConfig::default());
        for bad_body in ["", "{", "\"just a string\"x"] {
            let r = handle(&state, &post("/v1/partition", bad_body));
            assert_eq!(r.status, 400, "body {bad_body:?} gave {}", r.body);
            assert_eq!(
                envelope::parse_envelope(r.body.as_bytes()).unwrap(),
                "bad_request"
            );
        }
    }

    #[test]
    fn semantic_rejections_are_422_with_stable_codes() {
        let state = AppState::new(CacheConfig::default());
        for (body, code) in [
            ("[]".to_string(), "missing_field"),
            ("null".to_string(), "missing_field"),
            (r#"{"objective": "bandwidth"}"#.to_string(), "missing_field"),
            (r#"{"objective": 7, "bound": 10, "graph": {}}"#.to_string(), "missing_field"),
            (
                r#"{"objective": "frobnicate", "bound": 10, "graph": {}}"#.to_string(),
                "unknown_objective",
            ),
            (
                format!(r#"{{"objective": "bandwidth", "bound": -3, "graph": {CHAIN}}}"#),
                "missing_field",
            ),
            (
                r#"{"objective": "bandwidth", "bound": 10, "graph": {"node_weights": [1], "edge_weights": [1, 2]}}"#.to_string(),
                "wrong_graph_kind",
            ),
            (
                // `bottleneck` is a tree objective; a chain graph body
                // lacks the "edges" field.
                format!(r#"{{"objective": "bottleneck", "bound": 10, "graph": {CHAIN}}}"#),
                "wrong_graph_kind",
            ),
            (
                // Undeclared field: likely a typo, reject loudly.
                format!(r#"{{"objective": "bandwidth", "buond": 10, "bound": 10, "graph": {CHAIN}}}"#),
                "unknown_field",
            ),
        ] {
            let r = handle(&state, &post("/v1/partition", &body));
            assert_eq!(r.status, 422, "body {body} gave {}", r.body);
            let v = Value::parse(&r.body).unwrap();
            assert_eq!(v["code"].as_str(), Some(code), "body {body} gave {}", r.body);
        }
    }

    #[test]
    fn infeasible_bound_is_422() {
        let state = AppState::new(CacheConfig::default());
        let body = format!(r#"{{"objective": "bandwidth", "bound": 0, "graph": {CHAIN}}}"#);
        let r = handle(&state, &post("/v1/partition", &body));
        assert_eq!(r.status, 422, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["code"].as_str(), Some("infeasible"));
        // The failure is attributed to the objective in /metrics.
        assert!(state
            .metrics
            .render()
            .contains("tgp_objective_errors_total{objective=\"bandwidth\"} 1"));
    }

    #[test]
    fn simulate_reports_throughput() {
        let state = AppState::new(CacheConfig::default());
        let body = format!(r#"{{"bound": 10, "items": 5, "graph": {CHAIN}}}"#);
        let r = handle(&state, &post("/v1/simulate", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert!(v["makespan"].as_u64().unwrap() > 0);
        assert!(v["throughput"].as_f64().unwrap() > 0.0);
        // Identical request → cache hit.
        let _ = handle(&state, &post("/v1/simulate", &body));
        assert_eq!(state.metrics.cache_hits(), 1);
    }

    #[test]
    fn simulate_rejects_resource_exhausting_scalars() {
        let state = AppState::new(CacheConfig::default());
        // One event is scheduled per item and per-processor state is
        // allocated up front, so absurd scalars must be refused before
        // any work or allocation happens.
        for body in [
            format!(r#"{{"bound": 10, "items": 10000000000, "graph": {CHAIN}}}"#),
            format!(
                r#"{{"bound": 10, "items": 5, "processors": 1000000000000000000, "graph": {CHAIN}}}"#
            ),
            format!(
                r#"{{"bound": 10, "items": {}, "graph": {CHAIN}}}"#,
                MAX_SIMULATE_ITEMS + 1
            ),
            format!(
                r#"{{"bound": 10, "items": 5, "processors": {}, "graph": {CHAIN}}}"#,
                MAX_SIMULATE_PROCESSORS + 1
            ),
        ] {
            let r = handle(&state, &post("/v1/simulate", &body));
            assert_eq!(r.status, 422, "body {body} gave {}", r.body);
            let v = Value::parse(&r.body).unwrap();
            assert!(
                v["message"].as_str().unwrap().contains("exceeds the limit"),
                "{}",
                r.body
            );
            assert_eq!(v["code"].as_str(), Some("too_expensive"), "{}", r.body);
        }
        // At the caps themselves the request is structurally accepted
        // (it may still fail for other reasons, but not the cap check).
        let body = format!(
            r#"{{"bound": 10, "items": 100, "processors": {MAX_SIMULATE_PROCESSORS}, "graph": {CHAIN}}}"#
        );
        let r = handle(&state, &post("/v1/simulate", &body));
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn unknown_paths_and_methods() {
        let state = AppState::new(CacheConfig::default());
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert_eq!(handle(&state, &get("/v1/partition")).status, 405);
        assert_eq!(handle(&state, &post("/healthz", "")).status, 405);
    }

    #[test]
    fn metrics_render_after_traffic() {
        let state = AppState::new(CacheConfig::default());
        let _ = handle(&state, &get("/healthz"));
        let r = handle(&state, &get("/metrics"));
        assert_eq!(r.status, 200);
        assert!(r
            .body
            .contains("tgp_requests_total{endpoint=\"healthz\",status=\"200\"} 1"));
    }

    /// Every metric family `/metrics` renders must appear in the
    /// `docs/SERVICE.md` reference table — new series cannot ship
    /// undocumented. Traffic is driven through the flat path first so
    /// the store series (`tgp_graph_*`, `tgp_store_backing`) and the
    /// per-objective series render.
    #[test]
    fn every_rendered_metric_family_is_documented() {
        let state = AppState::new(CacheConfig::default()).with_graph_spill(1, None);
        let solve = format!(r#"{{"objective": "bandwidth", "bound": 10, "graph": {CHAIN}}}"#);
        assert_eq!(handle(&state, &post("/v1/partition", &solve)).status, 200);
        let metrics = handle(&state, &get("/metrics")).body;
        let docs = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/SERVICE.md"
        ))
        .expect("read docs/SERVICE.md");
        let mut missing = Vec::new();
        for line in metrics.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap_or_default();
            let family = name
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            if !docs.contains(family) && !missing.iter().any(|m| m == family) {
                missing.push(family.to_string());
            }
        }
        assert!(
            missing.is_empty(),
            "metric families rendered by /metrics but absent from docs/SERVICE.md: {missing:?}"
        );
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec().into(),
            keep_alive: true,
        }
    }

    fn response_header(r: &ApiResponse) -> Option<&str> {
        r.headers
            .iter()
            .find(|(k, _)| *k == "x-tgp-response")
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn session_lifecycle_register_edit_partition_delete() {
        let state = AppState::new(CacheConfig::default());
        let body = format!(r#"{{"graph": {CHAIN}}}"#);
        let r = handle(&state, &post("/v1/graphs", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["id"].as_str(), Some("g1"));
        assert_eq!(v["version"].as_u64(), Some(1));
        assert_eq!(v["kind"].as_str(), Some("chain"));

        let r = handle(&state, &get("/v1/graphs"));
        assert_eq!(r.status, 200);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["graphs"].as_array().unwrap().len(), 1);

        // Edit: first edge weight 10 → 12, versioned.
        let patch_body =
            r#"{"version": 1, "edits": [{"op": "edge_weight", "index": 0, "weight": 12}]}"#;
        let r = handle(&state, &request("PATCH", "/v1/graphs/g1", patch_body));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["version"].as_u64(), Some(2));

        // Session solve equals the stateless solve of the edited graph.
        let r = handle(
            &state,
            &post(
                "/v1/graphs/g1/partition",
                r#"{"objective": "lexicographic", "bound": 10}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.endpoint, "graphs");
        assert_eq!(r.objective, "lexicographic");
        let edited = r#"{"node_weights": [2, 3, 5, 7], "edge_weights": [12, 1, 10]}"#;
        let stateless = handle(
            &state,
            &post(
                "/v1/partition",
                &format!(r#"{{"objective": "lexicographic", "bound": 10, "graph": {edited}}}"#),
            ),
        );
        assert_eq!(stateless.status, 200, "{}", stateless.body);
        assert_eq!(
            r.body, stateless.body,
            "session solve must be byte-identical"
        );

        let r = handle(&state, &request("DELETE", "/v1/graphs/g1", ""));
        assert_eq!(r.status, 200, "{}", r.body);
        let r = handle(&state, &get("/v1/graphs/g1"));
        assert_eq!(r.status, 404, "{}", r.body);
    }

    #[test]
    fn expired_deadline_stops_a_session_resolve() {
        let state = AppState::new(CacheConfig::default());
        for _ in 0..2 {
            let r = handle(
                &state,
                &post("/v1/graphs", &format!(r#"{{"graph": {CHAIN}}}"#)),
            );
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let solve = r#"{"objective": "lexicographic", "bound": 10}"#;
        let late = |path: &str| {
            let mut req = post(path, solve);
            req.headers
                .push((DEADLINE_HEADER.to_string(), "0".to_string()));
            req
        };
        // g1 solved once and g2 never solved: a small body never reaches
        // the parser's budget poll, so the deadline first meets the
        // budgeted solve, and both answer alike.
        let solved = handle(&state, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(solved.status, 200, "{}", solved.body);
        let resolve_late = handle(&state, &late("/v1/graphs/g1/partition"));
        let fresh_late = handle(&state, &late("/v1/graphs/g2/partition"));
        assert_eq!(resolve_late.status, 504, "{}", resolve_late.body);
        assert_eq!(fresh_late.status, 504, "{}", fresh_late.body);
        assert_eq!(resolve_late.body, fresh_late.body);
        let metrics = handle(&state, &get("/metrics")).body;
        assert!(
            metrics.contains("tgp_deadline_drops_total{where=\"solve\"} 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains("tgp_stage_latency_seconds_count{stage=\"cancelled\"} 2"),
            "{metrics}"
        );
    }

    #[test]
    fn session_resolves_after_edits_are_byte_identical() {
        let state = AppState::new(CacheConfig::default());
        let r = handle(
            &state,
            &post("/v1/graphs", &format!(r#"{{"graph": {CHAIN}}}"#)),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let solve = r#"{"objective": "lexicographic", "bound": 10}"#;
        let stateless = |graph: &str| {
            handle(
                &state,
                &post(
                    "/v1/partition",
                    &format!(r#"{{"objective": "lexicographic", "bound": 10, "graph": {graph}}}"#),
                ),
            )
            .body
        };

        let first = handle(&state, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(first.status, 200, "{}", first.body);
        let again = handle(&state, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(again.status, 200, "{}", again.body);
        assert_eq!(again.body, first.body);
        assert_eq!(first.body, stateless(CHAIN));

        // After an edge edit, and after a vertex edit, the re-solve
        // matches a stateless solve of the edited graph.
        let patch_body =
            r#"{"version": 1, "edits": [{"op": "edge_weight", "index": 2, "weight": 7}]}"#;
        let r = handle(&state, &request("PATCH", "/v1/graphs/g1", patch_body));
        assert_eq!(r.status, 200, "{}", r.body);
        let after_edit = handle(&state, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(after_edit.status, 200, "{}", after_edit.body);
        assert_eq!(
            after_edit.body,
            stateless(r#"{"node_weights": [2, 3, 5, 7], "edge_weights": [10, 1, 7]}"#)
        );

        let patch_body =
            r#"{"version": 2, "edits": [{"op": "vertex_weight", "index": 0, "weight": 4}]}"#;
        let r = handle(&state, &request("PATCH", "/v1/graphs/g1", patch_body));
        assert_eq!(r.status, 200, "{}", r.body);
        let after_vertex = handle(&state, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(after_vertex.status, 200, "{}", after_vertex.body);
        assert_eq!(
            after_vertex.body,
            stateless(r#"{"node_weights": [4, 3, 5, 7], "edge_weights": [10, 1, 7]}"#)
        );

        let metrics = handle(&state, &get("/metrics"));
        assert!(
            metrics.body.contains("tgp_session_solves_total 4"),
            "{}",
            metrics.body
        );
        assert!(
            metrics.body.contains("tgp_sessions_open 1"),
            "{}",
            metrics.body
        );
        assert!(
            metrics.body.contains("tgp_session_edits_total 2"),
            "{}",
            metrics.body
        );
    }

    /// Delta baselines are charged to the session budget: they grow the
    /// resident-bytes gauge up to the budget and never past it, and a
    /// key whose baseline did not fit answers its delta solves in full.
    #[test]
    fn delta_baselines_count_against_the_session_budget() {
        // The chain costs 56 bytes; the rest of the budget holds a few
        // baselines (key and response, under 200 bytes each here).
        let budget = 600;
        let state = AppState::new(CacheConfig::default())
            .with_sessions(Arc::new(SessionStore::new(budget)));
        let r = handle(
            &state,
            &post("/v1/graphs", &format!(r#"{{"graph": {CHAIN}}}"#)),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let gauge = || {
            let metrics = handle(&state, &get("/metrics")).body;
            metrics
                .lines()
                .find_map(|line| line.strip_prefix("tgp_session_resident_bytes "))
                .map(|n| n.parse::<u64>().expect("a count"))
                .expect("the gauge is rendered")
        };
        assert_eq!(gauge(), 56);
        let delta = |bound: u64| {
            let body = format!(
                r#"{{"objective": "lexicographic", "bound": {bound}, "response": "delta"}}"#
            );
            let r = handle(&state, &post("/v1/graphs/g1/partition", &body));
            assert_eq!(r.status, 200, "{}", r.body);
            response_header(&r)
                .expect("a delta request names its shape")
                .to_string()
        };
        // Bounds 20..40 all cut nothing, so their baselines cost alike.
        let mut kept = 0;
        let mut cost = None;
        let mut refused = None;
        for bound in 20..40 {
            let before = gauge();
            assert_eq!(delta(bound), "full", "bound {bound} has no baseline yet");
            let after = gauge();
            assert!(
                after <= budget,
                "{after} bytes exceed the budget of {budget}"
            );
            if after > before {
                kept += 1;
                assert_eq!(after - before, *cost.get_or_insert(after - before));
            } else {
                refused.get_or_insert(bound);
            }
        }
        let refused = refused.expect("twenty baselines do not fit in the budget");
        let cost = cost.expect("a baseline fits");
        assert!(kept >= 2, "only {kept} baselines of {cost} bytes fit");
        assert_eq!(kept, (budget - 56) / cost, "baselines fill the budget");
        // A kept baseline answers a delta; a refused one still cannot.
        assert_eq!(delta(20), "delta");
        assert_eq!(delta(refused), "full");
        // Deleting the graph releases it and its baselines.
        let r = handle(&state, &request("DELETE", "/v1/graphs/g1", ""));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(gauge(), 0);
    }

    /// `procmin`, `compose` and `nicol` bodies take the flat path, which
    /// renders their solver errors itself; an infeasible bound must
    /// answer the registry path's 422 byte for byte, on RAM and disk
    /// arrays. The
    /// escaped key (`\u0062ound` is `bound`) is the same request to the
    /// JSON-tree parser, but one the streaming ingest declines, so it is
    /// answered by the registry path.
    #[test]
    fn flat_infeasible_procmin_and_nicol_match_the_registry_bytes() {
        let ram = AppState::new(CacheConfig::default());
        let disk = AppState::new(CacheConfig::default()).with_graph_spill(1, None);
        for (objective, graph) in [("procmin", TREE), ("compose", TREE), ("nicol", CHAIN)] {
            let body = format!(r#"{{"objective": "{objective}", "bound": 1, "graph": {graph}}}"#);
            let escaped = body.replace(r#""bound""#, r#""\u0062ound""#);
            let registry = handle(&ram, &post("/v1/partition", &escaped));
            assert_eq!(registry.status, 422, "{objective}: {}", registry.body);
            assert!(registry.body.contains("infeasible"), "{}", registry.body);
            for state in [&ram, &disk] {
                let flat = handle(state, &post("/v1/partition", &body));
                assert_eq!(flat.status, registry.status, "{objective}: {}", flat.body);
                assert_eq!(flat.body, registry.body, "{objective}");
            }
        }
        // All three flat requests really were ingested flat, on each
        // backing; the escaped ones never were.
        let ram_metrics = handle(&ram, &get("/metrics")).body;
        assert!(
            ram_metrics.contains("tgp_store_backing{kind=\"ram\"} 3"),
            "{ram_metrics}"
        );
        let disk_metrics = handle(&disk, &get("/metrics")).body;
        assert!(
            disk_metrics.contains("tgp_store_backing{kind=\"disk\"} 3"),
            "{disk_metrics}"
        );
    }

    /// Past the spill threshold, session re-solves of `procmin`,
    /// `compose` and `host-satellite` (tree) and `nicol` and `coc`
    /// (chain) run over disk-backed flat arrays too, with the in-RAM
    /// bytes.
    #[test]
    fn session_flat_solve_covers_procmin_and_nicol() {
        let flat = AppState::new(CacheConfig::default()).with_graph_spill(1, None);
        let legacy = AppState::new(CacheConfig::default());
        for state in [&flat, &legacy] {
            for graph in [TREE, CHAIN] {
                let r = handle(
                    state,
                    &post("/v1/graphs", &format!(r#"{{"graph": {graph}}}"#)),
                );
                assert_eq!(r.status, 200, "{}", r.body);
            }
        }
        for (id, solve) in [
            ("g1", r#"{"objective": "procmin", "bound": 5}"#),
            ("g1", r#"{"objective": "compose", "bound": 5}"#),
            ("g1", r#"{"objective": "host-satellite", "satellites": 2}"#),
            ("g2", r#"{"objective": "nicol", "bound": 8}"#),
            ("g2", r#"{"objective": "coc", "processors": 2}"#),
        ] {
            let path = format!("/v1/graphs/{id}/partition");
            let out_of_core = handle(&flat, &post(&path, solve));
            let in_ram = handle(&legacy, &post(&path, solve));
            assert_eq!(out_of_core.status, 200, "{}", out_of_core.body);
            assert_eq!(out_of_core.body, in_ram.body, "{solve}");
        }
        let metrics = handle(&flat, &get("/metrics")).body;
        assert!(
            metrics.contains("tgp_store_backing{kind=\"disk\"} 5"),
            "{metrics}"
        );
    }

    #[test]
    fn session_flat_solve_runs_out_of_core_and_stays_byte_identical() {
        // Threshold 1: every resident graph is "huge", so session
        // solves take the disk-backed flat path.
        let flat = AppState::new(CacheConfig::default()).with_graph_spill(1, None);
        let legacy = AppState::new(CacheConfig::default());
        for state in [&flat, &legacy] {
            let r = handle(
                state,
                &post("/v1/graphs", &format!(r#"{{"graph": {CHAIN}}}"#)),
            );
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let solve = r#"{"objective": "lexicographic", "bound": 10}"#;
        let cold_flat = handle(&flat, &post("/v1/graphs/g1/partition", solve));
        let cold_legacy = handle(&legacy, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(cold_flat.status, 200, "{}", cold_flat.body);
        assert_eq!(
            cold_flat.body, cold_legacy.body,
            "out-of-core session solve must match the registry path"
        );
        let again_flat = handle(&flat, &post("/v1/graphs/g1/partition", solve));
        assert_eq!(again_flat.body, cold_flat.body);
        let metrics = handle(&flat, &get("/metrics"));
        assert!(
            metrics.body.contains("tgp_store_backing{kind=\"disk\"} 2"),
            "{}",
            metrics.body
        );
        // Requests the flat path cannot serve fall back to the registry
        // (here: an objective outside the flat set).
        let other = handle(
            &flat,
            &post(
                "/v1/graphs/g1/partition",
                r#"{"objective": "min_cuts", "bound": 10}"#,
            ),
        );
        let other_legacy = handle(
            &legacy,
            &post(
                "/v1/graphs/g1/partition",
                r#"{"objective": "min_cuts", "bound": 10}"#,
            ),
        );
        assert_eq!(other.status, other_legacy.status);
        assert_eq!(other.body, other_legacy.body);
    }

    /// A spilled resident graph is parsed once, onto disk arrays,
    /// whatever its JSON carries: a graph registered with a key the
    /// streaming parser would decline (`"name"`) and a plain one each
    /// re-solve with exactly one `session` stage and no `ingest` stage,
    /// and with equal bodies.
    #[test]
    fn a_declined_session_ingest_records_the_session_stage_once() {
        let stage_count = |state: &AppState, stage: &str| -> u64 {
            let metrics = handle(state, &get("/metrics")).body;
            let prefix = format!("tgp_stage_latency_seconds_count{{stage=\"{stage}\"}} ");
            metrics
                .lines()
                .find_map(|line| line.strip_prefix(prefix.as_str()))
                .map_or(0, |n| n.parse().expect("count"))
        };
        let named = CHAIN.replacen('{', r#"{"name": "x", "#, 1);
        let solve = r#"{"objective": "lexicographic", "bound": 10}"#;
        let mut bodies = Vec::new();
        for graph in [named.as_str(), CHAIN] {
            let state = AppState::new(CacheConfig::default()).with_graph_spill(1, None);
            let r = handle(
                &state,
                &post("/v1/graphs", &format!(r#"{{"graph": {graph}}}"#)),
            );
            assert_eq!(r.status, 200, "{}", r.body);
            let (session, ingest) = (
                stage_count(&state, "session"),
                stage_count(&state, "ingest"),
            );
            let r = handle(&state, &post("/v1/graphs/g1/partition", solve));
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(stage_count(&state, "session"), session + 1, "{graph}");
            assert_eq!(stage_count(&state, "ingest"), ingest, "{graph}");
            bodies.push(r.body);
        }
        assert_eq!(bodies[0], bodies[1]);
    }

    #[test]
    fn session_error_codes_are_stable() {
        let state = AppState::new(CacheConfig::default());
        // Unknown graph → 404 session_not_found, on every id-taking verb.
        for r in [
            handle(&state, &get("/v1/graphs/nope")),
            handle(&state, &request("DELETE", "/v1/graphs/nope", "")),
            handle(
                &state,
                &request("PATCH", "/v1/graphs/nope", r#"{"version": 1, "edits": []}"#),
            ),
            handle(
                &state,
                &post(
                    "/v1/graphs/nope/partition",
                    r#"{"objective": "lexicographic", "bound": 10}"#,
                ),
            ),
        ] {
            assert_eq!(r.status, 404, "{}", r.body);
            let v = Value::parse(&r.body).unwrap();
            assert_eq!(v["code"].as_str(), Some("session_not_found"), "{}", r.body);
        }

        // Version conflict → 409.
        let r = handle(
            &state,
            &post("/v1/graphs", &format!(r#"{{"graph": {CHAIN}}}"#)),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let stale = r#"{"version": 7, "edits": [{"op": "edge_weight", "index": 0, "weight": 1}]}"#;
        let r = handle(&state, &request("PATCH", "/v1/graphs/g1", stale));
        assert_eq!(r.status, 409, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["code"].as_str(), Some("version_conflict"), "{}", r.body);

        // Budget exhaustion → 413.
        let tiny =
            AppState::new(CacheConfig::default()).with_sessions(Arc::new(SessionStore::new(8)));
        let r = handle(
            &tiny,
            &post("/v1/graphs", &format!(r#"{{"graph": {CHAIN}}}"#)),
        );
        assert_eq!(r.status, 413, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(
            v["code"].as_str(),
            Some("session_budget_exceeded"),
            "{}",
            r.body
        );

        // Malformed edits → 422 invalid_edit; body with "graph" → 422.
        let bad_edit = r#"{"version": 1, "edits": [{"op": "paint_it_blue"}]}"#;
        let r = handle(&state, &request("PATCH", "/v1/graphs/g1", bad_edit));
        assert_eq!(r.status, 422, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["code"].as_str(), Some("invalid_edit"), "{}", r.body);
        let r = handle(
            &state,
            &post(
                "/v1/graphs/g1/partition",
                &format!(r#"{{"objective": "lexicographic", "bound": 10, "graph": {CHAIN}}}"#),
            ),
        );
        assert_eq!(r.status, 422, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["code"].as_str(), Some("invalid_field"), "{}", r.body);

        // A failing session partition must not have corrupted the
        // resident graph: a follow-up solve still works.
        let r = handle(
            &state,
            &post(
                "/v1/graphs/g1/partition",
                r#"{"objective": "lexicographic", "bound": 10}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn session_graph_methods_and_paths_are_policed() {
        let state = AppState::new(CacheConfig::default());
        assert_eq!(
            handle(&state, &request("PUT", "/v1/graphs", "")).status,
            405
        );
        assert_eq!(
            handle(&state, &request("PUT", "/v1/graphs/g1", "")).status,
            405
        );
        assert_eq!(handle(&state, &get("/v1/graphs/g1/partition")).status, 405);
        assert_eq!(handle(&state, &get("/v1/graphs//partition")).status, 404);
        assert_eq!(handle(&state, &get("/v1/graphs/g1/nope")).status, 404);
        // Register body must be {"graph": ...} and nothing else.
        let r = handle(&state, &post("/v1/graphs", "{}"));
        assert_eq!(r.status, 422, "{}", r.body);
        let r = handle(
            &state,
            &post(
                "/v1/graphs",
                &format!(r#"{{"graph": {CHAIN}, "extra": 1}}"#),
            ),
        );
        assert_eq!(r.status, 422, "{}", r.body);
        let r = handle(&state, &post("/v1/graphs", "[1, 2]"));
        assert_eq!(r.status, 400, "{}", r.body);
    }
}
