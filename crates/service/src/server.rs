//! The TCP transport: the `tgp-net` event loop in front of one worker
//! pool.
//!
//! Event-loop threads own accept, request framing, timeouts, and
//! response writes. Only *complete* requests reach a queue (as
//! [`Work::Request`]), so workers always compute instead of babysitting
//! sockets; thousands of connections can be open while `--workers`
//! stays small. Responses travel back through a [`LoopHandle`]. When a
//! loop's queue is full it sheds at the door with a 503 carrying a
//! `retry-after` derived from the queue depth.
//!
//! With `loops > 1` (`--loops N`, default `auto` at the CLI), the server
//! runs a [`LoopSet`]: N `SO_REUSEPORT` listeners on one address, one
//! event loop per core, each with its own accept path, timer wheel,
//! wake channel, per-loop [`Work`] queue, and a pinned slice of the
//! worker pool — the request hot path never crosses a loop boundary.
//! The result cache shards scale with the loop count and the
//! session/store state stays global behind its existing locks (see
//! docs/SERVICE.md "Multi-core model" for the cross-loop semantics).
//!
//! The event loop is Linux-only; elsewhere [`Server::start`] fails with
//! `ErrorKind::Unsupported`.
//!
//! With a cache file configured, the server attaches an append-on-ack
//! journal (see [`ResultCache::attach_journal`](crate::ResultCache::attach_journal)):
//! boot replays the longest intact prefix (a corrupt tail is trimmed; a
//! foreign file is logged and left untouched — never trusted), every
//! admitted insert appends one record, and a maintenance thread
//! compacts a grown log back to a snapshot of the live entries, as does
//! a graceful [`Server::shutdown`]. An abrupt kill (`kill -9`) therefore
//! loses at most one torn record.
//!
//! Shutdown: the event loops drain first — accepting stops, idle
//! connections close, in-flight requests get the drain window to finish
//! *while workers are still alive to answer them* — and only then are
//! the queues closed and the pool joined. The final journal compactions
//! happen after both.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{handle_traced, AppState, RequestCtx, DEADLINE_HEADER};
use crate::cache::CacheConfig;
use crate::envelope::envelope_body;
use crate::http::{
    overloaded_response, read_framed, retry_after_secs, write_response, write_response_with,
    RecvError, MAX_HEAD_BYTES,
};
use crate::pool::{BoundedQueue, PushError, QueueSet, Work};
use tgp_net::{
    request_header_value, Action, ConnId, FrameError, LoopHandle, LoopSet, NetConfig, ShardSpec,
    WriteTag,
};
use tgp_obs::{EventKind, TraceId};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 picks an ephemeral
    /// port — useful for tests).
    pub addr: String,
    /// Number of worker threads.
    pub workers: usize,
    /// Event loops: each gets its own `SO_REUSEPORT` listener, timer
    /// wheel, request queue, and worker slice. `0` means auto (one per
    /// available core, capped at [`MAX_LOOPS`]). The library default
    /// is 1 — embedders and tests get the single-loop behavior unless
    /// they opt in.
    pub loops: usize,
    /// Result-cache policy: byte budget, TTL, admission limit. A zero
    /// budget disables caching.
    pub cache: CacheConfig,
    /// Persist the result cache here as an append-on-ack journal:
    /// replayed on boot, appended to on every admitted insert,
    /// compacted when grown and on graceful shutdown. `None` keeps the
    /// cache memory-only.
    pub cache_file: Option<PathBuf>,
    /// How often the maintenance thread checks whether the cache
    /// journal has outgrown the live entries and compacts it.
    pub cache_flush_interval: Duration,
    /// Requests allowed to wait for a worker before the event loop
    /// sheds load with 503 (split evenly across loops).
    pub queue_depth: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Simultaneously open connections: at the cap the listener pauses
    /// instead of accepting.
    pub max_connections: usize,
    /// Total deadline for receiving one complete request, from its
    /// first byte. Progress does not reset it, so byte-at-a-time
    /// senders still time out.
    pub read_timeout: Duration,
    /// Progress-based deadline for writing one response: a connection
    /// that accepts at least [`tgp_net::WRITE_MIN_BYTES`] per window
    /// keeps its timer renewed, so a large response to a slow-but-live
    /// reader survives while a stalled one closes within one window.
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Shed cache-missing requests whose [`cost
    /// estimate`](tgp_solvers::Solver::cost_estimate) exceeds this once
    /// the queue is nearly full. `None` disables cost-based admission.
    pub shed_cost: Option<u64>,
    /// Shed cache-missing requests whose deadline has fewer than this
    /// many milliseconds left once the queue is nearly full — they
    /// would almost certainly expire mid-solve. `None` disables
    /// remaining-time admission.
    pub shed_remaining: Option<u64>,
    /// Write one structured access-log line per request to stderr
    /// (`tgp-access method=… path=… objective=… status=… micros=…
    /// queue_us=… total_us=… trace=…`; see docs/OBSERVABILITY.md).
    pub log_requests: bool,
    /// Serve the `GET /debug/*` introspection endpoints
    /// (`/debug/trace/<id>`, `/debug/slow`, `/debug/events`). Off by
    /// default: they expose request timing internals.
    pub debug_endpoints: bool,
    /// Persist session graphs (`/v1/graphs`) to this append-only edit
    /// journal: replayed on boot, appended to on every acknowledged
    /// mutation, compacted to a snapshot on graceful shutdown. `None`
    /// keeps sessions memory-only.
    pub session_file: Option<PathBuf>,
    /// Byte budget for resident session graphs; registrations beyond it
    /// are refused with 413 (`session_budget_exceeded`).
    pub session_budget: u64,
    /// Request bodies at or above this many bytes take the streaming
    /// flat-ingest path with *disk* (mmap) backing instead of RAM, so a
    /// graph bigger than memory still solves (`tgp-store`'s `DiskVec`).
    /// Smaller eligible bodies ingest into flat RAM arrays.
    pub graph_spill_bytes: u64,
    /// Directory for spill files (unlinked once mapped). `None` uses
    /// the system temp directory.
    pub graph_spill_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".into(),
            workers: 4,
            loops: 1,
            cache: CacheConfig::default(),
            cache_file: None,
            cache_flush_interval: Duration::from_secs(2),
            queue_depth: 64,
            max_body_bytes: 1 << 20, // 1 MiB
            max_connections: 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            shed_cost: None,
            shed_remaining: None,
            log_requests: false,
            debug_endpoints: false,
            session_file: None,
            session_budget: tgp_session::DEFAULT_SESSION_BUDGET,
            graph_spill_bytes: 64 << 20, // 64 MiB
            graph_spill_dir: None,
        }
    }
}

/// Upper bound on `--loops`: beyond this, extra loops only add epoll
/// sets and timer wheels without more cores to run them.
pub const MAX_LOOPS: usize = 64;

/// Resolves a configured loop count: `0` means one loop per available
/// core (the `--loops auto` default at the CLI).
fn resolve_loops(configured: usize) -> usize {
    let n = match configured {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    };
    n.clamp(1, MAX_LOOPS)
}

/// A running server; dropping it without [`Server::shutdown`] detaches
/// the threads (they keep serving until the process exits).
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    queues: Arc<QueueSet<Work>>,
    loops: Option<LoopSet>,
    workers: Vec<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners and spawns the event loops plus the worker
    /// pool. With a `cache_file`, attaches the cache journal first —
    /// replaying what survives, rejecting (with a log line) any file
    /// that fails validation — and spawns the compaction thread.
    ///
    /// Fails with `ErrorKind::Unsupported` off Linux, where the
    /// `tgp-net` event loop does not exist.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let loop_count = resolve_loops(config.loops);
        // Bind before anything else so a bad address fails fast. A
        // single loop binds a plain listener (no `SO_REUSEPORT`), so
        // double-binding a busy port still fails loudly; multi-loop
        // binds `loop_count` reuseport listeners sharing the address
        // and lets the kernel hash connections across them.
        let (listeners, local_addr) = if loop_count == 1 {
            let listener = TcpListener::bind(&config.addr)?;
            let addr = listener.local_addr()?;
            (vec![listener], addr)
        } else {
            let addr = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "bind address resolved to nothing",
                )
            })?;
            LoopSet::bind(&addr, loop_count)?
        };
        // Journal-backed sessions replay before the listener serves a
        // request, so clients never observe a pre-replay store. A file
        // that fails validation is left untouched and sessions run
        // memory-only — same degraded-but-up policy as the cache file.
        let sessions = match &config.session_file {
            Some(path) => {
                match tgp_session::SessionStore::with_journal(path, config.session_budget) {
                    Ok(store) => {
                        eprintln!(
                            "tgp-serve session journal {} replayed: {} resident graphs",
                            path.display(),
                            store.open_count()
                        );
                        Arc::new(store)
                    }
                    Err(why) => {
                        eprintln!(
                            "tgp-serve ignoring session file {}: {why} (sessions are memory-only)",
                            path.display()
                        );
                        Arc::new(tgp_session::SessionStore::new(config.session_budget))
                    }
                }
            }
            None => Arc::new(tgp_session::SessionStore::new(config.session_budget)),
        };
        let state = Arc::new(
            // More loops insert into the cache concurrently, so its
            // shard count scales with the loop count (never below the
            // configured shards).
            AppState::new(config.cache.clone().scaled_for_loops(loop_count))
                .with_access_log(config.log_requests)
                .with_debug_endpoints(config.debug_endpoints)
                .with_shed_cost(config.shed_cost)
                .with_shed_remaining(config.shed_remaining)
                .with_graph_spill(config.graph_spill_bytes, config.graph_spill_dir.clone())
                .with_sessions(sessions)
                .with_net_loops(loop_count),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let worker_count = config.workers.max(1);
        // Each loop owns a queue slice of the configured depth and a
        // pinned worker slice: loop i's workers pop only from queue i,
        // so the request hot path never takes a lock another loop's
        // requests contend on. Worker shares differ by at most one,
        // and every loop gets at least one worker even when
        // `workers < loops`.
        let per_loop_depth = config.queue_depth.max(1).div_ceil(loop_count);
        let shard_queues: Vec<Arc<BoundedQueue<Work>>> = (0..loop_count)
            .map(|_| Arc::new(BoundedQueue::new(per_loop_depth)))
            .collect();
        let worker_shares: Vec<usize> = (0..loop_count)
            .map(|i| {
                (worker_count / loop_count + usize::from(i < worker_count % loop_count)).max(1)
            })
            .collect();
        let queues = Arc::new(QueueSet::new(shard_queues.clone()));
        state.attach_pool(Arc::clone(&queues));

        if let Some(path) = &config.cache_file {
            match state.cache.attach_journal(path) {
                Ok(report) => eprintln!(
                    "tgp-serve cache journal {} replayed: {} entries{}",
                    path.display(),
                    report.admitted,
                    if report.truncated {
                        " (torn tail trimmed)"
                    } else {
                        ""
                    },
                ),
                Err(why) => eprintln!(
                    "tgp-serve ignoring cache file {}: {why} (cache is memory-only)",
                    path.display()
                ),
            }
        }

        // The loops start before the workers, so a platform without the
        // event loop fails here with no thread left to join. Requests
        // framed in the meantime simply wait in their queue.
        let net_config = NetConfig {
            // The connection cap splits across loops so the configured
            // total still bounds the whole server.
            max_connections: config.max_connections.max(1).div_ceil(loop_count),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            idle_timeout: config.idle_timeout,
            max_head_bytes: MAX_HEAD_BYTES,
            max_body_bytes: config.max_body_bytes as u64,
            journal: state.debug_endpoints.then(|| Arc::clone(&state.journal)),
            ..NetConfig::default()
        };
        let shards = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| ShardSpec {
                listener,
                counters: Arc::clone(state.metrics.net_for(i).expect("metrics sized for loops")),
                handler: Arc::new(EpollHandler {
                    state: Arc::clone(&state),
                    queue: Arc::clone(&shard_queues[i]),
                    workers: worker_shares[i],
                }),
            })
            .collect();
        let loop_set = LoopSet::spawn(shards, &net_config)?;

        let mut workers = Vec::new();
        for (shard, share) in worker_shares.iter().enumerate() {
            for slot in 0..*share {
                let queue = Arc::clone(&shard_queues[shard]);
                let state = Arc::clone(&state);
                let stop = Arc::clone(&stop);
                let max_body = config.max_body_bytes;
                let name = if loop_count == 1 {
                    format!("tgp-worker-{slot}")
                } else {
                    format!("tgp-worker-{shard}-{slot}")
                };
                let worker = std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        while let Some(work) = queue.pop() {
                            state.metrics.queue_changed(-1);
                            state.metrics.workers_changed(1);
                            match work {
                                Work::Request {
                                    conn,
                                    bytes,
                                    reply,
                                    trace,
                                    enqueued_at,
                                    deadline,
                                } => {
                                    let now = Instant::now();
                                    if state.debug_endpoints {
                                        let wait = now.saturating_duration_since(enqueued_at);
                                        state.journal.append_at(
                                            now,
                                            EventKind::Dequeue,
                                            trace.as_u64(),
                                            u64::from(conn.index),
                                            wait.as_nanos() as u64,
                                        );
                                    }
                                    if deadline.is_some_and(|d| now >= d) {
                                        // The deadline passed while the
                                        // request waited in the queue:
                                        // drop it without even parsing.
                                        let (response, keep_alive) =
                                            expired_in_queue_response(&state);
                                        reply.submit(conn, response, keep_alive, None);
                                    } else {
                                        let (response, keep_alive, tag) = respond_to_bytes(
                                            &state,
                                            bytes,
                                            max_body,
                                            &stop,
                                            trace,
                                            enqueued_at,
                                            now,
                                            deadline,
                                        );
                                        reply.submit(conn, response, keep_alive, tag);
                                    }
                                }
                                Work::Batch(subtask) => subtask.run(&state),
                            }
                            state.metrics.workers_changed(-1);
                        }
                    })
                    .expect("spawn worker");
                workers.push(worker);
            }
        }

        // Appends make every insert durable on their own; this thread
        // only keeps the journal from growing without bound.
        let flusher = config.cache_file.is_some().then(|| {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let interval = config.cache_flush_interval.max(Duration::from_millis(50));
            std::thread::Builder::new()
                .name("tgp-cache-compactor".into())
                .spawn(move || loop {
                    // Sleep in short steps so shutdown is never
                    // delayed by a long compaction interval.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop.load(Ordering::SeqCst) {
                        let step = Duration::from_millis(50).min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if state.cache.should_compact() {
                        // compact_journal logs its own failures and
                        // detaches the journal, so an error here needs
                        // no extra handling.
                        let _ = state.cache.compact_journal();
                    }
                })
                .expect("spawn cache compactor")
        });

        Ok(Server {
            local_addr,
            state,
            stop,
            queues,
            loops: Some(loop_set),
            workers,
            flusher,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Handler state, exposed for tests and embedding.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Number of event loops serving (0 once shut down).
    pub fn net_loops(&self) -> usize {
        self.loops.as_ref().map_or(0, LoopSet::len)
    }

    /// Shuts down event loop `i` alone, closing its listener so the
    /// kernel redistributes new connections across the remaining loops
    /// — the degraded-capacity path, exposed for robustness tests.
    /// The loop's pinned workers stay alive (batch scatter still uses
    /// them via the shared [`QueueSet`]). Returns `false` when there is
    /// no such loop or it is already down.
    pub fn kill_loop(&mut self, i: usize) -> bool {
        self.loops.as_mut().is_some_and(|set| set.shutdown_one(i))
    }

    /// Blocks until the server stops (i.e. forever, unless another
    /// thread calls [`Server::shutdown`]).
    pub fn wait(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }

    /// Stops accepting, drains in-flight work, joins all threads, and
    /// (with a cache file configured) compacts the cache journal.
    ///
    /// The event loops drain *before* the queues close: dispatched
    /// requests still have live workers to compute them and a live
    /// loop to flush their responses. Multi-loop teardown drains every
    /// loop concurrently — one drain window total.
    pub fn shutdown(&mut self) {
        if let Some(loop_set) = self.loops.take() {
            loop_set.shutdown();
        }
        self.stop.store(true, Ordering::SeqCst);
        self.queues.close();
        self.wait();
        // Compact the session journal to a snapshot: restart replays one
        // record per graph instead of the whole edit history.
        if self.state.sessions.journal_path().is_some() {
            if let Err(e) = self.state.sessions.compact() {
                eprintln!("tgp-serve session journal compaction failed: {e}");
            }
        }
        // Same discipline for the cache journal: restart replays one
        // record per live entry instead of the whole insert history.
        let _ = self.state.cache.compact_journal();
    }
}

/// The `tgp-net` handler: runs on the event-loop thread, so it only
/// does bounded work — a queue push, or serializing a canned error.
struct EpollHandler {
    state: Arc<AppState>,
    queue: Arc<BoundedQueue<Work>>,
    workers: usize,
}

impl tgp_net::Handler for EpollHandler {
    fn on_request(&self, conn: ConnId, bytes: Vec<u8>, handle: &LoopHandle) -> Action {
        // Mint the trace at frame time: the queue wait is part of the
        // request's story. A client-supplied x-trace-id/traceparent
        // header replaces this id at parse time on the worker.
        let trace = TraceId::mint();
        // Raise the gauge *before* the push: a worker may pop (and
        // decrement) the instant the push lands, and increment-after
        // would transiently wrap the gauge below zero.
        self.state.metrics.queue_changed(1);
        let enqueued_at = Instant::now();
        if self.state.debug_endpoints {
            self.state.journal.append_at(
                enqueued_at,
                EventKind::Enqueue,
                trace.as_u64(),
                u64::from(conn.index),
                0,
            );
        }
        // Peek at the deadline header at frame time so a worker can
        // drop the request if it expires while queued. A malformed
        // value stays None here; the worker's full parse answers 400.
        let deadline = request_header_value(&bytes, DEADLINE_HEADER.as_bytes())
            .and_then(|v| std::str::from_utf8(v).ok())
            .and_then(|s| s.trim().parse::<u64>().ok())
            .map(|ms| enqueued_at + Duration::from_millis(ms));
        match self.queue.try_push(Work::Request {
            conn,
            bytes,
            reply: handle.clone(),
            trace,
            enqueued_at,
            deadline,
        }) {
            Ok(()) => Action::Pending,
            Err(PushError::Full(_)) => {
                self.state.metrics.queue_changed(-1);
                self.state.metrics.record_overload();
                if self.state.debug_endpoints {
                    self.state.journal.append(
                        EventKind::Shed,
                        trace.as_u64(),
                        u64::from(conn.index),
                        0,
                    );
                }
                let retry = retry_after_secs(self.queue.len(), self.workers);
                Action::Respond {
                    bytes: overloaded_response(retry),
                    keep_alive: false,
                }
            }
            Err(PushError::Closed(_)) => {
                // Shutting down: an empty response flushes instantly
                // and the connection closes.
                self.state.metrics.queue_changed(-1);
                Action::Respond {
                    bytes: Vec::new(),
                    keep_alive: false,
                }
            }
        }
    }

    fn on_frame_error(&self, err: FrameError) -> Vec<u8> {
        let (status, message, code) = match err {
            FrameError::HeadTooLarge => (400, "request head too large".to_string(), "bad_request"),
            FrameError::BadContentLength => (400, "bad content-length".to_string(), "bad_request"),
            FrameError::BodyTooLarge { declared, limit } => (
                413,
                format!("body of {declared} bytes exceeds limit of {limit}"),
                "body_too_large",
            ),
        };
        self.state
            .metrics
            .record_request("other", status, Duration::ZERO);
        let body = envelope_body(code, &message, None, None, false);
        let mut out = Vec::new();
        let _ = write_response(&mut out, status, "application/json", body.as_bytes(), false);
        out
    }

    fn on_write_complete(&self, conn: ConnId, tag: Option<WriteTag>, elapsed: Duration) {
        self.state.complete_write(conn, tag, elapsed);
    }
}

/// Parses one framed request in place and serializes the response —
/// the worker half of the transport. The request keeps the frame as
/// its body's storage until the response is rendered. Returns the wire
/// bytes, whether the connection should be kept alive, and the
/// [`WriteTag`] of the trace the request committed (`None` when it
/// committed none), which rides with the response to attribute its
/// socket write.
// Transport plumbing: each argument is a distinct per-request fact the
// event loop already holds; bundling them into a struct would only move
// the same list one call further away.
#[allow(clippy::too_many_arguments)]
fn respond_to_bytes(
    state: &AppState,
    frame: Vec<u8>,
    max_body: usize,
    stop: &AtomicBool,
    trace: TraceId,
    enqueued_at: Instant,
    dequeued_at: Instant,
    deadline: Option<Instant>,
) -> (Vec<u8>, bool, Option<WriteTag>) {
    let mut out = Vec::new();
    match read_framed(frame, max_body) {
        Ok(request) => {
            let parse = dequeued_at.elapsed();
            let ctx = RequestCtx {
                trace,
                enqueued_at: Some(enqueued_at),
                dequeued_at,
                parse,
                deadline,
            };
            let response = handle_traced(state, &request, ctx);
            let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
            let _ = write_response_with(
                &mut out,
                response.status,
                response.content_type,
                &response.headers,
                response.body.as_bytes(),
                keep_alive,
            );
            let tag = response.trace_seq.map(|seq| WriteTag {
                trace: response.trace,
                seq,
            });
            (out, keep_alive, tag)
        }
        // The framer only dispatches complete requests, so this is
        // unreachable in practice; answer with a close either way.
        Err(RecvError::Disconnected) => (out, false, None),
        Err(RecvError::BadRequest(message)) => {
            let body = envelope_body("bad_request", &message, None, None, false);
            state.metrics.record_request("other", 400, Duration::ZERO);
            let _ = write_response(&mut out, 400, "application/json", body.as_bytes(), false);
            (out, false, None)
        }
        Err(RecvError::BodyTooLarge { declared, limit }) => {
            let message = format!("body of {declared} bytes exceeds limit of {limit}");
            let body = envelope_body("body_too_large", &message, None, None, false);
            state.metrics.record_request("other", 413, Duration::ZERO);
            let _ = write_response(&mut out, 413, "application/json", body.as_bytes(), false);
            (out, false, None)
        }
    }
}

/// Canned 504 for a queued request whose deadline passed before a
/// worker could even parse it. Counted under the `queue` drop site.
fn expired_in_queue_response(state: &AppState) -> (Vec<u8>, bool) {
    state.metrics.record_deadline_drop("queue");
    state.metrics.record_request("other", 504, Duration::ZERO);
    let body = envelope_body(
        "deadline_exceeded",
        "deadline expired while the request waited in the queue",
        None,
        Some(0),
        false,
    );
    let mut out = Vec::new();
    let _ = write_response(&mut out, 504, "application/json", body.as_bytes(), false);
    (out, false)
}
