//! End-to-end and per-layer benchmark for the `tgp serve` partition
//! service. See `perfbench/README.md` for the workloads, the metrics
//! and how to run it.
//!
//! One run: generate the seeded inputs, start the server several times
//! (the median start-up is `setup_s`), drive the last one with two
//! closed-loop callers for `--seconds`, check every answer, and print
//! the end-to-end metrics. With `--trace 1` it then replays the same
//! ops in-process and prints the per-layer metrics instead.

mod client;
mod gen;
mod replay;
mod server;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tgp_graph::json::Value;
use tgp_solvers::Registry;

use client::Conn;
use gen::{Graph, LargeOp, LargePool, Req, Rng, Style};
use replay::{Mirror, ServerShape, Tracer};
use server::{Scrape, Scratch, Server, STAGES};
use stats::{fnv1a, median, quantile};

/// Closed-loop callers, each on its own keep-alive connection.
const CALLERS: usize = 2;
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Largest accepted request body (a 100k-node tree is ~3.5 MB).
const MAX_BODY: usize = 16 << 20;
/// Server cache budget in small-mix: the cold cycle (~40 MB of keys and
/// responses) cannot fit, the hot set (~2.5 MB) always does.
const SMALL_CACHE_BYTES: usize = 8 << 20;
/// Server default cache budget (other workloads).
const DEFAULT_CACHE_BYTES: usize = 32 << 20;
/// Server default `--graph-spill-bytes`.
const DEFAULT_SPILL_BYTES: u64 = 64 << 20;
/// Large-solve and session-tune ops re-checked in-process per run.
const RECHECKS: usize = 8;
/// Ops per caller in the traced replay.
const REPLAY_SMALL: usize = 3000;
const REPLAY_LARGE: usize = 16;
const REPLAY_SESSION: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SmallMix,
    LargeSolve,
    SessionTune,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "small-mix" => Some(Workload::SmallMix),
            "large-solve" => Some(Workload::LargeSolve),
            "session-tune" => Some(Workload::SessionTune),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SmallMix => "small-mix",
            Workload::LargeSolve => "large-solve",
            Workload::SessionTune => "session-tune",
        }
    }

    /// The server flags beside the common ones, and the shape the
    /// in-process replay mirrors.
    fn server(self, dir: &Path) -> (Vec<String>, ServerShape) {
        let path = |name: &str| dir.join(name).display().to_string();
        let mut args: Vec<String> = ["--io", "epoll", "--loops", "1", "--workers", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Spill files go to the run's scratch directory, never /tmp.
        args.extend([
            "--max-body-bytes".to_string(),
            MAX_BODY.to_string(),
            "--graph-spill-dir".to_string(),
            path("spill"),
        ]);
        let mut shape = ServerShape {
            cache_bytes: DEFAULT_CACHE_BYTES,
            cache_journal: false,
            spill_bytes: DEFAULT_SPILL_BYTES,
            max_body: MAX_BODY,
        };
        match self {
            Workload::SmallMix => {
                shape.cache_bytes = SMALL_CACHE_BYTES;
                shape.cache_journal = true;
                args.extend([
                    "--cache-bytes".to_string(),
                    SMALL_CACHE_BYTES.to_string(),
                    "--cache-file".to_string(),
                    path("cache.journal"),
                ]);
            }
            Workload::LargeSolve => {
                shape.spill_bytes = gen::LARGE_SPILL_BYTES;
                args.extend([
                    "--graph-spill-bytes".to_string(),
                    gen::LARGE_SPILL_BYTES.to_string(),
                ]);
            }
            Workload::SessionTune => {
                args.extend(["--session-file".to_string(), path("sessions.journal")]);
            }
        }
        (args, shape)
    }

    /// How the end-to-end timings are taken from the measured phase.
    fn timing(self) -> Timing {
        match self {
            // ~650 ops per window: its own p99 rests on ~6, and the
            // median over the 12 kept windows steadies it.
            Workload::SmallMix => Timing {
                window: Duration::from_millis(125),
                kept_share: 0.05,
                per_window: true,
                rss_after_ops: 50_000,
            },
            // ~38 and ~160 ops per window: too few, so pooled. Large-solve
            // keeps five sixths, so that its p99 still rests on ~9 ops.
            Workload::LargeSolve => Timing {
                window: Duration::from_secs(1),
                kept_share: 5.0 / 6.0,
                per_window: false,
                rss_after_ops: 500,
            },
            Workload::SessionTune => Timing {
                window: Duration::from_secs(1),
                kept_share: 0.5,
                per_window: false,
                rss_after_ops: 2_000,
            },
        }
    }
}

/// How the end-to-end timings are taken. The measured phase is cut into
/// equal windows, and `ops_per_s`, `op_p50_ms` and `op_p99_ms` are taken
/// over the windows in which the host stole the least CPU from this VM
/// (`/proc/stat` steal). Other tenants of a shared host take CPU in
/// bursts, and every burst stalls a closed loop, most of all one of
/// short ops; keeping the calmest windows keeps the bursts out of the
/// result.
#[derive(Debug, Clone, Copy)]
struct Timing {
    window: Duration,
    /// The share of windows kept.
    kept_share: f64,
    /// Whether each timing is the median of the kept windows' own values
    /// (a window then holds enough ops for its own p99, and the median
    /// is not moved by one kept window that something besides steal
    /// slowed) or is taken over the kept windows' ops pooled.
    per_window: bool,
    /// `server_peak_rss_mib` is read once the callers have completed
    /// this many ops: the server's heap grows with every small-mix op, so
    /// a reading at the end of the phase would follow the op count, and
    /// with it the host's speed. Every run completes this many.
    rss_after_ops: u64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in raw.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {:?}", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |key: &str| map.get(key).ok_or_else(|| format!("missing --{key}"));
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    };
    Ok(Args {
        workload: Workload::parse(get("workload")?)
            .ok_or("--workload: expected small-mix, large-solve or session-tune")?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: num("trace")? != 0,
        server: PathBuf::from(get("server")?),
        out: PathBuf::from(map.get("out").map_or(".bench_out", String::as_str)),
    })
}

/// The seeded inputs, generated before any timing.
enum Inputs {
    Small {
        bodies: Vec<(&'static str, String)>,
        /// The expected response bytes of every body, from the registry.
        expected: Vec<String>,
    },
    Large {
        pool: LargePool,
    },
    Session {
        /// Per caller: the resident chain and the lexicographic bound.
        graphs: Vec<(Graph, u64)>,
    },
}

/// The response body the registry produces for `body`, as the service
/// renders it.
fn expected_body(body: &str) -> String {
    let value = Value::parse(body).expect("generated bodies are JSON");
    let (_, solver, request) = Registry::shared()
        .dispatch(&value)
        .expect("generated requests are valid");
    let response = solver
        .run(&request)
        .expect("generated instances are feasible");
    format!("{}\n", solver.to_json(&response))
}

impl Inputs {
    fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::SmallMix => {
                let bodies = gen::small_bodies(seed);
                let half = bodies.len() / 2;
                let (a, b) = bodies.split_at(half);
                let expected = std::thread::scope(|s| {
                    let first = s.spawn(|| a.iter().map(|(_, b)| expected_body(b)).collect());
                    let mut out: Vec<String> = b.iter().map(|(_, b)| expected_body(b)).collect();
                    let mut all: Vec<String> = first.join().expect("expected-bytes thread");
                    all.append(&mut out);
                    all
                });
                Inputs::Small { bodies, expected }
            }
            Workload::LargeSolve => Inputs::Large {
                pool: LargePool::generate(seed),
            },
            Workload::SessionTune => Inputs::Session {
                graphs: (0..CALLERS).map(gen::session_graph).collect(),
            },
        }
    }
}

/// A caller's connection plus, in session-tune, its resident graph.
struct Caller {
    conn: Conn,
    session: Option<Session>,
}

struct Session {
    id: String,
    version: u64,
    mirror: Graph,
    bound: u64,
}

fn post<'a>(path: &str, parts: [&'a [u8]; 3]) -> Req<'a> {
    Req {
        method: "POST",
        path: path.to_string(),
        parts,
    }
}

/// Warm-up that belongs to set-up: fill the cache (small-mix), touch
/// every objective once (large-solve), or register each caller's
/// resident graph and solve it once (session-tune).
fn warm_up(
    seed: u64,
    inputs: &Inputs,
    caller: usize,
    conn: &mut Conn,
) -> Result<Option<Session>, String> {
    let mut body = Vec::new();
    let expect_ok = |conn: &mut Conn, req: &Req<'_>, body: &mut Vec<u8>| -> Result<(), String> {
        let (_, reply) = conn.exchange(req, body).map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!(
                "warm-up {} {} answered {}: {}",
                req.method,
                req.path,
                reply.status,
                String::from_utf8_lossy(body)
            ));
        }
        Ok(())
    };
    match inputs {
        Inputs::Small { bodies, .. } => {
            for (_, text) in bodies[..gen::SMALL_HOT]
                .iter()
                .skip(caller)
                .step_by(CALLERS)
            {
                expect_ok(
                    conn,
                    &post("/v1/partition", [text.as_bytes(), b"", b""]),
                    &mut body,
                )?;
            }
            Ok(None)
        }
        Inputs::Large { pool } => {
            // Bounds above the measured range, so no measured op hits.
            for k in 0..5 {
                let op = LargeOp {
                    bound: 30_000 + k,
                    ..LargeOp::nth(seed, caller, k)
                };
                let (prefix, suffix) = op.style.wrap(op.objective, op.bound);
                let req = post(
                    "/v1/partition",
                    [
                        prefix.as_bytes(),
                        op.graph_text(pool).as_bytes(),
                        suffix.as_bytes(),
                    ],
                );
                expect_ok(conn, &req, &mut body)?;
            }
            Ok(None)
        }
        Inputs::Session { graphs } => {
            let (graph, bound) = &graphs[caller];
            let register = format!("{{\"graph\":{}}}", graph.render(Style::Serde));
            expect_ok(
                conn,
                &post("/v1/graphs", [register.as_bytes(), b"", b""]),
                &mut body,
            )?;
            let info = Value::parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let id = info["id"].as_str().ok_or("register: no id")?.to_string();
            let version = info["version"].as_u64().ok_or("register: no version")?;
            let solve = Style::Serde.session_solve("lexicographic", *bound);
            let path = format!("/v1/graphs/{id}/partition");
            expect_ok(conn, &post(&path, [solve.as_bytes(), b"", b""]), &mut body)?;
            Ok(Some(Session {
                id,
                version,
                mirror: graph.clone(),
                bound: *bound,
            }))
        }
    }
}

/// Starts a server and runs the warm-up on every caller; returns the
/// server, the callers and the set-up time (spawn to warm).
fn set_up(
    args: &Args,
    inputs: &Inputs,
    scratch: &Scratch,
    round: usize,
) -> Result<(Server, Vec<Caller>, f64), String> {
    let dir = scratch.file(&format!("server-{round}"));
    std::fs::create_dir_all(dir.join("spill")).map_err(|e| e.to_string())?;
    let (flags, _) = args.workload.server(&dir);
    let started = Instant::now();
    let server = Server::spawn(&args.server, &flags, &dir.join("server.log"))
        .map_err(|e| format!("server start: {e}"))?;
    let callers: Result<Vec<Caller>, String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let addr = server.addr.clone();
                s.spawn(move || -> Result<Caller, String> {
                    let mut conn = Conn::connect(&addr).map_err(|e| e.to_string())?;
                    let session = warm_up(args.seed, inputs, c, &mut conn)?;
                    Ok(Caller { conn, session })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    let setup = started.elapsed().as_secs_f64();
    Ok((server, callers?, setup))
}

/// What one caller saw during the measured phase.
#[derive(Default)]
struct Tally {
    /// Per op: `(completion, latency)` in ns, completion counted from
    /// the start of the phase.
    samples: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    bytes_out: u64,
    bytes_in: u64,
    warm: u64,
    solves: u64,
    /// large-solve: `(op index, response digest)`.
    digests: Vec<(u64, u64)>,
    /// session-tune: sampled `(mirror after the edits, digest)`.
    snapshots: Vec<(Graph, u64, u64)>,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, phase: Instant, op: Instant, completed: &AtomicU64) {
        completed.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        self.samples.push((
            now.duration_since(phase).as_nanos() as u64,
            now.duration_since(op).as_nanos() as u64,
        ));
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// The session ops each caller snapshots for the in-process re-check.
fn session_samples(seed: u64, caller: usize) -> Vec<u64> {
    let mut rng = Rng::derive(seed, 0x7200 + caller as u64);
    let mut picks: Vec<u64> = (0..RECHECKS / CALLERS).map(|_| rng.range(0, 999)).collect();
    picks.sort_unstable();
    picks
}

/// One closed-loop caller: send, wait, check, repeat until `end`.
fn drive(
    args: &Args,
    inputs: &Inputs,
    caller: usize,
    mut state: Caller,
    phase: Instant,
    end: Instant,
    completed: &AtomicU64,
) -> Tally {
    let mut tally = Tally::default();
    let mut body = Vec::with_capacity(1 << 20);
    let exchange =
        |tally: &mut Tally, conn: &mut Conn, req: &Req<'_>, body: &mut Vec<u8>| -> Option<u16> {
            match conn.exchange(req, body) {
                Ok((sent, reply)) => {
                    tally.bytes_out += sent as u64;
                    tally.bytes_in += reply.bytes_in as u64;
                    if let Some(warm) = reply.warm {
                        tally.solves += 1;
                        tally.warm += u64::from(warm);
                    }
                    Some(reply.status)
                }
                Err(e) => {
                    tally.fail(format!("transport: {e}"));
                    None
                }
            }
        };
    let starts_with_objective = |body: &[u8], objective: &str| {
        body.starts_with(format!("{{\"objective\":\"{objective}\"").as_bytes())
    };
    match inputs {
        Inputs::Small { bodies, expected } => {
            for index in gen::SmallOps::new(args.seed, caller) {
                if Instant::now() >= end {
                    break;
                }
                let req = post("/v1/partition", [bodies[index].1.as_bytes(), b"", b""]);
                tally.attempted += 1;
                let started = Instant::now();
                let status = exchange(&mut tally, &mut state.conn, &req, &mut body);
                tally.record(phase, started, completed);
                match status {
                    None => break,
                    Some(200) if body == expected[index].as_bytes() => {}
                    Some(200) => {
                        tally.wrong += 1;
                        tally.fail(format!("wrong answer for small-mix body {index}"));
                    }
                    Some(s) => tally.fail(format!("status {s} for small-mix body {index}")),
                }
            }
        }
        Inputs::Large { pool } => {
            for k in 0.. {
                if Instant::now() >= end {
                    break;
                }
                let op = LargeOp::nth(args.seed, caller, k);
                let (prefix, suffix) = op.style.wrap(op.objective, op.bound);
                let req = post(
                    "/v1/partition",
                    [
                        prefix.as_bytes(),
                        op.graph_text(pool).as_bytes(),
                        suffix.as_bytes(),
                    ],
                );
                tally.attempted += 1;
                let started = Instant::now();
                let status = exchange(&mut tally, &mut state.conn, &req, &mut body);
                tally.record(phase, started, completed);
                match status {
                    None => break,
                    Some(200) if starts_with_objective(&body, op.objective) => {
                        tally.digests.push((k, fnv1a(&body)));
                    }
                    Some(200) => {
                        tally.wrong += 1;
                        tally.fail(format!("malformed large-solve answer for op {k}"));
                    }
                    Some(s) => tally.fail(format!("status {s} for large-solve op {k}")),
                }
            }
        }
        Inputs::Session { .. } => {
            let samples = session_samples(args.seed, caller);
            let session = state
                .session
                .as_mut()
                .expect("session registered in set-up");
            let patch_path = format!("/v1/graphs/{}", session.id);
            let solve_path = format!("/v1/graphs/{}/partition", session.id);
            for k in 0.. {
                if Instant::now() >= end {
                    break;
                }
                let edits = gen::session_batch(args.seed, caller, k, &session.mirror.edge_w);
                let patch = gen::patch_body(session.version, &edits);
                let solve = Style::of(k).session_solve("lexicographic", session.bound);
                tally.attempted += 1;
                let started = Instant::now();
                let req = Req {
                    method: "PATCH",
                    path: patch_path.clone(),
                    parts: [patch.as_bytes(), b"", b""],
                };
                match exchange(&mut tally, &mut state.conn, &req, &mut body) {
                    None => break,
                    Some(200) => {}
                    Some(s) => {
                        tally.record(phase, started, completed);
                        tally.fail(format!("status {s} for session patch {k}"));
                        break;
                    }
                }
                let acked = Value::parse(std::str::from_utf8(&body).unwrap_or_default())
                    .ok()
                    .and_then(|v| v["version"].as_u64());
                let status = exchange(
                    &mut tally,
                    &mut state.conn,
                    &post(&solve_path, [solve.as_bytes(), b"", b""]),
                    &mut body,
                );
                tally.record(phase, started, completed);
                if acked != Some(session.version + 1) {
                    tally.wrong += 1;
                    tally.fail(format!("session patch {k} acked {acked:?}"));
                    break;
                }
                session.version += 1;
                gen::mirror_apply(&mut session.mirror, &edits);
                match status {
                    None => break,
                    Some(200) if starts_with_objective(&body, "lexicographic") => {
                        if samples.binary_search(&k).is_ok() {
                            tally.snapshots.push((
                                session.mirror.clone(),
                                session.bound,
                                fnv1a(&body),
                            ));
                        }
                    }
                    Some(200) => {
                        tally.wrong += 1;
                        tally.fail(format!("malformed session answer for op {k}"));
                    }
                    Some(s) => tally.fail(format!("status {s} for session solve {k}")),
                }
            }
        }
    }
    tally
}

/// Re-solves a seeded sample of the measured ops in-process and
/// compares digests. Returns the number checked and the mismatches.
fn recheck(args: &Args, inputs: &Inputs, tallies: &[Tally]) -> (usize, Vec<String>) {
    let mut wrong = Vec::new();
    let mut checked = 0;
    match inputs {
        Inputs::Small { .. } => {}
        Inputs::Large { pool } => {
            let mut rng = Rng::derive(args.seed, 0x6200);
            for _ in 0..RECHECKS {
                let caller = rng.range(0, CALLERS as u64 - 1) as usize;
                let done = &tallies[caller].digests;
                if done.is_empty() {
                    continue;
                }
                let (k, digest) = done[rng.range(0, done.len() as u64 - 1) as usize];
                let op = LargeOp::nth(args.seed, caller, k);
                let (prefix, suffix) = op.style.wrap(op.objective, op.bound);
                let body = format!("{prefix}{}{suffix}", op.graph_text(pool));
                checked += 1;
                if fnv1a(expected_body(&body).as_bytes()) != digest {
                    wrong.push(format!("large-solve caller {caller} op {k} ({op:?})"));
                }
            }
        }
        Inputs::Session { .. } => {
            for (caller, tally) in tallies.iter().enumerate() {
                for (graph, bound, digest) in &tally.snapshots {
                    let (prefix, suffix) = Style::Serde.wrap("lexicographic", *bound);
                    let body = format!("{prefix}{}{suffix}", graph.render(Style::Serde));
                    checked += 1;
                    if fnv1a(expected_body(&body).as_bytes()) != *digest {
                        wrong.push(format!("session-tune caller {caller} sampled op"));
                    }
                }
            }
        }
    }
    (checked, wrong)
}

/// The paper's Figure 2 ratio over the workload's bandwidth ops.
fn plogq_ratio(args: &Args, inputs: &Inputs) -> f64 {
    let ratios: Vec<f64> = match inputs {
        Inputs::Small { bodies, .. } => bodies
            .iter()
            .filter(|(objective, _)| *objective == "bandwidth")
            .take(64)
            .map(|(_, text)| {
                let value = Value::parse(text).expect("generated bodies are JSON");
                let graph = &value["graph"];
                let list = |key: &str| -> Vec<u64> {
                    graph[key]
                        .as_array()
                        .expect("chain arrays")
                        .iter()
                        .map(|v| v.as_u64().expect("weights"))
                        .collect()
                };
                let chain = Graph {
                    node_w: list("node_weights"),
                    edge_w: list("edge_weights"),
                    parent: Vec::new(),
                };
                replay::plogq_over_nlogn(&chain, value["bound"].as_u64().expect("bound"))
            })
            .collect(),
        Inputs::Large { pool } => (0..8u64)
            .map(|k| LargeOp::nth(args.seed, 0, 8 * k))
            .map(|op| replay::plogq_over_nlogn(&pool.chain_graphs[op.graph], op.bound))
            .collect(),
        Inputs::Session { .. } => return 0.0,
    };
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// One window of the measured phase (see `Timing`).
struct Window {
    ops: u64,
    secs: f64,
    server_cpu_secs: f64,
    steal_ticks: u64,
    /// Latencies of the ops that completed in the window, ascending.
    latency_ms: Vec<f64>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    fn cpu_ms_per_op(&self) -> f64 {
        self.server_cpu_secs * 1e3 / self.ops.max(1) as f64
    }
}

/// The measured phase's end-to-end numbers and run conditions.
struct Measured {
    ops: u64,
    failed: u64,
    wrong: u64,
    windows: Vec<Window>,
    timing: Timing,
    /// Server CPU over the whole phase.
    server_cpu_secs: f64,
    /// Every op's latency, ascending.
    latency_ms: Vec<f64>,
    generator_cpu_ms_per_op: f64,
    peak_rss_mib: f64,
    /// Ops completed when `peak_rss_mib` was read.
    rss_read_at_ops: u64,
    steal_ticks: u64,
    bytes_out: u64,
    bytes_in: u64,
    warm_share: f64,
    delta: Scrape,
    first_error: Option<String>,
}

impl Measured {
    /// The indices of the kept windows: the least stolen, later ones
    /// first on ties (the cache has filled by then).
    fn kept(&self) -> Vec<usize> {
        let n = self.windows.len();
        let keep = ((n as f64 * self.timing.kept_share).round() as usize).clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (self.windows[i].steal_ticks, n - i));
        order.truncate(keep);
        order.sort_unstable();
        order
    }

    /// `(ops/s, p50 ms, p99 ms)` over the kept windows.
    fn calm(&self) -> (f64, f64, f64) {
        let kept: Vec<&Window> = self.kept().into_iter().map(|i| &self.windows[i]).collect();
        if self.timing.per_window {
            let over =
                |f: &dyn Fn(&Window) -> f64| median(&kept.iter().map(|w| f(w)).collect::<Vec<_>>());
            return (
                over(&Window::ops_per_s),
                over(&|w| quantile(&w.latency_ms, 0.50)),
                over(&|w| quantile(&w.latency_ms, 0.99)),
            );
        }
        let ops: u64 = kept.iter().map(|w| w.ops).sum();
        let secs: f64 = kept.iter().map(|w| w.secs).sum();
        let mut latency_ms: Vec<f64> = kept.iter().flat_map(|w| w.latency_ms.clone()).collect();
        latency_ms.sort_by(f64::total_cmp);
        (
            ops as f64 / secs,
            quantile(&latency_ms, 0.50),
            quantile(&latency_ms, 0.99),
        )
    }

    /// Server CPU per completed op, over the whole phase.
    fn cpu_ms_per_op(&self) -> f64 {
        self.server_cpu_secs * 1e3 / self.latency_ms.len().max(1) as f64
    }
}

fn measure(
    args: &Args,
    inputs: &Inputs,
    server: &Server,
    callers: Vec<Caller>,
) -> Result<(Measured, Vec<Tally>), String> {
    let io = |e: std::io::Error| e.to_string();
    let before = Scrape::parse(&server.get("/metrics").map_err(io)?);
    let gen_cpu0 = server::proc_cpu_secs("/proc/self/stat").map_err(io)?;
    let started = Instant::now();
    let first = (started, server.cpu_secs(), server::steal_ticks());
    let end = started + Duration::from_secs(args.seconds);
    let timing = args.workload.timing();
    let phase = Duration::from_secs(args.seconds);
    let count = ((phase.as_secs_f64() / timing.window.as_secs_f64()).round() as usize).max(1);
    let window = phase / count as u32;
    let completed = AtomicU64::new(0);
    let mut rss = None;
    // Server CPU and host steal at each window boundary; the last
    // boundary is when the final op has been answered.
    let (tallies, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, state)| {
                let completed = &completed;
                s.spawn(move || drive(args, inputs, c, state, started, end, completed))
            })
            .collect();
        let mut marks = vec![first];
        for w in 1..count as u32 {
            std::thread::sleep((started + window * w).saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), server.cpu_secs(), server::steal_ticks()));
            let done = completed.load(Ordering::Relaxed);
            if rss.is_none() && done >= timing.rss_after_ops {
                rss = Some((server.peak_rss_kib(), done));
            }
        }
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect();
        marks.push((Instant::now(), server.cpu_secs(), server::steal_ticks()));
        (tallies, marks)
    });
    let gen_cpu1 = server::proc_cpu_secs("/proc/self/stat").map_err(io)?;
    let after = Scrape::parse(&server.get("/metrics").map_err(io)?);
    // A run that never completed `rss_after_ops` reads it at the end.
    let (peak_rss_kib, rss_read_at_ops) =
        rss.unwrap_or_else(|| (server.peak_rss_kib(), completed.load(Ordering::Relaxed)));
    let peak_rss_mib = peak_rss_kib.map_err(io)? as f64 / 1024.0;

    let mut windows = Vec::with_capacity(count);
    for pair in marks.windows(2) {
        let ((t0, cpu0, steal0), (t1, cpu1, steal1)) = (&pair[0], &pair[1]);
        windows.push(Window {
            ops: 0,
            secs: t1.duration_since(*t0).as_secs_f64(),
            server_cpu_secs: cpu1.as_ref().map_err(|e| e.to_string())?
                - cpu0.as_ref().map_err(|e| e.to_string())?,
            steal_ticks: steal1.saturating_sub(*steal0),
            latency_ms: Vec::new(),
        });
    }
    let bounds: Vec<u64> = marks[1..count]
        .iter()
        .map(|(t, _, _)| t.duration_since(started).as_nanos() as u64)
        .collect();
    for &(done, latency) in tallies.iter().flat_map(|t| &t.samples) {
        let w = &mut windows[bounds.partition_point(|&b| b <= done)];
        w.ops += 1;
        w.latency_ms.push(latency as f64 / 1e6);
    }
    for w in &mut windows {
        w.latency_ms.sort_by(f64::total_cmp);
    }
    let ops: u64 = tallies.iter().map(|t| t.attempted).sum();
    let solves: u64 = tallies.iter().map(|t| t.solves).sum();
    let mut latency_ms: Vec<f64> = windows.iter().flat_map(|w| w.latency_ms.clone()).collect();
    latency_ms.sort_by(f64::total_cmp);
    Ok((
        Measured {
            ops,
            failed: tallies.iter().map(|t| t.failed).sum(),
            wrong: tallies.iter().map(|t| t.wrong).sum(),
            latency_ms,
            generator_cpu_ms_per_op: (gen_cpu1 - gen_cpu0) * 1e3 / ops.max(1) as f64,
            peak_rss_mib,
            rss_read_at_ops,
            steal_ticks: windows.iter().map(|w| w.steal_ticks).sum(),
            server_cpu_secs: windows.iter().map(|w| w.server_cpu_secs).sum(),
            windows,
            timing,
            bytes_out: tallies.iter().map(|t| t.bytes_out).sum(),
            bytes_in: tallies.iter().map(|t| t.bytes_in).sum(),
            warm_share: tallies.iter().map(|t| t.warm).sum::<u64>() as f64 / solves.max(1) as f64,
            delta: after.since(&before),
            first_error: tallies.iter().find_map(|t| t.first_error.clone()),
        },
        tallies,
    ))
}

/// A fixed CPU task timed on this host: FNV-1a over 16 MiB, median of
/// five. The work is the same in every run, so a run on a slowed host
/// shows here even when `/proc/stat` steal stays low: on a shared 2-vCPU
/// VM the same build and seed ran 15–20% apart minutes apart, with
/// steal under 1%.
fn host_probe_ms() -> f64 {
    let buffer: Vec<u8> = (0..16u32 << 20).map(|i| i as u8).collect();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(fnv1a(std::hint::black_box(&buffer)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// The source identity: the git commit when there is one, and a digest
/// of the sources either way (checkouts without `.git` still differ).
fn source_identity() -> (String, String) {
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, files);
                } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                    files.push(path);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    (sha, format!("{:016x}", fnv1a(&bytes)))
}

/// The traced replay and its untraced twin; returns the per-layer
/// metrics and writes the span file and layer table.
fn trace_run(
    args: &Args,
    inputs: &Inputs,
    scratch: &Scratch,
    measured: &Measured,
    stem: &str,
) -> Result<Vec<Metric>, String> {
    let io = |e: std::io::Error| e.to_string();
    let (_, shape) = args.workload.server(&scratch.0);
    let mut mirror = Mirror::new(&shape, &scratch.file("replay")).map_err(io)?;
    let state = Mirror::app_state(&shape, &scratch.file("handle")).map_err(io)?;
    let mut tracer = Tracer::new();
    // Handler time of the untraced replay (over the same ops as the
    // traced one), and answers that differ between the replays or from
    // the expected bytes.
    let mut handle_ns = 0u128;
    let mut mismatches = 0u64;
    let mut time_handle = |raw: &[u8], expect: Option<&str>, count: bool| {
        let (body, elapsed) = replay::handle_timed(&state, raw, MAX_BODY);
        if count {
            handle_ns += elapsed.as_nanos();
        }
        let differs = expect.is_some_and(|e| e != body);
        (body, u64::from(differs))
    };
    match inputs {
        Inputs::Small { bodies, expected } => {
            let raw =
                |i: usize| post("/v1/partition", [bodies[i].1.as_bytes(), b"", b""]).to_bytes();
            for i in 0..gen::SMALL_HOT {
                tracer.begin_op(false);
                mirror.partition(&mut tracer, &raw(i));
                tracer.end_op();
                time_handle(&raw(i), None, false);
            }
            let mut seqs: Vec<gen::SmallOps> = (0..CALLERS)
                .map(|c| gen::SmallOps::new(args.seed, c))
                .collect();
            for _ in 0..REPLAY_SMALL {
                for seq in seqs.iter_mut() {
                    let i = seq.next().expect("endless sequence");
                    let request = raw(i);
                    tracer.begin_op(true);
                    let got = mirror.partition(&mut tracer, &request);
                    tracer.end_op();
                    mismatches += u64::from(got != expected[i]);
                    mismatches += time_handle(&request, Some(&expected[i]), true).1;
                }
            }
        }
        Inputs::Large { pool } => {
            for k in 0..REPLAY_LARGE as u64 {
                for c in 0..CALLERS {
                    let op = LargeOp::nth(args.seed, c, k);
                    let (prefix, suffix) = op.style.wrap(op.objective, op.bound);
                    let request = post(
                        "/v1/partition",
                        [
                            prefix.as_bytes(),
                            op.graph_text(pool).as_bytes(),
                            suffix.as_bytes(),
                        ],
                    )
                    .to_bytes();
                    tracer.begin_op(true);
                    let got = mirror.partition(&mut tracer, &request);
                    tracer.end_op();
                    mismatches += time_handle(&request, Some(&got), true).1;
                }
            }
        }
        Inputs::Session { graphs } => {
            // Register and anchor each caller's graph in both replays.
            let mut sessions = Vec::new();
            for (graph, bound) in graphs {
                let register = format!("{{\"graph\":{}}}", graph.render(Style::Serde));
                let raw = post("/v1/graphs", [register.as_bytes(), b"", b""]).to_bytes();
                let (id, _) = mirror
                    .sessions
                    .register(Value::parse(&graph.render(Style::Serde)).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
                let info =
                    Value::parse(&time_handle(&raw, None, false).0).map_err(|e| e.to_string())?;
                let handle_id = info["id"].as_str().ok_or("register: no id")?.to_string();
                let solve = Style::Serde.session_solve("lexicographic", *bound);
                tracer.begin_op(false);
                mirror.session_solve(
                    &mut tracer,
                    &post(
                        &format!("/v1/graphs/{id}/partition"),
                        [solve.as_bytes(), b"", b""],
                    )
                    .to_bytes(),
                    &id,
                );
                tracer.end_op();
                time_handle(
                    &post(
                        &format!("/v1/graphs/{handle_id}/partition"),
                        [solve.as_bytes(), b"", b""],
                    )
                    .to_bytes(),
                    None,
                    false,
                );
                sessions.push((id, handle_id, 1u64, graph.clone(), *bound));
            }
            for k in 0..REPLAY_SESSION as u64 {
                for (c, (id, handle_id, version, mirror_graph, bound)) in
                    sessions.iter_mut().enumerate()
                {
                    let edits = gen::session_batch(args.seed, c, k, &mirror_graph.edge_w);
                    let patch = gen::patch_body(*version, &edits);
                    let solve = Style::of(k).session_solve("lexicographic", *bound);
                    let req = |path: String, method: &'static str, body: &str| {
                        Req {
                            method,
                            path,
                            parts: [body.as_bytes(), b"", b""],
                        }
                        .to_bytes()
                    };
                    tracer.begin_op(true);
                    *version = mirror.patch(
                        &mut tracer,
                        &req(format!("/v1/graphs/{id}"), "PATCH", &patch),
                        id,
                    );
                    let got = mirror.session_solve(
                        &mut tracer,
                        &req(format!("/v1/graphs/{id}/partition"), "POST", &solve),
                        id,
                    );
                    tracer.end_op();
                    time_handle(
                        &req(format!("/v1/graphs/{handle_id}"), "PATCH", &patch),
                        None,
                        true,
                    );
                    mismatches += time_handle(
                        &req(format!("/v1/graphs/{handle_id}/partition"), "POST", &solve),
                        Some(&got),
                        true,
                    )
                    .1;
                    gen::mirror_apply(mirror_graph, &edits);
                }
            }
        }
    }
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} replay answers differ from the served ones"
        ));
    }
    let traced = tracer.finish();
    let table = traced.table();
    std::fs::create_dir_all(&args.out).map_err(io)?;
    traced
        .write_spans(&args.out.join(format!("{stem}.spans.jsonl")))
        .map_err(io)?;
    std::fs::write(
        args.out.join(format!("{stem}.layers.txt")),
        table.render(stem),
    )
    .map_err(io)?;

    let c = &traced.counts;
    let ops = c.ops.max(1) as f64;
    let span_ns = |name: &str| table.layers.get(name).map_or(0, |&(_, ns)| ns) as f64;
    let mb_s = |bytes: u64, ns: f64| {
        if ns > 0.0 {
            bytes as f64 / 1e6 / (ns / 1e9)
        } else {
            0.0
        }
    };
    let handle_us = handle_ns as f64 / 1e3 / ops;
    let traced_handler_us = table.handler_ns as f64 / 1e3 / ops;
    let backing_us = |tag: &str| {
        table
            .chain_backing
            .get(tag)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e3 / ops)
    };
    let mut metrics: Vec<Metric> = replay::LAYERS
        .iter()
        .map(|(span, metric)| (metric.to_string(), table.per_op_us(span), "us"))
        .collect();
    metrics.extend([
        (
            "graph.json_parse_mb_s".to_string(),
            mb_s(c.parse_bytes, span_ns("graph.json_parse")),
            "MB/s",
        ),
        (
            "solvers.ingest_mb_s".to_string(),
            mb_s(c.ingest_bytes, span_ns("solvers.ingest")),
            "MB/s",
        ),
        (
            "solvers.ingest_wasted_ratio".to_string(),
            c.ingest_wasted_ns as f64 / span_ns("solvers.ingest").max(1.0),
            "ratio",
        ),
        (
            "service.cache_hit_ratio".to_string(),
            c.cache_hits as f64 / c.cache_gets.max(1) as f64,
            "ratio",
        ),
        ("store.solve_us.ram".to_string(), backing_us("ram"), "us"),
        ("store.solve_us.disk".to_string(), backing_us("disk"), "us"),
        (
            "session.warm_ratio".to_string(),
            if matches!(inputs, Inputs::Session { .. }) {
                c.warm_solves as f64 / c.solves.max(1) as f64
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "session.journal_bytes_per_op".to_string(),
            c.journal_bytes as f64 / ops,
            "bytes",
        ),
        ("service.handle_us".to_string(), handle_us, "us"),
        (
            "trace.overhead_ratio".to_string(),
            (traced_handler_us - handle_us) / handle_us.max(1e-9),
            "ratio",
        ),
        (
            "trace.coverage".to_string(),
            table.layer_sum_us() / (measured.cpu_ms_per_op() * 1e3).max(1e-9),
            "ratio",
        ),
    ]);
    Ok(metrics)
}

/// Stage means from the server's own `/metrics`, over the measured phase.
fn stage_metrics(delta: &Scrape) -> Vec<Metric> {
    STAGES
        .iter()
        .zip(&delta.stages)
        .map(|(stage, &(sum, count))| {
            let mean = if count > 0.0 { sum / count * 1e6 } else { 0.0 };
            (format!("stage.{stage}_us"), mean, "us")
        })
        .collect()
}

/// The measured workload properties a later claim must cite.
fn workload_metrics(m: &Measured, plogq: f64, probe_ms: f64) -> Vec<Metric> {
    let d = &m.delta;
    let ops = m.ops.max(1) as f64;
    vec![
        (
            "workload.repeat_share".to_string(),
            d.cache_hits / (d.cache_hits + d.cache_misses).max(1.0),
            "ratio",
        ),
        (
            "workload.flat_share".to_string(),
            (d.backing_ram + d.backing_disk) / ops,
            "ratio",
        ),
        (
            "workload.disk_share".to_string(),
            d.backing_disk / ops,
            "ratio",
        ),
        (
            "workload.bytes_in_per_op".to_string(),
            m.bytes_out as f64 / ops,
            "bytes",
        ),
        (
            "workload.bytes_out_per_op".to_string(),
            m.bytes_in as f64 / ops,
            "bytes",
        ),
        ("workload.warm_share".to_string(), m.warm_share, "ratio"),
        (
            "core.bandwidth.plogq_over_nlogn".to_string(),
            plogq,
            "count",
        ),
        ("run.steal_ticks".to_string(), m.steal_ticks as f64, "count"),
        ("run.host_probe_ms".to_string(), probe_ms, "ms"),
        (
            "run.generator_cpu_ms_per_op".to_string(),
            m.generator_cpu_ms_per_op,
            "ms",
        ),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let io = |e: std::io::Error| e.to_string();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let scratch = Scratch::new(args.out.join(format!("tmp-{}", std::process::id()))).map_err(io)?;
    let inputs = Inputs::generate(args.workload, args.seed);

    let mut setups = Vec::new();
    let mut live = None;
    for round in 0..SETUPS {
        // Each earlier server is stopped before the next one starts.
        drop(live.take());
        let (server, callers, setup) = set_up(args, &inputs, &scratch, round)?;
        setups.push(setup);
        live = Some((server, callers));
    }
    let (server, callers) = live.expect("at least one set-up");
    let probe_ms = host_probe_ms();
    let (measured, tallies) = measure(args, &inputs, &server, callers)?;
    drop(server);
    let (checked, mismatched) = recheck(args, &inputs, &tallies);
    let plogq = plogq_ratio(args, &inputs);

    let m = &measured;
    let failed = m.failed + mismatched.len() as u64;
    let correct = m.wrong == 0 && mismatched.is_empty();
    let lat = &m.latency_ms;
    let (ops_per_s, p50_ms, p99_ms) = m.calm();
    let end_to_end: Vec<Metric> = vec![
        ("ops_per_s".to_string(), ops_per_s, "1/s"),
        ("op_p50_ms".to_string(), p50_ms, "ms"),
        ("op_p99_ms".to_string(), p99_ms, "ms"),
        ("server_cpu_ms_per_op".to_string(), m.cpu_ms_per_op(), "ms"),
        ("server_peak_rss_mib".to_string(), m.peak_rss_mib, "MiB"),
        ("setup_s".to_string(), median(&setups), "s"),
    ];
    let (sha, digest) = source_identity();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = format!(
        "# perfbench {} seed={} seconds={} trace={}\n# run: git={sha} sources={digest} nproc={nproc} \
         steal_ticks={} host_probe_ms={probe_ms:.3} generator_cpu_ms_per_op={:.4} setups_s={:?}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.steal_ticks,
        m.generator_cpu_ms_per_op,
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
    );
    let kept = m.kept();
    let kept_samples: Vec<usize> = kept
        .iter()
        .map(|&i| m.windows[i].latency_ms.len())
        .collect();
    let fewest = kept_samples.iter().copied().min().unwrap_or(0);
    report.push_str(&format!(
        "# ops={} failed={} wrong={} fail_ratio={:.6} rechecked={checked}\n\
         # whole phase: {} latency samples, p50={:.4} ms ({} above), p99={:.4} ms ({} above), \
         server_cpu_ms_per_op={:.4}\n\
         # kept: {} of {} windows of {:.3} s ({}): {} latency samples, {} above the pooled \
         p99; the fewest in one window is {}, {} above its p99\n\
         # peak RSS read after {} completed ops\n\
         # window   ops/s        p50_ms     p99_ms     cpu_ms/op  samples  steal\n",
        m.ops,
        failed,
        m.wrong + mismatched.len() as u64,
        failed as f64 / m.ops.max(1) as f64,
        lat.len(),
        quantile(lat, 0.50),
        lat.len() / 2,
        quantile(lat, 0.99),
        lat.len() / 100,
        m.cpu_ms_per_op(),
        kept.len(),
        m.windows.len(),
        m.windows.first().map_or(0.0, |w| w.secs),
        if m.timing.per_window {
            "timings are medians over them"
        } else {
            "timings are over their ops pooled"
        },
        kept_samples.iter().sum::<usize>(),
        kept_samples.iter().sum::<usize>() / 100,
        fewest,
        fewest / 100,
        m.rss_read_at_ops,
    ));
    for &i in &kept {
        let w = &m.windows[i];
        report.push_str(&format!(
            "# {i:<8} {:<12.2} {:<10.4} {:<10.4} {:<10.4} {:<8} {}\n",
            w.ops_per_s(),
            quantile(&w.latency_ms, 0.50),
            quantile(&w.latency_ms, 0.99),
            w.cpu_ms_per_op(),
            w.latency_ms.len(),
            w.steal_ticks
        ));
    }
    let dropped: Vec<&Window> = (0..m.windows.len())
        .filter(|i| !kept.contains(i))
        .map(|i| &m.windows[i])
        .collect();
    if !dropped.is_empty() {
        report.push_str(&format!(
            "# dropped {} windows: median ops/s {:.2}, median p99 {:.4} ms, {} steal ticks\n",
            dropped.len(),
            median(&dropped.iter().map(|w| w.ops_per_s()).collect::<Vec<_>>()),
            median(
                &dropped
                    .iter()
                    .map(|w| quantile(&w.latency_ms, 0.99))
                    .collect::<Vec<_>>()
            ),
            dropped.iter().map(|w| w.steal_ticks).sum::<u64>(),
        ));
    }
    if let Some(why) = m.first_error.as_ref().or(mismatched.first()) {
        report.push_str(&format!("# first failure: {why}\n"));
    }
    let properties = [
        workload_metrics(m, plogq, probe_ms),
        stage_metrics(&m.delta),
    ]
    .concat();
    for (name, value, unit) in end_to_end.iter().chain(&properties) {
        report.push_str(&format!("{name:<36} {value:>14.4} {unit}\n"));
    }

    let metrics = if args.trace {
        let per_layer = trace_run(args, &inputs, &scratch, m, &stem)?;
        report.push_str("# per layer, from the traced replay (us = self time per op)\n");
        for (name, value, unit) in &per_layer {
            report.push_str(&format!("{name:<36} {value:>14.4} {unit}\n"));
        }
        [per_layer, properties].concat()
    } else {
        end_to_end
    };
    std::fs::create_dir_all(&args.out).map_err(io)?;
    std::fs::write(
        args.out
            .join(format!("{stem}.trace{}.txt", u8::from(args.trace))),
        &report,
    )
    .map_err(io)?;
    print!("{report}");
    println!("{}", json_line(correct, m.ops, failed, &metrics));
    Ok(correct && failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(1)
        }
    }
}
