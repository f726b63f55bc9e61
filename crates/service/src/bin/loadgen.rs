//! A load generator for the partition service, closed- or open-loop.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients N] [--connections N] [--seconds S]
//!         [--timeout SECS] [--nodes N] [--distinct D]
//!         [--mix chain|tree|simulate|session|adversarial|outofcore]
//!         [--deadline-ms MS] [--huge-nodes N] [--rate RPS] [--sweep MIN..MAX]
//!         [--sweep-loops MIN..MAX] [--verify-addr HOST:PORT]
//!         [--strict] [--latency-budget MS] [--p999-budget MS]
//! ```
//!
//! Closed-loop (default): N client threads, each holding one keep-alive
//! connection and issuing requests back-to-back — measures capacity.
//!
//! `--connections N` opens N persistent keep-alive connections (default:
//! one per client thread). With N much larger than the server's
//! `--workers`, this is the §SRV-EPOLL scenario: a server that pinned a
//! worker per connection would starve the rest, while the event loop
//! keeps every connection served. Each connection slot
//! counts the requests it completed; slots that finish the run without
//! a single response other than shed 503s are reported as **starved**
//! (a slot that only ever gets shed received no service), and
//! `--strict` fails on any starvation.
//!
//! Open-loop (`--rate`): requests are launched on a fixed schedule
//! spread across the clients regardless of how fast replies come back —
//! measures latency at a controlled offered load. Latency is taken from
//! each request's *scheduled* start time, so a slow server's queueing
//! delay is charged to it (no coordinated omission); the report prints
//! the achieved rate so a saturated run is visible.
//!
//! `--distinct` controls how many distinct request bodies the clients
//! cycle through: 1 measures the pure cache-hit path, a large value
//! measures solver throughput.
//!
//! `--sweep MIN..MAX` replaces the random population with one fixed
//! chain partitioned under every bound in the inclusive range — the
//! schedule-tuning workload the result cache is built for. Repeating a
//! sweep (or restarting a `--cache-file` server) hits warm entries.
//!
//! `--sweep-loops MIN..MAX` measures multi-loop scaling instead of
//! hitting `--addr`: for each loop count in the range it starts an
//! embedded epoll server (`ServerConfig { loops, .. }`) on an
//! ephemeral port, runs the closed-loop chain workload against it,
//! and reports throughput and p99 per point plus the last/first
//! scaling factor (EXPERIMENTS.md §SRV-SHARD). `--strict` fails the
//! process if any point starved a connection or answered a non-shed
//! 5xx.
//!
//! `--mix` picks the request population:
//!
//! * `chain` (default) — `bandwidth` partitions of random chains.
//! * `tree` — tree objectives (`bottleneck`, `procmin`, `compose`)
//!   round-robin over random caterpillar trees.
//! * `simulate` — `/v1/simulate` pipeline replays of random chains.
//! * `adversarial` — the tail-latency gauntlet: 99% small chains, 1%
//!   huge chains (`--huge-nodes`, default 1 000 000), every request
//!   carrying an `x-deadline-ms` header (`--deadline-ms`, default 50).
//!   The huge solves must be shed or cancelled by the deadline
//!   machinery instead of wedging a worker, so 504
//!   `deadline_exceeded` responses are *intended* here and tallied as
//!   deadline drops, not failures. The report prints **goodput**
//!   (200s/s) and small-request latency separately from the huge
//!   requests; `--p999-budget MS` turns the small-request p999 into a
//!   `--strict` gate. Run the server with a raised `--max-body-bytes`
//!   so the huge bodies are admitted at all.
//! * `session` — each connection registers a resident chain
//!   (`POST /v1/graphs`), then loops: apply a 16-edit batch
//!   (`PATCH /v1/graphs/<id>`) and re-partition
//!   (`POST /v1/graphs/<id>/partition`). The `x-tgp-solve` response
//!   header splits client-side re-solve latency into warm and cold
//!   series in the report. Each client mirrors its edits locally, so
//!   under `--strict` every warm re-solve is verified byte-for-byte
//!   against a stateless cold `/v1/partition` of the same edited
//!   graph; any divergence fails the run.
//! * `outofcore` — huge-graph uploads: each connection cycles its own
//!   distinct set of large chains (`--nodes`) through `/v1/partition`,
//!   so its first pass is cold — against a server whose
//!   `--graph-spill-bytes` is at or below the body size, the upload
//!   streams into spill storage and ingests into disk-backed flat
//!   arrays — and repeats are warm result-cache hits; the report splits
//!   the two. Under `--strict` every cold (spilled) solve is
//!   byte-compared against the same request answered by an *in-RAM
//!   control* server (`--verify-addr`: the same binary with
//!   `--graph-spill-bytes` above the body size); any divergence fails
//!   the run. Raise the spill server's `--max-body-bytes` above the
//!   rendered body size or the uploads are refused with 413.
//!
//! `--strict` exits 1 when any response was a 5xx other than a 503
//! shed or an intended deadline 504 (for CI smoke runs, where sheds
//! under deliberate overload are the server working as designed but
//! anything else is a bug), when any connection starved, when any
//! session warm re-solve differed from its cold verification, when any
//! non-200 body fails to parse as a v2 error envelope with a stable
//! `code` (`tgp_service::envelope`), or when a latency budget
//! (`--latency-budget MS` p99, `--p999-budget MS` p999) is exceeded.
//!
//! Latency is tallied in the same log-linear histogram the server
//! exports under `/metrics` (`tgp-obs`), so quantiles cost constant
//! memory and p50/p90/p99/p999 carry at most 12.5% bucket error.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tgp_graph::json::Value;
use tgp_obs::Histogram;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    Chain,
    Tree,
    Simulate,
    Session,
    Adversarial,
    OutOfCore,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Chain => "chain",
            Mix::Tree => "tree",
            Mix::Simulate => "simulate",
            Mix::Session => "session",
            Mix::Adversarial => "adversarial",
            Mix::OutOfCore => "outofcore",
        }
    }
}

/// In the adversarial mix, one request in this many is huge.
const HUGE_EVERY: usize = 100;

struct Config {
    addr: String,
    clients: usize,
    /// Persistent keep-alive connections to hold open; defaults to one
    /// per client thread.
    connections: Option<usize>,
    seconds: u64,
    /// Client-side read timeout per response.
    timeout: Duration,
    nodes: usize,
    distinct: usize,
    mix: Mix,
    /// Open-loop offered load in requests/second; `None` is closed-loop.
    rate: Option<f64>,
    /// Bound-sweep range (inclusive); replaces the `--distinct` bodies.
    sweep: Option<(u64, u64)>,
    /// Loop-count sweep (inclusive): for each count, start an embedded
    /// epoll server with that many event loops on an ephemeral port,
    /// run the chain workload against it, and report throughput + p99
    /// per point. Ignores `--addr` (the target is in-process).
    sweep_loops: Option<(usize, usize)>,
    strict: bool,
    /// With `--strict`, fail the run when client-side p99 latency
    /// exceeds this budget.
    latency_budget: Option<Duration>,
    /// With `--strict`, fail the run when small-request p999 latency
    /// exceeds this budget (the adversarial-mix tail gate).
    p999_budget: Option<Duration>,
    /// Send an `x-deadline-ms` header with this value on every request.
    /// Defaults to 50 in the adversarial mix, unset elsewhere.
    deadline_ms: Option<u64>,
    /// Node count of the adversarial mix's huge chains.
    huge_nodes: usize,
    /// Out-of-core mix: address of the in-RAM control server that
    /// `--strict` byte-compares every spilled solve against. It must be
    /// a *separate* server (with `--graph-spill-bytes` above the body
    /// size) because a re-ask of the spill server would be answered
    /// from its result cache — the same bytes, not an independent
    /// in-RAM recompute.
    verify_addr: Option<String>,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        addr: "127.0.0.1:7070".into(),
        clients: 8,
        connections: None,
        seconds: 5,
        timeout: Duration::from_secs(10),
        nodes: 64,
        distinct: 16,
        mix: Mix::Chain,
        rate: None,
        sweep: None,
        sweep_loops: None,
        strict: false,
        latency_budget: None,
        p999_budget: None,
        deadline_ms: None,
        huge_nodes: 1_000_000,
        verify_addr: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--clients" => {
                config.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--connections" => {
                config.connections = Some(
                    value("--connections")?
                        .parse()
                        .map_err(|e| format!("--connections: {e}"))?,
                )
            }
            "--seconds" => {
                config.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--timeout" => {
                let secs: u64 = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
                if secs == 0 {
                    return Err("--timeout must be at least 1 second".into());
                }
                config.timeout = Duration::from_secs(secs);
            }
            "--nodes" => {
                config.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--distinct" => {
                config.distinct = value("--distinct")?
                    .parse()
                    .map_err(|e| format!("--distinct: {e}"))?
            }
            "--mix" => {
                config.mix = match value("--mix")?.as_str() {
                    "chain" => Mix::Chain,
                    "tree" => Mix::Tree,
                    "simulate" => Mix::Simulate,
                    "session" => Mix::Session,
                    "adversarial" => Mix::Adversarial,
                    "outofcore" => Mix::OutOfCore,
                    other => {
                        return Err(format!(
                            "--mix must be chain, tree, simulate, session, adversarial or \
                             outofcore, got {other:?}"
                        ))
                    }
                }
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be at least 1 ms".into());
                }
                config.deadline_ms = Some(ms);
            }
            "--huge-nodes" => {
                config.huge_nodes = value("--huge-nodes")?
                    .parse()
                    .map_err(|e| format!("--huge-nodes: {e}"))?;
                if config.huge_nodes < 2 {
                    return Err("--huge-nodes must be at least 2".into());
                }
            }
            "--rate" => {
                let rate: f64 = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--rate must be a positive number".into());
                }
                config.rate = Some(rate);
            }
            "--sweep" => {
                let raw = value("--sweep")?;
                let (lo, hi) = raw
                    .split_once("..")
                    .ok_or_else(|| format!("--sweep expects MIN..MAX, got {raw:?}"))?;
                let lo: u64 = lo.trim().parse().map_err(|e| format!("--sweep min: {e}"))?;
                let hi: u64 = hi.trim().parse().map_err(|e| format!("--sweep max: {e}"))?;
                if lo > hi {
                    return Err(format!("--sweep: {lo} > {hi}"));
                }
                config.sweep = Some((lo, hi));
            }
            "--sweep-loops" => {
                let raw = value("--sweep-loops")?;
                let (lo, hi) = raw
                    .split_once("..")
                    .ok_or_else(|| format!("--sweep-loops expects MIN..MAX, got {raw:?}"))?;
                let lo: usize = lo
                    .trim()
                    .parse()
                    .map_err(|e| format!("--sweep-loops min: {e}"))?;
                let hi: usize = hi
                    .trim()
                    .parse()
                    .map_err(|e| format!("--sweep-loops max: {e}"))?;
                if lo == 0 || lo > hi {
                    return Err(format!("--sweep-loops: bad range {lo}..{hi}"));
                }
                config.sweep_loops = Some((lo, hi));
            }
            "--verify-addr" => config.verify_addr = Some(value("--verify-addr")?),
            "--strict" => config.strict = true,
            "--latency-budget" => {
                let ms: u64 = value("--latency-budget")?
                    .parse()
                    .map_err(|e| format!("--latency-budget: {e}"))?;
                if ms == 0 {
                    return Err("--latency-budget must be at least 1 ms".into());
                }
                config.latency_budget = Some(Duration::from_millis(ms));
            }
            "--p999-budget" => {
                let ms: u64 = value("--p999-budget")?
                    .parse()
                    .map_err(|e| format!("--p999-budget: {e}"))?;
                if ms == 0 {
                    return Err("--p999-budget must be at least 1 ms".into());
                }
                config.p999_budget = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--clients N] [--connections N] \
                     [--seconds S] [--timeout SECS] [--nodes N] [--distinct D] \
                     [--mix chain|tree|simulate|session|adversarial|outofcore] \
                     [--deadline-ms MS] [--huge-nodes N] [--rate RPS] [--sweep MIN..MAX] \
                     [--sweep-loops MIN..MAX] [--verify-addr HOST:PORT] \
                     [--strict] [--latency-budget MS] [--p999-budget MS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.clients == 0 || config.distinct == 0 || config.nodes < 2 {
        return Err("--clients and --distinct must be > 0, --nodes >= 2".into());
    }
    if config.connections == Some(0) {
        return Err("--connections must be > 0".into());
    }
    if config.sweep.is_some() && config.mix != Mix::Chain {
        return Err("--sweep only applies to the chain mix".into());
    }
    if config.sweep_loops.is_some() {
        if config.mix != Mix::Chain {
            return Err("--sweep-loops only applies to the chain mix".into());
        }
        if config.sweep.is_some() {
            return Err("--sweep-loops and --sweep are mutually exclusive".into());
        }
        if config.rate.is_some() {
            // Scaling is a saturation question; an open-loop schedule
            // would measure the schedule, not the server.
            return Err("--sweep-loops is closed-loop; drop --rate".into());
        }
    }
    if config.mix == Mix::Session && config.rate.is_some() {
        // A session iteration is several dependent requests (register,
        // patch, partition, verify); a fixed per-request schedule has
        // no meaningful phase to pin to.
        return Err("--rate does not apply to the session mix".into());
    }
    if config.mix == Mix::Adversarial && config.deadline_ms.is_none() {
        config.deadline_ms = Some(50);
    }
    if config.mix == Mix::OutOfCore {
        if config.rate.is_some() {
            // An out-of-core iteration is an upload plus (under
            // --strict) a dependent verification exchange; a fixed
            // per-request schedule has no meaningful phase to pin to.
            return Err("--rate does not apply to the outofcore mix".into());
        }
        if config.strict && config.verify_addr.is_none() {
            return Err(
                "--mix outofcore --strict needs --verify-addr pointing at an in-RAM \
                 control server (same binary, --graph-spill-bytes above the body size); \
                 re-asking the spill server would be answered from its result cache, \
                 not an independent recompute"
                    .into(),
            );
        }
    } else if config.verify_addr.is_some() {
        return Err("--verify-addr only applies to the outofcore mix".into());
    }
    Ok(config)
}

/// One pre-rendered request: target path plus JSON body.
struct RequestBody {
    path: &'static str,
    body: String,
}

fn chain_graph(nodes: usize, v: usize) -> String {
    let node_weights: Vec<String> = (0..nodes)
        .map(|i| ((i * 7 + v * 13) % 9 + 1).to_string())
        .collect();
    let edge_weights: Vec<String> = (0..nodes - 1)
        .map(|i| ((i * 5 + v * 3) % 17 + 1).to_string())
        .collect();
    format!(
        r#"{{"node_weights":[{}],"edge_weights":[{}]}}"#,
        node_weights.join(","),
        edge_weights.join(",")
    )
}

/// A deterministic caterpillar tree: node `i > 0` hangs off node
/// `i - 1 - (i % 3)`, giving some branching without needing an RNG.
fn tree_graph(nodes: usize, v: usize) -> String {
    let node_weights: Vec<String> = (0..nodes)
        .map(|i| ((i * 11 + v * 7) % 9 + 1).to_string())
        .collect();
    let edges: Vec<String> = (1..nodes)
        .map(|i| {
            let parent = i - 1 - (i % 3).min(i - 1);
            let weight = (i * 3 + v * 5) % 17 + 1;
            format!(r#"{{"a":{parent},"b":{i},"weight":{weight}}}"#)
        })
        .collect();
    format!(
        r#"{{"node_weights":[{}],"edges":[{}]}}"#,
        node_weights.join(","),
        edges.join(",")
    )
}

/// Builds `distinct` request bodies of `nodes` nodes each for the given
/// mix, deterministically varied so their cache keys differ.
fn request_bodies(mix: Mix, nodes: usize, distinct: usize) -> Vec<RequestBody> {
    (0..distinct)
        .map(|v| {
            // A bound around 4/3 of the mean node weight times a few
            // nodes keeps every instance feasible but non-trivial.
            let bound = 4 * nodes / 3;
            match mix {
                // The adversarial mix's 99% small requests are the
                // chain workload; its huge 1% is rendered separately.
                Mix::Chain | Mix::Adversarial => RequestBody {
                    path: "/v1/partition",
                    body: format!(
                        r#"{{"objective":"bandwidth","bound":{bound},"graph":{}}}"#,
                        chain_graph(nodes, v)
                    ),
                },
                Mix::Tree => {
                    let objective = ["bottleneck", "procmin", "compose"][v % 3];
                    RequestBody {
                        path: "/v1/partition",
                        body: format!(
                            r#"{{"objective":"{objective}","bound":{bound},"graph":{}}}"#,
                            tree_graph(nodes, v)
                        ),
                    }
                }
                Mix::Simulate => RequestBody {
                    path: "/v1/simulate",
                    body: format!(
                        r#"{{"bound":{bound},"items":{},"graph":{}}}"#,
                        50 + v % 50,
                        chain_graph(nodes, v)
                    ),
                },
                Mix::Session => unreachable!("session workers build their own requests"),
                Mix::OutOfCore => {
                    unreachable!("out-of-core workers build their own requests")
                }
            }
        })
        .collect()
}

/// One fixed chain under every bound in `lo..=hi` — each bound is a
/// distinct cache key, so repeating a sweep exercises the warm path.
/// Node weights are 1..=9, so any bound >= 9 is feasible; smaller
/// bounds exercise the 422 `infeasible` path, which is also a valid
/// thing to measure.
fn sweep_bodies(nodes: usize, lo: u64, hi: u64) -> Vec<RequestBody> {
    let graph = chain_graph(nodes, 0);
    (lo..=hi)
        .map(|bound| RequestBody {
            path: "/v1/partition",
            body: format!(r#"{{"objective":"bandwidth","bound":{bound},"graph":{graph}}}"#),
        })
        .collect()
}

/// A parsed HTTP response: status, the `x-tgp-solve` header when the
/// server sent one (`true` = warm), and the raw body bytes.
struct Response {
    status: u16,
    warm: Option<bool>,
    body: Vec<u8>,
}

/// One HTTP exchange on an existing keep-alive connection.
/// `extra_headers` is pre-rendered `name: value\r\n` lines (may be
/// empty) — how the adversarial mix attaches `x-deadline-ms`.
fn http_exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> Result<Response, std::io::Error> {
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\ncontent-type: application/json\r\n{extra_headers}content-length: {}\r\n\r\n{body}",
        body.len(),
    )?;
    writer.flush()?;

    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;

    let mut content_length = 0usize;
    let mut warm = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
            })?;
        }
        if let Some(v) = lower.strip_prefix("x-tgp-solve:") {
            warm = Some(v.trim() == "warm");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Response { status, warm, body })
}

/// One POST exchange returning the full parsed response, so strict
/// runs can audit error bodies.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    extra_headers: &str,
    path: &str,
    body: &str,
) -> Result<Response, std::io::Error> {
    http_exchange(reader, writer, "POST", path, extra_headers, body)
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank]
}

/// Per-client tallies, merged at the end. Latencies go into the same
/// log-linear histogram the server uses for `/metrics`, recorded in
/// microseconds — constant memory regardless of run length, quantile
/// error bounded at 12.5% by the bucket scheme.
#[derive(Default)]
struct Tally {
    latency: Histogram,
    responses: u64,
    transport_errors: u64,
    shed_503: u64,
    other_5xx: u64,
    non_200: u64,
    /// 200 responses — the numerator of goodput.
    ok_200: u64,
    /// 504s on requests that carried an `x-deadline-ms` header: the
    /// deadline machinery doing its job, not a server fault.
    deadline_504: u64,
    /// Non-200 bodies that failed to parse as a v2 error envelope with
    /// a stable code; any makes a `--strict` run fail.
    envelope_violations: u64,
    /// First envelope-violation diagnostic, for the failure message.
    envelope_example: Option<String>,
    /// Adversarial mix: the 1% huge requests, tallied apart so the
    /// small-request tail (`--p999-budget`) is not averaged away.
    huge_latency: Histogram,
    huge_sent: u64,
    /// Session mix only: re-solve latency split by the `x-tgp-solve`
    /// header, plus edit-batch and verification outcomes. The
    /// verification histogram times the `--strict` stateless cold
    /// solves — each is a full parse+solve of the same edited graph a
    /// warm re-solve just answered, so warm vs verify is the
    /// apples-to-apples cost of statelessness.
    warm_latency: Histogram,
    cold_latency: Histogram,
    verify_latency: Histogram,
    warm_solves: u64,
    cold_solves: u64,
    edit_batches: u64,
    version_conflicts: u64,
    verify_mismatches: u64,
}

impl Tally {
    /// Books one non-200 response: audits the body against the v2
    /// error envelope and classifies the status. `had_deadline` marks
    /// requests that carried an `x-deadline-ms` header, whose 504s are
    /// intended drops rather than server faults.
    fn note_error(&mut self, status: u16, body: &[u8], had_deadline: bool) {
        self.non_200 += 1;
        if let Err(e) = tgp_service::envelope::parse_envelope(body) {
            self.envelope_violations += 1;
            if self.envelope_example.is_none() {
                self.envelope_example = Some(format!("status {status}: {e}"));
            }
        }
        if status == 503 {
            self.shed_503 += 1;
        } else if status == 504 && had_deadline {
            self.deadline_504 += 1;
        } else if status >= 500 {
            self.other_5xx += 1;
        }
    }
}

/// The per-connection state of one resident-graph session: the server
/// id and version plus the client's mirror of the edited chain. The
/// mirror is what `--strict` solves statelessly to verify warm bodies.
struct SessionState {
    id: String,
    version: u64,
    node_weights: Vec<u64>,
    edge_weights: Vec<u64>,
}

impl SessionState {
    fn graph_json(&self) -> String {
        let nodes: Vec<String> = self.node_weights.iter().map(u64::to_string).collect();
        let edges: Vec<String> = self.edge_weights.iter().map(u64::to_string).collect();
        format!(
            r#"{{"node_weights":[{}],"edge_weights":[{}]}}"#,
            nodes.join(","),
            edges.join(",")
        )
    }
}

/// Pulls `"id"` and `"version"` out of a session-API response body.
fn id_and_version(body: &[u8]) -> Option<(String, u64)> {
    let value = Value::parse(std::str::from_utf8(body).ok()?).ok()?;
    let id = value.get("id")?.as_str()?.to_string();
    let version = value.get("version")?.as_u64()?;
    Some((id, version))
}

/// Edits per PATCH batch in the session mix — matches the §SESS
/// experiment shape.
const SESSION_BATCH: usize = 16;

/// The per-slot knobs of the session mix, plus the edit-batch counter
/// that survives reconnects so fresh sessions keep drawing new edits.
struct SessionSlot {
    nodes: usize,
    index: usize,
    strict: bool,
    tick: usize,
}

/// Drives one connection of the session mix until `stop`: register a
/// resident chain, then loop PATCH + re-partition, mirroring every
/// acked edit locally. Returns `Ok(())` to reconnect (transport error
/// or shed) and `Err(())` when the run is over.
#[allow(clippy::result_unit_err)]
fn session_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    slot: &mut SessionSlot,
    stop: &AtomicBool,
    tally: &mut Tally,
) -> Result<(), ()> {
    let nodes = slot.nodes;
    let strict = slot.strict;
    let bound = 4 * nodes / 3;
    let partition_body = format!(r#"{{"objective":"lexicographic","bound":{bound}}}"#);
    // A failed or interrupted exchange leaves the server-side session
    // state unknowable from here, so every (re)entry starts fresh; the
    // previous resident, if any, is dropped first as budget hygiene.
    let mut session: Option<SessionState> = None;
    // One tally-updating exchange; maps transport errors and sheds to
    // a reconnect signal so the caller can re-dial.
    macro_rules! send {
        ($method:expr, $path:expr, $body:expr) => {{
            let started = Instant::now();
            match http_exchange(reader, writer, $method, $path, "", $body) {
                Ok(response) => {
                    tally.latency.record(started.elapsed().as_micros() as u64);
                    tally.responses += 1;
                    if response.status == 200 {
                        tally.ok_200 += 1;
                    } else {
                        tally.note_error(response.status, &response.body, false);
                        if response.status == 503 {
                            return Ok(());
                        }
                    }
                    (response, started)
                }
                Err(_) => {
                    tally.transport_errors += 1;
                    return Ok(());
                }
            }
        }};
    }
    while !stop.load(Ordering::Relaxed) {
        if session.is_none() {
            let node_weights: Vec<u64> = (0..nodes)
                .map(|i| ((i * 7 + slot.index * 13) % 9 + 1) as u64)
                .collect();
            // Edge weights span a wide range (hashed into 1..=2^24) so
            // the bottleneck candidates are dense in value but sparse
            // around any one optimum — the regime where a narrow drift
            // window still holds the new optimum after a batch of edits.
            let edge_weights: Vec<u64> = (0..nodes - 1)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_add(slot.index as u64 * 0xA24B_AED5)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    h % (1 << 24) + 1
                })
                .collect();
            let mut fresh = SessionState {
                id: String::new(),
                version: 0,
                node_weights,
                edge_weights,
            };
            let body = format!(r#"{{"graph":{}}}"#, fresh.graph_json());
            let (response, _) = send!("POST", "/v1/graphs", &body);
            let Some((id, version)) = (response.status == 200)
                .then(|| id_and_version(&response.body))
                .flatten()
            else {
                // Registration refused (e.g. budget exceeded while
                // other slots hold residents): back off briefly.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            fresh.id = id;
            fresh.version = version;
            session = Some(fresh);
        }
        let state = session.as_mut().expect("session was just registered");

        // One batch of small-delta edge refinements — the schedule
        // tuning workload warm starts are built for: each edit nudges
        // a weight by at most 4, so the solver's drift window stays a
        // few dozen wide and usually holds the next re-solve's optimum.
        // Applied to the local mirror only once the server acks the
        // new version.
        let pending: Vec<(usize, u64)> = (0..SESSION_BATCH)
            .map(|k| {
                let index = (slot.tick * 31 + k * 7 + slot.index) % state.edge_weights.len();
                let delta = ((slot.tick * 13 + k * 5) % 4 + 1) as u64;
                let old = state.edge_weights[index];
                let weight = if (slot.tick + k).is_multiple_of(2) {
                    old + delta
                } else {
                    old.saturating_sub(delta).max(1)
                };
                (index, weight)
            })
            .collect();
        slot.tick += 1;
        let edits: Vec<String> = pending
            .iter()
            .map(|(i, w)| format!(r#"{{"op":"edge_weight","index":{i},"weight":{w}}}"#))
            .collect();
        let patch = format!(
            r#"{{"version":{},"edits":[{}]}}"#,
            state.version,
            edits.join(",")
        );
        let path = format!("/v1/graphs/{}", state.id);
        let (response, _) = send!("PATCH", &path, &patch);
        match response.status {
            200 => {
                let Some((_, version)) = id_and_version(&response.body) else {
                    session = None;
                    continue;
                };
                state.version = version;
                for (index, weight) in pending {
                    state.edge_weights[index] = weight;
                }
                tally.edit_batches += 1;
            }
            409 => {
                // Nobody else writes this session, so a conflict means
                // our mirror is stale (lost ack); start over.
                tally.version_conflicts += 1;
                session = None;
                continue;
            }
            _ => {
                session = None;
                continue;
            }
        }

        // Re-partition the resident graph; the header says whether the
        // solver warm-started from the previous solve's window.
        let path = format!("/v1/graphs/{}/partition", state.id);
        let (response, started) = send!("POST", &path, &partition_body);
        if response.status != 200 {
            session = None;
            continue;
        }
        let warm = response.warm == Some(true);
        let elapsed = started.elapsed().as_micros() as u64;
        if warm {
            tally.warm_latency.record(elapsed);
            tally.warm_solves += 1;
        } else {
            tally.cold_latency.record(elapsed);
            tally.cold_solves += 1;
        }

        if strict && warm {
            // Verify the warm body against a stateless cold solve of
            // the mirrored graph: byte-identical or the run fails.
            let cold = format!(
                r#"{{"objective":"lexicographic","bound":{bound},"graph":{}}}"#,
                state.graph_json()
            );
            let (verification, verify_started) = send!("POST", "/v1/partition", &cold);
            tally
                .verify_latency
                .record(verify_started.elapsed().as_micros() as u64);
            if verification.status != 200 || verification.body != response.body {
                tally.verify_mismatches += 1;
            }
        }
    }
    Err(())
}

/// The per-slot knobs of the out-of-core mix, plus the upload counter
/// that survives reconnects so a re-dialed slot keeps its warm/cold
/// bookkeeping instead of re-counting repeats as cold.
struct OutOfCoreSlot {
    nodes: usize,
    distinct: usize,
    index: usize,
    strict: bool,
    verify_addr: Option<String>,
    timeout: Duration,
    sent: usize,
}

/// Dials a keep-alive connection and returns the buffered reader /
/// writer pair the exchange helpers expect.
fn connect_pair(addr: &str, timeout: Duration) -> Option<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let writer = stream.try_clone().ok()?;
    Some((BufReader::new(stream), writer))
}

/// Drives one connection of the out-of-core mix until `stop`: cycle the
/// slot's own `distinct` huge chains through `/v1/partition`, so the
/// first pass over the set is cold (spilled ingest + solve on a server
/// whose `--graph-spill-bytes` is at or below the body size) and every
/// repeat is a warm result-cache hit. Chain variants are slot-disjoint
/// (`index * distinct + i`), so a slot-local first send is server-cold
/// too. Under `--strict`, each cold solve is byte-compared against the
/// same request answered by the in-RAM control server at `verify_addr`.
/// Returns `Ok(())` to reconnect and `Err(())` when the run is over.
#[allow(clippy::result_unit_err)]
fn outofcore_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    slot: &mut OutOfCoreSlot,
    stop: &AtomicBool,
    tally: &mut Tally,
) -> Result<(), ()> {
    let bound = 4 * slot.nodes / 3;
    // The verification connection is dialed lazily and re-dialed after
    // any transport error.
    let mut verify: Option<(BufReader<TcpStream>, TcpStream)> = None;
    while !stop.load(Ordering::Relaxed) {
        let i = slot.sent % slot.distinct;
        let cold = slot.sent < slot.distinct;
        let body = format!(
            r#"{{"objective":"bandwidth","bound":{bound},"graph":{}}}"#,
            chain_graph(slot.nodes, slot.index * slot.distinct + i)
        );
        let started = Instant::now();
        let response = match exchange(reader, writer, "", "/v1/partition", &body) {
            Ok(response) => response,
            Err(_) => {
                // The upload may or may not have been solved before the
                // connection died, so whether the retry is really cold
                // is unknowable; leaving `sent` alone keeps the counts
                // conservative (at most one mislabeled sample).
                tally.transport_errors += 1;
                return Ok(());
            }
        };
        slot.sent += 1;
        let micros = started.elapsed().as_micros() as u64;
        tally.latency.record(micros);
        tally.responses += 1;
        if response.status != 200 {
            tally.note_error(response.status, &response.body, false);
            if response.status == 503 {
                return Ok(());
            }
            continue;
        }
        tally.ok_200 += 1;
        if cold {
            tally.cold_latency.record(micros);
            tally.cold_solves += 1;
        } else {
            tally.warm_latency.record(micros);
            tally.warm_solves += 1;
        }

        // Cross-check every cold (spilled) solve against the in-RAM
        // control server, byte for byte.
        if slot.strict && cold {
            let Some(addr) = slot.verify_addr.as_deref() else {
                continue;
            };
            if verify.is_none() {
                verify = connect_pair(addr, slot.timeout);
            }
            let Some((verify_reader, verify_writer)) = verify.as_mut() else {
                tally.transport_errors += 1;
                continue;
            };
            let verify_started = Instant::now();
            match exchange(verify_reader, verify_writer, "", "/v1/partition", &body) {
                Ok(verification) => {
                    tally
                        .verify_latency
                        .record(verify_started.elapsed().as_micros() as u64);
                    if verification.status != 200 || verification.body != response.body {
                        tally.verify_mismatches += 1;
                    }
                }
                Err(_) => {
                    tally.transport_errors += 1;
                    verify = None;
                }
            }
        }
    }
    Err(())
}

/// One point of a `--sweep-loops` run.
struct LoopPoint {
    loops: usize,
    throughput: f64,
    p99_us: u64,
    starved: usize,
    other_5xx: u64,
    transport_errors: u64,
}

/// A lean closed-loop chain run against `addr`: `slots` persistent
/// connections hammer the body set for `seconds`, with the same
/// starvation accounting as the main path (a slot whose only responses
/// were shed 503s never got real work done).
fn closed_loop_run(
    addr: &str,
    slots: usize,
    seconds: u64,
    timeout: Duration,
    bodies: &Arc<Vec<RequestBody>>,
) -> LoopPoint {
    let stop = Arc::new(AtomicBool::new(false));
    let empty_header = Arc::new(String::new());
    let workers: Vec<_> = (0..slots)
        .map(|c| {
            let addr = addr.to_string();
            let bodies = Arc::clone(bodies);
            let stop = Arc::clone(&stop);
            let deadline_header = Arc::clone(&empty_header);
            std::thread::spawn(move || {
                let latency = Histogram::new();
                let mut served = 0u64;
                let mut shed = 0u64;
                let mut other_5xx = 0u64;
                let mut transport_errors = 0u64;
                let mut i = c;
                'reconnect: while !stop.load(Ordering::Relaxed) {
                    let Ok(stream) = TcpStream::connect(&addr) else {
                        transport_errors += 1;
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(timeout));
                    let Ok(mut writer) = stream.try_clone() else {
                        transport_errors += 1;
                        continue;
                    };
                    let mut reader = BufReader::new(stream);
                    while !stop.load(Ordering::Relaxed) {
                        let body = &bodies[i % bodies.len()];
                        i += 1;
                        let started = Instant::now();
                        match exchange(
                            &mut reader,
                            &mut writer,
                            &deadline_header,
                            body.path,
                            &body.body,
                        ) {
                            Ok(response) => {
                                latency.record(started.elapsed().as_micros() as u64);
                                match response.status {
                                    503 => {
                                        shed += 1;
                                        continue 'reconnect;
                                    }
                                    s if s >= 500 => other_5xx += 1,
                                    // 200 and 4xx both mean the solver
                                    // ran; the slot was served.
                                    _ => served += 1,
                                }
                            }
                            Err(_) => {
                                transport_errors += 1;
                                continue 'reconnect;
                            }
                        }
                    }
                }
                (latency, served, shed, other_5xx, transport_errors)
            })
        })
        .collect();

    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);

    let latency = Histogram::new();
    let mut completed = 0u64;
    let mut starved = 0usize;
    let mut other_5xx = 0u64;
    let mut transport_errors = 0u64;
    for worker in workers {
        let (slot_latency, served, _shed, slot_5xx, slot_transport) =
            worker.join().expect("sweep client thread panicked");
        latency.merge(&slot_latency);
        completed += served + slot_5xx;
        if served == 0 {
            starved += 1;
        }
        other_5xx += slot_5xx;
        transport_errors += slot_transport;
    }
    let elapsed = started.elapsed().as_secs_f64();
    LoopPoint {
        loops: 0, // stamped by the caller
        throughput: completed as f64 / elapsed,
        p99_us: latency.quantile(0.99),
        starved,
        other_5xx,
        transport_errors,
    }
}

/// `--sweep-loops MIN..MAX`: for each loop count, start an embedded
/// epoll server on an ephemeral port with that many `SO_REUSEPORT`
/// event loops (worker count and everything else held constant), run
/// the closed-loop chain workload, and report throughput and p99 per
/// point plus the scaling factor of the last point over the first.
/// Under `--strict` the process exits 1 if any point starved a
/// connection slot or answered a non-shed 5xx.
fn sweep_loops_run(config: &Config, lo: usize, hi: usize) -> ! {
    use tgp_service::{Server, ServerConfig};

    let bodies = Arc::new(request_bodies(Mix::Chain, config.nodes, config.distinct));
    let slots = config.connections.unwrap_or(config.clients).max(1);
    // Held constant across points so the only variable is the loop
    // count; sized to the machine so workers are not the bottleneck.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .max(4);
    println!(
        "loadgen: sweeping --loops {lo}..{hi}, {slots} persistent connections x {}s per point \
         (embedded epoll server, {workers} workers, {} distinct chain bodies, {} nodes/graph)",
        config.seconds, config.distinct, config.nodes
    );

    let mut points: Vec<LoopPoint> = Vec::new();
    let mut failures = Vec::new();
    for loops in lo..=hi {
        let server_config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            loops,
            workers,
            queue_depth: 256,
            max_connections: 4096,
            ..ServerConfig::default()
        };
        let mut server = match Server::start(server_config) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("loadgen: --sweep-loops: starting the {loops}-loop server: {e}");
                std::process::exit(2);
            }
        };
        let addr = server.local_addr().to_string();
        // A short unmeasured warmup fills the result cache and settles
        // connection establishment out of the measured window.
        let _ = closed_loop_run(&addr, slots, 1, config.timeout, &bodies);
        let mut point = closed_loop_run(&addr, slots, config.seconds, config.timeout, &bodies);
        point.loops = loops;
        server.shutdown();
        println!(
            "loops={loops}: throughput {:.0} req/s, p99 {} us, {}/{} connections starved{}",
            point.throughput,
            point.p99_us,
            point.starved,
            slots,
            if point.other_5xx > 0 || point.transport_errors > 0 {
                format!(
                    " ({} non-shed 5xx, {} transport errors)",
                    point.other_5xx, point.transport_errors
                )
            } else {
                String::new()
            }
        );
        if point.starved > 0 {
            failures.push(format!(
                "loops={loops}: {} of {slots} connections starved",
                point.starved
            ));
        }
        if point.other_5xx > 0 {
            failures.push(format!(
                "loops={loops}: {} 5xx responses besides load sheds",
                point.other_5xx
            ));
        }
        points.push(point);
    }
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        if points.len() > 1 && first.throughput > 0.0 && first.p99_us > 0 {
            println!(
                "scaling:    {:.2}x throughput at loops={} vs loops={}, p99 {:.2}x",
                last.throughput / first.throughput,
                last.loops,
                first.loops,
                last.p99_us as f64 / first.p99_us as f64,
            );
        }
    }
    if config.strict && !failures.is_empty() {
        eprintln!("loadgen: --strict: {}", failures.join("; "));
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    if let Some((lo, hi)) = config.sweep_loops {
        sweep_loops_run(&config, lo, hi);
    }
    let bodies = Arc::new(match (config.sweep, config.mix) {
        (Some((lo, hi)), _) => sweep_bodies(config.nodes, lo, hi),
        // Session and out-of-core workers render their own requests.
        (None, Mix::Session | Mix::OutOfCore) => Vec::new(),
        (None, mix) => request_bodies(mix, config.nodes, config.distinct),
    });
    let stop = Arc::new(AtomicBool::new(false));
    // The adversarial mix's 1% huge request, rendered once and shared:
    // a chain large enough that solving it without deadline
    // enforcement would visibly stall a worker.
    let huge_body = Arc::new(if config.mix == Mix::Adversarial {
        let bound = 4 * config.huge_nodes / 3;
        format!(
            r#"{{"objective":"bandwidth","bound":{bound},"graph":{}}}"#,
            chain_graph(config.huge_nodes, 0)
        )
    } else {
        String::new()
    });
    // Pre-rendered x-deadline-ms header line for every request.
    let deadline_header = Arc::new(match config.deadline_ms {
        Some(ms) => format!("x-deadline-ms: {ms}\r\n"),
        None => String::new(),
    });

    let workload = match (config.sweep, config.mix) {
        (Some((lo, hi)), _) => format!("bound sweep {lo}..{hi} over one fixed chain"),
        (None, Mix::Session) => {
            format!("mix session, one resident graph per connection, {SESSION_BATCH}-edit batches")
        }
        (None, Mix::OutOfCore) => format!(
            "mix outofcore, {} huge uploads per connection cycled cold-then-warm{}",
            config.distinct,
            if config.verify_addr.is_some() {
                ", cold solves cross-checked in RAM"
            } else {
                ""
            }
        ),
        (None, Mix::Adversarial) => format!(
            "mix adversarial, {} distinct small bodies + 1/{HUGE_EVERY} huge ({} nodes), \
             {} ms deadlines",
            config.distinct,
            config.huge_nodes,
            config.deadline_ms.unwrap_or(50)
        ),
        (None, mix) => format!("mix {}, {} distinct bodies", mix.name(), config.distinct),
    };
    let pacing = match config.rate {
        Some(rate) => format!("open-loop at {rate} req/s"),
        None => "closed-loop".into(),
    };
    // One thread per connection slot; `--connections` decouples the
    // number of held connections from the default one-per-client.
    let slots = config.connections.unwrap_or(config.clients).max(1);
    println!(
        "loadgen: {slots} persistent connections x {}s against {} ({pacing}; {workload}; {} nodes/graph)",
        config.seconds, config.addr, config.nodes
    );

    // Open-loop: each slot fires every `slots / rate` seconds,
    // phase-shifted so the aggregate is a uniform `rate` req/s.
    let interval = config
        .rate
        .map(|rate| Duration::from_secs_f64(slots as f64 / rate));
    let base = Instant::now();
    let timeout = config.timeout;

    let mix = config.mix;
    let nodes = config.nodes;
    let distinct = config.distinct;
    let strict = config.strict;
    let verify_addr = config.verify_addr.clone();
    let workers: Vec<_> = (0..slots)
        .map(|c| {
            let addr = config.addr.clone();
            let verify_addr = verify_addr.clone();
            let bodies = Arc::clone(&bodies);
            let huge_body = Arc::clone(&huge_body);
            let deadline_header = Arc::clone(&deadline_header);
            let stop = Arc::clone(&stop);
            let offset = interval
                .map(|iv| iv.mul_f64(c as f64 / slots as f64))
                .unwrap_or(Duration::ZERO);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let mut i = c; // de-phase clients across the body set
                let mut seq: u32 = 0; // open-loop tick counter
                let mut slot_state = SessionSlot {
                    nodes,
                    index: c,
                    strict,
                    tick: c,
                };
                let mut outofcore_state = OutOfCoreSlot {
                    nodes,
                    distinct,
                    index: c,
                    strict,
                    verify_addr,
                    timeout,
                    sent: 0,
                };
                'reconnect: while !stop.load(Ordering::Relaxed) {
                    let Ok(stream) = TcpStream::connect(&addr) else {
                        tally.transport_errors += 1;
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    };
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(timeout));
                    let Ok(writer) = stream.try_clone() else {
                        tally.transport_errors += 1;
                        continue;
                    };
                    let mut writer = writer;
                    let mut reader = BufReader::new(stream);
                    if mix == Mix::Session {
                        match session_loop(
                            &mut reader,
                            &mut writer,
                            &mut slot_state,
                            &stop,
                            &mut tally,
                        ) {
                            Ok(()) => continue 'reconnect, // re-dial
                            Err(()) => break 'reconnect,   // run is over
                        }
                    }
                    if mix == Mix::OutOfCore {
                        match outofcore_loop(
                            &mut reader,
                            &mut writer,
                            &mut outofcore_state,
                            &stop,
                            &mut tally,
                        ) {
                            Ok(()) => continue 'reconnect, // re-dial
                            Err(()) => break 'reconnect,   // run is over
                        }
                    }
                    while !stop.load(Ordering::Relaxed) {
                        // The adversarial mix slips a huge chain into
                        // every HUGE_EVERY-th slot tick; its latency
                        // is tallied apart so the small-request tail
                        // stays measurable.
                        let huge = mix == Mix::Adversarial && i % HUGE_EVERY == 0;
                        let (path, body) = if huge {
                            ("/v1/partition", huge_body.as_str())
                        } else {
                            let b = &bodies[i % bodies.len()];
                            (b.path, b.body.as_str())
                        };
                        i += 1;
                        // The measurement epoch: in open-loop mode the
                        // *scheduled* tick, even if we're running late
                        // (that lateness is the server's queueing
                        // delay); in closed-loop mode, now.
                        let started = match interval {
                            Some(iv) => {
                                let tick = base + offset + iv * seq;
                                seq += 1;
                                let now = Instant::now();
                                if tick > now {
                                    std::thread::sleep(tick - now);
                                }
                                tick
                            }
                            None => Instant::now(),
                        };
                        match exchange(&mut reader, &mut writer, &deadline_header, path, body) {
                            Ok(response) => {
                                let micros = started.elapsed().as_micros() as u64;
                                if huge {
                                    tally.huge_sent += 1;
                                    tally.huge_latency.record(micros);
                                } else {
                                    tally.latency.record(micros);
                                }
                                tally.responses += 1;
                                if response.status == 200 {
                                    tally.ok_200 += 1;
                                } else {
                                    tally.note_error(
                                        response.status,
                                        &response.body,
                                        !deadline_header.is_empty(),
                                    );
                                    if response.status == 503 {
                                        // Overloaded: shed by design,
                                        // and the connection was closed.
                                        continue 'reconnect;
                                    }
                                }
                            }
                            Err(_) => {
                                tally.transport_errors += 1;
                                continue 'reconnect;
                            }
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(config.seconds));
    stop.store(true, Ordering::Relaxed);

    let mut merged = Tally::default();
    let mut served_per_slot = Vec::with_capacity(slots);
    for worker in workers {
        let tally = worker.join().expect("client thread panicked");
        // Shed 503s are not service: a slot whose only responses were
        // sheds never got real work done. Non-200s like 422 still
        // count — the solver ran.
        served_per_slot.push(tally.responses - tally.shed_503);
        merged.latency.merge(&tally.latency);
        merged.responses += tally.responses;
        merged.transport_errors += tally.transport_errors;
        merged.shed_503 += tally.shed_503;
        merged.other_5xx += tally.other_5xx;
        merged.non_200 += tally.non_200;
        merged.ok_200 += tally.ok_200;
        merged.deadline_504 += tally.deadline_504;
        merged.envelope_violations += tally.envelope_violations;
        if merged.envelope_example.is_none() {
            merged.envelope_example = tally.envelope_example;
        }
        merged.huge_latency.merge(&tally.huge_latency);
        merged.huge_sent += tally.huge_sent;
        merged.warm_latency.merge(&tally.warm_latency);
        merged.cold_latency.merge(&tally.cold_latency);
        merged.verify_latency.merge(&tally.verify_latency);
        merged.warm_solves += tally.warm_solves;
        merged.cold_solves += tally.cold_solves;
        merged.edit_batches += tally.edit_batches;
        merged.version_conflicts += tally.version_conflicts;
        merged.verify_mismatches += tally.verify_mismatches;
    }
    // A slot with zero non-shed responses over the whole run is the
    // starvation the epoll front-end exists to prevent; the per-slot
    // spread shows softer unfairness (a thread-per-connection server
    // pins a few connections and trickles the rest).
    served_per_slot.sort_unstable();
    let starved = served_per_slot.iter().filter(|&&s| s == 0).count();
    let elapsed = started.elapsed().as_secs_f64();

    let completed = merged.responses;
    println!("completed:  {completed} requests in {elapsed:.2}s");
    match config.rate {
        Some(rate) => println!(
            "throughput: {:.0} req/s achieved (target {rate} req/s)",
            completed as f64 / elapsed
        ),
        None => println!("throughput: {:.0} req/s", completed as f64 / elapsed),
    }
    println!(
        "goodput:    {:.0} ok/s ({} of {completed} responses were 200)",
        merged.ok_200 as f64 / elapsed,
        merged.ok_200
    );
    let p99_us = merged.latency.quantile(0.99);
    let p999_us = merged.latency.quantile(0.999);
    println!(
        "latency:    p50 {} us, p90 {} us, p99 {} us, p999 {} us, max {} us",
        merged.latency.quantile(0.50),
        merged.latency.quantile(0.90),
        p99_us,
        p999_us,
        merged.latency.max(),
    );
    if config.mix == Mix::Adversarial {
        println!(
            "adversary:  {} huge requests sent, {} intended deadline 504s; \
             huge p50 {} us, p99 {} us, max {} us (small-request latency above)",
            merged.huge_sent,
            merged.deadline_504,
            merged.huge_latency.quantile(0.50),
            merged.huge_latency.quantile(0.99),
            merged.huge_latency.max(),
        );
    }
    println!(
        "connections: {slots} persistent, {starved} starved; served/conn min {} p50 {} max {}",
        served_per_slot.first().copied().unwrap_or(0),
        percentile(&served_per_slot, 0.50),
        served_per_slot.last().copied().unwrap_or(0),
    );
    if config.mix == Mix::Session {
        println!(
            "session:    {} warm / {} cold re-solves, {} edit batches applied, {} version conflicts",
            merged.warm_solves, merged.cold_solves, merged.edit_batches, merged.version_conflicts
        );
        for (label, h) in [
            ("warm solve ", &merged.warm_latency),
            ("cold solve ", &merged.cold_latency),
            ("verify cold", &merged.verify_latency),
        ] {
            if h.count() == 0 {
                continue;
            }
            println!(
                "{label}: p50 {} us, p90 {} us, p99 {} us, max {} us",
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max(),
            );
        }
        if config.strict {
            println!(
                "verify:     {} warm re-solves cross-checked against stateless cold solves, {} mismatches",
                merged.warm_solves, merged.verify_mismatches
            );
        }
    }
    if config.mix == Mix::OutOfCore {
        println!(
            "outofcore:  {} cold (spilled) uploads / {} warm result-cache hits",
            merged.cold_solves, merged.warm_solves
        );
        for (label, h) in [
            ("cold solve ", &merged.cold_latency),
            ("warm hit   ", &merged.warm_latency),
            ("verify ram ", &merged.verify_latency),
        ] {
            if h.count() == 0 {
                continue;
            }
            println!(
                "{label}: p50 {} us, p90 {} us, p99 {} us, max {} us",
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max(),
            );
        }
        if config.strict {
            println!(
                "verify:     {} spilled solves cross-checked against the in-RAM control \
                 at {}, {} mismatches",
                merged.verify_latency.count(),
                config.verify_addr.as_deref().unwrap_or("<unset>"),
                merged.verify_mismatches
            );
        }
    }
    if merged.non_200 > 0 || merged.transport_errors > 0 {
        println!(
            "anomalies:  {} non-200 responses ({} shed 503s, {} deadline 504s, {} other 5xx), \
             {} transport errors",
            merged.non_200,
            merged.shed_503,
            merged.deadline_504,
            merged.other_5xx,
            merged.transport_errors
        );
    }
    let mut failures = Vec::new();
    if merged.other_5xx > 0 {
        failures.push(format!(
            "{} 5xx responses besides load sheds",
            merged.other_5xx
        ));
    }
    if starved > 0 {
        failures.push(format!("{starved} of {slots} connections starved"));
    }
    if config.mix == Mix::OutOfCore
        && config.strict
        && merged.verify_latency.count() < merged.cold_solves
    {
        // A cold solve whose verification exchange failed in transport
        // went unchecked; strict runs refuse to vouch for it.
        failures.push(format!(
            "only {} of {} spilled solves were cross-checked in RAM",
            merged.verify_latency.count(),
            merged.cold_solves
        ));
    }
    if merged.verify_mismatches > 0 {
        failures.push(if config.mix == Mix::OutOfCore {
            format!(
                "{} spilled solves differed from the in-RAM control",
                merged.verify_mismatches
            )
        } else {
            format!(
                "{} warm re-solves differed from their cold verification",
                merged.verify_mismatches
            )
        });
    }
    if merged.envelope_violations > 0 {
        failures.push(format!(
            "{} non-200 bodies were not valid v2 error envelopes (first: {})",
            merged.envelope_violations,
            merged
                .envelope_example
                .as_deref()
                .unwrap_or("<no diagnostic>")
        ));
    }
    if let Some(budget) = config.latency_budget {
        let budget_us = budget.as_micros() as u64;
        if p99_us > budget_us {
            failures.push(format!(
                "p99 latency {p99_us} us exceeds the {budget_us} us budget"
            ));
        }
    }
    if let Some(budget) = config.p999_budget {
        let budget_us = budget.as_micros() as u64;
        if p999_us > budget_us {
            failures.push(format!(
                "p999 latency {p999_us} us exceeds the {budget_us} us budget"
            ));
        }
    }
    if config.strict && !failures.is_empty() {
        eprintln!("loadgen: --strict: {}", failures.join("; "));
        std::process::exit(1);
    }
}
