//! `tgp` — command-line front end for the task-graph partitioning
//! workspace.
//!
//! ```text
//! tgp generate chain --n 1000 --seed 7 > chain.json
//! tgp partition bandwidth --bound 500 --input chain.json
//! tgp analyze --bound 500 --input chain.json
//! tgp generate tree --n 1000 | tgp partition compose --bound 800
//! tgp coc --processors 8 --input chain.json
//! tgp simulate --bound 500 --items 100 --input chain.json
//! ```
//!
//! Graphs are exchanged as JSON: chains as
//! `{"node_weights": [...], "edge_weights": [...]}` and trees as
//! `{"node_weights": [...], "edges": [{"a": 0, "b": 1, "weight": 5}, ...]}`
//! (the `tgp_graph::json` encodings of `tgp_graph::PathGraph` /
//! `tgp_graph::Tree`).

use std::error::Error;
use std::io::Read;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tgp_graph::json;
use tgp_graph::json::{FromJson, JsonError, Text, ToJson, Value};

use tgp_core::bandwidth::analyze_bandwidth;
use tgp_core::budget::Budget;
use tgp_core::pipeline::partition_chain;
use tgp_graph::generators::{random_chain, random_tree, WeightDist};
use tgp_graph::{EdgeId, PathGraph, Weight};
use tgp_service::{CacheConfig, Server, ServerConfig};
use tgp_shmem::machine::{Interconnect, Machine};
use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec};
use tgp_solvers::{ParamKind, Registry};

type CliResult<T> = Result<T, Box<dyn Error>>;

/// Parsed `--key value` options (flags after the positional words).
#[derive(Debug, Default)]
struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> CliResult<Self> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {:?}", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Options { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> CliResult<Option<T>>
    where
        T::Err: Error + Send + Sync + 'static,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => Ok(Some(v.parse::<T>().map_err(|e| format!("--{key}: {e}"))?)),
        }
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> CliResult<T>
    where
        T::Err: Error + Send + Sync + 'static,
    {
        self.num::<T>(key)?
            .ok_or_else(|| format!("missing required option --{key}").into())
    }
}

/// Usage text, with the objective table generated from the solver
/// registry so it can never drift from what `tgp partition` accepts.
fn usage() -> String {
    let mut text = String::from(
        "\
tgp — tree and linear task graph partitioning for shared-memory machines
(reproduction of Ray & Jiang, ICDCS 1994)

USAGE:
  tgp generate chain --n N [--seed S] [--node-lo 1] [--node-hi 100]
                          [--edge-lo 1] [--edge-hi 1000]
  tgp generate tree  --n N [same options]
  tgp partition <objective> [options] [--input FILE]
  tgp analyze --bound K [--input FILE]                # Figure 2 statistics
  tgp coc --processors M [--algorithm bokhari|probe] [--input FILE]
  tgp hetero --speeds 4,2,1,1 [--input FILE]          # mixed-speed array
  tgp host-satellite --satellites M [--root 0] [--input FILE]  # trees
  tgp approx --bound K [--input FILE]                 # general graphs
  tgp simulate --bound K --items N [--processors P]
               [--interconnect bus|crossbar] [--input FILE]
  tgp serve [--addr 127.0.0.1:7070] [--workers 4]  # Linux only
            [--loops N|auto]  # event loops, one per core by default
            [--cache-bytes 33554432] [--cache-ttl SECS] [--cache-file PATH]
            [--queue-depth 64] [--max-connections 1024] [--shed-cost UNITS]
            [--shed-remaining MS] [--max-body-bytes N]
            [--graph-spill-bytes N] [--graph-spill-dir PATH]
            [--read-timeout SECS] [--write-timeout SECS] [--idle-timeout SECS]
            [--session-file PATH] [--session-budget BYTES]
            [--log-requests] [--debug-endpoints]  # HTTP partition service
  tgp sessions [--addr HOST:PORT | --file PATH]   # resident session graphs
  tgp objectives [--markdown | --check FILE]      # registry listing / docs table
  tgp endpoints [--markdown | --check FILE]       # service endpoint table

OBJECTIVES (shared with POST /v1/partition; identical JSON responses):
",
    );
    for solver in Registry::shared().iter() {
        let params: Vec<String> = solver
            .params()
            .iter()
            .map(|p| {
                if p.required {
                    format!("--{} <{}>", p.name, param_hint(p.kind))
                } else {
                    format!("[--{} <{}>]", p.name, param_hint(p.kind))
                }
            })
            .collect();
        text.push_str(&format!(
            "  {:<16} {:<8} {:<34} {}\n",
            solver.name(),
            solver.graph_kind().as_str(),
            params.join(" "),
            solver.summary()
        ));
    }
    text.push_str("\nGraphs are read from --input or stdin as JSON; results go to stdout as JSON.");
    text
}

fn param_hint(kind: ParamKind) -> &'static str {
    match kind {
        ParamKind::U64 => "N",
        ParamKind::U64List => "N,N,...",
        ParamKind::Str => "S",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            use std::io::Write;
            // Tolerate a closed pipe (e.g. `tgp analyze ... | head`).
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(stdout, "{text}");
        }
        Err(e) => {
            // `help` travels the Err channel carrying the usage text
            // itself; don't prefix or repeat it.
            let msg = e.to_string();
            if msg == usage() {
                eprintln!("{msg}");
            } else {
                eprintln!("error: {msg}");
                eprintln!();
                eprintln!("{}", usage());
            }
            std::process::exit(1);
        }
    }
}

/// Runs one command and returns the rendered stdout text (without the
/// trailing newline `main` appends).
///
/// Registry-backed commands (`partition` and the objective aliases)
/// render their response *compactly*, exactly as the HTTP service does:
/// the printed line plus the newline is byte-for-byte the body of the
/// equivalent `POST /v1/partition`. The other commands pretty-print.
fn run(args: &[String]) -> CliResult<String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "generate" => {
            let kind = args.get(1).map(String::as_str).unwrap_or("");
            let opts = Options::parse(&args[2..])?;
            Ok(generate(kind, &opts)?.pretty())
        }
        "partition" => {
            let objective = args.get(1).map(String::as_str).unwrap_or("");
            let opts = Options::parse(&args[2..])?;
            Ok(partition(objective, &opts)?.to_string())
        }
        // Top-level aliases into the same registry dispatch, kept from
        // the pre-registry CLI.
        "coc" | "hetero" | "host-satellite" | "approx" => {
            let opts = Options::parse(&args[1..])?;
            Ok(partition(command, &opts)?.to_string())
        }
        "analyze" => {
            let opts = Options::parse(&args[1..])?;
            Ok(analyze(&opts)?.pretty())
        }
        "simulate" => {
            let opts = Options::parse(&args[1..])?;
            Ok(simulate(&opts)?.pretty())
        }
        "serve" => {
            // `--log-requests` and `--debug-endpoints` are bare flags,
            // unlike every other `--key value` option; strip them
            // before pair parsing.
            let mut rest = Vec::new();
            let mut log_requests = false;
            let mut debug_endpoints = false;
            for arg in &args[1..] {
                if arg == "--log-requests" {
                    log_requests = true;
                } else if arg == "--debug-endpoints" {
                    debug_endpoints = true;
                } else {
                    rest.push(arg.clone());
                }
            }
            let opts = Options::parse(&rest)?;
            Ok(serve(&opts, log_requests, debug_endpoints)?.pretty())
        }
        "objectives" => match args.get(1).map(String::as_str) {
            None => Ok(objectives_table().to_string()),
            Some("--markdown") => Ok(objectives_markdown().trim_end().to_string()),
            Some("--check") => {
                let path = args
                    .get(2)
                    .ok_or("--check needs a file path (e.g. docs/SERVICE.md)")?;
                objectives_check(path)
            }
            Some(other) => {
                Err(format!("objectives takes --markdown or --check <file>, got {other:?}").into())
            }
        },
        "endpoints" => match args.get(1).map(String::as_str) {
            None | Some("--markdown") => Ok(endpoints_markdown().trim_end().to_string()),
            Some("--check") => {
                let path = args
                    .get(2)
                    .ok_or("--check needs a file path (e.g. docs/SERVICE.md)")?;
                endpoints_check(path)
            }
            Some(other) => {
                Err(format!("endpoints takes --markdown or --check <file>, got {other:?}").into())
            }
        },
        "sessions" => {
            let opts = Options::parse(&args[1..])?;
            Ok(sessions(&opts)?.pretty())
        }
        "help" | "--help" | "-h" => Err(usage().into()),
        other => Err(format!("unknown command {other:?}").into()),
    }
}

/// `tgp objectives` — machine-readable registry listing, for tooling
/// and doc generation.
fn objectives_table() -> Value {
    let solvers: Vec<Value> = Registry::shared()
        .iter()
        .map(|solver| {
            let params: Vec<Value> = solver
                .params()
                .iter()
                .map(|p| {
                    json!({
                        "name": p.name,
                        "kind": param_hint(p.kind),
                        "required": p.required,
                    })
                })
                .collect();
            json!({
                "name": solver.name(),
                "graph": solver.graph_kind().as_str(),
                "params": params,
                "summary": solver.summary(),
            })
        })
        .collect();
    json!({ "objectives": solvers })
}

/// `tgp objectives --markdown` — the registry rendered as a GitHub
/// markdown table, the canonical content between the
/// `<!-- objectives:begin -->` / `<!-- objectives:end -->` markers in
/// `docs/SERVICE.md`. Optional parameters carry a `?` suffix.
fn objectives_markdown() -> String {
    let mut table =
        String::from("| objective | graph | parameters | summary |\n|---|---|---|---|\n");
    for solver in Registry::shared().iter() {
        let params: Vec<String> = solver
            .params()
            .iter()
            .map(|p| {
                if p.required {
                    format!("`{}`", p.name)
                } else {
                    format!("`{}?`", p.name)
                }
            })
            .collect();
        let params = if params.is_empty() {
            "—".to_string()
        } else {
            params.join(", ")
        };
        table.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            solver.name(),
            solver.graph_kind().as_str(),
            params,
            solver.summary().replace('|', "\\|") // keep `|` out of table cells
        ));
    }
    table
}

/// Shared marker-gated docs check: fails (exit 1) when the text between
/// `<!-- {tag}:begin -->` / `<!-- {tag}:end -->` in FILE differs from
/// `expected`, so docs can't drift from the generator.
fn marker_check(path: &str, tag: &str, expected: &str, ok_note: String) -> CliResult<String> {
    let begin = format!("<!-- {tag}:begin -->");
    let end_marker = format!("<!-- {tag}:end -->");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{tag} --check {path}: {e}"))?;
    let start = text
        .find(&begin)
        .ok_or_else(|| format!("{path}: missing {begin:?} marker"))?;
    let end = text
        .find(&end_marker)
        .ok_or_else(|| format!("{path}: missing {end_marker:?} marker"))?;
    if end < start {
        return Err(format!("{path}: {end_marker:?} appears before {begin:?}").into());
    }
    let found = text[start + begin.len()..end].trim();
    let expected = expected.trim();
    if found == expected {
        Ok(ok_note)
    } else {
        Err(format!(
            "{path}: {tag} table is stale; regenerate with `tgp {tag} --markdown` \
             and paste it between the markers\n--- expected ---\n{expected}\n--- found ---\n{found}"
        )
        .into())
    }
}

/// `tgp objectives --check FILE` — fails (exit 1) when the table
/// between the objectives markers in FILE differs from what
/// `--markdown` generates, so docs can't drift from the registry.
fn objectives_check(path: &str) -> CliResult<String> {
    marker_check(
        path,
        "objectives",
        &objectives_markdown(),
        format!(
            "{path}: objectives table is up to date ({} objectives)",
            Registry::shared().names().len()
        ),
    )
}

/// `tgp endpoints --markdown` — the service's endpoint surface as a
/// markdown table, the canonical content between the
/// `<!-- endpoints:begin -->` / `<!-- endpoints:end -->` markers in
/// `docs/SERVICE.md`. Rendered from the service's own endpoint
/// registry ([`tgp_service::envelope::ENDPOINTS`]), so the table, the
/// router, and the error-code audit can never drift apart; the final
/// column lists each endpoint's stable error codes beyond the
/// transport-level set (`bad_request`, `body_too_large`, `overloaded`,
/// `method_not_allowed`, `not_found`, `shed_deadline`,
/// `deadline_exceeded`).
fn endpoints_markdown() -> String {
    let mut table =
        String::from("| method | path | description | error codes |\n|---|---|---|---|\n");
    for (method, path, summary, codes) in tgp_service::envelope::ENDPOINTS {
        let path = path.replace('<', "&lt;").replace('>', "&gt;");
        let codes = if *codes == "-" {
            "-".to_string()
        } else {
            codes
                .split(',')
                .map(|c| format!("`{}`", c.trim()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        table.push_str(&format!("| {method} | `{path}` | {summary} | {codes} |\n"));
    }
    table
}

/// `tgp endpoints --check FILE` — docs gate for the endpoint table,
/// same contract as `tgp objectives --check`.
fn endpoints_check(path: &str) -> CliResult<String> {
    marker_check(
        path,
        "endpoints",
        &endpoints_markdown(),
        format!("{path}: endpoints table is up to date"),
    )
}

/// Minimal HTTP/1.1 GET for `tgp sessions --addr`: one request,
/// `connection: close`, JSON body expected.
fn http_get_json(addr: &str, path: &str) -> CliResult<Value> {
    use std::io::Write;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head.split_whitespace().nth(1).unwrap_or("<none>");
    if status != "200" {
        return Err(format!("server answered {status}: {}", body.trim()).into());
    }
    Ok(Value::parse(body.trim()).map_err(|e| format!("invalid JSON from server: {e}"))?)
}

/// `tgp sessions` — inspect resident session graphs, either live over
/// HTTP (`--addr HOST:PORT` → `GET /v1/graphs`) or offline from a
/// session journal (`--file PATH`, read-only: torn tails are reported,
/// never truncated).
fn sessions(opts: &Options) -> CliResult<Value> {
    match (opts.get("addr"), opts.get("file")) {
        (Some(addr), None) => http_get_json(addr, "/v1/graphs"),
        (None, Some(path)) => Ok(tgp_session::SessionStore::inspect(std::path::Path::new(
            path,
        ))?),
        (Some(_), Some(_)) => Err("sessions takes --addr or --file, not both".into()),
        (None, None) => Err("sessions needs --addr HOST:PORT or --file PATH".into()),
    }
}

fn dists(opts: &Options) -> CliResult<(WeightDist, WeightDist)> {
    let node = WeightDist::Uniform {
        lo: opts.num("node-lo")?.unwrap_or(1),
        hi: opts.num("node-hi")?.unwrap_or(100),
    };
    let edge = WeightDist::Uniform {
        lo: opts.num("edge-lo")?.unwrap_or(1),
        hi: opts.num("edge-hi")?.unwrap_or(1000),
    };
    Ok((node, edge))
}

fn generate(kind: &str, opts: &Options) -> CliResult<Value> {
    let n: usize = opts.required("n")?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let seed: u64 = opts.num("seed")?.unwrap_or(0);
    let (node, edge) = dists(opts)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind {
        "chain" => Ok(random_chain(n, node, edge, &mut rng).to_json()),
        "tree" => Ok(random_tree(n, node, edge, &mut rng).to_json()),
        other => Err(format!("generate expects 'chain' or 'tree', got {other:?}").into()),
    }
}

fn read_input(opts: &Options) -> CliResult<Value> {
    let text = match opts.get("input") {
        Some(path) => std::fs::read_to_string(path)?,
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
    };
    Ok(Value::parse(&text).map_err(|e: JsonError| format!("invalid JSON input: {e}"))?)
}

fn load_chain(opts: &Options) -> CliResult<PathGraph> {
    let value = read_input(opts)?;
    Ok(PathGraph::from_json(&value)
        .map_err(|e| format!("input is not a chain (expected node_weights + edge_weights): {e}"))?)
}

fn cut_to_json(cut: impl Iterator<Item = EdgeId>) -> Value {
    Value::Array(cut.map(|e| json!(e.index())).collect())
}

/// Runs any registered objective through the shared solver registry:
/// flags become the request's parameter fields, the graph comes from
/// `--input`/stdin, and the returned text is the solver's response —
/// the same bytes the HTTP service sends for the same request.
fn partition(objective: &str, opts: &Options) -> CliResult<Text> {
    let registry = Registry::shared();
    let (_, solver) = registry.get(objective).ok_or_else(|| {
        format!(
            "unknown objective {objective:?}; known: {}",
            registry.names().join(", ")
        )
    })?;

    // Reject flags outside the solver's schema, mirroring the strict
    // field check HTTP requests get (typo protection).
    for (key, _) in &opts.pairs {
        let known = key == "input" || solver.params().iter().any(|p| p.name == key);
        if !known {
            return Err(format!(
                "objective {objective:?} does not accept --{key}; it takes {}",
                if solver.params().is_empty() {
                    "no options".to_string()
                } else {
                    solver
                        .params()
                        .iter()
                        .map(|p| format!("--{}", p.name))
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            )
            .into());
        }
    }

    let mut fields: Vec<(String, Value)> =
        vec![("objective".to_string(), Value::from(solver.name()))];
    for spec in solver.params() {
        let Some(raw) = opts.get(spec.name) else {
            if spec.required {
                return Err(format!("missing required option --{}", spec.name).into());
            }
            continue;
        };
        let value = match spec.kind {
            ParamKind::U64 => Value::from(
                raw.parse::<u64>()
                    .map_err(|e| format!("--{}: {e}", spec.name))?,
            ),
            ParamKind::U64List => Value::Array(
                raw.split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map(Value::from)
                            .map_err(|e| format!("--{}: {e}", spec.name))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            ParamKind::Str => Value::from(raw),
        };
        fields.push((spec.name.to_string(), value));
    }
    fields.push(("graph".to_string(), read_input(opts)?));

    let request = solver.parse(&Value::Object(fields))?;
    Ok(solver.run(&request)?.value)
}

fn analyze(opts: &Options) -> CliResult<Value> {
    let bound = Weight::new(opts.required("bound")?);
    let chain = load_chain(opts)?;
    let (cut, stats) = analyze_bandwidth(&chain, bound)?;
    Ok(json!({
        "bound": bound.get(),
        "n": stats.n,
        "p": stats.p,
        "r": stats.r,
        "q": stats.q_bar,
        "p_log_q": stats.p_log_q,
        "n_log_n": stats.n_log_n,
        "advantage_ratio": stats.advantage_ratio(),
        "avg_prime_edge_len": stats.avg_prime_edge_len,
        "max_temps_occupancy": stats.max_deque_len,
        "avg_temps_occupancy": stats.avg_deque_len,
        "cut": cut_to_json(cut.iter()),
        "cut_weight": stats.cut_weight,
    }))
}

fn simulate(opts: &Options) -> CliResult<Value> {
    let bound = Weight::new(opts.required("bound")?);
    let items: usize = opts.required("items")?;
    let chain = load_chain(opts)?;
    let part = partition_chain(&chain, bound, &Budget::unlimited())?;
    let processors = opts.num("processors")?.unwrap_or(part.processors);
    let interconnect = match opts.get("interconnect").unwrap_or("bus") {
        "bus" => Interconnect::Bus,
        "crossbar" => Interconnect::Crossbar,
        other => {
            return Err(format!("--interconnect must be bus or crossbar, got {other:?}").into())
        }
    };
    let machine = Machine::new(processors, 1, 1, 0, interconnect)?;
    let spec = PipelineSpec::from_partition(&chain, &part.cut)?;
    let report = simulate_pipeline(&spec, &machine, items)?;
    Ok(json!({
        "bound": bound.get(),
        "processors": processors,
        "items": items,
        "makespan": report.makespan,
        "throughput": report.throughput(),
        "mean_utilization": report.mean_utilization(),
        "interconnect_utilization": report.interconnect_utilization(),
        "total_traffic": report.total_traffic,
    }))
}

fn serve(opts: &Options, log_requests: bool, debug_endpoints: bool) -> CliResult<Value> {
    let mut cache = CacheConfig::with_budget(opts.num("cache-bytes")?.unwrap_or(32 << 20));
    let ttl_secs: u64 = opts.num("cache-ttl")?.unwrap_or(0);
    if ttl_secs > 0 {
        cache.ttl = Some(std::time::Duration::from_secs(ttl_secs));
    }
    let defaults = ServerConfig::default();
    let secs = |key: &str, fallback: std::time::Duration| -> CliResult<std::time::Duration> {
        Ok(match opts.num::<u64>(key)? {
            Some(s) => std::time::Duration::from_secs(s.max(1)),
            None => fallback,
        })
    };
    let config = ServerConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:7070").to_string(),
        workers: opts.num("workers")?.unwrap_or(4),
        // The CLI defaults to auto (0 = one loop per core); the library
        // default stays 1 so embedders opt in explicitly.
        loops: match opts.get("loops") {
            None | Some("auto") => 0,
            Some(raw) => raw
                .parse::<usize>()
                .map_err(|_| format!("--loops: expected a count or \"auto\", got {raw:?}"))?,
        },
        cache,
        cache_file: opts.get("cache-file").map(std::path::PathBuf::from),
        queue_depth: opts.num("queue-depth")?.unwrap_or(64),
        max_connections: opts.num("max-connections")?.unwrap_or(1024),
        read_timeout: secs("read-timeout", defaults.read_timeout)?,
        write_timeout: secs("write-timeout", defaults.write_timeout)?,
        idle_timeout: secs("idle-timeout", defaults.idle_timeout)?,
        shed_cost: opts.num("shed-cost")?,
        shed_remaining: opts.num("shed-remaining")?,
        max_body_bytes: opts
            .num("max-body-bytes")?
            .unwrap_or(defaults.max_body_bytes),
        graph_spill_bytes: opts
            .num("graph-spill-bytes")?
            .unwrap_or(defaults.graph_spill_bytes),
        graph_spill_dir: opts.get("graph-spill-dir").map(std::path::PathBuf::from),
        log_requests,
        debug_endpoints,
        session_file: opts.get("session-file").map(std::path::PathBuf::from),
        session_budget: opts
            .num("session-budget")?
            .unwrap_or(defaults.session_budget),
        ..ServerConfig::default()
    };
    let workers = config.workers;
    let mut server = Server::start(config)?;
    let loops = server.net_loops();
    let debug_note = if debug_endpoints {
        ", GET /debug/*"
    } else {
        ""
    };
    eprintln!(
        "tgp serve: listening on http://{} ({workers} workers, {loops} loops); \
         endpoints: POST /v1/partition, POST /v1/simulate, /v1/graphs sessions, \
         GET /healthz, GET /metrics{debug_note}",
        server.local_addr()
    );
    // Blocks until the workers exit (they never do on their own; kill
    // the process to stop serving).
    server.wait();
    Ok(json!({ "status": "stopped" }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::{ChainView, Tree, TreeView};

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_key_value_pairs() {
        let opts = Options::parse(&strs(&["--n", "10", "--seed", "7"])).unwrap();
        assert_eq!(opts.get("n"), Some("10"));
        assert_eq!(opts.num::<u64>("seed").unwrap(), Some(7));
        assert_eq!(opts.num::<u64>("missing").unwrap(), None);
        assert_eq!(opts.required::<usize>("n").unwrap(), 10);
    }

    #[test]
    fn options_reject_malformed_input() {
        assert!(Options::parse(&strs(&["n", "10"])).is_err());
        assert!(Options::parse(&strs(&["--n"])).is_err());
        let opts = Options::parse(&strs(&["--n", "ten"])).unwrap();
        assert!(opts.num::<u64>("n").is_err());
        assert!(opts.required::<u64>("x").is_err());
    }

    #[test]
    fn last_option_wins() {
        let opts = Options::parse(&strs(&["--n", "1", "--n", "2"])).unwrap();
        assert_eq!(opts.get("n"), Some("2"));
    }

    #[test]
    fn generate_chain_is_valid_json_roundtrip() {
        let opts = Options::parse(&strs(&["--n", "25", "--seed", "3"])).unwrap();
        let value = generate("chain", &opts).unwrap();
        let chain = PathGraph::from_json(&value).unwrap();
        assert_eq!(chain.len(), 25);
        assert_eq!(chain.edge_count(), 24);
    }

    #[test]
    fn generate_tree_is_valid_json_roundtrip() {
        let opts = Options::parse(&strs(&["--n", "25", "--seed", "3"])).unwrap();
        let value = generate("tree", &opts).unwrap();
        let tree = Tree::from_json(&value).unwrap();
        assert_eq!(tree.len(), 25);
    }

    #[test]
    fn generate_rejects_bad_kind_and_n() {
        let opts = Options::parse(&strs(&["--n", "5"])).unwrap();
        assert!(generate("pentagon", &opts).is_err());
        let zero = Options::parse(&strs(&["--n", "0"])).unwrap();
        assert!(generate("chain", &zero).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&strs(&["help"])).is_err()); // usage via Err channel
    }

    #[test]
    fn objectives_markdown_lists_every_objective() {
        let table = objectives_markdown();
        for name in Registry::shared().names() {
            assert!(
                table.contains(&format!("| `{name}` |")),
                "objectives table is missing {name}"
            );
        }
    }

    #[test]
    fn objectives_check_accepts_fresh_and_rejects_stale_tables() {
        let path = std::env::temp_dir().join(format!("tgp-objcheck-{}.md", std::process::id()));
        let fresh = format!(
            "# Docs\n\n<!-- objectives:begin -->\n{}<!-- objectives:end -->\ntail\n",
            objectives_markdown()
        );
        std::fs::write(&path, &fresh).unwrap();
        assert!(objectives_check(path.to_str().unwrap()).is_ok());

        let stale = fresh.replace("| `bandwidth` |", "| `bandwidht` |");
        std::fs::write(&path, &stale).unwrap();
        let err = objectives_check(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("stale"));

        std::fs::write(&path, "no markers here\n").unwrap();
        let err = objectives_check(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("missing"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn endpoints_check_accepts_fresh_and_rejects_stale_tables() {
        let path = std::env::temp_dir().join(format!("tgp-endcheck-{}.md", std::process::id()));
        let fresh = format!(
            "# Docs\n\n<!-- endpoints:begin -->\n{}<!-- endpoints:end -->\ntail\n",
            endpoints_markdown()
        );
        std::fs::write(&path, &fresh).unwrap();
        assert!(endpoints_check(path.to_str().unwrap()).is_ok());

        let stale = fresh.replace("| `/v1/graphs` |", "| `/v1/grphs` |");
        std::fs::write(&path, &stale).unwrap();
        let err = endpoints_check(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("stale"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn endpoints_table_covers_the_session_surface() {
        let table = endpoints_markdown();
        for needle in [
            "/v1/graphs",
            "/v1/graphs/&lt;id&gt;",
            "/v1/graphs/&lt;id&gt;/partition",
            "/v1/partition",
            "/metrics",
        ] {
            assert!(table.contains(needle), "endpoints table missing {needle}");
        }
    }

    #[test]
    fn endpoints_table_has_stable_error_code_column() {
        let table = endpoints_markdown();
        assert!(
            table.starts_with("| method | path | description | error codes |"),
            "missing error-codes column: {table}"
        );
        // Every backticked code in the table must come from the stable
        // set — the audit that keeps docs and wire behavior aligned.
        for line in table.lines().skip(2) {
            let codes = line.rsplit('|').nth(1).unwrap_or("").trim();
            if codes == "-" {
                continue;
            }
            for code in codes.split(',') {
                let code = code.trim().trim_matches('`');
                assert!(
                    tgp_service::envelope::is_stable_code(code),
                    "unstable code {code:?} in endpoints table"
                );
            }
        }
        assert!(table.contains("`deadline_exceeded`"));
    }

    #[test]
    fn sessions_requires_exactly_one_source() {
        let none = Options::parse(&[]).unwrap();
        assert!(sessions(&none).is_err());
        let both = Options::parse(&strs(&["--addr", "127.0.0.1:1", "--file", "/tmp/x"])).unwrap();
        assert!(sessions(&both).is_err());
        // A missing journal file is a clean error, not a panic.
        let missing = Options::parse(&strs(&["--file", "/definitely/not/here.journal"])).unwrap();
        assert!(sessions(&missing).is_err());
    }

    #[test]
    fn cut_serialization_is_plain_indices() {
        let cut = tgp_graph::CutSet::new(vec![EdgeId::new(4), EdgeId::new(1)]);
        let v = cut_to_json(cut.iter());
        assert_eq!(v, json!([1, 4]));
    }
}
