//! The in-process replays behind the per-layer metrics.
//!
//! The traced replay calls the same public functions the server calls,
//! in the server's order, on one thread, and records one span per call.
//! The untraced replay sends the same requests through
//! `tgp_service::api::handle`; the gap between the two is the tracing
//! overhead. Spans are kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tgp_graph::json::Value;
use tgp_net::framer::{frame, FrameLimits, FrameStatus};
use tgp_service::api::{handle, AppState};
use tgp_service::http::{read_request_spilling, write_response_with, BodySpill, Request};
use tgp_service::{CacheConfig, ResultCache};
use tgp_session::{Edit as SessionEdit, SessionStore};
use tgp_solvers::{ingest_flat, Budget, IngestBacking, KeyBuilder, Registry};

use crate::gen::Graph;

/// Where a span has no parent.
const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The memory backing of a flat solve (`ram`/`disk`), else empty.
    pub tag: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while `on`; otherwise just runs the calls (warm-up).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    op: u32,
    root: u32,
    /// Self-reported counts, per layer.
    pub counts: Counts,
}

#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub ops: u64,
    pub parse_bytes: u64,
    pub ingest_bytes: u64,
    pub ingest_wasted_ns: u64,
    pub cache_gets: u64,
    pub cache_hits: u64,
    pub solves: u64,
    pub warm_solves: u64,
    pub journal_bytes: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            op: 0,
            root: ROOT,
            counts: Counts::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of one op; `on` decides whether it records.
    pub fn begin_op(&mut self, on: bool) {
        self.on = on;
        if on {
            self.root = self.spans.len() as u32;
            let now = self.now_ns();
            self.spans.push(Span {
                name: "op",
                tag: "",
                op: self.op,
                parent: ROOT,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    pub fn end_op(&mut self) {
        if self.on {
            let now = self.now_ns();
            self.spans[self.root as usize].end_ns = now;
            self.op += 1;
            self.counts.ops += 1;
        }
    }

    /// Runs `f` as one span of the current op. Returns its result and
    /// duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        if self.on {
            self.spans.push(Span {
                name,
                tag,
                op: self.op,
                parent: self.root,
                start_ns: start,
                end_ns: end,
            });
        }
        (result, end - start)
    }

    fn count(&mut self, f: impl FnOnce(&mut Counts)) {
        if self.on {
            f(&mut self.counts);
        }
    }
}

/// The server settings a replay mirrors.
#[derive(Debug, Clone)]
pub struct ServerShape {
    pub cache_bytes: usize,
    pub cache_journal: bool,
    pub spill_bytes: u64,
    pub max_body: usize,
}

/// Everything one replay needs besides the ops: the mirrored server
/// state, built fresh per replay.
pub struct Mirror {
    shape: ServerShape,
    spill: BodySpill,
    limits: FrameLimits,
    cache: ResultCache,
    pub sessions: Arc<SessionStore>,
    session_journal: std::path::PathBuf,
    /// Previous full session responses, as the server keeps them.
    last_solves: BTreeMap<(String, Vec<u8>), String>,
}

impl Mirror {
    pub fn new(shape: &ServerShape, dir: &Path) -> std::io::Result<Mirror> {
        std::fs::create_dir_all(dir)?;
        let cache =
            ResultCache::new(CacheConfig::with_budget(shape.cache_bytes).scaled_for_loops(1));
        if shape.cache_journal {
            cache
                .attach_journal(&dir.join("cache.journal"))
                .map_err(std::io::Error::other)?;
        }
        let session_journal = dir.join("sessions.journal");
        let sessions = Arc::new(SessionStore::with_journal(
            &session_journal,
            tgp_session::DEFAULT_SESSION_BUDGET,
        )?);
        Ok(Mirror {
            shape: shape.clone(),
            spill: BodySpill {
                threshold: usize::try_from(shape.spill_bytes).unwrap_or(usize::MAX),
                dir: dir.to_path_buf(),
            },
            limits: FrameLimits {
                max_head_bytes: tgp_service::http::MAX_HEAD_BYTES,
                max_body_bytes: shape.max_body as u64,
            },
            cache,
            sessions,
            session_journal,
            last_solves: BTreeMap::new(),
        })
    }

    /// An `AppState` configured like the server, for the untraced replay.
    pub fn app_state(shape: &ServerShape, dir: &Path) -> std::io::Result<AppState> {
        std::fs::create_dir_all(dir)?;
        let sessions = SessionStore::with_journal(
            &dir.join("handle-sessions.journal"),
            tgp_session::DEFAULT_SESSION_BUDGET,
        )?;
        let state = AppState::new(CacheConfig::with_budget(shape.cache_bytes).scaled_for_loops(1))
            .with_graph_spill(shape.spill_bytes, Some(dir.to_path_buf()))
            .with_sessions(Arc::new(sessions));
        if shape.cache_journal {
            state
                .cache
                .attach_journal(&dir.join("handle-cache.journal"))
                .map_err(std::io::Error::other)?;
        }
        Ok(state)
    }

    pub fn journal_len(&self) -> u64 {
        std::fs::metadata(&self.session_journal)
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Frames and parses one raw request, as the event loop and a
    /// worker do.
    fn receive(&self, t: &mut Tracer, raw: &[u8]) -> Request {
        let (framed, _) = t.span("net.frame", "", || frame(raw, &self.limits));
        assert_eq!(
            framed,
            FrameStatus::Complete { len: raw.len() },
            "the generator's requests frame whole"
        );
        let (request, _) = t.span("service.http_parse", "", || {
            read_request_spilling(&mut &raw[..], self.shape.max_body, Some(&self.spill))
        });
        request.expect("the generator's requests parse")
    }

    fn respond(&self, t: &mut Tracer, body: &str) {
        t.span("service.http_render", "", || {
            let mut out = Vec::with_capacity(body.len() + 128);
            write_response_with(
                &mut out,
                200,
                "application/json",
                &[],
                body.as_bytes(),
                true,
            )
            .expect("write to Vec");
            std::hint::black_box(out)
        });
    }

    /// `POST /v1/partition` in the server's order: streaming flat
    /// ingest, else the JSON-tree parse and registry dispatch; then
    /// key, cache probe, and on a miss solve, serialize and insert.
    /// Returns the response body.
    pub fn partition(&mut self, t: &mut Tracer, raw: &[u8]) -> String {
        let request = self.receive(t, raw);
        let body: &[u8] = &request.body;
        // What the request allocated, freed at the end as the server
        // frees it: body, JSON tree, graphs.
        let mut garbage: Vec<Box<dyn std::any::Any>> = Vec::new();
        let budget = Budget::unlimited();
        let backing = if body.len() as u64 >= self.shape.spill_bytes {
            IngestBacking::disk(&self.spill.dir)
        } else {
            IngestBacking::Ram
        };
        let (ingested, ingest_ns) = t.span("solvers.ingest", "", || {
            ingest_flat(body, &backing, &budget)
        });
        let len = body.len() as u64;
        t.count(|c| c.ingest_bytes += len);
        let rendered = match ingested.expect("no deadline to exceed") {
            Some(flat) => {
                let tag = flat.graph.backing_kind().as_str();
                let (key, _) = t.span("solvers.key", "", || flat.canonical_key());
                let rendered = self.cached(t, &key, flat.cost_estimate(), |t| {
                    let (response, _) = t.span(solve_span(flat.objective.name()), tag, || {
                        flat.run_budgeted(&budget)
                    });
                    let response = response.expect("generated instances are feasible");
                    t.span("solvers.serialize", "", || response.value.to_string())
                        .0
                });
                garbage.push(Box::new(flat));
                rendered
            }
            None => {
                t.count(|c| {
                    c.ingest_wasted_ns += ingest_ns;
                    c.parse_bytes += len;
                });
                let (value, _) = t.span("graph.json_parse", "", || {
                    Value::parse(std::str::from_utf8(body).expect("UTF-8 body"))
                });
                let value = value.expect("generated bodies are JSON");
                let (dispatched, _) = t.span("solvers.dispatch", "", || {
                    Registry::shared().dispatch(&value)
                });
                let (_, solver, request) = dispatched.expect("generated requests are valid");
                let (key, _) = t.span("solvers.key", "", || solver.canonical_key(&request));
                let rendered = self.cached(t, &key, solver.cost_estimate(&request), |t| {
                    let (response, _) = t.span(solve_span(solver.name()), "", || {
                        solver.run_budgeted(&request, &budget)
                    });
                    let response = response.expect("generated instances are feasible");
                    t.span("solvers.serialize", "", || {
                        solver.to_json(&response).to_string()
                    })
                    .0
                });
                garbage.push(Box::new(request));
                garbage.push(Box::new(value));
                rendered
            }
        };
        let body = format!("{rendered}\n");
        self.respond(t, &body);
        garbage.push(Box::new(request));
        t.span("service.teardown", "", || drop(garbage));
        body
    }

    /// The cache probe, and on a miss `solve` (solve plus serialize)
    /// and the insert, as the server's `with_cache` runs them.
    fn cached(
        &self,
        t: &mut Tracer,
        key: &[u8],
        cost: u64,
        solve: impl FnOnce(&mut Tracer) -> String,
    ) -> String {
        let (hit, _) = t.span("service.cache_get", "", || self.cache.get(key));
        let hit_count = u64::from(hit.is_some());
        t.count(|c| {
            c.cache_gets += 1;
            c.cache_hits += hit_count;
        });
        if let Some(hit) = hit {
            return hit;
        }
        let rendered = solve(t);
        t.span("service.cache_insert", "", || {
            self.cache.insert(key, rendered.clone(), cost)
        });
        t.count(|c| c.solves += 1);
        rendered
    }

    /// `PATCH /v1/graphs/<id>`: parse, edit parse, and the journaled
    /// `SessionStore::apply`.
    pub fn patch(&mut self, t: &mut Tracer, raw: &[u8], id: &str) -> u64 {
        let request = self.receive(t, raw);
        let (value, _) = t.span("graph.json_parse", "", || {
            Value::parse(std::str::from_utf8(&request.body).expect("UTF-8 body"))
        });
        let value = value.expect("generated bodies are JSON");
        let version = value["version"].as_u64().expect("patch has a version");
        let (edits, _) = t.span("session.edit_parse", "", || {
            SessionEdit::batch_from_json(&value["edits"])
        });
        let edits = edits.expect("generated edits are valid");
        let before = self.journal_len();
        let (applied, _) = t.span("session.apply", "", || {
            self.sessions.apply(id, version, &edits)
        });
        let new_version = applied.expect("generated batches apply");
        let grown = self.journal_len().saturating_sub(before);
        t.count(|c| c.journal_bytes += grown);
        let body = format!(
            "{}\n",
            tgp_graph::json!({ "id": id, "version": new_version, "applied": edits.len() as u64 })
        );
        self.respond(t, &body);
        new_version
    }

    /// `POST /v1/graphs/<id>/partition`: resident lookup, dispatch over
    /// the resident graph, then the warm-certified or cold solve.
    pub fn session_solve(&mut self, t: &mut Tracer, raw: &[u8], id: &str) -> String {
        let request = self.receive(t, raw);
        let (value, _) = t.span("graph.json_parse", "", || {
            Value::parse(std::str::from_utf8(&request.body).expect("UTF-8 body"))
        });
        let mut value = value.expect("generated bodies are JSON");
        let (arc, _) = t.span("session.lookup", "", || self.sessions.resident(id));
        let arc = arc.expect("registered graph");
        let mut resident = arc.lock().expect("resident graph poisoned");
        let (dispatched, _) = t.span("solvers.dispatch", "", || {
            let graph = std::mem::replace(&mut resident.graph, Value::Null);
            if let Value::Object(entries) = &mut value {
                entries.push(("graph".to_string(), graph));
            }
            let dispatched = Registry::shared().dispatch(&value);
            if let Value::Object(entries) = &mut value {
                resident.graph = entries.pop().map(|(_, g)| g).unwrap_or(Value::Null);
            }
            dispatched
        });
        let (_, solver, request) = dispatched.expect("generated requests are valid");
        let ((response, warm, key), _) = t.span("session.solve", "", || {
            let mut builder = KeyBuilder::default();
            builder.write_str(solver.name());
            request.params.write_key(&mut builder);
            let key = builder.finish();
            if let Some((lo, hi)) = resident.warm_window(&key) {
                if let Some(result) = solver.run_warm(&request, lo, hi) {
                    return (result, true, key);
                }
            }
            (
                solver.run_budgeted(&request, &Budget::unlimited()),
                false,
                key,
            )
        });
        let response = response.expect("generated instances are feasible");
        t.count(|c| {
            c.solves += 1;
            c.warm_solves += u64::from(warm);
        });
        let ((rendered_value, rendered), _) = t.span("solvers.serialize", "", || {
            let rendered_value = solver.to_json(&response);
            let rendered = rendered_value.to_string();
            (rendered_value, rendered)
        });
        if let Some(bottleneck) = rendered_value["bottleneck"].as_u64() {
            resident.note_solve(&key, bottleneck);
        }
        self.last_solves
            .insert((id.to_string(), key), rendered.clone());
        let body = format!("{rendered}\n");
        self.respond(t, &body);
        body
    }
}

/// The span (and metric) name of a solve by objective.
fn solve_span(objective: &str) -> &'static str {
    match objective {
        "bandwidth" => "core.solve.bandwidth",
        "lexicographic" => "core.solve.lexicographic",
        "bottleneck" => "core.solve.bottleneck",
        "procmin" => "core.solve.procmin",
        "compose" => "core.solve.compose",
        "nicol" => "baselines.solve.nicol",
        _ => "solvers.solve.other",
    }
}

/// Times one request through `api::handle` (parse done beforehand,
/// untimed). Returns the response body and the handler time.
pub fn handle_timed(state: &AppState, raw: &[u8], max_body: usize) -> (String, Duration) {
    let request = read_request_spilling(&mut &raw[..], max_body, None)
        .expect("the generator's requests parse");
    let started = Instant::now();
    let response = handle(state, &request);
    let elapsed = started.elapsed();
    assert_eq!(
        response.status, 200,
        "in-process handle failed: {}",
        response.body
    );
    (response.body, elapsed)
}

/// Span name → per-layer metric name, in pipeline order. Every `_us`
/// metric is self time per replayed op.
pub const LAYERS: [(&str, &str); 21] = [
    ("net.frame", "net.frame_us"),
    ("service.http_parse", "service.http_parse_us"),
    ("graph.json_parse", "graph.json_parse_us"),
    ("solvers.ingest", "solvers.ingest_us"),
    ("solvers.dispatch", "solvers.dispatch_us"),
    ("solvers.key", "solvers.key_us"),
    ("service.cache_get", "service.cache_get_us"),
    ("session.edit_parse", "session.edit_parse_us"),
    ("session.apply", "session.apply_us"),
    ("session.lookup", "session.lookup_us"),
    ("session.solve", "session.solve_us"),
    ("core.solve.bandwidth", "core.solve_us.bandwidth"),
    ("core.solve.lexicographic", "core.solve_us.lexicographic"),
    ("core.solve.bottleneck", "core.solve_us.bottleneck"),
    ("core.solve.procmin", "core.solve_us.procmin"),
    ("core.solve.compose", "core.solve_us.compose"),
    ("baselines.solve.nicol", "baselines.solve_us.nicol"),
    ("solvers.serialize", "solvers.serialize_us"),
    ("service.cache_insert", "service.cache_insert_us"),
    ("service.http_render", "service.http_render_us"),
    ("service.teardown", "service.teardown_us"),
];

/// Layers outside `api::handle`: the transport's framing, the HTTP
/// parse, the response render and freeing the request.
const TRANSPORT: [&str; 4] = [
    "net.frame",
    "service.http_parse",
    "service.http_render",
    "service.teardown",
];

/// What a traced replay yields.
pub struct Traced {
    pub spans: Vec<Span>,
    pub counts: Counts,
}

impl Tracer {
    pub fn finish(self) -> Traced {
        Traced {
            spans: self.spans,
            counts: self.counts,
        }
    }
}

/// Per-layer aggregates derived from the spans.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// span name → (calls, self ns)
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// backing tag → (calls, ns) over flat chain solves.
    pub chain_backing: BTreeMap<&'static str, (u64, u64)>,
    /// Root self time: harness glue no layer span covers.
    pub glue_ns: u64,
    /// Sum of op durations minus the transport spans: what
    /// `api::handle` covers.
    pub handler_ns: u64,
    pub ops: u64,
}

impl Traced {
    pub fn table(&self) -> LayerTable {
        let mut table = LayerTable {
            ops: self.counts.ops,
            ..LayerTable::default()
        };
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        for (i, span) in self.spans.iter().enumerate() {
            let self_ns = span.dur_ns() - child_ns[i].min(span.dur_ns());
            if span.parent == ROOT {
                table.glue_ns += self_ns;
                table.handler_ns += span.dur_ns();
                continue;
            }
            if TRANSPORT.contains(&span.name) {
                table.handler_ns -= span.dur_ns().min(table.handler_ns);
            }
            let entry = table.layers.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += self_ns;
            if matches!(
                span.name,
                "core.solve.bandwidth" | "core.solve.lexicographic"
            ) && !span.tag.is_empty()
            {
                let entry = table.chain_backing.entry(span.tag).or_default();
                entry.0 += 1;
                entry.1 += span.dur_ns();
            }
        }
        table
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"tag\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.tag, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        std::fs::write(path, out)
    }
}

impl LayerTable {
    pub fn per_op_us(&self, span: &str) -> f64 {
        self.layers
            .get(span)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e3 / self.ops.max(1) as f64)
    }

    /// Summed layer self time per op, in µs (harness glue excluded).
    pub fn layer_sum_us(&self) -> f64 {
        self.layers.values().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Share of traced layer time spent in solve, ingest and parse.
    pub fn solve_ingest_parse_share(&self) -> f64 {
        let total: u64 = self.layers.values().map(|&(_, ns)| ns).sum();
        let heavy: u64 = self
            .layers
            .iter()
            .filter(|(name, _)| {
                name.contains(".solve")
                    || **name == "solvers.ingest"
                    || **name == "graph.json_parse"
            })
            .map(|(_, &(_, ns))| ns)
            .sum();
        heavy as f64 / total.max(1) as f64
    }

    /// The human-readable table.
    pub fn render(&self, title: &str) -> String {
        let total: u64 = self.layers.values().map(|&(_, ns)| ns).sum();
        let mut out = format!(
            "# {title}: traced replay, {} ops, self time per layer\n{:<28} {:>8} {:>12} {:>12} {:>8}\n",
            self.ops, "layer", "calls", "us/op", "us/call", "share"
        );
        for (name, &(calls, ns)) in &self.layers {
            writeln!(
                out,
                "{:<28} {:>8} {:>12.3} {:>12.3} {:>7.1}%",
                name,
                calls,
                ns as f64 / 1e3 / self.ops.max(1) as f64,
                ns as f64 / 1e3 / calls.max(1) as f64,
                100.0 * ns as f64 / total.max(1) as f64
            )
            .expect("write to String");
        }
        writeln!(
            out,
            "{:<28} {:>8} {:>12.3}\n# solve+ingest+parse share of layer time: {:.1}%",
            "(harness glue)",
            self.ops,
            self.glue_ns as f64 / 1e3 / self.ops.max(1) as f64,
            100.0 * self.solve_ingest_parse_share()
        )
        .expect("write to String");
        for (tag, &(calls, ns)) in &self.chain_backing {
            writeln!(
                out,
                "# flat chain solves on {tag}: {calls} calls, {:.1} us/call",
                ns as f64 / 1e3 / calls.max(1) as f64
            )
            .expect("write to String");
        }
        out
    }
}

/// `p·log q / n·log n` (the paper's Figure 2 ratio) for one chain
/// under `bound`.
pub fn plogq_over_nlogn(graph: &Graph, bound: u64) -> f64 {
    let path = tgp_graph::PathGraph::from_raw(&graph.node_w, &graph.edge_w)
        .expect("generated chains are valid");
    let (_, stats) = tgp_core::bandwidth::analyze_bandwidth(&path, tgp_graph::Weight::new(bound))
        .expect("generated instances are feasible");
    stats.p_log_q / stats.n_log_n
}
