//! Lock-free service metrics with Prometheus text rendering.
//!
//! Everything is `AtomicU64`, so the hot path (every request) costs a
//! handful of relaxed increments; rendering `/metrics` is the only place
//! the values are read coherently enough for scraping (Prometheus
//! tolerates the slight skew between counters read at different
//! instants).
//!
//! Latency accounting uses the log-linear [`tgp_obs::Histogram`]
//! (bounded memory, lock-free recording, exact nanosecond sums): one
//! per request, one per objective, one per pipeline [`Stage`]. The
//! exposition renders each at the fixed [`LATENCY_BUCKETS_US`] bounds
//! via [`Histogram::cumulative_le`], so scrapes keep the same
//! `le=` label values they always had while quantile math happens at
//! full log-linear resolution internally. Samples are bucketed at
//! 12.5% resolution, so a sample just above a fixed bound can land in
//! a log-linear bucket whose upper edge is below it (e.g. 100 µs
//! exactly counts toward `le="0.0001"` only if its 12.5%-wide bucket
//! ends at or under 100 µs); `_sum`/`_count` stay exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tgp_net::{NetCounters, TimeoutKind};
use tgp_obs::{Histogram, Stage};
use tgp_solvers::Registry;

/// Upper bounds (in microseconds) of the rendered latency histogram
/// buckets; the final `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000,
];

/// The endpoints tracked individually; everything else lands in `other`.
const ENDPOINTS: [&str; 7] = [
    "partition",
    "simulate",
    "graphs",
    "healthz",
    "metrics",
    "debug",
    "other",
];

/// The status classes tracked per endpoint. Unknown statuses fold into
/// the last entry, so 500 must stay last.
const STATUSES: [u16; 10] = [200, 400, 404, 405, 409, 413, 422, 503, 504, 500];

/// Label values of the `tgp_deadline_drops_total{where=...}` family:
/// where in the pipeline a request (or batch item) was dropped because
/// its deadline expired or its remaining time was shed.
pub const DEADLINE_DROP_SITES: [&str; 5] = ["admission", "queue", "parse", "solve", "batch"];

/// Label values of the `tgp_store_backing{kind=...}` family: which
/// memory backing a flat-ingested graph landed on.
pub const STORE_BACKINGS: [&str; 2] = ["ram", "disk"];

/// Per-objective counters, indexed by the solver's registry index so the
/// hot path never touches the objective name.
#[derive(Debug, Default)]
struct ObjectiveStats {
    /// Requests dispatched to this objective (successes and failures).
    requests: AtomicU64,
    /// Requests that ended in an error after the objective was resolved
    /// (parse rejections, infeasible instances, cost-cap refusals).
    errors: AtomicU64,
    /// Handling-latency histogram (nanosecond samples).
    latency: Histogram,
}

/// Central metrics registry shared by acceptor, workers and scrapers.
#[derive(Debug)]
pub struct Metrics {
    /// `requests[endpoint][status]` counts completed exchanges.
    requests: [[AtomicU64; STATUSES.len()]; ENDPOINTS.len()],
    /// Per-objective traffic, parallel to `objective_names`.
    objectives: Vec<ObjectiveStats>,
    /// Solver names in registry order — the label values for
    /// `tgp_objective_*` series.
    objective_names: &'static [&'static str],
    /// 503s written by the acceptor when the queue was full.
    rejected_overload: AtomicU64,
    /// Batch envelopes served by `/v1/partition`.
    batch_requests: AtomicU64,
    /// Batch items executed by pool workers via scatter/gather.
    batch_subtasks_pool: AtomicU64,
    /// Batch items executed inline by the coordinating worker (pool
    /// saturated, stolen back, or the batch was too small to scatter).
    batch_subtasks_inline: AtomicU64,
    /// Request handling latency (nanosecond samples).
    latency: Histogram,
    /// Per-pipeline-stage latency, indexed by [`Stage::index`].
    stages: [Histogram; Stage::ALL.len()],
    /// Result-cache traffic.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Requests currently waiting in the bounded queue.
    queue_depth: AtomicU64,
    /// Worker threads currently handling a request.
    busy_workers: AtomicU64,
    /// Requests shed by the cost-based admission guard (503 with code
    /// `shed_expensive`).
    shed_by_cost: AtomicU64,
    /// Deadline-driven drops, indexed like [`DEADLINE_DROP_SITES`].
    deadline_drops: [AtomicU64; DEADLINE_DROP_SITES.len()],
    /// Heap bytes currently pinned by flat graph arrays (gauge;
    /// disk-backed graphs pin none — their pages live in the page
    /// cache).
    graph_resident_bytes: AtomicU64,
    /// Graphs ingested into disk-backed arrays because their body
    /// crossed the `--graph-spill-bytes` threshold.
    graph_spilled: AtomicU64,
    /// Flat-ingested graphs by backing, indexed like [`STORE_BACKINGS`].
    store_backing: [AtomicU64; STORE_BACKINGS.len()],
    /// Connection-layer counters, one set per event loop (a single-loop
    /// server has exactly one). `/metrics` renders the
    /// *sum* for the unlabeled totals — summing at render time means a
    /// loop that is torn down (its gauge already decremented by its own
    /// force-close path) can never double-count — plus per-loop
    /// `loop="i"` series when more than one loop runs.
    nets: Vec<Arc<NetCounters>>,
}

impl Default for Metrics {
    fn default() -> Self {
        let objective_names = Registry::shared().names();
        Metrics {
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            objectives: objective_names
                .iter()
                .map(|_| ObjectiveStats::default())
                .collect(),
            objective_names,
            rejected_overload: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            batch_subtasks_pool: AtomicU64::new(0),
            batch_subtasks_inline: AtomicU64::new(0),
            latency: Histogram::new(),
            stages: std::array::from_fn(|_| Histogram::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
            shed_by_cost: AtomicU64::new(0),
            deadline_drops: std::array::from_fn(|_| AtomicU64::new(0)),
            graph_resident_bytes: AtomicU64::new(0),
            graph_spilled: AtomicU64::new(0),
            store_backing: std::array::from_fn(|_| AtomicU64::new(0)),
            nets: vec![Arc::new(NetCounters::default())],
        }
    }
}

fn endpoint_index(endpoint: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|e| *e == endpoint)
        .unwrap_or(ENDPOINTS.len() - 1)
}

fn status_index(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|s| *s == status)
        .unwrap_or(STATUSES.len() - 1)
}

/// Saturating gauge adjustment: a decrement can never wrap below zero,
/// so a scrape during an increment/decrement race reads 0 rather than
/// `u64::MAX`.
fn adjust_gauge(gauge: &AtomicU64, delta: i64) {
    if delta >= 0 {
        gauge.fetch_add(delta as u64, Ordering::Relaxed);
    } else {
        let d = delta.unsigned_abs();
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(d))
        });
    }
}

/// Renders one histogram as cumulative `_bucket`/`_sum`/`_count`
/// series at the fixed [`LATENCY_BUCKETS_US`] bounds. `labels` is
/// either empty or `name="value",` pairs with a trailing comma, so the
/// `le` label composes behind it.
fn render_histogram(out: &mut String, name: &str, labels: &str, hist: &Histogram) {
    for bound_us in LATENCY_BUCKETS_US {
        out.push_str(&format!(
            "{name}_bucket{{{labels}le=\"{}\"}} {}\n",
            bound_us as f64 / 1e6,
            hist.cumulative_le(bound_us * 1_000)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels}le=\"+Inf\"}} {}\n",
        hist.count()
    ));
    let plain = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels.trim_end_matches(','))
    };
    out.push_str(&format!("{name}_sum{plain} {}\n", hist.sum() as f64 / 1e9));
    out.push_str(&format!("{name}_count{plain} {}\n", hist.count()));
}

impl Metrics {
    /// Records one completed request.
    pub fn record_request(&self, endpoint: &str, status: u16, latency: Duration) {
        self.requests[endpoint_index(endpoint)][status_index(status)]
            .fetch_add(1, Ordering::Relaxed);
        self.latency.record_duration(latency);
    }

    /// Records the duration of one pipeline stage of one request.
    pub fn record_stage(&self, stage: Stage, latency: Duration) {
        self.stages[stage.index()].record_duration(latency);
    }

    /// Records one partition request against the objective at the given
    /// registry index ([`tgp_solvers::Registry::get`] returns it next to
    /// the solver). Out-of-range indexes are ignored rather than panic:
    /// metrics must never take a worker down.
    pub fn record_objective(&self, index: usize, ok: bool, latency: Duration) {
        let Some(stats) = self.objectives.get(index) else {
            return;
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        stats.latency.record_duration(latency);
    }

    /// Records a connection refused with the canned 503.
    pub fn record_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch envelope served by `/v1/partition`.
    pub fn record_batch(&self) {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch item, labelled by where it ran: `pool` when a
    /// fanned-out worker executed it, `inline` when the coordinating
    /// worker ran it itself.
    pub fn record_batch_subtask(&self, pool: bool) {
        if pool {
            self.batch_subtasks_pool.fetch_add(1, Ordering::Relaxed);
        } else {
            self.batch_subtasks_inline.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a cache lookup outcome.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adjusts the queued-connection gauge.
    pub fn queue_changed(&self, delta: i64) {
        adjust_gauge(&self.queue_depth, delta);
    }

    /// Adjusts the busy-worker gauge.
    pub fn workers_changed(&self, delta: i64) {
        adjust_gauge(&self.busy_workers, delta);
    }

    /// Records one request shed by the cost-based admission guard.
    pub fn record_shed_by_cost(&self) {
        self.shed_by_cost.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one deadline-driven drop at the named pipeline site
    /// (one of [`DEADLINE_DROP_SITES`]; unknown names are ignored).
    pub fn record_deadline_drop(&self, site: &str) {
        if let Some(i) = DEADLINE_DROP_SITES.iter().position(|s| *s == site) {
            self.deadline_drops[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total deadline-driven drops across every site.
    pub fn deadline_drops(&self) -> u64 {
        self.deadline_drops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Adjusts the resident-flat-graph-bytes gauge: `+bytes` when a
    /// flat graph is built, `-bytes` when it is dropped.
    pub fn graph_resident_changed(&self, delta: i64) {
        adjust_gauge(&self.graph_resident_bytes, delta);
    }

    /// Records one graph the streaming ingest or a session re-solve
    /// placed on the named backing (`ram` or `disk`; unknown names are
    /// ignored). Disk placements also advance the spill counter.
    pub fn record_store_backing(&self, kind: &str) {
        if let Some(i) = STORE_BACKINGS.iter().position(|k| *k == kind) {
            self.store_backing[i].fetch_add(1, Ordering::Relaxed);
        }
        if kind == "disk" {
            self.graph_spilled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total graphs spilled to disk so far (used by tests).
    pub fn graphs_spilled(&self) -> u64 {
        self.graph_spilled.load(Ordering::Relaxed)
    }

    /// The connection-layer counters of loop 0. The event loop
    /// increments them (open connections, backpressure, timeouts and
    /// wakeups) and `/metrics` renders them.
    /// Multi-loop servers address their other loops via
    /// [`Metrics::net_for`].
    pub fn net(&self) -> &Arc<NetCounters> {
        &self.nets[0]
    }

    /// The connection-layer counters of event loop `i` (`None` beyond
    /// the configured loop count).
    pub fn net_for(&self, i: usize) -> Option<&Arc<NetCounters>> {
        self.nets.get(i)
    }

    /// Grows the per-loop counter list to `loops` entries. Called once
    /// at server wiring time, before the metrics are shared; existing
    /// entries (and anything recorded on them) are kept.
    pub fn set_net_loops(&mut self, loops: usize) {
        while self.nets.len() < loops.max(1) {
            self.nets.push(Arc::new(NetCounters::default()));
        }
    }

    /// How many event loops the connection-layer series cover.
    pub fn net_loops(&self) -> usize {
        self.nets.len()
    }

    /// Sums one counter across every loop's [`NetCounters`].
    fn net_sum(&self, field: impl Fn(&NetCounters) -> &AtomicU64) -> u64 {
        self.nets
            .iter()
            .map(|net| field(net).load(Ordering::Relaxed))
            .sum()
    }

    /// Total cache hits so far (used by tests asserting hit behaviour).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str(
            "# HELP tgp_requests_total Completed HTTP exchanges by endpoint and status.\n",
        );
        out.push_str("# TYPE tgp_requests_total counter\n");
        for (ei, endpoint) in ENDPOINTS.iter().enumerate() {
            for (si, status) in STATUSES.iter().enumerate() {
                let n = self.requests[ei][si].load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "tgp_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}\n"
                    ));
                }
            }
        }

        out.push_str(
            "# HELP tgp_objective_requests_total Partition requests by objective (all outcomes).\n",
        );
        out.push_str("# TYPE tgp_objective_requests_total counter\n");
        out.push_str("# HELP tgp_objective_errors_total Partition requests by objective that ended in an error.\n");
        out.push_str("# TYPE tgp_objective_errors_total counter\n");
        out.push_str(
            "# HELP tgp_objective_latency_seconds Partition handling latency by objective.\n",
        );
        out.push_str("# TYPE tgp_objective_latency_seconds histogram\n");
        for (name, stats) in self.objective_names.iter().zip(&self.objectives) {
            let requests = stats.requests.load(Ordering::Relaxed);
            if requests == 0 {
                continue; // keep the exposition small until an objective sees traffic
            }
            let errors = stats.errors.load(Ordering::Relaxed);
            out.push_str(&format!(
                "tgp_objective_requests_total{{objective=\"{name}\"}} {requests}\n"
            ));
            out.push_str(&format!(
                "tgp_objective_errors_total{{objective=\"{name}\"}} {errors}\n"
            ));
            render_histogram(
                &mut out,
                "tgp_objective_latency_seconds",
                &format!("objective=\"{name}\","),
                &stats.latency,
            );
        }

        out.push_str("# HELP tgp_rejected_overload_total Connections refused with 503 because the queue was full.\n");
        out.push_str("# TYPE tgp_rejected_overload_total counter\n");
        out.push_str(&format!(
            "tgp_rejected_overload_total {}\n",
            self.rejected_overload.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP tgp_batch_requests_total Batch envelopes served by /v1/partition.\n");
        out.push_str("# TYPE tgp_batch_requests_total counter\n");
        out.push_str(&format!(
            "tgp_batch_requests_total {}\n",
            self.batch_requests.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP tgp_batch_subtasks_total Batch items by execution path.\n");
        out.push_str("# TYPE tgp_batch_subtasks_total counter\n");
        out.push_str(&format!(
            "tgp_batch_subtasks_total{{path=\"pool\"}} {}\n",
            self.batch_subtasks_pool.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "tgp_batch_subtasks_total{{path=\"inline\"}} {}\n",
            self.batch_subtasks_inline.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP tgp_request_latency_seconds Request handling latency.\n");
        out.push_str("# TYPE tgp_request_latency_seconds histogram\n");
        render_histogram(&mut out, "tgp_request_latency_seconds", "", &self.latency);

        out.push_str(
            "# HELP tgp_stage_latency_seconds Per-request pipeline stage latency (queue wait, parse, cache lookup, solve, serialize, socket write).\n",
        );
        out.push_str("# TYPE tgp_stage_latency_seconds histogram\n");
        for stage in Stage::ALL {
            render_histogram(
                &mut out,
                "tgp_stage_latency_seconds",
                &format!("stage=\"{}\",", stage.as_str()),
                &self.stages[stage.index()],
            );
        }

        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        out.push_str("# HELP tgp_cache_hits_total Result-cache hits.\n");
        out.push_str("# TYPE tgp_cache_hits_total counter\n");
        out.push_str(&format!("tgp_cache_hits_total {hits}\n"));
        out.push_str("# HELP tgp_cache_misses_total Result-cache misses.\n");
        out.push_str("# TYPE tgp_cache_misses_total counter\n");
        out.push_str(&format!("tgp_cache_misses_total {misses}\n"));
        out.push_str("# HELP tgp_cache_hit_ratio Hits over lookups since start.\n");
        out.push_str("# TYPE tgp_cache_hit_ratio gauge\n");
        let ratio = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        out.push_str(&format!("tgp_cache_hit_ratio {ratio}\n"));

        out.push_str("# HELP tgp_queue_depth Connections waiting for a worker.\n");
        out.push_str("# TYPE tgp_queue_depth gauge\n");
        out.push_str(&format!(
            "tgp_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP tgp_busy_workers Workers currently serving a connection.\n");
        out.push_str("# TYPE tgp_busy_workers gauge\n");
        out.push_str(&format!(
            "tgp_busy_workers {}\n",
            self.busy_workers.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP tgp_shed_by_cost_total Requests shed by the cost-based admission guard.\n",
        );
        out.push_str("# TYPE tgp_shed_by_cost_total counter\n");
        out.push_str(&format!(
            "tgp_shed_by_cost_total {}\n",
            self.shed_by_cost.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP tgp_deadline_drops_total Work dropped because its deadline expired, by pipeline site.\n",
        );
        out.push_str("# TYPE tgp_deadline_drops_total counter\n");
        for (i, site) in DEADLINE_DROP_SITES.iter().enumerate() {
            out.push_str(&format!(
                "tgp_deadline_drops_total{{where=\"{}\"}} {}\n",
                site,
                self.deadline_drops[i].load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP tgp_graph_resident_bytes Heap bytes pinned by resident flat graph arrays (disk-backed graphs pin none).\n",
        );
        out.push_str("# TYPE tgp_graph_resident_bytes gauge\n");
        out.push_str(&format!(
            "tgp_graph_resident_bytes {}\n",
            self.graph_resident_bytes.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP tgp_graph_spilled_total Graphs placed in disk-backed (mmap) arrays because they crossed the spill threshold.\n",
        );
        out.push_str("# TYPE tgp_graph_spilled_total counter\n");
        out.push_str(&format!(
            "tgp_graph_spilled_total {}\n",
            self.graph_spilled.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP tgp_store_backing Graphs the streaming ingest or a session re-solve placed in flat arrays, by memory backing.\n",
        );
        out.push_str("# TYPE tgp_store_backing counter\n");
        for (i, kind) in STORE_BACKINGS.iter().enumerate() {
            out.push_str(&format!(
                "tgp_store_backing{{kind=\"{}\"}} {}\n",
                kind,
                self.store_backing[i].load(Ordering::Relaxed)
            ));
        }

        // Connection-level series: the unlabeled line is always the sum
        // over loops (so totals survive loop teardown without
        // double-counting — each loop only ever touches its own
        // counters), and a multi-loop server additionally renders one
        // `loop="i"`-labeled line per loop.
        let multi = self.nets.len() > 1;
        let net_family = |out: &mut String,
                          name: &str,
                          help: &str,
                          kind: &str,
                          field: &dyn Fn(&NetCounters) -> &AtomicU64| {
            out.push_str(&format!("# HELP {name} {help}\n"));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            out.push_str(&format!("{name} {}\n", self.net_sum(field)));
            if multi {
                for (i, net) in self.nets.iter().enumerate() {
                    out.push_str(&format!(
                        "{name}{{loop=\"{i}\"}} {}\n",
                        field(net).load(Ordering::Relaxed)
                    ));
                }
            }
        };
        net_family(
            &mut out,
            "tgp_open_connections",
            "Currently open client connections.",
            "gauge",
            &|net| &net.open_connections,
        );
        net_family(
            &mut out,
            "tgp_accepted_connections_total",
            "Connections accepted since start.",
            "counter",
            &|net| &net.accepted_total,
        );
        net_family(
            &mut out,
            "tgp_accept_backpressure_total",
            "Times accepting paused because the connection cap was reached.",
            "counter",
            &|net| &net.accept_backpressure,
        );
        out.push_str("# HELP tgp_timeout_closes_total Connections closed by a timeout, by kind.\n");
        out.push_str("# TYPE tgp_timeout_closes_total counter\n");
        for kind in [TimeoutKind::Read, TimeoutKind::Write, TimeoutKind::Idle] {
            out.push_str(&format!(
                "tgp_timeout_closes_total{{kind=\"{}\"}} {}\n",
                kind.as_str(),
                self.net_sum(|net| net.timeout_closes(kind))
            ));
        }
        net_family(
            &mut out,
            "tgp_readiness_wakeups_total",
            "epoll_wait returns that delivered events.",
            "counter",
            &|net| &net.readiness_wakeups,
        );

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_render() {
        let m = Metrics::default();
        m.record_request("partition", 200, Duration::from_micros(300));
        m.record_request("partition", 200, Duration::from_micros(40));
        m.record_request("simulate", 422, Duration::from_millis(2));
        m.record_overload();
        m.record_cache(true);
        m.record_cache(false);
        m.queue_changed(3);
        m.queue_changed(-1);
        m.record_batch();
        m.record_batch_subtask(true);
        m.record_batch_subtask(true);
        m.record_batch_subtask(false);
        let text = m.render();
        assert!(text.contains("tgp_requests_total{endpoint=\"partition\",status=\"200\"} 2"));
        assert!(text.contains("tgp_batch_requests_total 1"));
        assert!(text.contains("tgp_batch_subtasks_total{path=\"pool\"} 2"));
        assert!(text.contains("tgp_batch_subtasks_total{path=\"inline\"} 1"));
        assert!(text.contains("tgp_requests_total{endpoint=\"simulate\",status=\"422\"} 1"));
        assert!(text.contains("tgp_rejected_overload_total 1"));
        assert!(text.contains("tgp_cache_hits_total 1"));
        assert!(text.contains("tgp_cache_misses_total 1"));
        assert!(text.contains("tgp_cache_hit_ratio 0.5"));
        assert!(text.contains("tgp_queue_depth 2"));
        assert!(text.contains("tgp_request_latency_seconds_count 3"));
    }

    #[test]
    fn objective_series_appear_only_with_traffic() {
        let m = Metrics::default();
        let (bandwidth, _) = Registry::shared().get("bandwidth").unwrap();
        let quiet = m.render();
        assert!(!quiet.contains("tgp_objective_requests_total{"));

        m.record_objective(bandwidth, true, Duration::from_micros(500));
        m.record_objective(bandwidth, false, Duration::from_micros(100));
        m.record_objective(usize::MAX, true, Duration::ZERO); // ignored, not a panic
        let text = m.render();
        assert!(text.contains("tgp_objective_requests_total{objective=\"bandwidth\"} 2"));
        assert!(text.contains("tgp_objective_errors_total{objective=\"bandwidth\"} 1"));
        assert!(text.contains("tgp_objective_latency_seconds_sum{objective=\"bandwidth\"} 0.0006"));
        assert!(text.contains("tgp_objective_latency_seconds_count{objective=\"bandwidth\"} 2"));
        // No traffic on the other objectives → no series for them.
        assert!(!text.contains("objective=\"procmin\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.record_request("healthz", 200, Duration::from_micros(50));
        m.record_request("healthz", 200, Duration::from_micros(200));
        m.record_request("healthz", 200, Duration::from_secs(10)); // +Inf
        let text = m.render();
        assert!(text.contains("tgp_request_latency_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("tgp_request_latency_seconds_bucket{le=\"0.00025\"} 2"));
        assert!(text.contains("tgp_request_latency_seconds_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn stage_histograms_render_for_all_stages() {
        let m = Metrics::default();
        m.record_stage(Stage::Solve, Duration::from_micros(80));
        m.record_stage(Stage::Solve, Duration::from_micros(400));
        m.record_stage(Stage::Write, Duration::from_micros(30));
        let text = m.render();
        // Recorded stages carry their samples in cumulative buckets...
        assert!(
            text.contains("tgp_stage_latency_seconds_bucket{stage=\"solve\",le=\"0.0001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tgp_stage_latency_seconds_bucket{stage=\"solve\",le=\"0.0005\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("tgp_stage_latency_seconds_count{stage=\"solve\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("tgp_stage_latency_seconds_count{stage=\"write\"} 1"),
            "{text}"
        );
        // ...and every stage renders unconditionally, so dashboards can
        // rely on the full label set from the first scrape.
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!(
                    "tgp_stage_latency_seconds_count{{stage=\"{}\"}}",
                    stage.as_str()
                )),
                "{stage:?} series missing"
            );
        }
    }

    #[test]
    fn net_and_shed_series_render() {
        let m = Metrics::default();
        m.record_shed_by_cost();
        m.net().open_connections.fetch_add(3, Ordering::Relaxed);
        m.net()
            .timeout_closes(TimeoutKind::Read)
            .fetch_add(2, Ordering::Relaxed);
        m.net().accept_backpressure.fetch_add(1, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("tgp_shed_by_cost_total 1"), "{text}");
        assert!(text.contains("tgp_open_connections 3"), "{text}");
        assert!(
            text.contains("tgp_timeout_closes_total{kind=\"read\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("tgp_timeout_closes_total{kind=\"write\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("tgp_timeout_closes_total{kind=\"idle\"} 0"),
            "{text}"
        );
        assert!(text.contains("tgp_accept_backpressure_total 1"), "{text}");
        assert!(text.contains("tgp_readiness_wakeups_total 0"), "{text}");
    }

    #[test]
    fn net_series_sum_across_two_loops_with_per_loop_labels() {
        let mut m = Metrics::default();
        m.set_net_loops(2);
        let loop0 = Arc::clone(m.net_for(0).unwrap());
        let loop1 = Arc::clone(m.net_for(1).unwrap());
        loop0.open_connections.fetch_add(3, Ordering::Relaxed);
        loop1.open_connections.fetch_add(5, Ordering::Relaxed);
        loop0.accepted_total.fetch_add(7, Ordering::Relaxed);
        loop1.accepted_total.fetch_add(2, Ordering::Relaxed);
        loop0.accept_backpressure.fetch_add(1, Ordering::Relaxed);
        loop1.accept_backpressure.fetch_add(4, Ordering::Relaxed);
        loop0
            .timeout_closes(TimeoutKind::Write)
            .fetch_add(2, Ordering::Relaxed);
        loop1
            .timeout_closes(TimeoutKind::Write)
            .fetch_add(1, Ordering::Relaxed);

        let text = m.render();
        // The unlabeled line is the sum over loops...
        assert!(text.contains("tgp_open_connections 8\n"), "{text}");
        assert!(
            text.contains("tgp_accepted_connections_total 9\n"),
            "{text}"
        );
        assert!(text.contains("tgp_accept_backpressure_total 5\n"), "{text}");
        assert!(
            text.contains("tgp_timeout_closes_total{kind=\"write\"} 3"),
            "{text}"
        );
        // ...and every loop renders its own labeled series.
        assert!(
            text.contains("tgp_open_connections{loop=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("tgp_open_connections{loop=\"1\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("tgp_accepted_connections_total{loop=\"0\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("tgp_accepted_connections_total{loop=\"1\"} 2"),
            "{text}"
        );

        // Loop teardown: the dying loop's own close path decrements its
        // gauge; because the total is a render-time sum (never copied
        // into a global), the aggregate drops by exactly that amount.
        loop1.open_connections.fetch_sub(5, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("tgp_open_connections 3\n"), "{text}");
        assert!(
            text.contains("tgp_open_connections{loop=\"1\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn single_loop_renders_no_loop_labels() {
        let m = Metrics::default();
        m.net().accepted_total.fetch_add(2, Ordering::Relaxed);
        let text = m.render();
        assert!(
            text.contains("tgp_accepted_connections_total 2\n"),
            "{text}"
        );
        assert!(!text.contains("loop=\""), "{text}");
    }

    #[test]
    fn deadline_drop_series_render_all_sites() {
        let m = Metrics::default();
        m.record_deadline_drop("queue");
        m.record_deadline_drop("solve");
        m.record_deadline_drop("solve");
        m.record_deadline_drop("no-such-site"); // ignored
        let text = m.render();
        assert!(
            text.contains("tgp_deadline_drops_total{where=\"queue\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tgp_deadline_drops_total{where=\"solve\"} 2"),
            "{text}"
        );
        // Zero-count sites still render, so dashboards and the CI smoke
        // can rely on the full label set from the first scrape.
        assert!(
            text.contains("tgp_deadline_drops_total{where=\"admission\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("tgp_deadline_drops_total{where=\"batch\"} 0"),
            "{text}"
        );
        assert_eq!(m.deadline_drops(), 3);
    }

    #[test]
    fn store_series_render_and_track_backings() {
        let m = Metrics::default();
        // Zero-valued series render from the first scrape.
        let quiet = m.render();
        assert!(quiet.contains("tgp_graph_resident_bytes 0"), "{quiet}");
        assert!(quiet.contains("tgp_graph_spilled_total 0"), "{quiet}");
        assert!(
            quiet.contains("tgp_store_backing{kind=\"ram\"} 0"),
            "{quiet}"
        );
        assert!(
            quiet.contains("tgp_store_backing{kind=\"disk\"} 0"),
            "{quiet}"
        );

        m.record_store_backing("ram");
        m.record_store_backing("ram");
        m.record_store_backing("disk");
        m.record_store_backing("floppy"); // ignored, not a panic
        m.graph_resident_changed(4096);
        m.graph_resident_changed(-1024);
        let text = m.render();
        assert!(text.contains("tgp_graph_resident_bytes 3072"), "{text}");
        assert!(text.contains("tgp_graph_spilled_total 1"), "{text}");
        assert!(text.contains("tgp_store_backing{kind=\"ram\"} 2"), "{text}");
        assert!(
            text.contains("tgp_store_backing{kind=\"disk\"} 1"),
            "{text}"
        );
        assert_eq!(m.graphs_spilled(), 1);
        // The gauge never wraps below zero.
        m.graph_resident_changed(-1_000_000);
        assert!(m.render().contains("tgp_graph_resident_bytes 0"));
    }

    #[test]
    fn status_503_has_its_own_series_and_500_stays_catchall() {
        let m = Metrics::default();
        m.record_request("partition", 503, Duration::ZERO);
        m.record_request("partition", 501, Duration::ZERO); // unknown → folds to 500
        let text = m.render();
        assert!(text.contains("tgp_requests_total{endpoint=\"partition\",status=\"503\"} 1"));
        assert!(text.contains("tgp_requests_total{endpoint=\"partition\",status=\"500\"} 1"));
    }

    #[test]
    fn session_endpoint_and_conflict_status_have_their_own_series() {
        let m = Metrics::default();
        m.record_request("graphs", 200, Duration::from_micros(10));
        m.record_request("graphs", 409, Duration::from_micros(10));
        let text = m.render();
        assert!(text.contains("tgp_requests_total{endpoint=\"graphs\",status=\"200\"} 1"));
        assert!(text.contains("tgp_requests_total{endpoint=\"graphs\",status=\"409\"} 1"));
    }

    #[test]
    fn unknown_endpoint_and_status_fold_into_catchall() {
        let m = Metrics::default();
        m.record_request("mystery", 501, Duration::from_micros(10));
        let text = m.render();
        assert!(text.contains("tgp_requests_total{endpoint=\"other\",status=\"500\"} 1"));
    }
}
