//! The concrete solver implementations behind every registered
//! objective.
//!
//! Each solver declares its schema (graph kind + parameters) and writes
//! its response as compact JSON text with `tgp_graph::json::Writer`, in
//! a fixed field order, so the body is byte-stable across front ends.
//! Response shapes are the ones the CLI has always produced; the
//! registry made them the single source of truth.
//!
//! Every chain and tree objective — all but `approx`, which takes a
//! general process graph — has one solve body, generic over the graph
//! views and expanded per backing by `on_chain!`/`on_tree!`.

use tgp_baselines::bokhari::{bokhari_partition, CocResult};
use tgp_baselines::hansen_lih::hansen_lih_partition;
use tgp_baselines::hetero::{hetero_partition, HeteroArray};
use tgp_baselines::host_satellite::host_satellite_partition;
use tgp_baselines::nicol::nicol_bandwidth_cut;
use tgp_core::approx::{partition_process_graph_best, ApproxMethod};
use tgp_core::bandwidth::min_bandwidth_cut_lexicographic;
use tgp_core::bottleneck::min_bottleneck_cut;
use tgp_core::budget::Budget;
use tgp_core::pipeline::{partition_chain, partition_tree};
use tgp_core::procmin::proc_min;
use tgp_core::tree_bandwidth::min_tree_bandwidth_cut;
use tgp_graph::json::Writer;
use tgp_graph::{ChainView, EdgeId, NodeId, TreeView, Weight};

use crate::error::SolveError;
use crate::flat::{on_chain, on_tree};
use crate::registry::Solver;
use crate::request::{GraphKind, ParamKind, ParamSpec, Request, Response};

/// Work cap for the pseudo-polynomial `tree-bandwidth` DP: the solve
/// runs in `O(n·K²)` time, so `n·K²` is refused beyond this budget —
/// a handful of JSON bytes must not be able to pin a worker for minutes.
pub const MAX_TREE_BANDWIDTH_COST: u64 = 1 << 32;

/// Largest accepted `speeds` array for `hetero`: the DP sizes its tables
/// by processor count, which a client controls with a few bytes.
pub const MAX_SPEEDS: usize = 4_096;

/// Every objective in the workspace, in the order they are registered
/// (and therefore listed in docs, usage and `/metrics`).
pub(crate) fn all() -> [&'static dyn Solver; 13] {
    [
        &Bandwidth,
        &Bottleneck,
        &ProcMin,
        &Compose,
        &Lexicographic,
        &TreeBandwidth,
        &Approx,
        &Nicol,
        &Coc,
        &Bokhari,
        &HansenLih,
        &Hetero,
        &HostSatellite,
    ]
}

const BOUND_ONLY: &[ParamSpec] = &[ParamSpec::required("bound", ParamKind::U64)];
const PROCESSORS_ONLY: &[ParamSpec] = &[ParamSpec::required("processors", ParamKind::U64)];
const COC_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("processors", ParamKind::U64),
    ParamSpec::optional("algorithm", ParamKind::Str),
];
const HETERO_PARAMS: &[ParamSpec] = &[ParamSpec::required("speeds", ParamKind::U64List)];
const HOST_SATELLITE_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("satellites", ParamKind::U64),
    ParamSpec::optional("root", ParamKind::U64),
];

/// A response writer with its object open and `"objective"` written,
/// with room for `bytes` more bytes of fields.
fn response(objective: &'static str, bytes: usize) -> Writer {
    let mut w = Writer::with_capacity(96 + bytes);
    w.begin_object().key("objective").str(objective);
    w
}

/// Closes the object `w` holds: the response.
fn finish(mut w: Writer) -> Response {
    w.end_object();
    Response::new(w.finish())
}

/// Room for `count` edge ids or indices in a response: up to seven
/// digits and a comma each.
fn ids_bytes(count: usize) -> usize {
    8 * count
}

/// An edge id as written in a response.
fn id(edge: EdgeId) -> u64 {
    edge.index() as u64
}

/// Indices (boundaries, part labels) as written in a response.
fn indices(values: &[usize]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|&v| v as u64)
}

fn bound_of(request: &Request) -> Weight {
    Weight::new(request.params.bound.expect("declared required parameter"))
}

fn usize_param(value: u64, field: &'static str) -> Result<usize, SolveError> {
    usize::try_from(value).map_err(|_| SolveError::InvalidField {
        field: field.into(),
        message: format!("{value} does not fit the platform's address space"),
    })
}

/// The declared `processors` parameter of a chains-on-chains objective.
fn processors_of(request: &Request) -> Result<usize, SolveError> {
    let m = request
        .params
        .processors
        .expect("declared required parameter");
    usize_param(m, "processors")
}

/// The response of a chains-on-chains solver run directly (`bokhari`,
/// `hansen-lih`).
fn chains_on_chains(objective: &'static str, m: usize, result: &CocResult) -> Response {
    let boundaries = result.assignment.boundaries();
    let mut w = response(objective, ids_bytes(boundaries.len()));
    w.key("processors").u64(m as u64);
    w.key("boundaries").u64s(indices(boundaries));
    w.key("bottleneck").u64(result.bottleneck.get());
    finish(w)
}

/// `bandwidth` — the paper's headline `O(n + p log q)` chain solver.
struct Bandwidth;

impl Solver for Bandwidth {
    fn name(&self) -> &'static str {
        "bandwidth"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "minimum-bandwidth chain partition under a load bound (§2.3, O(n + p log q))"
    }
    fn solve(&self, request: &Request, budget: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        let part = on_chain!(&request.graph, |c| partition_chain(c, bound, budget))
            .map_err(SolveError::from_partition)?;
        // A segment object is 30 bytes of keys and punctuation plus
        // three numbers.
        let bytes = ids_bytes(part.cut.len()) + 56 * part.segments.len();
        let mut w = response(self.name(), bytes);
        w.key("bound").u64(bound.get());
        w.key("cut").u64s(part.cut.iter().map(id));
        w.key("segments").begin_array();
        for s in &part.segments {
            w.begin_object()
                .key("start")
                .u64(s.start as u64)
                .key("end")
                .u64(s.end as u64)
                .key("weight")
                .u64(s.weight.get())
                .end_object();
        }
        w.end_array();
        w.key("processors").u64(part.processors as u64);
        w.key("bandwidth").u64(part.bandwidth.get());
        w.key("bottleneck").u64(part.bottleneck.get());
        Ok(finish(w))
    }
}

/// `bottleneck` — Algorithm 2.1 on trees.
struct Bottleneck;

impl Solver for Bottleneck {
    fn name(&self) -> &'static str {
        "bottleneck"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Tree
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "minimum-bottleneck tree cut under a load bound (Algorithm 2.1)"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        let r = on_tree!(&request.graph, |t| min_bottleneck_cut(t, bound))
            .map_err(SolveError::infeasible)?;
        let mut w = response(self.name(), ids_bytes(r.cut.len()));
        w.key("bound").u64(bound.get());
        w.key("cut").u64s(r.cut.iter().map(id));
        w.key("bottleneck").u64(r.bottleneck.get());
        // Cutting k edges of a tree always leaves k + 1 components.
        w.key("components").u64(r.cut.len() as u64 + 1);
        Ok(finish(w))
    }
}

/// `procmin` — Algorithm 2.2 on trees.
struct ProcMin;

impl Solver for ProcMin {
    fn name(&self) -> &'static str {
        "procmin"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Tree
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "minimum-processor tree partition under a load bound (Algorithm 2.2)"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        let r = on_tree!(&request.graph, |t| proc_min(t, bound)).map_err(SolveError::infeasible)?;
        let mut w = response(self.name(), ids_bytes(r.cut.len()));
        w.key("bound").u64(bound.get());
        w.key("cut").u64s(r.cut.iter().map(id));
        w.key("processors").u64(r.component_count as u64);
        Ok(finish(w))
    }
}

/// `compose` — 2.1 then 2.2 over the contracted tree (§3 workflow).
struct Compose;

impl Solver for Compose {
    fn name(&self) -> &'static str {
        "compose"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Tree
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "bottleneck-optimal tree partition with minimal processors (2.1 + 2.2)"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        let part = on_tree!(&request.graph, |t| partition_tree(t, bound))
            .map_err(SolveError::infeasible)?;
        let mut w = response(self.name(), ids_bytes(part.cut.len()));
        w.key("bound").u64(bound.get());
        w.key("cut").u64s(part.cut.iter().map(id));
        w.key("processors").u64(part.processors as u64);
        w.key("bottleneck").u64(part.bottleneck.get());
        w.key("bandwidth").u64(part.bandwidth.get());
        Ok(finish(w))
    }
}

/// `lexicographic` — §3 bicriteria on chains.
struct Lexicographic;

impl Solver for Lexicographic {
    fn name(&self) -> &'static str {
        "lexicographic"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "chain cut minimizing (bottleneck, bandwidth) lexicographically (§3)"
    }
    fn solve(&self, request: &Request, budget: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        on_chain!(&request.graph, |c| {
            let cut = min_bandwidth_cut_lexicographic(c, bound, budget)
                .map_err(SolveError::from_partition)?;
            let bottleneck = c.bottleneck(&cut).map_err(SolveError::infeasible)?;
            let bandwidth = c.cut_weight(&cut).map_err(SolveError::infeasible)?;
            let mut w = response(self.name(), ids_bytes(cut.len()));
            w.key("bound").u64(bound.get());
            w.key("cut").u64s(cut.iter().map(id));
            w.key("bottleneck").u64(bottleneck.get());
            w.key("bandwidth").u64(bandwidth.get());
            w.key("processors").u64(cut.len() as u64 + 1);
            Ok(finish(w))
        })
    }
}

/// `tree-bandwidth` — the exact pseudo-polynomial tree DP.
struct TreeBandwidth;

impl Solver for TreeBandwidth {
    fn name(&self) -> &'static str {
        "tree-bandwidth"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Tree
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "exact minimum-bandwidth tree cut, O(n·K²) DP (Theorem 1 counterpart)"
    }
    fn validate(&self, request: &Request) -> Result<(), SolveError> {
        let k = request.params.bound.expect("declared required parameter");
        let n = request.graph.nodes() as u64;
        let cost = n.saturating_mul(k).saturating_mul(k);
        if cost > MAX_TREE_BANDWIDTH_COST {
            return Err(SolveError::TooExpensive {
                objective: self.name(),
                message: format!(
                    "n·K² = {n}·{k}² exceeds the work budget of {MAX_TREE_BANDWIDTH_COST}; \
                     the DP is pseudo-polynomial in the bound"
                ),
            });
        }
        Ok(())
    }
    fn cost_estimate(&self, request: &Request) -> u64 {
        let k = request.params.bound.unwrap_or(1);
        let n = request.graph.nodes() as u64;
        n.saturating_mul(k).saturating_mul(k)
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        on_tree!(&request.graph, |tree| {
            let cut = min_tree_bandwidth_cut(tree, bound).map_err(SolveError::infeasible)?;
            let bandwidth = tree.cut_weight(&cut).map_err(SolveError::infeasible)?;
            let components = tree.components(&cut).map_err(SolveError::infeasible)?;
            let mut w = response(self.name(), ids_bytes(cut.len()));
            w.key("bound").u64(bound.get());
            w.key("cut").u64s(cut.iter().map(id));
            w.key("bandwidth").u64(bandwidth.get());
            w.key("processors").u64(components.count() as u64);
            Ok(finish(w))
        })
    }
}

/// `approx` — general process graphs via linearization/spanning tree.
struct Approx;

impl Solver for Approx {
    fn name(&self) -> &'static str {
        "approx"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Process
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "best-of heuristics for general process graphs under a load bound"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        let part = partition_process_graph_best(request.graph.process(), bound)
            .map_err(SolveError::infeasible)?;
        let method = match part.method {
            ApproxMethod::LinearIdentity => "linear-identity",
            ApproxMethod::LinearBfs => "linear-bfs",
            ApproxMethod::SpanningTree => "spanning-tree",
            _ => "unknown",
        };
        let bytes = ids_bytes(part.part_of.len()) + 16 * part.part_weights.len();
        let mut w = response(self.name(), bytes);
        w.key("bound").u64(bound.get());
        w.key("method").str(method);
        w.key("parts").u64(part.parts as u64);
        w.key("part_of").u64s(indices(&part.part_of));
        w.key("part_weights")
            .u64s(part.part_weights.iter().map(|w| w.get()));
        w.key("cut_weight").u64(part.cut_weight.get());
        Ok(finish(w))
    }
}

/// `nicol` — the O(n log n) prior-art bandwidth baseline.
struct Nicol;

impl Solver for Nicol {
    fn name(&self) -> &'static str {
        "nicol"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        BOUND_ONLY
    }
    fn summary(&self) -> &'static str {
        "Nicol & O'Hallaron O(n log n) bandwidth baseline on chains"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let bound = bound_of(request);
        on_chain!(&request.graph, |c| {
            let cut = nicol_bandwidth_cut(c, bound).map_err(SolveError::infeasible)?;
            let bandwidth = c.cut_weight(&cut).map_err(SolveError::infeasible)?;
            let mut w = response(self.name(), ids_bytes(cut.len()));
            w.key("bound").u64(bound.get());
            w.key("cut").u64s(cut.iter().map(id));
            w.key("bandwidth").u64(bandwidth.get());
            w.key("processors").u64(cut.len() as u64 + 1);
            Ok(finish(w))
        })
    }
}

/// `coc` — chains-on-chains with a selectable sub-algorithm.
struct Coc;

impl Solver for Coc {
    fn name(&self) -> &'static str {
        "coc"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        COC_PARAMS
    }
    fn summary(&self) -> &'static str {
        "chains-on-chains minimax partition (algorithm: bokhari | probe)"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let m = processors_of(request)?;
        let algorithm = request.params.algorithm.as_deref().unwrap_or("probe");
        let result = on_chain!(&request.graph, |chain| match algorithm {
            "bokhari" => bokhari_partition(chain, m),
            "probe" => hansen_lih_partition(chain, m),
            other => {
                return Err(SolveError::InvalidField {
                    field: "algorithm".into(),
                    message: format!("must be \"bokhari\" or \"probe\", got {other:?}"),
                });
            }
        })
        .map_err(SolveError::infeasible)?;
        let boundaries = result.assignment.boundaries();
        let mut w = response(self.name(), ids_bytes(boundaries.len()));
        w.key("algorithm").str(algorithm);
        w.key("processors").u64(m as u64);
        w.key("boundaries").u64s(indices(boundaries));
        w.key("bottleneck").u64(result.bottleneck.get());
        Ok(finish(w))
    }
}

/// `bokhari` — the layered-graph chains-on-chains solver, directly.
struct Bokhari;

impl Solver for Bokhari {
    fn name(&self) -> &'static str {
        "bokhari"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        PROCESSORS_ONLY
    }
    fn summary(&self) -> &'static str {
        "Bokhari (1988) layered-graph minimax chain partition, O(n²m)"
    }
    fn cost_estimate(&self, request: &Request) -> u64 {
        let n = request.graph.nodes() as u64;
        let m = request.params.processors.unwrap_or(1);
        n.saturating_mul(n).saturating_mul(m)
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let m = processors_of(request)?;
        let result = on_chain!(&request.graph, |chain| bokhari_partition(chain, m))
            .map_err(SolveError::infeasible)?;
        Ok(chains_on_chains(self.name(), m, &result))
    }
}

/// `hansen-lih` — probe-based chains-on-chains solver, directly.
struct HansenLih;

impl Solver for HansenLih {
    fn name(&self) -> &'static str {
        "hansen-lih"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        PROCESSORS_ONLY
    }
    fn summary(&self) -> &'static str {
        "Hansen & Lih (1992) probe/binary-search minimax chain partition"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let m = processors_of(request)?;
        let result = on_chain!(&request.graph, |chain| hansen_lih_partition(chain, m))
            .map_err(SolveError::infeasible)?;
        Ok(chains_on_chains(self.name(), m, &result))
    }
}

/// `hetero` — chains over processors of different speeds.
struct Hetero;

impl Solver for Hetero {
    fn name(&self) -> &'static str {
        "hetero"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Chain
    }
    fn params(&self) -> &'static [ParamSpec] {
        HETERO_PARAMS
    }
    fn summary(&self) -> &'static str {
        "chain partition over a mixed-speed processor array (Bokhari variant)"
    }
    fn validate(&self, request: &Request) -> Result<(), SolveError> {
        let speeds = request
            .params
            .speeds
            .as_deref()
            .expect("required parameter");
        if speeds.is_empty() || speeds.contains(&0) {
            return Err(SolveError::InvalidField {
                field: "speeds".into(),
                message: "needs at least one positive speed".into(),
            });
        }
        if speeds.len() > MAX_SPEEDS {
            return Err(SolveError::TooExpensive {
                objective: self.name(),
                message: format!("{} speeds exceed the limit of {MAX_SPEEDS}", speeds.len()),
            });
        }
        Ok(())
    }
    fn cost_estimate(&self, request: &Request) -> u64 {
        let n = request.graph.nodes() as u64;
        let p = request.params.speeds.as_deref().map_or(1, |s| s.len()) as u64;
        n.saturating_mul(n).saturating_mul(p)
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let speeds = request
            .params
            .speeds
            .as_deref()
            .expect("required parameter");
        let array = HeteroArray::new(speeds.to_vec());
        let r = on_chain!(&request.graph, |chain| hetero_partition(chain, &array))
            .map_err(SolveError::infeasible)?;
        let boundaries = r.assignment.boundaries();
        let mut w = response(self.name(), ids_bytes(speeds.len() + boundaries.len()));
        w.key("speeds").u64s(speeds.iter().copied());
        w.key("boundaries").u64s(indices(boundaries));
        w.key("bottleneck").u64(r.bottleneck.get());
        Ok(finish(w))
    }
}

/// `host-satellite` — Bokhari's single-host / multiple-satellite trees.
struct HostSatellite;

impl Solver for HostSatellite {
    fn name(&self) -> &'static str {
        "host-satellite"
    }
    fn graph_kind(&self) -> GraphKind {
        GraphKind::Tree
    }
    fn params(&self) -> &'static [ParamSpec] {
        HOST_SATELLITE_PARAMS
    }
    fn summary(&self) -> &'static str {
        "host/satellite tree offloading with at most m satellites (Bokhari)"
    }
    fn solve(&self, request: &Request, _: &Budget) -> Result<Response, SolveError> {
        let m = usize_param(
            request
                .params
                .satellites
                .expect("declared required parameter"),
            "satellites",
        )?;
        let root = usize_param(request.params.root.unwrap_or(0), "root")?;
        let n = request.graph.nodes();
        if root >= n {
            return Err(SolveError::InvalidField {
                field: "root".into(),
                message: format!("{root} out of range for {n} nodes"),
            });
        }
        let host = NodeId::new(root);
        let r = on_tree!(&request.graph, |tree| host_satellite_partition(
            tree, host, m
        ))
        .map_err(SolveError::infeasible)?;
        let mut w = response(self.name(), ids_bytes(r.cut.len()));
        w.key("root").u64(root as u64);
        w.key("max_satellites").u64(m as u64);
        w.key("satellites_used").u64(r.satellites as u64);
        w.key("uplinks").u64s(r.cut.iter().map(id));
        w.key("bottleneck").u64(r.bottleneck.get());
        Ok(finish(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::request::parse_request;
    use crate::IngestBacking;
    use tgp_graph::json::Value;

    const CHAIN: &str = r#"{"node_weights": [2, 3, 5, 7], "edge_weights": [10, 1, 10]}"#;
    const TREE: &str = r#"{"node_weights": [1, 2, 3, 4],
        "edges": [{"a": 0, "b": 1, "weight": 10},
                  {"a": 0, "b": 2, "weight": 20},
                  {"a": 2, "b": 3, "weight": 30}]}"#;

    fn golden_request(name: &str) -> String {
        let registry = Registry::shared();
        let (_, solver) = registry.get(name).expect("registered");
        let graph = match solver.graph_kind() {
            GraphKind::Chain => CHAIN,
            GraphKind::Tree | GraphKind::Process => TREE,
        };
        let params = match name {
            "coc" | "bokhari" | "hansen-lih" => r#""processors": 2"#,
            "hetero" => r#""speeds": [2, 1]"#,
            "host-satellite" => r#""satellites": 2"#,
            _ => r#""bound": 10"#,
        };
        format!(r#"{{"objective": "{name}", {params}, "graph": {graph}}}"#)
    }

    #[test]
    fn registry_has_all_thirteen_objectives() {
        let names = Registry::shared().names();
        let mut distinct = names.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len(), "dispatch needs distinct names");
        assert_eq!(
            names,
            [
                "bandwidth",
                "bottleneck",
                "procmin",
                "compose",
                "lexicographic",
                "tree-bandwidth",
                "approx",
                "nicol",
                "coc",
                "bokhari",
                "hansen-lih",
                "hetero",
                "host-satellite",
            ]
        );
    }

    #[test]
    fn every_solver_runs_its_golden_request() {
        let registry = Registry::shared();
        for solver in registry.iter() {
            let text = golden_request(solver.name());
            let value = Value::parse(&text).unwrap();
            let (_, dispatched, request) = registry.dispatch(&value).unwrap();
            assert_eq!(dispatched.name(), solver.name());
            let response = dispatched
                .run(&request)
                .unwrap_or_else(|e| panic!("{} failed on its golden request: {e}", solver.name()));
            let tree = dispatched.to_json(&response);
            assert_eq!(
                tree["objective"].as_str(),
                Some(solver.name()),
                "every response must echo its objective"
            );
            assert_eq!(tree.to_string(), response.value.to_string());
        }
    }

    #[test]
    fn budgeted_run_is_byte_identical_and_honors_expired_deadlines() {
        use std::time::{Duration, Instant};
        let registry = Registry::shared();
        for solver in registry.iter() {
            let value = Value::parse(&golden_request(solver.name())).unwrap();
            let (_, dispatched, request) = registry.dispatch(&value).unwrap();
            let cold = dispatched.run(&request).unwrap();
            // A generous budget must not change a single byte.
            let generous = Budget::with_deadline(Instant::now() + Duration::from_secs(3600));
            let budgeted = dispatched.run_budgeted(&request, &generous).unwrap();
            assert_eq!(
                dispatched.to_json(&cold).to_string(),
                dispatched.to_json(&budgeted).to_string(),
                "{}: budgeted run diverged",
                solver.name()
            );
            // An already-expired budget must refuse before solving.
            let expired = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
            let err = dispatched.run_budgeted(&request, &expired).unwrap_err();
            assert_eq!(err.code(), "deadline_exceeded", "{}", solver.name());
        }
    }

    #[test]
    fn canonical_key_len_is_the_built_keys_length() {
        let registry = Registry::shared();
        for solver in registry.iter() {
            let request = solver
                .parse(&Value::parse(&golden_request(solver.name())).unwrap())
                .unwrap();
            assert_eq!(
                request.canonical_key_len(),
                request.canonical_key().len(),
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn canonical_keys_ignore_field_order_but_not_content() {
        let registry = Registry::shared();
        for solver in registry.iter() {
            let value = Value::parse(&golden_request(solver.name())).unwrap();
            let Value::Object(mut fields) = value.clone() else {
                unreachable!()
            };
            fields.reverse();
            let reordered = Value::Object(fields);
            let a = solver.canonical_key(&solver.parse(&value).unwrap());
            let b = solver.canonical_key(&solver.parse(&reordered).unwrap());
            assert_eq!(
                a,
                b,
                "{}: key must not depend on field order",
                solver.name()
            );
        }
        // Distinct objectives on the same graph must never share a key.
        let (_, bw) = registry.get("bandwidth").unwrap();
        let (_, lex) = registry.get("lexicographic").unwrap();
        let bw_req = bw
            .parse(&Value::parse(&golden_request("bandwidth")).unwrap())
            .unwrap();
        let lex_req = lex
            .parse(&Value::parse(&golden_request("lexicographic")).unwrap())
            .unwrap();
        assert_ne!(bw.canonical_key(&bw_req), lex.canonical_key(&lex_req));
    }

    #[test]
    fn unknown_objective_lists_the_registry() {
        let err = Registry::shared()
            .dispatch(&Value::parse(r#"{"objective": "frobnicate"}"#).unwrap())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.code(), "unknown_objective");
        assert!(err.to_string().contains("bandwidth"), "{err}");
    }

    #[test]
    fn wrong_graph_kind_and_unknown_fields_are_rejected_for_every_solver() {
        let registry = Registry::shared();
        for solver in registry.iter() {
            // Swap the graph for one of the wrong kind. (A tree *is* a
            // valid process graph, so feed the process solver a chain.)
            let wrong_graph = match solver.graph_kind() {
                GraphKind::Chain => TREE,
                GraphKind::Tree | GraphKind::Process => CHAIN,
            };
            let golden = golden_request(solver.name());
            let swapped = golden.replace(
                match solver.graph_kind() {
                    GraphKind::Chain => CHAIN,
                    GraphKind::Tree | GraphKind::Process => TREE,
                },
                wrong_graph,
            );
            let err = solver.parse(&Value::parse(&swapped).unwrap()).unwrap_err();
            assert_eq!(err.code(), "wrong_graph_kind", "{}", solver.name());

            // Add a field outside the declared schema.
            let Value::Object(mut fields) = Value::parse(&golden).unwrap() else {
                unreachable!()
            };
            fields.push(("bogus".into(), Value::from(1u64)));
            let err = solver.parse(&Value::Object(fields)).unwrap_err();
            assert_eq!(err.code(), "unknown_field", "{}", solver.name());
        }
    }

    #[test]
    fn coc_algorithms_agree_and_validate() {
        let registry = Registry::shared();
        let (_, coc) = registry.get("coc").unwrap();
        let base = format!(
            r#"{{"objective": "coc", "processors": 2, "algorithm": "bokhari", "graph": {CHAIN}}}"#
        );
        let a = coc
            .run(&coc.parse(&Value::parse(&base).unwrap()).unwrap())
            .unwrap();
        let probe = base.replace("bokhari", "probe");
        let b = coc
            .run(&coc.parse(&Value::parse(&probe).unwrap()).unwrap())
            .unwrap();
        assert_eq!(coc.to_json(&a)["bottleneck"], coc.to_json(&b)["bottleneck"]);

        let junk = base.replace("bokhari", "quantum");
        let err = coc
            .run(&coc.parse(&Value::parse(&junk).unwrap()).unwrap())
            .unwrap_err();
        assert_eq!(err.code(), "invalid_field");
    }

    #[test]
    fn cost_estimates_reflect_algorithmic_complexity() {
        let registry = Registry::shared();
        // Linear solvers report nodes + edges (the default estimate).
        let (_, bw) = registry.get("bandwidth").unwrap();
        let req = bw
            .parse(&Value::parse(&golden_request("bandwidth")).unwrap())
            .unwrap();
        assert_eq!(bw.cost_estimate(&req), 4 + 3);

        // tree-bandwidth is pseudo-polynomial: n·K².
        let (_, tb) = registry.get("tree-bandwidth").unwrap();
        let req = tb
            .parse(&Value::parse(&golden_request("tree-bandwidth")).unwrap())
            .unwrap();
        assert_eq!(tb.cost_estimate(&req), 4 * 10 * 10);

        // bokhari is O(n²m).
        let (_, bk) = registry.get("bokhari").unwrap();
        let req = bk
            .parse(&Value::parse(&golden_request("bokhari")).unwrap())
            .unwrap();
        assert_eq!(bk.cost_estimate(&req), 4 * 4 * 2);

        // hetero is quadratic in the chain times the array size.
        let (_, he) = registry.get("hetero").unwrap();
        let req = he
            .parse(&Value::parse(&golden_request("hetero")).unwrap())
            .unwrap();
        assert_eq!(he.cost_estimate(&req), 4 * 4 * 2);

        // Estimates saturate instead of overflowing.
        let body = format!(
            r#"{{"objective": "tree-bandwidth", "bound": {}, "graph": {TREE}}}"#,
            u64::MAX
        );
        let parsed = parse_request(tb, &Value::parse(&body).unwrap(), &IngestBacking::Ram)
            .expect("schema-valid even though run() would refuse it");
        assert_eq!(tb.cost_estimate(&parsed), u64::MAX);
    }

    #[test]
    fn tree_bandwidth_refuses_expensive_instances() {
        let (_, solver) = Registry::shared().get("tree-bandwidth").unwrap();
        let body =
            format!(r#"{{"objective": "tree-bandwidth", "bound": 10000000000, "graph": {TREE}}}"#);
        let err = solver.parse(&Value::parse(&body).unwrap()).unwrap_err();
        assert_eq!(err.code(), "too_expensive");
    }

    #[test]
    fn hetero_rejects_zero_and_oversized_speed_arrays() {
        let (_, solver) = Registry::shared().get("hetero").unwrap();
        for speeds in ["[]", "[4, 0, 1]"] {
            let body =
                format!(r#"{{"objective": "hetero", "speeds": {speeds}, "graph": {CHAIN}}}"#);
            let err = solver.parse(&Value::parse(&body).unwrap()).unwrap_err();
            assert_eq!(err.code(), "invalid_field", "speeds {speeds}");
        }
        let huge: Vec<String> = (0..MAX_SPEEDS + 1).map(|_| "1".to_string()).collect();
        let body = format!(
            r#"{{"objective": "hetero", "speeds": [{}], "graph": {CHAIN}}}"#,
            huge.join(",")
        );
        let err = solver.parse(&Value::parse(&body).unwrap()).unwrap_err();
        assert_eq!(err.code(), "too_expensive");
    }

    #[test]
    fn host_satellite_validates_root_range() {
        let (_, solver) = Registry::shared().get("host-satellite").unwrap();
        let body = format!(
            r#"{{"objective": "host-satellite", "satellites": 2, "root": 99, "graph": {TREE}}}"#
        );
        let err = solver
            .run(&solver.parse(&Value::parse(&body).unwrap()).unwrap())
            .unwrap_err();
        assert_eq!(err.code(), "invalid_field");
    }

    #[test]
    fn infeasible_instances_keep_their_solver_message() {
        let (_, solver) = Registry::shared().get("bandwidth").unwrap();
        let body = format!(r#"{{"objective": "bandwidth", "bound": 0, "graph": {CHAIN}}}"#);
        let err = solver
            .run(&solver.parse(&Value::parse(&body).unwrap()).unwrap())
            .unwrap_err();
        assert_eq!(err.code(), "infeasible");
        assert!(err.to_string().contains("load bound"), "{err}");
    }

    /// `run_warm` is an inert stub kept for the benchmark's replay:
    /// every solver, `lexicographic` included, declines every window.
    #[test]
    fn solvers_without_warm_support_decline_every_window() {
        let registry = Registry::shared();
        for solver in registry.iter() {
            let value = Value::parse(&golden_request(solver.name())).unwrap();
            let request = solver.parse(&value).unwrap();
            for (lo, hi) in [(0, u64::MAX), (0, 0), (5, 4)] {
                assert!(
                    solver.run_warm(&request, lo, hi).is_none(),
                    "{} must decline [{lo}, {hi}]",
                    solver.name()
                );
            }
        }
    }
}
