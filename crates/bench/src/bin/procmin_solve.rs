//! Timings behind EXPERIMENTS.md §FLAT-PROCMIN, §BIG-BODIES,
//! §FLAT-COMPOSE and §WRITE-NOT-FAULT: the streaming ingest
//! (`ingest_flat`) of 100 000-node chain and tree bodies, Algorithm 2.2
//! (`proc_min`) on a 100 000-node random RAM tree (a pointer `Tree` on
//! older revisions) at three bounds, the `compose` objective (the §3
//! pipeline) at n = 1 024 and 100 000, and two large responses.
//!
//! Ingest bodies come in the two shapes the benchmark's large-solve
//! workload sends: compact (`serde_json` field order, `node_weights`
//! first; also timed with the deciding key `edge_weights`/`edges`
//! first) and Python-style (`json.dumps(sort_keys=True)`: `", "` and
//! `": "` separators, the deciding key before `node_weights`). Each is
//! ingested into RAM arrays and into disk-backed (spill file) arrays in
//! the system temp directory. Each ingest cell also prints the minor
//! page faults per call, read from `/proc/thread-self/stat` (Linux).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tgp-bench --bin procmin_solve
//! ```
//!
//! For `compose`, one compact body per size is read both ways: JSON-tree
//! parse plus registry dispatch (RAM arrays; a pointer `Tree` on older
//! revisions) against `ingest_flat` into RAM and disk arrays; then
//! `Solver::run` solves each request it got. A revision whose ingest does not stream
//! `compose` prints "declined" in the flat cells. Where it streams,
//! the three responses must be byte-identical.
//!
//! The response cells solve the bound-200 `bandwidth` request on the
//! 100 000-node chain (1.5 MB of response) and the bound-200
//! `bottleneck` request on the 100 000-node tree, each streamed into RAM
//! arrays, and time the core solve alone, `Solver::run` (the solve and
//! the response it builds) and `response.value.to_string()` (rendering
//! a `Value` tree on revisions whose responses are trees, copying the
//! written text on later ones).
//!
//! Every call keeps its signature across revisions, so the same file
//! builds against older revisions of the solver crates and the numbers
//! compare across them. The other ingest bodies name `bandwidth` and
//! `bottleneck`, which every revision streams. A cell prints the
//! minimum, quartiles and median of 15 runs (201 at n = 1 024), and the
//! cut count checks that revisions agree.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp_core::bottleneck::min_bottleneck_cut;
use tgp_core::pipeline::partition_chain;
use tgp_core::procmin::proc_min;
use tgp_graph::generators::{random_tree, WeightDist};
use tgp_graph::json::Value;
use tgp_graph::{EdgeId, NodeId, Tree, TreeView, Weight};
use tgp_solvers::{ingest_flat, Budget, IngestBacking, Registry, Request};

const N: usize = 100_000;
const RUNS: usize = 15;

fn millis(f: impl FnMut()) -> String {
    timings(RUNS, 1e3, f)
}

/// Minor page faults of the calling thread so far: field 10 of
/// `/proc/thread-self/stat`, counted after the parenthesized command
/// name (which may hold spaces). Zero where the file does not exist.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    // After the name: state is field 3, so minflt is the 8th.
    fields
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// [`millis`], with the minor page faults per call appended.
fn millis_and_faults(f: impl FnMut()) -> String {
    let before = minor_faults();
    let times = millis(f);
    let faults = (minor_faults() - before) as f64 / RUNS as f64;
    format!("{times}  {faults:>7.1}")
}

/// `runs` timed calls of `f`, in seconds times `scale`.
fn timings(runs: usize, scale: f64, mut f: impl FnMut()) -> String {
    let mut ms: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * scale
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let q = |p: f64| ms[((ms.len() - 1) as f64 * p).round() as usize];
    format!(
        "{:>6.2} {:>6.2} {:>6.2} {:>6.2}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75)
    )
}

/// A body's separators: compact, or Python's `", "` and `": "`.
#[derive(Clone, Copy)]
enum Style {
    Compact,
    Python,
}

impl Style {
    fn separators(self) -> (&'static str, &'static str) {
        match self {
            Style::Compact => (",", ":"),
            Style::Python => (", ", ": "),
        }
    }
}

fn list(values: impl Iterator<Item = u64>, style: Style) -> String {
    let (sep, _) = style.separators();
    let mut out = String::from("[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write!(out, "{v}").expect("write to String");
    }
    out.push(']');
    out
}

fn edge_list(edges: &[(usize, usize, u64)], style: Style) -> String {
    let (sep, colon) = style.separators();
    let mut out = String::from("[");
    for (i, (a, b, w)) in edges.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write!(
            out,
            r#"{{"a"{colon}{a}{sep}"b"{colon}{b}{sep}"weight"{colon}{w}}}"#
        )
        .expect("write to String");
    }
    out.push(']');
    out
}

/// The whole request body: compact bodies name the objective first,
/// Python-style ones sort every object's keys.
fn body(
    objective: &str,
    bound: u64,
    nodes: &str,
    deciding: (&str, &str),
    nodes_first: bool,
    style: Style,
) -> String {
    let (sep, colon) = style.separators();
    let (key, value) = deciding;
    let graph = if nodes_first {
        format!(r#"{{"node_weights"{colon}{nodes}{sep}"{key}"{colon}{value}}}"#)
    } else {
        format!(r#"{{"{key}"{colon}{value}{sep}"node_weights"{colon}{nodes}}}"#)
    };
    match style {
        Style::Compact => {
            format!(r#"{{"objective":"{objective}","bound":{bound},"graph":{graph}}}"#)
        }
        Style::Python => {
            format!(r#"{{"bound": {bound}, "graph": {graph}, "objective": "{objective}"}}"#)
        }
    }
}

fn tree_body(objective: &str, bound: u64, tree: &Tree, style: Style) -> String {
    let nodes = list(
        (0..tree.len()).map(|v| tree.node_weight(NodeId::new(v)).get()),
        style,
    );
    let edges: Vec<(usize, usize, u64)> = (0..tree.edge_count())
        .map(|i| tree.edge(EdgeId::new(i)))
        .map(|e| (e.a.index(), e.b.index(), e.weight.get()))
        .collect();
    body(
        objective,
        bound,
        &nodes,
        ("edges", &edge_list(&edges, style)),
        true,
        style,
    )
}

/// The `compose` cells for one tree: how its body becomes a request,
/// then the solve on each request, in microseconds.
fn compose_cells(tree: &Tree, bound: u64, runs: usize) {
    let body = tree_body("compose", bound, tree, Style::Compact);
    let bytes = body.as_bytes();
    let micros = |f: &mut dyn FnMut()| timings(runs, 1e6, f);
    let registry = Registry::shared();
    let n = tree.len();
    let row = |cell: &str, times: &str| {
        println!("{cell:<34} {n:>6} {bound:>6}  {times}");
    };
    row(
        "parse + dispatch (JSON tree)",
        &micros(&mut || {
            let value = Value::parse(black_box(&body)).expect("valid JSON");
            black_box(registry.dispatch(&value).expect("valid request"));
        }),
    );
    let disk = IngestBacking::disk(std::env::temp_dir());
    let flat = |backing: &IngestBacking| -> Option<Request> {
        ingest_flat(bytes, backing, &Budget::unlimited()).expect("no deadline")
    };
    let value = Value::parse(&body).expect("valid JSON");
    let (_, _, dispatched) = registry.dispatch(&value).expect("valid request");
    let solver = dispatched.objective;
    let want = solver.to_json(&solver.run(&dispatched).expect("feasible bound"));
    let mut requests = vec![("dispatched", Some(dispatched))];
    for (label, backing) in [("RAM", &IngestBacking::Ram), ("disk", &disk)] {
        let request = flat(backing);
        let times = match request {
            None => "declined".to_string(),
            Some(_) => micros(&mut || {
                black_box(flat(black_box(backing)));
            }),
        };
        row(&format!("ingest_flat, {label}"), &times);
        requests.push((label, request));
    }
    let cuts = want["cut"].as_array().expect("a cut").len();
    println!("{:<34} {n:>6} {bound:>6}  {cuts} cuts", "compose response");
    for (label, request) in &requests {
        let times = match request {
            None => "declined".to_string(),
            Some(request) => {
                let got = request.objective.run(request).expect("feasible bound");
                assert_eq!(got.value.to_string(), want.to_string(), "{label}");
                micros(&mut || {
                    black_box(request.objective.run(black_box(request)).expect("feasible"));
                })
            }
        };
        row(&format!("solve, {label}"), &times);
    }
}

fn main() {
    let tree = random_tree(
        N,
        WeightDist::Uniform { lo: 1, hi: 100 },
        WeightDist::Uniform { lo: 1, hi: 1000 },
        &mut SmallRng::seed_from_u64(0x9A22),
    );
    println!("n = {N}, {RUNS} runs per cell; times in ms");
    // Ingest runs first, on a fresh heap: the allocator state a solve
    // leaves behind moves the ingest's array growth by up to a
    // millisecond, and it differs between revisions.
    println!();
    let mut rng = SmallRng::seed_from_u64(0x1265);
    let chain_nodes: Vec<u64> = (0..N).map(|_| rng.gen_range(1..=100)).collect();
    let chain_edges: Vec<u64> = (1..N).map(|_| rng.gen_range(1..=1000)).collect();
    let tree_nodes: Vec<u64> = (0..N)
        .map(|v| tree.node_weight(NodeId::new(v)).get())
        .collect();
    let tree_edges: Vec<(usize, usize, u64)> = (0..tree.edge_count())
        .map(|i| tree.edge(EdgeId::new(i)))
        .map(|e| (e.a.index(), e.b.index(), e.weight.get()))
        .collect();
    let shapes = [
        (Style::Compact, true, "compact, node_weights first"),
        (Style::Compact, false, "compact, deciding key first"),
        (Style::Python, false, "python, deciding key first"),
    ];
    let spill_dir = std::env::temp_dir();
    for (backing_label, backing) in [
        ("RAM", IngestBacking::Ram),
        ("disk", IngestBacking::disk(&spill_dir)),
    ] {
        println!(
            "{:<34} {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}  {:>7}",
            format!("ingest_flat, {backing_label}"),
            "MB",
            "",
            "min",
            "q1",
            "median",
            "q3",
            "faults"
        );
        for (label, objective) in [("chain", "bandwidth"), ("tree", "bottleneck")] {
            for (style, nodes_first, order) in shapes {
                let (nodes, deciding) = if label == "chain" {
                    (
                        list(chain_nodes.iter().copied(), style),
                        ("edge_weights", list(chain_edges.iter().copied(), style)),
                    )
                } else {
                    (
                        list(tree_nodes.iter().copied(), style),
                        ("edges", edge_list(&tree_edges, style)),
                    )
                };
                let body = body(
                    objective,
                    20_000,
                    &nodes,
                    (deciding.0, &deciding.1),
                    nodes_first,
                    style,
                );
                ingest_flat(body.as_bytes(), &backing, &Budget::unlimited())
                    .expect("no deadline")
                    .expect("eligible body");
                println!(
                    "{:<34} {:>6.2} {:>6}  {}",
                    format!("{label}, {order}"),
                    body.len() as f64 / 1e6,
                    "",
                    millis_and_faults(|| {
                        black_box(
                            ingest_flat(black_box(body.as_bytes()), &backing, &Budget::unlimited())
                                .expect("no deadline"),
                        );
                    })
                );
            }
        }
        println!();
    }

    println!(
        "{:<34} {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}",
        "proc_min, RAM Tree", "K", "cuts", "min", "q1", "median", "q3"
    );
    for bound in [200, 5_000, 20_000] {
        let k = Weight::new(bound);
        let cuts = proc_min(&tree, k).expect("feasible bound").cut.len();
        println!(
            "{:<34} {bound:>6} {cuts:>6}  {}",
            "random attachment, nodes U[1,100]",
            millis(|| {
                black_box(proc_min(black_box(&tree), k).expect("feasible"));
            })
        );
    }

    println!();
    println!(
        "{:<34} {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}  (µs)",
        "compose, compact body", "n", "K", "min", "q1", "median", "q3"
    );
    let small = random_tree(
        1_024,
        WeightDist::Uniform { lo: 1, hi: 100 },
        WeightDist::Uniform { lo: 1, hi: 1000 },
        &mut SmallRng::seed_from_u64(0xC0DE),
    );
    compose_cells(&small, 2_000, 201);
    compose_cells(&tree, 20_000, RUNS);

    println!();
    println!(
        "{:<34} {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}",
        "response, RAM arrays", "K", "MB", "min", "q1", "median", "q3"
    );
    let chain_body = body(
        "bandwidth",
        200,
        &list(chain_nodes.iter().copied(), Style::Compact),
        (
            "edge_weights",
            &list(chain_edges.iter().copied(), Style::Compact),
        ),
        true,
        Style::Compact,
    );
    let chain = tgp_graph::PathGraph::from_raw(&chain_nodes, &chain_edges).expect("a chain");
    response_cells("bandwidth", &chain_body, &mut || {
        black_box(partition_chain(&chain, Weight::new(200), &Budget::unlimited()).expect("fits"));
    });
    let tree_body = tree_body("bottleneck", 200, &tree, Style::Compact);
    response_cells("bottleneck", &tree_body, &mut || {
        black_box(min_bottleneck_cut(&tree, Weight::new(200)).expect("fits"));
    });
}

/// The response cells for one request body: the core solve alone, then
/// `Solver::run` and `response.value.to_string()`.
fn response_cells(objective: &str, body: &str, core: &mut dyn FnMut()) {
    let request = ingest_flat(body.as_bytes(), &IngestBacking::Ram, &Budget::unlimited())
        .expect("no deadline")
        .expect("eligible body");
    let solver = request.objective;
    let response = solver.run(&request).expect("feasible bound");
    let bytes = response.value.to_string().len() as f64 / 1e6;
    let row = |cell: &str, times: String| {
        println!(
            "{:<34} {:>6} {bytes:>6.2}  {times}",
            format!("{objective}, {cell}"),
            200
        );
    };
    row("core solve", millis(core));
    row(
        "Solver::run",
        millis(|| {
            black_box(solver.run(black_box(&request)).expect("feasible"));
        }),
    );
    row(
        "value.to_string()",
        millis(|| {
            black_box(black_box(&response).value.to_string());
        }),
    );
}
