//! Timings behind EXPERIMENTS.md §FLAT-PROCMIN: the streaming ingest
//! (`ingest_flat`) of 100 000-node chain and tree bodies, with the
//! graph's deciding key (`edge_weights` or `edges`) either after
//! `node_weights` or first, and Algorithm 2.2 (`proc_min`) on a
//! 100 000-node random pointer tree at three bounds.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tgp-bench --bin procmin_solve
//! ```
//!
//! Both calls keep their signatures across revisions, so the same file
//! builds against older revisions of the solver crates and the numbers
//! compare across them. Ingest bodies name `bandwidth` and `bottleneck`,
//! which every revision streams, into RAM arrays. A cell prints the
//! minimum, quartiles and median of 15 runs, and the cut count checks
//! that revisions agree.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp_core::procmin::proc_min;
use tgp_graph::generators::{random_tree, WeightDist};
use tgp_graph::{NodeId, Weight};
use tgp_solvers::{ingest_flat, Budget, IngestBacking};

const N: usize = 100_000;
const RUNS: usize = 15;

fn millis(mut f: impl FnMut()) -> String {
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
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

fn list(values: impl Iterator<Item = u64>) -> String {
    let mut out = String::from("[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").expect("write to String");
    }
    out.push(']');
    out
}

/// The `"graph"` object with `node_weights` first or last.
fn graph_json(nodes: &str, deciding: (&str, &str), nodes_first: bool) -> String {
    let (key, value) = deciding;
    if nodes_first {
        format!(r#"{{"node_weights":{nodes},"{key}":{value}}}"#)
    } else {
        format!(r#"{{"{key}":{value},"node_weights":{nodes}}}"#)
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
    println!(
        "{:<34} {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}",
        "ingest_flat, RAM", "MB", "", "min", "q1", "median", "q3"
    );
    let mut rng = SmallRng::seed_from_u64(0x1265);
    let chain_nodes = list((0..N).map(|_| rng.gen_range(1..=100)));
    let chain_edges = list((1..N).map(|_| rng.gen_range(1..=1000)));
    let tree_nodes = list((0..N).map(|v| tree.node_weight(NodeId::new(v)).get()));
    let tree_edges = {
        let mut out = String::from("[");
        for (i, e) in tree.edges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (a, b) = (e.a.index(), e.b.index());
            write!(out, r#"{{"a":{a},"b":{b},"weight":{}}}"#, e.weight.get())
                .expect("write to String");
        }
        out.push(']');
        out
    };
    for (label, objective, nodes, deciding) in [
        (
            "chain",
            "bandwidth",
            &chain_nodes,
            ("edge_weights", &chain_edges),
        ),
        ("tree", "bottleneck", &tree_nodes, ("edges", &tree_edges)),
    ] {
        for nodes_first in [true, false] {
            let graph = graph_json(nodes, (deciding.0, deciding.1), nodes_first);
            let body = format!(r#"{{"objective":"{objective}","bound":20000,"graph":{graph}}}"#);
            let order = if nodes_first {
                "node_weights first"
            } else {
                "deciding key first"
            };
            ingest_flat(body.as_bytes(), &IngestBacking::Ram, &Budget::unlimited())
                .expect("no deadline")
                .expect("eligible body");
            println!(
                "{:<34} {:>6.2} {:>6}  {}",
                format!("{label}, {order}"),
                body.len() as f64 / 1e6,
                "",
                millis(|| {
                    black_box(
                        ingest_flat(
                            black_box(body.as_bytes()),
                            &IngestBacking::Ram,
                            &Budget::unlimited(),
                        )
                        .expect("no deadline"),
                    );
                })
            );
        }
    }

    println!();
    println!(
        "{:<34} {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}",
        "proc_min, pointer Tree", "K", "cuts", "min", "q1", "median", "q3"
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
}
