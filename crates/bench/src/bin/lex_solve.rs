//! Solve timings behind EXPERIMENTS.md §LEX-1DP and §LEX-1PASS: the
//! lexicographic solve and the tree `bottleneck` solve on 100 000-node
//! graphs, and beside them the registry dispatch that builds each
//! request from its parsed JSON, the parse every in-RAM session re-solve
//! pays. Chains come with random edge weights and with increasing ones,
//! the order in which every over-weight window's lightest edge is its
//! first.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tgp-bench --bin lex_solve
//! ```
//!
//! Every cell goes through the registry's `Registry::dispatch` and
//! `Solver::run`, the calls the session path makes, so the same file
//! builds against older revisions of the solver crates and the numbers
//! compare across them. On every chain cell the answer's `bottleneck`
//! is checked against §2.3's hitting-set view before it is timed: `B*`
//! is the largest, over all prime subpaths, of the lightest edge inside,
//! and 0 when there is none. A cell prints the minimum, quartiles and
//! median of 21 runs.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp_core::bandwidth::prime_subpaths;
use tgp_graph::generators::{random_chain, random_tree, WeightDist};
use tgp_graph::json;
use tgp_graph::json::{FromJson, ToJson, Value};
use tgp_graph::{PathGraph, Weight};
use tgp_solvers::Registry;

const N: usize = 100_000;
const RUNS: usize = 21;

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

/// The optimal bottleneck of `chain` under `bound` from the prime
/// subpaths alone: a cut is feasible exactly when it holds an edge of
/// every prime subpath, so `B*` is the largest of their lightest edges.
fn prime_oracle(chain: &Value, bound: u64) -> u64 {
    let path = PathGraph::from_json(chain).expect("valid chain");
    let edges: Vec<u64> = chain["edge_weights"]
        .as_array()
        .expect("edge weights")
        .iter()
        .map(|w| w.as_u64().expect("integer weight"))
        .collect();
    prime_subpaths(&path, Weight::new(bound))
        .expect("feasible bound")
        .iter()
        .map(|p| {
            edges[p.first_node..p.last_node]
                .iter()
                .copied()
                .min()
                .expect("a prime subpath has an edge")
        })
        .max()
        .unwrap_or(0)
}

fn cell(label: &str, bound: u64, graph: Value, objective: &str) {
    let oracle = (objective == "lexicographic").then(|| prime_oracle(&graph, bound));
    let value = json!({ "objective": objective, "bound": bound, "graph": graph });
    let (_, solver, request) = Registry::shared().dispatch(&value).expect("valid request");
    let cold = solver.run(&request).expect("feasible bound");
    let b = solver.to_json(&cold)["bottleneck"]
        .as_u64()
        .expect("bottleneck field");
    if let Some(oracle) = oracle {
        assert_eq!(
            b, oracle,
            "{label}, K = {bound}: B* differs from the prime oracle"
        );
    }
    println!(
        "{label:<24} {bound:>6} {b:>8}  dispatch {}",
        millis(|| {
            black_box(
                Registry::shared()
                    .dispatch(black_box(&value))
                    .expect("valid"),
            );
        })
    );
    println!(
        "{label:<24} {bound:>6} {b:>8}  cold     {}",
        millis(|| {
            black_box(solver.run(black_box(&request)).expect("feasible"));
        })
    );
}

fn main() {
    println!(
        "n = {N}, {RUNS} runs per cell; chain B* checked against the prime oracle; times in ms"
    );
    println!();
    println!(
        "{:<24} {:>6} {:>8}  path     {:>6} {:>6} {:>6} {:>6}",
        "graph", "K", "B*", "min", "q1", "median", "q3"
    );
    let nodes = WeightDist::Uniform { lo: 1, hi: 100 };
    for (label, edge_hi) in [
        ("chain, edges U[1,2^24]", 1u64 << 24),
        ("chain, edges U[1,1000]", 1000),
    ] {
        let edges = WeightDist::Uniform { lo: 1, hi: edge_hi };
        let chain = random_chain(N, nodes, edges, &mut SmallRng::seed_from_u64(0x1E4));
        for bound in [4000, 12000] {
            cell(label, bound, chain.to_json(), "lexicographic");
        }
    }
    let mut rng = SmallRng::seed_from_u64(0x1E4);
    let node_weights: Vec<u64> = (0..N).map(|_| rng.gen_range(1..=100)).collect();
    let edge_weights: Vec<u64> = (1..N as u64).collect();
    let chain = json!({ "node_weights": node_weights, "edge_weights": edge_weights });
    for bound in [4000, 12000] {
        cell(
            "chain, edges increasing",
            bound,
            chain.clone(),
            "lexicographic",
        );
    }
    let edges = WeightDist::Uniform { lo: 1, hi: 1000 };
    let tree = random_tree(N, nodes, edges, &mut SmallRng::seed_from_u64(0xB0B));
    for bound in [4000, 12000] {
        cell("tree, edges U[1,1000]", bound, tree.to_json(), "bottleneck");
    }
}
