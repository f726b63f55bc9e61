//! Solve timings behind EXPERIMENTS.md §LEX-1DP: the lexicographic
//! cold solve, its warm start with a ±64 window around `B*`, and the
//! tree `bottleneck` cold solve (plus its warm start where the solver
//! offers one), on 100 000-node graphs; and beside them the registry
//! dispatch that builds each request from its parsed JSON, the parse
//! every in-RAM session re-solve pays.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tgp-bench --bin lex_solve
//! ```
//!
//! Every cell goes through the registry's `Registry::dispatch`,
//! `Solver::run` and `Solver::run_warm`, the calls the session path
//! makes, so the same
//! file builds against older revisions of the solver crates and the
//! numbers compare across them. Each warm answer is checked byte for
//! byte against the cold one before it is timed. A cell prints the
//! minimum, quartiles and median of 21 runs.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp_graph::generators::{random_chain, random_tree, WeightDist};
use tgp_graph::json;
use tgp_graph::json::{ToJson, Value};
use tgp_solvers::Registry;

const N: usize = 100_000;
const RUNS: usize = 21;
const SLACK: u64 = 64;

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

fn cell(label: &str, bound: u64, graph: Value, objective: &str) {
    let value = json!({ "objective": objective, "bound": bound, "graph": graph });
    let (_, solver, request) = Registry::shared().dispatch(&value).expect("valid request");
    let cold = solver.run(&request).expect("feasible bound");
    let b = cold.value["bottleneck"].as_u64().expect("bottleneck field");
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
    let cold_body = solver.to_json(&cold).to_string();
    println!(
        "{label:<24} {bound:>6} {b:>8}  cold     {}",
        millis(|| {
            black_box(solver.run(black_box(&request)).expect("feasible"));
        })
    );
    let (lo, hi) = (b.saturating_sub(SLACK), b.saturating_add(SLACK));
    match solver.run_warm(&request, lo, hi) {
        Some(warm) => {
            let warm = warm.expect("feasible bound");
            assert_eq!(
                solver.to_json(&warm).to_string(),
                cold_body,
                "warm diverged"
            );
            println!(
                "{label:<24} {bound:>6} {b:>8}  warm     {}",
                millis(|| {
                    black_box(solver.run_warm(black_box(&request), lo, hi));
                })
            );
        }
        None => println!("{label:<24} {bound:>6} {b:>8}  warm     declined (solves cold)"),
    }
}

fn main() {
    println!("n = {N}, {RUNS} runs per cell, warm window = B* ± {SLACK}; times in ms");
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
    let edges = WeightDist::Uniform { lo: 1, hi: 1000 };
    let tree = random_tree(N, nodes, edges, &mut SmallRng::seed_from_u64(0xB0B));
    for bound in [4000, 12000] {
        cell("tree, edges U[1,1000]", bound, tree.to_json(), "bottleneck");
    }
}
