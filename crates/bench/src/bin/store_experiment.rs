//! The §STORE experiments: out-of-core tree partitioning through
//! `tgp-store`'s disk backing, and the streaming ingest path against
//! the JSON-tree path.
//!
//! Usage:
//!
//! ```text
//! store_experiment oocore <ram|disk> [n]   # default n = 1_000_000
//! store_experiment lex [n]...              # default n = 100_000 1_000_000
//! ```
//!
//! `oocore` builds a deterministic n-node tree *directly* into flat
//! arrays (no JSON anywhere — a JSON body would itself dwarf the memory
//! cap), solves `bottleneck` on it, and prints the graph's byte size,
//! the process's peak RSS (`VmHWM`), and an FNV-1a checksum of the
//! rendered response. Running the mode once with `disk` and once with
//! `ram` in *separate processes* and comparing the printed checksums is
//! the cross-backing correctness check EXPERIMENTS.md records; the
//! disk run is the one executed under a memory cap smaller than the
//! graph.
//!
//! `lex` measures the lexicographic hot path end to end — raw request
//! bytes in, rendered response bytes out — through both stacks on the
//! same body: the legacy path (JSON tree → registry dispatch into
//! RAM-backed flat arrays → solve → render) and the flat path
//! (streaming ingest into RAM-backed flat arrays → solve → render). The responses are
//! asserted byte-identical before any number is reported.

use std::fmt::Write as _;
use std::time::Instant;

use tgp_core::budget::Budget;
use tgp_graph::json::Value;
use tgp_graph::{FlatTree, FlatTreeBuilder, MemoryBacking, RamBacking};
use tgp_solvers::{ingest_flat, GraphInput, IngestBacking, Params, Registry, Request};
use tgp_store::DiskBacking;

/// 64-bit FNV-1a, the same digest the service's journals use.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// SplitMix64 — a seeded hash giving each index an independent weight
/// without holding any generator state (the graph is never stored; both
/// processes of the cross-check regenerate it from the same seed).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn node_weight(seed: u64, i: usize) -> u64 {
    1 + mix(seed ^ (i as u64)) % 100
}

fn edge_weight(seed: u64, i: usize) -> u64 {
    1 + mix(seed ^ 0x5EED ^ (i as u64)) % 1000
}

/// Parent of node `i` in the deterministic test tree — a bushy
/// caterpillar (the same shape the loadgen uploads).
fn parent_of(i: usize) -> usize {
    i - 1 - (i % 3).min(i - 1)
}

/// Peak resident set size of this process so far, in bytes, from
/// `/proc/self/status` `VmHWM`. Returns 0 off Linux.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

fn build_tree<B: MemoryBacking>(backing: B, n: usize, seed: u64) -> (FlatTree<B>, u64) {
    let mut builder = FlatTreeBuilder::new(backing, n).expect("allocate tree arrays");
    let mut total = 0u64;
    for i in 0..n {
        let w = node_weight(seed, i);
        total += w;
        builder.push_node(w).expect("push node");
        if i > 0 {
            builder
                .push_edge(parent_of(i), i, edge_weight(seed, i))
                .expect("push edge");
        }
    }
    (builder.finish().expect("valid tree"), total)
}

fn exp_oocore(backing: &str, n: usize) {
    let seed = 0x510_4EED;
    let start = Instant::now();
    let (graph, total, graph_bytes) = match backing {
        "ram" => {
            let (tree, total) = build_tree(RamBacking, n, seed);
            let bytes = tree.byte_len();
            (GraphInput::TreeRam(tree), total, bytes)
        }
        "disk" => {
            let dir = std::env::temp_dir();
            let (tree, total) = build_tree(DiskBacking::new(dir), n, seed);
            let bytes = tree.byte_len();
            (GraphInput::TreeDisk(tree), total, bytes)
        }
        other => {
            eprintln!("unknown backing {other:?} (want ram|disk)");
            std::process::exit(2);
        }
    };
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    // A component-weight cap that forces a real multi-way cut but is
    // always feasible (far above the 1..=100 node-weight alphabet).
    let bound = total / 64;
    let (_, objective) = Registry::shared().get("bottleneck").expect("registered");
    let request = Request {
        objective,
        graph,
        params: Params {
            bound: Some(bound),
            ..Params::default()
        },
    };
    let start = Instant::now();
    let response = request.run().expect("feasible bound");
    let solve_ms = start.elapsed().as_secs_f64() * 1e3;
    let body = response.value.to_string();
    let parsed = Value::parse(&body).expect("a response is JSON");
    let cut = parsed
        .get("cut")
        .and_then(Value::as_array)
        .map_or(0, Vec::len);
    println!("mode:        oocore");
    println!("backing:     {}", request.graph.backing_kind().as_str());
    println!("nodes:       {n}");
    println!("bound:       {bound}");
    println!("graph_bytes: {graph_bytes}");
    println!("pinned_heap: {}", request.graph.resident_bytes());
    println!("build_ms:    {build_ms:.0}");
    println!("solve_ms:    {solve_ms:.0}");
    println!("cut_edges:   {cut}");
    println!("resp_bytes:  {}", body.len());
    println!("checksum:    {:016x}", fnv1a(body.as_bytes()));
    println!("peak_rss:    {}", peak_rss_bytes());
}

/// The `/v1/partition` body for a deterministic n-node chain — the
/// exact bytes both stacks are fed.
fn chain_body(n: usize, seed: u64, bound: u64) -> String {
    let mut body = String::with_capacity(n * 8);
    let _ = write!(
        body,
        "{{\"objective\": \"lexicographic\", \"bound\": {bound}, \"graph\": {{\"node_weights\": ["
    );
    for i in 0..n {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{}", node_weight(seed, i));
    }
    body.push_str("], \"edge_weights\": [");
    for i in 0..n - 1 {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{}", edge_weight(seed, i));
    }
    body.push_str("]}}");
    body
}

fn exp_lex(sizes: &[usize]) {
    let registry = Registry::shared();
    let reps = 5;
    println!("## lexicographic end-to-end, bytes -> response (best of {reps})");
    println!();
    println!(
        "{:>9} {:>12} {:>11} {:>9} {:>8}",
        "n", "body_bytes", "legacy_ms", "flat_ms", "speedup"
    );
    for &n in sizes {
        let seed = 0x1E_4EED ^ n as u64;
        let total: u64 = (0..n).map(|i| node_weight(seed, i)).sum();
        let bound = total / 20;
        let body = chain_body(n, seed, bound);

        let mut legacy_best = f64::MAX;
        let mut legacy_out = String::new();
        for _ in 0..reps {
            let start = Instant::now();
            let value = Value::parse(&body).expect("valid body");
            let (_, solver, request) = registry.dispatch(&value).expect("dispatch");
            let response = solver.run(&request).expect("feasible bound");
            legacy_out = response.value.to_string();
            legacy_best = legacy_best.min(start.elapsed().as_secs_f64() * 1e3);
        }

        let mut flat_best = f64::MAX;
        let mut flat_out = String::new();
        for _ in 0..reps {
            let start = Instant::now();
            let request = ingest_flat(body.as_bytes(), &IngestBacking::Ram, &Budget::unlimited())
                .expect("within budget")
                .expect("flat-capable body");
            let response = request.run().expect("feasible bound");
            flat_out = response.value.to_string();
            flat_best = flat_best.min(start.elapsed().as_secs_f64() * 1e3);
        }

        assert_eq!(legacy_out, flat_out, "paths diverged at n = {n}");
        println!(
            "{:>9} {:>12} {:>11.1} {:>9.1} {:>7.2}x",
            n,
            body.len(),
            legacy_best,
            flat_best,
            legacy_best / flat_best
        );
    }
    println!();
    println!("responses byte-identical across both paths at every n");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("oocore") => {
            let backing = args.get(1).map_or("disk", String::as_str);
            let n = args
                .get(2)
                .map_or(1_000_000, |s| s.parse().expect("n must be a number"));
            exp_oocore(backing, n);
        }
        Some("lex") => {
            let sizes: Vec<usize> = if args.len() > 1 {
                args[1..]
                    .iter()
                    .map(|s| s.parse().expect("n must be a number"))
                    .collect()
            } else {
                vec![100_000, 1_000_000]
            };
            exp_lex(&sizes);
        }
        _ => {
            eprintln!("usage: store_experiment oocore <ram|disk> [n] | lex [n]...");
            std::process::exit(2);
        }
    }
}
