//! Experiment A4.1 — the paper's headline runtime claim.
//!
//! Benches the four bandwidth-minimization solvers across chain sizes and
//! `K` regimes: the TEMP_S `O(n + p log q)` algorithm must never lose to
//! the Nicol-style `O(n log n)` baseline, with the margin widest at small
//! and large `K` (few/light prime subpaths), matching Figure 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tgp_baselines::nicol::nicol_bandwidth_cut;
use tgp_bench::chain_instance;
use tgp_core::bandwidth::{
    analyze_bandwidth_with, min_bandwidth_cut, min_bandwidth_cut_naive, min_bandwidth_cut_window,
    MergeSearch,
};
use tgp_core::budget::Budget;
use tgp_graph::{ChainView, PathGraph, Weight};

fn regimes(path: &PathGraph) -> [(&'static str, Weight); 3] {
    let lo = path.max_node_weight().get();
    let hi = path.total_weight().get();
    [
        ("tight", Weight::new(lo + (hi - lo) / 1000)),
        ("medium", Weight::new(lo + (hi - lo) / 20)),
        ("loose", Weight::new(lo + (hi - lo) / 2)),
    ]
}

fn bench_bandwidth(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandwidth");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for n in [10_000usize, 100_000] {
        let path = chain_instance(n, 1, 100, 0xA41 + n as u64);
        for (regime, k) in regimes(&path) {
            let id = format!("n{n}/{regime}");
            group.bench_function(BenchmarkId::new("temps", &id), |b| {
                b.iter(|| min_bandwidth_cut(black_box(&path), black_box(k)).unwrap())
            });
            group.bench_function(BenchmarkId::new("temps_gallop", &id), |b| {
                // Ablation: the paper's §2.3.2 future-work search policy.
                let budget = Budget::unlimited();
                b.iter(|| {
                    analyze_bandwidth_with(
                        black_box(&path),
                        black_box(k),
                        MergeSearch::Gallop,
                        &budget,
                    )
                    .unwrap()
                })
            });
            group.bench_function(BenchmarkId::new("nicol", &id), |b| {
                b.iter(|| nicol_bandwidth_cut(black_box(&path), black_box(k)).unwrap())
            });
            group.bench_function(BenchmarkId::new("window", &id), |b| {
                b.iter(|| min_bandwidth_cut_window(black_box(&path), black_box(k)).unwrap())
            });
            group.bench_function(BenchmarkId::new("naive", &id), |b| {
                b.iter(|| min_bandwidth_cut_naive(black_box(&path), black_box(k)).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bandwidth);
criterion_main!(benches);
