//! Experiment A2.1 — Algorithm 2.1 scaling.
//!
//! The literal paper implementation re-checks all components after every
//! edge insertion (O(n²)); the optimized union-find sweep is O(n log n).
//! Outputs are identical; only the constants and growth rates differ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tgp_bench::tree_instance;
use tgp_core::bottleneck::{min_bottleneck_cut, min_bottleneck_cut_paper};
use tgp_graph::{TreeView, Weight};

fn bench_bottleneck(c: &mut Criterion) {
    let mut group = c.benchmark_group("bottleneck");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for n in [1_000usize, 10_000, 100_000] {
        let tree = tree_instance(n, 1, 100, 0xA21 + n as u64);
        let k = Weight::new(tree.total_weight().get() / 10);
        group.bench_function(BenchmarkId::new("optimized", n), |b| {
            b.iter(|| min_bottleneck_cut(black_box(&tree), black_box(k)).unwrap())
        });
        if n <= 1_000 {
            group.bench_function(BenchmarkId::new("paper", n), |b| {
                b.iter(|| min_bottleneck_cut_paper(black_box(&tree), black_box(k)).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bottleneck);
criterion_main!(benches);
