//! Experiment A2.2 — Algorithm 2.2 scaling.
//!
//! Both implementations are O(n log n); the bench shows their constants
//! on random trees plus the star and caterpillar shapes that stress the
//! leaf-sorting step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp_bench::tree_instance;
use tgp_core::procmin::{proc_min, proc_min_paper};
use tgp_graph::generators::{caterpillar, star, WeightDist};
use tgp_graph::{TreeView, Weight};

fn bench_procmin(c: &mut Criterion) {
    let mut group = c.benchmark_group("procmin");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for n in [1_000usize, 10_000, 100_000] {
        let tree = tree_instance(n, 1, 100, 0xA22 + n as u64);
        let k = Weight::new(tree.total_weight().get() / 64 + tree.max_node_weight().get());
        group.bench_function(BenchmarkId::new("postorder", n), |b| {
            b.iter(|| proc_min(black_box(&tree), black_box(k)).unwrap())
        });
        group.bench_function(BenchmarkId::new("worklist", n), |b| {
            b.iter(|| proc_min_paper(black_box(&tree), black_box(k)).unwrap())
        });
    }
    // Shape stress: a star (one giant leaf sort) and a caterpillar.
    let dist = WeightDist::Uniform { lo: 1, hi: 100 };
    let mut rng = SmallRng::seed_from_u64(0x5A);
    let star_tree = star(100_000, dist, dist, &mut rng);
    let k = Weight::new(star_tree.total_weight().get() / 32);
    group.bench_function("postorder/star100k", |b| {
        b.iter(|| proc_min(black_box(&star_tree), black_box(k)).unwrap())
    });
    let cat = caterpillar(10_000, 9, dist, dist, &mut rng);
    let k = Weight::new(cat.total_weight().get() / 32);
    group.bench_function("postorder/caterpillar100k", |b| {
        b.iter(|| proc_min(black_box(&cat), black_box(k)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_procmin);
criterion_main!(benches);
