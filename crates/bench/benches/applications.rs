//! Experiments F1/F3/APP — the Section 3 applications end to end.
//!
//! Times the composed tree pipeline (bottleneck → contraction →
//! processor minimization), the Theorem 1 star solver, the DDS circuit
//! partitioner, and the shared-memory pipeline simulation itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp_bench::{chain_instance, tree_instance};
use tgp_core::approx::{partition_process_graph, ApproxMethod};
use tgp_core::budget::Budget;
use tgp_core::knapsack::{knapsack_to_star, min_star_bandwidth_cut, KnapsackInstance};
use tgp_core::pipeline::{partition_chain, partition_tree};
use tgp_core::tree_bandwidth::min_tree_bandwidth_cut;
use tgp_dds::generators::shift_register;
use tgp_dds::partition::partition_circuit;
use tgp_dds::sim::simulate_activity;
use tgp_graph::{ChainView, TreeView, Weight};
use tgp_shmem::machine::Machine;
use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec};

fn bench_applications(c: &mut Criterion) {
    let mut group = c.benchmark_group("applications");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    // Composed tree workflow (F1 machinery at scale).
    for n in [10_000usize, 100_000] {
        let tree = tree_instance(n, 1, 100, 0xF1 + n as u64);
        let k = Weight::new(tree.total_weight().get() / 32);
        group.bench_function(BenchmarkId::new("partition_tree", n), |b| {
            b.iter(|| partition_tree(black_box(&tree), black_box(k)).unwrap())
        });
    }

    // Exact pseudo-polynomial tree bandwidth (Theorem 1's counterpart).
    let tbw_tree = tree_instance(500, 1, 20, 0x7B0);
    let tbw_k = Weight::new(tbw_tree.total_weight().get() / 16);
    group.bench_function("tree_bandwidth_exact/500", |b| {
        b.iter(|| min_tree_bandwidth_cut(black_box(&tbw_tree), black_box(tbw_k)).unwrap())
    });

    // General process-graph approximation (the conclusion's proposal).
    let ring = {
        use tgp_graph::generators::{ring_process_graph, WeightDist};
        let mut rng = SmallRng::seed_from_u64(0xA9);
        ring_process_graph(
            512,
            WeightDist::Uniform { lo: 1, hi: 20 },
            WeightDist::Uniform { lo: 1, hi: 50 },
            &mut rng,
        )
    };
    let ring_k = Weight::new(ring.total_weight().get() / 8);
    for method in [ApproxMethod::LinearIdentity, ApproxMethod::SpanningTree] {
        group.bench_function(
            BenchmarkId::new("approx_ring512", format!("{method:?}")),
            |b| {
                b.iter(|| {
                    partition_process_graph(black_box(&ring), black_box(ring_k), method).unwrap()
                })
            },
        );
    }

    // Theorem 1 star solver (pseudo-polynomial knapsack DP).
    let mut rng = SmallRng::seed_from_u64(0x71);
    let inst = {
        use rand::Rng;
        let weights: Vec<u64> = (0..200).map(|_| rng.gen_range(1..50)).collect();
        let profits: Vec<u64> = (0..200).map(|_| rng.gen_range(1..100)).collect();
        KnapsackInstance::new(weights, profits, 2_000)
    };
    let star = knapsack_to_star(&inst);
    group.bench_function("star_bandwidth/200_leaves", |b| {
        b.iter(|| min_star_bandwidth_cut(black_box(&star), black_box(Weight::new(2_000))).unwrap())
    });

    // DDS: partition a measured 2000-stage shift register.
    let circuit = shift_register(2_000).expect("generator is valid");
    let profile = simulate_activity(&circuit, 200, &mut SmallRng::seed_from_u64(2));
    let total: u64 = profile.evaluations.iter().map(|e| e + 1).sum();
    group.bench_function("dds_partition/shift2000", |b| {
        b.iter(|| {
            partition_circuit(
                black_box(&circuit),
                black_box(&profile),
                Weight::new(total / 8),
            )
            .unwrap()
        })
    });

    // Shared-memory pipeline simulation throughput (F3 at scale).
    let chain = chain_instance(256, 1, 100, 0xF3);
    let k = Weight::new(chain.total_weight().get() / 12);
    let part = partition_chain(&chain, k, &Budget::unlimited()).expect("feasible bound");
    let spec = PipelineSpec::from_partition(&chain, &part.cut).expect("valid partition");
    let machine = Machine::bus(part.processors.max(16)).expect("valid machine");
    group.bench_function("shmem_pipeline/256x500items", |b| {
        b.iter(|| simulate_pipeline(black_box(&spec), black_box(&machine), 500).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_applications);
criterion_main!(benches);
