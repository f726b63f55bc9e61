//! End-to-end integration across the whole stack: partition with
//! `tgp-core`, execute on the `tgp-shmem` machine, and check that the
//! static objectives (bandwidth, bottleneck, load bound) show up as the
//! observed run-time behaviour the paper promises.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp::baselines::block::block_partition;
use tgp::core::budget::Budget;
use tgp::core::pipeline::{partition_chain, partition_tree};
use tgp::dds::generators::{johnson_counter, shift_register};
use tgp::dds::partition::{partition_circuit, partition_circuit_block};
use tgp::dds::sim::simulate_activity;
use tgp::graph::generators::{random_chain, random_tree, WeightDist};
use tgp::graph::{ChainView, TreeView, Weight};
use tgp::realtime::{admit, RealTimeTask, Strategy};
use tgp::shmem::machine::{Interconnect, Machine};
use tgp::shmem::onepass::simulate_onepass;
use tgp::shmem::pipeline::{simulate_pipeline, PipelineSpec};

fn chain(n: usize, seed: u64) -> tgp::graph::PathGraph {
    random_chain(
        n,
        WeightDist::Uniform { lo: 1, hi: 50 },
        WeightDist::Uniform { lo: 1, hi: 200 },
        &mut SmallRng::seed_from_u64(seed),
    )
}

#[test]
fn observed_bus_traffic_equals_cut_weight_per_item() {
    let path = chain(80, 1);
    let k = Weight::new(path.total_weight().get() / 5);
    let part = partition_chain(&path, k, &Budget::unlimited()).unwrap();
    let spec = PipelineSpec::from_partition(&path, &part.cut).unwrap();
    let machine = Machine::bus(part.processors).unwrap();
    let items = 37;
    let report = simulate_pipeline(&spec, &machine, items).unwrap();
    assert_eq!(
        report.total_traffic,
        part.bandwidth.get() * items as u64,
        "every item crosses every cut edge exactly once"
    );
    assert_eq!(
        report.max_link_traffic(),
        part.bottleneck.get() * items as u64
    );
}

#[test]
fn bandwidth_optimal_partition_never_does_worse_on_the_bus() {
    for seed in 0..5 {
        let path = chain(120, seed);
        let k = Weight::new(path.total_weight().get() / 8);
        let part = partition_chain(&path, k, &Budget::unlimited()).unwrap();
        let blocks = block_partition(&path, part.processors);
        let machine = Machine::bus(part.processors.max(16)).unwrap();
        let smart = simulate_pipeline(
            &PipelineSpec::from_partition(&path, &part.cut).unwrap(),
            &machine,
            100,
        )
        .unwrap();
        let naive = simulate_pipeline(
            &PipelineSpec::from_partition(&path, &blocks).unwrap(),
            &machine,
            100,
        )
        .unwrap();
        assert!(
            smart.total_traffic <= naive.total_traffic,
            "seed {seed}: smart {} vs naive {}",
            smart.total_traffic,
            naive.total_traffic
        );
    }
}

#[test]
fn tree_partition_executes_within_expected_makespan_bounds() {
    for seed in 0..5 {
        let tree = random_tree(
            200,
            WeightDist::Uniform { lo: 1, hi: 50 },
            WeightDist::Uniform { lo: 1, hi: 200 },
            &mut SmallRng::seed_from_u64(seed),
        );
        let k = Weight::new(tree.total_weight().get() / 6);
        let part = partition_tree(&tree, k).unwrap();
        let machine = Machine::bus(part.processors).unwrap();
        let report = simulate_onepass(&tree, &part.cut, &machine).unwrap();
        // Lower bound: the heaviest component must compute.
        let max_comp = part.components.max_weight().get();
        assert!(report.makespan >= max_comp);
        // Upper bound on a unit-speed unit-bandwidth bus: compute plus
        // fully serialized traffic.
        assert!(report.makespan <= max_comp + part.bandwidth.get());
        assert_eq!(report.total_traffic, part.bandwidth.get());
    }
}

#[test]
fn crossbar_is_never_slower_than_the_bus() {
    let tree = random_tree(
        300,
        WeightDist::Uniform { lo: 1, hi: 20 },
        WeightDist::Uniform { lo: 1, hi: 500 },
        &mut SmallRng::seed_from_u64(7),
    );
    let k = Weight::new(tree.total_weight().get() / 10);
    let part = partition_tree(&tree, k).unwrap();
    let p = part.processors;
    let bus = simulate_onepass(&tree, &part.cut, &Machine::bus(p).unwrap()).unwrap();
    let xbar = simulate_onepass(
        &tree,
        &part.cut,
        &Machine::new(p, 1, 1, 0, Interconnect::Crossbar).unwrap(),
    )
    .unwrap();
    assert!(xbar.makespan <= bus.makespan);
    assert_eq!(xbar.total_traffic, bus.total_traffic);
}

#[test]
fn realtime_workflow_meets_its_deadline_groups() {
    let durations = [6u64, 9, 4, 7, 3, 8, 5, 9, 2, 6, 7, 4];
    let dep_costs = [20u64, 3, 45, 12, 9, 30, 2, 25, 14, 5, 18];
    let task = RealTimeTask::new(&durations, &dep_costs, Weight::new(18)).unwrap();
    for strategy in [Strategy::MinBandwidth, Strategy::MinBottleneck] {
        let part = task.partition(strategy).unwrap();
        assert!(part.groups.iter().all(|g| g.weight <= Weight::new(18)));
        let machine = Machine::bus(part.processors).unwrap();
        let report = admit(&task, &part, &machine, 25).unwrap();
        assert_eq!(report.items, 25);
        assert_eq!(
            report.total_traffic,
            part.bandwidth.get() * 25,
            "{strategy:?}"
        );
    }
}

#[test]
fn dds_flow_produces_balanced_local_partitions() {
    for circuit in [shift_register(60).unwrap(), johnson_counter(40).unwrap()] {
        let profile = simulate_activity(&circuit, 300, &mut SmallRng::seed_from_u64(3));
        let total: u64 = profile.evaluations.iter().map(|e| e + 1).sum();
        let bound = total / 3;
        let part = partition_circuit(&circuit, &profile, Weight::new(bound)).unwrap();
        assert!(part.max_load() <= bound);
        // The algorithm should never lose to the blind block split at the
        // same processor count on these linear/circular circuits.
        let block = partition_circuit_block(&circuit, &profile, part.processors);
        assert!(part.inter_messages <= block.inter_messages);
    }
}
