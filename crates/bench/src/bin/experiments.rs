//! Runs every experiment of the reproduction and prints the tables that
//! EXPERIMENTS.md records: algorithm runtimes (wall clock), output
//! cross-checks, and application-level quality numbers.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tgp-bench --bin experiments
//! ```

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp_baselines::block::block_partition;
use tgp_baselines::bokhari::bokhari_partition;
use tgp_baselines::hansen_lih::hansen_lih_partition;
use tgp_baselines::nicol::nicol_bandwidth_cut;
use tgp_bench::{chain_instance, tree_instance};
use tgp_core::bandwidth::{analyze_bandwidth, min_bandwidth_cut_naive, min_bandwidth_cut_window};
use tgp_core::bottleneck::{min_bottleneck_cut, min_bottleneck_cut_paper};
use tgp_core::knapsack::{knapsack_to_star, min_star_bandwidth_cut, KnapsackInstance};
use tgp_core::procmin::{proc_min, proc_min_paper};
use tgp_dds::generators::{johnson_counter, random_layered, shift_register};
use tgp_dds::partition::{partition_circuit, partition_circuit_block};
use tgp_dds::sim::simulate_activity;
use tgp_graph::{ChainView, PathGraph, TreeView, Weight};
use tgp_realtime::{admit, RealTimeTask, Strategy};
use tgp_shmem::machine::Machine;
use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec};

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// K values for the three regimes of a chain: tight (many primes), medium,
/// loose (few primes).
fn regimes(path: &PathGraph) -> [(&'static str, Weight); 3] {
    let lo = path.max_node_weight().get();
    let hi = path.total_weight().get();
    [
        ("tight", Weight::new(lo + (hi - lo) / 1000)),
        ("medium", Weight::new(lo + (hi - lo) / 20)),
        ("loose", Weight::new(lo + (hi - lo) / 2)),
    ]
}

fn exp_bandwidth_runtime() {
    println!("## A4.1 — bandwidth minimization runtime (ms), chains with α ~ U[1,100]");
    println!();
    println!(
        "{:>8} {:>8} {:>8} {:>8.8} {:>10} {:>10} {:>10} {:>10}",
        "n", "regime", "p", "q", "temps", "nicol", "window", "naive"
    );
    for n in [10_000usize, 100_000, 1_000_000] {
        let path = chain_instance(n, 1, 100, 0xA41 + n as u64);
        for (name, k) in regimes(&path) {
            let ((cut_t, stats), t_temps) = time(|| analyze_bandwidth(&path, k).unwrap());
            let (cut_n, t_nicol) = time(|| nicol_bandwidth_cut(&path, k).unwrap());
            let (cut_w, t_window) = time(|| min_bandwidth_cut_window(&path, k).unwrap());
            let w = |c: &tgp_graph::CutSet| path.cut_weight(c).unwrap();
            assert_eq!(w(&cut_t), w(&cut_n));
            assert_eq!(w(&cut_t), w(&cut_w));
            // The naive O(np) recurrence becomes impractical at n = 10⁶
            // with loose K (q ~ 16 000): cap it, that cliff is the point.
            let t_naive = if n <= 100_000 || name == "tight" {
                let (cut_v, t) = time(|| min_bandwidth_cut_naive(&path, k).unwrap());
                assert_eq!(w(&cut_t), w(&cut_v));
                format!("{t:.2}")
            } else {
                "(skipped)".to_string()
            };
            println!(
                "{:>8} {:>8} {:>8} {:>8.2} {:>10.2} {:>10.2} {:>10.2} {:>10}",
                n, name, stats.p, stats.q_bar, t_temps, t_nicol, t_window, t_naive
            );
        }
    }
    println!();
}

fn exp_bottleneck_runtime() {
    println!("## A2.1 — bottleneck minimization (trees): optimized vs paper O(n²) (ms)");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "n", "optimized", "paper", "equal?"
    );
    for n in [500usize, 1_000, 2_000, 4_000] {
        let t = tree_instance(n, 1, 100, 0xA21 + n as u64);
        let k = Weight::new(t.total_weight().get() / 10);
        let (fast, t_fast) = time(|| min_bottleneck_cut(&t, k).unwrap());
        let (paper, t_paper) = time(|| min_bottleneck_cut_paper(&t, k).unwrap());
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>10}",
            n,
            t_fast,
            t_paper,
            fast == paper
        );
    }
    for n in [100_000usize, 1_000_000] {
        let t = tree_instance(n, 1, 100, 0xA21 + n as u64);
        let k = Weight::new(t.total_weight().get() / 10);
        let (_, t_fast) = time(|| min_bottleneck_cut(&t, k).unwrap());
        println!("{:>8} {:>12.2} {:>12} {:>10}", n, t_fast, "-", "-");
    }
    println!();
}

fn exp_procmin_runtime() {
    println!("## A2.2 — processor minimization (trees): post-order vs paper work-list (ms)");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "n", "postorder", "worklist", "components", "equal?"
    );
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let t = tree_instance(n, 1, 100, 0xA22 + n as u64);
        let k = Weight::new(t.total_weight().get() / 64 + t.max_node_weight().get());
        let (a, t_a) = time(|| proc_min(&t, k).unwrap());
        let (b, t_b) = time(|| proc_min_paper(&t, k).unwrap());
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12} {:>10}",
            n,
            t_a,
            t_b,
            a.component_count,
            a.component_count == b.component_count
        );
    }
    println!();
}

fn exp_coc_runtime() {
    println!("## COC — chains-on-chains bottleneck: Bokhari O(n²m) vs probe (ms)");
    println!();
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "n", "m", "bokhari", "probe", "bottleneck", "equal?"
    );
    for (n, m) in [(256usize, 8usize), (1_024, 8), (1_024, 32), (4_096, 16)] {
        let path = chain_instance(n, 1, 100, 0xC0C + n as u64);
        let (a, t_a) = time(|| bokhari_partition(&path, m).unwrap());
        let (b, t_b) = time(|| hansen_lih_partition(&path, m).unwrap());
        println!(
            "{:>8} {:>6} {:>12.2} {:>12.2} {:>12} {:>10}",
            n,
            m,
            t_a,
            t_b,
            a.bottleneck,
            a.bottleneck == b.bottleneck
        );
    }
    println!();
}

fn exp_host_satellite() {
    println!("## HS — Bokhari's host-satellite tree partitioning (cited in §1 as the polynomial tree case)");
    println!();
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12}",
        "n", "m", "bottleneck", "satellites", "time (ms)"
    );
    use tgp_baselines::host_satellite::host_satellite_partition;
    use tgp_graph::NodeId;
    for (n, m) in [
        (200usize, 2usize),
        (200, 4),
        (200, 8),
        (2_000, 8),
        (2_000, 16),
    ] {
        let tree = tree_instance(n, 1, 100, 0x405 + n as u64);
        let (r, ms) = time(|| host_satellite_partition(&tree, NodeId::new(0), m).unwrap());
        println!(
            "{:>8} {:>6} {:>12} {:>12} {:>12.2}",
            n, m, r.bottleneck, r.satellites, ms
        );
    }
    println!();
}

fn exp_hetero() {
    println!("## HET — Bokhari's non-homogeneous processors (chain onto a mixed-speed array)");
    println!();
    use tgp_baselines::hetero::{hetero_partition, HeteroArray};
    let path = chain_instance(512, 1, 100, 0x4E7);
    println!("{:>24} {:>12} {:>12}", "speeds", "bottleneck", "time (ms)");
    for speeds in [
        vec![1u64; 8],
        vec![4, 4, 1, 1, 1, 1, 1, 1],
        vec![8, 1, 1, 1, 1, 1, 1, 1],
    ] {
        let array = HeteroArray::new(speeds.clone());
        let (r, ms) = time(|| hetero_partition(&path, &array).unwrap());
        println!(
            "{:>24} {:>12} {:>12.2}",
            format!("{speeds:?}"),
            r.bottleneck,
            ms
        );
    }
    println!();
}

fn exp_theorem1() {
    println!("## T1 — Theorem 1 reduction round-trip (knapsack ⟷ star cut)");
    println!();
    let inst = KnapsackInstance::new(vec![6, 5, 9, 3, 4], vec![10, 3, 14, 2, 7], 12);
    let star = knapsack_to_star(&inst);
    let packing = inst.solve();
    let cut = min_star_bandwidth_cut(&star, Weight::new(12)).unwrap();
    let cut_weight = star.cut_weight(&cut).unwrap().get();
    println!("items (w, p): (6,10) (5,3) (9,14) (3,2) (4,7); capacity 12");
    println!("optimal packing profit      : {}", packing.profit);
    println!(
        "total profit − cut weight   : {}",
        inst.total_profit() - cut_weight
    );
    assert_eq!(packing.profit, inst.total_profit() - cut_weight);
    println!("round-trip identity holds   : true");
    println!();
}

fn exp_figure1() {
    println!("## F1 — Algorithm 2.2 walkthrough (Figure 1 style tree)");
    println!();
    // A spine with leaf clusters, as in the paper's worked example.
    let t = tgp_graph::Tree::from_raw(
        &[2, 3, 2, 4, 5, 6, 7],
        &[
            (0, 1, 1),
            (1, 2, 1),
            (0, 3, 1),
            (0, 4, 1),
            (2, 5, 1),
            (2, 6, 1),
        ],
    )
    .unwrap();
    for k in [29u64, 15, 9] {
        let r = proc_min(&t, Weight::new(k)).unwrap();
        println!(
            "K = {k:>2}: {} component(s), cut = {:?}",
            r.component_count,
            r.cut.as_slice()
        );
    }
    println!();
}

fn exp_tree_bandwidth_gap() {
    println!("## TBW — exact pseudo-polynomial tree bandwidth vs the heuristic pipeline");
    println!();
    use tgp_core::pipeline::partition_tree;
    use tgp_core::tree_bandwidth::min_tree_bandwidth_cut;
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>8} {:>12}",
        "n", "K", "exact β(S)", "pipeline", "gap", "exact ms"
    );
    for (n, kdiv) in [(200usize, 8u64), (200, 16), (1_000, 16), (1_000, 32)] {
        let t = tree_instance(n, 1, 20, 0x7B + n as u64);
        let k = Weight::new(t.total_weight().get() / kdiv + t.max_node_weight().get());
        let (exact, ms) = time(|| min_tree_bandwidth_cut(&t, k).unwrap());
        let heuristic = partition_tree(&t, k).unwrap();
        let ew = t.cut_weight(&exact).unwrap().get();
        let hw = heuristic.bandwidth.get();
        println!(
            "{:>8} {:>8} {:>12} {:>12} {:>7.2}x {:>12.2}",
            n,
            k,
            ew,
            hw,
            hw as f64 / ew.max(1) as f64,
            ms
        );
    }
    println!();
}

fn exp_approx_methods() {
    println!("## APX — general process graphs: linear vs tree super-graph approximations");
    println!();
    use tgp_core::approx::{partition_process_graph, ApproxMethod};
    use tgp_graph::generators::{ring_process_graph, WeightDist};
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "graph", "linear-id", "linear-bfs", "span-tree"
    );
    let mut rng = SmallRng::seed_from_u64(0xA9C);
    let dist = WeightDist::Uniform { lo: 1, hi: 20 };
    let ring = ring_process_graph(64, dist, WeightDist::Uniform { lo: 1, hi: 50 }, &mut rng);
    let k = Weight::new(ring.total_weight().get() / 6);
    let row = |name: &str, g: &tgp_graph::ProcessGraph, k: Weight| {
        let costs: Vec<String> = ApproxMethod::ALL
            .iter()
            .map(|&m| {
                partition_process_graph(g, k, m)
                    .map(|p| format!("{} ({}p)", p.cut_weight.get(), p.parts))
                    .unwrap_or_else(|_| "-".into())
            })
            .collect();
        println!(
            "{:<22} {:>12} {:>12} {:>12}",
            name, costs[0], costs[1], costs[2]
        );
    };
    row("ring(64)", &ring, k);
    // A heavy random tree plus light chords: the spanning tree recovers
    // the underlying tree exactly, so the tree route should win.
    use rand::Rng;
    let n = 48usize;
    let mut edges: Vec<(usize, usize, u64)> = (1..n)
        .map(|i| (rng.gen_range(0..i), i, rng.gen_range(50..100)))
        .collect();
    for _ in 0..24 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edges.push((a, b, 1));
        }
    }
    let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
    let tree_plus = tgp_graph::ProcessGraph::from_raw(&nodes, &edges).unwrap();
    let k2 = Weight::new(tree_plus.total_weight().get() / 5);
    row("heavy-tree+chords(48)", &tree_plus, k2);
    println!();
}

fn exp_dds_quality() {
    println!("## APP-DDS — circuit partition quality: paper algorithm vs naive block split");
    println!();
    println!(
        "{:<24} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "circuit", "procs", "inter(alg)", "inter(blk)", "loc(alg)", "loc(blk)"
    );
    let mut rng = SmallRng::seed_from_u64(0xDD5);
    let circuits: Vec<(&str, tgp_dds::Circuit)> = vec![
        ("shift_register(200)", shift_register(200).unwrap()),
        ("johnson_counter(100)", johnson_counter(100).unwrap()),
        (
            "random_layered(16x12)",
            random_layered(16, 12, &mut rng).unwrap(),
        ),
    ];
    for (name, c) in circuits {
        let profile = simulate_activity(&c, 400, &mut SmallRng::seed_from_u64(1));
        let total: u64 = profile.evaluations.iter().map(|e| e + 1).sum();
        let bound = total / 4 + total / 16;
        let smart = partition_circuit(&c, &profile, Weight::new(bound)).unwrap();
        let block = partition_circuit_block(&c, &profile, smart.processors);
        println!(
            "{:<24} {:>6} {:>12} {:>12} {:>10.3} {:>10.3}",
            name,
            smart.processors,
            smart.inter_messages,
            block.inter_messages,
            smart.locality(),
            block.locality()
        );
    }
    println!();
}

fn exp_realtime_and_shmem() {
    println!("## F3/APP-RT — real-time pipeline on a bus machine: algorithm vs block split");
    println!();
    let n = 64;
    let path = chain_instance(n, 1, 100, 0xF3);
    let durations: Vec<u64> = path.node_weights().map(Weight::get).collect();
    let deps: Vec<u64> = path.edge_weights().map(Weight::get).collect();
    let deadline = Weight::new(path.total_weight().get() / 6);
    let task = RealTimeTask::new(&durations, &deps, deadline).unwrap();
    let part = task.partition(Strategy::MinBandwidth).unwrap();
    let machine = Machine::bus(part.processors.max(8)).unwrap();
    let report = admit(&task, &part, &machine, 200).unwrap();
    let block_cut = block_partition(task.chain(), part.processors);
    let block_spec = PipelineSpec::from_partition(task.chain(), &block_cut).unwrap();
    let block_report = simulate_pipeline(&block_spec, &machine, 200).unwrap();
    println!("deadline K                  : {}", deadline);
    println!("processors (algorithm)      : {}", part.processors);
    println!(
        "cut weight alg vs block     : {} vs {}",
        part.bandwidth,
        task.chain().cut_weight(&block_cut).unwrap()
    );
    println!(
        "bus makespan alg vs block   : {} vs {}",
        report.makespan, block_report.makespan
    );
    println!(
        "bus utilization alg vs block: {:.3} vs {:.3}",
        report.interconnect_utilization(),
        block_report.interconnect_utilization()
    );
    println!("{}", part.render());
}

fn main() {
    println!("# tgp experiments — all figures and claims");
    println!();
    exp_bandwidth_runtime();
    exp_bottleneck_runtime();
    exp_procmin_runtime();
    exp_coc_runtime();
    exp_host_satellite();
    exp_hetero();
    exp_theorem1();
    exp_tree_bandwidth_gap();
    exp_approx_methods();
    exp_figure1();
    exp_dds_quality();
    exp_realtime_and_shmem();
}
