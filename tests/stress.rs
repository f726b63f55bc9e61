//! Large-scale stress tests, `#[ignore]`d by default. Run with
//! `cargo test --release --test stress -- --ignored`.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp::baselines::nicol::nicol_bandwidth_cut;
use tgp::core::bandwidth::{analyze_bandwidth, min_bandwidth_cut_window};
use tgp::core::pipeline::partition_tree;
use tgp::core::procmin::proc_min;
use tgp::graph::generators::{random_chain, random_tree, WeightDist};
use tgp::graph::{ChainView, TreeView, Weight};

const DIST: WeightDist = WeightDist::Uniform { lo: 1, hi: 100 };
const EDGE: WeightDist = WeightDist::Uniform { lo: 1, hi: 1000 };

#[test]
#[ignore = "multi-second large-scale run"]
fn five_million_node_chain_partitions_correctly() {
    let n = 5_000_000;
    let chain = random_chain(n, DIST, EDGE, &mut SmallRng::seed_from_u64(1));
    let k = Weight::new(chain.total_weight().get() / 1000);
    let (cut, stats) = analyze_bandwidth(&chain, k).unwrap();
    assert!(chain.is_feasible_cut(&cut, k).unwrap());
    assert!(stats.p > 0);
    // Cross-check against the independent O(n) DP at this scale.
    let reference = min_bandwidth_cut_window(&chain, k).unwrap();
    assert_eq!(
        chain.cut_weight(&cut).unwrap(),
        chain.cut_weight(&reference).unwrap()
    );
    // And the external baseline.
    let baseline = nicol_bandwidth_cut(&chain, k).unwrap();
    assert_eq!(
        chain.cut_weight(&cut).unwrap(),
        chain.cut_weight(&baseline).unwrap()
    );
}

#[test]
#[ignore = "multi-second large-scale run"]
fn two_million_node_tree_pipeline() {
    let n = 2_000_000;
    let tree = random_tree(n, DIST, EDGE, &mut SmallRng::seed_from_u64(2));
    let k = Weight::new(tree.total_weight().get() / 256);
    let part = partition_tree(&tree, k).unwrap();
    assert!(part.components.is_feasible(k));
    assert_eq!(part.processors, part.cut.len() + 1);
    // Deep-tree safety: procmin alone as well.
    let pm = proc_min(&tree, k).unwrap();
    assert!(pm.component_count <= part.processors + part.cut.len() + 1);
}

#[test]
#[ignore = "multi-second large-scale run"]
fn degenerate_deep_path_tree_at_scale() {
    // A pure path as a tree: maximal recursion depth risk.
    let n = 1_000_000;
    let nodes = vec![1u64; n];
    let edges: Vec<(usize, usize, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
    let tree = tgp::graph::Tree::from_raw(&nodes, &edges).unwrap();
    let r = proc_min(&tree, Weight::new(1000)).unwrap();
    assert_eq!(r.component_count, n.div_ceil(1000));
}
