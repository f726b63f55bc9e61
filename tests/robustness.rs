//! Failure injection and boundary-condition tests across the stack:
//! extreme weights, degenerate graphs, exact-boundary bounds, and
//! determinism guarantees.

use tgp::core::bandwidth::{analyze_bandwidth, min_bandwidth_cut};
use tgp::core::bottleneck::min_bottleneck_cut;
use tgp::core::budget::Budget;
use tgp::core::pipeline::{partition_chain, partition_tree};
use tgp::core::procmin::proc_min;
use tgp::core::PartitionError;
use tgp::graph::{ChainView, GraphError, PathGraph, Tree, Weight};

#[test]
fn weight_overflow_is_rejected_at_construction() {
    assert_eq!(
        PathGraph::from_raw(&[u64::MAX, 2], &[1]),
        Err(GraphError::WeightOverflow)
    );
    assert_eq!(
        Tree::from_raw(&[u64::MAX - 1, 2], &[(0, 1, 1)]),
        Err(GraphError::WeightOverflow)
    );
}

#[test]
fn huge_but_valid_weights_work() {
    // The crate-wide budget: all weights together must stay below
    // u64::MAX. Values near that budget must work without overflow.
    let big = u64::MAX / 8;
    let p = PathGraph::from_raw(&[big, big, big], &[2 * big, 2 * big]).unwrap();
    // K below the pair sum forces isolating cuts.
    let cut = min_bandwidth_cut(&p, Weight::new(big)).unwrap();
    assert_eq!(cut.len(), 2);
    assert_eq!(p.cut_weight(&cut).unwrap(), Weight::new(4 * big));
    // K above the total allows the empty cut.
    let cut = min_bandwidth_cut(&p, Weight::new(3 * big)).unwrap();
    assert!(cut.is_empty());
}

#[test]
fn combined_weight_budget_is_enforced() {
    // Node weights alone fit u64, but nodes + edges together do not:
    // construction must reject rather than let a DP overflow later.
    let big = u64::MAX / 4;
    assert_eq!(
        PathGraph::from_raw(&[big, big, big], &[u64::MAX, u64::MAX]),
        Err(GraphError::WeightOverflow)
    );
    assert_eq!(
        Tree::from_raw(&[big, big], &[(0, 1, u64::MAX)]),
        Err(GraphError::WeightOverflow)
    );
}

#[test]
fn bound_exactly_at_max_vertex_weight_is_feasible() {
    let p = PathGraph::from_raw(&[7, 3, 7], &[1, 1]).unwrap();
    let cut = min_bandwidth_cut(&p, Weight::new(7)).unwrap();
    assert!(p.is_feasible_cut(&cut, Weight::new(7)).unwrap());
    // One unit below is infeasible.
    assert!(matches!(
        min_bandwidth_cut(&p, Weight::new(6)),
        Err(PartitionError::BoundTooSmall { .. })
    ));
}

#[test]
fn bound_exactly_at_total_weight_needs_no_cut() {
    let p = PathGraph::from_raw(&[2, 3, 4], &[9, 9]).unwrap();
    assert!(min_bandwidth_cut(&p, Weight::new(9)).unwrap().is_empty());
    let t = Tree::from_raw(&[2, 3, 4], &[(0, 1, 9), (1, 2, 9)]).unwrap();
    assert!(min_bottleneck_cut(&t, Weight::new(9))
        .unwrap()
        .cut
        .is_empty());
    assert!(proc_min(&t, Weight::new(9)).unwrap().cut.is_empty());
}

#[test]
fn zero_weight_edges_make_free_cuts() {
    let p = PathGraph::from_raw(&[5, 5, 5, 5], &[0, 0, 0]).unwrap();
    let part = partition_chain(&p, Weight::new(10), &Budget::unlimited()).unwrap();
    assert_eq!(part.bandwidth, Weight::ZERO);
    assert!(part.segments.iter().all(|s| s.weight <= Weight::new(10)));
}

#[test]
fn zero_weight_vertices_are_legal() {
    let p = PathGraph::from_raw(&[0, 0, 0], &[5, 5]).unwrap();
    let cut = min_bandwidth_cut(&p, Weight::new(0)).unwrap();
    assert!(cut.is_empty(), "all-zero chain fits any bound");
    let t = Tree::from_raw(&[0, 9, 0], &[(0, 1, 1), (1, 2, 1)]).unwrap();
    let r = proc_min(&t, Weight::new(9)).unwrap();
    assert_eq!(r.component_count, 1);
}

#[test]
fn all_equal_weights_have_deterministic_output() {
    let p = PathGraph::from_raw(&[4; 9], &[7; 8]).unwrap();
    let a = min_bandwidth_cut(&p, Weight::new(8)).unwrap();
    let b = min_bandwidth_cut(&p, Weight::new(8)).unwrap();
    assert_eq!(a, b);
    let t = Tree::from_raw(&[4, 4, 4, 4], &[(0, 1, 7), (0, 2, 7), (0, 3, 7)]).unwrap();
    let r1 = partition_tree(&t, Weight::new(8)).unwrap();
    let r2 = partition_tree(&t, Weight::new(8)).unwrap();
    assert_eq!(r1.cut, r2.cut);
}

#[test]
fn single_node_graphs_work_everywhere() {
    let p = PathGraph::from_raw(&[5], &[]).unwrap();
    assert!(min_bandwidth_cut(&p, Weight::new(5)).unwrap().is_empty());
    let (cut, stats) = analyze_bandwidth(&p, Weight::new(5)).unwrap();
    assert!(cut.is_empty());
    assert_eq!(stats.p, 0);
    let t = Tree::from_raw(&[5], &[]).unwrap();
    assert!(min_bottleneck_cut(&t, Weight::new(5))
        .unwrap()
        .cut
        .is_empty());
    assert_eq!(proc_min(&t, Weight::new(5)).unwrap().component_count, 1);
    let part = partition_tree(&t, Weight::new(5)).unwrap();
    assert_eq!(part.processors, 1);
}

#[test]
fn error_messages_name_the_offender() {
    let p = PathGraph::from_raw(&[1, 99, 1], &[1, 1]).unwrap();
    let err = min_bandwidth_cut(&p, Weight::new(50)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("v1"), "{msg}");
    assert!(msg.contains("99"), "{msg}");
    assert!(msg.contains("50"), "{msg}");
}

#[test]
fn alternating_tiny_huge_weights() {
    // Adversarial shape: alternating 1 and K-1 weights produce maximal
    // prime-subpath overlap.
    let n = 101;
    let nodes: Vec<u64> = (0..n).map(|i| if i % 2 == 0 { 1 } else { 9 }).collect();
    let edges: Vec<u64> = (0..n - 1).map(|i| (i % 13 + 1) as u64).collect();
    let p = PathGraph::from_raw(&nodes, &edges).unwrap();
    for k in [10u64, 11, 15, 20, 50] {
        let (cut, stats) = analyze_bandwidth(&p, Weight::new(k)).unwrap();
        assert!(p.is_feasible_cut(&cut, Weight::new(k)).unwrap());
        assert!(stats.r < 2 * stats.p.max(1) || stats.p == 0);
    }
}

#[test]
fn pathological_sorted_weights_still_optimal() {
    // Strictly ascending W-values are the paper's worst case for TEMP_S
    // occupancy; correctness must not degrade.
    let n = 400;
    let nodes = vec![3u64; n];
    let edges: Vec<u64> = (1..n as u64).collect();
    let p = PathGraph::from_raw(&nodes, &edges).unwrap();
    let k = Weight::new(8);
    let cut = min_bandwidth_cut(&p, k).unwrap();
    let oracle = tgp::core::bandwidth::min_bandwidth_cut_oracle(&p, k).unwrap();
    assert_eq!(p.cut_weight(&cut).unwrap(), p.cut_weight(&oracle).unwrap());
}
