//! Property-based tests on the optimality and feasibility contracts of
//! the paper's algorithms, checked against brute force on small
//! instances and against each other everywhere.

use proptest::prelude::*;

use tgp_core::bandwidth::{
    analyze_bandwidth, min_bandwidth_cut, nonredundant_edges, prime_subpaths,
};
use tgp_core::bottleneck::min_bottleneck_cut;
use tgp_core::budget::Budget;
use tgp_core::pipeline::{partition_chain, partition_tree};
use tgp_core::procmin::proc_min;
use tgp_core::PartitionError;
use tgp_graph::{ChainView, CutSet, EdgeId, NodeId, PathGraph, Tree, TreeEdge, TreeView, Weight};

fn arb_small_chain() -> impl Strategy<Value = (PathGraph, Weight)> {
    (1usize..13).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..10, n),
            prop::collection::vec(0u64..12, n - 1),
            9u64..40,
        )
            .prop_map(|(nodes, edges, k)| {
                (PathGraph::from_raw(&nodes, &edges).unwrap(), Weight::new(k))
            })
    })
}

fn arb_small_tree() -> impl Strategy<Value = (Tree, Weight)> {
    (1usize..11).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..10, n),
            prop::collection::vec((0usize..usize::MAX, 0u64..12), n - 1),
            9u64..40,
        )
            .prop_map(|(nodes, raw, k)| {
                let edges: Vec<TreeEdge> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, w))| {
                        TreeEdge::new(NodeId::new(p % (i + 1)), NodeId::new(i + 1), Weight::new(w))
                    })
                    .collect();
                (
                    Tree::from_edges(nodes.into_iter().map(Weight::new).collect(), edges).unwrap(),
                    Weight::new(k),
                )
            })
    })
}

fn all_cuts(m: usize) -> impl Iterator<Item = CutSet> {
    (0u32..(1 << m)).map(move |mask| {
        (0..m)
            .filter(|&j| mask & (1 << j) != 0)
            .map(EdgeId::new)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// TEMP_S returns a cut that is (a) feasible and (b) of weight equal
    /// to the brute-force optimum.
    #[test]
    fn bandwidth_cut_is_optimal((path, k) in arb_small_chain()) {
        let cut = min_bandwidth_cut(&path, k).unwrap();
        prop_assert!(path.is_feasible_cut(&cut, k).unwrap());
        let ours = path.cut_weight(&cut).unwrap().get();
        let best = all_cuts(path.edge_count())
            .filter(|c| path.is_feasible_cut(c, k).unwrap())
            .map(|c| path.cut_weight(&c).unwrap().get())
            .min()
            .unwrap();
        prop_assert_eq!(ours, best);
    }

    /// The bottleneck result is the brute-force minimax over feasible
    /// cuts.
    #[test]
    fn bottleneck_value_is_optimal((tree, k) in arb_small_tree()) {
        let r = min_bottleneck_cut(&tree, k).unwrap();
        let best = all_cuts(tree.edge_count())
            .filter(|c| tree.components(c).unwrap().is_feasible(k))
            .map(|c| tree.bottleneck(&c).unwrap().get())
            .min()
            .unwrap();
        prop_assert_eq!(r.bottleneck.get(), best);
    }

    /// proc_min uses the brute-force minimum number of components.
    #[test]
    fn procmin_component_count_is_optimal((tree, k) in arb_small_tree()) {
        let r = proc_min(&tree, k).unwrap();
        let best = all_cuts(tree.edge_count())
            .filter(|c| tree.components(c).unwrap().is_feasible(k))
            .map(|c| tree.components(&c).unwrap().count())
            .min()
            .unwrap();
        prop_assert_eq!(r.component_count, best);
    }

    /// The composed tree pipeline is feasible, bottleneck-optimal, and
    /// uses the fewest processors among bottleneck-cut subsets.
    #[test]
    fn tree_pipeline_contract((tree, k) in arb_small_tree()) {
        let part = partition_tree(&tree, k).unwrap();
        prop_assert!(part.components.is_feasible(k));
        let bn = min_bottleneck_cut(&tree, k).unwrap();
        prop_assert!(part.bottleneck <= bn.bottleneck);
        prop_assert!(part.cut.is_subset_of(&bn.cut));
        prop_assert_eq!(part.processors, part.cut.len() + 1);
    }

    /// Prime subpaths: every one is critical and minimal; feasibility of
    /// a cut is equivalent to hitting all of them.
    #[test]
    fn prime_subpath_characterization((path, k) in arb_small_chain()) {
        let primes = prime_subpaths(&path, k).unwrap();
        for pr in &primes {
            prop_assert!(path.span_weight(pr.first_node, pr.last_node) > k);
            if pr.last_node - pr.first_node >= 1 {
                prop_assert!(path.span_weight(pr.first_node + 1, pr.last_node) <= k);
                prop_assert!(path.span_weight(pr.first_node, pr.last_node - 1) <= k);
            }
        }
        for cut in all_cuts(path.edge_count()) {
            let feasible = path.is_feasible_cut(&cut, k).unwrap();
            let hits_all = primes
                .iter()
                .all(|pr| pr.edges().any(|e| cut.contains(e)));
            prop_assert_eq!(feasible, hits_all);
        }
    }

    /// The non-redundant reduction never loses the optimum: there is an
    /// optimal cut using only non-redundant edges.
    #[test]
    fn nonredundant_edges_preserve_the_optimum((path, k) in arb_small_chain()) {
        let primes = prime_subpaths(&path, k).unwrap();
        let nr = nonredundant_edges(&path, &primes);
        let allowed: CutSet = nr.iter().map(|e| e.edge).collect();
        let best_all = all_cuts(path.edge_count())
            .filter(|c| path.is_feasible_cut(c, k).unwrap())
            .map(|c| path.cut_weight(&c).unwrap().get())
            .min()
            .unwrap();
        let best_nr = all_cuts(path.edge_count())
            .filter(|c| c.is_subset_of(&allowed))
            .filter(|c| path.is_feasible_cut(c, k).unwrap())
            .map(|c| path.cut_weight(&c).unwrap().get())
            .min();
        prop_assert_eq!(best_nr, Some(best_all));
    }

    /// The chain partition's reported fields are internally consistent.
    #[test]
    fn chain_partition_report_is_consistent((path, k) in arb_small_chain()) {
        let part = partition_chain(&path, k, &Budget::unlimited()).unwrap();
        prop_assert_eq!(part.processors, part.segments.len());
        prop_assert_eq!(part.cut.len() + 1, part.segments.len());
        prop_assert_eq!(part.bandwidth, path.cut_weight(&part.cut).unwrap());
        prop_assert_eq!(part.bottleneck, path.bottleneck(&part.cut).unwrap());
        let (cut2, stats) = analyze_bandwidth(&path, k).unwrap();
        prop_assert_eq!(path.cut_weight(&cut2).unwrap(), part.bandwidth);
        prop_assert_eq!(stats.cut_weight, part.bandwidth.get());
    }

    /// Bound errors appear iff some vertex exceeds the bound — uniformly
    /// across all entry points.
    #[test]
    fn bound_errors_are_uniform((path, _k) in arb_small_chain(), k_small in 0u64..9) {
        let k = Weight::new(k_small);
        let should_fail = path.max_node_weight() > k;
        let failed = matches!(
            min_bandwidth_cut(&path, k),
            Err(PartitionError::BoundTooSmall { .. })
        );
        prop_assert_eq!(failed, should_fail);
    }
}
