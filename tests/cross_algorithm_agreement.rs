//! Cross-crate agreement: the paper's algorithms, the reference DPs, and
//! the prior-work baselines must agree wherever they solve the same
//! problem. These property tests are the repository's strongest
//! correctness evidence.

use proptest::prelude::*;

use tgp::baselines::bokhari::bokhari_partition;
use tgp::baselines::hansen_lih::hansen_lih_partition;
use tgp::baselines::nicol::nicol_bandwidth_cut;
use tgp::core::bandwidth::{
    min_bandwidth_cut, min_bandwidth_cut_naive, min_bandwidth_cut_oracle, min_bandwidth_cut_window,
};
use tgp::core::bottleneck::{min_bottleneck_cut, min_bottleneck_cut_paper};
use tgp::core::procmin::{proc_min, proc_min_paper};
use tgp::graph::{ChainView, NodeId, PathGraph, Tree, TreeEdge, TreeView, Weight};

fn arb_chain() -> impl Strategy<Value = (PathGraph, Weight)> {
    (1usize..120).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..30, n),
            prop::collection::vec(0u64..100, n - 1),
            30u64..200,
        )
            .prop_map(|(nodes, edges, k)| {
                let p = PathGraph::from_raw(&nodes, &edges).expect("dimensions consistent");
                (p, Weight::new(k))
            })
    })
}

fn arb_tree() -> impl Strategy<Value = (Tree, Weight)> {
    (1usize..80).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..30, n),
            prop::collection::vec((0usize..usize::MAX, 0u64..100), n - 1),
            30u64..200,
        )
            .prop_map(|(nodes, raw_edges, k)| {
                let edges: Vec<TreeEdge> = raw_edges
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, w))| {
                        TreeEdge::new(NodeId::new(p % (i + 1)), NodeId::new(i + 1), Weight::new(w))
                    })
                    .collect();
                let weights = nodes.into_iter().map(Weight::new).collect();
                let t = Tree::from_edges(weights, edges).expect("random attachment is a tree");
                (t, Weight::new(k))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// All five bandwidth solvers (four in tgp-core plus the Nicol
    /// baseline) produce feasible cuts of identical weight.
    #[test]
    fn bandwidth_solvers_agree((path, k) in arb_chain()) {
        let temps = min_bandwidth_cut(&path, k).unwrap();
        let naive = min_bandwidth_cut_naive(&path, k).unwrap();
        let oracle = min_bandwidth_cut_oracle(&path, k).unwrap();
        let window = min_bandwidth_cut_window(&path, k).unwrap();
        let nicol = nicol_bandwidth_cut(&path, k).unwrap();
        prop_assert!(path.is_feasible_cut(&temps, k).unwrap());
        prop_assert!(path.is_feasible_cut(&nicol, k).unwrap());
        let w = |c: &tgp::graph::CutSet| path.cut_weight(c).unwrap();
        prop_assert_eq!(w(&temps), w(&oracle));
        prop_assert_eq!(w(&naive), w(&oracle));
        prop_assert_eq!(w(&window), w(&oracle));
        prop_assert_eq!(w(&nicol), w(&oracle));
    }

    /// The optimized bottleneck sweep equals the literal Algorithm 2.1.
    #[test]
    fn bottleneck_implementations_agree((tree, k) in arb_tree()) {
        let fast = min_bottleneck_cut(&tree, k).unwrap();
        let paper = min_bottleneck_cut_paper(&tree, k).unwrap();
        prop_assert_eq!(&fast, &paper);
        prop_assert!(tree.components(&fast.cut).unwrap().is_feasible(k));
        // Feasibility of the found bottleneck is tight: cutting only the
        // strictly lighter edges is infeasible (unless no cut was needed).
        if !fast.cut.is_empty() {
            let lighter: tgp::graph::CutSet = (0..tree.edge_count())
                .map(tgp::graph::EdgeId::new)
                .filter(|&e| tree.edge_weight(e) < fast.bottleneck)
                .collect();
            prop_assert!(!tree.components(&lighter).unwrap().is_feasible(k));
        }
    }

    /// Both processor-minimization implementations are feasible and agree
    /// on the (optimal) component count.
    #[test]
    fn procmin_implementations_agree((tree, k) in arb_tree()) {
        let a = proc_min(&tree, k).unwrap();
        let b = proc_min_paper(&tree, k).unwrap();
        prop_assert_eq!(a.component_count, b.component_count);
        prop_assert!(tree.components(&a.cut).unwrap().is_feasible(k));
        prop_assert!(tree.components(&b.cut).unwrap().is_feasible(k));
    }

    /// Bokhari's DP and the probe method find the same optimum for every
    /// processor count.
    #[test]
    fn chains_on_chains_baselines_agree((path, _k) in arb_chain(), m_seed in 0usize..1000) {
        let n = path.len();
        let m = 1 + m_seed % n;
        let a = bokhari_partition(&path, m).unwrap();
        let b = hansen_lih_partition(&path, m).unwrap();
        prop_assert_eq!(a.bottleneck, b.bottleneck);
        prop_assert_eq!(a.assignment.bottleneck(&path), a.bottleneck);
        prop_assert_eq!(b.assignment.bottleneck(&path), b.bottleneck);
    }
}
