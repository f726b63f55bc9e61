//! Property-based tests on the prior-work baselines' structural
//! guarantees.

use proptest::prelude::*;

use tgp_baselines::block::block_partition;
use tgp_baselines::bokhari::bokhari_partition;
use tgp_baselines::hansen_lih::hansen_lih_partition;
use tgp_baselines::hetero::{hetero_partition, HeteroArray};
use tgp_baselines::host_satellite::host_satellite_partition;
use tgp_graph::{ChainView, NodeId, PathGraph, Tree, TreeEdge, TreeView, Weight};

fn arb_chain() -> impl Strategy<Value = PathGraph> {
    (1usize..25).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..30, n),
            prop::collection::vec(0u64..30, n - 1),
        )
            .prop_map(|(nodes, edges)| PathGraph::from_raw(&nodes, &edges).unwrap())
    })
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    (1usize..20).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..30, n),
            prop::collection::vec((0usize..usize::MAX, 0u64..30), n - 1),
        )
            .prop_map(|(nodes, raw)| {
                let edges: Vec<TreeEdge> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, w))| {
                        TreeEdge::new(NodeId::new(p % (i + 1)), NodeId::new(i + 1), Weight::new(w))
                    })
                    .collect();
                Tree::from_edges(nodes.into_iter().map(Weight::new).collect(), edges).unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Raising one processor's speed never worsens the heterogeneous
    /// bottleneck (same assignment stays available, possibly better ones
    /// appear).
    #[test]
    fn hetero_speed_is_monotone(
        chain in arb_chain(),
        speeds in prop::collection::vec(1u64..5, 1..6),
        which in 0usize..6,
        boost in 1u64..4,
    ) {
        let m = speeds.len().min(chain.len());
        let speeds = &speeds[..m];
        let base = hetero_partition(&chain, &HeteroArray::new(speeds.to_vec())).unwrap();
        let mut boosted = speeds.to_vec();
        let idx = which % m;
        boosted[idx] += boost;
        let better = hetero_partition(&chain, &HeteroArray::new(boosted)).unwrap();
        prop_assert!(better.bottleneck <= base.bottleneck);
    }

    /// More satellites never worsen the host-satellite bottleneck.
    #[test]
    fn host_satellite_is_monotone_in_m(tree in arb_tree(), root_seed in any::<usize>()) {
        let root = NodeId::new(root_seed % tree.len());
        let max_m = (tree.len() - 1).max(1);
        let mut prev: Option<Weight> = None;
        for m in 1..=max_m.min(5) {
            let r = host_satellite_partition(&tree, root, m).unwrap();
            prop_assert!(r.satellites <= m);
            if let Some(p) = prev {
                prop_assert!(r.bottleneck <= p, "m={m}");
            }
            prev = Some(r.bottleneck);
        }
    }

    /// The probe and the layered-graph DP always agree (exact optimum).
    #[test]
    fn probe_equals_dp(chain in arb_chain(), m_seed in 0usize..1000) {
        let m = 1 + m_seed % chain.len();
        let a = bokhari_partition(&chain, m).unwrap();
        let b = hansen_lih_partition(&chain, m).unwrap();
        prop_assert_eq!(a.bottleneck, b.bottleneck);
    }

    /// Block partitioning always yields min(blocks, n) segments of sizes
    /// differing by at most one.
    #[test]
    fn block_partition_shapes(chain in arb_chain(), blocks in 1usize..30) {
        let cut = block_partition(&chain, blocks);
        let segs = chain.segments(&cut).unwrap();
        prop_assert_eq!(segs.len(), blocks.min(chain.len()));
        let sizes: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1);
    }
}
