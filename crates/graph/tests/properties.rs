//! Property-based tests on the graph substrate's structural invariants.

use proptest::prelude::*;

use tgp_core::procmin::proc_min;
use tgp_graph::generators::WeightDist;
use tgp_graph::supergraph::{linear_supergraph, LinearOrdering};
use tgp_graph::{
    contract, ChainView, CutSet, EdgeId, NodeId, PathGraph, ProcessGraph, Rooted, Tree, TreeEdge,
    TreeView, UnionFind32, Weight,
};

fn arb_tree() -> impl Strategy<Value = Tree> {
    (1usize..60).prop_flat_map(|n| {
        (
            prop::collection::vec(0u64..50, n),
            prop::collection::vec((0usize..usize::MAX, 0u64..50), n - 1),
        )
            .prop_map(|(nodes, raw)| {
                let edges: Vec<TreeEdge> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, w))| {
                        TreeEdge::new(NodeId::new(p % (i + 1)), NodeId::new(i + 1), Weight::new(w))
                    })
                    .collect();
                Tree::from_edges(nodes.into_iter().map(Weight::new).collect(), edges)
                    .expect("random attachment yields a tree")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Components partition the vertex set and preserve total weight;
    /// a kept edge joins its endpoints and a cut edge separates them;
    /// ids are dense in node order (each node joins a component a lower
    /// node opened, or opens the next id).
    #[test]
    fn components_partition_the_tree(tree in arb_tree(), seed in any::<u64>()) {
        let m = tree.edge_count();
        let cut: CutSet = (0..m)
            .filter(|i| (seed >> (i % 64)) & 1 == 1)
            .map(EdgeId::new)
            .collect();
        let comps = tree.components(&cut).unwrap();
        prop_assert_eq!(comps.count(), cut.len() + 1);
        let total: Weight = comps.weights().iter().copied().sum();
        prop_assert_eq!(total, tree.total_weight());
        let sizes: usize = (0..comps.count()).map(|c| comps.size(c)).sum();
        prop_assert_eq!(sizes, tree.len());
        for (i, e) in tree.edges().enumerate() {
            let joined = comps.component_of(e.a) == comps.component_of(e.b);
            prop_assert_eq!(joined, !cut.contains(EdgeId::new(i)));
        }
        let mut next = 0;
        for v in 0..tree.len() {
            let c = comps.component_of(NodeId::new(v));
            prop_assert!(c <= next, "node {} opens id {} before {}", v, c, next);
            next += usize::from(c == next);
        }
    }

    /// Contraction preserves total weight, produces one super-node per
    /// component, and lifting the full contracted cut returns the
    /// original cut.
    #[test]
    fn contraction_invariants(tree in arb_tree(), seed in any::<u64>()) {
        let m = tree.edge_count();
        let cut: CutSet = (0..m)
            .filter(|i| (seed >> (i % 64)) & 1 == 1)
            .map(EdgeId::new)
            .collect();
        let c = contract(&tree, &cut).unwrap();
        prop_assert_eq!(c.total_weight(), tree.total_weight());
        prop_assert_eq!(c.len(), cut.len() + 1);
        prop_assert_eq!(c.edge_count(), cut.len());
        let all: CutSet = (0..c.edge_count()).map(EdgeId::new).collect();
        prop_assert_eq!(c.lift_cut(&all), cut.clone());
        // Contracted edge i is the cut's i-th edge, between the
        // super-nodes of its endpoints.
        for (i, e) in cut.iter().enumerate() {
            prop_assert_eq!(c.original_edge(EdgeId::new(i)), e);
            let (orig, sup) = (tree.edge(e), c.edge(EdgeId::new(i)));
            prop_assert_eq!(
                (sup.a, sup.b, sup.weight),
                (c.super_node_of(orig.a), c.super_node_of(orig.b), orig.weight)
            );
        }
        // Every node maps into a valid super-node of matching component.
        let comps = tree.components(&cut).unwrap();
        for v in 0..tree.len() {
            let sup = c.super_node_of(NodeId::new(v));
            prop_assert_eq!(sup.index(), comps.component_of(NodeId::new(v)));
        }
        prop_assert!(c.node_weights().eq(comps.weights().iter().copied()));
        // Processor minimization on the contraction cuts what it cuts on
        // the tree rebuilt from the super-node weights and the contracted
        // edges.
        let contracted_edges = cut
            .iter()
            .map(|e| {
                let TreeEdge { a, b, weight } = tree.edge(e);
                TreeEdge::new(c.super_node_of(a), c.super_node_of(b), weight)
            })
            .collect();
        let rebuilt = Tree::from_edges(comps.weights().to_vec(), contracted_edges).unwrap();
        let heaviest = comps.max_weight().get();
        for bound in [heaviest.saturating_sub(1), heaviest, heaviest + seed % 97, u64::from(u32::MAX)] {
            let bound = Weight::new(bound);
            prop_assert_eq!(proc_min(&c, bound), proc_min(&rebuilt, bound));
        }
    }

    /// Post-order visits every node exactly once, children before parents.
    #[test]
    fn post_order_is_a_permutation(tree in arb_tree(), root_seed in any::<usize>()) {
        let root = NodeId::new(root_seed % tree.len());
        let rooted = Rooted::new(&tree, root);
        let order: Vec<NodeId> = rooted.pre_order().rev().collect();
        prop_assert_eq!(order.len(), tree.len());
        let mut pos = vec![usize::MAX; tree.len()];
        for (i, v) in order.iter().enumerate() {
            prop_assert_eq!(pos[v.index()], usize::MAX);
            pos[v.index()] = i;
        }
        for v in (0..tree.len()).map(NodeId::new) {
            if let Some(e) = rooted.parent_edge(v) {
                let p = tree.edge(e).other(v);
                prop_assert!(pos[v.index()] < pos[p.index()], "child before parent");
            }
        }
        prop_assert_eq!(order.last().copied(), Some(root));
    }

    /// The linear super-graph preserves total vertex weight under any
    /// ordering, and its segments' cut cost upper-bounds nothing weirdly:
    /// every boundary weight equals the crossing weight of that position
    /// split.
    #[test]
    fn supergraph_boundaries_match_crossings(
        n in 3usize..30,
        extra_edges in prop::collection::vec((0usize..100, 0usize..100, 1u64..20), 0..40),
        ordering_bfs in any::<bool>(),
    ) {
        // Build a connected process graph: a ring + random chords.
        let mut edges: Vec<(usize, usize, u64)> =
            (0..n).map(|i| (i, (i + 1) % n, 1 + i as u64)).collect();
        for &(a, b, w) in &extra_edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                edges.push((a, b, w));
            }
        }
        let nodes: Vec<u64> = (1..=n as u64).collect();
        let g = ProcessGraph::from_raw(&nodes, &edges).unwrap();
        let ordering = if ordering_bfs {
            LinearOrdering::BfsFromPeriphery
        } else {
            LinearOrdering::Identity
        };
        let sup = linear_supergraph(&g, ordering).unwrap();
        prop_assert_eq!(sup.path().total_weight(), g.total_weight());
        // Check each boundary against a direct recount.
        for b in 0..sup.path().edge_count() {
            let expected: u64 = g
                .edges()
                .iter()
                .filter(|e| {
                    let pa = sup.position_of(e.a);
                    let pb = sup.position_of(e.b);
                    pa.min(pb) <= b && b < pa.max(pb)
                })
                .map(|e| e.weight.get())
                .sum();
            prop_assert_eq!(sup.path().edge_weight(EdgeId::new(b)).get(), expected);
        }
    }

    /// Union-find agrees with a reachability oracle built from the same
    /// union sequence.
    #[test]
    fn union_find_matches_reachability(
        n in 1usize..40,
        unions in prop::collection::vec((0usize..100, 0usize..100), 0..80),
    ) {
        let mut uf = UnionFind32::new(n);
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &unions {
            let (a, b) = (a % n, b % n);
            uf.union(a as u32, b as u32);
            adj[a].push(b);
            adj[b].push(a);
        }
        // BFS-based components.
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = next;
            while let Some(v) = stack.pop() {
                for &u in &adj[v] {
                    if comp[u] == usize::MAX {
                        comp[u] = next;
                        stack.push(u);
                    }
                }
            }
            next += 1;
        }
        prop_assert_eq!(uf.component_count(), next);
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(uf.find(a as u32) == uf.find(b as u32), comp[a] == comp[b]);
            }
        }
    }

    /// Path segments reassemble the chain exactly.
    #[test]
    fn segments_tile_the_path(
        nodes in prop::collection::vec(1u64..50, 1..80),
        seed in any::<u64>(),
    ) {
        let edges = vec![1u64; nodes.len() - 1];
        let p = PathGraph::from_raw(&nodes, &edges).unwrap();
        let cut: CutSet = (0..p.edge_count())
            .filter(|i| (seed >> (i % 64)) & 1 == 1)
            .map(EdgeId::new)
            .collect();
        let segs = p.segments(&cut).unwrap();
        prop_assert_eq!(segs.len(), cut.len() + 1);
        prop_assert_eq!(segs[0].start, 0);
        prop_assert_eq!(segs.last().unwrap().end, p.len() - 1);
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end + 1, w[1].start);
        }
        let total: Weight = segs.iter().map(|s| s.weight).sum();
        prop_assert_eq!(total, p.total_weight());
    }
}

#[test]
fn weight_dist_sampling_is_exercised_via_generators() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tgp_graph::generators::{balanced_binary, caterpillar, random_chain, star};
    let mut rng = SmallRng::seed_from_u64(5);
    let d = WeightDist::Uniform { lo: 1, hi: 9 };
    assert_eq!(random_chain(10, d, d, &mut rng).len(), 10);
    let star = star(10, d, d, &mut rng);
    let rooted = Rooted::new(&star, NodeId::new(0));
    let leaves = (0..star.len()).filter(|&v| rooted.degree(NodeId::new(v)) == 1);
    assert_eq!(leaves.count(), 9);
    assert_eq!(caterpillar(3, 2, d, d, &mut rng).len(), 9);
    assert_eq!(balanced_binary(2, d, d, &mut rng).len(), 7);
}
