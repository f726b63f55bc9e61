//! Exact (pseudo-polynomial) bandwidth minimization on trees.
//!
//! Theorem 1 shows bandwidth minimization under a load bound is
//! NP-complete already for stars, so no polynomial algorithm exists
//! unless P = NP — but the reduction is to *knapsack*, which admits a
//! pseudo-polynomial solution. This module provides the matching
//! pseudo-polynomial tree algorithm: a dynamic program over
//! `(vertex, weight of the still-open component)` states, `O(n·K²)` time
//! and `O(n·K)` space.
//!
//! It completes the paper's complexity picture (polynomial on chains,
//! NP-complete but pseudo-polynomial on trees) and serves as the exact
//! reference the heuristic tree pipeline can be measured against.

use tgp_graph::{CutSet, EdgeId, NodeId, Rooted, TreeView, Weight};

use crate::error::{check_bound, PartitionError};

const INF: u64 = u64::MAX;

/// Exact minimum-weight cut of `tree` such that every component of
/// `T − S` weighs at most `bound`: `O(n·K²)` time, `O(n·K)` space, where
/// `K = bound`. Generic over [`TreeView`]: it roots the tree at node 0
/// with [`Rooted`] and merges each node's children in incident-edge
/// order, so every representation gets the same cut, ties included.
///
/// Intended for moderate bounds (the state space is proportional to `K`);
/// for chains use [`crate::bandwidth::min_bandwidth_cut`], which is
/// `O(n + p log q)` regardless of `K`.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_core::tree_bandwidth::min_tree_bandwidth_cut;
/// use tgp_graph::{Tree, TreeView, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A star whose centre plus all leaves exceed K = 10: cutting the
/// // cheapest sufficient set of edges is a knapsack choice.
/// let star = Tree::from_raw(&[2, 6, 5, 4], &[(0, 1, 9), (0, 2, 3), (0, 3, 5)])?;
/// let cut = min_tree_bandwidth_cut(&star, Weight::new(10))?;
/// // Keep the expensive-uplink leaf (6): 2 + 6 = 8 <= 10; cut 3 + 5 = 8.
/// assert_eq!(star.cut_weight(&cut)?, Weight::new(8));
/// # Ok(())
/// # }
/// ```
pub fn min_tree_bandwidth_cut<T: TreeView>(
    tree: &T,
    bound: Weight,
) -> Result<CutSet, PartitionError> {
    check_bound(tree.max_node_weight(), tree.node_weights(), bound)?;
    if tree.total_weight() <= bound {
        return Ok(CutSet::empty());
    }
    let k = usize::try_from(bound.get()).expect("pseudo-polynomial solver needs K to fit usize");
    let root = NodeId::new(0);
    let rooted = Rooted::new(tree, root);
    let n = tree.len();
    // dp[v][w] = min cut cost inside subtree(v) such that the component
    // containing v (within the subtree) weighs exactly w. Children are
    // merged one at a time; `steps[v]` keeps the intermediate tables for
    // reconstruction.
    let mut dp: Vec<Vec<u64>> = vec![Vec::new(); n];
    // For each node: the ordered child list actually merged, and the DP
    // table *before* each merge (the table after the last merge is
    // dp[v]).
    let mut merge_children: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    let mut steps: Vec<Vec<Vec<u64>>> = vec![Vec::new(); n];
    // best[c] = min over w of dp[c][w] (cost of finishing child c's
    // subtree when its uplink is cut).
    let mut best: Vec<u64> = vec![INF; n];
    for v in rooted.pre_order().rev() {
        let vi = v.index();
        let wv = usize::try_from(tree.node_weight(v).get()).expect("node weight <= K fits");
        let mut table = vec![INF; k + 1];
        table[wv] = 0;
        for (u, e) in rooted.children(tree, v) {
            steps[vi].push(table.clone());
            merge_children[vi].push((u, e));
            let child = &dp[u.index()];
            let child_best = best[u.index()];
            let beta = tree.edge_weight(e).get();
            let mut next = vec![INF; k + 1];
            for (w, &cost) in table.iter().enumerate() {
                if cost == INF {
                    continue;
                }
                // Cut the uplink: the child's component is sealed.
                if child_best < INF {
                    let cand = cost + child_best + beta;
                    if cand < next[w] {
                        next[w] = cand;
                    }
                }
                // Keep the uplink: weights add.
                for (wc, &ccost) in child.iter().enumerate() {
                    if ccost == INF || w + wc > k {
                        continue;
                    }
                    let cand = cost + ccost;
                    if cand < next[w + wc] {
                        next[w + wc] = cand;
                    }
                }
            }
            table = next;
        }
        best[vi] = table.iter().copied().min().expect("non-empty table");
        debug_assert_ne!(best[vi], INF, "K >= max vertex weight keeps states alive");
        dp[vi] = table;
    }
    // Reconstruct: walk down deciding (component weight at v, child
    // decisions) from the stored intermediate tables.
    let root_w = argmin(&dp[root.index()]);
    let mut cut = Vec::new();
    let mut stack = vec![(root, root_w)];
    while let Some((v, w_target)) = stack.pop() {
        let vi = v.index();
        // Undo the merges right-to-left: find, for each merge step, the
        // split of (weight, cost) between the prefix table and the child.
        let mut w = w_target;
        let mut cost = dp[vi][w];
        for (step_idx, &(c, e)) in merge_children[vi].iter().enumerate().rev() {
            let before = &steps[vi][step_idx];
            let child = &dp[c.index()];
            let child_best = best[c.index()];
            let beta = tree.edge_weight(e).get();
            // Option 1: uplink cut — prefix keeps (w, cost - child_best - beta).
            let cut_works =
                child_best < INF && before[w] < INF && cost == before[w] + child_best + beta;
            if cut_works {
                cut.push(e);
                let wc = argmin(child);
                stack.push((c, wc));
                cost = before[w];
                continue;
            }
            // Option 2: uplink kept — find wc with
            // before[w - wc] + child[wc] == cost.
            let mut found = false;
            for (wc, &ccost) in child.iter().enumerate() {
                if ccost == INF || wc > w {
                    continue;
                }
                if before[w - wc] < INF && before[w - wc] + ccost == cost {
                    stack.push((c, wc));
                    w -= wc;
                    cost = before[w];
                    found = true;
                    break;
                }
            }
            debug_assert!(found, "DP reconstruction must find a witness");
        }
    }
    let cut = CutSet::new(cut);
    debug_assert!(tree
        .components(&cut)
        .expect("cut edges in range")
        .is_feasible(bound));
    Ok(cut)
}

fn argmin(table: &[u64]) -> usize {
    let mut best = 0;
    for (w, &c) in table.iter().enumerate() {
        if c < table[best] {
            best = w;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::min_bandwidth_cut;
    use crate::knapsack::min_star_bandwidth_cut;
    use crate::pipeline::tree_from_path;
    use tgp_graph::ChainView;
    use tgp_graph::{PathGraph, Tree};

    fn brute(tree: &Tree, bound: Weight) -> u64 {
        let m = tree.edge_count();
        let mut best = u64::MAX;
        for mask in 0u32..(1 << m) {
            let cut: CutSet = (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(EdgeId::new)
                .collect();
            if tree.components(&cut).unwrap().is_feasible(bound) {
                best = best.min(tree.cut_weight(&cut).unwrap().get());
            }
        }
        best
    }

    #[test]
    fn empty_cut_when_everything_fits() {
        let t = Tree::from_raw(&[1, 2, 3], &[(0, 1, 5), (1, 2, 5)]).unwrap();
        assert!(min_tree_bandwidth_cut(&t, Weight::new(6))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn infeasible_bound_errors() {
        let t = Tree::from_raw(&[1, 9], &[(0, 1, 1)]).unwrap();
        assert!(matches!(
            min_tree_bandwidth_cut(&t, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn matches_brute_force_on_random_trees() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(0x7BDB);
        for round in 0..150 {
            let n: usize = rng.gen_range(1..12);
            let t = random_tree(
                n,
                WeightDist::Uniform { lo: 1, hi: 9 },
                WeightDist::Uniform { lo: 0, hi: 12 },
                &mut rng,
            );
            let k = rng.gen_range(9u64..40);
            let cut = min_tree_bandwidth_cut(&t, Weight::new(k)).unwrap();
            assert!(t.components(&cut).unwrap().is_feasible(Weight::new(k)));
            assert_eq!(
                t.cut_weight(&cut).unwrap().get(),
                brute(&t, Weight::new(k)),
                "round={round}"
            );
        }
    }

    #[test]
    fn agrees_with_knapsack_solver_on_stars() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x57A7);
        for _ in 0..60 {
            let leaves: usize = rng.gen_range(1..10);
            let mut nodes = vec![rng.gen_range(0u64..4)];
            nodes.extend((0..leaves).map(|_| rng.gen_range(1u64..10)));
            let edges: Vec<(usize, usize, u64)> = (0..leaves)
                .map(|i| (0, i + 1, rng.gen_range(0u64..20)))
                .collect();
            let star = Tree::from_raw(&nodes, &edges).unwrap();
            let k = rng.gen_range(nodes.iter().copied().max().unwrap()..30);
            let dp_cut = min_tree_bandwidth_cut(&star, Weight::new(k)).unwrap();
            let ks_cut = min_star_bandwidth_cut(&star, Weight::new(k)).unwrap();
            assert_eq!(
                star.cut_weight(&dp_cut).unwrap(),
                star.cut_weight(&ks_cut).unwrap()
            );
        }
    }

    #[test]
    fn agrees_with_chain_solver_on_paths() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC4A1);
        for _ in 0..60 {
            let n: usize = rng.gen_range(1..30);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..20)).collect();
            let path = PathGraph::from_raw(&nodes, &edges).unwrap();
            let tree = tree_from_path(&path);
            let k = rng.gen_range(nodes.iter().copied().max().unwrap()..60);
            let tree_cut = min_tree_bandwidth_cut(&tree, Weight::new(k)).unwrap();
            let chain_cut = min_bandwidth_cut(&path, Weight::new(k)).unwrap();
            assert_eq!(
                tree.cut_weight(&tree_cut).unwrap(),
                path.cut_weight(&chain_cut).unwrap()
            );
        }
    }

    #[test]
    fn tree_pipeline_is_never_better_than_exact() {
        use crate::pipeline::partition_tree;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(0xE8A);
        for _ in 0..40 {
            let n: usize = rng.gen_range(2..30);
            let t = random_tree(
                n,
                WeightDist::Uniform { lo: 1, hi: 8 },
                WeightDist::Uniform { lo: 0, hi: 15 },
                &mut rng,
            );
            let k = rng.gen_range(8u64..50);
            let exact = min_tree_bandwidth_cut(&t, Weight::new(k)).unwrap();
            let heuristic = partition_tree(&t, Weight::new(k)).unwrap();
            assert!(
                t.cut_weight(&exact).unwrap() <= heuristic.bandwidth,
                "exact must lower-bound the heuristic pipeline"
            );
        }
    }
}
