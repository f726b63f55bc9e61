//! Processor minimization for tree task graphs (§2.2, Algorithm 2.2).
//!
//! **Problem.** Given a tree `T` with vertex weights and a load bound `K`,
//! find an edge cut `S` such that every component of `T − S` weighs at most
//! `K` and the number of components (= `|S| + 1`, processors needed) is
//! minimum.
//!
//! Algorithm 2.2 repeatedly takes an internal node `v` adjacent to at most
//! one other internal node, absorbs its adjacent leaves if the combined
//! cluster fits the bound, and otherwise cuts off the *heaviest* leaves
//! until it fits (a generalization of the star-graph case, adapted from
//! Bagga et al.'s edge-integrity algorithm).
//!
//! Two implementations with equal component counts are provided:
//!
//! * [`proc_min`] — an iterative post-order formulation (children are
//!   always processed before their parent, at which point they behave as
//!   the paper's "leaves"); `O(n log n)` from sorting each node's child
//!   weights, robust to million-node trees, and generic over
//!   [`TreeView`], so RAM and disk-backed trees, and the contracted
//!   tree of `compose`, share one solve.
//! * [`proc_min_paper`] — a literal work-list transcription of the paper's
//!   recursion (prune-and-reweigh on an explicitly mutated tree), used for
//!   cross-checking.

use tgp_graph::{CutSet, EdgeId, NodeId, Rooted, Tree, TreeView, Weight};

use crate::error::{check_bound, PartitionError};

/// The outcome of processor minimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcMinResult {
    /// The edges cut.
    pub cut: CutSet,
    /// Number of components (`cut.len() + 1`) — the minimum number of
    /// processors needed under the load bound.
    pub component_count: usize,
}

/// Processor minimization — iterative post-order implementation,
/// `O(n log n)`, over any [`TreeView`] (a RAM [`Tree`], a disk-backed
/// tree, or a [`Contraction`](tgp_graph::Contraction)).
///
/// The working set is a handful of flat `u32`/`u64` arrays: the
/// [`Rooted`] traversal from node 0 (incidence, pre-order, parent
/// edges), the cluster weight each child passes up its parent edge, and
/// one reused buffer of child clusters. Nodes are settled in reversed
/// pre-order, and each node's child clusters are gathered in
/// incident-edge order, which is exactly the order the children finish
/// in; so the heaviest-first sort sees the same sequence on every
/// representation and the cut is identical, ties included.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`
/// (no feasible partition exists).
///
/// # Panics
///
/// If the tree has more than `2^31` nodes (the incidence offsets are
/// `u32`).
///
/// # Examples
///
/// ```
/// use tgp_core::procmin::proc_min;
/// use tgp_graph::{Tree, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A star whose total weight 16 exceeds K = 10: cut the heaviest leaf.
/// let t = Tree::from_raw(&[1, 2, 6, 7], &[(0, 1, 1), (0, 2, 1), (0, 3, 1)])?;
/// let r = proc_min(&t, Weight::new(10))?;
/// assert_eq!(r.component_count, 2);
/// # Ok(())
/// # }
/// ```
pub fn proc_min<T: TreeView>(tree: &T, bound: Weight) -> Result<ProcMinResult, PartitionError> {
    check_bound(tree.max_node_weight(), tree.node_weights(), bound)?;
    let rooted = Rooted::new(tree, NodeId::new(0));
    // passed_up[e] = weight of the cluster the child end of `e` still
    // hands to its parent after its own subtree is settled.
    let mut passed_up: Vec<u64> = vec![0; tree.edge_count()];
    let mut cut_edges: Vec<EdgeId> = Vec::new();
    // Child clusters of the current node, in incident-edge order.
    let mut children: Vec<(u64, EdgeId)> = Vec::new();
    for v in rooted.pre_order().rev() {
        let mut w: u64 = tree.node_weight(v).get();
        children.clear();
        for e in rooted.child_edges(v) {
            let child_w = passed_up[e.index()];
            w += child_w;
            children.push((child_w, e));
        }
        if w > bound.get() {
            // Cut the heaviest child clusters until the rest fits
            // (the paper's step 5; minimal r by taking heaviest first).
            children.sort_unstable_by_key(|&(w, _)| std::cmp::Reverse(w));
            for &(child_w, edge) in &children {
                if w <= bound.get() {
                    break;
                }
                cut_edges.push(edge);
                w -= child_w;
            }
            debug_assert!(
                w <= bound.get(),
                "cutting every child leaves w = ω(v) <= bound"
            );
        }
        if let Some(up) = rooted.parent_edge(v) {
            passed_up[up.index()] = w;
        }
    }
    let cut = CutSet::new(cut_edges);
    let component_count = cut.len() + 1;
    debug_assert!(tree
        .components(&cut)
        .expect("cut edges are in range")
        .is_feasible(bound));
    Ok(ProcMinResult {
        cut,
        component_count,
    })
}

/// Processor minimization — literal work-list transcription of the paper's
/// Algorithm 2.2 (prune-and-reweigh).
///
/// Always produces the same *number* of components as [`proc_min`] (both
/// are optimal); the cut edge sets may differ when several optima exist.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
pub fn proc_min_paper(tree: &Tree, bound: Weight) -> Result<ProcMinResult, PartitionError> {
    check_bound(tree.max_node_weight(), tree.node_weights(), bound)?;
    let n = tree.len();
    // The tree's adjacency: each node's incident edges in increasing id
    // order, with the neighbour across each.
    let rooted = Rooted::new(tree, NodeId::new(0));
    let neighbors = |v: usize| {
        rooted
            .incident_edges(NodeId::new(v))
            .map(move |e| (tree.edge(e).other(NodeId::new(v)), e))
    };
    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = (0..n).map(|v| rooted.degree(NodeId::new(v))).collect();
    let mut weight: Vec<u64> = tree.node_weights().map(Weight::get).collect();
    let is_internal = |degree: &[usize], alive: &[bool], v: usize| alive[v] && degree[v] >= 2;
    // internal_degree[v] = number of internal neighbours of v.
    let internal_count = |v: usize| {
        neighbors(v)
            .filter(|&(u, _)| is_internal(&degree, &alive, u.index()))
            .count()
    };
    let mut internal_degree: Vec<usize> = (0..n).map(internal_count).collect();
    // Work list: internal nodes adjacent to at most one internal node
    // (the paper's step 2). Entries are re-validated when popped.
    let mut queue: Vec<usize> = (0..n)
        .filter(|&v| is_internal(&degree, &alive, v) && internal_degree[v] <= 1)
        .collect();
    let mut cut_edges: Vec<EdgeId> = Vec::new();
    let mut alive_count = n;
    while let Some(v) = queue.pop() {
        if !is_internal(&degree, &alive, v) || internal_degree[v] > 1 {
            continue; // stale entry
        }
        // Gather the alive leaf neighbours of v and its (≤1) internal one.
        let mut leaves: Vec<(u64, EdgeId, usize)> = Vec::new();
        let mut internal_neighbor: Option<usize> = None;
        for (u, e) in neighbors(v) {
            if !alive[u.index()] {
                continue;
            }
            if is_internal(&degree, &alive, u.index()) {
                internal_neighbor = Some(u.index());
            } else {
                leaves.push((weight[u.index()], e, u.index()));
            }
        }
        // Step 3: W = weight of v plus all adjacent leaves.
        let mut w: u64 = weight[v] + leaves.iter().map(|&(lw, _, _)| lw).sum::<u64>();
        if w > bound.get() {
            // Step 5: cut the heaviest leaves until the cluster fits.
            leaves.sort_unstable_by_key(|&(w, _, _)| std::cmp::Reverse(w));
            for &(lw, e, _) in &leaves {
                if w <= bound.get() {
                    break;
                }
                cut_edges.push(e);
                w -= lw;
            }
        }
        // Steps 4/5 epilogue: prune all leaves, re-weigh v.
        for &(_, _, leaf) in &leaves {
            alive[leaf] = false;
            alive_count -= 1;
            degree[v] -= 1;
        }
        weight[v] = w;
        // v is now a leaf (degree ≤ 1); its internal neighbour loses an
        // internal contact and may become processable.
        if let Some(u) = internal_neighbor {
            internal_degree[u] -= 1;
            if is_internal(&degree, &alive, u) && internal_degree[u] <= 1 {
                queue.push(u);
            }
        }
    }
    // Remnant: at most two alive nodes (a tree whose nodes are all leaves).
    let remnant: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
    debug_assert!(alive_count == remnant.len() && remnant.len() <= 2);
    if let [a, b] = remnant[..] {
        if weight[a] + weight[b] > bound.get() {
            let (_, e) = neighbors(a)
                .find(|&(u, _)| u.index() == b)
                .expect("two-node remnant is connected by an edge");
            cut_edges.push(e);
        }
    }
    let cut = CutSet::new(cut_edges);
    let component_count = cut.len() + 1;
    debug_assert!(tree
        .components(&cut)
        .expect("cut edges are in range")
        .is_feasible(bound));
    Ok(ProcMinResult {
        cut,
        component_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_min_components(tree: &Tree, bound: Weight) -> usize {
        let m = tree.edge_count();
        let mut best = usize::MAX;
        for mask in 0u32..(1 << m) {
            let cut: CutSet = (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(EdgeId::new)
                .collect();
            let comps = tree.components(&cut).unwrap();
            if comps.is_feasible(bound) {
                best = best.min(comps.count());
            }
        }
        best
    }

    /// The pre-flat-array `proc_min`, verbatim: per-node `pending`
    /// vectors over a post-order and a parent table. The generic
    /// rewrite must return the same cut, not just the same count.
    fn proc_min_reference(tree: &Tree, bound: Weight) -> Result<ProcMinResult, PartitionError> {
        check_bound(tree.max_node_weight(), tree.node_weights(), bound)?;
        let rooted = Rooted::new(tree, NodeId::new(0));
        let order: Vec<NodeId> = rooted.pre_order().rev().collect();
        let parent: Vec<Option<(NodeId, EdgeId)>> = (0..tree.len())
            .map(NodeId::new)
            .map(|v| rooted.parent_edge(v).map(|e| (tree.edge(e).other(v), e)))
            .collect();
        // residual[v] = weight of the cluster rooted at v that is still
        // attached to v's parent after processing v's subtree.
        let mut residual: Vec<u64> = tree.node_weights().map(Weight::get).collect();
        let mut cut_edges: Vec<EdgeId> = Vec::new();
        // Child clusters pending absorption, collected per node.
        let mut pending: Vec<Vec<(u64, EdgeId)>> = vec![Vec::new(); tree.len()];
        for &v in &order {
            let mut w: u64 = tree.node_weight(v).get();
            for &(child_w, _) in &pending[v.index()] {
                w += child_w;
            }
            if w > bound.get() {
                // Cut the heaviest child clusters until the rest fits
                // (the paper's step 5; minimal r by taking heaviest first).
                pending[v.index()].sort_unstable_by_key(|&(w, _)| std::cmp::Reverse(w));
                for &(child_w, edge) in &pending[v.index()] {
                    if w <= bound.get() {
                        break;
                    }
                    cut_edges.push(edge);
                    w -= child_w;
                }
                debug_assert!(
                    w <= bound.get(),
                    "cutting every child leaves w = ω(v) <= bound"
                );
            }
            residual[v.index()] = w;
            if let Some((p, e)) = parent[v.index()] {
                pending[p.index()].push((w, e));
            }
        }
        let cut = CutSet::new(cut_edges);
        let component_count = cut.len() + 1;
        debug_assert!(tree
            .components(&cut)
            .expect("cut edges are in range")
            .is_feasible(bound));
        Ok(ProcMinResult {
            cut,
            component_count,
        })
    }

    #[test]
    fn flat_array_solve_matches_the_reference_cut_for_cut() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::{FlatTree, FlatTreeBuilder, MemoryBacking, RamBacking};
        use tgp_store::DiskBacking;

        fn flat<B: MemoryBacking + Clone>(
            backing: &B,
            nodes: &[u64],
            edges: &[(usize, usize, u64)],
        ) -> FlatTree<B> {
            let mut b = FlatTreeBuilder::new(backing.clone(), nodes.len()).unwrap();
            for &w in nodes {
                b.push_node(w).unwrap();
            }
            for &(a, bb, w) in edges {
                b.push_edge(a, bb, w).unwrap();
            }
            b.finish().unwrap()
        }
        fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
            for i in (1..items.len()).rev() {
                items.swap(i, rng.gen_range(0..=i));
            }
        }

        let mut rng = SmallRng::seed_from_u64(0x9a11);
        let spill = DiskBacking::new(std::env::temp_dir());
        for round in 0..2_000 {
            let n = rng.gen_range(1..=300);
            // A 1–3 alphabet makes most child clusters tie; 1–100 rarely.
            let hi = if round % 2 == 0 { 3 } else { 100 };
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=hi)).collect();
            // A random attachment tree under a random relabelling, each
            // edge in a random orientation, the edge list shuffled.
            let mut label: Vec<usize> = (0..n).collect();
            shuffle(&mut label, &mut rng);
            let mut edges: Vec<(usize, usize, u64)> = (1..n)
                .map(|v| {
                    let (a, b) = (label[rng.gen_range(0..v)], label[v]);
                    let w = rng.gen_range(1..=50);
                    if rng.gen_bool(0.5) {
                        (a, b, w)
                    } else {
                        (b, a, w)
                    }
                })
                .collect();
            shuffle(&mut edges, &mut rng);
            let max = *nodes.iter().max().unwrap();
            let total: u64 = nodes.iter().sum();
            let bounds = [
                max.saturating_sub(1).max(1),
                max,
                max + rng.gen_range(0..=2 * hi),
                rng.gen_range(max..=total),
                total,
            ];
            let tree = Tree::from_raw(&nodes, &edges).unwrap();
            let ram = flat(&RamBacking, &nodes, &edges);
            let disk = flat(&spill, &nodes, &edges);
            for k in bounds {
                let bound = Weight::new(k);
                let want = proc_min_reference(&tree, bound);
                let ctx = format!("round={round} n={n} k={k}");
                assert_eq!(proc_min(&tree, bound), want, "from_raw: {ctx}");
                assert_eq!(proc_min(&ram, bound), want, "RAM: {ctx}");
                assert_eq!(proc_min(&disk, bound), want, "disk: {ctx}");
            }
        }
    }

    #[test]
    fn no_cut_when_everything_fits() {
        let t = Tree::from_raw(&[1, 2, 3], &[(0, 1, 1), (1, 2, 1)]).unwrap();
        for f in [proc_min, proc_min_paper] {
            let r = f(&t, Weight::new(6)).unwrap();
            assert!(r.cut.is_empty());
            assert_eq!(r.component_count, 1);
        }
    }

    #[test]
    fn infeasible_bound_errors() {
        let t = Tree::from_raw(&[1, 9], &[(0, 1, 1)]).unwrap();
        for f in [proc_min, proc_min_paper] {
            assert!(matches!(
                f(&t, Weight::new(8)),
                Err(PartitionError::BoundTooSmall { .. })
            ));
        }
    }

    #[test]
    fn single_node_and_two_node_trees() {
        let one = Tree::from_raw(&[5], &[]).unwrap();
        let two = Tree::from_raw(&[5, 6], &[(0, 1, 1)]).unwrap();
        for f in [proc_min, proc_min_paper] {
            assert_eq!(f(&one, Weight::new(5)).unwrap().component_count, 1);
            assert_eq!(f(&two, Weight::new(11)).unwrap().component_count, 1);
            assert_eq!(f(&two, Weight::new(6)).unwrap().component_count, 2);
        }
    }

    #[test]
    fn star_cuts_exactly_the_heaviest_leaves() {
        // Centre 0 (weight 1), leaves 9, 8, 2, 1; K = 12.
        // Total 21: cutting leaf 9 leaves 12 — one cut suffices.
        let t = Tree::from_raw(
            &[1, 9, 8, 2, 1],
            &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        )
        .unwrap();
        for f in [proc_min, proc_min_paper] {
            let r = f(&t, Weight::new(12)).unwrap();
            assert_eq!(r.component_count, 2);
            assert!(r.cut.contains(EdgeId::new(0)), "heaviest leaf cut");
        }
    }

    #[test]
    fn figure_1_style_walkthrough() {
        // Mirrors the paper's Figure 1 shape: a spine with leaf clusters
        // that are absorbed bottom-up, cutting only where a cluster bursts.
        // Spine 0-1-2; node 0 has leaves {3,4}, node 2 has leaves {5,6}.
        let t = Tree::from_raw(
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
        // Total 29, K = 15: optimum is 2 components.
        for f in [proc_min, proc_min_paper] {
            let r = f(&t, Weight::new(15)).unwrap();
            assert_eq!(r.component_count, brute_min_components(&t, Weight::new(15)));
        }
    }

    #[test]
    fn both_are_optimal_on_random_trees() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(4242);
        for round in 0..200 {
            let n = rng.gen_range(1..12);
            let t = random_tree(
                n,
                WeightDist::Uniform { lo: 1, hi: 9 },
                WeightDist::Constant(1),
                &mut rng,
            );
            let k = rng.gen_range(9..=40);
            let expect = brute_min_components(&t, Weight::new(k));
            for (name, f) in [
                ("postorder", proc_min as fn(_, _) -> _),
                ("paper", proc_min_paper),
            ] {
                let r = f(&t, Weight::new(k)).unwrap();
                assert!(t.components(&r.cut).unwrap().is_feasible(Weight::new(k)));
                assert_eq!(
                    r.component_count, expect,
                    "round={round} impl={name} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn implementations_agree_on_larger_trees() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{caterpillar, random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..30 {
            let n = rng.gen_range(50..400);
            let t = random_tree(
                n,
                WeightDist::Uniform { lo: 1, hi: 20 },
                WeightDist::Constant(1),
                &mut rng,
            );
            let k = rng.gen_range(20..=200);
            let a = proc_min(&t, Weight::new(k)).unwrap();
            let b = proc_min_paper(&t, Weight::new(k)).unwrap();
            assert_eq!(a.component_count, b.component_count, "n={n} k={k}");
        }
        let cat = caterpillar(
            20,
            4,
            WeightDist::Uniform { lo: 1, hi: 10 },
            WeightDist::Constant(1),
            &mut rng,
        );
        let a = proc_min(&cat, Weight::new(25)).unwrap();
        let b = proc_min_paper(&cat, Weight::new(25)).unwrap();
        assert_eq!(a.component_count, b.component_count);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let n = 100_000;
        let nodes = vec![1u64; n];
        let edges: Vec<(usize, usize, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let t = Tree::from_raw(&nodes, &edges).unwrap();
        let r = proc_min(&t, Weight::new(10)).unwrap();
        assert_eq!(r.component_count, n.div_ceil(10));
        let r2 = proc_min_paper(&t, Weight::new(10)).unwrap();
        assert_eq!(r2.component_count, n.div_ceil(10));
    }
}
