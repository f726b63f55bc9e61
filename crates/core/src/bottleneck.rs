//! Bottleneck minimization for tree task graphs (§2.1, Algorithm 2.1).
//!
//! **Problem.** Given a tree `T` with vertex weights `ω` and edge weights
//! `δ`, and a load bound `K`, find a cut `S ⊆ E` such that every component
//! of `T − S` weighs at most `K` and `max_{e∈S} δ(e)` is minimum.
//!
//! Algorithm 2.1 sorts the edges by increasing weight and adds them to `S`
//! one at a time until the components fit the bound. Its correctness rests
//! on monotonicity: adding more (light) edges only shrinks components, so
//! the minimal feasible *prefix* of the sorted edge list is optimal.
//!
//! Two implementations are provided with identical output:
//!
//! * [`min_bottleneck_cut_paper`] — the literal Algorithm 2.1: re-check all
//!   component weights after each insertion; `O(n²)` (matches the paper's
//!   stated complexity).
//! * [`min_bottleneck_cut`] — an optimized equivalent: process edges in
//!   *decreasing* order with a union-find, re-inserting edges into the
//!   tree; the first merge that exceeds `K` pins the minimal feasible
//!   prefix. `O(n log n)` (dominated by the sort).

use tgp_graph::{CutSet, EdgeId, NodeId, Tree, TreeView, UnionFind32, Weight};

use crate::error::{check_bound, PartitionError};

/// The outcome of bottleneck minimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BottleneckResult {
    /// The minimal feasible prefix of the weight-sorted edge list.
    pub cut: CutSet,
    /// `max_{e∈S} δ(e)` — zero when no cut is needed.
    pub bottleneck: Weight,
}

/// Edge ids sorted by (weight, id); the id tiebreak makes both
/// implementations deterministic and identical.
fn edges_by_weight<T: TreeView>(tree: &T) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = (0..tree.edge_count()).map(EdgeId::new).collect();
    ids.sort_by_key(|&e| (tree.edge_weight(e), e));
    ids
}

fn result_from_prefix<T: TreeView>(tree: &T, sorted: &[EdgeId], prefix: usize) -> BottleneckResult {
    let cut = CutSet::new(sorted[..prefix].to_vec());
    let bottleneck = if prefix == 0 {
        Weight::ZERO
    } else {
        tree.edge_weight(sorted[prefix - 1])
    };
    BottleneckResult { cut, bottleneck }
}

/// [`result_from_prefix`] over the compact `u32` id ordering the
/// optimized solver uses, emitting the cut in id order with one pass
/// over the edges instead of re-sorting the prefix: the `(weight, id)`
/// keys are unique, so an edge lies in the prefix exactly when its key
/// is at or below the prefix's last key.
fn result_from_compact_prefix<T: TreeView>(
    tree: &T,
    sorted: &[u32],
    prefix: usize,
) -> BottleneckResult {
    let Some(&last) = sorted[..prefix].last() else {
        return BottleneckResult {
            cut: CutSet::empty(),
            bottleneck: Weight::ZERO,
        };
    };
    let last = EdgeId::new(last as usize);
    let bottleneck = tree.edge_weight(last);
    // Branch-free, since on random weights the test is a coin flip per
    // edge: every edge is written at `cut[len]`, and `len` moves past
    // the ones in the prefix. It never exceeds `prefix`, so the one
    // spare slot takes the writes after the prefix's last edge.
    let mut cut = vec![EdgeId::new(0); prefix + 1];
    let mut len = 0;
    for i in 0..tree.edge_count() {
        let e = EdgeId::new(i);
        let w = tree.edge_weight(e);
        cut[len] = e;
        len += usize::from((w < bottleneck) | ((w == bottleneck) & (e <= last)));
    }
    debug_assert_eq!(len, prefix);
    cut.truncate(len);
    // Already in increasing id order: `CutSet::new`'s sort finds one
    // run and returns.
    BottleneckResult {
        cut: CutSet::new(cut),
        bottleneck,
    }
}

/// Bottleneck minimization — optimized `O(n log n)` implementation.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_core::bottleneck::min_bottleneck_cut;
/// use tgp_graph::{Tree, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Tree::from_raw(&[5, 5, 5], &[(0, 1, 9), (1, 2, 2)])?;
/// let r = min_bottleneck_cut(&t, Weight::new(10))?;
/// // Cutting only the weight-2 edge leaves components {5,5} and {5}.
/// assert_eq!(r.bottleneck, Weight::new(2));
/// assert_eq!(r.cut.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn min_bottleneck_cut<T: TreeView>(
    tree: &T,
    bound: Weight,
) -> Result<BottleneckResult, PartitionError> {
    check_bound(tree.max_node_weight(), tree.node_weights(), bound)?;
    // The solver's working set is what bounds how far past RAM an
    // out-of-core solve can go (the graph itself streams from its spill
    // file, but these temporaries are anonymous memory): 20 bytes per
    // node — u32 sorted ids (the sort is in-place; keys are unique so
    // an unstable sort is deterministic), a u32 union-find, and the
    // component weights. Graphs beyond u32 indices would not fit any
    // real machine's address space alongside their own weights, and
    // `FlatTreeBuilder` refuses them outright.
    assert!(
        u32::try_from(tree.len()).is_ok(),
        "tree node count exceeds u32 indices"
    );
    let mut sorted: Vec<u32> = (0..tree.edge_count() as u32).collect();
    sorted.sort_unstable_by_key(|&e| (tree.edge_weight(EdgeId::new(e as usize)), e));
    // Re-insert edges from heaviest to lightest. Cutting the prefix
    // `sorted[..i]` keeps exactly the edges `sorted[i..]`; the first merge
    // that exceeds the bound (at sorted index `i0`) proves prefix `i0 + 1`
    // is the minimal feasible one.
    let mut uf = UnionFind32::new(tree.len());
    let mut comp_weight: Vec<u64> = (0..tree.len())
        .map(|i| tree.node_weight(NodeId::new(i)).get())
        .collect();
    for idx in (0..sorted.len()).rev() {
        let e = tree.edge(EdgeId::new(sorted[idx] as usize));
        let (ra, rb) = (uf.find(e.a.index() as u32), uf.find(e.b.index() as u32));
        let merged = comp_weight[ra as usize] + comp_weight[rb as usize];
        if merged > bound.get() {
            return Ok(result_from_compact_prefix(tree, &sorted, idx + 1));
        }
        uf.union(ra, rb);
        let root = uf.find(ra);
        comp_weight[root as usize] = merged;
    }
    // All edges re-inserted without violation: the empty cut is feasible.
    Ok(result_from_compact_prefix(tree, &sorted, 0))
}

/// Bottleneck minimization — the literal Algorithm 2.1, `O(n²)`.
///
/// Kept for fidelity to the paper and as a cross-check for
/// [`min_bottleneck_cut`]; both always return the same cut.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
pub fn min_bottleneck_cut_paper(
    tree: &Tree,
    bound: Weight,
) -> Result<BottleneckResult, PartitionError> {
    check_bound(tree.max_node_weight(), tree.node_weights(), bound)?;
    let sorted = edges_by_weight(tree);
    // "for i ← 1 to n−1 do S ← S ∪ {e_i}; if all components ≤ K, output S"
    // — with i = 0 meaning the empty cut, checked first.
    for prefix in 0..=sorted.len() {
        let cut = CutSet::new(sorted[..prefix].to_vec());
        let comps = tree.components(&cut).expect("cut edges are in range");
        if comps.is_feasible(bound) {
            return Ok(result_from_prefix(tree, &sorted, prefix));
        }
    }
    unreachable!("cutting every edge isolates single vertices, all <= bound")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::NodeId;

    fn chain_tree(nodes: &[u64], edges: &[u64]) -> Tree {
        let e: Vec<(usize, usize, u64)> = edges
            .iter()
            .enumerate()
            .map(|(i, &w)| (i, i + 1, w))
            .collect();
        Tree::from_raw(nodes, &e).unwrap()
    }

    #[test]
    fn empty_cut_when_everything_fits() {
        let t = chain_tree(&[1, 2, 3], &[5, 5]);
        for f in [min_bottleneck_cut, min_bottleneck_cut_paper] {
            let r = f(&t, Weight::new(6)).unwrap();
            assert!(r.cut.is_empty());
            assert_eq!(r.bottleneck, Weight::ZERO);
        }
    }

    #[test]
    fn infeasible_bound_errors() {
        let t = chain_tree(&[1, 9], &[1]);
        for f in [min_bottleneck_cut, min_bottleneck_cut_paper] {
            assert!(matches!(
                f(&t, Weight::new(8)),
                Err(PartitionError::BoundTooSmall { .. })
            ));
        }
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::from_raw(&[7], &[]).unwrap();
        for f in [min_bottleneck_cut, min_bottleneck_cut_paper] {
            let r = f(&t, Weight::new(7)).unwrap();
            assert!(r.cut.is_empty());
        }
    }

    #[test]
    fn prefix_includes_all_lighter_edges() {
        // Star with centre 0 (weight 10) and three leaves of weight 10;
        // K = 20 forces at least two leaf cut-offs. The sorted prefix
        // property means the two lightest edges are cut.
        let t = Tree::from_raw(&[10, 10, 10, 10], &[(0, 1, 5), (0, 2, 3), (0, 3, 8)]).unwrap();
        for f in [min_bottleneck_cut, min_bottleneck_cut_paper] {
            let r = f(&t, Weight::new(20)).unwrap();
            assert_eq!(r.cut.len(), 2);
            assert!(r.cut.contains(EdgeId::new(0)));
            assert!(r.cut.contains(EdgeId::new(1)));
            assert_eq!(r.bottleneck, Weight::new(5));
            assert!(t.components(&r.cut).unwrap().is_feasible(Weight::new(20)));
        }
    }

    #[test]
    fn bottleneck_value_is_minimal() {
        // Brute-force check: no feasible cut has a smaller max edge weight.
        let t = Tree::from_raw(
            &[4, 6, 3, 7, 2],
            &[(0, 1, 9), (1, 2, 4), (1, 3, 7), (3, 4, 1)],
        )
        .unwrap();
        let bound = Weight::new(10);
        let r = min_bottleneck_cut(&t, bound).unwrap();
        let m = t.edge_count();
        let mut best: Option<u64> = None;
        for mask in 0u32..(1 << m) {
            let cut: CutSet = (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(EdgeId::new)
                .collect();
            if t.components(&cut).unwrap().is_feasible(bound) {
                let b = t.bottleneck(&cut).unwrap().get();
                if best.is_none_or(|x| b < x) {
                    best = Some(b);
                }
            }
        }
        assert_eq!(r.bottleneck.get(), best.unwrap());
    }

    #[test]
    fn implementations_agree_on_random_trees() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(77);
        for round in 0..200 {
            let n = rng.gen_range(1..60);
            // Every other tree has zero weights and heavy ties on both
            // vertices and edges, so the (weight, id) order decides
            // which tied edges the minimal prefix takes.
            let (nodes, edges, k) = if round % 2 == 0 {
                (
                    WeightDist::Uniform { lo: 1, hi: 9 },
                    WeightDist::Uniform { lo: 1, hi: 50 },
                    rng.gen_range(9..=60),
                )
            } else {
                (
                    WeightDist::Uniform { lo: 0, hi: 3 },
                    WeightDist::Uniform { lo: 0, hi: 2 },
                    rng.gen_range(3..=12),
                )
            };
            let t = random_tree(n, nodes, edges, &mut rng);
            let fast = min_bottleneck_cut(&t, Weight::new(k)).unwrap();
            let paper = min_bottleneck_cut_paper(&t, Weight::new(k)).unwrap();
            assert_eq!(fast, paper, "n={n} k={k}");
            assert!(t.components(&fast.cut).unwrap().is_feasible(Weight::new(k)));
        }
    }

    #[test]
    fn equal_weight_ties_are_deterministic() {
        let t = Tree::from_raw(&[6, 6, 6], &[(0, 1, 5), (1, 2, 5)]).unwrap();
        let r1 = min_bottleneck_cut(&t, Weight::new(6)).unwrap();
        let r2 = min_bottleneck_cut_paper(&t, Weight::new(6)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.cut.len(), 2); // both edges must go
    }

    #[test]
    fn bound_equal_to_total_weight_needs_no_cut() {
        let t = chain_tree(&[5, 5, 5], &[1, 1]);
        let r = min_bottleneck_cut(&t, Weight::new(15)).unwrap();
        assert!(r.cut.is_empty());
    }

    #[test]
    fn error_names_offending_node() {
        let t = chain_tree(&[1, 2, 99], &[1, 1]);
        match min_bottleneck_cut(&t, Weight::new(50)) {
            Err(PartitionError::BoundTooSmall { node, weight, .. }) => {
                assert_eq!(node, NodeId::new(2));
                assert_eq!(weight, Weight::new(99));
            }
            other => panic!("expected BoundTooSmall, got {other:?}"),
        }
    }
}
