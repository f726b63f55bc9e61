//! Theorem 1: NP-completeness of tree bandwidth minimization, shown by a
//! constructive two-way reduction to 0-1 knapsack.
//!
//! The paper proves that deciding whether a star graph admits a cut `S`
//! with `δ(S) ≤ k₁` whose components all weigh at most `k₂` is equivalent
//! to the 0-1 knapsack decision problem: leaves kept with the centre play
//! the role of items packed into the knapsack (their vertex weights must
//! fit capacity `k₂`), and the *kept* edge profits must reach the profit
//! target (equivalently, the *cut* edge weight stays under budget).
//!
//! This module makes the reduction executable in both directions and ships
//! an exact pseudo-polynomial knapsack solver so the equivalence can be
//! property-tested, and so small star instances of the (NP-complete) tree
//! bandwidth problem can actually be solved.

#![allow(clippy::needless_range_loop)] // index-based DP reads clearer here

use tgp_graph::{CutSet, EdgeId, NodeId, Tree, TreeEdge, TreeView, Weight};

use crate::error::PartitionError;

/// A 0-1 knapsack instance (maximisation form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnapsackInstance {
    /// Item weights `w_i`.
    pub weights: Vec<u64>,
    /// Item profits `p_i`.
    pub profits: Vec<u64>,
    /// Knapsack capacity (the paper's `k₂`).
    pub capacity: u64,
}

impl KnapsackInstance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `profits` have different lengths.
    pub fn new(weights: Vec<u64>, profits: Vec<u64>, capacity: u64) -> Self {
        assert_eq!(
            weights.len(),
            profits.len(),
            "weights and profits must pair up"
        );
        KnapsackInstance {
            weights,
            profits,
            capacity,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the instance has no items.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total profit of all items.
    pub fn total_profit(&self) -> u64 {
        self.profits.iter().sum()
    }

    /// Exact DP solution: the chosen item set maximising profit within
    /// capacity. `O(len · capacity)` time and space — intended for the
    /// reduction tests and small instances, as befits an NP-hard problem.
    pub fn solve(&self) -> KnapsackSolution {
        let n = self.len();
        let cap = usize::try_from(self.capacity).expect("capacity fits usize");
        // best[c] = max profit using a prefix of items within capacity c;
        // take[i][c] records the decision for reconstruction.
        let mut best = vec![0u64; cap + 1];
        let mut take = vec![vec![false; cap + 1]; n];
        for i in 0..n {
            let w = usize::try_from(self.weights[i]).unwrap_or(usize::MAX);
            let p = self.profits[i];
            if w > cap {
                continue;
            }
            for c in (w..=cap).rev() {
                let candidate = best[c - w] + p;
                if candidate > best[c] {
                    best[c] = candidate;
                    take[i][c] = true;
                }
            }
        }
        let mut chosen = Vec::new();
        let mut c = cap;
        for i in (0..n).rev() {
            if take[i][c] {
                chosen.push(i);
                c -= usize::try_from(self.weights[i]).expect("taken items fit capacity");
            }
        }
        chosen.reverse();
        KnapsackSolution {
            profit: best[cap],
            items: chosen,
        }
    }
}

/// An optimal knapsack packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnapsackSolution {
    /// Total profit of the chosen items.
    pub profit: u64,
    /// Indices of the chosen items, ascending.
    pub items: Vec<usize>,
}

/// The paper's Theorem 1 construction: a star `T = (V, E)` with centre
/// weight 0, leaf `v_i` of weight `w_i`, and edge `e_i = (u, v_i)` of
/// weight `p_i`.
///
/// A cut `S` with `δ(S) ≤ Σp − k₁` and components `≤ k₂` exists **iff**
/// the knapsack instance has a packing of profit `≥ k₁` (the kept leaves
/// are the packed items).
pub fn knapsack_to_star(instance: &KnapsackInstance) -> Tree {
    let n = instance.len();
    let mut node_weights = Vec::with_capacity(n + 1);
    node_weights.push(Weight::ZERO); // the centre u
    node_weights.extend(instance.weights.iter().map(|&w| Weight::new(w)));
    let edges: Vec<TreeEdge> = (0..n)
        .map(|i| {
            TreeEdge::new(
                NodeId::new(0),
                NodeId::new(i + 1),
                Weight::new(instance.profits[i]),
            )
        })
        .collect();
    Tree::from_edges(node_weights, edges).expect("star construction is always a tree")
}

/// The reverse direction of Theorem 1: reads a star task graph (centre =
/// node 0, as produced by [`knapsack_to_star`]) back into a knapsack
/// instance with capacity `load_bound`.
///
/// # Panics
///
/// Panics if `star` is not a star centred at node 0.
pub fn star_to_knapsack(star: &Tree, load_bound: Weight) -> KnapsackInstance {
    let n = star.len() - 1;
    // Every edge of a star touches its centre, so the edges in id order
    // are the centre's incident edges, each reaching one leaf.
    let centre = NodeId::new(0);
    assert!(
        star.edges().all(|e| e.a == centre || e.b == centre),
        "node 0 must be the centre of a star"
    );
    let mut weights = Vec::with_capacity(n);
    let mut profits = Vec::with_capacity(n);
    for edge in star.edges() {
        weights.push(star.node_weight(edge.other(centre)).get());
        profits.push(edge.weight.get());
    }
    KnapsackInstance::new(
        weights,
        profits,
        load_bound
            .get()
            .saturating_sub(star.node_weight(NodeId::new(0)).get()),
    )
}

/// Solves the (NP-complete) star bandwidth-minimization problem exactly
/// via the knapsack reduction: the returned cut has minimum `δ(S)` among
/// all cuts whose components weigh at most `load_bound`.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if some leaf (or the centre) alone
/// outweighs the bound.
///
/// # Panics
///
/// Panics if `star` is not a star centred at node 0.
///
/// # Examples
///
/// ```
/// use tgp_core::knapsack::min_star_bandwidth_cut;
/// use tgp_graph::{Tree, TreeView, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Centre 0; leaves of weight 6 and 5; edges cost 10 and 3.
/// let star = Tree::from_raw(&[0, 6, 5], &[(0, 1, 10), (0, 2, 3)])?;
/// // Bound 6: keep the weight-6 leaf (expensive edge), cut the cheap one.
/// let cut = min_star_bandwidth_cut(&star, Weight::new(6))?;
/// assert_eq!(star.cut_weight(&cut)?, Weight::new(3));
/// # Ok(())
/// # }
/// ```
pub fn min_star_bandwidth_cut(star: &Tree, load_bound: Weight) -> Result<CutSet, PartitionError> {
    crate::error::check_bound(star.max_node_weight(), star.node_weights(), load_bound)?;
    let instance = star_to_knapsack(star, load_bound);
    let solution = instance.solve();
    // Kept leaves = packed items; cut everything else.
    let kept: std::collections::HashSet<usize> = solution.items.iter().copied().collect();
    // Item i is the leaf across edge i (see `star_to_knapsack`).
    let cut: CutSet = (0..star.edge_count())
        .filter(|i| !kept.contains(i))
        .map(EdgeId::new)
        .collect();
    debug_assert!(star
        .components(&cut)
        .expect("cut edges are in range")
        .is_feasible(load_bound));
    Ok(cut)
}

/// Decision form of the paper's Theorem 1 statement: does `star` admit a
/// cut `S` with `δ(S) ≤ cut_budget` and all components `≤ load_bound`?
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if some vertex alone outweighs the
/// bound (the answer would be "no" for structural reasons the caller
/// should see).
pub fn star_cut_decision(
    star: &Tree,
    cut_budget: Weight,
    load_bound: Weight,
) -> Result<bool, PartitionError> {
    let cut = min_star_bandwidth_cut(star, load_bound)?;
    Ok(star.cut_weight(&cut).expect("cut is valid") <= cut_budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_knapsack(inst: &KnapsackInstance) -> u64 {
        let n = inst.len();
        let mut best = 0u64;
        for mask in 0u32..(1 << n) {
            let (mut w, mut p) = (0u64, 0u64);
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    w += inst.weights[i];
                    p += inst.profits[i];
                }
            }
            if w <= inst.capacity {
                best = best.max(p);
            }
        }
        best
    }

    #[test]
    fn dp_matches_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..100 {
            let n = rng.gen_range(0..10);
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..20)).collect();
            let profits: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let cap = rng.gen_range(0..60);
            let inst = KnapsackInstance::new(weights, profits, cap);
            let sol = inst.solve();
            assert_eq!(sol.profit, brute_knapsack(&inst));
            // Solution is consistent with itself.
            let w: u64 = sol.items.iter().map(|&i| inst.weights[i]).sum();
            let p: u64 = sol.items.iter().map(|&i| inst.profits[i]).sum();
            assert!(w <= inst.capacity);
            assert_eq!(p, sol.profit);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = KnapsackInstance::new(vec![], vec![], 10);
        assert!(inst.is_empty());
        let sol = inst.solve();
        assert_eq!(sol.profit, 0);
        assert!(sol.items.is_empty());
    }

    #[test]
    fn reduction_round_trips() {
        let inst = KnapsackInstance::new(vec![3, 5, 7], vec![10, 20, 30], 9);
        let star = knapsack_to_star(&inst);
        assert_eq!(star.len(), 4);
        assert_eq!(star.node_weight(NodeId::new(0)), Weight::ZERO);
        let back = star_to_knapsack(&star, Weight::new(9));
        assert_eq!(back, inst);
    }

    #[test]
    fn star_cut_complements_optimal_packing() {
        // Items (w, p): (6, 10), (5, 3); capacity 6. Optimal packing: item
        // 0 (profit 10). Cut = the other edge, weight 3.
        let inst = KnapsackInstance::new(vec![6, 5], vec![10, 3], 6);
        let star = knapsack_to_star(&inst);
        let cut = min_star_bandwidth_cut(&star, Weight::new(6)).unwrap();
        assert_eq!(star.cut_weight(&cut).unwrap(), Weight::new(3));
        assert_eq!(
            star.cut_weight(&cut).unwrap().get(),
            inst.total_profit() - inst.solve().profit
        );
    }

    #[test]
    fn decision_matches_theorem_statement() {
        // δ(S) ≤ Σp − k₁ and components ≤ k₂ ⟺ packing of profit ≥ k₁.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..50 {
            let n = rng.gen_range(1..8);
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
            let profits: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let k2 = rng.gen_range(*weights.iter().max().unwrap()..40);
            let inst = KnapsackInstance::new(weights, profits, k2);
            let star = knapsack_to_star(&inst);
            let best_profit = inst.solve().profit;
            for k1 in 0..=inst.total_profit() {
                let budget = inst.total_profit() - k1;
                let decision =
                    star_cut_decision(&star, Weight::new(budget), Weight::new(k2)).unwrap();
                assert_eq!(decision, best_profit >= k1, "k1={k1}");
            }
        }
    }

    #[test]
    fn bound_below_leaf_weight_errors() {
        let star = Tree::from_raw(&[0, 9], &[(0, 1, 1)]).unwrap();
        assert!(matches!(
            min_star_bandwidth_cut(&star, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "centre of a star")]
    fn non_star_input_panics() {
        let path = Tree::from_raw(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let _ = star_to_knapsack(&path, Weight::new(3));
    }

    #[test]
    fn nonzero_centre_weight_reduces_capacity() {
        let star = Tree::from_raw(&[4, 3, 3], &[(0, 1, 5), (0, 2, 7)]).unwrap();
        let inst = star_to_knapsack(&star, Weight::new(7));
        assert_eq!(inst.capacity, 3); // 7 - centre weight 4
        let cut = min_star_bandwidth_cut(&star, Weight::new(7)).unwrap();
        // Only one leaf fits beside the centre; keep the profit-7 one.
        assert_eq!(star.cut_weight(&cut).unwrap(), Weight::new(5));
    }
}
