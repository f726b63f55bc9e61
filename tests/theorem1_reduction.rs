//! Experiment T1 — Theorem 1's NP-completeness reduction, made executable
//! and property-tested in both directions.

use proptest::prelude::*;

use tgp::core::knapsack::{
    knapsack_to_star, min_star_bandwidth_cut, star_cut_decision, star_to_knapsack, KnapsackInstance,
};
use tgp::graph::{TreeView, Weight};

fn arb_instance() -> impl Strategy<Value = KnapsackInstance> {
    (1usize..10).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..15, n),
            prop::collection::vec(0u64..25, n),
            1u64..60,
        )
            .prop_map(|(w, p, cap)| {
                // Capacity at least the heaviest item so the star instance
                // is feasible (the paper assumes K >= max vertex weight).
                let cap = cap.max(*w.iter().max().unwrap());
                KnapsackInstance::new(w, p, cap)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Forward direction: the optimal star cut weight complements the
    /// optimal knapsack profit (δ(S*) = Σp − profit*).
    #[test]
    fn optimal_cut_complements_optimal_packing(inst in arb_instance()) {
        let star = knapsack_to_star(&inst);
        let cut = min_star_bandwidth_cut(&star, Weight::new(inst.capacity)).unwrap();
        let cut_weight = star.cut_weight(&cut).unwrap().get();
        prop_assert_eq!(inst.total_profit() - inst.solve().profit, cut_weight);
        // The cut is feasible for the load bound.
        prop_assert!(star
            .components(&cut)
            .unwrap()
            .is_feasible(Weight::new(inst.capacity)));
    }

    /// Decision form across the full budget range: the star admits a cut
    /// of weight ≤ Σp − k₁ iff the knapsack reaches profit k₁ — exactly
    /// the paper's iff.
    #[test]
    fn decision_equivalence(inst in arb_instance(), k1_frac in 0u64..=100) {
        let star = knapsack_to_star(&inst);
        let k1 = inst.total_profit() * k1_frac / 100;
        let budget = inst.total_profit() - k1;
        let lhs = star_cut_decision(&star, Weight::new(budget), Weight::new(inst.capacity))
            .unwrap();
        let rhs = inst.solve().profit >= k1;
        prop_assert_eq!(lhs, rhs);
    }

    /// Round trip: star → knapsack → star preserves the instance.
    #[test]
    fn reduction_round_trips(inst in arb_instance()) {
        let star = knapsack_to_star(&inst);
        let back = star_to_knapsack(&star, Weight::new(inst.capacity));
        prop_assert_eq!(back, inst);
    }
}

#[test]
fn worked_example_from_the_proof() {
    // Items i with weights w_i and profits p_i become leaves v_i with
    // ω(v_i) = w_i and edges δ(e_i) = p_i; the centre u has ω(u) = 0.
    let inst = KnapsackInstance::new(vec![3, 5, 7], vec![10, 20, 30], 8);
    let star = knapsack_to_star(&inst);
    assert_eq!(star.len(), 4);
    assert_eq!(star.node_weight(tgp::graph::NodeId::new(0)), Weight::ZERO);
    // Best packing within capacity 8: items {0, 1} (weight 8, profit 30).
    let sol = inst.solve();
    assert_eq!(sol.profit, 30);
    assert_eq!(sol.items, vec![0, 1]);
    // So the optimal cut severs exactly item 2's edge: weight 30.
    let cut = min_star_bandwidth_cut(&star, Weight::new(8)).unwrap();
    assert_eq!(star.cut_weight(&cut).unwrap(), Weight::new(30));
}
