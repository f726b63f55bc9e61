//! Experiment F1 — a worked walkthrough of Algorithm 2.2 in the style of
//! the paper's Figure 1, plus the star base case the paper uses to
//! motivate the algorithm.

use tgp::core::procmin::{proc_min, proc_min_paper};
use tgp::graph::{EdgeId, NodeId, Tree, TreeView, Weight};

/// The Figure 1 shape: a short spine whose ends carry leaf clusters.
fn figure1_tree() -> Tree {
    // Spine 0-1-2; node 0 has leaves {3, 4}; node 2 has leaves {5, 6}.
    Tree::from_raw(
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
    .expect("figure 1 tree is valid")
}

#[test]
fn loose_bound_needs_one_processor() {
    let t = figure1_tree();
    let r = proc_min(&t, Weight::new(29)).unwrap();
    assert!(r.cut.is_empty());
    assert_eq!(r.component_count, 1);
}

#[test]
fn medium_bound_needs_two_processors() {
    let t = figure1_tree();
    let r = proc_min(&t, Weight::new(15)).unwrap();
    assert_eq!(r.component_count, 2);
    let comps = t.components(&r.cut).unwrap();
    assert!(comps.is_feasible(Weight::new(15)));
}

#[test]
fn tight_bound_fragments_more() {
    let t = figure1_tree();
    let r = proc_min(&t, Weight::new(9)).unwrap();
    // Brute-force optimum for K = 9 is 4 components.
    assert_eq!(r.component_count, 4);
    assert!(t.components(&r.cut).unwrap().is_feasible(Weight::new(9)));
}

#[test]
fn both_implementations_tell_the_same_story() {
    let t = figure1_tree();
    for k in 7..=29 {
        let a = proc_min(&t, Weight::new(k)).unwrap();
        let b = proc_min_paper(&t, Weight::new(k)).unwrap();
        assert_eq!(a.component_count, b.component_count, "K = {k}");
    }
}

#[test]
fn star_base_case_prunes_lightest_first() {
    // §2.2: "If the task graph T is a star graph... sort the leaves in
    // increasing order of weights. Then continue to prune the leaves from
    // the beginning of the list" — equivalently our implementation cuts
    // the *heaviest* leaves to keep the centre cluster within K with the
    // fewest cuts. Centre 0 weight 2; leaves 9, 7, 5, 3; K = 12.
    let star = Tree::from_raw(
        &[2, 9, 7, 5, 3],
        &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
    )
    .unwrap();
    let r = proc_min(&star, Weight::new(12)).unwrap();
    // Total 26; cutting leaves 9 and 7 leaves 2+5+3 = 10 <= 12 with 3
    // components; no 2-component split fits (26 - 9 = 17 > 12).
    assert_eq!(r.component_count, 3);
    assert!(r.cut.contains(EdgeId::new(0)));
    assert!(r.cut.contains(EdgeId::new(1)));
    let comps = star.components(&r.cut).unwrap();
    assert_eq!(
        comps.weight(comps.component_of(NodeId::new(0))),
        Weight::new(10)
    );
}
