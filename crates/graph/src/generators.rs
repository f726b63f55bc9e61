//! Reproducible random workload generators.
//!
//! The paper's Figure 2 evaluates the bandwidth algorithm on simulated
//! linear task graphs with vertex weights drawn from a distribution; its
//! average-case analysis (§2.3.2) assumes weights uniform over `[w1, w2]`.
//! These generators supply those workloads plus tree-shaped ones for the
//! bottleneck/processor experiments. All take an explicit RNG so runs are
//! reproducible from a seed.

use rand::Rng;

use crate::{NodeId, PathGraph, ProcessGraph, Tree, TreeEdge, Weight};

/// A distribution over weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WeightDist {
    /// Every draw is the same value.
    Constant(u64),
    /// Uniform over the inclusive range `[lo, hi]` — the distribution the
    /// paper's average-case analysis assumes.
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// With probability `heavy_permille/1000` draw uniformly from
    /// `[heavy_lo, heavy_hi]`, otherwise from `[lo, hi]` — models workloads
    /// with occasional expensive tasks.
    Bimodal {
        /// Light range lower bound (inclusive).
        lo: u64,
        /// Light range upper bound (inclusive).
        hi: u64,
        /// Heavy range lower bound (inclusive).
        heavy_lo: u64,
        /// Heavy range upper bound (inclusive).
        heavy_hi: u64,
        /// Probability of the heavy range, in thousandths.
        heavy_permille: u32,
    },
}

impl WeightDist {
    /// Draws one weight.
    ///
    /// # Panics
    ///
    /// Panics if a range is inverted (`lo > hi`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Weight {
        match *self {
            WeightDist::Constant(w) => Weight::new(w),
            WeightDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform range inverted: [{lo}, {hi}]");
                Weight::new(rng.gen_range(lo..=hi))
            }
            WeightDist::Bimodal {
                lo,
                hi,
                heavy_lo,
                heavy_hi,
                heavy_permille,
            } => {
                assert!(lo <= hi, "light range inverted: [{lo}, {hi}]");
                assert!(
                    heavy_lo <= heavy_hi,
                    "heavy range inverted: [{heavy_lo}, {heavy_hi}]"
                );
                if rng.gen_range(0..1000) < heavy_permille {
                    Weight::new(rng.gen_range(heavy_lo..=heavy_hi))
                } else {
                    Weight::new(rng.gen_range(lo..=hi))
                }
            }
        }
    }

    /// The largest value the distribution can produce.
    pub fn max_value(&self) -> u64 {
        match *self {
            WeightDist::Constant(w) => w,
            WeightDist::Uniform { hi, .. } => hi,
            WeightDist::Bimodal { hi, heavy_hi, .. } => hi.max(heavy_hi),
        }
    }
}

/// Generates a random linear task graph with `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_chain<R: Rng + ?Sized>(
    n: usize,
    node_dist: WeightDist,
    edge_dist: WeightDist,
    rng: &mut R,
) -> PathGraph {
    assert!(n > 0, "chain must have at least one node");
    let node_weights: Vec<Weight> = (0..n).map(|_| node_dist.sample(rng)).collect();
    let edge_weights: Vec<Weight> = (0..n - 1).map(|_| edge_dist.sample(rng)).collect();
    PathGraph::from_weights(node_weights, edge_weights)
        .expect("generated chain dimensions are consistent")
}

/// Generates a random tree with `n` nodes by uniform random attachment:
/// node `i` connects to a parent drawn uniformly from `0..i`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(
    n: usize,
    node_dist: WeightDist,
    edge_dist: WeightDist,
    rng: &mut R,
) -> Tree {
    assert!(n > 0, "tree must have at least one node");
    let node_weights: Vec<Weight> = (0..n).map(|_| node_dist.sample(rng)).collect();
    let edges: Vec<TreeEdge> = (1..n)
        .map(|i| {
            let parent = rng.gen_range(0..i);
            TreeEdge::new(NodeId::new(parent), NodeId::new(i), edge_dist.sample(rng))
        })
        .collect();
    Tree::from_edges(node_weights, edges).expect("random attachment always yields a tree")
}

/// Generates a star: node 0 is the centre, nodes `1..n` are leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star<R: Rng + ?Sized>(
    n: usize,
    node_dist: WeightDist,
    edge_dist: WeightDist,
    rng: &mut R,
) -> Tree {
    assert!(n > 0, "star must have at least one node");
    let node_weights: Vec<Weight> = (0..n).map(|_| node_dist.sample(rng)).collect();
    let edges: Vec<TreeEdge> = (1..n)
        .map(|i| TreeEdge::new(NodeId::new(0), NodeId::new(i), edge_dist.sample(rng)))
        .collect();
    Tree::from_edges(node_weights, edges).expect("star dimensions are consistent")
}

/// Generates a caterpillar: a spine path of `spine` nodes, each spine node
/// carrying `legs` leaf children. Total nodes: `spine * (legs + 1)`.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar<R: Rng + ?Sized>(
    spine: usize,
    legs: usize,
    node_dist: WeightDist,
    edge_dist: WeightDist,
    rng: &mut R,
) -> Tree {
    assert!(spine > 0, "caterpillar must have at least one spine node");
    let n = spine * (legs + 1);
    let node_weights: Vec<Weight> = (0..n).map(|_| node_dist.sample(rng)).collect();
    let mut edges = Vec::with_capacity(n - 1);
    for s in 1..spine {
        edges.push(TreeEdge::new(
            NodeId::new(s - 1),
            NodeId::new(s),
            edge_dist.sample(rng),
        ));
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            edges.push(TreeEdge::new(
                NodeId::new(s),
                NodeId::new(leaf),
                edge_dist.sample(rng),
            ));
        }
    }
    Tree::from_edges(node_weights, edges).expect("caterpillar dimensions are consistent")
}

/// Generates a complete binary tree of the given `depth` (depth 0 = a
/// single node). Total nodes: `2^(depth+1) - 1`.
pub fn balanced_binary<R: Rng + ?Sized>(
    depth: u32,
    node_dist: WeightDist,
    edge_dist: WeightDist,
    rng: &mut R,
) -> Tree {
    let n = (1usize << (depth + 1)) - 1;
    let node_weights: Vec<Weight> = (0..n).map(|_| node_dist.sample(rng)).collect();
    let edges: Vec<TreeEdge> = (1..n)
        .map(|i| {
            TreeEdge::new(
                NodeId::new((i - 1) / 2),
                NodeId::new(i),
                edge_dist.sample(rng),
            )
        })
        .collect();
    Tree::from_edges(node_weights, edges).expect("binary tree dimensions are consistent")
}

/// Generates a ring-shaped process graph (the "circular type logic circuit
/// or network" of Section 3).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring_process_graph<R: Rng + ?Sized>(
    n: usize,
    node_dist: WeightDist,
    edge_dist: WeightDist,
    rng: &mut R,
) -> ProcessGraph {
    assert!(n >= 3, "a ring needs at least three nodes");
    let node_weights: Vec<u64> = (0..n).map(|_| node_dist.sample(rng).get()).collect();
    let edges: Vec<(usize, usize, u64)> = (0..n)
        .map(|i| (i, (i + 1) % n, edge_dist.sample(rng).get()))
        .collect();
    ProcessGraph::from_raw(&node_weights, &edges).expect("ring dimensions are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChainView, Rooted, TreeView};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xC0FFEE)
    }

    fn degrees(t: &Tree) -> Vec<usize> {
        let rooted = Rooted::new(t, NodeId::new(0));
        (0..t.len())
            .map(|v| rooted.degree(NodeId::new(v)))
            .collect()
    }

    #[test]
    fn uniform_samples_stay_in_range() {
        let d = WeightDist::Uniform { lo: 5, hi: 9 };
        let mut r = rng();
        for _ in 0..1000 {
            let w = d.sample(&mut r).get();
            assert!((5..=9).contains(&w));
        }
        assert_eq!(d.max_value(), 9);
    }

    #[test]
    fn constant_is_constant() {
        let d = WeightDist::Constant(7);
        let mut r = rng();
        assert!((0..100).all(|_| d.sample(&mut r) == Weight::new(7)));
        assert_eq!(d.max_value(), 7);
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let d = WeightDist::Bimodal {
            lo: 1,
            hi: 10,
            heavy_lo: 1000,
            heavy_hi: 2000,
            heavy_permille: 500,
        };
        let mut r = rng();
        let mut light = 0;
        let mut heavy = 0;
        for _ in 0..2000 {
            let w = d.sample(&mut r).get();
            if w <= 10 {
                light += 1;
            } else {
                assert!((1000..=2000).contains(&w));
                heavy += 1;
            }
        }
        assert!(light > 500 && heavy > 500, "light={light} heavy={heavy}");
        assert_eq!(d.max_value(), 2000);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_uniform_range_panics() {
        WeightDist::Uniform { lo: 9, hi: 5 }.sample(&mut rng());
    }

    #[test]
    fn random_chain_shape() {
        let p = random_chain(
            100,
            WeightDist::Uniform { lo: 1, hi: 10 },
            WeightDist::Uniform { lo: 1, hi: 100 },
            &mut rng(),
        );
        assert_eq!(p.len(), 100);
        assert_eq!(p.edge_count(), 99);
        assert!(p.max_node_weight().get() <= 10);
    }

    #[test]
    fn random_chain_is_deterministic_per_seed() {
        let d = WeightDist::Uniform { lo: 1, hi: 1000 };
        let a = random_chain(50, d, d, &mut SmallRng::seed_from_u64(42));
        let b = random_chain(50, d, d, &mut SmallRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn random_tree_is_a_valid_tree() {
        let t = random_tree(
            500,
            WeightDist::Uniform { lo: 1, hi: 5 },
            WeightDist::Uniform { lo: 1, hi: 5 },
            &mut rng(),
        );
        assert_eq!(t.len(), 500);
        assert_eq!(t.edge_count(), 499);
    }

    #[test]
    fn star_shape() {
        let t = star(
            10,
            WeightDist::Constant(1),
            WeightDist::Constant(2),
            &mut rng(),
        );
        assert_eq!(degrees(&t)[0], 9);
        assert_eq!(degrees(&t).iter().filter(|&&d| d <= 1).count(), 9);
    }

    #[test]
    fn caterpillar_shape() {
        let t = caterpillar(
            4,
            3,
            WeightDist::Constant(1),
            WeightDist::Constant(1),
            &mut rng(),
        );
        assert_eq!(t.len(), 16);
        // Spine interior nodes have degree 2 + legs; spine ends 1 + legs.
        assert_eq!(degrees(&t)[0], 4);
        assert_eq!(degrees(&t)[1], 5);
        assert_eq!(degrees(&t).iter().filter(|&&d| d <= 1).count(), 12);
    }

    #[test]
    fn balanced_binary_shape() {
        let t = balanced_binary(
            3,
            WeightDist::Constant(1),
            WeightDist::Constant(1),
            &mut rng(),
        );
        assert_eq!(t.len(), 15);
        assert_eq!(degrees(&t)[0], 2);
        assert_eq!(degrees(&t).iter().filter(|&&d| d <= 1).count(), 8);
    }

    #[test]
    fn ring_shape() {
        let g = ring_process_graph(
            6,
            WeightDist::Constant(1),
            WeightDist::Constant(3),
            &mut rng(),
        );
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 6);
        for v in 0..6 {
            assert_eq!(g.neighbors(NodeId::new(v)).len(), 2);
        }
    }
}
