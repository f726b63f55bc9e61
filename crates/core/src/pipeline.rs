//! The combined partitioning workflow of Section 3.
//!
//! For tree task graphs the paper composes its algorithms: first minimize
//! the bottleneck (Algorithm 2.1), then lump the resulting components into
//! super-nodes and minimize the number of processors over the contracted
//! tree (Algorithm 2.2). The final cut is a subset of the bottleneck cut,
//! so the bottleneck guarantee is preserved while fragmentation is undone.
//!
//! For linear task graphs the bandwidth-minimization algorithm applies
//! directly; [`partition_chain`] wraps it with the same report type.

use tgp_graph::{
    contract, ChainView, Components, CutSet, PathGraph, Segment, Tree, TreeView, Weight,
};

use crate::bandwidth::{analyze_bandwidth_with, MergeSearch};
use crate::bottleneck::min_bottleneck_cut;
use crate::budget::Budget;
use crate::error::PartitionError;
use crate::procmin::proc_min;

/// A complete partition of a tree task graph with all three quality
/// measures the paper optimizes.
#[derive(Debug, Clone)]
pub struct TreePartition {
    /// The final edge cut.
    pub cut: CutSet,
    /// The components of `T − S` (each maps to one processor).
    pub components: Components,
    /// `max_{e∈S} δ(e)` of the final cut.
    pub bottleneck: Weight,
    /// `Σ_{e∈S} δ(e)` of the final cut.
    pub bandwidth: Weight,
    /// Number of processors used (= number of components).
    pub processors: usize,
}

/// Partitions a tree task graph for a shared-memory machine: bottleneck
/// minimization (Algorithm 2.1), super-node contraction, then processor
/// minimization (Algorithm 2.2) on the contracted tree.
///
/// The returned cut's bottleneck equals the optimum of Algorithm 2.1 or
/// better (the processor phase can only *remove* cut edges), every
/// component weighs at most `bound`, and the processor count is minimal
/// within the bottleneck-optimal cut family.
///
/// Generic over [`TreeView`]: RAM and disk-backed trees run one body and
/// return the same partition. The contracted tree (one super-node per
/// bottleneck component) is read as a view, never built.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_core::pipeline::partition_tree;
/// use tgp_graph::{Tree, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Tree::from_raw(&[4, 4, 4, 4], &[(0, 1, 5), (1, 2, 1), (2, 3, 5)])?;
/// let part = partition_tree(&t, Weight::new(8))?;
/// assert!(part.components.is_feasible(Weight::new(8)));
/// assert_eq!(part.processors, part.components.count());
/// # Ok(())
/// # }
/// ```
pub fn partition_tree<T: TreeView>(
    tree: &T,
    bound: Weight,
) -> Result<TreePartition, PartitionError> {
    let bn = min_bottleneck_cut(tree, bound)?;
    // Lump components into super-nodes; the contracted tree's edges are
    // exactly the bottleneck cut edges, and it is solved as a view.
    let contraction = contract(tree, &bn.cut)?;
    let pm = proc_min(&contraction, bound)?;
    let cut = contraction.lift_cut(&pm.cut);
    let components = tree.components(&cut)?;
    debug_assert!(components.is_feasible(bound));
    debug_assert!(cut.is_subset_of(&bn.cut));
    let bottleneck = tree.bottleneck(&cut)?;
    let bandwidth = tree.cut_weight(&cut)?;
    debug_assert!(bottleneck <= bn.bottleneck);
    Ok(TreePartition {
        processors: components.count(),
        cut,
        components,
        bottleneck,
        bandwidth,
    })
}

/// A complete partition of a linear task graph.
#[derive(Debug, Clone)]
pub struct ChainPartition {
    /// The final edge cut (minimum total weight among feasible cuts).
    pub cut: CutSet,
    /// The contiguous segments of `P − S`, left to right.
    pub segments: Vec<Segment>,
    /// `Σ β(S)` — the minimized bandwidth demand.
    pub bandwidth: Weight,
    /// `max β(S)` of the final cut.
    pub bottleneck: Weight,
    /// Number of processors used (= number of segments).
    pub processors: usize,
}

/// Partitions a linear task graph by bandwidth minimization (§2.3, the
/// `O(n + p log q)` algorithm). The TEMP_S solve runs under `budget`
/// (see [`analyze_bandwidth_with`]), so a deadline that expires
/// mid-solve stops it; callers with no deadline pass
/// [`Budget::unlimited`].
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`;
/// [`PartitionError::Interrupted`] when the budget runs out.
///
/// # Examples
///
/// ```
/// use tgp_core::budget::Budget;
/// use tgp_core::pipeline::partition_chain;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[4, 4, 4, 4, 4], &[9, 1, 9, 1])?;
/// let part = partition_chain(&p, Weight::new(8), &Budget::unlimited())?;
/// assert_eq!(part.bandwidth, Weight::new(2));
/// assert_eq!(part.processors, 3);
/// # Ok(())
/// # }
/// ```
pub fn partition_chain<C: ChainView>(
    path: &C,
    bound: Weight,
    budget: &Budget,
) -> Result<ChainPartition, PartitionError> {
    let (cut, _stats) = analyze_bandwidth_with(path, bound, MergeSearch::Binary, budget)?;
    finish_chain(path, cut)
}

fn finish_chain<C: ChainView>(path: &C, cut: CutSet) -> Result<ChainPartition, PartitionError> {
    let segments = path.segments(&cut)?;
    let bandwidth = path.cut_weight(&cut)?;
    let bottleneck = path.bottleneck(&cut)?;
    Ok(ChainPartition {
        processors: segments.len(),
        cut,
        segments,
        bandwidth,
        bottleneck,
    })
}

/// Views a linear task graph as a [`Tree`] (a path is a tree), enabling
/// the tree algorithms — bottleneck and processor minimization — to run on
/// chains. Edge ids are preserved (`e_i` connects `v_i` and `v_{i+1}`).
pub fn tree_from_path(path: &PathGraph) -> Tree {
    let nodes: Vec<u64> = path.node_weights().map(Weight::get).collect();
    let edges: Vec<(usize, usize, u64)> = path
        .edge_weights()
        .enumerate()
        .map(|(i, w)| (i, i + 1, w.get()))
        .collect();
    Tree::from_raw(&nodes, &edges).expect("a path graph is always a valid tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::EdgeId;

    #[test]
    fn tree_pipeline_end_to_end() {
        // Chain-as-tree [4,4,4,4] with edge weights 5,1,5 and K = 8:
        // bottleneck phase cuts weight-1 and weight-5 edges (prefix until
        // feasible); procmin keeps only what is needed.
        let t = Tree::from_raw(&[4, 4, 4, 4], &[(0, 1, 5), (1, 2, 1), (2, 3, 5)]).unwrap();
        let part = partition_tree(&t, Weight::new(8)).unwrap();
        assert!(part.components.is_feasible(Weight::new(8)));
        assert_eq!(part.processors, 2);
        assert_eq!(part.cut.len(), 1);
        assert!(part.cut.contains(EdgeId::new(1)));
        assert_eq!(part.bottleneck, Weight::new(1));
        assert_eq!(part.bandwidth, Weight::new(1));
    }

    #[test]
    fn tree_pipeline_trivial_when_fits() {
        let t = Tree::from_raw(&[1, 1], &[(0, 1, 7)]).unwrap();
        let part = partition_tree(&t, Weight::new(2)).unwrap();
        assert!(part.cut.is_empty());
        assert_eq!(part.processors, 1);
        assert_eq!(part.bottleneck, Weight::ZERO);
    }

    #[test]
    fn tree_pipeline_errors_on_infeasible_bound() {
        let t = Tree::from_raw(&[9, 1], &[(0, 1, 1)]).unwrap();
        assert!(matches!(
            partition_tree(&t, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn pipeline_never_uses_more_processors_than_bottleneck_cut() {
        use crate::bottleneck::min_bottleneck_cut;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let n = rng.gen_range(2..100);
            let t = random_tree(
                n,
                WeightDist::Uniform { lo: 1, hi: 10 },
                WeightDist::Uniform { lo: 1, hi: 100 },
                &mut rng,
            );
            let k = rng.gen_range(10..=80);
            let part = partition_tree(&t, Weight::new(k)).unwrap();
            let bn = min_bottleneck_cut(&t, Weight::new(k)).unwrap();
            assert!(part.cut.len() <= bn.cut.len());
            assert!(part.bottleneck <= bn.bottleneck);
            assert!(part.components.is_feasible(Weight::new(k)));
            assert_eq!(part.processors, part.cut.len() + 1);
        }
    }

    #[test]
    fn chain_partition_reports_consistent_fields() {
        let p = PathGraph::from_raw(&[4, 4, 4, 4, 4], &[9, 1, 9, 1]).unwrap();
        let part = partition_chain(&p, Weight::new(8), &Budget::unlimited()).unwrap();
        assert_eq!(part.processors, part.segments.len());
        assert_eq!(part.cut.len() + 1, part.segments.len());
        assert_eq!(part.bandwidth, Weight::new(2));
        assert_eq!(part.bottleneck, Weight::new(1));
        assert!(part.segments.iter().all(|s| s.weight <= Weight::new(8)));
    }

    #[test]
    fn tree_from_path_preserves_structure() {
        let p = PathGraph::from_raw(&[2, 3, 5], &[7, 8]).unwrap();
        let t = tree_from_path(&p);
        assert_eq!(t.len(), 3);
        assert_eq!(t.edge_weight(EdgeId::new(0)), Weight::new(7));
        assert_eq!(t.edge_weight(EdgeId::new(1)), Weight::new(8));
        assert_eq!(t.total_weight(), p.total_weight());
    }

    #[test]
    fn chain_as_tree_and_chain_direct_agree_on_feasibility() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_chain, WeightDist};
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..30 {
            let n = rng.gen_range(1..80);
            let p = random_chain(
                n,
                WeightDist::Uniform { lo: 1, hi: 10 },
                WeightDist::Uniform { lo: 1, hi: 40 },
                &mut rng,
            );
            let k = rng.gen_range(10..=60);
            let chain = partition_chain(&p, Weight::new(k), &Budget::unlimited()).unwrap();
            let tree = partition_tree(&tree_from_path(&p), Weight::new(k)).unwrap();
            assert!(tree.components.is_feasible(Weight::new(k)));
            // The chain (bandwidth-optimal) cut never exceeds the tree
            // pipeline's bandwidth.
            assert!(chain.bandwidth <= tree.bandwidth);
        }
    }
}
