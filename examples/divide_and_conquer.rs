//! The paper's motivating use case for *tree* task graphs:
//! "algorithms and computations of divide-and-conquer nature form tree
//! type structures" (§1). We model a mergesort-style computation: a
//! binary task tree whose leaves sort base blocks and whose internal
//! nodes merge their children's results; edge weights are the data
//! volumes flowing up.
//!
//! The composed workflow (bottleneck minimization → contraction →
//! processor minimization) partitions the tree, and the shared-memory
//! simulator executes one pass of it against a naive "cut the top levels"
//! partition.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example divide_and_conquer
//! ```

use tgp::core::pipeline::partition_tree;
use tgp::core::procmin::proc_min;
use tgp::graph::{CutSet, EdgeId, NodeId, Tree, TreeEdge, TreeView, Weight};
use tgp::shmem::machine::Machine;
use tgp::shmem::onepass::simulate_onepass;

/// Builds the mergesort task tree over `elements` items with leaf blocks
/// of `base` items. Node weight ≈ merge cost (n log-ish), edge weight =
/// data volume sent to the parent.
fn mergesort_tree(elements: u64, base: u64) -> Tree {
    fn build(span: u64, base: u64, nodes: &mut Vec<Weight>, edges: &mut Vec<TreeEdge>) -> NodeId {
        // Merge cost at this node: proportional to span (a single merge
        // pass); leaves pay span * 4 for the base sort.
        let id = NodeId::new(nodes.len());
        if span <= base {
            nodes.push(Weight::new(span * 4));
            return id;
        }
        nodes.push(Weight::new(span));
        let placeholder = nodes.len() - 1;
        let left = build(span / 2, base, nodes, edges);
        let right = build(span - span / 2, base, nodes, edges);
        // Children send their sorted halves up.
        edges.push(TreeEdge::new(
            NodeId::new(placeholder),
            left,
            Weight::new(span / 2),
        ));
        edges.push(TreeEdge::new(
            NodeId::new(placeholder),
            right,
            Weight::new(span - span / 2),
        ));
        id
    }
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    build(elements, base, &mut nodes, &mut edges);
    Tree::from_edges(nodes, edges).expect("construction yields a valid tree")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = mergesort_tree(4096, 256);
    println!(
        "mergesort task tree: {} tasks, total work {}",
        tree.len(),
        tree.total_weight()
    );

    let bound = Weight::new(tree.total_weight().get() / 6);
    let part = partition_tree(&tree, bound)?;
    println!(
        "\ncomposed workflow (Alg. 2.1 + 2.2): {} processors, bottleneck {}, bandwidth {}",
        part.processors, part.bottleneck, part.bandwidth
    );
    let pm = proc_min(&tree, bound)?;
    println!(
        "processor minimization alone would also need {} processors",
        pm.component_count
    );

    // Naive comparison: cut the two top-level edges (subtree-per-branch).
    let naive = CutSet::new(vec![
        EdgeId::new(tree.edge_count() - 1),
        EdgeId::new(tree.edge_count() - 2),
    ]);
    let machine = Machine::bus(part.processors.max(3))?;
    let smart_run = simulate_onepass(&tree, &part.cut, &machine)?;
    let naive_run = simulate_onepass(&tree, &naive, &machine)?;
    println!(
        "\none pass on a bus machine ({} processors):",
        machine.processors()
    );
    println!(
        "  algorithm : makespan {:>6}, traffic {:>6}, imbalance {:.2}",
        smart_run.makespan,
        smart_run.total_traffic,
        smart_run.load_imbalance()
    );
    println!(
        "  top-split : makespan {:>6}, traffic {:>6}, imbalance {:.2}",
        naive_run.makespan,
        naive_run.total_traffic,
        naive_run.load_imbalance()
    );
    Ok(())
}
