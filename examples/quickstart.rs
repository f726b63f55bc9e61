//! Quickstart: partition a linear task graph for a shared-memory machine.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tgp::core::bandwidth::analyze_bandwidth;
use tgp::core::budget::Budget;
use tgp::core::pipeline::{partition_chain, partition_tree, tree_from_path};
use tgp::graph::{dot, PathGraph, Weight};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A ten-stage pipeline: vertex weights are per-stage instruction
    // counts, edge weights are message volumes between stages.
    let chain = PathGraph::from_raw(
        &[12, 7, 9, 14, 4, 11, 6, 10, 8, 5],
        &[40, 12, 95, 23, 7, 61, 18, 33, 26],
    )?;
    let bound = Weight::new(25);

    println!("== bandwidth minimization (Section 2.3, O(n + p log q)) ==");
    let part = partition_chain(&chain, bound, &Budget::unlimited())?;
    for (i, seg) in part.segments.iter().enumerate() {
        println!(
            "  processor {i}: tasks {}..={} (load {})",
            seg.start, seg.end, seg.weight
        );
    }
    println!(
        "  cut weight (bus traffic): {}   bottleneck link: {}",
        part.bandwidth, part.bottleneck
    );

    println!("\n== instance statistics (the Figure 2 quantities) ==");
    let (_, stats) = analyze_bandwidth(&chain, bound)?;
    println!(
        "  n = {}  p = {}  q = {:.2}  p·log2 q = {:.1}  vs n·log2 n = {:.1}",
        stats.n, stats.p, stats.q_bar, stats.p_log_q, stats.n_log_n
    );

    println!("\n== the same chain through the tree workflow (2.1 + 2.2) ==");
    let tree = tree_from_path(&chain);
    let tp = partition_tree(&tree, bound)?;
    println!(
        "  processors: {}   bottleneck: {}   bandwidth: {}",
        tp.processors, tp.bottleneck, tp.bandwidth
    );

    println!("\n== Graphviz rendering of the bandwidth partition ==");
    print!("{}", dot::path_to_dot(&chain, Some(&part.cut)));
    Ok(())
}
