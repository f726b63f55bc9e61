//! The paper's §1 motivating workload: an iterative PDE solver whose
//! domain is decomposed "into strips of grid points of simple iterative
//! calculations where each strip needs data from neighbouring strips".
//!
//! We build the strip chain (non-uniform strip sizes, as produced by local
//! mesh refinement), partition it with the paper's bandwidth-minimization
//! algorithm, and run the iteration loop on a bus-based shared-memory
//! machine, comparing against a blind equal-count block split.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pde_strips
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp::baselines::block::block_partition;
use tgp::core::budget::Budget;
use tgp::core::pipeline::{partition_chain, tree_from_path};
use tgp::graph::{ChainView, PathGraph, Weight};
use tgp::shmem::machine::Machine;
use tgp::shmem::onepass::simulate_onepass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 400 strips; refined regions have many more grid points. Work per
    // strip = points (one update per point per iteration); interface
    // exchange = boundary cells × 8 bytes, here abstracted to "cells".
    let mut rng = SmallRng::seed_from_u64(0x9DE);
    let strips: Vec<u64> = (0..400)
        .map(|i| {
            let refined = (100..150).contains(&i) || (300..320).contains(&i);
            if refined {
                rng.gen_range(400..800)
            } else {
                rng.gen_range(40..80)
            }
        })
        .collect();
    let interfaces: Vec<u64> = (0..399).map(|_| rng.gen_range(8..64)).collect();
    let chain = PathGraph::from_raw(&strips, &interfaces)?;

    let total = chain.total_weight().get();
    let bound = Weight::new(total / 8 + chain.max_node_weight().get());
    println!(
        "domain: {} strips, {} total points, per-processor bound {}",
        chain.len(),
        total,
        bound
    );

    let part = partition_chain(&chain, bound, &Budget::unlimited())?;
    let blocks = block_partition(&chain, part.processors);
    println!(
        "partition: {} processors; interface traffic {} (algorithm) vs {} (block split)",
        part.processors,
        part.bandwidth,
        chain.cut_weight(&blocks)?
    );

    // The iteration loop: each sweep is one compute-and-exchange round.
    let tree = tree_from_path(&chain);
    let machine = Machine::bus(part.processors)?;
    let iterations = 1_000u64;
    for (name, cut) in [("algorithm", &part.cut), ("block split", &blocks)] {
        let round = simulate_onepass(&tree, cut, &machine)?;
        println!(
            "{name:<12}: per-sweep makespan {:>6}  → {iterations} sweeps take {:>9}  \
             (bus busy {:.1}%, worst strip-set load {})",
            round.makespan,
            round.makespan * iterations,
            100.0 * round.interconnect_utilization(),
            round.processor_busy.iter().max().unwrap()
        );
    }

    // Sensitivity: how does the processor count react to the bound?
    println!("\nbound sweep (K → processors, interface traffic):");
    for div in [2u64, 4, 8, 16, 32] {
        let k = Weight::new(total / div + chain.max_node_weight().get());
        let p = partition_chain(&chain, k, &Budget::unlimited())?;
        println!(
            "  K = {:>7} → {:>3} processors, traffic {:>5}",
            k, p.processors, p.bandwidth
        );
    }
    Ok(())
}
