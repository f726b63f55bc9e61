//! A miniature of the paper's Figure 2 study: how the adaptive cost term
//! `p log q` behaves as the load bound `K` sweeps from tight to loose on
//! one random chain.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example bandwidth_analysis
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tgp::core::bandwidth::analyze_bandwidth;
use tgp::graph::generators::{random_chain, WeightDist};
use tgp::graph::{ChainView, Weight};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let chain = random_chain(
        n,
        WeightDist::Uniform { lo: 1, hi: 100 },
        WeightDist::Uniform { lo: 1, hi: 1000 },
        &mut rng,
    );
    let lo = chain.max_node_weight().get();
    let hi = chain.total_weight().get();
    println!("chain: n = {n}, max vertex weight = {lo}, total = {hi}");
    println!(
        "{:>12} {:>8} {:>9} {:>12} {:>9} {:>10} {:>10}",
        "K", "p", "q", "p·log2 q", "ratio", "cut |S|", "cut β(S)"
    );
    // Geometric sweep over the feasible range of K.
    let points = 14;
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (points as f64 - 1.0));
    for i in 0..points {
        let k = Weight::new((lo as f64 * ratio.powi(i)).round() as u64);
        let (cut, stats) = analyze_bandwidth(&chain, k)?;
        println!(
            "{:>12} {:>8} {:>9.2} {:>12.1} {:>9.4} {:>10} {:>10}",
            k.get(),
            stats.p,
            stats.q_bar,
            stats.p_log_q,
            stats.advantage_ratio(),
            cut.len(),
            stats.cut_weight
        );
    }
    println!();
    println!("reading: the ratio column is p·log2 q / n·log2 n — the paper's");
    println!("adaptivity claim is that it stays well below 1 and dips at both ends.");
    Ok(())
}
