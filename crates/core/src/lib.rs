//! Partitioning algorithms from *"Improved Algorithms for Partitioning
//! Tree and Linear Task Graphs on Shared Memory Architecture"*
//! (Sibabrata Ray & Hong Jiang, ICDCS 1994).
//!
//! Given a task graph whose vertices carry processing requirements and
//! whose edges carry communication volumes, and a per-processor load bound
//! `K`, the paper partitions the graph into connected components (each
//! assigned to one processor of a shared-memory machine — the mapping is
//! trivial because interconnect latency is uniform) optimizing three
//! objectives:
//!
//! * [`bottleneck`] — minimize the heaviest cut edge (trees, Alg. 2.1),
//! * [`procmin`] — minimize the number of processors (trees, Alg. 2.2),
//! * [`bandwidth`] — minimize the total cut weight (chains, the headline
//!   `O(n + p log q)` TEMP_S algorithm of §2.3.1),
//!
//! plus [`knapsack`], the executable form of Theorem 1 (bandwidth
//! minimization on trees is NP-complete, by reduction to 0-1 knapsack),
//! [`pipeline`], the composed workflow of Section 3, [`approx`], the
//! linear/tree super-graph route to general process graphs suggested in
//! the paper's conclusion, and [`tree_bandwidth`], the pseudo-polynomial
//! exact solver that matches Theorem 1's knapsack complexity on trees.
//!
//! # Example
//!
//! ```
//! use tgp_core::budget::Budget;
//! use tgp_core::pipeline::partition_chain;
//! use tgp_graph::{PathGraph, Weight};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A pipeline of five stages, deadline-bound to 8 units per processor.
//! let chain = PathGraph::from_raw(&[4, 4, 4, 4, 4], &[9, 1, 9, 1])?;
//! let part = partition_chain(&chain, Weight::new(8), &Budget::unlimited())?;
//! assert_eq!(part.processors, 3);
//! assert_eq!(part.bandwidth, Weight::new(2)); // cheapest feasible cut
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod bandwidth;
pub mod bottleneck;
pub mod budget;
mod error;
pub mod knapsack;
pub mod pipeline;
pub mod procmin;
pub mod tree_bandwidth;

pub use error::PartitionError;
