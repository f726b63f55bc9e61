//! Facade crate for the `tgp` workspace — a reproduction of
//! *"Improved Algorithms for Partitioning Tree and Linear Task Graphs on
//! Shared Memory Architecture"* (Sibabrata Ray & Hong Jiang, ICDCS 1994).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`graph`] — task-graph substrate (paths, trees, cuts, generators),
//! * [`core`] — the paper's partitioning algorithms,
//! * [`baselines`] — prior-work algorithms (Bokhari, Nicol & O'Hallaron,
//!   Hansen & Lih),
//! * [`shmem`] — shared-memory multiprocessor simulator,
//! * [`dds`] — distributed discrete-event logic simulation application,
//! * [`realtime`] — real-time pipeline application,
//! * [`service`] — concurrent HTTP partition service with caching and
//!   metrics,
//! * [`obs`] — observability primitives (event journal, request
//!   traces, log-linear latency histograms).
//!
//! # Quickstart
//!
//! ```
//! use tgp::graph::{ChainView, PathGraph, Weight};
//! use tgp::core::bandwidth;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = PathGraph::from_raw(&[4, 4, 4, 4, 4], &[9, 1, 9, 1])?;
//! let cut = bandwidth::min_bandwidth_cut(&chain, Weight::new(8))?;
//! assert!(chain.is_feasible_cut(&cut, Weight::new(8))?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use tgp_baselines as baselines;
pub use tgp_core as core;
pub use tgp_dds as dds;
pub use tgp_graph as graph;
pub use tgp_obs as obs;
pub use tgp_realtime as realtime;
pub use tgp_service as service;
pub use tgp_shmem as shmem;
