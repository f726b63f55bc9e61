//! A discrete-event shared-memory multiprocessor simulator.
//!
//! The reproduced paper targets shared-memory machines, whose uniform
//! interconnect latency makes mapping partition components to processors
//! trivial (§1, §3). This crate builds that machine so partitions produced
//! by `tgp_core` can be *executed* and compared by observed behaviour:
//!
//! * [`machine`] — processors plus a bus / crossbar / multistage
//!   interconnect with uniform latency and finite per-channel bandwidth,
//! * [`engine`] — a deterministic discrete-event core,
//! * [`pipeline`] — streaming execution of a partitioned chain (the
//!   paper's pipelined application class),
//! * [`onepass`] — one iteration of a partitioned tree computation with
//!   boundary exchange (the paper's iterative/divide-and-conquer class),
//! * [`exchange`] — the generic compute-then-exchange round behind it,
//! * [`metrics`] — makespan, utilization, imbalance, interconnect traffic,
//! * [`analysis`] — closed-form pipeline bounds the simulator is checked
//!   against.
//!
//! # Example
//!
//! ```
//! use tgp_core::budget::Budget;
//! use tgp_core::pipeline::partition_chain;
//! use tgp_graph::{PathGraph, Weight};
//! use tgp_shmem::machine::Machine;
//! use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = PathGraph::from_raw(&[4, 4, 4, 4, 4], &[9, 1, 9, 1])?;
//! let part = partition_chain(&chain, Weight::new(8), &Budget::unlimited())?;
//! let spec = PipelineSpec::from_partition(&chain, &part.cut)?;
//! let report = simulate_pipeline(&spec, &Machine::bus(4)?, 100)?;
//! assert!(report.throughput() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod exchange;
pub mod machine;
pub mod metrics;
pub mod onepass;
pub mod pipeline;

pub use machine::{Interconnect, Machine, MachineError};
pub use metrics::SimReport;
pub use onepass::simulate_onepass;
pub use pipeline::{simulate_pipeline, PipelineSpec, SimError};
