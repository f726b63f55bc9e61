//! Real-time pipelined computing — the first application of the
//! reproduced paper (§3, Figure 3).
//!
//! A real-time task `T` with deadline `k` is maximally divided into a
//! chain of subtasks `t_1 … t_n` with data dependencies `dp_i` between
//! neighbours. The paper's constraints: every partition class must finish
//! within `k`, the total network cost `Σ w(dp)` of cut dependencies must
//! be minimal, and the largest single-link demand `max w(dp)` minimized —
//! which is exactly the chain bandwidth/bottleneck machinery of `tgp_core`.
//! The resulting components map one-to-one onto the processors of a
//! shared-memory machine (Figure 3's trivial mapping).
//!
//! # Example
//!
//! ```
//! use tgp_realtime::{RealTimeTask, Strategy};
//! use tgp_graph::Weight;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let task = RealTimeTask::new(&[3, 4, 2, 5, 1], &[8, 1, 9, 2], Weight::new(9))?;
//! let part = task.partition(Strategy::MinBandwidth)?;
//! assert!(part.groups.iter().all(|g| g.weight <= Weight::new(9)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use tgp_core::bandwidth::min_bandwidth_cut_lexicographic;
use tgp_core::budget::Budget;
use tgp_core::pipeline::{partition_chain, partition_tree, tree_from_path};
use tgp_core::procmin::proc_min;
use tgp_core::PartitionError;
use tgp_graph::{ChainView, CutSet, GraphError, NodeId, PathGraph, Segment, Weight};
use tgp_shmem::machine::Machine;
use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec, SimError};
use tgp_shmem::SimReport;

/// Errors from the real-time partitioning workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtError {
    /// The subtask chain itself is malformed.
    Graph(GraphError),
    /// No feasible partition exists (a subtask alone misses the deadline).
    Partition(PartitionError),
    /// The machine has fewer processors than the partition needs.
    TooFewProcessors {
        /// Processors the partition needs.
        needed: usize,
        /// Processors the machine has.
        available: usize,
    },
    /// The pipeline simulation rejected the configuration.
    Sim(SimError),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Graph(e) => write!(f, "task chain is malformed: {e}"),
            RtError::Partition(e) => write!(f, "no deadline-feasible partition: {e}"),
            RtError::TooFewProcessors { needed, available } => write!(
                f,
                "partition needs {needed} processors but the machine has {available}"
            ),
            RtError::Sim(e) => write!(f, "simulation rejected the schedule: {e}"),
        }
    }
}

impl Error for RtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RtError::Graph(e) => Some(e),
            RtError::Partition(e) => Some(e),
            RtError::Sim(e) => Some(e),
            RtError::TooFewProcessors { .. } => None,
        }
    }
}

impl From<GraphError> for RtError {
    fn from(e: GraphError) -> Self {
        RtError::Graph(e)
    }
}

impl From<PartitionError> for RtError {
    fn from(e: PartitionError) -> Self {
        RtError::Partition(e)
    }
}

impl From<SimError> for RtError {
    fn from(e: SimError) -> Self {
        RtError::Sim(e)
    }
}

/// Which of the paper's partitioning objectives to prioritize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Strategy {
    /// Minimize total network cost `Σ w(dp)` over cut dependencies
    /// (§2.3's bandwidth minimization) — the default.
    #[default]
    MinBandwidth,
    /// Minimize the largest single-link demand `max w(dp)` (§2.1's
    /// bottleneck minimization, followed by §2.2's processor
    /// minimization to undo fragmentation).
    MinBottleneck,
    /// Minimize the number of processors that meet the deadline (§2.2's
    /// processor minimization applied directly) — for deployments where
    /// hardware is the scarce resource rather than the interconnect.
    MinProcessors,
    /// The paper's literal §3 requirement — "Σ w(dp) is minimum and
    /// max w(dp) is minimized" — read lexicographically: drive the
    /// bottleneck to its optimum first, then minimize the total among
    /// cuts within that bottleneck.
    Lexicographic,
}

/// A real-time task: a chain of subtasks with a completion deadline per
/// partition class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealTimeTask {
    chain: PathGraph,
    deadline: Weight,
}

impl RealTimeTask {
    /// Creates a task from subtask durations `w(t_i)`, dependency costs
    /// `w(dp_i)` and the deadline `k`.
    ///
    /// # Errors
    ///
    /// [`RtError::Graph`] if the chain dimensions are inconsistent;
    /// [`RtError::Partition`] if some subtask alone exceeds the deadline
    /// (the paper requires `w(t_i) ≤ k`).
    pub fn new(durations: &[u64], dep_costs: &[u64], deadline: Weight) -> Result<Self, RtError> {
        let chain = PathGraph::from_raw(durations, dep_costs)?;
        // Surface the infeasibility at construction, as the paper's
        // constraint list does.
        for (i, w) in chain.node_weights().enumerate() {
            if w > deadline {
                return Err(RtError::Partition(PartitionError::BoundTooSmall {
                    node: NodeId::new(i),
                    weight: w,
                    bound: deadline,
                }));
            }
        }
        Ok(RealTimeTask { chain, deadline })
    }

    /// The underlying subtask chain.
    pub fn chain(&self) -> &PathGraph {
        &self.chain
    }

    /// The deadline `k`.
    pub fn deadline(&self) -> Weight {
        self.deadline
    }

    /// Partitions the task into deadline-feasible groups under the given
    /// strategy.
    ///
    /// # Errors
    ///
    /// [`RtError::Partition`] if no feasible partition exists.
    pub fn partition(&self, strategy: Strategy) -> Result<RtPartition, RtError> {
        let cut = match strategy {
            Strategy::MinBandwidth => {
                partition_chain(&self.chain, self.deadline, &Budget::unlimited())?.cut
            }
            Strategy::MinBottleneck => {
                partition_tree(&tree_from_path(&self.chain), self.deadline)?.cut
            }
            Strategy::MinProcessors => proc_min(&tree_from_path(&self.chain), self.deadline)?.cut,
            Strategy::Lexicographic => {
                min_bandwidth_cut_lexicographic(&self.chain, self.deadline, &Budget::unlimited())?
            }
        };
        let groups = self.chain.segments(&cut)?;
        let bandwidth = self.chain.cut_weight(&cut)?;
        let bottleneck = self.chain.bottleneck(&cut)?;
        Ok(RtPartition {
            processors: groups.len(),
            cut,
            groups,
            bandwidth,
            bottleneck,
            strategy,
        })
    }
}

/// A deadline-feasible partition of a real-time task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtPartition {
    /// The cut dependencies.
    pub cut: CutSet,
    /// The subtask groups `T_1 … T_p`, in chain order.
    pub groups: Vec<Segment>,
    /// Processors needed (one per group — the trivial mapping).
    pub processors: usize,
    /// Total network cost of the cut dependencies.
    pub bandwidth: Weight,
    /// Largest single cut dependency.
    pub bottleneck: Weight,
    /// The strategy that produced this partition.
    pub strategy: Strategy,
}

impl RtPartition {
    /// Renders the partition as a Figure 3-style text diagram:
    /// one processor per line with its subtasks and load.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (p, g) in self.groups.iter().enumerate() {
            let _ = writeln!(out, "P{p}: t{}..t{}  load={}", g.start, g.end, g.weight);
        }
        let _ = writeln!(
            out,
            "cut cost: total={} max={}",
            self.bandwidth, self.bottleneck
        );
        out
    }
}

/// Admission control: verifies the partition fits `machine` and runs a
/// stream of `items` task instances through the resulting pipeline,
/// returning the observed report.
///
/// # Errors
///
/// [`RtError::TooFewProcessors`] if the partition needs more processors
/// than available; [`RtError::Sim`] on simulation-level rejections.
pub fn admit(
    task: &RealTimeTask,
    partition: &RtPartition,
    machine: &Machine,
    items: usize,
) -> Result<SimReport, RtError> {
    if partition.processors > machine.processors() {
        return Err(RtError::TooFewProcessors {
            needed: partition.processors,
            available: machine.processors(),
        });
    }
    let spec = PipelineSpec::from_partition(task.chain(), &partition.cut)?;
    Ok(simulate_pipeline(&spec, machine, items)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::EdgeId;

    fn task() -> RealTimeTask {
        RealTimeTask::new(&[3, 4, 2, 5, 1], &[8, 1, 9, 2], Weight::new(9)).unwrap()
    }

    #[test]
    fn construction_checks_deadline() {
        let err = RealTimeTask::new(&[3, 12], &[1], Weight::new(9)).unwrap_err();
        assert!(matches!(err, RtError::Partition(_)));
        let err = RealTimeTask::new(&[], &[], Weight::new(9)).unwrap_err();
        assert!(matches!(err, RtError::Graph(_)));
    }

    #[test]
    fn bandwidth_strategy_minimizes_total() {
        let t = task();
        let p = t.partition(Strategy::MinBandwidth).unwrap();
        // Weights [3,4,2,5,1], K=9: cheapest feasible cut is edge 1
        // (cost 1): groups [3,4]=7 and [2,5,1]=8.
        assert_eq!(p.cut.as_slice(), &[EdgeId::new(1)]);
        assert_eq!(p.bandwidth, Weight::new(1));
        assert_eq!(p.processors, 2);
        assert!(p.groups.iter().all(|g| g.weight <= Weight::new(9)));
    }

    #[test]
    fn bottleneck_strategy_minimizes_max_link() {
        let t = task();
        let p = t.partition(Strategy::MinBottleneck).unwrap();
        assert!(p.groups.iter().all(|g| g.weight <= Weight::new(9)));
        // The bottleneck of the bottleneck-first partition never exceeds
        // that of the bandwidth-first one.
        let pb = t.partition(Strategy::MinBandwidth).unwrap();
        assert!(p.bottleneck <= pb.bottleneck);
    }

    #[test]
    fn lexicographic_strategy_dominates_both_objectives() {
        let t = task();
        let lex = t.partition(Strategy::Lexicographic).unwrap();
        let bn = t.partition(Strategy::MinBottleneck).unwrap();
        let bw = t.partition(Strategy::MinBandwidth).unwrap();
        // Bottleneck-optimal, and no worse on total than any other cut
        // with that bottleneck.
        assert!(lex.bottleneck <= bn.bottleneck);
        assert!(lex.bandwidth >= bw.bandwidth); // total may pay for the cap
        assert!(lex.groups.iter().all(|g| g.weight <= t.deadline()));
    }

    #[test]
    fn min_processors_strategy_is_minimal() {
        let t = task();
        let p = t.partition(Strategy::MinProcessors).unwrap();
        assert!(p.groups.iter().all(|g| g.weight <= Weight::new(9)));
        // No other strategy can use fewer processors.
        for s in [Strategy::MinBandwidth, Strategy::MinBottleneck] {
            assert!(p.processors <= t.partition(s).unwrap().processors);
        }
    }

    #[test]
    fn render_mentions_every_processor() {
        let p = task().partition(Strategy::default()).unwrap();
        let s = p.render();
        assert!(s.contains("P0:"));
        assert!(s.contains("P1:"));
        assert!(s.contains("cut cost"));
    }

    #[test]
    fn admission_checks_processor_count() {
        let t = task();
        let p = t.partition(Strategy::MinBandwidth).unwrap();
        let small = Machine::bus(1).unwrap();
        let err = admit(&t, &p, &small, 10).unwrap_err();
        assert!(matches!(err, RtError::TooFewProcessors { .. }));
        assert!(err.to_string().contains('1'));
        let big = Machine::bus(4).unwrap();
        let report = admit(&t, &p, &big, 10).unwrap();
        assert_eq!(report.items, 10);
        assert!(report.makespan > 0);
    }

    #[test]
    fn trivial_task_fits_one_processor() {
        let t = RealTimeTask::new(&[2, 2], &[5], Weight::new(10)).unwrap();
        let p = t.partition(Strategy::MinBandwidth).unwrap();
        assert_eq!(p.processors, 1);
        assert!(p.cut.is_empty());
        assert_eq!(p.bandwidth, Weight::ZERO);
    }

    #[test]
    fn error_sources_chain() {
        let e: RtError = PartitionError::BoundTooSmall {
            node: tgp_graph::NodeId::new(0),
            weight: Weight::new(5),
            bound: Weight::new(1),
        }
        .into();
        assert!(e.source().is_some());
        let e2 = RtError::TooFewProcessors {
            needed: 4,
            available: 2,
        };
        assert!(e2.source().is_none());
    }
}
