//! Streaming execution of a partitioned pipeline.
//!
//! The paper's first application class: a chain of tasks through which a
//! stream of problem instances flows ("a sequence of such problems can be
//! 'fed' to the pipeline and keep all stages busy"). After partitioning,
//! each segment becomes a pipeline *stage* pinned to one processor;
//! consecutive stages exchange one message per item over the interconnect.
//!
//! [`simulate_pipeline`] runs the resulting system as a discrete-event
//! simulation with interconnect contention, so partitions can be compared
//! by *observed* throughput and utilization, not just by their static cut
//! weights.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use tgp_graph::{ChainView, CutSet, PathGraph, Weight};

use crate::engine::EventQueue;
use crate::machine::Machine;
use crate::metrics::SimReport;

/// A pipeline extracted from a partitioned chain: per-stage compute work
/// and per-boundary message volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Compute work per stage (segment vertex-weight totals).
    pub stage_work: Vec<Weight>,
    /// Message volume between consecutive stages (cut-edge weights).
    pub stage_comm: Vec<Weight>,
}

impl PipelineSpec {
    /// Builds a pipeline spec from a chain and a cut.
    ///
    /// # Errors
    ///
    /// Propagates [`tgp_graph::GraphError`] if the cut does not fit the
    /// chain.
    pub fn from_partition(path: &PathGraph, cut: &CutSet) -> Result<Self, tgp_graph::GraphError> {
        let segments = path.segments(cut)?;
        let stage_work = segments.iter().map(|s| s.weight).collect();
        let stage_comm = cut.iter().map(|e| path.edge_weight(e)).collect();
        Ok(PipelineSpec {
            stage_work,
            stage_comm,
        })
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stage_work.len()
    }
}

/// Errors from pipeline simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// More stages than processors: the partition does not fit the
    /// machine.
    TooManyStages {
        /// Stages in the pipeline.
        stages: usize,
        /// Processors available.
        processors: usize,
    },
    /// The spec is inconsistent (`stage_comm.len() != stages - 1`).
    BadSpec {
        /// Stages in the pipeline.
        stages: usize,
        /// Boundary count supplied.
        comms: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyStages { stages, processors } => write!(
                f,
                "pipeline has {stages} stages but the machine has only {processors} processors"
            ),
            SimError::BadSpec { stages, comms } => write!(
                f,
                "a {stages}-stage pipeline needs {} boundaries, got {comms}",
                stages.saturating_sub(1)
            ),
        }
    }
}

impl Error for SimError {}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// An item arrived at a stage's input queue.
    Arrive { stage: usize, item: usize },
    /// A stage finished computing an item.
    ComputeDone { stage: usize, item: usize },
    /// A transfer from `stage` to `stage + 1` finished.
    TransferDone { stage: usize, item: usize },
}

/// Simulates `items` problem instances streaming through the pipeline on
/// `machine`, with transfers contending for the interconnect channels
/// (FIFO service in request order).
///
/// # Errors
///
/// [`SimError`] if the pipeline does not fit the machine or the spec is
/// inconsistent.
///
/// # Examples
///
/// ```
/// use tgp_graph::Weight;
/// use tgp_shmem::machine::Machine;
/// use tgp_shmem::pipeline::{simulate_pipeline, PipelineSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = PipelineSpec {
///     stage_work: vec![Weight::new(4), Weight::new(4)],
///     stage_comm: vec![Weight::new(2)],
/// };
/// let machine = Machine::bus(2)?;
/// let report = simulate_pipeline(&spec, &machine, 10)?;
/// assert!(report.makespan > 0);
/// assert_eq!(report.total_traffic, 20); // 10 items × volume 2
/// # Ok(())
/// # }
/// ```
pub fn simulate_pipeline(
    spec: &PipelineSpec,
    machine: &Machine,
    items: usize,
) -> Result<SimReport, SimError> {
    let stages = spec.stages();
    if spec.stage_comm.len() + 1 != stages {
        return Err(SimError::BadSpec {
            stages,
            comms: spec.stage_comm.len(),
        });
    }
    if stages > machine.processors() {
        return Err(SimError::TooManyStages {
            stages,
            processors: machine.processors(),
        });
    }
    let channels = machine.interconnect().concurrency(machine.processors());
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut stage_busy_until = vec![0u64; stages];
    let mut stage_ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); stages];
    let mut stage_idle = vec![true; stages];
    let mut processor_busy = vec![0u64; machine.processors()];
    let mut free_channels = channels;
    let mut pending_transfers: VecDeque<(usize, usize)> = VecDeque::new();
    let mut channel_busy = 0u64;
    let mut link_traffic = vec![0u64; spec.stage_comm.len()];
    let mut makespan = 0u64;
    for item in 0..items {
        queue.schedule(0, Event::Arrive { stage: 0, item });
    }
    while let Some((now, event)) = queue.pop() {
        makespan = makespan.max(now);
        match event {
            Event::Arrive { stage, item } => {
                stage_ready[stage].push_back(item);
                if stage_idle[stage] {
                    start_next(
                        now,
                        stage,
                        spec,
                        machine,
                        &mut queue,
                        &mut stage_ready,
                        &mut stage_idle,
                        &mut stage_busy_until,
                        &mut processor_busy,
                    );
                }
            }
            Event::ComputeDone { stage, item } => {
                stage_idle[stage] = true;
                if stage + 1 < stages {
                    // Request a transfer over the interconnect.
                    if free_channels > 0 {
                        free_channels -= 1;
                        let dur = machine.transfer_time(spec.stage_comm[stage].get());
                        channel_busy += dur;
                        link_traffic[stage] += spec.stage_comm[stage].get();
                        queue.schedule(now + dur, Event::TransferDone { stage, item });
                    } else {
                        pending_transfers.push_back((stage, item));
                    }
                }
                start_next(
                    now,
                    stage,
                    spec,
                    machine,
                    &mut queue,
                    &mut stage_ready,
                    &mut stage_idle,
                    &mut stage_busy_until,
                    &mut processor_busy,
                );
            }
            Event::TransferDone { stage, item } => {
                queue.schedule(
                    now,
                    Event::Arrive {
                        stage: stage + 1,
                        item,
                    },
                );
                if let Some((s, i)) = pending_transfers.pop_front() {
                    let dur = machine.transfer_time(spec.stage_comm[s].get());
                    channel_busy += dur;
                    link_traffic[s] += spec.stage_comm[s].get();
                    queue.schedule(now + dur, Event::TransferDone { stage: s, item: i });
                } else {
                    free_channels += 1;
                }
            }
        }
    }
    let total_traffic = link_traffic.iter().sum();
    Ok(SimReport {
        makespan,
        items,
        processor_busy,
        total_traffic,
        link_traffic,
        channel_busy,
        channels,
    })
}

#[allow(clippy::too_many_arguments)]
fn start_next(
    now: u64,
    stage: usize,
    spec: &PipelineSpec,
    machine: &Machine,
    queue: &mut EventQueue<Event>,
    stage_ready: &mut [VecDeque<usize>],
    stage_idle: &mut [bool],
    stage_busy_until: &mut [u64],
    processor_busy: &mut [u64],
) {
    if !stage_idle[stage] {
        return;
    }
    if let Some(item) = stage_ready[stage].pop_front() {
        stage_idle[stage] = false;
        let dur = machine.compute_time(spec.stage_work[stage].get());
        processor_busy[stage] += dur;
        stage_busy_until[stage] = now + dur;
        queue.schedule(now + dur, Event::ComputeDone { stage, item });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Interconnect;
    use tgp_graph::{CutSet, EdgeId};

    fn machine(p: usize, net: Interconnect) -> Machine {
        Machine::new(p, 1, 1, 0, net).unwrap()
    }

    #[test]
    fn spec_from_partition() {
        let path = PathGraph::from_raw(&[2, 3, 5, 7], &[10, 20, 30]).unwrap();
        let cut = CutSet::new(vec![EdgeId::new(1)]);
        let spec = PipelineSpec::from_partition(&path, &cut).unwrap();
        assert_eq!(spec.stages(), 2);
        assert_eq!(spec.stage_work, vec![Weight::new(5), Weight::new(12)]);
        assert_eq!(spec.stage_comm, vec![Weight::new(20)]);
    }

    #[test]
    fn rejects_oversized_pipelines_and_bad_specs() {
        let spec = PipelineSpec {
            stage_work: vec![Weight::new(1); 3],
            stage_comm: vec![Weight::new(1); 2],
        };
        let err = simulate_pipeline(&spec, &machine(2, Interconnect::Bus), 1).unwrap_err();
        assert!(matches!(err, SimError::TooManyStages { .. }));
        let bad = PipelineSpec {
            stage_work: vec![Weight::new(1); 3],
            stage_comm: vec![Weight::new(1); 5],
        };
        let err = simulate_pipeline(&bad, &machine(8, Interconnect::Bus), 1).unwrap_err();
        assert!(matches!(err, SimError::BadSpec { .. }));
        assert!(err.to_string().contains('2'));
    }

    #[test]
    fn single_stage_runs_items_back_to_back() {
        let spec = PipelineSpec {
            stage_work: vec![Weight::new(5)],
            stage_comm: vec![],
        };
        let r = simulate_pipeline(&spec, &machine(1, Interconnect::Bus), 4).unwrap();
        assert_eq!(r.makespan, 20);
        assert_eq!(r.items, 4);
        assert_eq!(r.total_traffic, 0);
        assert_eq!(r.processor_busy[0], 20);
        assert!((r.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_stage_pipeline_overlaps() {
        // Stages of 4 and 4, free communication: steady state one item
        // per 4 time units; makespan = 4 * items + 4 (fill latency).
        let spec = PipelineSpec {
            stage_work: vec![Weight::new(4), Weight::new(4)],
            stage_comm: vec![Weight::new(0)],
        };
        let r = simulate_pipeline(&spec, &machine(2, Interconnect::Crossbar), 10).unwrap();
        assert_eq!(r.makespan, 44);
    }

    #[test]
    fn bus_contention_slows_heavy_communication() {
        // Three stages, two links of volume 8 each, unit work: on a bus
        // the links serialize; on a crossbar they overlap.
        let spec = PipelineSpec {
            stage_work: vec![Weight::new(1); 3],
            stage_comm: vec![Weight::new(8), Weight::new(8)],
        };
        let bus = simulate_pipeline(&spec, &machine(3, Interconnect::Bus), 20).unwrap();
        let xbar = simulate_pipeline(&spec, &machine(3, Interconnect::Crossbar), 20).unwrap();
        assert!(
            bus.makespan > xbar.makespan,
            "bus {} vs crossbar {}",
            bus.makespan,
            xbar.makespan
        );
        assert_eq!(bus.total_traffic, xbar.total_traffic);
        assert_eq!(bus.total_traffic, 20 * 16);
        assert_eq!(bus.max_link_traffic(), 20 * 8);
    }

    #[test]
    fn throughput_is_limited_by_the_slowest_stage() {
        let spec = PipelineSpec {
            stage_work: vec![Weight::new(2), Weight::new(10), Weight::new(2)],
            stage_comm: vec![Weight::new(0), Weight::new(0)],
        };
        let r = simulate_pipeline(&spec, &machine(3, Interconnect::Crossbar), 50).unwrap();
        // Steady-state period = 10 (the bottleneck stage).
        assert!(r.makespan >= 500);
        assert!(r.makespan <= 520);
    }

    #[test]
    fn zero_items_is_a_noop() {
        let spec = PipelineSpec {
            stage_work: vec![Weight::new(3)],
            stage_comm: vec![],
        };
        let r = simulate_pipeline(&spec, &machine(1, Interconnect::Bus), 0).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.throughput(), 0.0);
    }
}
