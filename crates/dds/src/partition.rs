//! Partitioning a simulated circuit across processors.
//!
//! The paper's §3 recipe, end to end: measure per-process computation and
//! per-wire message counts ([`crate::sim`]), build the weighted process
//! graph, approximate it by a *linear super-graph*, partition that chain
//! with the paper's bandwidth-minimization algorithm, and map each segment
//! to a processor of the shared-memory machine.

use std::error::Error;
use std::fmt;

use tgp_core::budget::Budget;
use tgp_core::pipeline::partition_chain;
use tgp_core::PartitionError;
use tgp_graph::supergraph::{linear_supergraph, LinearOrdering};
use tgp_graph::{GraphError, NodeId, ProcessEdge, ProcessGraph, Weight};

use crate::circuit::Circuit;
use crate::sim::ActivityProfile;

/// Errors from circuit partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DdsError {
    /// Building the process graph failed (e.g. the circuit's wire graph is
    /// disconnected).
    Graph(GraphError),
    /// The chain partition failed (e.g. the load bound is below one
    /// gate's measured work).
    Partition(PartitionError),
}

impl fmt::Display for DdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdsError::Graph(e) => write!(f, "process graph construction failed: {e}"),
            DdsError::Partition(e) => write!(f, "partitioning failed: {e}"),
        }
    }
}

impl Error for DdsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DdsError::Graph(e) => Some(e),
            DdsError::Partition(e) => Some(e),
        }
    }
}

impl From<GraphError> for DdsError {
    fn from(e: GraphError) -> Self {
        DdsError::Graph(e)
    }
}

impl From<PartitionError> for DdsError {
    fn from(e: PartitionError) -> Self {
        DdsError::Partition(e)
    }
}

/// A placement of every gate onto a processor, with quality metrics
/// derived from the *original* (non-approximated) process graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPartition {
    /// `processor_of[g]` = processor hosting gate `g`.
    pub processor_of: Vec<usize>,
    /// Number of processors used.
    pub processors: usize,
    /// Measured computation load per processor.
    pub load: Vec<u64>,
    /// Messages staying within a processor.
    pub intra_messages: u64,
    /// Messages crossing processors (interconnect traffic).
    pub inter_messages: u64,
}

impl CircuitPartition {
    /// Fraction of messages that stay on-processor (1.0 = all local).
    pub fn locality(&self) -> f64 {
        let total = self.intra_messages + self.inter_messages;
        if total == 0 {
            1.0
        } else {
            self.intra_messages as f64 / total as f64
        }
    }

    /// Max processor load over mean load (1.0 = perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let max = self.load.iter().copied().max().unwrap_or(0);
        let sum: u64 = self.load.iter().sum();
        if sum == 0 {
            0.0
        } else {
            max as f64 / (sum as f64 / self.load.len() as f64)
        }
    }

    /// The heaviest processor load.
    pub fn max_load(&self) -> u64 {
        self.load.iter().copied().max().unwrap_or(0)
    }
}

/// Builds the weighted process graph of a simulated circuit: one node per
/// gate (weight = measured evaluations + 1, so idle gates still cost their
/// bookkeeping), one edge per wire (weight = measured messages; parallel
/// wires merge).
///
/// # Errors
///
/// [`GraphError::Disconnected`] if the circuit's wire graph is not
/// connected (partitioning a disconnected simulation is out of the
/// paper's scope).
pub fn process_graph(
    circuit: &Circuit,
    profile: &ActivityProfile,
) -> Result<ProcessGraph, GraphError> {
    let node_weights: Vec<Weight> = profile
        .evaluations
        .iter()
        .map(|&e| Weight::new(e + 1))
        .collect();
    let wires = circuit.wires();
    let edges: Vec<ProcessEdge> = wires
        .iter()
        .zip(&profile.wire_messages)
        .filter(|((u, v), _)| u != v)
        .map(|(&(u, v), &m)| ProcessEdge {
            a: NodeId::new(u.0),
            b: NodeId::new(v.0),
            weight: Weight::new(m),
        })
        .collect();
    ProcessGraph::from_edges(node_weights, edges)
}

/// Partitions a simulated circuit under a per-processor load bound using
/// the linear super-graph approximation and the paper's bandwidth
/// minimization.
///
/// # Errors
///
/// [`DdsError`] if the process graph cannot be built or the bound is
/// below a single gate's measured load.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use tgp_dds::generators::johnson_counter;
/// use tgp_dds::partition::partition_circuit;
/// use tgp_dds::sim::simulate_activity;
/// use tgp_graph::Weight;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = johnson_counter(8)?;
/// let profile = simulate_activity(&circuit, 200, &mut SmallRng::seed_from_u64(5));
/// let part = partition_circuit(&circuit, &profile, Weight::new(500))?;
/// assert!(part.processors >= 1);
/// assert!(part.locality() >= 0.0);
/// # Ok(())
/// # }
/// ```
pub fn partition_circuit(
    circuit: &Circuit,
    profile: &ActivityProfile,
    bound: Weight,
) -> Result<CircuitPartition, DdsError> {
    // The super-graph approximation's quality depends on the circuit's
    // shape (a ring suits its natural gate order; a tree-ish netlist
    // suits the spanning-tree route). Delegate to tgp-core's best-of
    // selection, which scores every candidate by its true cut cost on the
    // measured process graph.
    let g = process_graph(circuit, profile)?;
    let part = tgp_core::approx::partition_process_graph_best(&g, bound)?;
    Ok(report(circuit, profile, part.part_of, part.parts))
}

/// Like [`partition_circuit`], but restricted to the linear super-graph
/// route with an explicit ordering (the ablation hook used by tests and
/// benches).
///
/// # Errors
///
/// [`DdsError`] if the process graph cannot be built or the bound is
/// below a single gate's measured load.
pub fn partition_circuit_with_ordering(
    circuit: &Circuit,
    profile: &ActivityProfile,
    bound: Weight,
    ordering: LinearOrdering,
) -> Result<CircuitPartition, DdsError> {
    let g = process_graph(circuit, profile)?;
    let sup = linear_supergraph(&g, ordering)?;
    let part = partition_chain(sup.path(), bound, &Budget::unlimited())?;
    // Map each gate through its position to its segment index.
    let mut processor_of = vec![0usize; circuit.len()];
    for (seg_idx, seg) in part.segments.iter().enumerate() {
        for pos in seg.start..=seg.end {
            processor_of[sup.process_at(pos).index()] = seg_idx;
        }
    }
    Ok(report(circuit, profile, processor_of, part.processors))
}

/// Baseline: split gates into `parts` blocks of near-equal gate count in
/// id order, ignoring measured weights (the strawman the algorithms are
/// compared against).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn partition_circuit_block(
    circuit: &Circuit,
    profile: &ActivityProfile,
    parts: usize,
) -> CircuitPartition {
    assert!(parts > 0, "at least one part is required");
    let n = circuit.len();
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut processor_of = vec![0usize; n];
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        for slot in &mut processor_of[start..start + len] {
            *slot = p;
        }
        start += len;
    }
    report(circuit, profile, processor_of, parts)
}

fn report(
    circuit: &Circuit,
    profile: &ActivityProfile,
    processor_of: Vec<usize>,
    processors: usize,
) -> CircuitPartition {
    let mut load = vec![0u64; processors];
    for (g, &p) in processor_of.iter().enumerate() {
        load[p] += profile.evaluations[g] + 1;
    }
    let mut intra = 0u64;
    let mut inter = 0u64;
    for ((u, v), &m) in circuit.wires().iter().zip(&profile.wire_messages) {
        if processor_of[u.0] == processor_of[v.0] {
            intra += m;
        } else {
            inter += m;
        }
    }
    CircuitPartition {
        processor_of,
        processors,
        load,
        intra_messages: intra,
        inter_messages: inter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{johnson_counter, shift_register};
    use crate::sim::simulate_activity;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    #[test]
    fn process_graph_mirrors_circuit() {
        let c = shift_register(6).unwrap();
        let p = simulate_activity(&c, 100, &mut rng());
        let g = process_graph(&c, &p).unwrap();
        assert_eq!(g.len(), 7);
        assert_eq!(g.edge_count(), 6);
        // Node weights are evaluations + 1.
        for (i, &e) in p.evaluations.iter().enumerate() {
            assert_eq!(g.node_weight(NodeId::new(i)), Weight::new(e + 1));
        }
    }

    #[test]
    fn partition_respects_load_bound() {
        let c = johnson_counter(12).unwrap();
        let p = simulate_activity(&c, 300, &mut rng());
        let total: u64 = p.evaluations.iter().map(|e| e + 1).sum();
        let bound = total / 3;
        let part = partition_circuit(&c, &p, Weight::new(bound)).unwrap();
        assert!(part.max_load() <= bound);
        assert!(part.processors >= 3);
        assert_eq!(part.load.iter().sum::<u64>(), total);
    }

    #[test]
    fn partition_beats_block_on_locality_for_linear_circuits() {
        let c = shift_register(40).unwrap();
        let p = simulate_activity(&c, 500, &mut rng());
        let total: u64 = p.evaluations.iter().map(|e| e + 1).sum();
        let bound = total / 4 + total / 8;
        let smart = partition_circuit(&c, &p, Weight::new(bound)).unwrap();
        let block = partition_circuit_block(&c, &p, smart.processors);
        // Same processor count: the algorithmic cut must not lose on
        // inter-processor message volume.
        assert!(
            smart.inter_messages <= block.inter_messages,
            "smart {} vs block {}",
            smart.inter_messages,
            block.inter_messages
        );
        assert!(smart.locality() >= block.locality());
    }

    #[test]
    fn bound_below_gate_load_errors() {
        let c = johnson_counter(4).unwrap();
        let p = simulate_activity(&c, 100, &mut rng());
        let err = partition_circuit(&c, &p, Weight::new(1)).unwrap_err();
        assert!(matches!(err, DdsError::Partition(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn block_partition_covers_all_gates() {
        let c = shift_register(10).unwrap();
        let p = simulate_activity(&c, 50, &mut rng());
        let part = partition_circuit_block(&c, &p, 3);
        assert_eq!(part.processors, 3);
        assert_eq!(part.processor_of.len(), 11);
        assert!(part.processor_of.iter().all(|&x| x < 3));
        let total_msgs = part.intra_messages + part.inter_messages;
        assert_eq!(total_msgs, p.total_messages());
    }

    #[test]
    fn locality_of_single_processor_is_one() {
        let c = shift_register(5).unwrap();
        let p = simulate_activity(&c, 50, &mut rng());
        let part = partition_circuit_block(&c, &p, 1);
        assert_eq!(part.locality(), 1.0);
        assert_eq!(part.inter_messages, 0);
    }
}
