//! One-pass execution of a partitioned task graph.
//!
//! Models one iteration of an iterative computation (e.g. a PDE strip
//! sweep or one simulation epoch): every component computes in parallel
//! on its own processor, then each cut edge carries one boundary-exchange
//! message over the interconnect. Transfers contend for the interconnect
//! channels and are served FIFO in request order; a transfer is requested
//! when both endpoint components have finished computing.
//!
//! The resulting makespan makes the paper's two communication objectives
//! observable: total cut weight (bandwidth) determines bus occupancy,
//! while the heaviest cut edge (bottleneck) bounds the critical transfer.

use tgp_graph::{Components, CutSet, Tree, TreeView};

use crate::exchange::{simulate_compute_exchange, Transfer};
use crate::machine::Machine;
use crate::metrics::SimReport;
use crate::pipeline::SimError;

/// Simulates one iteration of `tree` partitioned by `cut` on `machine`.
///
/// # Errors
///
/// * [`SimError::TooManyStages`] if the partition has more components
///   than the machine has processors.
///
/// # Panics
///
/// Panics if `cut` refers to edges outside `tree` (validate cuts with
/// [`Tree::components`] first if they come from untrusted input).
///
/// # Examples
///
/// ```
/// use tgp_graph::{CutSet, EdgeId, Tree};
/// use tgp_shmem::machine::Machine;
/// use tgp_shmem::onepass::simulate_onepass;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Tree::from_raw(&[6, 6], &[(0, 1, 4)])?;
/// let cut = CutSet::new(vec![EdgeId::new(0)]);
/// let report = simulate_onepass(&t, &cut, &Machine::bus(2)?)?;
/// // Both components compute 6 units in parallel, then one transfer of 4.
/// assert_eq!(report.makespan, 10);
/// # Ok(())
/// # }
/// ```
pub fn simulate_onepass(
    tree: &Tree,
    cut: &CutSet,
    machine: &Machine,
) -> Result<SimReport, SimError> {
    let components = tree
        .components(cut)
        .expect("cut must refer to edges of the tree");
    simulate_onepass_components(&components, tree, cut, machine)
}

/// Like [`simulate_onepass`], reusing precomputed components.
///
/// # Errors
///
/// [`SimError::TooManyStages`] if components exceed processors.
///
/// # Panics
///
/// Panics if `components`/`cut` are inconsistent with `tree`.
pub fn simulate_onepass_components(
    components: &Components,
    tree: &Tree,
    cut: &CutSet,
    machine: &Machine,
) -> Result<SimReport, SimError> {
    let k = components.count();
    let work: Vec<u64> = (0..k).map(|c| components.weight(c).get()).collect();
    let transfers: Vec<Transfer> = cut
        .iter()
        .map(|e| {
            let edge = tree.edge(e);
            Transfer {
                from: components.component_of(edge.a),
                to: components.component_of(edge.b),
                volume: edge.weight.get(),
            }
        })
        .collect();
    simulate_compute_exchange(&work, &transfers, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Interconnect;
    use tgp_graph::EdgeId;

    #[test]
    fn no_cut_single_component() {
        let t = Tree::from_raw(&[3, 4], &[(0, 1, 9)]).unwrap();
        let r = simulate_onepass(&t, &CutSet::empty(), &Machine::bus(1).unwrap()).unwrap();
        assert_eq!(r.makespan, 7);
        assert_eq!(r.total_traffic, 0);
        assert_eq!(r.channels, 1);
    }

    #[test]
    fn too_many_components_rejected() {
        let t = Tree::from_raw(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let cut = CutSet::new(vec![EdgeId::new(0), EdgeId::new(1)]);
        let err = simulate_onepass(&t, &cut, &Machine::bus(2).unwrap()).unwrap_err();
        assert!(matches!(err, SimError::TooManyStages { .. }));
    }

    #[test]
    fn bus_serializes_transfers() {
        // Star: centre 0 cut from three leaves; all transfers ready at the
        // same time; the bus serializes 3 transfers of 5 each.
        let t = Tree::from_raw(&[2, 2, 2, 2], &[(0, 1, 5), (0, 2, 5), (0, 3, 5)]).unwrap();
        let cut: CutSet = (0..3).map(EdgeId::new).collect();
        let bus = simulate_onepass(&t, &cut, &Machine::bus(4).unwrap()).unwrap();
        assert_eq!(bus.makespan, 2 + 15);
        let xbar = simulate_onepass(
            &t,
            &cut,
            &Machine::new(4, 1, 1, 0, Interconnect::Crossbar).unwrap(),
        )
        .unwrap();
        assert_eq!(xbar.makespan, 2 + 5);
        assert_eq!(bus.total_traffic, xbar.total_traffic);
    }

    #[test]
    fn transfers_wait_for_slower_endpoint() {
        let t = Tree::from_raw(&[10, 2], &[(0, 1, 3)]).unwrap();
        let cut = CutSet::new(vec![EdgeId::new(0)]);
        let r = simulate_onepass(&t, &cut, &Machine::bus(2).unwrap()).unwrap();
        // Transfer can only start at t = 10 (the slow component).
        assert_eq!(r.makespan, 13);
    }

    #[test]
    fn multistage_limits_concurrency() {
        let t = Tree::from_raw(
            &[1, 1, 1, 1, 1],
            &[(0, 1, 6), (0, 2, 6), (0, 3, 6), (0, 4, 6)],
        )
        .unwrap();
        let cut: CutSet = (0..4).map(EdgeId::new).collect();
        let m2 = Machine::new(5, 1, 1, 0, Interconnect::Multistage { channels: 2 }).unwrap();
        let r = simulate_onepass(&t, &cut, &m2).unwrap();
        // 4 transfers of 6 on 2 channels: two rounds → 1 + 12.
        assert_eq!(r.makespan, 13);
        assert!((r.interconnect_utilization() - 24.0 / 26.0).abs() < 1e-9);
    }

    #[test]
    fn report_fields_are_consistent() {
        let t = Tree::from_raw(&[4, 4, 4], &[(0, 1, 2), (1, 2, 7)]).unwrap();
        let cut = CutSet::new(vec![EdgeId::new(1)]);
        let r = simulate_onepass(&t, &cut, &Machine::bus(2).unwrap()).unwrap();
        assert_eq!(r.total_traffic, 7);
        assert_eq!(r.max_link_traffic(), 7);
        assert_eq!(r.processor_busy.len(), 2);
        assert_eq!(r.processor_busy[0] + r.processor_busy[1], 12);
    }
}
