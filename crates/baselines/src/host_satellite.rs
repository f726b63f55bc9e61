//! Bokhari's host-satellite partitioning of tree task graphs.
//!
//! The reproduced paper notes (§1) that "Bokhari's bottleneck minimization
//! problem takes polynomial time when the task graph is a tree and the
//! target architecture is a single host multiple (identical) satellite
//! system". In that architecture satellites communicate *only* with the
//! host, so each satellite must receive a complete subtree of the rooted
//! task graph; the host keeps the rest. A satellite's cost is its
//! subtree's computation plus the communication over its uplink (the cut
//! edge); the host's cost is the remaining computation. The objective is
//! to minimize the bottleneck using at most `m` satellites.
//!
//! Reconstruction (Bokhari's exact pseudo-code is not in the reproduced
//! text): binary-search the bottleneck `B`; feasibility of a candidate is
//! a tree knapsack — pick at most `m` disjoint subtrees, each of cost
//! `≤ B`, that off-load as much computation as possible; `B` is feasible
//! iff the host's leftover fits too. `O(n·m²·log Σw)` overall, verified
//! against brute force.

#![allow(clippy::needless_range_loop)] // index-based DP reads clearer here

use tgp_graph::{CutSet, EdgeId, NodeId, Rooted, TreeView, Weight};

use crate::coc::CocError;

/// The outcome of host-satellite partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSatelliteResult {
    /// Uplink edges: each cut edge sends one complete subtree to one
    /// satellite.
    pub cut: CutSet,
    /// Number of satellites used (`cut.len()`).
    pub satellites: usize,
    /// The minimized bottleneck: `max(host cost, satellite costs)`.
    pub bottleneck: Weight,
}

/// Per-node tree-knapsack state: `off[j]` = max weight off-loadable from
/// this node's subtree using `j` satellites, *without* cutting the node's
/// own uplink. Children are merged in incident-edge order.
fn solve_feasible<T: TreeView>(
    tree: &T,
    rooted: &Rooted,
    root: NodeId,
    m: usize,
    bound: u64,
) -> Option<(u64, Vec<EdgeId>)> {
    let n = tree.len();
    // subtree_weight computed bottom-up.
    let mut subtree = vec![0u64; n];
    // off[v] = vector over 0..=m; choice[v][j] remembers, per child, how
    // many satellites it received and whether its uplink was cut.
    let mut off: Vec<Vec<u64>> = vec![Vec::new(); n];
    #[allow(clippy::type_complexity)]
    let mut choice: Vec<Vec<Vec<(usize, bool)>>> = vec![Vec::new(); n];
    for v in rooted.pre_order().rev() {
        let vi = v.index();
        subtree[vi] = tree.node_weight(v).get();
        let mut acc = vec![0u64; m + 1];
        let mut acc_choice: Vec<Vec<(usize, bool)>> = vec![Vec::new(); m + 1];
        for (c, uplink) in rooted.children(tree, v) {
            let ci = c.index();
            subtree[vi] += subtree[ci];
            let cut_ok = subtree[ci] + tree.edge_weight(uplink).get() <= bound;
            // Max-plus knapsack merge of this child's options into acc.
            // Every slot 0..=m is reachable via (j = slot, jc = 0), so no
            // unset sentinel is needed: seed with the jc = 0 diagonal.
            let mut next: Vec<u64> = (0..=m).map(|slot| acc[slot] + off[ci][0]).collect();
            let mut next_choice: Vec<Vec<(usize, bool)>> = (0..=m)
                .map(|slot| {
                    let mut ch = acc_choice[slot].clone();
                    ch.push((0, false));
                    ch
                })
                .collect();
            for j in 0..=m {
                // Option A: recurse into child with jc satellites.
                for jc in 1..=m - j {
                    let gain = acc[j] + off[ci][jc];
                    let slot = j + jc;
                    if gain > next[slot] {
                        next[slot] = gain;
                        let mut ch = acc_choice[j].clone();
                        ch.push((jc, false));
                        next_choice[slot] = ch;
                    }
                }
                // Option B: cut the whole child subtree (1 satellite).
                if cut_ok && j < m {
                    let gain = acc[j] + subtree[ci];
                    let slot = j + 1;
                    if gain > next[slot] {
                        next[slot] = gain;
                        let mut ch = acc_choice[j].clone();
                        ch.push((0, true));
                        next_choice[slot] = ch;
                    }
                }
            }
            // Make the profile monotone: using fewer satellites is always
            // allowed.
            for slot in 1..=m {
                if next[slot] < next[slot - 1] {
                    next[slot] = next[slot - 1];
                    next_choice[slot] = next_choice[slot - 1].clone();
                }
            }
            acc = next;
            acc_choice = next_choice;
        }
        off[vi] = acc;
        choice[vi] = acc_choice;
    }
    let total = subtree[root.index()];
    let best_off = off[root.index()][m];
    if total - best_off > bound {
        return None;
    }
    // Reconstruct the cut: walk the choice tree.
    let mut cut = Vec::new();
    let mut stack = vec![(root, m)];
    while let Some((v, j)) = stack.pop() {
        let decisions = &choice[v.index()][j];
        debug_assert_eq!(decisions.len(), rooted.child_edges(v).count());
        for ((c, e), &(jc, cut_here)) in rooted.children(tree, v).zip(decisions) {
            if cut_here {
                cut.push(e);
            } else if jc > 0 {
                stack.push((c, jc));
            }
        }
    }
    Some((total - best_off, cut))
}

/// Minimizes the bottleneck of a host-satellite execution of `tree`
/// rooted at `root`, using at most `m` satellites. Generic over
/// [`TreeView`]; the tree is rooted once ([`Rooted`]) for every probe of
/// the binary search.
///
/// # Errors
///
/// [`CocError::BadProcessorCount`] if `m` is zero or exceeds the number
/// of non-root nodes (a satellite needs at least one task).
///
/// # Panics
///
/// Panics if `root` is out of range for the tree.
///
/// # Examples
///
/// ```
/// use tgp_baselines::host_satellite::host_satellite_partition;
/// use tgp_graph::{NodeId, Tree, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Host root 0 with two heavy subtrees on cheap uplinks.
/// let t = Tree::from_raw(&[2, 10, 10], &[(0, 1, 1), (0, 2, 1)])?;
/// let r = host_satellite_partition(&t, NodeId::new(0), 2)?;
/// assert_eq!(r.satellites, 2);
/// assert_eq!(r.bottleneck, Weight::new(11)); // 10 + uplink 1
/// # Ok(())
/// # }
/// ```
pub fn host_satellite_partition<T: TreeView>(
    tree: &T,
    root: NodeId,
    m: usize,
) -> Result<HostSatelliteResult, CocError> {
    let n = tree.len();
    assert!(root.index() < n, "root {root} out of range");
    if m == 0 || m > n.saturating_sub(1).max(1) {
        return Err(CocError::BadProcessorCount { n, m });
    }
    let rooted = Rooted::new(tree, root);
    // Binary search the bottleneck over [ceil(total/(m+1)), total].
    let total = tree.total_weight().get();
    let mut lo = 0u64;
    let mut hi = total;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if solve_feasible(tree, &rooted, root, m, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (host_cost, cut_edges) =
        solve_feasible(tree, &rooted, root, m, lo).expect("lo is feasible by construction");
    let cut = CutSet::new(cut_edges);
    let satellites = cut.len();
    // The bottleneck actually achieved (host or the worst satellite).
    let mut bottleneck = host_cost;
    let comps = tree.components(&cut).expect("cut edges are valid");
    for e in cut.iter() {
        let edge = tree.edge(e);
        // The satellite side is the component not containing the root.
        let side = if comps.component_of(edge.a) == comps.component_of(root) {
            edge.b
        } else {
            edge.a
        };
        let sat_cost = comps.weight(comps.component_of(side)).get() + edge.weight.get();
        bottleneck = bottleneck.max(sat_cost);
    }
    debug_assert!(bottleneck <= lo);
    Ok(HostSatelliteResult {
        cut,
        satellites,
        bottleneck: Weight::new(bottleneck),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::Tree;

    /// Brute force over all subsets of edges, keeping only host-satellite
    /// shaped cuts (every non-root component adjacent to the host
    /// component via exactly its uplink).
    fn brute(tree: &Tree, root: NodeId, m: usize) -> u64 {
        let me = tree.edge_count();
        let mut best = u64::MAX;
        for mask in 0u32..(1 << me) {
            let cut: CutSet = (0..me)
                .filter(|&j| mask & (1 << j) != 0)
                .map(EdgeId::new)
                .collect();
            if cut.len() > m {
                continue;
            }
            let comps = tree.components(&cut).unwrap();
            let host = comps.component_of(root);
            // Validity: every cut edge must touch the host component
            // (satellites talk only to the host).
            let valid = cut.iter().all(|e| {
                let edge = tree.edge(e);
                comps.component_of(edge.a) == host || comps.component_of(edge.b) == host
            });
            if !valid {
                continue;
            }
            let mut b = comps.weight(host).get();
            for e in cut.iter() {
                let edge = tree.edge(e);
                let side = if comps.component_of(edge.a) == host {
                    edge.b
                } else {
                    edge.a
                };
                b = b.max(comps.weight(comps.component_of(side)).get() + edge.weight.get());
            }
            best = best.min(b);
        }
        best
    }

    #[test]
    fn single_node_tree_stays_on_host() {
        let t = Tree::from_raw(&[7], &[]).unwrap();
        let r = host_satellite_partition(&t, NodeId::new(0), 1).unwrap();
        assert_eq!(r.satellites, 0);
        assert_eq!(r.bottleneck, Weight::new(7));
    }

    #[test]
    fn offloads_heavy_subtrees() {
        let t = Tree::from_raw(&[2, 10, 10], &[(0, 1, 1), (0, 2, 1)]).unwrap();
        let r1 = host_satellite_partition(&t, NodeId::new(0), 1).unwrap();
        assert_eq!(r1.satellites, 1);
        assert_eq!(r1.bottleneck, Weight::new(12)); // host keeps 2 + 10
        let r2 = host_satellite_partition(&t, NodeId::new(0), 2).unwrap();
        assert_eq!(r2.bottleneck, Weight::new(11));
    }

    #[test]
    fn expensive_uplink_keeps_work_on_host() {
        // Off-loading through a weight-100 uplink is worse than keeping
        // everything local.
        let t = Tree::from_raw(&[5, 6], &[(0, 1, 100)]).unwrap();
        let r = host_satellite_partition(&t, NodeId::new(0), 1).unwrap();
        assert_eq!(r.satellites, 0);
        assert_eq!(r.bottleneck, Weight::new(11));
    }

    #[test]
    fn rejects_zero_satellites() {
        let t = Tree::from_raw(&[1, 1], &[(0, 1, 1)]).unwrap();
        assert!(host_satellite_partition(&t, NodeId::new(0), 0).is_err());
    }

    #[test]
    fn matches_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tgp_graph::generators::{random_tree, WeightDist};
        let mut rng = SmallRng::seed_from_u64(0x505);
        for round in 0..80 {
            let n: usize = rng.gen_range(1..10);
            let t = random_tree(
                n,
                WeightDist::Uniform { lo: 1, hi: 20 },
                WeightDist::Uniform { lo: 0, hi: 15 },
                &mut rng,
            );
            let m = rng.gen_range(1..=n.max(2) - 1).max(1);
            let root = NodeId::new(rng.gen_range(0..n));
            let r = host_satellite_partition(&t, root, m).unwrap();
            let expect = brute(&t, root, m);
            assert_eq!(r.bottleneck.get(), expect, "round={round} n={n} m={m}");
            assert!(r.satellites <= m);
        }
    }

    #[test]
    fn nested_offloading_is_found() {
        // A path 0-1-2-3 rooted at 0: with 2 satellites the best plan may
        // cut both (1,2) keeping {2,3} together... actually satellites
        // host full subtrees: cutting edge (1,2) sends subtree {2,3}.
        let t = Tree::from_raw(&[1, 1, 8, 8], &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let r = host_satellite_partition(&t, NodeId::new(0), 2).unwrap();
        let expect = brute(&t, NodeId::new(0), 2);
        assert_eq!(r.bottleneck.get(), expect);
    }
}
