//! The paper's TEMP_S algorithm — `O(n + p log q)` bandwidth minimization.
//!
//! This is the headline contribution (§2.3.1 and Appendix A). Non-redundant
//! edges are processed left to right; a double-ended queue TEMP_S keeps one
//! row per distinct "current minimum W-value", each row covering a
//! contiguous run of still-open prime subpaths:
//!
//! * rows are ordered by subpath index, and their W column is strictly
//!   increasing from head (TOP) to tail (BOTTOM) — so the row to merge
//!   into is found by *binary search* in `O(log q_i)`;
//! * when the leftmost open subpath ends, its minimum (W, S) pair is final
//!   and the row range shrinks from the head in `O(1)`;
//! * when a new edge's W-value undercuts a suffix of rows, that suffix is
//!   replaced wholesale by one new row in `O(1)` (plus the binary search).
//!
//! Solution sets are shared structurally (a persistent cons-list arena), so
//! total space stays `O(n)`.

use tgp_graph::{ChainView, CutSet, EdgeId, Weight};

use super::nonredundant::{nonredundant_edges, NrEdge};
use super::prime::prime_subpaths;
use super::stats::BandwidthStats;
use crate::budget::Budget;
use crate::error::PartitionError;

/// How the merge point in TEMP_S is located (the paper's step 2a).
///
/// §2.3.2 observes that "W values will have a tendency to grow towards
/// the end" and suggests that a search exploiting the distribution "may
/// reduce the search time by a log factor". [`MergeSearch::Gallop`]
/// implements that idea: it gallops from the BOTTOM of the queue
/// (exponentially growing steps), so a merge point `d` rows from the end
/// is found in `O(log d)` instead of `O(log len)` — `O(1)` in the common
/// ascending-W case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum MergeSearch {
    /// Plain binary search over the whole live queue (the paper's
    /// Algorithm 4.1 as written).
    #[default]
    Binary,
    /// Exponential (galloping) search from the tail, as the paper's
    /// future-work remark proposes.
    Gallop,
}

/// One row of TEMP_S: prime subpaths `lo..=hi` currently share the minimum
/// W-value `w`, achieved by the solution set `set`.
#[derive(Debug, Clone, Copy)]
struct Row {
    lo: usize,
    hi: usize,
    w: u64,
    set: Option<usize>,
}

/// Internal run of the TEMP_S algorithm with telemetry counters.
struct TempS<'a, C: ChainView> {
    path: &'a C,
    rows: std::collections::VecDeque<Row>,
    arena: Vec<(EdgeId, Option<usize>)>,
    final_cost: Vec<u64>,
    final_set: Vec<Option<usize>>,
    /// Number of prime subpaths that have appeared in a row so far.
    started: usize,
    // Telemetry.
    q_sum: u64,
    deque_len_sum: u64,
    max_deque_len: usize,
}

impl<'a, C: ChainView> TempS<'a, C> {
    fn new(path: &'a C, p: usize) -> Self {
        TempS {
            path,
            rows: std::collections::VecDeque::with_capacity(p.min(1024)),
            arena: Vec::new(),
            final_cost: vec![u64::MAX; p],
            final_set: vec![None; p],
            started: 0,
            q_sum: 0,
            deque_len_sum: 0,
            max_deque_len: 0,
        }
    }

    /// Finalizes every open subpath with index `< upto` (they no longer
    /// contain the edge about to be processed, so their minimum is final).
    fn finalize_below(&mut self, upto: usize) {
        while let Some(front) = self.rows.front_mut() {
            if front.lo >= upto {
                break;
            }
            self.final_cost[front.lo] = front.w;
            self.final_set[front.lo] = front.set;
            front.lo += 1;
            if front.lo > front.hi {
                self.rows.pop_front();
            }
        }
    }

    /// First row index whose W-value is `>= w` (the paper's step 2a);
    /// `rows.len()` if none. The W column is strictly increasing, so the
    /// answer is the partition point of `w_row >= w`.
    fn search(&self, w: u64, policy: MergeSearch) -> usize {
        let len = self.rows.len();
        let (mut lo, mut hi) = match policy {
            MergeSearch::Binary => (0usize, len),
            MergeSearch::Gallop => {
                if len == 0 || self.rows[len - 1].w < w {
                    return len; // nothing to merge — the common fast path
                }
                // rows[len-1].w >= w; gallop towards the front with
                // exponentially growing steps until a probe falls below w
                // (or we run out of rows). Probes: len-1-step.
                let mut step = 1usize;
                loop {
                    if step > len - 1 {
                        // Every probe satisfied >= w; the answer is at or
                        // before the last successful probe.
                        break (0, len - step / 2);
                    }
                    let idx = len - 1 - step;
                    if self.rows[idx].w < w {
                        // Bracketed: rows[idx] < w <= rows[len-1-step/2].
                        break (idx + 1, len - step / 2);
                    }
                    step *= 2;
                }
            }
        };
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.rows[mid].w >= w {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    fn process(&mut self, g: &NrEdge, policy: MergeSearch) {
        let (c, d) = (g.first_prime, g.last_prime);
        self.finalize_below(c);
        let (gamma_cost, gamma_set) = if c == 0 {
            (0, None)
        } else {
            debug_assert_ne!(self.final_cost[c - 1], u64::MAX, "S_γ must be final");
            (self.final_cost[c - 1], self.final_set[c - 1])
        };
        let w = self.path.edge_weight(g.edge).get() + gamma_cost;
        // Merge the suffix of rows whose minimum is beaten (or equalled).
        let s = self.search(w, policy);
        let merged_lo = self.rows.get(s).map(|r| r.lo);
        self.rows.truncate(s);
        // Open any subpaths that start at (or before) this edge.
        let new_subpaths = d >= self.started;
        let hi = if new_subpaths { d } else { self.started - 1 };
        if let Some(lo) = merged_lo {
            let set = Some(self.push_set(g.edge, gamma_set));
            self.rows.push_back(Row { lo, hi, w, set });
        } else if new_subpaths {
            let set = Some(self.push_set(g.edge, gamma_set));
            self.rows.push_back(Row {
                lo: self.started,
                hi,
                w,
                set,
            });
        }
        if new_subpaths {
            self.started = d + 1;
        }
        // Telemetry: q_i is the number of prime subpaths this edge belongs
        // to; the deque length is what the binary search pays for.
        self.q_sum += (d - c + 1) as u64;
        self.deque_len_sum += self.rows.len() as u64;
        self.max_deque_len = self.max_deque_len.max(self.rows.len());
    }

    fn push_set(&mut self, edge: EdgeId, parent: Option<usize>) -> usize {
        self.arena.push((edge, parent));
        self.arena.len() - 1
    }

    fn finish(mut self, p: usize) -> (CutSet, u64, u64, u64, usize, usize) {
        self.finalize_below(p);
        debug_assert!(self.rows.is_empty());
        let mut edges = Vec::new();
        let mut cursor = self.final_set[p - 1];
        while let Some(idx) = cursor {
            let (e, parent) = self.arena[idx];
            edges.push(e);
            cursor = parent;
        }
        (
            CutSet::new(edges),
            self.final_cost[p - 1],
            self.q_sum,
            self.deque_len_sum,
            self.max_deque_len,
            self.arena.len(),
        )
    }
}

/// Minimum-weight feasible cut via the paper's TEMP_S algorithm:
/// `O(n + p log q)` time, `O(n)` space — the headline result of the paper.
///
/// `p` is the number of prime subpaths and `q` the average number of prime
/// subpaths a non-redundant edge belongs to (`q ≤ p ≤ n`). Use
/// [`analyze_bandwidth`] to obtain those quantities alongside the cut.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
///
/// # Examples
///
/// ```
/// use tgp_core::bandwidth::min_bandwidth_cut;
/// use tgp_graph::{ChainView, PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pipeline = PathGraph::from_raw(&[4, 4, 4, 4, 4], &[9, 1, 9, 1])?;
/// let cut = min_bandwidth_cut(&pipeline, Weight::new(8))?;
/// assert!(pipeline.is_feasible_cut(&cut, Weight::new(8))?);
/// assert_eq!(pipeline.cut_weight(&cut)?, Weight::new(2));
/// # Ok(())
/// # }
/// ```
pub fn min_bandwidth_cut<C: ChainView>(path: &C, bound: Weight) -> Result<CutSet, PartitionError> {
    Ok(analyze_bandwidth(path, bound)?.0)
}

/// Runs the TEMP_S algorithm and returns both the optimal cut and the
/// instance statistics (`n`, `p`, `q`, TEMP_S occupancy, …) that the
/// paper's Figure 2 plots.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`.
pub fn analyze_bandwidth<C: ChainView>(
    path: &C,
    bound: Weight,
) -> Result<(CutSet, BandwidthStats), PartitionError> {
    analyze_bandwidth_with(path, bound, MergeSearch::Binary, &Budget::unlimited())
}

/// [`analyze_bandwidth`] with an explicit [`MergeSearch`] policy — the
/// ablation hook for the paper's §2.3.2 "k-ary search" future-work
/// idea — under a [`Budget`]. All policies return cuts of identical
/// weight; only the constant factor of the TEMP_S merge step changes.
///
/// The TEMP_S edge loop charges the budget one unit per non-redundant
/// edge (plus `n` units for the linear prime-subpath scan), so a
/// mid-solve deadline surfaces as [`PartitionError::Interrupted`]
/// within one budget stride instead of after the full
/// `O(n + p log q)` run. Under [`Budget::unlimited`] nothing is ever
/// refused.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs
/// `bound`; [`PartitionError::Interrupted`] if the budget ran out.
pub fn analyze_bandwidth_with<C: ChainView>(
    path: &C,
    bound: Weight,
    policy: MergeSearch,
    budget: &Budget,
) -> Result<(CutSet, BandwidthStats), PartitionError> {
    budget.check_now()?;
    let primes = prime_subpaths(path, bound)?;
    let n = path.len();
    budget.charge(n as u64)?;
    if primes.is_empty() {
        return Ok((CutSet::empty(), BandwidthStats::trivial(n)));
    }
    let p = primes.len();
    let nr = nonredundant_edges(path, &primes);
    let r = nr.len();
    let mut solver = TempS::new(path, p);
    for g in &nr {
        budget.charge(1)?;
        solver.process(g, policy);
    }
    let (cut, cost, q_sum, deque_len_sum, max_deque_len, _arena) = solver.finish(p);
    debug_assert_eq!(path.cut_weight(&cut).map(|w| w.get()), Ok(cost));
    debug_assert_eq!(path.is_feasible_cut(&cut, bound), Ok(true));
    let prime_edge_len_sum: usize = primes.iter().map(|pr| pr.edge_len()).sum();
    let stats = BandwidthStats::new(
        n,
        p,
        r,
        q_sum,
        prime_edge_len_sum,
        deque_len_sum,
        max_deque_len,
        cost,
        cut.len(),
    );
    Ok((cut, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{min_bandwidth_cut_naive, min_bandwidth_cut_oracle};
    use tgp_graph::PathGraph;

    fn path(nodes: &[u64], edges: &[u64]) -> PathGraph {
        PathGraph::from_raw(nodes, edges).unwrap()
    }

    #[test]
    fn empty_cut_when_everything_fits() {
        let p = path(&[1, 2, 3], &[10, 10]);
        let (cut, stats) = analyze_bandwidth(&p, Weight::new(6)).unwrap();
        assert!(cut.is_empty());
        assert_eq!(stats.p, 0);
        assert_eq!(stats.r, 0);
    }

    #[test]
    fn budgeted_matches_unbudgeted_and_interrupts_when_expired() {
        use std::time::{Duration, Instant};
        let nodes: Vec<u64> = (0..600).map(|i| 1 + (i % 7)).collect();
        let edges: Vec<u64> = (0..599).map(|i| 1 + (i * 13) % 31).collect();
        let p = path(&nodes, &edges);
        let bound = Weight::new(24);
        let plain = analyze_bandwidth(&p, bound).unwrap();
        let generous = Budget::with_deadline(Instant::now() + Duration::from_secs(3600));
        let budgeted = analyze_bandwidth_with(&p, bound, MergeSearch::Binary, &generous).unwrap();
        assert_eq!(plain.0, budgeted.0);
        let expired = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(
            analyze_bandwidth_with(&p, bound, MergeSearch::Binary, &expired),
            Err(PartitionError::Interrupted(_))
        ));
    }

    #[test]
    fn infeasible_bound_errors() {
        let p = path(&[1, 9], &[1]);
        assert!(matches!(
            min_bandwidth_cut(&p, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn forced_single_cut() {
        let p = path(&[4, 4, 4, 4], &[9, 1, 9]);
        let cut = min_bandwidth_cut(&p, Weight::new(8)).unwrap();
        assert_eq!(cut.len(), 1);
        assert!(cut.contains(EdgeId::new(1)));
    }

    #[test]
    fn shared_edge_between_overlapping_primes() {
        let p = path(&[10, 1, 1, 10], &[5, 1, 5]);
        let cut = min_bandwidth_cut(&p, Weight::new(11)).unwrap();
        assert_eq!(cut.len(), 1);
        assert!(cut.contains(EdgeId::new(1)));
    }

    #[test]
    fn tight_bound_cuts_every_edge() {
        let p = path(&[3, 3, 3, 3], &[7, 11, 2]);
        let cut = min_bandwidth_cut(&p, Weight::new(3)).unwrap();
        assert_eq!(cut.len(), 3);
    }

    #[test]
    fn ascending_w_values_stress_the_deque() {
        // Monotone increasing edge weights make every new W-value the
        // largest so far, so rows accumulate (the paper's worst case for
        // TEMP_S length).
        let nodes = vec![5u64; 40];
        let edges: Vec<u64> = (1..40).map(|i| i * 10).collect();
        let p = path(&nodes, &edges);
        let (cut, stats) = analyze_bandwidth(&p, Weight::new(12)).unwrap();
        let oracle = min_bandwidth_cut_oracle(&p, Weight::new(12)).unwrap();
        assert_eq!(p.cut_weight(&cut).unwrap(), p.cut_weight(&oracle).unwrap());
        assert!(stats.max_deque_len >= 1);
    }

    #[test]
    fn descending_w_values_keep_the_deque_short() {
        let nodes = vec![5u64; 40];
        let edges: Vec<u64> = (1..40).rev().map(|i| i * 10).collect();
        let p = path(&nodes, &edges);
        let (cut, stats) = analyze_bandwidth(&p, Weight::new(12)).unwrap();
        let oracle = min_bandwidth_cut_oracle(&p, Weight::new(12)).unwrap();
        assert_eq!(p.cut_weight(&cut).unwrap(), p.cut_weight(&oracle).unwrap());
        assert!(stats.max_deque_len <= 2);
    }

    #[test]
    fn matches_oracle_and_naive_on_random_inputs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31337);
        for round in 0..300 {
            let n = rng.gen_range(1..100);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..12)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..40)).collect();
            let p = path(&nodes, &edges);
            let max = nodes.iter().copied().max().unwrap();
            let k = rng.gen_range(max..=max * 3);
            let ours = min_bandwidth_cut(&p, Weight::new(k)).unwrap();
            let naive = min_bandwidth_cut_naive(&p, Weight::new(k)).unwrap();
            let oracle = min_bandwidth_cut_oracle(&p, Weight::new(k)).unwrap();
            assert!(p.is_feasible_cut(&ours, Weight::new(k)).unwrap());
            let w = |c: &CutSet| p.cut_weight(c).unwrap();
            assert_eq!(
                w(&ours),
                w(&oracle),
                "round={round} nodes={nodes:?} edges={edges:?} k={k}"
            );
            assert_eq!(w(&ours), w(&naive), "round={round}");
        }
    }

    #[test]
    fn gallop_search_matches_binary_everywhere() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x6A110);
        for round in 0..300 {
            let n: usize = rng.gen_range(1..120);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..12)).collect();
            // Mix ascending, descending and random edge-weight shapes so
            // both gallop fast paths and deep merges are exercised.
            let edges: Vec<u64> = match round % 3 {
                0 => (0..n.saturating_sub(1))
                    .map(|i| (i as u64 + 1) * 3)
                    .collect(),
                1 => (0..n.saturating_sub(1))
                    .rev()
                    .map(|i| (i as u64 + 1) * 3)
                    .collect(),
                _ => (0..n.saturating_sub(1))
                    .map(|_| rng.gen_range(0..40))
                    .collect(),
            };
            let p = path(&nodes, &edges);
            let max = nodes.iter().copied().max().unwrap();
            let k = Weight::new(rng.gen_range(max..=max * 3));
            let unlimited = Budget::unlimited();
            let (a, _) = analyze_bandwidth_with(&p, k, MergeSearch::Binary, &unlimited).unwrap();
            let (b, _) = analyze_bandwidth_with(&p, k, MergeSearch::Gallop, &unlimited).unwrap();
            assert_eq!(
                p.cut_weight(&a).unwrap(),
                p.cut_weight(&b).unwrap(),
                "round={round} nodes={nodes:?} edges={edges:?} k={k}"
            );
            assert!(p.is_feasible_cut(&b, k).unwrap());
        }
    }

    #[test]
    fn stats_relationships_hold() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use tgp_graph::generators::{random_chain, WeightDist};
        let mut rng = SmallRng::seed_from_u64(5);
        let p = random_chain(
            2000,
            WeightDist::Uniform { lo: 1, hi: 100 },
            WeightDist::Uniform { lo: 1, hi: 1000 },
            &mut rng,
        );
        let (_, stats) = analyze_bandwidth(&p, Weight::new(400)).unwrap();
        assert!(stats.p >= 1);
        assert!(stats.p < 2000);
        assert!(stats.r < 2 * stats.p);
        assert!(stats.q_bar >= 1.0);
        assert!(stats.q_bar <= stats.p as f64);
        assert!(stats.p_log_q <= stats.n_log_n);
        assert!(stats.max_deque_len <= stats.p);
    }
}
