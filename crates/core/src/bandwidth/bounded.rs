//! Bandwidth minimization under a bottleneck ceiling, and the
//! lexicographic bicriteria solve the paper's real-time application
//! demands.
//!
//! §3's real-time constraints ask for a partition where "Σ w(dp_im) is
//! minimum **and** max w(dp_im) is minimized". Both cannot always be
//! optimized simultaneously; the standard reading is lexicographic:
//! first drive the bottleneck to its optimum `B*` (Algorithm 2.1 applies
//! — a chain is a tree), then minimize the total cut weight among cuts
//! that only use edges of weight `≤ B*`.
//!
//! [`min_bandwidth_cut_bounded`] is the constrained solver (a sliding-
//! window DP over the *allowed* edges, `O(n)`), and
//! [`min_bandwidth_cut_lexicographic`] composes it with the bottleneck
//! optimum. Finding `B*` needs no DP: a limit `L` admits a feasible cut
//! exactly when cutting *every* edge of weight `≤ L` leaves each segment
//! within the bound, since cutting more allowed edges only shrinks
//! segments. One allocation-free `O(n)` scan decides that, so both
//! lexicographic solves binary-search `B*` with the scan and run the DP
//! once, at `B*`.

use std::collections::VecDeque;

use tgp_graph::{ChainView, CutSet, EdgeId, NodeId, Weight};

use crate::budget::Budget;
use crate::error::{check_bound_nodes, PartitionError};

const INF: u64 = u64::MAX;

/// Minimum-weight cut keeping every segment within `bound`, using only
/// edges of weight at most `bottleneck_limit`. Returns `Ok(None)` when no
/// such cut exists (some over-weight window contains no allowed edge).
///
/// `O(n)` time via a monotonic-deque window minimum. The DP charges the
/// [`Budget`] one unit per edge, so an expired deadline or a raised
/// cancel flag interrupts it mid-scan; pass [`Budget::unlimited`] when
/// nothing bounds the solve.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`
/// (then no cut of any kind is feasible), and
/// [`PartitionError::Interrupted`] when the budget runs out.
///
/// # Examples
///
/// ```
/// use tgp_core::bandwidth::min_bandwidth_cut_bounded;
/// use tgp_core::budget::Budget;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[4, 4, 4, 4], &[9, 1, 9])?;
/// let unlimited = Budget::unlimited();
/// // With the bottleneck capped at 1, only the middle edge may be cut.
/// let cut = min_bandwidth_cut_bounded(&p, Weight::new(8), Weight::new(1), &unlimited)?.unwrap();
/// assert_eq!(p.cut_weight(&cut)?, Weight::new(1));
/// // Capping below every edge weight makes the instance infeasible.
/// assert!(min_bandwidth_cut_bounded(&p, Weight::new(8), Weight::new(0), &unlimited)?.is_none());
/// # Ok(())
/// # }
/// ```
pub fn min_bandwidth_cut_bounded<C: ChainView>(
    path: &C,
    bound: Weight,
    bottleneck_limit: Weight,
    budget: &Budget,
) -> Result<Option<CutSet>, PartitionError> {
    check_bound_nodes(
        (0..path.len()).map(|i| path.node_weight(NodeId::new(i))),
        bound,
    )?;
    if path.total_weight() <= bound {
        return Ok(Some(CutSet::empty()));
    }
    let m = path.edge_count();
    let n = path.len();
    let mut cost = vec![INF; m];
    let mut parent = vec![usize::MAX; m];
    let mut deque: VecDeque<usize> = VecDeque::new();
    let mut lo = 0usize;
    for j in 0..m {
        budget.charge(1)?;
        if j >= 1 && cost[j - 1] < INF {
            let i = j - 1;
            while deque.back().is_some_and(|&b| cost[b] >= cost[i]) {
                deque.pop_back();
            }
            deque.push_back(i);
        }
        while lo < j && path.span_weight(lo + 1, j) > bound {
            lo += 1;
        }
        while deque.front().is_some_and(|&f| f < lo) {
            deque.pop_front();
        }
        let beta = path.edge_weight(EdgeId::new(j));
        if beta > bottleneck_limit {
            continue; // this edge may not be cut
        }
        if path.span_weight(0, j) <= bound {
            cost[j] = beta.get();
            parent[j] = usize::MAX;
        }
        if let Some(&i) = deque.front() {
            let candidate = cost[i] + beta.get();
            if candidate < cost[j] {
                cost[j] = candidate;
                parent[j] = i;
            }
        }
    }
    let mut best: Option<usize> = None;
    for j in (0..m).rev() {
        if path.span_weight(j + 1, n - 1) > bound {
            break;
        }
        if cost[j] < INF && best.is_none_or(|b| cost[j] < cost[b]) {
            best = Some(j);
        }
    }
    let Some(mut j) = best else {
        return Ok(None);
    };
    let mut edges = Vec::new();
    loop {
        edges.push(EdgeId::new(j));
        if parent[j] == usize::MAX {
            break;
        }
        j = parent[j];
    }
    let cut = CutSet::new(edges);
    debug_assert_eq!(path.is_feasible_cut(&cut, bound), Ok(true));
    debug_assert!(path.bottleneck(&cut).expect("valid cut") <= bottleneck_limit);
    Ok(Some(cut))
}

/// Whether [`min_bandwidth_cut_bounded`] finds a cut at `limit`, decided
/// without the DP: cut every edge of weight `≤ limit` and check each
/// remaining run against `bound`. The verdict is exact because a
/// feasible cut within the limit stays feasible when the other allowed
/// edges are cut too. Allocation-free `O(n)`, charging the budget one
/// unit per edge like the DP. Unlike the DP it does not validate single
/// vertices: one that outweighs `bound` makes every limit infeasible.
fn is_feasible_at<C: ChainView>(
    path: &C,
    bound: Weight,
    limit: Weight,
    budget: &Budget,
) -> Result<bool, PartitionError> {
    let mut start = 0;
    for j in 0..path.edge_count() {
        budget.charge(1)?;
        if path.edge_weight(EdgeId::new(j)) <= limit {
            if path.span_weight(start, j) > bound {
                return Ok(false);
            }
            start = j + 1;
        }
    }
    Ok(path.span_weight(start, path.len() - 1) <= bound)
}

/// Every bottleneck a cut can have: zero (the empty cut) and each edge
/// weight, unsorted and with repeats.
fn candidate_limits<C: ChainView>(path: &C) -> impl Iterator<Item = Weight> + '_ {
    std::iter::once(Weight::ZERO)
        .chain((0..path.edge_count()).map(|j| path.edge_weight(EdgeId::new(j))))
}

/// Index of the smallest feasible limit in the ascending, non-empty
/// `limits`. Feasibility is monotone in the limit (raising it only adds
/// cuttable edges). The last limit is taken as feasible without a scan:
/// the caller has certified it, or it allows every edge.
fn first_feasible<C: ChainView>(
    path: &C,
    bound: Weight,
    limits: &[Weight],
    budget: &Budget,
) -> Result<usize, PartitionError> {
    let (mut lo, mut hi) = (0usize, limits.len() - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if is_feasible_at(path, bound, limits[mid], budget)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// The lexicographic bicriteria cut of §3's real-time application: the
/// minimum-total-weight cut among all feasible cuts whose bottleneck
/// equals the optimum `B*` of Algorithm 2.1.
///
/// `B*` is found by binary search over the sorted candidate limits
/// (zero and the edge weights) with the `O(n)` feasibility scan, then
/// [`min_bandwidth_cut_bounded`] runs once at `B*`: `O(n log n)` in
/// all, for the sort and the `O(log n)` scans. Every scan and the DP
/// charge the [`Budget`] per edge, so a deadline or cancel interrupts
/// the solve between and inside them.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs
/// `bound`, and [`PartitionError::Interrupted`] when the budget runs
/// out.
///
/// # Examples
///
/// ```
/// use tgp_core::bandwidth::min_bandwidth_cut_lexicographic;
/// use tgp_core::budget::Budget;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Pure bandwidth minimization would cut the single weight-6 edge; the
/// // lexicographic solve prefers two weight-4 cuts (bottleneck 4 < 6).
/// let p = PathGraph::from_raw(&[5, 5, 5, 5], &[4, 6, 4])?;
/// let cut = min_bandwidth_cut_lexicographic(&p, Weight::new(10), &Budget::unlimited())?;
/// assert_eq!(p.bottleneck(&cut)?, Weight::new(4));
/// assert_eq!(p.cut_weight(&cut)?, Weight::new(8));
/// # Ok(())
/// # }
/// ```
pub fn min_bandwidth_cut_lexicographic<C: ChainView>(
    path: &C,
    bound: Weight,
    budget: &Budget,
) -> Result<CutSet, PartitionError> {
    budget.check_now()?;
    let mut limits: Vec<Weight> = candidate_limits(path).collect();
    limits.sort_unstable();
    limits.dedup();
    budget.charge(limits.len() as u64)?;
    // The largest limit allows cutting every edge, which isolates single
    // vertices: feasible unless one outweighs the bound, and then the DP
    // reports `BoundTooSmall` at exactly that limit.
    let b_star = limits[first_feasible(path, bound, &limits, budget)?];
    Ok(min_bandwidth_cut_bounded(path, bound, b_star, budget)?
        .expect("the feasibility scan and the DP agree on every limit"))
}

/// Warm-started variant of [`min_bandwidth_cut_lexicographic`]: the
/// search for `B*` is restricted to candidate limits in
/// `[hint_lo, hint_hi]` (typically a window around a previous solve's
/// `B*` widened by how much the instance has drifted since).
///
/// The window is *certified* before it is trusted: the largest
/// candidate limit below the window must be infeasible and the largest
/// candidate inside it must be feasible — together those prove the true
/// `B*` lies inside the window, because feasibility is monotone in the
/// limit. Both certificates and the search are feasibility scans;
/// [`min_bandwidth_cut_bounded`] runs once, at `B*`. `Ok(None)` means a
/// certificate failed (or the window contains no candidate) and the
/// caller must fall back to the cold solve.
///
/// When the certificates hold, the returned cut is **byte-identical**
/// to the cold solve's: both find the same `B*` and return the cut of
/// the same deterministic DP at that limit.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs
/// `bound` (the cold solve fails identically).
pub fn min_bandwidth_cut_lexicographic_warm<C: ChainView>(
    path: &C,
    bound: Weight,
    hint_lo: Weight,
    hint_hi: Weight,
) -> Result<Option<CutSet>, PartitionError> {
    if hint_lo > hint_hi {
        return Ok(None);
    }
    // The cold solve sorts every candidate limit; the warm solve only
    // ever scans the largest candidate *below* the window and the
    // candidates *inside* it, so one pass replaces the O(n log n) sort.
    let mut below: Option<Weight> = None;
    let mut window: Vec<Weight> = Vec::new();
    for w in candidate_limits(path) {
        if w < hint_lo {
            below = Some(below.map_or(w, |b| b.max(w)));
        } else if w <= hint_hi {
            window.push(w);
        }
    }
    window.sort_unstable();
    window.dedup();
    let Some(&top) = window.last() else {
        return Ok(None); // no candidate in the window
    };
    let budget = Budget::unlimited();
    // Certificate: the strongest limit below the window is infeasible
    // (vacuously true when the window starts at the smallest candidate).
    if let Some(b) = below {
        if is_feasible_at(path, bound, b, &budget)? {
            return Ok(None); // B* is below the window
        }
    }
    // Certificate: the window's top candidate is feasible.
    if !is_feasible_at(path, bound, top, &budget)? {
        // Every limit is infeasible when a single vertex outweighs the
        // bound; report that as the cold solve does.
        check_bound_nodes(
            (0..path.len()).map(|i| path.node_weight(NodeId::new(i))),
            bound,
        )?;
        return Ok(None); // B* is above the window
    }
    // The window holds the same candidates (sorted, deduped) that the
    // cold solve's array holds over those indices, so the search lands
    // on the same `B*`, where the DP is `Some` (the scan is exact).
    let b_star = window[first_feasible(path, bound, &window, &budget)?];
    min_bandwidth_cut_bounded(path, bound, b_star, &budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::min_bandwidth_cut;
    use crate::bottleneck::min_bottleneck_cut;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tgp_graph::{PathGraph, Tree};

    fn path(nodes: &[u64], edges: &[u64]) -> PathGraph {
        PathGraph::from_raw(nodes, edges).unwrap()
    }

    fn bounded(p: &PathGraph, k: u64, limit: u64) -> Result<Option<CutSet>, PartitionError> {
        min_bandwidth_cut_bounded(p, Weight::new(k), Weight::new(limit), &Budget::unlimited())
    }

    fn lex(p: &PathGraph, k: Weight) -> Result<CutSet, PartitionError> {
        min_bandwidth_cut_lexicographic(p, k, &Budget::unlimited())
    }

    /// A random chain of up to `max_n` nodes, with zero weights and
    /// heavy ties (small weight alphabets) in the mix, and a bound from
    /// the largest vertex weight to above the total.
    fn random_instance(rng: &mut SmallRng, max_n: usize) -> (Vec<u64>, Vec<u64>, Weight) {
        let n: usize = rng.gen_range(1..=max_n);
        let node_hi = [1, 3, 10, 100][rng.gen_range(0..4)];
        let edge_hi = [0, 2, 5, 1000][rng.gen_range(0..4)];
        let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=node_hi)).collect();
        let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..=edge_hi)).collect();
        let max = nodes.iter().copied().max().unwrap();
        let total: u64 = nodes.iter().sum();
        let k = rng.gen_range(max..=total + 2);
        (nodes, edges, Weight::new(k))
    }

    fn all_cuts(m: usize) -> impl Iterator<Item = CutSet> {
        (0u32..(1 << m)).map(move |mask| {
            (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(EdgeId::new)
                .collect()
        })
    }

    #[test]
    fn unbounded_limit_recovers_plain_bandwidth() {
        let p = path(&[4, 4, 4, 4], &[9, 1, 9]);
        let bounded = bounded(&p, 8, u64::MAX).unwrap().unwrap();
        let plain = min_bandwidth_cut(&p, Weight::new(8)).unwrap();
        assert_eq!(
            p.cut_weight(&bounded).unwrap(),
            p.cut_weight(&plain).unwrap()
        );
    }

    #[test]
    fn infeasible_limit_returns_none() {
        let p = path(&[6, 6, 6], &[5, 7]);
        // K = 11: every adjacent pair bursts, so both edges must be cut;
        // a limit below 7 forbids the second.
        assert!(bounded(&p, 11, 6).unwrap().is_none());
        assert!(bounded(&p, 11, 7).unwrap().is_some());
    }

    #[test]
    fn feasibility_scan_agrees_with_the_dp_at_every_candidate() {
        let mut rng = SmallRng::seed_from_u64(0x5CA9);
        let unlimited = Budget::unlimited();
        for round in 0..400 {
            let (nodes, edges, k) = random_instance(&mut rng, 200);
            let p = path(&nodes, &edges);
            // Limits between candidates too.
            let limits = candidate_limits(&p).chain(edges.iter().map(|&w| Weight::new(w + 1)));
            for limit in limits {
                let dp = min_bandwidth_cut_bounded(&p, k, limit, &unlimited)
                    .unwrap()
                    .is_some();
                let scan = is_feasible_at(&p, k, limit, &unlimited).unwrap();
                assert_eq!(
                    scan, dp,
                    "round={round} limit={limit} k={k} nodes={nodes:?} edges={edges:?}"
                );
            }
        }
    }

    #[test]
    fn lexicographic_trades_total_for_bottleneck() {
        let p = path(&[5, 5, 5, 5], &[4, 6, 4]);
        let lex = lex(&p, Weight::new(10)).unwrap();
        let plain = min_bandwidth_cut(&p, Weight::new(10)).unwrap();
        assert_eq!(p.bottleneck(&lex).unwrap(), Weight::new(4));
        assert_eq!(p.cut_weight(&lex).unwrap(), Weight::new(8));
        assert_eq!(p.cut_weight(&plain).unwrap(), Weight::new(6));
        assert_eq!(p.bottleneck(&plain).unwrap(), Weight::new(6));
    }

    #[test]
    fn matches_brute_force_lexicographic_order() {
        let mut rng = SmallRng::seed_from_u64(0x1E);
        for round in 0..200 {
            let n: usize = rng.gen_range(1..11);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..15)).collect();
            let p = path(&nodes, &edges);
            let max = nodes.iter().copied().max().unwrap();
            let k = Weight::new(rng.gen_range(max..=max + 15));
            let lex = lex(&p, k).unwrap();
            // Brute force: minimize (bottleneck, total) lexicographically.
            let best = all_cuts(p.edge_count())
                .filter(|c| p.is_feasible_cut(c, k).unwrap())
                .map(|c| {
                    (
                        p.bottleneck(&c).unwrap().get(),
                        p.cut_weight(&c).unwrap().get(),
                    )
                })
                .min()
                .unwrap();
            let got = (
                p.bottleneck(&lex).unwrap().get(),
                p.cut_weight(&lex).unwrap().get(),
            );
            assert_eq!(
                got, best,
                "round={round} nodes={nodes:?} edges={edges:?} k={k}"
            );
        }
    }

    #[test]
    fn lexicographic_bottleneck_matches_algorithm_2_1() {
        // Algorithm 2.1 on the chain built as a tree is an independent
        // oracle for B*: it shares no code with the feasibility scan.
        let mut rng = SmallRng::seed_from_u64(0xA21);
        for round in 0..400 {
            let (nodes, edges, k) = random_instance(&mut rng, 200);
            let p = path(&nodes, &edges);
            let tree_edges: Vec<(usize, usize, u64)> = edges
                .iter()
                .enumerate()
                .map(|(i, &w)| (i, i + 1, w))
                .collect();
            let t = Tree::from_raw(&nodes, &tree_edges).unwrap();
            let want = min_bottleneck_cut(&t, k).unwrap().bottleneck;
            let cut = lex(&p, k).unwrap();
            assert_eq!(
                p.bottleneck(&cut).unwrap(),
                want,
                "round={round} k={k} nodes={nodes:?} edges={edges:?}"
            );
        }
    }

    #[test]
    fn budgeted_lexicographic_matches_and_interrupts() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        let nodes: Vec<u64> = (0..400).map(|i| 1 + (i % 5)).collect();
        let edges: Vec<u64> = (0..399).map(|i| 1 + (i * 17) % 29).collect();
        let p = path(&nodes, &edges);
        let k = Weight::new(18);
        let cold = lex(&p, k).unwrap();
        let generous = Budget::with_deadline(Instant::now() + Duration::from_secs(3600));
        let budgeted = min_bandwidth_cut_lexicographic(&p, k, &generous).unwrap();
        assert_eq!(cold, budgeted);
        let expired = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(
            min_bandwidth_cut_lexicographic(&p, k, &expired),
            Err(PartitionError::Interrupted(_))
        ));
        // A flag raised after the entry check still stops the first
        // scan and the DP on their first charged edge.
        let raised = Budget::unlimited()
            .with_cancel(Arc::new(AtomicBool::new(true)))
            .with_stride(0);
        assert!(matches!(
            is_feasible_at(&p, k, Weight::MAX, &raised),
            Err(PartitionError::Interrupted(_))
        ));
        assert!(matches!(
            min_bandwidth_cut_bounded(&p, k, Weight::MAX, &raised),
            Err(PartitionError::Interrupted(_))
        ));
    }

    #[test]
    fn bound_errors_propagate() {
        let p = path(&[1, 9], &[1]);
        assert!(matches!(
            bounded(&p, 8, u64::MAX),
            Err(PartitionError::BoundTooSmall { .. })
        ));
        assert!(matches!(
            lex(&p, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn warm_with_certified_window_matches_cold_exactly() {
        let mut rng = SmallRng::seed_from_u64(0xA11CE);
        for round in 0..300 {
            let (nodes, edges, k) = if round % 2 == 0 {
                random_instance(&mut rng, 200)
            } else {
                let n: usize = rng.gen_range(1..40);
                let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
                let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..25)).collect();
                let max = nodes.iter().copied().max().unwrap();
                (nodes, edges, Weight::new(rng.gen_range(max..=max + 20)))
            };
            let p = path(&nodes, &edges);
            let cold = lex(&p, k).unwrap();
            let b_star = p.bottleneck(&cold).unwrap().get();
            // A window around the true B* (as a session would seed after
            // drift) must certify and reproduce the cold cut exactly.
            let delta = rng.gen_range(0..6);
            let warm = min_bandwidth_cut_lexicographic_warm(
                &p,
                k,
                Weight::new(b_star.saturating_sub(delta)),
                Weight::new(b_star + delta),
            )
            .unwrap();
            let warm = warm.expect("window containing B* always certifies");
            assert_eq!(warm, cold, "round={round} nodes={nodes:?} edges={edges:?}");
        }
    }

    #[test]
    fn warm_refuses_windows_that_exclude_the_optimum() {
        let p = path(&[5, 5, 5, 5], &[4, 6, 4]);
        let k = Weight::new(10);
        let cold = lex(&p, k).unwrap();
        assert_eq!(p.bottleneck(&cold).unwrap(), Weight::new(4));
        // Window entirely above B*: the below-window certificate fails.
        assert!(
            min_bandwidth_cut_lexicographic_warm(&p, k, Weight::new(5), Weight::new(9))
                .unwrap()
                .is_none()
        );
        // Window entirely below B*: the top-of-window probe is infeasible.
        assert!(
            min_bandwidth_cut_lexicographic_warm(&p, k, Weight::ZERO, Weight::new(3))
                .unwrap()
                .is_none()
        );
        // Inverted or empty windows fall back without probing.
        assert!(
            min_bandwidth_cut_lexicographic_warm(&p, k, Weight::new(9), Weight::new(5))
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn warm_errors_match_cold_errors() {
        let p = path(&[1, 9], &[1]);
        assert!(matches!(
            min_bandwidth_cut_lexicographic_warm(&p, Weight::new(8), Weight::ZERO, Weight::MAX),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn empty_cut_ignores_the_limit() {
        let p = path(&[2, 2], &[99]);
        let cut = bounded(&p, 4, 0).unwrap().unwrap();
        assert!(cut.is_empty());
    }
}
