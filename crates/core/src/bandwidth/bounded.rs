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
//! optimum. Finding `B*` needs no DP and no search. A cut is feasible
//! exactly when it holds an edge of every prime subpath (§2.3), so `B*`
//! is the largest, over all prime subpaths, of the lightest edge inside
//! (zero when there is none). One pass over the edges computes it in
//! `O(n)`, and the lexicographic solve runs the DP once, at `B*`.

use std::collections::VecDeque;

use tgp_graph::{ChainView, CutSet, EdgeId, Weight};

use crate::budget::Budget;
use crate::error::{check_bound, PartitionError};

const INF: u64 = u64::MAX;

/// Minimum-weight cut keeping every segment within `bound`, using only
/// edges of weight at most `bottleneck_limit`. Returns `Ok(None)` when no
/// such cut exists (some over-weight window contains no allowed edge).
///
/// `O(n)` time via a monotonic-deque window minimum. The DP charges the
/// [`Budget`] one unit per edge, so an expired deadline interrupts it
/// mid-scan; pass [`Budget::unlimited`] when nothing bounds the solve.
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
/// use tgp_graph::{ChainView, PathGraph, Weight};
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
    check_bound(path.max_node_weight(), path.node_weights(), bound)?;
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

/// Edge visits per vertex that the lexicographic solve lets
/// [`optimal_bottleneck`]'s skip pass spend before
/// [`sliding_bottleneck`] takes over the rest of the chain. On random
/// weights the pass visits each edge little more than once; on
/// increasing ones it would rescan every window, `O(n·window)` in all.
const VISITS_PER_VERTEX: usize = 4;

/// `B*`, the smallest bottleneck of any feasible cut: the largest, over
/// all prime subpaths, of the lightest edge inside, and zero when the
/// whole chain fits in `bound` (§2.3: a cut is feasible exactly when it
/// holds an edge of every prime subpath).
///
/// A *skip pass* finds it without a sort. It runs the feasibility scan
/// at the best limit so far, starting from zero: every edge no heavier
/// than the limit is cut. When a run turns over-weight at vertex `v`,
/// the shortest over-weight window ending at `v` is a prime subpath
/// whose edges all exceed the limit, so the limit rises to its lightest
/// edge (still at most `B*`) and the scan resumes just after that edge,
/// where the run is within the bound again. A scan that reaches the end
/// proves its limit feasible, so the limit is `B*`. Past `max_visits`
/// edge visits the rest of the chain goes to [`sliding_bottleneck`],
/// which is `O(n)` on every input.
///
/// Vertices are checked against `bound` first, so the error names the
/// first vertex that outweighs it. Charges the budget one unit per edge
/// visit.
fn optimal_bottleneck<C: ChainView>(
    path: &C,
    bound: Weight,
    max_visits: usize,
    budget: &Budget,
) -> Result<Weight, PartitionError> {
    check_bound(path.max_node_weight(), path.node_weights(), bound)?;
    let n = path.len();
    let mut visits = 0;
    let mut best = Weight::ZERO;
    let mut start = 0; // first vertex of the current run
    for v in 1..n {
        budget.charge(1)?;
        let edge = path.edge_weight(EdgeId::new(v - 1));
        if edge <= best {
            start = v;
            continue;
        }
        if path.span_weight(start, v) <= bound {
            continue;
        }
        // `start..=v` is over-weight and `start..v` is not, so the
        // shortest over-weight window ending at `v`, `s..=v`, is prime.
        // Walk it back from `v`, keeping its last lightest edge.
        let (mut s, mut lightest, mut light) = (v - 1, v - 1, edge);
        while path.span_weight(s, v) <= bound {
            s -= 1;
            let w = path.edge_weight(EdgeId::new(s));
            if w < light {
                (lightest, light) = (s, w);
            }
        }
        budget.charge((v - 1 - s) as u64)?;
        visits += v - 1 - s;
        best = light;
        start = lightest + 1;
        if v + visits > max_visits {
            return sliding_bottleneck(path, bound, start, best, budget);
        }
    }
    Ok(best)
}

/// The rest of [`optimal_bottleneck`]'s pass, `O(n)` on every input:
/// the largest of `best` and, over each over-weight window inside
/// `start..n` that is the shortest one ending at its last vertex, the
/// lightest edge inside. A monotone deque keeps the window's lightest
/// edge as both of its ends advance. Every prime subpath is such a
/// window, and every such window holds one, so the largest minimum is
/// the same over both. A window that starts left of `start` holds an
/// edge no heavier than `best`: the edge `start - 1` when it ends right
/// of it, and otherwise one the pass cut, since the pass found every run
/// before `start` within the bound.
fn sliding_bottleneck<C: ChainView>(
    path: &C,
    bound: Weight,
    start: usize,
    mut best: Weight,
    budget: &Budget,
) -> Result<Weight, PartitionError> {
    // Edge ids and weights, weights strictly rising from the front.
    let mut lightest: VecDeque<(usize, Weight)> = VecDeque::new();
    let mut s = start;
    for t in start + 1..path.len() {
        budget.charge(1)?;
        let w = path.edge_weight(EdgeId::new(t - 1));
        while lightest.back().is_some_and(|&(_, b)| b >= w) {
            lightest.pop_back();
        }
        lightest.push_back((t - 1, w));
        if path.span_weight(s, t) <= bound {
            continue;
        }
        while path.span_weight(s + 1, t) > bound {
            s += 1;
        }
        while lightest.front().is_some_and(|&(j, _)| j < s) {
            lightest.pop_front();
        }
        best = best.max(lightest.front().expect("edge t - 1 is in the window").1);
    }
    Ok(best)
}

/// The lexicographic bicriteria cut of §3's real-time application: the
/// minimum-total-weight cut among all feasible cuts whose bottleneck
/// equals the optimum `B*` of Algorithm 2.1.
///
/// `B*` is the largest, over all prime subpaths, of the lightest edge
/// inside; one pass over the edges finds it, and
/// [`min_bandwidth_cut_bounded`] then runs once, at `B*`: `O(n)` in
/// all. The pass and the DP charge the [`Budget`] per edge visit, so a
/// deadline interrupts the solve inside either.
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
/// use tgp_graph::{ChainView, PathGraph, Weight};
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
    let b_star = optimal_bottleneck(path, bound, VISITS_PER_VERTEX * path.len(), budget)?;
    Ok(min_bandwidth_cut_bounded(path, bound, b_star, budget)?
        .expect("a cut within B* exists by the definition of B*"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{min_bandwidth_cut, prime_subpaths};
    use crate::bottleneck::min_bottleneck_cut;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tgp_graph::{PathGraph, Tree};

    /// Whether [`min_bandwidth_cut_bounded`] finds a cut at `limit`,
    /// decided without the DP: cut every edge of weight `≤ limit` and
    /// check each remaining run against `bound`. The verdict is exact
    /// because a feasible cut within the limit stays feasible when the
    /// other allowed edges are cut too. Charges the budget one unit per
    /// edge. Unlike the DP it does not validate single vertices: one
    /// that outweighs `bound` makes every limit infeasible.
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

    /// Every bottleneck a cut can have: zero (the empty cut) and each
    /// edge weight, unsorted and with repeats.
    fn candidate_limits<C: ChainView>(path: &C) -> impl Iterator<Item = Weight> + '_ {
        std::iter::once(Weight::ZERO)
            .chain((0..path.edge_count()).map(|j| path.edge_weight(EdgeId::new(j))))
    }

    /// Index of the smallest feasible limit in the ascending, non-empty
    /// `limits`. Feasibility is monotone in the limit (raising it only
    /// adds cuttable edges). The last limit is taken as feasible
    /// without a scan: it allows every edge.
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

    /// The reference search for `B*`: binary search over the sorted,
    /// deduplicated candidate limits with the feasibility scan. Every
    /// limit is infeasible when a vertex outweighs the bound, so the
    /// search ends on the largest, where the DP names that vertex.
    fn searched_b_star(p: &PathGraph, k: Weight) -> Result<Weight, PartitionError> {
        let unlimited = Budget::unlimited();
        let mut limits: Vec<Weight> = candidate_limits(p).collect();
        limits.sort_unstable();
        limits.dedup();
        let b_star = limits[first_feasible(p, k, &limits, &unlimited)?];
        min_bandwidth_cut_bounded(p, k, b_star, &unlimited)?.expect("the search ends feasible");
        Ok(b_star)
    }

    /// The paper's formula for `B*`: the largest, over all prime
    /// subpaths, of the lightest edge inside; zero without primes.
    fn prime_b_star(p: &PathGraph, k: Weight) -> Result<Weight, PartitionError> {
        Ok(prime_subpaths(p, k)?
            .iter()
            .map(|prime| {
                prime
                    .edges()
                    .map(|e| p.edge_weight(e))
                    .min()
                    .expect("a prime subpath of a feasible bound holds an edge")
            })
            .max()
            .unwrap_or(Weight::ZERO))
    }

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

    /// A random chain for the three-way `B*` check, by `round`: the
    /// mixes of [`random_instance`] (zero weights, heavy ties), all-equal
    /// weights, increasing and decreasing edge weights (the skip pass's
    /// worst and best orders), a bound at or above the total, a vertex
    /// above the bound, and one- and two-vertex chains.
    fn b_star_instance(rng: &mut SmallRng, round: usize) -> (Vec<u64>, Vec<u64>, Weight) {
        let n: usize = rng.gen_range(1..=64);
        let random_nodes = |rng: &mut SmallRng, n: usize| -> Vec<u64> {
            let hi = [1, 10, 100][rng.gen_range(0..3)];
            (0..n).map(|_| rng.gen_range(0..=hi)).collect()
        };
        let (nodes, edges) = match round % 8 {
            0 | 1 => return random_instance(rng, 64),
            2 => {
                let (a, b) = (rng.gen_range(0..=4), rng.gen_range(0..=3));
                (vec![a; n], vec![b; n - 1])
            }
            3 | 4 => {
                let nodes = random_nodes(rng, n);
                let step_hi = [0, 1, 5][rng.gen_range(0..3)];
                let mut w = rng.gen_range(0..=3);
                let mut edges: Vec<u64> = (1..n)
                    .map(|_| {
                        w += rng.gen_range(0..=step_hi);
                        w
                    })
                    .collect();
                if round % 8 == 4 {
                    edges.reverse();
                }
                (nodes, edges)
            }
            5 | 6 => {
                let nodes = random_nodes(rng, n);
                let edges = (1..n).map(|_| rng.gen_range(0..=20)).collect();
                (nodes, edges)
            }
            _ => {
                let n = rng.gen_range(1..=2);
                let nodes = random_nodes(rng, n);
                let edges = (1..n).map(|_| rng.gen_range(0..=3)).collect();
                (nodes, edges)
            }
        };
        let max = nodes.iter().copied().max().unwrap();
        let total: u64 = nodes.iter().sum();
        let k = match round % 8 {
            5 => rng.gen_range(total..=total + 3),
            6 if max > 0 => rng.gen_range(0..max),
            7 => rng.gen_range(0..=total + 1),
            _ => rng.gen_range(max..=total + 2),
        };
        (nodes, edges, Weight::new(k))
    }

    #[test]
    fn one_pass_b_star_matches_the_prime_formula_and_the_search() {
        let mut rng = SmallRng::seed_from_u64(0xB57A);
        let unlimited = Budget::unlimited();
        for round in 0..20_000 {
            let (nodes, edges, k) = b_star_instance(&mut rng, round);
            let p = path(&nodes, &edges);
            let case = format!("round={round} k={k} nodes={nodes:?} edges={edges:?}");
            let searched = searched_b_star(&p, k);
            assert_eq!(prime_b_star(&p, k), searched, "formula: {case}");
            // Handing over to the sliding minimum after the first raise,
            // at the solves' cap, and never.
            for max_visits in [0, VISITS_PER_VERTEX * nodes.len(), usize::MAX] {
                assert_eq!(
                    optimal_bottleneck(&p, k, max_visits, &unlimited),
                    searched,
                    "max_visits={max_visits}: {case}"
                );
            }
            if searched.is_ok() {
                assert_eq!(
                    sliding_bottleneck(&p, k, 0, Weight::ZERO, &unlimited),
                    searched,
                    "sliding minimum alone: {case}"
                );
            }
            let solved = lex(&p, k).map(|cut| p.bottleneck(&cut).unwrap());
            assert_eq!(solved, searched, "solve: {case}");
        }
    }

    #[test]
    fn increasing_edges_at_scale_go_through_the_fallback() {
        use std::time::{Duration, Instant};
        let n = 100_000;
        let mut rng = SmallRng::seed_from_u64(0x1AC);
        let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=100)).collect();
        let edges: Vec<u64> = (1..n as u64).collect();
        let p = path(&nodes, &edges);
        let k = Weight::new(4_000);
        let want = prime_b_star(&p, k).unwrap();
        assert_eq!(searched_b_star(&p, k), Ok(want));
        // The pass charges one unit per edge visit. An expired deadline
        // polled every 6n units lets the capped pass (4n visits, then at
        // most n more in the sliding minimum) finish, and stops the skip
        // pass alone, which rescans every ~80-vertex window.
        let raised = || {
            Budget::with_deadline(Instant::now() - Duration::from_millis(1))
                .with_stride(6 * n as u64)
        };
        assert_eq!(
            optimal_bottleneck(&p, k, VISITS_PER_VERTEX * n, &raised()),
            Ok(want)
        );
        assert!(matches!(
            optimal_bottleneck(&p, k, usize::MAX, &raised()),
            Err(PartitionError::Interrupted(_))
        ));
        let cut = lex(&p, k).unwrap();
        assert_eq!(p.bottleneck(&cut).unwrap(), want);
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
        // A deadline that passed after the entry check still stops the
        // first scan and the DP on their first charged edge.
        let raised =
            Budget::with_deadline(Instant::now() - Duration::from_millis(1)).with_stride(0);
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
    fn empty_cut_ignores_the_limit() {
        let p = path(&[2, 2], &[99]);
        let cut = bounded(&p, 4, 0).unwrap().unwrap();
        assert!(cut.is_empty());
    }
}
