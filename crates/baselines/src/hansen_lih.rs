//! A probe-based exact chains-on-chains partitioner (Hansen & Lih 1992
//! style).
//!
//! Hansen & Lih improved Bokhari's algorithm with "a different, more
//! lucid" approach (as the reproduced paper puts it). Their exact
//! pseudo-code is not in the reproduced text, so this module reconstructs
//! an exact probe method in that spirit: binary-search the bottleneck
//! value `B`, checking feasibility of each candidate with a linear sweep.
//!
//! The feasibility check uses the identity
//! `cost(s+1..t) ≤ B  ⟺  β_s − P[s+1] ≤ B − β̂_t − P[t+1]`
//! (`P` = vertex-weight prefix sums, `β̂_t` = right boundary edge or 0 at
//! the chain end), so each processor layer is a single sweep maintaining a
//! running prefix minimum of `A(s) = β_s − P[s+1]` over feasible ends:
//! `O(n·m)` per probe, `O(n·m·log Σw)` overall. Results are verified to
//! match [`crate::bokhari::bokhari_partition`] exactly.

#![allow(clippy::needless_range_loop)] // index-based DP reads clearer here

use tgp_graph::{ChainView, EdgeId, Weight};

use crate::bokhari::CocResult;
use crate::coc::{segment_cost, ChainAssignment, CocError};

/// `A(s) = β_s − P[s+1]` as an `i128` (can be negative).
fn a_value<C: ChainView>(path: &C, s: usize) -> i128 {
    let beta = i128::from(path.edge_weight(EdgeId::new(s)).get());
    let prefix = i128::from(path.span_weight(0, s).get());
    beta - prefix
}

/// Right-hand side `B − β̂_t − P[t+1]`.
fn rhs<C: ChainView>(path: &C, bound: u64, t: usize) -> i128 {
    let n = path.len();
    let beta_hat = if t < n - 1 {
        i128::from(path.edge_weight(EdgeId::new(t)).get())
    } else {
        0
    };
    i128::from(bound) - beta_hat - i128::from(path.span_weight(0, t).get())
}

/// Feasibility probe: can modules be split into exactly `m` non-empty
/// blocks, each of cost at most `bound`? Returns the per-layer
/// feasible-end sets for reconstruction when feasible.
fn probe<C: ChainView>(path: &C, m: usize, bound: u64) -> Option<Vec<Vec<bool>>> {
    let n = path.len();
    let mut layers: Vec<Vec<bool>> = Vec::with_capacity(m);
    // Layer 0: block 0..=t fits?
    let mut layer0 = vec![false; n];
    for (t, slot) in layer0.iter_mut().enumerate() {
        let beta_hat = if t < n - 1 {
            path.edge_weight(EdgeId::new(t)).get()
        } else {
            0
        };
        *slot = path.span_weight(0, t).get().saturating_add(beta_hat) <= bound;
    }
    layers.push(layer0);
    for _ in 1..m {
        let prev = layers.last().expect("at least layer 0");
        let mut next = vec![false; n];
        // min_a = min A(s) over feasible s seen so far (s < t).
        let mut min_a = i128::MAX;
        for t in 1..n {
            let s = t - 1;
            if prev[s] {
                min_a = min_a.min(a_value(path, s));
            }
            next[t] = min_a <= rhs(path, bound, t);
        }
        layers.push(next);
    }
    if layers[m - 1][n - 1] {
        Some(layers)
    } else {
        None
    }
}

fn reconstruct<C: ChainView>(path: &C, layers: &[Vec<bool>], bound: u64) -> ChainAssignment {
    let n = path.len();
    let m = layers.len();
    let mut boundaries = Vec::with_capacity(m - 1);
    let mut t = n - 1;
    for j in (1..m).rev() {
        let s = (0..t)
            .rev()
            .find(|&s| layers[j - 1][s] && segment_cost(path, s + 1, t).get() <= bound)
            .expect("probe succeeded, so a witness split exists");
        boundaries.push(s + 1);
        t = s;
    }
    boundaries.reverse();
    ChainAssignment::new(boundaries)
}

/// Exact minimax chain partition over exactly `m` processors by binary
/// search on the bottleneck with a linear-sweep probe:
/// `O(n·m·log Σw)` time.
///
/// Always returns the same bottleneck value as
/// [`crate::bokhari::bokhari_partition`].
///
/// # Errors
///
/// [`CocError::BadProcessorCount`] unless `1 ≤ m ≤ n`.
///
/// # Examples
///
/// ```
/// use tgp_baselines::hansen_lih::hansen_lih_partition;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chain = PathGraph::from_raw(&[5, 5, 5, 5], &[1, 1, 1])?;
/// let r = hansen_lih_partition(&chain, 2)?;
/// assert_eq!(r.bottleneck, Weight::new(11));
/// # Ok(())
/// # }
/// ```
pub fn hansen_lih_partition<C: ChainView>(path: &C, m: usize) -> Result<CocResult, CocError> {
    let n = path.len();
    if m < 1 || m > n {
        return Err(CocError::BadProcessorCount { n, m });
    }
    let max_edge = (0..path.edge_count())
        .map(|e| path.edge_weight(EdgeId::new(e)).get())
        .max()
        .unwrap_or(0);
    let mut lo = 0u64;
    let mut hi = path.total_weight().get().saturating_add(2 * max_edge);
    debug_assert!(probe(path, m, hi).is_some());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(path, m, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let layers = probe(path, m, lo).expect("lo is feasible by construction");
    let assignment = reconstruct(path, &layers, lo);
    debug_assert_eq!(assignment.bottleneck(path).get(), lo);
    Ok(CocResult {
        assignment,
        bottleneck: Weight::new(lo),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bokhari::bokhari_partition;
    use tgp_graph::PathGraph;

    #[test]
    fn rejects_bad_processor_counts() {
        let p = PathGraph::from_raw(&[1, 2], &[3]).unwrap();
        assert!(hansen_lih_partition(&p, 0).is_err());
        assert!(hansen_lih_partition(&p, 5).is_err());
    }

    #[test]
    fn single_processor_and_full_isolation() {
        let p = PathGraph::from_raw(&[4, 4, 4], &[1, 1]).unwrap();
        assert_eq!(
            hansen_lih_partition(&p, 1).unwrap().bottleneck,
            Weight::new(12)
        );
        assert_eq!(
            hansen_lih_partition(&p, 3).unwrap().bottleneck,
            Weight::new(6)
        );
    }

    #[test]
    fn communication_steers_the_split() {
        let p = PathGraph::from_raw(&[4, 4, 4, 4], &[100, 1, 100]).unwrap();
        let r = hansen_lih_partition(&p, 2).unwrap();
        assert_eq!(r.assignment.boundaries(), &[2]);
        assert_eq!(r.bottleneck, Weight::new(9));
    }

    #[test]
    fn matches_bokhari_everywhere() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5150);
        for _ in 0..80 {
            let n = rng.gen_range(1..40);
            let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..50)).collect();
            let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..50)).collect();
            let p = PathGraph::from_raw(&nodes, &edges).unwrap();
            for m in [1, 2, 3, n / 2, n]
                .into_iter()
                .filter(|&m| (1..=n).contains(&m))
            {
                let a = hansen_lih_partition(&p, m).unwrap();
                let b = bokhari_partition(&p, m).unwrap();
                assert_eq!(
                    a.bottleneck, b.bottleneck,
                    "nodes={nodes:?} edges={edges:?} m={m}"
                );
                // The reconstructed assignment achieves the claimed value.
                assert_eq!(a.assignment.bottleneck(&p), a.bottleneck);
            }
        }
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let p = PathGraph::from_raw(&[3, 3, 3, 3], &[0, 0, 0]).unwrap();
        let r = hansen_lih_partition(&p, 2).unwrap();
        assert_eq!(r.bottleneck, Weight::new(6));
    }
}
