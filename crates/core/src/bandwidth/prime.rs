//! Prime (minimal critical) subpaths of a linear task graph.
//!
//! Section 2.3: a *critical subpath* is a subpath of vertex weight greater
//! than the load bound `K`; a critical subpath containing no other critical
//! subpath is *prime*. An edge cut keeps every segment within `K` **iff**
//! it contains at least one edge from every prime subpath, which turns
//! bandwidth minimization into a structured weighted hitting-set problem.

use tgp_graph::{ChainView, EdgeId, Weight};

use crate::error::{check_bound, PartitionError};

/// A prime (minimal critical) subpath `P_i` of a path graph.
///
/// The subpath spans nodes `first_node..=last_node`; its edge set is
/// `E(P_i) = {e_{first_node}, …, e_{last_node - 1}}` (the paper's
/// `{e_{a_i}, …, e_{b_i}}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimeSubpath {
    /// Index of the first node of the subpath.
    pub first_node: usize,
    /// Index of the last node of the subpath (inclusive).
    pub last_node: usize,
}

impl PrimeSubpath {
    /// The paper's `a_i`: index of the first edge of the subpath.
    pub fn first_edge(&self) -> usize {
        self.first_node
    }

    /// The paper's `b_i`: index of the last edge of the subpath.
    pub fn last_edge(&self) -> usize {
        self.last_node - 1
    }

    /// Number of edges in the subpath.
    pub fn edge_len(&self) -> usize {
        self.last_node - self.first_node
    }

    /// Iterates over the edge ids of the subpath.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (self.first_node..self.last_node).map(EdgeId::new)
    }
}

/// Computes all prime subpaths of `path` under load bound `bound`, in
/// left-to-right order, in O(n) time (the paper's "all p prime subpaths may
/// be computed in linear time").
///
/// The result satisfies the paper's ordering invariant: both the left ends
/// `a_i` and the right ends `b_i` are strictly increasing.
///
/// Returns an empty vector when the whole path fits within `bound` (so the
/// empty cut is optimal).
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] if a single vertex outweighs `bound`
/// (in which case no cut is feasible).
///
/// # Examples
///
/// ```
/// use tgp_core::bandwidth::prime_subpaths;
/// use tgp_graph::{PathGraph, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[4, 4, 4], &[1, 1])?;
/// let primes = prime_subpaths(&p, Weight::new(7))?;
/// // Any two adjacent nodes weigh 8 > 7, so both 2-node windows are prime.
/// assert_eq!(primes.len(), 2);
/// assert_eq!(primes[0].first_node, 0);
/// assert_eq!(primes[0].last_node, 1);
/// # Ok(())
/// # }
/// ```
pub fn prime_subpaths<C: ChainView>(
    path: &C,
    bound: Weight,
) -> Result<Vec<PrimeSubpath>, PartitionError> {
    check_bound(path.max_node_weight(), path.node_weights(), bound)?;
    let n = path.len();
    // For each left end s, t(s) = the smallest t with span(s..=t) > bound,
    // if any. t(s) is non-decreasing in s, so a two-pointer sweep suffices.
    // The window [s, t(s)] is prime iff it strictly contains no other
    // critical window, i.e. iff t(s + 1) > t(s).
    let mut primes = Vec::new();
    let mut t = 0usize;
    let mut prev_t: Option<usize> = None;
    for s in 0..n {
        if t < s {
            t = s;
        }
        while t < n && path.span_weight(s, t) <= bound {
            t += 1;
        }
        if t == n {
            break; // no critical window starts at s or later
        }
        // Window [s, t] is critical and minimal for this s. It dominates
        // the previous candidate iff the previous candidate had the same
        // right end; keep only the innermost (largest s) per right end.
        if prev_t == Some(t) {
            let last = primes.last_mut().expect("prev_t implies a candidate");
            *last = PrimeSubpath {
                first_node: s,
                last_node: t,
            };
        } else {
            primes.push(PrimeSubpath {
                first_node: s,
                last_node: t,
            });
        }
        prev_t = Some(t);
    }
    debug_assert!(primes
        .windows(2)
        .all(|w| { w[0].first_node < w[1].first_node && w[0].last_node < w[1].last_node }));
    Ok(primes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgp_graph::PathGraph;

    fn path(nodes: &[u64]) -> PathGraph {
        let edges = vec![1u64; nodes.len() - 1];
        PathGraph::from_raw(nodes, &edges).unwrap()
    }

    /// Brute-force prime subpaths for cross-checking: all critical windows
    /// that strictly contain no other critical window.
    fn primes_brute(p: &PathGraph, bound: Weight) -> Vec<PrimeSubpath> {
        let n = p.len();
        let mut critical = Vec::new();
        for s in 0..n {
            for t in s..n {
                if p.span_weight(s, t) > bound {
                    critical.push((s, t));
                }
            }
        }
        let mut primes = Vec::new();
        for &(s, t) in &critical {
            let dominated = critical
                .iter()
                .any(|&(s2, t2)| (s2, t2) != (s, t) && s2 >= s && t2 <= t);
            if !dominated {
                primes.push(PrimeSubpath {
                    first_node: s,
                    last_node: t,
                });
            }
        }
        primes.sort_by_key(|p| p.first_node);
        primes
    }

    #[test]
    fn no_primes_when_total_fits() {
        let p = path(&[1, 2, 3]);
        assert!(prime_subpaths(&p, Weight::new(6)).unwrap().is_empty());
        assert!(prime_subpaths(&p, Weight::new(100)).unwrap().is_empty());
    }

    #[test]
    fn bound_below_vertex_weight_errors() {
        let p = path(&[1, 9, 3]);
        assert!(matches!(
            prime_subpaths(&p, Weight::new(8)),
            Err(PartitionError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn uniform_weights_give_sliding_windows() {
        let p = path(&[4, 4, 4, 4]);
        let primes = prime_subpaths(&p, Weight::new(7)).unwrap();
        assert_eq!(primes.len(), 3);
        for (i, pr) in primes.iter().enumerate() {
            assert_eq!(pr.first_node, i);
            assert_eq!(pr.last_node, i + 1);
            assert_eq!(pr.first_edge(), i);
            assert_eq!(pr.last_edge(), i);
            assert_eq!(pr.edge_len(), 1);
        }
    }

    #[test]
    fn dominated_windows_are_dropped() {
        // [10, 1, 1, 10] with K = 11: window (0..=1)=11 fits; (0..=2)=12
        // critical but contains (1..=3)? span(1,3)=12 critical, and
        // span(2,3)=11 fits, span(1,2)=2 fits. Primes: [0..=2] and [1..=3].
        let p = path(&[10, 1, 1, 10]);
        let primes = prime_subpaths(&p, Weight::new(11)).unwrap();
        assert_eq!(
            primes,
            vec![
                PrimeSubpath {
                    first_node: 0,
                    last_node: 2
                },
                PrimeSubpath {
                    first_node: 1,
                    last_node: 3
                },
            ]
        );
    }

    #[test]
    fn matches_brute_force_on_varied_inputs() {
        let cases: Vec<(Vec<u64>, u64)> = vec![
            (vec![5, 1, 4, 2, 8, 1, 1, 9], 9),
            (vec![5, 1, 4, 2, 8, 1, 1, 9], 10),
            (vec![5, 1, 4, 2, 8, 1, 1, 9], 14),
            (vec![1, 1, 1, 1, 1, 1], 2),
            (vec![3, 3, 3], 3),
            (vec![7], 7),
            (vec![2, 9, 2], 9),
        ];
        for (nodes, k) in cases {
            let p = path(&nodes);
            let fast = prime_subpaths(&p, Weight::new(k)).unwrap();
            let brute = primes_brute(&p, Weight::new(k));
            assert_eq!(fast, brute, "nodes={nodes:?} k={k}");
        }
    }

    #[test]
    fn every_prime_has_at_least_one_edge() {
        // Guaranteed because bound >= every single vertex weight.
        let p = path(&[3, 4, 5, 6, 7]);
        for k in 7..=24 {
            for pr in prime_subpaths(&p, Weight::new(k)).unwrap() {
                assert!(pr.edge_len() >= 1);
                assert!(pr.edges().count() == pr.edge_len());
            }
        }
    }

    #[test]
    fn endpoints_strictly_increase() {
        let p = path(&[5, 1, 4, 2, 8, 1, 1, 9, 3, 3, 6]);
        for k in 9..=30 {
            let primes = prime_subpaths(&p, Weight::new(k)).unwrap();
            for w in primes.windows(2) {
                assert!(w[0].first_node < w[1].first_node);
                assert!(w[0].last_node < w[1].last_node);
            }
        }
    }
}
