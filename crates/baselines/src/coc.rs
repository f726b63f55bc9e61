//! Chains-on-chains partitioning: shared problem definition.
//!
//! Bokhari (1988) and Hansen & Lih (1992) partition a chain of `n` modules
//! over `m` processors of a *linear array*, assigning a contiguous
//! non-empty block of modules to each processor. A processor's cost is its
//! computation load plus the communication over its (at most two) boundary
//! edges; the objective is to minimize the maximum processor cost (the
//! *bottleneck*).

use tgp_graph::{ChainView, EdgeId, PathGraph, Weight};

/// Errors for chains-on-chains partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CocError {
    /// `m` must satisfy `1 ≤ m ≤ n` (each processor gets a non-empty
    /// block).
    BadProcessorCount {
        /// Number of modules.
        n: usize,
        /// Requested number of processors.
        m: usize,
    },
}

impl std::fmt::Display for CocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CocError::BadProcessorCount { n, m } => write!(
                f,
                "processor count {m} must be between 1 and the module count {n}"
            ),
        }
    }
}

impl std::error::Error for CocError {}

/// A partition of a chain into `m` contiguous non-empty blocks.
///
/// `boundaries[j]` is the index of the *first* module of block `j + 1`;
/// block 0 starts at module 0. Strictly increasing, length `m − 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainAssignment {
    boundaries: Vec<usize>,
}

impl ChainAssignment {
    /// Creates an assignment from block-start boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not strictly increasing or start at 0.
    pub fn new(boundaries: Vec<usize>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        assert!(
            boundaries.first().is_none_or(|&b| b > 0),
            "block 0 implicitly starts at module 0"
        );
        ChainAssignment { boundaries }
    }

    /// Number of processors (blocks).
    pub fn processors(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The inclusive module range `(start, end)` of block `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.processors()`.
    pub fn block(&self, j: usize, n: usize) -> (usize, usize) {
        let start = if j == 0 { 0 } else { self.boundaries[j - 1] };
        let end = if j == self.boundaries.len() {
            n - 1
        } else {
            self.boundaries[j] - 1
        };
        (start, end)
    }

    /// The block-start boundaries (module indices), strictly increasing.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Cost of block `j` on `path`: computation plus both boundary edges.
    pub fn block_cost<C: ChainView>(&self, path: &C, j: usize) -> Weight {
        let (s, t) = self.block(j, path.len());
        segment_cost(path, s, t)
    }

    /// The bottleneck: the maximum block cost.
    pub fn bottleneck<C: ChainView>(&self, path: &C) -> Weight {
        (0..self.processors())
            .map(|j| self.block_cost(path, j))
            .max()
            .expect("at least one block")
    }
}

/// The cost a segment `[s, t]` incurs on its processor: computation plus
/// communication over the boundary edges that exist.
pub fn segment_cost<C: ChainView>(path: &C, s: usize, t: usize) -> Weight {
    let n = path.len();
    let mut cost = path.span_weight(s, t);
    if s > 0 {
        cost += path.edge_weight(EdgeId::new(s - 1));
    }
    if t < n - 1 {
        cost += path.edge_weight(EdgeId::new(t));
    }
    cost
}

/// Exhaustive optimal bottleneck over all `C(n-1, m-1)` assignments —
/// for tests only.
pub fn brute_force_bottleneck(path: &PathGraph, m: usize) -> Option<Weight> {
    let n = path.len();
    if m < 1 || m > n {
        return None;
    }
    fn rec(
        path: &PathGraph,
        boundaries: &mut Vec<usize>,
        next_start: usize,
        remaining: usize,
        best: &mut Option<Weight>,
    ) {
        let n = path.len();
        if remaining == 0 {
            let a = ChainAssignment::new(boundaries.clone());
            let b = a.bottleneck(path);
            if best.is_none() || b < best.unwrap() {
                *best = Some(b);
            }
            return;
        }
        for b in next_start..=(n - remaining) {
            boundaries.push(b);
            rec(path, boundaries, b + 1, remaining - 1, best);
            boundaries.pop();
        }
    }
    let mut best = None;
    rec(path, &mut Vec::new(), 1, m - 1, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> PathGraph {
        PathGraph::from_raw(&[2, 3, 5, 7, 11], &[10, 20, 30, 40]).unwrap()
    }

    #[test]
    fn single_block_assignment() {
        let a = ChainAssignment::new(vec![]);
        assert_eq!(a.processors(), 1);
        assert_eq!(a.block(0, 5), (0, 4));
        assert_eq!(a.bottleneck(&path()), Weight::new(28));
    }

    #[test]
    fn block_costs_include_boundary_edges() {
        let p = path();
        let a = ChainAssignment::new(vec![2, 4]);
        assert_eq!(a.processors(), 3);
        assert_eq!(a.block(0, 5), (0, 1));
        assert_eq!(a.block(1, 5), (2, 3));
        assert_eq!(a.block(2, 5), (4, 4));
        // Block 0: 2+3 plus right edge 20.
        assert_eq!(a.block_cost(&p, 0), Weight::new(25));
        // Block 1: 5+7 plus edges 20 and 40.
        assert_eq!(a.block_cost(&p, 1), Weight::new(72));
        // Block 2: 11 plus left edge 40.
        assert_eq!(a.block_cost(&p, 2), Weight::new(51));
        assert_eq!(a.bottleneck(&p), Weight::new(72));
    }

    #[test]
    fn segment_cost_matches_block_cost() {
        let p = path();
        let a = ChainAssignment::new(vec![2, 4]);
        for j in 0..3 {
            let (s, t) = a.block(j, 5);
            assert_eq!(segment_cost(&p, s, t), a.block_cost(&p, j));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_panic() {
        ChainAssignment::new(vec![3, 2]);
    }

    #[test]
    #[should_panic(expected = "implicitly starts")]
    fn zero_boundary_panics() {
        ChainAssignment::new(vec![0, 2]);
    }

    #[test]
    fn brute_force_handles_extremes() {
        let p = path();
        assert_eq!(brute_force_bottleneck(&p, 1), Some(Weight::new(28)));
        // m = n: every module alone; bottleneck = max(w_i + adjacent edges).
        let b = brute_force_bottleneck(&p, 5).unwrap();
        assert_eq!(b, Weight::new(77)); // module 3: 7 + 30 + 40
        assert_eq!(brute_force_bottleneck(&p, 6), None);
        assert_eq!(brute_force_bottleneck(&p, 0), None);
    }

    #[test]
    fn error_display() {
        let e = CocError::BadProcessorCount { n: 3, m: 9 };
        assert!(e.to_string().contains('9'));
    }
}
