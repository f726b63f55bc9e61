//! Naive block partitioning — the "no algorithm" strawman.
//!
//! Splits a chain into blocks of (nearly) equal *node count*, ignoring
//! weights entirely. Used by the applications and benches to show how much
//! the weight-aware algorithms actually buy.

use tgp_graph::{ChainView, CutSet, EdgeId, PathGraph};

/// Cuts `path` into `blocks` contiguous pieces of near-equal node count
/// (the first `n % blocks` pieces get one extra node).
///
/// Returns the cut edges; `blocks >= n` isolates every node.
///
/// # Panics
///
/// Panics if `blocks == 0`.
///
/// # Examples
///
/// ```
/// use tgp_baselines::block::block_partition;
/// use tgp_graph::{ChainView, PathGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PathGraph::from_raw(&[1, 1, 1, 1, 1, 1], &[1, 1, 1, 1, 1])?;
/// let cut = block_partition(&p, 3);
/// assert_eq!(cut.len(), 2);
/// assert_eq!(p.segments(&cut)?.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn block_partition(path: &PathGraph, blocks: usize) -> CutSet {
    assert!(blocks > 0, "at least one block is required");
    let n = path.len();
    let blocks = blocks.min(n);
    let base = n / blocks;
    let extra = n % blocks;
    let mut edges = Vec::with_capacity(blocks - 1);
    let mut pos = 0usize;
    for b in 0..blocks - 1 {
        pos += base + usize::from(b < extra);
        edges.push(EdgeId::new(pos - 1));
    }
    CutSet::new(edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let p = PathGraph::from_raw(&[1; 6], &[1; 5]).unwrap();
        let cut = block_partition(&p, 2);
        let segs = p.segments(&cut).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), 3);
        assert_eq!(segs[1].len(), 3);
    }

    #[test]
    fn remainder_goes_to_early_blocks() {
        let p = PathGraph::from_raw(&[1; 7], &[1; 6]).unwrap();
        let segs = p.segments(&block_partition(&p, 3)).unwrap();
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn more_blocks_than_nodes_isolates_all() {
        let p = PathGraph::from_raw(&[1; 3], &[1; 2]).unwrap();
        let segs = p.segments(&block_partition(&p, 10)).unwrap();
        assert_eq!(segs.len(), 3);
    }

    #[test]
    fn one_block_cuts_nothing() {
        let p = PathGraph::from_raw(&[1; 4], &[1; 3]).unwrap();
        assert!(block_partition(&p, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let p = PathGraph::from_raw(&[1], &[]).unwrap();
        block_partition(&p, 0);
    }
}
