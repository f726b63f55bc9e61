//! Disjoint-set (union-find) structure with union by size and path halving.

/// A disjoint-set forest over `0..len` with `u32` indices, union by
/// size and path halving.
///
/// Used for tree validation, process-graph connectivity, the spanning
/// tree of a process graph, the optimized bottleneck-minimization sweep
/// and component bookkeeping. Amortized cost per operation is
/// effectively constant (inverse Ackermann). The out-of-core solvers
/// allocate a forest over every node of a graph that may itself barely
/// fit in the memory budget, so the footprint is load-bearing: 8 bytes
/// per element. Capacity is capped at `u32::MAX` elements, which every
/// graph already guarantees (the graph constructors and
/// `FlatTreeBuilder` refuse larger node counts).
///
/// # Examples
///
/// ```
/// use tgp_graph::UnionFind32;
///
/// let mut uf = UnionFind32::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert!(!uf.union(1, 0)); // already joined
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(0), uf.find(2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind32 {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind32 {
    /// Creates `len` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `len > u32::MAX`.
    pub fn new(len: usize) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "UnionFind32 holds at most u32::MAX elements (got {len})"
        );
        UnionFind32 {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            components: len,
        }
    }

    /// Number of elements in the structure.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Returns the canonical representative of `x`'s set, with path
    /// halving.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets containing `a` and `b` (union by size).
    ///
    /// Returns `true` if two distinct sets were merged.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_at_start() {
        let mut uf = UnionFind32::new(5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        assert_eq!(uf.component_count(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind32::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.component_count(), 4);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn chain_of_unions_converges_to_one_component() {
        let n = 100;
        let mut uf = UnionFind32::new(n as usize);
        for i in 0..n - 1 {
            assert!(uf.union(i, i + 1));
        }
        assert_eq!(uf.component_count(), 1);
        let root = uf.find(0);
        for i in 0..n {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind32::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX")]
    fn compact_refuses_oversized_universe() {
        let _ = UnionFind32::new(u32::MAX as usize + 1);
    }
}
