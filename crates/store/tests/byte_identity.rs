//! Byte-identity property suite: every solver must produce *identical*
//! results — cut edge sets, weights, segment lists, block boundaries —
//! whether the graph is the pointer representation (`PathGraph`/`Tree`),
//! a RAM-backed flat graph, or a disk-backed (mmap) flat graph. That
//! covers every chain and tree objective's solve body.
//!
//! 64 random cases (32 chains, 32 trees) spanning tiny to moderately
//! large instances, plus several bounds per instance. Any divergence —
//! in `Ok` payloads *or* in error values — fails the test.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp_baselines::{
    bokhari_partition, hansen_lih_partition, hetero_partition, host_satellite_partition,
    nicol_bandwidth_cut, CocError, CocResult, HeteroArray,
};
use tgp_core::bandwidth::{min_bandwidth_cut, min_bandwidth_cut_lexicographic, prime_subpaths};
use tgp_core::bottleneck::min_bottleneck_cut;
use tgp_core::budget::Budget;
use tgp_core::pipeline::{partition_chain, partition_tree};
use tgp_core::procmin::proc_min;
use tgp_core::tree_bandwidth::min_tree_bandwidth_cut;
use tgp_graph::{
    ChainView, FlatPath, FlatPathBuilder, FlatTree, FlatTreeBuilder, MemoryBacking, NodeId,
    PathGraph, RamBacking, Tree, TreeView, Weight,
};
use tgp_store::DiskBacking;

fn flat_path<B: MemoryBacking>(backing: &B, nodes: &[u64], edges: &[u64]) -> FlatPath<B> {
    let mut b = FlatPathBuilder::new(backing, nodes.len()).unwrap();
    for &w in nodes {
        b.push_node(w).unwrap();
    }
    for &w in edges {
        b.push_edge(w).unwrap();
    }
    b.finish().unwrap()
}

fn flat_tree<B: MemoryBacking + Clone>(
    backing: &B,
    nodes: &[u64],
    edges: &[(usize, usize, u64)],
) -> FlatTree<B> {
    let mut b = FlatTreeBuilder::new(backing.clone(), nodes.len()).unwrap();
    for &w in nodes {
        b.push_node(w).unwrap();
    }
    for &(a, bb, w) in edges {
        b.push_edge(a, bb, w).unwrap();
    }
    b.finish().unwrap()
}

/// Runs every chain solver on one view and returns a canonical transcript
/// of everything the service would serialize. Comparing transcripts across
/// representations is exactly the byte-identity contract.
fn chain_transcript<C: ChainView>(path: &C, bounds: &[u64]) -> String {
    let mut out = String::new();
    for &k in bounds {
        let bound = Weight::new(k);
        match prime_subpaths(path, bound) {
            Ok(primes) => {
                out.push_str(&format!("primes k={k}: {primes:?}\n"));
            }
            Err(e) => out.push_str(&format!("primes k={k}: ERR {e:?}\n")),
        }
        match min_bandwidth_cut(path, bound) {
            Ok(cut) => {
                let edges: Vec<usize> = cut.iter().map(|e| e.index()).collect();
                out.push_str(&format!(
                    "bw k={k}: cut={edges:?} w={:?} bn={:?}\n",
                    path.cut_weight(&cut).unwrap(),
                    path.bottleneck(&cut).unwrap(),
                ));
            }
            Err(e) => out.push_str(&format!("bw k={k}: ERR {e:?}\n")),
        }
        match min_bandwidth_cut_lexicographic(path, bound, &Budget::unlimited()) {
            Ok(cut) => {
                let edges: Vec<usize> = cut.iter().map(|e| e.index()).collect();
                out.push_str(&format!(
                    "lex k={k}: cut={edges:?} w={:?} bn={:?} segs={:?}\n",
                    path.cut_weight(&cut).unwrap(),
                    path.bottleneck(&cut).unwrap(),
                    path.segments(&cut).unwrap(),
                ));
            }
            Err(e) => out.push_str(&format!("lex k={k}: ERR {e:?}\n")),
        }
        match partition_chain(path, bound, &Budget::unlimited()) {
            Ok(p) => out.push_str(&format!(
                "pipe k={k}: procs={} bw={:?} bn={:?} segs={:?}\n",
                p.processors, p.bandwidth, p.bottleneck, p.segments,
            )),
            Err(e) => out.push_str(&format!("pipe k={k}: ERR {e:?}\n")),
        }
        match nicol_bandwidth_cut(path, bound) {
            Ok(cut) => out.push_str(&format!(
                "nicol k={k}: {:?}\n",
                cut.iter().collect::<Vec<_>>()
            )),
            Err(e) => out.push_str(&format!("nicol k={k}: ERR {e:?}\n")),
        }
    }
    // The chains-on-chains objectives: `bokhari` (and `coc`'s "bokhari"
    // algorithm), `hansen-lih` (`coc`'s "probe") and `hetero`, with
    // each assignment's cost re-read through `ChainAssignment`.
    let coc_line = |name: &str, m: usize, r: Result<CocResult, CocError>| match r {
        Ok(r) => format!(
            "{name} m={m}: {:?} bn={:?} cost={:?}\n",
            r.assignment.boundaries(),
            r.bottleneck,
            r.assignment.bottleneck(path),
        ),
        Err(e) => format!("{name} m={m}: ERR {e:?}\n"),
    };
    for m in [0, 1, 2, 3, 5, path.len()] {
        out.push_str(&coc_line("bokhari", m, bokhari_partition(path, m)));
        out.push_str(&coc_line("hansen-lih", m, hansen_lih_partition(path, m)));
    }
    for speeds in [vec![1], vec![3, 1], vec![2, 5, 1]] {
        let array = HeteroArray::new(speeds);
        let r = hetero_partition(path, &array);
        if let Ok(r) = &r {
            out.push_str(&format!(
                "hetero time={}\n",
                array.bottleneck(path, &r.assignment)
            ));
        }
        out.push_str(&coc_line("hetero", array.len(), r));
    }
    out
}

/// Same idea for trees: the bottleneck and processor-minimization
/// solves, and the §3 pipeline that composes them over a contraction.
fn tree_transcript<T: TreeView>(tree: &T, bounds: &[u64]) -> String {
    let mut out = String::new();
    for &k in bounds {
        let bound = Weight::new(k);
        match min_bottleneck_cut(tree, bound) {
            Ok(r) => {
                let edges: Vec<usize> = r.cut.iter().map(|e| e.index()).collect();
                out.push_str(&format!(
                    "bn k={k}: cut={edges:?} bn={:?} w={:?}\n",
                    r.bottleneck,
                    tree.cut_weight(&r.cut).unwrap(),
                ));
            }
            Err(e) => out.push_str(&format!("bn k={k}: ERR {e:?}\n")),
        }
        match proc_min(tree, bound) {
            Ok(r) => {
                let edges: Vec<usize> = r.cut.iter().map(|e| e.index()).collect();
                out.push_str(&format!(
                    "pm k={k}: cut={edges:?} procs={}\n",
                    r.component_count
                ));
            }
            Err(e) => out.push_str(&format!("pm k={k}: ERR {e:?}\n")),
        }
        match partition_tree(tree, bound) {
            Ok(p) => {
                let edges: Vec<usize> = p.cut.iter().map(|e| e.index()).collect();
                out.push_str(&format!(
                    "compose k={k}: cut={edges:?} procs={} bn={:?} bw={:?} comps={:?}\n",
                    p.processors, p.bottleneck, p.bandwidth, p.components,
                ));
            }
            Err(e) => out.push_str(&format!("compose k={k}: ERR {e:?}\n")),
        }
        // The exact DP is O(n·K²): only at bounds that keep that small.
        if (tree.len() as u64) * k * k <= 1 << 22 {
            match min_tree_bandwidth_cut(tree, bound) {
                Ok(cut) => {
                    let edges: Vec<usize> = cut.iter().map(|e| e.index()).collect();
                    out.push_str(&format!(
                        "tree-bw k={k}: cut={edges:?} w={:?} comps={:?}\n",
                        tree.cut_weight(&cut).unwrap(),
                        tree.components(&cut).unwrap(),
                    ));
                }
                Err(e) => out.push_str(&format!("tree-bw k={k}: ERR {e:?}\n")),
            }
        }
    }
    for root in [0, tree.len() / 2] {
        for m in [0, 1, 2, 3] {
            match host_satellite_partition(tree, NodeId::new(root), m) {
                Ok(r) => {
                    let edges: Vec<usize> = r.cut.iter().map(|e| e.index()).collect();
                    out.push_str(&format!(
                        "host-sat root={root} m={m}: uplinks={edges:?} sats={} bn={:?}\n",
                        r.satellites, r.bottleneck,
                    ));
                }
                Err(e) => out.push_str(&format!("host-sat root={root} m={m}: ERR {e:?}\n")),
            }
        }
    }
    out
}

#[test]
fn chain_solvers_are_byte_identical_across_backings() {
    let mut rng = SmallRng::seed_from_u64(0x5107e);
    let spill = DiskBacking::new(std::env::temp_dir());
    for case in 0..32 {
        let n = rng.gen_range(1..200);
        let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..40)).collect();
        let edges: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(1..100)).collect();
        let max = *nodes.iter().max().unwrap();
        let total: u64 = nodes.iter().sum();
        let bounds = [
            max.saturating_sub(1).max(1), // often infeasible
            max,
            max + rng.gen_range(0..30),
            total, // trivially feasible
        ];
        let legacy = PathGraph::from_raw(&nodes, &edges).unwrap();
        let ram = flat_path(&RamBacking, &nodes, &edges);
        let disk = flat_path(&spill, &nodes, &edges);
        let want = chain_transcript(&legacy, &bounds);
        assert_eq!(
            chain_transcript(&ram, &bounds),
            want,
            "case {case}: RAM flat diverged (n={n})"
        );
        assert_eq!(
            chain_transcript(&disk, &bounds),
            want,
            "case {case}: disk flat diverged (n={n})"
        );
    }
}

#[test]
fn tree_solvers_are_byte_identical_across_backings() {
    let mut rng = SmallRng::seed_from_u64(0xb10b);
    let spill = DiskBacking::new(std::env::temp_dir());
    for case in 0..32 {
        let n = rng.gen_range(1..150);
        let nodes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..40)).collect();
        // Random attachment tree; shuffle edge insertion order away from
        // parent order by occasionally flipping the orientation.
        let edges: Vec<(usize, usize, u64)> = (1..n)
            .map(|v| {
                let parent = rng.gen_range(0..v);
                let w = rng.gen_range(1..100);
                if rng.gen_bool(0.5) {
                    (parent, v, w)
                } else {
                    (v, parent, w)
                }
            })
            .collect();
        let max = *nodes.iter().max().unwrap();
        let total: u64 = nodes.iter().sum();
        let bounds = [
            max.saturating_sub(1).max(1),
            max,
            max + rng.gen_range(0..40),
            total,
        ];
        let legacy = Tree::from_raw(&nodes, &edges).unwrap();
        let ram = flat_tree(&RamBacking, &nodes, &edges);
        let disk = flat_tree(&spill, &nodes, &edges);
        let want = tree_transcript(&legacy, &bounds);
        assert_eq!(
            tree_transcript(&ram, &bounds),
            want,
            "case {case}: RAM flat diverged (n={n})"
        );
        assert_eq!(
            tree_transcript(&disk, &bounds),
            want,
            "case {case}: disk flat diverged (n={n})"
        );
    }
}
