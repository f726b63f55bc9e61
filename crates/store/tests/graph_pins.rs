//! Pins of what the graph types answer: the exact `GraphError` (variant
//! and `Display` text) every constructor and both builders return, on
//! RAM and on disk, and the view methods' values on two small fixed
//! graphs. Every value is a literal, so the pins hold whichever way the
//! graph types are implemented.

use tgp_graph::json::{FromJson, Value};
use tgp_graph::{
    BuildError, FlatPath, FlatPathBuilder, FlatTree, FlatTreeBuilder, MemoryBacking, RamBacking,
};
use tgp_graph::{
    ChainView, CutSet, EdgeId, GraphError, NodeId, PathGraph, Segment, Tree, TreeEdge, TreeView,
    Weight,
};
use tgp_store::DiskBacking;

/// An endpoint past `u32::MAX`, which the flat arrays cannot store.
const BIG: usize = u32::MAX as usize + 7;

fn spill() -> DiskBacking {
    DiskBacking::new(std::env::temp_dir())
}

fn weights(raw: &[u64]) -> Vec<Weight> {
    raw.iter().copied().map(Weight::new).collect()
}

fn json_list(raw: &[u64]) -> String {
    let items: Vec<String> = raw.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn graph_error<T>(built: Result<T, BuildError>) -> GraphError {
    match built {
        Err(BuildError::Graph(e)) => e,
        Err(other) => panic!("expected a graph error, got {other}"),
        Ok(_) => panic!("expected a graph error, the graph was built"),
    }
}

fn build_path<B: MemoryBacking>(
    backing: &B,
    nodes: &[u64],
    edges: &[u64],
) -> Result<FlatPath<B>, BuildError> {
    let mut b = FlatPathBuilder::new(backing, nodes.len()).unwrap();
    b.extend_nodes(nodes).unwrap();
    b.extend_edges(edges).unwrap();
    b.finish()
}

fn build_tree<B: MemoryBacking + Clone>(
    backing: &B,
    nodes: &[u64],
    edges: &[(usize, usize, u64)],
) -> Result<FlatTree<B>, BuildError> {
    let mut b = FlatTreeBuilder::new(backing.clone(), nodes.len()).unwrap();
    for &w in nodes {
        b.push_node(w).unwrap();
    }
    for &(a, bb, w) in edges {
        b.push_edge(a, bb, w).unwrap();
    }
    b.finish()
}

type ChainCase = (&'static [u64], &'static [u64], GraphError, &'static str);

fn chain_cases() -> Vec<ChainCase> {
    vec![
        (
            &[],
            &[],
            GraphError::Empty,
            "graph must contain at least one node",
        ),
        (
            &[1, 2],
            &[1, 2],
            GraphError::WrongEdgeCount { nodes: 2, edges: 2 },
            "a path or tree on 2 node(s) needs exactly 1 edge(s), got 2",
        ),
        (
            &[1, 2, 3],
            &[1],
            GraphError::WrongEdgeCount { nodes: 3, edges: 1 },
            "a path or tree on 3 node(s) needs exactly 2 edge(s), got 1",
        ),
        // The edge count is checked before the weights.
        (
            &[u64::MAX - 1, 1],
            &[],
            GraphError::WrongEdgeCount { nodes: 2, edges: 0 },
            "a path or tree on 2 node(s) needs exactly 1 edge(s), got 0",
        ),
        (
            &[u64::MAX, 1],
            &[1],
            GraphError::WeightOverflow,
            "total graph weight overflows u64",
        ),
        (
            &[1, 1],
            &[u64::MAX - 2],
            GraphError::WeightOverflow,
            "total graph weight overflows u64",
        ),
    ]
}

#[test]
fn chain_errors_are_pinned_for_every_constructor_and_backing() {
    for (nodes, edges, want, text) in chain_cases() {
        let ctx = format!("nodes={nodes:?} edges={edges:?}");
        assert_eq!(want.to_string(), text, "{ctx}");
        let from_weights = PathGraph::from_weights(weights(nodes), weights(edges));
        assert_eq!(from_weights.unwrap_err(), want, "from_weights {ctx}");
        assert_eq!(
            PathGraph::from_raw(nodes, edges).unwrap_err(),
            want,
            "from_raw {ctx}"
        );
        let body = format!(
            r#"{{"node_weights":{},"edge_weights":{}}}"#,
            json_list(nodes),
            json_list(edges)
        );
        let json = PathGraph::from_json(&Value::parse(&body).unwrap()).unwrap_err();
        assert_eq!(json.to_string(), format!("PathGraph: {text}"), "{ctx}");
        let ram = graph_error(build_path(&RamBacking, nodes, edges));
        let disk = graph_error(build_path(&spill(), nodes, edges));
        for (name, got) in [("RAM builder", ram), ("disk builder", disk)] {
            assert_eq!(got.to_string(), text, "{name} {ctx}");
            assert_eq!(got, want, "{name} {ctx}");
        }
    }
}

type TreeCase = (
    &'static [u64],
    Vec<(usize, usize, u64)>,
    GraphError,
    &'static str,
);

/// Every class of invalid tree. Each edge list is parent-shaped (edge
/// `i`'s second endpoint is node `i + 1`), so `Tree::from_parents`
/// expresses it too.
fn tree_cases() -> Vec<TreeCase> {
    let v = NodeId::new;
    vec![
        (
            &[],
            vec![],
            GraphError::Empty,
            "graph must contain at least one node",
        ),
        (
            &[1, 2, 3],
            vec![(0, 1, 1)],
            GraphError::WrongEdgeCount { nodes: 3, edges: 1 },
            "a path or tree on 3 node(s) needs exactly 2 edge(s), got 1",
        ),
        (
            &[u64::MAX, 1],
            vec![(0, 1, 1)],
            GraphError::WeightOverflow,
            "total graph weight overflows u64",
        ),
        (
            &[1, 1],
            vec![(0, 1, u64::MAX - 2)],
            GraphError::WeightOverflow,
            "total graph weight overflows u64",
        ),
        (
            &[1, 2],
            vec![(5, 1, 1)],
            GraphError::NodeOutOfRange { node: v(5), len: 2 },
            "node v5 is out of range for a graph of 2 node(s)",
        ),
        (
            &[1, 2],
            vec![(BIG, 1, 1)],
            GraphError::NodeOutOfRange {
                node: v(BIG),
                len: 2,
            },
            "node v4294967302 is out of range for a graph of 2 node(s)",
        ),
        (
            &[1, 2],
            vec![(1, 1, 5)],
            GraphError::SelfLoop { node: v(1) },
            "self loop at node v1",
        ),
        (
            &[1, 2, 3],
            vec![(2, 1, 1), (1, 2, 2)],
            GraphError::DuplicateEdge { a: v(1), b: v(2) },
            "duplicate edge between v1 and v2",
        ),
        (
            &[1, 2, 3, 4],
            vec![(2, 1, 1), (3, 2, 1), (1, 3, 1)],
            GraphError::Cycle {
                edge: EdgeId::new(2),
            },
            "edge e2 closes a cycle",
        ),
    ]
}

/// Invalid trees whose edge lists are not parent-shaped.
fn free_tree_cases() -> Vec<TreeCase> {
    let v = NodeId::new;
    vec![
        (
            &[1, 2],
            vec![(0, 5, 1)],
            GraphError::NodeOutOfRange { node: v(5), len: 2 },
            "node v5 is out of range for a graph of 2 node(s)",
        ),
        (
            &[1, 2],
            vec![(0, BIG, 1)],
            GraphError::NodeOutOfRange {
                node: v(BIG),
                len: 2,
            },
            "node v4294967302 is out of range for a graph of 2 node(s)",
        ),
        (
            &[1, 2, 3],
            vec![(0, 1, 1), (1, 0, 2)],
            GraphError::DuplicateEdge { a: v(1), b: v(0) },
            "duplicate edge between v1 and v0",
        ),
        (
            &[1, 1, 1, 1],
            vec![(0, 1, 1), (0, 1, 2), (2, 3, 1)],
            GraphError::DuplicateEdge { a: v(0), b: v(1) },
            "duplicate edge between v0 and v1",
        ),
        (
            &[1, 2, 3, 4],
            vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)],
            GraphError::Cycle {
                edge: EdgeId::new(2),
            },
            "edge e2 closes a cycle",
        ),
        // The first bad edge decides, whatever follows it.
        (
            &[1, 2, 3, 4],
            vec![(0, 0, 1), (9, 2, 1), (2, 3, 1)],
            GraphError::SelfLoop { node: v(0) },
            "self loop at node v0",
        ),
    ]
}

#[test]
fn tree_errors_are_pinned_for_every_constructor_and_backing() {
    let parent_shaped = tree_cases().len();
    for (k, (nodes, edges, want, text)) in tree_cases()
        .into_iter()
        .chain(free_tree_cases())
        .enumerate()
    {
        let ctx = format!("nodes={nodes:?} edges={edges:?}");
        assert_eq!(want.to_string(), text, "{ctx}");
        let tree_edges: Vec<TreeEdge> = edges
            .iter()
            .map(|&(a, b, w)| TreeEdge::new(NodeId::new(a), NodeId::new(b), Weight::new(w)))
            .collect();
        let from_edges = Tree::from_edges(weights(nodes), tree_edges);
        assert_eq!(from_edges.unwrap_err(), want, "from_edges {ctx}");
        assert_eq!(
            Tree::from_raw(nodes, &edges).unwrap_err(),
            want,
            "from_raw {ctx}"
        );
        if k < parent_shaped {
            let parents: Vec<(NodeId, Weight)> = edges
                .iter()
                .enumerate()
                .map(|(i, &(p, child, w))| {
                    assert_eq!(child, i + 1, "case is parent-shaped");
                    (NodeId::new(p), Weight::new(w))
                })
                .collect();
            let from_parents = Tree::from_parents(weights(nodes), &parents);
            assert_eq!(from_parents.unwrap_err(), want, "from_parents {ctx}");
        }
        let edge_objects: Vec<String> = edges
            .iter()
            .map(|&(a, b, w)| format!(r#"{{"a":{a},"b":{b},"weight":{w}}}"#))
            .collect();
        let body = format!(
            r#"{{"node_weights":{},"edges":[{}]}}"#,
            json_list(nodes),
            edge_objects.join(",")
        );
        let json = Tree::from_json(&Value::parse(&body).unwrap()).unwrap_err();
        assert_eq!(json.to_string(), format!("Tree: {text}"), "{ctx}");
        let ram = graph_error(build_tree(&RamBacking, nodes, &edges));
        let disk = graph_error(build_tree(&spill(), nodes, &edges));
        for (name, got) in [("RAM builder", ram), ("disk builder", disk)] {
            assert_eq!(got.to_string(), text, "{name} {ctx}");
            assert_eq!(got, want, "{name} {ctx}");
        }
    }
}

/// The fixed chain `2 —1— 3 —2— 5 —3— 7 —4— 11`.
const CHAIN_NODES: [u64; 5] = [2, 3, 5, 7, 11];
const CHAIN_EDGES: [u64; 4] = [1, 2, 3, 4];

fn pin_chain<C: ChainView>(c: &C) {
    let w = Weight::new;
    assert_eq!((c.len(), c.edge_count(), c.is_empty()), (5, 4, false));
    for (i, &want) in CHAIN_NODES.iter().enumerate() {
        assert_eq!(c.node_weight(NodeId::new(i)), w(want));
    }
    for (i, &want) in CHAIN_EDGES.iter().enumerate() {
        assert_eq!(c.edge_weight(EdgeId::new(i)), w(want));
    }
    // Prefix sums of the node weights, so span(lo..=hi) = P[hi+1] - P[lo].
    let prefix = [0, 2, 5, 10, 17, 28];
    for lo in 0..5 {
        for hi in lo..5 {
            assert_eq!(c.span_weight(lo, hi), w(prefix[hi + 1] - prefix[lo]));
        }
    }
    assert_eq!(c.total_weight(), w(28));
    assert_eq!(c.max_node_weight(), w(11));

    let cut = CutSet::new(vec![EdgeId::new(1), EdgeId::new(3)]);
    assert_eq!(c.cut_weight(&cut), Ok(w(6)));
    assert_eq!(c.bottleneck(&cut), Ok(w(4)));
    let seg = |start, end, weight| Segment {
        start,
        end,
        weight: w(weight),
    };
    assert_eq!(
        c.segments(&cut),
        Ok(vec![seg(0, 1, 5), seg(2, 3, 12), seg(4, 4, 11)])
    );
    assert_eq!(c.is_feasible_cut(&cut, w(12)), Ok(true));
    assert_eq!(c.is_feasible_cut(&cut, w(11)), Ok(false));

    let none = CutSet::empty();
    assert_eq!(c.cut_weight(&none), Ok(Weight::ZERO));
    assert_eq!(c.bottleneck(&none), Ok(Weight::ZERO));
    assert_eq!(c.segments(&none), Ok(vec![seg(0, 4, 28)]));

    let outside = CutSet::new(vec![EdgeId::new(0), EdgeId::new(4)]);
    let err = GraphError::EdgeOutOfRange {
        edge: EdgeId::new(4),
        len: 4,
    };
    assert_eq!(c.cut_weight(&outside), Err(err.clone()));
    assert_eq!(c.bottleneck(&outside), Err(err.clone()));
    assert_eq!(c.segments(&outside), Err(err.clone()));
    assert_eq!(c.is_feasible_cut(&outside, w(100)), Err(err.clone()));
    assert_eq!(
        err.to_string(),
        "edge e4 is out of range for a graph of 4 edge(s)"
    );
}

#[test]
fn chain_view_values_are_pinned() {
    pin_chain(&PathGraph::from_raw(&CHAIN_NODES, &CHAIN_EDGES).unwrap());
    pin_chain(&build_path(&RamBacking, &CHAIN_NODES, &CHAIN_EDGES).unwrap());
    pin_chain(&build_path(&spill(), &CHAIN_NODES, &CHAIN_EDGES).unwrap());
}

/// The fixed caterpillar: spine 0-1-2-3, legs 4 and 5 on node 1, leg 6
/// on node 2.
const TREE_NODES: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];
const TREE_EDGES: [(usize, usize, u64); 6] = [
    (0, 1, 10),
    (1, 2, 20),
    (2, 3, 30),
    (1, 4, 40),
    (1, 5, 50),
    (2, 6, 60),
];

fn pin_tree<T: TreeView>(t: &T) {
    let w = Weight::new;
    assert_eq!((t.len(), t.edge_count(), t.is_empty()), (7, 6, false));
    for (i, &want) in TREE_NODES.iter().enumerate() {
        assert_eq!(t.node_weight(NodeId::new(i)), w(want));
    }
    for (i, &(a, b, weight)) in TREE_EDGES.iter().enumerate() {
        let e = EdgeId::new(i);
        assert_eq!(
            t.edge(e),
            TreeEdge::new(NodeId::new(a), NodeId::new(b), w(weight))
        );
        assert_eq!(t.edge_weight(e), w(weight));
    }
    assert_eq!(t.total_weight(), w(28));
    assert_eq!(t.max_node_weight(), w(7));

    // Cutting 1-2 and 1-4 leaves {0, 1, 5}, {2, 3, 6} and {4}.
    let cut = CutSet::new(vec![EdgeId::new(3), EdgeId::new(1)]);
    assert_eq!(t.cut_weight(&cut), Ok(w(60)));
    assert_eq!(t.bottleneck(&cut), Ok(w(40)));
    let comps = t.components(&cut).unwrap();
    assert_eq!(comps.count(), 3);
    let comp_of: Vec<usize> = (0..7).map(|v| comps.component_of(NodeId::new(v))).collect();
    assert_eq!(comp_of, [0, 0, 1, 1, 2, 0, 1]);
    assert_eq!(comps.weights(), [w(9), w(14), w(5)]);
    assert_eq!((comps.size(0), comps.size(1), comps.size(2)), (3, 3, 1));
    assert_eq!(comps.max_weight(), w(14));

    let none = CutSet::empty();
    assert_eq!(t.cut_weight(&none), Ok(Weight::ZERO));
    assert_eq!(t.bottleneck(&none), Ok(Weight::ZERO));
    assert_eq!(t.components(&none).unwrap().weights(), [w(28)]);

    let all: CutSet = (0..6).map(EdgeId::new).collect();
    assert_eq!(t.cut_weight(&all), Ok(w(210)));
    assert_eq!(t.bottleneck(&all), Ok(w(60)));
    let singletons = t.components(&all).unwrap();
    let comp_of: Vec<usize> = (0..7)
        .map(|v| singletons.component_of(NodeId::new(v)))
        .collect();
    assert_eq!(comp_of, [0, 1, 2, 3, 4, 5, 6]);

    let outside = CutSet::new(vec![EdgeId::new(6)]);
    let err = GraphError::EdgeOutOfRange {
        edge: EdgeId::new(6),
        len: 6,
    };
    assert_eq!(t.cut_weight(&outside), Err(err.clone()));
    assert_eq!(t.bottleneck(&outside), Err(err.clone()));
    assert_eq!(t.components(&outside), Err(err));
}

#[test]
fn tree_view_values_are_pinned() {
    pin_tree(&Tree::from_raw(&TREE_NODES, &TREE_EDGES).unwrap());
    pin_tree(&build_tree(&RamBacking, &TREE_NODES, &TREE_EDGES).unwrap());
    pin_tree(&build_tree(&spill(), &TREE_NODES, &TREE_EDGES).unwrap());
}
