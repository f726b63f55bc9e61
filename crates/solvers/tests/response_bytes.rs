//! Pins the bytes of every objective's response.
//!
//! Each case is a request built from a seeded instance, dispatched
//! through the registry and rendered with `Response::value`'s `Display`,
//! which is the body both front ends emit. The cases cover, for every
//! registered objective: a seeded random instance, a bound loose enough
//! to cut nothing, a bound so tight that every edge is cut, equal
//! weights (ties), weights of up to 18 digits and a 20-digit bound, and
//! `approx`'s method strings. The rendered lines must equal
//! `tests/golden/responses.txt` byte for byte.
//!
//! The golden file is the registry's output; a change to any response
//! shape or number formatting shows up here first. After a deliberate
//! shape change, copy the new lines the failing assertion prints into
//! the golden file and review them in the diff.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp_graph::json::Value;
use tgp_solvers::{GraphKind, Registry};

const GOLDEN: &str = include_str!("golden/responses.txt");

/// One instance: node weights and, for a chain, edge weights, or for a
/// tree or process graph, weighted edges.
struct Instance {
    nodes: Vec<u64>,
    chain_edges: Vec<u64>,
    edges: Vec<(usize, usize, u64)>,
}

fn list(values: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

impl Instance {
    fn chain(nodes: Vec<u64>, edges: Vec<u64>) -> Self {
        Instance {
            nodes,
            chain_edges: edges,
            edges: Vec::new(),
        }
    }

    fn tree(nodes: Vec<u64>, edges: Vec<(usize, usize, u64)>) -> Self {
        Instance {
            nodes,
            chain_edges: Vec::new(),
            edges,
        }
    }

    fn graph_json(&self, kind: GraphKind) -> String {
        let nodes = list(self.nodes.iter().copied());
        match kind {
            GraphKind::Chain => format!(
                r#"{{"node_weights":{nodes},"edge_weights":{}}}"#,
                list(self.chain_edges.iter().copied())
            ),
            GraphKind::Tree | GraphKind::Process => {
                let edges: Vec<String> = self
                    .edges
                    .iter()
                    .map(|(a, b, w)| format!(r#"{{"a":{a},"b":{b},"weight":{w}}}"#))
                    .collect();
                format!(
                    r#"{{"node_weights":{nodes},"edges":[{}]}}"#,
                    edges.join(",")
                )
            }
        }
    }

    fn total(&self) -> u64 {
        self.nodes.iter().sum()
    }

    fn heaviest(&self) -> u64 {
        self.nodes.iter().copied().max().unwrap_or(0)
    }
}

fn random_chain(rng: &mut SmallRng, n: usize, node_max: u64, edge_max: u64) -> Instance {
    Instance::chain(
        (0..n).map(|_| rng.gen_range(1..=node_max)).collect(),
        (1..n).map(|_| rng.gen_range(0..=edge_max)).collect(),
    )
}

fn random_tree(rng: &mut SmallRng, n: usize, node_max: u64, edge_max: u64) -> Instance {
    Instance::tree(
        (0..n).map(|_| rng.gen_range(1..=node_max)).collect(),
        (1..n)
            .map(|i| (rng.gen_range(0..i), i, rng.gen_range(0..=edge_max)))
            .collect(),
    )
}

/// A random tree plus extra edges: a process graph with cycles.
fn random_process(rng: &mut SmallRng, n: usize, extra: usize) -> Instance {
    let mut graph = random_tree(rng, n, 9, 30);
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            graph.edges.push((a, b, rng.gen_range(1..=30)));
        }
    }
    graph
}

/// Chain cases: (label, instance, bound).
fn chain_cases() -> Vec<(String, Instance, u64)> {
    let mut rng = SmallRng::seed_from_u64(24);
    let mut cases = Vec::new();
    for seed in 0..3 {
        let chain = random_chain(&mut rng, 9 + 7 * seed, 20, 50);
        let bound = chain.heaviest() + rng.gen_range(0..=chain.heaviest());
        cases.push((format!("seeded-{seed}"), chain, bound));
    }
    let chain = random_chain(&mut rng, 12, 20, 50);
    let total = chain.total();
    cases.push(("no-cut".into(), chain, total));
    let chain = random_chain(&mut rng, 10, 9, 40);
    cases.push(("u64-max-bound".into(), chain, u64::MAX));
    cases.push((
        "every-edge".into(),
        Instance::chain(vec![5; 8], vec![3, 1, 4, 1, 5, 9, 2]),
        5,
    ));
    cases.push(("ties".into(), Instance::chain(vec![3; 11], vec![7; 10]), 9));
    let wide = Instance::chain(
        (0..9)
            .map(|_| rng.gen_range(1..=999_999_999_999_999))
            .collect(),
        (1..9)
            .map(|_| rng.gen_range(0..=999_999_999_999_999_999))
            .collect(),
    );
    let bound = wide.heaviest() * 2;
    cases.push(("wide".into(), wide, bound));
    cases.push(("single".into(), Instance::chain(vec![42], Vec::new()), 42));
    cases
}

/// Tree cases: (label, instance, bound).
fn tree_cases() -> Vec<(String, Instance, u64)> {
    let mut rng = SmallRng::seed_from_u64(2424);
    let mut cases = Vec::new();
    for seed in 0..3 {
        let tree = random_tree(&mut rng, 9 + 7 * seed, 20, 50);
        let bound = tree.heaviest() + rng.gen_range(0..=tree.heaviest());
        cases.push((format!("seeded-{seed}"), tree, bound));
    }
    let tree = random_tree(&mut rng, 12, 20, 50);
    let total = tree.total();
    cases.push(("no-cut".into(), tree, total));
    let star = Instance::tree(vec![5; 7], (1..7).map(|i| (0, i, 10 * i as u64)).collect());
    cases.push(("every-edge".into(), star, 5));
    let ties = Instance::tree(vec![2; 10], (1..10).map(|i| ((i - 1) / 2, i, 6)).collect());
    cases.push(("ties".into(), ties, 5));
    let wide = Instance::tree(
        (0..8)
            .map(|_| rng.gen_range(1..=999_999_999_999_999))
            .collect(),
        (1..8)
            .map(|i| (i - 1, i, rng.gen_range(0..=999_999_999_999_999_999)))
            .collect(),
    );
    let bound = wide.heaviest() * 2;
    cases.push(("wide".into(), wide, bound));
    cases.push(("single".into(), Instance::tree(vec![42], Vec::new()), 42));
    cases
}

/// The parameter fields a case's request carries beside its graph.
fn params_for(objective: &str, rng: &mut SmallRng, instance: &Instance, bound: u64) -> Vec<String> {
    let n = instance.nodes.len() as u64;
    match objective {
        "coc" => vec![
            r#""processors":1"#.into(),
            format!(r#""processors":{n},"algorithm":"bokhari""#),
            format!(
                r#""processors":{},"algorithm":"probe""#,
                rng.gen_range(1..=n)
            ),
        ],
        "bokhari" | "hansen-lih" => vec![
            r#""processors":1"#.into(),
            format!(r#""processors":{n}"#),
            format!(r#""processors":{}"#, rng.gen_range(1..=n)),
        ],
        "hetero" => vec![
            r#""speeds":[1]"#.into(),
            r#""speeds":[2,1]"#.into(),
            format!(r#""speeds":{}"#, list((0..n).map(|_| rng.gen_range(1..=4)))),
        ],
        "host-satellite" => vec![
            r#""satellites":1"#.into(),
            format!(r#""satellites":{},"root":{}"#, n.max(2) - 1, n - 1),
            format!(
                r#""satellites":{},"root":{}"#,
                rng.gen_range(1..=n),
                rng.gen_range(0..n)
            ),
        ],
        // The DP refuses n·K² past its work cap; such a case would
        // only pin the refusal.
        "tree-bandwidth" if n.saturating_mul(bound).saturating_mul(bound) > 1 << 32 => Vec::new(),
        _ => vec![format!(r#""bound":{bound}"#)],
    }
}

/// Every case's label and rendered response, one line each.
fn render_all() -> String {
    let registry = Registry::shared();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut out = String::new();
    for solver in registry.iter() {
        let name = solver.name();
        let cases = match solver.graph_kind() {
            GraphKind::Chain => chain_cases(),
            GraphKind::Tree => tree_cases(),
            GraphKind::Process => {
                let mut graph_rng = SmallRng::seed_from_u64(99);
                let mut cases: Vec<(String, Instance, u64)> = (0..6)
                    .map(|seed| {
                        let graph = random_process(&mut graph_rng, 6 + 3 * seed, seed + 1);
                        let bound = graph.heaviest() + graph_rng.gen_range(0..=graph.total() / 2);
                        (format!("seeded-{seed}"), graph, bound)
                    })
                    .collect();
                cases.extend(tree_cases());
                cases
            }
        };
        for (label, instance, bound) in cases {
            for (p, params) in params_for(name, &mut rng, &instance, bound)
                .into_iter()
                .enumerate()
            {
                let body = format!(
                    r#"{{"objective":"{name}",{params},"graph":{}}}"#,
                    instance.graph_json(solver.graph_kind())
                );
                let value = Value::parse(&body).expect("cases are JSON");
                let (_, dispatched, request) = registry
                    .dispatch(&value)
                    .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
                let rendered = match dispatched.run(&request) {
                    Ok(response) => response.value.to_string(),
                    Err(e) => format!("error {}: {e}", e.code()),
                };
                out.push_str(&format!("{name} {label}/{p}\t{rendered}\n"));
            }
        }
    }
    out
}

#[test]
fn every_response_matches_the_pinned_bytes() {
    let rendered = render_all();
    let mut expected = GOLDEN.lines();
    for (i, line) in rendered.lines().enumerate() {
        let want = expected
            .next()
            .unwrap_or_else(|| panic!("case {} is missing from the golden file: {line}", i + 1));
        assert_eq!(line, want, "case {} differs from the golden file", i + 1);
    }
    assert_eq!(expected.next(), None, "the golden file has extra cases");
}

#[test]
fn the_pin_covers_every_objective_and_edge_case() {
    let names = Registry::shared().names();
    for name in names {
        assert!(
            GOLDEN.lines().any(|l| l.starts_with(&format!("{name} "))),
            "{name} has no pinned response"
        );
    }
    // Empty cuts, cuts of every edge, and each of approx's methods.
    assert!(GOLDEN.contains(r#""cut":[]"#));
    assert!(GOLDEN.contains(r#""cut":[0,1,2,3,4,5,6]"#));
    for method in ["linear-identity", "linear-bfs", "spanning-tree"] {
        assert!(
            GOLDEN.contains(&format!(r#""method":"{method}""#)),
            "no case picks {method}"
        );
    }
}
