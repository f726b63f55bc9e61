//! Seeded differential test of the registry's two parsers.
//!
//! Every body the streaming [`ingest_flat`] accepts must build the same
//! request as [`Registry::dispatch`] over its JSON tree: the same
//! canonical key and cost estimate, the same response bytes (or the same
//! error, code and message), and for `lexicographic` the same warm
//! answer on every window — ones that contain the optimal bottleneck
//! `B*` and ones that miss it. Instances are random chains and trees
//! with zero weights, heavy ties, wide (7- to 18-digit) weights,
//! infeasible bounds and 19- and 20-digit bounds up to `u64::MAX`, for
//! each of the seven streamed objectives, with the objective named first
//! and last, on RAM and disk backing. Bodies are compact, spaced, or
//! padded with tabs, CRs and LFs between elements and inside edge
//! objects, and some arrays run past the scanner's blocks of elements.
//! Each instance is also sent with a space after the body's opening
//! brace and newline-indented; those bodies must stream too.
//!
//! Each body is then bent into malformed and edge-case variants:
//! truncated, a separator flipped, a number written as `-0`, with
//! leading zeros, with a fraction or exponent, or in 20 digits, and a
//! key spelled with an escape. On every variant `ingest_flat` must
//! decline or build what the JSON-tree parser builds, byte for byte,
//! and never panic. Variants draw from their own generator, so the
//! bodies and windows above are the same for every seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tgp_graph::json::Value;
use tgp_solvers::{
    ingest_flat, Budget, GraphKind, IngestBacking, Registry, Request, Response, SolveError, Solver,
};
use tgp_store::BackingKind;

const STREAMED: [&str; 7] = [
    "bandwidth",
    "lexicographic",
    "nicol",
    "bottleneck",
    "procmin",
    "compose",
    "tree-bandwidth",
];
const ROUNDS: u64 = 60;

/// Node or edge weights: small with zeros, heavy ties, or wide. Wide
/// weights have 7 to 9 or 15 to 17 digits, so their digit runs end on
/// either side of an eight-byte word, and stay below 10^15 in a large
/// graph, so that no graph's total overflows.
fn weights(rng: &mut SmallRng, len: usize) -> Vec<u64> {
    let style = rng.gen_range(0..4);
    let widest = if len > 100 { 15 } else { 17 };
    (0..len)
        .map(|_| match style {
            0 => rng.gen_range(0..=9),
            1 => [0, 4, 4, 4, 7][rng.gen_range(0..5)],
            2 => rng.gen_range(0..=1_000_000),
            _ => {
                let digits = [7, 8, 9, 15, 16, 17][rng.gen_range(0..6)].min(widest);
                rng.gen_range(10u64.pow(digits - 1)..10u64.pow(digits))
            }
        })
        .collect()
}

/// How a body spaces its tokens: the separator between elements and
/// the one between a key and its value.
#[derive(Clone, Copy)]
struct Layout {
    comma: &'static str,
    colon: &'static str,
}

const LAYOUTS: [Layout; 3] = [
    Layout {
        comma: ",",
        colon: ":",
    },
    Layout {
        comma: ", ",
        colon: ": ",
    },
    Layout {
        comma: "\t,\r\n ",
        colon: " :\t",
    },
];

fn list(values: &[u64], layout: Layout) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(layout.comma))
}

/// A random graph of `kind` as JSON, with its node weights. Tree edges
/// come in shuffled order, with flipped endpoints and shuffled fields.
/// One graph in six has 510 to 1 030 nodes, so its arrays cross the
/// streaming scanner's block boundaries.
fn graph(rng: &mut SmallRng, kind: GraphKind, layout: Layout) -> (String, Vec<u64>) {
    let n = if rng.gen_range(0..6) == 0 {
        rng.gen_range(510..=1_030)
    } else {
        rng.gen_range(1..=40)
    };
    let nodes = weights(rng, n);
    let edge_w = weights(rng, n - 1);
    let Layout { comma, colon } = layout;
    let json = match kind {
        GraphKind::Chain => format!(
            r#"{{"node_weights"{colon}{}{comma}"edge_weights"{colon}{}}}"#,
            list(&nodes, layout),
            list(&edge_w, layout)
        ),
        _ => {
            let mut edges: Vec<String> = (1..n)
                .map(|child| {
                    let parent = rng.gen_range(0..child);
                    let (a, b) = if rng.gen_bool(0.5) {
                        (parent, child)
                    } else {
                        (child, parent)
                    };
                    let w = edge_w[child - 1];
                    if rng.gen_bool(0.5) {
                        format!(r#"{{"a"{colon}{a}{comma}"b"{colon}{b}{comma}"weight"{colon}{w}}}"#)
                    } else {
                        format!(r#"{{"weight"{colon}{w}{comma}"b"{colon}{b}{comma}"a"{colon}{a}}}"#)
                    }
                })
                .collect();
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            format!(
                r#"{{"edges"{colon}[{}]{comma}"node_weights"{colon}{}}}"#,
                edges.join(comma),
                list(&nodes, layout)
            )
        }
    };
    (json, nodes)
}

/// A load bound: below the heaviest node (infeasible), exactly at it,
/// the whole graph's weight, in between, or a 19- or 20-digit bound up
/// to `u64::MAX`.
fn bound(rng: &mut SmallRng, nodes: &[u64]) -> u64 {
    let heaviest = *nodes.iter().max().expect("non-empty");
    let total: u64 = nodes.iter().sum();
    match rng.gen_range(0..7) {
        0 => heaviest.saturating_sub(1),
        1 => heaviest,
        2 => total,
        3 => 9_999_999_999_999_999_999,
        4 => 10_000_000_000_000_000_000,
        5 => u64::MAX,
        _ => rng.gen_range(heaviest..=total),
    }
}

/// The rule `ingest_flat` streams by: a chain or tree objective whose
/// only parameter is `bound`.
fn streams(solver: &dyn Solver) -> bool {
    solver.graph_kind() != GraphKind::Process && matches!(solver.params(), [p] if p.name == "bound")
}

/// `tree-bandwidth`'s DP takes `O(n·K²)`: a bound that would make
/// `n·K²` exceed 2^20 is cut down to keep it there, except the 19- and
/// 20-digit ones, which its cost cap refuses; both parsers must refuse
/// them alike.
fn tree_bandwidth_bound(nodes: usize, bound: u64) -> u64 {
    let n = nodes as u64;
    if bound < 10u64.pow(18) && n.saturating_mul(bound).saturating_mul(bound) > 1 << 20 {
        ((1u64 << 20) / n).isqrt()
    } else {
        bound
    }
}

/// What a client would see: the serialized response, or the error.
fn outcome(request: &Request, result: Result<Response, SolveError>) -> Result<String, String> {
    result
        .map(|response| request.objective.to_json(&response).to_string())
        .map_err(|e| format!("{}: {e}", e.code()))
}

/// Warm windows around `b`: containing it, and missing it on each side.
fn windows(rng: &mut SmallRng, b: u64) -> Vec<(u64, u64)> {
    let d = rng.gen_range(0..=50);
    let mut all = vec![
        (b, b),
        (b.saturating_sub(d), b.saturating_add(d)),
        (0, u64::MAX),
        (b + 1, b.saturating_add(d + 1)),
    ];
    if b > 0 {
        all.push((b.saturating_sub(d + 1), b - 1));
    }
    all
}

/// The byte ranges of `body`'s numbers (every digit run: no key or
/// objective name holds a digit).
fn numbers(body: &str) -> Vec<(usize, usize)> {
    let bytes = body.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Malformed and edge-case variants of a generated body: a truncation,
/// a flipped separator, `-0` or leading zeros, a fraction or exponent,
/// a 20-digit value, and an escaped key.
fn variants(rng: &mut SmallRng, body: &str) -> Vec<String> {
    let pick =
        |rng: &mut SmallRng, options: &[&'static str]| options[rng.gen_range(0..options.len())];
    let mut out = vec![body[..rng.gen_range(1..body.len())].to_string()];
    let separators: Vec<usize> = body.match_indices([',', ':']).map(|(i, _)| i).collect();
    let at = separators[rng.gen_range(0..separators.len())];
    let flipped = if &body[at..=at] == "," { ":" } else { "," };
    out.push(format!("{}{flipped}{}", &body[..at], &body[at + 1..]));
    let runs = numbers(body);
    let replace_number = |rng: &mut SmallRng, with: &dyn Fn(&str) -> String| {
        let (start, end) = runs[rng.gen_range(0..runs.len())];
        format!(
            "{}{}{}",
            &body[..start],
            with(&body[start..end]),
            &body[end..]
        )
    };
    let zero = pick(rng, &["-0", "00", "0"]);
    out.push(replace_number(rng, &|n| match zero {
        "0" => format!("0{n}"),
        other => other.to_string(),
    }));
    let tail = pick(rng, &[".0", ".5", "e0", "E+1", "e-1"]);
    out.push(replace_number(rng, &|n| format!("{n}{tail}")));
    let wide = pick(rng, &["18446744073709551616", "99999999999999999999"]);
    out.push(replace_number(rng, &|_| wide.to_string()));
    let keys: Vec<&str> = [
        "objective",
        "bound",
        "graph",
        "node_weights",
        "edge_weights",
        "edges",
        "a",
        "b",
        "weight",
    ]
    .into_iter()
    .filter(|key| body.contains(&format!("\"{key}\"")))
    .collect();
    let key = keys[rng.gen_range(0..keys.len())];
    let escaped = format!("\\u{:04x}{}", key.as_bytes()[0], &key[1..]);
    out.push(body.replacen(&format!("\"{key}\""), &format!("\"{escaped}\""), 1));
    out
}

/// `ingest_flat` on a variant body: a decline, or the JSON-tree
/// parser's request, byte for byte.
fn check_variant(body: &str, backings: &[(&IngestBacking, BackingKind)]) {
    for &(backing, _) in backings {
        let Some(streamed) = ingest_flat(body.as_bytes(), backing, &Budget::unlimited())
            .expect("no budget to exceed")
        else {
            continue;
        };
        let value =
            Value::parse(body).unwrap_or_else(|e| panic!("streamed bad JSON ({e}): {body}"));
        let (_, _, tree) = Registry::shared()
            .dispatch(&value)
            .unwrap_or_else(|e| panic!("streamed a refused request ({e}): {body}"));
        assert_eq!(streamed.canonical_key(), tree.canonical_key(), "{body}");
        assert_eq!(
            outcome(&streamed, streamed.run_budgeted(&Budget::unlimited())),
            outcome(&tree, tree.run_budgeted(&Budget::unlimited())),
            "{body}"
        );
    }
}

#[test]
fn streamed_and_json_tree_requests_agree() {
    let registry = Registry::shared();
    let disk = IngestBacking::disk(std::env::temp_dir());
    let backings = [
        (&IngestBacking::Ram, BackingKind::Ram),
        (&disk, BackingKind::Disk),
    ];
    assert_eq!(
        registry.iter().filter(|s| streams(*s)).count(),
        STREAMED.len(),
        "every objective the rule admits is tested"
    );
    // Cold solves that failed, and that succeeded.
    let mut solves = [0usize; 2];
    for (i, name) in STREAMED.into_iter().enumerate() {
        let (_, solver) = registry.get(name).expect("registered");
        assert!(streams(solver), "{name}");
        for round in 0..ROUNDS {
            let mut rng = SmallRng::seed_from_u64((i as u64) << 32 | round);
            let layout = LAYOUTS[rng.gen_range(0..LAYOUTS.len())];
            let (graph, nodes) = graph(&mut rng, solver.graph_kind(), layout);
            let mut bound = bound(&mut rng, &nodes);
            if name == "tree-bandwidth" {
                bound = tree_bandwidth_bound(nodes.len(), bound);
            }
            let Layout { comma, colon } = layout;
            let bodies = [
                format!(
                    r#"{{"objective"{colon}"{name}"{comma}"bound"{colon}{bound}{comma}"graph"{colon}{graph}}}"#
                ),
                format!(
                    r#"{{"bound"{colon}{bound}{comma}"graph"{colon}{graph}{comma}"objective"{colon}"{name}"}}"#
                ),
                format!(
                    r#"{{ "objective"{colon}"{name}"{comma}"bound"{colon}{bound}{comma}"graph"{colon}{graph}}}"#
                ),
                format!(
                    "{{\n  \"bound\": {bound},\n  \"graph\": {graph},\n  \"objective\": \"{name}\"\n}}\n"
                ),
            ];
            let mut bent = SmallRng::seed_from_u64(!((i as u64) << 32 | round));
            for variant in bodies.iter().flat_map(|body| variants(&mut bent, body)) {
                check_variant(&variant, &backings);
            }
            for body in &bodies {
                let value = Value::parse(body).expect("valid JSON");
                let tree = match registry.dispatch(&value) {
                    Ok((_, _, tree)) => tree,
                    // Only tree-bandwidth's cost cap refuses a generated
                    // body; the streaming parser leaves the error to the
                    // JSON-tree parser.
                    Err(e) => {
                        assert_eq!((name, e.code()), ("tree-bandwidth", "too_expensive"));
                        for (backing, _) in backings {
                            let streamed =
                                ingest_flat(body.as_bytes(), backing, &Budget::unlimited());
                            assert!(streamed.expect("no budget").is_none(), "{body}");
                        }
                        continue;
                    }
                };
                let cold = outcome(&tree, tree.run_budgeted(&Budget::unlimited()));
                solves[usize::from(cold.is_ok())] += 1;
                for (backing, kind) in backings {
                    let streamed = ingest_flat(body.as_bytes(), backing, &Budget::unlimited())
                        .expect("no budget to exceed")
                        .unwrap_or_else(|| panic!("declined: {body}"));
                    assert_eq!(streamed.objective.name(), name);
                    assert_eq!(streamed.graph.backing_kind(), kind);
                    assert_eq!(streamed.canonical_key(), tree.canonical_key(), "{body}");
                    assert_eq!(streamed.canonical_key_len(), tree.canonical_key().len());
                    assert_eq!(streamed.cost_estimate(), tree.cost_estimate(), "{body}");
                    let got = outcome(&streamed, streamed.run_budgeted(&Budget::unlimited()));
                    assert_eq!(got, cold, "{kind:?}: {body}");
                    let (Ok(rendered), "lexicographic") = (&cold, name) else {
                        continue;
                    };
                    let b = Value::parse(rendered).expect("JSON")["bottleneck"]
                        .as_u64()
                        .expect("a bottleneck");
                    for (lo, hi) in windows(&mut rng, b) {
                        let warm =
                            |r: &Request| solver.run_warm(r, lo, hi).map(|res| outcome(r, res));
                        let want = warm(&tree);
                        assert_eq!(warm(&streamed), want, "[{lo}, {hi}] {kind:?}: {body}");
                        if lo <= b && b <= hi {
                            assert_eq!(want, Some(cold.clone()), "[{lo}, {hi}] holds B* {b}");
                        } else {
                            assert_eq!(want, None, "[{lo}, {hi}] misses B* {b}");
                        }
                    }
                }
            }
        }
    }
    assert!(solves[0] > 0 && solves[1] > 0, "{solves:?}");
}
