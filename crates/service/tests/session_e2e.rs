//! End-to-end and property tests of the stateful session surface:
//! graphs registered once, mutated through PATCH edit batches, and
//! re-partitioned in place. The contract under test is byte-identity —
//! a session re-solve must return exactly the bytes a stateless
//! `/v1/partition` of the same
//! edited graph returns. Every test keeps a client-side mirror of the
//! resident graph and checks the session answer against a scratch
//! solve of the mirror after every batch.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tgp_graph::json::Value;
use tgp_service::api::{self, ApiResponse};
use tgp_service::http::Request;
use tgp_service::{AppState, CacheConfig, Server, ServerConfig};
use tgp_session::SessionStore;

/// The loop counts the HTTP tests run under: the single-loop runtime
/// and the sharded two-loop runtime (sessions are global state, so
/// byte-identity must hold across loops too).
const LOOPS: [usize; 2] = [1, 2];

fn start(loops: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        loops,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// One complete exchange on a fresh connection; returns the status and
/// the body.
fn roundtrip(server: &Server, method: &str, path: &str, body: &str) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    let text = String::from_utf8_lossy(&reply);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let (_, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (status, body.to_string())
}

/// A session-partition POST that also captures the `x-tgp-response`
/// header, so delta tests can assert which body shape was returned.
fn roundtrip_response_mode(
    server: &Server,
    path: &str,
    body: &str,
) -> (u16, Option<String>, String) {
    let request = format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    let text = String::from_utf8_lossy(&reply);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let mode = head.lines().find_map(|l| {
        l.to_ascii_lowercase()
            .strip_prefix("x-tgp-response:")
            .map(str::trim)
            .map(String::from)
    });
    (status, mode, body.to_string())
}

/// Client-side delta application: substitute each changed field into the
/// previous full body (preserving the original field order) and
/// re-render. The result must match the server's full body exactly.
fn apply_delta(previous_full: &str, delta_body: &str) -> String {
    let delta = Value::parse(delta_body).expect("delta body is JSON");
    let Value::Object(changed) = delta["changed"].clone() else {
        panic!("delta body lacks a changed object: {delta_body}");
    };
    let mut prev = Value::parse(previous_full).expect("previous full body is JSON");
    let Value::Object(entries) = &mut prev else {
        panic!("previous full body is not an object: {previous_full}");
    };
    for (k, v) in changed {
        match entries.iter_mut().find(|(name, _)| *name == k) {
            Some((_, slot)) => *slot = v,
            None => entries.push((k, v)),
        }
    }
    format!("{prev}\n")
}

/// The client's mirror of one resident graph: what the session *should*
/// contain after every acked batch, rendered for scratch verification.
enum Mirror {
    Chain {
        node_weights: Vec<u64>,
        edge_weights: Vec<u64>,
    },
    Tree {
        node_weights: Vec<u64>,
        edges: Vec<(usize, usize, u64)>,
    },
}

impl Mirror {
    fn chain(node_weights: Vec<u64>, edge_weights: Vec<u64>) -> Mirror {
        assert_eq!(node_weights.len(), edge_weights.len() + 1);
        Mirror::Chain {
            node_weights,
            edge_weights,
        }
    }

    /// A deterministic caterpillar: node `i` hangs off `i - 1 - (i % 3)`.
    fn tree(node_weights: Vec<u64>, edge_weights: Vec<u64>) -> Mirror {
        assert_eq!(node_weights.len(), edge_weights.len() + 1);
        let edges = edge_weights
            .iter()
            .enumerate()
            .map(|(j, &w)| {
                let i = j + 1;
                (i - 1 - (i % 3).min(i - 1), i, w)
            })
            .collect();
        Mirror::Tree {
            node_weights,
            edges,
        }
    }

    fn objective(&self) -> &'static str {
        match self {
            Mirror::Chain { .. } => "lexicographic",
            Mirror::Tree { .. } => "bottleneck",
        }
    }

    fn node_count(&self) -> usize {
        match self {
            Mirror::Chain { node_weights, .. } | Mirror::Tree { node_weights, .. } => {
                node_weights.len()
            }
        }
    }

    fn edge_count(&self) -> usize {
        match self {
            Mirror::Chain { edge_weights, .. } => edge_weights.len(),
            Mirror::Tree { edges, .. } => edges.len(),
        }
    }

    /// Whether `remove_leaf` is currently legal: the last node must be
    /// a leaf and the graph must keep at least two nodes.
    fn can_remove_leaf(&self) -> bool {
        if self.node_count() <= 2 {
            return false;
        }
        match self {
            Mirror::Chain { .. } => true,
            Mirror::Tree {
                node_weights,
                edges,
            } => {
                let last = node_weights.len() - 1;
                edges
                    .iter()
                    .filter(|&&(a, b, _)| a == last || b == last)
                    .count()
                    == 1
            }
        }
    }

    fn graph_json(&self) -> String {
        fn join(v: &[u64]) -> String {
            v.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        }
        match self {
            Mirror::Chain {
                node_weights,
                edge_weights,
            } => format!(
                r#"{{"node_weights":[{}],"edge_weights":[{}]}}"#,
                join(node_weights),
                join(edge_weights)
            ),
            Mirror::Tree {
                node_weights,
                edges,
            } => {
                let rendered: Vec<String> = edges
                    .iter()
                    .map(|(a, b, w)| format!(r#"{{"a":{a},"b":{b},"weight":{w}}}"#))
                    .collect();
                format!(
                    r#"{{"node_weights":[{}],"edges":[{}]}}"#,
                    join(node_weights),
                    rendered.join(",")
                )
            }
        }
    }

    /// Turns one raw `(op, index, weight)` sample into a legal edit,
    /// applies it to the mirror, and returns its wire form. Samples
    /// that would be illegal in the current shape (removing a non-leaf,
    /// shrinking below two nodes, edge edits on an edgeless chain, a
    /// remove after an add in the same batch) are downgraded to
    /// vertex-weight edits so every generated batch is accepted by the
    /// server. `added_in_batch` tracks the add-then-remove restriction.
    fn apply(&mut self, op: u8, raw: usize, weight: u64, added_in_batch: &mut bool) -> String {
        let op = match op % 4 {
            1 if self.edge_count() == 0 => 0,
            3 if !self.can_remove_leaf() || *added_in_batch => 0,
            legal => legal,
        };
        if op == 2 {
            *added_in_batch = true;
        }
        match (op, &mut *self) {
            (0, Mirror::Chain { node_weights, .. }) | (0, Mirror::Tree { node_weights, .. }) => {
                let index = raw % node_weights.len();
                node_weights[index] = weight;
                format!(r#"{{"op":"vertex_weight","index":{index},"weight":{weight}}}"#)
            }
            (1, Mirror::Chain { edge_weights, .. }) => {
                let index = raw % edge_weights.len();
                edge_weights[index] = weight;
                format!(r#"{{"op":"edge_weight","index":{index},"weight":{weight}}}"#)
            }
            (1, Mirror::Tree { edges, .. }) => {
                let index = raw % edges.len();
                edges[index].2 = weight;
                format!(r#"{{"op":"edge_weight","index":{index},"weight":{weight}}}"#)
            }
            (
                2,
                Mirror::Chain {
                    node_weights,
                    edge_weights,
                },
            ) => {
                let edge = raw as u64 % 15 + 1;
                node_weights.push(weight);
                edge_weights.push(edge);
                format!(r#"{{"op":"add_leaf","node_weight":{weight},"edge_weight":{edge}}}"#)
            }
            (
                2,
                Mirror::Tree {
                    node_weights,
                    edges,
                },
            ) => {
                let attach = raw % node_weights.len();
                let edge = raw as u64 % 15 + 1;
                let new = node_weights.len();
                node_weights.push(weight);
                edges.push((attach, new, edge));
                format!(
                    r#"{{"op":"add_leaf","attach":{attach},"node_weight":{weight},"edge_weight":{edge}}}"#
                )
            }
            (
                3,
                Mirror::Chain {
                    node_weights,
                    edge_weights,
                },
            ) => {
                node_weights.pop();
                edge_weights.pop();
                r#"{"op":"remove_leaf"}"#.to_string()
            }
            (
                3,
                Mirror::Tree {
                    node_weights,
                    edges,
                },
            ) => {
                let last = node_weights.len() - 1;
                node_weights.pop();
                edges.retain(|&(a, b, _)| a != last && b != last);
                r#"{"op":"remove_leaf"}"#.to_string()
            }
            _ => unreachable!("op is reduced mod 4"),
        }
    }
}

/// Vertex weights stay below 10 and `add_leaf` weights below 10, so a
/// fixed bound of 16 keeps every generated instance feasible for both
/// objectives — the session answer and the scratch answer are always
/// 200s being compared, never error bodies.
const BOUND: u64 = 16;

/// xorshift64* — a tiny deterministic generator for the HTTP tests.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }
}

/// Registers the mirror as a resident graph and returns `(id, version)`.
fn register(server: &Server, mirror: &Mirror) -> (String, u64) {
    let (status, body) = roundtrip(
        server,
        "POST",
        "/v1/graphs",
        &format!(r#"{{"graph":{}}}"#, mirror.graph_json()),
    );
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    (
        v["id"].as_str().unwrap().to_string(),
        v["version"].as_u64().unwrap(),
    )
}

/// One PATCH + session solve + scratch solve round.
fn patch_and_compare(
    server: &Server,
    id: &str,
    version: &mut u64,
    mirror: &mut Mirror,
    edits: &[String],
) {
    let patch = format!(r#"{{"version":{version},"edits":[{}]}}"#, edits.join(","));
    let (status, body) = roundtrip(server, "PATCH", &format!("/v1/graphs/{id}"), &patch);
    assert_eq!(status, 200, "patch {patch}: {body}");
    *version = Value::parse(&body).unwrap()["version"].as_u64().unwrap();

    let solve = format!(
        r#"{{"objective":"{}","bound":{BOUND}}}"#,
        mirror.objective()
    );
    let (status, session_body) = roundtrip(
        server,
        "POST",
        &format!("/v1/graphs/{id}/partition"),
        &solve,
    );
    assert_eq!(status, 200, "{session_body}");

    let scratch = format!(
        r#"{{"objective":"{}","bound":{BOUND},"graph":{}}}"#,
        mirror.objective(),
        mirror.graph_json()
    );
    let (status, scratch_body) = roundtrip(server, "POST", "/v1/partition", &scratch);
    assert_eq!(status, 200, "{scratch_body}");
    assert_eq!(
        session_body,
        scratch_body,
        "session vs scratch solve diverged after {} edits at version {version}",
        edits.len(),
    );
}

/// `"response": "delta"` answers with only the fields that changed
/// since the previous solve, and substituting them into the previous
/// full body reproduces the next full response byte for byte. The first
/// delta request (no baseline yet) falls back to the full body and says
/// so in `x-tgp-response`.
#[test]
fn delta_responses_reconstruct_to_the_full_body() {
    for loops in LOOPS {
        let mut server = start(loops);
        let mut rng = Rng(0xdeca_0007);
        let mut mirror = Mirror::chain(
            (0..24).map(|_| rng.next() % 9 + 1).collect(),
            (0..23).map(|_| rng.next() % 15 + 1).collect(),
        );
        let (id, mut version) = register(&server, &mirror);
        let path = format!("/v1/graphs/{id}/partition");
        let delta_solve = format!(
            r#"{{"objective":"{}","bound":{BOUND},"response":"delta"}}"#,
            mirror.objective()
        );

        // No baseline yet: the server answers full and labels it so.
        let (status, mode, mut full) = roundtrip_response_mode(&server, &path, &delta_solve);
        assert_eq!(status, 200, "{full}");
        assert_eq!(
            mode.as_deref(),
            Some("full"),
            "first delta request has no baseline (loops={loops})"
        );

        for round in 0..6 {
            // Mutate the graph so consecutive solves can differ; ops
            // cover weight edits plus leaf adds/removes.
            let mut added = false;
            let edits: Vec<String> = (0..3)
                .map(|_| {
                    mirror.apply(
                        rng.next() as u8,
                        rng.next() as usize,
                        rng.next() % 9 + 1,
                        &mut added,
                    )
                })
                .collect();
            let patch = format!(r#"{{"version":{version},"edits":[{}]}}"#, edits.join(","));
            let (status, body) = roundtrip(&server, "PATCH", &format!("/v1/graphs/{id}"), &patch);
            assert_eq!(status, 200, "{body}");
            version = Value::parse(&body).unwrap()["version"].as_u64().unwrap();

            let (status, mode, delta) = roundtrip_response_mode(&server, &path, &delta_solve);
            assert_eq!(status, 200, "{delta}");
            assert_eq!(mode.as_deref(), Some("delta"), "round {round}: {delta}");
            let reconstructed = apply_delta(&full, &delta);

            // The reconstruction must match a scratch solve of the
            // mirrored graph byte for byte (scratch and session full
            // bodies are already pinned identical).
            let scratch = format!(
                r#"{{"objective":"{}","bound":{BOUND},"graph":{}}}"#,
                mirror.objective(),
                mirror.graph_json()
            );
            let (status, scratch_body) = roundtrip(&server, "POST", "/v1/partition", &scratch);
            assert_eq!(status, 200, "{scratch_body}");
            assert_eq!(
                reconstructed, scratch_body,
                "round {round} (loops={loops}): delta reconstruction diverged\ndelta: {delta}"
            );
            full = reconstructed;
        }

        // An explicit "response":"full" and an absent field both answer
        // the full body; only the former carries the header.
        let full_solve = format!(
            r#"{{"objective":"{}","bound":{BOUND},"response":"full"}}"#,
            mirror.objective()
        );
        let (status, mode, explicit) = roundtrip_response_mode(&server, &path, &full_solve);
        assert_eq!(status, 200, "{explicit}");
        assert_eq!(mode.as_deref(), Some("full"));
        let plain_solve = format!(
            r#"{{"objective":"{}","bound":{BOUND}}}"#,
            mirror.objective()
        );
        let (status, mode, plain) = roundtrip_response_mode(&server, &path, &plain_solve);
        assert_eq!(status, 200, "{plain}");
        assert_eq!(
            mode, None,
            "no \"response\" field, no header (loops={loops})"
        );
        assert_eq!(explicit, plain);

        // Deleting the session also drops the delta baseline: a fresh
        // registration of the same graph starts from "full" again.
        let (status, body) = roundtrip(&server, "DELETE", &format!("/v1/graphs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let (id, _) = register(&server, &mirror);
        let (status, mode, body) =
            roundtrip_response_mode(&server, &format!("/v1/graphs/{id}/partition"), &delta_solve);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            mode.as_deref(),
            Some("full"),
            "baseline must not survive session deletion (loops={loops})"
        );
        server.shutdown();
    }
}

#[test]
fn chain_edge_edits_stay_byte_identical() {
    for loops in LOOPS {
        let mut server = start(loops);
        let mut rng = Rng(0x5eed_0001);
        let mut mirror = Mirror::chain(
            (0..32).map(|_| rng.next() % 9 + 1).collect(),
            (0..31).map(|_| rng.next() % 15 + 1).collect(),
        );
        let (id, mut version) = register(&server, &mirror);

        for _ in 0..8 {
            let mut added = false;
            let edits: Vec<String> = (0..4)
                .map(|_| mirror.apply(1, rng.next() as usize, rng.next() % 15 + 1, &mut added))
                .collect();
            patch_and_compare(&server, &id, &mut version, &mut mirror, &edits);
        }
        server.shutdown();
    }
}

#[test]
fn random_edit_batches_match_scratch_solves_over_http() {
    for loops in LOOPS {
        let mut server = start(loops);
        for (seed, tree) in [(0xaaaa_0001u64, false), (0xbbbb_0002, true)] {
            let mut rng = Rng(seed);
            let node_weights: Vec<u64> = (0..20).map(|_| rng.next() % 9 + 1).collect();
            let edge_weights: Vec<u64> = (0..19).map(|_| rng.next() % 15 + 1).collect();
            let mut mirror = if tree {
                Mirror::tree(node_weights, edge_weights)
            } else {
                Mirror::chain(node_weights, edge_weights)
            };
            let (id, mut version) = register(&server, &mirror);

            for _ in 0..10 {
                let batch = rng.next() as usize % 5 + 1;
                let mut added = false;
                let edits: Vec<String> = (0..batch)
                    .map(|_| {
                        mirror.apply(
                            rng.next() as u8,
                            rng.next() as usize,
                            rng.next() % 9 + 1,
                            &mut added,
                        )
                    })
                    .collect();
                patch_and_compare(&server, &id, &mut version, &mut mirror, &edits);
            }

            let (status, body) = roundtrip(&server, "DELETE", &format!("/v1/graphs/{id}"), "");
            assert_eq!(status, 200, "{body}");
        }
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// In-process property test: the same byte-identity contract, driven
// straight through the router so hundreds of random session histories
// stay cheap. Transport coverage comes from the HTTP tests above.
// ---------------------------------------------------------------------

fn app() -> AppState {
    AppState::new(CacheConfig::default()).with_sessions(Arc::new(SessionStore::new(1 << 24)))
}

fn dispatch(state: &AppState, method: &str, path: &str, body: &str) -> ApiResponse {
    api::handle(
        state,
        &Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec().into(),
            keep_alive: false,
        },
    )
}

type RawEdit = (u8, usize, u64);

fn arb_session_history() -> impl Strategy<Value = (bool, Vec<u64>, Vec<u64>, Vec<Vec<RawEdit>>)> {
    (2usize..14).prop_flat_map(|n| {
        (
            any::<bool>(),
            prop::collection::vec(1u64..10, n),
            prop::collection::vec(1u64..16, n - 1),
            prop::collection::vec(
                prop::collection::vec((0u8..8, 0usize..1024, 1u64..10), 1..6),
                1..5,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any starting graph and any legal edit history, re-solving
    /// the resident session after each batch returns byte-for-byte the
    /// response a scratch solve of the edited graph returns.
    #[test]
    fn incremental_resolves_are_byte_identical_to_scratch(
        (tree, node_weights, edge_weights, batches) in arb_session_history()
    ) {
        let state = app();
        let mut mirror = if tree {
            Mirror::tree(node_weights, edge_weights)
        } else {
            Mirror::chain(node_weights, edge_weights)
        };
        let registered = dispatch(
            &state,
            "POST",
            "/v1/graphs",
            &format!(r#"{{"graph":{}}}"#, mirror.graph_json()),
        );
        prop_assert_eq!(registered.status, 200, "{}", registered.body);
        let v = Value::parse(&registered.body).unwrap();
        let id = v["id"].as_str().unwrap().to_string();
        let mut version = v["version"].as_u64().unwrap();

        for batch in &batches {
            let mut added = false;
            let edits: Vec<String> = batch
                .iter()
                .map(|&(op, raw, weight)| mirror.apply(op, raw, weight, &mut added))
                .collect();
            let patch = format!(
                r#"{{"version":{version},"edits":[{}]}}"#,
                edits.join(",")
            );
            let patched = dispatch(&state, "PATCH", &format!("/v1/graphs/{id}"), &patch);
            prop_assert_eq!(patched.status, 200, "patch {}: {}", patch, patched.body);
            version = Value::parse(&patched.body).unwrap()["version"].as_u64().unwrap();

            let solve = format!(
                r#"{{"objective":"{}","bound":{BOUND}}}"#,
                mirror.objective()
            );
            let session = dispatch(
                &state,
                "POST",
                &format!("/v1/graphs/{id}/partition"),
                &solve,
            );
            prop_assert_eq!(session.status, 200, "{}", session.body);

            let scratch_req = format!(
                r#"{{"objective":"{}","bound":{BOUND},"graph":{}}}"#,
                mirror.objective(),
                mirror.graph_json()
            );
            let scratch = dispatch(&state, "POST", "/v1/partition", &scratch_req);
            prop_assert_eq!(scratch.status, 200, "{}", scratch.body);
            prop_assert_eq!(&session.body, &scratch.body,
                "diverged at version {} on {}", version, mirror.graph_json());
        }
    }
}
