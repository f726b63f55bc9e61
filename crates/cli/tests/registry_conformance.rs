//! Registry conformance: the CLI and the HTTP service are two thin
//! front ends over the same solver registry, so for every registered
//! objective the bytes `tgp partition <objective> …` prints must be
//! exactly the body `POST /v1/partition` returns for the equivalent
//! request (plus the CLI's trailing newline). The golden table below is
//! checked against the registry itself, so adding a solver without
//! extending it fails the suite.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

use tgp_service::{Server, ServerConfig};
use tgp_solvers::Registry;

/// One golden request per objective: the CLI flags and the JSON params
/// they translate to, plus which graph fixture the objective expects.
struct Golden {
    objective: &'static str,
    cli_flags: &'static [&'static str],
    /// Comma-joined `"key":value` fragments, in schema order.
    params_json: &'static str,
    graph: &'static str,
}

const CHAIN: &str = r#"{"node_weights":[9,7,5,8,6,4],"edge_weights":[3,9,2,7,4]}"#;
const TREE: &str = r#"{"node_weights":[5,4,3,6,2,7],"edges":[{"a":0,"b":1,"weight":4},{"a":0,"b":2,"weight":2},{"a":1,"b":3,"weight":5},{"a":1,"b":4,"weight":3},{"a":2,"b":5,"weight":6}]}"#;
const PROCESS: &str = r#"{"node_weights":[5,4,3,6,2,7],"edges":[{"a":0,"b":1,"weight":4},{"a":0,"b":2,"weight":2},{"a":1,"b":3,"weight":5},{"a":1,"b":4,"weight":3},{"a":2,"b":5,"weight":6},{"a":3,"b":5,"weight":2}]}"#;

const GOLDEN: &[Golden] = &[
    Golden {
        objective: "bandwidth",
        cli_flags: &["--bound", "20"],
        params_json: r#""bound":20"#,
        graph: CHAIN,
    },
    Golden {
        objective: "bottleneck",
        cli_flags: &["--bound", "15"],
        params_json: r#""bound":15"#,
        graph: TREE,
    },
    Golden {
        objective: "procmin",
        cli_flags: &["--bound", "15"],
        params_json: r#""bound":15"#,
        graph: TREE,
    },
    Golden {
        objective: "compose",
        cli_flags: &["--bound", "15"],
        params_json: r#""bound":15"#,
        graph: TREE,
    },
    Golden {
        objective: "lexicographic",
        cli_flags: &["--bound", "20"],
        params_json: r#""bound":20"#,
        graph: CHAIN,
    },
    Golden {
        objective: "tree-bandwidth",
        cli_flags: &["--bound", "15"],
        params_json: r#""bound":15"#,
        graph: TREE,
    },
    Golden {
        objective: "approx",
        cli_flags: &["--bound", "20"],
        params_json: r#""bound":20"#,
        graph: PROCESS,
    },
    Golden {
        objective: "nicol",
        cli_flags: &["--bound", "20"],
        params_json: r#""bound":20"#,
        graph: CHAIN,
    },
    Golden {
        objective: "coc",
        cli_flags: &["--processors", "3", "--algorithm", "probe"],
        params_json: r#""processors":3,"algorithm":"probe""#,
        graph: CHAIN,
    },
    Golden {
        objective: "bokhari",
        cli_flags: &["--processors", "3"],
        params_json: r#""processors":3"#,
        graph: CHAIN,
    },
    Golden {
        objective: "hansen-lih",
        cli_flags: &["--processors", "3"],
        params_json: r#""processors":3"#,
        graph: CHAIN,
    },
    Golden {
        objective: "hetero",
        cli_flags: &["--speeds", "4,2,1"],
        params_json: r#""speeds":[4,2,1]"#,
        graph: CHAIN,
    },
    Golden {
        objective: "host-satellite",
        cli_flags: &["--satellites", "2", "--root", "0"],
        params_json: r#""satellites":2,"root":0"#,
        graph: TREE,
    },
];

fn http_body(golden: &Golden) -> String {
    format!(
        r#"{{"objective":"{}",{},"graph":{}}}"#,
        golden.objective, golden.params_json, golden.graph
    )
}

/// Runs `tgp partition <objective> <flags…>` with `graph` on stdin and
/// returns the raw stdout bytes.
fn cli_bytes(golden: &Golden) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .arg("partition")
        .arg(golden.objective)
        .args(golden.cli_flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(golden.graph.as_bytes())
        .expect("stdin writable");
    let out = child.wait_with_output().expect("binary finishes");
    assert!(
        out.status.success(),
        "tgp partition {} failed: {}",
        golden.objective,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// POSTs `body` to the live server and returns (status, raw body bytes).
fn post(server: &Server, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    let head_end = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    let head = String::from_utf8_lossy(&reply[..head_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line parses");
    (status, reply[head_end + 4..].to_vec())
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn golden_table_covers_the_whole_registry() {
    let mut covered: Vec<&str> = GOLDEN.iter().map(|g| g.objective).collect();
    covered.sort_unstable();
    let mut registered: Vec<&str> = Registry::shared().names().to_vec();
    registered.sort_unstable();
    assert_eq!(
        covered, registered,
        "the golden table must name exactly the registered objectives"
    );
}

#[test]
fn cli_and_http_agree_byte_for_byte_on_every_objective() {
    let mut server = start_server();
    for golden in GOLDEN {
        let (status, http) = post(&server, "/v1/partition", &http_body(golden));
        assert_eq!(
            status,
            200,
            "{}: {}",
            golden.objective,
            String::from_utf8_lossy(&http)
        );
        // The service terminates bodies with `\n`, the CLI's
        // `println` does the same — the byte streams must match
        // exactly.
        let cli = cli_bytes(golden);
        assert_eq!(
            cli,
            http,
            "{}: CLI bytes differ from HTTP body\nCLI:  {}\nHTTP: {}",
            golden.objective,
            String::from_utf8_lossy(&cli),
            String::from_utf8_lossy(&http)
        );
    }
    server.shutdown();
}

/// GETs `path` and returns the body text.
fn get_text(server: &Server, path: &str) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    let head_end = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    String::from_utf8_lossy(&reply[head_end + 4..]).into_owned()
}

/// The out-of-core path: with `--graph-spill-bytes 0` every streamed
/// request (bandwidth, bottleneck, procmin, compose, lexicographic,
/// tree-bandwidth, nicol) ingests into *disk-backed* flat arrays and
/// solves there; the rest falls through to the registry. Either way the
/// response bytes must still match the CLI exactly, and `/metrics` must
/// attribute the seven streamed solves to the disk backing.
#[test]
fn flat_disk_backing_agrees_byte_for_byte_with_the_cli() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        graph_spill_bytes: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    for golden in GOLDEN {
        let (status, http) = post(&server, "/v1/partition", &http_body(golden));
        assert_eq!(
            status,
            200,
            "{}: {}",
            golden.objective,
            String::from_utf8_lossy(&http)
        );
        let cli = cli_bytes(golden);
        assert_eq!(
            cli,
            http,
            "{}: disk-backed flat solve differs from CLI\nCLI:  {}\nHTTP: {}",
            golden.objective,
            String::from_utf8_lossy(&cli),
            String::from_utf8_lossy(&http)
        );
    }
    let metrics = get_text(&server, "/metrics");
    assert!(
        metrics.contains("tgp_store_backing{kind=\"disk\"} 7"),
        "expected 7 disk-backed ingests (bandwidth, bottleneck, \
         procmin, compose, lexicographic, tree-bandwidth, nicol):\n{metrics}"
    );
    assert!(metrics.contains("tgp_graph_spilled_total 7"), "{metrics}");
    server.shutdown();
}

#[test]
fn undeclared_fields_are_422_unknown_field_for_every_objective() {
    let mut server = start_server();
    for golden in GOLDEN {
        let body = format!(
            r#"{{"objective":"{}",{},"zzz_not_a_field":1,"graph":{}}}"#,
            golden.objective, golden.params_json, golden.graph
        );
        let (status, reply) = post(&server, "/v1/partition", &body);
        let text = String::from_utf8_lossy(&reply);
        assert_eq!(status, 422, "{}: {text}", golden.objective);
        assert!(
            text.contains(r#""code":"unknown_field""#),
            "{}: {text}",
            golden.objective
        );
    }
    server.shutdown();
}

#[test]
fn wrong_graph_shape_is_422_wrong_graph_kind_for_every_objective() {
    let mut server = start_server();
    for golden in GOLDEN {
        // Feed each objective the opposite shape: trees/process
        // graphs get a chain, chain objectives get a tree.
        let wrong = if golden.graph == CHAIN { TREE } else { CHAIN };
        let body = format!(
            r#"{{"objective":"{}",{},"graph":{}}}"#,
            golden.objective, golden.params_json, wrong
        );
        let (status, reply) = post(&server, "/v1/partition", &body);
        let text = String::from_utf8_lossy(&reply);
        assert_eq!(status, 422, "{}: {text}", golden.objective);
        assert!(
            text.contains(r#""code":"wrong_graph_kind""#),
            "{}: {text}",
            golden.objective
        );
    }
    server.shutdown();
}

/// The sharded runtime must be invisible in the bytes: under two
/// `SO_REUSEPORT` event loops every objective still answers exactly
/// the CLI's output, on every connection (each golden gets a fresh
/// connection so the kernel is free to spread them across loops), and
/// every request gets a globally unique trace id even though two loops
/// mint them concurrently.
#[test]
fn two_loop_server_stays_byte_identical_with_unique_traces() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        loops: 2,
        debug_endpoints: true,
        cache: tgp_service::CacheConfig::with_budget(0), // every request solves
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    assert_eq!(server.net_loops(), 2, "server did not start two loops");
    // Three passes over the golden set: 39 fresh connections, hashed
    // across the two accept queues by the kernel.
    for _ in 0..3 {
        for golden in GOLDEN {
            let (status, http) = post(&server, "/v1/partition", &http_body(golden));
            assert_eq!(
                status,
                200,
                "[2 loops] {}: {}",
                golden.objective,
                String::from_utf8_lossy(&http)
            );
            let cli = cli_bytes(golden);
            assert_eq!(
                cli,
                http,
                "[2 loops] {}: CLI bytes differ from HTTP body\nCLI:  {}\nHTTP: {}",
                golden.objective,
                String::from_utf8_lossy(&cli),
                String::from_utf8_lossy(&http)
            );
        }
    }
    // Both loops' counters must account for every accepted connection
    // (the unlabeled family is the render-time sum of the two).
    let metrics = get_text(&server, "/metrics");
    let accepted: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_accepted_connections_total "))
        .expect("unlabeled accepted sum rendered")
        .trim()
        .parse()
        .expect("numeric accepted sum");
    let per_loop: u64 = (0..2)
        .map(|i| {
            metrics
                .lines()
                .find_map(|l| {
                    l.strip_prefix(&format!("tgp_accepted_connections_total{{loop=\"{i}\"}} "))
                })
                .unwrap_or_else(|| panic!("loop {i} accepted series rendered\n{metrics}"))
                .trim()
                .parse::<u64>()
                .expect("numeric per-loop accepted")
        })
        .sum();
    assert_eq!(accepted, per_loop, "unlabeled sum != sum of loop series");
    // 39 goldens + the scrape itself have been accepted by now.
    assert!(accepted >= 39, "accepted {accepted} < 39 exchanges");
    // Every retained trace id is unique: the mint counter is global,
    // not per-loop, so two loops can never stamp the same id.
    let slow = get_text(&server, "/debug/slow?n=64");
    let parsed = tgp_graph::json::Value::parse(slow.trim()).expect("debug/slow JSON");
    let mut ids: Vec<String> = match &parsed["traces"] {
        tgp_graph::json::Value::Array(traces) => traces
            .iter()
            .map(|t| {
                t["trace"]
                    .as_str()
                    .expect("trace id is a string")
                    .to_string()
            })
            .collect(),
        other => panic!("traces is not an array: {other:?}"),
    };
    let total = ids.len();
    assert!(total >= 39, "only {total} traces retained");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), total, "duplicate trace ids across loops");
    server.shutdown();
}

#[test]
fn cli_rejects_flags_outside_the_schema() {
    let out = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .args(["partition", "bandwidth", "--bound", "20", "--speeds", "1"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not accept --speeds"), "{err}");
}

#[test]
fn canonical_keys_survive_key_reordering_but_not_value_changes() {
    use tgp_graph::json::Value;
    let registry = Registry::shared();
    for golden in GOLDEN {
        let forward = Value::parse(&http_body(golden)).unwrap();
        // Reverse the top-level field order; content is untouched.
        let Value::Object(fields) = forward.clone() else {
            panic!("request is an object")
        };
        let reversed = Value::Object(fields.into_iter().rev().collect());

        let (_, solver, request) = registry.dispatch(&forward).expect(golden.objective);
        let key = solver.canonical_key(&request);
        let (_, _, reordered) = registry.dispatch(&reversed).expect(golden.objective);
        assert_eq!(
            key,
            solver.canonical_key(&reordered),
            "{}: canonical key must ignore field order",
            golden.objective
        );
    }
    // Same shape, one weight changed: the keys must differ.
    let a = Value::parse(&http_body(&GOLDEN[0])).unwrap();
    let b = Value::parse(&http_body(&GOLDEN[0]).replace("[9,7", "[8,7")).unwrap();
    let (_, solver, req_a) = registry.dispatch(&a).unwrap();
    let (_, _, req_b) = registry.dispatch(&b).unwrap();
    assert_ne!(solver.canonical_key(&req_a), solver.canonical_key(&req_b));
}

/// The objectives table in `docs/SERVICE.md` is generated
/// (`tgp objectives --markdown`) rather than hand-mirrored; `--check`
/// diffs the marker-delimited block against the live registry, so a new
/// solver fails this test until the docs are regenerated.
#[test]
fn service_docs_objectives_table_matches_registry() {
    let docs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVICE.md");
    let out = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .args(["objectives", "--check", docs])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "`tgp objectives --check docs/SERVICE.md` failed; regenerate the table with \
         `tgp objectives --markdown`:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Same gate for the endpoint table (`tgp endpoints --markdown` /
/// `--check`): a new route — session, debug or otherwise — fails this
/// test until docs/SERVICE.md is regenerated.
#[test]
fn service_docs_endpoints_table_matches_router() {
    let docs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVICE.md");
    let out = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .args(["endpoints", "--check", docs])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "`tgp endpoints --check docs/SERVICE.md` failed; regenerate the table with \
         `tgp endpoints --markdown`:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
