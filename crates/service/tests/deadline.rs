//! End-to-end deadline and cancellation tests: the `x-deadline-ms`
//! header (and per-item `deadline_ms` in batches) must turn into
//! 504 `deadline_exceeded` envelopes instead of wedged workers, the
//! `tgp_deadline_drops_total{where}` counters must advance, and —
//! critically — requests *without* deadlines must be byte-identical to
//! a server that never heard of the feature. Runs under one and two
//! event loops.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tgp_graph::json::Value;
use tgp_service::envelope::parse_envelope;
use tgp_service::{Server, ServerConfig};

/// The loop counts the scenarios run under: the single-loop runtime and
/// the sharded two-loop runtime.
const LOOPS: [usize; 2] = [1, 2];

fn start(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port")
}

/// One complete HTTP exchange on a fresh connection.
fn roundtrip(server: &Server, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    let text = String::from_utf8_lossy(&reply);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// POST with optional extra header lines (`name: value\r\n`).
fn post_with(path: &str, extra: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\n{extra}content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").into_bytes()
}

const CHAIN: &str = r#"{"node_weights":[2,3,5,7,2,8],"edge_weights":[10,1,10,2,6]}"#;

/// A chain large enough that its solve cannot finish inside a
/// single-digit-millisecond deadline, rendered as a request body.
fn huge_chain_body(nodes: usize) -> String {
    let node_weights: Vec<String> = (0..nodes).map(|i| ((i * 7) % 9 + 1).to_string()).collect();
    let edge_weights: Vec<String> = (0..nodes - 1)
        .map(|i| ((i * 5) % 17 + 1).to_string())
        .collect();
    format!(
        r#"{{"objective":"bandwidth","bound":{},"graph":{{"node_weights":[{}],"edge_weights":[{}]}}}}"#,
        4 * nodes / 3,
        node_weights.join(","),
        edge_weights.join(",")
    )
}

/// The sum of `tgp_deadline_drops_total` across all drop sites.
fn deadline_drops(server: &Server) -> u64 {
    let (status, metrics) = roundtrip(server, &get("/metrics"));
    assert_eq!(status, 200);
    metrics
        .lines()
        .filter(|l| l.starts_with("tgp_deadline_drops_total{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("bad metric line {l:?}"))
        })
        .sum()
}

/// A request without a deadline header must not change by a byte when a
/// generous deadline is attached — deadline support is invisible until
/// a deadline actually bites.
#[test]
fn generous_deadline_is_byte_identical_to_no_deadline() {
    for loops in LOOPS {
        let mut server = start(ServerConfig {
            loops,
            ..ServerConfig::default()
        });
        let body = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);
        let (bare_status, bare) = roundtrip(&server, &post_with("/v1/partition", "", &body));
        let (dead_status, dead) = roundtrip(
            &server,
            &post_with("/v1/partition", "x-deadline-ms: 60000\r\n", &body),
        );
        assert_eq!(bare_status, 200, "{bare}");
        assert_eq!(dead_status, 200, "{dead}");
        assert_eq!(
            bare, dead,
            "deadline header changed a 200 body (loops={loops})"
        );
        server.shutdown();
    }
}

/// `x-deadline-ms: 0` is already expired on arrival: the work is
/// dropped at the queue with a stable 504 envelope, and the drop
/// counters advance.
#[test]
fn expired_deadline_is_dropped_with_a_504_envelope() {
    for loops in LOOPS {
        let mut server = start(ServerConfig {
            loops,
            ..ServerConfig::default()
        });
        let before = deadline_drops(&server);
        let body = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);
        let (status, reply) = roundtrip(
            &server,
            &post_with("/v1/partition", "x-deadline-ms: 0\r\n", &body),
        );
        assert_eq!(status, 504, "loops={loops}: {reply}");
        let code = parse_envelope(reply.as_bytes()).expect("504 body is a v2 envelope");
        assert_eq!(code, "deadline_exceeded", "{reply}");
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v["deadline_remaining_ms"].as_u64(), Some(0), "{reply}");
        assert!(
            deadline_drops(&server) > before,
            "loops={loops}: tgp_deadline_drops_total did not advance"
        );
        server.shutdown();
    }
}

/// A malformed deadline header is a 400, not a silent ignore.
#[test]
fn malformed_deadline_header_is_rejected() {
    let mut server = start(ServerConfig::default());
    let body = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);
    let (status, reply) = roundtrip(
        &server,
        &post_with("/v1/partition", "x-deadline-ms: soon\r\n", &body),
    );
    assert_eq!(status, 400, "{reply}");
    assert_eq!(
        parse_envelope(reply.as_bytes()).as_deref(),
        Ok("bad_request"),
        "{reply}"
    );
    server.shutdown();
}

/// A solve too large for its deadline is cancelled cooperatively
/// mid-run — the solver's budget check fires, the request answers 504,
/// and the worker moves on (proved by the follow-up request).
#[test]
fn mid_solve_cancellation_frees_the_worker() {
    for loops in LOOPS {
        let mut server = start(ServerConfig {
            loops,
            max_body_bytes: 16 << 20,
            ..ServerConfig::default()
        });
        let before = deadline_drops(&server);
        let huge = huge_chain_body(400_000);
        let (status, reply) = roundtrip(
            &server,
            &post_with("/v1/partition", "x-deadline-ms: 2\r\n", &huge),
        );
        assert_eq!(
            status,
            504,
            "loops={loops}: {}",
            &reply[..reply.len().min(300)]
        );
        assert_eq!(
            parse_envelope(reply.as_bytes()).as_deref(),
            Ok("deadline_exceeded"),
            "{reply}"
        );
        assert!(
            deadline_drops(&server) > before,
            "loops={loops}: tgp_deadline_drops_total did not advance"
        );
        // The worker that cancelled is free to serve again.
        let small = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);
        let (status, reply) = roundtrip(&server, &post_with("/v1/partition", "", &small));
        assert_eq!(status, 200, "{reply}");
        server.shutdown();
    }
}

/// A batch whose items carry their own `deadline_ms` answers 200 with
/// per-item outcomes: expired items come back as 504 envelopes marked
/// `partial`, and the batch top level carries the partial marker too.
#[test]
fn batch_items_with_expired_deadlines_yield_partial_results() {
    let mut server = start(ServerConfig::default());
    let before = deadline_drops(&server);
    let body = format!(
        r#"{{"requests":[
            {{"objective":"bandwidth","bound":12,"graph":{CHAIN}}},
            {{"objective":"bandwidth","bound":12,"deadline_ms":0,"graph":{CHAIN}}}
        ]}}"#
    );
    let (status, reply) = roundtrip(&server, &post_with("/v1/partition", "", &body));
    assert_eq!(status, 200, "{reply}");
    let v = Value::parse(&reply).unwrap();
    assert_eq!(v["completed"].as_u64(), Some(1), "{reply}");
    assert_eq!(v["failed"].as_u64(), Some(1), "{reply}");
    assert_eq!(v["partial"].as_bool(), Some(true), "{reply}");
    let results = v["results"].as_array().unwrap();
    assert_eq!(results[0]["status"].as_u64(), Some(200));
    assert!(results[0]["body"]["bandwidth"].as_u64().is_some());
    assert_eq!(results[1]["status"].as_u64(), Some(504), "{reply}");
    assert_eq!(
        results[1]["body"]["code"].as_str(),
        Some("deadline_exceeded"),
        "{reply}"
    );
    assert_eq!(results[1]["body"]["partial"].as_bool(), Some(true));
    assert!(
        deadline_drops(&server) > before,
        "batch drop did not advance tgp_deadline_drops_total"
    );
    server.shutdown();
}

/// A batch with no deadlines keeps the exact v2 envelope shape of the
/// previous release: no `partial` key appears anywhere.
#[test]
fn batch_without_deadlines_has_no_partial_marker() {
    let mut server = start(ServerConfig::default());
    let body = format!(
        r#"{{"requests":[
            {{"objective":"bandwidth","bound":12,"graph":{CHAIN}}},
            {{"objective":"bogus","bound":12,"graph":{CHAIN}}}
        ]}}"#
    );
    let (status, reply) = roundtrip(&server, &post_with("/v1/partition", "", &body));
    assert_eq!(status, 200, "{reply}");
    assert!(!reply.contains("\"partial\""), "{reply}");
    let v = Value::parse(&reply).unwrap();
    assert_eq!(v["completed"].as_u64(), Some(1));
    assert_eq!(v["failed"].as_u64(), Some(1));
    server.shutdown();
}

/// The four drop sites are always rendered (even at zero) so
/// dashboards can rate() them from the first scrape.
#[test]
fn metrics_render_every_drop_site() {
    let mut server = start(ServerConfig::default());
    let (status, metrics) = roundtrip(&server, &get("/metrics"));
    assert_eq!(status, 200);
    for site in ["admission", "queue", "parse", "solve", "batch"] {
        assert!(
            metrics.contains(&format!("tgp_deadline_drops_total{{where=\"{site}\"}}")),
            "missing drop site {site}: {metrics}"
        );
    }
    server.shutdown();
}

/// Session solves honor deadlines too: an expired deadline on the
/// resident-graph partition route answers 504 without touching the
/// resident state.
#[test]
fn session_partition_honors_deadlines() {
    let mut server = start(ServerConfig::default());
    let (status, reply) = roundtrip(
        &server,
        &post_with("/v1/graphs", "", &format!(r#"{{"graph":{CHAIN}}}"#)),
    );
    assert_eq!(status, 200, "{reply}");
    let id = Value::parse(&reply).unwrap()["id"]
        .as_str()
        .unwrap()
        .to_string();
    let solve = r#"{"objective":"bandwidth","bound":12}"#;
    let path = format!("/v1/graphs/{id}/partition");
    let (status, reply) = roundtrip(&server, &post_with(&path, "x-deadline-ms: 0\r\n", solve));
    assert_eq!(status, 504, "{reply}");
    assert_eq!(
        parse_envelope(reply.as_bytes()).as_deref(),
        Ok("deadline_exceeded"),
        "{reply}"
    );
    // The session is intact and solvable without a deadline.
    let (status, reply) = roundtrip(&server, &post_with(&path, "", solve));
    assert_eq!(status, 200, "{reply}");
    server.shutdown();
}
