//! End-to-end observability tests against a real server: a
//! client-supplied trace id is adopted and its span tree is served by
//! `GET /debug/trace/<id>` with stage durations that sum to at most
//! the reported total; `/debug/slow` and `/debug/events` answer JSON;
//! the `/debug/*` surfaces 404 when `debug_endpoints` is off; and
//! `/metrics` exports the per-stage histogram and journal series.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tgp_graph::json::Value;
use tgp_service::{Server, ServerConfig};

fn start(debug_endpoints: bool) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        debug_endpoints,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn roundtrip(server: &Server, request: &str) -> (u16, String) {
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
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n")
}

fn post_with_headers(path: &str, extra_headers: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{extra_headers}connection: close\r\n\r\n{body}",
        body.len()
    )
}

const CHAIN: &str = r#"{"node_weights":[2,3,5,7,2,8],"edge_weights":[10,1,10,2,6]}"#;

fn partition_body() -> String {
    format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#)
}

/// Fetches `/debug/trace/<id>` until the asynchronously patched
/// `write` span shows up (the epoll loop reports it after the response
/// has flushed to the socket — which is after the client read it).
fn trace_with_write_span(server: &Server, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = roundtrip(server, &get(&format!("/debug/trace/{id}")));
        assert_eq!(status, 200, "trace {id} not found: {body}");
        let trace = Value::parse(&body).expect("trace JSON");
        let has_write = trace["spans"]
            .as_array()
            .expect("spans array")
            .iter()
            .any(|s| s["stage"].as_str() == Some("write"));
        if has_write {
            return trace;
        }
        assert!(
            Instant::now() < deadline,
            "write span never appeared for {id}: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn span_stages(trace: &Value) -> Vec<String> {
    trace["spans"]
        .as_array()
        .expect("spans array")
        .iter()
        .map(|s| s["stage"].as_str().expect("stage string").to_string())
        .collect()
}

#[test]
fn client_trace_id_is_adopted_and_served_with_span_tree() {
    let mut server = start(true);
    let id = "00c0ffee0ddf00d1";
    let (status, _) = roundtrip(
        &server,
        &post_with_headers(
            "/v1/partition",
            &format!("x-trace-id: {id}\r\n"),
            &partition_body(),
        ),
    );
    assert_eq!(status, 200);

    let trace = trace_with_write_span(&server, id);
    assert_eq!(trace["trace"].as_str(), Some(id));
    assert_eq!(trace["endpoint"].as_str(), Some("partition"));
    assert_eq!(trace["objective"].as_str(), Some("bandwidth"));
    assert_eq!(trace["status"].as_u64(), Some(200));

    let stages = span_stages(&trace);
    for expected in ["queue", "parse", "cache", "solve", "serialize", "write"] {
        assert!(
            stages.iter().any(|s| s == expected),
            "stage {expected} missing from {stages:?}"
        );
    }

    // Stage durations account for at most the reported total.
    let total_us = trace["total_us"].as_u64().expect("total_us");
    let span_sum: u64 = trace["spans"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["dur_us"].as_u64().expect("dur_us"))
        .sum();
    assert!(
        span_sum <= total_us,
        "spans sum to {span_sum} us > total {total_us} us"
    );
    server.shutdown();
}

#[test]
fn traceparent_header_is_adopted() {
    let mut server = start(true);
    let traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
    let (status, _) = roundtrip(
        &server,
        &post_with_headers(
            "/v1/partition",
            &format!("traceparent: {traceparent}\r\n"),
            &partition_body(),
        ),
    );
    assert_eq!(status, 200);
    // The low 64 bits of the traceparent trace-id field.
    let (status, body) = roundtrip(&server, &get("/debug/trace/a3ce929d0e0e4736"));
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn debug_slow_and_events_answer_json() {
    let mut server = start(true);
    for _ in 0..3 {
        let (status, _) = roundtrip(
            &server,
            &post_with_headers("/v1/partition", "", &partition_body()),
        );
        assert_eq!(status, 200);
    }

    let (status, body) = roundtrip(&server, &get("/debug/slow?n=2"));
    assert_eq!(status, 200);
    let slow = Value::parse(&body).expect("slow JSON");
    let traces = slow["traces"].as_array().expect("traces array");
    assert!(!traces.is_empty() && traces.len() <= 2, "{body}");
    // Slowest first.
    let totals: Vec<u64> = traces
        .iter()
        .map(|t| t["total_us"].as_u64().unwrap())
        .collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");

    let (status, body) = roundtrip(&server, &get("/debug/events"));
    assert_eq!(status, 200);
    let events = Value::parse(&body).expect("events JSON");
    assert!(events["appended"].as_u64().unwrap() > 0);
    let kinds: Vec<&str> = events["events"]
        .as_array()
        .expect("events array")
        .iter()
        .map(|e| e["kind"].as_str().unwrap())
        .collect();
    assert!(kinds.contains(&"respond"), "no respond event in {kinds:?}");
    assert!(kinds.contains(&"enqueue"), "no enqueue event in {kinds:?}");
    server.shutdown();
}

#[test]
fn debug_surfaces_are_404_when_disabled() {
    let mut server = start(false);
    for path in ["/debug/trace/abc123", "/debug/slow", "/debug/events"] {
        let (status, _) = roundtrip(&server, &get(path));
        assert_eq!(status, 404, "{path} should be gated off");
    }
    server.shutdown();
}

#[test]
fn unknown_trace_is_404_and_bad_id_is_400() {
    let mut server = start(true);
    let (status, body) = roundtrip(&server, &get("/debug/trace/fefefefefefefefe"));
    assert_eq!(status, 404);
    assert!(body.contains("not_found"), "{body}");
    let (status, body) = roundtrip(&server, &get("/debug/trace/zzz"));
    assert_eq!(status, 400);
    assert!(body.contains("bad_request"), "{body}");
    server.shutdown();
}

#[test]
fn metrics_export_stage_histograms_and_journal_series() {
    let mut server = start(false);
    let (status, _) = roundtrip(
        &server,
        &post_with_headers("/v1/partition", "", &partition_body()),
    );
    assert_eq!(status, 200);
    let (status, body) = roundtrip(&server, &get("/metrics"));
    assert_eq!(status, 200);
    for series in [
        "tgp_stage_latency_seconds_bucket",
        "tgp_stage_latency_seconds_count{stage=\"solve\"}",
        "tgp_request_latency_seconds_bucket",
        "tgp_journal_events_total",
        "tgp_journal_overwritten_total",
        "tgp_traces_retained",
    ] {
        assert!(body.contains(series), "{series} missing");
    }
    server.shutdown();
}
