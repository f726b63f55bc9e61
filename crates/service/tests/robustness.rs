//! Hostile-input tests: malformed, truncated and oversized requests must
//! produce structured 4xx responses — never a panic, never a hang — and
//! the server must keep serving afterwards. The event loop frames the
//! bytes and a worker parses them, so each case crosses both layers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tgp_service::{Server, ServerConfig};

/// Runs `test` against a fresh server.
fn with_server(test: impl Fn(&Server)) {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_body_bytes: 4096,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    test(&server);
    server.shutdown();
}

fn send_raw(server: &Server, raw: &[u8]) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may reject (and close) mid-upload — e.g. an oversized
    // head — so a failed send is a valid outcome, not a test error.
    if stream.write_all(raw).is_err() {
        return None;
    }
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).ok()?;
    if reply.is_empty() {
        return None;
    }
    let text = String::from_utf8_lossy(&reply);
    let status: u16 = text.split_whitespace().nth(1)?.parse().ok()?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Some((status, body))
}

fn post_json(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/partition HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn assert_alive(server: &Server) {
    let reply = send_raw(
        server,
        b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    )
    .expect("server should still answer");
    assert_eq!(reply.0, 200, "server unhealthy after hostile input");
}

#[test]
fn malformed_json_bodies_get_structured_400() {
    with_server(|server| {
        let nested = "[".repeat(500) + &"]".repeat(500);
        let bodies = [
            "",
            "{",
            "}",
            "[1,2",
            "nul",
            "{\"objective\":}",
            "{\"objective\": \"bandwidth\", \"bound\": 1e999, \"graph\": {}}",
            "{\"objective\": \"bandwidth\" \"bound\": 1}",
            "\u{1}\u{2}\u{3}",
            // Deeply nested arrays exceed the parser's depth limit.
            nested.as_str(),
        ];
        for body in bodies {
            let (status, reply) = send_raw(server, &post_json(body)).expect("got a response");
            assert_eq!(status, 400, "body {body:?} → {reply}");
            assert!(
                reply.contains("\"code\":\"bad_request\"") && reply.contains("\"message\""),
                "body {body:?} lacked a structured v2 envelope: {reply}"
            );
        }
        assert_alive(server);
    });
}

#[test]
fn semantically_invalid_graphs_get_422() {
    with_server(|server| {
        // Syntactically valid JSON that the solver registry must refuse:
        // these are 422 (semantic), never 400 (reserved for non-JSON).
        let bodies = [
            // Not an object at all.
            r#"{"objective":"bandwidth","bound":10,"graph":42}"#,
            // Wrong field type inside the graph.
            r#"{"objective":"bandwidth","bound":10,"graph":{"node_weights":"x"}}"#,
            // Edge count mismatch for a chain.
            r#"{"objective":"bandwidth","bound":10,"graph":{"node_weights":[1,2],"edge_weights":[1,2,3]}}"#,
            // Tree with a cycle.
            r#"{"objective":"procmin","bound":10,"graph":{"node_weights":[1,1,1],"edges":[{"a":0,"b":1,"weight":1},{"a":1,"b":2,"weight":1},{"a":2,"b":0,"weight":1}]}}"#,
            // Edge endpoint out of range.
            r#"{"objective":"bottleneck","bound":10,"graph":{"node_weights":[1,1],"edges":[{"a":0,"b":9,"weight":1}]}}"#,
            // Negative weight.
            r#"{"objective":"bandwidth","bound":10,"graph":{"node_weights":[1,-2],"edge_weights":[1]}}"#,
            // Wrong graph shape for the objective (chain given to a tree solver).
            r#"{"objective":"procmin","bound":10,"graph":{"node_weights":[1,2],"edge_weights":[3]}}"#,
            // Field outside the objective's schema (typo protection).
            r#"{"objective":"bandwidth","buond":10,"bound":10,"graph":{"node_weights":[1,2],"edge_weights":[1]}}"#,
        ];
        for body in bodies {
            let (status, reply) = send_raw(server, &post_json(body)).expect("got a response");
            assert_eq!(status, 422, "body {body:?} → {reply}");
            assert!(
                reply.contains("\"code\""),
                "body {body:?} lacked a stable error code: {reply}"
            );
        }
        assert_alive(server);
    });
}

#[test]
fn oversized_body_is_413_before_upload() {
    with_server(|server| {
        // max_body_bytes = 4096
        let raw =
            "POST /v1/partition HTTP/1.1\r\ncontent-length: 10000000\r\nconnection: close\r\n\r\n";
        // Note: no body bytes are actually sent — the server must reject
        // on the declared length alone.
        let (status, reply) = send_raw(server, raw.as_bytes()).expect("got a response");
        assert_eq!(status, 413, "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");
        assert_alive(server);
    });
}

#[test]
fn truncated_body_times_out_without_wedging_the_server() {
    with_server(|server| {
        // Declares 100 bytes but sends 10 and stalls; the read timeout
        // must reclaim the connection.
        let raw = b"POST /v1/partition HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"a\": 1}";
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(raw).unwrap();
        // Don't close; just leave the request hanging.
        std::thread::sleep(Duration::from_millis(700)); // > read_timeout
        assert_alive(server);
        drop(stream);
    });
}

#[test]
fn garbage_protocol_lines_are_rejected() {
    with_server(|server| {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET\r\n\r\n".as_slice(),
            b"GET /healthz\r\n\r\n".as_slice(),
            b"GET /healthz SPDY/9\r\n\r\n".as_slice(),
            b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n".as_slice(),
            b"POST /v1/partition HTTP/1.1\r\ncontent-length: banana\r\n\r\n".as_slice(),
            b"\xff\xfe\xfd\r\n\r\n".as_slice(),
        ] {
            // A silently dropped connection is also acceptable for byte
            // garbage; what matters is the server survives.
            if let Some((status, reply)) = send_raw(server, raw) {
                assert_eq!(status, 400, "input {raw:?} → {reply}");
            }
        }
        assert_alive(server);
    });
}

#[test]
fn enormous_header_section_is_bounded() {
    with_server(|server| {
        // A single huge header must trip the head-size budget (16 KiB),
        // not buffer without limit.
        let mut raw = b"GET /healthz HTTP/1.1\r\nx-padding: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        let reply = send_raw(server, &raw);
        if let Some((status, _)) = reply {
            assert_eq!(status, 400);
        }
        assert_alive(server);
    });
}

#[test]
fn resource_exhausting_simulate_scalars_get_422() {
    with_server(|server| {
        // `items` schedules one event each and `processors` sizes
        // per-CPU allocations; a few bytes of JSON must not be able to
        // pin a worker or abort the process on allocation failure.
        let chain = r#"{"node_weights":[1,2,3],"edge_weights":[1,1]}"#;
        let bodies = [
            format!(r#"{{"bound":10,"items":10000000000,"graph":{chain}}}"#),
            format!(r#"{{"bound":10,"items":18446744073709551615,"graph":{chain}}}"#),
            format!(r#"{{"bound":10,"items":5,"processors":1000000000000000000,"graph":{chain}}}"#),
        ];
        for body in &bodies {
            let raw = format!(
                "POST /v1/simulate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
            let (status, reply) = send_raw(server, raw.as_bytes()).expect("got a response");
            assert_eq!(status, 422, "body {body} → {reply}");
            assert!(
                reply.contains("\"code\"") && reply.contains("\"message\""),
                "{reply}"
            );
        }
        assert_alive(server);
    });
}

#[test]
fn chunked_transfer_encoding_is_rejected_not_smuggled() {
    with_server(|server| {
        // Only Content-Length framing is supported. If the server parsed
        // this as a body-less request, the chunked payload would be read
        // as a second pipelined request — the smuggling primitive. It
        // must be a 400 and the connection must close without serving
        // the payload.
        let raw = b"POST /v1/partition HTTP/1.1\r\n\
            transfer-encoding: chunked\r\n\
            connection: keep-alive\r\n\r\n\
            1c\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw).expect("send");
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("receive");
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        // Exactly one response: the smuggled GET must not have been
        // served.
        assert_eq!(text.matches("HTTP/1.1").count(), 1, "{text}");
        assert_alive(server);
    });
}

/// Killing one of two event loops is a capacity event, not an outage:
/// its `SO_REUSEPORT` listener closes, the kernel redistributes new
/// connections to the survivor, and every fresh request keeps
/// answering 200. Double-killing the same loop is a no-op.
#[test]
fn losing_one_loop_degrades_capacity_not_service() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        loops: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    assert_eq!(server.net_loops(), 2, "expected a two-loop runtime");

    // Both loops serving: a burst of fresh connections lands on both
    // shards (kernel 4-tuple hashing) and every one must answer.
    let body = r#"{"objective":"bandwidth","bound":12,"graph":{"node_weights":[2,3,5,7],"edge_weights":[10,1,10]}}"#;
    for _ in 0..8 {
        let (status, reply) = send_raw(&server, &post_json(body)).expect("pre-kill response");
        assert_eq!(status, 200, "{reply}");
    }

    assert!(server.kill_loop(0), "first kill must take down loop 0");
    assert!(
        !server.kill_loop(0),
        "second kill of loop 0 must be a no-op"
    );

    // Every *new* connection now lands on the surviving listener; the
    // service stays correct, just smaller.
    for _ in 0..16 {
        let (status, reply) = send_raw(&server, &post_json(body)).expect("post-kill response");
        assert_eq!(status, 200, "degraded server failed a solve: {reply}");
    }
    assert_alive(&server);

    // Metrics still render (summation must tolerate the dead shard) and
    // the survivor keeps counting accepts.
    let (status, metrics) = send_raw(
        &server,
        b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
    )
    .expect("metrics response");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tgp_accepted_connections_total"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn infeasible_bounds_get_422() {
    with_server(|server| {
        let body = r#"{"objective":"bandwidth","bound":0,"graph":{"node_weights":[5,5],"edge_weights":[1]}}"#;
        let (status, reply) = send_raw(server, &post_json(body)).expect("got a response");
        assert_eq!(status, 422, "{reply}");
        assert!(
            reply.contains("\"code\":\"infeasible\"") && reply.contains("\"message\""),
            "{reply}"
        );
        assert_alive(server);
    });
}
