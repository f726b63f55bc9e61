//! End-to-end tests against a real server on an ephemeral port:
//! concurrent clients, response correctness vs the solvers called
//! directly, cache behaviour observed through `/metrics`, batching, and
//! queue saturation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tgp_core::bottleneck::min_bottleneck_cut;
use tgp_core::budget::Budget;
use tgp_core::pipeline::partition_chain;
use tgp_core::procmin::proc_min;
use tgp_graph::json::{FromJson, Value};
use tgp_graph::{PathGraph, Tree, Weight};
use tgp_service::{Server, ServerConfig};

fn start(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port")
}

/// One complete HTTP exchange on a fresh connection.
fn roundtrip(server: &Server, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    parse_response(&reply)
}

fn parse_response(raw: &[u8]) -> (u16, String) {
    let text = String::from_utf8_lossy(raw);
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

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n")
}

const CHAIN: &str = r#"{"node_weights":[2,3,5,7,2,8],"edge_weights":[10,1,10,2,6]}"#;
const TREE: &str = r#"{"node_weights":[1,2,3,4,5],"edges":[{"a":0,"b":1,"weight":10},{"a":0,"b":2,"weight":20},{"a":2,"b":3,"weight":30},{"a":2,"b":4,"weight":5}]}"#;

#[test]
fn health_and_metrics_respond() {
    let mut server = start(ServerConfig::default());
    let (status, body) = roundtrip(&server, &get("/healthz"));
    assert_eq!(status, 200);
    assert!(body.contains("ok"));
    let (status, body) = roundtrip(&server, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(body.contains("tgp_requests_total"));
    assert!(body.contains("tgp_open_connections"), "{body}");
    server.shutdown();
}

#[test]
fn concurrent_mixed_clients_match_direct_solvers() {
    let mut server = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Direct solver answers to compare against.
    let chain = PathGraph::from_json(&Value::parse(CHAIN).unwrap()).unwrap();
    let tree = Tree::from_json(&Value::parse(TREE).unwrap()).unwrap();
    let chain_direct = partition_chain(&chain, Weight::new(12), &Budget::unlimited()).unwrap();
    let bottleneck_direct = min_bottleneck_cut(&tree, Weight::new(8)).unwrap();
    let procmin_direct = proc_min(&tree, Weight::new(8)).unwrap();

    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let (objective, bound) = match i % 3 {
                    0 => ("bandwidth", 12),
                    1 => ("bottleneck", 8),
                    _ => ("procmin", 8),
                };
                let graph = if objective == "bandwidth" {
                    CHAIN
                } else {
                    TREE
                };
                let body =
                    format!(r#"{{"objective":"{objective}","bound":{bound},"graph":{graph}}}"#);
                let request = post("/v1/partition", &body);
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                stream.write_all(request.as_bytes()).expect("send");
                let mut reply = Vec::new();
                stream.read_to_end(&mut reply).expect("receive");
                (i % 3, parse_response(&reply))
            })
        })
        .collect();

    for handle in handles {
        let (kind, (status, body)) = handle.join().expect("client thread");
        assert_eq!(status, 200, "{body}");
        let v = Value::parse(&body).unwrap();
        match kind {
            0 => {
                assert_eq!(
                    v["processors"].as_u64().unwrap() as usize,
                    chain_direct.processors
                );
                assert_eq!(
                    v["bandwidth"].as_u64().unwrap(),
                    chain_direct.bandwidth.get()
                );
                let cut: Vec<u64> = v["cut"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|e| e.as_u64().unwrap())
                    .collect();
                let expected: Vec<u64> =
                    chain_direct.cut.iter().map(|e| e.index() as u64).collect();
                assert_eq!(cut, expected);
            }
            1 => {
                assert_eq!(
                    v["bottleneck"].as_u64().unwrap(),
                    bottleneck_direct.bottleneck.get()
                );
            }
            _ => {
                assert_eq!(
                    v["processors"].as_u64().unwrap() as usize,
                    procmin_direct.component_count
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn repeated_request_is_a_cache_hit_per_metrics() {
    let mut server = start(ServerConfig::default());
    let body = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);
    let (s1, b1) = roundtrip(&server, &post("/v1/partition", &body));
    let (s2, b2) = roundtrip(&server, &post("/v1/partition", &body));
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2);

    // Same content with shuffled keys and whitespace also hits.
    let reordered = format!(r#"{{ "bound": 12, "graph": {CHAIN}, "objective": "bandwidth" }}"#);
    let (s3, b3) = roundtrip(&server, &post("/v1/partition", &reordered));
    assert_eq!(s3, 200);
    assert_eq!(b1, b3);

    let (_, metrics) = roundtrip(&server, &get("/metrics"));
    let hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_cache_hits_total "))
        .unwrap()
        .parse()
        .unwrap();
    let misses: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_cache_misses_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(hits, 2, "second and third requests should hit:\n{metrics}");
    assert_eq!(misses, 1);
    server.shutdown();
}

#[test]
fn batch_mixes_results_and_errors() {
    let mut server = start(ServerConfig::default());
    let body = format!(
        r#"{{"requests":[
            {{"objective":"bandwidth","bound":12,"graph":{CHAIN}}},
            {{"objective":"bogus","bound":12,"graph":{CHAIN}}},
            {{"objective":"procmin","bound":8,"graph":{TREE}}}
        ]}}"#
    );
    let (status, body) = roundtrip(&server, &post("/v1/partition", &body));
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    assert_eq!(v["completed"].as_u64(), Some(2), "{body}");
    assert_eq!(v["failed"].as_u64(), Some(1), "{body}");
    let results = v["results"].as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0]["index"].as_u64(), Some(0));
    assert_eq!(results[0]["status"].as_u64(), Some(200));
    assert!(results[0]["body"]["bandwidth"].as_u64().is_some());
    assert_eq!(results[1]["status"].as_u64(), Some(422));
    assert_eq!(
        results[1]["body"]["code"].as_str(),
        Some("unknown_objective")
    );
    assert!(results[1]["body"]["message"].as_str().is_some());
    assert_eq!(results[2]["index"].as_u64(), Some(2));
    assert!(results[2]["body"]["processors"].as_u64().is_some());
    server.shutdown();
}

#[test]
fn large_batch_fans_out_across_the_pool_in_order() {
    let mut server = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let items: Vec<String> = (0..32)
        .map(|i| {
            format!(
                r#"{{"objective":"bandwidth","bound":{},"graph":{CHAIN}}}"#,
                12 + i
            )
        })
        .collect();
    let body = format!(r#"{{"requests":[{}]}}"#, items.join(","));
    let (status, body) = roundtrip(&server, &post("/v1/partition", &body));
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    assert_eq!(v["completed"].as_u64(), Some(32), "{body}");
    assert_eq!(v["failed"].as_u64(), Some(0));
    let results = v["results"].as_array().unwrap();
    assert_eq!(results.len(), 32);
    for (i, item) in results.iter().enumerate() {
        assert_eq!(item["index"].as_u64(), Some(i as u64), "order preserved");
        assert_eq!(item["status"].as_u64(), Some(200));
        assert!(item["body"]["bandwidth"].as_u64().is_some());
    }

    // The scatter shows up in metrics: every subtask ran somewhere
    // (pool or inline when the queue was momentarily full).
    let (_, metrics) = roundtrip(&server, &get("/metrics"));
    let subtasks: u64 = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("tgp_batch_subtasks_total"))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|n| n.parse::<u64>().ok())
        .sum();
    assert_eq!(subtasks, 32, "{metrics}");
    server.shutdown();
}

#[test]
fn cache_file_round_trips_across_a_restart() {
    let path = std::env::temp_dir().join(format!("tgp-warm-restart-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let body = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);

    let mut first = start(ServerConfig {
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    });
    let (s1, b1) = roundtrip(&first, &post("/v1/partition", &body));
    assert_eq!(s1, 200, "{b1}");
    first.shutdown(); // graceful shutdown writes the final dump

    let mut second = start(ServerConfig {
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    });
    let (s2, b2) = roundtrip(&second, &post("/v1/partition", &body));
    assert_eq!(s2, 200);
    assert_eq!(b1, b2, "warm entry serves the identical response");

    let (_, metrics) = roundtrip(&second, &get("/metrics"));
    let warm: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_cache_warm_loaded_total "))
        .unwrap()
        .parse()
        .unwrap();
    let hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_cache_hits_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(warm >= 1, "{metrics}");
    assert!(
        hits >= 1,
        "first request after restart should warm-hit:\n{metrics}"
    );
    second.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn simulate_endpoint_reports_pipeline_stats() {
    let mut server = start(ServerConfig::default());
    let body = format!(r#"{{"bound":12,"items":50,"graph":{CHAIN},"interconnect":"crossbar"}}"#);
    let (status, body) = roundtrip(&server, &post("/v1/simulate", &body));
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    assert!(v["makespan"].as_u64().unwrap() > 0);
    assert!(v["throughput"].as_f64().unwrap() > 0.0);
    assert!(v["mean_utilization"].as_f64().unwrap() > 0.0);
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let mut server = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    for _ in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_all_get_answers() {
    // Two requests written back-to-back before reading: the server must
    // answer both, in order, on the same connection.
    let mut server = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let text = String::from_utf8_lossy(&reply);
    assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{text}");
    server.shutdown();
}

/// Reads exactly one response off a kept-alive connection: the head up
/// to its blank line, then `content-length` body bytes.
fn read_one_response(stream: &mut TcpStream) -> Vec<u8> {
    let mut reader = BufReader::new(stream);
    let mut response = Vec::new();
    let mut length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response head");
        response.extend_from_slice(line.as_bytes());
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = value.trim().parse::<usize>().expect("content-length");
        }
        if line == "\r\n" {
            break;
        }
    }
    let start = response.len();
    response.resize(start + length, 0);
    reader
        .read_exact(&mut response[start..])
        .expect("response body");
    response
}

#[test]
fn pipelined_bodies_survive_the_frame_handoff() {
    // A POST larger than one 64 KiB read round, then a second POST, in
    // one write: the first frame completes in a round that also holds
    // the whole second request, so only those bytes may move to the
    // connection's next buffer. Both answers must match sending each
    // request on its own connection.
    let mut server = start(ServerConfig::default());
    let n = 20_000;
    let nodes: Vec<String> = (0..n).map(|i| (1 + i % 97).to_string()).collect();
    let edges: Vec<String> = (1..n).map(|i| (1 + i % 89).to_string()).collect();
    let big_body = format!(
        r#"{{"objective":"bandwidth","bound":500,"graph":{{"node_weights":[{}],"edge_weights":[{}]}}}}"#,
        nodes.join(","),
        edges.join(",")
    );
    assert!(big_body.len() > 64 * 1024, "{}", big_body.len());
    let big = format!(
        "POST /v1/partition HTTP/1.1\r\ncontent-length: {}\r\n\r\n{big_body}",
        big_body.len()
    );
    let small = post(
        "/v1/partition",
        &format!(r#"{{"objective":"procmin","bound":40,"graph":{TREE}}}"#),
    );
    let alone: Vec<Vec<u8>> = [&big, &small]
        .iter()
        .map(|request| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            read_one_response(&mut stream)
        })
        .collect();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("{big}{small}").as_bytes())
        .unwrap();
    let mut together = Vec::new();
    stream.read_to_end(&mut together).unwrap();
    assert_eq!(
        parse_response(&alone[0]).0,
        200,
        "{:?}",
        parse_response(&alone[0])
    );
    assert_eq!(parse_response(&alone[1]).0, 200);
    assert_eq!(together, [&alone[0][..], &alone[1][..]].concat());
    server.shutdown();
}

#[test]
fn saturated_queue_gets_503_not_a_hang() {
    // 1 worker + depth-1 queue: one slow solve occupies the worker, one
    // waits in the queue, and the next request the event loop frames
    // must be shed with the canned 503 at once (not after a timeout).
    // Idle connections cost no worker here, so the pressure comes from
    // concurrent slow requests on separate connections; rounds repeat
    // until one of them finds the queue full.
    let mut server = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // No cache on /v1/simulate: every request pays the whole
    // simulation.
    let slow = post(
        "/v1/simulate",
        &format!(r#"{{"bound":12,"items":300000,"graph":{CHAIN}}}"#),
    );
    let mut shed = None;
    for _ in 0..20 {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let slow = slow.clone();
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    stream.write_all(slow.as_bytes()).expect("send");
                    let mut reply = Vec::new();
                    stream.read_to_end(&mut reply).expect("receive");
                    reply
                })
            })
            .collect();
        for client in clients {
            let reply = client.join().expect("client thread");
            let (status, _) = parse_response(&reply);
            if status == 503 {
                shed = Some(reply);
            } else {
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
            }
        }
        if shed.is_some() {
            break;
        }
    }
    let reply = shed.expect("four concurrent slow solves never filled a depth-1 queue");
    let raw = String::from_utf8_lossy(&reply).to_ascii_lowercase();
    assert!(raw.contains("retry-after:"), "{raw}");
    let (status, body) = parse_response(&reply);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(r#""code":"overloaded""#), "{body}");

    // The overload shows up in metrics once the queue has drained.
    let (_, metrics) = roundtrip(&server, &get("/metrics"));
    let rejected: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_rejected_overload_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(rejected >= 1, "{metrics}");
    server.shutdown();
}

#[test]
fn shutdown_joins_quickly() {
    let mut server = start(ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let (status, _) = roundtrip(&server, &get("/healthz"));
    assert_eq!(status, 200);
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn epoll_serves_more_persistent_connections_than_workers() {
    // The starvation scenario from EXPERIMENTS.md §SRV-OPEN: with 2
    // workers and 16 persistent connections, a thread-per-connection
    // server left 14 clients starving. Every connection must get
    // answers, because idle sockets cost no worker.
    let mut server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let clients: Vec<_> = (0..16)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut served = 0u32;
                for _ in 0..5 {
                    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
                    let mut status_line = String::new();
                    reader.read_line(&mut status_line).unwrap();
                    assert!(
                        status_line.starts_with("HTTP/1.1 200"),
                        "client {c}: {status_line}"
                    );
                    let mut content_length = 0usize;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if line.trim_end().is_empty() {
                            break;
                        }
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            content_length = v.trim().parse().unwrap();
                        }
                    }
                    let mut body = vec![0u8; content_length];
                    reader.read_exact(&mut body).unwrap();
                    served += 1;
                }
                served
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().expect("client thread"), 5);
    }
    // All 16 were open at once — visible to the event loop's gauge.
    let (_, metrics) = roundtrip(&server, &get("/metrics"));
    let wakeups: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tgp_readiness_wakeups_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(wakeups > 0, "{metrics}");
    server.shutdown();
}

/// A spill directory the server cannot create files in — here a
/// regular file — turns every spill into the RAM fallback: spilled
/// chain and tree requests, stateless and in a session, answer with the
/// bytes a RAM-backed server sends, and no graph counts as spilled.
#[test]
fn an_unusable_spill_dir_falls_back_to_the_ram_bytes() {
    let file = std::env::temp_dir().join(format!("tgp-spill-dir-is-a-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let mut spilling = start(ServerConfig {
        graph_spill_bytes: 0,
        graph_spill_dir: Some(file.clone()),
        ..ServerConfig::default()
    });
    let mut ram = start(ServerConfig::default());
    for (objective, graph) in [
        ("bandwidth", CHAIN),
        ("lexicographic", CHAIN),
        ("bottleneck", TREE),
        ("procmin", TREE),
    ] {
        let body = format!(r#"{{"objective":"{objective}","bound":12,"graph":{graph}}}"#);
        let want = roundtrip(&ram, &post("/v1/partition", &body));
        assert_eq!(want.0, 200, "{objective}: {}", want.1);
        let got = roundtrip(&spilling, &post("/v1/partition", &body));
        assert_eq!(got, want, "{objective}");
    }
    for (objective, graph) in [("lexicographic", CHAIN), ("procmin", TREE)] {
        let register = format!(r#"{{"graph":{graph}}}"#);
        let solve = format!(r#"{{"objective":"{objective}","bound":12}}"#);
        let mut bodies = Vec::new();
        for server in [&ram, &spilling] {
            let (status, reply) = roundtrip(server, &post("/v1/graphs", &register));
            assert_eq!(status, 200, "{reply}");
            let id = Value::parse(&reply).unwrap()["id"]
                .as_str()
                .expect("an id")
                .to_string();
            bodies.push(roundtrip(
                server,
                &post(&format!("/v1/graphs/{id}/partition"), &solve),
            ));
        }
        assert_eq!(bodies[0].0, 200, "{objective}: {}", bodies[0].1);
        assert_eq!(bodies[1], bodies[0], "session {objective}");
    }
    let (_, metrics) = roundtrip(&spilling, &get("/metrics"));
    assert!(metrics.contains("tgp_graph_spilled_total 0"), "{metrics}");
    spilling.shutdown();
    ram.shutdown();
    std::fs::remove_file(&file).unwrap();
}
