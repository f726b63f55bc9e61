//! Crash-recovery test for stateful sessions against the real `tgp
//! serve` binary: graphs are registered and edited over HTTP, the
//! server is killed with SIGKILL mid-stream (no graceful shutdown, no
//! journal compaction), and a restart on the same `--session-file`
//! must replay the journal back to exactly the last acked version of
//! every resident graph — proven by byte-comparing a session re-solve
//! against a scratch solve of a client-side mirror.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tgp_graph::json::Value;

struct ServeChild {
    child: Child,
    addr: String,
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `tgp serve --session-file` on an ephemeral port and waits
/// for the listening banner.
fn spawn_serve(session_file: &std::path::Path) -> ServeChild {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--session-file",
            session_file.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tgp serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let line = rx
            .recv_timeout(remaining)
            .expect("server banner before timeout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after banner")
                .to_string();
        }
    };
    ServeChild { child, addr }
}

/// One exchange on a fresh connection; returns status and body.
fn roundtrip(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
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

#[test]
fn sigkill_and_restart_replay_every_graph_to_its_last_acked_version() {
    let path = std::env::temp_dir().join(format!(
        "tgp-session-restart-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let first = spawn_serve(&path);

    // A chain session: register, then a stream of edit batches. The
    // mirror tracks what the resident graph must contain afterward.
    let mut chain_edges: Vec<u64> = vec![10, 1, 10, 2, 6];
    let chain_nodes: Vec<u64> = vec![2, 3, 5, 7, 2, 8];
    let register = r#"{"graph":{"node_weights":[2,3,5,7,2,8],"edge_weights":[10,1,10,2,6]}}"#;
    let (status, body) = roundtrip(&first.addr, "POST", "/v1/graphs", register);
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    let chain_id = v["id"].as_str().unwrap().to_string();
    let mut chain_version = v["version"].as_u64().unwrap();

    // A tree session alongside, to prove multi-graph replay.
    let tree = r#"{"graph":{"node_weights":[1,2,3,4,5],"edges":[{"a":0,"b":1,"weight":10},{"a":0,"b":2,"weight":20},{"a":2,"b":3,"weight":30},{"a":2,"b":4,"weight":5}]}}"#;
    let (status, body) = roundtrip(&first.addr, "POST", "/v1/graphs", tree);
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    let tree_id = v["id"].as_str().unwrap().to_string();
    let tree_version = v["version"].as_u64().unwrap();

    for round in 0..6u64 {
        let index = (round as usize * 3 + 1) % chain_edges.len();
        let weight = round * 5 + 3;
        chain_edges[index] = weight;
        let patch = format!(
            r#"{{"version":{chain_version},"edits":[{{"op":"edge_weight","index":{index},"weight":{weight}}}]}}"#
        );
        let (status, body) = roundtrip(
            &first.addr,
            "PATCH",
            &format!("/v1/graphs/{chain_id}"),
            &patch,
        );
        assert_eq!(status, 200, "{body}");
        chain_version = Value::parse(&body).unwrap()["version"].as_u64().unwrap();
    }
    assert_eq!(chain_version, 7, "six acked batches on top of v1");

    // SIGKILL (`Child::kill` on unix): no graceful shutdown, no
    // compaction — the journal's append-on-ack discipline is all
    // that survives.
    drop(first);

    let second = spawn_serve(&path);

    // Every graph is back at exactly its last acked version.
    let (status, body) = roundtrip(&second.addr, "GET", "/v1/graphs", "");
    assert_eq!(status, 200, "{body}");
    let listing = Value::parse(&body).unwrap();
    let graphs = listing["graphs"].as_array().unwrap();
    assert_eq!(graphs.len(), 2, "{body}");
    for graph in graphs {
        let id = graph["id"].as_str().unwrap();
        let version = graph["version"].as_u64().unwrap();
        if id == chain_id {
            assert_eq!(version, chain_version, "{body}");
        } else {
            assert_eq!(id, tree_id, "{body}");
            assert_eq!(version, tree_version, "{body}");
        }
    }

    // And the replayed chain *content* matches the mirror: a session
    // re-solve equals a scratch solve of the mirrored graph, byte
    // for byte.
    let (status, session_body) = roundtrip(
        &second.addr,
        "POST",
        &format!("/v1/graphs/{chain_id}/partition"),
        r#"{"objective":"lexicographic","bound":12}"#,
    );
    assert_eq!(status, 200, "{session_body}");
    let edges: Vec<String> = chain_edges.iter().map(u64::to_string).collect();
    let nodes: Vec<String> = chain_nodes.iter().map(u64::to_string).collect();
    let scratch_request = format!(
        r#"{{"objective":"lexicographic","bound":12,"graph":{{"node_weights":[{}],"edge_weights":[{}]}}}}"#,
        nodes.join(","),
        edges.join(",")
    );
    let (status, scratch_body) = roundtrip(&second.addr, "POST", "/v1/partition", &scratch_request);
    assert_eq!(status, 200, "{scratch_body}");
    assert_eq!(
        session_body, scratch_body,
        "replayed graph diverged from mirror"
    );

    // A stale-version PATCH against the replayed graph still 409s —
    // the version check survived the crash too.
    let (status, body) = roundtrip(
        &second.addr,
        "PATCH",
        &format!("/v1/graphs/{chain_id}"),
        r#"{"version":1,"edits":[{"op":"edge_weight","index":0,"weight":2}]}"#,
    );
    assert_eq!(status, 409, "{body}");

    drop(second);
    let _ = std::fs::remove_file(&path);
}
