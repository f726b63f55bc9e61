//! Crash-recovery test for the result-cache journal against the real
//! `tgp serve` binary: solves populate the cache (each insert is
//! journaled on ack), the server is killed with SIGKILL (no graceful
//! shutdown, no compaction), and a restart on the same `--cache-file`
//! must replay every acked entry — proven by the warm-load counter and
//! by re-requests hitting the cache instead of re-solving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// Spawns `tgp serve --cache-file` on an ephemeral port and waits for
/// the listening banner.
fn spawn_serve(cache_file: &std::path::Path) -> ServeChild {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache-file",
            cache_file.to_str().expect("utf-8 temp path"),
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

/// `tgp_<name> <value>` from a `/metrics` body.
fn gauge(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an integer"))
}

#[test]
fn sigkill_and_restart_replay_every_acked_cache_entry() {
    let path =
        std::env::temp_dir().join(format!("tgp-cache-restart-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first = spawn_serve(&path);

    // Five distinct solves, each inserted (and journaled) on ack.
    let requests: Vec<String> = (0..5u64)
        .map(|i| {
            format!(
                r#"{{"objective":"lexicographic","bound":{},"graph":{{"node_weights":[2,3,5,7,2,8],"edge_weights":[10,1,10,2,6]}}}}"#,
                12 + i
            )
        })
        .collect();
    let mut bodies = Vec::new();
    for request in &requests {
        let (status, body) = roundtrip(&first.addr, "POST", "/v1/partition", request);
        assert_eq!(status, 200, "{body}");
        bodies.push(body);
    }
    let (_, metrics) = roundtrip(&first.addr, "GET", "/metrics", "");
    assert_eq!(gauge(&metrics, "tgp_cache_entries"), 5, "{metrics}");
    assert!(
        gauge(&metrics, "tgp_cache_journal_bytes") > 0,
        "journal must have grown:\n{metrics}"
    );

    // SIGKILL (`Child::kill` on unix): no shutdown dump, no
    // compaction — append-on-ack is all that survives.
    drop(first);

    let second = spawn_serve(&path);

    // Every acked entry replayed.
    let (_, metrics) = roundtrip(&second.addr, "GET", "/metrics", "");
    assert_eq!(gauge(&metrics, "tgp_cache_entries"), 5, "{metrics}");
    assert_eq!(
        gauge(&metrics, "tgp_cache_warm_loaded_total"),
        5,
        "{metrics}"
    );
    let hits_before = gauge(&metrics, "tgp_cache_hits_total");

    // Re-requests are served from the replayed cache, byte-identical
    // to the pre-crash responses.
    for (request, expected) in requests.iter().zip(&bodies) {
        let (status, body) = roundtrip(&second.addr, "POST", "/v1/partition", request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, expected, "replayed entry diverged");
    }
    let (_, metrics) = roundtrip(&second.addr, "GET", "/metrics", "");
    assert_eq!(
        gauge(&metrics, "tgp_cache_hits_total"),
        hits_before + 5,
        "all five re-requests must hit the replayed cache:\n{metrics}"
    );

    drop(second);
    let _ = std::fs::remove_file(&path);
}
