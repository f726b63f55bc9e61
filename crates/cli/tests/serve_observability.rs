//! End-to-end trace test against the real `tgp serve` binary: a
//! client-supplied `x-trace-id` must show up (a) in the access-log
//! line on stderr, with the new `queue_us`/`total_us` fields, and
//! (b) in `GET /debug/trace/<id>`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tgp_graph::json::Value;

const TRACE_ID: &str = "00c0ffee0ddf00d1";
const CHAIN: &str = r#"{"node_weights":[2,3,5,7,2,8],"edge_weights":[10,1,10,2,6]}"#;

struct ServeChild {
    child: Child,
    addr: String,
    stderr_lines: mpsc::Receiver<String>,
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `tgp serve` on an ephemeral port and waits for the
/// "listening on" banner; stderr keeps streaming into a channel so
/// the test can await access-log lines without blocking forever.
fn spawn_serve() -> ServeChild {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tgp"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--log-requests",
            "--debug-endpoints",
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
    ServeChild {
        child,
        addr,
        stderr_lines: rx,
    }
}

fn roundtrip(addr: &str, request: &str) -> (u16, String) {
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
fn epoll_mode_roundtrips_client_trace_id() {
    let server = spawn_serve();

    let body = format!(r#"{{"objective":"bandwidth","bound":12,"graph":{CHAIN}}}"#);
    let request = format!(
        "POST /v1/partition HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nx-trace-id: {TRACE_ID}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, _) = roundtrip(&server.addr, &request);
    assert_eq!(status, 200);

    // The access log line carries the adopted trace id and the new
    // queue/total fields.
    let deadline = Instant::now() + Duration::from_secs(10);
    let access = loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let line = server
            .stderr_lines
            .recv_timeout(remaining)
            .expect("access-log line before timeout");
        if line.starts_with("tgp-access") && line.contains("path=/v1/partition") {
            break line;
        }
    };
    for field in [
        "method=POST",
        "objective=bandwidth",
        "status=200",
        "queue_us=",
        "total_us=",
        &format!("trace={TRACE_ID}"),
    ] {
        assert!(access.contains(field), "{field} missing in {access}");
    }

    // The same id resolves through the debug surface.
    let (status, body) = roundtrip(
        &server.addr,
        &format!("GET /debug/trace/{TRACE_ID} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    );
    assert_eq!(status, 200, "{body}");
    let trace = Value::parse(&body).expect("trace JSON");
    assert_eq!(trace["trace"].as_str(), Some(TRACE_ID));
    assert_eq!(trace["endpoint"].as_str(), Some("partition"));
    assert!(
        !trace["spans"].as_array().expect("spans").is_empty(),
        "no spans in {body}"
    );
}
