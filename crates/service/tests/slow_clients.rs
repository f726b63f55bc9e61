//! Slow and half-dead clients: a connection that trickles bytes, stalls
//! mid-upload, or stops reading must be reclaimed by the server's
//! timeouts — with the close attributed to the right
//! `tgp_timeout_closes_total{kind=...}` series — while well-behaved
//! half-closes still get their full response. The event loop enforces
//! every deadline with its timer wheel.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use tgp_service::{Server, ServerConfig};

/// A server with deliberately short deadlines so slow-client tests run
/// in milliseconds, not minutes.
fn start() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Scrapes `/metrics` and returns the value of `series` (exact prefix
/// match including labels, e.g. `tgp_timeout_closes_total{kind="read"}`).
fn scrape(server: &Server, series: &str) -> u64 {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect for scrape");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("send scrape");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read scrape");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(series) {
            if let Ok(v) = rest.trim().parse() {
                return v;
            }
        }
    }
    panic!("series {series:?} not found in /metrics:\n{text}");
}

/// Polls `series` until it reaches at least `want` or `patience` runs
/// out; timeouts fire on the server's clock, not ours, so asserting a
/// single post-sleep scrape would race.
fn wait_for_at_least(server: &Server, series: &str, want: u64, patience: Duration) -> u64 {
    let deadline = Instant::now() + patience;
    loop {
        let got = scrape(server, series);
        if got >= want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

const READ_SERIES: &str = "tgp_timeout_closes_total{kind=\"read\"}";
const IDLE_SERIES: &str = "tgp_timeout_closes_total{kind=\"idle\"}";
const WRITE_SERIES: &str = "tgp_timeout_closes_total{kind=\"write\"}";

/// A request whose response is far bigger than the kernel's socket
/// buffers (an all-nines chain under bound 9 cuts every edge, so the
/// `cut` array carries one index per edge), forcing the event loop to
/// park the connection mid-write — the only state in which the write
/// deadline matters at all.
fn huge_response_request(nodes: usize) -> Vec<u8> {
    let node_weights = vec!["9"; nodes].join(",");
    let edge_weights = vec!["1"; nodes - 1].join(",");
    let body = format!(
        r#"{{"objective":"bandwidth","bound":9,"graph":{{"node_weights":[{node_weights}],"edge_weights":[{edge_weights}]}}}}"#
    );
    format!(
        "POST /v1/partition HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A server tuned for the write-deadline scenarios: a short write
/// window under the fixed progress floor (`tgp_net::WRITE_MIN_BYTES`
/// per window), a read deadline long enough to upload the multi-megabyte
/// request, and a body cap that admits it.
fn start_for_write_deadline() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(10),
        max_body_bytes: 32 << 20,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// ~900k cut indices ≈ 6 MB of response JSON: comfortably past the
/// ~4 MB the kernel will buffer for an unread loopback socket.
const HUGE_NODES: usize = 900_000;

#[test]
fn stalled_reader_is_reclaimed_by_the_write_deadline() {
    let mut server = start_for_write_deadline();
    let before = scrape(&server, WRITE_SERIES);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(&huge_response_request(HUGE_NODES))
        .expect("send request");
    // Never read: the response fills the socket buffers and stops
    // making progress, so the write deadline must fire even though the
    // first window saw plenty of progress (the buffer fill). The close
    // lands within two windows: one that renews on the fill, one that
    // sees no progress.
    // Generous patience: under a full parallel test run on one core
    // the ~900k-node debug solve alone can take tens of seconds
    // before the first response byte is written.
    let after = wait_for_at_least(&server, WRITE_SERIES, before + 1, Duration::from_secs(120));
    assert!(
        after > before,
        "stalled reader never tripped the write timeout ({before} -> {after})"
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn slow_but_live_reader_survives_the_write_deadline() {
    let mut server = start_for_write_deadline();
    let before = scrape(&server, WRITE_SERIES);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Patience matches the stalled-reader test: the first byte only
    // arrives once the huge solve finishes, which can take tens of
    // seconds when the whole suite shares one core.
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(&huge_response_request(HUGE_NODES))
        .expect("send request");

    // Drain the response in small sips with deliberate pauses: far
    // slower than one write-timeout window end to end, but each window
    // sees well over `WRITE_MIN_BYTES` of progress, so the deadline
    // keeps renewing. Under a *total* write deadline this reader would
    // be cut off mid-body.
    let started = Instant::now();
    let mut response = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("read failed after {} bytes: {e}", response.len()),
        }
    }
    let elapsed = started.elapsed();

    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = String::from_utf8_lossy(&response[..head_end]);
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "slow reader got: {}",
        &head[..head.len().min(200)]
    );
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric content-length");
    assert_eq!(
        response.len() - head_end - 4,
        declared,
        "body truncated mid-write"
    );
    assert!(
        elapsed > Duration::from_millis(600),
        "response drained too fast ({elapsed:?}) to exercise deadline renewal; \
         grow HUGE_NODES"
    );
    assert_eq!(
        scrape(&server, WRITE_SERIES),
        before,
        "a live (if slow) reader was charged a write-timeout close"
    );
    server.shutdown();
}

#[test]
fn slowloris_head_is_reclaimed_by_the_read_timeout() {
    let mut server = start();
    let before = scrape(&server, READ_SERIES);

    // Trickle a request head one byte at a time, far slower than the
    // read deadline allows. The deadline is a *total* budget per
    // request, so steady progress must not reset it — that is the
    // whole slowloris defense.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let head = b"GET /healthz HTTP/1.1\r\nx-slow: aaaaaaaaaaaaaaaa\r\n";
    for &byte in head {
        if stream.write_all(&[byte]).is_err() {
            break; // server already reclaimed the connection
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    let after = wait_for_at_least(&server, READ_SERIES, before + 1, Duration::from_secs(5));
    assert!(
        after > before,
        "slowloris head never tripped the read timeout ({before} -> {after})"
    );
    // The reclaimed socket must actually be dead: draining it yields
    // EOF (or an error), never a response.
    let mut sink = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let drained = stream.read_to_end(&mut sink);
    assert!(
        drained.is_err() || sink.is_empty(),
        "got bytes from a timed-out connection: {:?}",
        String::from_utf8_lossy(&sink)
    );
    server.shutdown();
}

#[test]
fn mid_body_stall_is_reclaimed_by_the_read_timeout() {
    let mut server = start();
    let before = scrape(&server, READ_SERIES);

    // A complete head declaring 100 bytes, then 10 bytes, then silence:
    // the server must not hold the connection slot past the read
    // deadline.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"POST /v1/partition HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"a\": 1}")
        .expect("send partial body");

    let after = wait_for_at_least(&server, READ_SERIES, before + 1, Duration::from_secs(5));
    assert!(
        after > before,
        "stalled body never tripped the read timeout ({before} -> {after})"
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn half_close_after_the_request_still_gets_the_full_response() {
    let mut server = start();

    // Shutting down the write side after the request is a legal HTTP
    // idiom ("I have nothing more to say"), not a disconnect: the
    // response must still arrive in full.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.starts_with("HTTP/1.1 200"),
        "half-closed client got: {text:?}"
    );
    assert!(text.contains("\"status\""), "truncated: {text:?}");
    server.shutdown();
}

#[test]
fn quiet_keepalive_connection_is_reaped() {
    let mut server = start();
    // The event loop distinguishes idle keep-alive quiet from a
    // mid-request stall.
    let before = scrape(&server, IDLE_SERIES);

    // One full exchange, then silence on the kept-alive socket.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("send request");
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).expect("read response");
    assert!(
        String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"),
        "first exchange failed"
    );

    let after = wait_for_at_least(&server, IDLE_SERIES, before + 1, Duration::from_secs(5));
    assert!(
        after > before,
        "quiet keep-alive connection never reaped ({IDLE_SERIES}: {before} -> {after})"
    );
    // The server must have closed its end: draining the socket (the
    // first read above may have been short) ends in EOF rather than our
    // 10 s client timeout.
    let mut residue = Vec::new();
    let eof = stream.read_to_end(&mut residue);
    assert!(eof.is_ok(), "socket still open after idle reap: {eof:?}");
    drop(stream);
    server.shutdown();
}
