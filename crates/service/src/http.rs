//! A deliberately small HTTP/1.1 layer over framed request bytes.
//!
//! Supports exactly what the partition service needs: request line +
//! headers + `Content-Length` bodies, keep-alive, and plain-text or JSON
//! responses. The `tgp-net` event loop frames each request into one
//! heap buffer and hands that buffer to a worker, which parses it in
//! place with [`read_framed`]: the head is read from the front and the
//! body is served from the same buffer, so a body is copied once, from
//! the socket into the frame, however large it is. `--max-body-bytes`
//! therefore bounds the heap one request pins.
//!
//! [`read_request_spilling`] reads a request from any [`BufRead`]
//! stream instead, optionally streaming a large body into an unlinked
//! [`SpillBuf`] file; both readers share one head parser, so they agree
//! on every head and every error. Responses serialize into a `Vec<u8>`
//! that the loop flushes. Transfer-encodings are rejected with 400
//! (only `Content-Length` framing is understood); multipart, TLS and
//! HTTP/2 are out of scope. Every parse failure maps to a structured
//! status code so malformed input can never panic a worker.

use std::io::{BufRead, Write};
use std::ops::{Deref, Range};
use std::path::PathBuf;

use tgp_store::SpillBuf;

/// Upper bound on the request line plus headers, in bytes. The framer
/// in `tgp-net` enforces the same cap, so an oversized head is refused
/// before a worker ever sees it.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;

/// A request body. Either way it derefs to `&[u8]`, so handlers never
/// care where the bytes live.
pub enum Body {
    /// A body of its own on the heap.
    Ram(Vec<u8>),
    /// The body where it arrived: `frame[body]`, inside the buffer the
    /// event loop framed the whole request into ([`read_framed`]).
    Framed {
        /// The whole framed request, head included.
        frame: Vec<u8>,
        /// Where the body sits in `frame`.
        body: Range<usize>,
    },
    /// A body [`read_request_spilling`] streamed into an unlinked disk
    /// mapping while reading it.
    Spilled(SpillBuf),
}

impl Body {
    /// Whether the body lives in a spill file rather than on the heap.
    pub fn is_spilled(&self) -> bool {
        matches!(self, Body::Spilled(_))
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Body::Ram(v) => v,
            Body::Framed { frame, body } => &frame[body.clone()],
            Body::Spilled(b) => b.as_slice(),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Self {
        Body::Ram(v)
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Body::Ram(_) => "Ram",
            Body::Framed { .. } => "Framed",
            Body::Spilled(_) => "Spilled",
        };
        write!(f, "Body::{kind}({} bytes)", self.len())
    }
}

/// Where (and past what size) [`read_request_spilling`] spills request
/// bodies to disk while reading them. `None` spill policy means every
/// body is heap-resident.
#[derive(Debug, Clone)]
pub struct BodySpill {
    /// Bodies with `Content-Length >= threshold` stream into a spill
    /// buffer instead of the heap.
    pub threshold: usize,
    /// Directory for the (immediately unlinked) spill files.
    pub dir: PathBuf,
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query string not split off; the service has
    /// no query parameters).
    pub path: String,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Body,
    /// Whether the connection should stay open after this exchange.
    pub keep_alive: bool,
}

impl Request {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The bytes ended before a complete request — nothing to respond
    /// to.
    Disconnected,
    /// Request was syntactically invalid → respond 400.
    BadRequest(String),
    /// Declared body exceeds the service limit → respond 413.
    BodyTooLarge {
        /// The `Content-Length` the client declared.
        declared: usize,
        /// The server's body-size limit.
        limit: usize,
    },
}

/// Reads one request from any buffered source.
///
/// `max_body` bounds the accepted `Content-Length`; larger declarations
/// are rejected *before* reading the body, so an oversized upload costs
/// the server only the header bytes.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, RecvError> {
    read_request_spilling(reader, max_body, None)
}

/// [`read_request`] with an optional body-spill policy: bodies whose
/// declared length is at or past `spill.threshold` are read in bounded
/// chunks straight into a [`SpillBuf`], never materializing the whole
/// payload on the heap. If the spill directory turns out to be
/// unwritable the read falls back to the heap rather than failing the
/// request.
pub fn read_request_spilling<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    spill: Option<&BodySpill>,
) -> Result<Request, RecvError> {
    let head = read_head(reader, max_body)?;
    let body = read_body(reader, head.content_length, spill)?;
    Ok(head.with_body(body))
}

/// Parses one framed request in place: the head from the front of
/// `frame`, the body served from the same buffer ([`Body::Framed`]), so
/// the body is not copied again. Heads and errors are exactly
/// [`read_request_spilling`]'s, through the same head parser; bytes
/// past the declared body are ignored, as that reader leaves them
/// unread.
pub fn read_framed(frame: Vec<u8>, max_body: usize) -> Result<Request, RecvError> {
    let mut rest = frame.as_slice();
    let head = read_head(&mut rest, max_body)?;
    if rest.len() < head.content_length {
        return Err(RecvError::Disconnected);
    }
    let start = frame.len() - rest.len();
    let body = match head.content_length {
        0 => Body::Ram(Vec::new()),
        len => Body::Framed {
            frame,
            body: start..start + len,
        },
    };
    Ok(head.with_body(body))
}

/// A validated request head: everything but the body.
struct Head {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    keep_alive: bool,
    content_length: usize,
}

impl Head {
    fn with_body(self, body: Body) -> Request {
        Request {
            method: self.method,
            path: self.path,
            headers: self.headers,
            body,
            keep_alive: self.keep_alive,
        }
    }
}

/// The one head parser: reads the request line and headers from
/// `reader`, leaving it at the first body byte, and validates the
/// framing headers — no `Transfer-Encoding`, a well-formed
/// `Content-Length` of at most `max_body`.
fn read_head<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Head, RecvError> {
    let mut head_bytes = 0usize;

    let request_line = read_line(reader, &mut head_bytes)?;
    if request_line.is_empty() {
        return Err(RecvError::Disconnected);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RecvError::BadRequest("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| RecvError::BadRequest("request line has no path".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| RecvError::BadRequest("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let http10 = version == "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RecvError::BadRequest("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RecvError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => !http10,
    };

    // This layer only understands Content-Length framing. A request
    // bearing Transfer-Encoding (chunked or otherwise) must be rejected
    // outright: treating it as body-less would leave the chunked payload
    // in the buffer to be misread as the next pipelined request —
    // request smuggling behind any proxy.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(RecvError::BadRequest(
            "transfer-encoding is not supported; use content-length".into(),
        ));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| RecvError::BadRequest(format!("bad content-length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(RecvError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    Ok(Head {
        method,
        path,
        headers,
        keep_alive,
        content_length,
    })
}

/// Bytes read per `read_exact` round while streaming a spilled body —
/// the heap high-water mark of a spilled read.
const BODY_CHUNK: usize = 64 * 1024;

/// Reads exactly `content_length` body bytes, spilling to disk when the
/// policy says so.
fn read_body<R: BufRead>(
    reader: &mut R,
    content_length: usize,
    spill: Option<&BodySpill>,
) -> Result<Body, RecvError> {
    if content_length == 0 {
        return Ok(Body::Ram(Vec::new()));
    }
    if let Some(policy) = spill {
        if content_length >= policy.threshold {
            return read_body_spilled(reader, content_length, policy);
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| RecvError::Disconnected)?;
    Ok(Body::Ram(body))
}

/// Streams a body into a [`SpillBuf`] in [`BODY_CHUNK`]-sized rounds.
/// A spill-storage failure (unwritable dir, disk full) degrades to a
/// heap read — worse for memory, but the request still succeeds.
fn read_body_spilled<R: BufRead>(
    reader: &mut R,
    content_length: usize,
    policy: &BodySpill,
) -> Result<Body, RecvError> {
    // Threshold 0: the very first chunk migrates to disk, so the heap
    // never holds more than one chunk of a spilled body.
    let mut buf = SpillBuf::new(0, &policy.dir);
    let mut chunk = vec![0u8; BODY_CHUNK.min(content_length)];
    let mut remaining = content_length;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        reader
            .read_exact(&mut chunk[..take])
            .map_err(|_| RecvError::Disconnected)?;
        if buf.extend_from_slice(&chunk[..take]).is_err() {
            let mut body = Vec::with_capacity(content_length);
            body.extend_from_slice(buf.as_slice());
            body.extend_from_slice(&chunk[..take]);
            remaining -= take;
            let start = body.len();
            body.resize(start + remaining, 0);
            reader
                .read_exact(&mut body[start..])
                .map_err(|_| RecvError::Disconnected)?;
            return Ok(Body::Ram(body));
        }
        remaining -= take;
    }
    Ok(Body::Spilled(buf))
}

/// Reads one CRLF-terminated line, enforcing the head-size budget.
fn read_line<R: BufRead>(reader: &mut R, head_bytes: &mut usize) -> Result<String, RecvError> {
    let mut line = Vec::new();
    loop {
        let available = reader.fill_buf().map_err(|_| RecvError::Disconnected)?;
        if available.is_empty() {
            if line.is_empty() {
                return Err(RecvError::Disconnected);
            }
            return Err(RecvError::BadRequest("truncated header line".into()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(available.len());
        *head_bytes += take;
        if *head_bytes > MAX_HEAD_BYTES {
            return Err(RecvError::BadRequest("request head too large".into()));
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| RecvError::BadRequest("non-UTF-8 header bytes".into()));
        }
    }
}

/// Reason phrases for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes a response onto any sink — in the server, a `Vec<u8>`
/// that the event loop later flushes with partial-write resumption.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, &[], body, keep_alive)
}

/// [`write_response`] with extra response headers (name, value) — the
/// session endpoints use it for `x-tgp-response`. Names and values are
/// caller-controlled constants, never client input.
pub fn write_response_with<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&'static str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// The 503 the event loop answers with when the worker queue is full.
/// The body is the same v2 envelope as every other error the service
/// emits, with `retry_after` mirrored in a `retry-after` header
/// (seconds) so well-behaved clients back off for roughly as long as
/// the queue needs to drain.
pub fn overloaded_response(retry_after_secs: u64) -> Vec<u8> {
    let body = crate::envelope::envelope_body(
        "overloaded",
        "server overloaded, retry shortly",
        Some(retry_after_secs),
        None,
        false,
    );
    format!(
        "HTTP/1.1 503 Service Unavailable\r\n\
         content-type: application/json\r\n\
         content-length: {}\r\n\
         retry-after: {}\r\n\
         connection: close\r\n\
         \r\n\
         {}",
        body.len(),
        retry_after_secs,
        body,
    )
    .into_bytes()
}

/// How long a shed client should wait before retrying: roughly one
/// "queue drain" at one request per worker per second — pessimistic for
/// cheap requests, but a 503 means the server is already behind.
/// Clamped to `[1, 30]` so the hint is always actionable.
pub fn retry_after_secs(queue_len: usize, workers: usize) -> u64 {
    (queue_len.div_ceil(workers.max(1)) as u64).clamp(1, 30)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_503_content_length_matches_body() {
        let bytes = overloaded_response(7);
        let text = std::str::from_utf8(&bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(declared, body.len());
        assert!(head.contains("retry-after: 7"));
        assert_eq!(
            body,
            "{\"code\":\"overloaded\",\"message\":\"server overloaded, retry shortly\",\
             \"retry_after\":7}\n"
        );
        assert_eq!(
            crate::envelope::parse_envelope(body.as_bytes()).unwrap(),
            "overloaded"
        );
    }

    #[test]
    fn retry_after_scales_with_queue_depth_within_bounds() {
        assert_eq!(retry_after_secs(0, 4), 1, "never advertise zero");
        assert_eq!(retry_after_secs(4, 4), 1);
        assert_eq!(retry_after_secs(9, 4), 3);
        assert_eq!(retry_after_secs(1_000_000, 4), 30, "capped");
        assert_eq!(retry_after_secs(5, 0), 5, "zero workers must not panic");
    }

    #[test]
    fn reasons_cover_service_statuses() {
        for s in [200, 400, 404, 405, 409, 413, 422, 500, 503, 504] {
            assert_ne!(reason(s), "Unknown");
        }
    }

    fn framed_post(body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "POST /v1/partition HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    #[test]
    fn large_body_spills_and_round_trips_byte_identically() {
        // 3 chunks + a ragged tail, so the chunked loop exercises both
        // full and partial rounds.
        let payload: Vec<u8> = (0..BODY_CHUNK * 3 + 17).map(|i| (i % 251) as u8).collect();
        let wire = framed_post(&payload);
        let spill = BodySpill {
            threshold: 1024,
            dir: std::env::temp_dir(),
        };
        let req = read_request_spilling(&mut wire.as_slice(), usize::MAX, Some(&spill)).unwrap();
        assert!(req.body.is_spilled(), "{:?}", req.body);
        assert_eq!(&req.body[..], &payload[..]);
    }

    #[test]
    fn small_body_stays_on_the_heap() {
        let wire = framed_post(b"{\"small\":true}");
        let spill = BodySpill {
            threshold: 1024,
            dir: std::env::temp_dir(),
        };
        let req = read_request_spilling(&mut wire.as_slice(), usize::MAX, Some(&spill)).unwrap();
        assert!(!req.body.is_spilled());
        assert_eq!(&req.body[..], b"{\"small\":true}");
    }

    #[test]
    fn unwritable_spill_dir_falls_back_to_heap() {
        let payload: Vec<u8> = (0..BODY_CHUNK + 5).map(|i| (i % 13) as u8).collect();
        let wire = framed_post(&payload);
        let spill = BodySpill {
            threshold: 1,
            dir: std::path::PathBuf::from("/definitely/not/a/real/dir"),
        };
        let req = read_request_spilling(&mut wire.as_slice(), usize::MAX, Some(&spill)).unwrap();
        assert!(!req.body.is_spilled(), "must degrade to RAM, not fail");
        assert_eq!(&req.body[..], &payload[..]);
    }

    #[test]
    fn spilled_body_still_enforces_max_body_before_reading() {
        let payload = vec![7u8; 4096];
        let wire = framed_post(&payload);
        let spill = BodySpill {
            threshold: 1,
            dir: std::env::temp_dir(),
        };
        let err = read_request_spilling(&mut wire.as_slice(), 100, Some(&spill)).unwrap_err();
        assert_eq!(
            err,
            RecvError::BodyTooLarge {
                declared: 4096,
                limit: 100
            }
        );
    }

    #[test]
    fn framed_and_streaming_readers_agree() {
        let max_body = 64;
        let mut cases: Vec<Vec<u8>> = vec![
            framed_post(b"{\"small\":true}"),
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            b"POST /v1/partition HTTP/1.1\ncontent-length: 3\nX-Trace-Id: 7\n\nabc".to_vec(),
            b"POST /x HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhi".to_vec(),
            b"POST /x HTTP/1.1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\ncontent-length: -1\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                .to_vec(),
            framed_post(&[b'x'; 65]),
            b"GET /x HTTP/1.1\r\nx-bad: \xff\xfe\r\n\r\n".to_vec(),
            b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
            b"GET /x SPDY/3\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\nshort".to_vec(),
            b"GET /x HTTP/1.1\r\nHost: x".to_vec(),
            Vec::new(),
        ];
        // Bytes past the declared body are left alone by both.
        let mut pipelined = framed_post(b"{}");
        pipelined.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        cases.push(pipelined);
        for wire in cases {
            let streamed = read_request_spilling(&mut wire.as_slice(), max_body, None);
            let framed = read_framed(wire.clone(), max_body);
            let text = String::from_utf8_lossy(&wire).into_owned();
            match (streamed, framed) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        (&a.method, &a.path, &a.headers, a.keep_alive),
                        (&b.method, &b.path, &b.headers, b.keep_alive),
                        "{text:?}"
                    );
                    assert_eq!(&a.body[..], &b.body[..], "{text:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{text:?}"),
                (a, b) => panic!("readers disagree on {text:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn framed_body_is_served_from_the_frame() {
        let payload: Vec<u8> = (0..BODY_CHUNK * 2 + 3).map(|i| (i % 251) as u8).collect();
        let wire = framed_post(&payload);
        let frame_start = wire.as_ptr() as usize;
        let req = read_framed(wire, usize::MAX).unwrap();
        assert!(matches!(req.body, Body::Framed { .. }), "{:?}", req.body);
        assert_eq!(&req.body[..], &payload[..]);
        let body_start = req.body.as_ptr() as usize;
        assert!(body_start > frame_start && body_start - frame_start < 128);
    }

    #[test]
    fn extra_headers_land_between_standard_head_and_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "application/json",
            &[("x-tgp-response", "delta".to_string())],
            b"{}\n",
            true,
        )
        .unwrap();
        let text = std::str::from_utf8(&out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("x-tgp-response: delta"), "{head}");
        assert_eq!(body, "{}\n");
    }
}
