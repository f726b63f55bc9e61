//! A deliberately small HTTP/1.1 layer over framed request bytes.
//!
//! Supports exactly what the partition service needs: request line +
//! headers + `Content-Length` bodies, keep-alive, and plain-text or JSON
//! responses. The `tgp-net` event loop frames each request and a worker
//! parses the framed `&[u8]` here; responses serialize into a `Vec<u8>`
//! that the loop flushes. Transfer-encodings are rejected with 400 (only
//! `Content-Length` framing is understood); multipart, TLS and HTTP/2
//! are out of scope. Every parse failure maps to a structured status
//! code so malformed input can never panic a worker.

use std::io::{BufRead, Write};
use std::ops::Deref;
use std::path::PathBuf;

use tgp_store::SpillBuf;

/// Upper bound on the request line plus headers, in bytes. The framer
/// in `tgp-net` enforces the same cap, so an oversized head is refused
/// before a worker ever sees it.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;

/// A request body. Small bodies live on the heap; bodies whose declared
/// `Content-Length` crosses the server's spill threshold stream into an
/// unlinked [`SpillBuf`] file instead, so one huge upload cannot pin
/// gigabytes of worker heap. Either way it derefs to `&[u8]`, so
/// handlers never care where the bytes live.
pub enum Body {
    /// Heap-resident body (the common case).
    Ram(Vec<u8>),
    /// Body streamed into an unlinked disk mapping while being read.
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
        let kind = if self.is_spilled() { "Spilled" } else { "Ram" };
        write!(f, "Body::{kind}({} bytes)", self.len())
    }
}

/// Where (and past what size) request bodies spill to disk while being
/// read. `None` spill policy means every body is heap-resident.
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

/// Reads one request from any buffered source — in the server, the
/// `&[u8]` of framed bytes the event loop hands a worker.
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

    let body = read_body(reader, content_length, spill)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
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
/// session endpoints use it for `x-tgp-solve`. Names and values are
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
    fn extra_headers_land_between_standard_head_and_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "application/json",
            &[("x-tgp-solve", "warm".to_string())],
            b"{}\n",
            true,
        )
        .unwrap();
        let text = std::str::from_utf8(&out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("x-tgp-solve: warm"), "{head}");
        assert_eq!(body, "{}\n");
    }
}
