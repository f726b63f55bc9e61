//! Incremental HTTP/1.1 request *framing* (not parsing).
//!
//! The event loop needs exactly one thing from HTTP: to know where a
//! request ends, so it can hand a complete byte slice to a worker. Full
//! parsing — method/path dispatch, header validation, error responses —
//! stays in `tgp-service`, which parses the framed bytes on a worker.
//! The framer only ever answers "complete / need more / unframeable",
//! never "valid".
//!
//! Framing rules (mirroring the service's parser limits):
//! - the head (request line + headers) ends at the first blank line and
//!   may not exceed `max_head_bytes`;
//! - the body length is the last `Content-Length` value if present,
//!   else 0, and may not exceed `max_body_bytes`;
//! - `Transfer-Encoding` requests are framed with body 0 — the service
//!   rejects them with 400 + close, so the unread body is never
//!   misinterpreted as a pipelined request.

/// Why a connection's bytes cannot be framed. The service maps each
/// variant to the HTTP error its own parser gives for the same fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// No blank line within `max_head_bytes`.
    HeadTooLarge,
    /// `Content-Length` present but not a valid non-negative integer.
    BadContentLength,
    /// Declared body exceeds the configured cap.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: u64,
        /// The configured cap it exceeded.
        limit: u64,
    },
}

/// Result of a framing attempt over a connection's read buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// Not enough bytes yet; keep reading.
    Partial,
    /// A complete request occupies `buf[..len]`.
    Complete {
        /// Total framed length: head + blank line + body.
        len: usize,
    },
    /// The bytes can never become a frameable request.
    Error(FrameError),
}

/// Limits the framer enforces; mirror the service's parser caps.
#[derive(Debug, Clone, Copy)]
pub struct FrameLimits {
    /// Maximum bytes of request line + headers, including terminator.
    pub max_head_bytes: usize,
    /// Maximum declared body size in bytes.
    pub max_body_bytes: u64,
}

/// Attempts to frame one request at the start of `buf`.
pub fn frame(buf: &[u8], limits: &FrameLimits) -> FrameStatus {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            // The terminator straddles chunk boundaries, so only give up
            // once the buffer is past the cap with no terminator inside
            // the capped prefix.
            if buf.len() >= limits.max_head_bytes {
                return FrameStatus::Error(FrameError::HeadTooLarge);
            }
            return FrameStatus::Partial;
        }
    };
    if head_end > limits.max_head_bytes {
        return FrameStatus::Error(FrameError::HeadTooLarge);
    }
    let head = &buf[..head_end];
    let body_len = if has_header(head, b"transfer-encoding") {
        // Framed as body-less; the service's parser rejects it and the
        // connection closes, so trailing chunked bytes are never
        // replayed as a new request.
        0
    } else {
        match content_length(head) {
            Ok(len) => len,
            Err(e) => return FrameStatus::Error(e),
        }
    };
    if body_len > limits.max_body_bytes {
        return FrameStatus::Error(FrameError::BodyTooLarge {
            declared: body_len,
            limit: limits.max_body_bytes,
        });
    }
    let total = head_end + body_len as usize;
    if buf.len() >= total {
        FrameStatus::Complete { len: total }
    } else {
        FrameStatus::Partial
    }
}

/// Index one past the head terminator (`\r\n\r\n` or `\n\n`), if any.
/// The service's line-based parser treats a bare `\n` as a line ending,
/// so the framer must too, or the two would disagree on where a request
/// ends.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // Line ended at i. A following `\n` or `\r\n` is blank.
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Case-insensitively checks whether `head` contains header `name`.
fn has_header(head: &[u8], name: &[u8]) -> bool {
    header_value(head, name).is_some()
}

/// Returns the value of header `name` from a complete framed request
/// (head + body), or `None` when the header is absent or the head never
/// terminates. Lets the event loop and workers peek at routing-relevant
/// headers (e.g. `x-deadline-ms`) without running the full parser.
pub fn request_header_value<'a>(buf: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    let head_end = find_head_end(buf)?;
    header_value(&buf[..head_end], name)
}

/// Returns the value slice of the *last* occurrence of header `name`
/// (the service's parser keeps the last duplicate; match it).
fn header_value<'a>(head: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    let mut found = None;
    for line in head.split(|&b| b == b'\n').skip(1) {
        let line = trim_ascii(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let key = trim_ascii(&line[..colon]);
        if key.len() == name.len()
            && key
                .iter()
                .zip(name.iter())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            found = Some(trim_ascii(&line[colon + 1..]));
        }
    }
    found
}

fn trim_ascii(mut bytes: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = bytes {
        if first.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = bytes {
        if last.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// Parses the `Content-Length` of `head`, defaulting to 0 when absent.
fn content_length(head: &[u8]) -> Result<u64, FrameError> {
    let Some(value) = header_value(head, b"content-length") else {
        return Ok(0);
    };
    let text = std::str::from_utf8(value).map_err(|_| FrameError::BadContentLength)?;
    text.trim()
        .parse::<u64>()
        .map_err(|_| FrameError::BadContentLength)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: FrameLimits = FrameLimits {
        max_head_bytes: 1024,
        max_body_bytes: 4096,
    };

    #[test]
    fn frames_a_bodyless_get() {
        let req = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Complete { len: req.len() }
        );
    }

    #[test]
    fn frames_a_post_with_body_and_trailing_pipelined_bytes() {
        let req = b"POST /v2/partition HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /next";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Complete { len: req.len() - 9 }
        );
    }

    #[test]
    fn partial_until_body_arrives() {
        let head = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(frame(head, &LIMITS), FrameStatus::Partial);
    }

    #[test]
    fn partial_mid_header() {
        assert_eq!(
            frame(b"GET / HTTP/1.1\r\nHost: ", &LIMITS),
            FrameStatus::Partial
        );
    }

    #[test]
    fn bare_lf_line_endings_frame_like_the_service_parser() {
        let req = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Complete { len: req.len() }
        );
    }

    #[test]
    fn head_over_cap_is_an_error() {
        let mut req = b"GET / HTTP/1.1\r\n".to_vec();
        while req.len() < LIMITS.max_head_bytes + 10 {
            req.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(
            frame(&req, &LIMITS),
            FrameStatus::Error(FrameError::HeadTooLarge)
        );
    }

    #[test]
    fn body_over_cap_is_an_error_before_the_body_arrives() {
        let req = b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Error(FrameError::BodyTooLarge {
                declared: 999_999,
                limit: 4096
            })
        );
    }

    #[test]
    fn garbage_content_length_is_an_error() {
        let req = b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Error(FrameError::BadContentLength)
        );
    }

    #[test]
    fn last_duplicate_content_length_wins() {
        let req = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Complete { len: req.len() }
        );
    }

    #[test]
    fn transfer_encoding_frames_with_zero_body() {
        // The service rejects it with 400 + close; the framer only needs
        // to terminate at the head.
        let req = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        let head_len = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".len();
        assert_eq!(frame(req, &LIMITS), FrameStatus::Complete { len: head_len });
    }

    #[test]
    fn header_name_match_is_case_insensitive() {
        let req = b"POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 3\r\n\r\nabc";
        assert_eq!(
            frame(req, &LIMITS),
            FrameStatus::Complete { len: req.len() }
        );
    }
}
