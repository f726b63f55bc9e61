//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, as a closed-loop caller needs.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::gen::{head, Req};

/// What the generator keeps of one response.
#[derive(Debug, Default)]
pub struct Reply {
    pub status: u16,
    /// The `x-tgp-solve` header: `Some(true)` for a warm session solve.
    pub warm: Option<bool>,
    /// Bytes received, head included.
    pub bytes_in: usize,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` read from the socket but not yet consumed.
    filled: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The head, graph and tail of a body go out as separate writes;
        // without this, Nagle's algorithm holds the tail for an ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 << 10],
            filled: 0,
        })
    }

    /// Sends `req` and reads the reply, leaving its body in `body`.
    /// Returns the bytes written and the reply.
    pub fn exchange(&mut self, req: &Req<'_>, body: &mut Vec<u8>) -> io::Result<(usize, Reply)> {
        let head = head(req.method, &req.path, req.body_len());
        let mut first = head.into_bytes();
        // Small bodies go out in one write; big graph parts are written
        // in place.
        let mut rest = &req.parts[..];
        while let Some((part, tail)) = rest.split_first() {
            if first.len() + part.len() > 64 << 10 {
                break;
            }
            first.extend_from_slice(part);
            rest = tail;
        }
        let mut sent = first.len();
        self.stream.write_all(&first)?;
        for part in rest {
            self.stream.write_all(part)?;
            sent += part.len();
        }
        let reply = self.read_reply(body)?;
        Ok((sent, reply))
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.filled..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.filled += n;
        Ok(())
    }

    fn read_reply(&mut self, body: &mut Vec<u8>) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = self.buf[..self.filled]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break i + 4;
            }
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut warm = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-tgp-solve") {
                warm = Some(value == "warm");
            }
        }
        while self.filled < head_end + length {
            if self.buf.len() < head_end + length {
                self.buf.resize(head_end + length, 0);
            }
            self.fill()?;
        }
        body.clear();
        body.extend_from_slice(&self.buf[head_end..head_end + length]);
        let used = head_end + length;
        self.buf.copy_within(used..self.filled, 0);
        self.filled -= used;
        Ok(Reply {
            status,
            warm,
            bytes_in: used,
        })
    }
}
