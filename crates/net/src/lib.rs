//! `tgp-net` — a std-only, readiness-driven connection layer for the
//! partition service, and its only connection model.
//!
//! A blocking thread per connection would pin a worker to every
//! in-flight connection, so persistent (keep-alive) connections beyond
//! `--workers` would starve (EXPERIMENTS.md §SRV-OPEN). This crate
//! instead runs an event-loop thread built on raw `epoll`/`eventfd`
//! bindings — no external dependencies, the same vendoring philosophy
//! as the in-tree `rand`/`proptest` shims. The loop owns:
//!
//! - **non-blocking accept** with a connection cap and accept
//!   backpressure (the listener is paused, not the accept queue
//!   dropped, when the cap is hit);
//! - **per-connection state machines**: incremental request framing
//!   ([`framer`]), partial-write resumption, and keep-alive reuse;
//! - **timeouts** via a hashed timer wheel ([`timer`]): a total
//!   per-request read deadline (slowloris defense), a progress-based
//!   per-response write deadline (stalled-reader defense, renewed while
//!   the reader drains at least [`WRITE_MIN_BYTES`] per window), and an
//!   idle deadline for quiet keep-alive connections;
//! - **dispatch**: only *complete* requests are handed to the caller's
//!   [`Handler`], which typically enqueues them on a worker pool and
//!   later answers through [`LoopHandle::submit`] from any thread.
//!
//! Workers therefore compute instead of waiting on sockets: thousands
//! of connections can be open while `--workers` stays small.
//!
//! The epoll loop itself is Linux-only: elsewhere a stub keeps the API
//! compiling and [`EventLoop::spawn`] returns `ErrorKind::Unsupported`,
//! so the library and the solver commands still build. The framer and
//! timer wheel are portable and unit-tested everywhere.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

pub mod framer;
pub mod shard;
pub mod timer;

#[cfg(target_os = "linux")]
mod event_loop;
#[cfg(target_os = "linux")]
mod poll;
#[cfg(target_os = "linux")]
mod sys;

#[cfg(target_os = "linux")]
pub use event_loop::{EventLoop, LoopHandle};

#[cfg(not(target_os = "linux"))]
mod stub;
#[cfg(not(target_os = "linux"))]
pub use stub::{EventLoop, LoopHandle};

pub use framer::{request_header_value, FrameError, FrameLimits, FrameStatus};
pub use shard::{LoopSet, ShardSpec};
pub use timer::TimeoutKind;

/// Identifies one accepted connection across the loop / worker
/// boundary. The `generation` makes stale completions harmless: if a
/// connection dies while its request is in flight, the slab slot is
/// reused under a new generation and the late [`LoopHandle::submit`]
/// is dropped instead of answering the wrong peer. With a sharded
/// [`LoopSet`], every loop has its own slab and generation space, so
/// `shard` is what distinguishes loop 0's connection 3 from loop 1's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    /// Which event loop of the [`LoopSet`] owns the connection
    /// (0 for a standalone loop).
    pub shard: u32,
    /// Slab slot of the connection inside its owning event loop.
    pub index: u32,
    /// Reuse counter of that slot at the time the request was framed.
    pub generation: u32,
}

impl ConnId {
    /// Packs the id into an epoll registration token. Tokens are
    /// per-loop (each loop has its own epoll set), so the shard is not
    /// encoded — [`ConnId::from_token`] restores it from the loop's
    /// own id.
    pub fn token(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Recovers the id from a token produced by [`ConnId::token`], on
    /// behalf of the loop `shard`.
    pub fn from_token(token: u64, shard: u32) -> ConnId {
        ConnId {
            shard,
            index: (token & 0xffff_ffff) as u32,
            generation: (token >> 32) as u32,
        }
    }
}

/// Attributes a response's socket write to the request it answers: the
/// request's trace id and that trace's commit sequence in the service's
/// trace store. A worker hands it to [`LoopHandle::submit`] with the
/// response; the loop keeps it with the connection while the response
/// flushes and gives it back through [`Handler::on_write_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteTag {
    /// The request's trace id.
    pub trace: tgp_obs::TraceId,
    /// The committed trace's sequence number.
    pub seq: u64,
}

/// Minimum write progress (bytes flushed to the socket) per
/// [`NetConfig::write_timeout`] window for a response's write timer to
/// renew. A reader that drains less than this per window is closed.
pub const WRITE_MIN_BYTES: usize = 1024;

/// Tuning knobs for the event loop.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum simultaneously open connections; accepts pause (and
    /// `accept_backpressure_total` increments) while at the cap.
    pub max_connections: usize,
    /// Total deadline for receiving one complete request, measured from
    /// its first byte (or from accept, for the first request). Not
    /// reset by progress — byte-at-a-time senders still time out.
    pub read_timeout: Duration,
    /// Deadline for writing a response: the timer renews each time it
    /// fires if at least [`WRITE_MIN_BYTES`] were flushed during the
    /// elapsed interval, so a slow-but-live reader of a large response
    /// survives. A reader draining below that rate is closed.
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit with no request bytes
    /// buffered before it is closed.
    pub idle_timeout: Duration,
    /// Maximum size of a request head (request line + headers).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: u64,
    /// On shutdown, how long to wait for dispatched/writing
    /// connections to finish before force-closing them.
    pub drain_timeout: Duration,
    /// Optional event journal; when set, the loop appends
    /// accept/close/timeout/frame-error events (see `tgp-obs`).
    pub journal: Option<Arc<tgp_obs::Journal>>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_connections: 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            drain_timeout: Duration::from_secs(5),
            journal: None,
        }
    }
}

/// Counters the loop maintains; the service renders them under
/// `/metrics`. All plain `AtomicU64`s so they can be shared with the
/// metrics registry without locking.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
    /// Connections accepted since the loop started. With a sharded
    /// [`LoopSet`] this is the per-loop fairness signal: every loop of
    /// a healthy set should accept a share of the traffic.
    pub accepted_total: AtomicU64,
    /// Times the accept loop paused because the connection cap was hit.
    pub accept_backpressure: AtomicU64,
    /// Connections closed by the per-request read deadline.
    pub timeout_closes_read: AtomicU64,
    /// Connections closed by the per-response write deadline.
    pub timeout_closes_write: AtomicU64,
    /// Connections closed by the keep-alive idle deadline.
    pub timeout_closes_idle: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event.
    pub readiness_wakeups: AtomicU64,
}

impl NetCounters {
    /// The close counter for a given timeout kind.
    pub fn timeout_closes(&self, kind: TimeoutKind) -> &AtomicU64 {
        match kind {
            TimeoutKind::Read => &self.timeout_closes_read,
            TimeoutKind::Write => &self.timeout_closes_write,
            TimeoutKind::Idle => &self.timeout_closes_idle,
        }
    }
}

/// What the [`Handler`] wants done with a complete request.
#[derive(Debug)]
pub enum Action {
    /// The handler took ownership (e.g. enqueued it on a worker pool)
    /// and will answer later via [`LoopHandle::submit`]. The connection
    /// parks with no readiness interest until then.
    Pending,
    /// Answer immediately from the loop thread (cache hits, shed/
    /// overload responses). `bytes` is the complete wire response.
    Respond {
        /// Full serialized HTTP response.
        bytes: Vec<u8>,
        /// Keep the connection open for another request afterwards.
        keep_alive: bool,
    },
}

/// The service-side hook the loop calls on its own thread. Callbacks
/// must be quick (a bounded-queue push, a cache probe); anything slow
/// belongs on the worker pool via [`Action::Pending`].
pub trait Handler: Send + Sync + 'static {
    /// Called once per complete framed request. `request` is the
    /// connection's frame buffer itself, holding exactly one request's
    /// wire bytes (head + body): ownership moves to the handler, so a
    /// large body is not copied, and the connection starts its next
    /// request in a buffer of its own.
    fn on_request(&self, conn: ConnId, request: Vec<u8>, handle: &LoopHandle) -> Action;

    /// Called when a connection's bytes can never frame (oversized
    /// head/body, bad `Content-Length`). Returns the full wire response
    /// to send; the connection always closes after it.
    fn on_frame_error(&self, err: FrameError) -> Vec<u8>;

    /// Called on the loop thread after a response has been fully
    /// flushed to the socket, with the [`WriteTag`] it was submitted
    /// with (`None` for responses the loop answered itself) and the
    /// time spent writing it (from first write attempt to last byte).
    /// Default: ignored. Used by the service to patch the `write` span
    /// into the request's trace, which is committed before the loop
    /// performs the write.
    fn on_write_complete(&self, _conn: ConnId, _tag: Option<WriteTag>, _elapsed: Duration) {}
}
