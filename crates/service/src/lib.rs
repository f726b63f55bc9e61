//! `tgp-service` — a concurrent, std-only HTTP service around the
//! partitioning solvers.
//!
//! The crate turns the batch CLI workflow into a long-lived server so
//! repeated partitioning queries (the common case in schedule tuning:
//! same graph, sweeping bounds; or same bound, many graphs) amortize
//! parsing and benefit from a result cache. Everything is built on
//! `std` plus the in-tree `tgp-net` event loop — no external
//! dependencies, matching the workspace's offline-build constraint.
//!
//! # Architecture
//!
//! ```text
//!             tgp-net event loop           BoundedQueue<Work>      pop()
//!  clients ─▶ (accept, framing,    ──────▶ [request|subtask] ───▶ worker pool ─▶ handlers
//!              timeouts, partial             ▲ full?                │      ▲        │
//!              writes)             ◀── 503+retry                    │      │        │
//!                                  ◀── LoopHandle::submit ──────────┘      │        │
//!                                              batch scatter/gather ───────┤        │
//!                                                              ResultCache ┴────────┘
//! ```
//!
//! * [`server`] — the `tgp-net` event loops (one per `--loops`), the
//!   per-loop queues, the worker pool and graceful shutdown
//!   ([`Server`], [`ServerConfig`]), plus cache-journal attach and
//!   compaction. Linux-only: elsewhere [`Server::start`] fails with
//!   `Unsupported`.
//! * [`api`] — routing and the JSON handlers ([`AppState`]); batch
//!   requests scatter across the pool and gather in order.
//! * [`cache`] — sharded, byte-budgeted LRU over canonical request-byte
//!   keys, with optional TTL and an append-on-ack journal
//!   ([`CacheConfig`]).
//! * [`metrics`] — atomic counters rendered as Prometheus text.
//! * [`http`] — minimal HTTP/1.1 parsing/serialization over framed
//!   bytes.
//! * [`pool`] — the bounded MPMC work queue.
//!
//! # Endpoints
//!
//! | Route               | Method | Purpose                                        |
//! |---------------------|--------|------------------------------------------------|
//! | `/v1/partition`     | POST   | any objective in [`tgp_solvers::Registry`] (single or batch) |
//! | `/v1/simulate`      | POST   | partition + pipeline simulation                |
//! | `/healthz`          | GET    | liveness                                       |
//! | `/metrics`          | GET    | Prometheus text, incl. per-objective series    |
//!
//! The partition endpoint dispatches through the shared solver registry,
//! so it accepts exactly the same requests as `tgp partition` and
//! returns byte-identical JSON (see `docs/SERVICE.md` for the request
//! table).
//!
//! # Example
//!
//! ```
//! use tgp_service::{Server, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let mut server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
//!     .unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200"));
//!
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod envelope;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod server;

pub use api::AppState;
pub use cache::{CacheConfig, KeyBuilder, ResultCache};
pub use metrics::Metrics;
pub use server::{Server, ServerConfig};
