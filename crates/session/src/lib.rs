//! Stateful partition sessions: resident graphs, edit batches, and the
//! warm-start memory that lets re-solves skip the stateless parse+solve
//! path.
//!
//! The stateless `POST /v1/partition` endpoint pays full JSON parse plus
//! a from-scratch solve on every request, even when a client
//! re-partitions the *same* graph after a handful of weight edits. This
//! crate keeps the graph resident instead:
//!
//! * [`SessionStore`] — a byte-budgeted map of versioned resident
//!   graphs. Clients register a graph once, then send *edit batches*
//!   (vertex-weight and edge-weight updates, leaf add/remove) that are
//!   applied atomically under an optimistic version check.
//! * Warm-start memory — after each solve the store remembers the
//!   optimal bottleneck per `(objective, params)` key, and each edit
//!   batch widens a slack interval around it. The next solve seeds the
//!   bottleneck binary search with `[prev − Δ, prev + Δ]`; the
//!   lexicographic warm solver in `tgp-core` *certifies* the window
//!   before trusting it, so the result is byte-identical to a cold
//!   solve whether or not the hint was any good. Other objectives
//!   always solve cold.
//! * [`journal`] — the append-on-ack journal file (snapshot + log,
//!   versioned and checksummed) that is replayed on restart, restoring
//!   every graph to its exact last acknowledged version even after
//!   `kill -9`. The service's result cache (`--cache-file`) keeps its
//!   entries in the same format under its own magic.
//!
//! The crate is std-only and transport-agnostic: the HTTP surface
//! (`/v1/graphs`) lives in `tgp-service`, the CLI inspection in `tgp`.

pub mod journal;
pub mod store;

pub use store::{Edit, GraphKind, Resident, SessionError, SessionStore, DEFAULT_SESSION_BUDGET};
