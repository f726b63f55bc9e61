//! Stateful partition sessions: resident graphs, edit batches, and the
//! delta baselines that let a re-solve answer with only what changed.
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
//! * Delta baselines — after each solve the store keeps the full
//!   response per `(objective, params)` key, charged to the same byte
//!   budget, so a `"response": "delta"` re-solve can send only the
//!   fields that changed. Every re-solve runs cold: since §3's optimum
//!   `B*` is found in one linear pass, a warm start around the previous
//!   optimum has nothing left to prune.
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
