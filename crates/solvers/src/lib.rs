//! One typed dispatch layer shared by every front end.
//!
//! `tgp-solvers` turns the workspace's partitioning algorithms into a
//! uniform [`Solver`] registry: each objective declares its name, the
//! graph class it accepts and its parameter schema, and implements one
//! [`Solver::solve`] under a deadline [`Budget`]. The CLI, the HTTP
//! service and the benchmarks all resolve objectives through
//! [`Registry::shared`], which is what guarantees that
//! `tgp partition <objective>` and `POST /v1/partition` accept the same
//! requests, reject the same malformed ones, and produce byte-identical
//! JSON.
//!
//! The flow for a front end is three calls:
//!
//! ```
//! use tgp_graph::json::Value;
//! use tgp_solvers::Registry;
//!
//! let body: Value = Value::parse(
//!     r#"{"objective": "bandwidth", "bound": 6,
//!         "graph": {"node_weights": [2, 3, 5], "edge_weights": [4, 1]}}"#,
//! ).unwrap();
//! let (_index, solver, request) = Registry::shared().dispatch(&body).unwrap();
//! let response = solver.run(&request).unwrap();
//! assert!(response.value.as_str().starts_with(r#"{"objective":"bandwidth","#));
//! ```
//!
//! A [`Response`] is the body itself: each solver writes its JSON text
//! with `tgp_graph::json::Writer`, which the service sends as it is.
//!
//! Every way to run a solve checks the request's deadline once and
//! calls [`Solver::solve`]: `run_budgeted` on `dyn Solver` or on
//! [`Request`], and `run`, the same under [`Budget::unlimited`].
//!
//! Caches key on [`Request::canonical_key`], which is derived from the
//! *validated* request content, so formatting differences cannot
//! fragment the cache and cannot alias distinct instances.
//!
//! [`Request`] is the one request type, and it names its solver
//! (`request.objective`). Two parsers build it: [`Registry::dispatch`]
//! over a JSON tree ([`Registry::dispatch_onto`] picks the backing), and
//! [`ingest_flat`], which streams a raw body straight into flat arrays
//! for every chain or tree objective whose only parameter is `bound`,
//! and declines everything else. Both put every chain and tree in the
//! flat arrays of [`GraphInput`]'s RAM- and disk-backed variants, and
//! every chain and tree objective has one solve body, generic over the
//! graph views, so both parsers' requests get the same bytes, keys and
//! cost estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flat;
mod ingest;
mod key;
mod objectives;
mod registry;
mod request;

pub use error::SolveError;
pub use ingest::{ingest_flat, IngestBacking};
pub use key::KeyBuilder;
pub use objectives::{MAX_SPEEDS, MAX_TREE_BANDWIDTH_COST};
pub use registry::{Registry, Solver};
pub use request::{GraphInput, GraphKind, ParamKind, ParamSpec, Params, Request, Response};
pub use tgp_core::budget::{Budget, Exceeded};
