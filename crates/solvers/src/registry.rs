//! The [`Solver`] trait and the [`Registry`] that dispatches on
//! objective names.

use std::sync::OnceLock;

use tgp_core::budget::Budget;
use tgp_graph::json::Value;

use crate::error::SolveError;
use crate::ingest::IngestBacking;
use crate::objectives;
use crate::request::{parse_request, GraphKind, ParamSpec, Request, Response};

/// One partitioning objective: everything a front end needs to accept,
/// solve and cache it.
///
/// A solver owns its request schema ([`Solver::params`]) and response
/// shape, which it writes as JSON text with `tgp_graph::json::Writer`;
/// the CLI and the HTTP service are thin shells over `parse` →
/// [`Request::run_budgeted`], which is what guarantees the two produce
/// byte-identical JSON for the same request. [`Solver::solve`] is the
/// one method that runs the objective; `run` and `run_budgeted` on
/// `dyn Solver` and on [`Request`] check the deadline once and call it.
pub trait Solver: Send + Sync {
    /// The objective name used for dispatch, metrics labels and the
    /// `"objective"` response field.
    fn name(&self) -> &'static str;

    /// The graph class the solver accepts.
    fn graph_kind(&self) -> GraphKind;

    /// The scalar parameters the solver accepts beyond `objective` and
    /// `graph`. Both parsers reject undeclared fields.
    fn params(&self) -> &'static [ParamSpec];

    /// One human line for docs and usage listings.
    fn summary(&self) -> &'static str;

    /// Extra validation of a request that already matches the declared
    /// schema and graph kind (cost caps, range checks; see
    /// `TreeBandwidth`). Both parsers run it. The default accepts.
    fn validate(&self, request: &Request) -> Result<(), SolveError> {
        let _ = request;
        Ok(())
    }

    /// A rough, dimensionless estimate of how much work
    /// [`Solver::solve`] does on this request. Caches use it as an
    /// admission signal: a response that was expensive to compute is
    /// worth keeping even when it is large. The default — nodes plus
    /// edges — matches the linear-time solvers; super-linear objectives
    /// override it (see `TreeBandwidth`, `Bokhari`). Estimates saturate
    /// rather than overflow.
    fn cost_estimate(&self, request: &Request) -> u64 {
        request.graph.work_units()
    }

    /// Solves a validated request, whose deadline the caller has just
    /// checked. A solver whose hot loop can be sliced (bandwidth,
    /// lexicographic) charges its work against `budget`, so a deadline
    /// that expires mid-solve stops it with
    /// [`SolveError::DeadlineExceeded`]; the others run to completion.
    fn solve(&self, request: &Request, budget: &Budget) -> Result<Response, SolveError>;
}

impl dyn Solver {
    /// Strictly validates a raw request object into a typed [`Request`]
    /// naming this solver, its graph in RAM arrays: the declared schema
    /// and graph kind, then [`Solver::validate`].
    ///
    /// # Errors
    ///
    /// The first schema or validation failure, as a [`SolveError`].
    pub fn parse(&'static self, value: &Value) -> Result<Request, SolveError> {
        let request = parse_request(self, value, &IngestBacking::Ram)?;
        self.validate(&request)?;
        Ok(request)
    }

    /// Runs the objective under `budget`: refuses a request whose
    /// deadline has already passed, then [`Solver::solve`]s it. A
    /// budget that does not run out leaves the response byte-identical
    /// to `run`'s.
    ///
    /// # Errors
    ///
    /// [`SolveError::DeadlineExceeded`] when the budget runs out, else
    /// the solver's own failure.
    pub fn run_budgeted(&self, request: &Request, budget: &Budget) -> Result<Response, SolveError> {
        budget.check_now().map_err(SolveError::from_exceeded)?;
        self.solve(request, budget)
    }

    /// `run_budgeted` with no deadline.
    ///
    /// # Errors
    ///
    /// The solver's own failure.
    pub fn run(&self, request: &Request) -> Result<Response, SolveError> {
        self.run_budgeted(request, &Budget::unlimited())
    }

    /// [`Request::canonical_key`] of `request`, which names this
    /// solver. Kept only for the benchmark's frozen replay
    /// (`perfbench/src/replay.rs`).
    pub fn canonical_key(&self, request: &Request) -> Vec<u8> {
        request.canonical_key()
    }

    /// The response body parsed back into a tree. Kept only for the
    /// benchmark's frozen replay (`perfbench/src/replay.rs`), which
    /// indexes the tree and renders it again; nothing else needs a tree
    /// of a response.
    pub fn to_json(&self, response: &Response) -> Value {
        Value::parse(response.value.as_str()).expect("a solver writes JSON text")
    }

    /// Always `None`: no solver has a warm start, and session re-solves
    /// run `run_budgeted`. Kept only for the benchmark's frozen replay
    /// (`perfbench/src/replay.rs`), which then takes its cold branch.
    pub fn run_warm(
        &self,
        request: &Request,
        hint_lo: u64,
        hint_hi: u64,
    ) -> Option<Result<Response, SolveError>> {
        let _ = (request, hint_lo, hint_hi);
        None
    }
}

impl std::fmt::Debug for dyn Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The registered solvers, dispatchable by objective name: the table
/// [`Registry::shared`] builds once from every objective in the
/// workspace.
pub struct Registry {
    solvers: Vec<&'static dyn Solver>,
    names: Vec<&'static str>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names)
            .finish()
    }
}

impl Registry {
    /// The shared process-wide registry.
    pub fn shared() -> &'static Registry {
        static SHARED: OnceLock<Registry> = OnceLock::new();
        SHARED.get_or_init(|| {
            let solvers = objectives::all().to_vec();
            let names = solvers.iter().map(|solver| solver.name()).collect();
            Registry { solvers, names }
        })
    }

    /// Looks up a solver by objective name. The index is stable for the
    /// registry's lifetime and usable as a dense metrics key.
    pub fn get(&self, name: &str) -> Option<(usize, &'static dyn Solver)> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| (i, self.solvers[i]))
    }

    /// Every registered objective name, in registration order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Iterates the registered solvers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &'static dyn Solver> + '_ {
        self.solvers.iter().copied()
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Full dispatch: resolves the request's `objective` field, then
    /// strictly parses the request against that solver's schema, its
    /// graph in RAM arrays. Returns the solver's registry index
    /// alongside it so callers can label metrics even when a later stage
    /// fails.
    pub fn dispatch(
        &self,
        value: &Value,
    ) -> Result<(usize, &'static dyn Solver, Request), SolveError> {
        self.dispatch_onto(value, &IngestBacking::Ram)
    }

    /// As [`dispatch`](Self::dispatch), with the graph's arrays on
    /// `backing`: a disk backing that fails (spill dir unwritable, disk
    /// full) falls back to RAM arrays, as [`crate::ingest_flat`] does.
    pub fn dispatch_onto(
        &self,
        value: &Value,
        backing: &IngestBacking,
    ) -> Result<(usize, &'static dyn Solver, Request), SolveError> {
        let name =
            value
                .get("objective")
                .and_then(Value::as_str)
                .ok_or(SolveError::MissingField {
                    field: "objective",
                    expected: "a string naming a registered objective",
                })?;
        let (index, solver) = self.get(name).ok_or_else(|| SolveError::UnknownObjective {
            got: name.to_string(),
            known: self.names.clone(),
        })?;
        let request = parse_request(solver, value, backing)?;
        solver.validate(&request)?;
        Ok((index, solver, request))
    }
}
