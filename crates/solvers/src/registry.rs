//! The [`Solver`] trait and the [`Registry`] that dispatches on
//! objective names.

use std::sync::OnceLock;

use tgp_core::budget::Budget;
use tgp_graph::json::Value;

use crate::error::SolveError;
use crate::ingest::IngestBacking;
use crate::key::KeyBuilder;
use crate::objectives;
use crate::request::{parse_request, GraphKind, ParamSpec, Request, Response};

/// One partitioning objective: everything a front end needs to accept,
/// run, cache and render it.
///
/// A solver owns its request schema ([`Solver::params`]) and response
/// shape; the CLI and the HTTP service are thin shells over
/// `parse` → [`Solver::run`], which is what guarantees the two produce
/// byte-identical JSON for the same request.
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

    /// Runs the objective on a validated request.
    fn run(&self, request: &Request) -> Result<Response, SolveError>;

    /// Cost-sliced cooperative run: like [`Solver::run`], but the solve
    /// charges its work against `budget`, so an expired deadline or a
    /// raised cancel flag stops it with [`SolveError::DeadlineExceeded`]
    /// or [`SolveError::Cancelled`] instead of running to completion.
    ///
    /// The default charges the whole [`Solver::cost_estimate`] before
    /// delegating to [`Solver::run`] — a pre-flight admission check that
    /// refuses already-expired work but cannot preempt mid-solve.
    /// Solvers whose hot loops can be sliced (bandwidth, lexicographic)
    /// override this to charge incrementally inside the loop.
    ///
    /// With an unlimited budget the result is byte-identical to
    /// [`Solver::run`].
    fn run_budgeted(&self, request: &Request, budget: &Budget) -> Result<Response, SolveError> {
        budget.check_now().map_err(SolveError::from_exceeded)?;
        budget
            .charge(self.cost_estimate(request))
            .map_err(SolveError::from_exceeded)?;
        self.run(request)
    }

    /// A rough, dimensionless estimate of how much work [`Solver::run`]
    /// does on this request. Caches use it as an admission signal: a
    /// response that was expensive to compute is worth keeping even
    /// when it is large. The default — nodes plus edges — matches the
    /// linear-time solvers; super-linear objectives override it (see
    /// `TreeBandwidth`, `Bokhari`). Estimates saturate rather than
    /// overflow.
    fn cost_estimate(&self, request: &Request) -> u64 {
        request.graph.work_units()
    }

    /// The canonical cache key of a validated request: objective name,
    /// parameters, then graph content — independent of the original
    /// JSON formatting. Two requests with equal keys are guaranteed to
    /// produce equal responses, so a cache may serve one for the other.
    fn canonical_key(&self, request: &Request) -> Vec<u8> {
        let mut key = KeyBuilder::default();
        key.write_str(self.name());
        request.params.write_key(&mut key);
        request.graph.write_key(&mut key);
        key.finish()
    }

    /// The length of [`Solver::canonical_key`]'s key, computed without
    /// building it, so a cache can refuse a key too large to hold
    /// before paying for it. A solver that overrides one of the two
    /// must override both.
    fn canonical_key_len(&self, request: &Request) -> usize {
        KeyBuilder::str_len(self.name()) + request.params.key_len() + request.graph.key_len()
    }

    /// A copy of the response as JSON. A solver's wire form is the
    /// [`Response::value`] it built, which the service serializes in
    /// place (a deep copy per response is measurable on large
    /// responses), so this is not a rendering hook.
    fn to_json(&self, response: &Response) -> Value {
        response.value.clone()
    }
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

    /// Always `None`: no solver has a warm start, and session re-solves
    /// run [`Solver::run_budgeted`]. Kept only for the benchmark's frozen
    /// replay (`perfbench/src/replay.rs`), which then takes its cold
    /// branch; it lives outside the trait so that no solver can
    /// override it.
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

/// The set of registered solvers, dispatchable by objective name.
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
    /// Builds a registry with every objective in the workspace.
    pub fn with_all() -> Self {
        let mut registry = Registry {
            solvers: Vec::new(),
            names: Vec::new(),
        };
        for solver in objectives::all() {
            registry.register(solver);
        }
        registry
    }

    /// Adds a solver.
    ///
    /// # Panics
    ///
    /// If another solver already claimed the name — duplicate objectives
    /// would make dispatch ambiguous, so this is a programming error.
    pub fn register(&mut self, solver: &'static dyn Solver) {
        let name = solver.name();
        assert!(
            !self.names.contains(&name),
            "duplicate solver registration: {name}"
        );
        self.names.push(name);
        self.solvers.push(solver);
    }

    /// The shared process-wide registry.
    pub fn shared() -> &'static Registry {
        static SHARED: OnceLock<Registry> = OnceLock::new();
        SHARED.get_or_init(Registry::with_all)
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
