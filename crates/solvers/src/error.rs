//! The shared failure type for registry dispatch, parsing and solving.

use std::error::Error;
use std::fmt;

use crate::request::GraphKind;

/// Everything that can go wrong between a raw request object and a
/// rendered response.
///
/// Every variant maps to HTTP 422 (the request was syntactically valid
/// JSON but semantically unusable); transports reserve 400 for bodies
/// that are not JSON at all. [`SolveError::code`] gives each variant a
/// stable machine-readable tag that front ends embed next to the human
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The `objective` field named no registered solver.
    UnknownObjective {
        /// The objective the request asked for.
        got: String,
        /// Every registered objective name, for the error message.
        known: Vec<&'static str>,
    },
    /// A required field is absent (or present with the wrong JSON type).
    MissingField {
        /// The field name.
        field: &'static str,
        /// What the field must contain, e.g. `"a non-negative integer"`.
        expected: &'static str,
    },
    /// A field is present but its value is unusable.
    InvalidField {
        /// The field name.
        field: String,
        /// Why the value was rejected.
        message: String,
    },
    /// The request carries a field the solver does not accept. Strict
    /// rejection (rather than silently ignoring) catches typos like
    /// `"buond"` that would otherwise fall back to defaults.
    UnknownField {
        /// The unrecognized field name.
        field: String,
        /// The objective whose schema was violated.
        objective: &'static str,
    },
    /// The `graph` field does not describe the graph class this solver
    /// operates on.
    WrongGraphKind {
        /// The objective that rejected the graph.
        objective: &'static str,
        /// The graph class the solver expects.
        expected: GraphKind,
        /// The underlying parse failure.
        message: String,
    },
    /// A request parameter would make the solve too expensive to run
    /// inside a shared service (e.g. the pseudo-polynomial tree DP with
    /// an enormous bound).
    TooExpensive {
        /// The objective with the cost cap.
        objective: &'static str,
        /// Why the instance was refused.
        message: String,
    },
    /// The instance is well-formed but has no solution (e.g. a vertex
    /// heavier than the load bound).
    Infeasible {
        /// The solver's own error message.
        message: String,
    },
    /// The request's deadline expired before (or while) the solve ran.
    /// Transports map this to HTTP 504.
    DeadlineExceeded,
}

impl SolveError {
    /// Stable machine-readable tag for the variant, embedded in error
    /// responses as `"code"`.
    pub fn code(&self) -> &'static str {
        match self {
            SolveError::UnknownObjective { .. } => "unknown_objective",
            SolveError::MissingField { .. } => "missing_field",
            SolveError::InvalidField { .. } => "invalid_field",
            SolveError::UnknownField { .. } => "unknown_field",
            SolveError::WrongGraphKind { .. } => "wrong_graph_kind",
            SolveError::TooExpensive { .. } => "too_expensive",
            SolveError::Infeasible { .. } => "infeasible",
            SolveError::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// Convenience constructor for [`SolveError::Infeasible`] from any
    /// solver error.
    pub fn infeasible(error: impl fmt::Display) -> Self {
        SolveError::Infeasible {
            message: error.to_string(),
        }
    }

    /// Lifts a core [`PartitionError`](tgp_core::PartitionError),
    /// preserving a budget interrupt as its own stable code instead of
    /// folding it into [`SolveError::Infeasible`].
    pub fn from_partition(error: tgp_core::PartitionError) -> Self {
        match error {
            tgp_core::PartitionError::Interrupted(why) => SolveError::from_exceeded(why),
            other => SolveError::infeasible(other),
        }
    }

    /// Lifts a budget refusal directly.
    pub fn from_exceeded(_: tgp_core::budget::Exceeded) -> Self {
        SolveError::DeadlineExceeded
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UnknownObjective { got, known } => {
                write!(f, "unknown objective {got:?}; known: {}", known.join(", "))
            }
            SolveError::MissingField { field, expected } => {
                write!(f, "missing field {field:?} ({expected})")
            }
            SolveError::InvalidField { field, message } => {
                write!(f, "invalid field {field:?}: {message}")
            }
            SolveError::UnknownField { field, objective } => {
                write!(f, "objective {objective:?} does not accept field {field:?}")
            }
            SolveError::WrongGraphKind {
                objective,
                expected,
                message,
            } => write!(
                f,
                "objective {objective:?} needs a {expected} graph: {message}"
            ),
            SolveError::TooExpensive { objective, message } => {
                write!(f, "objective {objective:?} refused the instance: {message}")
            }
            SolveError::Infeasible { message } => write!(f, "{message}"),
            SolveError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the solve completed")
            }
        }
    }
}

impl Error for SolveError {}
