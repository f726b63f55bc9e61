//! Error type for the partitioning algorithms.

use std::error::Error;
use std::fmt;

use tgp_graph::{GraphError, NodeId, Weight};

/// Errors produced by the partitioning algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// The load bound `K` is smaller than some single vertex weight, so no
    /// partition can satisfy the execution-time bound (the paper assumes
    /// `K > max_i α_i`).
    BoundTooSmall {
        /// A vertex whose weight exceeds the bound.
        node: NodeId,
        /// That vertex's weight.
        weight: Weight,
        /// The offending bound.
        bound: Weight,
    },
    /// An underlying graph operation failed.
    Graph(GraphError),
    /// A budgeted solve stopped cooperatively before finishing: its
    /// [`Budget`](crate::budget::Budget) refused further work.
    Interrupted(crate::budget::Exceeded),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::BoundTooSmall {
                node,
                weight,
                bound,
            } => write!(
                f,
                "load bound {bound} is smaller than the weight {weight} of node {node}; \
                 no feasible partition exists"
            ),
            PartitionError::Graph(e) => write!(f, "graph error: {e}"),
            PartitionError::Interrupted(why) => write!(f, "solve interrupted: {why}"),
        }
    }
}

impl Error for PartitionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PartitionError::Graph(e) => Some(e),
            PartitionError::BoundTooSmall { .. } | PartitionError::Interrupted(_) => None,
        }
    }
}

impl From<GraphError> for PartitionError {
    fn from(e: GraphError) -> Self {
        PartitionError::Graph(e)
    }
}

impl From<crate::budget::Exceeded> for PartitionError {
    fn from(e: crate::budget::Exceeded) -> Self {
        PartitionError::Interrupted(e)
    }
}

/// Checks the paper's standing feasibility precondition `K ≥ max_i α_i`
/// on a graph whose heaviest vertex weighs `max` (a view's
/// `max_node_weight`, which every flat graph caches): O(1) when it
/// holds. Otherwise `weights`, the vertex weights in node order, are
/// scanned for the first that exceeds `bound`.
///
/// # Errors
///
/// [`PartitionError::BoundTooSmall`] naming the first over-weight vertex.
pub(crate) fn check_bound(
    max: Weight,
    weights: impl IntoIterator<Item = Weight>,
    bound: Weight,
) -> Result<(), PartitionError> {
    if max <= bound {
        return Ok(());
    }
    let (i, weight) = weights
        .into_iter()
        .enumerate()
        .find(|&(_, w)| w > bound)
        .expect("the heaviest vertex outweighs the bound");
    Err(PartitionError::BoundTooSmall {
        node: NodeId::new(i),
        weight,
        bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_check_accepts_equal_weights() {
        let ws = [Weight::new(3), Weight::new(5)];
        assert!(check_bound(Weight::new(5), ws, Weight::new(5)).is_ok());
    }

    #[test]
    fn bound_check_names_first_offender() {
        let ws = [Weight::new(3), Weight::new(9), Weight::new(11)];
        let err = check_bound(Weight::new(11), ws, Weight::new(8)).unwrap_err();
        assert_eq!(
            err,
            PartitionError::BoundTooSmall {
                node: NodeId::new(1),
                weight: Weight::new(9),
                bound: Weight::new(8),
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("v1"));
        assert!(msg.contains('9'));
        assert!(msg.contains('8'));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        let err: PartitionError = GraphError::Empty.into();
        assert!(matches!(err, PartitionError::Graph(GraphError::Empty)));
        assert!(Error::source(&err).is_some());
        let bound_err = PartitionError::BoundTooSmall {
            node: NodeId::new(0),
            weight: Weight::new(2),
            bound: Weight::new(1),
        };
        assert!(Error::source(&bound_err).is_none());
    }
}
