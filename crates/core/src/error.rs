//! Error types for query specification and evaluation.

use std::fmt;

use ust_markov::MarkovError;

/// Errors raised while building or evaluating probabilistic
/// spatio-temporal queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A lower-level linear-algebra/Markov error.
    Markov(MarkovError),
    /// The query window selects no states.
    EmptySpatialWindow,
    /// The query window selects no timestamps.
    EmptyTemporalWindow,
    /// The object has no observations at all.
    NoObservations,
    /// Two observations share the same timestamp.
    DuplicateObservation {
        /// The conflicting timestamp.
        time: u32,
    },
    /// The query window starts before the object's anchor observation, so a
    /// forward pass from that observation cannot cover it.
    WindowBeforeObservation {
        /// Earliest query timestamp.
        window_start: u32,
        /// Anchor observation timestamp.
        observation: u32,
    },
    /// The object references a transition model the database doesn't hold.
    UnknownModel {
        /// The offending model index.
        model: usize,
    },
    /// The object's distribution dimension differs from the model's.
    ModelDimensionMismatch {
        /// States in the model.
        model_states: usize,
        /// Dimension of the object's distribution.
        object_states: usize,
    },
    /// The observations made an evaluated scenario impossible (all possible
    /// worlds eliminated — zero joint likelihood).
    ImpossibleEvidence,
    /// A propagation batch's row count is not a multiple of its per-object
    /// group size (every object must contribute the same number of rows).
    MalformedBatch {
        /// Total rows handed to the batch.
        rows: usize,
        /// Rows per object group.
        group_size: usize,
    },
    /// A query spec was built without a window (`QueryBuilder::window` was
    /// never called).
    MissingWindow,
    /// A threshold decorator's τ is not a probability in `[0, 1]`.
    InvalidThreshold {
        /// The offending threshold.
        tau: f64,
    },
    /// A query restricted to an explicit object subset names an id the
    /// database does not contain.
    UnknownObject {
        /// The missing object id.
        id: u64,
    },
    /// An asynchronously submitted query panicked on its worker; the panic
    /// was converted into this error instead of poisoning the pool.
    AsyncQueryPanicked,
    /// An asynchronously submitted query's job was dropped without ever
    /// running (its pool shut down mid-burst, or the job was discarded
    /// during an unwind); the ticket is completed with this error so
    /// `wait` can never block forever on abandoned work.
    AsyncQueryDropped,
    /// The processor's admission bound rejected a submission: the number
    /// of pending asynchronous queries already equals
    /// `EngineConfig::max_queue_depth`. The caller is never blocked —
    /// retry later, shed the request, or raise the bound.
    QueueFull {
        /// The configured pending-submission bound that was hit.
        limit: usize,
    },
    /// The query was cancelled via `QueryTicket::cancel` before it
    /// produced an answer.
    Cancelled,
    /// The query spent longer than `EngineConfig::default_deadline`
    /// between submission and execution, so the worker shed it instead of
    /// evaluating a request the caller has likely abandoned.
    DeadlineExceeded,
    /// An engine-internal invariant did not hold — always a bug in the
    /// engine, never in the caller's input. Surfaced as an error instead
    /// of a panic so one corrupted query cannot take down a serving
    /// worker; the message names the violated invariant for the bug
    /// report.
    Internal {
        /// The invariant that was violated.
        invariant: &'static str,
    },
}

impl QueryError {
    /// An [`QueryError::Internal`] naming the violated invariant.
    pub(crate) fn internal(invariant: &'static str) -> QueryError {
        QueryError::Internal { invariant }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Markov(e) => write!(f, "markov substrate error: {e}"),
            QueryError::EmptySpatialWindow => write!(f, "query window selects no states"),
            QueryError::EmptyTemporalWindow => write!(f, "query window selects no timestamps"),
            QueryError::NoObservations => write!(f, "object has no observations"),
            QueryError::DuplicateObservation { time } => {
                write!(f, "duplicate observation at time {time}")
            }
            QueryError::WindowBeforeObservation { window_start, observation } => write!(
                f,
                "query window starts at {window_start}, before the anchor observation at {observation}"
            ),
            QueryError::UnknownModel { model } => write!(f, "unknown model index {model}"),
            QueryError::ModelDimensionMismatch { model_states, object_states } => write!(
                f,
                "object distribution has {object_states} states but the model has {model_states}"
            ),
            QueryError::ImpossibleEvidence => {
                write!(f, "observations are jointly impossible under the model")
            }
            QueryError::MalformedBatch { rows, group_size } => {
                write!(f, "batch of {rows} rows is not divisible into groups of {group_size}")
            }
            QueryError::MissingWindow => {
                write!(f, "query spec has no window (call QueryBuilder::window)")
            }
            QueryError::InvalidThreshold { tau } => {
                write!(f, "threshold τ = {tau} is not a probability in [0, 1]")
            }
            QueryError::UnknownObject { id } => {
                write!(f, "query names object id {id}, which the database does not contain")
            }
            QueryError::AsyncQueryPanicked => {
                write!(f, "asynchronously submitted query panicked on its worker")
            }
            QueryError::AsyncQueryDropped => {
                write!(f, "asynchronously submitted query was dropped before it ran")
            }
            QueryError::QueueFull { limit } => {
                write!(f, "submission rejected: {limit} asynchronous queries already pending")
            }
            QueryError::Cancelled => write!(f, "query was cancelled before completion"),
            QueryError::DeadlineExceeded => {
                write!(f, "query exceeded its deadline before execution started")
            }
            QueryError::Internal { invariant } => {
                write!(f, "engine invariant violated (this is a bug): {invariant}")
            }
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Markov(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MarkovError> for QueryError {
    fn from(e: MarkovError) -> Self {
        QueryError::Markov(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, QueryError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = QueryError::from(MarkovError::ZeroMass);
        assert!(e.to_string().contains("zero"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&QueryError::EmptySpatialWindow).is_none());
        assert!(QueryError::WindowBeforeObservation { window_start: 3, observation: 7 }
            .to_string()
            .contains('7'));
        assert!(QueryError::ModelDimensionMismatch { model_states: 4, object_states: 5 }
            .to_string()
            .contains('5'));
        assert!(QueryError::UnknownModel { model: 2 }.to_string().contains('2'));
        assert!(QueryError::DuplicateObservation { time: 9 }.to_string().contains('9'));
        assert!(!QueryError::ImpossibleEvidence.to_string().is_empty());
        assert!(!QueryError::NoObservations.to_string().is_empty());
        assert!(!QueryError::EmptyTemporalWindow.to_string().is_empty());
        assert!(QueryError::QueueFull { limit: 16 }.to_string().contains("16"));
        assert!(!QueryError::AsyncQueryDropped.to_string().is_empty());
        assert!(!QueryError::Cancelled.to_string().is_empty());
        assert!(!QueryError::DeadlineExceeded.to_string().is_empty());
    }
}
