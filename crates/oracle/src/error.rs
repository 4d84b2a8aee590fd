//! The oracle's own error type: every input check of the references
//! reports here, independently of the engines' `QueryError`.

use std::fmt;

use ust_markov::MarkovError;

/// Why a reference refused its input.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The observation list is empty: there is no anchor to start from.
    NoObservations,
    /// Observation times must be strictly increasing; `time` is the first
    /// that is not after its predecessor.
    UnorderedObservations {
        /// The offending time.
        time: u32,
    },
    /// An observation is not over the chain's `|S|` states.
    ObservationDimension {
        /// The chain's `|S|`.
        num_states: usize,
        /// The observation's dimension.
        found: usize,
    },
    /// An observation holds a negative, infinite or NaN mass.
    InvalidMass {
        /// The observation's time.
        time: u32,
        /// The state holding the mass.
        state: usize,
        /// The mass.
        mass: f64,
    },
    /// The window's state mask is not over the chain's `|S|` states — it
    /// may name a state `≥ |S|`.
    WindowDimension {
        /// The chain's `|S|`.
        num_states: usize,
        /// The mask's dimension.
        found: usize,
    },
    /// The window selects no state.
    EmptySpatialWindow,
    /// The window selects no time.
    EmptyTemporalWindow,
    /// The window starts before the first observation.
    WindowBeforeObservation {
        /// The window's first time.
        window_start: u32,
        /// The first observation's time.
        observation: u32,
    },
    /// The enumeration expanded more path prefixes than its budget allows.
    BudgetExceeded {
        /// The budget.
        budget: u64,
    },
    /// No world survives the observations: they contradict each other or
    /// the chain.
    ImpossibleEvidence,
    /// A linear-algebra operation failed.
    Markov(MarkovError),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The variant and its fields name the refused input.
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for OracleError {}

impl From<MarkovError> for OracleError {
    fn from(e: MarkovError) -> Self {
        OracleError::Markov(e)
    }
}

/// The oracle's result type.
pub type Result<T> = std::result::Result<T, OracleError>;
