//! # ust-core — querying uncertain spatio-temporal data
//!
//! A faithful, production-quality Rust implementation of
//! *Querying Uncertain Spatio-Temporal Data* (Emrich, Kriegel, Mamoulis,
//! Renz, Züfle — ICDE 2012).
//!
//! Uncertain moving objects are modeled as realizations of a first-order
//! homogeneous Markov chain over a discrete state space (Definition 1).
//! On top of that model the paper defines three probabilistic
//! spatio-temporal queries over a window `S▫ × T▫`:
//!
//! | Query | Definition | Module |
//! |---|---|---|
//! | PST∃Q | object inside `S▫` at *some* `t ∈ T▫` | [`engine::object_based`], [`engine::query_based`] |
//! | PST∀Q | object inside `S▫` at *all* `t ∈ T▫` | [`engine::forall`] |
//! | PSTkQ | inside `S▫` at exactly `k` times of `T▫` | [`engine::ktimes`] |
//!
//! Every query runs through one front door, [`QueryProcessor::execute`]
//! (or `submit` / `watch`), which answers from each object's *first*
//! observation: later fixes of a multi-observation object are ignored
//! there. Section VI (multiple observations / interpolation) is reachable
//! only through [`multi_obs`] (∃, object-based) and [`smoothing`].
//! Correct possible-worlds semantics comes from the absorbing-state
//! (`M−`/`M+`) construction of Section V, applied virtually by the engines;
//! the references they are checked against live in the `ust-oracle` crate,
//! which depends on none of this one. Section V-C's interval-chain cluster
//! pruning is not reproduced: the one filter in front of the exact engines
//! is the reachability-cone probe of [`index`]. The evaluation's baselines
//! — Monte-Carlo sampling and the temporal-independence model — are not
//! part of this crate: they live beside the figures that time them, in
//! `ust-bench`.
//!
//! ## Quick start
//!
//! ```
//! use ust_core::prelude::*;
//! use ust_markov::{CsrMatrix, MarkovChain};
//! use ust_space::TimeSet;
//!
//! // A 3-state chain (the paper's running example) and one object
//! // observed at state s2 at time 0.
//! let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&[
//!     vec![0.0, 0.0, 1.0],
//!     vec![0.6, 0.0, 0.4],
//!     vec![0.0, 0.8, 0.2],
//! ]).unwrap()).unwrap();
//! let mut db = TrajectoryDatabase::new(chain);
//! db.insert(UncertainObject::with_single_observation(
//!     1, Observation::exact(0, 3, 1).unwrap(),
//! )).unwrap();
//!
//! // P(object in {s1, s2} at some t ∈ [2, 3]) = 0.864: declare the query,
//! // let the planner pick the strategy, execute.
//! let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
//! let spec = Query::exists().window(window).build().unwrap();
//! let answer = QueryProcessor::new(&db).execute(&spec).unwrap();
//! assert!((answer.probabilities().unwrap()[0].probability - 0.864).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
// Library code does not panic; a panic that an invariant rules out carries
// an `#[expect]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
pub mod database;
pub mod engine;
pub mod error;
pub mod index;
pub mod multi_obs;
pub mod object;
pub mod observation;
pub mod parallel;
pub mod prefilter;
pub mod query;
pub mod ranking;
pub mod serving;
pub mod smoothing;
pub mod stats;
pub mod streaming;
mod sync;
#[cfg(test)]
mod testkit;
pub mod threshold;

pub use database::{IngestOutcome, TrajectoryDatabase};
pub use engine::cache::FieldCache;
pub use engine::{
    CostEstimate, EngineConfig, PrefilterMode, QueryPlan, QueryProcessor, QueryTicket,
};
pub use error::{QueryError, Result};
pub use index::SpatioTemporalIndex;
pub use object::UncertainObject;
pub use observation::Observation;
pub use parallel::PoolStats;
pub use query::{
    Decorator, ObjectKDistribution, ObjectProbability, Predicate, Query, QueryAnswer, QueryBuilder,
    QuerySpec, QueryWindow, Strategy,
};
pub use ranking::RankedObject;
pub use serving::{MetricsSnapshot, PlanMetrics, StreamMetrics};
pub use stats::EvalStats;
pub use streaming::Subscription;

/// Convenience prelude re-exporting the types most applications need.
pub mod prelude {
    pub use crate::database::{IngestOutcome, TrajectoryDatabase};
    pub use crate::engine::cache::FieldCache;
    pub use crate::engine::{
        CostEstimate, EngineConfig, PrefilterMode, QueryPlan, QueryProcessor, QueryTicket,
    };
    pub use crate::error::{QueryError, Result};
    pub use crate::index::SpatioTemporalIndex;
    pub use crate::object::UncertainObject;
    pub use crate::observation::Observation;
    pub use crate::parallel::PoolStats;
    pub use crate::query::{
        Decorator, ObjectKDistribution, ObjectProbability, Predicate, Query, QueryAnswer,
        QueryBuilder, QuerySpec, QueryWindow, Strategy,
    };
    pub use crate::ranking::RankedObject;
    pub use crate::serving::{MetricsSnapshot, PlanMetrics, StreamMetrics};
    pub use crate::stats::EvalStats;
    pub use crate::streaming::Subscription;
}
