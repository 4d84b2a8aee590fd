//! # ust — querying uncertain spatio-temporal data
//!
//! Facade crate of the reproduction of Emrich, Kriegel, Mamoulis, Renz,
//! Züfle: *Querying Uncertain Spatio-Temporal Data* (ICDE 2012). Re-exports
//! the workspace crates:
//!
//! * [`ust_markov`] — sparse linear algebra, Markov chains, augmented
//!   (`M−`/`M+`) matrices;
//! * [`ust_space`] — state spaces (grid / line / road network), regions,
//!   time sets, R-tree;
//! * [`ust_core`] — the paper's query model and engines (PST∃Q, PST∀Q,
//!   PSTkQ; object-based and query-based; multiple observations), the
//!   batch-first propagation pipeline, scoped-thread sharding and the
//!   worker pool behind `submit`;
//! * [`ust_data`] — dataset generators (Table I synthetic, road networks,
//!   iceberg and traffic scenarios) and workloads.
//!
//! ## Quick start
//!
//! The README example, runnable as a doctest: build the paper's 3-state
//! running-example chain, insert one object observed at state `s2` at time
//! 0, and ask for the probability that it intersects the window
//! `{s1, s2} × [2, 3]` (the paper's Example 2 derives 0.864). Queries are
//! **declared** with the [`ust_core::Query`] builder and executed through
//! one entry point — the planner chooses between the paper's object-based
//! and query-based strategies (ask [`ust_core::QueryProcessor::explain`]
//! why):
//!
//! ```
//! use ust::prelude::*;
//!
//! let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&[
//!     vec![0.0, 0.0, 1.0],
//!     vec![0.6, 0.0, 0.4],
//!     vec![0.0, 0.8, 0.2],
//! ])?)?;
//! let mut db = TrajectoryDatabase::new(chain);
//! db.insert(UncertainObject::with_single_observation(
//!     1, Observation::exact(0, 3, 1)?,
//! ))?;
//!
//! let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3))?;
//! let processor = QueryProcessor::new(&db);
//!
//! // Declare the PST∃Q; the planner resolves Strategy::Auto, and both
//! // explicit strategies agree on the paper's 0.864.
//! let spec = Query::exists().window(window.clone()).build()?;
//! let plan = processor.explain(&spec)?;
//! assert!(matches!(plan.strategy, Strategy::ObjectBased | Strategy::QueryBased));
//! let answer = processor.execute(&spec)?;
//! assert!((answer.probabilities().unwrap()[0].probability - 0.864).abs() < 1e-12);
//!
//! // Decorators compose with any predicate: threshold and top-k.
//! let hot = processor.execute(&Query::exists().window(window.clone()).threshold(0.5).build()?)?;
//! assert_eq!(hot.ids().unwrap(), &[1]);
//! let dist = processor.execute(&Query::ktimes(1).window(window).build()?)?;
//! assert!((dist.distributions().unwrap()[0].prob_always() - 0.192).abs() < 1e-12);
//! # Ok::<(), ust_core::QueryError>(())
//! ```
//!
//! Parallel serving uses the same entry point: a processor configured with
//! `num_threads > 1` owns a long-lived worker pool, results stay
//! bit-for-bit identical to sequential evaluation, and
//! [`ust_core::QueryProcessor::submit`] turns the pool into an **async
//! front door** — submit a burst of specs without blocking, then await the
//! tickets:
//!
//! ```
//! use ust::prelude::*;
//!
//! let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&[
//!     vec![0.5, 0.5, 0.0],
//!     vec![0.0, 0.5, 0.5],
//!     vec![0.5, 0.0, 0.5],
//! ])?)?;
//! let mut db = TrajectoryDatabase::new(chain);
//! for id in 0..6u64 {
//!     db.insert(UncertainObject::with_single_observation(
//!         id, Observation::exact(0, 3, (id % 3) as usize)?,
//!     ))?;
//! }
//! let window = QueryWindow::from_states(3, [1usize], TimeSet::interval(1, 2))?;
//! let spec = Query::exists().window(window).build()?;
//!
//! let sequential = QueryProcessor::new(&db).execute(&spec)?;
//! let pooled = QueryProcessor::with_config(
//!     &db,
//!     EngineConfig::default().with_num_threads(4).with_batch_size(2),
//! );
//! assert_eq!(pooled.execute(&spec)?, sequential);
//!
//! // Async burst: `submit` is fallible (admission control can reject
//! // with `QueryError::QueueFull`); tickets return immediately, answers
//! // when awaited.
//! let tickets = (0..4).map(|_| pooled.submit(&spec)).collect::<Result<Vec<QueryTicket>>>()?;
//! for ticket in tickets {
//!     assert_eq!(ticket.wait()?, sequential);
//! }
//! # Ok::<(), ust_core::QueryError>(())
//! ```
//!
//! Streaming is the third entry point:
//! [`ust_core::QueryProcessor::watch`] registers a **standing query**
//! maintained across [`ust_core::QueryProcessor::ingest`] arrivals
//! (latest-fix policy: out-of-order fixes are ignored, not errors). The
//! maintained answer is bit-for-bit what a from-scratch `execute` on the
//! updated database would return — `tests/streaming.rs` pins that by
//! property:
//!
//! ```
//! use ust::prelude::*;
//!
//! let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&[
//!     vec![0.0, 0.0, 1.0],
//!     vec![0.6, 0.0, 0.4],
//!     vec![0.0, 0.8, 0.2],
//! ])?)?;
//! let mut db = TrajectoryDatabase::new(chain);
//! db.insert(UncertainObject::with_single_observation(
//!     1, Observation::exact(0, 3, 1)?,
//! ))?;
//! let processor = QueryProcessor::new(&db);
//!
//! let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3))?;
//! let sub = processor.watch(&Query::exists().window(window).build()?)?;
//! assert!((sub.answer()?.probabilities().unwrap()[0].probability - 0.864).abs() < 1e-12);
//!
//! // A fresh fix arrives: the anchor advances (latest-fix) and the
//! // standing query refreshes — only its one answer entry is
//! // invalidated; the backward-field caches survive ingest untouched.
//! assert_eq!(processor.ingest(1, Observation::exact(1, 3, 0)?)?, IngestOutcome::Applied);
//! assert_eq!(sub.notifications(), 1);
//! let refreshed = sub.answer()?.probabilities().unwrap()[0].probability;
//! assert!((refreshed - 0.8).abs() < 1e-12);
//! # Ok::<(), ust_core::QueryError>(())
//! ```
//!
//! See the repository README for a guided tour, ARCHITECTURE.md for the
//! crate and dataflow map, `examples/` for runnable programs, and
//! `BENCHMARK.json` / `benchmark/README.md` for the repository's benchmark.

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

pub use ust_core;
pub use ust_data;
pub use ust_markov;
pub use ust_space;

/// One-stop prelude for applications.
pub mod prelude {
    pub use ust_core::prelude::*;
    pub use ust_markov::{CsrMatrix, DenseVector, MarkovChain, SparseVector, StateMask};
    pub use ust_space::{
        GridSpace, LineSpace, Point2, Rect, Region, RoadNetwork, StateSpace, TimeSet,
    };
}
