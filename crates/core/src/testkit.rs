//! Test support shared by the unit tests: the paper's running example, the
//! reference configuration, a one-object front door and the
//! possible-worlds oracle on engine types.

use ust_markov::{CooBuilder, MarkovChain, SparseVector};
use ust_space::TimeSet;

use crate::database::TrajectoryDatabase;
use crate::engine::{EngineConfig, PrefilterMode, QueryProcessor};
use crate::error::Result;
use crate::object::UncertainObject;
use crate::observation::Observation;
use crate::query::{QueryAnswer, QueryBuilder, QueryWindow};

pub(crate) use ust_oracle::testutil::paper_chain;

/// The paper's window `{s1, s2} × [2, 3]`.
pub(crate) fn paper_window() -> QueryWindow {
    QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap()
}

/// The paper's object: at `s2` at time 0.
pub(crate) fn object_at_s2() -> UncertainObject {
    UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap())
}

/// A random walk on a line of `n` states: `i` moves to `i ± 1` (clipped),
/// the one state of a line of one stays.
pub(crate) fn line_chain(n: usize) -> MarkovChain {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        let (left, right) = (i.saturating_sub(1), (i + 1).min(n - 1));
        b.push(i, left, 0.5).unwrap();
        b.push(i, right, 0.5).unwrap();
    }
    MarkovChain::from_weights(b.build()).unwrap()
}

/// The reference configuration: one thread, one object per batch, one
/// cache entry, no prefilter.
pub(crate) fn reference_config() -> EngineConfig {
    EngineConfig::default()
        .with_num_threads(1)
        .with_batch_size(1)
        .with_cache_capacity(1)
        .with_prefilter(PrefilterMode::Off)
}

/// `builder` (window and strategy attached) executed over `object` alone —
/// as model 0, on `chain` — under the reference configuration.
pub(crate) fn solo(
    chain: &MarkovChain,
    object: &UncertainObject,
    builder: QueryBuilder,
) -> Result<QueryAnswer> {
    let mut db = TrajectoryDatabase::new(chain.clone());
    db.insert(object.clone().with_model(0))?;
    QueryProcessor::with_config(&db, reference_config()).execute(&builder.build()?)
}

/// `object`'s observations as the oracle takes them.
pub(crate) fn observations(object: &UncertainObject) -> Vec<(u32, &SparseVector)> {
    object.observations().iter().map(|o| (o.time(), o.distribution())).collect()
}

/// Possible-worlds enumeration of `object` against `window`.
pub(crate) fn oracle(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    budget: u64,
) -> ust_oracle::Result<ust_oracle::ExhaustiveResult> {
    ust_oracle::enumerate(chain, &observations(object), window.states(), window.times(), budget)
}

/// Parks every worker of `pool` in a job that waits on a channel until the
/// returned closure drops its sender, so jobs spawned in between stay
/// deterministically queued.
pub(crate) fn gate_workers(pool: &crate::parallel::WorkerPool) -> impl FnOnce() + 'static {
    let senders: Vec<std::sync::mpsc::Sender<()>> = (0..pool.num_threads())
        .map(|shard| {
            let (open, gate) = std::sync::mpsc::channel();
            pool.spawn(shard, Box::new(move || while gate.recv().is_ok() {}));
            open
        })
        .collect();
    while pool.stats().queued_jobs > 0 {
        std::thread::yield_now();
    }
    move || drop(senders)
}
