//! The processor and the one serving path: `execute`, `explain` and
//! `submit` — and, from [`super::refresh`], a subscription's seed, its
//! resynchronizations and its object-based refreshes — are calls into
//! [`serve`], a query's life written once (prepare → interrupt → refine →
//! record), behind the one admission gate. A query-based refresh is a dot
//! product against the subscription's held fields and does not come here.

#![allow(
    clippy::disallowed_methods,
    reason = "`serve` stamps submission, plan and execute times around the clock-free planner"
)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::database::TrajectoryDatabase;
use crate::engine::cache::FieldCache;
use crate::engine::plan::{self, ExecContext, Provenance, QueryPlan};
use crate::engine::ticket::{QueryTicket, TicketGuard, TicketState};
use crate::engine::EngineConfig;
use crate::error::{QueryError, Result};
use crate::parallel::WorkerPool;
use crate::query::{QueryAnswer, QuerySpec, Strategy};
use crate::serving::{AdmissionGate, ExecutionRecord, MetricsSnapshot};
use crate::stats::EvalStats;
use crate::streaming::SubscriptionState;
use crate::sync::{Mutex, RwLock, CACHE, DB, NOTIFY, SUBSCRIPTIONS};

/// What a query's life needs of its processor besides a database snapshot.
/// One `Arc`, shared with every submitted job — which owns everything it
/// touches and may outlive the processor itself.
#[derive(Debug)]
pub(super) struct ServingCore {
    pub(super) config: EngineConfig,
    /// The backward fields of every rule, shared by the query-based
    /// evaluations (and by asynchronous submissions), reused across
    /// queries and windows.
    pub(super) cache: Mutex<FieldCache, CACHE>,
    /// The admission gate submitted queries and standing-query refreshes
    /// pass, with the serving registry every outcome is tallied in.
    pub(super) gate: Arc<AdmissionGate>,
}

impl ServingCore {
    /// The execution context over `db` — the processor's database or an
    /// owned snapshot of it.
    pub(super) fn context<'s>(&'s self, db: &'s TrajectoryDatabase) -> ExecContext<'s> {
        ExecContext { db, config: &self.config, cache: &self.cache, metrics: self.gate.metrics() }
    }
}

/// High-level façade tying a database to the engines — the long-lived
/// service object of the crate.
///
/// The query surface is **spec-driven**: build a [`QuerySpec`] with
/// [`crate::query::Query`] (predicate × decorator × window × strategy ×
/// optional object subset) and hand it to one entry point —
///
/// * [`QueryProcessor::execute`] evaluates synchronously and returns the
///   [`QueryAnswer`];
/// * [`QueryProcessor::explain`] returns the planner's [`QueryPlan`]
///   (chosen strategy + cost estimates) without evaluating;
/// * [`QueryProcessor::submit`] enqueues the query on the worker pool and
///   returns a [`QueryTicket`] immediately — the async front door for
///   bursts.
///
/// Every execution routes through the batched propagation kernel and
/// [`crate::parallel::run_sharded`]: with the default configuration
/// (`num_threads == 1`) the single shard runs inline on the caller's
/// thread; with [`EngineConfig::with_num_threads`] `> 1` the first shard
/// runs on the caller and the others on scoped threads spawned for the
/// query. [`QueryProcessor::submit`] jobs run on the processor's
/// **[`crate::parallel::WorkerPool`]**, spawned on first use, reused by
/// every submission, and joined when the processor is dropped.
/// Query-based evaluations share one [`FieldCache`] (sized by
/// [`EngineConfig::cache_capacity`], behind a lock), so repeated or
/// overlapping windows skip their backward sweeps.
/// Results are bit-for-bit independent of the strategy dispatch, the batch
/// size, the worker count and the cache.
///
/// The processor **owns its database state**: construction clones the
/// caller's [`TrajectoryDatabase`] handle (a cheap copy-on-write share),
/// and the streaming entry points mutate the owned copy —
/// [`QueryProcessor::ingest`] applies latest-fix observations,
/// [`QueryProcessor::insert`] adds objects, and every query evaluates
/// against an immutable snapshot taken at its start, so a concurrent
/// ingest can never tear an in-flight answer. Standing queries are
/// registered with [`QueryProcessor::watch`], which returns a
/// [`crate::Subscription`] whose answer is incrementally maintained on every
/// applied arrival.
///
/// ```
/// use ust_core::prelude::*;
/// use ust_markov::{CsrMatrix, MarkovChain};
/// use ust_space::TimeSet;
///
/// // The running-example chain of the paper (Section V).
/// let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&[
///     vec![0.0, 0.0, 1.0],
///     vec![0.6, 0.0, 0.4],
///     vec![0.0, 0.8, 0.2],
/// ]).unwrap()).unwrap();
/// let mut db = TrajectoryDatabase::new(chain);
/// db.insert(UncertainObject::with_single_observation(
///     7, Observation::exact(0, 3, 1).unwrap(),
/// )).unwrap();
///
/// let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
/// let processor = QueryProcessor::new(&db);
///
/// // Planned execution: the planner picks the strategy...
/// let spec = Query::exists().window(window.clone()).build().unwrap();
/// let answer = processor.execute(&spec).unwrap();
/// assert!((answer.probabilities().unwrap()[0].probability - 0.864).abs() < 1e-12);
///
/// // ...and both explicit strategies agree with it.
/// for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
///     let forced = Query::exists().window(window.clone()).strategy(strategy).build().unwrap();
///     let p = processor.execute(&forced).unwrap();
///     assert!((p.probabilities().unwrap()[0].probability - 0.864).abs() < 1e-12);
/// }
/// ```
#[derive(Debug)]
pub struct QueryProcessor {
    /// The owned database state. Queries clone a snapshot out (cheap:
    /// copy-on-write inner) and evaluate against it; the streaming entry
    /// points take the write half briefly to apply an arrival, then
    /// evaluate refreshes against a fresh snapshot outside the lock.
    pub(super) db: RwLock<TrajectoryDatabase, DB>,
    pub(super) core: Arc<ServingCore>,
    /// The pool `submit` jobs run on, spawned on first use (see
    /// [`QueryProcessor::pool`]).
    pub(super) submit_pool: OnceLock<Arc<WorkerPool>>,
    /// Round-robin shard assignment for submitted queries.
    submit_seq: AtomicUsize,
    /// Registered standing queries; cancelled entries are pruned on the
    /// next arrival.
    pub(super) subscriptions: Mutex<Vec<Arc<SubscriptionState>>, SUBSCRIPTIONS>,
    /// Serializes every commit into a subscription — a registration's seed
    /// as much as an arrival's refreshes — so subscriptions observe
    /// arrivals in a single global order and none is lost.
    pub(super) notify_lock: Mutex<(), NOTIFY>,
    /// Monotonic subscription ids.
    pub(super) watch_seq: AtomicU64,
}

impl QueryProcessor {
    /// Creates a processor with the exact default configuration
    /// (sequential, inline). The database handle is cloned in (cheap
    /// copy-on-write share); later mutations of the *caller's* handle are
    /// not seen — feed the processor through
    /// [`QueryProcessor::ingest`] / [`QueryProcessor::insert`] instead.
    pub fn new(db: &TrajectoryDatabase) -> Self {
        QueryProcessor::with_config(db, EngineConfig::default())
    }

    /// Creates a processor with a custom configuration. Construction
    /// spawns no threads: the `submit` pool is spawned on first use.
    pub fn with_config(db: &TrajectoryDatabase, config: EngineConfig) -> Self {
        let gate = AdmissionGate::new(config.max_queue_depth, config.default_deadline);
        QueryProcessor {
            db: RwLock::new(db.clone()),
            core: Arc::new(ServingCore {
                config,
                cache: Mutex::new(FieldCache::new(config.effective_cache_capacity())),
                gate: Arc::new(gate),
            }),
            submit_pool: OnceLock::new(),
            submit_seq: AtomicUsize::new(0),
            subscriptions: Mutex::new(Vec::new()),
            notify_lock: Mutex::new(()),
            watch_seq: AtomicU64::new(0),
        }
    }

    /// An owned, immutable snapshot of the processor's current database —
    /// a cheap copy-on-write clone sharing objects, models and the built
    /// spatial index. Every query and refresh evaluates against one
    /// snapshot end to end, so concurrent ingests never tear an answer.
    pub fn snapshot(&self) -> TrajectoryDatabase {
        self.db.read().clone()
    }

    /// Number of objects currently in the processor's database.
    pub fn len(&self) -> usize {
        self.db.read().len()
    }

    /// True when the processor's database holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.config
    }

    /// The worker pool [`QueryProcessor::submit`] jobs run on, spawning it
    /// on first use: `num_threads` workers when that is `> 1`, otherwise
    /// one per core the host makes available — a single funnel worker
    /// would serialize a burst behind one queue.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        self.submit_pool.get_or_init(|| {
            let threads = match self.core.config.effective_num_threads() {
                1 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                threads => threads,
            };
            Arc::new(WorkerPool::new(threads))
        })
    }

    /// A snapshot of the processor's serving counters: submissions
    /// accepted / rejected / cancelled / dropped / shed, per-plan queue
    /// wait, plan and execute latencies and cache traffic. Every
    /// [`QueryProcessor::submit`] and
    /// every execution (synchronous or asynchronous) is accounted here.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.gate.metrics().snapshot()
    }

    /// Executes a declarative query spec — **the** synchronous entry
    /// point, covering every predicate × decorator × strategy combination.
    ///
    /// [`Strategy::Auto`] specs are planned first (see
    /// [`QueryProcessor::explain`]); explicit strategies dispatch
    /// directly. Answers are bit-for-bit independent of worker count,
    /// batch size and cache state.
    pub fn execute(&self, spec: &QuerySpec) -> Result<QueryAnswer> {
        self.execute_with_stats(spec, &mut EvalStats::new())
    }

    /// As [`QueryProcessor::execute`], accumulating evaluation counters
    /// (cache hits, shared fields, propagation steps, …) into `stats`.
    pub fn execute_with_stats(
        &self,
        spec: &QuerySpec,
        stats: &mut EvalStats,
    ) -> Result<QueryAnswer> {
        let snapshot = self.snapshot();
        serve(&self.core.context(&snapshot), spec, stats, None)
    }

    /// Returns the planner's decision for a spec without executing it:
    /// the resolved strategy, per-strategy cost estimates and cache
    /// residency. The subsequent [`QueryProcessor::execute`] of the same
    /// spec follows this plan (cache state permitting — a plan is a
    /// snapshot, not a reservation).
    pub fn explain(&self, spec: &QuerySpec) -> Result<QueryPlan> {
        let snapshot = self.snapshot();
        let (prepared, _) = plan::prepare(&self.core.context(&snapshot), spec, true)?;
        prepared.plan.clone().ok_or(QueryError::internal("prepare costs when asked to"))
    }

    /// Submits a query for asynchronous evaluation and returns a
    /// [`QueryTicket`] **immediately** — the async front door, now behind
    /// admission control.
    ///
    /// The query runs as one job on the processor's worker pool (see
    /// [`QueryProcessor::pool`]), capturing an owned snapshot of the
    /// database handle, the configuration and the shared field cache — so
    /// the ticket outlives the borrow rules: callers can submit a burst,
    /// keep inserting into their own database handle, and await the
    /// answers later. Jobs still queued when the processor is dropped are
    /// shed, their tickets completing with
    /// [`QueryError::AsyncQueryDropped`]. Within the job the query shards
    /// exactly as [`QueryProcessor::execute`] does, on scoped threads of
    /// its own; a burst of submissions parallelizes **across** queries as
    /// well, round-robin over the pool's queues. Submitted queries share
    /// the processor's cache, so a burst over the same window sweeps its
    /// backward field once.
    ///
    /// With [`EngineConfig::max_queue_depth`] set, a submission beyond
    /// the pending bound is rejected with [`QueryError::QueueFull`]
    /// without blocking; with [`EngineConfig::default_deadline`] set,
    /// accepted jobs whose queue wait exceeds the deadline are shed with
    /// [`QueryError::DeadlineExceeded`]. Every outcome is tallied in
    /// [`QueryProcessor::metrics`].
    ///
    /// ```
    /// use ust_core::prelude::*;
    /// use ust_markov::{CsrMatrix, MarkovChain};
    /// use ust_space::TimeSet;
    ///
    /// let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&[
    ///     vec![0.0, 0.0, 1.0],
    ///     vec![0.6, 0.0, 0.4],
    ///     vec![0.0, 0.8, 0.2],
    /// ]).unwrap()).unwrap();
    /// let mut db = TrajectoryDatabase::new(chain);
    /// db.insert(UncertainObject::with_single_observation(
    ///     7, Observation::exact(0, 3, 1).unwrap(),
    /// )).unwrap();
    /// let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
    /// let spec = Query::exists().window(window).build().unwrap();
    ///
    /// // `submit` is fallible: a full queue rejects instead of blocking.
    /// let processor = QueryProcessor::with_config(
    ///     &db,
    ///     EngineConfig::default().with_num_threads(2).with_max_queue_depth(1),
    /// );
    /// let ticket = processor.submit(&spec)?; // admitted (bound is 1)
    /// match processor.submit(&spec) {
    ///     Ok(second) => { second.wait()?; }                 // first one already finished
    ///     Err(QueryError::QueueFull { limit }) => assert_eq!(limit, 1),
    ///     Err(e) => return Err(e),
    /// }
    /// assert!((ticket.wait()?.probabilities().unwrap()[0].probability - 0.864).abs() < 1e-12);
    /// # Ok::<(), ust_core::QueryError>(())
    /// ```
    pub fn submit(&self, spec: &QuerySpec) -> Result<QueryTicket> {
        let slot = self.core.gate.admit(spec, Instant::now())?;
        let state = Arc::new(TicketState::default());
        let mut guard = TicketGuard { state: Arc::clone(&state), slot };
        let db = self.snapshot();
        let core = Arc::clone(&self.core);
        let spec = spec.clone();
        let pool = self.pool();
        let shard = self.submit_seq.fetch_add(1, Ordering::Relaxed);
        let job = Box::new(move || {
            let outcome = match guard.interrupted() {
                Some(shed) => Err(shed),
                None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve(&core.context(&db), &spec, &mut EvalStats::new(), Some(&guard))
                }))
                .unwrap_or(Err(QueryError::AsyncQueryPanicked)),
            };
            guard.finish(outcome);
        });
        let handle = pool.spawn(shard, job);
        Ok(QueryTicket { state, pool: Arc::downgrade(pool), handle })
    }
}

/// A query's life after admission, written once: **prepare** (resolve the
/// candidates, check the window, prefilter, validate and group — under
/// every strategy — and cost when the strategy is `Auto`; or take the plan
/// memoised for an indexed read, unchanged or patched over the writes
/// since, counted in `plans_reused` / `plans_patched`), let a
/// submitted `job`'s cancellation flag or deadline shed the expensive
/// half, **refine**, and **record** — every call reports plan time,
/// execute time and its evaluation counters to the serving registry, a
/// job's queue wait (submission to here) with them. `execute`, the `submit`
/// job and every served subscription evaluation are this function; the
/// two clock reads here are the stage boundary, outside the clock-free
/// planner. A shed execution is *not* recorded as one; the admission
/// gate's lifecycle counters account for it instead.
pub(super) fn serve(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    stats: &mut EvalStats,
    job: Option<&TicketGuard>,
) -> Result<QueryAnswer> {
    let queue_wait = job.map(|job| job.slot.waited());
    // `strategy` is the one that ran — or, for a query that failed before
    // it was resolved, the one requested (possibly still `Auto`).
    let record = |strategy, plan_time, execute_time, delta, ok| {
        ctx.metrics.record_execution(&ExecutionRecord {
            predicate: spec.predicate(),
            strategy,
            plan_time,
            execute_time,
            queue_wait,
            delta,
            ok,
        });
    };
    let plan_start = Instant::now();
    let (prepared, provenance) = match plan::prepare(ctx, spec, spec.strategy() == Strategy::Auto) {
        Ok(prepared) => prepared,
        Err(e) => {
            record(spec.strategy(), plan_start.elapsed(), Duration::ZERO, EvalStats::new(), false);
            return Err(e);
        }
    };
    let plan_time = plan_start.elapsed();
    if let Some(shed) = job.and_then(TicketGuard::interrupted) {
        return Err(shed);
    }
    let before = stats.clone();
    match provenance {
        Provenance::Fresh => {}
        Provenance::Reused => stats.plans_reused += 1,
        Provenance::Patched(retested) => {
            stats.plans_patched += 1;
            stats.objects_retested += retested as u64;
        }
    }
    let exec_start = Instant::now();
    let result = plan::refine(ctx, spec, &prepared, stats);
    record(
        prepared.strategy,
        plan_time,
        exec_start.elapsed(),
        stats.delta_since(&before),
        result.is_ok(),
    );
    result
}
