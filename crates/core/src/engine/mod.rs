//! Query evaluation engines.
//!
//! Implements the paper's two exact strategies — the **object-based (OB)**
//! forward approach (Section V-A) and the **query-based (QB)** backward
//! approach (Section V-B) — for all three predicates (∃, ∀, k-times), plus
//! the comparison baselines of the evaluation:
//!
//! * [`object_based`] / [`query_based`] — exact possible-worlds evaluation
//!   using the virtual `M−`/`M+` operators;
//! * [`forall`] — PST∀Q (Section VII): complement reduction object-based,
//!   the direct keep-`S▫` backward field query-based;
//! * [`ktimes`] — the memory-efficient `C(t)` algorithm (Section VII), a
//!   QB counterpart, and the blown-up-matrix reference;
//! * [`monte_carlo`] — the sampling competitor (MC in Fig. 8);
//! * [`independent`] — the temporal-independence model prior work uses
//!   (the strawman of Fig. 1 / accuracy experiment Fig. 9d);
//! * [`exhaustive`] — exact possible-world enumeration for tiny instances,
//!   the ground truth of the test suite.
//!
//! All of them drive the shared propagation core in [`pipeline`]: the
//! engines supply direction, start state and the accumulation rule applied
//! at query timestamps, while the step loop, ε-pruning, sparse↔dense
//! switching and statistics accounting exist exactly once.

pub mod cache;
pub mod exhaustive;
pub mod forall;
pub mod independent;
pub mod ktimes;
pub mod monte_carlo;
pub mod object_based;
pub mod pipeline;
pub mod plan;
pub mod query_based;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use crate::database::{IngestOutcome, TrajectoryDatabase};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::observation::Observation;
use crate::query::{Decorator, Predicate, QueryAnswer, QuerySpec, Strategy};
use crate::stats::EvalStats;
use crate::streaming::{self, RawAnswer, Subscription, SubscriptionState};

pub use plan::{CostEstimate, QueryPlan};

/// When the planner consults the [`crate::index::SpatioTemporalIndex`] to
/// prune candidate objects before costing and execution.
///
/// Pruning applies only where the pruned answer is provably bit-identical
/// to the unpruned one: `∃` queries with the probability or threshold
/// decorator (a geometrically unreachable object has `P∃ = 0` exactly, in
/// both exact engines). Other predicates, top-k ranking, and databases
/// without an attached space always take the unpruned path, whatever the
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefilterMode {
    /// Prune when an index is available and the database is large enough
    /// for the candidate pass to pay for itself (the default).
    #[default]
    Auto,
    /// Prune whenever an index is available, regardless of database size.
    On,
    /// Never prune: plans and answers are bit-for-bit those of a build
    /// without the index layer.
    Off,
}

/// Default number of objects propagated per [`pipeline::ObjectBatch`].
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Tuning knobs shared by the exact engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// ε-pruning threshold: probability entries `≤ epsilon` are dropped
    /// during propagation (`0.0` = exact). The dropped mass is reported in
    /// [`EvalStats::pruned_mass`] and bounds the absolute result error.
    pub epsilon: f64,
    /// Objects propagated together per batch by the object-based drivers
    /// (clamped to at least 1). Batched and per-object evaluation are
    /// bit-for-bit identical; larger batches amortize matrix-row traversals
    /// across densified vectors.
    pub batch_size: usize,
    /// Worker threads the [`crate::parallel::ShardedExecutor`] shards
    /// object batches across (clamped to at least 1; `1` runs inline). A
    /// [`QueryProcessor`] built with `num_threads > 1` owns a long-lived
    /// [`crate::parallel::WorkerPool`] of this size.
    pub num_threads: usize,
    /// `(model, window, rule)` entries retained by the
    /// [`QueryProcessor`]'s backward-field cache (clamped to at least 1) —
    /// one bound over all backward fields of the processor, ∃, ∀ and
    /// k-times together. Each entry holds one span-trimmed snapshot per
    /// distinct anchor time (the states from which the window is still
    /// reachable, not all of `|S|`; `|T▫| + 1` of them for a k-times
    /// field), so memory scales with `capacity × anchors × span`; repeated
    /// or overlapping windows served from the cache skip their backward
    /// sweeps entirely.
    pub cache_capacity: usize,
    /// Admission bound on **pending asynchronous submissions** per
    /// processor (`0` = unbounded, the default). Once this many
    /// [`QueryProcessor::submit`] tickets are queued or running,
    /// further submissions return
    /// [`crate::error::QueryError::QueueFull`] immediately instead of
    /// growing the backlog; the bound is also installed as the per-shard
    /// depth limit of the processor's own worker pool.
    pub max_queue_depth: usize,
    /// Deadline applied to every submitted query (`None` = no deadline,
    /// the default): a job whose queue wait already exceeds it is shed
    /// with [`crate::error::QueryError::DeadlineExceeded`] instead of
    /// executing — stale work a bursty caller has likely abandoned. The
    /// deadline is checked when the job starts and again between planning
    /// and execution, never mid-propagation.
    pub default_deadline: Option<std::time::Duration>,
    /// Index-accelerated candidate pruning policy (see [`PrefilterMode`]).
    /// [`PrefilterMode::Auto`], the default, prunes eligible queries
    /// through [`crate::database::TrajectoryDatabase::spatial_index`] once
    /// the database is large enough; [`PrefilterMode::Off`] preserves the
    /// pre-index plans bit-for-bit.
    pub prefilter: PrefilterMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epsilon: 0.0,
            batch_size: DEFAULT_BATCH_SIZE,
            num_threads: 1,
            cache_capacity: cache::DEFAULT_CACHE_CAPACITY,
            max_queue_depth: 0,
            default_deadline: None,
            prefilter: PrefilterMode::Auto,
        }
    }
}

impl EngineConfig {
    /// The exact configuration (no pruning, adaptive representation).
    pub fn exact() -> Self {
        EngineConfig::default()
    }

    /// Sets the ε-pruning threshold.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the number of objects propagated per batch.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the number of sharding worker threads.
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Sets the backward-field cache capacity (entries).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sets the pending-submission admission bound (`0` = unbounded).
    pub fn with_max_queue_depth(mut self, max_queue_depth: usize) -> Self {
        self.max_queue_depth = max_queue_depth;
        self
    }

    /// Sets the deadline submitted queries are shed at.
    pub fn with_default_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the index-accelerated candidate pruning policy.
    pub fn with_prefilter(mut self, mode: PrefilterMode) -> Self {
        self.prefilter = mode;
        self
    }

    /// The effective batch size (at least 1).
    pub fn effective_batch_size(&self) -> usize {
        self.batch_size.max(1)
    }

    /// The effective worker count (at least 1).
    pub fn effective_num_threads(&self) -> usize {
        self.num_threads.max(1)
    }

    /// The effective cache capacity (at least 1).
    pub fn effective_cache_capacity(&self) -> usize {
        self.cache_capacity.max(1)
    }
}

/// A pending asynchronously submitted query: the completion latch behind
/// [`QueryProcessor::submit`].
///
/// The ticket is a cheap handle to shared completion state. The submitting
/// thread is never blocked by `submit` itself; it blocks only when (and
/// if) it calls [`QueryTicket::wait`] or [`QueryTicket::wait_timeout`].
/// Dropping a ticket without awaiting it is safe — the query still runs to
/// completion on its worker (it owns a snapshot of everything it touches)
/// and the answer is discarded. The ticket can never block forever: a job
/// that is discarded without running (its pool shut down mid-burst)
/// completes the ticket with [`QueryError::AsyncQueryDropped`] from the
/// job's drop guard.
#[derive(Debug)]
pub struct QueryTicket {
    state: Arc<TicketState>,
    /// The pool the job was queued on, for best-effort dequeue on
    /// [`QueryTicket::cancel`]. Weak: a ticket must not keep a shut-down
    /// pool's threads alive.
    pool: std::sync::Weak<crate::parallel::WorkerPool>,
    handle: crate::parallel::JobHandle,
}

#[derive(Debug)]
struct TicketState {
    slot: Mutex<Option<Result<QueryAnswer>>>,
    done: Condvar,
    /// Set by the completion path that wins the first-completion race,
    /// *before* any bookkeeping — the gate that makes the serving
    /// accounting run exactly once per ticket.
    claimed: std::sync::atomic::AtomicBool,
    /// Cheap completion flag so `is_done` never touches the mutex. Set
    /// strictly after the winner's bookkeeping, so a caller that observes
    /// the outcome also observes consistent metrics.
    finished: std::sync::atomic::AtomicBool,
    /// Cooperative cancellation flag the job checks at start and between
    /// planning and execution.
    cancelled: std::sync::atomic::AtomicBool,
}

impl TicketState {
    fn new() -> TicketState {
        TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            claimed: std::sync::atomic::AtomicBool::new(false),
            finished: std::sync::atomic::AtomicBool::new(false),
            cancelled: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Installs the outcome and wakes the waiters. Only the completion
    /// winner (see [`TicketState::claimed`]) may call this.
    fn complete(&self, outcome: Result<QueryAnswer>) {
        let mut slot = self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        debug_assert!(slot.is_none(), "complete is gated by `claimed`");
        *slot = Some(outcome);
        self.finished.store(true, Ordering::Release);
        drop(slot);
        self.done.notify_all();
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

impl QueryTicket {
    /// True once the outcome is available ([`QueryTicket::wait`] would
    /// return without blocking). A cheap atomic load — poll freely.
    pub fn is_done(&self) -> bool {
        self.state.finished.load(Ordering::Acquire)
    }

    /// Alias of [`QueryTicket::is_done`], kept from the PR 4 surface.
    pub fn is_ready(&self) -> bool {
        self.is_done()
    }

    /// Blocks until the submitted query has finished and returns its
    /// answer — or its error: a query that panicked on its worker yields
    /// [`QueryError::AsyncQueryPanicked`], a cancelled one
    /// [`QueryError::Cancelled`], one shed at its deadline
    /// [`QueryError::DeadlineExceeded`], and one whose job was discarded
    /// without running [`QueryError::AsyncQueryDropped`].
    pub fn wait(self) -> Result<QueryAnswer> {
        let mut slot = self.state.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.state.done.wait(slot).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// As [`QueryTicket::wait`], but gives up after `timeout`: `None`
    /// means the query is still pending and the ticket remains usable —
    /// retry, [`QueryTicket::cancel`] it, or fall back to
    /// [`QueryTicket::wait`]. The outcome is left in place (cloned out),
    /// so expiry and completion can race freely: whichever wins, a later
    /// wait sees the same answer.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<QueryAnswer>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.state.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, timed_out) = self
                .state
                .done
                .wait_timeout(slot, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = guard;
            if timed_out.timed_out() && slot.is_none() {
                return None;
            }
        }
    }

    /// Requests best-effort cancellation: if the job is still queued it is
    /// dequeued and never runs; if it is already running, the flag is
    /// checked between planning and execution; a query deep in its
    /// propagation runs to completion (the answer is then discarded in
    /// favour of the earlier [`QueryError::Cancelled`] outcome only if the
    /// cancellation completed the ticket first — first completion wins).
    /// Returns `false` when the ticket had already finished, `true` when
    /// the request was registered in time (the definitive outcome is
    /// whatever [`QueryTicket::wait`] returns).
    pub fn cancel(&self) -> bool {
        if self.is_done() {
            return false;
        }
        self.state.cancelled.store(true, Ordering::Release);
        if let Some(pool) = self.pool.upgrade() {
            // Dequeue if not started: dropping the removed job box fires
            // its guard, which observes the flag and completes the ticket
            // with `Cancelled`.
            pool.cancel_queued(self.handle);
        }
        true
    }
}

/// Completes a submitted query's ticket on **every** exit path and
/// performs the serving bookkeeping exactly once. Owned by the job
/// closure: if the job runs, the body completes the ticket explicitly;
/// if the job box is dropped without running — pool shut down mid-burst,
/// cancellation dequeue, or an unwind discarding the queue — the guard's
/// `Drop` completes it with [`QueryError::Cancelled`] or
/// [`QueryError::AsyncQueryDropped`], so `wait` can never block forever.
struct TicketGuard {
    state: Arc<TicketState>,
    pending: Arc<AtomicUsize>,
    metrics: Arc<crate::serving::Metrics>,
}

impl TicketGuard {
    /// Completes the ticket (first completion wins), releasing the
    /// processor's admission slot and tallying the async outcome
    /// **before** the waiters are woken, so metrics observed after `wait`
    /// returns always include this query.
    fn finish(&self, outcome: Result<QueryAnswer>) {
        use crate::serving::AsyncOutcome;
        if self.state.claimed.swap(true, Ordering::AcqRel) {
            return;
        }
        let kind = match &outcome {
            Ok(_) => AsyncOutcome::Completed,
            Err(QueryError::Cancelled) => AsyncOutcome::Cancelled,
            Err(QueryError::AsyncQueryDropped) => AsyncOutcome::Dropped,
            Err(QueryError::DeadlineExceeded) => AsyncOutcome::DeadlineExpired,
            Err(QueryError::AsyncQueryPanicked) => AsyncOutcome::Panicked,
            Err(_) => AsyncOutcome::Failed,
        };
        self.pending.fetch_sub(1, Ordering::AcqRel);
        self.metrics.record_async_finished(kind);
        self.state.complete(outcome);
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        if self.state.claimed.load(Ordering::Acquire) {
            return;
        }
        let error = if self.state.is_cancelled() {
            QueryError::Cancelled
        } else if std::thread::panicking() {
            QueryError::AsyncQueryPanicked
        } else {
            QueryError::AsyncQueryDropped
        };
        self.finish(Err(error));
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
/// Every execution routes through the batched propagation kernel and the
/// [`crate::parallel::ShardedExecutor`]: with the default configuration
/// (`num_threads == 1`) the single shard runs inline on the caller's
/// thread; with [`EngineConfig::with_num_threads`] `> 1` the processor
/// **owns a [`crate::parallel::WorkerPool`]** — the worker threads are
/// spawned once at construction, reused by every query, and joined when
/// the processor is dropped. Query-based evaluations share one
/// [`cache::FieldCache`] (sized by [`EngineConfig::cache_capacity`], behind
/// a lock), so repeated or overlapping windows skip their backward sweeps.
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
/// [`Subscription`] whose answer is incrementally maintained on every
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
    db: RwLock<TrajectoryDatabase>,
    config: EngineConfig,
    /// The processor's long-lived workers; `None` runs inline
    /// (`num_threads <= 1`).
    pool: Option<Arc<crate::parallel::WorkerPool>>,
    /// The backward fields of every rule, shared by the query-based
    /// evaluations (and by asynchronous submissions), reused across
    /// queries and windows.
    cache: Arc<Mutex<cache::FieldCache>>,
    /// Round-robin shard assignment for submitted queries.
    submit_seq: AtomicUsize,
    /// Serving registry: admission outcomes and per-plan latencies.
    /// Shared with every submitted job.
    metrics: Arc<crate::serving::Metrics>,
    /// Asynchronous submissions accepted but not yet finished — the
    /// counter [`EngineConfig::max_queue_depth`] bounds. Standing-query
    /// refreshes hold a slot while they run, so re-evaluation load and
    /// submitted queries share one admission budget.
    pending: Arc<AtomicUsize>,
    /// Registered standing queries; cancelled entries are pruned on the
    /// next arrival.
    subscriptions: Mutex<Vec<Arc<SubscriptionState>>>,
    /// Serializes the snapshot-and-refresh phase of concurrent ingests so
    /// subscriptions observe arrivals in a single global order.
    notify_lock: Mutex<()>,
    /// Monotonic subscription ids.
    watch_seq: AtomicU64,
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

    /// Creates a processor with a custom configuration. With
    /// `config.num_threads > 1` this spawns the processor's worker pool —
    /// construct once and reuse, rather than per query.
    pub fn with_config(db: &TrajectoryDatabase, config: EngineConfig) -> Self {
        let threads = config.effective_num_threads();
        // The owned pool is a serving pool: per-shard queues bounded by
        // the admission depth, and a backlog that is shed (tickets
        // completed with `AsyncQueryDropped`) rather than drained if the
        // processor is dropped mid-burst.
        let pool = (threads > 1).then(|| {
            Arc::new(crate::parallel::WorkerPool::with_queue_depth(threads, config.max_queue_depth))
        });
        let capacity = config.effective_cache_capacity();
        QueryProcessor {
            db: RwLock::new(db.clone()),
            config,
            pool,
            cache: Arc::new(Mutex::new(cache::FieldCache::new(capacity))),
            submit_seq: AtomicUsize::new(0),
            metrics: Arc::new(crate::serving::Metrics::new()),
            pending: Arc::new(AtomicUsize::new(0)),
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
        self.db.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Number of objects currently in the processor's database.
    pub fn len(&self) -> usize {
        self.db.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when the processor's database holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The processor's worker pool (`None` when it evaluates inline).
    pub fn pool(&self) -> Option<&Arc<crate::parallel::WorkerPool>> {
        self.pool.as_ref()
    }

    /// An executor over the processor's own pool (or inline).
    fn executor(&self) -> crate::parallel::ShardedExecutor {
        match &self.pool {
            Some(pool) => crate::parallel::ShardedExecutor::on_pool(Arc::clone(pool)),
            None => crate::parallel::ShardedExecutor::sequential(),
        }
    }

    /// The execution context over a caller-held database snapshot.
    fn context_on<'s>(&'s self, db: &'s TrajectoryDatabase) -> plan::ExecContext<'s> {
        plan::ExecContext {
            db,
            config: &self.config,
            executor: self.executor(),
            cache: &self.cache,
            metrics: &self.metrics,
        }
    }

    /// A snapshot of the processor's serving counters: submissions
    /// accepted / rejected / cancelled / dropped / shed, per-plan queue
    /// wait, plan and execute latencies and cache traffic. Every
    /// [`QueryProcessor::submit`] and
    /// every execution (synchronous or asynchronous) is accounted here.
    pub fn metrics(&self) -> crate::serving::MetricsSnapshot {
        self.metrics.snapshot()
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
        plan::execute(&self.context_on(&snapshot), spec, stats)
    }

    /// Returns the planner's decision for a spec without executing it:
    /// the resolved strategy, per-strategy cost estimates and cache
    /// residency. The subsequent [`QueryProcessor::execute`] of the same
    /// spec follows this plan (cache state permitting — a plan is a
    /// snapshot, not a reservation).
    pub fn explain(&self, spec: &QuerySpec) -> Result<QueryPlan> {
        let snapshot = self.snapshot();
        plan::plan(&self.context_on(&snapshot), spec)
    }

    /// Submits a query for asynchronous evaluation and returns a
    /// [`QueryTicket`] **immediately** — the async front door, now behind
    /// admission control.
    ///
    /// The query runs as one job on the processor's worker pool (or the
    /// process-wide shared pool — sized from the host's available
    /// parallelism — when the processor evaluates inline), capturing an
    /// owned snapshot of the database handle, the configuration and the
    /// shared field cache — so the ticket outlives the borrow rules:
    /// callers can submit a burst, keep inserting into their own database
    /// handle, and await the answers later. Within the job the evaluation
    /// is sequential (pool workers do not re-shard onto the pool); a
    /// burst of submissions parallelizes **across** queries instead,
    /// round-robin over the shard queues. Submitted queries share the
    /// processor's cache, so a burst over the same window sweeps its
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
        let limit = self.config.max_queue_depth;
        if limit > 0 {
            // Reserve an admission slot, or reject without blocking.
            let mut current = self.pending.load(Ordering::Relaxed);
            loop {
                if current >= limit {
                    self.metrics.record_rejected(spec.predicate(), spec.strategy());
                    return Err(QueryError::QueueFull { limit });
                }
                match self.pending.compare_exchange_weak(
                    current,
                    current + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(observed) => current = observed,
                }
            }
        } else {
            self.pending.fetch_add(1, Ordering::AcqRel);
        }
        self.metrics.record_accepted();

        let state = Arc::new(TicketState::new());
        let guard = TicketGuard {
            state: Arc::clone(&state),
            pending: Arc::clone(&self.pending),
            metrics: Arc::clone(&self.metrics),
        };
        let db = self.snapshot();
        let config = self.config;
        let cache = Arc::clone(&self.cache);
        let metrics = Arc::clone(&self.metrics);
        let spec = spec.clone();
        let pool = match &self.pool {
            Some(pool) => Arc::clone(pool),
            // Inline processors fall back to the process-wide pool, sized
            // from the host rather than a single funnel worker (a 1-wide
            // shared pool would serialize every inline submitter in the
            // process behind one queue).
            None => crate::parallel::shared_pool(
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            ),
        };
        let shard = self.submit_seq.fetch_add(1, Ordering::Relaxed);
        let submitted_at = std::time::Instant::now();
        let deadline = self.config.default_deadline;
        let job: Box<dyn FnOnce() + Send + 'static> = Box::new(move || {
            let queue_wait = submitted_at.elapsed();
            if guard.state.is_cancelled() {
                guard.finish(Err(QueryError::Cancelled));
                return;
            }
            if deadline.is_some_and(|d| queue_wait > d) {
                guard.finish(Err(QueryError::DeadlineExceeded));
                return;
            }
            let ticket_state = Arc::clone(&guard.state);
            let interrupt = move || {
                if ticket_state.is_cancelled() {
                    return Some(QueryError::Cancelled);
                }
                if deadline.is_some_and(|d| submitted_at.elapsed() > d) {
                    return Some(QueryError::DeadlineExceeded);
                }
                None
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let ctx = plan::ExecContext {
                    db: &db,
                    config: &config,
                    executor: crate::parallel::ShardedExecutor::sequential(),
                    cache: &cache,
                    metrics: &metrics,
                };
                plan::execute_monitored(
                    &ctx,
                    &spec,
                    &mut EvalStats::new(),
                    Some(&interrupt),
                    Some(queue_wait),
                )
            }));
            guard.finish(outcome.unwrap_or(Err(QueryError::AsyncQueryPanicked)));
        });
        // The pending counter above *is* the admission decision, so the
        // enqueue itself is unconditional: `try_spawn`'s per-shard bound
        // protects direct pool users, but a submission that already holds
        // an admission slot must never be refused for a reason the
        // caller would misread as `QueueFull` (e.g. a caller filling a
        // shard through the public `pool()` handle, or a pool shutting
        // down mid-burst — the latter completes the ticket with
        // `AsyncQueryDropped` through the job's drop guard either way).
        let handle = pool.spawn(shard, job);
        Ok(QueryTicket { state, pool: Arc::downgrade(&pool), handle })
    }

    /// Registers a standing query: evaluates `spec` once against the
    /// current database and returns a [`Subscription`] whose answer is
    /// then maintained incrementally — every applied
    /// [`QueryProcessor::ingest`] / [`QueryProcessor::insert`] re-evaluates
    /// exactly the affected object (through the planner, so prefilter,
    /// batching, caches and metrics all apply) and splices the result into
    /// the maintained state. [`Subscription::answer`] is bit-for-bit what
    /// a from-scratch [`QueryProcessor::execute`] of
    /// [`Subscription::spec`] returns on a database holding the same
    /// applied observations — including errors, which are maintained with
    /// the same fidelity (`tests/streaming.rs` pins the equivalence).
    ///
    /// Two stabilizing choices happen at registration:
    ///
    /// * [`Strategy::Auto`] is resolved **once** against the current
    ///   database and pinned (re-planning per arrival could flip the
    ///   strategy between refreshes, and the exact strategies agree only
    ///   to rounding). If planning itself fails, the subscription pins
    ///   [`Strategy::QueryBased`] — the canonical streaming strategy —
    ///   and holds the evaluation error until arrivals repair it.
    /// * `∃` top-k specs pinned object-based are re-pinned query-based:
    ///   the OB ranking's reachability pruning *omits* provably
    ///   unreachable objects from its zero-probability tail, an omission
    ///   contract that cannot be reproduced incrementally (ranked values
    ///   are identical either way).
    ///
    /// Query-based subscriptions also pre-sweep their backward fields
    /// densely over every anchor time in `[0, t_end]`, so subsequent
    /// refreshes are pure cache hits: one sparse dot product per arrival,
    /// zero backward steps (the benchmark's `stream_mixed` workload reports
    /// it as `streaming.incremental_steps`).
    pub fn watch(&self, spec: &QuerySpec) -> Result<Subscription> {
        let snapshot = self.snapshot();
        let pinned_strategy = match spec.strategy() {
            Strategy::Auto => plan::plan(&self.context_on(&snapshot), spec)
                .map(|p| p.strategy)
                .unwrap_or(Strategy::QueryBased),
            explicit => explicit,
        };
        let pinned_strategy = match (spec.predicate(), spec.decorator(), pinned_strategy) {
            (Predicate::Exists, Decorator::TopK(_), Strategy::ObjectBased) => Strategy::QueryBased,
            (_, _, resolved) => resolved,
        };
        let pinned = streaming::pin_strategy(spec, pinned_strategy)?;
        let mut stats = EvalStats::new();
        if pinned.strategy() == Strategy::QueryBased {
            self.warm_backward_fields(&snapshot, &pinned, &mut stats);
        }
        let raw = streaming::probe_spec(&pinned, None)
            .and_then(|probe| plan::execute(&self.context_on(&snapshot), &probe, &mut stats))
            .map(RawAnswer::from_answer);
        let id = self.watch_seq.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_stream_watch(id, stats.total_steps());
        let state = Arc::new(SubscriptionState::new(id, pinned, raw));
        self.subscriptions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&state));
        Ok(Subscription::from_state(state))
    }

    /// Applies a latest-fix observation to the processor's database (see
    /// [`TrajectoryDatabase::ingest`]: a fix at or after the stored
    /// anchor's time supersedes it, an older one is ignored as stale) and,
    /// when applied, refreshes every registered subscription whose scope
    /// contains `object_id` — synchronously, under the same admission
    /// bound and deadline as [`QueryProcessor::submit`]ted queries.
    ///
    /// The write lock is held only for the (copy-on-write) database
    /// mutation; refreshes evaluate against an immutable snapshot taken
    /// after it, so queries racing the ingest see either the old or the
    /// new database, never a torn state. A refresh shed by the admission
    /// bound ([`QueryError::QueueFull`]) or the deadline
    /// ([`QueryError::DeadlineExceeded`]) marks its subscription stale
    /// (see [`Subscription::is_stale`]); the next admitted refresh
    /// resynchronizes with a full re-evaluation.
    pub fn ingest(&self, object_id: u64, observation: Observation) -> Result<IngestOutcome> {
        let arrived = std::time::Instant::now();
        let outcome = {
            let mut db = self.db.write().unwrap_or_else(std::sync::PoisonError::into_inner);
            db.ingest(object_id, observation)?
        };
        if outcome == IngestOutcome::Applied {
            self.refresh_subscriptions(object_id, arrived);
        }
        Ok(outcome)
    }

    /// Inserts a new object into the processor's database and refreshes
    /// every subscription whose scope contains it (whole-database
    /// subscriptions list the newcomer exactly where a full re-evaluation
    /// would: at the end, in database order).
    pub fn insert(&self, object: UncertainObject) -> Result<()> {
        let arrived = std::time::Instant::now();
        let object_id = object.id();
        {
            let mut db = self.db.write().unwrap_or_else(std::sync::PoisonError::into_inner);
            db.insert(object)?;
        }
        self.refresh_subscriptions(object_id, arrived);
        Ok(())
    }

    /// Pre-sweeps the shared backward-field cache densely over every
    /// anchor time in `[0, t_end]` for the models a query-based
    /// subscription can touch: single-object refreshes then hit whatever
    /// anchor time an arrival lands on without any backward work. Each
    /// predicate warms the field of its own rule over the spec's window. A
    /// failed warm sweep is deliberately
    /// swallowed — the evaluation path reports the error with its proper
    /// payload (as it does for the full-space ∀ window no strategy
    /// answers, which is not warmed at all).
    fn warm_backward_fields(
        &self,
        db: &TrajectoryDatabase,
        spec: &QuerySpec,
        stats: &mut EvalStats,
    ) {
        let window = spec.window();
        let rule = plan::field_rule(spec.predicate());
        if rule == query_based::FieldRule::ForAll && forall::reject_full_space(window).is_err() {
            return;
        }
        let anchors: Vec<u32> = (0..=window.t_end()).collect();
        let models: std::collections::BTreeSet<usize> = match spec.objects() {
            Some(ids) => ids
                .iter()
                .filter_map(|&id| db.index_of(id))
                .filter_map(|idx| db.object(idx))
                .map(|o| o.model())
                .collect(),
            None => db.objects().iter().map(|o| o.model()).collect(),
        };
        for model in models {
            let Some(chain) = db.models().get(model) else { continue };
            let _ = cache::FieldCache::get_or_compute_shared_concurrent(
                &self.cache,
                model,
                chain,
                window,
                rule,
                &anchors,
                &self.config,
                stats,
            );
        }
    }

    /// The notification phase of an applied arrival: prunes cancelled
    /// subscriptions, snapshots the database once, and refreshes every
    /// subscription in scope. Serialized by `notify_lock` so concurrent
    /// ingests commit their refreshes in a single global order.
    fn refresh_subscriptions(&self, object_id: u64, arrived: std::time::Instant) {
        let _serialized =
            self.notify_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let subs: Vec<Arc<SubscriptionState>> = {
            let mut registry =
                self.subscriptions.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            registry.retain(|s| !s.is_cancelled());
            registry.clone()
        };
        if subs.is_empty() {
            return;
        }
        let snapshot = self.snapshot();
        for sub in subs {
            if sub.is_cancelled() {
                continue;
            }
            if let Some(ids) = sub.spec.objects() {
                if !ids.contains(&object_id) {
                    // Out of scope: the maintained answer provably cannot
                    // change, so nothing is invalidated or re-evaluated.
                    continue;
                }
            }
            // lint: allow(lock-held-across-blocking) — notify_lock is the
            // root of the lock hierarchy and exists precisely to hold
            // across refresh execution: concurrent ingests must commit
            // their refreshes in one global order, and nothing ever
            // acquires notify_lock while holding another lock.
            self.refresh_one(&sub, &snapshot, object_id, arrived);
        }
    }

    /// Refreshes one subscription against `snapshot`. The refresh is a
    /// first-class serving job: it reserves an admission slot (or is shed
    /// with [`QueryError::QueueFull`]), honours the configured deadline
    /// against the arrival time, and tallies its outcome in the async
    /// lifecycle counters — so streaming load is visible to (and bounded
    /// by) the same backpressure as submitted queries.
    fn refresh_one(
        &self,
        sub: &SubscriptionState,
        snapshot: &TrajectoryDatabase,
        object_id: u64,
        arrived: std::time::Instant,
    ) {
        let limit = self.config.max_queue_depth;
        if limit > 0 {
            let mut current = self.pending.load(Ordering::Relaxed);
            loop {
                if current >= limit {
                    self.metrics.record_rejected(sub.spec.predicate(), sub.spec.strategy());
                    self.shed_refresh(sub, QueryError::QueueFull { limit });
                    return;
                }
                match self.pending.compare_exchange_weak(
                    current,
                    current + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(observed) => current = observed,
                }
            }
        } else {
            self.pending.fetch_add(1, Ordering::AcqRel);
        }
        self.metrics.record_accepted();
        if self.config.default_deadline.is_some_and(|d| arrived.elapsed() > d) {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            self.metrics.record_async_finished(crate::serving::AsyncOutcome::DeadlineExpired);
            self.shed_refresh(sub, QueryError::DeadlineExceeded);
            return;
        }

        let ctx = self.context_on(snapshot);
        let mut stats = EvalStats::new();
        // Decide the refresh shape under a short guard, then evaluate with
        // the guard released: plan execution fans out to the worker pool,
        // and a guard held across it would order `SubscriptionState.inner`
        // above the whole execution stack. `notify_lock` serializes
        // refreshes, so nothing else commits into this subscription
        // between the probe below and the commit relock.
        //
        // A stale or errored subscription resynchronizes with a full
        // re-evaluation; so does a Monte-Carlo one, whose per-object
        // sampling is only reproducible as a whole run.
        let needs_full = {
            let inner = sub.lock();
            inner.stale || inner.raw.is_err() || sub.spec.strategy() == Strategy::MonteCarlo
        };
        let committed_ok;
        if needs_full {
            let outcome = streaming::probe_spec(&sub.spec, None)
                .and_then(|probe| plan::execute(&ctx, &probe, &mut stats))
                .map(RawAnswer::from_answer);
            committed_ok = outcome.is_ok();
            let mut inner = sub.lock();
            inner.raw = outcome;
            inner.stale = false;
            inner.notifications += 1;
            drop(inner);
            self.metrics.record_stream_resync(sub.id, stats.total_steps());
        } else {
            // Suffix-scoped invalidation: exactly one maintained entry —
            // the ingested object's — is invalidated and recomputed; the
            // backward-field caches stay valid (their keys are
            // observation-independent), so the refresh reuses them.
            match streaming::probe_spec(&sub.spec, Some(object_id))
                .and_then(|probe| plan::execute(&ctx, &probe, &mut stats))
            {
                Ok(answer) => {
                    let mut inner = sub.lock();
                    if let Ok(raw) = inner.raw.as_mut() {
                        raw.splice(RawAnswer::from_answer(answer));
                    }
                    inner.notifications += 1;
                    committed_ok = true;
                }
                Err(_) => {
                    // The narrowed refresh failed validation: re-run the
                    // full batch evaluation so the stored error carries
                    // exactly the payload a from-scratch execution
                    // reports (e.g. which object a window-validation
                    // error names).
                    let mut full_stats = EvalStats::new();
                    let outcome = streaming::probe_spec(&sub.spec, None)
                        .and_then(|probe| plan::execute(&ctx, &probe, &mut full_stats))
                        .map(RawAnswer::from_answer);
                    stats.merge(&full_stats);
                    committed_ok = outcome.is_ok();
                    let mut inner = sub.lock();
                    inner.raw = outcome;
                    inner.notifications += 1;
                }
            }
            self.metrics.record_stream_refresh(sub.id, stats.total_steps());
        }
        self.pending.fetch_sub(1, Ordering::AcqRel);
        self.metrics.record_async_finished(if committed_ok {
            crate::serving::AsyncOutcome::Completed
        } else {
            crate::serving::AsyncOutcome::Failed
        });
    }

    /// Marks a shed refresh: the subscription is stale until its next
    /// admitted refresh, and the shed error is kept for inspection.
    fn shed_refresh(&self, sub: &SubscriptionState, error: QueryError) {
        self.metrics.record_stream_shed(sub.id);
        let mut inner = sub.lock();
        inner.stale = true;
        inner.last_shed = Some(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, QueryWindow};
    use ust_markov::testutil;
    use ust_space::TimeSet;

    fn small_db(seed: u64, n_states: usize, n_objects: usize) -> TrajectoryDatabase {
        let chain = testutil::random_chain(seed, n_states, 3);
        let mut rng = testutil::rng(seed + 1);
        let mut db = TrajectoryDatabase::new(chain);
        for i in 0..n_objects {
            let dist = testutil::random_distribution(&mut rng, n_states, 2);
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::uncertain(0, dist).unwrap(),
            ))
            .unwrap();
        }
        db
    }

    fn exists_spec(db: &TrajectoryDatabase) -> QuerySpec {
        let window =
            QueryWindow::from_states(db.num_states(), [1usize, 2], TimeSet::interval(2, 4))
                .unwrap();
        Query::exists().window(window).build().unwrap()
    }

    /// Satellite bugfix: a panicking job leaves the shared field-cache
    /// mutex poisoned; every lock site must recover via
    /// `PoisonError::into_inner` so the processor keeps serving.
    #[test]
    fn poisoned_cache_mutex_recovers_after_panicking_job() {
        let db = small_db(41, 12, 6);
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
        let spec = exists_spec(&db);
        // Baseline through the cache so a QB sweep is resident.
        let forced = Query::exists()
            .window(spec.window().clone())
            .strategy(Strategy::QueryBased)
            .build()
            .unwrap();
        let baseline = processor.execute(&forced).unwrap();

        // Poison the cache mutex: a scoped job panics while holding it.
        let cache = Arc::clone(&processor.cache);
        let pool = Arc::clone(processor.pool().unwrap());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_scoped(vec![Box::new(move || {
                let _guard = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("poison the cache lock");
            }) as Box<dyn FnOnce() + Send + '_>]);
        }));
        assert!(caught.is_err(), "the panic re-raises on the submitter");
        assert!(processor.cache.is_poisoned(), "the mutex really is poisoned");

        // Both the synchronous and the asynchronous paths must still
        // serve — and bit-identically to the pre-poison answer.
        let again = processor.execute(&forced).unwrap();
        assert_eq!(again, baseline);
        let ticket = processor.submit(&forced).unwrap();
        assert_eq!(ticket.wait().unwrap(), baseline);
    }

    /// Satellite bugfix: an inline processor's submit must not funnel the
    /// whole process through a single shared worker — the fallback pool is
    /// sized from the host's available parallelism.
    #[test]
    fn inline_submit_fallback_pool_is_sized_from_available_parallelism() {
        let db = small_db(43, 10, 4);
        let processor = QueryProcessor::new(&db);
        assert!(processor.pool().is_none(), "inline processors own no pool");
        let ticket = processor.submit(&exists_spec(&db)).unwrap();
        ticket.wait().unwrap();
        let expected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert!(
            crate::parallel::shared_pool(1).num_threads() >= expected,
            "the shared fallback pool must hold at least the host parallelism"
        );
    }

    /// Satellite bugfix: a job discarded without running must still
    /// complete its ticket (with `AsyncQueryDropped`), not strand `wait`.
    #[test]
    fn dropped_job_completes_its_ticket() {
        let db = small_db(47, 10, 4);
        let spec = exists_spec(&db);
        let processor = QueryProcessor::with_config(
            &db,
            EngineConfig::default().with_num_threads(2).with_max_queue_depth(8),
        );
        let pool = processor.pool().unwrap();
        // Gate both workers so the submitted job stays queued.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        for shard in 0..2 {
            let gate = Arc::clone(&gate);
            pool.spawn(
                shard,
                Box::new(move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    while !*open {
                        open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }),
            );
        }
        while pool.stats().queued_jobs > 0 {
            std::thread::yield_now();
        }
        let ticket = processor.submit(&spec).unwrap();
        assert!(!ticket.is_done());
        assert_eq!(processor.metrics().in_flight, 1);
        // Begin shutdown while the job is still queued, then release the
        // gates: the discard-mode workers shed the backlog instead of
        // running it — pool shut down mid-burst.
        pool.close_queues();
        let (lock, cv) = &*gate;
        *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        assert_eq!(ticket.wait(), Err(QueryError::AsyncQueryDropped));
        let metrics = processor.metrics();
        assert_eq!(metrics.dropped, 1);
        assert_eq!(metrics.in_flight, 0);
    }

    /// Deadline admission: a job that starts after its deadline is shed
    /// with `DeadlineExceeded` instead of executing stale work.
    #[test]
    fn expired_deadline_sheds_the_query() {
        let db = small_db(53, 10, 4);
        let spec = exists_spec(&db);
        let processor = QueryProcessor::with_config(
            &db,
            EngineConfig::default()
                .with_num_threads(2)
                .with_default_deadline(std::time::Duration::ZERO),
        );
        // A zero deadline has always expired by the time a job starts:
        // every admitted submission of the burst is shed and counted.
        let tickets: Vec<_> = (0..4).map(|_| processor.submit(&spec).unwrap()).collect();
        for ticket in tickets {
            assert_eq!(ticket.wait(), Err(QueryError::DeadlineExceeded));
        }
        let metrics = processor.metrics();
        assert_eq!(metrics.deadline_expired, 4);
        assert_eq!(metrics.executions, 0, "shed jobs never execute");
        assert_eq!(metrics.in_flight, 0);
    }

    /// The serving registry accounts for every submission and execution.
    #[test]
    fn metrics_account_for_sync_and_async_queries() {
        let db = small_db(59, 12, 5);
        let spec = exists_spec(&db);
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
        processor.execute(&spec).unwrap();
        let tickets: Vec<_> = (0..3).map(|_| processor.submit(&spec).unwrap()).collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let metrics = processor.metrics();
        assert_eq!(metrics.submitted, 3);
        assert_eq!(metrics.accepted, 3);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.in_flight, 0);
        assert_eq!(metrics.finished() + metrics.in_flight, metrics.accepted);
        assert_eq!(metrics.executions, 4, "one sync + three async executions");
        let total_plan_execs: u64 = metrics.plans.iter().map(|p| p.executions).sum();
        assert_eq!(total_plan_execs, 4);
        let entry = metrics
            .plans
            .iter()
            .find(|p| p.predicate == crate::query::Predicate::Exists)
            .expect("the exists plan shape was recorded");
        assert!(entry.execute_secs > 0.0);
        assert!(entry.queue_wait_secs >= 0.0);
        assert!(!metrics.to_string().is_empty());
    }

    /// A bound decorator halves the object-based step estimate, and
    /// nothing an execution measures feeds back into the next plan.
    #[test]
    fn bound_discount_is_flat_across_executions() {
        let db = small_db(61, 12, 6);
        let window =
            QueryWindow::from_states(db.num_states(), [1usize, 2], TimeSet::interval(2, 4))
                .unwrap();
        let plain = Query::exists().window(window.clone()).build().unwrap();
        let bounded = Query::exists().window(window).threshold(0.4).build().unwrap();
        let processor = QueryProcessor::new(&db);
        let unbounded = processor.explain(&plain).unwrap().object_based;
        let cold = processor.explain(&bounded).unwrap().object_based;
        assert_eq!(cold.step_ops, 0.5 * unbounded.step_ops);
        assert_eq!(cold.object_ops, unbounded.object_ops);
        processor.execute(&bounded).unwrap();
        assert_eq!(processor.explain(&bounded).unwrap().object_based, cold);
    }

    fn fresh_answer(processor: &QueryProcessor, spec: &QuerySpec) -> Result<QueryAnswer> {
        QueryProcessor::new(&processor.snapshot()).execute(spec)
    }

    /// The tentpole contract in miniature: after ingests, a stale
    /// rejection and an insert, the maintained answer is bit-for-bit what
    /// a from-scratch execution over the current snapshot returns.
    #[test]
    fn watch_maintains_batch_identical_answers() {
        let db = small_db(67, 12, 6);
        let processor = QueryProcessor::new(&db);
        let sub = processor.watch(&exists_spec(&db)).unwrap();
        assert_ne!(sub.spec().strategy(), Strategy::Auto, "Auto resolves at registration");
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));

        let mut rng = testutil::rng(97);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        let applied = processor.ingest(2, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(applied, IngestOutcome::Applied);
        assert_eq!(sub.notifications(), 1);
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));

        // An out-of-order fix is ignored and triggers no notification.
        let stale_dist = testutil::random_distribution(&mut rng, 12, 2);
        let stale = processor.ingest(2, Observation::uncertain(0, stale_dist).unwrap()).unwrap();
        assert_eq!(stale, IngestOutcome::IgnoredStale);
        assert_eq!(sub.notifications(), 1);

        // A newly inserted object joins the maintained answer exactly
        // where a full re-evaluation lists it: last, in database order.
        let new_dist = testutil::random_distribution(&mut rng, 12, 2);
        processor
            .insert(UncertainObject::with_single_observation(
                99,
                Observation::uncertain(0, new_dist).unwrap(),
            ))
            .unwrap();
        assert_eq!(sub.notifications(), 2);
        let answer = sub.answer().unwrap();
        assert_eq!(answer.probabilities().unwrap().last().unwrap().object_id, 99);
        assert_eq!(Ok(answer), fresh_answer(&processor, sub.spec()));
    }

    /// The streaming economics: a query-based subscription pre-sweeps its
    /// backward fields at registration, so an in-scope arrival costs zero
    /// propagation steps — the maintained entry is invalidated and
    /// recomputed as a cached-field dot product.
    #[test]
    fn warm_query_based_refresh_costs_zero_propagation_steps() {
        let db = small_db(71, 12, 6);
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists()
            .window(exists_spec(&db).window().clone())
            .strategy(Strategy::QueryBased)
            .build()
            .unwrap();
        let sub = processor.watch(&spec).unwrap();

        let mut rng = testutil::rng(101);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(0, Observation::uncertain(2, dist).unwrap()).unwrap();

        let metrics = processor.metrics();
        let stream = metrics.stream(sub.id()).expect("watch registered the stream");
        assert!(stream.recompute_steps > 0, "registration paid the dense sweep");
        assert_eq!(stream.reevaluations, 1);
        assert_eq!(stream.suffix_invalidations, 1, "exactly one maintained entry invalidated");
        assert_eq!(stream.incremental_steps, 0, "the refresh was pure cache hits");
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
    }

    /// Scoped subscriptions ignore out-of-scope arrivals entirely — no
    /// invalidation, no re-evaluation, no notification.
    #[test]
    fn out_of_scope_arrivals_do_not_touch_scoped_subscriptions() {
        let db = small_db(73, 12, 6);
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists()
            .window(exists_spec(&db).window().clone())
            .objects([1u64, 3])
            .build()
            .unwrap();
        let sub = processor.watch(&spec).unwrap();
        let before = sub.answer();

        let mut rng = testutil::rng(103);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(0, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(sub.notifications(), 0);
        assert_eq!(sub.answer(), before);
        let metrics = processor.metrics();
        assert_eq!(metrics.stream(sub.id()).unwrap().reevaluations, 0);

        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(3, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(sub.notifications(), 1);
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
    }

    /// Cancelling (or dropping) a subscription unregisters it: the next
    /// arrival prunes it from the registry without refreshing it.
    #[test]
    fn cancelled_subscriptions_are_pruned_on_the_next_arrival() {
        let db = small_db(79, 12, 5);
        let processor = QueryProcessor::new(&db);
        let sub = processor.watch(&exists_spec(&db)).unwrap();
        drop(processor.watch(&exists_spec(&db)).unwrap());
        sub.cancel();
        assert!(sub.is_cancelled());

        let mut rng = testutil::rng(107);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(1, Observation::uncertain(1, dist).unwrap()).unwrap();
        assert_eq!(sub.notifications(), 0, "cancelled subscriptions never refresh");
        let registry =
            processor.subscriptions.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(registry.is_empty(), "the arrival pruned both dead subscriptions");
        // The cancelled subscription still answers from its last state.
        assert!(sub.answer().is_ok());
    }

    /// `∃` top-k pinned object-based would inherit the OB ranking's
    /// omission contract (provably unreachable objects are left off the
    /// zero tail), which cannot be maintained incrementally — watch
    /// re-pins it query-based, where ranked values are identical.
    #[test]
    fn exists_topk_subscriptions_pin_query_based() {
        let db = small_db(83, 12, 6);
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists()
            .window(exists_spec(&db).window().clone())
            .top_k(3)
            .strategy(Strategy::ObjectBased)
            .build()
            .unwrap();
        let sub = processor.watch(&spec).unwrap();
        assert_eq!(sub.spec().strategy(), Strategy::QueryBased);
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
        let mut rng = testutil::rng(109);
        let dist = testutil::random_distribution(&mut rng, 12, 3);
        processor.ingest(4, Observation::uncertain(2, dist).unwrap()).unwrap();
        assert_eq!(sub.answer(), fresh_answer(&processor, sub.spec()));
    }
}
