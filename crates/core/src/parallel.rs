//! Long-lived worker-pool execution behind [`crate::engine::QueryProcessor`].
//!
//! All of the paper's queries are embarrassingly parallel over objects —
//! each propagation touches only the shared read-only chain. Two layers
//! turn that observation into a serving architecture rather than a
//! per-query thread spawn:
//!
//! * [`WorkerPool`] — a fixed set of **long-lived worker threads**, one
//!   per-shard work queue each, created once (typically owned by a
//!   [`crate::engine::QueryProcessor`]) and reused by every query until the
//!   pool is dropped, at which point the workers shed their queues and
//!   shut down. This replaces the per-query
//!   `std::thread::scope` fan-out of earlier revisions: a query enqueues
//!   one job per shard and blocks until all shards report completion.
//! * [`ShardedExecutor`] — the sharding logic: it splits the database's
//!   object indices into contiguous chunks, gives each worker **its own
//!   [`Propagator`]** (and thus its own scratch accumulator and batch
//!   buffers), and stitches the per-object outputs back in database order,
//!   merging the per-worker [`EvalStats`] deterministically in shard order.
//!
//! The planner's query-based dispatch adds a third ingredient, the
//! **shared-field plan** (`engine::query_based::SharedFieldPlan`):
//! each `(model, window, rule)`
//! backward field is swept **exactly once** before the fan-out — or fetched
//! from the processor's [`crate::engine::cache::FieldCache`] behind a lock —
//! and the workers receive read-only [`std::sync::Arc`] views, so no worker
//! ever re-sweeps a field another worker (or a previous query) already
//! paid for. The deduplication is observable through
//! [`EvalStats::fields_shared`].
//!
//! Every [`crate::engine::QueryProcessor`] execution routes through the
//! executor: with [`crate::engine::EngineConfig::num_threads`] `== 1` the
//! worker runs inline on the caller's thread (no queue hop), at higher
//! counts the shards run on the pool. Within each shard the drivers are
//! the same batched ones the sequential reference drivers use, so parallel
//! results are **bit-for-bit identical** to sequential evaluation for
//! ∃/∀/k, threshold decisions and top-k rankings (asserted by the tests
//! below and the property suite).
//!
//! ## Detached jobs and shutdown
//!
//! Detached jobs (the [`crate::engine::QueryProcessor::submit`] path) are
//! where overload lives: nothing blocks the submitter. The pool does not
//! bound them — its queues are unbounded, and admission is decided once,
//! by the processor's gate, before a job is ever built. Queue depths are
//! observable through [`WorkerPool::stats`] / [`PoolStats`]. Every pool
//! shuts down like a server: jobs still queued when it is dropped are
//! **discarded** (their `Drop` impls run, which is how abandoned query
//! tickets get completed with `QueryError::AsyncQueryDropped`), and the
//! jobs already running finish before the workers are joined.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::engine::pipeline::Propagator;
use crate::engine::EngineConfig;
use crate::error::{QueryError, Result};
use crate::stats::EvalStats;

/// A unit of pool work. Jobs are type-erased to `'static`; soundness of the
/// erasure is the contract of [`WorkerPool::run_scoped`], which never
/// returns before every submitted job has finished.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One worker's work queue: jobs in FIFO order (tagged with their
/// [`JobHandle`] id so queued detached jobs can be cancelled) plus the
/// shutdown flag the pool raises on drop.
#[derive(Default)]
struct QueueState {
    jobs: VecDeque<(u64, Job)>,
    shutdown: bool,
}

impl std::fmt::Debug for QueueState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueState")
            .field("jobs", &self.jobs.len())
            .field("shutdown", &self.shutdown)
            .finish()
    }
}

/// A per-shard queue: its mutex-guarded state and the condvar the owning
/// worker parks on while the queue is empty.
#[derive(Debug, Default)]
struct ShardQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl ShardQueue {
    // Every lock below recovers from poisoning instead of panicking: the
    // queue and latch state stay consistent under unwinds (a panicking job
    // never holds these locks), and `run_scoped`'s soundness argument
    // requires the submit-to-wait window to be panic-free.
    fn push(&self, id: u64, job: Job) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.jobs.push_back((id, job));
        drop(state);
        self.ready.notify_one();
    }

    /// Removes a still-queued job by id — the dequeue half of best-effort
    /// cancellation. `None` once the worker has already popped it.
    fn remove(&self, id: u64) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let pos = state.jobs.iter().position(|(jid, _)| *jid == id)?;
        state.jobs.remove(pos).map(|(_, job)| job)
    }

    fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).jobs.len()
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.ready.notify_all();
    }
}

/// Completion tracking for one [`WorkerPool::run_scoped`] call: the caller
/// blocks until `remaining` hits zero; jobs that unwound are counted so the
/// panic can be re-raised on the submitting thread.
#[derive(Debug)]
struct Latch {
    state: Mutex<(usize, usize)>,
    done: Condvar,
}

impl Latch {
    fn new(jobs: usize) -> Latch {
        Latch { state: Mutex::new((jobs, 0)), done: Condvar::new() }
    }

    fn complete(&self, panicked: bool) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.0 -= 1;
        if panicked {
            state.1 += 1;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has completed; returns how many panicked.
    /// Must not panic before the last job has finished (`run_scoped`'s
    /// borrows are only released afterwards), hence the poison recovery.
    fn wait(&self) -> usize {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while state.0 > 0 {
            state = self.done.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.1
    }
}

/// Decrements the latch when the job ends — by running to completion *or*
/// by unwinding — so [`WorkerPool::run_scoped`] can never deadlock on a
/// panicking job.
struct CompletionGuard<'l> {
    latch: &'l Latch,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.latch.complete(std::thread::panicking());
    }
}

/// A fixed set of long-lived worker threads with one work queue per shard.
///
/// The pool is reusable evaluation capacity: create it once (a
/// [`crate::engine::QueryProcessor`] with [`EngineConfig::num_threads`]
/// `> 1` owns one for sharding; an inline processor creates one for its
/// `submit` jobs on first use) and submit every query's shard jobs to the
/// same threads. Shard `i` of a run always lands on worker
/// `i % num_threads`, so repeated queries over the same database keep each
/// worker on the same contiguous object range — the precondition for the
/// NUMA/affinity work ROADMAP.md names as the next step.
///
/// Dropping the pool shuts it down and joins the worker threads. Jobs still
/// queued at that point are **discarded** — a serving pool shutting down
/// mid-burst sheds its backlog, and dropping the job boxes runs their
/// `Drop` impls, which is what completes abandoned query tickets with
/// `QueryError::AsyncQueryDropped` instead of leaving their waiters
/// blocked forever. A job that panics is caught on the
/// worker (the thread survives for the next query) and the panic is
/// re-raised on the thread that submitted the batch.
pub struct WorkerPool {
    queues: Arc<Vec<ShardQueue>>,
    handles: Vec<JoinHandle<()>>,
    next_job: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("num_threads", &self.num_threads()).finish()
    }
}

/// An instantaneous view of a [`WorkerPool`]'s queues, from
/// [`WorkerPool::stats`]. Depths move as workers pop jobs; treat the
/// numbers as a load signal, not a reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads (= shard queues) in the pool.
    pub num_threads: usize,
    /// Jobs currently queued across all shards (excluding jobs already
    /// running on a worker).
    pub queued_jobs: usize,
    /// Per-shard queue depths, indexed by shard.
    pub shard_depths: Vec<usize>,
}

/// Identifies one detached job on its pool — returned by
/// [`WorkerPool::spawn`] and accepted by [`WorkerPool::cancel_queued`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle {
    shard: usize,
    id: u64,
}

impl WorkerPool {
    /// Spawns a pool of `num_threads` workers (clamped to at least 1), each
    /// owning one work queue; jobs still queued on drop are discarded.
    #[expect(
        clippy::expect_used,
        reason = "OS thread spawn at pool construction: without workers the pool cannot \
                  exist, and a spawn failure means the process is already resource-starved; \
                  there is no degraded mode for a caller to fall back to."
    )]
    pub fn new(num_threads: usize) -> WorkerPool {
        let num_threads = num_threads.max(1);
        let queues: Arc<Vec<ShardQueue>> =
            Arc::new((0..num_threads).map(|_| ShardQueue::default()).collect());
        let handles = (0..num_threads)
            .map(|i| {
                let queues = Arc::clone(&queues);
                std::thread::Builder::new()
                    .name(format!("ust-worker-{i}"))
                    .spawn(move || worker_loop(&queues[i]))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { queues, handles, next_job: AtomicU64::new(0) }
    }

    /// The number of worker threads (and shard queues).
    pub fn num_threads(&self) -> usize {
        self.queues.len()
    }

    /// A snapshot of every queue's depth plus the pool's shape.
    pub fn stats(&self) -> PoolStats {
        let shard_depths: Vec<usize> = self.queues.iter().map(ShardQueue::depth).collect();
        PoolStats {
            num_threads: self.queues.len(),
            queued_jobs: shard_depths.iter().sum(),
            shard_depths,
        }
    }

    /// Runs every job on the pool and blocks until all of them have
    /// finished. Job `i` goes to shard queue `i % num_threads`.
    ///
    /// Jobs may borrow from the caller's stack (the `'env` lifetime): the
    /// call does not return before every job has completed, which is what
    /// makes the internal lifetime erasure sound. If any job panics, the
    /// panic is re-raised here after the whole batch has settled.
    pub fn run_scoped<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Latch::new(jobs.len());
        let latch_ref: &Latch = &latch;
        for (i, job) in jobs.into_iter().enumerate() {
            let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // The guard decrements the latch even if `job` unwinds.
                let _guard = CompletionGuard { latch: latch_ref };
                job();
            });
            // SAFETY: `run_scoped` blocks on the latch below until every
            // job (including this one) has run to completion or unwound,
            // so no borrow captured by `wrapped` (the caller's `'env` data
            // and the latch local) outlives this call.
            let erased: Job = unsafe { erase_job_lifetime(wrapped) };
            let id = self.next_job.fetch_add(1, Ordering::Relaxed);
            self.queues[i % self.queues.len()].push(id, erased);
        }
        let panicked = latch.wait();
        assert!(panicked == 0, "{panicked} worker-pool job(s) panicked");
    }

    /// Enqueues one detached `'static` job on shard queue
    /// `shard % num_threads` and returns immediately.
    ///
    /// Unlike [`WorkerPool::run_scoped`] nothing blocks: the job must own
    /// everything it touches (completion is typically signalled through a
    /// shared `Arc` latch). A panicking job is caught on the worker;
    /// detached submitters that need to observe it should catch it inside
    /// the job (the pool has no caller to re-raise it on). See the type
    /// docs for what happens to jobs still queued when the pool drops.
    pub fn spawn(&self, shard: usize, job: Box<dyn FnOnce() + Send + 'static>) -> JobHandle {
        let shard = shard % self.queues.len();
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.queues[shard].push(id, job);
        JobHandle { shard, id }
    }

    /// Removes a detached job from its queue if the worker has not popped
    /// it yet, dropping the job box (whose `Drop` impls observe the
    /// cancellation). Returns `false` once the job already started — the
    /// running job can only be interrupted cooperatively.
    pub fn cancel_queued(&self, handle: JobHandle) -> bool {
        self.queues[handle.shard].remove(handle.id).is_some()
    }

    /// Closes every queue without joining the workers — after this, the
    /// workers shed their backlog and exit. Test hook for
    /// exercising the shutdown paths deterministically.
    #[cfg(test)]
    pub(crate) fn close_queues(&self) {
        for queue in self.queues.iter() {
            queue.close();
        }
    }

    /// Whether every queue has been closed, readable without holding the
    /// pool alive — a job can wait on it for the pool's drop to begin. Test
    /// hook, like [`WorkerPool::close_queues`].
    #[cfg(test)]
    pub(crate) fn closed_probe(&self) -> impl Fn() -> bool + Clone + Send + 'static {
        let queues = Arc::clone(&self.queues);
        move || {
            queues.iter().all(|queue| {
                queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).shutdown
            })
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for queue in self.queues.iter() {
            queue.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // The workers shed their queues before exiting; anything still
        // queued here (e.g. spawned after shutdown began) is dropped with
        // the queues themselves when the last Arc goes.
    }
}

/// Erases a job's borrow lifetime so it can cross into the long-lived
/// queues.
///
/// # Safety
///
/// The caller must not let the erased job outlive the borrows it captures —
/// [`WorkerPool::run_scoped`] guarantees this by blocking until every
/// submitted job has finished. The two trait-object types differ only in
/// their lifetime bound, so the transmute does not change layout.
unsafe fn erase_job_lifetime<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: the lifetime contract is deferred to the caller (see
    // `# Safety` above); the transmute itself only widens the lifetime
    // bound between two otherwise identical trait-object types, so the
    // layout is unchanged.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) }
}

/// The loop each worker thread runs: pop a job or park on the condvar;
/// once the queue is closed, drop the remaining jobs unrun and exit —
/// outside the queue lock, since dropping a detached job may run
/// ticket-completion logic that takes other locks.
fn worker_loop(queue: &ShardQueue) {
    loop {
        let job = {
            let mut state = queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if state.shutdown {
                    let backlog: Vec<(u64, Job)> = state.jobs.drain(..).collect();
                    drop(state);
                    drop(backlog);
                    return;
                }
                if let Some((_, job)) = state.jobs.pop_front() {
                    break job;
                }
                state = queue.ready.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // A panicking job must not take the worker down with it — catch
        // the unwind (the submitter re-raises it via the latch) and move
        // on to the next job.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

/// Shards object work across the workers of a [`WorkerPool`].
///
/// The executor is a cheap handle (an `Arc` to the pool plus a thread
/// count); construct one per query or keep one around — the threads behind
/// it live in the pool either way.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    num_threads: usize,
    pool: Option<Arc<WorkerPool>>,
}

impl ShardedExecutor {
    /// A strictly sequential executor (inline on the caller's thread).
    pub fn sequential() -> ShardedExecutor {
        ShardedExecutor { num_threads: 1, pool: None }
    }

    /// An executor over all workers of a specific pool — the constructor
    /// [`crate::engine::QueryProcessor`] uses for the pool it owns.
    pub fn on_pool(pool: Arc<WorkerPool>) -> ShardedExecutor {
        ShardedExecutor { num_threads: pool.num_threads(), pool: Some(pool) }
    }

    /// The worker count.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `worker` over contiguous shards of `indices` (database object
    /// indices: the whole database, a spec's subset, or a prefilter's
    /// survivors) and concatenates the outputs in `indices` order.
    ///
    /// Each worker owns one [`Propagator`] over a private [`EvalStats`]
    /// that is merged into `stats` afterwards (deterministically, in shard
    /// order — as is the first error, should any shard fail). Workers that
    /// return one output per index therefore produce the same vector the
    /// sequential driver would; reduction-style workers (top-k candidates)
    /// return fewer and the caller merges.
    pub fn run_on<T, F>(
        &self,
        indices: &[usize],
        config: &EngineConfig,
        stats: &mut EvalStats,
        worker: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Propagator<'_>, &[usize]) -> Result<Vec<T>> + Sync,
    {
        let n = indices.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let threads = self.num_threads.min(n);
        let pool = match (&self.pool, threads) {
            (Some(pool), 2..) => pool,
            _ => {
                let mut pipeline = Propagator::new(config, stats);
                return worker(&mut pipeline, indices);
            }
        };

        let chunk_size = n.div_ceil(threads);
        type WorkerOutput<T> = Result<(Vec<T>, EvalStats)>;
        let shards: Vec<&[usize]> = indices.chunks(chunk_size).collect();
        let mut slots: Vec<Option<WorkerOutput<T>>> = (0..shards.len()).map(|_| None).collect();
        let worker = &worker;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .zip(shards)
            .map(|(slot, shard)| {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let mut local_stats = EvalStats::new();
                    let mut pipeline = Propagator::new(config, &mut local_stats);
                    *slot = Some(worker(&mut pipeline, shard).map(|out| (out, local_stats)));
                });
                job
            })
            .collect();
        pool.run_scoped(jobs);

        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let (shard_out, local_stats) =
                slot.ok_or(QueryError::internal("run_scoped completes every job"))??;
            stats.merge(&local_stats);
            out.extend(shard_out);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::reach::ReachRule;
    use crate::engine::{forall, ktimes, object_based, query_based, QueryProcessor};
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, QueryAnswer, QueryBuilder, QueryWindow, Strategy};
    use ust_markov::testutil;
    use ust_space::TimeSet;

    fn random_db(seed: u64, n_states: usize, n_objects: usize) -> TrajectoryDatabase {
        let chain = testutil::random_chain(seed, n_states, 4);
        let mut rng = testutil::rng(seed + 1);
        let mut db = TrajectoryDatabase::new(chain);
        for i in 0..n_objects {
            let dist = testutil::random_distribution(&mut rng, n_states, 3);
            let anchor_time = (i % 3) as u32;
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::uncertain(anchor_time, dist).unwrap(),
            ))
            .unwrap();
        }
        db
    }

    fn window(n: usize) -> QueryWindow {
        QueryWindow::from_states(n, 10usize..=15, TimeSet::interval(4, 7)).unwrap()
    }

    /// Executes `builder` (window attached here) and accumulates into `stats`.
    fn run(
        processor: &QueryProcessor,
        builder: QueryBuilder,
        window: &QueryWindow,
        stats: &mut EvalStats,
    ) -> QueryAnswer {
        let spec = builder.window(window.clone()).build().unwrap();
        processor.execute_with_stats(&spec, stats).unwrap()
    }

    /// Bit-exact canonical form of an answer: `f64`'s `Debug` is its
    /// shortest round-trip rendering, so equal strings mean equal bits.
    fn bits(answer: &QueryAnswer) -> String {
        format!("{answer:?}")
    }

    #[test]
    fn parallel_matches_sequential() {
        let db = random_db(17, 60, 37);
        let window = window(60);
        let config = EngineConfig::default();
        let sequential =
            object_based::evaluate(&db, &window, &config, &mut EvalStats::new()).unwrap();
        for threads in [1usize, 2, 3, 8, 64] {
            let processor = QueryProcessor::with_config(&db, config.with_num_threads(threads));
            let mut stats = EvalStats::new();
            let parallel = run(
                &processor,
                Query::exists().strategy(Strategy::ObjectBased),
                &window,
                &mut stats,
            );
            assert_eq!(
                bits(&parallel),
                bits(&QueryAnswer::Probabilities(sequential.clone())),
                "threads={threads}"
            );
            assert_eq!(stats.objects_evaluated, db.len() as u64);
        }
    }

    #[test]
    fn all_drivers_match_sequential_bit_for_bit() {
        use Strategy::{ObjectBased as Ob, QueryBased as Qb};
        let db = random_db(23, 60, 29);
        let window = window(60);
        let config = EngineConfig::default().with_batch_size(7);
        let mut seq = EvalStats::new();
        let exists_ob = object_based::evaluate(&db, &window, &config, &mut seq).unwrap();
        let exists_qb = query_based::evaluate(&db, &window, &config, &mut seq).unwrap();
        let forall_ob = forall::evaluate_object_based(&db, &window, &config, &mut seq).unwrap();
        let forall_qb = forall::evaluate_query_based(&db, &window, &config, &mut seq).unwrap();
        let ktimes_ob = ktimes::evaluate_object_based(&db, &window, &config, &mut seq).unwrap();
        let ktimes_qb = ktimes::evaluate_query_based(&db, &window, &config, &mut seq).unwrap();
        let mut expected = vec![
            (Query::exists().strategy(Ob), QueryAnswer::Probabilities(exists_ob)),
            (Query::exists().strategy(Qb), QueryAnswer::Probabilities(exists_qb)),
            (Query::forall().strategy(Ob), QueryAnswer::Probabilities(forall_ob)),
            (Query::forall().strategy(Qb), QueryAnswer::Probabilities(forall_qb)),
            (Query::ktimes(1).strategy(Ob), QueryAnswer::Distributions(ktimes_ob)),
            (Query::ktimes(1).strategy(Qb), QueryAnswer::Distributions(ktimes_qb)),
        ];
        // The decorated shapes have no sequential driver of their own:
        // their reference is the one-worker (inline) run, itself pinned to
        // the drivers above by `tests/query_planner.rs`.
        let inline = QueryProcessor::with_config(&db, config.with_num_threads(1));
        for builder in [
            Query::exists().threshold(0.4).strategy(Ob),
            Query::exists().threshold(0.4).strategy(Qb),
            Query::exists().top_k(5).strategy(Ob),
            Query::exists().top_k(5).strategy(Qb),
        ] {
            let reference = run(&inline, builder.clone(), &window, &mut EvalStats::new());
            expected.push((builder, reference));
        }
        for threads in [2usize, 5, 16] {
            let processor = QueryProcessor::with_config(&db, config.with_num_threads(threads));
            for (builder, reference) in &expected {
                let answer = run(&processor, builder.clone(), &window, &mut EvalStats::new());
                assert_eq!(bits(&answer), bits(reference), "threads={threads} {builder:?}");
            }
        }
    }

    #[test]
    fn pool_reuse_across_queries_and_graceful_shutdown() {
        let db = random_db(29, 40, 23);
        let window = window(40);
        let config = EngineConfig::default().with_num_threads(4);
        let pool = Arc::new(WorkerPool::new(4));
        assert_eq!(pool.num_threads(), 4);
        let executor = ShardedExecutor::on_pool(Arc::clone(&pool));
        let sequential =
            object_based::evaluate(&db, &window, &config, &mut EvalStats::new()).unwrap();
        let indices: Vec<usize> = (0..db.len()).collect();
        let groups = query_based::validated_model_groups_on(&db, &indices, &window).unwrap();
        let reach =
            object_based::ReachPlan::from_groups(&db, &groups, &window, ReachRule::Exists).unwrap();
        // Many queries over the same pool: no respawn, identical bits.
        for _ in 0..3 {
            let out = executor
                .run_on(&indices, &config, &mut EvalStats::new(), |pipeline, idxs| {
                    let rule = &mut object_based::Exists;
                    object_based::forward_database(pipeline, &db, idxs, &window, &reach, rule)
                })
                .unwrap();
            for (a, b) in out.iter().zip(&sequential) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
        drop(executor);
        // Dropping the last handle joins the workers without hanging.
        drop(pool);
    }

    #[test]
    fn pool_propagates_job_panics_and_survives_them() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_scoped(vec![
                Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>,
                Box::new(|| {}),
            ]);
        }));
        assert!(caught.is_err(), "the job panic must surface on the submitter");
        // The workers survived the panic and still run jobs.
        let flag = std::sync::atomic::AtomicUsize::new(0);
        pool.run_scoped(
            (0..4)
                .map(|_| {
                    let flag = &flag;
                    Box::new(move || {
                        flag.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    #[test]
    fn cached_drivers_match_uncached_bit_for_bit() {
        let db = random_db(31, 50, 19);
        let window = window(50);
        let config = EngineConfig::default().with_num_threads(3);
        let processor = QueryProcessor::with_config(&db, config);
        let uncached = query_based::evaluate(&db, &window, &config, &mut EvalStats::new()).unwrap();
        let exists_qb = Query::exists().strategy(Strategy::QueryBased);
        // Twice through the cache: a miss-then-sweep pass and a pure-hit
        // pass must both reproduce the uncached bits.
        for pass in 0..2 {
            let mut stats = EvalStats::new();
            let cached = run(&processor, exists_qb.clone(), &window, &mut stats);
            assert_eq!(
                bits(&cached),
                bits(&QueryAnswer::Probabilities(uncached.clone())),
                "pass={pass}"
            );
            assert_eq!((stats.cache_misses, stats.cache_hits), [(1, 0), (0, 1)][pass]);
            assert_eq!(stats.backward_steps == 0, pass == 1, "only the first pass sweeps");
            assert_eq!(stats.fields_shared, 1, "one model, one shared field");
        }
        // The decorated shapes ride the same cached field and answer as a
        // cold processor does.
        for builder in [exists_qb.clone().threshold(0.4), exists_qb.top_k(5)] {
            let cold = QueryProcessor::with_config(&db, config);
            let reference = run(&cold, builder.clone(), &window, &mut EvalStats::new());
            let mut stats = EvalStats::new();
            assert_eq!(bits(&run(&processor, builder, &window, &mut stats)), bits(&reference));
            assert_eq!((stats.cache_hits, stats.backward_steps), (1, 0));
        }
    }

    #[test]
    fn qb_sweeps_each_field_once_regardless_of_threads() {
        let db = random_db(37, 50, 24);
        let window = window(50);
        let mut baseline = EvalStats::new();
        query_based::evaluate(&db, &window, &EngineConfig::default(), &mut baseline).unwrap();
        assert!(baseline.backward_steps > 0);
        for threads in [1usize, 2, 4, 8] {
            // A fresh processor per count: a cold cache, so the sweep is paid.
            let processor =
                QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(threads));
            let mut stats = EvalStats::new();
            run(&processor, Query::exists().strategy(Strategy::QueryBased), &window, &mut stats);
            assert_eq!(
                stats.backward_steps, baseline.backward_steps,
                "threads={threads}: the shared-field plan must not re-sweep per worker"
            );
            assert_eq!(stats.fields_shared, 1);
        }
    }

    #[test]
    fn empty_database() {
        let db = random_db(5, 10, 0);
        let window = QueryWindow::from_states(10, [0usize], TimeSet::at(1)).unwrap();
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(4));
        for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
            let out =
                run(&processor, Query::exists().strategy(strategy), &window, &mut EvalStats::new());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn validation_errors_surface_deterministically() {
        let mut db = random_db(9, 10, 3);
        // Add an object anchored after the window.
        db.insert(UncertainObject::with_single_observation(
            99,
            Observation::exact(50, 10, 0).unwrap(),
        ))
        .unwrap();
        let window = QueryWindow::from_states(10, [0usize], TimeSet::at(3)).unwrap();
        let spec = Query::exists().window(window).strategy(Strategy::ObjectBased).build().unwrap();
        let errors: Vec<QueryError> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(threads))
                    .execute(&spec)
                    .unwrap_err()
            })
            .collect();
        assert_eq!(errors[0], errors[1], "the first failing shard decides, at any width");
    }

    #[test]
    fn cancel_queued_removes_pending_jobs_only() {
        let pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let worker_gate = Arc::clone(&gate);
        pool.spawn(
            0,
            Box::new(move || {
                let (lock, cv) = &*worker_gate;
                let mut open = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*open {
                    open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }),
        );
        while pool.stats().shard_depths[0] > 0 {
            std::thread::yield_now();
        }
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        struct DropSensor(Arc<std::sync::atomic::AtomicBool>);
        impl Drop for DropSensor {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let sensor = DropSensor(Arc::clone(&dropped));
        let ran_flag = Arc::clone(&ran);
        let handle = pool.spawn(
            0,
            Box::new(move || {
                let _sensor = &sensor;
                ran_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }),
        );
        assert!(pool.cancel_queued(handle), "still queued — removable");
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst), "the job box was dropped");
        assert!(!pool.cancel_queued(handle), "second cancel finds nothing");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        drop(pool);
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst), "cancelled job never ran");
    }

    #[test]
    fn pool_discards_backlog_on_shutdown() {
        // Two backlogs, both shed: a job queued behind a running one when
        // the queues close (the worker finishes the running job, then
        // drops the rest), and one spawned after the worker already exited
        // (dropped with the queues when the pool is freed).
        for queued_before_close in [true, false] {
            let pool = WorkerPool::new(1);
            let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let ran_flag = Arc::clone(&ran);
            let job: Job = Box::new(move || {
                ran_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            if queued_before_close {
                // Gate the worker so the job is observably queued.
                let gate = Arc::new((Mutex::new(false), Condvar::new()));
                let worker_gate = Arc::clone(&gate);
                pool.spawn(
                    0,
                    Box::new(move || {
                        let (lock, cv) = &*worker_gate;
                        let mut open =
                            lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        while !*open {
                            open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    }),
                );
                while pool.stats().shard_depths[0] > 0 {
                    std::thread::yield_now();
                }
                pool.spawn(0, job);
                pool.close_queues();
                let (lock, cv) = &*gate;
                *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                cv.notify_all();
            } else {
                pool.close_queues();
                pool.spawn(0, job);
            }
            drop(pool);
            let ran = ran.load(std::sync::atomic::Ordering::SeqCst);
            assert!(!ran, "queued_before_close={queued_before_close}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let db = random_db(3, 20, 5);
        let window = QueryWindow::from_states(20, [1usize, 2], TimeSet::interval(2, 4)).unwrap();
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(0));
        assert!(processor.pool().is_none(), "zero threads evaluates inline");
        let out = run(&processor, Query::exists(), &window, &mut EvalStats::new());
        assert_eq!(out.len(), 5);
        assert_eq!(ShardedExecutor::sequential().num_threads(), 1);
        assert_eq!(WorkerPool::new(0).num_threads(), 1);
    }
}
