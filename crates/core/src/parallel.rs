//! Long-lived worker-pool execution for every query driver.
//!
//! All of the paper's queries are embarrassingly parallel over objects —
//! each propagation touches only the shared read-only chain. Two layers
//! turn that observation into a serving architecture rather than a
//! per-query thread spawn:
//!
//! * [`WorkerPool`] — a fixed set of **long-lived worker threads**, one
//!   per-shard work queue each, created once (typically owned by a
//!   [`crate::engine::QueryProcessor`]) and reused by every query until the
//!   pool is dropped, at which point the workers drain their queues and
//!   shut down gracefully. This replaces the per-query
//!   `std::thread::scope` fan-out of earlier revisions: a query enqueues
//!   one job per shard and blocks until all shards report completion.
//! * [`ShardedExecutor`] — the sharding logic: it splits the database's
//!   object indices into contiguous chunks, gives each worker **its own
//!   [`Propagator`]** (and thus its own scratch accumulator and batch
//!   buffers), and stitches the per-object outputs back in database order,
//!   merging the per-worker [`EvalStats`] deterministically in shard order.
//!
//! The query-based drivers add a third ingredient, the **shared-field
//! plan** ([`SharedFieldPlan`] / [`ktimes::KTimesFieldPlan`]):
//! each `(model, window)` backward field is swept **exactly once** before
//! the fan-out — or fetched from a [`BackwardFieldCache`] behind a lock —
//! and the workers receive read-only [`std::sync::Arc`] views, so no worker
//! ever re-sweeps a field another worker (or a previous query) already
//! paid for. The deduplication is observable through
//! [`EvalStats::fields_shared`].
//!
//! Every [`crate::engine::QueryProcessor`] entry point routes through the
//! executor: with [`crate::engine::EngineConfig::num_threads`] `== 1` the
//! worker runs inline on the caller's thread (no queue hop), at higher
//! counts the shards run on the pool. Within each shard the drivers are
//! the same batched ones the sequential path uses, so parallel results are
//! **bit-for-bit identical** to sequential evaluation for ∃/∀/k, threshold
//! decisions and top-k rankings (asserted by the tests below and the
//! property suite).
//!
//! ## Admission control
//!
//! Detached jobs (the [`crate::engine::QueryProcessor::submit`] path) are
//! where overload lives: nothing blocks the submitter, so without a bound
//! a burst can queue arbitrary work. Each shard queue therefore carries
//! a configurable depth bound — [`WorkerPool::with_queue_depth`] — that
//! [`WorkerPool::try_spawn`] enforces by handing the job back instead of
//! enqueueing it ([`WorkerPool::spawn`] and the scoped path stay
//! unconditional: a scoped submitter is already blocked on its own
//! latch). Queue depths and the bound are observable through
//! [`WorkerPool::stats`] / [`PoolStats`]. Depth-bounded pools also shut
//! down like a server rather than a batch runner: jobs still queued when
//! the pool is dropped are **discarded** (their `Drop` impls run, which
//! is how abandoned query tickets get completed with
//! `QueryError::AsyncQueryDropped`), whereas unbounded [`WorkerPool::new`]
//! pools keep the PR 3 drain-to-completion semantics the process-wide
//! [`shared_pool`] relies on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::database::TrajectoryDatabase;
use crate::engine::cache::BackwardFieldCache;
use crate::engine::pipeline::Propagator;
use crate::engine::query_based::{FieldRule, SharedFieldPlan};
use crate::engine::{ktimes, object_based, EngineConfig};
use crate::error::{QueryError, Result};
use crate::query::{ObjectKDistribution, ObjectProbability, QueryWindow};
use crate::ranking::{self, RankedObject};
use crate::stats::EvalStats;
use crate::threshold;

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

/// A per-shard queue: its mutex-guarded state, the condvar the owning
/// worker parks on while the queue is empty, and the depth bound
/// [`ShardQueue::try_push`] enforces for detached jobs (`usize::MAX`
/// means unbounded).
#[derive(Debug)]
struct ShardQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    limit: usize,
}

impl Default for ShardQueue {
    fn default() -> ShardQueue {
        ShardQueue::with_limit(usize::MAX)
    }
}

impl ShardQueue {
    fn with_limit(limit: usize) -> ShardQueue {
        ShardQueue { state: Mutex::default(), ready: Condvar::new(), limit }
    }

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

    /// Enqueues the job unless the queue is at its depth bound or already
    /// shut down, handing the job back on refusal (backpressure, never
    /// blocking).
    fn try_push(&self, id: u64, job: Job) -> std::result::Result<(), Job> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.shutdown || state.jobs.len() >= self.limit {
            return Err(job);
        }
        state.jobs.push_back((id, job));
        drop(state);
        self.ready.notify_one();
        Ok(())
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
/// The pool is the process's reusable evaluation capacity: create it once
/// (a [`crate::engine::QueryProcessor`] with
/// [`EngineConfig::num_threads`] `> 1` owns one; ad-hoc callers share the
/// process-wide pool of [`shared_pool`]) and submit every query's shard
/// jobs to the same threads. Shard `i` of a run always lands on worker
/// `i % num_threads`, so repeated queries over the same database keep each
/// worker on the same contiguous object range — the precondition for the
/// NUMA/affinity work ROADMAP.md names as the next step.
///
/// Dropping the pool shuts it down and joins the worker threads. What
/// happens to jobs still queued at that point depends on the constructor:
/// unbounded [`WorkerPool::new`] pools drain them to completion (the PR 3
/// semantics the process-wide [`shared_pool`] relies on), depth-bounded
/// [`WorkerPool::with_queue_depth`] pools **discard** them — a serving
/// pool shutting down mid-burst sheds its backlog, and dropping the job
/// boxes runs their `Drop` impls, which is what completes abandoned
/// query tickets with `QueryError::AsyncQueryDropped` instead of leaving
/// their waiters blocked forever. A job that panics is caught on the
/// worker (the thread survives for the next query) and the panic is
/// re-raised on the thread that submitted the batch.
pub struct WorkerPool {
    queues: Arc<Vec<ShardQueue>>,
    handles: Vec<JoinHandle<()>>,
    next_job: AtomicU64,
    max_queue_depth: Option<usize>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("num_threads", &self.num_threads())
            .field("max_queue_depth", &self.max_queue_depth)
            .finish()
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
    /// The per-shard depth bound detached spawns are held to, if the pool
    /// was built with one.
    pub max_queue_depth: Option<usize>,
}

/// Identifies one detached job on its pool — returned by
/// [`WorkerPool::spawn`] / [`WorkerPool::try_spawn`] and accepted by
/// [`WorkerPool::cancel_queued`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle {
    shard: usize,
    id: u64,
}

impl WorkerPool {
    /// Spawns a pool of `num_threads` workers (clamped to at least 1), each
    /// owning one unbounded work queue; queued jobs are drained to
    /// completion on drop.
    pub fn new(num_threads: usize) -> WorkerPool {
        WorkerPool::build(num_threads, None)
    }

    /// As [`WorkerPool::new`], but every shard queue refuses detached
    /// [`WorkerPool::try_spawn`] jobs beyond `max_queue_depth` pending
    /// entries (`0` means unbounded), and jobs still queued when the pool
    /// is dropped are discarded rather than drained — the serving
    /// configuration [`crate::engine::QueryProcessor`] uses for the pool
    /// it owns.
    pub fn with_queue_depth(num_threads: usize, max_queue_depth: usize) -> WorkerPool {
        WorkerPool::build(num_threads, Some(max_queue_depth))
    }

    fn build(num_threads: usize, depth: Option<usize>) -> WorkerPool {
        let num_threads = num_threads.max(1);
        let limit = match depth {
            Some(0) | None => usize::MAX,
            Some(d) => d,
        };
        let discard_on_shutdown = depth.is_some();
        let queues: Arc<Vec<ShardQueue>> =
            Arc::new((0..num_threads).map(|_| ShardQueue::with_limit(limit)).collect());
        let handles = (0..num_threads)
            .map(|i| {
                let queues = Arc::clone(&queues);
                std::thread::Builder::new()
                    .name(format!("ust-worker-{i}"))
                    .spawn(move || worker_loop(&queues[i], discard_on_shutdown))
                    // lint: allow(panicking-call-in-lib) — OS thread spawn at pool
                    // construction: without workers the pool cannot exist, and a
                    // spawn failure means the process is already resource-starved;
                    // there is no degraded mode for a caller to fall back to.
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            queues,
            handles,
            next_job: AtomicU64::new(0),
            max_queue_depth: depth.filter(|&d| d > 0),
        }
    }

    /// The number of worker threads (and shard queues).
    pub fn num_threads(&self) -> usize {
        self.queues.len()
    }

    /// The per-shard depth bound detached spawns are held to, if any.
    pub fn max_queue_depth(&self) -> Option<usize> {
        self.max_queue_depth
    }

    /// Jobs currently queued (not yet running) on shard
    /// `shard % num_threads`.
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.queues[shard % self.queues.len()].depth()
    }

    /// A snapshot of every queue's depth plus the pool's shape.
    pub fn stats(&self) -> PoolStats {
        let shard_depths: Vec<usize> = self.queues.iter().map(ShardQueue::depth).collect();
        PoolStats {
            num_threads: self.queues.len(),
            queued_jobs: shard_depths.iter().sum(),
            shard_depths,
            max_queue_depth: self.max_queue_depth,
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
            // Scoped jobs bypass the depth bound: the submitter is about
            // to block on the latch, so the backlog is already bounded by
            // the callers themselves.
            self.queues[i % self.queues.len()].push(id, erased);
        }
        let panicked = latch.wait();
        assert!(panicked == 0, "{panicked} worker-pool job(s) panicked");
    }

    /// Enqueues one detached `'static` job on shard queue
    /// `shard % num_threads` and returns immediately — ignoring any depth
    /// bound. Prefer [`WorkerPool::try_spawn`] for admission-controlled
    /// submission.
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

    /// As [`WorkerPool::spawn`], but refuses the job — handing it back
    /// instead of enqueueing — when shard queue `shard % num_threads` is
    /// at its depth bound (or the pool is shutting down). The
    /// backpressure primitive behind
    /// [`crate::engine::QueryProcessor::submit`]'s `QueueFull` rejection:
    /// the caller is never blocked either way.
    pub fn try_spawn(
        &self,
        shard: usize,
        job: Box<dyn FnOnce() + Send + 'static>,
    ) -> std::result::Result<JobHandle, Box<dyn FnOnce() + Send + 'static>> {
        let shard = shard % self.queues.len();
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.queues[shard].try_push(id, job)?;
        Ok(JobHandle { shard, id })
    }

    /// Removes a detached job from its queue if the worker has not popped
    /// it yet, dropping the job box (whose `Drop` impls observe the
    /// cancellation). Returns `false` once the job already started — the
    /// running job can only be interrupted cooperatively.
    pub fn cancel_queued(&self, handle: JobHandle) -> bool {
        self.queues[handle.shard].remove(handle.id).is_some()
    }

    /// Closes every queue without joining the workers — after this,
    /// discard-mode workers shed their backlog and exit. Test hook for
    /// exercising the shutdown paths deterministically.
    #[cfg(test)]
    pub(crate) fn close_queues(&self) {
        for queue in self.queues.iter() {
            queue.close();
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
        // Discard-mode workers shed their queues before exiting; anything
        // still queued here (e.g. spawned after shutdown began) is
        // dropped with the queues themselves when the last Arc goes.
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
/// exit once the queue is closed. On shutdown a drain-mode worker
/// (`discard_on_shutdown == false`) runs the remaining jobs to
/// completion, a discard-mode worker drops them unrun — outside the
/// queue lock, since dropping a detached job may run ticket-completion
/// logic that takes other locks.
fn worker_loop(queue: &ShardQueue, discard_on_shutdown: bool) {
    loop {
        let job = {
            let mut state = queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if state.shutdown && discard_on_shutdown {
                    let backlog: Vec<(u64, Job)> = state.jobs.drain(..).collect();
                    drop(state);
                    drop(backlog);
                    return;
                }
                if let Some((_, job)) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
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

/// The process-wide shared pool used by the free `*_parallel` functions.
static SHARED_POOL: Mutex<Option<Arc<WorkerPool>>> = Mutex::new(None);

/// A process-wide [`WorkerPool`] with at least `min_threads` workers.
///
/// The pool is created on first use and grown (by replacement; in-flight
/// queries keep the previous pool alive until they finish) when a caller
/// asks for more workers than it has. Callers that want an isolated pool —
/// one per [`crate::engine::QueryProcessor`], differently sized pools side
/// by side — construct [`WorkerPool::new`] directly instead.
pub fn shared_pool(min_threads: usize) -> Arc<WorkerPool> {
    let min_threads = min_threads.max(1);
    let mut guard = SHARED_POOL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(pool) = guard.as_ref() {
        if pool.num_threads() >= min_threads {
            return Arc::clone(pool);
        }
    }
    // lint: allow(lock-held-across-blocking) — the registry guard must be
    // held across pool construction for exactly-once initialization; the
    // blocking inside is `thread::spawn` of workers that never touch
    // SHARED_POOL, so no thread can wait on this guard while it waits on
    // them.
    let pool = Arc::new(WorkerPool::new(min_threads));
    *guard = Some(Arc::clone(&pool));
    pool
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
    /// An executor over `num_threads` workers of the process-wide
    /// [`shared_pool`] (clamped to at least 1; `1` runs inline without
    /// touching the pool).
    pub fn new(num_threads: usize) -> ShardedExecutor {
        let num_threads = num_threads.max(1);
        let pool = (num_threads > 1).then(|| shared_pool(num_threads));
        ShardedExecutor { num_threads, pool }
    }

    /// An executor sized from [`EngineConfig::num_threads`], on the
    /// process-wide shared pool.
    pub fn from_config(config: &EngineConfig) -> ShardedExecutor {
        ShardedExecutor::new(config.effective_num_threads())
    }

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

    /// Runs `worker` over contiguous shards of the database's object
    /// indices and concatenates the outputs in shard order.
    ///
    /// Each worker owns one [`Propagator`] over a private [`EvalStats`]
    /// that is merged into `stats` afterwards (deterministically, in shard
    /// order — as is the first error, should any shard fail). Workers that
    /// return one output per index therefore produce the same vector the
    /// sequential driver would; reduction-style workers (top-k candidates)
    /// return fewer and the caller merges.
    pub fn run<T, F>(
        &self,
        db: &TrajectoryDatabase,
        config: &EngineConfig,
        stats: &mut EvalStats,
        worker: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Propagator<'_>, &[usize]) -> Result<Vec<T>> + Sync,
    {
        let indices: Vec<usize> = (0..db.len()).collect();
        self.run_on(&indices, config, stats, worker)
    }

    /// As [`ShardedExecutor::run`], over an explicit set of database
    /// object indices — the fan-out of subset-restricted query specs.
    /// Shards are contiguous chunks of `indices`; outputs come back
    /// concatenated in `indices` order.
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

/// PST∃Q for every object, object-based, sharded over the executor's
/// workers. Identical to [`object_based::evaluate`] (same order, same
/// bits); `stats` aggregates the per-worker counters.
pub fn evaluate_exists_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    executor.run(db, config, stats, |pipeline, indices| {
        object_based::exists_batched(pipeline, db, indices, window)
    })
}

/// As [`evaluate_exists_on`], on the process-wide shared pool sized from
/// [`EngineConfig::num_threads`].
pub fn evaluate_exists_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    evaluate_exists_on(&ShardedExecutor::from_config(config), db, window, config, stats)
}

/// The shared answer fan-out of the query-based ∃ / ∀ drivers — including
/// the planner's dispatch over explicit index subsets: one dot product per
/// object against the plan's read-only fields, sharded. This is the one
/// copy of the bit-identity-critical loop (object lookup, field lookup,
/// `object_probability`, evaluation accounting) every QB ∃ / ∀ path runs;
/// the rule the fields were swept under rides in the fields themselves.
pub(crate) fn answer_field_plan_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
    plan: &SharedFieldPlan,
) -> Result<Vec<ObjectProbability>> {
    executor.run_on(indices, config, stats, |pipeline, idxs| {
        let mut out = Vec::with_capacity(idxs.len());
        for &idx in idxs {
            let object = db
                .object(idx)
                .ok_or(QueryError::internal("the executor shards validated indices"))?;
            let field = plan.field(object.model()).ok_or(QueryError::internal(
                "the shared plan holds one field per populated model",
            ))?;
            let probability = field
                .object_probability(object, window)
                .ok_or(QueryError::internal("the shared plan requested anchor snapshots"))?;
            pipeline.stats().objects_evaluated += 1;
            out.push(ObjectProbability { object_id: object.id(), probability });
        }
        Ok(out)
    })
}

/// The k-times analogue of [`answer_field_plan_on`]: one
/// `(|T▫|+1)`-level dot product per object against the plan's read-only
/// level fields, sharded over an explicit index set.
pub(crate) fn answer_ktimes_plan_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
    plan: &ktimes::KTimesFieldPlan,
) -> Result<Vec<ObjectKDistribution>> {
    executor.run_on(indices, config, stats, |pipeline, idxs| {
        let mut out = Vec::with_capacity(idxs.len());
        for &idx in idxs {
            let object = db
                .object(idx)
                .ok_or(QueryError::internal("the executor shards validated indices"))?;
            let field = plan.field(object.model()).ok_or(QueryError::internal(
                "the shared plan holds one field per populated model",
            ))?;
            let probabilities = field
                .object_distribution(object, window)
                .ok_or(QueryError::internal("the shared plan requested anchor snapshots"))?;
            pipeline.stats().objects_evaluated += 1;
            out.push(ObjectKDistribution { object_id: object.id(), probabilities });
        }
        Ok(out)
    })
}

/// PST∃Q for every object, query-based, sharded. The backward sweep — the
/// dominant, inherently sequential cost — runs **once per model** in the
/// [`SharedFieldPlan`] stage before the fan-out; the workers then share the
/// read-only `Arc` fields and shard only the per-object dot products, so no
/// field is swept more than once regardless of the worker count. Results
/// match [`crate::engine::query_based::evaluate`] bit for bit.
pub fn evaluate_exists_qb_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    let indices: Vec<usize> = (0..db.len()).collect();
    let plan = SharedFieldPlan::prepare_on(db, &indices, window, FieldRule::Exists, config, stats)?;
    stats.fields_shared += plan.num_fields() as u64;
    answer_field_plan_on(executor, db, &indices, window, config, stats, &plan)
}

/// As [`evaluate_exists_qb_on`], on the process-wide shared pool.
pub fn evaluate_exists_qb_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    evaluate_exists_qb_on(&ShardedExecutor::from_config(config), db, window, config, stats)
}

/// As [`evaluate_exists_qb_on`], preparing the shared-field plan through a
/// lock-guarded [`BackwardFieldCache`]: a repeated or overlapping window
/// reuses the cached suffix sweep, a fresh one is swept once and cached,
/// and either way the workers receive read-only `Arc` views. Bit-for-bit
/// identical to the uncached path.
pub fn evaluate_exists_qb_cached_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    cache: &Mutex<BackwardFieldCache>,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    let indices: Vec<usize> = (0..db.len()).collect();
    let plan = SharedFieldPlan::prepare_with_cache_on(
        db,
        &indices,
        window,
        FieldRule::Exists,
        config,
        cache,
        stats,
    )?;
    stats.fields_shared += plan.num_fields() as u64;
    answer_field_plan_on(executor, db, &indices, window, config, stats, &plan)
}

/// PST∀Q for every object, object-based, sharded (complement reduction on
/// the sharded ∃ driver).
pub fn evaluate_forall_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    let complement = window.complement_states()?;
    let mut results = evaluate_exists_on(executor, db, &complement, config, stats)?;
    crate::engine::forall::complement_probabilities(&mut results);
    Ok(results)
}

/// As [`evaluate_forall_on`], on the process-wide shared pool.
pub fn evaluate_forall_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    evaluate_forall_on(&ShardedExecutor::from_config(config), db, window, config, stats)
}

/// PSTkQ for every object, object-based (`C(t)` algorithm), sharded.
pub fn evaluate_ktimes_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectKDistribution>> {
    executor.run(db, config, stats, |pipeline, indices| {
        ktimes::ktimes_batched(pipeline, db, indices, window)
    })
}

/// As [`evaluate_ktimes_on`], on the process-wide shared pool.
pub fn evaluate_ktimes_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectKDistribution>> {
    evaluate_ktimes_on(&ShardedExecutor::from_config(config), db, window, config, stats)
}

/// PSTkQ for every object, query-based, sharded. As with
/// [`evaluate_exists_qb_on`], the per-model backward level sweeps run once
/// in the [`ktimes::KTimesFieldPlan`] stage and the workers shard the
/// per-object dot products against the shared read-only fields.
pub fn evaluate_ktimes_qb_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectKDistribution>> {
    let indices: Vec<usize> = (0..db.len()).collect();
    let plan = ktimes::KTimesFieldPlan::prepare_on(db, &indices, window, config, stats)?;
    stats.fields_shared += plan.num_fields() as u64;
    answer_ktimes_plan_on(executor, db, &indices, window, config, stats, &plan)
}

/// As [`evaluate_ktimes_qb_on`], on the process-wide shared pool.
pub fn evaluate_ktimes_qb_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectKDistribution>> {
    evaluate_ktimes_qb_on(&ShardedExecutor::from_config(config), db, window, config, stats)
}

/// Thresholded PST∃Q over the whole database, sharded: each worker runs the
/// batched bound-based driver on its shard (building its own reachability
/// pruners). The accepted id list matches [`threshold::threshold_query`]
/// exactly.
pub fn threshold_query_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    tau: f64,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<u64>> {
    let outcomes = executor.run(db, config, stats, |pipeline, indices| {
        threshold::threshold_batched(pipeline, db, indices, window, tau)
    })?;
    outcomes
        .into_iter()
        .enumerate()
        .filter(|(_, o)| o.qualifies)
        .map(|(idx, _)| {
            db.object(idx)
                .map(|o| o.id())
                .ok_or(QueryError::internal("each outcome aligns with a database object"))
        })
        .collect()
}

/// As [`threshold_query_on`], on the process-wide shared pool.
pub fn threshold_query_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    tau: f64,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<u64>> {
    threshold_query_on(&ShardedExecutor::from_config(config), db, window, tau, config, stats)
}

/// Thresholded PST∃Q answered from the query-based shared-field plan: one
/// locked cache lookup (or fresh sweep) per `(model, window)`, then sharded
/// dot products and the `≥ τ` filter. Exact, and bit-for-bit identical to
/// [`threshold::threshold_query_cached`] run sequentially.
pub fn threshold_query_cached_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    tau: f64,
    config: &EngineConfig,
    cache: &Mutex<BackwardFieldCache>,
    stats: &mut EvalStats,
) -> Result<Vec<u64>> {
    let all = evaluate_exists_qb_cached_on(executor, db, window, config, cache, stats)?;
    Ok(all.into_iter().filter(|r| r.probability >= tau).map(|r| r.object_id).collect())
}

/// Top-k most likely window intersectors, object-based with pruning,
/// sharded: each worker ranks its shard (pruning against its local k-th
/// bound — conservative, so no global candidate is lost) and the shard
/// lists are merged. The final ranking matches
/// [`ranking::topk_object_based_pruned`] exactly.
pub fn topk_object_based_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    k: usize,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<RankedObject>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let candidates = executor.run(db, config, stats, |pipeline, indices| {
        ranking::topk_batched(pipeline, db, indices, window, k)
    })?;
    let mut best: Vec<RankedObject> = Vec::with_capacity(k + 1);
    for candidate in candidates {
        ranking::insert_ranked(&mut best, candidate, k);
    }
    Ok(best)
}

/// As [`topk_object_based_on`], on the process-wide shared pool.
pub fn topk_object_based_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    k: usize,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<RankedObject>> {
    topk_object_based_on(&ShardedExecutor::from_config(config), db, window, k, config, stats)
}

/// Top-k via the query-based engine, sharded over the probability
/// computation (one shared-field sweep per model up front). Matches
/// [`ranking::topk_query_based`] exactly.
pub fn topk_query_based_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    k: usize,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<RankedObject>> {
    let all = evaluate_exists_qb_on(executor, db, window, config, stats)?;
    Ok(ranking::select_topk(all, k))
}

/// As [`topk_query_based_on`], on the process-wide shared pool.
pub fn topk_query_based_parallel(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    k: usize,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<RankedObject>> {
    topk_query_based_on(&ShardedExecutor::from_config(config), db, window, k, config, stats)
}

/// As [`topk_query_based_on`], preparing the shared-field plan through a
/// lock-guarded [`BackwardFieldCache`]. Bit-for-bit identical to the
/// uncached ranking.
pub fn topk_query_based_cached_on(
    executor: &ShardedExecutor,
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    k: usize,
    config: &EngineConfig,
    cache: &Mutex<BackwardFieldCache>,
    stats: &mut EvalStats,
) -> Result<Vec<RankedObject>> {
    let all = evaluate_exists_qb_cached_on(executor, db, window, config, cache, stats)?;
    Ok(ranking::select_topk(all, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{forall, query_based};
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use ust_markov::testutil;
    use ust_markov::MarkovChain;
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

    #[test]
    fn parallel_matches_sequential() {
        let db = random_db(17, 60, 37);
        let window = window(60);
        let config = EngineConfig::default();
        let sequential =
            object_based::evaluate(&db, &window, &config, &mut EvalStats::new()).unwrap();
        for threads in [1usize, 2, 3, 8, 64] {
            let mut stats = EvalStats::new();
            let parallel = evaluate_exists_parallel(
                &db,
                &window,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            assert_eq!(parallel.len(), sequential.len());
            for (a, b) in parallel.iter().zip(&sequential) {
                assert_eq!(a.object_id, b.object_id);
                assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "threads={threads}");
            }
            assert_eq!(stats.objects_evaluated, db.len() as u64);
        }
    }

    #[test]
    fn all_drivers_match_sequential_bit_for_bit() {
        let db = random_db(23, 60, 29);
        let window = window(60);
        let config = EngineConfig::default().with_batch_size(7);
        let mut seq = EvalStats::new();
        let exists_qb = query_based::evaluate(&db, &window, &config, &mut seq).unwrap();
        let forall_ob = forall::evaluate_object_based(&db, &window, &config, &mut seq).unwrap();
        let forall_qb = forall::evaluate_query_based(&db, &window, &config, &mut seq).unwrap();
        let ktimes_ob = ktimes::evaluate_object_based(&db, &window, &config, &mut seq).unwrap();
        let ktimes_qb = ktimes::evaluate_query_based(&db, &window, &config, &mut seq).unwrap();
        let accepted = threshold::threshold_query(&db, &window, 0.4, &config, &mut seq).unwrap();
        let topk_ob =
            ranking::topk_object_based_pruned(&db, &window, 5, &config, &mut seq).unwrap();
        let topk_qb = ranking::topk_query_based(&db, &window, 5, &config, &mut seq).unwrap();

        for threads in [2usize, 5, 16] {
            let mut stats = EvalStats::new();
            let p = evaluate_exists_qb_parallel(
                &db,
                &window,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            for (a, b) in p.iter().zip(&exists_qb) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
            let p = evaluate_forall_parallel(
                &db,
                &window,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            for (a, b) in p.iter().zip(&forall_ob) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
            // Sharded query-based ∀ has one route: the planner's.
            let spec = crate::query::Query::forall()
                .window(window.clone())
                .strategy(crate::query::Strategy::QueryBased)
                .build()
                .unwrap();
            let pooled =
                crate::engine::QueryProcessor::with_config(&db, config.with_num_threads(threads));
            let p = pooled.execute(&spec).unwrap();
            for (a, b) in p.probabilities().unwrap().iter().zip(&forall_qb) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
            let p = evaluate_ktimes_parallel(
                &db,
                &window,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            for (a, b) in p.iter().zip(&ktimes_ob) {
                assert_eq!(a.object_id, b.object_id);
                for (x, y) in a.probabilities.iter().zip(&b.probabilities) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let p = evaluate_ktimes_qb_parallel(
                &db,
                &window,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            for (a, b) in p.iter().zip(&ktimes_qb) {
                for (x, y) in a.probabilities.iter().zip(&b.probabilities) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let p = threshold_query_parallel(
                &db,
                &window,
                0.4,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            assert_eq!(p, accepted, "threads={threads}");
            let p = topk_object_based_parallel(
                &db,
                &window,
                5,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            assert_eq!(p.len(), topk_ob.len());
            for (a, b) in p.iter().zip(&topk_ob) {
                assert_eq!(a.object_id, b.object_id);
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
            let p = topk_query_based_parallel(
                &db,
                &window,
                5,
                &config.with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            for (a, b) in p.iter().zip(&topk_qb) {
                assert_eq!(a.object_id, b.object_id);
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
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
        // Many queries over the same pool: no respawn, identical bits.
        for _ in 0..3 {
            let out = evaluate_exists_on(&executor, &db, &window, &config, &mut EvalStats::new())
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
    fn shared_pool_grows_monotonically() {
        // Other tests in this binary grow the process-wide pool
        // concurrently, so only monotonicity can be asserted exactly.
        let small = shared_pool(2);
        assert!(small.num_threads() >= 2);
        let big = shared_pool(small.num_threads() + 1);
        assert!(big.num_threads() > small.num_threads());
        // A smaller request reuses a grown pool instead of shrinking it.
        let again = shared_pool(1);
        assert!(again.num_threads() >= big.num_threads());
    }

    #[test]
    fn cached_drivers_match_uncached_bit_for_bit() {
        let db = random_db(31, 50, 19);
        let window = window(50);
        let config = EngineConfig::default().with_num_threads(3);
        let executor = ShardedExecutor::from_config(&config);
        let cache = Mutex::new(BackwardFieldCache::new(8));
        let uncached =
            evaluate_exists_qb_on(&executor, &db, &window, &config, &mut EvalStats::new()).unwrap();
        // Twice through the cache: a miss-then-sweep pass and a pure-hit
        // pass must both reproduce the uncached bits.
        for pass in 0..2 {
            let mut stats = EvalStats::new();
            let cached =
                evaluate_exists_qb_cached_on(&executor, &db, &window, &config, &cache, &mut stats)
                    .unwrap();
            for (a, b) in cached.iter().zip(&uncached) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "pass={pass}");
            }
            if pass == 1 {
                assert_eq!(stats.cache_misses, 0, "second pass must be a pure hit");
                assert_eq!(stats.backward_steps, 0);
            }
            assert_eq!(stats.fields_shared, 1, "one model, one shared field");
        }
        let mut stats = EvalStats::new();
        let accepted_cached =
            threshold_query_cached_on(&executor, &db, &window, 0.4, &config, &cache, &mut stats)
                .unwrap();
        let accepted =
            threshold_query_parallel(&db, &window, 0.4, &config, &mut EvalStats::new()).unwrap();
        assert_eq!(accepted_cached, accepted);
        assert_eq!(stats.backward_steps, 0, "the threshold run rides the cached field");
        let topk_cached = topk_query_based_cached_on(
            &executor,
            &db,
            &window,
            5,
            &config,
            &cache,
            &mut EvalStats::new(),
        )
        .unwrap();
        let topk =
            topk_query_based_parallel(&db, &window, 5, &config, &mut EvalStats::new()).unwrap();
        for (a, b) in topk_cached.iter().zip(&topk) {
            assert_eq!(a.object_id, b.object_id);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn qb_sweeps_each_field_once_regardless_of_threads() {
        let db = random_db(37, 50, 24);
        let window = window(50);
        let mut baseline = EvalStats::new();
        evaluate_exists_qb_parallel(
            &db,
            &window,
            &EngineConfig::default().with_num_threads(1),
            &mut baseline,
        )
        .unwrap();
        assert!(baseline.backward_steps > 0);
        for threads in [2usize, 4, 8] {
            let mut stats = EvalStats::new();
            evaluate_exists_qb_parallel(
                &db,
                &window,
                &EngineConfig::default().with_num_threads(threads),
                &mut stats,
            )
            .unwrap();
            assert_eq!(
                stats.backward_steps, baseline.backward_steps,
                "threads={threads}: the shared-field plan must not re-sweep per worker"
            );
            assert_eq!(stats.fields_shared, baseline.fields_shared);
        }
    }

    #[test]
    fn empty_database() {
        let db = random_db(5, 10, 0);
        let window = QueryWindow::from_states(10, [0usize], TimeSet::at(1)).unwrap();
        let out = evaluate_exists_parallel(
            &db,
            &window,
            &EngineConfig::default().with_num_threads(4),
            &mut EvalStats::new(),
        )
        .unwrap();
        assert!(out.is_empty());
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
        for threads in [1usize, 4] {
            assert!(evaluate_exists_parallel(
                &db,
                &window,
                &EngineConfig::default().with_num_threads(threads),
                &mut EvalStats::new(),
            )
            .is_err());
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow_without_blocking() {
        // One worker, depth 2. Gate the worker so queued depths are
        // deterministic, then overfill the queue.
        let pool = WorkerPool::with_queue_depth(1, 2);
        assert_eq!(pool.max_queue_depth(), Some(2));
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
        // Wait for the worker to pop the gate job so the queue is empty.
        while pool.shard_depth(0) > 0 {
            std::thread::yield_now();
        }
        let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            let job: Job = Box::new(move || {
                ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            match pool.try_spawn(0, job) {
                Ok(_) => accepted += 1,
                Err(_returned_job) => rejected += 1,
            }
        }
        assert_eq!(accepted, 2, "exactly the depth bound is admitted");
        assert_eq!(rejected, 3, "the overflow is refused, never queued");
        let stats = pool.stats();
        assert_eq!(stats.queued_jobs, 2);
        assert_eq!(stats.shard_depths, vec![2]);
        assert_eq!(stats.max_queue_depth, Some(2));
        // Release the gate: the admitted jobs run, the rejected never do.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        drop(pool);
        // Depth-bounded pools discard on shutdown, but these two were
        // already queued before the gate opened and the drain-side
        // ordering (gate job finishes, then pop) means they may run or be
        // shed; the gate released before drop, so the worker pops them
        // before it ever observes shutdown only if it wins the race.
        // What must hold: no rejected job ever ran.
        assert!(ran.load(std::sync::atomic::Ordering::SeqCst) <= 2);
    }

    #[test]
    fn cancel_queued_removes_pending_jobs_only() {
        let pool = WorkerPool::with_queue_depth(1, 0);
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
        while pool.shard_depth(0) > 0 {
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
        let handle = match pool.try_spawn(
            0,
            Box::new(move || {
                let _sensor = &sensor;
                ran_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }),
        ) {
            Ok(handle) => handle,
            Err(_) => panic!("unbounded queue must admit the job"),
        };
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
    fn bounded_pool_discards_backlog_on_shutdown_unbounded_drains() {
        for (discard, expect_ran) in [(true, false), (false, true)] {
            let pool =
                if discard { WorkerPool::with_queue_depth(1, 0) } else { WorkerPool::new(1) };
            // Close the queues first: the worker exits immediately, so a
            // job spawned afterwards can never be popped — it is dropped
            // (discard mode) when the pool's queues are freed, exactly
            // the shutdown-mid-burst scenario. For drain mode, enqueue
            // before closing so the worker still runs it.
            let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let ran_flag = Arc::clone(&ran);
            let job: Job = Box::new(move || {
                ran_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            if discard {
                pool.close_queues();
                pool.spawn(0, job);
            } else {
                // Gate the worker so the job is observably queued, then
                // close: the drain must still run it.
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
                while pool.shard_depth(0) > 0 {
                    std::thread::yield_now();
                }
                pool.spawn(0, job);
                pool.close_queues();
                let (lock, cv) = &*gate;
                *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                cv.notify_all();
            }
            drop(pool);
            assert_eq!(
                ran.load(std::sync::atomic::Ordering::SeqCst),
                expect_ran,
                "discard={discard}"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let db = random_db(3, 20, 5);
        let window = QueryWindow::from_states(20, [1usize, 2], TimeSet::interval(2, 4)).unwrap();
        let out = evaluate_exists_parallel(
            &db,
            &window,
            &EngineConfig::default().with_num_threads(0),
            &mut EvalStats::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(ShardedExecutor::new(0).num_threads(), 1);
        assert_eq!(ShardedExecutor::sequential().num_threads(), 1);
        assert_eq!(WorkerPool::new(0).num_threads(), 1);
        let _ = MarkovChain::from_csr(ust_markov::CsrMatrix::identity(2)).unwrap();
    }
}
