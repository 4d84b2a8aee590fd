//! Sharded evaluation and the worker pool behind
//! [`crate::engine::QueryProcessor::submit`].
//!
//! All of the paper's queries are embarrassingly parallel over objects —
//! each propagation touches only the shared read-only chain. Two pieces
//! turn that observation into execution:
//!
//! * [`run_sharded`] — the sharding logic: it splits the database's
//!   object indices into contiguous chunks, one per thread of
//!   [`crate::engine::EngineConfig::num_threads`], runs the first chunk on
//!   the calling thread and the others on [`std::thread::scope`]d threads,
//!   gives each shard **its own [`Propagator`]** (and thus its own scratch
//!   accumulator and batch buffers), and stitches the per-object outputs
//!   back in database order, merging the per-shard [`EvalStats`]
//!   deterministically in shard order.
//! * [`WorkerPool`] — a fixed set of **long-lived worker threads**, one
//!   work queue each, that runs the detached `'static` jobs of `submit`.
//!   A submitted query shards inside its job exactly as a synchronous one
//!   does, so a burst parallelizes across queries and a large query within
//!   itself.
//!
//! The planner's query-based dispatch adds a third ingredient, the
//! **shared-field plan** (`engine::query_based::SharedFieldPlan`):
//! each `(model, window, rule)`
//! backward field is swept **exactly once** before the fan-out — or fetched
//! from the processor's [`crate::engine::cache::FieldCache`] behind a lock —
//! and the shards receive read-only [`std::sync::Arc`] views, so no shard
//! ever re-sweeps a field another shard (or a previous query) already
//! paid for. The deduplication is observable through
//! [`EvalStats::fields_shared`].
//!
//! Every [`crate::engine::QueryProcessor`] execution routes through
//! [`run_sharded`]: with `num_threads == 1` (or a single candidate) the
//! worker runs inline on the caller's thread with no spawn. Within each
//! shard the drivers are the same batched ones the sequential reference
//! drivers use, so parallel results are **bit-for-bit identical** to
//! sequential evaluation for ∃/∀/k, threshold decisions and top-k rankings
//! (asserted by the tests below and the property suite).
//!
//! ## Detached jobs and shutdown
//!
//! Detached jobs are where overload lives: nothing blocks the submitter.
//! The pool does not bound them — its queues are unbounded, and admission
//! is decided once, by the processor's gate, before a job is ever built.
//! Queue depths are observable through [`WorkerPool::stats`] /
//! [`PoolStats`]. Every pool shuts down like a server: jobs still queued
//! when it is dropped are **discarded** (their `Drop` impls run, which is
//! how abandoned query tickets get completed with
//! `QueryError::AsyncQueryDropped`), and the jobs already running finish
//! before the workers are joined.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::pipeline::Propagator;
use crate::engine::EngineConfig;
use crate::error::Result;
use crate::stats::EvalStats;
use crate::sync::{self, Condvar, Mutex, QUEUE};

/// A unit of pool work: a detached job that owns everything it touches.
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
    state: Mutex<QueueState, QUEUE>,
    ready: Condvar,
}

impl ShardQueue {
    fn push(&self, id: u64, job: Job) {
        let mut state = self.state.lock();
        state.jobs.push_back((id, job));
        drop(state);
        self.ready.notify_one();
    }

    /// Removes a still-queued job by id — the dequeue half of best-effort
    /// cancellation. `None` once the worker has already popped it.
    fn remove(&self, id: u64) -> Option<Job> {
        let mut state = self.state.lock();
        let pos = state.jobs.iter().position(|(jid, _)| *jid == id)?;
        state.jobs.remove(pos).map(|(_, job)| job)
    }

    fn depth(&self) -> usize {
        self.state.lock().jobs.len()
    }

    fn close(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        drop(state);
        self.ready.notify_all();
    }
}

/// A fixed set of long-lived worker threads with one work queue per shard.
///
/// The pool is reusable serving capacity for detached jobs: a
/// [`crate::engine::QueryProcessor`] spawns one on first use and runs
/// every [`crate::engine::QueryProcessor::submit`] job on the same
/// threads, round-robin over the queues.
///
/// Dropping the pool shuts it down and joins the worker threads. Jobs still
/// queued at that point are **discarded** — a serving pool shutting down
/// mid-burst sheds its backlog, and dropping the job boxes runs their
/// `Drop` impls, which is what completes abandoned query tickets with
/// `QueryError::AsyncQueryDropped` instead of leaving their waiters
/// blocked forever. A job that panics is caught on the worker, which
/// survives for the next job.
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

    /// Enqueues one detached `'static` job on shard queue
    /// `shard % num_threads` and returns immediately.
    ///
    /// Nothing blocks: the job must own everything it touches (completion
    /// is typically signalled through a shared `Arc` latch). A panicking
    /// job is caught on the worker; detached submitters that need to
    /// observe it should catch it inside the job (the pool has no caller to
    /// re-raise it on). See the type docs for what happens to jobs still
    /// queued when the pool drops.
    pub fn spawn(&self, shard: usize, job: Job) -> JobHandle {
        sync::blocking_point("WorkerPool::spawn");
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
        move || queues.iter().all(|queue| queue.state.lock().shutdown)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for queue in self.queues.iter() {
            queue.close();
        }
        sync::blocking_point("WorkerPool join");
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // The workers shed their queues before exiting; anything still
        // queued here (e.g. spawned after shutdown began) is dropped with
        // the queues themselves when the last Arc goes.
    }
}

/// The loop each worker thread runs: pop a job or park on the condvar;
/// once the queue is closed, drop the remaining jobs unrun and exit —
/// outside the queue lock, since dropping a detached job may run
/// ticket-completion logic that takes other locks.
fn worker_loop(queue: &ShardQueue) {
    loop {
        let job = {
            let mut state = queue.state.lock();
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
                state = queue.ready.wait(state);
            }
        };
        // A panicking job must not take the worker down with it — catch
        // the unwind and move on to the next job.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

/// Runs `worker` over contiguous shards of `indices` (database object
/// indices: the whole database, a spec's subset, or a prefilter's
/// survivors) and concatenates the outputs in `indices` order.
///
/// The shard count is [`EngineConfig::effective_num_threads`], capped at
/// one shard per index. A single shard runs inline over `stats`. Otherwise
/// shard 0 runs on the calling thread and every other shard on a scoped
/// thread (one that cannot be spawned runs on the caller instead, with
/// the same arithmetic); each shard owns one [`Propagator`] over a private
/// [`EvalStats`] that is merged into `stats` afterwards —
/// deterministically, in shard order, as is the first error should any
/// shard fail. Workers that return one output per index therefore produce
/// the same vector the sequential driver would; reduction-style workers
/// (top-k candidates) return fewer and the caller merges. A panicking
/// shard unwinds into the caller once every shard has settled.
pub fn run_sharded<T, F>(
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
    let threads = config.effective_num_threads().min(n);
    if threads == 1 {
        return worker(&mut Propagator::new(config, stats), indices);
    }
    let run = |shard: &[usize]| {
        let mut local = EvalStats::new();
        worker(&mut Propagator::new(config, &mut local), shard).map(|out| (out, local))
    };
    let shards: Vec<&[usize]> = indices.chunks(n.div_ceil(threads)).collect();
    sync::blocking_point("run_sharded spawn");
    let settled = std::thread::scope(|scope| {
        let run = &run;
        let spawned: Vec<_> = shards[1..]
            .iter()
            .map(|&shard| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || run(shard))
                    .map_err(|_| shard)
            })
            .collect();
        let mut settled = vec![run(shards[0])];
        sync::blocking_point("run_sharded join");
        for shard in spawned {
            settled.push(match shard {
                Ok(handle) => {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }
                Err(unspawned) => run(unspawned),
            });
        }
        settled
    });
    let mut out = Vec::with_capacity(n);
    for shard in settled {
        let (shard_out, local) = shard?;
        stats.merge(&local);
        out.extend(shard_out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::reach::ReachRule;
    use crate::engine::{object_based, query_based, QueryProcessor};
    use crate::error::QueryError;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, QueryAnswer, QueryBuilder, QueryWindow, Strategy};
    use crate::testkit::{gate_workers, reference_config};
    use ust_oracle::testutil;
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
        let exists_ob = Query::exists().strategy(Strategy::ObjectBased);
        let reference = QueryProcessor::with_config(&db, reference_config());
        let sequential = run(&reference, exists_ob.clone(), &window, &mut EvalStats::new());
        for threads in [1usize, 2, 3, 8, 64] {
            let processor = QueryProcessor::with_config(&db, config.with_num_threads(threads));
            let mut stats = EvalStats::new();
            let parallel = run(&processor, exists_ob.clone(), &window, &mut stats);
            assert_eq!(bits(&parallel), bits(&sequential), "threads={threads}");
            assert_eq!(stats.objects_evaluated, db.len() as u64);
        }
    }

    #[test]
    fn all_drivers_match_sequential_bit_for_bit() {
        use Strategy::{ObjectBased as Ob, QueryBased as Qb};
        let db = random_db(23, 60, 29);
        let window = window(60);
        let config = EngineConfig::default().with_batch_size(7);
        // Every shape's reference is the reference configuration's answer
        // (one thread, batch 1, one cache entry, no prefilter).
        let reference = QueryProcessor::with_config(&db, reference_config());
        let expected: Vec<_> = [
            Query::exists().strategy(Ob),
            Query::exists().strategy(Qb),
            Query::forall().strategy(Ob),
            Query::forall().strategy(Qb),
            Query::ktimes(1).strategy(Ob),
            Query::ktimes(1).strategy(Qb),
            Query::exists().threshold(0.4).strategy(Ob),
            Query::exists().threshold(0.4).strategy(Qb),
            Query::exists().top_k(5).strategy(Ob),
            Query::exists().top_k(5).strategy(Qb),
        ]
        .into_iter()
        .map(|builder| {
            let answer = run(&reference, builder.clone(), &window, &mut EvalStats::new());
            (builder, answer)
        })
        .collect();
        for threads in [2usize, 5, 16] {
            let processor = QueryProcessor::with_config(&db, config.with_num_threads(threads));
            for (builder, reference) in &expected {
                let answer = run(&processor, builder.clone(), &window, &mut EvalStats::new());
                assert_eq!(bits(&answer), bits(reference), "threads={threads} {builder:?}");
                // A submitted query shards inside its pool job as `execute`
                // does on the caller.
                if threads == 2 {
                    let spec = builder.clone().window(window.clone()).build().unwrap();
                    let submitted = processor.submit(&spec).unwrap().wait().unwrap();
                    assert_eq!(bits(&submitted), bits(reference), "submit {builder:?}");
                }
            }
        }
    }

    #[test]
    fn pool_reuse_across_queries_and_graceful_shutdown() {
        let db = random_db(29, 40, 23);
        let window = window(40);
        let config = EngineConfig::default().with_num_threads(4);
        let exists_ob = Query::exists().strategy(Strategy::ObjectBased);
        let reference = QueryProcessor::with_config(&db, reference_config());
        let sequential = run(&reference, exists_ob, &window, &mut EvalStats::new());
        let sequential = sequential.probabilities().unwrap().to_vec();
        let indices: Vec<usize> = (0..db.len()).collect();
        let groups = query_based::group_on(&db, &indices, &window).unwrap();
        let reach =
            object_based::ReachPlan::from_groups(&db, &groups, &window, ReachRule::Exists).unwrap();
        // Many sharded queries: identical bits every time.
        for _ in 0..3 {
            let out = run_sharded(&indices, &config, &mut EvalStats::new(), |pipeline, idxs| {
                let rule = &mut object_based::Exists;
                object_based::forward_database(pipeline, &db, idxs, &window, &reach, rule)
            })
            .unwrap();
            for (a, b) in out.iter().zip(&sequential) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
        // Many submissions over one pool: no respawn, identical bits.
        let processor = QueryProcessor::with_config(&db, config);
        let pool = Arc::clone(processor.pool());
        assert_eq!(pool.num_threads(), 4);
        let spec = Query::exists().window(window).strategy(Strategy::ObjectBased).build().unwrap();
        for _ in 0..3 {
            let answer = processor.submit(&spec).unwrap().wait().unwrap();
            assert_eq!(bits(&answer), bits(&QueryAnswer::Probabilities(sequential.clone())));
            assert!(Arc::ptr_eq(&pool, processor.pool()));
        }
        // Dropping the processor and the last handle joins the workers
        // without hanging.
        drop(processor);
        drop(pool);
    }

    #[test]
    fn shard_panics_surface_after_every_shard_settles() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let db = random_db(7, 30, 9);
        let window = window(30);
        let processor =
            QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(3));
        let spec = Query::exists().window(window).build().unwrap();
        let before = processor.execute(&spec).unwrap();
        // Shard 1 of 3 (indices 3..6) panics at once; the other two finish
        // only after a pause, so a panic surfacing before they settle
        // would find them unfinished.
        let indices: Vec<usize> = (0..9).collect();
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sharded(&indices, processor.config(), &mut EvalStats::new(), |_, idxs| {
                assert!(idxs[0] != 3, "shard 1 panics");
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, SeqCst);
                Ok(idxs.to_vec())
            })
        }));
        assert!(caught.is_err(), "the shard panic surfaces on the caller");
        assert_eq!(finished.load(SeqCst), 2, "after every other shard finished");
        // The next query on the same processor answers bit-identically.
        assert_eq!(bits(&processor.execute(&spec).unwrap()), bits(&before));
    }

    #[test]
    fn cached_drivers_match_uncached_bit_for_bit() {
        let db = random_db(31, 50, 19);
        let window = window(50);
        let config = EngineConfig::default().with_num_threads(3);
        let processor = QueryProcessor::with_config(&db, config);
        let exists_qb = Query::exists().strategy(Strategy::QueryBased);
        let reference = QueryProcessor::with_config(&db, reference_config());
        let uncached = run(&reference, exists_qb.clone(), &window, &mut EvalStats::new());
        // Twice through the cache: a miss-then-sweep pass and a pure-hit
        // pass must both reproduce the uncached bits.
        for pass in 0..2 {
            let mut stats = EvalStats::new();
            let cached = run(&processor, exists_qb.clone(), &window, &mut stats);
            assert_eq!(bits(&cached), bits(&uncached), "pass={pass}");
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
        let exists_qb = Query::exists().strategy(Strategy::QueryBased);
        let reference = QueryProcessor::with_config(&db, reference_config());
        let mut baseline = EvalStats::new();
        run(&reference, exists_qb, &window, &mut baseline);
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
        let release = gate_workers(&pool);
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
        release();
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
                let release = gate_workers(&pool);
                pool.spawn(0, job);
                pool.close_queues();
                release();
            } else {
                pool.close_queues();
                pool.spawn(0, job);
            }
            drop(pool);
            let ran = ran.load(std::sync::atomic::Ordering::SeqCst);
            assert!(!ran, "queued_before_close={queued_before_close}");
        }
    }

    /// A guard held across a scoped fan-out stalls every thread contending
    /// on its lock until all shards settle: debug builds reject it, naming
    /// the lock; dropped first, the same fan-out runs.
    #[cfg(debug_assertions)]
    #[test]
    fn a_guard_held_across_a_scoped_fan_out_panics() {
        let registry = Mutex::<_, { crate::sync::CACHE }>::new(vec![7u64, 8, 9, 10]);
        let config = EngineConfig::default().with_num_threads(2);
        let fan_out = |entries: &[u64]| {
            run_sharded(&[0, 1, 2, 3], &config, &mut EvalStats::new(), |_, shard| {
                Ok(shard.iter().map(|&i| entries[i]).collect())
            })
        };
        let entries = registry.lock();
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fan_out(&entries)));
        let message = *held.unwrap_err().downcast::<String>().unwrap();
        let expected = "ServingCore.cache (rank 0) held across the blocking point run_sharded";
        assert!(message.starts_with(expected), "{message}");
        let snapshot = entries.clone();
        drop(entries);
        assert_eq!(fan_out(&snapshot).unwrap(), [7, 8, 9, 10]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let db = random_db(3, 20, 5);
        let window = QueryWindow::from_states(20, [1usize, 2], TimeSet::interval(2, 4)).unwrap();
        let config = EngineConfig::default().with_num_threads(0);
        assert_eq!(config.effective_num_threads(), 1, "zero threads evaluates inline");
        let processor = QueryProcessor::with_config(&db, config);
        let out = run(&processor, Query::exists(), &window, &mut EvalStats::new());
        assert_eq!(out.len(), 5);
        let indices: Vec<usize> = (0..5).collect();
        let caller = std::thread::current().id();
        let shards = run_sharded(&indices, &config, &mut EvalStats::new(), |_, idxs| {
            Ok(vec![(std::thread::current().id(), idxs.len())])
        })
        .unwrap();
        assert_eq!(shards, [(caller, 5)], "one shard, on the caller");
        assert_eq!(WorkerPool::new(0).num_threads(), 1);
    }
}
