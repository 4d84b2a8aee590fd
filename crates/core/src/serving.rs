//! Serving-side accounting: per-plan latency counters and admission
//! outcomes.
//!
//! A [`crate::engine::QueryProcessor`] that serves traffic needs more than
//! per-query [`EvalStats`]: it needs to know, *across* queries, how many
//! submissions were accepted, rejected at the admission bound, cancelled
//! or shed at their deadline, and how long each `(predicate, strategy)`
//! plan shape actually spends waiting in the queue, planning and
//! executing. [`Metrics`] is that registry — one per processor, shared
//! with every asynchronously submitted job, inspected through
//! [`crate::engine::QueryProcessor::metrics`] which returns an owned
//! [`MetricsSnapshot`].
//!
//! The registry is a ledger, not a feedback loop: wall-clock latencies
//! (queue wait, plan time, execute time) are recorded per plan shape —
//! they are what a serving dashboard watches — and nothing recorded here
//! ever influences planning. Strategy choice depends only on the
//! database, the window and cache residency, so a given query sequence
//! plans reproducibly (the two exact strategies agree only to rounding,
//! and a plan that flipped with machine noise would flip result bits).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{QueryError, Result};
use crate::query::{Predicate, QuerySpec, Strategy};
use crate::stats::EvalStats;
use crate::sync::{Mutex, METRICS};

/// How an asynchronously submitted query left the system — the
/// classification [`Metrics::record_async_finished`] tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AsyncOutcome {
    /// The job ran to completion with an answer.
    Completed,
    /// The job ran and returned a query error.
    Failed,
    /// Cancelled via `QueryTicket::cancel` before producing an answer.
    Cancelled,
    /// Dropped without running (pool shut down, job discarded).
    Dropped,
    /// Shed because its queue wait exceeded the configured deadline.
    DeadlineExpired,
    /// Panicked on its worker.
    Panicked,
}

impl AsyncOutcome {
    /// How admitted work that ended with `outcome` left the system.
    pub(crate) fn of<T>(outcome: &Result<T>) -> AsyncOutcome {
        match outcome {
            Ok(_) => AsyncOutcome::Completed,
            Err(QueryError::Cancelled) => AsyncOutcome::Cancelled,
            Err(QueryError::AsyncQueryDropped) => AsyncOutcome::Dropped,
            Err(QueryError::DeadlineExceeded) => AsyncOutcome::DeadlineExpired,
            Err(QueryError::AsyncQueryPanicked) => AsyncOutcome::Panicked,
            Err(_) => AsyncOutcome::Failed,
        }
    }
}

/// The one admission gate of a processor: the pending counter
/// [`crate::engine::EngineConfig::max_queue_depth`] bounds, the deadline
/// admitted work is shed at, and the registry both are tallied in.
/// Submitted queries and standing-query refreshes pass the same gate, so
/// re-evaluation load and submissions share one budget — and this is the
/// only place the bound is enforced.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    /// Slots handed out and not yet released.
    pending: AtomicUsize,
    /// The pending bound (`usize::MAX` when unbounded).
    limit: usize,
    deadline: Option<Duration>,
    metrics: Metrics,
}

impl AdmissionGate {
    /// A gate admitting at most `max_queue_depth` slots at a time (`0` =
    /// unbounded) and shedding work older than `deadline`.
    pub(crate) fn new(max_queue_depth: usize, deadline: Option<Duration>) -> AdmissionGate {
        let limit = if max_queue_depth == 0 { usize::MAX } else { max_queue_depth };
        AdmissionGate { pending: AtomicUsize::new(0), limit, deadline, metrics: Metrics::new() }
    }

    /// The serving registry this gate tallies into.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Reserves a slot for evaluating `spec`, or rejects with
    /// [`QueryError::QueueFull`] without blocking. `since` is when the
    /// work entered the system (submission, or the arrival behind a
    /// refresh): what the deadline and the queue wait are measured from.
    pub(crate) fn admit(
        self: &Arc<Self>,
        spec: &QuerySpec,
        since: Instant,
    ) -> Result<AdmissionSlot> {
        let mut current = self.pending.load(Ordering::Relaxed);
        loop {
            if current >= self.limit {
                self.metrics.record_rejected(spec.predicate(), spec.strategy());
                return Err(QueryError::QueueFull { limit: self.limit });
            }
            // AcqRel pairs with the release in `AdmissionSlot::release`:
            // a slot observed free was fully given back.
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
        self.metrics.record_accepted();
        Ok(AdmissionSlot { gate: Arc::clone(self), since, held: true })
    }
}

/// One admitted unit of work's hold on the [`AdmissionGate`]. Whoever
/// finishes the work releases the slot with how it ended; a slot dropped
/// while still held (its owner unwound, or was discarded without running)
/// releases itself — so every exit path frees the slot and is tallied
/// exactly once.
#[derive(Debug)]
pub(crate) struct AdmissionSlot {
    gate: Arc<AdmissionGate>,
    since: Instant,
    held: bool,
}

impl AdmissionSlot {
    /// Time since the admitted work entered the system.
    pub(crate) fn waited(&self) -> Duration {
        self.since.elapsed()
    }

    /// True once the work has waited past the gate's deadline.
    pub(crate) fn expired(&self) -> bool {
        self.gate.deadline.is_some_and(|deadline| self.since.elapsed() > deadline)
    }

    /// Gives the slot back and tallies `outcome`. Only the first call does
    /// (and returns true).
    pub(crate) fn release(&mut self, outcome: AsyncOutcome) -> bool {
        let held = std::mem::replace(&mut self.held, false);
        if held {
            self.gate.pending.fetch_sub(1, Ordering::AcqRel);
            self.gate.metrics.record_async_finished(outcome);
        }
        held
    }
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.release(if std::thread::panicking() {
            AsyncOutcome::Panicked
        } else {
            AsyncOutcome::Dropped
        });
    }
}

/// One execution's worth of accounting handed to
/// [`Metrics::record_execution`] by the execution engine.
#[derive(Debug, Clone)]
pub(crate) struct ExecutionRecord {
    /// The query predicate.
    pub predicate: Predicate,
    /// The strategy that actually ran — or, for a query that failed
    /// before its plan was resolved (index resolution / planning error),
    /// the *requested* strategy, which may still be [`Strategy::Auto`].
    pub strategy: Strategy,
    /// Time spent resolving indices and planning.
    pub plan_time: Duration,
    /// Time spent executing the resolved plan.
    pub execute_time: Duration,
    /// Queue wait between submission and job start (async runs only).
    pub queue_wait: Option<Duration>,
    /// The evaluation counters this execution accumulated.
    pub delta: EvalStats,
    /// Whether the execution succeeded.
    pub ok: bool,
}

/// Per-subscription counters for one standing query registered through
/// [`crate::engine::QueryProcessor::watch`], keyed by
/// [`crate::streaming::Subscription::id`].
///
/// The step split is the streaming story in numbers: `recompute_steps`
/// is what full evaluations (the registration probe plus any stale
/// resynchronizations) cost, `incremental_steps` what the per-arrival
/// single-object refreshes cost. A query-based subscription scores each
/// arrival against the backward fields it holds, so the latter stays at
/// zero backward steps per arrival, except for the one sweep of a model
/// that had no object in scope at registration (pinned by
/// `tests/streaming.rs`, reported by the benchmark's `stream_mixed`
/// workload). Those refreshes are not served executions and never reach
/// [`MetricsSnapshot::executions`]; an object-based subscription's
/// refresh serves a one-object probe and counts there too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMetrics {
    /// The subscription this row accounts for.
    pub subscription_id: u64,
    /// Notifications committed into the maintained answer (incremental
    /// refreshes plus full resynchronizations; the registration probe is
    /// not a notification).
    pub notifications: u64,
    /// Incremental single-object refreshes: each recomputed exactly the
    /// arrived object's maintained entries, never the backward fields
    /// (their keys are observation-independent).
    pub reevaluations: u64,
    /// Full evaluations: the registration probe plus stale resyncs.
    pub full_recomputes: u64,
    /// Refreshes shed at the admission bound or deadline.
    pub sheds: u64,
    /// Propagation steps (forward transitions + backward steps) spent on
    /// incremental refreshes.
    pub incremental_steps: u64,
    /// Propagation steps spent on full evaluations.
    pub recompute_steps: u64,
}

impl StreamMetrics {
    fn new(subscription_id: u64) -> StreamMetrics {
        StreamMetrics {
            subscription_id,
            notifications: 0,
            reevaluations: 0,
            full_recomputes: 0,
            sheds: 0,
            incremental_steps: 0,
            recompute_steps: 0,
        }
    }
}

/// Aggregated counters for one `(predicate, strategy)` plan shape.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanMetrics {
    /// The query predicate of this plan shape.
    pub predicate: Predicate,
    /// The evaluation strategy of this plan shape. Executions are keyed
    /// by the strategy that *ran*; rejections — and executions that
    /// failed before their plan was resolved — by the one *requested*,
    /// which may be [`Strategy::Auto`] (such queries never reached a
    /// concrete strategy).
    pub strategy: Strategy,
    /// Executions recorded (synchronous calls and asynchronous jobs).
    pub executions: u64,
    /// Executions that returned an error.
    pub failures: u64,
    /// Submissions rejected at the admission bound.
    pub rejections: u64,
    /// Total seconds submitted jobs of this shape waited in the queue.
    pub queue_wait_secs: f64,
    /// Total seconds spent planning (index resolution + cost model).
    pub plan_secs: f64,
    /// Total seconds spent executing resolved plans.
    pub execute_secs: f64,
    /// Backward-field cache hits accumulated by these executions.
    pub cache_hits: u64,
    /// Backward-field cache misses accumulated by these executions.
    pub cache_misses: u64,
    /// Executions that reused a memoised prepared plan (see
    /// [`EvalStats::plans_reused`]).
    pub plans_reused: u64,
    /// Executions that patched a memoised plan from the write log (see
    /// [`EvalStats::plans_patched`]).
    pub plans_patched: u64,
    /// Objects the patched plans re-tested (see
    /// [`EvalStats::objects_retested`]).
    pub objects_retested: u64,
    /// Forward transitions accumulated by these executions.
    pub transitions: u64,
    /// Backward steps accumulated by these executions.
    pub backward_steps: u64,
    /// Matrix entries multiplied by these executions (forward batched
    /// kernels; see [`EvalStats::entries_touched`]).
    pub entries_touched: u64,
    /// Candidates that survived the spatio-temporal index prefilter and
    /// were handed to the exact engines.
    pub candidates_examined: u64,
    /// Candidates discarded by the prefilter without being evaluated.
    pub candidates_pruned: u64,
}

impl PlanMetrics {
    fn new(predicate: Predicate, strategy: Strategy) -> PlanMetrics {
        PlanMetrics {
            predicate,
            strategy,
            executions: 0,
            failures: 0,
            rejections: 0,
            queue_wait_secs: 0.0,
            plan_secs: 0.0,
            execute_secs: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            plans_reused: 0,
            plans_patched: 0,
            objects_retested: 0,
            transitions: 0,
            backward_steps: 0,
            entries_touched: 0,
            candidates_examined: 0,
            candidates_pruned: 0,
        }
    }
}

/// An owned, consistent copy of a processor's serving counters at one
/// instant, returned by [`crate::engine::QueryProcessor::metrics`].
///
/// The lifecycle totals obey two identities the test suite pins:
/// `submitted == accepted + rejected`, and `accepted` equals the sum of
/// the terminal outcomes (`completed + failed + cancelled + dropped +
/// deadline_expired + panicked`) plus [`MetricsSnapshot::in_flight`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Asynchronous submissions attempted (accepted or rejected).
    pub submitted: u64,
    /// Submissions admitted to a queue.
    pub accepted: u64,
    /// Submissions rejected with `QueryError::QueueFull`.
    pub rejected: u64,
    /// Accepted queries that completed with an answer.
    pub completed: u64,
    /// Accepted queries that completed with a query error.
    pub failed: u64,
    /// Accepted queries cancelled before completion.
    pub cancelled: u64,
    /// Accepted queries dropped without running.
    pub dropped: u64,
    /// Accepted queries shed at their deadline.
    pub deadline_expired: u64,
    /// Accepted queries that panicked on their worker.
    pub panicked: u64,
    /// Accepted queries still queued or running.
    pub in_flight: u64,
    /// Executions recorded in total — synchronous `execute` calls,
    /// asynchronous job bodies and served subscription evaluations (seeds,
    /// resynchronizations and object-based refreshes; a query-based
    /// refresh is a dot product against held fields, not an execution).
    pub executions: u64,
    /// Per-`(predicate, strategy)` counters, in first-seen order.
    pub plans: Vec<PlanMetrics>,
    /// Per-subscription streaming counters, in registration order.
    pub streams: Vec<StreamMetrics>,
}

impl MetricsSnapshot {
    /// The counters for one plan shape, if it was ever recorded.
    pub fn plan(&self, predicate: Predicate, strategy: Strategy) -> Option<&PlanMetrics> {
        self.plans.iter().find(|p| p.predicate == predicate && p.strategy == strategy)
    }

    /// The counters for one subscription, if it was ever registered.
    pub fn stream(&self, subscription_id: u64) -> Option<&StreamMetrics> {
        self.streams.iter().find(|s| s.subscription_id == subscription_id)
    }

    /// Sum of the terminal async outcomes — equals
    /// `accepted - in_flight`.
    pub fn finished(&self) -> u64 {
        self.completed
            + self.failed
            + self.cancelled
            + self.dropped
            + self.deadline_expired
            + self.panicked
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serving: {} submitted = {} accepted + {} rejected; {} completed, {} failed, \
             {} cancelled, {} dropped, {} deadline-expired, {} panicked, {} in flight",
            self.submitted,
            self.accepted,
            self.rejected,
            self.completed,
            self.failed,
            self.cancelled,
            self.dropped,
            self.deadline_expired,
            self.panicked,
            self.in_flight,
        )?;
        for p in &self.plans {
            write!(
                f,
                "\n  {:?}/{:?}: {} exec ({} failed, {} rejected), wait {:.3}s, plan {:.3}s, \
                 run {:.3}s, cache {}/{}",
                p.predicate,
                p.strategy,
                p.executions,
                p.failures,
                p.rejections,
                p.queue_wait_secs,
                p.plan_secs,
                p.execute_secs,
                p.cache_hits,
                p.cache_misses,
            )?;
            if p.candidates_pruned > 0 {
                write!(
                    f,
                    ", prefilter {}/{} examined",
                    p.candidates_examined,
                    p.candidates_examined + p.candidates_pruned,
                )?;
            }
        }
        for s in &self.streams {
            write!(
                f,
                "\n  stream #{}: {} notified ({} incremental / {} full, {} shed), \
                 steps {} incr / {} full",
                s.subscription_id,
                s.notifications,
                s.reevaluations,
                s.full_recomputes,
                s.sheds,
                s.incremental_steps,
                s.recompute_steps,
            )?;
        }
        Ok(())
    }
}

impl MetricsSnapshot {
    fn plan_entry(&mut self, predicate: Predicate, strategy: Strategy) -> &mut PlanMetrics {
        let known =
            self.plans.iter().position(|p| p.predicate == predicate && p.strategy == strategy);
        let pos = known.unwrap_or_else(|| {
            self.plans.push(PlanMetrics::new(predicate, strategy));
            self.plans.len() - 1
        });
        &mut self.plans[pos]
    }

    fn stream_entry(&mut self, subscription_id: u64) -> &mut StreamMetrics {
        let known = self.streams.iter().position(|s| s.subscription_id == subscription_id);
        let pos = known.unwrap_or_else(|| {
            self.streams.push(StreamMetrics::new(subscription_id));
            self.streams.len() - 1
        });
        &mut self.streams[pos]
    }
}

/// The per-processor serving registry. Interior-mutable and shared (via
/// `Arc`) with every asynchronous job; all locking recovers from poison,
/// so a panicking job can never wedge the accounting.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The live ledger *is* a snapshot — the one every reader clones.
    inner: Mutex<MetricsSnapshot, METRICS>,
}

impl Metrics {
    /// A fresh, zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Tallies a rejected submission. `submitted` is bumped under the
    /// same lock acquisition as the rejection so the
    /// `submitted == accepted + rejected` identity holds in **every**
    /// snapshot, including one taken concurrently with a submit.
    pub(crate) fn record_rejected(&self, predicate: Predicate, requested: Strategy) {
        let mut inner = self.inner.lock();
        inner.submitted += 1;
        inner.rejected += 1;
        inner.plan_entry(predicate, requested).rejections += 1;
    }

    /// Tallies an admitted submission (see [`Metrics::record_rejected`]
    /// for why `submitted` is bumped here rather than separately).
    pub(crate) fn record_accepted(&self) {
        let mut inner = self.inner.lock();
        inner.submitted += 1;
        inner.accepted += 1;
        inner.in_flight += 1;
    }

    pub(crate) fn record_async_finished(&self, outcome: AsyncOutcome) {
        let mut inner = self.inner.lock();
        inner.in_flight = inner.in_flight.saturating_sub(1);
        match outcome {
            AsyncOutcome::Completed => inner.completed += 1,
            AsyncOutcome::Failed => inner.failed += 1,
            AsyncOutcome::Cancelled => inner.cancelled += 1,
            AsyncOutcome::Dropped => inner.dropped += 1,
            AsyncOutcome::DeadlineExpired => inner.deadline_expired += 1,
            AsyncOutcome::Panicked => inner.panicked += 1,
        }
    }

    pub(crate) fn record_execution(&self, record: &ExecutionRecord) {
        let mut inner = self.inner.lock();
        inner.executions += 1;
        let entry = inner.plan_entry(record.predicate, record.strategy);
        entry.executions += 1;
        if !record.ok {
            entry.failures += 1;
        }
        if let Some(wait) = record.queue_wait {
            entry.queue_wait_secs += wait.as_secs_f64();
        }
        entry.plan_secs += record.plan_time.as_secs_f64();
        entry.execute_secs += record.execute_time.as_secs_f64();
        entry.cache_hits += record.delta.cache_hits;
        entry.cache_misses += record.delta.cache_misses;
        entry.plans_reused += record.delta.plans_reused;
        entry.plans_patched += record.delta.plans_patched;
        entry.objects_retested += record.delta.objects_retested;
        entry.transitions += record.delta.transitions;
        entry.backward_steps += record.delta.backward_steps;
        entry.entries_touched += record.delta.entries_touched;
        entry.candidates_examined += record.delta.candidates_examined;
        entry.candidates_pruned += record.delta.candidates_pruned;
    }

    /// Tallies a subscription's registration: the initial full evaluation
    /// [`crate::engine::QueryProcessor::watch`] performs to seed the
    /// maintained answer.
    pub(crate) fn record_stream_watch(&self, subscription_id: u64, steps: u64) {
        let mut inner = self.inner.lock();
        let entry = inner.stream_entry(subscription_id);
        entry.full_recomputes += 1;
        entry.recompute_steps += steps;
    }

    /// Tallies a committed incremental refresh: one arrival invalidated
    /// exactly one maintained entry and re-evaluated it.
    pub(crate) fn record_stream_refresh(&self, subscription_id: u64, steps: u64) {
        let mut inner = self.inner.lock();
        let entry = inner.stream_entry(subscription_id);
        entry.notifications += 1;
        entry.reevaluations += 1;
        entry.incremental_steps += steps;
    }

    /// Tallies a full resynchronization of a stale (or errored)
    /// subscription.
    pub(crate) fn record_stream_resync(&self, subscription_id: u64, steps: u64) {
        let mut inner = self.inner.lock();
        let entry = inner.stream_entry(subscription_id);
        entry.notifications += 1;
        entry.full_recomputes += 1;
        entry.recompute_steps += steps;
    }

    /// Tallies a refresh shed at the admission bound or deadline.
    pub(crate) fn record_stream_shed(&self, subscription_id: u64) {
        self.inner.lock().stream_entry(subscription_id).sheds += 1;
    }

    /// An owned, consistent snapshot of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(strategy: Strategy, actual: u64, ok: bool) -> ExecutionRecord {
        ExecutionRecord {
            predicate: Predicate::Exists,
            strategy,
            plan_time: Duration::from_micros(5),
            execute_time: Duration::from_micros(50),
            queue_wait: Some(Duration::from_micros(10)),
            delta: EvalStats {
                transitions: actual,
                backward_steps: actual,
                entries_touched: 500,
                cache_hits: 1,
                plans_reused: 1,
                plans_patched: 1,
                objects_retested: 3,
                candidates_examined: 8,
                candidates_pruned: 2,
                ..Default::default()
            },
            ok,
        }
    }

    #[test]
    fn lifecycle_identities_hold() {
        let m = Metrics::new();
        for _ in 0..3 {
            m.record_accepted();
        }
        m.record_rejected(Predicate::Exists, Strategy::Auto);
        m.record_rejected(Predicate::ForAll, Strategy::Auto);
        m.record_async_finished(AsyncOutcome::Completed);
        m.record_async_finished(AsyncOutcome::Cancelled);
        let s = m.snapshot();
        assert_eq!(s.submitted, 5);
        assert_eq!(s.accepted + s.rejected, 5);
        assert_eq!(s.finished() + s.in_flight, s.accepted);
        assert_eq!(s.in_flight, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.plan(Predicate::Exists, Strategy::Auto).unwrap().rejections, 1);
        assert!(s.to_string().contains("5 submitted"));
    }

    #[test]
    fn execution_records_accumulate_per_plan() {
        let m = Metrics::new();
        m.record_execution(&record(Strategy::ObjectBased, 40, true));
        m.record_execution(&record(Strategy::ObjectBased, 40, false));
        m.record_execution(&record(Strategy::QueryBased, 70, true));
        let s = m.snapshot();
        assert_eq!(s.executions, 3);
        let ob = s.plan(Predicate::Exists, Strategy::ObjectBased).unwrap();
        assert_eq!(ob.executions, 2);
        assert_eq!(ob.failures, 1);
        assert_eq!(ob.cache_hits, 2);
        assert_eq!(ob.plans_reused, 2);
        assert_eq!((ob.plans_patched, ob.objects_retested), (2, 6));
        assert_eq!(ob.candidates_examined, 16);
        assert_eq!(ob.candidates_pruned, 4);
        assert!(s.to_string().contains("prefilter 16/20 examined"));
        assert!(ob.queue_wait_secs > 0.0);
        assert!(ob.execute_secs > 0.0);
        assert_eq!(ob.entries_touched, 1_000, "the per-plan totals keep the raw entry counts");
    }

    #[test]
    fn stream_counters_split_incremental_from_full_work() {
        let m = Metrics::new();
        m.record_stream_watch(3, 100);
        m.record_stream_refresh(3, 4);
        m.record_stream_refresh(3, 6);
        m.record_stream_shed(3);
        m.record_stream_resync(3, 90);
        m.record_stream_watch(7, 50);
        let s = m.snapshot();
        assert_eq!(s.streams.len(), 2);
        let three = s.stream(3).unwrap();
        assert_eq!(three.notifications, 3, "watch is not a notification");
        assert_eq!(three.reevaluations, 2);
        assert_eq!(three.full_recomputes, 2, "watch + resync");
        assert_eq!(three.sheds, 1);
        assert_eq!(three.incremental_steps, 10);
        assert_eq!(three.recompute_steps, 190);
        assert_eq!(s.stream(7).unwrap().recompute_steps, 50);
        assert_eq!(s.stream(42), None);
        assert!(s.to_string().contains("stream #3: 3 notified"));
    }
}
