//! Serving-side accounting: per-plan latency counters, admission
//! outcomes, and the planner-calibration feedback loop.
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
//! ## The calibration loop
//!
//! The registry also closes the loop PR 4's planner left open: every
//! executed query reports how many propagation steps it *actually*
//! performed against the step count the cost model *estimated*, and the
//! per-strategy EWMA of that ratio replaces the planner's flat `×0.5`
//! early-termination discount once samples exist (see
//! [`crate::engine::plan`]). The feedback is deliberately fed by the
//! deterministic [`EvalStats`] counters, **not** by wall-clock time:
//! counter-based calibration makes a given query sequence plan
//! reproducibly (the property suite depends on it), whereas wall-clock
//! feedback would make strategy choice — and therefore result bits, since
//! the two exact strategies agree only to rounding — depend on machine
//! noise. Because even deterministic calibration can legitimately flip a
//! borderline plan between two executions of the same spec, the planner
//! only *consults* the EWMA when
//! [`crate::engine::EngineConfig::calibrate_planner`] is enabled; the
//! registry records a sample whenever a cost model was computed for the
//! executed query (always under [`Strategy::Auto`]; for explicit
//! strategies only when calibration is on, since the estimates are
//! otherwise skipped), and
//! [`crate::engine::QueryProcessor::explain`] renders the state either
//! way.
//!
//! Wall-clock latencies (queue wait, plan time, execute time) are still
//! recorded per plan shape — they are what a serving dashboard watches —
//! and by default they never influence planning. The one deliberate
//! exception is the per-strategy **matrix-entry throughput** EWMA
//! (`entries_touched / execute_time`, entries per second): because
//! [`EvalStats::entries_touched`] is invariant across the batched kernel
//! modes, the rate is a clean measure of how fast each strategy actually
//! chews through matrix entries on this machine, and the planner divides
//! its entry-count estimates by it to rank strategies in predicted
//! seconds — but **only** when
//! [`crate::engine::EngineConfig::calibrate_planner`] is enabled, the
//! same opt-in that accepts plan drift for the step-ratio EWMA.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use crate::query::{Predicate, Strategy};
use crate::stats::EvalStats;

/// Smoothing factor of the calibration EWMAs: a new observation
/// contributes 30%, so roughly the last ~7 queries dominate the estimate.
const EWMA_ALPHA: f64 = 0.3;

/// Floor applied to observed step ratios so a fully-pruned query cannot
/// teach the planner that a strategy is free.
const MIN_STEP_RATIO: f64 = 0.01;

/// An exponentially weighted moving average over `f64` observations.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    samples: u64,
}

impl Ewma {
    fn observe(&mut self, x: f64) {
        self.value =
            if self.samples == 0 { x } else { EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.value };
        self.samples += 1;
    }

    fn get(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.value)
    }
}

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
    /// True when a threshold/top-k decorator allowed early termination —
    /// the runs the discount EWMA learns from.
    pub bounded: bool,
    /// The cost model's *undiscounted* estimate of propagation steps for
    /// the strategy that ran (vector steps, not matrix-entry touches).
    pub estimated_steps: f64,
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
/// single-object refreshes cost. On a warmed query-based subscription
/// the latter stays at zero backward steps per arrival (pinned by
/// `tests/streaming.rs`, reported by the benchmark's `stream_mixed`
/// workload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMetrics {
    /// The subscription this row accounts for.
    pub subscription_id: u64,
    /// Notifications committed into the maintained answer (incremental
    /// refreshes plus full resynchronizations; the registration probe is
    /// not a notification).
    pub notifications: u64,
    /// Incremental single-object re-evaluations.
    pub reevaluations: u64,
    /// Full evaluations: the registration probe plus stale resyncs.
    pub full_recomputes: u64,
    /// Maintained result entries invalidated by arrivals — the scoped
    /// inverse of a whole-cache flush: one entry per in-scope arrival,
    /// never the backward-field caches (their keys are
    /// observation-independent).
    pub suffix_invalidations: u64,
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
            suffix_invalidations: 0,
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
            transitions: 0,
            backward_steps: 0,
            entries_touched: 0,
            candidates_examined: 0,
            candidates_pruned: 0,
        }
    }

    /// Mean execute wall per execution, if any were recorded.
    pub fn mean_execute_secs(&self) -> Option<f64> {
        (self.executions > 0).then(|| self.execute_secs / self.executions as f64)
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
    /// Executions recorded in total — synchronous `execute` calls plus
    /// asynchronous job bodies.
    pub executions: u64,
    /// Learned object-based step discount (actual / estimated forward
    /// steps under bound decorators), once observed.
    pub ob_discount: Option<f64>,
    /// Learned query-based step discount, once observed.
    pub qb_discount: Option<f64>,
    /// Observed object-based matrix-entry throughput (entries per second
    /// of execute wall), once a forward execution touched entries.
    pub ob_entry_throughput: Option<f64>,
    /// Observed query-based matrix-entry throughput, ditto.
    pub qb_entry_throughput: Option<f64>,
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
        writeln!(
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
        write!(
            f,
            "calibration: ob discount {}, qb discount {}, ob {} entries/s, qb {} entries/s",
            self.ob_discount.map_or("—".into(), |d| format!("{d:.3}")),
            self.qb_discount.map_or("—".into(), |d| format!("{d:.3}")),
            self.ob_entry_throughput.map_or("—".into(), |r| format!("{r:.0}")),
            self.qb_entry_throughput.map_or("—".into(), |r| format!("{r:.0}")),
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
                 {} entries invalidated, steps {} incr / {} full",
                s.subscription_id,
                s.notifications,
                s.reevaluations,
                s.full_recomputes,
                s.sheds,
                s.suffix_invalidations,
                s.incremental_steps,
                s.recompute_steps,
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Inner {
    submitted: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    dropped: u64,
    deadline_expired: u64,
    panicked: u64,
    in_flight: u64,
    executions: u64,
    ob_discount: Ewma,
    qb_discount: Ewma,
    ob_entry_rate: Ewma,
    qb_entry_rate: Ewma,
    plans: Vec<PlanMetrics>,
    streams: Vec<StreamMetrics>,
}

impl Inner {
    fn plan_entry(&mut self, predicate: Predicate, strategy: Strategy) -> &mut PlanMetrics {
        if let Some(pos) =
            self.plans.iter().position(|p| p.predicate == predicate && p.strategy == strategy)
        {
            return &mut self.plans[pos];
        }
        self.plans.push(PlanMetrics::new(predicate, strategy));
        // lint: allow(panicking-call-in-lib) — `last_mut` on the vector the
        // previous line pushed to; it cannot be empty here.
        self.plans.last_mut().expect("just pushed")
    }

    fn stream_entry(&mut self, subscription_id: u64) -> &mut StreamMetrics {
        if let Some(pos) = self.streams.iter().position(|s| s.subscription_id == subscription_id) {
            return &mut self.streams[pos];
        }
        self.streams.push(StreamMetrics::new(subscription_id));
        // lint: allow(panicking-call-in-lib) — `last_mut` on the vector the
        // previous line pushed to; it cannot be empty here.
        self.streams.last_mut().expect("just pushed")
    }
}

/// The per-processor serving registry. Interior-mutable and shared (via
/// `Arc`) with every asynchronous job; all locking recovers from poison,
/// so a panicking job can never wedge the accounting.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// A fresh, zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Tallies a rejected submission. `submitted` is bumped under the
    /// same lock acquisition as the rejection so the
    /// `submitted == accepted + rejected` identity holds in **every**
    /// snapshot, including one taken concurrently with a submit.
    pub(crate) fn record_rejected(&self, predicate: Predicate, requested: Strategy) {
        let mut inner = self.lock();
        inner.submitted += 1;
        inner.rejected += 1;
        inner.plan_entry(predicate, requested).rejections += 1;
    }

    /// Tallies an admitted submission (see [`Metrics::record_rejected`]
    /// for why `submitted` is bumped here rather than separately).
    pub(crate) fn record_accepted(&self) {
        let mut inner = self.lock();
        inner.submitted += 1;
        inner.accepted += 1;
        inner.in_flight += 1;
    }

    pub(crate) fn record_async_finished(&self, outcome: AsyncOutcome) {
        let mut inner = self.lock();
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
        let mut inner = self.lock();
        inner.executions += 1;
        if record.ok && record.bounded && record.estimated_steps > 0.0 {
            let actual = match record.strategy {
                Strategy::ObjectBased => Some(record.delta.transitions),
                Strategy::QueryBased => Some(record.delta.backward_steps),
                _ => None,
            };
            if let Some(actual) = actual {
                let ratio = (actual as f64 / record.estimated_steps).clamp(MIN_STEP_RATIO, 1.0);
                match record.strategy {
                    Strategy::ObjectBased => inner.ob_discount.observe(ratio),
                    Strategy::QueryBased => inner.qb_discount.observe(ratio),
                    // lint: allow(panicking-call-in-lib) — the surrounding
                    // `if` admits only the two exact strategies matched above.
                    _ => unreachable!("filtered above"),
                }
            }
        }
        if record.ok && record.delta.entries_touched > 0 {
            let secs = record.execute_time.as_secs_f64();
            if secs > 0.0 {
                let rate = record.delta.entries_touched as f64 / secs;
                match record.strategy {
                    Strategy::ObjectBased => inner.ob_entry_rate.observe(rate),
                    Strategy::QueryBased => inner.qb_entry_rate.observe(rate),
                    _ => {}
                }
            }
        }
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
        let mut inner = self.lock();
        let entry = inner.stream_entry(subscription_id);
        entry.full_recomputes += 1;
        entry.recompute_steps += steps;
    }

    /// Tallies a committed incremental refresh: one arrival invalidated
    /// exactly one maintained entry and re-evaluated it.
    pub(crate) fn record_stream_refresh(&self, subscription_id: u64, steps: u64) {
        let mut inner = self.lock();
        let entry = inner.stream_entry(subscription_id);
        entry.notifications += 1;
        entry.reevaluations += 1;
        entry.suffix_invalidations += 1;
        entry.incremental_steps += steps;
    }

    /// Tallies a full resynchronization of a stale (or errored, or
    /// Monte-Carlo) subscription.
    pub(crate) fn record_stream_resync(&self, subscription_id: u64, steps: u64) {
        let mut inner = self.lock();
        let entry = inner.stream_entry(subscription_id);
        entry.notifications += 1;
        entry.full_recomputes += 1;
        entry.recompute_steps += steps;
    }

    /// Tallies a refresh shed at the admission bound or deadline.
    pub(crate) fn record_stream_shed(&self, subscription_id: u64) {
        self.lock().stream_entry(subscription_id).sheds += 1;
    }

    /// The learned `(object-based, query-based)` matrix-entry throughputs
    /// (entries per second of execute wall); `None` until the respective
    /// strategy has executed a query that touched entries. Wall-clock
    /// derived — the planner consults them only under
    /// [`crate::engine::EngineConfig::calibrate_planner`].
    pub fn entry_throughputs(&self) -> (Option<f64>, Option<f64>) {
        let inner = self.lock();
        (inner.ob_entry_rate.get(), inner.qb_entry_rate.get())
    }

    /// The learned `(object-based, query-based)` step discounts the
    /// planner substitutes for its flat `×0.5` prior when calibration is
    /// enabled; `None` until the respective strategy has served a
    /// bound-decorated query.
    pub fn discounts(&self) -> (Option<f64>, Option<f64>) {
        let inner = self.lock();
        (inner.ob_discount.get(), inner.qb_discount.get())
    }

    /// An owned, consistent snapshot of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            submitted: inner.submitted,
            accepted: inner.accepted,
            rejected: inner.rejected,
            completed: inner.completed,
            failed: inner.failed,
            cancelled: inner.cancelled,
            dropped: inner.dropped,
            deadline_expired: inner.deadline_expired,
            panicked: inner.panicked,
            in_flight: inner.in_flight,
            executions: inner.executions,
            ob_discount: inner.ob_discount.get(),
            qb_discount: inner.qb_discount.get(),
            ob_entry_throughput: inner.ob_entry_rate.get(),
            qb_entry_throughput: inner.qb_entry_rate.get(),
            plans: inner.plans.clone(),
            streams: inner.streams.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        strategy: Strategy,
        bounded: bool,
        est: f64,
        actual: u64,
        ok: bool,
    ) -> ExecutionRecord {
        ExecutionRecord {
            predicate: Predicate::Exists,
            strategy,
            bounded,
            estimated_steps: est,
            plan_time: Duration::from_micros(5),
            execute_time: Duration::from_micros(50),
            queue_wait: Some(Duration::from_micros(10)),
            delta: EvalStats {
                transitions: actual,
                backward_steps: actual,
                cache_hits: 1,
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
        m.record_execution(&record(Strategy::ObjectBased, false, 100.0, 40, true));
        m.record_execution(&record(Strategy::ObjectBased, false, 100.0, 40, false));
        m.record_execution(&record(Strategy::QueryBased, false, 100.0, 70, true));
        let s = m.snapshot();
        assert_eq!(s.executions, 3);
        let ob = s.plan(Predicate::Exists, Strategy::ObjectBased).unwrap();
        assert_eq!(ob.executions, 2);
        assert_eq!(ob.failures, 1);
        assert_eq!(ob.cache_hits, 2);
        assert_eq!(ob.candidates_examined, 16);
        assert_eq!(ob.candidates_pruned, 4);
        assert!(s.to_string().contains("prefilter 16/20 examined"));
        assert!(ob.queue_wait_secs > 0.0);
        assert!(ob.mean_execute_secs().unwrap() > 0.0);
        // Unbounded executions never touch the discount EWMAs.
        assert_eq!(s.ob_discount, None);
        assert_eq!(s.qb_discount, None);
    }

    #[test]
    fn discount_ewma_learns_from_bounded_runs_only() {
        let m = Metrics::new();
        m.record_execution(&record(Strategy::ObjectBased, true, 100.0, 40, true));
        let (ob, qb) = m.discounts();
        assert!((ob.unwrap() - 0.4).abs() < 1e-12, "first sample seeds the EWMA");
        assert_eq!(qb, None);
        m.record_execution(&record(Strategy::ObjectBased, true, 100.0, 80, true));
        let (ob, _) = m.discounts();
        assert!((ob.unwrap() - (0.3 * 0.8 + 0.7 * 0.4)).abs() < 1e-12);
        // Failures and zero estimates are ignored; ratios are clamped.
        m.record_execution(&record(Strategy::QueryBased, true, 0.0, 10, true));
        m.record_execution(&record(Strategy::QueryBased, true, 100.0, 10, false));
        assert_eq!(m.discounts().1, None);
        m.record_execution(&record(Strategy::QueryBased, true, 10.0, 500, true));
        assert!((m.discounts().1.unwrap() - 1.0).abs() < 1e-12, "ratio clamps at 1");
        m.record_execution(&record(Strategy::MonteCarlo, true, 10.0, 5, true));
        assert!((m.discounts().1.unwrap() - 1.0).abs() < 1e-12, "MC never calibrates");
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
        assert_eq!(three.suffix_invalidations, 2);
        assert_eq!(three.sheds, 1);
        assert_eq!(three.incremental_steps, 10);
        assert_eq!(three.recompute_steps, 190);
        assert_eq!(s.stream(7).unwrap().recompute_steps, 50);
        assert_eq!(s.stream(42), None);
        assert!(s.to_string().contains("stream #3: 3 notified"));
    }

    #[test]
    fn entry_throughput_ewma_tracks_entries_per_second() {
        let m = Metrics::new();
        assert_eq!(m.entry_throughputs(), (None, None));
        // 1000 entries in 1 ms → 1e6 entries/s seeds the OB EWMA.
        let mut r = record(Strategy::ObjectBased, false, 0.0, 40, true);
        r.delta.entries_touched = 1_000;
        r.execute_time = Duration::from_millis(1);
        m.record_execution(&r);
        let (ob, qb) = m.entry_throughputs();
        assert!((ob.unwrap() - 1.0e6).abs() < 1.0);
        assert_eq!(qb, None);
        // Failed executions and zero-entry executions never contribute.
        let mut bad = record(Strategy::QueryBased, false, 0.0, 40, false);
        bad.delta.entries_touched = 1_000;
        m.record_execution(&bad);
        m.record_execution(&record(Strategy::QueryBased, false, 0.0, 40, true));
        assert_eq!(m.entry_throughputs().1, None);
        // The per-plan totals accumulate the raw entry counts.
        let s = m.snapshot();
        assert_eq!(s.ob_entry_throughput, m.entry_throughputs().0);
        let ob_plan = s.plan(Predicate::Exists, Strategy::ObjectBased).unwrap();
        assert_eq!(ob_plan.entries_touched, 1_000);
        assert!(s.to_string().contains("entries/s"));
    }
}
