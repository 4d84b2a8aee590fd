//! Standing-query maintenance: `watch`, `ingest`, `insert`, and
//! [`QueryProcessor::notify`] — the one serialized phase in which anything
//! is committed into a subscription, which is what keeps a maintained
//! answer the answer of the *current* database.

#![allow(
    clippy::disallowed_methods,
    reason = "an arrival's time stamps the deadline of the refreshes it triggers"
)]

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::database::{IngestOutcome, TrajectoryDatabase};
use crate::engine::cache::FieldCache;
use crate::engine::plan::{self, ExecContext};
use crate::engine::processor::{serve, QueryProcessor};
use crate::engine::{forall, query_based};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::observation::Observation;
use crate::query::{Decorator, Predicate, QuerySpec, Strategy};
use crate::serving::AsyncOutcome;
use crate::stats::EvalStats;
use crate::streaming::{self, RawAnswer, Subscription, SubscriptionState};

/// Why subscriptions are being evaluated under `notify_lock`.
enum Cause {
    /// `watch` seeds and registers `state`; `warm_steps` is what
    /// pre-sweeping its backward fields cost.
    Watch { state: Arc<SubscriptionState>, warm_steps: u64 },
    /// An applied arrival for `object_id`, in the system since `arrived`.
    Arrival { object_id: u64, arrived: Instant },
}

/// The one subscription evaluation: the probabilities probe of `spec` —
/// whole, or narrowed to one object — served like any other query and
/// turned into maintained state.
fn evaluate(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    object: Option<u64>,
    stats: &mut EvalStats,
) -> Result<RawAnswer> {
    serve(ctx, &streaming::probe_spec(spec, object), stats, None).map(RawAnswer::from_answer)
}

impl QueryProcessor {
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
    ///
    /// The seed evaluation and the registration happen under the same lock
    /// as every refresh, so an arrival applied while `watch` runs is never
    /// lost: it either precedes the seed's snapshot or refreshes the
    /// registered subscription.
    pub fn watch(&self, spec: &QuerySpec) -> Result<Subscription> {
        // Pinning and warming commit nothing into a subscription, so they
        // run before the serialized phase, against a snapshot of their own.
        let snapshot = self.snapshot();
        let pinned_strategy = match spec.strategy() {
            Strategy::Auto => plan::prepare(&self.core.context(&snapshot), spec, true)
                .map_or(Strategy::QueryBased, |(prepared, _)| prepared.strategy),
            explicit => explicit,
        };
        let pinned_strategy = match (spec.predicate(), spec.decorator(), pinned_strategy) {
            (Predicate::Exists, Decorator::TopK(_), Strategy::ObjectBased) => Strategy::QueryBased,
            (_, _, resolved) => resolved,
        };
        let pinned = streaming::pin_strategy(spec, pinned_strategy);
        let mut warm = EvalStats::new();
        if pinned.strategy() == Strategy::QueryBased {
            self.warm_backward_fields(&snapshot, &pinned, &mut warm);
        }
        let id = self.watch_seq.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(SubscriptionState::unseeded(id, pinned));
        self.notify(Cause::Watch { state: Arc::clone(&state), warm_steps: warm.total_steps() });
        Ok(Subscription::from_state(state))
    }

    /// Applies a latest-fix observation to the processor's database (see
    /// [`TrajectoryDatabase::ingest`]: a fix at or after the latest stored
    /// observation supersedes the object's observations, an older one is
    /// ignored as stale) and,
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
        let arrived = Instant::now();
        let outcome = {
            let mut db = self.db.write();
            db.ingest(object_id, observation)?
        };
        if outcome == IngestOutcome::Applied {
            self.notify(Cause::Arrival { object_id, arrived });
        }
        Ok(outcome)
    }

    /// Inserts a new object into the processor's database and refreshes
    /// every subscription whose scope contains it (whole-database
    /// subscriptions list the newcomer exactly where a full re-evaluation
    /// would: at the end, in database order).
    pub fn insert(&self, object: UncertainObject) -> Result<()> {
        let arrived = Instant::now();
        let object_id = object.id();
        {
            let mut db = self.db.write();
            db.insert(object)?;
        }
        self.notify(Cause::Arrival { object_id, arrived });
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
            let _ = FieldCache::get_or_compute_shared_concurrent(
                &self.core.cache,
                model,
                chain,
                window,
                rule,
                &anchors,
                &self.core.config,
                stats,
            );
        }
    }

    /// The serialized phase every commit into a subscription happens in:
    /// takes `notify_lock`, snapshots the database once, and evaluates the
    /// subscriptions `cause` concerns against that snapshot — the one being
    /// registered, or (pruning cancelled entries) every registered one. A
    /// registration enters the registry before the lock is released, so no
    /// arrival can fall between its seed snapshot and its first refresh.
    fn notify(&self, cause: Cause) {
        let _serialized = self.notify_lock.lock();
        let subs: Vec<Arc<SubscriptionState>> = match &cause {
            Cause::Watch { state, .. } => vec![Arc::clone(state)],
            Cause::Arrival { .. } => {
                let mut registry = self.subscriptions.lock();
                registry.retain(|s| !s.is_cancelled());
                registry.clone()
            }
        };
        if subs.is_empty() {
            return;
        }
        let snapshot = self.snapshot();
        let ctx = self.core.context(&snapshot);
        for sub in &subs {
            self.commit(&ctx, sub, &cause);
        }
        if let Cause::Watch { state, .. } = cause {
            self.subscriptions.lock().push(state);
        }
    }

    /// Evaluates `sub` against `ctx`'s snapshot and commits the result.
    ///
    /// A registration's seed is a full evaluation outside admission. An
    /// arrival's refresh is a first-class serving job: it reserves an
    /// admission slot (or is shed with [`QueryError::QueueFull`]), honours
    /// the configured deadline against the arrival time, and tallies its
    /// outcome in the async lifecycle counters — so streaming load is
    /// visible to (and bounded by) the same backpressure as submitted
    /// queries.
    fn commit(&self, ctx: &ExecContext<'_>, sub: &SubscriptionState, cause: &Cause) {
        let mut stats = EvalStats::new();
        let (object_id, arrived) = match *cause {
            Cause::Watch { warm_steps, .. } => {
                let seed = evaluate(ctx, &sub.spec, None, &mut stats);
                sub.inner.lock().resync(seed);
                ctx.metrics.record_stream_watch(sub.id, warm_steps + stats.total_steps());
                return;
            }
            Cause::Arrival { object_id, arrived } => (object_id, arrived),
        };
        // Out of scope (a spec's ids are sorted): the maintained answer
        // provably cannot change, so nothing is invalidated or re-evaluated.
        let out_of_scope = |ids: &[u64]| ids.binary_search(&object_id).is_err();
        if sub.is_cancelled() || sub.spec.objects().is_some_and(out_of_scope) {
            return;
        }
        let shed = |error: QueryError| {
            // The subscription is stale until its next admitted refresh;
            // the shed error is kept for inspection.
            ctx.metrics.record_stream_shed(sub.id);
            let mut inner = sub.inner.lock();
            inner.stale = true;
            inner.last_shed = Some(error);
        };
        let mut slot = match self.core.gate.admit(&sub.spec, arrived) {
            Ok(slot) => slot,
            Err(full) => return shed(full),
        };
        if slot.expired() {
            slot.release(AsyncOutcome::DeadlineExpired);
            return shed(QueryError::DeadlineExceeded);
        }
        // Decide the refresh shape under a short guard, then evaluate with
        // the guard released: plan execution fans out to shard threads,
        // and a guard held across it would order `SubscriptionState.inner`
        // above the whole execution stack. `notify_lock` serializes
        // commits, so nothing else writes this subscription between the
        // probe below and the commit relock.
        //
        // A stale or errored subscription resynchronizes with a full
        // re-evaluation. From here to the commit the database is ahead of
        // the maintained state, so the subscription *is* stale — and stays
        // so if the evaluation unwinds.
        let needs_full = {
            let mut inner = sub.inner.lock();
            std::mem::replace(&mut inner.stale, true) || inner.raw.is_err()
        };
        // Suffix-scoped invalidation: exactly one maintained entry — the
        // arrived object's — is invalidated and recomputed; the
        // backward-field caches stay valid (their keys are
        // observation-independent), so the refresh reuses them.
        let entry = if needs_full {
            None
        } else {
            evaluate(ctx, &sub.spec, Some(object_id), &mut stats).ok()
        };
        // A whole-database answer lists every object of the snapshot. One
        // the splice leaves shorter has missed an insert that is in the
        // snapshot but not yet notified (concurrent inserts can notify out
        // of order), and resynchronizes below to keep database order.
        let spliced = entry.is_some_and(|entry| {
            let mut inner = sub.inner.lock();
            let Ok(raw) = inner.raw.as_mut() else { return false };
            raw.splice(entry);
            if sub.spec.objects().is_none() && raw.len() != ctx.db.len() {
                return false;
            }
            inner.stale = false;
            inner.notifications += 1;
            true
        });
        let outcome = if spliced {
            AsyncOutcome::Completed
        } else {
            // Resynchronizing — or the narrowed probe failed validation:
            // the full evaluation stores exactly the payload a from-scratch
            // execution reports (e.g. which object a window-validation
            // error names).
            let whole = evaluate(ctx, &sub.spec, None, &mut stats);
            let outcome = AsyncOutcome::of(&whole);
            let mut inner = sub.inner.lock();
            inner.resync(whole);
            inner.notifications += 1;
            outcome
        };
        if needs_full {
            ctx.metrics.record_stream_resync(sub.id, stats.total_steps());
        } else {
            ctx.metrics.record_stream_refresh(sub.id, stats.total_steps());
        }
        slot.release(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryWindow};
    use ust_space::TimeSet;

    /// Two inserts applied to the database notify in reverse order, as
    /// concurrent inserts may: the first refresh runs on a snapshot that
    /// holds both, and the subscription still lists them in database
    /// order, as a fresh execution does.
    #[test]
    fn inserts_notified_out_of_order_keep_database_order() {
        let chain = crate::testkit::paper_chain();
        let object = |id, state| {
            UncertainObject::with_single_observation(id, Observation::exact(0, 3, state).unwrap())
        };
        let mut db = TrajectoryDatabase::new(chain);
        db.insert(object(1, 0)).unwrap();
        let processor = QueryProcessor::new(&db);
        let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
        let sub = processor.watch(&Query::exists().window(window).build().unwrap()).unwrap();
        {
            let mut db = processor.db.write();
            db.insert(object(2, 1)).unwrap();
            db.insert(object(3, 2)).unwrap();
        }
        for object_id in [3, 2] {
            processor.notify(Cause::Arrival { object_id, arrived: Instant::now() });
        }
        let answer = sub.answer().unwrap();
        let ids: Vec<u64> = answer.probabilities().unwrap().iter().map(|p| p.object_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(Ok(answer), processor.execute(sub.spec()));
    }
}
