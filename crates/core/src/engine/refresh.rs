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
use crate::engine::object_based::{check_anchor_time, check_window};
use crate::engine::plan::{self, ExecContext};
use crate::engine::processor::{serve, QueryProcessor};
use crate::engine::query_based::{self, BackwardField};
use crate::engine::shadow;
use crate::engine::{forall, ktimes};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::observation::Observation;
use crate::query::{Decorator, Predicate, QuerySpec, Strategy};
use crate::serving::{AsyncOutcome, Metrics};
use crate::stats::EvalStats;
use crate::streaming::{self, RawAnswer, Subscription, SubscriptionState};
use crate::sync::Mutex;

/// Why subscriptions are being evaluated under `notify_lock`.
enum Cause {
    /// `watch` seeds and registers `state`; `warm_steps` is what
    /// pre-sweeping its backward fields cost.
    Watch { state: Arc<SubscriptionState>, warm_steps: u64 },
    /// An applied arrival for `object_id`, in the system since `arrived`.
    Arrival { object_id: u64, arrived: Instant },
}

/// The served subscription evaluation: the probabilities probe of `spec` —
/// whole, or narrowed to one object for an object-based refresh — served
/// like any other query and turned into maintained state.
fn evaluate(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    object: Option<u64>,
    stats: &mut EvalStats,
) -> Result<RawAnswer> {
    serve(ctx, &streaming::probe_spec(spec, object), stats, None).map(RawAnswer::from_answer)
}

/// The backward field of `spec`'s rule over its window for `model`, with a
/// snapshot at every anchor time in `[0, t_end]`, from the shared cache or
/// swept into it. `None` for the full-space ∀ window no strategy answers,
/// for a model the store does not have, and for a failed sweep: the
/// evaluation path reports the error with its proper payload.
fn dense_field(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    model: usize,
    stats: &mut EvalStats,
) -> Option<Arc<BackwardField>> {
    let window = spec.window();
    let rule = plan::field_rule(spec.predicate());
    if rule == query_based::FieldRule::ForAll && forall::reject_full_space(window).is_err() {
        return None;
    }
    let anchors: Vec<u32> = (0..=window.t_end()).collect();
    let chain = ctx.db.models().get(model)?;
    FieldCache::get_or_compute_shared_concurrent(
        ctx.cache, model, chain, window, rule, &anchors, ctx.config, stats,
    )
    .ok()
}

/// The field `sub` holds for `model`, fetched once ([`dense_field`]) and
/// then kept when it holds none: the model had no object in scope at
/// `watch`. The fetch runs outside `SubscriptionState.inner`, whose rank
/// is a leaf like the cache's.
fn held_field(
    ctx: &ExecContext<'_>,
    sub: &SubscriptionState,
    model: usize,
    stats: &mut EvalStats,
) -> Option<Arc<BackwardField>> {
    if let Some(field) = sub.inner.lock().fields.get(model).cloned().flatten() {
        return Some(field);
    }
    let field = dense_field(ctx, &sub.spec, model, stats)?;
    let mut inner = sub.inner.lock();
    if inner.fields.len() <= model {
        inner.fields.resize(model + 1, None);
    }
    inner.fields[model] = Some(Arc::clone(&field));
    Some(field)
}

/// A query-based subscription's refresh for the arrival's `holders`
/// (ascending store indices), computed as the fan-out of a served probe
/// would: each holder checked by the rules `query_based::group_on`
/// validates with, then read from the field the subscription holds for
/// its model at its anchor time — one sparse dot product, and no plan,
/// index probe or cache lookup. No index test is needed: a one-object ∃
/// probe only ever prunes an object whose `P∃` is an exact `0.0`, which
/// the dot gives too. `None` sends the refresh to a full evaluation — a
/// holder fails validation (the full evaluation reports the error with
/// its batch payload), or no field can be held for its model.
fn score(
    ctx: &ExecContext<'_>,
    sub: &SubscriptionState,
    holders: &[usize],
    stats: &mut EvalStats,
) -> Option<RawAnswer> {
    let window = sub.spec.window();
    let mut rows = match sub.spec.predicate() {
        Predicate::KTimes(_) => RawAnswer::Dists(Vec::with_capacity(holders.len())),
        Predicate::Exists | Predicate::ForAll => {
            RawAnswer::Probs(Vec::with_capacity(holders.len()))
        }
    };
    for &idx in holders {
        let object = ctx.db.object(idx)?;
        let (model, t) = (object.model(), object.anchor().time());
        check_window(ctx.db.models().get(model)?, window).ok()?;
        check_anchor_time(t, window).ok()?;
        let field = held_field(ctx, sub, model, stats)?;
        let anchored = field.anchored_at(t, window)?;
        match &mut rows {
            RawAnswer::Probs(v) => v.push(query_based::probability_row(&anchored, object)?),
            RawAnswer::Dists(v) => v.push(ktimes::distribution_row(&anchored, object)?),
        }
    }
    (!holders.is_empty()).then_some(rows)
}

/// Whether `db` holds no write since `version` besides the arrival's
/// `holders` and objects outside `spec`'s scope: a state that equalled a
/// full evaluation at `version` equals one on `db` once the holders'
/// entries are refreshed.
fn only_the_arrival_since(
    db: &TrajectoryDatabase,
    version: u64,
    holders: &[usize],
    spec: &QuerySpec,
) -> bool {
    let out_of_scope = |idx: usize| {
        let id = db.object(idx).map(UncertainObject::id);
        spec.objects().is_some_and(|ids| id.is_some_and(|id| ids.binary_search(&id).is_err()))
    };
    db.writes_since(version)
        .is_some_and(|mut writes| writes.all(|w| holders.contains(&w.idx) || out_of_scope(w.idx)))
}

/// The commits [`shadow`] samples.
static COMMITS: shadow::Site = shadow::Site::new();

/// Debug builds' shadow of a commit into `sub`: while its maintained state
/// is known to reflect `ctx`'s snapshot in full
/// ([`streaming::SubscriptionInner::in_step_with`]), a sampled commit
/// ([`shadow::check`]) re-evaluates the subscription's probe on that
/// snapshot — with a private field cache and metrics registry, so nothing
/// a caller reads moves — and asserts it equals the maintained state to
/// the bit, errors included. Runs outside `SubscriptionState.inner`.
fn shadow(ctx: &ExecContext<'_>, sub: &SubscriptionState) {
    if sub.inner.lock().in_step_with != Some(ctx.db.version()) {
        return;
    }
    shadow::check(&COMMITS, |n| {
        let cache = Mutex::new(FieldCache::new(ctx.config.effective_cache_capacity()));
        let metrics = Metrics::new();
        let private =
            ExecContext { db: ctx.db, config: ctx.config, cache: &cache, metrics: &metrics };
        let fresh = evaluate(&private, &sub.spec, None, &mut EvalStats::new());
        let committed = sub.inner.lock().raw.clone();
        debug_assert!(
            match (&committed, &fresh) {
                (Ok(kept), Ok(fresh)) => kept.same_bits(fresh),
                (kept, fresh) => kept.as_ref().err() == fresh.as_ref().err(),
            },
            "subscription {}: the committed state equals a fresh evaluation of the committed \
             snapshot (commit {n})",
            sub.id
        );
    });
}

impl QueryProcessor {
    /// Registers a standing query: evaluates `spec` once against the
    /// current database and returns a [`Subscription`] whose answer is
    /// then maintained incrementally — every applied
    /// [`QueryProcessor::ingest`] / [`QueryProcessor::insert`] refreshes
    /// exactly the affected object and writes the result into its slot of
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
    /// A query-based subscription sweeps its backward fields densely over
    /// every anchor time in `[0, t_end]`, one per model in scope, and
    /// **holds** them: a refresh validates the arrived object and scores it
    /// against the held field of its model — one sparse dot product, zero
    /// backward steps, no planning (the benchmark's `stream_mixed` workload
    /// reports the steps as `streaming.incremental_steps`). A model with no
    /// object in scope at registration has its field fetched on its first
    /// arrival. The held fields are the cache's own `Arc`s while it keeps
    /// them and outlive their entries after, so a processor holds at most
    /// subscriptions × models fields beyond its cache. An object-based
    /// subscription refreshes through the planner: a probe narrowed to the
    /// object, served like any query (prefilter, batching, caches and
    /// metrics all apply).
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
                .map_or(Strategy::QueryBased, |planned| planned.prepared.strategy),
            explicit => explicit,
        };
        let pinned_strategy = match (spec.predicate(), spec.decorator(), pinned_strategy) {
            (Predicate::Exists, Decorator::TopK(_), Strategy::ObjectBased) => Strategy::QueryBased,
            (_, _, resolved) => resolved,
        };
        let pinned = streaming::pin_strategy(spec, pinned_strategy);
        let mut warm = EvalStats::new();
        let fields = match pinned.strategy() {
            Strategy::QueryBased => self.warm_backward_fields(&snapshot, &pinned, &mut warm),
            _ => Vec::new(),
        };
        let id = self.watch_seq.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(SubscriptionState::unseeded(id, pinned, fields));
        self.notify(Cause::Watch { state: Arc::clone(&state), warm_steps: warm.total_steps() });
        Ok(Subscription::from_state(state))
    }

    /// Applies a latest-fix observation to the processor's database (see
    /// [`TrajectoryDatabase::ingest`]: a fix at or after the latest stored
    /// observation supersedes the object's observations, an older one is
    /// ignored as stale) and,
    /// when applied, refreshes every registered subscription whose scope
    /// contains `object_id` — synchronously, under the same admission
    /// bound and deadline as [`QueryProcessor::submit`]ted queries. A
    /// query-based subscription scores the object against the backward
    /// field it holds; an object-based one serves a probe narrowed to it
    /// (see [`QueryProcessor::watch`]).
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

    /// Sweeps the backward fields a query-based subscription holds, one
    /// per model it can touch ([`dense_field`]; `None` for the others),
    /// into the shared cache: densely over every anchor time in
    /// `[0, t_end]`, so a refresh finds a snapshot at whatever anchor time
    /// an arrival lands on without any backward work. Each predicate warms
    /// the field of its own rule over the spec's window.
    fn warm_backward_fields(
        &self,
        db: &TrajectoryDatabase,
        spec: &QuerySpec,
        stats: &mut EvalStats,
    ) -> Vec<Option<Arc<BackwardField>>> {
        let models: std::collections::BTreeSet<usize> = match spec.objects() {
            Some(ids) => ids
                .iter()
                .filter_map(|&id| db.index_of(id))
                .filter_map(|idx| db.object(idx))
                .map(|o| o.model())
                .collect(),
            None => db.objects().iter().map(|o| o.model()).collect(),
        };
        let ctx = self.core.context(db);
        (0..db.models().len())
            .map(|model| match models.contains(&model) {
                true => dense_field(&ctx, spec, model, stats),
                false => None,
            })
            .collect()
    }

    /// The serialized phase every commit into a subscription happens in:
    /// takes `notify_lock`, snapshots the database once, and evaluates the
    /// subscriptions `cause` concerns against that snapshot — the one being
    /// registered, or (pruning cancelled entries) every registered one,
    /// for which the arrived id's holders are resolved once. A
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
        let holders = match cause {
            Cause::Arrival { object_id, .. } => {
                plan::holders(&snapshot, &[object_id]).unwrap_or_default()
            }
            Cause::Watch { .. } => Vec::new(),
        };
        let ctx = self.core.context(&snapshot);
        for sub in &subs {
            self.commit(&ctx, sub, &cause, &holders);
            if cfg!(debug_assertions) && matches!(cause, Cause::Arrival { .. }) {
                shadow(&ctx, sub);
            }
        }
        if let Cause::Watch { state, .. } = cause {
            self.subscriptions.lock().push(state);
        }
    }

    /// Evaluates `sub` against `ctx`'s snapshot and commits the result;
    /// `holders` are the store indices of the arrived id there.
    ///
    /// A registration's seed is a full evaluation outside admission. An
    /// arrival's refresh is a first-class serving job: it reserves an
    /// admission slot (or is shed with [`QueryError::QueueFull`]), honours
    /// the configured deadline against the arrival time, and tallies its
    /// outcome in the async lifecycle counters — so streaming load is
    /// visible to (and bounded by) the same backpressure as submitted
    /// queries. A query-based refresh is scored against the subscription's
    /// held fields ([`score`]) and is not a served execution: it adds
    /// nothing to the per-plan execution counters.
    fn commit(
        &self,
        ctx: &ExecContext<'_>,
        sub: &SubscriptionState,
        cause: &Cause,
        holders: &[usize],
    ) {
        let mut stats = EvalStats::new();
        let (object_id, arrived) = match *cause {
            Cause::Watch { warm_steps, .. } => {
                let seed = evaluate(ctx, &sub.spec, None, &mut stats);
                sub.inner.lock().resync(seed, ctx.db.version());
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
        // Suffix-scoped invalidation: exactly the arrived object's
        // maintained entries are recomputed; the backward fields stay valid
        // (their keys are observation-independent), so the refresh reuses
        // them.
        let entry = match (needs_full, sub.spec.strategy()) {
            (true, _) => None,
            (false, Strategy::QueryBased) => score(ctx, sub, holders, &mut stats),
            (false, _) => evaluate(ctx, &sub.spec, Some(object_id), &mut stats).ok(),
        };
        // Every commit leaves a whole-database answer in the snapshot's
        // database order, so a lone holder's store index is its slot.
        let direct = match holders {
            [idx] if sub.spec.objects().is_none() => Some(*idx),
            _ => None,
        };
        // A whole-database answer lists every object of the snapshot. One
        // the splice leaves shorter has missed an insert that is in the
        // snapshot but not yet notified (concurrent inserts can notify out
        // of order), and resynchronizes below to keep database order.
        let spliced = entry.is_some_and(|entry| {
            let mut inner = sub.inner.lock();
            let Ok(raw) = inner.raw.as_mut() else { return false };
            raw.splice(entry, direct);
            if sub.spec.objects().is_none() && raw.len() != ctx.db.len() {
                return false;
            }
            inner.stale = false;
            inner.notifications += 1;
            if cfg!(debug_assertions) {
                inner.in_step_with = (inner.in_step_with)
                    .filter(|&v| only_the_arrival_since(ctx.db, v, holders, &sub.spec))
                    .map(|_| ctx.db.version());
            }
            true
        });
        let outcome = if spliced {
            AsyncOutcome::Completed
        } else {
            // Resynchronizing — or the refresh failed validation: the full
            // evaluation stores exactly the payload a from-scratch
            // execution reports (e.g. which object a window-validation
            // error names).
            let whole = evaluate(ctx, &sub.spec, None, &mut stats);
            let outcome = AsyncOutcome::of(&whole);
            let mut inner = sub.inner.lock();
            inner.resync(whole, ctx.db.version());
            inner.notifications += 1;
            outcome
        };
        // Tallied by what ran: a refresh that fell back to the full
        // evaluation resynchronized, like a stale one.
        if spliced {
            ctx.metrics.record_stream_refresh(sub.id, stats.total_steps());
        } else {
            ctx.metrics.record_stream_resync(sub.id, stats.total_steps());
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
