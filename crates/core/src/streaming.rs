//! Standing queries over streams of observations.
//!
//! The paper's motivating deployment is *monitoring*: the Ice Patrol keeps
//! a fixed danger region under watch while sightings trickle in. The
//! query-based machinery fits this perfectly — the backward field of a
//! window depends only on the chain and the window, so it is computed
//! **once** and then every incoming observation is scored with a single
//! sparse dot product, regardless of how many fixes arrive.
//!
//! The mechanism lives on [`crate::engine::QueryProcessor`]: `watch`
//! registers a full [`QuerySpec`] as a [`Subscription`] (pre-sweeping its
//! backward fields over every anchor time in `[0, t_end]`), `ingest`
//! applies latest-fix observations to the processor's database (each new
//! fix supersedes the previous one, the standard dashboard behaviour; full
//! Bayesian fusion of *all* fixes is [`crate::multi_obs`]), and every
//! applied arrival re-evaluates exactly the affected object of each
//! registered subscription through the planner (prefilter, batching, cache
//! and serving metrics all apply). The subscription's decorated answer is
//! *derived* from its maintained per-object state through the same
//! `engine::plan` helpers the batch dispatcher uses, so incremental and
//! from-scratch answers are bit-for-bit identical — the property
//! `tests/streaming.rs` pins. This module holds the subscription handle
//! and that maintained state.

// Iteration order never reaches a maintained answer: no hashed containers.
#![deny(clippy::disallowed_types)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::engine::plan;
use crate::error::{QueryError, Result};
use crate::query::{
    Decorator, ObjectKDistribution, ObjectProbability, Predicate, QueryAnswer, QuerySpec,
};
use crate::sync::{Mutex, SUBSCRIPTION};

/// The undecorated per-object state a [`Subscription`] maintains between
/// arrivals: exact probabilities for ∃/∀ specs, visit-count distributions
/// for PSTkQ specs, in the order a full probe execution lists them
/// (database order for whole-database subscriptions). Decorated answers
/// (threshold ids, top-k rankings) are derived from this state through
/// the same `engine::plan` helpers the batch dispatcher uses, so a
/// derived answer cannot drift from what a from-scratch execution
/// returns.
#[derive(Debug, Clone)]
pub(crate) enum RawAnswer {
    /// ∃/∀ per-object probabilities.
    Probs(Vec<ObjectProbability>),
    /// PSTkQ per-object visit-count distributions.
    Dists(Vec<ObjectKDistribution>),
}

impl RawAnswer {
    /// Converts an executed probabilities-probe answer into maintained
    /// state.
    pub(crate) fn from_answer(answer: QueryAnswer) -> RawAnswer {
        match answer {
            QueryAnswer::Probabilities(v) => RawAnswer::Probs(v),
            QueryAnswer::Distributions(v) => RawAnswer::Dists(v),
            #[expect(
                clippy::unreachable,
                reason = "`probe_spec` pins the decorator to Probabilities (or Distributions \
                          for PSTkQ); no other answer shape can come back from the engine."
            )]
            _ => unreachable!("the probe spec always uses the probabilities decorator"),
        }
    }

    /// The number of maintained entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            RawAnswer::Probs(v) => v.len(),
            RawAnswer::Dists(v) => v.len(),
        }
    }

    /// Splices a single-object probe result into the maintained state. The
    /// probe lists every holder of the object's id (ids may repeat) in
    /// database order, and the maintained list holds its holders in
    /// database order too, so the probe's k-th entry replaces the list's
    /// k-th holder of the id. An entry beyond them — a freshly inserted
    /// holder, last in the database — appends, exactly where a full
    /// re-evaluation lists it. The scan stops with the probe's last entry.
    pub(crate) fn splice(&mut self, update: RawAnswer) {
        fn merge<T>(into: &mut Vec<T>, from: Vec<T>, id: impl Fn(&T) -> u64) {
            let mut next = 0;
            for entry in from {
                match into[next..].iter().position(|e| id(e) == id(&entry)) {
                    Some(offset) => {
                        into[next + offset] = entry;
                        next += offset + 1;
                    }
                    None => {
                        into.push(entry);
                        next = into.len();
                    }
                }
            }
        }
        match (self, update) {
            (RawAnswer::Probs(v), RawAnswer::Probs(u)) => merge(v, u, |e| e.object_id),
            (RawAnswer::Dists(v), RawAnswer::Dists(u)) => merge(v, u, |e| e.object_id),
            #[expect(
                clippy::unreachable,
                reason = "both operands come from the same subscription's probe spec, which \
                          is immutable after install."
            )]
            _ => unreachable!("a subscription's probe shape never changes"),
        }
    }
}

/// The mutable half of a subscription, behind its lock.
#[derive(Debug)]
pub(crate) struct SubscriptionInner {
    /// The maintained undecorated state — or the error the equivalent
    /// batch execution returns. Error states are maintained with the same
    /// fidelity as answers: the equivalence harness compares both.
    pub(crate) raw: Result<RawAnswer>,
    /// Set while the maintained state does not reflect the database: a
    /// re-evaluation was shed (admission bound or deadline), unwound, or
    /// is still running. The next admitted refresh of a stale subscription
    /// resynchronizes with a full re-evaluation.
    pub(crate) stale: bool,
    /// The most recent shed error, for dashboards.
    pub(crate) last_shed: Option<QueryError>,
    /// Committed refreshes since `watch` (incremental or full).
    pub(crate) notifications: u64,
}

/// Shared state behind a [`Subscription`] handle; the registering
/// [`crate::engine::QueryProcessor`] holds the other `Arc`.
#[derive(Debug)]
pub(crate) struct SubscriptionState {
    /// Processor-unique subscription id.
    pub(crate) id: u64,
    /// The pinned spec: [`crate::query::Strategy::Auto`] is resolved once
    /// at `watch` time — re-planning on every arrival could flip the
    /// strategy between two refreshes, and the exact strategies agree
    /// only to rounding, so a pinned strategy is what keeps the
    /// maintained bits stable.
    pub(crate) spec: QuerySpec,
    pub(crate) inner: Mutex<SubscriptionInner, SUBSCRIPTION>,
    /// Set by [`Subscription::cancel`] (and its `Drop`); the processor
    /// skips and prunes cancelled entries.
    pub(crate) cancelled: AtomicBool,
}

impl SubscriptionInner {
    /// Replaces the maintained state with a full evaluation's outcome: the
    /// subscription reflects the database that evaluation ran against.
    pub(crate) fn resync(&mut self, raw: Result<RawAnswer>) {
        self.raw = raw;
        self.stale = false;
    }
}

impl SubscriptionState {
    /// A subscription that has not been evaluated yet. It is born stale —
    /// its state reflects no database — and `watch` seeds it with a full
    /// evaluation before anyone can read it.
    pub(crate) fn unseeded(id: u64, spec: QuerySpec) -> SubscriptionState {
        SubscriptionState {
            id,
            spec,
            inner: Mutex::new(SubscriptionInner {
                raw: Err(QueryError::internal("a subscription is seeded before it is read")),
                stale: true,
                last_shed: None,
                notifications: 0,
            }),
            cancelled: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Derives the decorated answer from maintained state — through the
    /// same helpers `engine::plan`'s dispatcher applies to freshly
    /// computed probabilities.
    pub(crate) fn derive(&self, raw: &RawAnswer) -> QueryAnswer {
        match raw {
            RawAnswer::Probs(v) => plan::decorate(v.clone(), self.spec.decorator()),
            RawAnswer::Dists(v) => match (self.spec.predicate(), self.spec.decorator()) {
                (_, Decorator::Probabilities) => QueryAnswer::Distributions(v.clone()),
                (Predicate::KTimes(k), decorator) => {
                    plan::decorate(plan::at_least(v.clone(), k), decorator)
                }
                #[expect(
                    clippy::unreachable,
                    reason = "the Dists arm is only populated by PSTkQ probes, whose predicate \
                              is KTimes."
                )]
                _ => unreachable!("distributions are maintained only for PSTkQ specs"),
            },
        }
    }
}

/// `spec` under an explicit strategy — how `watch` pins a
/// [`crate::query::Strategy::Auto`] spec to the planner's choice once,
/// instead of re-planning (and possibly flipping bits) on every arrival.
pub(crate) fn pin_strategy(spec: &QuerySpec, strategy: crate::query::Strategy) -> QuerySpec {
    spec.clone().with_strategy(strategy)
}

/// The probabilities-decorated probe of `spec` the maintained state is
/// computed with — same predicate, window, strategy and subset,
/// optionally narrowed to a single object for incremental refreshes.
pub(crate) fn probe_spec(spec: &QuerySpec, object: Option<u64>) -> QuerySpec {
    let probe = spec.clone().with_probabilities();
    match object {
        Some(id) => probe.restricted_to(id),
        None => probe,
    }
}

/// A continuously maintained standing query, registered with
/// [`crate::engine::QueryProcessor::watch`] and refreshed by every
/// applied [`crate::engine::QueryProcessor::ingest`] /
/// [`crate::engine::QueryProcessor::insert`] that affects an object in
/// its scope.
///
/// The handle is read-only and lock-cheap: [`Subscription::answer`]
/// derives the decorated answer from the maintained per-object state
/// without touching the engines. Dropping (or [`Subscription::cancel`]ing)
/// the handle detaches it — never blocking, even mid-refresh — and the
/// processor prunes the registry entry on the next arrival.
#[derive(Debug)]
pub struct Subscription {
    state: Arc<SubscriptionState>,
}

impl Subscription {
    pub(crate) fn from_state(state: Arc<SubscriptionState>) -> Subscription {
        Subscription { state }
    }

    /// The processor-unique subscription id (also the key of the
    /// per-subscription serving counters in
    /// [`crate::serving::MetricsSnapshot::streams`]).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The pinned spec the subscription is maintained under (with
    /// [`crate::query::Strategy::Auto`] resolved at watch time).
    pub fn spec(&self) -> &QuerySpec {
        &self.state.spec
    }

    /// The current decorated answer — bit-for-bit what executing
    /// [`Subscription::spec`] from scratch against a database holding the
    /// same applied observations returns, including the error when that
    /// execution fails.
    pub fn answer(&self) -> Result<QueryAnswer> {
        let inner = self.state.inner.lock();
        match &inner.raw {
            Ok(raw) => Ok(self.state.derive(raw)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The maintained predicate probability of one object: `P∃` / `P∀`,
    /// or `P(visits ≥ k)` for PSTkQ specs. `None` when the object is not
    /// in scope or the subscription is in an error state.
    pub fn probability(&self, object_id: u64) -> Option<f64> {
        let inner = self.state.inner.lock();
        match inner.raw.as_ref().ok()? {
            RawAnswer::Probs(v) => {
                v.iter().find(|e| e.object_id == object_id).map(|e| e.probability)
            }
            RawAnswer::Dists(v) => {
                let k = match self.state.spec.predicate() {
                    Predicate::KTimes(k) => k,
                    #[expect(
                        clippy::unreachable,
                        reason = "same shape invariant: Dists state exists only under a KTimes \
                                  predicate."
                    )]
                    _ => unreachable!("distributions are maintained only for PSTkQ specs"),
                };
                v.iter().find(|e| e.object_id == object_id).map(|e| e.prob_at_least(k))
            }
        }
    }

    /// Committed refreshes since `watch` (incremental splices and full
    /// resynchronizations; shed refreshes do not count).
    pub fn notifications(&self) -> u64 {
        self.state.inner.lock().notifications
    }

    /// True while the answer is behind the database: a re-evaluation was
    /// shed (or unwound) and the subscription resynchronizes, with a full
    /// re-evaluation, on its next admitted refresh — or a refresh is
    /// running right now and about to commit.
    pub fn is_stale(&self) -> bool {
        self.state.inner.lock().stale
    }

    /// The most recent shed error
    /// ([`QueryError::QueueFull`] / [`QueryError::DeadlineExceeded`]),
    /// if any refresh was ever shed.
    pub fn last_shed(&self) -> Option<QueryError> {
        self.state.inner.lock().last_shed.clone()
    }

    /// Detaches the subscription: no further refreshes or notifications.
    /// Never blocks (a refresh in flight commits or sheds, then the
    /// registry entry is pruned on the next arrival).
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// True once cancelled (or after the handle's `Drop` ran, which
    /// cancels implicitly).
    pub fn is_cancelled(&self) -> bool {
        self.state.is_cancelled()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::object_based::{evaluate_one, Exists};
    use crate::engine::query_based::BackwardField;
    use crate::engine::{EngineConfig, QueryProcessor};
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::Query;
    use crate::stats::EvalStats;
    use crate::testkit::{paper_chain, paper_window};

    /// The dense field `watch` pre-sweeps: snapshots at every anchor time
    /// in `[0, t_end]` score a fix at any of them as the batch engine does.
    #[test]
    fn scores_match_object_based_engine_at_every_anchor_time() {
        let chain = paper_chain();
        let window = paper_window();
        let anchors: Vec<u32> = (0..=window.t_end()).collect();
        let field =
            BackwardField::compute(&chain, &window, &anchors, &mut EvalStats::new()).unwrap();
        for t in anchors {
            for s in 0..3usize {
                let object = UncertainObject::with_single_observation(
                    1,
                    Observation::exact(t, 3, s).unwrap(),
                );
                let streamed = field.object_probability(&object, &window).unwrap();
                if t <= window.t_start() {
                    let config = EngineConfig::default();
                    let direct = evaluate_one(
                        &chain,
                        &object,
                        &window,
                        &config,
                        &mut EvalStats::new(),
                        Exists,
                    )
                    .unwrap()
                    .probability;
                    assert!((streamed - direct).abs() < 1e-12, "t={t}, s={s}");
                } else {
                    // A fix inside the window (t = 3 > t_start) scores the
                    // *remaining* window: membership at t = 3 only.
                    assert_eq!(streamed, [1.0, 1.0, 0.0][s], "state {s}");
                }
            }
        }
    }

    /// Object 9 fixed at s2, t=0, under watch for the paper window.
    fn watched_object() -> (QueryProcessor, Subscription) {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(UncertainObject::with_single_observation(
            9,
            Observation::exact(0, 3, 1).unwrap(),
        ))
        .unwrap();
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists().window(paper_window()).build().unwrap();
        let monitor = processor.watch(&spec).unwrap();
        (processor, monitor)
    }

    #[test]
    fn monitor_tracks_latest_fix() {
        // First fix at s2, t=0 → 0.864.
        let (processor, monitor) = watched_object();
        assert!((monitor.probability(9).unwrap() - 0.864).abs() < 1e-12);
        // Newer fix at s3, t=1 → h_1(s3) = 0.96.
        processor.ingest(9, Observation::exact(1, 3, 2).unwrap()).unwrap();
        assert!((monitor.probability(9).unwrap() - 0.96).abs() < 1e-12);
        // An out-of-order stale fix is ignored.
        processor.ingest(9, Observation::exact(0, 3, 0).unwrap()).unwrap();
        assert!((monitor.probability(9).unwrap() - 0.96).abs() < 1e-12);
        assert_eq!(monitor.notifications(), 1);
        assert_eq!(monitor.probability(404), None);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let (processor, monitor) = watched_object();
        let bad = Observation::exact(0, 5, 0).unwrap();
        assert!(matches!(processor.ingest(9, bad), Err(QueryError::ModelDimensionMismatch { .. })));
        assert_eq!(monitor.notifications(), 0, "a rejected fix reaches no subscription");
    }

    #[test]
    fn splice_replaces_in_place_and_appends_new_objects() {
        let p = |id: u64, probability: f64| ObjectProbability { object_id: id, probability };
        let listed = |raw: &RawAnswer| -> Vec<(u64, f64)> {
            match raw {
                RawAnswer::Probs(v) => v.iter().map(|e| (e.object_id, e.probability)).collect(),
                RawAnswer::Dists(_) => Vec::new(),
            }
        };

        let mut raw = RawAnswer::Probs(vec![p(3, 0.1), p(1, 0.2), p(7, 0.3)]);
        raw.splice(RawAnswer::Probs(vec![p(1, 0.9)]));
        raw.splice(RawAnswer::Probs(vec![p(9, 0.4)]));
        assert_eq!(
            listed(&raw),
            vec![(3, 0.1), (1, 0.9), (7, 0.3), (9, 0.4)],
            "in-place replace keeps database order"
        );
        assert_eq!(raw.len(), 4);

        // A repeated id: the k-th holder takes the k-th entry.
        let whole = || RawAnswer::Probs(vec![p(5, 0.1), p(2, 0.2), p(5, 0.3)]);
        let mut raw = whole();
        raw.splice(RawAnswer::Probs(vec![p(5, 0.7), p(5, 0.8)]));
        assert_eq!(listed(&raw), vec![(5, 0.7), (2, 0.2), (5, 0.8)]);
        // An inserted holder of the id appends after the existing ones.
        let mut raw = whole();
        raw.splice(RawAnswer::Probs(vec![p(5, 0.7), p(5, 0.8), p(5, 0.9)]));
        assert_eq!(listed(&raw), vec![(5, 0.7), (2, 0.2), (5, 0.8), (5, 0.9)]);
    }

    #[test]
    fn derived_answers_ride_the_batch_decorators() {
        use crate::query::Strategy;
        let window = paper_window();
        let p = |id: u64, probability: f64| ObjectProbability { object_id: id, probability };
        let probs = vec![p(1, 0.9), p(2, 0.3), p(3, 0.7)];

        let threshold = Query::exists().window(window.clone()).threshold(0.5).build().unwrap();
        let state = SubscriptionState::unseeded(0, threshold);
        assert_eq!(
            state.derive(&RawAnswer::Probs(probs.clone())),
            QueryAnswer::ObjectIds(vec![1, 3]),
            "threshold keeps database order"
        );

        let topk = Query::exists().window(window.clone()).top_k(2).build().unwrap();
        let state = SubscriptionState::unseeded(1, topk);
        match state.derive(&RawAnswer::Probs(probs)) {
            QueryAnswer::Ranked(r) => {
                assert_eq!(r.len(), 2);
                assert_eq!((r[0].object_id, r[1].object_id), (1, 3));
            }
            other => panic!("top-k derives a ranking, got {other:?}"),
        }

        // PSTkQ distributions reduce through `P(visits ≥ k)`.
        let d =
            |id: u64, probabilities: Vec<f64>| ObjectKDistribution { object_id: id, probabilities };
        let dists = vec![d(1, vec![0.1, 0.3, 0.6]), d(2, vec![0.8, 0.15, 0.05])];
        let ktimes = Query::ktimes(2)
            .window(window)
            .threshold(0.5)
            .strategy(Strategy::QueryBased)
            .build()
            .unwrap();
        let state = SubscriptionState::unseeded(2, ktimes);
        assert_eq!(state.derive(&RawAnswer::Dists(dists)), QueryAnswer::ObjectIds(vec![1]));
    }

    #[test]
    fn probe_spec_keeps_shape_and_narrows_scope() {
        use crate::query::Strategy;
        let spec = Query::ktimes(2)
            .window(paper_window())
            .top_k(3)
            .strategy(Strategy::QueryBased)
            .objects([5u64, 2])
            .build()
            .unwrap();
        let full = probe_spec(&spec, None);
        assert_eq!(full.predicate(), spec.predicate());
        assert_eq!(full.decorator(), Decorator::Probabilities);
        assert_eq!(full.strategy(), Strategy::QueryBased);
        assert_eq!(full.objects(), Some(&[2u64, 5][..]));
        let narrowed = probe_spec(&spec, Some(5));
        assert_eq!(narrowed.objects(), Some(&[5u64][..]));
    }
}
