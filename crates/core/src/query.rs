//! Query windows, declarative query specs and result types
//! (Definitions 2–4 of the paper).
//!
//! The paper defines **one** query model: a predicate (PST∃Q, PST∀Q,
//! PSTkQ) over a window `Q▫ = S▫ × T▫`, optionally decorated with a
//! probability threshold or a top-k selection, and answerable by either
//! the object-based or the query-based evaluation technique. [`QuerySpec`]
//! is that model as data: the predicate, the decorator and the window are
//! *what* is asked, while the [`Strategy`] (defaulting to
//! [`Strategy::Auto`]) is *how* it is answered — chosen by the planner in
//! [`crate::engine::plan`] from database and window statistics unless
//! explicitly overridden. Specs are built fluently:
//!
//! ```
//! use ust_core::prelude::*;
//! use ust_space::TimeSet;
//!
//! let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3))?;
//! let spec = Query::exists().window(window).threshold(0.5).build()?;
//! assert_eq!(spec.strategy(), Strategy::Auto);
//! # Ok::<(), ust_core::QueryError>(())
//! ```
//!
//! and executed through [`crate::engine::QueryProcessor::execute`] (or
//! submitted asynchronously through
//! [`crate::engine::QueryProcessor::submit`]), which returns a
//! [`QueryAnswer`] variant matching the decorator.

use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use ust_markov::StateMask;
use ust_space::{Region, StateSpace, TimeSet};

use crate::error::{QueryError, Result};

/// A resolved spatio-temporal query window `Q▫ = S▫ × T▫`: a set of states
/// and a set of timestamps (neither necessarily contiguous).
///
/// The window is immutable and its shape is `Arc`-shared, so a clone (and
/// with it a [`QuerySpec`] clone) is a reference-count bump. Equality is by
/// value: two windows built separately from the same states and times are
/// equal.
#[derive(Clone)]
pub struct QueryWindow {
    shape: Arc<WindowShape>,
}

/// The shared body of a [`QueryWindow`].
struct WindowShape {
    states: StateMask,
    times: TimeSet,
    /// A 64-bit digest of `states` and `times`, computed on first use —
    /// what the field cache hashes instead of the mask's words.
    fingerprint: OnceLock<u64>,
}

impl fmt::Debug for QueryWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryWindow")
            .field("states", &self.shape.states)
            .field("times", &self.shape.times)
            .finish()
    }
}

impl PartialEq for QueryWindow {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
            || (self.shape.states == other.shape.states && self.shape.times == other.shape.times)
    }
}

impl QueryWindow {
    /// Creates a window from a state mask and time set; both must be
    /// non-empty.
    pub fn new(states: StateMask, times: TimeSet) -> Result<Self> {
        if states.is_empty() {
            return Err(QueryError::EmptySpatialWindow);
        }
        if times.is_empty() {
            return Err(QueryError::EmptyTemporalWindow);
        }
        let shape = WindowShape { states, times, fingerprint: OnceLock::new() };
        Ok(QueryWindow { shape: Arc::new(shape) })
    }

    /// Resolves a geometric [`Region`] against a state space.
    pub fn from_region<S: StateSpace + ?Sized>(
        space: &S,
        region: &Region,
        times: TimeSet,
    ) -> Result<Self> {
        let ids = region.resolve(space);
        let states = StateMask::from_indices(space.num_states(), ids)?;
        QueryWindow::new(states, times)
    }

    /// Convenience constructor from explicit state ids.
    pub fn from_states<I: IntoIterator<Item = usize>>(
        num_states: usize,
        states: I,
        times: TimeSet,
    ) -> Result<Self> {
        QueryWindow::new(StateMask::from_indices(num_states, states)?, times)
    }

    /// The spatial component `S▫`.
    pub fn states(&self) -> &StateMask {
        &self.shape.states
    }

    /// The temporal component `T▫`.
    pub fn times(&self) -> &TimeSet {
        &self.shape.times
    }

    /// `t_end = max(T▫)` — the anchor of backward passes.
    #[expect(
        clippy::expect_used,
        reason = "`QueryWindow::new` rejects an empty time set with `EmptyTemporalWindow`, \
                  so `times` always has a maximum."
    )]
    pub fn t_end(&self) -> u32 {
        self.times().max().expect("validated non-empty")
    }

    /// `t_start = min(T▫)`.
    #[expect(
        clippy::expect_used,
        reason = "same constructor invariant as `t_end`: the validated time set is non-empty."
    )]
    pub fn t_start(&self) -> u32 {
        self.times().min().expect("validated non-empty")
    }

    /// Number of query timestamps `|T▫|`.
    pub fn num_times(&self) -> usize {
        self.times().len()
    }

    /// True when `t ∈ T▫`.
    pub fn time_in_window(&self, t: u32) -> bool {
        self.times().contains(t)
    }

    /// The complemented window `(S ∖ S▫) × T▫` used to reduce PST∀Q to
    /// PST∃Q (Section VII): `P∀(S▫, T▫) = 1 − P∃(S ∖ S▫, T▫)`.
    pub fn complement_states(&self) -> Result<QueryWindow> {
        QueryWindow::new(self.states().complement(), self.times().clone())
    }

    /// A 64-bit digest of the states and times, computed once per window
    /// and shared by its clones. Equal windows have equal fingerprints; the
    /// converse is only likely, so a fingerprint match still has to be
    /// confirmed with `==`.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self.shape.fingerprint.get_or_init(|| {
            let mut hasher = DefaultHasher::new();
            self.states().hash(&mut hasher);
            self.times().as_slice().hash(&mut hasher);
            hasher.finish()
        })
    }
}

/// Per-object probability result of a PST∃Q or PST∀Q.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectProbability {
    /// The object's identifier.
    pub object_id: u64,
    /// The query probability for that object.
    pub probability: f64,
}

/// Per-object result of a PSTkQ: `probabilities[k]` is the probability the
/// object is inside the window at exactly `k ∈ {0..|T▫|}` query timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectKDistribution {
    /// The object's identifier.
    pub object_id: u64,
    /// Distribution over visit counts, indexed by `k` (length `|T▫| + 1`).
    pub probabilities: Vec<f64>,
}

impl ObjectKDistribution {
    /// `P(k ≥ 1)` — must equal the PST∃Q probability.
    pub fn prob_at_least_once(&self) -> f64 {
        1.0 - self.probabilities.first().copied().unwrap_or(1.0)
    }

    /// `P(k = |T▫|)` — must equal the PST∀Q probability.
    pub fn prob_always(&self) -> f64 {
        self.probabilities.last().copied().unwrap_or(0.0)
    }

    /// Expected number of window timestamps the object is inside `S▫`.
    pub fn expected_visits(&self) -> f64 {
        self.probabilities.iter().enumerate().map(|(k, p)| k as f64 * p).sum()
    }

    /// `P(visits ≥ k)` — the tail mass of the distribution, the quantity
    /// the [`Predicate::KTimes`] threshold and top-k decorators filter and
    /// rank by. `k = 0` is trivially 1, `k > |T▫|` trivially 0. The entries
    /// are each inside `[0, 1]` but their rounded sum can exceed 1, so the
    /// tail is capped there.
    pub fn prob_at_least(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        unit_clamp(self.probabilities.iter().skip(k).sum::<f64>())
    }
}

/// The one place a computed probability is brought into `[0, 1]`: sums of
/// many products overshoot the unit interval by an ulp or two, and every
/// engine reports through here so none of them answers outside it. A value
/// that has to move further than rounding explains is a bug in the caller,
/// not something to hide — debug builds assert on it.
pub(crate) fn unit_clamp(p: f64) -> f64 {
    let clamped = p.clamp(0.0, 1.0);
    debug_assert!((p - clamped).abs() <= 1e-9, "{p} is further than rounding from [0, 1]");
    clamped
}

/// The query predicate: *what* is asked of each object over the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// PST∃Q (Definition 2): inside `S▫` at *some* `t ∈ T▫`.
    Exists,
    /// PST∀Q (Definition 3): inside `S▫` at *all* `t ∈ T▫`.
    ForAll,
    /// PSTkQ (Section VII): inside `S▫` at **at least** `k` timestamps of
    /// `T▫`. With the [`Decorator::Probabilities`] decorator the answer is
    /// the full distribution over visit counts
    /// ([`QueryAnswer::Distributions`]), from which `P(≥ k)` and every
    /// other tail is derivable; the threshold and top-k decorators filter
    /// and rank by [`ObjectKDistribution::prob_at_least`]`(k)`.
    KTimes(usize),
}

/// The result decorator: *how much* of the per-object probability the
/// caller wants back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decorator {
    /// Every object's probability (or visit-count distribution for
    /// [`Predicate::KTimes`]).
    Probabilities,
    /// Only the ids of objects whose predicate probability is `≥ τ` —
    /// the probabilistic threshold query. Enables bound-based early
    /// termination under the object-based strategy.
    Threshold(f64),
    /// The `k` objects with the highest predicate probability, ranked
    /// descending (ties broken by ascending id).
    ///
    /// The ranking is value-identical across strategies, with one
    /// documented asymmetry inherited from the drivers: the object-based
    /// strategy's reachability pruning *omits* objects that provably
    /// cannot intersect the window, while the query-based strategy lists
    /// them with probability `0.0` — so answers may differ in their
    /// zero-probability tail when fewer than `k` objects can reach the
    /// window at all.
    TopK(usize),
}

/// The evaluation strategy: *how* the engines answer the spec.
///
/// The predicate/decorator axes of [`QuerySpec`] are orthogonal to the
/// evaluation technique (the object-based forward pass of Section V-A vs.
/// the query-based backward pass of Section V-B); `Strategy` makes that
/// orthogonality explicit. [`Strategy::Auto`] defers the choice to the
/// planner, which estimates both costs from database and window statistics
/// (plus backward-field cache residency) — inspect the decision with
/// [`crate::engine::QueryProcessor::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Let the planner choose between the two strategies below.
    Auto,
    /// Force the object-based forward engine (Section V-A).
    ObjectBased,
    /// Force the query-based backward engine (Section V-B), served through
    /// the processor's backward-field caches.
    QueryBased,
}

/// A declarative, executable query: predicate × decorator × window ×
/// strategy, plus an optional restriction to explicit object ids.
///
/// Build with [`Query`], execute with
/// [`crate::engine::QueryProcessor::execute`] (synchronous) or
/// [`crate::engine::QueryProcessor::submit`] (asynchronous ticket).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    predicate: Predicate,
    decorator: Decorator,
    window: QueryWindow,
    strategy: Strategy,
    objects: Option<Vec<u64>>,
}

impl QuerySpec {
    /// The query predicate.
    pub fn predicate(&self) -> Predicate {
        self.predicate
    }

    /// The result decorator.
    pub fn decorator(&self) -> Decorator {
        self.decorator
    }

    /// The query window `S▫ × T▫`.
    pub fn window(&self) -> &QueryWindow {
        &self.window
    }

    /// The requested evaluation strategy ([`Strategy::Auto`] unless
    /// overridden).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The explicit object-id subset, if the query is restricted
    /// (sorted, deduplicated). `None` means the whole database.
    pub fn objects(&self) -> Option<&[u64]> {
        self.objects.as_deref()
    }

    // The field updates standing queries derive their pinned and probe
    // specs with. Each keeps a validated spec valid (the window stays, no
    // threshold is introduced), so none re-runs the builder's checks.

    /// This spec under `strategy`.
    pub(crate) fn with_strategy(mut self, strategy: Strategy) -> QuerySpec {
        self.strategy = strategy;
        self
    }

    /// This spec asking for every object's probability / distribution.
    pub(crate) fn with_probabilities(mut self) -> QuerySpec {
        self.decorator = Decorator::Probabilities;
        self
    }

    /// This spec restricted to the single object `id`.
    pub(crate) fn restricted_to(mut self, id: u64) -> QuerySpec {
        self.objects = Some(vec![id]);
        self
    }
}

/// Entry point of the query-builder API: pick the predicate, then chain
/// the window, decorator, strategy and subset.
///
/// ```
/// use ust_core::prelude::*;
/// use ust_space::TimeSet;
///
/// let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3))?;
/// // "The 5 objects most likely to visit the window at least twice,
/// //  evaluated query-based."
/// let spec = Query::ktimes(2)
///     .window(window)
///     .top_k(5)
///     .strategy(Strategy::QueryBased)
///     .build()?;
/// assert_eq!(spec.predicate(), Predicate::KTimes(2));
/// # Ok::<(), ust_core::QueryError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Query;

impl Query {
    /// A PST∃Q spec builder.
    pub fn exists() -> QueryBuilder {
        QueryBuilder::new(Predicate::Exists)
    }

    /// A PST∀Q spec builder.
    pub fn forall() -> QueryBuilder {
        QueryBuilder::new(Predicate::ForAll)
    }

    /// A PSTkQ spec builder (see [`Predicate::KTimes`] for how `k`
    /// interacts with the decorators).
    pub fn ktimes(k: usize) -> QueryBuilder {
        QueryBuilder::new(Predicate::KTimes(k))
    }
}

/// Fluent builder for a [`QuerySpec`]; obtained from [`Query`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    predicate: Predicate,
    decorator: Decorator,
    window: Option<QueryWindow>,
    strategy: Strategy,
    objects: Option<Vec<u64>>,
}

impl QueryBuilder {
    fn new(predicate: Predicate) -> QueryBuilder {
        QueryBuilder {
            predicate,
            decorator: Decorator::Probabilities,
            window: None,
            strategy: Strategy::Auto,
            objects: None,
        }
    }

    /// Sets the query window (required).
    pub fn window(mut self, window: QueryWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Asks for every object's probability / distribution (the default
    /// decorator).
    pub fn probabilities(mut self) -> Self {
        self.decorator = Decorator::Probabilities;
        self
    }

    /// Asks only for the ids of objects with predicate probability `≥ tau`.
    pub fn threshold(mut self, tau: f64) -> Self {
        self.decorator = Decorator::Threshold(tau);
        self
    }

    /// Asks for the `k` objects with the highest predicate probability.
    pub fn top_k(mut self, k: usize) -> Self {
        self.decorator = Decorator::TopK(k);
        self
    }

    /// Overrides the planner's strategy choice.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Restricts the query to an explicit set of object ids (any order,
    /// duplicates ignored). Every id must exist in the database at
    /// execution time.
    pub fn objects<I: IntoIterator<Item = u64>>(mut self, ids: I) -> Self {
        self.objects = Some(ids.into_iter().collect());
        self
    }

    /// Validates and freezes the spec.
    ///
    /// Fails with [`QueryError::MissingWindow`] when no window was set and
    /// [`QueryError::InvalidThreshold`] when a threshold decorator's τ is
    /// not a probability.
    pub fn build(self) -> Result<QuerySpec> {
        let window = self.window.ok_or(QueryError::MissingWindow)?;
        if let Decorator::Threshold(tau) = self.decorator {
            if !(0.0..=1.0).contains(&tau) {
                return Err(QueryError::InvalidThreshold { tau });
            }
        }
        let objects = self.objects.map(|mut ids| {
            ids.sort_unstable();
            ids.dedup();
            ids
        });
        Ok(QuerySpec {
            predicate: self.predicate,
            decorator: self.decorator,
            window,
            strategy: self.strategy,
            objects,
        })
    }
}

/// The answer of an executed [`QuerySpec`]; the variant follows the
/// decorator (and, for PSTkQ probabilities, the predicate).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Per-object probabilities ([`Decorator::Probabilities`] under
    /// [`Predicate::Exists`] / [`Predicate::ForAll`]).
    Probabilities(Vec<ObjectProbability>),
    /// Per-object visit-count distributions
    /// ([`Decorator::Probabilities`] under [`Predicate::KTimes`]).
    Distributions(Vec<ObjectKDistribution>),
    /// Accepted object ids in database order
    /// ([`Decorator::Threshold`]).
    ObjectIds(Vec<u64>),
    /// The ranked top-k ([`Decorator::TopK`]).
    Ranked(Vec<crate::ranking::RankedObject>),
}

impl QueryAnswer {
    /// The per-object probabilities, if this is a
    /// [`QueryAnswer::Probabilities`] answer.
    pub fn probabilities(&self) -> Option<&[ObjectProbability]> {
        match self {
            QueryAnswer::Probabilities(p) => Some(p),
            _ => None,
        }
    }

    /// The visit-count distributions, if this is a
    /// [`QueryAnswer::Distributions`] answer.
    pub fn distributions(&self) -> Option<&[ObjectKDistribution]> {
        match self {
            QueryAnswer::Distributions(d) => Some(d),
            _ => None,
        }
    }

    /// The accepted ids, if this is a [`QueryAnswer::ObjectIds`] answer.
    pub fn ids(&self) -> Option<&[u64]> {
        match self {
            QueryAnswer::ObjectIds(ids) => Some(ids),
            _ => None,
        }
    }

    /// The ranking, if this is a [`QueryAnswer::Ranked`] answer.
    pub fn ranked(&self) -> Option<&[crate::ranking::RankedObject]> {
        match self {
            QueryAnswer::Ranked(r) => Some(r),
            _ => None,
        }
    }

    /// Number of entries in the answer, whatever its variant.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::Probabilities(p) => p.len(),
            QueryAnswer::Distributions(d) => d.len(),
            QueryAnswer::ObjectIds(ids) => ids.len(),
            QueryAnswer::Ranked(r) => r.len(),
        }
    }

    /// True when the answer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_space::LineSpace;

    #[test]
    fn window_construction_and_accessors() {
        let w = QueryWindow::from_states(10, [3usize, 4, 5], TimeSet::interval(2, 4)).unwrap();
        assert_eq!(w.t_start(), 2);
        assert_eq!(w.t_end(), 4);
        assert_eq!(w.num_times(), 3);
        assert!(w.time_in_window(3));
        assert!(!w.time_in_window(5));
        assert!(w.states().contains(4));
        assert!(!w.states().contains(6));
    }

    #[test]
    fn empty_windows_rejected() {
        assert_eq!(
            QueryWindow::from_states(10, [], TimeSet::interval(0, 1)),
            Err(QueryError::EmptySpatialWindow)
        );
        assert_eq!(
            QueryWindow::from_states(10, [1usize], TimeSet::empty()),
            Err(QueryError::EmptyTemporalWindow)
        );
    }

    #[test]
    fn from_region_resolves_states() {
        let line = LineSpace::new(20);
        let w = QueryWindow::from_region(&line, &Region::rect(4.2, -1.0, 7.9, 1.0), TimeSet::at(3))
            .unwrap();
        assert_eq!(w.states().to_indices(), vec![5, 6, 7]);
    }

    #[test]
    fn complement_flips_states() {
        let w = QueryWindow::from_states(5, [1usize, 2], TimeSet::at(0)).unwrap();
        let c = w.complement_states().unwrap();
        assert_eq!(c.states().to_indices(), vec![0, 3, 4]);
        assert_eq!(c.times(), w.times());
        // Complement of the full space is empty and must be rejected.
        let full = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::at(0)).unwrap();
        assert_eq!(full.complement_states(), Err(QueryError::EmptySpatialWindow));
    }

    #[test]
    fn windows_compare_by_value_and_clones_share_one_shape() {
        let w = QueryWindow::from_states(70, [3usize, 64], TimeSet::interval(2, 4)).unwrap();
        let twin = QueryWindow::from_states(70, [64usize, 3], TimeSet::new([4, 3, 2])).unwrap();
        assert_eq!(w, twin);
        assert!(!Arc::ptr_eq(&w.shape, &twin.shape));
        assert_eq!(w.fingerprint(), twin.fingerprint());

        // A spec clone is a reference-count bump on the window's shape.
        let spec = Query::exists().window(w.clone()).build().unwrap();
        let probe = spec.clone().with_probabilities().restricted_to(3);
        assert!(Arc::ptr_eq(&probe.window().shape, &w.shape));

        // One state, one time or the dimension apart: unequal, and their
        // fingerprints differ.
        let others = [
            QueryWindow::from_states(70, [3usize, 65], TimeSet::interval(2, 4)),
            QueryWindow::from_states(70, [3usize, 64], TimeSet::interval(2, 5)),
            QueryWindow::from_states(71, [3usize, 64], TimeSet::interval(2, 4)),
        ];
        for other in others.map(Result::unwrap) {
            assert_ne!(w, other);
            assert_ne!(w.fingerprint(), other.fingerprint());
        }

        // Debug output is the value's, as before the shape was shared.
        let shown = format!("{w:?}");
        assert!(shown.starts_with("QueryWindow { states: StateMask { dim: 70"), "{shown}");
        assert!(shown.ends_with("times: TimeSet { times: [2, 3, 4] } }"), "{shown}");
    }

    #[test]
    fn k_distribution_helpers() {
        let d = ObjectKDistribution { object_id: 7, probabilities: vec![0.136, 0.672, 0.192] };
        assert!((d.prob_at_least_once() - 0.864).abs() < 1e-12);
        assert!((d.prob_always() - 0.192).abs() < 1e-12);
        assert!((d.expected_visits() - (0.672 + 2.0 * 0.192)).abs() < 1e-12);
        assert_eq!(d.prob_at_least(0), 1.0);
        assert!((d.prob_at_least(1) - 0.864).abs() < 1e-12);
        assert!((d.prob_at_least(2) - 0.192).abs() < 1e-12);
        assert_eq!(d.prob_at_least(3), 0.0);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let w = QueryWindow::from_states(4, [1usize, 2], TimeSet::interval(1, 3)).unwrap();
        let spec = Query::exists().window(w.clone()).build().unwrap();
        assert_eq!(spec.predicate(), Predicate::Exists);
        assert_eq!(spec.decorator(), Decorator::Probabilities);
        assert_eq!(spec.strategy(), Strategy::Auto);
        assert_eq!(spec.objects(), None);
        assert_eq!(spec.window(), &w);

        let spec = Query::forall()
            .window(w.clone())
            .threshold(0.25)
            .strategy(Strategy::ObjectBased)
            .objects([9u64, 3, 9, 1])
            .build()
            .unwrap();
        assert_eq!(spec.predicate(), Predicate::ForAll);
        assert_eq!(spec.decorator(), Decorator::Threshold(0.25));
        assert_eq!(spec.strategy(), Strategy::ObjectBased);
        assert_eq!(spec.objects(), Some(&[1u64, 3, 9][..]), "ids sorted and deduplicated");

        let spec = Query::ktimes(2).window(w).top_k(5).probabilities().build().unwrap();
        assert_eq!(spec.predicate(), Predicate::KTimes(2));
        assert_eq!(spec.decorator(), Decorator::Probabilities, "last decorator wins");
    }

    #[test]
    fn builder_validation() {
        let w = QueryWindow::from_states(4, [1usize], TimeSet::at(2)).unwrap();
        assert_eq!(Query::exists().build(), Err(QueryError::MissingWindow));
        assert_eq!(
            Query::exists().window(w.clone()).threshold(1.5).build(),
            Err(QueryError::InvalidThreshold { tau: 1.5 })
        );
        assert!(Query::exists().window(w.clone()).threshold(f64::NAN).build().is_err());
        assert!(Query::exists().window(w).threshold(0.0).build().is_ok());
    }

    #[test]
    fn answer_accessors_match_variants() {
        let probs =
            QueryAnswer::Probabilities(vec![ObjectProbability { object_id: 1, probability: 0.5 }]);
        assert_eq!(probs.probabilities().unwrap().len(), 1);
        assert!(probs.ids().is_none());
        assert!(probs.ranked().is_none());
        assert!(probs.distributions().is_none());
        assert_eq!(probs.len(), 1);
        assert!(!probs.is_empty());
        let ids = QueryAnswer::ObjectIds(vec![]);
        assert!(ids.is_empty());
        assert_eq!(ids.ids().unwrap().len(), 0);
    }
}
