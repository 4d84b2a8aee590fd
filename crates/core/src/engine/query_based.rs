//! Query-based (QB) evaluation — Section V-B of the paper, for all three
//! predicates.
//!
//! The computation is reversed: starting from the assumption that a world
//! satisfies the query at `t_end = max(T▫)`, the augmented matrices,
//! applied from the right, propagate that assumption backward to the
//! observation time,
//! yielding a **backward field** `h_t(s)` = probability that a world at
//! state `s` at time `t` (not having hit the window at `≤ t`) satisfies the
//! predicate at some later query timestamp. Every object is then answered
//! by a single sparse dot product of its anchor distribution with the field
//! — the `O(|D| + |S_reach|²·δt)` cost that makes QB orders of magnitude
//! faster than OB on large databases.
//!
//! As with the forward engine, the augmented matrices `M−`/`M+` are applied
//! virtually: the recurrence
//!
//! ```text
//! h_t(s) = Σ_{j∈S▫} M(s,j)          + Σ_{j∉S▫} M(s,j)·h_{t+1}(j)   if t+1 ∈ T▫
//! h_t(s) = Σ_j     M(s,j)·h_{t+1}(j)                                otherwise
//! ```
//!
//! is one `M · w` product per step, where `w` is `h_{t+1}` with the window
//! states clamped to 1 when `t+1 ∈ T▫` — one dot product per row of `M`,
//! which [`MarkovChain::step_backward`] gathers along `M`'s rows (a span
//! vector) or scatters over `Mᵀ` (a vector on the sorted-index arm).
//!
//! The PST∀Q and PSTkQ fields are the same sweep under the other
//! [`FieldRule`]s. For ∀, `w` *keeps* only the window states of `g_{t+1}`
//! when `t+1 ∈ T▫` (a world outside `S▫` at a query time has failed), so
//! `g_t` too lives on the states that can reach the window and one object
//! is one dot product. For k-times the swept state is a family of
//! `|T▫| + 1` visit-level vectors and entering `S▫` shifts each level up by
//! one. The levels are the coefficients of one generating function in the
//! visit count per state, so `M` acts on all of them at once: the sweep
//! keeps them interleaved in a [`LevelPanel`], and each step is one walk
//! over `M`'s rows whose per-entry work grows with the level count — the
//! "scales rather linearly with k" behaviour the paper observes — with the
//! window rule a lane shift on the rows of `S▫`. The levels unpack into
//! per-level span snapshots only at the requested anchor times, and one
//! object is a `(|T▫|+1)`-way dot product.

use std::collections::BTreeMap;
use std::sync::Arc;

use ust_markov::kernels::LevelPanel;
use ust_markov::{MarkovChain, PropagationVector, SpanVector, SparseVector, StateMask};

use crate::database::TrajectoryDatabase;
use crate::engine::cache::FieldCache;
use crate::engine::object_based::{check_anchor_time, check_window};
use crate::engine::pipeline::Propagator;
use crate::engine::EngineConfig;
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::query::{unit_clamp, ObjectProbability, QueryWindow};
use crate::stats::EvalStats;
use crate::sync::{Mutex, CACHE};

/// What a backward sweep does to the window states `S▫` at a query
/// timestamp — the one difference between the PST∃Q, the PST∀Q and the
/// PSTkQ field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldRule {
    /// **Clamp** `S▫` to 1: a world there satisfies "at some query time"
    /// with certainty. The field is `h_t(s)` = P(inside `S▫` at some query
    /// time in `(t, t_end]` | `s` at `t`).
    Exists,
    /// **Keep** only `S▫`: a world anywhere else has already failed "at all
    /// query times". The field is `g_t(s)` = P(inside `S▫` at all query
    /// times in `(t, t_end]` | `s` at `t`) — PST∀Q answered directly
    /// instead of through the complement window, so the sweep stays on the
    /// states that can reach `S▫` rather than on everything that can leave
    /// it.
    ForAll,
    /// **Shift** `S▫` up one visit level. The field is the family
    /// `f_t(s, j)` = P(exactly `j` visits to `S▫` at query times in
    /// `(t, t_end]` | `s` at `t`), `j ∈ {0..|T▫|}` — the query-based
    /// counterpart of the Section VII `C(t)` algorithm (the paper reports
    /// its runtime in Fig. 10(b) without spelling it out). Level 0 is
    /// stored as its **deficit** `d_t = 1 − f_t(·, 0)`, the probability of
    /// at least one further visit, i.e. the PST∃Q field: `f₀` itself is 1
    /// on every state that cannot reach the window, so carrying it would
    /// make the family dense from the first step, whereas `d` and every
    /// `f_j, j ≥ 1` are zero there (the count distribution sums to 1, so
    /// nothing is lost).
    KTimes,
}

/// The indicator vector of `S▫`: the clamp of the ∃ (and k-times deficit)
/// rule and the start state of the ∀ sweep.
fn window_indicator(window: &QueryWindow) -> Result<SparseVector> {
    let n = window.states().dim();
    Ok(SparseVector::from_pairs(n, window.states().iter().map(|s| (s, 1.0)))?)
}

/// The backward field of a query window under one chain: snapshots of the
/// level family at every requested anchor time — the single vector `h_t`
/// or `g_t` under [`FieldRule::Exists`] / [`FieldRule::ForAll`], the
/// `|T▫| + 1` visit levels under [`FieldRule::KTimes`] — each level trimmed
/// to its non-zero span.
#[derive(Debug, Clone)]
pub struct BackwardField {
    rule: FieldRule,
    snapshots: BTreeMap<u32, Vec<SpanVector>>,
}

impl BackwardField {
    /// Computes the PST∃Q field for `window`, keeping snapshots at every
    /// time in `anchor_times` (each must be ≤ `t_end`). One backward sweep
    /// from `t_end` down to the earliest anchor.
    ///
    /// The sweep runs on **hybrid vectors**, one
    /// [`MarkovChain::step_backward`] per step: the support of `h_t` is
    /// exactly the set of states that can still reach
    /// the remaining window (`S_reach` in the paper's cost analysis), so
    /// for small windows each step costs `O(|S_reach|·deg)` instead of
    /// `O(nnz(M))`, densifying automatically as the support grows.
    pub fn compute(
        chain: &MarkovChain,
        window: &QueryWindow,
        anchor_times: &[u32],
        stats: &mut EvalStats,
    ) -> Result<BackwardField> {
        Self::compute_with_config(
            chain,
            window,
            FieldRule::Exists,
            anchor_times,
            &EngineConfig::default(),
            stats,
        )
    }

    /// As [`Self::compute`] under an explicit window rule and
    /// configuration.
    ///
    /// The ∀ sweep starts from the indicator of `S▫` rather than from the
    /// all-ones vector `g_{t_end}` formally is: `t_end` is a query
    /// timestamp, and at a query timestamp only the `S▫` entries of a ∀
    /// snapshot are ever read ([`Self::object_probability`] scores anchor
    /// mass outside `S▫` as 0) or survive the next step's keep rule. The ∃
    /// and k-times sweeps start empty: zero further visits with certainty.
    pub fn compute_with_config(
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: FieldRule,
        anchor_times: &[u32],
        config: &EngineConfig,
        stats: &mut EvalStats,
    ) -> Result<BackwardField> {
        let mut field = BackwardField { rule, snapshots: BTreeMap::new() };
        field.sweep_down(chain, window, None, anchor_times, config, stats)?;
        Ok(field)
    }

    /// Extends an already-computed field downward to earlier anchor times,
    /// resuming the backward sweep from its earliest snapshot instead of
    /// recomputing the `(min, t_end]` suffix. Every time in `anchor_times`
    /// must lie at or below [`Self::min_time`]; times already snapshotted
    /// are free. Resumed sweeps are bit-for-bit identical to a from-scratch
    /// sweep: the level family at the resume snapshot is the complete sweep
    /// state, and the per-slot accumulation order of the backward product
    /// does not depend on the vectors' representation.
    ///
    /// This is the suffix sharing behind
    /// [`crate::engine::cache::FieldCache`].
    pub fn extend_down(
        &mut self,
        chain: &MarkovChain,
        window: &QueryWindow,
        anchor_times: &[u32],
        config: &EngineConfig,
        stats: &mut EvalStats,
    ) -> Result<()> {
        let Some(resume) = self.min_time() else {
            return Ok(());
        };
        let wanted: Vec<u32> = anchor_times.iter().copied().filter(|&t| t < resume).collect();
        if wanted.is_empty() {
            return Ok(());
        }
        self.sweep_down(chain, window, Some(resume), &wanted, config, stats)
    }

    /// The one backward sweep, recording snapshots along the way down to
    /// the earliest requested time: from the family snapshotted at
    /// `resume`, or — `None` — from the rule's boundary state at `t_end`.
    fn sweep_down(
        &mut self,
        chain: &MarkovChain,
        window: &QueryWindow,
        resume: Option<u32>,
        anchor_times: &[u32],
        config: &EngineConfig,
        stats: &mut EvalStats,
    ) -> Result<()> {
        let rule = self.rule;
        let inside = window.states();
        let family = match resume {
            Some(t) => Some((
                self.snapshots.get(&t).ok_or(QueryError::internal(
                    "a backward field's floor is always snapshotted",
                ))?,
                t,
            )),
            None => None,
        };
        let resume = family.map_or(window.t_end(), |(_, t)| t);
        let mut pipeline = Propagator::new(config, stats);
        if rule == FieldRule::KTimes {
            // The |T▫| + 1 levels stay interleaved for the whole sweep and
            // unpack only at the requested anchor times.
            let mut panel = match family {
                Some((levels, _)) => LevelPanel::from_levels(inside.dim(), levels)?,
                None => LevelPanel::zeros(inside.dim(), window.num_times() + 1),
            };
            let snapshots = &mut self.snapshots;
            return pipeline.backward_from(
                &mut panel,
                resume,
                window,
                anchor_times,
                // Entering a window state consumes one visit level:
                // f_j[S▫] ← f_{j−1}[S▫] top-down, f₁[S▫] ← f₀[S▫] =
                // 1 − d[S▫], and f₀[S▫] ← 0, i.e. d[S▫] ← 1.
                |panel| Ok(panel.shift_window(inside)?),
                // One walk over M's rows for every level, each level's
                // operations those of `PropagationVector::step` over Mᵀ.
                |panel, _| {
                    chain.step_levels_backward(panel)?;
                    Ok(panel.levels() as u64)
                },
                |panel, t| {
                    snapshots.insert(t, panel.to_levels());
                },
            );
        }
        let ones = window_indicator(window)?;
        let mut h = match family {
            Some((levels, _)) => PropagationVector::from_span(levels[0].clone()),
            None if rule == FieldRule::ForAll => PropagationVector::from_sparse(ones.clone()),
            None => PropagationVector::from_sparse(SparseVector::zeros(inside.dim())),
        };
        let snapshots = &mut self.snapshots;
        pipeline.backward_from(
            &mut h,
            resume,
            window,
            anchor_times,
            // Transposed M+ surgery, applied when the step's target time is
            // in T▫, before h_{t-1} is evaluated as M · w on the hybrid
            // vector.
            |h| {
                if rule == FieldRule::ForAll {
                    // What is kept has at most |S▫| entries: back to sparse.
                    *h = PropagationVector::from_sparse(h.split_masked(inside));
                } else {
                    let _ = h.extract_masked(inside);
                    h.add_sparse(&ones)?;
                }
                Ok(())
            },
            // A gather along M's rows, or the sorted-index scatter over
            // Mᵀ — the operations of `PropagationVector::step` over Mᵀ, in
            // the same order.
            |h, scratch| {
                chain.step_backward(h, scratch)?;
                Ok(1)
            },
            |h, t| {
                snapshots.insert(t, vec![h.to_span()]);
            },
        )
    }

    /// The level family snapshotted at anchor time `t`, if it was
    /// requested: one vector (`h_t` / `g_t`) under the ∃ / ∀ rules; under
    /// [`FieldRule::KTimes`] `levels[0]` is the deficit `1 − f_t(·, 0)` and
    /// `levels[j]`, `j ≥ 1`, the probability of exactly `j` further window
    /// visits in `(t, t_end]`, per state.
    pub fn at(&self, t: u32) -> Option<&[SpanVector]> {
        self.snapshots.get(&t).map(Vec::as_slice)
    }

    /// The earliest snapshotted time — how far down the sweep has run.
    pub fn min_time(&self) -> Option<u32> {
        self.snapshots.keys().next().copied()
    }

    /// Iterates the snapshotted anchor times in ascending order.
    pub fn times(&self) -> impl Iterator<Item = u32> + '_ {
        self.snapshots.keys().copied()
    }

    /// True when every time in `anchor_times` has a snapshot.
    pub fn covers(&self, anchor_times: &[u32]) -> bool {
        anchor_times.iter().all(|t| self.snapshots.contains_key(t))
    }

    /// The field read at anchor time `t`: the snapshot family there and
    /// whether `t` is a query timestamp, resolved once for every object
    /// anchored at `t`. `None` without a snapshot at `t`.
    pub fn anchored_at<'f>(&'f self, t: u32, window: &'f QueryWindow) -> Option<AnchoredField<'f>> {
        let inside = window.time_in_window(t).then(|| window.states());
        Some(AnchoredField { rule: self.rule, levels: self.at(t)?, inside })
    }

    /// Answers one object from level 0 of the field
    /// ([`AnchoredField::probability`] at the object's anchor time).
    pub fn object_probability(
        &self,
        object: &UncertainObject,
        window: &QueryWindow,
    ) -> Option<f64> {
        Some(self.anchored_at(object.anchor().time(), window)?.probability(object))
    }
}

/// A [`BackwardField`] read at one anchor time
/// ([`BackwardField::anchored_at`]) — what the fan-out resolves once per
/// run of objects sharing an anchor time instead of once per object.
#[derive(Debug, Clone, Copy)]
pub struct AnchoredField<'f> {
    rule: FieldRule,
    levels: &'f [SpanVector],
    /// `S▫` when the anchor time is a query timestamp.
    inside: Option<&'f StateMask>,
}

impl AnchoredField<'_> {
    /// Answers one object anchored at this time from level 0 of the field:
    /// a sparse dot product of its anchor distribution with the snapshot,
    /// with the anchor-in-window adjustment — worlds inside `S▫` at an
    /// anchor in `T▫` count with probability 1 under the ∃ rule (and under
    /// the k-times rule, whose level 0 is the ∃ field), worlds outside it
    /// with probability 0 under the ∀ rule.
    pub fn probability(&self, object: &UncertainObject) -> f64 {
        let h = &self.levels[0];
        let anchor = object.anchor().distribution();
        // The adjustment depends on the anchor time alone: it is picked
        // once here, and an anchor outside T▫ reads the span as it is.
        unit_clamp(match (self.rule, self.inside) {
            (_, None) => dot(anchor, |s| h.get(s)),
            (FieldRule::Exists | FieldRule::KTimes, Some(states)) => {
                dot(anchor, |s| if states.contains(s) { 1.0 } else { h.get(s) })
            }
            (FieldRule::ForAll, Some(states)) => {
                dot(anchor, |s| if states.contains(s) { h.get(s) } else { 0.0 })
            }
        })
    }

    /// Answers one object anchored at this time from a
    /// [`FieldRule::KTimes`] field: `P(k)` for `k ∈ {0..|T▫|}`, every entry
    /// in `[0, 1]`. `None` under any other rule.
    pub fn distribution(&self, object: &UncertainObject) -> Option<Vec<f64>> {
        if self.rule != FieldRule::KTimes {
            return None;
        }
        let levels = self.levels;
        let level = |j: usize, s: usize| match j {
            0 => 1.0 - levels[0].get(s),
            _ => levels[j].get(s),
        };
        let mut out = vec![0.0; levels.len()];
        for (s, mass) in object.anchor().distribution().iter() {
            // Footnote 3: anchor mass inside the window has one visit
            // already.
            let visited = usize::from(self.inside.is_some_and(|states| states.contains(s)));
            for (k, slot) in out.iter_mut().enumerate().skip(visited) {
                *slot += mass * level(k - visited, s);
            }
        }
        // Sums of many products overshoot 1 by an ulp or two.
        for p in &mut out {
            *p = unit_clamp(*p);
        }
        Some(out)
    }
}

/// `Σ mass · value(s)` over the anchor's entries, in ascending state order.
fn dot(anchor: &SparseVector, value: impl Fn(usize) -> f64) -> f64 {
    anchor.iter().fold(0.0, |p, (s, mass)| p + mass * value(s))
}

/// A model's populated object group, validated against one window: how
/// many members it has, their distinct anchor times and the anchor totals
/// the planner costs with — everything a backward sweep, a reach plan or a
/// cost estimate needs, gathered in the one pass that validates. Which
/// objects the members are is the grouped index list's to say.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModelGroup {
    /// Model index into `db.models()`.
    pub model: usize,
    /// Number of grouped objects following the model.
    pub count: usize,
    /// The members' distinct anchor times, ascending — the snapshot times
    /// of the model's backward field.
    pub times: Vec<u32>,
    /// Σ of the members' anchor times.
    pub time_sum: u64,
    /// Σ of the members' anchor-distribution `nnz`: the size of the
    /// query-based dot products.
    pub anchor_nnz: usize,
}

impl ModelGroup {
    pub(crate) fn new(model: usize) -> Self {
        ModelGroup { model, count: 0, times: Vec::new(), time_sum: 0, anchor_nnz: 0 }
    }

    /// Adds an object anchored at `t`, above every member so far in index
    /// order. A time equal to the previous member's is not pushed
    /// again — objects ingested together sit next to each other — and
    /// [`group_on`] sorts and dedups the short list that is left once at
    /// the end.
    fn push(&mut self, t: u32, object: &UncertainObject) {
        if self.times.last() != Some(&t) {
            self.times.push(t);
        }
        self.join(t, object.anchor().distribution().nnz());
    }

    /// Counts in a member anchored at `t` with `nnz` anchor entries — the
    /// distinct times are the caller's to keep.
    pub(crate) fn join(&mut self, t: u32, nnz: usize) {
        self.count += 1;
        self.time_sum += u64::from(t);
        self.anchor_nnz += nnz;
    }

    /// Counts out a member [`ModelGroup::join`] counted in; `None` when the
    /// totals hold no such member.
    pub(crate) fn leave(&mut self, t: u32, nnz: usize) -> Option<()> {
        self.count = self.count.checked_sub(1)?;
        self.time_sum = self.time_sum.checked_sub(u64::from(t))?;
        self.anchor_nnz = self.anchor_nnz.checked_sub(nnz)?;
        Some(())
    }
}

/// Validates the objects at `indices` (ascending database indices) and
/// groups them by model — the shared front half of the sequential reference
/// drivers and the planner's `prepare`, whose groups the cost model, the
/// shared-field plans and the reach plans read, so the validation and
/// anchor-collection rules cannot diverge between them.
///
/// One pass in index order; the error is the first offender's under
/// [`validate`], the one every strategy reports. `insert`, `ingest` and
/// `with_models` keep every object at its model's dimension and every model
/// at the store's, so of `validate`'s checks only the anchor time can
/// differ from object to object: the window's dimension is checked once
/// per model, when its group gets its first member — the same error, at
/// the same object, as checking it at every object.
pub(crate) fn group_on(
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
) -> Result<Vec<ModelGroup>> {
    let models = db.models();
    let mut groups: Vec<ModelGroup> = (0..models.len()).map(ModelGroup::new).collect();
    for &idx in indices {
        let object = db
            .object(idx)
            .ok_or(QueryError::internal("model grouping received an unresolved object index"))?;
        let (model, t) = (object.model(), object.anchor().time());
        let (chain, group) = (&models[model], &mut groups[model]);
        debug_assert!(
            object.num_states() == chain.num_states() && chain.num_states() == db.num_states(),
            "the store keeps objects and models at its dimension"
        );
        if group.count == 0 {
            check_window(chain, window)?;
        }
        check_anchor_time(t, window)?;
        group.push(t, object);
    }
    groups.retain(|group| group.count > 0);
    for group in &mut groups {
        group.times.sort_unstable();
        group.times.dedup();
    }
    Ok(groups)
}

/// A query's backward fields, swept **exactly once** per
/// `(model, window, rule)` and shared read-only across the evaluation
/// fan-out.
///
/// This is the stage the planner's query-based dispatch runs *before*
/// sharding: every populated model's [`BackwardField`] is fetched from (or
/// swept into) the processor's lock-guarded [`FieldCache`] and held as an
/// [`Arc`], so workers receive cheap read-only views instead of
/// re-sweeping the field per shard. The deduplication is surfaced through
/// [`EvalStats::fields_shared`]: one increment per field a plan serves,
/// independent of how many workers consume it.
#[derive(Debug)]
pub(crate) struct SharedFieldPlan {
    fields: Vec<Option<Arc<BackwardField>>>,
}

impl SharedFieldPlan {
    /// Serves one backward field per group the planner already validated
    /// against `window` — one cache lookup per group, snapshotted at its
    /// distinct anchor times: hits and suffix extensions pay no (or less)
    /// backward work, fresh windows sweep once and stay cached for the
    /// next query. `None` entries are models without objects.
    ///
    /// The cache lock is held only to probe and install — the backward
    /// sweeps themselves run outside it
    /// ([`FieldCache::get_or_compute_shared_concurrent`]), so concurrent
    /// queries over distinct windows (an async submission burst) sweep in
    /// parallel instead of convoying on the cache, and the fan-out works on
    /// the returned `Arc` views.
    pub(crate) fn from_groups(
        db: &TrajectoryDatabase,
        groups: &[ModelGroup],
        window: &QueryWindow,
        rule: FieldRule,
        config: &EngineConfig,
        cache: &Mutex<FieldCache, CACHE>,
        stats: &mut EvalStats,
    ) -> Result<SharedFieldPlan> {
        let mut fields: Vec<Option<Arc<BackwardField>>> =
            (0..db.models().len()).map(|_| None).collect();
        for group in groups {
            let chain = &db.models()[group.model];
            fields[group.model] = Some(FieldCache::get_or_compute_shared_concurrent(
                cache,
                group.model,
                chain,
                window,
                rule,
                &group.times,
                config,
                stats,
            )?);
        }
        Ok(SharedFieldPlan { fields })
    }

    /// The shared field of `model`, if the model has objects.
    pub(crate) fn field(&self, model: usize) -> Option<&Arc<BackwardField>> {
        self.fields.get(model).and_then(|f| f.as_ref())
    }

    /// Per model, its shared field (`None`: a model without objects).
    pub(crate) fn fields(&self) -> &[Option<Arc<BackwardField>>] {
        &self.fields
    }

    /// Number of populated models (fields the plan shares).
    pub(crate) fn num_fields(&self) -> usize {
        self.fields.iter().filter(|f| f.is_some()).count()
    }
}

/// `object`'s ∃ / ∀ answer row, read from its model's field at the
/// object's anchor time.
pub(crate) fn probability_row(
    field: &AnchoredField<'_>,
    object: &UncertainObject,
) -> Option<ObjectProbability> {
    Some(ObjectProbability { object_id: object.id(), probability: field.probability(object) })
}

/// The fan-out's one-entry memo: the field of an object's model read at
/// its anchor time, resolved again only when `(model, anchor time)` changes
/// from one object to the next — objects arrive in index order, so a
/// database ingested at one timestamp resolves once.
pub(crate) struct AnchorMemo<'f> {
    current: Option<((usize, u32), AnchoredField<'f>)>,
}

impl<'f> AnchorMemo<'f> {
    pub(crate) fn new() -> Self {
        AnchorMemo { current: None }
    }

    /// `object`'s [`AnchoredField`], with `field_of` naming its model's
    /// field on a miss.
    pub(crate) fn resolve(
        &mut self,
        object: &UncertainObject,
        window: &'f QueryWindow,
        field_of: impl FnOnce(usize) -> Option<&'f BackwardField>,
    ) -> Result<AnchoredField<'f>> {
        let key = (object.model(), object.anchor().time());
        match self.current {
            Some((current, anchored)) if current == key => Ok(anchored),
            _ => {
                let anchored = field_of(key.0)
                    .and_then(|field| field.anchored_at(key.1, window))
                    .ok_or(QueryError::internal(
                    "anchor snapshot was requested from the backward field",
                ))?;
                self.current = Some((key, anchored));
                Ok(anchored)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::object_based::{evaluate_one, Exists};
    use crate::engine::QueryProcessor;
    use crate::observation::Observation;
    use crate::query::{Query, Strategy};
    use crate::testkit::{paper_chain, paper_window, solo};
    use ust_markov::{CsrMatrix, DenseVector};
    use ust_space::TimeSet;

    /// `P∃` of one object through the front door, query-based.
    fn exists_qb(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> f64 {
        let spec = Query::exists().window(window.clone()).strategy(Strategy::QueryBased);
        solo(chain, object, spec).unwrap().probabilities().unwrap()[0].probability
    }

    /// The query-based ∃ probabilities of every object of `db`.
    fn evaluate(
        db: &TrajectoryDatabase,
        window: &QueryWindow,
        stats: &mut EvalStats,
    ) -> Vec<ObjectProbability> {
        let spec = Query::exists().window(window.clone()).strategy(Strategy::QueryBased);
        let answer = QueryProcessor::new(db).execute_with_stats(&spec.build().unwrap(), stats);
        answer.unwrap().probabilities().unwrap().to_vec()
    }

    #[test]
    fn backward_field_matches_example_2() {
        // P(t=0) = (0.96, 0.864, 0.928) per the paper's Example 2 (the ⊤
        // component of the paper's 4-vector is implicit here).
        let mut stats = EvalStats::new();
        let field =
            BackwardField::compute(&paper_chain(), &paper_window(), &[0], &mut stats).unwrap();
        let h0 = field.at(0).unwrap()[0].to_dense();
        assert!(h0.approx_eq(&DenseVector::from_vec(vec![0.96, 0.864, 0.928]), 1e-12));
        assert_eq!(stats.backward_steps, 3);
        assert!(field.at(1).is_none(), "only requested snapshots are kept");
    }

    #[test]
    fn single_object_probability_is_0864() {
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap());
        let p = exists_qb(&paper_chain(), &object, &paper_window());
        assert!((p - 0.864).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_object_based_on_uncertain_anchor() {
        let chain = paper_chain();
        let start =
            ust_markov::SparseVector::from_pairs(3, [(0, 0.5), (1, 0.2), (2, 0.3)]).unwrap();
        let object =
            UncertainObject::with_single_observation(9, Observation::uncertain(0, start).unwrap());
        let window = paper_window();
        let qb = exists_qb(&chain, &object, &window);
        let config = EngineConfig::default();
        let ob = evaluate_one(&chain, &object, &window, &config, &mut EvalStats::new(), Exists);
        let ob = ob.unwrap().probability;
        assert!((qb - ob).abs() < 1e-12);
    }

    #[test]
    fn anchor_inside_window_clamps_to_one() {
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(2, 3, 1).unwrap());
        let p = exists_qb(&paper_chain(), &object, &paper_window());
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anchor_at_t_end_outside_states_scores_zero() {
        // Anchor exactly at t_end but outside S▫: no future query times
        // remain, so the probability is 0.
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(3, 3, 2).unwrap());
        let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::at(3)).unwrap();
        let p = exists_qb(&paper_chain(), &object, &window);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn batch_evaluation_mixed_anchor_times() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(UncertainObject::with_single_observation(
            0,
            Observation::exact(0, 3, 1).unwrap(),
        ))
        .unwrap();
        db.insert(UncertainObject::with_single_observation(
            1,
            Observation::exact(1, 3, 2).unwrap(),
        ))
        .unwrap();
        let mut stats = EvalStats::new();
        let results = evaluate(&db, &paper_window(), &mut stats);
        assert_eq!(results.len(), 2);
        assert!((results[0].probability - 0.864).abs() < 1e-12);
        // Object anchored at t=1 on s3: h_1(s3) = 0.96 (from Example 2).
        assert!((results[1].probability - 0.96).abs() < 1e-12);
        // One shared backward sweep: 3 steps, not 3 + 2.
        assert_eq!(stats.backward_steps, 3);
        assert_eq!(stats.objects_evaluated, 2);
    }

    #[test]
    fn per_model_backward_passes() {
        // Two models: the paper chain and a "frozen" identity chain.
        let frozen = MarkovChain::from_csr(CsrMatrix::identity(3)).unwrap();
        let mut db = TrajectoryDatabase::with_models(vec![paper_chain(), frozen]).unwrap();
        db.insert(UncertainObject::with_single_observation(
            0,
            Observation::exact(0, 3, 1).unwrap(),
        ))
        .unwrap();
        db.insert(
            UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap())
                .with_model(1),
        )
        .unwrap();
        let results = evaluate(&db, &paper_window(), &mut EvalStats::new());
        assert!((results[0].probability - 0.864).abs() < 1e-12);
        // Frozen object stays at s2 ∈ S▫ forever: hits with certainty.
        assert!((results[1].probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn groups_carry_distinct_times_and_serve_the_cache_alike() {
        // Stream-like: anchor times interleave and repeat.
        let anchors = [0u32, 3, 0, 5, 3, 1, 5, 0, 3];
        let mut db = TrajectoryDatabase::new(paper_chain());
        for (id, &t) in anchors.iter().enumerate() {
            let fix = Observation::exact(t, 3, id % 3).unwrap();
            db.insert(UncertainObject::with_single_observation(id as u64, fix)).unwrap();
        }
        let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(6, 8)).unwrap();
        let all: Vec<usize> = (0..anchors.len()).collect();
        let groups = group_on(&db, &all, &window).unwrap();
        let mut distinct = anchors.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].count, all.len());
        assert_eq!(groups[0].times, distinct);
        assert_eq!(groups[0].time_sum, anchors.iter().copied().map(u64::from).sum::<u64>());
        assert_eq!(groups[0].anchor_nnz, anchors.len());

        // One lookup sequence — a miss, two suffix extensions, a union
        // recompute (t = 1 lies above the floor) and a hit — fed every
        // anchor or only the distinct times.
        let lookups: [&[usize]; 5] = [&all[3..4], &all[1..2], &all[..5], &all, &all];
        let run = |distinct_only: bool| {
            let cache = Mutex::new(FieldCache::new(4));
            let mut stats = EvalStats::new();
            let mut fields = Vec::new();
            for indices in lookups {
                let times: Vec<u32> = if distinct_only {
                    group_on(&db, indices, &window).unwrap()[0].times.clone()
                } else {
                    indices.iter().map(|&i| anchors[i]).collect()
                };
                fields.push(
                    FieldCache::get_or_compute_shared_concurrent(
                        &cache,
                        0,
                        &db.models()[0],
                        &window,
                        FieldRule::Exists,
                        &times,
                        &EngineConfig::default(),
                        &mut stats,
                    )
                    .unwrap(),
                );
            }
            ((stats.cache_hits, stats.cache_misses, stats.backward_steps), fields)
        };
        let (every_anchor, fields) = run(false);
        let (distinct_times, distinct_fields) = run(true);
        assert_eq!(every_anchor.0, 3, "two extensions and a hit");
        assert_eq!(every_anchor.1, 2, "the first lookup and the union recompute");
        assert_eq!(every_anchor, distinct_times);
        for (a, b) in fields.iter().zip(&distinct_fields) {
            assert_eq!(a.times().collect::<Vec<_>>(), b.times().collect::<Vec<_>>());
            for t in a.times() {
                assert_eq!(a.at(t), b.at(t), "snapshot at t = {t}");
            }
        }
    }

    #[test]
    fn empty_database_evaluates_to_empty() {
        let db = TrajectoryDatabase::new(paper_chain());
        let results = evaluate(&db, &paper_window(), &mut EvalStats::new());
        assert!(results.is_empty());
    }
}
