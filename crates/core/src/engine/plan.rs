//! The query planner: from a declarative [`QuerySpec`] to an executed
//! [`QueryAnswer`].
//!
//! The paper's central observation is that the query model (predicate ×
//! decorator × window) and the evaluation technique (object-based forward
//! vs. query-based backward) are **orthogonal axes**: any predicate can be
//! answered by either strategy, with identical results and very different
//! costs. This module owns that choice. [`QueryPlan`] is the planner's
//! decision record: per-strategy cost estimates derived from database and
//! window statistics (object count, propagation horizon, matrix density,
//! backward-field cache residency), the chosen [`Strategy`], and a
//! human-readable rationale. The module is the two halves of a query's
//! life, and clock-free: `prepare` resolves the spec's scope, rejects a
//! window no strategy answers, runs the index filter over the scope — the
//! reachability cone, narrowed for an ∃ threshold by the τ-superlevel set
//! of a backward field already in the cache; it holds one candidate set,
//! the survivors; the pruned rest of the scope stays implicit — and
//! validates and groups the survivors by model with
//! their distinct anchor times, whatever the strategy, so the strategy can
//! never change which error a query reports. When asked it also costs
//! ([`crate::engine::QueryProcessor::explain`] is `prepare` alone). An
//! indexed read memoises what it prepared (`PlanMemo`) and, after the
//! store was written, patches it from the store's write log instead of
//! preparing it again. The groups ride in `Prepared` to `refine`, whose
//! field and reach plans are built from them; `refine` dispatches to the batched, sharded
//! forward and backward drivers and spells the pruned objects out as exact
//! zeros only where an answer needs them — a probability answer writes the
//! scope's zeros in one pass in store order and overwrites the survivors'
//! slots with their rows — so planned answers are bit-for-bit identical to
//! the reference configuration's (one thread, batch 1, one cache entry, no
//! prefilter; pinned by `tests/query_planner.rs`). The serving
//! function that strings them together, times them and records them lives
//! with the processor.
//!
//! ## Cost model
//!
//! Costs are counted in *matrix-entry touches*, the unit of the paper's
//! complexity claims (`O(|D|·|S_reach|²·δt)` for OB vs
//! `O(|D| + |S_reach|²·δt)` for QB):
//!
//! * **Object-based**: every object propagates from its anchor to
//!   `t_end`, so the step work is `Σ_o (t_end − t_o) × L × nnz(M)`, where
//!   `L` is the number of rows per object (1 for ∃/∀, `|T▫|+1` count
//!   levels for PSTkQ). Threshold and top-k decorators terminate early on
//!   bound decisions, modelled as a constant ×0.5 discount. The estimate
//!   is an upper bound: the sweep is trimmed to the window's reach and
//!   touches far fewer entries when the window is selective.
//! * **Query-based**: one backward sweep per populated model —
//!   `(t_end − min_o t_o) × L × nnz(M)` — plus one sparse dot product per
//!   object. A sweep whose `(model, window, rule)` field is **cache-resident**
//!   costs nothing; a field extendable downward pays only the missing
//!   suffix. This is what makes repeated dashboards and bursts plan to QB.
//!
//! The estimates are deliberately coarse — they rank strategies, they do
//! not predict wall clock.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use crate::database::{AnchorKey, TrajectoryDatabase};
use crate::engine::cache::{residency_of, FieldCache};
use crate::engine::object_based::{check_anchor_time, check_window, ForwardRule, ReachPlan};
use crate::engine::query_based::{
    group_on, probability_row, AnchorMemo, AnchoredField, BackwardField, FieldRule, ModelGroup,
    SharedFieldPlan,
};
use crate::engine::{forall, ktimes, object_based, EngineConfig, PrefilterMode};
use crate::error::{QueryError, Result};
use crate::index::{intersect_sorted, IndexBuild, SpatioTemporalIndex};
use crate::object::UncertainObject;
use crate::parallel::run_sharded;
use crate::prefilter::Superlevel;
use crate::query::{
    Decorator, ObjectKDistribution, ObjectProbability, Predicate, QueryAnswer, QuerySpec,
    QueryWindow, Strategy,
};
use crate::ranking;
use crate::stats::EvalStats;
use crate::sync::{Mutex, CACHE};
use crate::threshold::Threshold;

/// Discount applied to the object-based step estimate when a threshold or
/// top-k decorator lets the forward sweep terminate on bound decisions.
const OB_EARLY_TERMINATION_DISCOUNT: f64 = 0.5;

/// Under [`PrefilterMode::Auto`], candidate sets smaller than this skip the
/// index pass: the O(|D∩|) bookkeeping of a pruned dispatch is unlikely to
/// beat just evaluating everyone. [`PrefilterMode::On`] ignores the floor.
const PREFILTER_AUTO_MIN_OBJECTS: usize = 256;

/// A strategy's estimated evaluation cost, in matrix-entry touches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Propagation work: forward steps (OB) or backward sweep steps (QB),
    /// scaled by the matrix density.
    pub step_ops: f64,
    /// Per-object finishing work: result assembly (OB) or anchor dot
    /// products (QB).
    pub object_ops: f64,
}

impl CostEstimate {
    /// The total estimated cost.
    pub fn total(&self) -> f64 {
        self.step_ops + self.object_ops
    }
}

/// The planner's decision record for one [`QuerySpec`]: inputs, per-
/// strategy estimates, the chosen strategy and the rationale.
///
/// Obtained from [`crate::engine::QueryProcessor::explain`]; the
/// [`fmt::Display`] implementation renders a compact report.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The strategy the query will run under (never [`Strategy::Auto`]:
    /// an `Auto` spec is resolved, an explicit override is echoed).
    pub strategy: Strategy,
    /// Estimated cost of object-based evaluation — an upper bound: it
    /// charges every object the whole matrix per step and ignores reach
    /// trimming, which stops paying for states (and objects) the window
    /// cannot be reached from.
    pub object_based: CostEstimate,
    /// Estimated cost of query-based evaluation (cache-aware).
    pub query_based: CostEstimate,
    /// Objects the query touches (after any subset restriction).
    pub num_objects: usize,
    /// Populated transition models among those objects (= backward fields
    /// a query-based run needs).
    pub num_models: usize,
    /// Models whose backward field is fully cache-resident for this
    /// window and anchor population (a QB run would sweep nothing).
    pub cached_fields: usize,
    /// Models whose cached field covers a suffix and can be extended
    /// downward instead of recomputed.
    pub extendable_fields: usize,
    /// `|S▫|` of the window.
    pub window_states: usize,
    /// `|T▫|` of the window.
    pub window_times: usize,
    /// The propagation horizon `t_end = max(T▫)`.
    pub horizon: u32,
    /// Candidate objects handed to the engines after the index prefilter —
    /// the `|D∩|` the cost estimates above were computed over. Equals
    /// [`QueryPlan::num_objects`] when no pruning ran.
    pub candidates_examined: usize,
    /// Candidate objects discarded by the spatio-temporal index before
    /// costing, by either of its filters (zero when no pruning ran): the
    /// cone's have `P∃ = 0` exactly, the superlevel's `P∃ < τ`.
    pub candidates_pruned: usize,
    /// The part of [`QueryPlan::candidates_pruned`] only the τ-superlevel
    /// filter discarded: objects whose cone reaches the window but whose
    /// anchor support misses the cached field's superlevel set, so their
    /// `P∃` is below the threshold `τ`. Non-zero only for an ∃ threshold
    /// `τ > 0` whose backward field was already cached.
    pub superlevel_pruned: usize,
    /// One-line human-readable rationale for the choice.
    pub reason: String,
}

/// Estimates compare by their bits, so two equal plans render identically.
impl PartialEq for QueryPlan {
    fn eq(&self, other: &Self) -> bool {
        let bits = |c: &CostEstimate| [c.step_ops.to_bits(), c.object_ops.to_bits()];
        // Destructured, so a field added later cannot be left out.
        let QueryPlan {
            strategy,
            object_based,
            query_based,
            num_objects,
            num_models,
            cached_fields,
            extendable_fields,
            window_states,
            window_times,
            horizon,
            candidates_examined,
            candidates_pruned,
            superlevel_pruned,
            reason,
        } = self;
        *strategy == other.strategy
            && bits(object_based) == bits(&other.object_based)
            && bits(query_based) == bits(&other.query_based)
            && (*num_objects, *num_models, *cached_fields, *extendable_fields)
                == (
                    other.num_objects,
                    other.num_models,
                    other.cached_fields,
                    other.extendable_fields,
                )
            && (*window_states, *window_times, *horizon)
                == (other.window_states, other.window_times, other.horizon)
            && (*candidates_examined, *candidates_pruned, *superlevel_pruned)
                == (other.candidates_examined, other.candidates_pruned, other.superlevel_pruned)
            && *reason == other.reason
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {:?} — {} (|D∩| = {}, models = {}, window {}×{} to t = {})",
            self.strategy,
            self.reason,
            self.num_objects,
            self.num_models,
            self.window_states,
            self.window_times,
            self.horizon,
        )?;
        writeln!(
            f,
            "  object-based : {:>12.0} step ops + {:>10.0} object ops = {:>12.0}",
            self.object_based.step_ops,
            self.object_based.object_ops,
            self.object_based.total()
        )?;
        write!(
            f,
            "  query-based  : {:>12.0} step ops + {:>10.0} object ops = {:>12.0} \
             ({} cached, {} extendable of {} fields)",
            self.query_based.step_ops,
            self.query_based.object_ops,
            self.query_based.total(),
            self.cached_fields,
            self.extendable_fields,
            self.num_models,
        )?;
        if self.candidates_pruned > 0 {
            write!(
                f,
                "\n  prefilter    : {} of {} candidate(s) examined, {} pruned by the \
                 spatio-temporal index",
                self.candidates_examined, self.num_objects, self.candidates_pruned,
            )?;
            if self.superlevel_pruned > 0 {
                write!(f, " ({} of them by the τ-superlevel set)", self.superlevel_pruned)?;
            }
        }
        Ok(())
    }
}

/// Everything an execution needs besides the spec — borrowed from the
/// [`crate::engine::QueryProcessor`] for synchronous calls, owned (via
/// `Arc`s and a database snapshot) by asynchronous submissions.
pub(crate) struct ExecContext<'a> {
    /// The database (or an owned snapshot of it).
    pub db: &'a TrajectoryDatabase,
    /// Engine tuning knobs.
    pub config: &'a EngineConfig,
    /// The backward-field cache shared across queries.
    pub cache: &'a Mutex<FieldCache, CACHE>,
    /// The processor's serving registry: every execution is recorded
    /// here.
    pub metrics: &'a crate::serving::Metrics,
}

/// What a spec addresses, before any filtering.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Scope {
    /// The whole database, as its length: an index probe never has to
    /// materialise `0..len` just to discard most of it.
    Database(usize),
    /// The spec's object-id subset, as ascending database indices.
    Subset(Vec<usize>),
}

impl Scope {
    fn len(&self) -> usize {
        match self {
            Scope::Database(len) => *len,
            Scope::Subset(indices) => indices.len(),
        }
    }

    /// Each object in scope, ascending, with its position in the scope's
    /// ascending `survivors` — or `None` for one the index pruned, whose
    /// `P∃` is `0` exactly: the walk a `τ = 0` threshold answer, which
    /// accepts the pruned objects, takes against a survivor cursor.
    fn against<'a>(
        &'a self,
        survivors: &'a [usize],
    ) -> impl Iterator<Item = (usize, Option<usize>)> + 'a {
        let mut cursor = 0usize;
        (0..self.len()).map(move |i| {
            let idx = match self {
                Scope::Database(_) => i,
                Scope::Subset(indices) => indices[i],
            };
            let survivor = (survivors.get(cursor) == Some(&idx)).then_some(cursor);
            cursor += usize::from(survivor.is_some());
            (idx, survivor)
        })
    }
}

/// Maps a spec's optional object-id subset to its [`Scope`]: the whole
/// database, or the [`holders`] of the ids.
fn resolve_scope(db: &TrajectoryDatabase, spec: &QuerySpec) -> Result<Scope> {
    match spec.objects() {
        None => Ok(Scope::Database(db.len())),
        Some(ids) => holders(db, ids).map(Scope::Subset),
    }
}

/// The ascending database indices of every object holding one of `ids`
/// (ascending, distinct) — the scope of an id subset, and the entries a
/// standing query's refresh rewrites. Fails with
/// [`QueryError::UnknownObject`] (the smallest missing id) when an id does
/// not exist. On a store with ascending ids — id order is index order —
/// each id is bisected, O(k·log |D|); otherwise one walk over the store
/// collects every holder of a requested id.
pub(crate) fn holders(db: &TrajectoryDatabase, ids: &[u64]) -> Result<Vec<usize>> {
    if db.ids_ascending() {
        return ids
            .iter()
            .map(|&id| db.index_of(id).ok_or(QueryError::UnknownObject { id }))
            .collect();
    }
    let mut out = Vec::with_capacity(ids.len());
    let mut matched = vec![false; ids.len()];
    for (idx, object) in db.objects().iter().enumerate() {
        if let Ok(pos) = ids.binary_search(&object.id()) {
            matched[pos] = true;
            out.push(idx);
        }
    }
    if let Some(pos) = matched.iter().position(|m| !m) {
        return Err(QueryError::UnknownObject { id: ids[pos] });
    }
    Ok(out)
}

/// The spatio-temporal index, when running it over the spec's scope is
/// both enabled and *provably answer-preserving*. Returns `None` whenever
/// the unpruned path must run instead — which is the common case:
///
/// * [`PrefilterMode::Off`], or [`PrefilterMode::Auto`] on a scope below
///   the size floor, or no index (no attached space);
/// * a predicate other than `∃`, or the top-k decorator: pruned objects
///   would have to be re-synthesized into the answer, and only the `∃`
///   probability/threshold shapes make that bit-exact (a cone-pruned
///   object's `P∃` is `0.0` exactly in every engine, whereas `∀`/PSTkQ
///   answers carry float residue and OB top-k dismisses on its own bounds,
///   with a different omission contract);
/// * a window whose mask dimension differs from the database's, or one
///   starting before the latest first observation over the scope — in
///   both cases validation may reject an object, it sees only the
///   survivors, and pruning must never mask that error.
fn armed_index(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    scope: &Scope,
) -> Option<Arc<SpatioTemporalIndex>> {
    match ctx.config.prefilter {
        PrefilterMode::Off => return None,
        PrefilterMode::Auto if scope.len() < PREFILTER_AUTO_MIN_OBJECTS => return None,
        PrefilterMode::Auto | PrefilterMode::On => {}
    }
    if spec.predicate() != Predicate::Exists || matches!(spec.decorator(), Decorator::TopK(_)) {
        return None;
    }
    let index = ctx.db.spatial_index()?;
    let window = spec.window();
    if window.states().dim() != ctx.db.num_states() {
        return None;
    }
    // Validation guard: answering for a pruned object without touching it
    // is only sound when per-object validation could not have rejected the
    // window. All dimensions already match, so the only per-object check
    // left is `t_start ≥ anchor time` — over the whole database that is
    // the index's own maximum; over an explicit subset, an O(k) fold.
    let max_anchor = match scope {
        Scope::Database(_) => index.max_anchor_time(),
        Scope::Subset(indices) => indices
            .iter()
            .filter_map(|&idx| ctx.db.object(idx).map(|o| o.anchor().time()))
            .max()
            .unwrap_or(0),
    };
    (window.t_start() >= max_anchor).then_some(index)
}

/// The key of a memoised plan: everything of the spec that `prepare`
/// reads besides the store — the window (by value: hashed by its
/// fingerprint, confirmed by comparing states and times), the decorator
/// with its τ by bits, the requested strategy, whether it was costed, and
/// the id subset by value. The memo map owns these; a read looks its plan
/// up by the [`PlanKeyRef`] it borrows from its spec, and builds an owned
/// key only to install a plan.
#[derive(Clone)]
pub(crate) struct PlanKey {
    window: QueryWindow,
    decorator: (u8, u64),
    strategy: Strategy,
    cost: bool,
    subset: Option<Vec<u64>>,
}

/// A [`PlanKey`] borrowed from the spec it is made of.
#[derive(Clone, Copy)]
pub(crate) struct PlanKeyRef<'a> {
    window: &'a QueryWindow,
    decorator: (u8, u64),
    strategy: Strategy,
    cost: bool,
    subset: Option<&'a [u64]>,
}

impl<'a> PlanKeyRef<'a> {
    fn of(spec: &'a QuerySpec, cost: bool) -> PlanKeyRef<'a> {
        let decorator = match spec.decorator() {
            Decorator::Probabilities => (0, 0),
            Decorator::Threshold(tau) => (1, tau.to_bits()),
            Decorator::TopK(k) => (2, k as u64),
        };
        let (window, strategy, subset) = (spec.window(), spec.strategy(), spec.objects());
        PlanKeyRef { window, decorator, strategy, cost, subset }
    }

    fn owned(self) -> PlanKey {
        PlanKey {
            window: self.window.clone(),
            decorator: self.decorator,
            strategy: self.strategy,
            cost: self.cost,
            subset: self.subset.map(<[u64]>::to_vec),
        }
    }
}

impl PartialEq for PlanKeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.decorator, self.strategy, self.cost) == (other.decorator, other.strategy, other.cost)
            && self.subset == other.subset
            && self.window.fingerprint() == other.window.fingerprint()
            && self.window == other.window
    }
}

/// A plan key, owned or borrowed: what the memo map hashes and compares,
/// so a lookup by a [`PlanKeyRef`] finds the [`PlanKey`] it equals.
pub(crate) trait AsPlanKey {
    fn key(&self) -> PlanKeyRef<'_>;
}

impl AsPlanKey for PlanKey {
    fn key(&self) -> PlanKeyRef<'_> {
        let (window, subset) = (&self.window, self.subset.as_deref());
        PlanKeyRef {
            window,
            decorator: self.decorator,
            strategy: self.strategy,
            cost: self.cost,
            subset,
        }
    }
}

impl AsPlanKey for PlanKeyRef<'_> {
    fn key(&self) -> PlanKeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsPlanKey + 'a> for PlanKey {
    fn borrow(&self) -> &(dyn AsPlanKey + 'a) {
        self
    }
}

impl PartialEq for dyn AsPlanKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn AsPlanKey + '_ {}

/// Hashes the window's fingerprint and τ's bits alone — what tells a
/// processor's reads apart; keys that differ only in strategy, `cost` or
/// subset share a bucket and `eq` separates them.
impl Hash for dyn AsPlanKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let key = self.key();
        (key.window.fingerprint(), key.decorator.1).hash(state);
    }
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PlanKey {}

/// Hashes as its borrowed form, as the memo map's lookups require.
impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn AsPlanKey).hash(state);
    }
}

/// A plan `prepare` made, memoised in the [`FieldCache`] under its
/// [`PlanKey`] with everything else it was prepared from: the store's
/// version, the index build it filtered with, every model's cached ∃ field
/// of the window (by identity) and the superlevel geometry measured from
/// them. A later read of the same key on a store whose write log still
/// reaches that version patches it ([`PlanMemo::patched`]) instead of
/// preparing afresh.
pub(crate) struct PlanMemo {
    version: u64,
    build: IndexBuild,
    /// Per model, the ∃ field the plan was costed (and, under a threshold,
    /// filtered) against; `None` where none was cached. A `Weak` pins the
    /// allocation, so no other field can take its address while the memo
    /// lives, without keeping an evicted field's snapshots alive.
    fields: Vec<Option<Weak<BackwardField>>>,
    /// The τ-superlevel geometry the index filtered with.
    superlevel: Option<Arc<Superlevel>>,
    /// The objects in scope only the superlevel test discarded, ascending.
    cut: Vec<usize>,
    /// Per model, the survivors per anchor time, ascending by time: what
    /// keeps a group's distinct anchor times exact as objects leave it.
    tallies: Vec<Vec<(u32, usize)>>,
    prepared: Arc<Prepared>,
}

impl PlanMemo {
    /// The memo of `prepared`, made against `resident` by the armed
    /// `index` of `db`, with `cut` the scope's superlevel-pruned objects.
    fn of(
        db: &TrajectoryDatabase,
        index: &SpatioTemporalIndex,
        resident: &Resident,
        cut: Vec<usize>,
        prepared: Arc<Prepared>,
    ) -> PlanMemo {
        PlanMemo {
            version: db.version(),
            build: index.build_id(),
            fields: resident.fields.iter().map(|f| f.as_ref().map(Arc::downgrade)).collect(),
            superlevel: resident.superlevel.clone(),
            cut,
            tallies: tallies(db, &prepared.indices),
            prepared,
        }
    }

    /// True when `fields` are, model by model, the fields the plan was
    /// prepared against.
    fn same_fields(&self, fields: &[Option<Arc<BackwardField>>]) -> bool {
        let same =
            |(memo, peek): (&Option<Weak<BackwardField>>, &Option<Arc<BackwardField>>)| match (
                memo, peek,
            ) {
                (Some(memo), Some(peek)) => std::ptr::eq(memo.as_ptr(), Arc::as_ptr(peek)),
                (None, None) => true,
                _ => false,
            };
        self.fields.len() == fields.len() && self.fields.iter().zip(fields).all(same)
    }

    /// The plan brought up to date with the store: every object in `scope`
    /// written since the memo's version — `touched`, ascending and
    /// distinct, each with what it was at that version (`None`: inserted
    /// since) — is re-tested by the index and validated, its group counts
    /// move, and the survivors and the superlevel cut take the changes in
    /// one merge pass each; the plan is then costed afresh when `cost` is
    /// set. `None` — prepare afresh instead — when anything cannot be
    /// patched: an object the index does not hold in its overlay, a
    /// validation error, a model change, counts that do not add up.
    #[allow(clippy::too_many_arguments, reason = "prepare's inputs plus the memo's")]
    fn patched(
        &self,
        ctx: &ExecContext<'_>,
        spec: &QuerySpec,
        cost: bool,
        scope: &Scope,
        index: &SpatioTemporalIndex,
        resident: &Resident,
        touched: &[(usize, Option<AnchorKey>)],
    ) -> Option<(PlanMemo, usize)> {
        let (db, window, old) = (ctx.db, spec.window(), &self.prepared);
        let (rect, t_end) = (index.window_rect(window), window.t_end());
        let mut groups: Vec<ModelGroup> = (0..db.models().len()).map(ModelGroup::new).collect();
        for group in &old.groups {
            *groups.get_mut(group.model)? = group.clone();
        }
        let mut tallies = self.tallies.clone();
        let (mut survivor_edits, mut cut_edits) = (Vec::new(), Vec::new());
        let mut retested = 0;
        for &(idx, before) in touched {
            let in_scope = match scope {
                Scope::Database(len) => idx < *len,
                Scope::Subset(indices) => indices.binary_search(&idx).is_ok(),
            };
            if !in_scope {
                continue;
            }
            retested += 1;
            let (kept, cut) = index.retest(idx, &rect, t_end, resident.superlevel.as_deref())?;
            let was = old.indices.binary_search(&idx).is_ok();
            let was_cut = self.cut.binary_search(&idx).is_ok();
            if was {
                let before = before?;
                tally(tallies.get_mut(before.model)?, before.time, false)?;
                groups.get_mut(before.model)?.leave(before.time, before.nnz)?;
            }
            if kept {
                let object = db.object(idx)?;
                let now = AnchorKey::of(object);
                if before.is_some_and(|before| before.model != now.model) {
                    return None;
                }
                let group = groups.get_mut(now.model)?;
                if group.count == 0 {
                    check_window(&db.models()[now.model], window).ok()?;
                }
                check_anchor_time(now.time, window).ok()?;
                tally(tallies.get_mut(now.model)?, now.time, true)?;
                group.join(now.time, now.nnz);
            }
            if was != kept {
                survivor_edits.push((idx, kept));
            }
            if was_cut != cut {
                cut_edits.push((idx, cut));
            }
        }
        for group in &mut groups {
            group.times = tallies.get(group.model)?.iter().map(|&(t, _)| t).collect();
        }
        groups.retain(|group| group.count > 0);
        let indices = merged(&old.indices, &survivor_edits)?;
        let cut = merged(&self.cut, &cut_edits)?;
        let (pruned_from, superlevel_pruned) = match indices.len() < scope.len() {
            true => (Some(scope.clone()), cut.len()),
            false => (None, 0),
        };
        let mut prepared = Prepared {
            indices,
            pruned_from,
            superlevel_pruned,
            groups,
            strategy: spec.strategy(),
            plan: None,
        };
        if cost {
            cost_into(ctx, spec, &mut prepared, Some(resident));
        }
        let memo = PlanMemo {
            version: db.version(),
            build: self.build.clone(),
            fields: resident.fields.iter().map(|f| f.as_ref().map(Arc::downgrade)).collect(),
            superlevel: resident.superlevel.clone(),
            cut,
            tallies,
            prepared: Arc::new(prepared),
        };
        Some((memo, retested))
    }
}

/// Per model, how many of the objects at `indices` are anchored at each
/// time, ascending by time.
fn tallies(db: &TrajectoryDatabase, indices: &[usize]) -> Vec<Vec<(u32, usize)>> {
    let mut tallies = vec![Vec::new(); db.models().len()];
    for object in indices.iter().filter_map(|&idx| db.object(idx)) {
        if let Some(per_time) = tallies.get_mut(object.model()) {
            // Counts of one model; a survivor is always counted.
            let _ = tally(per_time, object.anchor().time(), true);
        }
    }
    tallies
}

/// Counts one object anchored at `time` into (`joins`) or out of a model's
/// per-time tally; `None` when there is none to take out.
fn tally(per_time: &mut Vec<(u32, usize)>, time: u32, joins: bool) -> Option<()> {
    match (per_time.binary_search_by_key(&time, |&(t, _)| t), joins) {
        (Ok(at), true) => per_time[at].1 += 1,
        (Err(at), true) => per_time.insert(at, (time, 1)),
        (Ok(at), false) if per_time[at].1 > 1 => per_time[at].1 -= 1,
        (Ok(at), false) => drop(per_time.remove(at)),
        (Err(_), false) => return None,
    }
    Some(())
}

/// The ascending `list` with `edits` applied — `(idx, true)` adds `idx`,
/// `(idx, false)` removes it; ascending by `idx` — in one pass that copies
/// the runs between edits whole. `None` when an edit does not fit the list
/// (an added index already there, a removed one missing).
fn merged(list: &[usize], edits: &[(usize, bool)]) -> Option<Vec<usize>> {
    let added = edits.iter().filter(|&&(_, adds)| adds).count();
    let mut out = Vec::with_capacity(list.len() + added);
    let mut rest = list;
    for &(idx, adds) in edits {
        let at = rest.partition_point(|&i| i < idx);
        out.extend_from_slice(&rest[..at]);
        rest = &rest[at..];
        let present = rest.first() == Some(&idx);
        if adds == present {
            return None;
        }
        if adds {
            out.push(idx);
        } else {
            rest = &rest[1..];
        }
    }
    out.extend_from_slice(rest);
    Some(out)
}

/// The ∃ fields of a window that the cache holds, peeked under the lock
/// in which `prepare` reads its plan memo.
struct Resident {
    /// Per model, its cached ∃ field (`None` when not cached): what the
    /// cost model classifies residency from, so costing an armed read takes
    /// no lock of its own.
    fields: Vec<Option<Arc<BackwardField>>>,
    /// For an ∃ threshold `τ > 0` whose every model's field is cached: the
    /// union over models of the fields' τ-superlevel geometries under the
    /// index's embedding, since an object of any model may be anchored at
    /// any time.
    superlevel: Option<Arc<Superlevel>>,
}

/// A field the caller peeked and the τ-superlevel geometry measured from it.
type Measured = (Arc<BackwardField>, Arc<Superlevel>);

/// The union over models of the τ-superlevel geometries of `fields`, when
/// every model has one: each model's taken from `memoised` where the cache
/// held it, measured otherwise — returned beside the union for the caller
/// to memoise.
fn superlevel_of(
    ctx: &ExecContext<'_>,
    window: &QueryWindow,
    tau: f64,
    index: &SpatioTemporalIndex,
    fields: &[Option<Arc<BackwardField>>],
    memoised: &[Option<Arc<Superlevel>>],
) -> (Option<Arc<Superlevel>>, Vec<Measured>) {
    let space = index.space();
    let (mut geometries, mut measured) = (Vec::with_capacity(fields.len()), Vec::new());
    for (m, (field, chain)) in fields.iter().zip(ctx.db.models()).enumerate() {
        let Some(field) = field else {
            return (None, measured);
        };
        let measure = || Superlevel::of(field, window, tau, chain, space.as_ref());
        let geometry = match memoised.get(m).cloned().flatten() {
            Some(geometry) => {
                debug_assert!(*geometry == measure(), "a memoised geometry equals a measured one");
                geometry
            }
            None => {
                let geometry = Arc::new(measure());
                measured.push((Arc::clone(field), Arc::clone(&geometry)));
                geometry
            }
        };
        geometries.push(geometry);
    }
    (geometries.into_iter().reduce(|union, g| Arc::new(union.union(&g))), measured)
}

/// Runs the armed index over the spec's scope: the candidates that survive
/// (ascending) and the objects in scope only the superlevel filter
/// discarded (ascending). The rest of the scope is answered without
/// evaluation:
///
/// * cone-pruned objects provably have `P∃ = 0` exactly — they are the
///   exact zeros of a probability answer and the extra accepted ids of a
///   `τ = 0` threshold;
/// * superlevel-pruned objects (only when `superlevel` is given: an ∃
///   threshold `τ > 0` over a window whose fields were all cached) provably
///   have `P∃ < τ` under either strategy ([`crate::prefilter::SUPERLEVEL_MARGIN`]
///   bounds the rounding), so they are simply not accepted.
///
/// `None` when the index prunes nothing.
fn prefilter_candidates(
    index: &SpatioTemporalIndex,
    window: &QueryWindow,
    scope: &Scope,
    superlevel: Option<&Superlevel>,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let probe = index.probe(window, superlevel);
    let (survivors, mut cut) = match scope {
        Scope::Database(_) => (probe.survivors, probe.superlevel_pruned),
        Scope::Subset(indices) => {
            let mut cut = probe.superlevel_pruned;
            cut.retain(|idx| indices.binary_search(idx).is_ok());
            (intersect_sorted(indices, &probe.survivors), cut)
        }
    };
    cut.sort_unstable();
    (survivors.len() < scope.len()).then_some((survivors, cut))
}

/// A spec resolved against one database snapshot — what the *prepare* half
/// of a query's life hands to [`refine`]: the candidates the engines will
/// evaluate, the scope the index pruned them from, the candidates' model
/// groups, the strategy to run under, and the cost model's record when it
/// was asked for.
#[derive(Debug, PartialEq)]
pub(crate) struct Prepared {
    /// Candidates to evaluate (ascending database indices): the index's
    /// survivors when it pruned, the whole scope otherwise.
    pub indices: Vec<usize>,
    /// The scope `indices` are the survivors of — its other members are
    /// answered unevaluated: as exact `P∃ = 0`, or, pruned by the
    /// superlevel filter, as not reaching the threshold. `None` when nothing
    /// was pruned and `indices` is the scope.
    pub pruned_from: Option<Scope>,
    /// How many of the pruned only the τ-superlevel filter discarded.
    pub superlevel_pruned: usize,
    /// `indices` validated against the window and grouped by model — what
    /// [`refine`] builds its field or reach plan from.
    pub groups: Vec<ModelGroup>,
    /// The strategy [`refine`] dispatches on: the spec's own, or the
    /// planner's resolution of [`Strategy::Auto`].
    pub strategy: Strategy,
    /// The planner's decision record — present exactly when `prepare` was
    /// asked to cost.
    pub plan: Option<QueryPlan>,
}

impl Prepared {
    /// Objects in scope the index answered for.
    fn num_pruned(&self) -> usize {
        self.pruned_from.as_ref().map_or(0, |scope| scope.len() - self.indices.len())
    }
}

/// How [`prepare`] came by its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// Prepared afresh.
    Fresh,
    /// The memoised plan, on the store it was prepared on (re-costed when
    /// the cached fields changed).
    Reused,
    /// The memoised plan patched over the store's writes since, with this
    /// many objects in scope re-tested.
    Patched(usize),
}

/// The prepare half of a query's life, shared by `explain`, a standing
/// query's strategy pinning and every execution, under every strategy:
/// resolves the scope, rejects a full-space ∀ window, runs the index
/// prefilter over the scope, and validates and groups the surviving
/// candidates — the query's one validation, in index order, so every
/// strategy reports the same first error; the groups ride to [`refine`].
/// On an armed index it first peeks the window's cached ∃ fields under one
/// cache lock: the cost model classifies residency from them, and for an
/// ∃ threshold `τ > 0` whose every model's field is there, their
/// τ-superlevel set narrows the index's survivors, whatever the strategy.
/// Only when `cost` is set does it estimate every strategy from the groups
/// and cache residency, resolving [`Strategy::Auto`] to the cheaper exact
/// strategy (explicit overrides are echoed with the same estimates
/// attached). The cost model has a consumer only under `Auto` and in
/// `explain`; an explicit-strategy execution skips it.
///
/// An armed read over a scope of at least [`PREFILTER_AUTO_MIN_OBJECTS`]
/// objects, or under an ∃ threshold `τ > 0` over any armed scope, memoises
/// its plan in the cache ([`PlanMemo`], read under the same lock as the
/// fields). A fresh plan under such a threshold filters with the superlevel
/// geometries the cache memoised for the fields, measuring only the
/// missing ones. A later read of the same key returns it
/// unchanged on the same store ([`Provenance::Reused`]) or patched over
/// the store's logged writes since ([`Provenance::Patched`]), skipping the
/// probe, validation and grouping of everything else; it prepares afresh
/// when the write log no longer reaches the memo, the index was rebuilt,
/// the id subset resolves differently, or — under a threshold — a field
/// changed. Debug builds re-derive every reused or patched plan and assert
/// it equals a fresh one.
pub(crate) fn prepare(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
) -> Result<(Arc<Prepared>, Provenance)> {
    let scope = resolve_scope(ctx.db, spec)?;
    if spec.predicate() == Predicate::ForAll {
        forall::reject_full_space(spec.window())?;
    }
    let Some(index) = armed_index(ctx, spec, &scope) else {
        let (prepared, _) = prepare_on(ctx, spec, cost, scope, None, None)?;
        return Ok((Arc::new(prepared), Provenance::Fresh));
    };
    // The superlevel filter needs a threshold above 0 — at `τ = 0` every
    // object qualifies — and fields it can read without sweeping; a memo
    // filtered with other fields is no use under it.
    let tau = match spec.decorator() {
        Decorator::Threshold(tau) if tau > 0.0 => Some(tau),
        _ => None,
    };
    // A read below the size floor (armed by `PrefilterMode::On`) memoises
    // only under such a threshold: the one-object probabilities probes of
    // object-based subscription refreshes never enter the memo.
    let admitted = scope.len() >= PREFILTER_AUTO_MIN_OBJECTS || tau.is_some();
    let key = admitted.then(|| PlanKeyRef::of(spec, cost));
    let lock = || ctx.cache.lock();
    let (fields, memo, unchanged, memoised) = {
        let mut cache = lock();
        let (models, window) = (ctx.db.models().iter().enumerate(), spec.window());
        let fields: Vec<_> =
            models.map(|(m, chain)| cache.peek_exists(m, chain, window).cloned()).collect();
        let memo = key.and_then(|key| cache.plan_memo(key)).filter(|memo| {
            memo.build.is_of(&index) && (tau.is_none() || memo.same_fields(&fields))
        });
        // The same store, and a plan costed against these fields or not
        // costed at all: served as it is, straight from the lock.
        let unchanged = memo
            .filter(|memo| memo.version == ctx.db.version())
            .filter(|memo| !cost || memo.same_fields(&fields))
            .map(|memo| Arc::clone(&memo.prepared));
        let patchable = unchanged.is_none() || cfg!(debug_assertions);
        let memo = memo.filter(|_| patchable).cloned();
        // A read without a memo filters with the geometries the cache holds
        // for these fields, and measures only the missing ones.
        let memoised: Vec<_> = match tau {
            Some(tau) if memo.is_none() && unchanged.is_none() => (fields.iter())
                .map(|f| f.as_ref().and_then(|f| cache.superlevel_memo(f, tau, index.space())))
                .collect(),
            _ => Vec::new(),
        };
        (fields, memo, unchanged, memoised)
    };
    if let Some(prepared) = unchanged {
        debug_assert!(
            memo.is_some_and(|memo| {
                let resident = Resident { fields, superlevel: memo.superlevel.clone() };
                matches_fresh(ctx, spec, cost, scope, &index, &resident, tau, &prepared)
            }),
            "a reused plan equals the plan prepared afresh from the same fields"
        );
        return Ok((prepared, Provenance::Reused));
    }
    let superlevel = match (tau, &memo) {
        (None, _) => None,
        (Some(_), Some(memo)) => memo.superlevel.clone(),
        (Some(tau), None) => {
            let window = spec.window();
            let (union, measured) = superlevel_of(ctx, window, tau, &index, &fields, &memoised);
            if !measured.is_empty() {
                let mut cache = lock();
                for (field, geometry) in measured {
                    cache.memoise_superlevel(&field, tau, index.space(), geometry);
                }
            }
            union
        }
    };
    let resident = Resident { fields, superlevel };
    if let (Some(memo), Some(key)) = (memo, key) {
        if let Some(served) = from_memo(ctx, spec, cost, &scope, &index, &resident, &memo, key) {
            debug_assert!(
                matches_fresh(ctx, spec, cost, scope, &index, &resident, tau, &served.0),
                "a patched plan equals the plan prepared afresh from the same fields"
            );
            return Ok(served);
        }
    }
    let (prepared, cut) = prepare_on(ctx, spec, cost, scope, Some(&index), Some(&resident))?;
    let prepared = Arc::new(prepared);
    if let Some(key) = key {
        let memo = PlanMemo::of(ctx.db, &index, &resident, cut, Arc::clone(&prepared));
        memoise(ctx, key.owned(), memo);
    }
    Ok((prepared, Provenance::Fresh))
}

/// The memo's plan for this read, when the store's write log reaches the
/// memo's version and the plan is not served unchanged: patched over the
/// writes since, or only re-costed when there were none (the fields it
/// was costed against changed) — the new memo replacing the old under
/// `key`.
#[allow(clippy::too_many_arguments, reason = "prepare's inputs plus the memo and its key")]
fn from_memo(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
    scope: &Scope,
    index: &SpatioTemporalIndex,
    resident: &Resident,
    memo: &PlanMemo,
    key: PlanKeyRef<'_>,
) -> Option<(Arc<Prepared>, Provenance)> {
    let mut touched: Vec<(usize, Option<AnchorKey>)> =
        ctx.db.writes_since(memo.version)?.map(|w| (w.idx, w.previous)).collect();
    // Each object as it was at the memo's version: its first write since
    // (a stable sort keeps log order among one object's writes).
    touched.sort_by_key(|&(idx, _)| idx);
    touched.dedup_by_key(|&mut (idx, _)| idx);
    // An insert can change what an id subset resolves to (a repeated id).
    if let Scope::Subset(now) = scope {
        let before = match &memo.prepared.pruned_from {
            Some(Scope::Subset(before)) => before,
            Some(Scope::Database(_)) => return None,
            None => &memo.prepared.indices,
        };
        if before != now {
            return None;
        }
    }
    let wrote = !touched.is_empty();
    let (patched, retested) = memo.patched(ctx, spec, cost, scope, index, resident, &touched)?;
    let prepared = Arc::clone(&patched.prepared);
    memoise(ctx, key.owned(), patched);
    Some((prepared, if wrote { Provenance::Patched(retested) } else { Provenance::Reused }))
}

/// Installs `memo` under `key`.
fn memoise(ctx: &ExecContext<'_>, key: PlanKey, memo: PlanMemo) {
    let mut cache = ctx.cache.lock();
    cache.memoise_plan(key, Arc::new(memo));
}

/// Debug builds' check of a plan served from the memo: the plan prepared
/// afresh from the same peeked fields equals it, and so does the
/// superlevel geometry measured afresh from them.
#[allow(clippy::too_many_arguments, reason = "prepare's inputs plus the served plan")]
fn matches_fresh(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
    scope: Scope,
    index: &SpatioTemporalIndex,
    resident: &Resident,
    tau: Option<f64>,
    served: &Prepared,
) -> bool {
    let measured =
        tau.and_then(|tau| superlevel_of(ctx, spec.window(), tau, index, &resident.fields, &[]).0);
    measured == resident.superlevel
        && prepare_on(ctx, spec, cost, scope, Some(index), Some(resident))
            .is_ok_and(|(fresh, _)| fresh == *served)
}

/// [`prepare`] past the peek: the index filter over `scope` (narrowed by
/// the resident fields' superlevel set when there is one), validation and
/// grouping, and the cost model when asked — with the objects in scope
/// only the superlevel filter discarded, ascending.
fn prepare_on(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
    scope: Scope,
    index: Option<&SpatioTemporalIndex>,
    resident: Option<&Resident>,
) -> Result<(Prepared, Vec<usize>)> {
    let window = spec.window();
    let superlevel = resident.and_then(|r| r.superlevel.as_deref());
    let survivors = index.and_then(|index| prefilter_candidates(index, window, &scope, superlevel));
    let (indices, pruned_from, cut) = match (survivors, scope) {
        (Some((survivors, cut)), scope) => (survivors, Some(scope), cut),
        (None, Scope::Database(len)) => ((0..len).collect(), None, Vec::new()),
        (None, Scope::Subset(indices)) => (indices, None, Vec::new()),
    };
    let groups = group_on(ctx.db, &indices, window)?;
    let mut prepared = Prepared {
        indices,
        pruned_from,
        superlevel_pruned: cut.len(),
        groups,
        strategy: spec.strategy(),
        plan: None,
    };
    if cost {
        cost_into(ctx, spec, &mut prepared, resident);
    }
    Ok((prepared, cut))
}

/// Records the cost model's plan on `prepared` and resolves its strategy.
fn cost_into(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    prepared: &mut Prepared,
    resident: Option<&Resident>,
) {
    let plan = plan_on(ctx, spec, prepared, resident.map(|r| r.fields.as_slice()));
    prepared.strategy = plan.strategy;
    prepared.plan = Some(plan);
}

/// The cost model over the validated groups of the candidates that
/// survived the prefilter. The estimates see only the surviving candidates
/// — this is where pruning, by either filter, shrinks the planner's `|D|`.
/// Residency is classified from the fields `prepare` already peeked when
/// it has them (`resident`, per model), and probed under the cache lock
/// otherwise.
fn plan_on(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    prepared: &Prepared,
    resident: Option<&[Option<Arc<BackwardField>>]>,
) -> QueryPlan {
    let (groups, examined) = (&prepared.groups, prepared.indices.len());
    let window = spec.window();
    let levels = match spec.predicate() {
        Predicate::KTimes(_) => (window.num_times() + 1) as f64,
        _ => 1.0,
    };
    // The fields of one window share the cache but not the entry:
    // residency is probed under the rule the QB sweep would run.
    let rule = field_rule(spec.predicate());
    let t_end = window.t_end();

    let mut ob = CostEstimate::default();
    let mut qb = CostEstimate::default();
    let mut cached_fields = 0usize;
    let mut extendable_fields = 0usize;

    for group in groups {
        let chain = &ctx.db.models()[group.model];
        let nnz = chain.matrix().nnz() as f64;
        // Σ (t_end − anchor) over the members; validated anchors lie at or
        // before `t_start ≤ t_end`.
        let spans = (group.count as u64 * u64::from(t_end) - group.time_sum) as f64;
        ob.step_ops += spans * levels * nnz;
        ob.object_ops += group.count as f64;

        let min_anchor = group.times.first().copied().unwrap_or(t_end);
        let full_sweep = (t_end - min_anchor.min(t_end)) as f64;
        // Only an armed read peeks — an ∃ read — and it peeks ∃ fields: the
        // rule above.
        let residency = match resident {
            Some(fields) => residency_of(fields[group.model].as_deref(), &group.times),
            None => ctx.cache.lock().residency(group.model, chain, window, rule, &group.times),
        };
        let sweep = match residency {
            (true, _) => {
                cached_fields += 1;
                0.0
            }
            (false, Some(floor)) => {
                extendable_fields += 1;
                (floor.max(min_anchor) - min_anchor) as f64
            }
            (false, None) => full_sweep,
        };
        qb.step_ops += sweep * levels * nnz;
        qb.object_ops += group.anchor_nnz as f64;
    }

    if matches!(spec.decorator(), Decorator::Threshold(_) | Decorator::TopK(_)) {
        ob.step_ops *= OB_EARLY_TERMINATION_DISCOUNT;
    }

    let (strategy, reason) = match spec.strategy() {
        Strategy::Auto => {
            if qb.total() <= ob.total() {
                (
                    Strategy::QueryBased,
                    format!(
                        "auto: backward sweep amortizes over {} object(s){}",
                        examined,
                        if cached_fields > 0 {
                            format!(", {cached_fields} field(s) cache-resident")
                        } else {
                            String::new()
                        }
                    ),
                )
            } else {
                (
                    Strategy::ObjectBased,
                    format!(
                        "auto: {} forward pass(es) estimated cheaper than the backward sweep",
                        examined
                    ),
                )
            }
        }
        explicit => (explicit, "explicit strategy override".to_string()),
    };

    QueryPlan {
        strategy,
        object_based: ob,
        query_based: qb,
        num_objects: examined + prepared.num_pruned(),
        num_models: groups.len(),
        cached_fields,
        extendable_fields,
        window_states: window.states().count(),
        window_times: window.num_times(),
        horizon: t_end,
        candidates_examined: examined,
        candidates_pruned: prepared.num_pruned(),
        superlevel_pruned: prepared.superlevel_pruned,
        reason,
    }
}

/// The objects one driver call evaluates: ascending database indices and
/// their model groups, validated by `prepare` — the driver builds its field
/// or reach plan from the groups.
#[derive(Clone, Copy)]
struct Candidates<'a> {
    indices: &'a [usize],
    groups: &'a [ModelGroup],
}

/// The refine half of a query's life: runs a prepared spec under its
/// resolved strategy — the strategy × predicate × decorator dispatch onto
/// the batched, sharded drivers, over groups `prepare` already validated.
/// Index-pruned candidates are answered without being evaluated: as exact
/// `P∃ = 0`, or — pruned by the superlevel set — as not accepted.
pub(crate) fn refine(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    prepared: &Prepared,
    stats: &mut EvalStats,
) -> Result<QueryAnswer> {
    let &Prepared { ref indices, ref pruned_from, ref groups, strategy, .. } = prepared;
    debug_assert!(strategy != Strategy::Auto, "an Auto spec is prepared with costing");
    stats.candidates_examined += indices.len() as u64;
    stats.candidates_pruned += prepared.num_pruned() as u64;
    let window = spec.window();
    let candidates = Candidates { indices, groups };

    match spec.predicate() {
        Predicate::Exists => match spec.decorator() {
            Decorator::Probabilities => {
                let probs = exists_probs(ctx, strategy, candidates, window, stats)?;
                Ok(QueryAnswer::Probabilities(match pruned_from {
                    Some(scope) => with_pruned_zeros(ctx.db, scope, indices, probs)?,
                    None => probs,
                }))
            }
            Decorator::Threshold(tau) => {
                let scope = pruned_from.as_ref();
                let ids = threshold_ids(ctx, strategy, candidates, scope, window, tau, stats)?;
                Ok(QueryAnswer::ObjectIds(ids))
            }
            Decorator::TopK(k) => {
                let survivors = match strategy {
                    Strategy::ObjectBased if k == 0 => Vec::new(),
                    // Bound-pruned ranking on the reach-trimmed sweep:
                    // dismissed objects answer `None`.
                    Strategy::ObjectBased => {
                        forward_answers(ctx, ranking::TopK::new(k), candidates, window, stats)?
                            .into_iter()
                            .flatten()
                            .collect()
                    }
                    _ => exists_probs(ctx, strategy, candidates, window, stats)?,
                };
                Ok(QueryAnswer::Ranked(ranking::select_topk(survivors, k)))
            }
        },
        Predicate::ForAll => {
            let probs = forall_probs(ctx, strategy, candidates, window, stats)?;
            Ok(decorate(probs, spec.decorator()))
        }
        Predicate::KTimes(k) => {
            let dists = ktimes_dists(ctx, strategy, candidates, window, stats)?;
            match spec.decorator() {
                Decorator::Probabilities => Ok(QueryAnswer::Distributions(dists)),
                decorator => Ok(decorate(at_least(dists, k), decorator)),
            }
        }
    }
}

/// Applies a threshold/top-k decorator to computed probabilities (the
/// paths without a specialized bound-based driver). Also reused by the
/// streaming layer to derive a subscription's decorated answer from its
/// maintained per-object probabilities through the *same* code path, so
/// incremental and batch answers cannot drift.
pub(crate) fn decorate(probs: Vec<ObjectProbability>, decorator: Decorator) -> QueryAnswer {
    match decorator {
        Decorator::Probabilities => QueryAnswer::Probabilities(probs),
        Decorator::Threshold(tau) => QueryAnswer::ObjectIds(accepted_ids(probs, tau)),
        Decorator::TopK(k) => QueryAnswer::Ranked(ranking::select_topk(probs, k)),
    }
}

pub(crate) fn accepted_ids(probs: Vec<ObjectProbability>, tau: f64) -> Vec<u64> {
    probs.into_iter().filter(|r| r.probability >= tau).map(|r| r.object_id).collect()
}

/// A probability answer over `scope`, in database-index order: the
/// survivors' computed `probs`, and an exact `0.0` for every object the
/// index pruned. One pass writes `(id, 0.0)` for the whole scope in store
/// order — a whole-database scope walks `db.objects()` — and the survivors'
/// rows then overwrite their slots; survivors ascend like the scope, so a
/// subset scope finds each slot by a forward search.
fn with_pruned_zeros(
    db: &TrajectoryDatabase,
    scope: &Scope,
    survivors: &[usize],
    probs: Vec<ObjectProbability>,
) -> Result<Vec<ObjectProbability>> {
    if survivors.len() != probs.len() {
        return Err(QueryError::internal("the survivor list carries one probability each"));
    }
    let unresolved = || QueryError::internal("survivors resolve to slots of their scope");
    let zero =
        |object: &UncertainObject| ObjectProbability { object_id: object.id(), probability: 0.0 };
    let mut out: Vec<ObjectProbability> = match scope {
        Scope::Database(_) => db.objects().iter().map(zero).collect(),
        Scope::Subset(indices) => indices
            .iter()
            .map(|&idx| db.object(idx).map(zero).ok_or_else(unresolved))
            .collect::<Result<_>>()?,
    };
    let mut slot = 0usize;
    for (&idx, row) in survivors.iter().zip(probs) {
        slot = match scope {
            Scope::Database(_) => idx,
            Scope::Subset(indices) => {
                let ahead = indices.get(slot..).unwrap_or_default();
                slot + ahead.iter().position(|&i| i == idx).ok_or_else(unresolved)?
            }
        };
        *out.get_mut(slot).ok_or_else(unresolved)? = row;
    }
    Ok(out)
}

/// Thresholded-`∃` accepted ids over a prefiltered candidate set: the
/// strategy's own driver evaluates every candidate — the bound-based
/// forward rule (early termination per object), or query-based each dot
/// compared against `τ` inside the fan-out, so only accepted ids leave it
/// — and, only at `τ = 0`, where `P∃ = 0` still qualifies, the
/// index-pruned rest of the scope the candidates were `pruned_from` is
/// accepted with them, in database-index order.
fn threshold_ids(
    ctx: &ExecContext<'_>,
    strategy: Strategy,
    candidates: Candidates<'_>,
    pruned_from: Option<&Scope>,
    window: &QueryWindow,
    tau: f64,
    stats: &mut EvalStats,
) -> Result<Vec<u64>> {
    let pruned_from = pruned_from.filter(|_| tau <= 0.0);
    if strategy == Strategy::QueryBased && pruned_from.is_none() {
        // The fused accept: each dot is compared where it is computed and
        // only an accepted object's id leaves the fan-out.
        return field_answers(
            ctx,
            FieldRule::Exists,
            candidates,
            window,
            stats,
            |field, object| Ok((field.probability(object) >= tau).then(|| object.id())),
        );
    }
    let indices = candidates.indices;
    let qualifies: Vec<bool> = if strategy == Strategy::ObjectBased {
        let outcomes = forward_answers(ctx, Threshold { tau }, candidates, window, stats)?;
        outcomes.into_iter().map(|o| o.qualifies).collect()
    } else {
        let probs = exists_probs(ctx, strategy, candidates, window, stats)?;
        probs.into_iter().map(|r| r.probability >= tau).collect()
    };
    if qualifies.len() != indices.len() {
        return Err(QueryError::internal("the driver yields one outcome per candidate"));
    }
    let id_of = |idx: usize| {
        ctx.db
            .object(idx)
            .map(|o| o.id())
            .ok_or(QueryError::internal("threshold candidates resolve to database objects"))
    };
    match pruned_from {
        None => (0..indices.len()).filter(|&i| qualifies[i]).map(|i| id_of(indices[i])).collect(),
        Some(scope) => scope
            .against(indices)
            .filter(|&(_, survivor)| survivor.is_none_or(|i| qualifies[i]))
            .map(|(idx, _)| id_of(idx))
            .collect(),
    }
}

/// Reduces visit-count distributions to `P(visits ≥ k)` probabilities.
/// Shared with the streaming layer (see [`decorate`]).
pub(crate) fn at_least(dists: Vec<ObjectKDistribution>, k: usize) -> Vec<ObjectProbability> {
    dists
        .into_iter()
        .map(|d| ObjectProbability { object_id: d.object_id, probability: d.prob_at_least(k) })
        .collect()
}

/// PST∃Q probabilities over the candidates under the resolved strategy.
fn exists_probs(
    ctx: &ExecContext<'_>,
    strategy: Strategy,
    candidates: Candidates<'_>,
    window: &QueryWindow,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    match strategy {
        Strategy::ObjectBased => {
            forward_answers(ctx, object_based::Exists, candidates, window, stats)
        }
        Strategy::QueryBased => {
            field_answers(ctx, FieldRule::Exists, candidates, window, stats, each(probability_row))
        }
        Strategy::Auto => Err(QueryError::internal("prepare resolves Auto before refine")),
    }
}

/// The backward-field rule a predicate's query-based evaluation sweeps
/// (and is cached) under.
pub(crate) fn field_rule(predicate: Predicate) -> FieldRule {
    match predicate {
        Predicate::Exists => FieldRule::Exists,
        Predicate::ForAll => FieldRule::ForAll,
        Predicate::KTimes(_) => FieldRule::KTimes,
    }
}

/// Query-based answers over the candidates: the cached backward field of
/// `rule` per model, then the fan-out — `rows` once per object against
/// the read-only field of the object's model (one dot product each),
/// sharded, each object yielding at most one row: a probability or
/// distribution each ([`each`]), an id per accepted object for a fused
/// threshold. The rule rides in the fields; `rows` picks the matching
/// read. A shard whose objects lie sparse in the store
/// ([`sparse_survivors`]) is walked [`FETCH_BLOCK`] objects at a time,
/// each block's anchors loaded together before any of them is read.
fn field_answers<T: Send>(
    ctx: &ExecContext<'_>,
    rule: FieldRule,
    candidates: Candidates<'_>,
    window: &QueryWindow,
    stats: &mut EvalStats,
    rows: impl Fn(&AnchoredField<'_>, &UncertainObject) -> Result<Option<T>> + Sync,
) -> Result<Vec<T>> {
    let Candidates { indices, groups } = candidates;
    let (db, config, cache) = (ctx.db, ctx.config, ctx.cache);
    let plan = SharedFieldPlan::from_groups(db, groups, window, rule, config, cache, stats)?;
    stats.fields_shared += plan.num_fields() as u64;
    run_sharded(indices, ctx.config, stats, |pipeline, idxs| {
        let mut out = Vec::with_capacity(idxs.len());
        let mut memo = AnchorMemo::new();
        let mut visit = |idx: usize| -> Result<()> {
            let object =
                db.object(idx).ok_or(QueryError::internal("the shards hold validated indices"))?;
            let anchored =
                memo.resolve(object, window, |model| plan.field(model).map(|field| &**field))?;
            out.extend(rows(&anchored, object)?);
            pipeline.stats().objects_evaluated += 1;
            Ok(())
        };
        if sparse_survivors(idxs) {
            for block in idxs.chunks(FETCH_BLOCK) {
                let heads = block.iter().fold(0, |heads, &idx| heads ^ anchor_head(db, idx));
                std::hint::black_box(heads);
                for &idx in block {
                    visit(idx)?;
                }
            }
        } else {
            for &idx in idxs {
                visit(idx)?;
            }
        }
        Ok(out)
    })
}

/// Objects per block of a sparse walk: enough loads in flight to cover a
/// miss's latency, few enough that the block's lines are still cached
/// when its dots read them (ARCHITECTURE.md, "The query-based fan-out").
pub const FETCH_BLOCK: usize = 16;

/// Mean store-order gap between a shard's objects from which its walk is
/// blocked: below it the walk streams through the store and the hardware
/// prefetcher already runs ahead of it.
pub const SPARSE_GAP: usize = 8;

/// Whether the fan-out walks the shard `idxs` (ascending store indices) in
/// blocks: true when they span at least [`SPARSE_GAP`] store slots per
/// object, so consecutive objects seldom share a cache line or a page.
pub fn sparse_survivors(idxs: &[usize]) -> bool {
    match (idxs.first(), idxs.last()) {
        (Some(&first), Some(&last)) => last - first >= SPARSE_GAP * idxs.len(),
        _ => false,
    }
}

/// The first state and mass of the anchor of the object at `idx`, folded
/// into one word. Only the loads matter: a block folds its members' heads
/// and hands the fold to `black_box` once, so the block's misses are in
/// flight together before its dots read the same lines.
fn anchor_head(db: &TrajectoryDatabase, idx: usize) -> u64 {
    db.object(idx).map_or(0, |object| {
        let anchor = object.anchor().distribution();
        let state = anchor.indices().first().map_or(0, |&s| u64::from(s));
        state ^ anchor.values().first().map_or(0, |mass| mass.to_bits())
    })
}

/// A row read that answers every object (`∃` / `∀` probabilities, k-times
/// distributions) as a fan-out row: `None` from `row` is a field swept
/// under another rule than the row reads.
fn each<T>(
    row: impl Fn(&AnchoredField<'_>, &UncertainObject) -> Option<T> + Sync,
) -> impl Fn(&AnchoredField<'_>, &UncertainObject) -> Result<Option<T>> + Sync {
    move |field, object| {
        row(field, object)
            .map(Some)
            .ok_or(QueryError::internal("the field was swept under the answer's rule"))
    }
}

/// Object-based answers over the candidates: the reach schedules of `rule`
/// per model, from the planner's groups, then the fan-out — every shard
/// runs the database loop of the one forward driver under its own copy of
/// `rule` (a rule's state, like top-k's candidate list, is per shard).
fn forward_answers<R>(
    ctx: &ExecContext<'_>,
    rule: R,
    candidates: Candidates<'_>,
    window: &QueryWindow,
    stats: &mut EvalStats,
) -> Result<Vec<R::Output>>
where
    R: ForwardRule + Clone + Sync,
    R::Output: Send,
{
    let Candidates { indices, groups } = candidates;
    let reach = ReachPlan::from_groups(ctx.db, groups, window, R::REACH)?;
    run_sharded(indices, ctx.config, stats, |pipeline, idxs| {
        object_based::forward_database(pipeline, ctx.db, idxs, window, &reach, &mut rule.clone())
    })
}

/// PST∀Q probabilities over the candidates: the Section VII complement
/// reduction object-based (the complement-window sweep under the ∀ reach
/// of the original window), the direct ∀ backward field query-based.
/// `prepare` has already rejected a full-space window.
fn forall_probs(
    ctx: &ExecContext<'_>,
    strategy: Strategy,
    candidates: Candidates<'_>,
    window: &QueryWindow,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    match strategy {
        Strategy::QueryBased => {
            field_answers(ctx, FieldRule::ForAll, candidates, window, stats, each(probability_row))
        }
        Strategy::ObjectBased => {
            forward_answers(ctx, forall::ForAll::over(window)?, candidates, window, stats)
        }
        Strategy::Auto => Err(QueryError::internal("prepare resolves Auto before refine")),
    }
}

/// PSTkQ visit-count distributions over the candidates under the resolved
/// strategy.
fn ktimes_dists(
    ctx: &ExecContext<'_>,
    strategy: Strategy,
    candidates: Candidates<'_>,
    window: &QueryWindow,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectKDistribution>> {
    match strategy {
        Strategy::ObjectBased => forward_answers(ctx, ktimes::KTimes, candidates, window, stats),
        Strategy::QueryBased => {
            let rows = each(ktimes::distribution_row);
            field_answers(ctx, FieldRule::KTimes, candidates, window, stats, rows)
        }
        Strategy::Auto => Err(QueryError::internal("prepare resolves Auto before refine")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::Query;
    use crate::serving::Metrics;
    use ust_markov::MarkovChain;
    use ust_oracle::testutil;
    use ust_space::{LineSpace, TimeSet};

    const N: usize = 30;
    /// Objects in the store: enough for the memo's admission floor.
    const OBJECTS: u64 = 300;

    /// `OBJECTS` objects on a line of `N` states, anchored at `t = i mod 3`,
    /// with a line embedding attached.
    fn store() -> TrajectoryDatabase {
        let mut rng = testutil::rng(11);
        let chain = testutil::random_banded_stochastic(&mut rng, N, 3, 2);
        let mut db = TrajectoryDatabase::new(MarkovChain::from_csr(chain).unwrap());
        for i in 0..OBJECTS {
            let fix = Observation::exact(i as u32 % 3, N, (i as usize * 7) % N).unwrap();
            db.insert(UncertainObject::with_single_observation(i, fix)).unwrap();
        }
        db.attach_space(Arc::new(LineSpace::new(N))).unwrap();
        db
    }

    fn window(lo: usize) -> QueryWindow {
        QueryWindow::from_states(N, lo..lo + 4, TimeSet::interval(3, 5)).unwrap()
    }

    /// Prepares and refines `spec` over `db` against `cache`: the plan, and
    /// how it was come by.
    fn run(
        db: &TrajectoryDatabase,
        cache: &Mutex<FieldCache, CACHE>,
        spec: &QuerySpec,
    ) -> (Arc<Prepared>, Provenance) {
        let (config, metrics) =
            (EngineConfig::default().with_prefilter(PrefilterMode::On), Metrics::new());
        let ctx = ExecContext { db, config: &config, cache, metrics: &metrics };
        let (prepared, provenance) =
            prepare(&ctx, spec, spec.strategy() == Strategy::Auto).unwrap();
        refine(&ctx, spec, &prepared, &mut EvalStats::new()).unwrap();
        (prepared, provenance)
    }

    fn threshold(lo: usize) -> QuerySpec {
        Query::exists().window(window(lo)).threshold(0.05).build().unwrap()
    }

    /// A warm cache holding the ∃ field of `window(lo)` at every anchor time.
    fn warm(db: &TrajectoryDatabase, cache: &Mutex<FieldCache, CACHE>, lo: usize) {
        let fill = Query::exists().window(window(lo)).strategy(Strategy::QueryBased);
        run(db, cache, &fill.build().unwrap());
    }

    /// A new object anchored at `t = 1` in state 5.
    fn newcomer(id: u64) -> UncertainObject {
        UncertainObject::with_single_observation(id, Observation::exact(1, N, 5).unwrap())
    }

    /// Snapshots share their store's plans; a store mutated by `insert`
    /// patches the plan of the snapshot it was copied from, which the
    /// snapshot — whose log never saw the insert — cannot use.
    #[test]
    fn snapshots_share_plans_and_writes_patch_them() {
        let db = store();
        let cache = Mutex::new(FieldCache::new(8));
        warm(&db, &cache, 4);
        let (first, provenance) = run(&db, &cache, &threshold(4));
        assert_eq!(provenance, Provenance::Fresh);
        let (again, provenance) = run(&db.clone(), &cache, &threshold(4));
        assert_eq!(provenance, Provenance::Reused);
        assert!(Arc::ptr_eq(&first, &again), "a snapshot shares the memo");

        let mut inserted = db.clone();
        inserted.insert(newcomer(999)).unwrap();
        assert_eq!(run(&inserted, &cache, &threshold(4)).1, Provenance::Patched(1));
        assert_eq!(run(&inserted, &cache, &threshold(4)).1, Provenance::Reused);
        assert_eq!(run(&db, &cache, &threshold(4)).1, Provenance::Fresh, "the log never saw it");
    }

    /// `attach_space` re-embeds the store: the write log restarts and the
    /// index is rebuilt, so no plan made before is patched — not even
    /// across an embedding equal to the old one — and one made after is.
    #[test]
    fn attach_space_clears_the_write_log() {
        let mut db = store();
        let cache = Mutex::new(FieldCache::new(8));
        warm(&db, &cache, 4);
        let spec = Query::exists().window(window(4)).build().unwrap();
        assert_eq!(run(&db, &cache, &spec).1, Provenance::Fresh);
        db.insert(newcomer(999)).unwrap();
        let before = db.version();
        assert!(db.writes_since(before).is_some_and(|mut w| w.next().is_none()));
        db.attach_space(Arc::new(LineSpace::new(N))).unwrap();
        assert!(db.writes_since(before).is_none(), "the log no longer reaches back");
        assert!(db.writes_since(db.version()).is_some());
        assert_eq!(run(&db, &cache, &spec).1, Provenance::Fresh);
        db.insert(newcomer(1000)).unwrap();
        assert_eq!(run(&db, &cache, &spec).1, Provenance::Patched(1));
    }

    /// The memo holds at most `cache_capacity` plans and evicts the least
    /// recently used; a plan read counts as a use.
    #[test]
    fn an_evicted_entry_frees_its_memo() {
        let db = store();
        let cache = Mutex::new(FieldCache::new(2));
        let probabilities = |lo| Query::exists().window(window(lo)).build().unwrap();
        for lo in [4, 12] {
            assert_eq!(run(&db, &cache, &probabilities(lo)).1, Provenance::Fresh);
        }
        assert_eq!(run(&db, &cache, &probabilities(4)).1, Provenance::Reused);
        let (prepared, _) = run(&db, &cache, &probabilities(20));
        let evicted = Arc::downgrade(&prepared);
        assert_eq!(cache.lock().plans(), 2);
        assert_eq!(run(&db, &cache, &probabilities(4)).1, Provenance::Reused, "used last");
        assert_eq!(run(&db, &cache, &probabilities(12)).1, Provenance::Fresh, "evicted");
        drop(prepared);
        assert!(evicted.upgrade().is_none(), "window 20's plan went with its slot");
    }

    /// Below the admission floor only an ∃ threshold `τ > 0` enters the
    /// memo: probabilities over one object — a subscription's refresh
    /// probe — prepare afresh every time. A fresh threshold plan filters
    /// with the superlevel geometry the cache memoised for the field, so
    /// another subset at the same τ measures none.
    #[test]
    fn below_the_floor_only_thresholds_memoise_and_geometries_are_shared() {
        let db = store();
        let cache = Mutex::new(FieldCache::new(8));
        warm(&db, &cache, 4);
        let plans = || cache.lock().plans();
        let whole_store = plans();
        let few = |ids: std::ops::Range<u64>| Query::exists().window(window(4)).objects(ids);
        let probe = few(0..1).build().unwrap();
        assert_eq!(run(&db, &cache, &probe).1, Provenance::Fresh);
        assert_eq!(run(&db, &cache, &probe).1, Provenance::Fresh);
        assert_eq!(plans(), whole_store);

        let geometry = || {
            let mut cache = cache.lock();
            let field = cache.peek_exists(0, &db.models()[0], &window(4)).cloned().unwrap();
            let space = db.spatial_index().unwrap().space().clone();
            cache.superlevel_memo(&field, 0.05, &space).unwrap()
        };
        let subset = |ids| few(ids).threshold(0.05).build().unwrap();
        assert_eq!(run(&db, &cache, &subset(0..10)).1, Provenance::Fresh);
        assert_eq!(run(&db, &cache, &subset(0..10)).1, Provenance::Reused);
        let measured = geometry();
        assert_eq!(run(&db, &cache, &subset(10..20)).1, Provenance::Fresh);
        assert!(Arc::ptr_eq(&measured, &geometry()), "measured once");
        assert_eq!(plans(), whole_store + 2);
    }

    #[test]
    fn merged_applies_ascending_edits_in_one_pass() {
        let list = [2, 5, 9, 14];
        let edits = [(0, true), (5, false), (10, true), (14, false), (20, true)];
        assert_eq!(merged(&list, &edits), Some(vec![0, 2, 9, 10, 20]));
        assert_eq!(merged(&list, &[]), Some(list.to_vec()));
        assert_eq!(merged(&list, &[(5, true)]), None, "already there");
        assert_eq!(merged(&list, &[(6, false)]), None, "not there");
    }
}
