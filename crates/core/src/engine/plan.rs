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
//! ([`crate::engine::QueryProcessor::explain`] is `prepare` alone). The
//! groups ride in `Prepared` to `refine`, whose field and reach plans are
//! built from them; `refine` dispatches to the batched, sharded
//! counterparts of the sequential reference drivers and spells the pruned
//! objects out as exact zeros only where an answer needs them — a
//! probability answer writes the scope's zeros in one pass in store order
//! and overwrites the survivors' slots with their rows — so planned
//! answers are bit-for-bit identical to the paper's algorithms run with no
//! planner, pool or cache (pinned by `tests/query_planner.rs`). The serving
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

use std::fmt;
use std::sync::{Arc, Mutex, Weak};

use crate::database::TrajectoryDatabase;
use crate::engine::cache::{residency_of, ExistsPeek, FieldCache};
use crate::engine::object_based::{ForwardRule, ReachPlan};
use crate::engine::query_based::{
    group_on, probability_row, AnchorMemo, AnchoredField, BackwardField, FieldRule, ModelGroup,
    SharedFieldPlan,
};
use crate::engine::{forall, ktimes, object_based, EngineConfig, PrefilterMode};
use crate::error::{QueryError, Result};
use crate::index::{intersect_sorted, SpatioTemporalIndex};
use crate::object::UncertainObject;
use crate::parallel::run_sharded;
use crate::prefilter::Superlevel;
use crate::query::{
    Decorator, ObjectKDistribution, ObjectProbability, Predicate, QueryAnswer, QuerySpec,
    QueryWindow, Strategy,
};
use crate::ranking;
use crate::stats::EvalStats;
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
    pub cache: &'a Mutex<FieldCache>,
    /// The processor's serving registry: every execution is recorded
    /// here.
    pub metrics: &'a crate::serving::Metrics,
}

/// What a spec addresses, before any filtering.
#[derive(Debug, PartialEq)]
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

/// Maps a spec's optional object-id subset to its [`Scope`]. Fails with
/// [`QueryError::UnknownObject`] (the smallest missing id) when an id does
/// not exist. On a store with ascending ids — id order is index order —
/// each id is bisected, O(k·log |D|); otherwise one walk over the store
/// collects every holder of a requested id.
fn resolve_scope(db: &TrajectoryDatabase, spec: &QuerySpec) -> Result<Scope> {
    match spec.objects() {
        None => Ok(Scope::Database(db.len())),
        Some(ids) if db.ids_ascending() => ids
            .iter()
            .map(|&id| db.index_of(id).ok_or(QueryError::UnknownObject { id }))
            .collect::<Result<_>>()
            .map(Scope::Subset),
        Some(ids) => {
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
            Ok(Scope::Subset(out))
        }
    }
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

/// The ∃ fields of a window that the cache already holds, read under one
/// lock before the index runs for an ∃ threshold `tau`.
struct Resident {
    tau: f64,
    /// Per model, its cached ∃ field (`None` when not cached): what the
    /// cost model classifies residency from, so peeking costs a warm query
    /// no extra lock.
    fields: Vec<Option<Arc<BackwardField>>>,
    /// The union over models of the fields' τ-superlevel geometries — only
    /// when every model's field is cached, since an object of any model may
    /// be anchored at any time. Left unmeasured when `reused` is set, except
    /// where debug assertions re-derive the reused plan from it.
    superlevel: Option<Arc<Superlevel>>,
    /// The plan memoised on model 0's entry, when it was prepared under
    /// everything this call reads ([`PlanMemo::serves`]).
    reused: Option<Arc<Prepared>>,
}

/// A [`Prepared`] memoised on model 0's cached ∃ entry of its window,
/// beside the superlevel memo, under everything else `prepare` read: the
/// store's version, the threshold, the requested strategy and whether it
/// was costed, the id subset, and every other model's field. The entry
/// itself stands for the window and model 0's field — a replaced field
/// starts a new entry — so the memo never outlives what it was prepared
/// from, and `cache_capacity` bounds how many there are.
pub(crate) struct PlanMemo {
    version: u64,
    tau_bits: u64,
    strategy: Strategy,
    cost: bool,
    subset: Option<Vec<u64>>,
    /// Models 1 onward, by identity: a `Weak` holds the allocation, so an
    /// address cannot be reused by another field while the memo lives,
    /// without keeping an evicted field's snapshots alive.
    others: Vec<Weak<BackwardField>>,
    prepared: Arc<Prepared>,
}

impl PlanMemo {
    /// True when `prepare(ctx, spec, cost)` over the peeked fields of every
    /// model (model 0's being the entry this memo sits on) would prepare
    /// exactly the memoised plan.
    fn serves(
        &self,
        db: &TrajectoryDatabase,
        spec: &QuerySpec,
        cost: bool,
        tau: f64,
        others: &[Option<ExistsPeek<'_>>],
    ) -> bool {
        let same_field = |(memo, peek): (&Weak<BackwardField>, &Option<ExistsPeek<'_>>)| {
            peek.as_ref().is_some_and(|peek| std::ptr::eq(memo.as_ptr(), Arc::as_ptr(peek.field)))
        };
        self.version == db.version()
            && self.tau_bits == tau.to_bits()
            && (self.strategy, self.cost) == (spec.strategy(), cost)
            && self.subset.as_deref() == spec.objects()
            && self.others.len() == others.len()
            && self.others.iter().zip(others).all(same_field)
    }
}

/// Peeks every model's ∃ field of the spec's window under one cache lock
/// ([`FieldCache::peek_exists`]: counted nowhere), with the plan memoised
/// on model 0's entry when it serves this call, and, when every field is
/// there and no plan is reused, their superlevel geometries at `tau` under
/// the index's embedding. A geometry the entry has not memoised is measured
/// after the lock is released and installed under a second, brief one, so
/// concurrent queries never wait on a field scan.
fn peek_resident(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
    tau: f64,
    index: &SpatioTemporalIndex,
) -> Resident {
    let (models, space, window) = (ctx.db.models(), index.space(), spec.window());
    let lock = || ctx.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (peeked, reused) = {
        let cache = lock();
        let models = models.iter().enumerate();
        let peeks: Vec<_> =
            models.map(|(m, chain)| cache.peek_exists(m, chain, window, tau, space)).collect();
        let reused = match peeks.split_first() {
            Some((Some(first), others)) => first
                .plan
                .filter(|memo| memo.serves(ctx.db, spec, cost, tau, others))
                .map(|memo| Arc::clone(&memo.prepared)),
            _ => None,
        };
        let own = |peek: ExistsPeek<'_>| (Arc::clone(peek.field), peek.superlevel.cloned());
        (peeks.into_iter().map(|peek| peek.map(own)).collect::<Vec<_>>(), reused)
    };
    let measure = reused.is_none() || cfg!(debug_assertions);
    let superlevel = (measure && peeked.iter().all(Option::is_some)).then(|| {
        let mut measured = Vec::new();
        let geometries: Vec<Arc<Superlevel>> = (peeked.iter().flatten().zip(models).enumerate())
            .map(|(m, ((field, memo), chain))| match memo {
                Some(geometry) => Arc::clone(geometry),
                None => {
                    let geometry =
                        Arc::new(Superlevel::of(field, window, tau, chain, space.as_ref()));
                    measured.push((m, Arc::clone(field), Arc::clone(&geometry)));
                    geometry
                }
            })
            .collect();
        if !measured.is_empty() {
            let mut cache = lock();
            for (m, field, geometry) in measured {
                cache.remember_superlevel(m, &models[m], window, &field, tau, space, geometry);
            }
        }
        geometries.into_iter().reduce(|union, g| Arc::new(union.union(&g)))
    });
    Resident {
        tau,
        fields: peeked.into_iter().map(|peek| peek.map(|(field, _)| field)).collect(),
        superlevel: superlevel.flatten(),
        reused,
    }
}

impl Resident {
    /// Memoises `prepared` on model 0's entry, when every model's field
    /// was resident — the fields it was prepared against.
    fn remember(
        &self,
        ctx: &ExecContext<'_>,
        spec: &QuerySpec,
        cost: bool,
        prepared: &Arc<Prepared>,
    ) {
        let Some(fields) = self.fields.iter().map(Option::as_ref).collect::<Option<Vec<_>>>()
        else {
            return;
        };
        let Some((first, others)) = fields.split_first() else { return };
        let memo = PlanMemo {
            version: ctx.db.version(),
            tau_bits: self.tau.to_bits(),
            strategy: spec.strategy(),
            cost,
            subset: spec.objects().map(<[u64]>::to_vec),
            others: others.iter().map(|field| Arc::downgrade(field)).collect(),
            prepared: Arc::clone(prepared),
        };
        let mut cache = ctx.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        cache.remember_plan(&ctx.db.models()[0], spec.window(), first, memo);
    }
}

/// Runs the armed index over the spec's scope: the candidates that survive
/// (ascending) and how many of the pruned only the superlevel filter
/// discarded. The rest of the scope is answered without evaluation:
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
) -> Option<(Vec<usize>, usize)> {
    let probe = index.probe(window, superlevel);
    let (survivors, superlevel_pruned) = match scope {
        Scope::Database(_) => (probe.survivors, probe.superlevel_pruned.len()),
        Scope::Subset(indices) => (
            intersect_sorted(indices, &probe.survivors),
            probe.superlevel_pruned.iter().filter(|idx| indices.binary_search(idx).is_ok()).count(),
        ),
    };
    (survivors.len() < scope.len()).then_some((survivors, superlevel_pruned))
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

/// The prepare half of a query's life, shared by `explain`, a standing
/// query's strategy pinning and every execution, under every strategy:
/// resolves the scope, rejects a full-space ∀ window, runs the index
/// prefilter over the scope, and validates and groups the surviving
/// candidates — the query's one validation, in index order, so every
/// strategy reports the same first error; the groups ride to [`refine`].
/// For an ∃ threshold `τ > 0` on an armed index it first peeks the
/// window's cached ∃ fields under one cache lock: when every model's is
/// there, their τ-superlevel set narrows the index's survivors, whatever
/// the strategy. Only when `cost` is set does it estimate every strategy
/// from the groups and cache residency — classified from the peeked fields
/// when there are any, so a warm threshold takes the lock no more often
/// than before — resolving [`Strategy::Auto`] to the cheaper exact
/// strategy (explicit overrides are echoed with the same estimates
/// attached). The cost model has a consumer only under `Auto` and in
/// `explain`; an explicit-strategy execution skips its residency probes.
///
/// Where every model's field was peeked, the result is memoised on model
/// 0's entry ([`PlanMemo`]), and a later call that reads the same inputs
/// returns it — `true` beside it — skipping the probe, validation,
/// grouping and costing. Debug builds re-derive every reused plan from the
/// same peeked fields and assert it equals the fresh one.
pub(crate) fn prepare(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
) -> Result<(Arc<Prepared>, bool)> {
    let scope = resolve_scope(ctx.db, spec)?;
    if spec.predicate() == Predicate::ForAll {
        forall::reject_full_space(spec.window())?;
    }
    let index = armed_index(ctx, spec, &scope);
    // The superlevel filter needs a threshold above 0 — at `τ = 0` every
    // object qualifies — and a field it can read without sweeping.
    let resident = match (&index, spec.decorator()) {
        (Some(index), Decorator::Threshold(tau)) if tau > 0.0 => {
            Some(peek_resident(ctx, spec, cost, tau, index))
        }
        _ => None,
    };
    if let Some(reused) = resident.as_ref().and_then(|r| r.reused.clone()) {
        debug_assert!(
            prepare_on(ctx, spec, cost, scope, index.as_deref(), resident.as_ref())
                .is_ok_and(|fresh| fresh == *reused),
            "a reused plan equals the plan prepared afresh from the same peeked fields"
        );
        return Ok((reused, true));
    }
    let prepared =
        Arc::new(prepare_on(ctx, spec, cost, scope, index.as_deref(), resident.as_ref())?);
    if let Some(resident) = &resident {
        resident.remember(ctx, spec, cost, &prepared);
    }
    Ok((prepared, false))
}

/// [`prepare`] past the peek: the index filter over `scope` (narrowed by
/// the resident fields' superlevel set when there is one), validation and
/// grouping, and the cost model when asked.
fn prepare_on(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    cost: bool,
    scope: Scope,
    index: Option<&SpatioTemporalIndex>,
    resident: Option<&Resident>,
) -> Result<Prepared> {
    let window = spec.window();
    let superlevel = resident.and_then(|r| r.superlevel.as_deref());
    let survivors = index.and_then(|index| prefilter_candidates(index, window, &scope, superlevel));
    let (indices, pruned_from, superlevel_pruned) = match (survivors, scope) {
        (Some((survivors, superlevel_pruned)), scope) => {
            (survivors, Some(scope), superlevel_pruned)
        }
        (None, Scope::Database(len)) => ((0..len).collect(), None, 0),
        (None, Scope::Subset(indices)) => (indices, None, 0),
    };
    let groups = group_on(ctx.db, &indices, window)?;
    let mut prepared = Prepared {
        indices,
        pruned_from,
        superlevel_pruned,
        groups,
        strategy: spec.strategy(),
        plan: None,
    };
    if cost {
        let plan = plan_on(ctx, spec, &prepared, resident.map(|r| r.fields.as_slice()));
        prepared.strategy = plan.strategy;
        prepared.plan = Some(plan);
    }
    Ok(prepared)
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
        let spans = (group.members.len() as u64 * u64::from(t_end) - group.time_sum) as f64;
        ob.step_ops += spans * levels * nnz;
        ob.object_ops += group.members.len() as f64;

        let min_anchor = group.times.first().copied().unwrap_or(t_end);
        let full_sweep = (t_end - min_anchor.min(t_end)) as f64;
        // Only an ∃ threshold peeks, and it peeks ∃ fields: the rule above.
        let residency =
            match resident {
                Some(fields) => residency_of(fields[group.model].as_deref(), &group.times),
                None => ctx
                    .cache
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .residency(group.model, chain, window, rule, &group.times),
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
/// forward rule (early termination per object), or probabilities compared
/// against `τ` — and, only at `τ = 0`, where `P∃ = 0` still qualifies, the
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
    match pruned_from.filter(|_| tau <= 0.0) {
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
            field_answers(ctx, FieldRule::Exists, candidates, window, stats, probability_row)
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
/// `rule` per model, then the fan-out — `answer` once per object against
/// the read-only field of the object's model (one dot product each),
/// sharded. The rule rides in the fields; `answer` picks the matching read.
fn field_answers<T: Send>(
    ctx: &ExecContext<'_>,
    rule: FieldRule,
    candidates: Candidates<'_>,
    window: &QueryWindow,
    stats: &mut EvalStats,
    answer: impl Fn(&AnchoredField<'_>, &UncertainObject) -> Option<T> + Sync,
) -> Result<Vec<T>> {
    let Candidates { indices, groups } = candidates;
    let (db, config, cache) = (ctx.db, ctx.config, ctx.cache);
    let plan = SharedFieldPlan::from_groups(db, groups, window, rule, config, cache, stats)?;
    stats.fields_shared += plan.num_fields() as u64;
    run_sharded(indices, ctx.config, stats, |pipeline, idxs| {
        let mut out = Vec::with_capacity(idxs.len());
        let mut memo = AnchorMemo::new();
        for &idx in idxs {
            let object = ctx
                .db
                .object(idx)
                .ok_or(QueryError::internal("the shards hold validated indices"))?;
            let anchored =
                memo.resolve(object, window, |model| plan.field(model).map(|field| &**field))?;
            out.push(
                answer(&anchored, object)
                    .ok_or(QueryError::internal("the field was swept under the answer's rule"))?,
            );
            pipeline.stats().objects_evaluated += 1;
        }
        Ok(out)
    })
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
            field_answers(ctx, FieldRule::ForAll, candidates, window, stats, probability_row)
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
            let row = ktimes::distribution_row;
            field_answers(ctx, FieldRule::KTimes, candidates, window, stats, row)
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
    use ust_markov::{testutil, MarkovChain};
    use ust_space::{LineSpace, TimeSet};

    const N: usize = 30;

    /// 60 objects on a line of `N` states, anchored at `t = i mod 3`, with a
    /// line embedding attached.
    fn store() -> TrajectoryDatabase {
        let mut rng = testutil::rng(11);
        let chain = testutil::random_banded_stochastic(&mut rng, N, 3, 2);
        let mut db = TrajectoryDatabase::new(MarkovChain::from_csr(chain).unwrap());
        for i in 0..60u64 {
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
    /// whether it was reused.
    fn run(
        db: &TrajectoryDatabase,
        cache: &Mutex<FieldCache>,
        spec: &QuerySpec,
    ) -> (Arc<Prepared>, bool) {
        let (config, metrics) =
            (EngineConfig::default().with_prefilter(PrefilterMode::On), Metrics::new());
        let ctx = ExecContext { db, config: &config, cache, metrics: &metrics };
        let (prepared, reused) = prepare(&ctx, spec, spec.strategy() == Strategy::Auto).unwrap();
        refine(&ctx, spec, &prepared, &mut EvalStats::new()).unwrap();
        (prepared, reused)
    }

    fn threshold(lo: usize) -> QuerySpec {
        Query::exists().window(window(lo)).threshold(0.05).build().unwrap()
    }

    /// A warm cache holding the ∃ field of `window(lo)` at every anchor time.
    fn warm(db: &TrajectoryDatabase, cache: &Mutex<FieldCache>, lo: usize) {
        let fill = Query::exists().window(window(lo)).strategy(Strategy::QueryBased);
        run(db, cache, &fill.build().unwrap());
    }

    /// Snapshots share their store's plans; a store mutated by `insert` or
    /// re-embedded by `attach_space` never reuses one, even through a cache
    /// it shares with the snapshot it was copied from.
    #[test]
    fn mutated_stores_miss_the_memo_of_their_snapshots() {
        let db = store();
        let cache = Mutex::new(FieldCache::new(8));
        warm(&db, &cache, 4);
        let (first, reused) = run(&db, &cache, &threshold(4));
        assert!(!reused);
        let (again, reused) = run(&db.clone(), &cache, &threshold(4));
        assert!(reused && Arc::ptr_eq(&first, &again), "a snapshot shares the memo");

        let mut inserted = db.clone();
        inserted
            .insert(UncertainObject::with_single_observation(
                99,
                Observation::exact(1, N, 5).unwrap(),
            ))
            .unwrap();
        let mut embedded = db.clone();
        embedded.attach_space(Arc::new(LineSpace::new(N))).unwrap();
        for mutated in [inserted, embedded] {
            assert!(!run(&mutated, &cache, &threshold(4)).1, "a mutated store prepares afresh");
            assert!(run(&mutated, &cache, &threshold(4)).1, "and then reuses its own plan");
            assert!(!run(&db, &cache, &threshold(4)).1, "which the source store does not");
        }
    }

    /// The memo lives on its cache entry: evicting the entry frees it.
    #[test]
    fn an_evicted_entry_frees_its_memo() {
        let db = store();
        let cache = Mutex::new(FieldCache::new(1));
        warm(&db, &cache, 4);
        let (prepared, reused) = run(&db, &cache, &threshold(4));
        assert!(!reused);
        let memo = Arc::downgrade(&prepared);
        drop(prepared);
        assert!(memo.upgrade().is_some(), "the entry holds the plan");
        warm(&db, &cache, 12);
        assert_eq!(cache.lock().unwrap().len(), 1);
        assert!(memo.upgrade().is_none(), "the evicted entry took its plan along");
    }
}
