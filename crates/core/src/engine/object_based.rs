//! Object-based (OB) PST∃Q evaluation — Section V-A of the paper.
//!
//! For each object, the distribution vector is propagated forward from its
//! anchor observation through the augmented matrices `M−`/`M+`. We apply
//! those matrices *virtually*: a step is an ordinary `v · M` product, and
//! when the target timestamp lies in `T▫` the mass entering the query states
//! is removed from the vector and accumulated into the scalar ⊤ — exactly
//! the column surgery `M+` performs, without materializing an
//! `(|S|+1)²` matrix per query (cross-checked against the explicit
//! construction in `ust_oracle::augmented` by the test suite).
//!
//! Worlds that reached the window are *excluded from further propagation*,
//! which is what makes the result correct under possible-worlds semantics —
//! each world is counted at most once (the flaw of the naive
//! "sum the per-timestamp probabilities" approach the paper opens with).
//!
//! This is also the home of the **one forward driver** of the whole
//! object-based family: `ForwardRule` (what a member does at a query
//! timestamp, decides after it, reads at the end), `forward_chunk` (one
//! batch, one sweep) and `forward_database` (group, chunk, scatter). ∃ is
//! its plainest rule; ∀ ([`crate::engine::forall`]), threshold `τ`
//! ([`crate::threshold`]), top-k ([`crate::ranking`]) and `C(t)` k-times
//! ([`crate::engine::ktimes`]) declare theirs beside their answer types.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use ust_markov::{MarkovChain, PropagationVector, SparseVector};

use crate::database::TrajectoryDatabase;
use crate::engine::pipeline::{BatchPhase, ObjectBatch, Propagator};
use crate::engine::query_based::ModelGroup;
use crate::engine::reach::{ReachRule, ReachSchedule};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::query::{unit_clamp, ObjectProbability, QueryWindow};
use crate::stats::EvalStats;

/// One member of the object-based family: what happens to `S▫` at a query
/// timestamp, what is decided after a timestamp, and how an object's answer
/// is read off the swept rows. Statically dispatched — [`forward_chunk`]
/// is monomorphised per rule.
pub(crate) trait ForwardRule {
    /// The per-object answer.
    type Output;

    /// The reach the sweep is trimmed to — which mass is *decided*.
    const REACH: ReachRule;

    /// The window whose states the sweep absorbs on: the query window
    /// itself, or its complement for the Section VII ∀ reduction.
    fn absorbing<'w>(&'w self, window: &'w QueryWindow) -> &'w QueryWindow {
        window
    }

    /// Rows per object: row 0 starts as the anchor distribution, the rest
    /// empty.
    fn rows_per_object(&self, _window: &QueryWindow) -> usize {
        1
    }

    /// The window hook on one live object's rows. The default is the ∃
    /// accumulation rule — the mass inside `S▫` moves from the vector to the
    /// scalar ⊤, the virtual `M+` of the module docs — shared verbatim by ∃,
    /// ∀, threshold and top-k so it cannot diverge between them.
    fn at_window(
        &self,
        rows: &mut [PropagationVector],
        hit: &mut f64,
        window: &QueryWindow,
    ) -> Result<()> {
        *hit += rows[0].extract_masked(window.states());
        Ok(())
    }

    /// The step-end decision on one live object: true retires it from the
    /// batch (bound met, dismissed) without stopping the sweep for the
    /// rest. `rows` is what reach trimming left — the mass that can still
    /// change the answer.
    fn retires(&self, _hit: f64, _rows: &[PropagationVector]) -> bool {
        false
    }

    /// Reads one object's answer off its finished sweep. A retirement is
    /// the rule's own outcome — the pipeline counted every other object as
    /// evaluated — so the rule accounts it in `stats` here.
    fn finish(&mut self, swept: Swept<'_>, stats: &mut EvalStats) -> Self::Output;
}

/// One object's finished sweep, as [`ForwardRule::finish`] reads it.
pub(crate) struct Swept<'a> {
    /// The object.
    pub object: &'a UncertainObject,
    /// The ⊤ mass [`ForwardRule::at_window`] accumulated.
    pub hit: f64,
    /// The object's rows where the sweep left them.
    pub rows: &'a [PropagationVector],
    /// Per row, the mass reach trimming decided ([`ObjectBatch::decided`]).
    pub decided: &'a [f64],
    /// The timestamp at which [`ForwardRule::retires`] retired the object
    /// (`None`: it ran to the natural end).
    pub retired_at: Option<u32>,
    /// Where the sweep ends, `window.t_end()`.
    pub t_end: u32,
}

/// PST∃Q: decided mass can never hit and is ignored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exists;

impl ForwardRule for Exists {
    type Output = ObjectProbability;
    const REACH: ReachRule = ReachRule::Exists;

    fn finish(&mut self, swept: Swept<'_>, _stats: &mut EvalStats) -> ObjectProbability {
        ObjectProbability { object_id: swept.object.id(), probability: unit_clamp(swept.hit) }
    }
}

/// The per-object reference of `rule`: validation, the object's own reach
/// schedule and [`forward_chunk`] on a chunk of one — no planner, pool or
/// cache. The unit tests' yardstick for batch invariance.
#[cfg(test)]
pub(crate) fn evaluate_one<R: ForwardRule>(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &crate::engine::EngineConfig,
    stats: &mut EvalStats,
    mut rule: R,
) -> Result<R::Output> {
    validate(chain, object, window)?;
    let t0 = object.anchor().time();
    let reach = ReachSchedule::build(chain, window, R::REACH, t0)?;
    let mut pipeline = Propagator::new(config, stats);
    forward_chunk(&mut pipeline, chain, t0, &[object], window, &reach, &mut rule)?
        .pop()
        .ok_or(QueryError::internal("a chunk of one yields one answer"))
}

/// The chunk-level driver of the object-based family: seeds `objects`
/// (validated, all on `chain`, all anchored at `t0`) as one
/// [`ObjectBatch`], sweeps it to `window.t_end()` trimmed to `reach` with
/// `rule`'s hooks applied per live object, and reads one answer per object
/// in order. The batch shares one matrix traversal per timestamp and a
/// decided object drops out without stopping the sweep; per object the
/// floating-point work does not depend on what else the chunk holds, so a
/// chunk of one *is* the per-object algorithm. Step loop, trimming, pruning
/// and accounting live in [`Propagator::forward`].
pub(crate) fn forward_chunk<R: ForwardRule>(
    pipeline: &mut Propagator<'_>,
    chain: &MarkovChain,
    t0: u32,
    objects: &[&UncertainObject],
    window: &QueryWindow,
    reach: &ReachSchedule,
    rule: &mut R,
) -> Result<Vec<R::Output>> {
    let window = rule.absorbing(window);
    let t_end = window.t_end();
    let group_size = rule.rows_per_object(window);
    let mut rows: Vec<PropagationVector> = Vec::with_capacity(objects.len() * group_size);
    for object in objects {
        rows.push(pipeline.seed(object.anchor().distribution().clone()));
        for _ in 1..group_size {
            rows.push(pipeline.seed(SparseVector::zeros(chain.num_states())));
        }
    }
    let mut batch = ObjectBatch::new(&mut rows, group_size)?;
    let mut hits = vec![0.0f64; objects.len()];
    let mut retired_at: Vec<Option<u32>> = vec![None; objects.len()];
    pipeline.forward(
        chain.matrix(),
        &mut batch,
        t0,
        t_end,
        Some(window),
        Some(reach),
        |phase, batch, t| {
            for g in 0..batch.num_groups() {
                if !batch.is_active(g) {
                    continue;
                }
                match phase {
                    BatchPhase::Window => {
                        rule.at_window(batch.group_mut(g), &mut hits[g], window)?
                    }
                    BatchPhase::StepEnd => {
                        if rule.retires(hits[g], batch.group(g)) {
                            retired_at[g] = Some(t);
                            batch.deactivate(g);
                        }
                    }
                }
            }
            Ok(ControlFlow::Continue(()))
        },
    )?;
    Ok(objects
        .iter()
        .enumerate()
        .map(|(g, object)| {
            let swept = Swept {
                object,
                hit: hits[g],
                rows: batch.group(g),
                decided: batch.decided(g),
                retired_at: retired_at[g],
                t_end,
            };
            rule.finish(swept, pipeline.stats())
        })
        .collect())
}

/// One query's reach schedules: one [`ReachSchedule`] per populated model,
/// built from that model's earliest anchor (the masks do not depend on the
/// start, so it serves every later anchor), **once per query** — before
/// the fan-out, shared read-only by every shard.
///
/// A plan is built from model groups already validated against the window
/// (by the planner's `prepare`), in index order —
/// so the first error is deterministic regardless of batch or shard
/// layout; [`forward_database`] trusts a plan to cover its indices.
#[derive(Debug)]
pub(crate) struct ReachPlan {
    schedules: Vec<Option<ReachSchedule>>,
}

impl ReachPlan {
    /// One schedule of `rule` per group, from groups already validated
    /// against `window`: each group's earliest anchor is its first time.
    pub(crate) fn from_groups(
        db: &TrajectoryDatabase,
        groups: &[ModelGroup],
        window: &QueryWindow,
        rule: ReachRule,
    ) -> Result<ReachPlan> {
        let mut schedules: Vec<Option<ReachSchedule>> =
            (0..db.models().len()).map(|_| None).collect();
        for group in groups {
            if let Some(&t0) = group.times.first() {
                let chain = &db.models()[group.model];
                schedules[group.model] = Some(ReachSchedule::build(chain, window, rule, t0)?);
            }
        }
        Ok(ReachPlan { schedules })
    }

    /// The schedule of `model`.
    fn schedule(&self, model: usize) -> Result<&ReachSchedule> {
        self.schedules
            .get(model)
            .and_then(Option::as_ref)
            .ok_or(QueryError::internal("the reach plan covers every model its indices populate"))
    }
}

/// Per `(model, anchor time)`: the members with their positions in the
/// grouped index list.
type Batchable<'d> = BTreeMap<(usize, u32), Vec<(usize, &'d UncertainObject)>>;

/// Groups a worker's object indices by `(model, anchor time)` — the two
/// properties every member of an [`ObjectBatch`] must share (one transition
/// matrix, one sweep start) — keeping each member's *position* in
/// `indices`, in the original order, so the loop can stitch results back
/// deterministically.
fn group_batchable<'d>(db: &'d TrajectoryDatabase, indices: &[usize]) -> Result<Batchable<'d>> {
    let mut groups = Batchable::new();
    for (pos, &idx) in indices.iter().enumerate() {
        let object = db
            .object(idx)
            .ok_or(QueryError::internal("batch grouping received an unresolved object index"))?;
        groups.entry((object.model(), object.anchor().time())).or_default().push((pos, object));
    }
    Ok(groups)
}

/// The database-level loop of the object-based family over an explicit set
/// of database object indices — the unit of work one shard of
/// [`crate::parallel::run_sharded`] owns. Objects are grouped by
/// `(model, anchor time)`, each group runs through [`forward_chunk`] in
/// [`crate::engine::EngineConfig::batch_size`] chunks (in group order, so a rule that
/// carries state — top-k's candidate list — tightens from chunk to chunk),
/// and the answers are scattered back into the order of `indices`.
pub(crate) fn forward_database<R: ForwardRule>(
    pipeline: &mut Propagator<'_>,
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    reach: &ReachPlan,
    rule: &mut R,
) -> Result<Vec<R::Output>> {
    let batch_size = pipeline.config().effective_batch_size();
    let mut results: Vec<Option<R::Output>> = indices.iter().map(|_| None).collect();
    for ((model, t0), members) in group_batchable(db, indices)? {
        let chain = &db.models()[model];
        let schedule = reach.schedule(model)?;
        for chunk in members.chunks(batch_size) {
            let objects: Vec<&UncertainObject> = chunk.iter().map(|&(_, object)| object).collect();
            let answers = forward_chunk(pipeline, chain, t0, &objects, window, schedule, rule)?;
            for (&(pos, _), answer) in chunk.iter().zip(answers) {
                results[pos] = Some(answer);
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.ok_or(QueryError::internal("the batch loop covers every position")))
        .collect()
}

/// The per-object validation every engine runs before it evaluates
/// `object` against `window`: the chain, the object and the window's state
/// mask agree in dimension ([`QueryError::ModelDimensionMismatch`]
/// otherwise), and the window starts no earlier than the object's anchor
/// observation ([`QueryError::WindowBeforeObservation`]). Public so that
/// code evaluating objects outside the engines reports the same first
/// error for the same input.
pub fn validate(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> Result<()> {
    if chain.num_states() != object.num_states() {
        return Err(QueryError::ModelDimensionMismatch {
            model_states: chain.num_states(),
            object_states: object.num_states(),
        });
    }
    check_window(chain, window)?;
    check_anchor_time(object.anchor().time(), window)
}

/// The window half of [`validate`]: the window's state mask has the chain's
/// dimension.
pub(crate) fn check_window(chain: &MarkovChain, window: &QueryWindow) -> Result<()> {
    if window.states().dim() != chain.num_states() {
        return Err(QueryError::ModelDimensionMismatch {
            model_states: chain.num_states(),
            object_states: window.states().dim(),
        });
    }
    Ok(())
}

/// The per-object half of [`validate`]: the window starts no earlier than
/// the anchor observation, at `anchor_time`.
#[inline]
pub(crate) fn check_anchor_time(anchor_time: u32, window: &QueryWindow) -> Result<()> {
    if window.t_start() < anchor_time {
        return Err(QueryError::WindowBeforeObservation {
            window_start: window.t_start(),
            observation: anchor_time,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::forall::ForAll;
    use crate::engine::ktimes::KTimes;
    use crate::engine::query_based::group_on;
    use crate::engine::{EngineConfig, QueryProcessor};
    use crate::observation::Observation;
    use crate::parallel::run_sharded;
    use crate::query::{Query, Strategy};
    use crate::ranking::{select_topk, TopK};
    use crate::testkit::{object_at_s2, paper_chain, paper_window};
    use crate::threshold::Threshold;
    use ust_space::TimeSet;

    /// `P∃` of one object by the chunk-of-one driver.
    fn exists_with(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
        config: &EngineConfig,
        stats: &mut EvalStats,
    ) -> Result<f64> {
        Ok(evaluate_one(chain, object, window, config, stats, Exists)?.probability)
    }

    fn exists(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> Result<f64> {
        exists_with(chain, object, window, &EngineConfig::default(), &mut EvalStats::new())
    }

    #[test]
    fn worked_example_yields_0864() {
        let p = exists(&paper_chain(), &object_at_s2(), &paper_window()).unwrap();
        assert!((p - 0.864).abs() < 1e-12);
    }

    #[test]
    fn matches_explicit_augmented_matrices() {
        // The virtual operator must agree with the materialized M−/M+
        // propagation for an uncertain (multi-state) start distribution.
        let chain = paper_chain();
        let start = ust_markov::SparseVector::from_pairs(3, [(0, 0.25), (2, 0.75)]).unwrap();
        let object = UncertainObject::with_single_observation(
            1,
            Observation::uncertain(0, start.clone()).unwrap(),
        );
        let window = paper_window();
        let fast = exists(&chain, &object, &window).unwrap();

        // Reference: explicit augmented matrices.
        let minus = ust_oracle::augmented::exists_minus(chain.matrix());
        let plus = ust_oracle::augmented::exists_plus(chain.matrix(), window.states());
        let mut v = ust_markov::DenseVector::zeros(4);
        for (i, p) in start.iter() {
            v.set(i, p).unwrap();
        }
        for t in 0..3u32 {
            let m = if window.time_in_window(t + 1) { &plus } else { &minus };
            v = m.vecmat_dense(&v).unwrap();
        }
        assert!((fast - v.get(3)).abs() < 1e-12);
    }

    #[test]
    fn anchor_inside_window_counts_immediately() {
        // Anchor at t=2 which is in T▫ and at a window state: probability 1.
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(2, 3, 0).unwrap());
        let p = exists(&paper_chain(), &object, &paper_window()).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_before_observation_is_rejected() {
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(5, 3, 0).unwrap());
        assert!(matches!(
            exists(&paper_chain(), &object, &paper_window()),
            Err(QueryError::WindowBeforeObservation { .. })
        ));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(0, 5, 0).unwrap());
        assert!(matches!(
            exists(&paper_chain(), &object, &paper_window()),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
        let window = QueryWindow::from_states(4, [0usize], TimeSet::at(1)).unwrap();
        assert!(matches!(
            exists(&paper_chain(), &object_at_s2(), &window),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
    }

    #[test]
    fn early_termination_when_all_worlds_hit() {
        // Window covering the full space at t=1: every world hits at t=1,
        // so propagation to t=9 must stop early.
        let window = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::new([1, 9])).unwrap();
        let mut stats = EvalStats::new();
        let p = exists_with(
            &paper_chain(),
            &object_at_s2(),
            &window,
            &EngineConfig::default(),
            &mut stats,
        )
        .unwrap();
        assert!((p - 1.0).abs() < 1e-12);
        assert_eq!(stats.early_terminations, 1);
        assert!(stats.transitions < 9);
    }

    #[test]
    fn epsilon_pruning_reports_dropped_mass() {
        let config = EngineConfig::default().with_epsilon(0.05);
        let mut stats = EvalStats::new();
        let p = exists_with(&paper_chain(), &object_at_s2(), &paper_window(), &config, &mut stats)
            .unwrap();
        // The pruned result may deviate by at most the dropped mass.
        assert!((p - 0.864).abs() <= stats.pruned_mass + 1e-12);
    }

    #[test]
    fn batch_evaluation_covers_all_objects() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        for (i, s) in [0usize, 1, 2].into_iter().enumerate() {
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::exact(0, 3, s).unwrap(),
            ))
            .unwrap();
        }
        let mut stats = EvalStats::new();
        let spec = Query::exists().window(paper_window()).strategy(Strategy::ObjectBased);
        let answer =
            QueryProcessor::new(&db).execute_with_stats(&spec.build().unwrap(), &mut stats);
        let results = answer.unwrap().probabilities().unwrap().to_vec();
        assert_eq!(results.len(), 3);
        assert_eq!(stats.objects_evaluated, 3);
        // From Example 2's backward vector: starting at s1 → 0.96,
        // s2 → 0.864, s3 → 0.928.
        assert!((results[0].probability - 0.96).abs() < 1e-12);
        assert!((results[1].probability - 0.864).abs() < 1e-12);
        assert!((results[2].probability - 0.928).abs() < 1e-12);
    }

    /// Runs `rule` over `db` the way the planner does (one reach plan,
    /// sharded database loops) at every batch size × thread count and
    /// checks it against the chunk-of-one reference ([`evaluate_one`] per
    /// object, returned): `view` of the answers — `Debug` text, which
    /// round-trips every `f64` bit — and, with `ledger`, the counters that
    /// do not depend on how objects share a batch.
    fn assert_matches_chunk_of_one<R>(
        db: &TrajectoryDatabase,
        window: &QueryWindow,
        rule: R,
        ledger: bool,
        mut view: impl FnMut(&[R::Output]) -> String,
    ) -> Vec<R::Output>
    where
        R: ForwardRule + Clone + Sync,
        R::Output: Send,
    {
        let counters = |s: &EvalStats| {
            let retired = s.objects_evaluated + s.objects_pruned + s.early_terminations;
            (s.transitions, s.entries_touched, retired)
        };
        let mut expected = EvalStats::new();
        let solo = |o| {
            let config = EngineConfig::default();
            evaluate_one(db.model_of(o), o, window, &config, &mut expected, rule.clone()).unwrap()
        };
        let reference: Vec<R::Output> = db.objects().iter().map(solo).collect();
        let indices: Vec<usize> = (0..db.len()).collect();
        let groups = group_on(db, &indices, window).unwrap();
        let reach = ReachPlan::from_groups(db, &groups, window, R::REACH).unwrap();
        for threads in [1usize, 3] {
            for batch_size in [1usize, 3, 64] {
                let config =
                    EngineConfig::default().with_batch_size(batch_size).with_num_threads(threads);
                let mut stats = EvalStats::new();
                let answers = run_sharded(&indices, &config, &mut stats, |pipeline, idxs| {
                    forward_database(pipeline, db, idxs, window, &reach, &mut rule.clone())
                })
                .unwrap();
                let at = format!("batch = {batch_size}, threads = {threads}");
                assert_eq!(view(&answers), view(&reference), "{at}");
                if ledger {
                    assert_eq!(counters(&stats), counters(&expected), "{at}");
                }
            }
        }
        reference
    }

    #[test]
    fn every_rule_matches_its_chunk_of_one_at_every_batch_size_and_thread_count() {
        // Two models, three anchor times, exact and uncertain anchors mixed.
        let n = 40;
        let chains = vec![
            ust_oracle::testutil::random_chain(11, n, 3),
            ust_oracle::testutil::random_chain(13, n, 4),
        ];
        let mut db = TrajectoryDatabase::with_models(chains).unwrap();
        let mut rng = ust_oracle::testutil::rng(12);
        for id in 0..23u64 {
            let t0 = (id % 3) as u32;
            let anchor = match id % 4 {
                0 => Observation::exact(t0, n, (id as usize * 7) % n).unwrap(),
                _ => {
                    let dist = ust_oracle::testutil::random_distribution(&mut rng, n, 3);
                    Observation::uncertain(t0, dist).unwrap()
                }
            };
            let object = UncertainObject::with_single_observation(id, anchor);
            db.insert(object.with_model((id % 2) as usize)).unwrap();
        }
        let window = QueryWindow::from_states(n, 5usize..=9, TimeSet::new([2, 4, 5, 8])).unwrap();
        fn bits<T: std::fmt::Debug>(answers: &[T]) -> String {
            format!("{answers:?}")
        }

        let exists = assert_matches_chunk_of_one(&db, &window, Exists, true, bits);
        assert_matches_chunk_of_one(&db, &window, ForAll::over(&window).unwrap(), true, bits);
        assert_matches_chunk_of_one(&db, &window, KTimes, true, bits);
        for tau in [0.05, 0.2, 0.5, 0.9] {
            let outcomes = assert_matches_chunk_of_one(&db, &window, Threshold { tau }, true, bits);
            assert!(outcomes.iter().any(|o| o.early), "τ = {tau}: some bound must decide early");
            for (outcome, exact) in outcomes.iter().zip(&exists) {
                assert_eq!(outcome.qualifies, exact.probability >= tau, "τ = {tau}");
            }
        }
        // Top-k: which objects a shard dismisses depends on the bound its
        // earlier chunks left, so only the ranking is layout-independent. A
        // chunk of one starts from an empty candidate list and dismisses
        // only what can never hit: its survivors carry their exact ∃.
        // (Each of the six runs views its answers and the reference.)
        let k = 4;
        let mut dismissed = 0;
        let solo = assert_matches_chunk_of_one(&db, &window, TopK::new(k), false, |answers| {
            dismissed += answers.iter().filter(|a| a.is_none()).count();
            bits(&select_topk(answers.iter().flatten().cloned().collect(), k))
        });
        let never_hit = solo.iter().filter(|a| a.is_none()).count();
        assert!(dismissed > 12 * never_hit, "the k-th bound must dismiss someone");
        assert_eq!(select_topk(solo.into_iter().flatten().collect(), k), select_topk(exists, k));
    }

    #[test]
    fn noncontiguous_window_times() {
        // T▫ = {1, 3} skips t=2 entirely.
        let window = QueryWindow::from_states(3, [0usize], TimeSet::new([1, 3])).unwrap();
        let p = exists(&paper_chain(), &object_at_s2(), &window).unwrap();
        // By hand: at t=1 mass at s1 = 0.6 (hit). Remaining (0, 0, 0.4):
        // t=2 → (0, 0.32, 0.08); t=3 → s1 gets 0.32·0.6 = 0.192 (hit).
        assert!((p - (0.6 + 0.192)).abs() < 1e-12);
    }
}
