//! Object-based (OB) PST∃Q evaluation — Section V-A of the paper.
//!
//! For each object, the distribution vector is propagated forward from its
//! anchor observation through the augmented matrices `M−`/`M+`. We apply
//! those matrices *virtually*: a step is an ordinary `v · M` product, and
//! when the target timestamp lies in `T▫` the mass entering the query states
//! is removed from the vector and accumulated into the scalar ⊤ — exactly
//! the column surgery `M+` performs, without materializing an
//! `(|S|+1)²` matrix per query (cross-checked against the explicit
//! construction in `ust_markov::augmented` by the test suite).
//!
//! Worlds that reached the window are *excluded from further propagation*,
//! which is what makes the result correct under possible-worlds semantics —
//! each world is counted at most once (the flaw of the naive
//! "sum the per-timestamp probabilities" approach the paper opens with).

use std::ops::ControlFlow;

use ust_markov::{MarkovChain, PropagationVector};

use crate::database::TrajectoryDatabase;
use crate::engine::pipeline::{BatchPhase, ObjectBatch, Propagator, ReachRule, ReachSchedule};
use crate::engine::{group_batchable, EngineConfig};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::query::{ObjectProbability, QueryWindow};
use crate::stats::EvalStats;

/// Probability that `object` intersects the query window at some query
/// timestamp (PST∃Q, Definition 2), evaluated forward from the object's
/// anchor observation.
pub fn exists_probability(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
) -> Result<f64> {
    exists_probability_with_stats(chain, object, window, config, &mut EvalStats::new())
}

/// As [`exists_probability`], accumulating operation counters into `stats`.
pub fn exists_probability_with_stats(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<f64> {
    exists_with(&mut Propagator::new(config, stats), chain, object, window)
}

/// The OB driver on an existing [`Propagator`] (the batch evaluator and the
/// parallel engine reuse one pipeline per worker so scratch space is
/// allocated once).
pub(crate) fn exists_with(
    pipeline: &mut Propagator<'_>,
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
) -> Result<f64> {
    validate(chain, object, window)?;
    let reach = ReachSchedule::build(chain, window, ReachRule::Exists, object.anchor().time())?;
    let (hit, decided) = window_mass_with(pipeline, chain, object, window, &reach)?;
    Ok(exists_answer(hit, decided))
}

/// The forward sweep under the ∃ accumulation rule for one validated
/// object: at every query timestamp the mass inside `S▫` moves from the
/// vector to the scalar ⊤ — the virtual application of the `M+` column
/// surgery (worlds that reached the window are excluded from further
/// propagation, so each world is counted at most once). Returns ⊤ and the
/// mass `reach` decided; step loop, trimming, pruning and accounting live
/// in [`Propagator::forward`].
pub(crate) fn window_mass_with(
    pipeline: &mut Propagator<'_>,
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    reach: &ReachSchedule,
) -> Result<(f64, f64)> {
    let anchor = object.anchor();
    let mut rows = [pipeline.seed(anchor.distribution().clone())];
    let mut hit = 0.0;
    let decided =
        pipeline.forward(chain.matrix(), &mut rows, anchor.time(), window, reach, |rows, _| {
            hit += rows[0].extract_masked(window.states());
            Ok(())
        })?;
    Ok((hit, decided[0]))
}

/// The PST∃Q answer from a sweep's ⊤ mass: decided mass can never hit and
/// is ignored.
pub(crate) fn exists_answer(hit: f64, _decided: f64) -> f64 {
    hit.min(1.0)
}

/// One query's reach schedules: one [`ReachSchedule`] per populated model,
/// built from that model's earliest anchor (the masks do not depend on the
/// start, so it serves every later anchor), **once per query** — before
/// the fan-out, shared read-only by every shard.
///
/// Preparing the plan is also where a query's objects are validated, in
/// index order — so the first error is deterministic regardless of batch
/// or shard layout; the batched drivers trust a plan to cover their
/// indices.
#[derive(Debug)]
pub(crate) struct ReachPlan {
    schedules: Vec<Option<ReachSchedule>>,
}

impl ReachPlan {
    /// Validates `indices` against `window` and sweeps one schedule of
    /// `rule` per model they populate.
    pub(crate) fn prepare(
        db: &TrajectoryDatabase,
        indices: &[usize],
        window: &QueryWindow,
        rule: ReachRule,
    ) -> Result<ReachPlan> {
        let mut earliest: Vec<Option<u32>> = vec![None; db.models().len()];
        for &idx in indices {
            let object = db.object(idx).ok_or(QueryError::internal(
                "the reach plan received an unresolved object index",
            ))?;
            validate(db.model_of(object), object, window)?;
            let slot = &mut earliest[object.model()];
            let t0 = object.anchor().time();
            *slot = Some(slot.map_or(t0, |t| t.min(t0)));
        }
        let schedules = earliest
            .into_iter()
            .zip(db.models())
            .map(|(t0, chain)| {
                t0.map(|t0| ReachSchedule::build(chain, window, rule, t0)).transpose()
            })
            .collect::<Result<_>>()?;
        Ok(ReachPlan { schedules })
    }

    /// The schedule of `model`.
    pub(crate) fn schedule(&self, model: usize) -> Result<&ReachSchedule> {
        self.schedules
            .get(model)
            .and_then(Option::as_ref)
            .ok_or(QueryError::internal("the reach plan covers every model its indices populate"))
    }
}

/// Seeds one propagation row per chunk member from its anchor
/// distribution — the single-row-per-object batch layout shared by the
/// ∃, threshold and top-k drivers.
pub(crate) fn seed_anchor_rows(
    pipeline: &Propagator<'_>,
    db: &TrajectoryDatabase,
    indices: &[usize],
    chunk: &[usize],
) -> Result<Vec<PropagationVector>> {
    chunk
        .iter()
        .map(|&pos| {
            let object = db
                .object(indices[pos])
                .ok_or(QueryError::internal("batched position resolves to a database object"))?;
            Ok(pipeline.seed(object.anchor().distribution().clone()))
        })
        .collect()
}

/// The ∃ accumulation rule over a whole batch: for every live group, the
/// mass inside `S▫` moves from the group's row into `hits[g]` — the
/// virtual `M+` redirect to ⊤, applied per object. Shared verbatim by the
/// ∃, ∀, threshold and top-k drivers so the rule cannot diverge between
/// them.
pub(crate) fn accumulate_exists_hits(
    batch: &mut ObjectBatch<'_>,
    hits: &mut [f64],
    window: &QueryWindow,
) {
    for (g, hit) in hits.iter_mut().enumerate() {
        if batch.is_active(g) {
            *hit += batch.group_mut(g)[0].extract_masked(window.states());
        }
    }
}

/// The batched OB driver over an explicit set of database object indices —
/// the unit of work one `ShardedExecutor` worker owns. Results come back in
/// the order of `indices`.
///
/// Objects are grouped by `(model, anchor time)` and propagated in
/// [`EngineConfig::batch_size`] batches of one row each; every batch shares
/// one matrix traversal per timestamp through the batched kernel, trimmed
/// to `reach`. The ∃ accumulation rule is applied per live group, and
/// groups whose worlds are all decided drop out of the batch without
/// stopping the sweep. `answer` turns an object's `(⊤, decided)` masses
/// into its probability: [`exists_answer`] for PST∃Q over `window`, the
/// escape complement for PST∀Q over the complement window under the ∀
/// schedule. Per object, results are bit-for-bit identical to
/// [`window_mass_with`].
pub(crate) fn probabilities_batched(
    pipeline: &mut Propagator<'_>,
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    reach: &ReachPlan,
    answer: fn(f64, f64) -> f64,
) -> Result<Vec<ObjectProbability>> {
    let batch_size = pipeline.config().effective_batch_size();
    let mut results: Vec<Option<ObjectProbability>> = vec![None; indices.len()];
    for ((model, anchor_time), members) in group_batchable(db, indices)? {
        let chain = &db.models()[model];
        let schedule = reach.schedule(model)?;
        for chunk in members.chunks(batch_size) {
            let mut rows = seed_anchor_rows(pipeline, db, indices, chunk)?;
            let mut batch = ObjectBatch::new(&mut rows, 1)?;
            let mut hits = vec![0.0f64; chunk.len()];
            pipeline.forward_batch(
                chain.matrix(),
                &mut batch,
                anchor_time,
                window,
                schedule,
                |phase, batch, _| {
                    if phase == BatchPhase::Window {
                        accumulate_exists_hits(batch, &mut hits, window);
                    }
                    Ok(ControlFlow::Continue(()))
                },
            )?;
            for (g, (&pos, hit)) in chunk.iter().zip(hits).enumerate() {
                let object = db.object(indices[pos]).ok_or(QueryError::internal(
                    "batched position resolves to a database object",
                ))?;
                results[pos] = Some(ObjectProbability {
                    object_id: object.id(),
                    probability: answer(hit, batch.decided(g)[0]),
                });
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.ok_or(QueryError::internal("the batch loop covers every position")))
        .collect()
}

/// Evaluates the PST∃Q for every object in the database through the batched
/// kernel ([`EngineConfig::batch_size`] objects per shared traversal).
pub fn evaluate(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    let indices: Vec<usize> = (0..db.len()).collect();
    let reach = ReachPlan::prepare(db, &indices, window, ReachRule::Exists)?;
    let mut pipeline = Propagator::new(config, stats);
    probabilities_batched(&mut pipeline, db, &indices, window, &reach, exists_answer)
}

/// Common validation: dimensions agree and the window starts no earlier
/// than the anchor observation.
pub(crate) fn validate(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
) -> Result<()> {
    if chain.num_states() != object.num_states() {
        return Err(QueryError::ModelDimensionMismatch {
            model_states: chain.num_states(),
            object_states: object.num_states(),
        });
    }
    if window.states().dim() != chain.num_states() {
        return Err(QueryError::ModelDimensionMismatch {
            model_states: chain.num_states(),
            object_states: window.states().dim(),
        });
    }
    let anchor_time = object.anchor().time();
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
    use crate::observation::Observation;
    use ust_markov::CsrMatrix;
    use ust_space::TimeSet;

    fn paper_chain() -> MarkovChain {
        MarkovChain::from_csr(
            CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
                .unwrap(),
        )
        .unwrap()
    }

    fn object_at_s2() -> UncertainObject {
        UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap())
    }

    fn paper_window() -> QueryWindow {
        QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap()
    }

    #[test]
    fn worked_example_yields_0864() {
        let p = exists_probability(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            &EngineConfig::default(),
        )
        .unwrap();
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
        let fast = exists_probability(&chain, &object, &window, &EngineConfig::default()).unwrap();

        // Reference: explicit augmented matrices.
        let minus = ust_markov::augmented::exists_minus(chain.matrix());
        let plus = ust_markov::augmented::exists_plus(chain.matrix(), window.states());
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
        let p =
            exists_probability(&paper_chain(), &object, &paper_window(), &EngineConfig::default())
                .unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_before_observation_is_rejected() {
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(5, 3, 0).unwrap());
        assert!(matches!(
            exists_probability(&paper_chain(), &object, &paper_window(), &EngineConfig::default()),
            Err(QueryError::WindowBeforeObservation { .. })
        ));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(0, 5, 0).unwrap());
        assert!(matches!(
            exists_probability(&paper_chain(), &object, &paper_window(), &EngineConfig::default()),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
        let window = QueryWindow::from_states(4, [0usize], TimeSet::at(1)).unwrap();
        assert!(matches!(
            exists_probability(&paper_chain(), &object_at_s2(), &window, &EngineConfig::default()),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
    }

    #[test]
    fn early_termination_when_all_worlds_hit() {
        // Window covering the full space at t=1: every world hits at t=1,
        // so propagation to t=9 must stop early.
        let window = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::new([1, 9])).unwrap();
        let mut stats = EvalStats::new();
        let p = exists_probability_with_stats(
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
        let p = exists_probability_with_stats(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            &config,
            &mut stats,
        )
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
        let results = evaluate(&db, &paper_window(), &EngineConfig::default(), &mut stats).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(stats.objects_evaluated, 3);
        // From Example 2's backward vector: starting at s1 → 0.96,
        // s2 → 0.864, s3 → 0.928.
        assert!((results[0].probability - 0.96).abs() < 1e-12);
        assert!((results[1].probability - 0.864).abs() < 1e-12);
        assert!((results[2].probability - 0.928).abs() < 1e-12);
    }

    #[test]
    fn noncontiguous_window_times() {
        // T▫ = {1, 3} skips t=2 entirely.
        let window = QueryWindow::from_states(3, [0usize], TimeSet::new([1, 3])).unwrap();
        let p =
            exists_probability(&paper_chain(), &object_at_s2(), &window, &EngineConfig::default())
                .unwrap();
        // By hand: at t=1 mass at s1 = 0.6 (hit). Remaining (0, 0, 0.4):
        // t=2 → (0, 0.32, 0.08); t=3 → s1 gets 0.32·0.6 = 0.192 (hit).
        assert!((p - (0.6 + 0.192)).abs() < 1e-12);
    }
}
