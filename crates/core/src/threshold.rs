//! Probabilistic threshold queries with early termination.
//!
//! Applications usually ask for the objects whose query probability exceeds
//! a threshold `τ` (e.g. "icebergs with ≥ 5% chance of entering the
//! shipping lane") rather than the exact probabilities. During the
//! object-based forward pass the ⊤ mass is a monotonically growing **lower
//! bound** and `⊤ + remaining` a shrinking **upper bound** on `P∃`, so the
//! propagation can stop as soon as either bound decides `τ` — the paper's
//! remark that "computation can be stopped as soon as the probability of
//! state ⊤ becomes sufficiently large", made symmetric for rejection.
//! The pipeline's reach trimming keeps `remaining` tight: what is left in
//! the vector after a timestamp is exactly the mass that can still hit.

use std::ops::ControlFlow;

use ust_markov::MarkovChain;

use crate::database::TrajectoryDatabase;
use crate::engine::object_based::{self, validate, ReachPlan};
use crate::engine::pipeline::{
    BatchPhase, ForwardEvent, ObjectBatch, Propagator, ReachRule, ReachSchedule,
};
use crate::engine::{group_batchable, EngineConfig};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::query::QueryWindow;
use crate::stats::EvalStats;

/// Outcome of a thresholded PST∃Q on one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdOutcome {
    /// True when `P∃ ≥ τ`.
    pub qualifies: bool,
    /// Lower bound on `P∃` at the decision point.
    pub lower: f64,
    /// Upper bound on `P∃` at the decision point.
    pub upper: f64,
    /// True when the decision was reached before `t_end`.
    pub early: bool,
}

/// Thresholded PST∃Q for one object (object-based with bound-based early
/// termination).
pub fn exists_threshold(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    tau: f64,
    config: &EngineConfig,
) -> Result<ThresholdOutcome> {
    exists_threshold_with_stats(chain, object, window, tau, config, &mut EvalStats::new())
}

/// As [`exists_threshold`], accumulating counters.
fn exists_threshold_with_stats(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    tau: f64,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<ThresholdOutcome> {
    threshold_driver(&mut Propagator::new(config, stats), chain, object, window, tau)
}

/// Where a thresholded sweep stands after a timestamp: `Some(qualifies)`
/// once either bound decides `τ`, with the upper bound it was decided on.
/// `alive` is what reach trimming left in the vector — the mass that can
/// still hit (none at `t_end`).
fn decide(hit: f64, alive: f64, tau: f64) -> (Option<bool>, f64) {
    let upper = (hit + alive).min(1.0);
    let decision = if hit >= tau {
        Some(true)
    } else if upper < tau {
        Some(false)
    } else {
        None
    };
    (decision, upper)
}

/// The thresholded-∃ driver on the shared pipeline: the accumulation rule
/// is the ⊤ redirect of the OB engine, and the decision rule compares the
/// monotone lower bound `⊤` / shrinking upper bound `⊤ + alive` against
/// `τ` after every timestamp, stopping the sweep at the first decision.
fn threshold_driver(
    pipeline: &mut Propagator<'_>,
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    tau: f64,
) -> Result<ThresholdOutcome> {
    validate(chain, object, window)?;
    let anchor = object.anchor();
    let t0 = anchor.time();
    let t_end = window.t_end();
    let reach = ReachSchedule::build(chain, window, ReachRule::Exists, t0)?;

    let mut rows = [pipeline.seed(anchor.distribution().clone())];
    let mut hit = 0.0;
    let mut decision: Option<(bool, f64)> = None;

    let decided_at = pipeline.forward_until(
        chain.matrix(),
        &mut rows,
        t0,
        window,
        &reach,
        |event| match event {
            ForwardEvent::Window { rows, .. } => {
                hit += rows[0].extract_masked(window.states());
                Ok(ControlFlow::Continue(()))
            }
            ForwardEvent::StepEnd { rows, .. } => match decide(hit, rows[0].sum(), tau) {
                (Some(qualifies), upper) => {
                    decision = Some((qualifies, upper));
                    Ok(ControlFlow::Break(()))
                }
                (None, _) => Ok(ControlFlow::Continue(())),
            },
        },
    )?;

    match decided_at {
        Some(t) => {
            let early = t < t_end;
            if early {
                pipeline.stats().early_terminations += 1;
            }
            pipeline.stats().objects_evaluated += 1;
            let (qualifies, upper) =
                decision.ok_or(QueryError::internal("an early break always records a decision"))?;
            Ok(ThresholdOutcome { qualifies, lower: hit, upper, early })
        }
        None => {
            // Ran to t_end undecided: the bounds have met at `hit`.
            Ok(ThresholdOutcome { qualifies: hit >= tau, lower: hit, upper: hit, early: false })
        }
    }
}

/// The batched thresholded-∃ driver over an explicit set of database object
/// indices (one `ShardedExecutor` worker's share). Returns one
/// [`ThresholdOutcome`] per index, in order.
///
/// Objects grouped by `(model, anchor time)` propagate together through the
/// batched kernel, trimmed to `reach` (the ∃ schedules of `window`); after
/// every timestamp each live object's bounds are compared against `τ`, and
/// decided objects drop out of the batch — without stopping the sweep for
/// the undecided rest. Decisions, bounds and decision times equal the
/// single-object driver's.
pub(crate) fn threshold_batched(
    pipeline: &mut Propagator<'_>,
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    reach: &ReachPlan,
    tau: f64,
) -> Result<Vec<ThresholdOutcome>> {
    let batch_size = pipeline.config().effective_batch_size();
    let t_end = window.t_end();
    let mut results: Vec<Option<ThresholdOutcome>> = vec![None; indices.len()];
    for ((model, t0), members) in group_batchable(db, indices)? {
        let chain = &db.models()[model];
        let schedule = reach.schedule(model)?;
        for chunk in members.chunks(batch_size) {
            let mut rows = object_based::seed_anchor_rows(pipeline, db, indices, chunk)?;
            let mut batch = ObjectBatch::new(&mut rows, 1)?;
            let mut hits = vec![0.0f64; chunk.len()];
            let mut outcomes: Vec<Option<ThresholdOutcome>> = vec![None; chunk.len()];
            pipeline.forward_batch(
                chain.matrix(),
                &mut batch,
                t0,
                window,
                schedule,
                |phase, batch, t| {
                    match phase {
                        BatchPhase::Window => {
                            object_based::accumulate_exists_hits(batch, &mut hits, window);
                        }
                        BatchPhase::StepEnd => {
                            for (g, outcome) in outcomes.iter_mut().enumerate() {
                                if !batch.is_active(g) {
                                    continue;
                                }
                                let hit = hits[g];
                                if let (Some(qualifies), upper) =
                                    decide(hit, batch.group(g)[0].sum(), tau)
                                {
                                    let early = t < t_end;
                                    *outcome = Some(ThresholdOutcome {
                                        qualifies,
                                        lower: hit,
                                        upper,
                                        early,
                                    });
                                    batch.deactivate(g);
                                }
                            }
                        }
                    }
                    Ok(ControlFlow::Continue(()))
                },
            )?;
            for (g, &pos) in chunk.iter().enumerate() {
                results[pos] = Some(match outcomes[g].take() {
                    Some(outcome) => {
                        // The decision is the driver's outcome: account it
                        // the way the single-object driver does.
                        if outcome.early {
                            pipeline.stats().early_terminations += 1;
                        }
                        pipeline.stats().objects_evaluated += 1;
                        outcome
                    }
                    // Ran to t_end undecided (or its mass ran out): the
                    // bounds have met at `hit`; the pipeline already counted
                    // the evaluation.
                    None => ThresholdOutcome {
                        qualifies: hits[g] >= tau,
                        lower: hits[g],
                        upper: hits[g],
                        early: false,
                    },
                });
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.ok_or(QueryError::internal("the batch loop covers every position")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{object_based, QueryProcessor};
    use crate::observation::Observation;
    use crate::query::{Query, Strategy};
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

    /// The batched driver on a one-object database.
    fn threshold_batched_one(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
        tau: f64,
        stats: &mut EvalStats,
    ) -> ThresholdOutcome {
        let mut db = TrajectoryDatabase::new(chain.clone());
        db.insert(object.clone()).unwrap();
        let config = EngineConfig::default();
        let reach = ReachPlan::prepare(&db, &[0], window, ReachRule::Exists).unwrap();
        let mut pipeline = Propagator::new(&config, stats);
        threshold_batched(&mut pipeline, &db, &[0], window, &reach, tau).unwrap()[0]
    }

    #[test]
    fn decisions_match_exact_probability_for_all_taus() {
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let config = EngineConfig::default();
        let exact = object_based::exists_probability(&chain, &o, &w, &config).unwrap();
        for tau in [0.01, 0.1, 0.3, 0.5, 0.8, 0.863, 0.865, 0.99] {
            let outcome = exists_threshold(&chain, &o, &w, tau, &config).unwrap();
            assert_eq!(
                outcome.qualifies,
                exact >= tau,
                "τ = {tau}: exact {exact}, outcome {outcome:?}"
            );
            assert!(outcome.lower <= exact + 1e-12);
            assert!(outcome.upper >= exact - 1e-12);
        }
    }

    #[test]
    fn low_threshold_accepts_early() {
        // After the first window timestamp the ⊤ mass is already 0.32,
        // so τ = 0.3 must accept without propagating to t=3.
        let mut stats = EvalStats::new();
        let outcome = exists_threshold_with_stats(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            0.3,
            &EngineConfig::default(),
            &mut stats,
        )
        .unwrap();
        assert!(outcome.qualifies);
        assert!(outcome.early);
        assert_eq!(stats.transitions, 2);
        assert_eq!(stats.early_terminations, 1);
    }

    #[test]
    fn unreachable_window_rejects_early() {
        // Query on a state that s1-anchored worlds cannot reach in 1 step
        // with τ above the total reachable mass: from s1 all mass goes to
        // s3, so window {s2}×{1} has probability 0 → upper bound drops to 0
        // at t=1 < t_end=1 edge; use τ > 0 with a longer horizon instead.
        let o = UncertainObject::with_single_observation(2, Observation::exact(0, 3, 0).unwrap());
        let w = QueryWindow::from_states(3, [1usize], TimeSet::at(1)).unwrap();
        let outcome =
            exists_threshold(&paper_chain(), &o, &w, 0.5, &EngineConfig::default()).unwrap();
        assert!(!outcome.qualifies);
        assert_eq!(outcome.upper, 0.0);
    }

    #[test]
    fn anchor_in_window_can_decide_before_any_transition() {
        let o = UncertainObject::with_single_observation(3, Observation::exact(2, 3, 0).unwrap());
        let mut stats = EvalStats::new();
        let outcome = exists_threshold_with_stats(
            &paper_chain(),
            &o,
            &paper_window(),
            0.9,
            &EngineConfig::default(),
            &mut stats,
        )
        .unwrap();
        assert!(outcome.qualifies);
        assert!(outcome.early);
        assert_eq!(stats.transitions, 0);
    }

    #[test]
    fn reachability_pruner_masks_shrink_near_t_end() {
        let chain = paper_chain();
        let window = paper_window();
        // The bounds above read `⊤ + alive` as tight because of exactly
        // these masks: what the ∃ schedule leaves in a vector can still hit.
        let exists = ReachSchedule::build(&chain, &window, ReachRule::Exists, 0).unwrap();
        // At t_end nothing remains ahead.
        assert_eq!(exists.mask_at(3).unwrap().count(), 0);
        // At t=2: states that can enter {s1, s2} at t=3 → predecessors of
        // the window: s2 (→s1) and s3 (→s2).
        assert_eq!(exists.mask_at(2).unwrap().to_indices(), vec![1, 2]);
        // Earlier masks can only grow (window reachable from everywhere).
        assert_eq!(exists.mask_at(0).unwrap().count(), 3);
        assert!(exists.mask_at(4).is_none());

        let forall = ReachSchedule::build(&chain, &window, ReachRule::ForAll, 1).unwrap();
        // At t_end every state still satisfies "all remaining times".
        assert_eq!(forall.mask_at(3).unwrap().count(), 3);
        // At t=2: states that can be inside {s1, s2} at t=3 — as for ∃.
        assert_eq!(forall.mask_at(2).unwrap().to_indices(), vec![1, 2]);
        // At t=1: states that can step into {s1, s2} ∩ mask(2) = {s2} at
        // t=2 — only s3 (→s2); s2 steps to s1 or s3, s1 to s3.
        assert_eq!(forall.mask_at(1).unwrap().to_indices(), vec![2]);
        assert!(forall.mask_at(0).is_none(), "built from t0 = 1");
        // A start beyond t_end is clamped to it.
        let late = ReachSchedule::build(&chain, &window, ReachRule::ForAll, 9).unwrap();
        assert_eq!(late.mask_at(3).unwrap().count(), 3);
        assert!(late.mask_at(2).is_none());
    }

    #[test]
    fn pruned_threshold_matches_unpruned_decisions() {
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let config = EngineConfig::default();
        for tau in [0.05, 0.3, 0.5, 0.8, 0.9] {
            let plain = exists_threshold(&chain, &o, &w, tau, &config).unwrap();
            let pruned = threshold_batched_one(&chain, &o, &w, tau, &mut EvalStats::new());
            assert_eq!(plain.qualifies, pruned.qualifies, "τ = {tau}");
            assert!(pruned.upper <= plain.upper + 1e-12, "pruned bound must be tighter");
        }
    }

    #[test]
    fn batched_outcomes_equal_the_single_object_driver_at_every_batch_size() {
        // Same trimmed core, same bounds: decision, lower, upper and the
        // early flag agree field by field, whatever the batch holds.
        let n = 40;
        let chain = ust_markov::testutil::random_chain(11, n, 3);
        let mut rng = ust_markov::testutil::rng(12);
        let mut db = TrajectoryDatabase::new(chain.clone());
        for id in 0..23u64 {
            let dist = ust_markov::testutil::random_distribution(&mut rng, n, 3);
            let t0 = (id % 3) as u32;
            db.insert(UncertainObject::with_single_observation(
                id,
                Observation::uncertain(t0, dist).unwrap(),
            ))
            .unwrap();
        }
        let window = QueryWindow::from_states(n, 5usize..=9, TimeSet::new([2, 4, 5, 8])).unwrap();
        let indices: Vec<usize> = (0..db.len()).collect();
        let reach = ReachPlan::prepare(&db, &indices, &window, ReachRule::Exists).unwrap();
        for tau in [0.05, 0.2, 0.5, 0.9] {
            let single: Vec<ThresholdOutcome> = db
                .objects()
                .iter()
                .map(|o| {
                    exists_threshold(&chain, o, &window, tau, &EngineConfig::default()).unwrap()
                })
                .collect();
            assert!(single.iter().any(|o| o.early), "τ = {tau}: some bound must decide early");
            for batch_size in [1usize, 7, 64] {
                let config = EngineConfig::default().with_batch_size(batch_size);
                let mut stats = EvalStats::new();
                let mut pipeline = Propagator::new(&config, &mut stats);
                let batched =
                    threshold_batched(&mut pipeline, &db, &indices, &window, &reach, tau).unwrap();
                assert_eq!(batched, single, "τ = {tau}, batch = {batch_size}");
            }
        }
    }

    #[test]
    fn pruner_rejects_unreachable_objects_immediately() {
        // A 5-state "conveyor belt" moving right: an object at state 4
        // (the absorbing end) can never come back to state 0.
        let chain = MarkovChain::from_csr(
            CsrMatrix::from_dense(&[
                vec![0.0, 1.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0, 1.0],
                vec![0.0, 0.0, 0.0, 0.0, 1.0],
            ])
            .unwrap(),
        )
        .unwrap();
        let o = UncertainObject::with_single_observation(1, Observation::exact(0, 5, 4).unwrap());
        let w = QueryWindow::from_states(5, [0usize], TimeSet::interval(3, 8)).unwrap();
        let mut stats = EvalStats::new();
        let outcome = threshold_batched_one(&chain, &o, &w, 0.01, &mut stats);
        assert!(!outcome.qualifies);
        assert!(outcome.early);
        assert_eq!(stats.transitions, 0, "decided before any propagation");
    }

    #[test]
    fn batch_threshold_query() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        for (i, s) in [0usize, 1, 2].into_iter().enumerate() {
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::exact(0, 3, s).unwrap(),
            ))
            .unwrap();
        }
        // Exact probabilities are (0.96, 0.864, 0.928).
        let spec = Query::exists()
            .window(paper_window())
            .threshold(0.9)
            .strategy(Strategy::ObjectBased)
            .build()
            .unwrap();
        let accepted = QueryProcessor::new(&db).execute(&spec).unwrap();
        assert_eq!(accepted.ids().unwrap(), &[0, 2]);
    }
}
