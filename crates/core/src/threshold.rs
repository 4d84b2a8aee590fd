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

use std::ops::ControlFlow;

use ust_markov::{MarkovChain, StateMask};

use crate::database::TrajectoryDatabase;
use crate::engine::object_based::{self, validate};
use crate::engine::pipeline::{BatchPhase, ForwardEvent, ObjectBatch, Propagator};
use crate::engine::{group_batchable, EngineConfig};
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::query::QueryWindow;
use crate::stats::EvalStats;

/// Time-indexed backward reachability of the query window.
///
/// `mask(t)` is the set of states from which the *remaining* window
/// (`T▫ ∩ (t, t_end]`) is reachable along the chain's non-zero transitions.
/// Mass outside `mask(t)` can never contribute to ⊤ anymore, so the upper
/// bound tightens from `hit + alive` to `hit + alive∩mask(t)` — this is the
/// structural pruning the paper folds into the `M+` matrices, hoisted out
/// as a per-query precomputation shared by all objects.
#[derive(Debug, Clone)]
pub struct ReachabilityPruner {
    t0: u32,
    masks: Vec<StateMask>,
}

impl ReachabilityPruner {
    /// Builds the masks for times `t0..=t_end` (one backward sweep over the
    /// transposed chain).
    pub fn build(chain: &MarkovChain, window: &QueryWindow, t0: u32) -> Result<ReachabilityPruner> {
        let n = chain.num_states();
        let t_end = window.t_end();
        let steps = (t_end - t0.min(t_end)) as usize;
        let transposed = chain.transposed();
        let mut masks: Vec<StateMask> = Vec::with_capacity(steps + 1);
        // At t_end nothing of the window remains ahead.
        masks.push(StateMask::new(n));
        let mut current = StateMask::new(n);
        let mut t = t_end;
        while t > t0.min(t_end) {
            // Target of a transition out of time t-1: remaining-window
            // reachable states at t, plus the window itself when t ∈ T▫.
            let target = if window.time_in_window(t) {
                current.union(window.states())?
            } else {
                current.clone()
            };
            let mut prev = StateMask::new(n);
            if target.count() == n {
                prev = StateMask::full(n);
            } else {
                for s in target.iter() {
                    let (preds, _) = transposed.row(s);
                    for &p in preds {
                        let _ = prev.insert(p as usize);
                    }
                }
            }
            masks.push(prev.clone());
            current = prev;
            t -= 1;
        }
        masks.reverse();
        Ok(ReachabilityPruner { t0: t0.min(t_end), masks })
    }

    /// The reachability mask at time `t` (None when `t` is out of range).
    pub fn mask_at(&self, t: u32) -> Option<&StateMask> {
        self.masks.get((t.checked_sub(self.t0)?) as usize)
    }
}

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

    let mut rows = [pipeline.seed(anchor.distribution().clone())];
    let mut hit = 0.0;
    let mut remaining_query_times = window.times().iter().filter(|&t| t > t0).count();
    let mut decision: Option<(bool, f64, f64)> = None;

    let decided_at =
        pipeline.forward_until(chain.matrix(), &mut rows, t0, window, |event| match event {
            ForwardEvent::Window { rows, t } => {
                hit += rows[0].extract_masked(window.states());
                if t > t0 {
                    remaining_query_times -= 1;
                }
                Ok(ControlFlow::Continue(()))
            }
            ForwardEvent::StepEnd { rows, .. } => {
                // With no query timestamps left, no more mass can reach ⊤.
                let upper =
                    if remaining_query_times == 0 { hit } else { (hit + rows[0].sum()).min(1.0) };
                if hit >= tau {
                    decision = Some((true, hit, upper));
                    Ok(ControlFlow::Break(()))
                } else if upper < tau {
                    decision = Some((false, hit, upper));
                    Ok(ControlFlow::Break(()))
                } else {
                    Ok(ControlFlow::Continue(()))
                }
            }
        })?;

    match decided_at {
        Some(t) => {
            let early = t < t_end;
            if early {
                pipeline.stats().early_terminations += 1;
            }
            pipeline.stats().objects_evaluated += 1;
            let (qualifies, lower, upper) =
                decision.ok_or(QueryError::internal("an early break always records a decision"))?;
            Ok(ThresholdOutcome { qualifies, lower, upper, early })
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
/// batched kernel; after every timestamp each live object's bounds are
/// compared against `τ`, and decided objects drop out of the batch —
/// without stopping the sweep for the undecided rest. A
/// [`ReachabilityPruner`] per `(model, anchor time)` group tightens the
/// upper bound — alive mass outside the remaining window's
/// backward-reachable set can never hit — so decisions equal the
/// single-object driver's and come no later.
pub(crate) fn threshold_batched(
    pipeline: &mut Propagator<'_>,
    db: &TrajectoryDatabase,
    indices: &[usize],
    window: &QueryWindow,
    tau: f64,
) -> Result<Vec<ThresholdOutcome>> {
    object_based::validate_indices(db, indices, window)?;
    let batch_size = pipeline.config().effective_batch_size();
    let t_end = window.t_end();
    let mut results: Vec<Option<ThresholdOutcome>> = vec![None; indices.len()];
    for ((model, t0), members) in group_batchable(db, indices)? {
        let chain = &db.models()[model];
        let pruner = ReachabilityPruner::build(chain, window, t0)?;
        for chunk in members.chunks(batch_size) {
            let mut rows = object_based::seed_anchor_rows(pipeline, db, indices, chunk)?;
            let mut batch = ObjectBatch::new(&mut rows, 1)?;
            let mut hits = vec![0.0f64; chunk.len()];
            let mut outcomes: Vec<Option<ThresholdOutcome>> = vec![None; chunk.len()];
            // The remaining-window count is shared: every member anchors at
            // the same t0.
            let mut remaining_query_times = window.times().iter().filter(|&t| t > t0).count();
            pipeline.forward_batch(chain.matrix(), &mut batch, t0, window, |phase, batch, t| {
                match phase {
                    BatchPhase::Window => {
                        object_based::accumulate_exists_hits(batch, &mut hits, window);
                        if t > t0 {
                            remaining_query_times -= 1;
                        }
                    }
                    BatchPhase::StepEnd => {
                        for (g, outcome) in outcomes.iter_mut().enumerate() {
                            if !batch.is_active(g) {
                                continue;
                            }
                            let hit = hits[g];
                            // With no query timestamps left, no more
                            // mass can reach ⊤.
                            let upper = if remaining_query_times == 0 {
                                hit
                            } else {
                                let alive = match pruner.mask_at(t) {
                                    Some(mask) => batch.group(g)[0].masked_sum(mask),
                                    None => batch.group(g)[0].sum(),
                                };
                                (hit + alive).min(1.0)
                            };
                            let decision = if hit >= tau {
                                Some(true)
                            } else if upper < tau {
                                Some(false)
                            } else {
                                None
                            };
                            if let Some(qualifies) = decision {
                                let early = t < t_end;
                                *outcome =
                                    Some(ThresholdOutcome { qualifies, lower: hit, upper, early });
                                batch.deactivate(g);
                            }
                        }
                    }
                }
                Ok(ControlFlow::Continue(()))
            })?;
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

    /// The batched, reachability-pruned driver on a one-object database.
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
        let mut pipeline = Propagator::new(&config, stats);
        threshold_batched(&mut pipeline, &db, &[0], window, tau).unwrap()[0]
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
        let pruner = ReachabilityPruner::build(&chain, &window, 0).unwrap();
        // At t_end nothing remains ahead.
        assert_eq!(pruner.mask_at(3).unwrap().count(), 0);
        // At t=2: states that can enter {s1, s2} at t=3 → predecessors of
        // the window: s2 (→s1) and s3 (→s2).
        assert_eq!(pruner.mask_at(2).unwrap().to_indices(), vec![1, 2]);
        // Earlier masks can only grow (window reachable from everywhere).
        assert_eq!(pruner.mask_at(0).unwrap().count(), 3);
        assert!(pruner.mask_at(4).is_none());
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
