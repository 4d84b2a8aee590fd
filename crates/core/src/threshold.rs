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

// Iteration order never reaches a threshold answer: no hashed containers.
#![deny(clippy::disallowed_types)]

use ust_markov::PropagationVector;

use crate::engine::object_based::{ForwardRule, Swept};
use crate::engine::reach::ReachRule;
use crate::query::unit_clamp;
use crate::stats::EvalStats;

/// The thresholded-∃ rule: the accumulation rule is the ⊤ redirect of the
/// OB engine, and the decision rule compares the monotone lower bound `⊤` /
/// shrinking upper bound `⊤ + alive` against `τ` after every timestamp,
/// retiring the object at the first decision — without stopping the sweep
/// for the undecided rest of its batch. `alive` is what reach trimming left
/// in the vector — the mass that can still hit (none at `t_end`). The
/// answer is the decision alone: `P∃ ≥ τ`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Threshold {
    /// The probability threshold `τ`.
    pub tau: f64,
}

impl ForwardRule for Threshold {
    type Output = bool;
    const REACH: ReachRule = ReachRule::Exists;

    fn retires(&self, hit: f64, rows: &[PropagationVector]) -> bool {
        hit >= self.tau || unit_clamp(hit + rows[0].sum()) < self.tau
    }

    fn finish(&mut self, swept: Swept<'_>, stats: &mut EvalStats) -> bool {
        if let Some(t) = swept.retired_at {
            // The pipeline does not count a retirement as an evaluation.
            stats.early_terminations += u64::from(t < swept.t_end);
            stats.objects_evaluated += 1;
        }
        // A retired object's ⊤ is as the decision saw it; one that ran to
        // `t_end` (or out of mass) has nothing alive, so its bounds have met
        // at ⊤. ⊤ is a sum of many products and may overshoot 1 by an ulp:
        // it is compared raw.
        swept.hit >= self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::object_based::{evaluate_one, Exists};
    use crate::engine::reach::ReachSchedule;
    use crate::engine::{EngineConfig, QueryProcessor};
    use crate::error::Result;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, QueryWindow, Strategy};
    use crate::testkit::{object_at_s2, oracle, paper_chain, paper_window};
    use ust_markov::{CsrMatrix, MarkovChain};
    use ust_oracle::testutil;
    use ust_space::TimeSet;

    /// Thresholded PST∃Q for one object by the chunk-of-one driver,
    /// accumulating counters.
    fn exists_threshold_with_stats(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
        tau: f64,
        config: &EngineConfig,
        stats: &mut EvalStats,
    ) -> Result<bool> {
        evaluate_one(chain, object, window, config, stats, Threshold { tau })
    }

    fn exists_threshold(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
        tau: f64,
        config: &EngineConfig,
    ) -> Result<bool> {
        exists_threshold_with_stats(chain, object, window, tau, config, &mut EvalStats::new())
    }

    #[test]
    fn decisions_match_exact_probability_for_all_taus() {
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let config = EngineConfig::default();
        let exact = evaluate_one(&chain, &o, &w, &config, &mut EvalStats::new(), Exists);
        let exact = exact.unwrap().probability;
        for tau in [0.01, 0.1, 0.3, 0.5, 0.8, 0.863, 0.865, 0.99] {
            let qualifies = exists_threshold(&chain, &o, &w, tau, &config).unwrap();
            assert_eq!(qualifies, exact >= tau, "τ = {tau}: exact {exact}");
        }
    }

    #[test]
    fn low_threshold_accepts_early() {
        // After the first window timestamp the ⊤ mass is already 0.32,
        // so τ = 0.3 must accept without propagating to t=3.
        let mut stats = EvalStats::new();
        let qualifies = exists_threshold_with_stats(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            0.3,
            &EngineConfig::default(),
            &mut stats,
        )
        .unwrap();
        assert!(qualifies);
        assert_eq!(stats.transitions, 2);
        assert_eq!(stats.early_terminations, 1);
    }

    #[test]
    fn unreachable_window_rejects_early() {
        // Query on a state that s1-anchored worlds cannot reach in 1 step:
        // from s1 all mass goes to s3, so window {s2}×{1} has probability
        // 0 — s1 is outside the reach at t = 0, and the upper bound is 0
        // there, before any transition.
        let o = UncertainObject::with_single_observation(2, Observation::exact(0, 3, 0).unwrap());
        let w = QueryWindow::from_states(3, [1usize], TimeSet::at(1)).unwrap();
        let mut stats = EvalStats::new();
        let config = EngineConfig::default();
        let qualifies =
            exists_threshold_with_stats(&paper_chain(), &o, &w, 0.5, &config, &mut stats).unwrap();
        assert!(!qualifies);
        assert_eq!((stats.objects_evaluated, stats.early_terminations), (1, 1));
        assert_eq!(stats.transitions, 0);
    }

    #[test]
    fn anchor_in_window_can_decide_before_any_transition() {
        let o = UncertainObject::with_single_observation(3, Observation::exact(2, 3, 0).unwrap());
        let mut stats = EvalStats::new();
        let qualifies = exists_threshold_with_stats(
            &paper_chain(),
            &o,
            &paper_window(),
            0.9,
            &EngineConfig::default(),
            &mut stats,
        )
        .unwrap();
        assert!(qualifies);
        assert_eq!(stats.early_terminations, 1);
        assert_eq!(stats.transitions, 0);
    }

    #[test]
    fn reach_schedule_masks_shrink_near_t_end() {
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
    fn reach_trimmed_decisions_match_the_enumerated_probability() {
        // The trimmed sweep reads `⊤ + alive` as its upper bound; against
        // the possible-worlds enumeration (no sweep, no schedule) every
        // decision is right, early ones included.
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let exact = oracle(&chain, &o, &w, 10_000).unwrap().exists();
        let mut stats = EvalStats::new();
        for tau in [0.05, 0.3, 0.5, 0.8, 0.9] {
            let config = EngineConfig::default();
            let qualifies =
                exists_threshold_with_stats(&chain, &o, &w, tau, &config, &mut stats).unwrap();
            assert_eq!(qualifies, exact >= tau, "τ = {tau}");
        }
        assert!(stats.early_terminations > 0, "some bound decides before t_end");
    }

    #[test]
    fn a_top_mass_past_one_qualifies_at_tau_one() {
        // ⊤ is a sum of many products: on this instance it reaches
        // 1 + 1 ulp, and the decision compares it raw — τ = 1 accepts
        // early.
        let seed = 14u64;
        let n = 6 + (seed % 6) as usize;
        let matrix =
            testutil::random_stochastic(&mut testutil::rng(seed), n, 2 + (seed % 3) as usize);
        let chain = MarkovChain::from_csr(matrix).unwrap();
        let start = testutil::random_distribution(&mut testutil::rng(seed ^ 0xDA7A), n, 4);
        let o =
            UncertainObject::with_single_observation(1, Observation::uncertain(0, start).unwrap());
        let inside = (0..n).filter(|&s| s != (seed as usize) % n);
        let w = QueryWindow::from_states(n, inside, TimeSet::interval(1, 6)).unwrap();
        let mut stats = EvalStats::new();
        let config = EngineConfig::default();
        let qualifies =
            exists_threshold_with_stats(&chain, &o, &w, 1.0, &config, &mut stats).unwrap();
        assert!(qualifies);
        assert_eq!((stats.objects_evaluated, stats.early_terminations), (1, 1));
    }

    #[test]
    fn reach_schedule_rejects_unreachable_objects_before_any_transition() {
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
        let qualifies =
            exists_threshold_with_stats(&chain, &o, &w, 0.01, &EngineConfig::default(), &mut stats)
                .unwrap();
        assert!(!qualifies);
        assert_eq!(stats.early_terminations, 1);
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
