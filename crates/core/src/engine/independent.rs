//! The temporal-independence model — what prior work computes, and why it
//! is wrong (Figures 1 and 9(d) of the paper).
//!
//! Approaches that treat a trajectory as an independent uncertain region
//! per timestamp (references \[8], \[9], \[16], \[17], \[19], \[20] in the paper) compute the
//! *correct marginal* distribution `P(o(t) ∈ S▫)` for each `t`, but combine
//! them as if they were independent events:
//!
//! ```text
//! P∃_indep = 1 − Π_{t∈T▫} (1 − P(o(t) ∈ S▫))
//! ```
//!
//! Because consecutive positions are in fact strongly dependent, this
//! overestimates PST∃Q — the paper shows the bias grows with the window
//! length. We implement all three predicates under the independence
//! assumption (the k-times case via the Poisson-binomial recurrence) to
//! regenerate the accuracy experiment of Fig. 9(d).

use std::ops::ControlFlow;

use ust_markov::MarkovChain;

use crate::database::TrajectoryDatabase;
use crate::engine::object_based::validate;
use crate::engine::pipeline::{BatchPhase, ObjectBatch, Propagator};
use crate::engine::EngineConfig;
use crate::error::Result;
use crate::object::UncertainObject;
use crate::query::{ObjectProbability, QueryWindow};
use crate::stats::EvalStats;

/// The per-timestamp marginal window probabilities
/// `m_t = P(o(t) ∈ S▫)` for `t ∈ T▫` (these are exact; only their
/// combination below assumes independence).
pub fn window_marginals(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
) -> Result<Vec<f64>> {
    let mut stats = EvalStats::new();
    marginals_with(&mut Propagator::new(config, &mut stats), chain, object, window)
}

/// The independence driver on an existing [`Propagator`]: its accumulation
/// rule *records* the window mass at each query timestamp without removing
/// it — precisely the per-timestamp marginal that ignores the temporal
/// correlation the exact engines preserve.
pub(crate) fn marginals_with(
    pipeline: &mut Propagator<'_>,
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
) -> Result<Vec<f64>> {
    validate(chain, object, window)?;
    let anchor = object.anchor();
    let mut rows = [pipeline.seed(anchor.distribution().clone())];
    let mut marginals = Vec::with_capacity(window.num_times());
    // Untrimmed on purpose: a marginal keeps its mass in the vector, so
    // there are no decided worlds for a reach schedule to drop.
    pipeline.forward(
        chain.matrix(),
        &mut ObjectBatch::new(&mut rows, 1)?,
        anchor.time(),
        window.t_end(),
        Some(window),
        None,
        |phase, batch, _| {
            if phase == BatchPhase::Window {
                marginals.push(batch.group(0)[0].masked_sum(window.states()));
            }
            Ok(ControlFlow::Continue(()))
        },
    )?;
    // Under ε-pruning the pipeline may stop once the vector runs empty; the
    // remaining query timestamps then carry marginal 0, and the contract
    // stays "one entry per t ∈ T▫".
    marginals.resize(window.num_times(), 0.0);
    Ok(marginals)
}

/// The independence combination rule `1 − Π (1 − m_t)` (shared by the
/// single-object and database evaluators).
fn exists_from_marginals(marginals: &[f64]) -> f64 {
    1.0 - marginals.iter().map(|m| 1.0 - m).product::<f64>()
}

/// PST∃Q under the (incorrect) temporal-independence assumption.
pub fn exists_probability_independent(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
) -> Result<f64> {
    let marginals = window_marginals(chain, object, window, config)?;
    Ok(exists_from_marginals(&marginals))
}

/// PST∀Q under the independence assumption: `Π m_t`.
pub fn forall_probability_independent(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
) -> Result<f64> {
    let marginals = window_marginals(chain, object, window, config)?;
    Ok(marginals.iter().product())
}

/// PSTkQ under the independence assumption: the Poisson-binomial
/// distribution of the marginals.
pub fn ktimes_distribution_independent(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
) -> Result<Vec<f64>> {
    let marginals = window_marginals(chain, object, window, config)?;
    let mut dp = vec![0.0; marginals.len() + 1];
    dp[0] = 1.0;
    for (i, &m) in marginals.iter().enumerate() {
        for k in (0..=i).rev() {
            dp[k + 1] += dp[k] * m;
            dp[k] *= 1.0 - m;
        }
    }
    Ok(dp)
}

/// Database-level PST∃Q under independence (for the Fig. 9(d) comparison).
pub fn evaluate_exists_independent(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    let mut pipeline = Propagator::new(config, stats);
    let mut out = Vec::with_capacity(db.len());
    for object in db.objects() {
        let chain = db.model_of(object);
        let marginals = marginals_with(&mut pipeline, chain, object, window)?;
        let probability = exists_from_marginals(&marginals);
        out.push(ObjectProbability { object_id: object.id(), probability });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::object_based;
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
    fn marginals_match_hand_computation() {
        // P(o,2) = (0, 0.32, 0.68) → m_2 = 0.32;
        // P(o,3) = (0, 0.544+..) → m_3 = P(s1)+P(s2) at t=3.
        let m = window_marginals(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(m.len(), 2);
        assert!((m[0] - 0.32).abs() < 1e-12);
        // P(o,3) = (0,0.32,0.68)·M = (0.192, 0.544, 0.264): m_3 = 0.736.
        assert!((m[1] - 0.736).abs() < 1e-12);
    }

    #[test]
    fn independence_overestimates_exists() {
        let config = EngineConfig::default();
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let correct = object_based::exists_probability(&chain, &o, &w, &config).unwrap();
        let indep = exists_probability_independent(&chain, &o, &w, &config).unwrap();
        // 1 − (1−0.32)(1−0.736) = 1 − 0.68·0.264 = 0.82048 < 0.864 here —
        // the bias direction depends on the correlation sign; what must
        // hold is *disagreement* with the exact result.
        assert!((indep - (1.0 - 0.68 * 0.264)).abs() < 1e-12);
        assert!((indep - correct).abs() > 1e-3, "independence must bias the result");
    }

    #[test]
    fn poisson_binomial_sums_to_one() {
        let dist = ktimes_distribution_independent(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(dist.len(), 3);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Consistency with the closed forms.
        let exists = exists_probability_independent(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert!((1.0 - dist[0] - exists).abs() < 1e-12);
        let forall = forall_probability_independent(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert!((dist[2] - forall).abs() < 1e-12);
    }

    #[test]
    fn single_timestamp_windows_are_unbiased() {
        // With |T▫| = 1 there is nothing to correlate: both models agree.
        let w = QueryWindow::from_states(3, [0usize, 1], TimeSet::at(2)).unwrap();
        let config = EngineConfig::default();
        let correct =
            object_based::exists_probability(&paper_chain(), &object_at_s2(), &w, &config).unwrap();
        let indep =
            exists_probability_independent(&paper_chain(), &object_at_s2(), &w, &config).unwrap();
        assert!((correct - indep).abs() < 1e-12);
    }

    #[test]
    fn batch_evaluation() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object_at_s2()).unwrap();
        let results = evaluate_exists_independent(
            &db,
            &paper_window(),
            &EngineConfig::default(),
            &mut EvalStats::new(),
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].probability > 0.0 && results[0].probability <= 1.0);
    }
}
