//! Forward–backward location inference.
//!
//! Section VI of the paper interpolates between observations to answer
//! window queries; the same machinery answers the more basic question
//! "where was the object at time `t`, given *all* its observations?" —
//! the classic smoothing problem of hidden Markov models. This module
//! implements it on the sparse substrate:
//!
//! * forward message `α_t(s) ∝ P(o(t) = s, obs at times ≤ t)`,
//! * backward message `β_t(s) = P(obs at times > t | o(t) = s)`,
//! * posterior `P(o(t) = s | all obs) ∝ α_t(s) · β_t(s)`.
//!
//! For `t` past the last observation this degrades gracefully to prediction
//! (`β ≡ 1`), matching Corollary 2 extrapolation.
//!
//! The α-recursion runs on the shared propagation pipeline: its schedule is
//! **observation-driven** rather than window-driven, so it runs
//! [`Propagator::forward`] with no window and no reach schedule — only
//! [`crate::engine::pipeline::BatchPhase::StepEnd`] fires — and fuses each
//! observation's likelihood when the sweep reaches its timestamp. The
//! β-recursion deliberately stays a
//! plain backward `M·β` product with evidence fusion: the pipeline's
//! backward sweep ([`Propagator::backward_from`]) is shaped by a query
//! window — its masking schedule and snapshot times have no analogue here —
//! and β propagates a *likelihood*, not probability mass, so none of the
//! window machinery applies. Smoothing also always runs the exact
//! configuration (ε-pruning would distort the posterior's normalization).

use std::ops::ControlFlow;

use ust_markov::{DenseVector, MarkovChain};

use crate::engine::pipeline::{ObjectBatch, Propagator};
use crate::engine::EngineConfig;
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::stats::EvalStats;

/// Posterior location distribution `P(o(t) = s | observations)` of
/// `object` at time `t`. Requires `t ≥` the anchor observation time.
pub fn smoothed_distribution(
    chain: &MarkovChain,
    object: &UncertainObject,
    t: u32,
) -> Result<DenseVector> {
    smoothed_distribution_with_stats(chain, object, t, &mut EvalStats::new())
}

/// As [`smoothed_distribution`], accumulating the forward pass's transition
/// counters into `stats`.
pub fn smoothed_distribution_with_stats(
    chain: &MarkovChain,
    object: &UncertainObject,
    t: u32,
    stats: &mut EvalStats,
) -> Result<DenseVector> {
    let anchor = object.anchor();
    if chain.num_states() != object.num_states() {
        return Err(QueryError::ModelDimensionMismatch {
            model_states: chain.num_states(),
            object_states: object.num_states(),
        });
    }
    if t < anchor.time() {
        return Err(QueryError::WindowBeforeObservation {
            window_start: t,
            observation: anchor.time(),
        });
    }

    // Forward pass: anchor → t on the pipeline's observation-driven
    // schedule, fusing the likelihood of every observation at times ≤ t.
    // Smoothing must stay exact (pruned mass would distort the posterior's
    // normalization), so the pipeline runs the exact configuration.
    let mut pipeline = Propagator::new(&EngineConfig::exact(), stats);
    let mut rows = [pipeline.seed(anchor.distribution().clone())];
    let mut impossible = false;
    // No window, no schedule: only `StepEnd` fires, at every timestamp.
    let mut batch = ObjectBatch::new(&mut rows, 1)?;
    pipeline.forward(chain.matrix(), &mut batch, anchor.time(), t, None, None, |_, batch, t| {
        let rows = batch.group_mut(0);
        if let Some(obs) = object.observation_at(t) {
            // The anchor's own observation is already the start state.
            if t > anchor.time() {
                rows[0].hadamard_sparse(obs.distribution())?;
                let total = rows[0].sum();
                if total <= 0.0 {
                    impossible = true;
                    return Ok(ControlFlow::Break(()));
                }
                rows[0].scale(1.0 / total);
            }
        }
        Ok(ControlFlow::Continue(()))
    })?;
    if impossible {
        return Err(QueryError::ImpossibleEvidence);
    }
    let [alpha] = rows;

    // Backward pass: last observation → t (β ≡ 1 when t is at/after it).
    let horizon = object.last_observation().time();
    let n = chain.num_states();
    let mut beta = DenseVector::from_vec(vec![1.0; n]);
    let mut bt = horizon.max(t);
    while bt > t {
        // Fuse the observation at time `bt` (likelihood of the evidence at
        // bt and beyond, given the state at bt).
        if let Some(obs) = object.observation_at(bt) {
            let slice = beta.as_mut_slice();
            let mut masked = vec![0.0; n];
            for (s, l) in obs.distribution().iter() {
                masked[s] = l * slice[s];
            }
            beta = DenseVector::from_vec(masked);
        }
        beta = chain.matrix().matvec_dense(&beta)?;
        bt -= 1;
    }

    // Posterior ∝ α ⊙ β.
    let mut posterior = alpha.to_dense().hadamard(&beta)?;
    posterior.normalize().map_err(|_| QueryError::ImpossibleEvidence)?;
    Ok(posterior)
}

/// Posterior distributions for a whole range of times (shares the passes'
/// cost across queries; convenience for trajectory reconstruction).
pub fn smoothed_trajectory(
    chain: &MarkovChain,
    object: &UncertainObject,
    times: std::ops::RangeInclusive<u32>,
) -> Result<Vec<(u32, DenseVector)>> {
    times.map(|t| smoothed_distribution(chain, object, t).map(|d| (t, d))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Observation;
    use crate::query::QueryWindow;
    use crate::testkit::{oracle, paper_chain};
    use ust_space::TimeSet;

    #[test]
    fn without_future_observations_equals_forward_prediction() {
        let chain = paper_chain();
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap());
        let smoothed = smoothed_distribution(&chain, &object, 2).unwrap();
        let predicted =
            chain.propagate_dense(&DenseVector::from_vec(vec![0.0, 1.0, 0.0]), 2).unwrap();
        assert!(smoothed.approx_eq(&predicted, 1e-12));
    }

    #[test]
    fn interpolation_matches_exhaustive_marginals() {
        // P(o(t) = s | obs) equals the exists-probability of the degenerate
        // window {s} × {t} under full conditioning — use the enumeration
        // oracle to verify every state at every intermediate time.
        let chain = paper_chain();
        let object = UncertainObject::new(
            2,
            vec![
                Observation::exact(0, 3, 1).unwrap(),
                Observation::uncertain(
                    4,
                    ust_markov::SparseVector::from_pairs(3, [(1, 0.5), (2, 0.5)]).unwrap(),
                )
                .unwrap(),
            ],
        )
        .unwrap();
        for t in 1..=3u32 {
            let smoothed = smoothed_distribution(&chain, &object, t).unwrap();
            for s in 0..3usize {
                let window = QueryWindow::from_states(3, [s], TimeSet::at(t)).unwrap();
                let oracle = oracle(&chain, &object, &window, 1 << 22).unwrap();
                assert!(
                    (smoothed.get(s) - oracle.exists()).abs() < 1e-12,
                    "t={t}, s={s}: smoothed {} vs oracle {}",
                    smoothed.get(s),
                    oracle.exists()
                );
            }
        }
    }

    #[test]
    fn exact_observation_pins_the_posterior() {
        let chain = paper_chain();
        let object = UncertainObject::new(
            3,
            vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(3, 3, 0).unwrap()],
        )
        .unwrap();
        let at_obs = smoothed_distribution(&chain, &object, 3).unwrap();
        assert!((at_obs.get(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_evidence_detected() {
        let chain = paper_chain();
        let object = UncertainObject::new(
            4,
            vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(1, 3, 1).unwrap()],
        )
        .unwrap();
        assert!(matches!(
            smoothed_distribution(&chain, &object, 1),
            Err(QueryError::ImpossibleEvidence)
        ));
    }

    #[test]
    fn time_before_anchor_rejected() {
        let chain = paper_chain();
        let object =
            UncertainObject::with_single_observation(5, Observation::exact(3, 3, 1).unwrap());
        assert!(matches!(
            smoothed_distribution(&chain, &object, 2),
            Err(QueryError::WindowBeforeObservation { .. })
        ));
    }

    #[test]
    fn forward_pass_counts_pipeline_transitions() {
        // The α-recursion rides the shared pipeline, so its transitions are
        // observable like any engine's.
        let chain = paper_chain();
        let object = UncertainObject::new(
            7,
            vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(3, 3, 0).unwrap()],
        )
        .unwrap();
        let mut stats = EvalStats::new();
        let posterior = smoothed_distribution_with_stats(&chain, &object, 3, &mut stats).unwrap();
        assert!((posterior.get(0) - 1.0).abs() < 1e-12);
        assert_eq!(stats.transitions, 3, "anchor → t forward steps");
        assert_eq!(stats.objects_evaluated, 1);
    }

    #[test]
    fn trajectory_reconstruction_is_normalized() {
        let chain = paper_chain();
        let object = UncertainObject::new(
            6,
            vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(5, 3, 2).unwrap()],
        )
        .unwrap();
        let trajectory = smoothed_trajectory(&chain, &object, 0..=5).unwrap();
        assert_eq!(trajectory.len(), 6);
        for (t, dist) in &trajectory {
            assert!(
                (dist.sum() - 1.0).abs() < 1e-9,
                "posterior at t={t} not normalized: {}",
                dist.sum()
            );
        }
        // Endpoints honour the exact observations.
        assert!((trajectory[0].1.get(1) - 1.0).abs() < 1e-12);
        assert!((trajectory[5].1.get(2) - 1.0).abs() < 1e-12);
    }
}
