//! Multiple observations — Section VI of the paper.
//!
//! With more than one observation, worlds that already intersected the query
//! window are no longer interchangeable: their *current state* still matters
//! because it determines the likelihood of reaching later observations. The
//! paper therefore replaces the single absorbing ⊤ state by a full "hit"
//! copy of the state space (the doubled matrices `M− = diag(M, M)` and
//! `M+ = [[M−M′, M′], [0, M]]`), fuses each observation into the running
//! distribution by element-wise multiplication (Lemma 1 — observations are
//! assumed mutually independent), and renormalizes so that worlds
//! invalidated by the evidence (class A) are excluded per Equation 1:
//!
//! ```text
//! P_total = P(B) / (P(B) + P(C))
//! ```
//!
//! We keep the two halves as separate vectors `u` (not yet hit) and `w`
//! (hit), which is exactly the doubled-matrix product evaluated block-wise —
//! cross-checked against the explicit `doubled_minus`/`doubled_plus`
//! construction in the tests.

use std::ops::ControlFlow;

use ust_markov::{MarkovChain, SparseVector};

use crate::database::TrajectoryDatabase;
use crate::engine::object_based::validate;
use crate::engine::pipeline::{BatchPhase, ObjectBatch, Propagator};
use crate::engine::EngineConfig;
use crate::error::{QueryError, Result};
use crate::object::UncertainObject;
use crate::query::{unit_clamp, ObjectProbability, QueryWindow};
use crate::stats::EvalStats;

/// PST∃Q probability for an object with an arbitrary number of
/// observations (Section VI semantics). Reduces to the plain object-based
/// algorithm when only one observation exists.
pub fn exists_probability_multi(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
) -> Result<f64> {
    exists_probability_multi_with_stats(chain, object, window, config, &mut EvalStats::new())
}

/// As [`exists_probability_multi`], accumulating counters.
pub fn exists_probability_multi_with_stats(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<f64> {
    validate(chain, object, window)?;
    let anchor = object.anchor();
    let t0 = anchor.time();
    let horizon = window.t_end().max(object.last_observation().time());
    let mut pipeline = Propagator::new(config, stats);

    // rows[0] = u, worlds that have not intersected the window;
    // rows[1] = w, worlds that have — the doubled state space of Section VI
    // evaluated block-wise.
    let mut rows = [
        pipeline.seed(anchor.distribution().clone()),
        pipeline.seed(SparseVector::zeros(chain.num_states())),
    ];

    // One group of two rows, untrimmed: the sweep runs on to the last
    // observation so later evidence still conditions the result.
    let mut batch = ObjectBatch::new(&mut rows, 2)?;
    pipeline.forward(
        chain.matrix(),
        &mut batch,
        t0,
        horizon,
        Some(window),
        None,
        |phase, batch, t| {
            let rows = batch.group_mut(0);
            match phase {
                BatchPhase::Window => {
                    let (u, w) = rows.split_at_mut(1);
                    let moved = u[0].split_masked(window.states());
                    if moved.nnz() > 0 {
                        w[0].add_sparse(&moved)?;
                    }
                }
                BatchPhase::StepEnd => {
                    if let Some(obs) = object.observation_at(t).filter(|_| t > t0) {
                        // Lemma 1: independent observations fuse
                        // multiplicatively; the observation says nothing
                        // about the hit flag, so it applies to both halves
                        // identically.
                        for row in rows.iter_mut() {
                            row.hadamard_sparse(obs.distribution())?;
                        }
                        let total: f64 = rows.iter().map(|r| r.sum()).sum();
                        if total <= 0.0 {
                            return Err(QueryError::ImpossibleEvidence);
                        }
                        // Equation 1: renormalize over the surviving worlds.
                        for row in rows.iter_mut() {
                            row.scale(1.0 / total);
                        }
                    }
                }
            }
            Ok(ControlFlow::Continue(()))
        },
    )?;
    let (hit, alive) = (rows[1].sum(), rows[0].sum());
    let total = hit + alive;
    if total <= 0.0 {
        return Err(QueryError::ImpossibleEvidence);
    }
    // `+ 0.0` normalizes a possible IEEE negative zero for display.
    Ok(unit_clamp(hit / total) + 0.0)
}

/// Database-level PST∃Q honoring all observations of every object.
pub fn evaluate_exists_multi(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    config: &EngineConfig,
    stats: &mut EvalStats,
) -> Result<Vec<ObjectProbability>> {
    let mut out = Vec::with_capacity(db.len());
    for object in db.objects() {
        let chain = db.model_of(object);
        let probability =
            exists_probability_multi_with_stats(chain, object, window, config, stats)?;
        out.push(ObjectProbability { object_id: object.id(), probability });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::object_based::{evaluate_one, Exists};
    use crate::observation::Observation;
    use crate::testkit::{oracle, paper_chain};
    use ust_markov::{CsrMatrix, DenseVector};
    use ust_space::TimeSet;

    /// The Section VI chain (second row 0.5 / 0.5).
    fn section6_chain() -> MarkovChain {
        MarkovChain::from_csr(
            CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.5, 0.0, 0.5], vec![0.0, 0.8, 0.2]])
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn section_6_worked_example_probability_zero() {
        // Observations s1@t0 and s2@t3; window S▫ = {s2}, T▫ = {1, 2}.
        // The paper concludes the object must be at s2 at t=3 *without*
        // having intersected the window: P∃ = 0.
        let object = UncertainObject::new(
            1,
            vec![Observation::exact(0, 3, 0).unwrap(), Observation::exact(3, 3, 1).unwrap()],
        )
        .unwrap();
        let window = QueryWindow::from_states(3, [1usize], TimeSet::interval(1, 2)).unwrap();
        let p =
            exists_probability_multi(&section6_chain(), &object, &window, &EngineConfig::default())
                .unwrap();
        assert!(p.abs() < 1e-12, "got {p}");
    }

    #[test]
    fn section_6_intermediate_vectors() {
        // Replay the paper's step-by-step doubled-space vectors using the
        // explicit doubled matrices, and confirm the virtual u/w pass gives
        // the same final answer.
        let chain = section6_chain();
        let window = QueryWindow::from_states(3, [1usize], TimeSet::interval(1, 2)).unwrap();
        let minus = ust_oracle::augmented::doubled_minus(chain.matrix());
        let plus = ust_oracle::augmented::doubled_plus(chain.matrix(), window.states());
        let mut v = DenseVector::zeros(6);
        v.set(0, 1.0).unwrap(); // observed at s1, not hit
                                // t=1 ∈ T▫.
        v = plus.vecmat_dense(&v).unwrap();
        assert!(v.approx_eq(&DenseVector::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), 1e-12));
        // t=2 ∈ T▫.
        v = plus.vecmat_dense(&v).unwrap();
        assert!(v.approx_eq(&DenseVector::from_vec(vec![0.0, 0.0, 0.2, 0.0, 0.8, 0.0]), 1e-12));
        // t=3 ∉ T▫.
        v = minus.vecmat_dense(&v).unwrap();
        assert!(v.approx_eq(&DenseVector::from_vec(vec![0.0, 0.16, 0.04, 0.4, 0.0, 0.4]), 1e-12));
        // Fuse the observation at t=3 (state s2, hit flag unknown):
        // (0, 0.16·1, 0, 0, 0·1, 0) → normalized (0, 1, 0, 0, 0, 0).
        let obs = DenseVector::from_vec(vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
        let mut fused = v.hadamard(&obs).unwrap();
        fused.normalize().unwrap();
        assert!(fused.approx_eq(&DenseVector::from_vec(vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), 1e-12));
    }

    #[test]
    fn single_observation_reduces_to_object_based() {
        let chain = paper_chain();
        let object =
            UncertainObject::with_single_observation(2, Observation::exact(0, 3, 1).unwrap());
        let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
        let multi =
            exists_probability_multi(&chain, &object, &window, &EngineConfig::default()).unwrap();
        let config = EngineConfig::default();
        let single = evaluate_one(&chain, &object, &window, &config, &mut EvalStats::new(), Exists);
        let single = single.unwrap().probability;
        assert!((multi - single).abs() < 1e-12);
        assert!((multi - 0.864).abs() < 1e-12);
    }

    #[test]
    fn matches_exhaustive_enumeration_with_uncertain_observations() {
        let chain = paper_chain();
        let object = UncertainObject::new(
            3,
            vec![
                Observation::uncertain(
                    0,
                    ust_markov::SparseVector::from_pairs(3, [(1, 0.7), (2, 0.3)]).unwrap(),
                )
                .unwrap(),
                Observation::uncertain(
                    4,
                    ust_markov::SparseVector::from_pairs(3, [(1, 0.5), (2, 0.5)]).unwrap(),
                )
                .unwrap(),
            ],
        )
        .unwrap();
        let window = QueryWindow::from_states(3, [0usize], TimeSet::interval(1, 3)).unwrap();
        let exact =
            exists_probability_multi(&chain, &object, &window, &EngineConfig::default()).unwrap();
        let oracle = oracle(&chain, &object, &window, 1 << 22).unwrap();
        assert!(
            (exact - oracle.exists()).abs() < 1e-12,
            "multi-obs {exact} vs oracle {}",
            oracle.exists()
        );
    }

    #[test]
    fn observation_after_window_reweights_result() {
        // The same query with and without a later observation must differ:
        // the extra evidence reweights worlds (the paper's point that
        // observations farther than the window still carry information).
        let chain = paper_chain();
        let window = QueryWindow::from_states(3, [0usize], TimeSet::at(1)).unwrap();
        let plain =
            UncertainObject::with_single_observation(4, Observation::exact(0, 3, 1).unwrap());
        let informed = UncertainObject::new(
            5,
            vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(4, 3, 1).unwrap()],
        )
        .unwrap();
        let config = EngineConfig::default();
        let p_plain = exists_probability_multi(&chain, &plain, &window, &config).unwrap();
        let p_informed = exists_probability_multi(&chain, &informed, &window, &config).unwrap();
        assert!((p_plain - p_informed).abs() > 1e-6);
        // Cross-check the informed value against enumeration.
        let oracle = oracle(&chain, &informed, &window, 1 << 22).unwrap();
        assert!((p_informed - oracle.exists()).abs() < 1e-12);
    }

    #[test]
    fn impossible_evidence_errors() {
        let chain = paper_chain();
        let object = UncertainObject::new(
            6,
            vec![
                Observation::exact(0, 3, 1).unwrap(),
                Observation::exact(1, 3, 1).unwrap(), // unreachable
            ],
        )
        .unwrap();
        let window = QueryWindow::from_states(3, [0usize], TimeSet::at(1)).unwrap();
        assert!(matches!(
            exists_probability_multi(&chain, &object, &window, &EngineConfig::default()),
            Err(QueryError::ImpossibleEvidence)
        ));
    }

    #[test]
    fn batch_multi_evaluation() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(UncertainObject::with_single_observation(
            0,
            Observation::exact(0, 3, 1).unwrap(),
        ))
        .unwrap();
        db.insert(
            UncertainObject::new(
                1,
                vec![Observation::exact(0, 3, 1).unwrap(), Observation::exact(4, 3, 2).unwrap()],
            )
            .unwrap(),
        )
        .unwrap();
        let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
        let results =
            evaluate_exists_multi(&db, &window, &EngineConfig::default(), &mut EvalStats::new())
                .unwrap();
        assert_eq!(results.len(), 2);
        assert!((results[0].probability - 0.864).abs() < 1e-12);
        assert!(results[1].probability >= 0.0 && results[1].probability <= 1.0);
    }
}
