//! End-to-end verification of every worked example in the paper, through
//! the public facade crate.

mod common;

use common::{dists, oracle, paper_window, probs, solo_probability};
use ust::prelude::*;
use ust_bench::baselines::monte_carlo::MonteCarlo;
use ust_core::multi_obs;
use ust_core::Strategy::{ObjectBased, QueryBased};
use ust_oracle::testutil::paper_chain;

/// The running-example chain of Section V.
/// The Section VI variant (row s2 = 0.5 / 0.5).
fn section6_chain() -> MarkovChain {
    MarkovChain::from_csr(
        CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.5, 0.0, 0.5], vec![0.0, 0.8, 0.2]])
            .unwrap(),
    )
    .unwrap()
}

fn single_object_db(chain: MarkovChain, state: usize) -> TrajectoryDatabase {
    let n = chain.num_states();
    let mut db = TrajectoryDatabase::new(chain);
    db.insert(UncertainObject::with_single_observation(
        1,
        Observation::exact(0, n, state).unwrap(),
    ))
    .unwrap();
    db
}

#[test]
fn section_5a_stepwise_narrative() {
    // "P(o,2) = (0, 0.32, 0.68) gives us a lower bound of 32% …
    //  the result of this query is 0.32 + 0.544 = 0.864."
    let chain = paper_chain();
    let p0 = DenseVector::from_vec(vec![0.0, 1.0, 0.0]);
    let p2 = chain.propagate_dense(&p0, 2).unwrap();
    assert!(p2.approx_eq(&DenseVector::from_vec(vec![0.0, 0.32, 0.68]), 1e-12));
    let after_hit = DenseVector::from_vec(vec![0.0, 0.0, 0.68]);
    let p3 = chain.step_dense(&after_hit).unwrap();
    assert!((p3.get(1) - 0.544).abs() < 1e-12);
    assert!((p3.get(2) - 0.136).abs() < 1e-12);
}

#[test]
fn example_1_object_based_result() {
    let db = single_object_db(paper_chain(), 1);
    let results = probs(
        &QueryProcessor::new(&db),
        Query::exists().window(paper_window()).strategy(ObjectBased),
    );
    assert!((results[0].probability - 0.864).abs() < 1e-12);
}

#[test]
fn example_2_query_based_result() {
    let db = single_object_db(paper_chain(), 1);
    let exists_qb = Query::exists().window(paper_window()).strategy(QueryBased);
    let results = probs(&QueryProcessor::new(&db), exists_qb.clone());
    assert!((results[0].probability - 0.864).abs() < 1e-12);
    // The full backward vector (0.96, 0.864, 0.928) from Example 2, read
    // off by anchoring one object per start state.
    for (state, expected) in [(0usize, 0.96), (1, 0.864), (2, 0.928)] {
        let db = single_object_db(paper_chain(), state);
        let r = probs(&QueryProcessor::new(&db), exists_qb.clone());
        assert!(
            (r[0].probability - expected).abs() < 1e-12,
            "start state {state}: got {}",
            r[0].probability
        );
    }
}

#[test]
fn section_6_interpolation_forces_zero() {
    // Observations s1@t0, s2@t3 under the Section VI chain; window
    // S▫ = {s2}, T▫ = {1, 2}: the only surviving world avoids the window.
    let chain = section6_chain();
    let object = UncertainObject::new(
        1,
        vec![Observation::exact(0, 3, 0).unwrap(), Observation::exact(3, 3, 1).unwrap()],
    )
    .unwrap();
    let window = QueryWindow::from_states(3, [1usize], TimeSet::interval(1, 2)).unwrap();
    let p = multi_obs::exists_probability_multi(&chain, &object, &window, &EngineConfig::default())
        .unwrap();
    assert_eq!(p, 0.0);
    // The exhaustive possible-worlds oracle agrees.
    let oracle = oracle(&chain, &object, &window, 1 << 20).unwrap();
    assert_eq!(oracle.exists(), 0.0);
}

#[test]
fn section_7_ktimes_distribution() {
    // C(3) row sums (0.136, 0.672, 0.192) from the worked example.
    let db = single_object_db(paper_chain(), 1);
    let window = paper_window();
    for strategy in [ObjectBased, QueryBased] {
        let results = dists(
            &QueryProcessor::new(&db),
            Query::ktimes(1).window(window.clone()).strategy(strategy),
        );
        let probs = &results[0].probabilities;
        assert!((probs[0] - 0.136).abs() < 1e-12);
        assert!((probs[1] - 0.672).abs() < 1e-12);
        assert!((probs[2] - 0.192).abs() < 1e-12);
    }
}

#[test]
fn section_7_forall_complement_identity() {
    // P∀(S▫, T▫) = 1 − P∃(S ∖ S▫, T▫), and both equal P(k = |T▫|).
    let chain = paper_chain();
    let db = single_object_db(chain.clone(), 1);
    let window = paper_window();
    let processor = QueryProcessor::new(&db);
    let forall = Query::forall().window(window.clone());
    let forall_ob = probs(&processor, forall.clone().strategy(ObjectBased))[0].probability;
    let forall_qb = probs(&processor, forall.strategy(QueryBased))[0].probability;
    let ktimes_ob = Query::ktimes(1).window(window.clone()).strategy(ObjectBased);
    let k = dists(&processor, ktimes_ob)[0].clone();
    assert!((forall_ob - forall_qb).abs() < 1e-12);
    assert!((forall_ob - k.prob_always()).abs() < 1e-12);
    // Direct identity check: the ∃ query of the complement window.
    let o = db.object(0).unwrap();
    let outside = Query::exists().window(window.complement_states().unwrap());
    let escape = solo_probability(&chain, o, outside.strategy(ObjectBased)).unwrap();
    assert!((1.0 - escape - forall_ob).abs() < 1e-12);
}

#[test]
fn monte_carlo_error_model_from_section_8() {
    // "For 100 samples, the standard deviation between p and p̂ is thus at
    // least 5%" — for p = 0.5 exactly 0.05.
    assert!((MonteCarlo::standard_error(0.5, 100) - 0.05).abs() < 1e-12);
    // A large-sample run lands within 4σ of 0.864 on the running example.
    let chain = paper_chain();
    let object = UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap());
    let estimate =
        MonteCarlo::new(10_000, 3).exists_probability(&chain, &object, &paper_window()).unwrap();
    assert!((estimate - 0.864).abs() < 4.0 * MonteCarlo::standard_error(0.864, 10_000));
}

#[test]
fn figure_1_dependency_argument() {
    // Figure 1's point: for an object that can only move forward, the
    // probability of intersecting a window it has passed cannot keep
    // growing with more window timestamps. Model: a strictly rightward
    // conveyor; window at state 2 with an ever-longer time range.
    let n = 10;
    let mut rows = vec![vec![0.0; n]; n];
    for (i, row) in rows.iter_mut().enumerate() {
        if i + 1 < n {
            row[i + 1] = 1.0;
        } else {
            row[i] = 1.0;
        }
    }
    let chain = MarkovChain::from_csr(CsrMatrix::from_dense(&rows).unwrap()).unwrap();
    let object = UncertainObject::with_single_observation(1, Observation::exact(0, n, 0).unwrap());
    let mut previous = 0.0;
    for t_hi in 2..=8u32 {
        let window = QueryWindow::from_states(n, [2usize], TimeSet::interval(1, t_hi)).unwrap();
        let exists = Query::exists().window(window).strategy(ObjectBased);
        let p = solo_probability(&chain, &object, exists).unwrap();
        // Deterministic motion passes state 2 exactly at t=2: P = 1 for
        // every window containing t=2, never "converging to 1" spuriously
        // from below as the independence model would.
        assert!((p - 1.0).abs() < 1e-12);
        previous = p;
    }
    let _ = previous;
}
