//! Property-based verification of the Section VI machinery: the doubled
//! state-space PST∃Q with multiple observations and forward–backward
//! smoothing, both against the exhaustive possible-worlds oracle.

mod common;

use proptest::prelude::*;

use common::{oracle, solo_probability};
use ust::prelude::*;
use ust_core::{multi_obs, smoothing, QueryError};
use ust_oracle::{testutil, OracleError};

fn build_chain(seed: u64, n: usize) -> MarkovChain {
    let mut rng = testutil::rng(seed);
    MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, n, 3, 4)).unwrap()
}

/// An object with two uncertain observations whose joint evidence is
/// guaranteed consistent: the second observation's support is the exact
/// forward image of the first (so no world is impossible).
fn consistent_two_obs_object(seed: u64, chain: &MarkovChain, gap: u32) -> Option<UncertainObject> {
    let n = chain.num_states();
    let mut rng = testutil::rng(seed ^ 0xFEED);
    let first = testutil::random_distribution(&mut rng, n, 2);
    // Forward-propagate to find reachable support at time `gap`.
    let reached = chain.propagate_sparse(&first, gap).ok()?;
    if reached.nnz() == 0 {
        return None;
    }
    // Pick a soft observation over (a subset of) the reachable support.
    let pairs: Vec<(usize, f64)> = reached.iter().take(3).map(|(s, _)| (s, 1.0)).collect();
    let second = ust_markov::SparseVector::from_pairs(n, pairs).ok()?;
    UncertainObject::new(
        1,
        vec![Observation::uncertain(0, first).ok()?, Observation::uncertain(gap, second).ok()?],
    )
    .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multi_obs_matches_exhaustive(
        seed in 0u64..3_000,
        n in 3usize..=6,
        gap in 2u32..=5,
        t_lo in 1u32..3,
        t_len in 0u32..2,
    ) {
        let chain = build_chain(seed, n);
        let Some(object) = consistent_two_obs_object(seed, &chain, gap) else {
            return Ok(());
        };
        let window = QueryWindow::from_states(
            n, [0usize], TimeSet::interval(t_lo, t_lo + t_len)).unwrap();
        let exact = multi_obs::exists_probability_multi(
            &chain, &object, &window, &EngineConfig::default());
        let oracle = oracle(&chain, &object, &window, 1 << 22);
        match (exact, oracle) {
            (Ok(p), Ok(o)) => {
                prop_assert!((p - o.exists()).abs() < 1e-9,
                    "multi-obs {p} vs oracle {}", o.exists());
            }
            (Err(QueryError::ImpossibleEvidence), Err(OracleError::ImpossibleEvidence)) => {}
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn smoothing_matches_degenerate_window_queries(
        seed in 0u64..2_000,
        n in 3usize..=5,
        gap in 2u32..=4,
        t in 1u32..4,
    ) {
        prop_assume!(t < gap);
        let chain = build_chain(seed, n);
        let Some(object) = consistent_two_obs_object(seed, &chain, gap) else {
            return Ok(());
        };
        let smoothed = match smoothing::smoothed_distribution(&chain, &object, t) {
            Ok(d) => d,
            Err(QueryError::ImpossibleEvidence) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        // Posterior marginal == degenerate-window exists probability.
        let mut total = 0.0;
        for s in 0..n {
            let window = QueryWindow::from_states(n, [s], TimeSet::at(t)).unwrap();
            let oracle = oracle(&chain, &object, &window, 1 << 22).unwrap();
            prop_assert!((smoothed.get(s) - oracle.exists()).abs() < 1e-9,
                "state {s}: smoothed {} vs oracle {}", smoothed.get(s), oracle.exists());
            total += smoothed.get(s);
        }
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_observation_multi_reduces_to_plain_ob(
        seed in 0u64..2_000,
        n in 3usize..=7,
        t_len in 0u32..3,
    ) {
        let chain = build_chain(seed, n);
        let mut rng = testutil::rng(seed ^ 1);
        let dist = testutil::random_distribution(&mut rng, n, 2);
        let object = UncertainObject::with_single_observation(
            4, Observation::uncertain(0, dist).unwrap());
        let window = QueryWindow::from_states(
            n, [n - 1], TimeSet::interval(1, 1 + t_len)).unwrap();
        let config = EngineConfig::default();
        let multi = multi_obs::exists_probability_multi(&chain, &object, &window, &config)
            .unwrap();
        let exists = Query::exists().window(window).strategy(ust_core::Strategy::ObjectBased);
        let plain = solo_probability(&chain, &object, exists).unwrap();
        prop_assert!((multi - plain).abs() < 1e-12);
    }
}

#[test]
fn three_observations_are_fused_in_order() {
    // A deterministic conveyor with a "fork": verify a three-fix object is
    // handled and matches enumeration.
    let chain = MarkovChain::from_csr(
        CsrMatrix::from_dense(&[
            vec![0.0, 0.5, 0.5, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ])
        .unwrap(),
    )
    .unwrap();
    let object = UncertainObject::new(
        9,
        vec![
            Observation::exact(0, 4, 0).unwrap(),
            Observation::exact(2, 4, 3).unwrap(),
            Observation::exact(3, 4, 0).unwrap(),
        ],
    )
    .unwrap();
    let window = QueryWindow::from_states(4, [1usize], TimeSet::at(1)).unwrap();
    let p = multi_obs::exists_probability_multi(&chain, &object, &window, &EngineConfig::default())
        .unwrap();
    let oracle = oracle(&chain, &object, &window, 1 << 20).unwrap();
    assert!((p - oracle.exists()).abs() < 1e-12);
    // Both routes (via s2 or s3) are consistent with all three fixes, so
    // the window {s2}×{1} is hit with probability 1/2.
    assert!((p - 0.5).abs() < 1e-12);
}

#[test]
fn smoothing_trajectory_interpolates_between_fixes() {
    let chain = build_chain(11, 5);
    let object = consistent_two_obs_object(11, &chain, 4).expect("consistent object");
    let last = object.last_observation().time();
    let traj = smoothing::smoothed_trajectory(&chain, &object, 0..=last).unwrap();
    assert_eq!(traj.len(), last as usize + 1);
    for (_, dist) in &traj {
        assert!((dist.sum() - 1.0).abs() < 1e-9);
    }
}
