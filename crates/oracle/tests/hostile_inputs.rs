//! Hostile inputs to the oracle's own checks: each one is a typed
//! [`OracleError`], never a panic, from every reference that takes it.

use ust_markov::{SparseVector, StateMask};
use ust_oracle::augmented::ktimes_distribution_blowup;
use ust_oracle::testutil::paper_chain;
use ust_oracle::textbook::untrimmed_exists;
use ust_oracle::{enumerate, OracleError};
use ust_space::TimeSet;

fn at(state: usize) -> SparseVector {
    SparseVector::unit(3, state).unwrap()
}

fn s1() -> StateMask {
    StateMask::from_indices(3, [0usize]).unwrap()
}

/// The refusal of every single-anchor reference, as text (a NaN mass is
/// not equal to itself); they must agree.
fn refusal(anchor: (u32, &SparseVector), states: &StateMask, times: &TimeSet) -> String {
    let chain = paper_chain();
    let refusals = [
        enumerate(&chain, &[anchor], states, times, 1 << 20).map(drop),
        ktimes_distribution_blowup(&chain, anchor, states, times).map(drop),
        untrimmed_exists(&chain, anchor, states, times).map(drop),
    ]
    .map(|r| format!("{:?}", r.unwrap_err()));
    assert!(refusals.iter().all(|r| *r == refusals[0]), "{refusals:?}");
    refusals[0].clone()
}

#[test]
fn malformed_windows_are_refused() {
    let beyond = StateMask::from_indices(5, [4usize]).unwrap();
    let cases = [
        (beyond, TimeSet::at(2), OracleError::WindowDimension { num_states: 3, found: 5 }),
        (StateMask::new(3), TimeSet::at(2), OracleError::EmptySpatialWindow),
        (s1(), TimeSet::empty(), OracleError::EmptyTemporalWindow),
        (s1(), TimeSet::interval(1, 5), {
            OracleError::WindowBeforeObservation { window_start: 1, observation: 2 }
        }),
    ];
    for (states, times, expected) in cases {
        assert_eq!(refusal((2, &at(1)), &states, &times), format!("{expected:?}"));
    }
}

#[test]
fn nan_negative_and_infinite_masses_are_refused() {
    for mass in [f64::NAN, -0.25, f64::INFINITY] {
        // Scaling is the one way to put a NaN into a sparse vector.
        let mut anchor = at(2);
        anchor.scale(mass);
        let expected = OracleError::InvalidMass { time: 0, state: 2, mass };
        assert_eq!(refusal((0, &anchor), &s1(), &TimeSet::at(2)), format!("{expected:?}"));
    }
    // A later observation is checked as well.
    let mut bad = at(0);
    bad.scale(f64::NAN);
    let refused = enumerate(&paper_chain(), &[(0, &at(1)), (3, &bad)], &s1(), &TimeSet::at(2), 9);
    assert!(matches!(refused, Err(OracleError::InvalidMass { time: 3, state: 0, .. })));
}

#[test]
fn a_zero_budget_is_exceeded_at_once() {
    let refused = enumerate(&paper_chain(), &[(0, &at(1))], &s1(), &TimeSet::at(2), 0);
    assert_eq!(refused, Err(OracleError::BudgetExceeded { budget: 0 }));
}

#[test]
fn contradictory_or_empty_evidence_is_impossible() {
    let chain = paper_chain();
    // s2 cannot follow s2; an all-zero anchor leaves no world at all.
    let (s2, nothing) = (at(1), SparseVector::zeros(3));
    for observations in [vec![(0, &s2), (1, &s2)], vec![(0, &nothing)]] {
        let refused = enumerate(&chain, &observations, &s1(), &TimeSet::at(1), 99);
        assert_eq!(refused, Err(OracleError::ImpossibleEvidence));
    }
}

#[test]
fn malformed_observation_lists_are_refused() {
    let (chain, times) = (paper_chain(), TimeSet::at(3));
    let (s1_fix, s2_fix, wide) = (at(0), at(1), SparseVector::unit(4, 0).unwrap());
    let cases = [
        (vec![], OracleError::NoObservations),
        (vec![(2, &s1_fix), (2, &s2_fix)], OracleError::UnorderedObservations { time: 2 }),
        (vec![(0, &wide)], OracleError::ObservationDimension { num_states: 3, found: 4 }),
    ];
    for (observations, expected) in cases {
        assert_eq!(enumerate(&chain, &observations, &s1(), &times, 99), Err(expected));
    }
}
