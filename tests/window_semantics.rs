//! Window-semantics edge cases across engines: non-contiguous time sets,
//! disconnected spatial regions, windows touching the anchor, and
//! degenerate single-cell windows — the "arbitrary subset of the space
//! (time) domain" generality the paper explicitly claims.

mod common;

use common::{blowup, oracle, solo_distribution, solo_probability};
use ust::prelude::*;
use ust_oracle::testutil::paper_chain;

fn object_at(state: usize, time: u32) -> UncertainObject {
    UncertainObject::with_single_observation(1, Observation::exact(time, 3, state).unwrap())
}

fn engines_agree(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> f64 {
    let exists = Query::exists().window(window.clone());
    let ob = solo_probability(chain, object, exists.clone().strategy(Strategy::ObjectBased));
    let qb = solo_probability(chain, object, exists.strategy(Strategy::QueryBased));
    let (ob, qb) = (ob.unwrap(), qb.unwrap());
    let oracle = oracle(chain, object, window, 1 << 22).unwrap();
    assert!((ob - qb).abs() < 1e-12, "OB {ob} vs QB {qb}");
    assert!((ob - oracle.exists()).abs() < 1e-12, "OB {ob} vs oracle");
    ob
}

#[test]
fn non_contiguous_times_skip_middle() {
    let chain = paper_chain();
    let object = object_at(1, 0);
    // T▫ = {1, 4}: t ∈ {2, 3} must not count.
    let window = QueryWindow::from_states(3, [0usize], TimeSet::new([1, 4])).unwrap();
    let sparse_p = engines_agree(&chain, &object, &window);
    // The contiguous window [1, 4] must dominate it strictly here.
    let full = QueryWindow::from_states(3, [0usize], TimeSet::interval(1, 4)).unwrap();
    let full_p = engines_agree(&chain, &object, &full);
    assert!(full_p > sparse_p);
}

#[test]
fn disconnected_spatial_regions() {
    // S▫ = {s1, s3}: two "islands".
    let chain = paper_chain();
    let object = object_at(1, 0);
    let window = QueryWindow::from_states(3, [0usize, 2], TimeSet::interval(1, 2)).unwrap();
    let p = engines_agree(&chain, &object, &window);
    // From s2 every possible step-1 position is in {s1, s3}: certainty.
    assert!((p - 1.0).abs() < 1e-12);
}

#[test]
fn window_start_equal_to_anchor_counts_membership() {
    let chain = paper_chain();
    // Anchor at t=2 at s1, window includes (s1, t=2): immediate hit.
    let object = object_at(0, 2);
    let window = QueryWindow::from_states(3, [0usize], TimeSet::new([2, 5])).unwrap();
    let p = engines_agree(&chain, &object, &window);
    assert!((p - 1.0).abs() < 1e-12);
}

#[test]
fn late_anchor_with_future_subwindow() {
    // Anchor at t=3; window times {3, 5} — both ≥ anchor, evaluable.
    let chain = paper_chain();
    let object = object_at(2, 3);
    let window = QueryWindow::from_states(3, [1usize], TimeSet::new([3, 5])).unwrap();
    let p = engines_agree(&chain, &object, &window);
    // By hand: not at s2 at t=3 (anchor at s3). Paths: t=4 s3→s2 (0.8, not
    // a window time) or s3→s3 (0.2). t=5 ∈ T▫: from s2 → never s2; from
    // s3 → s2 w.p. 0.8. P = 0.2·0.8 + 0.8·(s2 at t4 → s1/s3 at t5: 0) =
    // 0.16.
    assert!((p - 0.16).abs() < 1e-12, "got {p}");
}

#[test]
fn ktimes_on_non_contiguous_times() {
    let chain = paper_chain();
    let object = object_at(1, 0);
    let window = QueryWindow::from_states(3, [1usize], TimeSet::new([2, 4])).unwrap();
    let ktimes = Query::ktimes(1).window(window.clone());
    let ob = solo_distribution(&chain, &object, ktimes.clone().strategy(Strategy::ObjectBased));
    let qb = solo_distribution(&chain, &object, ktimes.strategy(Strategy::QueryBased));
    let (ob, qb) = (ob.unwrap(), qb.unwrap());
    let blow = blowup(&chain, &object, &window).unwrap();
    let oracle = oracle(&chain, &object, &window, 1 << 22).unwrap();
    assert_eq!(ob.len(), 3); // k ∈ {0, 1, 2}
    for k in 0..3 {
        assert!((ob[k] - qb[k]).abs() < 1e-12);
        assert!((ob[k] - blow[k]).abs() < 1e-12);
        assert!((ob[k] - oracle.ktimes[k]).abs() < 1e-12);
    }
}

#[test]
fn single_state_single_time_window_equals_marginal() {
    let chain = paper_chain();
    let object = object_at(1, 0);
    for t in 1..=5u32 {
        for s in 0..3usize {
            let window = QueryWindow::from_states(3, [s], TimeSet::at(t)).unwrap();
            let p = engines_agree(&chain, &object, &window);
            // Must equal the forward marginal P(o(t) = s).
            let marginal = chain
                .propagate_dense(&DenseVector::from_vec(vec![0.0, 1.0, 0.0]), t)
                .unwrap()
                .get(s);
            assert!((p - marginal).abs() < 1e-12, "t={t}, s={s}");
        }
    }
}

#[test]
fn exists_is_monotone_in_window_growth() {
    // Adding states or times can only increase P∃ (set monotonicity).
    let chain = paper_chain();
    let object = object_at(1, 0);
    let base = QueryWindow::from_states(3, [0usize], TimeSet::interval(2, 3)).unwrap();
    let more_states = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
    let more_times = QueryWindow::from_states(3, [0usize], TimeSet::interval(1, 4)).unwrap();
    let p0 = engines_agree(&chain, &object, &base);
    let p1 = engines_agree(&chain, &object, &more_states);
    let p2 = engines_agree(&chain, &object, &more_times);
    assert!(p1 >= p0 - 1e-12);
    assert!(p2 >= p0 - 1e-12);
}

#[test]
fn backward_field_snapshots_only_requested_times() {
    use ust_core::engine::query_based::BackwardField;
    let chain = paper_chain();
    let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(4, 6)).unwrap();
    let field = BackwardField::compute(&chain, &window, &[2, 0], &mut EvalStats::new()).unwrap();
    assert!(field.at(0).is_some());
    assert!(field.at(2).is_some());
    assert!(field.at(1).is_none());
    assert!(field.at(6).is_none());
    // Snapshot at a later anchor has strictly less information folded in.
    let h0 = field.at(0).unwrap();
    let h2 = field.at(2).unwrap();
    assert_eq!((h0.len(), h0[0].dim()), (1, 3));
    assert_eq!((h2.len(), h2[0].dim()), (1, 3));
}
