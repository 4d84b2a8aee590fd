//! Property-based cross-engine consistency.
//!
//! On randomly generated small chains, objects and windows, every engine in
//! the crate must tell the same story:
//!
//! * OB ≡ QB ≡ blown-up reference ≡ exhaustive possible-worlds enumeration;
//! * `Σ_k P(k) = 1`, `P∃ = 1 − P(k=0)`, `P∀ = P(k=|T▫|) = 1 − P∃(S∖S▫)`;
//! * Monte-Carlo lands within a generous confidence band;
//! * ε-pruning errs by at most the reported dropped mass.

mod common;

use proptest::prelude::*;

use common::{blowup, dists, oracle, probs, reference_config, solo_distribution, solo_probability};
use ust::prelude::*;
use ust_bench::baselines::monte_carlo::MonteCarlo;
use ust_core::Strategy::{ObjectBased, QueryBased};
use ust_oracle::testutil;

/// Strategy: a random banded stochastic chain with 3..=7 states.
/// (`proptest::Strategy` spelled out — `ust::prelude` now also exports a
/// `Strategy`, the query-planner override enum.)
fn chain_strategy() -> impl proptest::prelude::Strategy<Value = (u64, usize)> {
    (0u64..5_000, 3usize..=7)
}

fn build_chain(seed: u64, n: usize) -> MarkovChain {
    let mut rng = testutil::rng(seed);
    MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, n, 3, 4)).unwrap()
}

fn build_object(seed: u64, n: usize, anchor_time: u32) -> UncertainObject {
    let mut rng = testutil::rng(seed ^ 0xABCD);
    let dist = testutil::random_distribution(&mut rng, n, 2);
    UncertainObject::with_single_observation(7, Observation::uncertain(anchor_time, dist).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ob_qb_blowup_and_oracle_agree(
        (seed, n) in chain_strategy(),
        state_bits in 1u8..7,
        t_lo in 0u32..4,
        t_len in 0u32..3,
        anchor_time in 0u32..2,
    ) {
        let chain = build_chain(seed, n);
        let object = build_object(seed, n, anchor_time);
        // Window states from the low bits; clip to the dimension.
        let states: Vec<usize> =
            (0..n).filter(|s| state_bits & (1 << (s % 7)) != 0).collect();
        prop_assume!(!states.is_empty() && states.len() < n);
        let t_start = anchor_time + t_lo;
        let window = QueryWindow::from_states(
            n,
            states,
            TimeSet::interval(t_start, t_start + t_len),
        ).unwrap();
        let exists = Query::exists().window(window.clone());
        let ktimes = Query::ktimes(1).window(window.clone());

        let ob = solo_probability(&chain, &object, exists.clone().strategy(ObjectBased)).unwrap();
        let qb = solo_probability(&chain, &object, exists.strategy(QueryBased)).unwrap();
        let kd = solo_distribution(&chain, &object, ktimes.clone().strategy(ObjectBased)).unwrap();
        let kq = solo_distribution(&chain, &object, ktimes.strategy(QueryBased)).unwrap();
        let kb = blowup(&chain, &object, &window).unwrap();
        let oracle = oracle(&chain, &object, &window, 1 << 22).unwrap();

        prop_assert!((ob - qb).abs() < 1e-9, "OB {ob} vs QB {qb}");
        prop_assert!((ob - oracle.exists()).abs() < 1e-9, "OB {ob} vs oracle {}", oracle.exists());
        let ksum: f64 = kd.iter().sum();
        prop_assert!((ksum - 1.0).abs() < 1e-9, "Σ P(k) = {ksum}");
        prop_assert!((1.0 - kd[0] - ob).abs() < 1e-9, "P∃ vs 1 − P(k=0)");
        for k in 0..kd.len() {
            prop_assert!((kd[k] - oracle.ktimes[k]).abs() < 1e-9, "k = {k}");
            prop_assert!((kd[k] - kq[k]).abs() < 1e-9, "qb k = {k}");
            prop_assert!((kd[k] - kb[k]).abs() < 1e-9, "blowup k = {k}");
        }
    }

    #[test]
    fn forall_complement_identity(
        (seed, n) in chain_strategy(),
        t_len in 0u32..3,
    ) {
        let chain = build_chain(seed, n);
        let object = build_object(seed, n, 0);
        // A strict subset of states so the complement is non-empty.
        let states: Vec<usize> = (0..n / 2).collect();
        prop_assume!(!states.is_empty());
        let window =
            QueryWindow::from_states(n, states, TimeSet::interval(1, 1 + t_len)).unwrap();
        let forall = Query::forall().window(window.clone());
        let ktimes = Query::ktimes(1).window(window.clone()).strategy(ObjectBased);

        let fa_ob = solo_probability(&chain, &object, forall.clone().strategy(ObjectBased)).unwrap();
        let fa_qb = solo_probability(&chain, &object, forall.strategy(QueryBased)).unwrap();
        let kd = solo_distribution(&chain, &object, ktimes).unwrap();
        let oracle = oracle(&chain, &object, &window, 1 << 22).unwrap();

        prop_assert!((fa_ob - fa_qb).abs() < 1e-9);
        prop_assert!((fa_ob - kd[kd.len() - 1]).abs() < 1e-9);
        prop_assert!((fa_ob - oracle.forall()).abs() < 1e-9);
    }

    #[test]
    fn epsilon_pruning_error_is_bounded_by_dropped_mass(
        (seed, n) in chain_strategy(),
        eps_exp in 1u32..5,
    ) {
        let chain = build_chain(seed, n);
        let object = build_object(seed, n, 0);
        let window = QueryWindow::from_states(n, [0usize], TimeSet::interval(2, 4)).unwrap();
        let exists = Query::exists().window(window).strategy(ObjectBased);
        let exact = solo_probability(&chain, &object, exists.clone()).unwrap();
        let eps = 10f64.powi(-(eps_exp as i32));
        let mut db = TrajectoryDatabase::new(chain);
        db.insert(object).unwrap();
        let pruning = QueryProcessor::with_config(&db, reference_config().with_epsilon(eps));
        let mut stats = EvalStats::new();
        let pruned = pruning.execute_with_stats(&exists.build().unwrap(), &mut stats).unwrap();
        let pruned = pruned.probabilities().unwrap()[0].probability;
        prop_assert!(
            (exact - pruned).abs() <= stats.pruned_mass + 1e-12,
            "error {} exceeds dropped mass {}", (exact - pruned).abs(), stats.pruned_mass
        );
    }
}

#[test]
fn monte_carlo_confidence_band() {
    // Fixed-seed statistical check (not a proptest: sampling is expensive).
    for seed in [1u64, 2, 3] {
        let n = 6;
        let chain = build_chain(seed, n);
        let object = build_object(seed, n, 0);
        let window = QueryWindow::from_states(n, [0usize, 1], TimeSet::interval(2, 4)).unwrap();
        let exists = Query::exists().window(window.clone()).strategy(ObjectBased);
        let exact = solo_probability(&chain, &object, exists).unwrap();
        let samples = 20_000;
        let estimate =
            MonteCarlo::new(samples, seed).exists_probability(&chain, &object, &window).unwrap();
        let sigma = MonteCarlo::standard_error(exact.clamp(0.01, 0.99), samples);
        assert!(
            (estimate - exact).abs() <= 5.0 * sigma,
            "seed {seed}: estimate {estimate} vs exact {exact} (5σ = {})",
            5.0 * sigma
        );
    }
}

#[test]
fn batch_engines_agree_on_synthetic_data() {
    // Deterministic medium-size agreement check over a generated dataset.
    let data = ust_data::synthetic::generate(&ust_data::SyntheticConfig {
        num_objects: 50,
        num_states: 3_000,
        ..ust_data::SyntheticConfig::default()
    });
    let window = ust_data::workload::paper_default_window(3_000).unwrap();
    let processor = QueryProcessor::new(&data.db);
    let exists = Query::exists().window(window.clone());
    // (`ust_core::Strategy` spelled out: proptest's prelude exports one too.)
    let ob = probs(&processor, exists.clone().strategy(ust_core::Strategy::ObjectBased));
    let qb = probs(&processor, exists.strategy(ust_core::Strategy::QueryBased));
    let ktimes_ob = Query::ktimes(1).window(window).strategy(ust_core::Strategy::ObjectBased);
    let kd = dists(&processor, ktimes_ob);
    for ((a, b), k) in ob.iter().zip(&qb).zip(&kd) {
        assert!((a.probability - b.probability).abs() < 1e-9);
        assert!((a.probability - k.prob_at_least_once()).abs() < 1e-9);
    }
}
