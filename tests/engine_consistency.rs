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

use common::{dists, probs};
use ust::prelude::*;
use ust_bench::baselines::monte_carlo::MonteCarlo;
use ust_core::engine::{exhaustive, forall, ktimes, object_based, query_based};
use ust_markov::testutil;

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
        let config = EngineConfig::default();

        let ob = object_based::exists_probability(&chain, &object, &window, &config).unwrap();
        let qb = query_based::exists_probability(&chain, &object, &window, &config).unwrap();
        let kd = ktimes::ktimes_distribution_ob(&chain, &object, &window, &config).unwrap();
        let kq = ktimes::ktimes_distribution_qb(&chain, &object, &window, &config).unwrap();
        let kb = ktimes::ktimes_distribution_blowup(&chain, &object, &window).unwrap();
        let oracle = exhaustive::enumerate(&chain, &object, &window, 1 << 22).unwrap();

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
        let config = EngineConfig::default();

        let fa_ob = forall::forall_probability_ob(&chain, &object, &window, &config).unwrap();
        let fa_qb = forall::forall_probability_qb(&chain, &object, &window, &config).unwrap();
        let kd = ktimes::ktimes_distribution_ob(&chain, &object, &window, &config).unwrap();
        let oracle = exhaustive::enumerate(&chain, &object, &window, 1 << 22).unwrap();

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
        let exact = object_based::exists_probability(
            &chain, &object, &window, &EngineConfig::default()).unwrap();
        let eps = 10f64.powi(-(eps_exp as i32));
        let mut stats = EvalStats::new();
        let pruned = object_based::exists_probability_with_stats(
            &chain, &object, &window,
            &EngineConfig::default().with_epsilon(eps), &mut stats).unwrap();
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
        let exact =
            object_based::exists_probability(&chain, &object, &window, &EngineConfig::default())
                .unwrap();
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
