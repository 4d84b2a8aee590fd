//! Property test of the central correctness claim: on random small
//! instances, the object-based (forward) and query-based (backward) engines
//! agree with exhaustive possible-worlds enumeration for all three
//! predicates (PST∃Q, PST∀Q, PSTkQ).
//!
//! Every evaluation below drives the shared `engine::pipeline` propagation
//! core — OB through the batched forward sweep, QB through
//! `Propagator::backward` — so this is an end-to-end consistency check of
//! the pipeline from both directions, across all six `QueryProcessor`
//! entry points. Two further structural properties of the batch-first
//! core are pinned down exactly (to the bit, not a tolerance):
//!
//! * batched OB evaluation is **bit-identical** to the per-object path at
//!   every batch size, for ∃/∀/k results, threshold decisions and top-k
//!   rankings;
//! * query-based results served through the `BackwardFieldCache` are
//!   **bit-identical** to uncached evaluation across random overlapping
//!   windows, including suffix-extended partial hits;
//! * evaluation on the long-lived `WorkerPool` — including the
//!   shared-field plan of the query-based drivers and the processor's
//!   lock-guarded cache — is **bit-identical** to sequential evaluation at
//!   every worker count, and sweeps each `(model, window)` backward field
//!   at most once per query regardless of the worker count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust::prelude::*;
use ust_core::engine::{exhaustive, query_based};
use ust_core::{ranking, threshold};
use ust_markov::{testutil, StateMask};
use ust_space::TimeSet;

const TOL: f64 = 1e-9;

/// A random query window over `n` states: each state joins `S▫` with
/// probability 0.4; `T▫ = [t_start, t_start + t_len]`.
fn random_window(n: usize, mask_seed: u64, t_start: u32, t_len: u32) -> Option<QueryWindow> {
    let mut rng = StdRng::seed_from_u64(mask_seed);
    let mut mask = StateMask::new(n);
    for s in 0..n {
        if rng.random::<f64>() < 0.4 {
            mask.insert(s).unwrap();
        }
    }
    // PST∀Q reduces via the complement, so the window must be a proper
    // non-empty subset of the state space.
    if mask.is_empty() || mask.count() == n {
        return None;
    }
    QueryWindow::new(mask, TimeSet::interval(t_start, t_start + t_len)).ok()
}

/// A database of `objects` uncertain objects over one random chain, with
/// anchor times alternating between 0 and `max_anchor` to exercise the
/// per-anchor snapshots of the backward field.
fn random_db(
    seed: u64,
    n: usize,
    deg: usize,
    objects: usize,
    max_anchor: u32,
) -> TrajectoryDatabase {
    let chain = MarkovChain::from_csr({
        let mut rng = testutil::rng(seed);
        testutil::random_stochastic(&mut rng, n, deg)
    })
    .unwrap();
    let mut rng = testutil::rng(seed ^ 0xDA7A);
    let mut db = TrajectoryDatabase::new(chain);
    for i in 0..objects {
        let dist = testutil::random_distribution(&mut rng, n, 2);
        let anchor_time = if i % 2 == 0 { 0 } else { max_anchor };
        db.insert(UncertainObject::with_single_observation(
            i as u64,
            Observation::uncertain(anchor_time, dist).unwrap(),
        ))
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ob_qb_and_exhaustive_agree_on_all_predicates(
        (seed, n, deg) in (0u64..10_000, 2usize..=6, 1usize..=3),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 1usize..=3,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, deg, objects, t_start.min(1));
        let processor = QueryProcessor::new(&db);

        let exists_ob = processor.exists_object_based(&window).unwrap();
        let exists_qb = processor.exists_query_based(&window).unwrap();
        let forall_ob = processor.forall_object_based(&window).unwrap();
        let forall_qb = processor.forall_query_based(&window).unwrap();
        let ktimes_ob = processor.ktimes_object_based(&window).unwrap();
        let ktimes_qb = processor.ktimes_query_based(&window).unwrap();

        for (idx, object) in db.objects().iter().enumerate() {
            let truth =
                exhaustive::enumerate(db.model_of(object), object, &window, 1 << 22).unwrap();

            prop_assert!((exists_ob[idx].probability - truth.exists()).abs() < TOL,
                "∃ OB {} vs exhaustive {}", exists_ob[idx].probability, truth.exists());
            prop_assert!((exists_qb[idx].probability - truth.exists()).abs() < TOL,
                "∃ QB {} vs exhaustive {}", exists_qb[idx].probability, truth.exists());
            prop_assert!((forall_ob[idx].probability - truth.forall()).abs() < TOL,
                "∀ OB {} vs exhaustive {}", forall_ob[idx].probability, truth.forall());
            prop_assert!((forall_qb[idx].probability - truth.forall()).abs() < TOL,
                "∀ QB {} vs exhaustive {}", forall_qb[idx].probability, truth.forall());

            // No engine reports a probability outside [0, 1] — exactly, not
            // to a tolerance.
            let unit = |p: &f64| (0.0..=1.0).contains(p);
            prop_assert!(
                [&exists_ob, &exists_qb, &forall_ob, &forall_qb].iter().all(|r| unit(&r[idx].probability))
                    && ktimes_ob[idx].probabilities.iter().all(unit)
                    && ktimes_qb[idx].probabilities.iter().all(unit),
                "outside [0, 1]: OB {:?} QB {:?}",
                ktimes_ob[idx].probabilities, ktimes_qb[idx].probabilities);

            prop_assert_eq!(ktimes_ob[idx].probabilities.len(), truth.ktimes.len());
            for (k, expected) in truth.ktimes.iter().enumerate() {
                prop_assert!((ktimes_ob[idx].probabilities[k] - expected).abs() < TOL,
                    "k={k}: OB {:?} vs exhaustive {:?}",
                    ktimes_ob[idx].probabilities, truth.ktimes);
                prop_assert!((ktimes_qb[idx].probabilities[k] - expected).abs() < TOL,
                    "k={k}: QB {:?} vs exhaustive {:?}",
                    ktimes_qb[idx].probabilities, truth.ktimes);
            }
        }
    }

    #[test]
    fn epsilon_pruning_error_stays_within_reported_mass(
        (seed, n, deg) in (0u64..10_000, 3usize..=8, 1usize..=3),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=4,
        t_len in 0u32..=2,
        epsilon in 0.0005f64..0.02,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, deg, 1, 0);
        let exact = QueryProcessor::new(&db).exists_object_based(&window).unwrap();

        let mut stats = EvalStats::new();
        let pruned = ust_core::engine::object_based::evaluate(
            &db,
            &window,
            &EngineConfig::exact().with_epsilon(epsilon),
            &mut stats,
        )
        .unwrap();
        // The pipeline reports every unit of dropped mass; the result may
        // deviate from the exact probability by at most that much.
        prop_assert!(
            (pruned[0].probability - exact[0].probability).abs() <= stats.pruned_mass + TOL,
            "pruned {} exact {} dropped {}",
            pruned[0].probability, exact[0].probability, stats.pruned_mass
        );
    }

    #[test]
    fn batched_evaluation_is_bit_identical_to_per_object(
        (seed, n, deg) in (0u64..10_000, 3usize..=8, 1usize..=3),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 4usize..=20,
        tau in 0.05f64..0.95,
        k in 1usize..=5,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, deg, objects, t_start.min(1));
        let per_object = EngineConfig::default().with_batch_size(1);

        let exists_ref =
            ust_core::engine::object_based::evaluate(&db, &window, &per_object, &mut EvalStats::new()).unwrap();
        let forall_ref =
            ust_core::engine::forall::evaluate_object_based(&db, &window, &per_object, &mut EvalStats::new()).unwrap();
        let ktimes_ref =
            ust_core::engine::ktimes::evaluate_object_based(&db, &window, &per_object, &mut EvalStats::new()).unwrap();
        let accepted_ref =
            threshold::threshold_query(&db, &window, tau, &per_object, &mut EvalStats::new()).unwrap();
        let topk_ref =
            ranking::topk_object_based_pruned(&db, &window, k, &per_object, &mut EvalStats::new()).unwrap();

        for batch_size in [3usize, 16] {
            let config = EngineConfig::default().with_batch_size(batch_size);
            let exists =
                ust_core::engine::object_based::evaluate(&db, &window, &config, &mut EvalStats::new()).unwrap();
            for (a, b) in exists.iter().zip(&exists_ref) {
                prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits(),
                    "∃ batch={} {} vs {}", batch_size, a.probability, b.probability);
            }
            let forall =
                ust_core::engine::forall::evaluate_object_based(&db, &window, &config, &mut EvalStats::new()).unwrap();
            for (a, b) in forall.iter().zip(&forall_ref) {
                prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
            let ktimes =
                ust_core::engine::ktimes::evaluate_object_based(&db, &window, &config, &mut EvalStats::new()).unwrap();
            for (a, b) in ktimes.iter().zip(&ktimes_ref) {
                prop_assert_eq!(a.object_id, b.object_id);
                for (x, y) in a.probabilities.iter().zip(&b.probabilities) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let accepted =
                threshold::threshold_query(&db, &window, tau, &config, &mut EvalStats::new()).unwrap();
            prop_assert_eq!(&accepted, &accepted_ref, "threshold batch={}", batch_size);
            let topk =
                ranking::topk_object_based_pruned(&db, &window, k, &config, &mut EvalStats::new()).unwrap();
            prop_assert_eq!(topk.len(), topk_ref.len());
            for (a, b) in topk.iter().zip(&topk_ref) {
                prop_assert_eq!(a.object_id, b.object_id, "top-k order batch={}", batch_size);
                prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
    }

    #[test]
    fn cached_qb_results_are_bit_identical_across_overlapping_windows(
        (seed, n, deg) in (0u64..10_000, 3usize..=8, 1usize..=3),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 2usize..=8,
        slide in 1u32..=2,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        // An overlapping sibling: same states, slid time interval.
        let slid = QueryWindow::new(
            window.states().clone(),
            TimeSet::interval(window.t_start() + slide, window.t_end() + slide),
        ).unwrap();
        let db = random_db(seed, n, deg, objects, t_start.min(1));
        let config = EngineConfig::default();
        let mut cache = BackwardFieldCache::new(4);
        let mut stats = EvalStats::new();

        // Revisit each window twice so both fresh sweeps and pure hits are
        // exercised; anchors alternate (0 / max_anchor), so the second
        // population can extend a cached suffix downward.
        for w in [&window, &slid, &window, &slid] {
            let uncached =
                query_based::evaluate(&db, w, &config, &mut EvalStats::new()).unwrap();
            let cached =
                query_based::evaluate_with_cache(&db, w, &config, &mut cache, &mut stats).unwrap();
            for (a, b) in cached.iter().zip(&uncached) {
                prop_assert_eq!(a.object_id, b.object_id);
                prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits(),
                    "cached {} vs uncached {}", a.probability, b.probability);
            }
        }
        prop_assert!(stats.cache_hits >= 2, "revisits must hit: {:?}", stats);
        prop_assert!(stats.cache_misses <= 2, "only distinct windows sweep: {:?}", stats);
    }

    #[test]
    fn pooled_evaluation_is_bit_identical_to_sequential(
        (seed, n, deg) in (0u64..10_000, 3usize..=8, 1usize..=3),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 4usize..=16,
        tau in 0.05f64..0.95,
        k in 1usize..=5,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, deg, objects, t_start.min(1));
        let sequential = EngineConfig::default();

        let exists_qb_ref =
            query_based::evaluate(&db, &window, &sequential, &mut EvalStats::new()).unwrap();
        let ktimes_ref = ust_core::engine::ktimes::evaluate_query_based(
            &db, &window, &sequential, &mut EvalStats::new()).unwrap();
        let accepted_ref =
            threshold::threshold_query(&db, &window, tau, &sequential, &mut EvalStats::new())
                .unwrap();
        let topk_ref =
            ranking::topk_object_based_pruned(&db, &window, k, &sequential, &mut EvalStats::new())
                .unwrap();
        let topk_qb_ref =
            ranking::topk_query_based(&db, &window, k, &sequential, &mut EvalStats::new())
                .unwrap();
        let mut baseline = EvalStats::new();
        ust_core::parallel::evaluate_exists_qb_parallel(
            &db, &window, &sequential, &mut baseline).unwrap();

        for threads in [2usize, 4] {
            let config = EngineConfig::default().with_num_threads(threads);
            // The processor owns a long-lived pool and a lock-guarded
            // backward-field cache; run every entry point twice so both
            // the fresh-sweep and the pure-cache-hit paths are pinned.
            let processor = QueryProcessor::with_config(&db, config);
            prop_assert!(processor.pool().is_some());
            for round in 0..2 {
                let exists_qb = processor.exists_query_based(&window).unwrap();
                for (a, b) in exists_qb.iter().zip(&exists_qb_ref) {
                    prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits(),
                        "∃ QB pooled threads={} round={}", threads, round);
                }
                let ktimes = processor.ktimes_query_based(&window).unwrap();
                for (a, b) in ktimes.iter().zip(&ktimes_ref) {
                    prop_assert_eq!(a.object_id, b.object_id);
                    for (x, y) in a.probabilities.iter().zip(&b.probabilities) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                let accepted = processor.threshold_query(&window, tau).unwrap();
                prop_assert_eq!(&accepted, &accepted_ref, "threshold threads={}", threads);
                let accepted_cached = processor.threshold_query_cached(&window, tau).unwrap();
                prop_assert_eq!(&accepted_cached, &accepted_ref,
                    "cached threshold threads={}", threads);
                let topk = processor.topk(&window, k).unwrap();
                prop_assert_eq!(topk.len(), topk_ref.len());
                for (a, b) in topk.iter().zip(&topk_ref) {
                    prop_assert_eq!(a.object_id, b.object_id);
                    prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
                }
                let topk_qb = processor.topk_query_based(&window, k).unwrap();
                for (a, b) in topk_qb.iter().zip(&topk_qb_ref) {
                    prop_assert_eq!(a.object_id, b.object_id, "top-k QB threads={}", threads);
                    prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
                }
            }
            // The shared-field plan sweeps each (model, window) field at
            // most once per query, independent of the worker count.
            let mut stats = EvalStats::new();
            ust_core::parallel::evaluate_exists_qb_parallel(
                &db, &window, &config, &mut stats).unwrap();
            prop_assert_eq!(stats.backward_steps, baseline.backward_steps,
                "threads={} must not re-sweep the shared field", threads);
            prop_assert_eq!(stats.fields_shared, baseline.fields_shared);
        }
    }

    #[test]
    fn threshold_decisions_match_exact_probability(
        (seed, n, deg) in (0u64..10_000, 2usize..=6, 1usize..=3),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        tau in 0.05f64..0.95,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, deg, 1, 0);
        let object = &db.objects()[0];
        let exact = QueryProcessor::new(&db).exists_object_based(&window).unwrap()[0].probability;
        // Bound-based early decisions must agree with the exact value
        // whenever τ is not razor-close to it.
        prop_assume!((exact - tau).abs() > 1e-6);
        let outcome = threshold::exists_threshold(
            db.model_of(object),
            object,
            &window,
            tau,
            &EngineConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(outcome.qualifies, exact >= tau,
            "τ = {}, exact = {}, outcome = {:?}", tau, exact, outcome);
        prop_assert!(outcome.lower <= exact + TOL && exact <= outcome.upper + TOL);
    }
}
