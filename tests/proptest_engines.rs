//! Property test of the central correctness claim: on random small
//! instances, the object-based (forward) and query-based (backward) engines
//! agree with exhaustive possible-worlds enumeration for all three
//! predicates (PST∃Q, PST∀Q, PSTkQ).
//!
//! Every evaluation below drives the shared `engine::pipeline` propagation
//! core — OB through the batched forward sweep, QB through
//! `Propagator::backward_from` — so this is an end-to-end consistency check of
//! the pipeline from both directions, across all six (predicate,
//! strategy) shapes of `QueryProcessor::execute`. Three further structural
//! properties of the batch-first core are pinned down exactly (to the bit,
//! not a tolerance):
//!
//! * batched OB evaluation is **bit-identical** to a batch of one at
//!   every batch size, for ∃/∀/k results, threshold decisions and top-k
//!   rankings;
//! * query-based results served through the `FieldCache` are
//!   **bit-identical** to uncached evaluation across random overlapping
//!   windows, including suffix-extended partial hits;
//! * evaluation on the long-lived `WorkerPool` — including the
//!   shared-field plan of the query-based drivers and the processor's
//!   lock-guarded cache — is **bit-identical** to sequential evaluation at
//!   every worker count, and sweeps each `(model, window)` backward field
//!   at most once per query regardless of the worker count.

mod common;

use proptest::prelude::*;

use common::{bit_diff, dists, oracle, probs, random_db, random_window, reference};
use ust::prelude::*;
// Explicit import: both glob preludes export a `Strategy` (proptest's
// strategy trait vs. the planner override enum); the planner enum wins.
use ust_core::Strategy::{ObjectBased, QueryBased};

const TOL: f64 = 1e-9;

/// `execute` on a fresh processor under `config`.
fn run(db: &TrajectoryDatabase, config: EngineConfig, builder: &QueryBuilder) -> QueryAnswer {
    QueryProcessor::with_config(db, config).execute(&builder.clone().build().unwrap()).unwrap()
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

        let exists = Query::exists().window(window.clone());
        let forall = Query::forall().window(window.clone());
        let ktimes = Query::ktimes(1).window(window.clone());
        let exists_ob = probs(&processor, exists.clone().strategy(ObjectBased));
        let exists_qb = probs(&processor, exists.strategy(QueryBased));
        let forall_ob = probs(&processor, forall.clone().strategy(ObjectBased));
        let forall_qb = probs(&processor, forall.strategy(QueryBased));
        let ktimes_ob = dists(&processor, ktimes.clone().strategy(ObjectBased));
        let ktimes_qb = dists(&processor, ktimes.strategy(QueryBased));

        for (idx, object) in db.objects().iter().enumerate() {
            let truth = oracle(db.model_of(object), object, &window, 1 << 22).unwrap();

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
        let exact = probs(
            &QueryProcessor::new(&db),
            Query::exists().window(window.clone()).strategy(ObjectBased),
        );

        let mut stats = EvalStats::new();
        let pruning = QueryProcessor::with_config(&db, EngineConfig::exact().with_epsilon(epsilon));
        let spec = Query::exists().window(window.clone()).strategy(ObjectBased).build().unwrap();
        let pruned = pruning.execute_with_stats(&spec, &mut stats).unwrap();
        let pruned = pruned.probabilities().unwrap();
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
        let exists_ob = Query::exists().window(window.clone()).strategy(ObjectBased);
        let shapes = [
            ("∃", exists_ob.clone()),
            ("∀", Query::forall().window(window.clone()).strategy(ObjectBased)),
            ("k-times", Query::ktimes(1).window(window.clone()).strategy(ObjectBased)),
            ("threshold", exists_ob.clone().threshold(tau)),
            ("top-k", exists_ob.top_k(k)),
        ];
        for (what, shape) in &shapes {
            // The reference configuration runs a batch of one.
            let per_object = reference(&db, shape.clone()).unwrap();
            for batch_size in [3usize, 16] {
                let config = EngineConfig::default().with_batch_size(batch_size);
                prop_assert_eq!(bit_diff(&run(&db, config, shape), &per_object), Ok(()),
                    "{} batch={}", what, batch_size);
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
        let config = EngineConfig::default().with_cache_capacity(4);
        let processor = QueryProcessor::with_config(&db, config);
        let mut stats = EvalStats::new();

        // Revisit each window twice so both fresh sweeps and pure hits are
        // exercised; anchors alternate (0 / max_anchor), so the second
        // population can extend a cached suffix downward.
        for w in [&window, &slid, &window, &slid] {
            let exists_qb = Query::exists().window(w.clone()).strategy(QueryBased);
            let uncached = reference(&db, exists_qb.clone()).unwrap();
            let cached = processor.execute_with_stats(&exists_qb.build().unwrap(), &mut stats).unwrap();
            for (a, b) in cached.probabilities().unwrap().iter().zip(uncached.probabilities().unwrap()) {
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
        let exists = Query::exists().window(window.clone());
        let shapes = [
            exists.clone().strategy(QueryBased),
            Query::ktimes(1).window(window.clone()).strategy(QueryBased),
            exists.clone().threshold(tau).strategy(ObjectBased),
            exists.clone().threshold(tau).strategy(QueryBased),
            exists.clone().top_k(k).strategy(ObjectBased),
            exists.clone().top_k(k).strategy(QueryBased),
        ];
        let references: Vec<QueryAnswer> =
            shapes.iter().map(|shape| run(&db, sequential, shape)).collect();
        // A cold sequential ∃ QB sweep's backward steps.
        let mut baseline = EvalStats::new();
        QueryProcessor::with_config(&db, sequential)
            .execute_with_stats(&shapes[0].clone().build().unwrap(), &mut baseline)
            .unwrap();

        for threads in [2usize, 4] {
            let config = EngineConfig::default().with_num_threads(threads);
            // The processor shards on scoped threads over a lock-guarded
            // backward-field cache; run every shape twice so both the
            // fresh-sweep and the pure-cache-hit paths are pinned.
            let processor = QueryProcessor::with_config(&db, config);
            let mut first = None;
            for round in 0..2 {
                for (shape, reference) in shapes.iter().zip(&references) {
                    let spec = shape.clone().build().unwrap();
                    let mut stats = EvalStats::new();
                    let answer = processor.execute_with_stats(&spec, &mut stats).unwrap();
                    prop_assert_eq!(bit_diff(&answer, reference), Ok(()),
                        "threads={} round={} {:?}", threads, round, spec);
                    // The very first execution is the cold ∃ QB sweep.
                    first.get_or_insert(stats);
                }
            }
            let first = first.unwrap();
            // The shared-field plan sweeps each (model, window) field at
            // most once per query, independent of the worker count.
            prop_assert_eq!(first.backward_steps, baseline.backward_steps,
                "threads={} must not re-sweep the shared field", threads);
            prop_assert_eq!(first.fields_shared, 1);
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
        let exact = probs(
            &QueryProcessor::new(&db),
            Query::exists().window(window.clone()).strategy(ObjectBased),
        )[0]
        .probability;
        // Bound-based early decisions must agree with the exact value
        // whenever τ is not razor-close to it.
        prop_assume!((exact - tau).abs() > 1e-6);
        for config in [EngineConfig::default(), common::reference_config()] {
            let threshold = Query::exists().window(window.clone()).threshold(tau);
            let accepted = run(&db, config, &threshold.strategy(ObjectBased));
            prop_assert_eq!(accepted.ids().unwrap().len() == 1, exact >= tau,
                "τ = {}, exact = {}, accepted = {:?}", tau, exact, accepted);
        }
    }
}
