//! Property and integration tests of the unified query API: the
//! `QuerySpec` builder, the planner, the single `execute` entry point and
//! the async `submit` front door.
//!
//! The pinned invariants:
//!
//! * **Auto ≡ explicit** — a `Strategy::Auto` spec answers bit-for-bit
//!   identically to the strategy the planner reports via `explain`, and
//!   the two exact strategies agree with each other: exactly (ids,
//!   rankings) for the threshold and top-k decorators, within tolerance
//!   for raw probabilities — across all predicates (∃ / ∀ / k-times) and
//!   worker counts (1 and 4).
//! * **submit ≡ execute** — awaiting an asynchronously submitted spec
//!   yields the bit-identical answer of the synchronous call.
//! * **execute ≡ reference drivers** — every (predicate, strategy,
//!   decorator) shape answers bit-for-bit what the sequential reference
//!   drivers (the paper's algorithms with no planner, pool or cache)
//!   return, at 1 and 4 workers.
//! * **subset ≡ filtered full run** — a spec restricted to explicit
//!   object ids returns exactly the full run's entries for those objects.

mod common;

use proptest::prelude::*;

use common::{assert_bit_eq, bit_diff, random_window, reference};
use ust::prelude::*;
// Explicit import: both glob preludes export a `Strategy` (proptest's
// strategy trait vs. the planner override enum); the planner enum wins.
use ust_core::Strategy;
use ust_space::TimeSet;

const TOL: f64 = 1e-9;

fn random_db(seed: u64, n: usize, objects: usize, max_anchor: u32) -> TrajectoryDatabase {
    common::random_db(seed, n, 3, objects, max_anchor)
}

/// Checks a ranked answer against the top-`k` a reference probability
/// vector implies: `(p desc, id asc)`. The object-based ranking may *omit*
/// provably unreachable objects from its zero-probability tail (see
/// `Decorator::TopK`), so only the positively ranked prefix is compared
/// entry by entry; whatever follows must be zero-probability objects of
/// the reference.
fn ranking_diff(
    answer: &QueryAnswer,
    reference: &[ObjectProbability],
    k: usize,
) -> std::result::Result<(), String> {
    let mut expected = reference.to_vec();
    expected.sort_by(|a, b| {
        b.probability.total_cmp(&a.probability).then(a.object_id.cmp(&b.object_id))
    });
    expected.truncate(k);
    let ranked = answer.ranked().ok_or("not a ranked answer")?;
    let positive = expected.iter().take_while(|r| r.probability > 0.0).count();
    if ranked.len() < positive || ranked.len() > expected.len() {
        return Err(format!("{} ranked, {positive}..={} expected", ranked.len(), expected.len()));
    }
    for (got, want) in ranked.iter().zip(&expected).take(positive) {
        if (got.object_id, got.probability.to_bits())
            != (want.object_id, want.probability.to_bits())
        {
            return Err(format!("ranked {got:?}, expected {want:?}"));
        }
    }
    for tail in &ranked[positive..] {
        let zero_in_reference =
            reference.iter().any(|r| r.object_id == tail.object_id && r.probability == 0.0);
        if tail.probability != 0.0 || !zero_in_reference {
            return Err(format!("tail entry {tail:?} is not a zero-probability object"));
        }
    }
    Ok(())
}

/// Value-level agreement of the two exact strategies: exact for id lists
/// and ranking order, `TOL` for probabilities.
fn assert_strategies_agree(ob: &QueryAnswer, qb: &QueryAnswer, what: &str) {
    match (ob, qb) {
        (QueryAnswer::Probabilities(x), QueryAnswer::Probabilities(y)) => {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                assert_eq!(p.object_id, q.object_id);
                assert!((p.probability - q.probability).abs() < TOL, "{what}: OB vs QB");
            }
        }
        (QueryAnswer::Distributions(x), QueryAnswer::Distributions(y)) => {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                for (u, v) in p.probabilities.iter().zip(&q.probabilities) {
                    assert!((u - v).abs() < TOL, "{what}: OB vs QB distributions");
                }
            }
        }
        (QueryAnswer::ObjectIds(x), QueryAnswer::ObjectIds(y)) => {
            assert_eq!(x, y, "{what}: threshold decisions must match exactly");
        }
        (QueryAnswer::Ranked(x), QueryAnswer::Ranked(y)) => {
            // Two documented sources of slack between the strategies:
            // zero-probability padding (the pruned OB driver drops objects
            // that provably cannot reach the window, the QB driver lists
            // them at 0 — see `Decorator::TopK`), and near-tie ordering
            // (values equal up to ulps may swap positions). So: the
            // positively-ranked entries must agree positionally in value.
            let xs: Vec<_> = x.iter().filter(|r| r.probability > TOL).collect();
            let ys: Vec<_> = y.iter().filter(|r| r.probability > TOL).collect();
            assert_eq!(xs.len(), ys.len(), "{what}: positive rank counts");
            for (p, q) in xs.iter().zip(&ys) {
                assert!(
                    (p.probability - q.probability).abs() < TOL,
                    "{what}: rank values must agree"
                );
            }
        }
        _ => panic!("{what}: answers have different variants"),
    }
}

/// Every predicate × decorator combination exercised by the properties.
fn spec_builders(k: usize, tau: f64, top: usize) -> Vec<(&'static str, QueryBuilder)> {
    vec![
        ("exists/probs", Query::exists()),
        ("exists/threshold", Query::exists().threshold(tau)),
        ("exists/topk", Query::exists().top_k(top)),
        ("forall/probs", Query::forall()),
        ("forall/threshold", Query::forall().threshold(tau)),
        ("forall/topk", Query::forall().top_k(top)),
        ("ktimes/probs", Query::ktimes(k)),
        ("ktimes/threshold", Query::ktimes(k).threshold(tau)),
        ("ktimes/topk", Query::ktimes(k).top_k(top)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn auto_is_bit_identical_to_every_explicit_strategy(
        (seed, n) in (0u64..10_000, 4usize..=8),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 2usize..=12,
        tau in 0.05f64..0.95,
        k in 1usize..=2,
        top in 1usize..=4,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, objects, 1);

        for threads in [1usize, 4] {
            let processor = QueryProcessor::with_config(
                &db,
                EngineConfig::default().with_num_threads(threads).with_batch_size(3),
            );
            for (what, builder) in spec_builders(k, tau, top) {
                let auto = builder.clone().window(window.clone()).build().unwrap();
                let plan = processor.explain(&auto).unwrap();
                prop_assert!(
                    matches!(plan.strategy, Strategy::ObjectBased | Strategy::QueryBased),
                    "{}: Auto must resolve to an exact strategy, got {:?}", what, plan.strategy
                );

                let auto_answer = processor.execute(&auto).unwrap();
                // Bit-identity against the strategy the planner chose.
                let chosen = builder.clone()
                    .window(window.clone())
                    .strategy(plan.strategy)
                    .build()
                    .unwrap();
                prop_assert_eq!(bit_diff(&auto_answer, &processor.execute(&chosen).unwrap()), Ok(()),
                    "{} (auto vs {:?}, threads={})", what, plan.strategy, threads);

                // The two exact strategies tell the same story.
                let ob = processor.execute(
                    &builder.clone().window(window.clone())
                        .strategy(Strategy::ObjectBased).build().unwrap()).unwrap();
                let qb = processor.execute(
                    &builder.clone().window(window.clone())
                        .strategy(Strategy::QueryBased).build().unwrap()).unwrap();
                assert_strategies_agree(&ob, &qb, &format!("{what} (threads={threads})"));

                // And the pooled run reproduces the sequential bits.
                if threads > 1 {
                    let sequential = QueryProcessor::new(&db);
                    prop_assert_eq!(
                        bit_diff(
                            &processor.execute(&chosen).unwrap(),
                            &sequential.execute(&chosen).unwrap(),
                        ),
                        Ok(()),
                        "{} (pooled vs sequential)", what
                    );
                }
            }
        }
    }

    #[test]
    fn submit_then_wait_equals_execute(
        (seed, n) in (0u64..10_000, 4usize..=8),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 2usize..=10,
        tau in 0.05f64..0.95,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, objects, 1);
        for threads in [1usize, 4] {
            let processor = QueryProcessor::with_config(
                &db,
                EngineConfig::default().with_num_threads(threads),
            );
            let specs: Vec<QuerySpec> = vec![
                Query::exists().window(window.clone()).build().unwrap(),
                Query::forall().window(window.clone()).build().unwrap(),
                Query::ktimes(1).window(window.clone()).build().unwrap(),
                Query::exists().window(window.clone()).threshold(tau).build().unwrap(),
                Query::exists().window(window.clone()).top_k(3).build().unwrap(),
            ];
            // Submit the whole burst first, then await: the answers must be
            // the synchronous ones, bit for bit.
            let tickets: Vec<_> = specs.iter().map(|s| processor.submit(s).unwrap()).collect();
            for (spec, ticket) in specs.iter().zip(tickets) {
                let sync = processor.execute(spec).unwrap();
                let awaited = ticket.wait().unwrap();
                prop_assert_eq!(bit_diff(&awaited, &sync), Ok(()),
                    "submit vs execute (threads={})", threads);
            }
        }
    }

    #[test]
    fn execute_matches_reference_drivers(
        (seed, n) in (0u64..10_000, 4usize..=8),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 2usize..=10,
        tau in 0.05f64..0.95,
        top in 1usize..=4,
    ) {
        use Strategy::{ObjectBased as Ob, QueryBased as Qb};
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, objects, 1);
        let config = EngineConfig::default();
        // The reference configuration's answers (batch 1, one thread, no
        // prefilter); thresholds and rankings are read off its ∃
        // probabilities.
        let at_reference = |builder: QueryBuilder| reference(&db, builder.window(window.clone())).unwrap();
        let probabilities = |answer: QueryAnswer| answer.probabilities().unwrap().to_vec();
        let exists_ob = probabilities(at_reference(Query::exists().strategy(Ob)));
        let exists_qb = probabilities(at_reference(Query::exists().strategy(Qb)));
        let forall_ob = at_reference(Query::forall().strategy(Ob));
        let forall_qb = at_reference(Query::forall().strategy(Qb));
        let ktimes_ob = at_reference(Query::ktimes(1).strategy(Ob));
        let ktimes_qb = at_reference(Query::ktimes(1).strategy(Qb));
        let accepted = |reference: &[ObjectProbability]| {
            QueryAnswer::ObjectIds(
                reference.iter().filter(|r| r.probability >= tau).map(|r| r.object_id).collect(),
            )
        };
        let exact = [
            ("exists/ob", Query::exists().strategy(Ob), QueryAnswer::Probabilities(exists_ob.clone())),
            ("exists/qb", Query::exists().strategy(Qb), QueryAnswer::Probabilities(exists_qb.clone())),
            ("forall/ob", Query::forall().strategy(Ob), forall_ob),
            ("forall/qb", Query::forall().strategy(Qb), forall_qb),
            ("ktimes/ob", Query::ktimes(1).strategy(Ob), ktimes_ob),
            ("ktimes/qb", Query::ktimes(1).strategy(Qb), ktimes_qb),
            ("threshold/ob", Query::exists().threshold(tau).strategy(Ob), accepted(&exists_ob)),
            ("threshold/qb", Query::exists().threshold(tau).strategy(Qb), accepted(&exists_qb)),
        ];

        for threads in [1usize, 4] {
            let processor =
                QueryProcessor::with_config(&db, config.with_num_threads(threads));
            let run = |builder: QueryBuilder| {
                processor.execute(&builder.window(window.clone()).build().unwrap()).unwrap()
            };
            for (what, builder, reference) in &exact {
                prop_assert_eq!(bit_diff(&run(builder.clone()), reference), Ok(()),
                    "{} (threads={})", what, threads);
            }
            for (strategy, reference) in [(Ob, &exists_ob), (Qb, &exists_qb)] {
                let ranked = run(Query::exists().top_k(top).strategy(strategy));
                prop_assert_eq!(ranking_diff(&ranked, reference, top), Ok(()),
                    "top-k {:?} (threads={})", strategy, threads);
            }
        }
    }

    #[test]
    fn subset_specs_filter_the_full_answer(
        (seed, n) in (0u64..10_000, 4usize..=8),
        mask_seed in 0u64..1_000,
        t_start in 1u32..=3,
        t_len in 0u32..=2,
        objects in 4usize..=12,
    ) {
        let window = match random_window(n, mask_seed, t_start, t_len) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let db = random_db(seed, n, objects, 1);
        let processor = QueryProcessor::new(&db);
        // Every third object id.
        let subset: Vec<u64> = (0..objects as u64).step_by(3).collect();

        for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
            let full = processor.execute(
                &Query::exists().window(window.clone()).strategy(strategy).build().unwrap(),
            ).unwrap();
            let restricted = processor.execute(
                &Query::exists().window(window.clone()).strategy(strategy)
                    .objects(subset.iter().copied()).build().unwrap(),
            ).unwrap();
            let full = full.probabilities().unwrap();
            let restricted = restricted.probabilities().unwrap();
            prop_assert_eq!(restricted.len(), subset.len());
            for r in restricted {
                let original = full.iter().find(|p| p.object_id == r.object_id).unwrap();
                prop_assert_eq!(r.probability.to_bits(), original.probability.to_bits(),
                    "subset answers must equal the full run's entries");
            }
        }
        // Unknown ids are an error, not a silent skip — the smallest one,
        // whether the store bisects its ascending ids or (filled in
        // reverse) falls back to walking them; and the walk resolves a
        // subset to the same per-id answers.
        let mut reversed = TrajectoryDatabase::new((*db.models()[0]).clone());
        reversed.insert_all(db.objects().iter().rev().cloned()).unwrap();
        let bad = Query::exists().window(window.clone())
            .objects([999_999u64, 0, 500_000]).build().unwrap();
        for store in [&db, &reversed] {
            prop_assert_eq!(
                QueryProcessor::new(store).execute(&bad),
                Err(QueryError::UnknownObject { id: 500_000 })
            );
        }
        let spec = Query::exists().window(window).objects(subset.iter().copied()).build().unwrap();
        let by_id = |answer: QueryAnswer| {
            let mut probs = answer.probabilities().unwrap().to_vec();
            probs.sort_by_key(|p| p.object_id);
            probs.iter().map(|p| (p.object_id, p.probability.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(
            by_id(QueryProcessor::new(&reversed).execute(&spec).unwrap()),
            by_id(processor.execute(&spec).unwrap())
        );
    }
}

#[test]
fn planner_prefers_ob_for_single_objects_and_qb_once_cached() {
    // One object: a single forward pass is cheaper than a backward sweep
    // plus a dot product, so Auto plans object-based.
    let db = random_db(7, 20, 1, 0);
    let window = QueryWindow::from_states(20, [2usize, 3, 4], TimeSet::interval(3, 5)).unwrap();
    let processor = QueryProcessor::new(&db);
    let spec = Query::exists().window(window.clone()).build().unwrap();
    let plan = processor.explain(&spec).unwrap();
    assert_eq!(plan.strategy, Strategy::ObjectBased, "{plan}");
    assert_eq!(plan.num_objects, 1);
    assert_eq!(plan.cached_fields, 0);
    assert!(plan.object_based.total() <= plan.query_based.total());

    // Serve the window query-based once: the field is now cache-resident,
    // the backward sweep costs nothing, and Auto flips to query-based.
    let forced =
        Query::exists().window(window.clone()).strategy(Strategy::QueryBased).build().unwrap();
    processor.execute(&forced).unwrap();
    let plan = processor.explain(&spec).unwrap();
    assert_eq!(plan.strategy, Strategy::QueryBased, "{plan}");
    assert_eq!(plan.cached_fields, 1);
    assert_eq!(plan.query_based.step_ops, 0.0, "cache-resident field sweeps nothing");

    // Many objects: the amortized backward sweep wins outright.
    let big = random_db(11, 20, 64, 0);
    let processor = QueryProcessor::new(&big);
    let plan = processor.explain(&Query::exists().window(window).build().unwrap()).unwrap();
    assert_eq!(plan.strategy, Strategy::QueryBased, "{plan}");
    assert_eq!(plan.num_objects, 64);
}

#[test]
fn ktimes_cache_serves_repeated_windows() {
    let db = random_db(13, 15, 8, 1);
    let window = QueryWindow::from_states(15, [1usize, 2, 6], TimeSet::interval(2, 4)).unwrap();
    let processor = QueryProcessor::new(&db);
    let spec = Query::ktimes(1).window(window).strategy(Strategy::QueryBased).build().unwrap();

    let mut first = EvalStats::new();
    let cold = processor.execute_with_stats(&spec, &mut first).unwrap();
    assert_eq!(first.cache_misses, 1, "first PSTkQ window sweeps and caches");
    assert!(first.backward_steps > 0);

    let mut second = EvalStats::new();
    let warm = processor.execute_with_stats(&spec, &mut second).unwrap();
    assert_eq!(second.cache_hits, 1, "repeated PSTkQ window hits the level-field cache");
    assert_eq!(second.backward_steps, 0, "a hit pays no level sweep");
    assert_bit_eq(&cold, &warm, "cached PSTkQ answer");
}

/// A dashboard-style workload — probabilities, top-k and threshold over one
/// window, the same three over a slid window, then the first window again —
/// sweeps each distinct `(model, window)` once: nine queries, two misses,
/// seven hits, bit-identical to nine cold executions.
#[test]
fn overlapping_window_dashboard_sweeps_each_window_once() {
    let db = random_db(29, 15, 8, 1);
    let base = QueryWindow::from_states(15, [1usize, 2, 6], TimeSet::interval(2, 4)).unwrap();
    let slid = QueryWindow::new(base.states().clone(), TimeSet::interval(3, 5)).unwrap();
    let processor = QueryProcessor::new(&db);
    let (mut cached, mut uncached) = (EvalStats::new(), EvalStats::new());
    for window in [&base, &slid, &base] {
        let exists = Query::exists().window(window.clone()).strategy(Strategy::QueryBased);
        for builder in [exists.clone(), exists.clone().top_k(3), exists.threshold(0.3)] {
            let spec = builder.build().unwrap();
            let warm = processor.execute_with_stats(&spec, &mut cached).unwrap();
            let cold = QueryProcessor::new(&db).execute_with_stats(&spec, &mut uncached).unwrap();
            assert_bit_eq(&warm, &cold, "shared cache vs cold processor");
        }
    }
    assert_eq!((cached.cache_misses, cached.cache_hits), (2, 7));
    assert_eq!((uncached.cache_misses, uncached.cache_hits), (9, 0));
    assert!(cached.backward_steps < uncached.backward_steps);
}

#[test]
fn submitted_queries_run_on_a_database_snapshot() {
    let mut db = random_db(19, 10, 6, 0);
    let window = QueryWindow::from_states(10, [1usize, 2], TimeSet::interval(2, 4)).unwrap();
    let processor = QueryProcessor::with_config(&db, EngineConfig::default().with_num_threads(2));
    let spec = Query::exists().window(window).build().unwrap();
    let ticket = processor.submit(&spec).unwrap();
    let answer = ticket.wait().unwrap();
    assert_eq!(answer.len(), 6, "the submission snapshotted six objects");
    drop(processor);
    // The caller's handle stays mutable the whole time — snapshots detach.
    let chain_states = db.num_states();
    db.insert(UncertainObject::with_single_observation(
        99,
        Observation::exact(0, chain_states, 0).unwrap(),
    ))
    .unwrap();
    assert_eq!(db.len(), 7);
}

#[test]
fn tickets_surface_errors_and_readiness() {
    let db = random_db(23, 10, 3, 0);
    let processor = QueryProcessor::new(&db);
    // A window whose start precedes no anchor is fine; build one that
    // fails validation instead: anchor after the window.
    let mut late_db = random_db(23, 10, 0, 0);
    late_db
        .insert(UncertainObject::with_single_observation(0, Observation::exact(50, 10, 0).unwrap()))
        .unwrap();
    let late = QueryProcessor::new(&late_db);
    let window = QueryWindow::from_states(10, [1usize], TimeSet::at(3)).unwrap();
    let spec = Query::exists().window(window.clone()).build().unwrap();
    let ticket = late.submit(&spec).unwrap();
    assert!(ticket.wait().is_err(), "validation errors surface through the ticket");

    let ticket = processor.submit(&spec).unwrap();
    let answer = ticket.wait().unwrap();
    assert_eq!(answer.len(), 3);
    let ticket = processor.submit(&spec).unwrap();
    while !ticket.is_done() {
        std::thread::yield_now();
    }
    assert!(ticket.wait().is_ok());
}
