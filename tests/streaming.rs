//! Streaming-ingest tests: the incremental-≡-batch equivalence harness.
//!
//! The pinned contract: a [`ust_core::Subscription`] registered with
//! `watch` and fed through `QueryProcessor::ingest` answers **bit-for-bit**
//! what a from-scratch `execute` of the same spec returns on a fresh
//! database holding the same applied feed prefix — across worker counts,
//! all three prefilter modes, every predicate/decorator shape, and
//! including *errors*: when an arrival pushes an object's anchor past the
//! window start, both sides must report the same `QueryError` with the
//! same payload (the first violating object in database order).
//!
//! The harness replays deterministic feeds from
//! [`ust_data::generate_streaming_feed`] — hot-set-skewed, mostly
//! monotone, with a stale out-of-order fraction the latest-fix policy
//! must ignore on both sides.
//!
//! Alongside equivalence, the suite pins the *economics*: ingest never
//! flushes the backward-field caches (their keys are
//! observation-independent), so a warmed query-based subscription refreshes
//! at zero propagation steps per arrival while the from-scratch side pays
//! its full sweep every time — the invalidation is scoped to the one
//! maintained answer entry the arrival touched.

use proptest::prelude::*;

use ust::prelude::*;
use ust_core::Strategy;
use ust_data::streaming_feed::{generate_streaming_feed, FeedConfig, StreamingFeed};
use ust_data::IndexWorkloadConfig;
use ust_space::TimeSet;

/// A compact population so a proptest case replays in milliseconds.
fn feed(seed: u64, num_events: usize) -> StreamingFeed {
    generate_streaming_feed(&FeedConfig {
        workload: IndexWorkloadConfig {
            num_objects: 16,
            num_states: 48,
            object_spread: 3,
            state_spread: 3,
            max_step: 6,
            seed: seed ^ 0x0B5E,
            ..IndexWorkloadConfig::small()
        },
        num_events,
        hot_objects: 4,
        stale_fraction: 0.2,
        max_time_step: 2,
        seed,
    })
}

/// The query shapes the harness maintains: every predicate, every
/// decorator, plus an object-scoped subset.
fn spec(shape: usize, n: usize, t_start: u32, t_len: u32) -> QuerySpec {
    let window =
        QueryWindow::from_states(n, 4usize..14, TimeSet::interval(t_start, t_start + t_len))
            .unwrap();
    match shape {
        0 => Query::exists().window(window).build(),
        1 => Query::exists().window(window).threshold(0.3).build(),
        2 => Query::exists().window(window).top_k(3).build(),
        3 => Query::forall().window(window).build(),
        4 => Query::ktimes(2).window(window).build(),
        _ => Query::exists().window(window).objects([1u64, 3, 6]).build(),
    }
    .unwrap()
}

/// A canonical, bit-exact rendering of an outcome: probabilities render
/// as raw IEEE bits (so `0.0` vs `-0.0` or any last-ulp drift would
/// differ), errors as their debug form (so a mismatched payload — e.g. a
/// different first-violating object — would differ).
fn canon(result: &ust_core::Result<QueryAnswer>) -> String {
    let answer = match result {
        Err(e) => return format!("err:{e:?}"),
        Ok(a) => a,
    };
    if let Some(ps) = answer.probabilities() {
        let bits: Vec<(u64, u64)> =
            ps.iter().map(|p| (p.object_id, p.probability.to_bits())).collect();
        format!("probs:{bits:?}")
    } else if let Some(ids) = answer.ids() {
        format!("ids:{ids:?}")
    } else if let Some(ds) = answer.distributions() {
        let bits: Vec<(u64, Vec<u64>)> = ds
            .iter()
            .map(|d| (d.object_id, d.probabilities.iter().map(|p| p.to_bits()).collect()))
            .collect();
        format!("kdist:{bits:?}")
    } else if let Some(rs) = answer.ranked() {
        let bits: Vec<(u64, u64)> =
            rs.iter().map(|r| (r.object_id, r.probability.to_bits())).collect();
        format!("ranked:{bits:?}")
    } else {
        format!("other:{answer:?}")
    }
}

/// The batch side of the equivalence: a fresh processor over the replayed
/// prefix, executing the subscription's *pinned* spec under the same
/// engine configuration.
fn batch(feed: &StreamingFeed, prefix: usize, spec: &QuerySpec, config: &EngineConfig) -> String {
    let db = feed.replay_prefix(prefix);
    canon(&QueryProcessor::with_config(&db, *config).execute(spec))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole property. For every feed prefix — not just the final
    /// state — the maintained answer equals the from-scratch execution,
    /// through value answers, decorator answers, and error answers alike.
    #[test]
    fn subscription_equals_batch_execution_on_every_prefix(
        seed in 0u64..5_000,
        shape in 0usize..6,
        t_start in 2u32..7,
        t_len in 0u32..3,
        threaded in 0u8..2,
        mode_idx in 0usize..3,
    ) {
        let feed = feed(seed, 10);
        let threads = if threaded == 0 { 1 } else { 4 };
        let mode = [PrefilterMode::Auto, PrefilterMode::On, PrefilterMode::Off][mode_idx];
        let config = EngineConfig::default().with_num_threads(threads).with_prefilter(mode);
        let spec = spec(shape, feed.config.workload.num_states, t_start, t_len);
        let processor = QueryProcessor::with_config(&feed.db, config);
        let sub = processor.watch(&spec).unwrap();
        prop_assert!(sub.spec().strategy() != Strategy::Auto, "Auto resolves at registration");

        prop_assert_eq!(canon(&sub.answer()), batch(&feed, 0, sub.spec(), &config));
        for (i, event) in feed.events.iter().enumerate() {
            processor.ingest(event.object_id, event.observation.clone()).unwrap();
            prop_assert_eq!(
                canon(&sub.answer()),
                batch(&feed, i + 1, sub.spec(), &config),
                "prefix {} of seed {} diverged (shape {}, {:?})", i + 1, seed, shape, mode
            );
        }
    }

    /// Explicit strategies hold the same equivalence.
    #[test]
    fn explicit_strategies_equal_batch_execution(
        seed in 0u64..2_000,
        t_start in 4u32..7,
        strategy_idx in 0usize..2,
    ) {
        let strategy = [Strategy::ObjectBased, Strategy::QueryBased][strategy_idx];
        let feed = feed(seed, 6);
        let n = feed.config.workload.num_states;
        let window =
            QueryWindow::from_states(n, 4usize..14, TimeSet::interval(t_start, t_start + 2))
                .unwrap();
        let spec = Query::exists().window(window).strategy(strategy).build().unwrap();
        let config = EngineConfig::default();
        let processor = QueryProcessor::with_config(&feed.db, config);
        let sub = processor.watch(&spec).unwrap();
        prop_assert_eq!(sub.spec().strategy(), strategy, "explicit strategies stay pinned");
        for (i, event) in feed.events.iter().enumerate() {
            processor.ingest(event.object_id, event.observation.clone()).unwrap();
            prop_assert_eq!(
                canon(&sub.answer()),
                batch(&feed, i + 1, sub.spec(), &config),
                "prefix {} of seed {} diverged under {:?}", i + 1, seed, strategy
            );
        }
    }
}

/// Suffix-scoped invalidation, part 1: the cache side. Ingest never
/// invalidates backward-field cache entries — a warmed query-based
/// subscription's refreshes run at zero propagation steps, while the
/// from-scratch side pays a fresh backward sweep for every prefix.
#[test]
fn ingest_preserves_field_caches_and_invalidates_one_entry_per_arrival() {
    let feed = feed(0xCAFE, 16);
    let n = feed.config.workload.num_states;
    let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(20, 22)).unwrap();
    let spec = Query::exists().window(window).strategy(Strategy::QueryBased).build().unwrap();
    let processor = QueryProcessor::new(&feed.db);
    let sub = processor.watch(&spec).unwrap();

    // The dashboard this replaces: a cold re-execution per applied arrival.
    let mut applied = 0u64;
    let mut cold = EvalStats::new();
    for event in &feed.events {
        if processor.ingest(event.object_id, event.observation.clone()).unwrap()
            == IngestOutcome::Applied
        {
            applied += 1;
            let fresh = QueryProcessor::new(&processor.snapshot());
            fresh.execute_with_stats(sub.spec(), &mut cold).unwrap();
        }
    }
    assert!(applied >= 10, "the feed applies most events ({applied}/16)");
    assert_eq!(sub.notifications(), applied, "stale arrivals never notify");

    let stream = processor.metrics().stream(sub.id()).unwrap().clone();
    assert_eq!(
        stream.reevaluations, applied,
        "exactly one maintained entry re-evaluated per applied arrival — never a cache flush"
    );
    assert_eq!(stream.incremental_steps, 0, "warm refreshes are pure cache hits");
    assert!(stream.recompute_steps > 0, "the registration sweep did the backward work once");
    assert!(
        cold.backward_steps >= 10 * (stream.recompute_steps + stream.incremental_steps),
        "streaming must be ≥ 10× cheaper in backward steps: {} cold vs {} registration",
        cold.backward_steps,
        stream.recompute_steps
    );

    // The from-scratch side pays backward steps for the same answer.
    let fresh = QueryProcessor::new(&feed.replay_prefix(feed.events.len()));
    let mut stats = EvalStats::new();
    let batch_answer = fresh.execute_with_stats(sub.spec(), &mut stats).unwrap();
    assert!(stats.backward_steps > 0, "a cold processor sweeps the field");
    assert_eq!(sub.answer().unwrap(), batch_answer);
}

/// Suffix-scoped invalidation, part 2: the shared-cache reuse is visible
/// in `EvalStats` deltas. After the subscription's warm sweep, a
/// *submitted* query over the same window on the same processor is served
/// entirely from cache (hits, no misses, no backward steps); a fresh
/// processor pays misses for the identical spec.
#[test]
fn warm_subscription_caches_serve_subsequent_queries() {
    let feed = feed(0xBEEF, 4);
    let n = feed.config.workload.num_states;
    let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(20, 23)).unwrap();
    let spec = Query::exists().window(window).strategy(Strategy::QueryBased).build().unwrap();
    let processor = QueryProcessor::new(&feed.db);
    let _sub = processor.watch(&spec).unwrap();

    let mut warm_stats = EvalStats::new();
    let warm_answer = processor.execute_with_stats(&spec, &mut warm_stats).unwrap();
    assert_eq!(warm_stats.backward_steps, 0, "the subscription pre-swept this window");
    assert_eq!(warm_stats.cache_misses, 0);
    assert!(warm_stats.cache_hits > 0);

    let mut cold_stats = EvalStats::new();
    let cold_answer =
        QueryProcessor::new(&feed.db).execute_with_stats(&spec, &mut cold_stats).unwrap();
    assert!(cold_stats.cache_misses > 0, "a fresh processor misses and sweeps");
    assert!(cold_stats.backward_steps > 0);
    assert_eq!(warm_answer, cold_answer, "cache reuse never changes bits");
}

/// A repeated id: `insert` accepts a second holder of an id, and a refresh
/// probes every holder at once, in database order. Each refreshed entry
/// must land on its own holder — in a whole-database answer and in a
/// subset one, after an ingest and after a third holder is inserted — so
/// the subscription keeps reading what a fresh execution returns.
#[test]
fn a_refresh_on_a_repeated_id_updates_each_holder() {
    let chain = ust_oracle::testutil::paper_chain();
    let holder = |t, state| {
        UncertainObject::with_single_observation(5, Observation::exact(t, 3, state).unwrap())
    };
    let mut db = TrajectoryDatabase::new(chain);
    db.insert_all([holder(0, 0), holder(0, 2)]).unwrap();
    let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
    let whole = Query::exists().window(window.clone()).build().unwrap();
    let subset = Query::exists().window(window).objects([5u64]).build().unwrap();
    let processor = QueryProcessor::new(&db);
    let subs = [processor.watch(&whole).unwrap(), processor.watch(&subset).unwrap()];
    let probabilities = |answer: QueryAnswer| -> Vec<f64> {
        answer.probabilities().unwrap().iter().map(|p| p.probability).collect()
    };

    // The first holder moves to state 1 at t = 1; the second keeps its fix.
    processor.ingest(5, Observation::exact(1, 3, 1).unwrap()).unwrap();
    for sub in &subs {
        let fresh = processor.execute(sub.spec());
        assert_eq!(canon(&sub.answer()), canon(&fresh));
        let read = probabilities(sub.answer().unwrap());
        assert!((read[0] - 0.92).abs() < 1e-12 && (read[1] - 0.928).abs() < 1e-12, "{read:?}");
    }

    // A third holder appends after the other two.
    processor.insert(holder(1, 0)).unwrap();
    for sub in &subs {
        assert_eq!(canon(&sub.answer()), canon(&processor.execute(sub.spec())));
        assert_eq!(sub.answer().unwrap().len(), 3);
    }
}

/// Errors are maintained state too: once an arrival pushes an anchor past
/// the window start, the subscription reports exactly the batch error —
/// same variant, same first-violating-object payload — and keeps matching
/// on later prefixes.
#[test]
fn error_answers_match_batch_bit_for_bit() {
    let feed = feed(0xE11, 14);
    let n = feed.config.workload.num_states;
    // A window starting at 1: the first applied fix at time ≥ 2 makes its
    // object unanswerable and the whole query errors.
    let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(1, 3)).unwrap();
    let spec = Query::exists().window(window).build().unwrap();
    let config = EngineConfig::default();
    let processor = QueryProcessor::with_config(&feed.db, config);
    let sub = processor.watch(&spec).unwrap();
    assert!(sub.answer().is_ok(), "every object anchors at 0 before the feed");

    let mut saw_error = false;
    for (i, event) in feed.events.iter().enumerate() {
        processor.ingest(event.object_id, event.observation.clone()).unwrap();
        let expected = batch(&feed, i + 1, sub.spec(), &config);
        assert_eq!(canon(&sub.answer()), expected, "prefix {} diverged", i + 1);
        saw_error |= expected.starts_with("err:");
    }
    assert!(saw_error, "the feed reached the error regime");
    assert!(matches!(sub.answer(), Err(QueryError::WindowBeforeObservation { .. })));
}

/// A refresh is tallied by what ran: an arrival that lifts its object's
/// anchor past the window start fails the refresh's validation (or, pinned
/// object-based, its narrowed probe), and the full evaluation it falls
/// back to, which reports the error, is a full recompute — under either
/// pinned strategy.
#[test]
fn a_refresh_that_falls_back_to_a_full_evaluation_is_tallied_as_one() {
    let mut db = TrajectoryDatabase::new(ust_oracle::testutil::paper_chain());
    for id in 0..4u64 {
        let fix = Observation::exact(0, 3, id as usize % 3).unwrap();
        db.insert(UncertainObject::with_single_observation(id, fix)).unwrap();
    }
    let window = QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 4)).unwrap();
    for strategy in [Strategy::QueryBased, Strategy::ObjectBased] {
        let processor = QueryProcessor::new(&db);
        let spec = Query::exists().window(window.clone()).strategy(strategy).build().unwrap();
        let sub = processor.watch(&spec).unwrap();
        processor.ingest(1, Observation::exact(3, 3, 0).unwrap()).unwrap();
        let stream = processor.metrics().stream(sub.id()).unwrap().clone();
        let tally = (stream.notifications, stream.reevaluations, stream.full_recomputes);
        assert_eq!(tally, (1, 0, 2), "{strategy:?}: watch and the fallback are full recomputes");
        assert!(matches!(sub.answer(), Err(QueryError::WindowBeforeObservation { .. })));
    }
}

/// A τ-threshold subscription beside warm executions on which the
/// superlevel filter fires: the subscription maintains probabilities (its
/// probes never run the filter), the execution prunes by the cached field's
/// superlevel set — and across every arrival, including ones that re-anchor
/// objects at times the field has no snapshot of yet, both accept the same
/// ids.
#[test]
fn threshold_subscriptions_answer_like_superlevel_filtered_executions() {
    let mut fired = 0;
    for seed in [3u64, 0x5EED, 0xF17E] {
        let feed = feed(seed, 24);
        let n = feed.config.workload.num_states;
        let mut db = feed.db.clone();
        db.attach_space(std::sync::Arc::new(feed.space)).unwrap();
        let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(30, 32)).unwrap();
        let config = EngineConfig::default().with_prefilter(PrefilterMode::On);
        let processor = QueryProcessor::with_config(&db, config);
        for tau in [0.05, 0.3] {
            let spec = Query::exists()
                .window(window.clone())
                .strategy(Strategy::QueryBased)
                .threshold(tau)
                .build()
                .unwrap();
            let sub = processor.watch(&spec).unwrap();
            for (i, event) in feed.events.iter().enumerate() {
                processor.ingest(event.object_id, event.observation.clone()).unwrap();
                fired += processor.explain(&spec).unwrap().superlevel_pruned;
                let warm = processor.execute(&spec);
                assert_eq!(canon(&sub.answer()), canon(&warm), "seed {seed}, τ {tau}, arrival {i}");
            }
        }
    }
    assert!(fired > 0, "the warm executions never pruned by the superlevel set");
}

/// The canonical outcome of a from-scratch execution of `spec` on a fresh
/// processor over `processor`'s current database.
fn fresh(processor: &QueryProcessor, spec: &QuerySpec) -> String {
    canon(&QueryProcessor::new(&processor.snapshot()).execute(spec))
}

/// A query-based subscription holds one backward field per model in scope
/// at `watch`. A model with no object then has its field fetched on the
/// first arrival of one of its objects — an `insert` — and kept: the fetch
/// is the only propagation work the refreshes do, and every answer equals a
/// fresh execution, for each predicate.
#[test]
fn a_model_without_objects_at_watch_fetches_its_field_on_its_first_arrival() {
    const N: usize = 12;
    let chains = vec![
        ust_oracle::testutil::random_chain(0xA1, N, 3),
        ust_oracle::testutil::random_chain(0xB2, N, 3),
    ];
    let fix = |t, state| Observation::exact(t, N, state).unwrap();
    let mut db = TrajectoryDatabase::with_models(chains).unwrap();
    for id in 0..5u64 {
        db.insert(UncertainObject::with_single_observation(id, fix(0, id as usize + 2))).unwrap();
    }
    let window = QueryWindow::from_states(N, 1usize..5, TimeSet::interval(3, 5)).unwrap();
    for query in [Query::exists(), Query::forall(), Query::ktimes(1)] {
        let spec = query.window(window.clone()).strategy(Strategy::QueryBased).build().unwrap();
        let processor = QueryProcessor::new(&db);
        let sub = processor.watch(&spec).unwrap();
        let steps = |processor: &QueryProcessor| {
            processor.metrics().stream(sub.id()).unwrap().incremental_steps
        };
        assert_eq!(canon(&sub.answer()), fresh(&processor, &spec));

        let newcomer = UncertainObject::with_single_observation(9, fix(1, 7)).with_model(1);
        processor.insert(newcomer).unwrap();
        assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{spec:?}: the insert");
        let fetched = steps(&processor);
        assert!(fetched > 0, "{spec:?}: model 1's field is swept on its first arrival");

        processor.ingest(9, fix(2, 3)).unwrap();
        processor.ingest(4, fix(1, 0)).unwrap();
        assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{spec:?}: the ingests");
        assert_eq!(steps(&processor), fetched, "{spec:?}: the fetched field is kept");
        assert_eq!(sub.notifications(), 3);
    }
}

/// A held field outlives its cache entry: under a one-entry cache an
/// unrelated query-based read between arrivals evicts the subscription's
/// field, and every refresh still answers from the held field — bit for
/// bit a fresh execution, at zero propagation steps.
#[test]
fn held_fields_outlive_their_cache_entries() {
    let feed = feed(0x5EAF, 12);
    let n = feed.config.workload.num_states;
    let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(20, 22)).unwrap();
    let spec = Query::exists().window(window).strategy(Strategy::QueryBased).build().unwrap();
    let unrelated = Query::exists()
        .window(QueryWindow::from_states(n, 20usize..30, TimeSet::interval(9, 11)).unwrap())
        .strategy(Strategy::QueryBased)
        .build()
        .unwrap();
    let config = EngineConfig::default().with_cache_capacity(1);
    let processor = QueryProcessor::with_config(&feed.db, config);
    let sub = processor.watch(&spec).unwrap();
    for (i, event) in feed.events.iter().enumerate() {
        processor.execute(&unrelated).unwrap();
        processor.ingest(event.object_id, event.observation.clone()).unwrap();
        assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "arrival {i}");
    }
    let stream = processor.metrics().stream(sub.id()).unwrap().clone();
    assert!(stream.reevaluations >= 10, "the feed applies most events");
    assert_eq!(stream.incremental_steps, 0, "no refresh swept a field");
    // The subscription's field was indeed out of the cache.
    processor.execute(&unrelated).unwrap();
    let mut stats = EvalStats::new();
    processor.execute_with_stats(&spec, &mut stats).unwrap();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 0));
}

/// A whole-store answer is in database order after every commit, so an
/// arrival is written at its object's slot: the first object, the last
/// one, an inserted object (an append) and then that newcomer again.
#[test]
fn arrivals_for_the_first_and_the_last_object_write_their_slots() {
    let feed = feed(0xF125, 0);
    let n = feed.config.workload.num_states;
    let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(6, 8)).unwrap();
    let objects = feed.db.objects();
    let (first, last) = (objects[0].id(), objects[objects.len() - 1].id());
    let newcomer = objects.iter().map(UncertainObject::id).max().unwrap() + 1;
    for query in [Query::exists(), Query::ktimes(2)] {
        for strategy in [Strategy::QueryBased, Strategy::ObjectBased] {
            let spec = query.clone().window(window.clone()).strategy(strategy).build().unwrap();
            let processor = QueryProcessor::new(&feed.db);
            let sub = processor.watch(&spec).unwrap();
            let fix = |t, state| Observation::exact(t, n, state).unwrap();
            processor.ingest(first, fix(1, 5)).unwrap();
            assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{spec:?}: first");
            processor.ingest(last, fix(2, 9)).unwrap();
            assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{spec:?}: last");
            processor
                .insert(UncertainObject::with_single_observation(newcomer, fix(1, 6)))
                .unwrap();
            assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{spec:?}: insert");
            processor.ingest(newcomer, fix(3, 11)).unwrap();
            assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{spec:?}: newcomer");
            assert_eq!(sub.notifications(), 4);
            assert_eq!(sub.answer().unwrap().len(), objects.len() + 1);
        }
    }
}

/// A query-based refresh is a dot against the held field, not a served
/// execution: the processor's execution count does not move across
/// applied arrivals. An object-based refresh serves a probe narrowed to the
/// object: one execution per arrival.
#[test]
fn query_based_refreshes_are_not_served_executions() {
    let feed = feed(0xD07, 0);
    let n = feed.config.workload.num_states;
    let window = QueryWindow::from_states(n, 4usize..14, TimeSet::interval(6, 8)).unwrap();
    for (strategy, per_arrival) in [(Strategy::QueryBased, 0), (Strategy::ObjectBased, 1)] {
        let spec = Query::exists().window(window.clone()).strategy(strategy).build().unwrap();
        let processor = QueryProcessor::new(&feed.db);
        let sub = processor.watch(&spec).unwrap();
        let before = processor.metrics().executions;
        for (i, id) in [0u64, 3, 7, 3].into_iter().enumerate() {
            let fix = Observation::exact(1 + i as u32, n, 2 * i + 4).unwrap();
            assert_eq!(processor.ingest(id, fix).unwrap(), IngestOutcome::Applied);
        }
        assert_eq!(processor.metrics().executions - before, 4 * per_arrival, "{strategy:?}");
        assert_eq!((sub.notifications(), sub.is_stale()), (4, false));
        assert_eq!(canon(&sub.answer()), fresh(&processor, &spec), "{strategy:?}");
    }
}
