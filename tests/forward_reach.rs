//! Property tests of the reach-trimmed forward sweep.
//!
//! Every windowed object-based driver runs on `S_reach`: after each
//! processed timestamp the pipeline drops the mass the window can no longer
//! change the predicate for (`engine::reach::ReachSchedule`). Pinned
//! here, on banded **and** unstructured random chains, windows with
//! non-contiguous `T▫`, anchors at time 0 / inside `T▫` / at `t_end`, and
//! one- and two-model databases:
//!
//! * **the schedule grown from its frontiers is the from-scratch one** —
//!   every mask, under both rules, has the words, count and members of a
//!   test-local build that reads the predecessor rows of every target
//!   state, on chains whose masks nest and on a shift chain whose masks do
//!   not, with windows touching state 0 and state |S| − 1;
//! * **∃ did not move by a bit** — OB probabilities equal the oracle
//!   crate's *untrimmed* sweep (`PropagationVector::step` +
//!   `extract_masked`) to the bit, at every batch size; the threshold and
//!   top-k decorators equal filtering / sorting those probabilities.
//! * **∀ and k-times moved within rounding only** — OB answers sit within
//!   1e-12 of the query-based field (and of exhaustive enumeration on
//!   instances small enough to enumerate), every probability lies in
//!   `[0, 1]` exactly, visit-count distributions sum to 1, and a batch of
//!   one answers to the bit as the default batch does.
//! * **an object outside the reach costs nothing** — it is answered `0.0` /
//!   `[1, 0, …, 0]` with zero transitions, and is counted as evaluated, not
//!   pruned;
//! * **an object the reach decides at its anchor never becomes a row** —
//!   mixed into chunks with live objects, objects wholly outside `mask(t0)`
//!   answer the anchor formula to the bit (∃ `0.0`, ∀ `clamp(1 − Σ)`,
//!   k-times `[clamp(Σ), 0, …]`, with `Σ` the anchor's masses summed in
//!   ascending state order), a threshold accepts them at τ = 0 only and
//!   top-k prunes them; objects straddling the reach's edge or anchored at
//!   a query time run as before; every answer equals a chunk of one, and
//!   every counter is the live objects' plus one early termination and
//!   evaluation (or one prune) per decided object, as before the shortcut.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use common::{bit_diff, dists, oracle, probs};
use ust::prelude::*;
use ust_core::engine::reach::{ReachRule, ReachSchedule};
// Explicit import: both glob preludes export a `Strategy` (proptest's
// strategy trait vs. the planner override enum); the planner enum wins.
use ust_core::Strategy::{ObjectBased, QueryBased};
use ust_markov::StateMask;
use ust_oracle::testutil;
use ust_space::TimeSet;

/// How tightly the trimmed ∀ / k-times answers must track the references.
const ROUNDING: f64 = 1e-12;

/// A random instance: `models` chains over `n` states (banded like the
/// paper's generator, or unstructured), a window whose `T▫` is a random —
/// usually non-contiguous — subset of `t_start..=t_start + 5` (or the
/// single time `t_start`), and objects anchored alternately at time 0 and
/// at `t_start` (inside `T▫`; with a single query time, at `t_end`).
fn instance(
    seed: u64,
    n: usize,
    banded: bool,
    models: usize,
    objects: usize,
    t_start: u32,
    single_time: bool,
) -> (TrajectoryDatabase, QueryWindow) {
    let mut rng = testutil::rng(seed);
    let chains = (0..models)
        .map(|_| {
            let matrix = if banded {
                testutil::random_banded_stochastic(&mut rng, n, 3, 6)
            } else {
                testutil::random_stochastic(&mut rng, n, 3)
            };
            MarkovChain::from_csr(matrix).unwrap()
        })
        .collect();
    let mut db = TrajectoryDatabase::with_models(chains).unwrap();
    for i in 0..objects {
        let dist = testutil::random_distribution(&mut rng, n, 2);
        let anchor_time = if i % 3 == 2 { t_start } else { 0 };
        db.insert(
            UncertainObject::with_single_observation(
                i as u64,
                Observation::uncertain(anchor_time, dist).unwrap(),
            )
            .with_model(i % models),
        )
        .unwrap();
    }
    (db, random_window(&mut rng, n, t_start, single_time))
}

/// A contiguous run of states plus a few scattered ones, over a random
/// subset of `t_start..=t_start + 5` that always holds `t_start`.
fn random_window(rng: &mut StdRng, n: usize, t_start: u32, single_time: bool) -> QueryWindow {
    let width = rng.random_range(1..=(n / 4).max(1));
    let lo = rng.random_range(0..n - width);
    let mut states: Vec<usize> = (lo..lo + width).collect();
    for _ in 0..2 {
        states.push(rng.random_range(0..n));
    }
    states.sort_unstable();
    states.dedup();
    if states.len() == n {
        states.pop();
    }
    let mut times = vec![t_start];
    if !single_time {
        times.extend((t_start + 1..=t_start + 5).filter(|_| rng.random::<f64>() < 0.5));
    }
    QueryWindow::from_states(n, states, TimeSet::new(times)).unwrap()
}

/// PST∃Q by the oracle crate's textbook forward loop, with no reach
/// trimming: the reference the trimmed sweep must equal to the bit.
fn untrimmed_exists(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> f64 {
    let anchor = (object.anchor().time(), object.anchor().distribution());
    ust_oracle::textbook::untrimmed_exists(chain, anchor, window.states(), window.times()).unwrap()
}

/// The reach masks for `t0..=t_end` rebuilt from scratch at every step:
/// the predecessor rows of every state of each target are read. The
/// reference the frontier-grown [`ReachSchedule`] must equal mask for mask.
fn from_scratch_masks(
    chain: &MarkovChain,
    window: &QueryWindow,
    rule: ReachRule,
    t0: u32,
) -> Vec<StateMask> {
    let n = chain.num_states();
    let t_end = window.t_end();
    let t0 = t0.min(t_end);
    let transposed = chain.transposed();
    let mut masks = vec![match rule {
        ReachRule::Exists => StateMask::new(n),
        ReachRule::ForAll => StateMask::full(n),
    }];
    for t in (t0 + 1..=t_end).rev() {
        let ahead = masks.last().unwrap();
        let joins = window.time_in_window(t).then_some(rule);
        let sources = if ahead.count() == n && joins != Some(ReachRule::ForAll) {
            StateMask::full(n)
        } else {
            let mut sources = StateMask::new(n);
            let mut add_sources_of = |s: usize| {
                transposed.row(s).0.iter().for_each(|&p| sources.insert(p as usize).unwrap())
            };
            let inside = window.states();
            match joins {
                None => ahead.iter().for_each(&mut add_sources_of),
                Some(ReachRule::Exists) => {
                    ahead.iter().chain(inside.iter()).for_each(&mut add_sources_of)
                }
                Some(ReachRule::ForAll) => {
                    inside.iter().filter(|&s| ahead.contains(s)).for_each(&mut add_sources_of)
                }
            }
            sources
        };
        masks.push(sources);
    }
    masks.reverse();
    masks
}

/// The chains the schedule property runs on: random banded, banded with a
/// self-loop at every state, a deterministic shift `s → s + 1` (cyclic),
/// whose masks do not nest between query times, and unstructured random.
fn schedule_chain(rng: &mut StdRng, kind: u8, n: usize) -> MarkovChain {
    let matrix = match kind {
        0 => testutil::random_banded_stochastic(rng, n, 3, 6),
        1 => {
            let mut b = ust_markov::CooBuilder::new(n, n);
            for s in 0..n {
                let lo = s.saturating_sub(rng.random_range(0..=2usize));
                let hi = (s + rng.random_range(0..=2usize)).min(n - 1);
                let weight = 1.0 / (hi - lo + 1) as f64;
                (lo..=hi).try_for_each(|c| b.push(s, c, weight)).unwrap();
            }
            b.build()
        }
        2 => {
            let mut b = ust_markov::CooBuilder::new(n, n);
            (0..n).try_for_each(|s| b.push(s, (s + 1) % n, 1.0)).unwrap();
            b.build()
        }
        _ => testutil::random_stochastic(rng, n, 2),
    };
    MarkovChain::from_csr(matrix).unwrap()
}

fn execute(db: &TrajectoryDatabase, batch_size: usize, builder: &QueryBuilder) -> QueryAnswer {
    let config = EngineConfig::default().with_batch_size(batch_size);
    QueryProcessor::with_config(db, config).execute(&builder.clone().build().unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_frontier_grown_schedule_equals_the_from_scratch_one(
        (seed, n, kind) in (0u64..10_000, 2usize..=150, 0u8..=3),
        (t_start, single_time) in (0u32..=6, 0u8..=1),
        // From 0 to past the latest t_end (a start beyond it is clamped).
        t0 in 0u32..=13,
        // The window as drawn, or with state 0, or state |S| − 1, added:
        // masks whose extents start at the first word or end at the last.
        edge in 0u8..=2,
    ) {
        let mut rng = testutil::rng(seed);
        let chain = schedule_chain(&mut rng, kind, n);
        let window = random_window(&mut rng, n, t_start, single_time == 1);
        let window = match edge {
            0 => window,
            _ => {
                let extra = if edge == 1 { 0 } else { n - 1 };
                let states = window.states().iter().chain([extra]);
                QueryWindow::from_states(n, states, window.times().clone()).unwrap()
            }
        };
        for rule in [ReachRule::Exists, ReachRule::ForAll] {
            let schedule = ReachSchedule::build(&chain, &window, rule, t0).unwrap();
            let reference = from_scratch_masks(&chain, &window, rule, t0);
            let first = t0.min(window.t_end());
            prop_assert_eq!(reference.len() as u32, window.t_end() - first + 1);
            prop_assert!(schedule.mask_at(window.t_end() + 1).is_none());
            for (t, expected) in (first..).zip(&reference) {
                let mask = schedule.mask_at(t).unwrap();
                prop_assert_eq!((mask.words(), mask.count()), (expected.words(), expected.count()),
                    "{:?} mask at t = {} (chain kind {}, t0 = {})", rule, t, kind, t0);
                prop_assert_eq!(mask.to_indices(), expected.to_indices());
            }
        }
    }

    #[test]
    fn exists_and_its_decorators_equal_an_untrimmed_sweep_to_the_bit(
        (seed, n, banded) in (0u64..10_000, 12usize..=60, 0u8..=1),
        (models, objects) in (1usize..=2, 9usize..=24),
        (t_start, single_time) in (1u32..=4, 0u8..=1),
        tau in 0.02f64..0.9,
        k in 1usize..=6,
    ) {
        let (db, window) =
            instance(seed, n, banded == 1, models, objects, t_start, single_time == 1);
        let reference: Vec<ObjectProbability> = db
            .objects()
            .iter()
            .map(|o| ObjectProbability {
                object_id: o.id(),
                probability: untrimmed_exists(db.model_of(o), o, &window),
            })
            .collect();
        let exists = Query::exists().window(window.clone()).strategy(ObjectBased);

        let accepted: Vec<u64> = reference
            .iter()
            .filter(|r| r.probability >= tau)
            .map(|r| r.object_id)
            .collect();
        let mut ranked = reference.clone();
        ranked.sort_by(|a, b| {
            b.probability.total_cmp(&a.probability).then(a.object_id.cmp(&b.object_id))
        });
        ranked.truncate(k);
        let positive = ranked.iter().take_while(|r| r.probability > 0.0).count();

        let mut topk_at_one = None;
        for batch_size in [1usize, 7, 64] {
            let answer = execute(&db, batch_size, &exists);
            prop_assert_eq!(
                bit_diff(&answer, &QueryAnswer::Probabilities(reference.clone())), Ok(()),
                "∃ batch={}", batch_size);
            let ids = execute(&db, batch_size, &exists.clone().threshold(tau));
            prop_assert_eq!(ids.ids().unwrap(), &accepted[..], "threshold batch={}", batch_size);

            // The ranking may leave provably unreachable objects out of its
            // zero-probability tail (`Decorator::TopK`); everything ranked
            // above zero is exact, and the whole answer is the same at
            // every batch size.
            let topk = execute(&db, batch_size, &exists.clone().top_k(k));
            let got = topk.ranked().unwrap();
            prop_assert!(got.len() >= positive && got.len() <= ranked.len());
            for (g, want) in got.iter().zip(&ranked).take(positive) {
                prop_assert_eq!((g.object_id, g.probability.to_bits()),
                    (want.object_id, want.probability.to_bits()), "top-k batch={}", batch_size);
            }
            prop_assert!(got[positive..].iter().all(|g| g.probability == 0.0));
            let first = topk_at_one.get_or_insert_with(|| topk.clone());
            prop_assert_eq!(bit_diff(&topk, first), Ok(()), "top-k batch={} vs 1", batch_size);
        }
    }

    #[test]
    fn forall_and_ktimes_stay_within_rounding_of_the_backward_field(
        (seed, n, banded) in (0u64..10_000, 4usize..=48, 0u8..=1),
        (models, objects) in (1usize..=2, 4usize..=12),
        (t_start, single_time) in (1u32..=3, 0u8..=1),
    ) {
        let (db, window) =
            instance(seed, n, banded == 1, models, objects, t_start, single_time == 1);
        let processor = QueryProcessor::new(&db);
        let forall_spec = Query::forall().window(window.clone());
        let ktimes_spec = Query::ktimes(1).window(window.clone());
        let forall_ob = probs(&processor, forall_spec.clone().strategy(ObjectBased));
        let forall_qb = probs(&processor, forall_spec.clone().strategy(QueryBased));
        let ktimes_ob = dists(&processor, ktimes_spec.clone().strategy(ObjectBased));
        let ktimes_qb = dists(&processor, ktimes_spec.clone().strategy(QueryBased));
        // Invariant 7: a batch of one runs the same trimmed core.
        for (spec, answer) in [
            (forall_spec.strategy(ObjectBased), QueryAnswer::Probabilities(forall_ob.clone())),
            (ktimes_spec.strategy(ObjectBased), QueryAnswer::Distributions(ktimes_ob.clone())),
        ] {
            prop_assert_eq!(bit_diff(&execute(&db, 1, &spec), &answer), Ok(()));
        }
        // Enumeration walks every path: only instances it can finish.
        let enumerable = n <= 8;

        let unit = |p: &f64| (0.0..=1.0).contains(p);
        for (idx, object) in db.objects().iter().enumerate() {
            let chain = db.model_of(object);
            let (fa, kd) = (forall_ob[idx].probability, &ktimes_ob[idx].probabilities);
            prop_assert!(unit(&fa) && kd.iter().all(unit), "outside [0, 1]: ∀ {} k {:?}", fa, kd);
            prop_assert!((kd.iter().sum::<f64>() - 1.0).abs() <= ROUNDING,
                "k-distribution {:?} must sum to 1", kd);
            prop_assert!((fa - forall_qb[idx].probability).abs() <= ROUNDING,
                "∀ OB {} vs QB {}", fa, forall_qb[idx].probability);
            prop_assert_eq!(kd.len(), ktimes_qb[idx].probabilities.len());
            for (ob, qb) in kd.iter().zip(&ktimes_qb[idx].probabilities) {
                prop_assert!((ob - qb).abs() <= ROUNDING, "k OB {:?} vs QB {:?}",
                    kd, ktimes_qb[idx].probabilities);
            }
            if enumerable {
                let truth = oracle(chain, object, &window, 1 << 22).unwrap();
                prop_assert!((fa - truth.forall()).abs() <= ROUNDING,
                    "∀ OB {} vs exhaustive {}", fa, truth.forall());
                for (ob, expected) in kd.iter().zip(&truth.ktimes) {
                    prop_assert!((ob - expected).abs() <= ROUNDING,
                        "k OB {:?} vs exhaustive {:?}", kd, truth.ktimes);
                }
            }
        }
    }
}

#[test]
fn an_anchor_outside_the_reach_is_answered_without_a_transition() {
    // A conveyor belt moving right with an absorbing end: nothing right of
    // the window ever comes back to it, and nothing left of state 37 gets
    // there by t = 3.
    let n = 60;
    let mut b = ust_markov::CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, (i + 1).min(n - 1), 1.0).unwrap();
    }
    let chain = MarkovChain::from_csr(b.build()).unwrap();
    let window = QueryWindow::from_states(n, 40usize..=42, TimeSet::new([1, 3])).unwrap();
    for (state, reachable) in [(5usize, false), (50, false), (39, true)] {
        let mut db = TrajectoryDatabase::new(chain.clone());
        db.insert(UncertainObject::with_single_observation(
            7,
            Observation::exact(0, n, state).unwrap(),
        ))
        .unwrap();
        let processor = QueryProcessor::new(&db);
        let run = |builder: QueryBuilder| {
            let spec = builder.window(window.clone()).strategy(ObjectBased).build().unwrap();
            let mut stats = EvalStats::new();
            let answer = processor.execute_with_stats(&spec, &mut stats).unwrap();
            (answer, stats)
        };
        let (exists, exists_stats) = run(Query::exists());
        let (forall, forall_stats) = run(Query::forall());
        let (ktimes, ktimes_stats) = run(Query::ktimes(1));
        let (accepted, threshold_stats) = run(Query::exists().threshold(0.5));
        if reachable {
            // State 39 is inside the window at t = 1 (state 40) and t = 3
            // (state 42): every predicate holds with certainty.
            assert_eq!(exists.probabilities().unwrap()[0].probability, 1.0);
            assert_eq!(forall.probabilities().unwrap()[0].probability, 1.0);
            assert_eq!(ktimes.distributions().unwrap()[0].probabilities, vec![0.0, 0.0, 1.0]);
            assert_eq!(accepted.ids().unwrap(), &[7]);
            assert!(exists_stats.transitions > 0);
            continue;
        }
        assert_eq!(exists.probabilities().unwrap()[0].probability, 0.0, "state {state}");
        assert_eq!(forall.probabilities().unwrap()[0].probability, 0.0, "state {state}");
        assert_eq!(ktimes.distributions().unwrap()[0].probabilities, vec![1.0, 0.0, 0.0]);
        assert!(accepted.ids().unwrap().is_empty());
        for stats in [&exists_stats, &forall_stats, &ktimes_stats, &threshold_stats] {
            assert_eq!(stats.transitions, 0, "state {state}: decided at the anchor");
            assert_eq!(stats.entries_touched, 0);
            // Evaluated and retired early — not pruned, and no query-based
            // machinery was consulted.
            assert_eq!((stats.objects_evaluated, stats.early_terminations), (1, 1));
            assert_eq!((stats.objects_pruned, stats.candidates_pruned), (0, 0));
            assert_eq!(stats.cache_hits + stats.cache_misses + stats.backward_steps, 0);
        }
    }
}

/// The anchor mass an object decided at its anchor leaves behind: its
/// stored masses summed in ascending state order from `0.0`, as the trim
/// at the anchor sums what it drops.
fn anchor_mass(object: &UncertainObject) -> f64 {
    object.anchor().distribution().values().iter().fold(0.0, |sum, &p| sum + p)
}

#[test]
fn objects_decided_at_their_anchor_are_answered_from_it_in_a_mixed_chunk() {
    // A lazy conveyor moving right (stay, one or two states on) with an
    // absorbing end; window 40..=42 at t ∈ {4, 7}. The chunks mix live
    // objects with objects wholly outside the reach at a time that is not a
    // query time (left and right of the window, at t0 = 0 and t0 = 2), an
    // object straddling the reach's edge, and objects anchored at the query
    // time 4 — inside and outside the reach — which are seeded and hooked
    // as before.
    let n = 64;
    let mut b = ust_markov::CooBuilder::new(n, n);
    for i in 0..n {
        for (j, p) in [(i, 0.3), (i + 1, 0.5), (i + 2, 0.2)] {
            b.push(i, j.min(n - 1), p).unwrap();
        }
    }
    let chain = MarkovChain::from_csr(b.build()).unwrap();
    let window = QueryWindow::from_states(n, 40usize..=42, TimeSet::new([4, 7])).unwrap();
    let exists_reach = ReachSchedule::build(&chain, &window, ReachRule::Exists, 0).unwrap();
    let edge = exists_reach.mask_at(0).unwrap().iter().next().unwrap();
    assert!(edge >= 2, "the ∃ reach at t = 0 starts at state {edge}");
    let anchors: [(u32, std::ops::RangeInclusive<usize>); 10] = [
        (0, 36..=39),
        (0, 2..=6),
        (0, edge - 2..=edge + 1),
        (0, 50..=53),
        (4, 50..=52),
        (4, 40..=41),
        (2, 10..=12),
        (2, 38..=41),
        (4, 20..=22),
        (0, 12..=13),
    ];
    let mut db = TrajectoryDatabase::new(chain.clone());
    for (id, (t0, support)) in anchors.iter().enumerate() {
        let weights: Vec<f64> = support.clone().map(|s| 0.1 + (s % 7) as f64 / 10.0).collect();
        let total: f64 = weights.iter().sum();
        let dist =
            SparseVector::from_pairs(n, support.clone().zip(weights.iter().map(|w| w / total)))
                .unwrap();
        let anchor = Observation::uncertain(*t0, dist).unwrap();
        db.insert(UncertainObject::with_single_observation(id as u64, anchor)).unwrap();
    }
    // Decided at the anchor under `rule`: not a query time, before t_end,
    // and no anchor state in the reach.
    let decided_under = |rule: ReachRule| -> Vec<bool> {
        let schedule = ReachSchedule::build(&chain, &window, rule, 0).unwrap();
        let decided = |o: &UncertainObject| {
            let t0 = o.anchor().time();
            let mask = schedule.mask_at(t0).unwrap();
            t0 < window.t_end()
                && !window.time_in_window(t0)
                && o.anchor().distribution().indices().iter().all(|&s| !mask.contains(s as usize))
        };
        db.objects().iter().map(decided).collect()
    };
    let (exists_decided, forall_decided) =
        (decided_under(ReachRule::Exists), decided_under(ReachRule::ForAll));
    let count = |decided: &[bool]| decided.iter().filter(|d| **d).count();
    assert_eq!(count(&exists_decided), 4, "objects 1, 3, 6 and 9");
    assert!(count(&forall_decided) >= 4);
    // The same objects without the decided ones.
    let live_db = |decided: &[bool]| {
        let mut live = TrajectoryDatabase::new(chain.clone());
        for (object, _) in db.objects().iter().zip(decided).filter(|(_, d)| !**d) {
            live.insert(object.clone()).unwrap();
        }
        live
    };
    let run = |db: &TrajectoryDatabase, batch_size: usize, builder: QueryBuilder| {
        let config = EngineConfig::default().with_batch_size(batch_size).with_num_threads(1);
        let spec = builder.window(window.clone()).strategy(ObjectBased).build().unwrap();
        let mut stats = EvalStats::new();
        let answer =
            QueryProcessor::with_config(db, config).execute_with_stats(&spec, &mut stats).unwrap();
        (answer, stats)
    };
    let counters = |s: &EvalStats| {
        (s.transitions, s.entries_touched, s.early_terminations, s.objects_evaluated)
    };
    let specs: [(&str, QueryBuilder, &[bool]); 7] = [
        ("∃", Query::exists(), &exists_decided),
        ("∀", Query::forall(), &forall_decided),
        ("k-times", Query::ktimes(2), &exists_decided),
        ("τ = 0", Query::exists().threshold(0.0), &exists_decided),
        ("τ = 0.3", Query::exists().threshold(0.3), &exists_decided),
        ("top-2", Query::exists().top_k(2), &exists_decided),
        ("top-20", Query::exists().top_k(20), &exists_decided),
    ];
    for (what, builder, decided) in specs {
        let (answer, stats) = run(&db, 64, builder.clone());
        let (alone, _) = run(&db, 1, builder.clone());
        let (live, live_stats) = run(&live_db(decided), 64, builder.clone());
        // Whatever a chunk holds, each object answers as a chunk of one.
        assert_eq!(bit_diff(&answer, &alone), Ok(()), "{what}: a chunk against chunks of one");
        let d = count(decided) as u64;
        let (transitions, entries, early, evaluated) = counters(&live_stats);
        let pruned = live_stats.objects_pruned;
        if what.starts_with("top") {
            // Dismissed at the anchor: one prune each, no evaluation.
            assert_eq!(bit_diff(&answer, &live), Ok(()), "{what}: the ranking");
            assert_eq!(counters(&stats), counters(&live_stats), "{what}");
            assert_eq!(stats.objects_pruned, pruned + d, "{what}");
            continue;
        }
        // One evaluation and one early termination each (a threshold
        // decides them before t_end), no step, no prune.
        assert_eq!(counters(&stats), (transitions, entries, early + d, evaluated + d), "{what}");
        assert_eq!(stats.objects_pruned, pruned, "{what}");
        let objects = db.objects();
        match (&answer, &live) {
            (QueryAnswer::Probabilities(all), QueryAnswer::Probabilities(kept)) => {
                if what == "∃" {
                    assert_eq!(all[5].probability, 1.0, "object 5 is hooked at its anchor");
                }
                let mut kept = kept.iter();
                for ((row, object), decided) in all.iter().zip(objects).zip(decided) {
                    let bits = row.probability.to_bits();
                    if !*decided {
                        assert_eq!(bits, kept.next().unwrap().probability.to_bits(), "{what}");
                        continue;
                    }
                    let expected = if what == "∀" {
                        (1.0 - anchor_mass(object)).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    assert_eq!(bits, expected.to_bits(), "{what}: object {}", object.id());
                }
            }
            (QueryAnswer::Distributions(all), QueryAnswer::Distributions(kept)) => {
                let mut kept = kept.iter();
                for ((row, object), decided) in all.iter().zip(objects).zip(decided) {
                    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    if !*decided {
                        assert_eq!(
                            bits(&row.probabilities),
                            bits(&kept.next().unwrap().probabilities)
                        );
                        continue;
                    }
                    let expected = [anchor_mass(object).clamp(0.0, 1.0), 0.0, 0.0];
                    assert_eq!(bits(&row.probabilities), bits(&expected), "object {}", object.id());
                }
            }
            (QueryAnswer::ObjectIds(all), QueryAnswer::ObjectIds(kept)) => {
                // τ = 0 accepts everything, decided objects included; a
                // positive τ rejects them.
                let mut expected: Vec<u64> = kept.clone();
                if what == "τ = 0" {
                    let decided = objects.iter().zip(decided).filter(|(_, d)| **d);
                    expected.extend(decided.map(|(o, _)| o.id()));
                    expected.sort_unstable();
                }
                assert_eq!(all, &expected, "{what}");
            }
            other => panic!("{what}: unexpected answers {other:?}"),
        }
    }
}
