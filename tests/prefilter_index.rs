//! Conservativeness of the spatio-temporal index prefilter.
//!
//! The planner may consult the reachability-cone × interval index to skip
//! objects, but pruning must be *invisible* in the answers: every
//! predicate × decorator × strategy combination must return bit-for-bit
//! identical results under [`PrefilterMode::Off`], [`PrefilterMode::On`]
//! and [`PrefilterMode::Auto`] — including identical errors, so pruning
//! can never mask window validation. A pruned object by definition has
//! `P∃ = 0`; if the index ever discarded an object with non-zero
//! probability, the bitwise comparison against the unpruned run would
//! catch it.

use std::sync::Arc;

use proptest::prelude::*;

use ust::prelude::*;
// Explicit import wins over the globs: `Strategy` here is always the
// planner-override enum, not the shadowing `proptest::Strategy` trait.
use ust_core::{QuerySpec, Strategy};
use ust_data::{generate_index_workload, IndexWorkloadConfig};
use ust_oracle::testutil;

/// A random banded database with a 1-D embedding attached, so the
/// prefilter is armed (`PrefilterMode::On` ignores the Auto size floor).
fn build_db(seed: u64, n: usize, m: usize) -> TrajectoryDatabase {
    let mut rng = testutil::rng(seed);
    let chain =
        MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, n, 3, 4)).unwrap();
    let mut db = TrajectoryDatabase::new(chain);
    for id in 0..m {
        let dist = testutil::random_distribution(&mut rng, n, 2);
        db.insert(UncertainObject::with_single_observation(
            id as u64,
            Observation::uncertain(id as u32 % 3, dist).unwrap(),
        ))
        .unwrap();
    }
    db.attach_space(Arc::new(LineSpace::new(n))).unwrap();
    db
}

fn run(db: &TrajectoryDatabase, mode: PrefilterMode, spec: &QuerySpec) -> String {
    let processor = QueryProcessor::with_config(db, EngineConfig::default().with_prefilter(mode));
    canon(&processor.execute(spec))
}

/// A canonical, bit-exact rendering of an outcome: probabilities render as
/// raw IEEE bits (so `0.0` vs `-0.0` or any last-ulp drift would differ),
/// errors render as their debug form (so masked validation would differ).
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
    } else {
        format!("other:{answer:?}")
    }
}

/// Every spec the suite compares across prefilter modes: the pruned
/// decorators (∃ probabilities / threshold, including the `τ = 0` merge
/// path) and the pass-through predicates (∀, k-times).
fn specs(window: &QueryWindow, strategy: Strategy) -> Vec<QuerySpec> {
    vec![
        Query::exists().window(window.clone()).strategy(strategy).probabilities().build().unwrap(),
        Query::exists().window(window.clone()).strategy(strategy).threshold(0.0).build().unwrap(),
        Query::exists().window(window.clone()).strategy(strategy).threshold(0.3).build().unwrap(),
        Query::forall().window(window.clone()).strategy(strategy).probabilities().build().unwrap(),
        Query::ktimes(2).window(window.clone()).strategy(strategy).build().unwrap(),
    ]
}

/// The stores on which the zero fill of a pruned answer and the grouping of
/// its survivors could go wrong, each built around windows over states
/// `0..3` of a line.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Two transition models, objects alternating between them.
    TwoModels,
    /// Ids inserted descending, so an id subset walks the store.
    DescendingIds,
    /// Objects `0` and `|D| − 1` on the window, the rest at the far end of
    /// the line: the survivors are the store's two ends.
    SurvivingEnds,
    /// Every object at the far end of the line: the index prunes them all.
    AllPruned,
}

const SHAPES: [Shape; 4] =
    [Shape::TwoModels, Shape::DescendingIds, Shape::SurvivingEnds, Shape::AllPruned];

fn banded_chain(rng: &mut rand::rngs::StdRng, n: usize) -> MarkovChain {
    MarkovChain::from_csr(testutil::random_banded_stochastic(rng, n, 3, 4)).unwrap()
}

/// `m` objects over `n ≥ 24` line states in `shape`. The chain moves at
/// most two states a step, so from the far end (`n − 2`, `n − 1`) no
/// window over `0..3` ending by `t = 6` can be reached.
fn shaped_db(seed: u64, n: usize, m: usize, shape: Shape) -> TrajectoryDatabase {
    let mut rng = testutil::rng(seed);
    let mut db = match shape {
        Shape::TwoModels => {
            let chains = vec![banded_chain(&mut rng, n), banded_chain(&mut rng, n)];
            TrajectoryDatabase::with_models(chains).unwrap()
        }
        _ => TrajectoryDatabase::new(banded_chain(&mut rng, n)),
    };
    for i in 0..m {
        let (id, model) = match shape {
            Shape::TwoModels => (i as u64, i % 2),
            Shape::DescendingIds => ((m - 1 - i) as u64, 0),
            Shape::SurvivingEnds | Shape::AllPruned => (i as u64, 0),
        };
        let end = i == 0 || i == m - 1;
        let fix = match shape {
            Shape::TwoModels | Shape::DescendingIds => {
                let dist = testutil::random_distribution(&mut rng, n, 2);
                Observation::uncertain(i as u32 % 3, dist).unwrap()
            }
            Shape::SurvivingEnds if end => Observation::exact(0, n, i % 3).unwrap(),
            Shape::SurvivingEnds | Shape::AllPruned => {
                Observation::exact(i as u32 % 3, n, n - 1 - i % 2).unwrap()
            }
        };
        db.insert(UncertainObject::with_single_observation(id, fix).with_model(model)).unwrap();
    }
    db.attach_space(Arc::new(LineSpace::new(n))).unwrap();
    db
}

/// An ∃ query over `ids` (the whole store when `None`) answering
/// probabilities, or the ids reaching `tau`, under every prefilter mode:
/// OB and QB answer as they do unpruned. `Auto` costs the candidates the
/// index left, so pruning may change which strategy it picks, and OB and QB
/// may differ in the last ulp; in every mode it answers as the strategy it
/// picked there does unpruned.
fn assert_exists_matches_across_modes(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    ids: Option<&[u64]>,
    tau: Option<f64>,
    shape: Shape,
) {
    let spec = |strategy: Strategy| {
        let query = Query::exists().window(window.clone()).strategy(strategy);
        let query = match ids {
            Some(ids) => query.objects(ids.iter().copied()),
            None => query,
        };
        match tau {
            Some(tau) => query.threshold(tau),
            None => query.probabilities(),
        }
        .build()
        .unwrap()
    };
    let cell = format!("{shape:?}, ids {ids:?}, τ {tau:?}");
    let ob = run(db, PrefilterMode::Off, &spec(Strategy::ObjectBased));
    let qb = run(db, PrefilterMode::Off, &spec(Strategy::QueryBased));
    for mode in [PrefilterMode::Off, PrefilterMode::On, PrefilterMode::Auto] {
        assert_eq!(run(db, mode, &spec(Strategy::ObjectBased)), ob, "{cell}: OB, {mode:?}");
        assert_eq!(run(db, mode, &spec(Strategy::QueryBased)), qb, "{cell}: QB, {mode:?}");
        let processor =
            QueryProcessor::with_config(db, EngineConfig::default().with_prefilter(mode));
        let auto = spec(Strategy::Auto);
        let picked = match processor.explain(&auto) {
            Ok(plan) if plan.strategy == Strategy::QueryBased => &qb,
            _ => &ob,
        };
        assert_eq!(&canon(&processor.execute(&auto)), picked, "{cell}: Auto, {mode:?}");
    }
}

/// Every exact `P∃` of the store under `window`, object- and query-based
/// (the two may differ in the last ulp), unpruned: thresholds that sit on
/// an object's probability, where an evaluation that drifts by one ulp
/// flips that object's answer. Empty when the window fails validation.
fn exact_probabilities(db: &TrajectoryDatabase, window: &QueryWindow) -> Vec<f64> {
    let processor =
        QueryProcessor::with_config(db, EngineConfig::default().with_prefilter(PrefilterMode::Off));
    let mut taus = Vec::new();
    for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
        let spec = Query::exists().window(window.clone()).strategy(strategy).build().unwrap();
        if let Ok(answer) = processor.execute(&spec) {
            taus.extend(answer.probabilities().unwrap().iter().map(|p| p.probability));
        }
    }
    taus.retain(|&p| p > 0.0);
    taus.sort_by(f64::total_cmp);
    taus.dedup();
    taus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_shapes_are_bit_identical_across_prefilter_modes(
        seed in 0u64..5_000,
        n in 24usize..32,
        m in 3usize..9,
        shape in 0usize..SHAPES.len(),
        t_start in 0u32..5,
        t_len in 0u32..3,
        subset_bits in 1u8..255,
    ) {
        let shape = SHAPES[shape];
        let db = shaped_db(seed, n, m, shape);
        let window =
            QueryWindow::from_states(n, 0..3, TimeSet::interval(t_start, t_start + t_len)).unwrap();
        let survivors = db.spatial_index().unwrap().candidates(&window);
        match shape {
            Shape::SurvivingEnds => prop_assert_eq!(survivors, vec![0, m - 1]),
            Shape::AllPruned => prop_assert!(survivors.is_empty()),
            Shape::TwoModels | Shape::DescendingIds => {}
        }
        let subset: Vec<u64> =
            (0..m as u64).filter(|id| subset_bits & (1 << (id % 8)) != 0).collect();
        // On the multi-model store, also every τ that equals an object's
        // exact probability: the object must be accepted in every mode.
        let mut taus = vec![None, Some(0.0), Some(0.3)];
        if let Shape::TwoModels = shape {
            taus.extend(exact_probabilities(&db, &window).into_iter().map(Some));
        }
        for ids in [None, Some(subset.as_slice())] {
            for &tau in &taus {
                assert_exists_matches_across_modes(&db, &window, ids, tau, shape);
            }
        }
    }

    #[test]
    fn answers_are_bit_identical_across_prefilter_modes(
        seed in 0u64..5_000,
        n in 4usize..9,
        m in 2usize..7,
        state_bits in 1u8..255,
        t_start in 0u32..5,
        t_len in 0u32..3,
    ) {
        let db = build_db(seed, n, m);
        let states: Vec<usize> = (0..n).filter(|s| state_bits & (1 << (s % 8)) != 0).collect();
        prop_assume!(!states.is_empty());
        let window = QueryWindow::from_states(
            n, states, TimeSet::interval(t_start, t_start + t_len)).unwrap();
        for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
            for spec in specs(&window, strategy) {
                let off = run(&db, PrefilterMode::Off, &spec);
                let on = run(&db, PrefilterMode::On, &spec);
                let auto = run(&db, PrefilterMode::Auto, &spec);
                prop_assert_eq!(&off, &on, "{:?}/{:?} Off vs On", spec.predicate(), strategy);
                prop_assert_eq!(&off, &auto, "{:?}/{:?} Off vs Auto", spec.predicate(), strategy);
            }
        }
    }

    #[test]
    fn subset_queries_are_bit_identical_across_prefilter_modes(
        seed in 0u64..5_000,
        n in 4usize..9,
        m in 3usize..7,
        subset_bits in 1u8..127,
        t_start in 0u32..4,
    ) {
        let db = build_db(seed, n, m);
        let ids: Vec<u64> = (0..m as u64).filter(|id| subset_bits & (1 << (id % 7)) != 0).collect();
        prop_assume!(!ids.is_empty());
        let window =
            QueryWindow::from_states(n, 0..n / 2, TimeSet::interval(t_start, t_start + 1)).unwrap();
        for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
            let spec = Query::exists()
                .window(window.clone())
                .strategy(strategy)
                .objects(ids.clone())
                .probabilities()
                .build()
                .unwrap();
            let off = run(&db, PrefilterMode::Off, &spec);
            let on = run(&db, PrefilterMode::On, &spec);
            prop_assert_eq!(&off, &on, "subset {:?} under {:?}", &ids, strategy);
        }
    }
}

/// On the clustered workload the selective window *must* prune (this is
/// the effectiveness half of the contract; the proptests above are the
/// safety half) — under `On` and, on a database past its size floor, under
/// `Auto`: fewer than 1 % of the objects are examined where `Off` examines
/// them all — and still answer identically to the unpruned run.
#[test]
fn selective_window_prunes_and_preserves_answers() {
    let mut data = generate_index_workload(&IndexWorkloadConfig {
        num_objects: 4_000,
        num_states: 20_000,
        ..IndexWorkloadConfig::default()
    });
    let space = data.space;
    data.db.attach_space(Arc::new(space)).unwrap();
    let total = data.db.len() as u64;
    let window = data.selective_window().unwrap();
    let run = |mode: PrefilterMode, spec: &QuerySpec| {
        let config = EngineConfig::default().with_prefilter(mode);
        let mut stats = EvalStats::new();
        let answer =
            QueryProcessor::with_config(&data.db, config).execute_with_stats(spec, &mut stats);
        (canon(&answer), stats)
    };
    for tau in [0.0, 0.5] {
        let spec = Query::exists()
            .window(window.clone())
            .strategy(Strategy::QueryBased)
            .threshold(tau)
            .build()
            .unwrap();
        let (off_answer, off) = run(PrefilterMode::Off, &spec);
        assert_eq!((off.candidates_examined, off.candidates_pruned), (total, 0));
        for mode in [PrefilterMode::On, PrefilterMode::Auto] {
            let (answer, stats) = run(mode, &spec);
            assert_eq!(answer, off_answer, "τ = {tau}, {mode:?}");
            assert!(
                stats.candidates_examined * 100 < total,
                "{mode:?} examined {} of {total}",
                stats.candidates_examined
            );
            assert_eq!(stats.candidates_examined + stats.candidates_pruned, total);
        }
    }
}

/// What ∀ and k-times answer, bit for bit, for the objects the index prunes
/// under a window (evaluated with the prefilter `Off`, as those predicates
/// always are): every such object is decided at its anchor, before any
/// transition, so its answer is a function of the anchor alone — with `Σ`
/// the anchor's mass summed in ascending state order:
///
/// * k-times: level 0 is `Σ` (clamped into `[0, 1]`), every other level
///   `0.0` — under both strategies;
/// * ∀: `0.0` query-based (the ∀ field is zero off the window's reach), but
///   `1 − Σ` (clamped) object-based, whose complement reduction subtracts
///   the escaped mass from 1 — a residue wherever `Σ` rounds below 1.
#[test]
fn pruned_objects_answer_from_their_anchor_alone() {
    let mut data = generate_index_workload(&IndexWorkloadConfig::small());
    let space = data.space;
    data.db.attach_space(Arc::new(space)).unwrap();
    let window = data.selective_window().unwrap();
    let survivors = data.db.spatial_index().unwrap().candidates(&window);
    let pruned: Vec<&UncertainObject> = (0..data.db.len())
        .filter(|idx| survivors.binary_search(idx).is_err())
        .map(|idx| data.db.object(idx).unwrap())
        .collect();
    assert!(pruned.len() * 2 > data.db.len(), "the selective window prunes most objects");
    let ids: Vec<u64> = pruned.iter().map(|o| o.id()).collect();
    let mass = |o: &UncertainObject| o.anchor().distribution().iter().fold(0.0, |s, (_, p)| s + p);
    let levels = window.num_times() + 1;
    let processor = QueryProcessor::with_config(
        &data.db,
        EngineConfig::default().with_prefilter(PrefilterMode::Off),
    );
    let mut residues = 0;
    for strategy in [Strategy::ObjectBased, Strategy::QueryBased] {
        let spec = |query: QueryBuilder| {
            query.window(window.clone()).objects(ids.clone()).strategy(strategy).build().unwrap()
        };
        let mut stats = EvalStats::new();
        let forall = processor.execute_with_stats(&spec(Query::forall()), &mut stats).unwrap();
        let ktimes = processor.execute_with_stats(&spec(Query::ktimes(1)), &mut stats).unwrap();
        if strategy == Strategy::ObjectBased {
            assert_eq!(stats.transitions, 0, "every pruned object is decided at its anchor");
        }
        let forall = forall.probabilities().unwrap();
        let ktimes = ktimes.distributions().unwrap();
        for ((object, all), k) in pruned.iter().zip(forall).zip(ktimes) {
            let sum = mass(object);
            let expected = match strategy {
                Strategy::ObjectBased => (1.0 - sum).clamp(0.0, 1.0),
                _ => 0.0,
            };
            assert_eq!(all.probability.to_bits(), expected.to_bits(), "∀ {strategy:?}");
            residues += usize::from(all.probability != 0.0);
            let mut dist = vec![0.0f64; levels];
            dist[0] = sum.clamp(0.0, 1.0);
            let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&k.probabilities), bits(&dist), "k-times {strategy:?}");
        }
    }
    assert!(residues > 0, "some anchor's mass rounds below 1: OB ∀ is not a constant");
}

/// The prefilter-armed processor reports its pruning in the plan and the
/// serving metrics (the observability half of the PR 6 counter plumbing).
#[test]
fn pruning_shows_up_in_explain_and_metrics() {
    let mut data = generate_index_workload(&IndexWorkloadConfig::small());
    let space = data.space;
    data.db.attach_space(Arc::new(space)).unwrap();
    let spec = Query::exists()
        .window(data.selective_window().unwrap())
        .strategy(Strategy::QueryBased)
        .probabilities()
        .build()
        .unwrap();
    let processor = QueryProcessor::with_config(
        &data.db,
        EngineConfig::default().with_prefilter(PrefilterMode::On),
    );
    let plan = processor.explain(&spec).unwrap();
    assert!(plan.candidates_pruned > 0);
    assert_eq!(plan.candidates_examined + plan.candidates_pruned, data.db.len());
    assert!(plan.to_string().contains("prefilter"));
    processor.execute(&spec).unwrap();
    let snapshot = processor.metrics();
    let entry = snapshot.plan(Predicate::Exists, Strategy::QueryBased).unwrap();
    assert_eq!(entry.candidates_pruned, plan.candidates_pruned as u64);
    assert_eq!(entry.candidates_examined, plan.candidates_examined as u64);
}

/// β of the superlevel filter: the τ grid below sits on it.
const BETA: f64 = ust_core::prefilter::SUPERLEVEL_MARGIN;

/// `m` objects on a line of `n ≥ 24` states, each spread over two states
/// three apart — `{s, s + 3}` for every `s` in turn, anchored at `t = i mod
/// 3` — so whatever interval of the line a superlevel set covers, some
/// anchors straddle its edge, and with a window starting at `t = 2` some
/// anchor at a query time inside `S▫`.
fn straddling_db(seed: u64, n: usize, m: usize) -> TrajectoryDatabase {
    let mut rng = testutil::rng(seed);
    let mut db = TrajectoryDatabase::new(banded_chain(&mut rng, n));
    for i in 0..m {
        let s = i % (n - 3);
        let w = 0.05 + 0.9 * (i * 7 % 11) as f64 / 10.0;
        let dist = ust_markov::SparseVector::from_pairs(n, [(s, w), (s + 3, 1.0 - w)]).unwrap();
        let fix = Observation::uncertain(i as u32 % 3, dist).unwrap();
        db.insert(UncertainObject::with_single_observation(i as u64, fix)).unwrap();
    }
    db.attach_space(Arc::new(LineSpace::new(n))).unwrap();
    db
}

/// Every `τ` of `exact` (the store's exact probabilities), each also moved
/// by one and two `β` either way — the values a margin that is too thin, or
/// a filter that is not conservative, would get wrong — every `stride`-th
/// value only.
fn tau_grid(exact: &[f64], stride: usize) -> Vec<f64> {
    let mut taus: Vec<f64> = exact
        .iter()
        .step_by(stride.max(1))
        .flat_map(|&p| [-2.0, -1.0, 0.0, 1.0, 2.0].map(|k| p * (1.0 + k * BETA)))
        .filter(|tau| (0.0..=1.0).contains(tau))
        .collect();
    taus.push(0.3);
    taus
}

/// The ∃ threshold answers of `taus` over `ids` (the whole store when
/// `None`) on *warm* processors — each under `On` and `Auto`, its window's
/// ∃ fields cached by one query-based run over the store first, so the
/// superlevel filter may fire under every strategy — against the unpruned
/// answer of the strategy that ran. Returns the superlevel-pruned objects
/// `explain` reported over all of them (and printed on its prefilter line).
fn assert_warm_thresholds_match(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
    ids: Option<&[u64]>,
    taus: &[f64],
    cell: &str,
) -> usize {
    let spec = |strategy: Strategy, tau: f64| {
        let query = Query::exists().window(window.clone()).strategy(strategy).threshold(tau);
        match ids {
            Some(ids) => query.objects(ids.iter().copied()),
            None => query,
        }
        .build()
        .unwrap()
    };
    let off =
        QueryProcessor::with_config(db, EngineConfig::default().with_prefilter(PrefilterMode::Off));
    let mut superlevel_pruned = 0;
    for mode in [PrefilterMode::On, PrefilterMode::Auto] {
        let warm = QueryProcessor::with_config(db, EngineConfig::default().with_prefilter(mode));
        let fill = Query::exists().window(window.clone()).strategy(Strategy::QueryBased);
        let _ = warm.execute(&fill.build().unwrap());
        for &tau in taus {
            for strategy in [Strategy::ObjectBased, Strategy::QueryBased, Strategy::Auto] {
                let plan = warm.explain(&spec(strategy, tau));
                let ran = plan.as_ref().map_or(strategy, |plan| plan.strategy);
                if let Ok(plan) = plan {
                    let line =
                        format!("({} of them by the τ-superlevel set)", plan.superlevel_pruned);
                    assert_eq!(plan.to_string().contains(&line), plan.superlevel_pruned > 0);
                    superlevel_pruned += plan.superlevel_pruned;
                }
                assert_eq!(
                    canon(&warm.execute(&spec(strategy, tau))),
                    canon(&off.execute(&spec(ran, tau))),
                    "{cell}, ids {ids:?}, τ {tau:e}: {strategy:?} ran {ran:?}, {mode:?}"
                );
            }
        }
    }
    superlevel_pruned
}

/// The superlevel filter prunes on a warm field and changes no accepted id:
/// τ on, and within two `β` of, every exact probability; every strategy
/// and both pruning modes; whole stores and subsets; one and two models;
/// anchors straddling `U_τ`'s edge; anchors at a query time (a window that
/// starts at `t = 2`, and one that also ends there, where the field is
/// zero and only `S▫` makes the anchor count). A store past `Auto`'s size
/// floor arms the filter under `Auto` too.
#[test]
fn warm_thresholds_accept_the_same_ids_with_the_superlevel_filter() {
    let mut fired = 0;
    for seed in 0..3u64 {
        let n = 24 + seed as usize * 3;
        let stores = [
            ("straddling", straddling_db(seed, n, 24), 1),
            ("two models", shaped_db(seed, n, 9, Shape::TwoModels), 1),
            ("past the Auto floor", straddling_db(seed, n, 300), 40),
        ];
        for (name, db, stride) in &stores {
            for (t0, t1) in [(2u32, 2u32), (2, 4), (3, 5)] {
                let window = QueryWindow::from_states(n, 0..3, TimeSet::interval(t0, t1)).unwrap();
                let taus = tau_grid(&exact_probabilities(db, &window), *stride);
                let subset: Vec<u64> = (0..db.len() as u64).filter(|id| id % 3 != 1).collect();
                let cell = format!("{name}, seed {seed}, window [{t0}, {t1}]");
                for ids in [None, Some(subset.as_slice())] {
                    fired += assert_warm_thresholds_match(db, &window, ids, &taus, &cell);
                }
            }
        }
    }
    assert!(fired > 0, "the superlevel filter never pruned an object");
}
