//! Property tests of the query-based backward field under its three
//! rules: the direct PST∀Q field, the sparse PSTkQ level family with level
//! 0 carried as its deficit, and the span-trimmed snapshots every rule
//! resumes from.
//!
//! The oracles are the routes the direct fields replaced or sit beside:
//! the Section VII complement reduction, the oracle crate's possible-worlds
//! enumeration and blown-up matrix construction, and the object-based
//! `C(t)` rule. Windows here
//! have arbitrary (non-contiguous) time sets and anchors may lie inside
//! `T▫`, which the interval generator of `tests/proptest_engines.rs` never
//! produces.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{blowup, oracle, reference, solo_distribution, solo_probability};
use ust::prelude::*;
use ust_core::engine::query_based::{BackwardField, FieldRule};
// Explicit import: both glob preludes export a `Strategy` (proptest's
// trait and the engine's enum).
use ust_core::Strategy;
use ust_markov::{PropagationVector, SpanVector, SpmvScratch};
use ust_oracle::testutil;
use ust_space::TimeSet;

const TOL: f64 = 1e-12;

/// A window over the first `n` of `dim` states — each joins `S▫` with
/// probability 0.4 — whose `T▫` is a random non-empty subset of
/// `[t_lo, t_lo + 4]`. `None` when `S▫` comes out empty or covers all
/// `dim` states (the ∀ complement oracle needs a proper subset).
fn random_window(dim: usize, n: usize, seed: u64, t_lo: u32) -> Option<QueryWindow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = StateMask::new(dim);
    for s in 0..n {
        if rng.random::<f64>() < 0.4 {
            mask.insert(s).unwrap();
        }
    }
    let mut times: Vec<u32> = (t_lo..=t_lo + 4).filter(|_| rng.random::<f64>() < 0.5).collect();
    if times.is_empty() {
        times.push(t_lo + 2);
    }
    if mask.is_empty() || mask.count() == dim {
        return None;
    }
    QueryWindow::new(mask, TimeSet::new(times)).ok()
}

/// A random chain on `n` states plus one extra absorbing state `n` that
/// nothing else leads to: whatever sits there provably never reaches a
/// window over the first `n` states.
fn chain_with_island(seed: u64, n: usize, deg: usize) -> MarkovChain {
    let mut rng = testutil::rng(seed);
    let mut rows: Vec<Vec<f64>> = testutil::random_stochastic(&mut rng, n, deg)
        .to_dense()
        .into_iter()
        .map(|mut row| {
            row.push(0.0);
            row
        })
        .collect();
    let mut island = vec![0.0; n + 1];
    island[n] = 1.0;
    rows.push(island);
    MarkovChain::from_csr(CsrMatrix::from_dense(&rows).unwrap()).unwrap()
}

/// A banded chain on a line: every state steps to itself or a neighbour
/// within `reach`, so backward fields stay a narrow band and their
/// snapshots really are trimmed.
fn banded_chain(seed: u64, n: usize, reach: usize) -> MarkovChain {
    let mut rng = testutil::rng(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|s| {
            let cols: Vec<usize> = (s.saturating_sub(reach)..=(s + reach).min(n - 1)).collect();
            let weights: Vec<f64> = cols.iter().map(|_| rng.random::<f64>() + 0.05).collect();
            let total: f64 = weights.iter().sum();
            cols.into_iter().zip(weights).map(|(c, w)| (c, w / total)).collect()
        })
        .collect();
    MarkovChain::from_csr(CsrMatrix::from_rows(n, &rows).unwrap()).unwrap()
}

fn object(id: u64, seed: u64, n: usize, time: u32) -> UncertainObject {
    let dist = testutil::random_distribution(&mut testutil::rng(seed), n, 2);
    UncertainObject::with_single_observation(id, Observation::uncertain(time, dist).unwrap())
}

/// A chain on a line whose rows have 1 to 4 successors within `±band`
/// (`band` ≥ the state count: anywhere), so rows differ in length.
fn uneven_chain(seed: u64, n: usize, band: usize) -> MarkovChain {
    let mut rng = testutil::rng(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|s| {
            let (lo, hi) = (s.saturating_sub(band), (s + band).min(n - 1));
            let mut cols: Vec<usize> = (lo..=hi).collect();
            let keep = rng.random_range(1..=4usize).min(cols.len());
            while cols.len() > keep {
                cols.remove(rng.random_range(0..cols.len()));
            }
            let weights: Vec<f64> = cols.iter().map(|_| rng.random::<f64>() + 0.05).collect();
            let total: f64 = weights.iter().sum();
            cols.into_iter().zip(weights).map(|(c, w)| (c, w / total)).collect()
        })
        .collect();
    MarkovChain::from_csr(CsrMatrix::from_rows(n, &rows).unwrap()).unwrap()
}

/// The backward sweep of `rule` stepped with the public transposed step —
/// [`PropagationVector::step`] over `Mᵀ` for every non-empty level — and
/// the rule's window surgery written out again: the snapshots at `times`.
fn reference_sweep(
    chain: &MarkovChain,
    window: &QueryWindow,
    rule: FieldRule,
    times: &[u32],
) -> BTreeMap<u32, Vec<SpanVector>> {
    let n = chain.num_states();
    let inside = window.states();
    let ones = SparseVector::from_pairs(n, inside.iter().map(|s| (s, 1.0))).unwrap();
    let empty = || PropagationVector::from_sparse(SparseVector::zeros(n));
    let mut levels: Vec<PropagationVector> = match rule {
        FieldRule::Exists => vec![empty()],
        FieldRule::ForAll => vec![PropagationVector::from_sparse(ones.clone())],
        FieldRule::KTimes => (0..=window.num_times()).map(|_| empty()).collect(),
    };
    let mut snapshots = BTreeMap::new();
    let mut keep = |t: u32, levels: &[PropagationVector]| {
        if times.contains(&t) {
            snapshots.insert(t, levels.iter().map(PropagationVector::to_span).collect());
        }
    };
    let mut scratch = SpmvScratch::new();
    let mut t = window.t_end();
    keep(t, &levels);
    while t > *times.iter().min().unwrap() {
        if window.time_in_window(t) {
            match rule {
                FieldRule::Exists => {
                    let _ = levels[0].extract_masked(inside);
                    levels[0].add_sparse(&ones).unwrap();
                }
                FieldRule::ForAll => {
                    levels[0] = PropagationVector::from_sparse(levels[0].split_masked(inside));
                }
                FieldRule::KTimes => {
                    let k_max = levels.len() - 1;
                    let _ = levels[k_max].split_masked(inside);
                    for j in (2..=k_max).rev() {
                        let moved = levels[j - 1].split_masked(inside);
                        levels[j].add_sparse(&moved).unwrap();
                    }
                    let deficit = levels[0].split_masked(inside);
                    let no_visit = inside.iter().map(|s| (s, 1.0 - deficit.get(s)));
                    levels[1].add_sparse(&SparseVector::from_pairs(n, no_visit).unwrap()).unwrap();
                    levels[0].add_sparse(&ones).unwrap();
                }
            }
        }
        for level in levels.iter_mut().filter(|level| level.nnz() > 0) {
            level.step(chain.transposed(), &mut scratch).unwrap();
        }
        t -= 1;
        keep(t, &levels);
    }
    snapshots
}

/// A chain on `n ≥ 10` states drifting up: state `s` steps to `s + 2` or
/// `s + 3` (unevenly weighted), the top two states back to state 0; and
/// those top two states. Three steps back from them, a backward field
/// lives on states below `n − 6`.
fn drift_chain(seed: u64, n: usize) -> (MarkovChain, std::ops::Range<usize>) {
    let mut rng = testutil::rng(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|s| {
            let cols: Vec<usize> = [s + 2, s + 3].into_iter().filter(|&c| c < n).collect();
            if cols.is_empty() {
                return vec![(0, 1.0)];
            }
            let weights: Vec<f64> = cols.iter().map(|_| rng.random::<f64>() + 0.05).collect();
            let total: f64 = weights.iter().sum();
            cols.into_iter().zip(weights).map(|(c, w)| (c, w / total)).collect()
        })
        .collect();
    (MarkovChain::from_csr(CsrMatrix::from_rows(n, &rows).unwrap()).unwrap(), n - 2..n)
}

fn span_bits(v: &SpanVector) -> (usize, Vec<u64>) {
    let (offset, values) = v.span();
    (offset, values.iter().map(|x| x.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // (a) The direct ∀ field against the complement reduction and the
    // possible-worlds enumeration; unreachable objects score exactly 0.
    #[test]
    fn direct_forall_field_matches_complement_reduction_and_exhaustive(
        (seed, n, deg) in (0u64..10_000, 2usize..=5, 1usize..=3),
        window_seed in 0u64..1_000,
        t_lo in 1u32..=2,
        anchor_gap in 0u32..=1,
    ) {
        let chain = chain_with_island(seed, n, deg);
        let window = match random_window(n + 1, n, window_seed, t_lo) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        // anchor_gap = 0 puts the anchor on min(T▫): inside the window.
        let anchor_time = window.t_start() - anchor_gap.min(window.t_start());
        let dist = testutil::random_distribution(&mut testutil::rng(seed ^ 0xA11), n, 2);
        let dist = SparseVector::from_pairs(n + 1, dist.iter()).unwrap();
        let o = UncertainObject::with_single_observation(
            0, Observation::uncertain(anchor_time, dist).unwrap());

        let forall = |strategy| Query::forall().window(window.clone()).strategy(strategy);
        let direct = solo_probability(&chain, &o, forall(Strategy::QueryBased)).unwrap();
        let complement = Query::exists().window(window.complement_states().unwrap());
        let reduced =
            1.0 - solo_probability(&chain, &o, complement.strategy(Strategy::QueryBased)).unwrap();
        prop_assert!((direct - reduced).abs() < TOL, "direct {direct} vs 1 − ∃(complement) {reduced}");
        let ob = solo_probability(&chain, &o, forall(Strategy::ObjectBased)).unwrap();
        prop_assert!((direct - ob).abs() < TOL, "direct {direct} vs OB {ob}");
        let truth = oracle(&chain, &o, &window, 1 << 22).unwrap();
        prop_assert!((direct - truth.forall()).abs() < TOL,
            "direct {direct} vs exhaustive {}", truth.forall());
        prop_assert!((0.0..=1.0).contains(&direct));

        let stranded = UncertainObject::with_single_observation(
            1, Observation::exact(anchor_time, n + 1, n).unwrap());
        let p = solo_probability(&chain, &stranded, forall(Strategy::QueryBased)).unwrap();
        prop_assert_eq!(p.to_bits(), 0.0f64.to_bits(), "unreachable object scored {}", p);
    }

    // (b) The sparse level family against the blown-up matrices and the
    // C(t) driver; every entry inside [0, 1], exactly. Small state spaces
    // densify the levels at once (any entry of ≤ 3 states is past the 0.25
    // density), the 8× wider ones start sparse under a window of ≤ 5 states.
    #[test]
    fn sparse_level_ktimes_matches_blowup_and_ct_driver(
        (seed, n, deg) in (0u64..10_000, 2usize..=6, 1usize..=3),
        wide in 0usize..2,
        window_seed in 0u64..1_000,
        t_lo in 1u32..=2,
        anchor_gap in 0u32..=1,
    ) {
        let n = [n, 8 * n][wide];
        let chain = testutil::random_chain(seed, n, deg);
        let window = match random_window(n, n.min(5), window_seed, t_lo) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let o = object(0, seed ^ 0xB0B, n, window.t_start() - anchor_gap.min(window.t_start()));

        let ktimes = |strategy| Query::ktimes(1).window(window.clone()).strategy(strategy);
        let qb = solo_distribution(&chain, &o, ktimes(Strategy::QueryBased)).unwrap();
        let ob = solo_distribution(&chain, &o, ktimes(Strategy::ObjectBased)).unwrap();
        let blowup = blowup(&chain, &o, &window).unwrap();
        prop_assert_eq!(qb.len(), window.num_times() + 1);
        for k in 0..qb.len() {
            prop_assert!((qb[k] - blowup[k]).abs() < TOL, "k={k}: qb {qb:?} blowup {blowup:?}");
            prop_assert!((qb[k] - ob[k]).abs() < TOL, "k={k}: qb {qb:?} ob {ob:?}");
            prop_assert!((0.0..=1.0).contains(&qb[k]) && (0.0..=1.0).contains(&ob[k]),
                "k={k}: qb {qb:?} ob {ob:?}");
        }
    }

    // (c) Resuming from a trimmed snapshot replays the from-scratch sweep
    // bit for bit, under every rule. The band widens by 4 states a step, so
    // on the narrow chains (≤ 64 states) the snapshot resumed from is
    // already densified (≥ 17 states, past the 0.25 density) and on the 5×
    // wider ones the whole sweep stays sparse (≤ 35 of ≥ 200).
    #[test]
    fn extend_down_is_bit_identical_to_a_fresh_sweep(
        seed in 0u64..10_000,
        n in 40usize..=64,
        wide in 0usize..2,
        first in 15usize..=25,
        width in 1usize..=3,
        t_lo in 3u32..=5,
        window_seed in 0u64..1_000,
    ) {
        let n = [n, 5 * n][wide];
        let chain = banded_chain(seed, n, 2);
        let mut rng = StdRng::seed_from_u64(window_seed);
        let mut times: Vec<u32> = (t_lo..=t_lo + 3).filter(|_| rng.random::<f64>() < 0.6).collect();
        times.push(t_lo + 3);
        let window =
            QueryWindow::from_states(n, first..first + width, TimeSet::new(times)).unwrap();
        let config = EngineConfig::default();
        let (early, late) = ([0u32, 1], [2u32, t_lo]);
        let all = [0u32, 1, 2, t_lo];

        for rule in [FieldRule::Exists, FieldRule::ForAll, FieldRule::KTimes] {
            let levels = if rule == FieldRule::KTimes { window.num_times() + 1 } else { 1 };
            let mut resumed = BackwardField::compute_with_config(
                &chain, &window, rule, &late, &config, &mut EvalStats::new()).unwrap();
            prop_assert!(resumed.at(2).unwrap()[0].span().1.len() < n, "snapshots are trimmed");
            resumed.extend_down(&chain, &window, &early, &config, &mut EvalStats::new()).unwrap();
            let fresh = BackwardField::compute_with_config(
                &chain, &window, rule, &all, &config, &mut EvalStats::new()).unwrap();
            for t in all {
                let (a, b) = (resumed.at(t).unwrap(), fresh.at(t).unwrap());
                prop_assert_eq!(a.len(), levels);
                for (j, (x, y)) in a.iter().zip(b).enumerate() {
                    prop_assert_eq!(span_bits(x), span_bits(y),
                        "{:?} field, level {} at t={}", rule, j, t);
                }
            }
        }
    }

    // (e) What the fields gather along M's rows — fresh sweeps and sweeps
    // resumed with `extend_down`, under every rule — equals a reference
    // sweep stepped over Mᵀ with the public `PropagationVector::step`, bit
    // for bit: per output slot the same terms in the same order. Banded
    // chains keep the levels on the span arm (the gather); unstructured
    // ones (band ≥ |S|) scatter them to the sorted-index arm and back.
    // Three more k-times families exercise the level panel: a window of 18
    // query times (19 levels, 20 lanes in two blocks), a chain drifting up whose field
    // has left S▫ behind when the second shift fires (the panel widens),
    // and anchors inside T▫ (snapshots taken before that time's shift).
    #[test]
    fn fields_equal_a_reference_sweep_over_the_transposed_chain(
        seed in 0u64..10_000,
        n in 9usize..=90,
        band in 0usize..3,
        first in 0usize..=8,
        width in 1usize..=4,
        t_lo in 2u32..=5,
        window_seed in 0u64..1_000,
    ) {
        let chain = uneven_chain(seed, n, [2, 5, n][band]);
        let mut rng = StdRng::seed_from_u64(window_seed);
        let mut times: Vec<u32> = (t_lo..=t_lo + 3).filter(|_| rng.random::<f64>() < 0.6).collect();
        times.push(t_lo + 3);
        let states = first.min(n - width)..first.min(n - width) + width;
        let window = QueryWindow::from_states(n, states.clone(), TimeSet::new(times)).unwrap();
        let config = EngineConfig::default();
        let check = |chain: &MarkovChain, window: &QueryWindow, rule, early: &[u32], late: &[u32]| {
            let all: Vec<u32> = early.iter().chain(late).copied().collect();
            let reference = reference_sweep(chain, window, rule, &all);
            let fresh = BackwardField::compute_with_config(
                chain, window, rule, &all, &config, &mut EvalStats::new()).unwrap();
            let mut resumed = BackwardField::compute_with_config(
                chain, window, rule, late, &config, &mut EvalStats::new()).unwrap();
            resumed.extend_down(chain, window, early, &config, &mut EvalStats::new()).unwrap();
            for &t in &all {
                let expected = &reference[&t];
                for (how, field) in [("fresh", &fresh), ("resumed", &resumed)] {
                    let levels = field.at(t).unwrap();
                    prop_assert_eq!(levels.len(), expected.len());
                    for (j, (x, y)) in levels.iter().zip(expected).enumerate() {
                        prop_assert_eq!(span_bits(x), span_bits(y),
                            "{} {:?} field, level {} at t={}", how, rule, j, t);
                    }
                }
            }
            Ok(())
        };

        for rule in [FieldRule::Exists, FieldRule::ForAll, FieldRule::KTimes] {
            check(&chain, &window, rule, &[0, 1], &[2, t_lo])?;
        }
        let long = QueryWindow::from_states(n, states, TimeSet::interval(t_lo, t_lo + 17)).unwrap();
        check(&chain, &long, FieldRule::KTimes, &[0, 1], &[t_lo + 1, t_lo + 9])?;

        let (drift, top) = drift_chain(seed, n + 1);
        let gap = QueryWindow::from_states(n + 1, top.clone(), TimeSet::new(vec![t_lo, t_lo + 3]))
            .unwrap();
        let before_shift = &reference_sweep(&drift, &gap, FieldRule::KTimes, &[t_lo])[&t_lo];
        let ends = before_shift.iter().filter(|level| level.nnz() > 0);
        let end = ends.map(|level| level.span().0 + level.span().1.len()).max();
        prop_assert!(end.is_some_and(|end| end <= top.start), "S▫ lies past the levels' span");
        check(&drift, &gap, FieldRule::KTimes, &[0, 1], &[t_lo, t_lo + 3])?;
    }

    // (d) ∃ and ∀ over one window share the cache but never an entry, and
    // what the cache serves is what an uncached sweep computes.
    #[test]
    fn exists_and_forall_fields_never_serve_each_other(
        (seed, n, deg) in (0u64..10_000, 3usize..=8, 1usize..=3),
        window_seed in 0u64..1_000,
        t_lo in 1u32..=2,
        objects in 2usize..=6,
    ) {
        let chain = testutil::random_chain(seed, n, deg);
        let window = match random_window(n, n, window_seed, t_lo) {
            Some(w) => w,
            None => { prop_assume!(false); unreachable!() }
        };
        let mut db = TrajectoryDatabase::new(chain);
        for i in 0..objects {
            db.insert(object(i as u64, seed + i as u64, n, (i % 2) as u32)).unwrap();
        }
        let config = EngineConfig::default();
        let processor = QueryProcessor::with_config(&db, config);
        let spec = |query: QueryBuilder| {
            query.window(window.clone()).strategy(Strategy::QueryBased).build().unwrap()
        };
        let (exists, forall) = (spec(Query::exists()), spec(Query::forall()));
        // The reference configuration's answer: one cache entry, filled by
        // this query alone.
        let at_reference = |query: QueryBuilder, strategy| {
            let answer = reference(&db, query.window(window.clone()).strategy(strategy)).unwrap();
            answer.probabilities().unwrap().to_vec()
        };
        let uncached = |rule| match rule {
            FieldRule::ForAll => at_reference(Query::forall(), Strategy::QueryBased),
            _ => at_reference(Query::exists(), Strategy::QueryBased),
        };

        for (spec, rule, miss) in [
            (&exists, FieldRule::Exists, true),
            (&forall, FieldRule::ForAll, true),
            (&exists, FieldRule::Exists, false),
            (&forall, FieldRule::ForAll, false),
        ] {
            let mut stats = EvalStats::new();
            let answer = processor.execute_with_stats(spec, &mut stats).unwrap();
            prop_assert_eq!((stats.cache_hits, stats.cache_misses), (!miss as u64, miss as u64),
                "{:?} lookup", rule);
            prop_assert_eq!(stats.backward_steps == 0, !miss);
            for (a, b) in answer.probabilities().unwrap().iter().zip(&uncached(rule)) {
                prop_assert_eq!(a.object_id, b.object_id);
                prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits(),
                    "{:?}: cached {} vs uncached {}", rule, a.probability, b.probability);
            }
        }

        // The two answers are different predicates, not one field read twice.
        let e = at_reference(Query::exists(), Strategy::ObjectBased);
        for (p, q) in uncached(FieldRule::Exists).iter().zip(&e) {
            prop_assert!((p.probability - q.probability).abs() < TOL);
        }
        let a = at_reference(Query::forall(), Strategy::ObjectBased);
        for (p, q) in uncached(FieldRule::ForAll).iter().zip(&a) {
            prop_assert!((p.probability - q.probability).abs() < TOL);
        }
    }
}
