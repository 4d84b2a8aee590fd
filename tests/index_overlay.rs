//! One predicate, both paths: an index updated incrementally (overlay) and
//! one built in bulk over the same objects answer every probe alike — and
//! exactly like an independent brute-force cone filter. Narrowed by a
//! cached field's τ-superlevel set, the overlaid index still keeps every
//! object the exact engines accept at `τ`.
//!
//! The bulk path reaches `ConeAnchor::reaches` through the R-tree's leaf
//! visitor (or skips it for whole leaves), the overlay calls it per entry;
//! the property below drives both with anchors on either side of the
//! window's end — including overlay entries first observed after it — over
//! databases that straddle the probe's 64-bit words, checks the exact
//! survivor set against the oracle crate's cone filter (which shares no
//! code with the index) and the result against both exact engines, so neither
//! path can drop an object that has a chance of being in the window.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use common::reference;
use ust::prelude::*;
use ust_core::engine::query_based::BackwardField;
use ust_core::prefilter::{Superlevel, SUPERLEVEL_MARGIN};
// Explicit import: both glob preludes export a `Strategy`.
use ust_core::SpatioTemporalIndex;
use ust_core::Strategy::{ObjectBased, QueryBased};
use ust_oracle::testutil;

/// An object on a line of `n` states, anchored — exactly or spread over two
/// states — at a random time in `t_min..t_min + 6`.
fn random_object(rng: &mut StdRng, id: u64, n: usize, t_min: u32) -> UncertainObject {
    let time = t_min + rng.random_range(0..6u32);
    let observation = if rng.random::<f64>() < 0.5 {
        Observation::exact(time, n, rng.random_range(0..n)).unwrap()
    } else {
        Observation::uncertain(time, testutil::random_distribution(rng, n, 2)).unwrap()
    };
    UncertainObject::with_single_observation(id, observation)
}

/// The oracle crate's brute-force cone filter over `objects`' anchors.
fn brute_force_candidates(
    chain: &MarkovChain,
    objects: &[UncertainObject],
    window: &QueryWindow,
) -> Vec<usize> {
    let anchors: Vec<_> =
        objects.iter().map(|o| (o.anchor().time(), o.anchor().distribution())).collect();
    ust_oracle::cone::line_candidates(chain, &anchors, window.states(), window.times())
}

fn database(chain: &MarkovChain, objects: &[UncertainObject]) -> TrajectoryDatabase {
    let mut db = TrajectoryDatabase::new(chain.clone());
    db.insert_all(objects.iter().cloned()).unwrap();
    db
}

/// `P∃` of every object the window is valid for (anchored by `t_start`),
/// under each exact engine, unpruned: `(database index, OB, QB)`.
fn exact_exists(
    chain: &MarkovChain,
    objects: &[UncertainObject],
    window: &QueryWindow,
) -> Vec<(usize, f64, f64)> {
    let valid: Vec<usize> =
        (0..objects.len()).filter(|&i| objects[i].anchor().time() <= window.t_start()).collect();
    let db = database(chain, &valid.iter().map(|&i| objects[i].clone()).collect::<Vec<_>>());
    let exists = |strategy| {
        let answer = reference(&db, Query::exists().window(window.clone()).strategy(strategy));
        answer.unwrap().probabilities().unwrap().to_vec()
    };
    let (ob, qb) = (exists(ObjectBased), exists(QueryBased));
    valid
        .into_iter()
        .zip(ob.iter().zip(&qb))
        .map(|(i, (o, q))| (i, o.probability, q.probability))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_updates_probe_like_a_fresh_build(
        seed in 0u64..10_000,
        n in 12usize..60,
        (m, below_word) in (0usize..160, 0usize..3),
        updates in 0usize..20,
        (lo, width) in (0usize..60, 1usize..5),
        (t_start, t_len) in (0u32..10, 0u32..3),
    ) {
        let mut rng = testutil::rng(seed);
        let chain =
            MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, n, 3, 4)).unwrap();
        let space = Arc::new(LineSpace::new(n));
        // Two thirds of the cases start a few objects short of a 64-bit
        // word boundary (64 or 128), so insertions open a new word.
        let m = match below_word {
            0 => m,
            word => 64 * word - 1 - m % 4,
        };
        let mut objects: Vec<UncertainObject> =
            (0..m).map(|id| random_object(&mut rng, id as u64, n, 0)).collect();

        // Mutations re-anchor an object at or after its stored fix (the
        // ingest contract); an update one past the end — a third of them —
        // is an insertion.
        let mut index = SpatioTemporalIndex::build(&database(&chain, &objects), space.clone());
        for _ in 0..updates {
            let idx = if rng.random::<f64>() < 1.0 / 3.0 {
                objects.len()
            } else {
                rng.random_range(0..=objects.len())
            };
            let t_min = objects.get(idx).map_or(0, |o| o.anchor().time());
            let object = random_object(&mut rng, idx as u64, n, t_min);
            index = index.with_updated(idx, &object);
            if idx == objects.len() {
                objects.push(object);
            } else {
                objects[idx] = object;
            }
        }
        let fresh = SpatioTemporalIndex::build(&database(&chain, &objects), space);
        prop_assert_eq!(index.num_objects(), fresh.num_objects());
        prop_assert_eq!(index.max_anchor_time(), fresh.max_anchor_time());

        let lo = lo % n;
        let window = QueryWindow::from_states(
            n, lo..(lo + width).min(n), TimeSet::interval(t_start, t_start + t_len)).unwrap();
        let candidates = index.candidates(&window);
        prop_assert_eq!(&candidates, &fresh.candidates(&window));
        prop_assert_eq!(&candidates, &brute_force_candidates(&chain, &objects, &window));

        // The exact engines over every object the window is valid for.
        for (idx, ob, qb) in exact_exists(&chain, &objects, &window) {
            prop_assert!(
                (ob == 0.0 && qb == 0.0) || candidates.binary_search(&idx).is_ok(),
                "object {} (OB {}, QB {}) was pruned", idx, ob, qb
            );
        }
    }

    /// The superlevel narrowing over an overlaid index. The field is swept
    /// for every other anchor time of the bulk objects; then ingests
    /// re-anchor objects (often at a time the field has no snapshot of,
    /// which keeps the cone test), inserts append, and one arrival lands on
    /// a state of `U_τ` at a snapshot time. Every object either exact
    /// engine accepts at `τ` — on, or within `β` of, an object's
    /// probability — survives, and the survivors plus the superlevel-pruned
    /// are exactly the cone's.
    #[test]
    fn the_superlevel_narrowing_keeps_every_accepted_object(
        seed in 0u64..10_000,
        n in 12usize..48,
        m in 1usize..140,
        updates in 0usize..12,
        (lo, width) in (0usize..48, 1usize..5),
        (t_start, t_len) in (2u32..9, 0u32..3),
        (pick, nudge) in (0usize..1_000, 0u32..5),
    ) {
        let mut rng = testutil::rng(seed);
        let chain =
            MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, n, 3, 4)).unwrap();
        let space = Arc::new(LineSpace::new(n));
        let lo = lo % n;
        let window = QueryWindow::from_states(
            n, lo..(lo + width).min(n), TimeSet::interval(t_start, t_start + t_len)).unwrap();
        let mut objects: Vec<UncertainObject> =
            (0..m).map(|id| random_object(&mut rng, id as u64, n, 0)).collect();
        let mut times: Vec<u32> = objects
            .iter()
            .map(|o| o.anchor().time())
            .filter(|&t| t <= window.t_end())
            .collect();
        times.sort_unstable();
        times.dedup();
        // Every other one of them: bulk objects, too, sit at times the
        // field has no snapshot of.
        times.retain(|&t| (t as usize + pick).is_multiple_of(2));
        let field = BackwardField::compute(&chain, &window, &times, &mut EvalStats::new()).unwrap();

        let mut index = SpatioTemporalIndex::build(&database(&chain, &objects), space.clone());
        let mut apply = |idx: usize, object: UncertainObject, objects: &mut Vec<UncertainObject>| {
            index = index.with_updated(idx, &object);
            if idx == objects.len() {
                objects.push(object);
            } else {
                objects[idx] = object;
            }
        };
        for _ in 0..updates {
            let idx = rng.random_range(0..=objects.len());
            let t_min = objects.get(idx).map_or(0, |o| o.anchor().time());
            let object = random_object(&mut rng, idx as u64, n, t_min);
            apply(idx, object, &mut objects);
        }
        // τ sits on, or `nudge` β from, a probability an object reaches.
        let exact = exact_exists(&chain, &objects, &window);
        let reached: Vec<f64> =
            exact.iter().flat_map(|&(_, ob, qb)| [ob, qb]).filter(|&p| p > 0.0).collect();
        prop_assume!(!reached.is_empty());
        let nudge = f64::from(nudge) - 2.0;
        let tau = reached[pick % reached.len()] * (1.0 + nudge * SUPERLEVEL_MARGIN);
        let tau = tau.min(1.0);

        // The arrival into `U_τ`: an exact fix at a snapshot time on a
        // state whose field value reaches τ, for an object anchored no
        // later (or a new one).
        let into = times.iter().rev().find_map(|&t| {
            let h = &field.at(t)?[0];
            (0..n).find(|&s| h.get(s) >= tau).map(|s| (t, s))
        });
        if let Some((t, s)) = into {
            let idx = (0..objects.len())
                .find(|&i| objects[i].anchor().time() <= t && i % 7 == pick % 7)
                .unwrap_or(objects.len());
            let fix = Observation::exact(t, n, s).unwrap();
            apply(idx, UncertainObject::with_single_observation(idx as u64, fix), &mut objects);
        }

        let superlevel = Superlevel::of(&field, &window, tau, &chain, space.as_ref());
        let probe = index.probe(&window, Some(&superlevel));
        let mut split = [probe.survivors.clone(), probe.superlevel_pruned.clone()].concat();
        split.sort_unstable();
        prop_assert_eq!(split, brute_force_candidates(&chain, &objects, &window));

        for (idx, ob, qb) in exact_exists(&chain, &objects, &window) {
            prop_assert!(
                (ob < tau && qb < tau) || probe.survivors.binary_search(&idx).is_ok(),
                "object {} (OB {}, QB {}) reaches τ = {} but was pruned", idx, ob, qb, tau
            );
        }
    }
}
