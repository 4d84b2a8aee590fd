//! One predicate, both paths: an index updated incrementally (overlay) and
//! one built in bulk over the same objects answer every probe alike — and
//! exactly like an independent brute-force cone filter.
//!
//! The bulk path reaches `ConeAnchor::reaches` through the R-tree's leaf
//! visitor (or skips it for whole leaves), the overlay calls it per entry;
//! the property below drives both with anchors on either side of the
//! window's end — including overlay entries first observed after it — over
//! databases that straddle the probe's 64-bit words, checks the exact
//! survivor set against [`brute_force_candidates`] (which shares no code
//! with the index) and the result against the exact engine, so neither
//! path can drop an object that has a chance of being in the window.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use ust::prelude::*;
use ust_core::engine::object_based;
use ust_core::SpatioTemporalIndex;
use ust_markov::testutil;

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

/// The cone filter written from its definition, one object at a time, on
/// a line of states (state `s` at `x = s`): the chain moves at most
/// `max_step` states per transition, so an object anchored at `a ≤ t_end`
/// with anchor centroid `c` and support radius `r` may be in the window's
/// span `[lo, hi]` by `t_end` only if `dist(c, [lo, hi]) ≤ (t_end − a) ·
/// max_step + r`.
fn brute_force_candidates(
    chain: &MarkovChain,
    objects: &[UncertainObject],
    window: &QueryWindow,
) -> Vec<usize> {
    let matrix = chain.matrix();
    let max_step = (0..chain.num_states())
        .flat_map(|i| matrix.row(i).0.iter().map(move |&j| (j as f64 - i as f64).abs()))
        .fold(0.0f64, f64::max);
    let states: Vec<usize> = window.states().iter().collect();
    let (lo, hi) = (states[0] as f64, states[states.len() - 1] as f64);
    let t_end = window.t_end();
    let reaches = |object: &UncertainObject| {
        let anchor = object.anchor();
        let (mut weighted, mut total) = (0.0, 0.0);
        for (s, p) in anchor.distribution().iter() {
            weighted += s as f64 * p;
            total += p;
        }
        let c = if total > 0.0 { weighted / total } else { 0.0 };
        let r = anchor.distribution().iter().map(|(s, _)| (s as f64 - c).abs()).fold(0.0, f64::max);
        let dist = (lo - c).max(0.0).max(c - hi);
        anchor.time() <= t_end && dist <= f64::from(t_end - anchor.time()) * max_step + r
    };
    (0..objects.len()).filter(|&i| reaches(&objects[i])).collect()
}

fn database(chain: &MarkovChain, objects: &[UncertainObject]) -> TrajectoryDatabase {
    let mut db = TrajectoryDatabase::new(chain.clone());
    db.insert_all(objects.iter().cloned()).unwrap();
    db
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

        // The exact engine over every object the window is valid for.
        let valid: Vec<usize> =
            (0..objects.len()).filter(|&i| objects[i].anchor().time() <= t_start).collect();
        let valid_objects: Vec<UncertainObject> =
            valid.iter().map(|&i| objects[i].clone()).collect();
        let exact = object_based::evaluate(
            &database(&chain, &valid_objects),
            &window,
            &EngineConfig::default(),
            &mut EvalStats::new(),
        )
        .unwrap();
        for (&idx, result) in valid.iter().zip(&exact) {
            prop_assert!(
                result.probability == 0.0 || candidates.binary_search(&idx).is_ok(),
                "object {} (P∃ = {}) was pruned", idx, result.probability
            );
        }
    }
}
