//! The query-based fan-out: every survivor's dot product, walked in store
//! order when the survivors lie dense, in blocks of
//! [`plan::FETCH_BLOCK`] when they lie sparse ([`plan::sparse_survivors`]),
//! and — for a threshold — compared with τ where it is computed. Whatever
//! the walk, every answer equals the reference configuration's (one
//! thread, batch 1, no prefilter: every object's dot product, in store
//! order) to the bit, filtered by `≥ τ` or sorted by `(p desc, id asc)`
//! where the decorator asks.
//!
//! Stores: near objects (their anchors can reach the window) among far
//! ones (the index prunes them), spaced [`GAP`] slots apart (sparse),
//! packed at the front of the store (dense), or spaced and mixing single-
//! and multi-observation objects. Near counts walk the block edges: 0, 1,
//! a block less one, a block, a block and one, two blocks and one.

mod common;

use std::sync::Arc;

use common::reference;
use ust::prelude::*;
use ust_core::engine::{plan, PrefilterMode};
use ust_core::{ObjectKDistribution, ObjectProbability, QuerySpec};
use ust_oracle::testutil;
use ust_space::TimeSet;

/// Line states.
const N: usize = 60;
/// Objects in every store.
const M: usize = 400;
/// Store slots from one near object to the next in a spaced store.
const GAP: usize = 12;
/// Near counts: the block edges.
const COUNTS: [usize; 6] = [0, 1, 15, 16, 17, 33];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    Sparse,
    Dense,
    /// Spaced like `Sparse`; every other run of `GAP` objects carries a
    /// second fix, so every other near object does.
    Mixed,
}

fn window() -> QueryWindow {
    QueryWindow::from_states(N, 20..26, TimeSet::interval(3, 5)).unwrap()
}

/// The store and the slots of its near objects, ascending.
fn store(layout: Layout, near: usize) -> (TrajectoryDatabase, Vec<usize>) {
    let mut rng = testutil::rng(7 + near as u64);
    let chain = MarkovChain::from_csr(testutil::random_banded_stochastic(&mut rng, N, 3, 2));
    let mut db = TrajectoryDatabase::new(chain.unwrap());
    let slots: Vec<usize> = match layout {
        Layout::Dense => (0..near).collect(),
        Layout::Sparse | Layout::Mixed => (0..near).map(|i| 3 + i * GAP).collect(),
    };
    for slot in 0..M {
        // Near anchors sit around the window; far ones cannot reach it by
        // its end, two states a step at most.
        let (lo, t) = if slots.contains(&slot) { (17, slot as u32 % 2) } else { (50, 0) };
        let weights = testutil::random_distribution(&mut rng, 8, 3);
        let dist = SparseVector::from_pairs(N, weights.iter().map(|(s, w)| (lo + s, w))).unwrap();
        let mut fixes = vec![Observation::uncertain(t, dist).unwrap()];
        if layout == Layout::Mixed && (slot / GAP).is_multiple_of(2) {
            fixes.push(Observation::exact(9, N, lo + slot % 8).unwrap());
        }
        db.insert(UncertainObject::new(slot as u64, fixes).unwrap()).unwrap();
    }
    db.attach_space(Arc::new(LineSpace::new(N))).unwrap();
    (db, slots)
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig::default().with_num_threads(threads).with_prefilter(PrefilterMode::On)
}

fn qb(query: QueryBuilder, ids: Option<&[u64]>) -> QuerySpec {
    let query = query.window(window()).strategy(Strategy::QueryBased);
    match ids {
        Some(ids) => query.objects(ids.iter().copied()),
        None => query,
    }
    .build()
    .unwrap()
}

fn bits(rows: &[ObjectProbability]) -> Vec<(u64, u64)> {
    rows.iter().map(|r| (r.object_id, r.probability.to_bits())).collect()
}

fn dist_bits(rows: &[ObjectKDistribution]) -> Vec<(u64, Vec<u64>)> {
    rows.iter()
        .map(|d| (d.object_id, d.probabilities.iter().map(|p| p.to_bits()).collect()))
        .collect()
}

fn accepted(rows: &[ObjectProbability], tau: f64) -> Vec<u64> {
    rows.iter().filter(|r| r.probability >= tau).map(|r| r.object_id).collect()
}

fn top(rows: &[ObjectProbability], k: usize) -> Vec<(u64, u64)> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| {
        b.probability.total_cmp(&a.probability).then(a.object_id.cmp(&b.object_id))
    });
    sorted.truncate(k);
    bits(&sorted)
}

fn within(rows: &[ObjectProbability], ids: &[u64]) -> Vec<ObjectProbability> {
    rows.iter().filter(|r| ids.contains(&r.object_id)).cloned().collect()
}

#[test]
fn the_gate_walks_spaced_survivors_in_blocks_and_packed_ones_in_store_order() {
    assert!(!plan::sparse_survivors(&[]));
    assert!(!plan::sparse_survivors(&[40]), "one survivor has no spacing");
    assert!(plan::sparse_survivors(&[0, 16]), "a gap of 8 per survivor is sparse");
    assert!(!plan::sparse_survivors(&[0, 15]));
    for near in COUNTS.into_iter().filter(|&near| near > 1) {
        for (layout, blocked) in
            [(Layout::Sparse, true), (Layout::Mixed, true), (Layout::Dense, false)]
        {
            let (db, slots) = store(layout, near);
            // The survivors the whole-store read fans out over are exactly
            // the near objects: the index keeps every one of them.
            let spec = qb(Query::exists(), None);
            let explained = QueryProcessor::with_config(&db, config(1)).explain(&spec).unwrap();
            assert_eq!(explained.candidates_examined, near, "{layout:?} × {near}");
            assert_eq!(plan::sparse_survivors(&slots), blocked, "{layout:?} × {near}");
            // Each of two shards takes the same side.
            let (head, tail) = slots.split_at(slots.len().div_ceil(2));
            assert_eq!(plan::sparse_survivors(head), blocked, "{layout:?} × {near}");
            assert_eq!(plan::sparse_survivors(tail), blocked, "{layout:?} × {near}");
        }
    }
}

#[test]
fn the_mixed_store_holds_both_arms() {
    let (db, slots) = store(Layout::Mixed, 17);
    let multi = |slot: &usize| db.object(*slot).unwrap().has_multiple_observations();
    assert!(slots.iter().any(multi));
    assert!(!slots.iter().all(multi));
    assert!(db.objects().iter().filter(|o| o.has_multiple_observations()).count() > M / 3);
}

#[test]
fn every_walk_answers_as_the_reference_drivers() {
    for layout in [Layout::Sparse, Layout::Dense, Layout::Mixed] {
        for near in COUNTS {
            let (db, slots) = store(layout, near);
            let near_ids: Vec<u64> = slots.iter().map(|&slot| slot as u64).collect();
            let reference = |query: QueryBuilder| {
                let spec = query.window(window()).strategy(Strategy::QueryBased);
                reference(&db, spec).unwrap()
            };
            let exists = reference(Query::exists()).probabilities().unwrap().to_vec();
            let forall = reference(Query::forall()).probabilities().unwrap().to_vec();
            let levels = reference(Query::ktimes(1)).distributions().unwrap().to_vec();
            // τ at a computed probability's exact bits: a near object's.
            let tau = slots.get(near / 2).map_or(0.5, |&slot| exists[slot].probability);
            assert!(
                near == 0 || tau > 0.0,
                "{layout:?} × {near}: the near objects reach the window"
            );
            for threads in [1, 2] {
                let processor = QueryProcessor::with_config(&db, config(threads));
                let run = |spec: QuerySpec| processor.execute(&spec).unwrap();
                let case = format!("{layout:?} × {near} near × {threads} threads");

                let all = run(qb(Query::exists(), None));
                assert_eq!(bits(all.probabilities().unwrap()), bits(&exists), "{case}: ∃");
                let ids = run(qb(Query::exists().threshold(tau), None));
                assert_eq!(ids.ids().unwrap(), accepted(&exists, tau), "{case}: ∃ ≥ τ");
                assert!(near == 0 || ids.ids().unwrap().contains(&near_ids[near / 2]), "{case}");
                let zero = run(qb(Query::exists().threshold(0.0), None));
                assert_eq!(zero.ids().unwrap(), accepted(&exists, 0.0), "{case}: ∃ ≥ 0");
                assert_eq!(zero.ids().unwrap().len(), M, "{case}: τ = 0 accepts the pruned too");
                let ranked = run(qb(Query::exists().top_k(5), None));
                let ranked: Vec<_> = ranked
                    .ranked()
                    .unwrap()
                    .iter()
                    .map(|r| (r.object_id, r.probability.to_bits()))
                    .collect();
                assert_eq!(ranked, top(&exists, 5), "{case}: ∃ top-5");

                if near == 0 {
                    continue;
                }
                // Over the near objects alone: every predicate's fan-out
                // walks them, the index armed or not.
                let subset = Some(near_ids.as_slice());
                let some = run(qb(Query::exists(), subset));
                assert_eq!(
                    bits(some.probabilities().unwrap()),
                    bits(&within(&exists, &near_ids)),
                    "{case}"
                );
                let some_ids = run(qb(Query::exists().threshold(tau), subset));
                assert_eq!(
                    some_ids.ids().unwrap(),
                    accepted(&within(&exists, &near_ids), tau),
                    "{case}"
                );
                let some_top = run(qb(Query::exists().top_k(4), subset));
                let some_top: Vec<_> = some_top
                    .ranked()
                    .unwrap()
                    .iter()
                    .map(|r| (r.object_id, r.probability.to_bits()))
                    .collect();
                assert_eq!(some_top, top(&within(&exists, &near_ids), 4), "{case}: ∃ top-4");
                let always = run(qb(Query::forall(), subset));
                assert_eq!(
                    bits(always.probabilities().unwrap()),
                    bits(&within(&forall, &near_ids)),
                    "{case}: ∀"
                );
                let always_ids = run(qb(Query::forall().threshold(tau / 4.0), subset));
                let expected = accepted(&within(&forall, &near_ids), tau / 4.0);
                assert_eq!(always_ids.ids().unwrap(), expected, "{case}: ∀ ≥ τ");
                let visits = run(qb(Query::ktimes(1).probabilities(), subset));
                let expected: Vec<_> =
                    levels.iter().filter(|d| near_ids.contains(&d.object_id)).cloned().collect();
                assert_eq!(
                    dist_bits(visits.distributions().unwrap()),
                    dist_bits(&expected),
                    "{case}: k-times"
                );
            }
        }
    }
}
