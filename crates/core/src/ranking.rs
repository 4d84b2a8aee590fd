//! Top-k probability ranking.
//!
//! "Find the k icebergs most likely to enter the shipping lane" — a ranking
//! variant of the PST∃Q that uncertain databases commonly expose alongside
//! threshold queries (cf. the probabilistic ranking literature the paper
//! cites, e.g. Bernecker et al., TKDE 2010). The planner dispatches a
//! [`crate::query::Decorator::TopK`] spec one of two ways:
//!
//! * query-based — compute every probability via the (cheap) query-based
//!   engine and select the k largest; the baseline.
//! * object-based — evaluation with bound-based pruning: the pipeline's
//!   reach trimming leaves in each vector only the mass that can still hit,
//!   so an object's upper bound is `⊤ + alive`; an object with nothing
//!   alive at its anchor is screened out on the spot, and propagation runs
//!   only while the upper bound still beats the current k-th best lower
//!   bound. With a selective window most objects are dismissed before (or
//!   shortly after) their first transition. Useful when objects follow *many distinct models* (where
//!   QB would need one backward pass per model) or when `k` is small.

// Iteration order never reaches a ranking: no hashed containers.
#![deny(clippy::disallowed_types)]

use ust_markov::PropagationVector;

use crate::engine::object_based::{ForwardRule, Swept};
use crate::engine::reach::ReachRule;
use crate::query::{unit_clamp, ObjectProbability};
use crate::stats::EvalStats;

/// One ranked result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedObject {
    /// The object's identifier.
    pub object_id: u64,
    /// Its PST∃Q probability.
    pub probability: f64,
}

/// Selects the `k` largest probabilities, ties broken by ascending id.
pub(crate) fn select_topk(mut all: Vec<ObjectProbability>, k: usize) -> Vec<RankedObject> {
    all.sort_by(|a, b| b.probability.total_cmp(&a.probability).then(a.object_id.cmp(&b.object_id)));
    all.into_iter()
        .take(k)
        .map(|r| RankedObject { object_id: r.object_id, probability: r.probability })
        .collect()
}

/// The bound-pruned top-k rule. It carries the `k` best lower bounds seen
/// so far (one list per shard, tightened after every chunk, so
/// later chunks prune against the tighter bound): the ∃ rule accumulates,
/// and after every timestamp an object whose upper bound `⊤ + alive` can
/// no longer beat the k-th best drops out of its batch. A dismissed object
/// answers `None`; survivor probabilities are exact, so
/// [`select_topk`] over the survivors of all shards is the ranking — at
/// every batch size and shard layout.
#[derive(Debug, Clone)]
pub(crate) struct TopK {
    k: usize,
    /// The `k` largest survivor probabilities so far, descending.
    best: Vec<f64>,
}

impl TopK {
    /// The rule for the `k` most probable objects.
    pub(crate) fn new(k: usize) -> TopK {
        TopK { k, best: Vec::with_capacity(k + 1) }
    }
}

impl ForwardRule for TopK {
    type Output = Option<ObjectProbability>;
    const REACH: ReachRule = ReachRule::Exists;

    fn retires(&self, hit: f64, rows: &[PropagationVector]) -> bool {
        let upper = unit_clamp(hit + rows[0].sum());
        let full = self.best.len() >= self.k;
        let kth_bound = self.best.last().copied().filter(|_| full).unwrap_or(0.0);
        // Dismiss an object that can no longer *strictly* beat the k-th
        // candidate, or that can never reach the window at all. The strict
        // comparison keeps boundary ties alive in every batch size, so
        // exact ties are always resolved by the deterministic id tie-break
        // — the final ranking is independent of batch composition.
        upper == 0.0 || upper < kth_bound
    }

    fn finish(&mut self, swept: Swept<'_>, stats: &mut EvalStats) -> Option<ObjectProbability> {
        match swept.retired_at {
            // Screened out by the instant upper bound, before any step.
            Some(t) if t == swept.object.anchor().time() => {
                stats.objects_pruned += 1;
                None
            }
            // Dismissed mid-propagation: cannot beat the k-th candidate.
            Some(_) => {
                stats.early_terminations += 1;
                None
            }
            None => {
                let probability = unit_clamp(swept.hit);
                let at = self.best.partition_point(|&p| p >= probability);
                self.best.insert(at, probability);
                self.best.truncate(self.k);
                Some(ObjectProbability { object_id: swept.object.id(), probability })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::QueryProcessor;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::Strategy::{self, ObjectBased, QueryBased};
    use crate::query::{Query, QueryAnswer, QueryWindow};
    use crate::testkit::paper_chain;
    use ust_markov::MarkovChain;
    use ust_space::TimeSet;

    /// The top-k answer of `execute` under an explicit strategy, with the
    /// evaluation counters it accumulated.
    fn topk(
        db: &TrajectoryDatabase,
        window: &QueryWindow,
        k: usize,
        strategy: Strategy,
    ) -> (Vec<RankedObject>, EvalStats) {
        let spec = Query::exists().window(window.clone()).top_k(k).strategy(strategy).build();
        let mut stats = EvalStats::new();
        match QueryProcessor::new(db).execute_with_stats(&spec.unwrap(), &mut stats).unwrap() {
            QueryAnswer::Ranked(ranked) => (ranked, stats),
            other => panic!("top-k must rank, got {other:?}"),
        }
    }

    fn three_object_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new(paper_chain());
        for (id, s) in [(10u64, 0usize), (20, 1), (30, 2)] {
            db.insert(UncertainObject::with_single_observation(
                id,
                Observation::exact(0, 3, s).unwrap(),
            ))
            .unwrap();
        }
        db
    }

    fn window() -> QueryWindow {
        QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap()
    }

    #[test]
    fn topk_orders_by_probability() {
        // Exact probabilities: id 10 → 0.96, id 20 → 0.864, id 30 → 0.928.
        let db = three_object_db();
        let (top2, _) = topk(&db, &window(), 2, QueryBased);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].object_id, 10);
        assert_eq!(top2[1].object_id, 30);
        assert!((top2[0].probability - 0.96).abs() < 1e-12);
    }

    #[test]
    fn both_strategies_agree() {
        let db = three_object_db();
        for k in 0..=4usize {
            let (qb, _) = topk(&db, &window(), k, QueryBased);
            let (ob, _) = topk(&db, &window(), k, ObjectBased);
            assert_eq!(qb.len(), ob.len(), "k = {k}");
            for (a, b) in qb.iter().zip(&ob) {
                assert_eq!(a.object_id, b.object_id, "k = {k}");
                assert!((a.probability - b.probability).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn agreement_on_random_dataset() {
        let chain = ust_oracle::testutil::random_chain(3, 100, 4);
        let mut rng = ust_oracle::testutil::rng(4);
        let mut db = TrajectoryDatabase::new(chain);
        for id in 0..40u64 {
            let dist = ust_oracle::testutil::random_distribution(&mut rng, 100, 3);
            db.insert(UncertainObject::with_single_observation(
                id,
                Observation::uncertain(0, dist).unwrap(),
            ))
            .unwrap();
        }
        let window = QueryWindow::from_states(100, 10usize..=14, TimeSet::interval(3, 6)).unwrap();
        let (qb, _) = topk(&db, &window, 5, QueryBased);
        let (ob, _) = topk(&db, &window, 5, ObjectBased);
        assert_eq!(qb.len(), 5);
        for (a, b) in qb.iter().zip(&ob) {
            assert_eq!(a.object_id, b.object_id);
            assert!((a.probability - b.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn pruning_actually_skips_work() {
        // A line chain where only nearby objects can reach the window.
        let n = 60;
        let mut b = ust_markov::CooBuilder::new(n, n);
        for i in 0..n {
            if i + 1 < n {
                b.push(i, i + 1, 1.0).unwrap();
            } else {
                b.push(i, i, 1.0).unwrap();
            }
        }
        let chain = MarkovChain::from_csr(b.build()).unwrap();
        let mut db = TrajectoryDatabase::new(chain);
        for id in 0..n as u64 {
            db.insert(UncertainObject::with_single_observation(
                id,
                Observation::exact(0, n, id as usize).unwrap(),
            ))
            .unwrap();
        }
        // Window at states [40, 42] over times [1, 3]: only objects at
        // 37..=41 can hit it.
        let window = QueryWindow::from_states(n, 40usize..=42, TimeSet::interval(1, 3)).unwrap();
        let (top, stats) = topk(&db, &window, 3, ObjectBased);
        assert_eq!(top.len(), 3);
        for r in &top {
            assert!((r.probability - 1.0).abs() < 1e-12);
        }
        assert!(
            stats.objects_pruned > 40,
            "most objects should be dismissed instantly, pruned = {}",
            stats.objects_pruned
        );
    }

    #[test]
    fn k_zero_and_empty_db() {
        let db = three_object_db();
        assert!(topk(&db, &window(), 0, ObjectBased).0.is_empty());
        let empty = TrajectoryDatabase::new(paper_chain());
        assert!(topk(&empty, &window(), 3, ObjectBased).0.is_empty());
        assert!(topk(&empty, &window(), 3, QueryBased).0.is_empty());
    }
}
