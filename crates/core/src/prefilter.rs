//! Reachability-cone geometry: the per-object test behind the candidate filter.
//!
//! Before any matrix work, objects that *cannot possibly* reach the query
//! region in the available time can be discarded geometrically: the chain
//! moves an object at most `max_step_distance` per transition (the longest
//! spatial displacement of any non-zero transition), so an object anchored
//! at time `t_a` can reach at most radius `(t_end − t_a) · max_step`
//! around its anchor support by `t_end` — and an object first observed
//! after `t_end` cannot be in the window at all. `ConeAnchor::reaches` is
//! that test, written once; [`crate::index::SpatioTemporalIndex`] puts an
//! R-tree over the anchor centroids in front of it.
//!
//! The filter is an *engineering extension* of the paper (which prunes
//! inside the matrices); it is conservative — never discards an object with
//! non-zero probability — as verified against the exact engines.

// On the answer path with the index it serves (see `index`).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use ust_markov::MarkovChain;
use ust_space::{Point2, Rect, StateSpace};

use crate::object::UncertainObject;

/// The largest spatial displacement of any single transition of `chain`
/// under the embedding of `space`.
pub fn max_step_distance<S: StateSpace + ?Sized>(chain: &MarkovChain, space: &S) -> f64 {
    let mut max_d2: f64 = 0.0;
    for i in 0..chain.num_states() {
        let from = space.location(i);
        let (cols, _) = chain.matrix().row(i);
        for &j in cols {
            let d2 = from.distance_sq(&space.location(j as usize));
            if d2 > max_d2 {
                max_d2 = d2;
            }
        }
    }
    max_d2.sqrt()
}

/// Per-object cone geometry: where the anchor support sits and how far the
/// object can have strayed from it by any given time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConeAnchor {
    /// Weighted centroid of the anchor support.
    pub centroid: Point2,
    /// Time of the anchoring observation: the object's first
    /// ([`UncertainObject::anchor`]).
    pub anchor_time: u32,
    /// Radius of the anchor support around its centroid.
    pub radius: f64,
}

impl ConeAnchor {
    /// The cone geometry of `object` under the embedding of `space`.
    pub fn of<S: StateSpace + ?Sized>(object: &UncertainObject, space: &S) -> ConeAnchor {
        let dist = object.initial_distribution();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut total = 0.0;
        for (s, p) in dist.iter() {
            let loc = space.location(s);
            cx += loc.x * p;
            cy += loc.y * p;
            total += p;
        }
        if total > 0.0 {
            cx /= total;
            cy /= total;
        }
        let centroid = Point2::new(cx, cy);
        let radius =
            dist.iter().map(|(s, _)| space.location(s).distance(&centroid)).fold(0.0f64, f64::max);
        ConeAnchor { centroid, anchor_time: object.anchor().time(), radius }
    }

    /// The `t_end`-independent part of the reach: for an anchor at or
    /// before `t_end`, `cone + radius = t_end · max_step + slack`.
    pub fn slack(&self, max_step: f64) -> f64 {
        self.radius - f64::from(self.anchor_time) * max_step
    }

    /// The one cone-and-liveness test: whether the object may be inside
    /// `rect` at some time up to `t_end`. It must have been observed by
    /// then (the chain cannot reach backwards), and after `k` steps it has
    /// moved at most `k · max_step` from its anchor support, so anything
    /// further from the (closed) rectangle than cone + support radius
    /// cannot intersect the window.
    pub fn reaches(&self, rect: &Rect, t_end: u32, max_step: f64) -> bool {
        self.anchor_time <= t_end
            && rect.distance_to_point(&self.centroid)
                <= f64::from(t_end - self.anchor_time) * max_step + self.radius
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::{object_based, EngineConfig};
    use crate::index::SpatioTemporalIndex;
    use crate::observation::Observation;
    use crate::query::QueryWindow;
    use ust_markov::{CooBuilder, MarkovChain};
    use ust_space::{LineSpace, TimeSet};

    /// The index's survivors of `window` over `db` on a line of `n` states.
    fn candidates(db: &TrajectoryDatabase, n: usize, window: &QueryWindow) -> Vec<usize> {
        SpatioTemporalIndex::build(db, Arc::new(LineSpace::new(n))).candidates(window)
    }

    /// A random-walk chain on a line: state i moves to i±1 (clipped).
    fn line_chain(n: usize) -> MarkovChain {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            let left = i.saturating_sub(1);
            let right = (i + 1).min(n - 1);
            if left == right {
                b.push(i, i, 1.0).unwrap();
            } else {
                b.push(i, left, 0.5).unwrap();
                b.push(i, right, 0.5).unwrap();
            }
        }
        MarkovChain::from_weights(b.build()).unwrap()
    }

    fn db_on_line(n: usize, positions: &[usize]) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new(line_chain(n));
        for (i, &s) in positions.iter().enumerate() {
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::exact(0, n, s).unwrap(),
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn max_step_distance_of_line_walk() {
        let space = LineSpace::new(50);
        let chain = line_chain(50);
        assert!((max_step_distance(&chain, &space) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cone_filter_is_conservative() {
        // Objects at 0, 10, 25, 49; window around states 20..=22 at t ≤ 5.
        let n = 50;
        let db = db_on_line(n, &[0, 10, 25, 49]);
        let window = QueryWindow::from_states(n, 20usize..=22, TimeSet::interval(3, 5)).unwrap();
        let survivors = candidates(&db, n, &window);

        // Exact check: every object with non-zero probability must survive.
        let exact =
            object_based::evaluate(&db, &window, &EngineConfig::default(), &mut Default::default())
                .unwrap();
        for (idx, r) in exact.iter().enumerate() {
            if r.probability > 0.0 {
                assert!(
                    survivors.contains(&idx),
                    "object {idx} (p = {}) was wrongly pruned",
                    r.probability
                );
            }
        }
        // And the far-away objects (0 and 49, > 5 steps from the window)
        // must be pruned.
        assert!(!survivors.contains(&0));
        assert!(!survivors.contains(&3));
        assert!(survivors.contains(&2));
    }

    #[test]
    fn anchor_time_shrinks_the_cone() {
        let n = 50;
        let mut db = TrajectoryDatabase::new(line_chain(n));
        // Same state, but anchored at t=4 → only 1 step of slack.
        db.insert(UncertainObject::with_single_observation(
            0,
            Observation::exact(4, n, 10).unwrap(),
        ))
        .unwrap();
        let window = QueryWindow::from_states(n, [20usize], TimeSet::at(5)).unwrap();
        assert!(candidates(&db, n, &window).is_empty());
    }

    #[test]
    fn uncertain_anchor_radius_is_respected() {
        let n = 50;
        let mut db = TrajectoryDatabase::new(line_chain(n));
        // Anchor spread over states 5 and 15: centroid 10, radius 5.
        db.insert(UncertainObject::with_single_observation(
            0,
            Observation::uncertain(
                0,
                ust_markov::SparseVector::from_pairs(n, [(5, 0.5), (15, 0.5)]).unwrap(),
            )
            .unwrap(),
        ))
        .unwrap();
        // Window at state 18, t=3: reachable from 15 (distance 3).
        let window = QueryWindow::from_states(n, [18usize], TimeSet::at(3)).unwrap();
        assert_eq!(candidates(&db, n, &window), vec![0]);
    }

    #[test]
    fn empty_database_yields_no_candidates() {
        let db = TrajectoryDatabase::new(line_chain(10));
        let window = QueryWindow::from_states(10, [5usize], TimeSet::at(1)).unwrap();
        assert!(candidates(&db, 10, &window).is_empty());
    }
}
