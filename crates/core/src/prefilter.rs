//! Reachability-cone and superlevel geometry: the per-object tests behind
//! the candidate filter.
//!
//! Before any matrix work, objects that *cannot possibly* reach the query
//! region in the available time can be discarded geometrically: the chain
//! moves an object at most `max_step_distance` per transition (the longest
//! spatial displacement of any non-zero transition), so an object anchored
//! at time `t_a` can reach at most radius `(t_end − t_a) · max_step`
//! around its anchor support by `t_end` — and an object first observed
//! after `t_end` cannot be in the window at all. `ConeAnchor::reaches` is
//! that test, written once; [`crate::index::SpatioTemporalIndex`] puts an
//! R-tree over the anchor centroids in front of it. A cone-pruned object
//! has `P∃ = 0` exactly, in every engine.
//!
//! A thresholded ∃ query over a window whose backward field is already
//! cached can discard more: an object's query-based `P∃` is
//! `Σₛ a(s)·h_t(s)`, a convex combination of field values over its anchor
//! support, so an object whose support misses the τ-superlevel set
//! `U_τ(t) = {s : h_t(s) ≥ τ·(1 − β)}` cannot reach `τ`. [`Superlevel`]
//! holds one bounding rectangle of `U_τ(t)` per snapshot time of the field,
//! and `ConeAnchor::meets` is the one test against it: a superlevel-pruned
//! object has `P∃ < τ` (not `0`), so the filter serves thresholds only, and
//! only from a warm field.
//!
//! Both filters are an *engineering extension* of the paper (which prunes
//! inside the matrices); they are conservative — never discard an object
//! the query would answer differently for — as verified against the exact
//! engines.

// On the answer path with the index it serves (see `index`).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use ust_markov::MarkovChain;
use ust_space::{Point2, Rect, StateSpace};

use crate::engine::query_based::BackwardField;
use crate::object::UncertainObject;
use crate::query::QueryWindow;

/// β, the relative margin of the superlevel filter: a state belongs to
/// `U_τ(t)` when its field value is at least `τ·(1 − β)`, not `τ`. The
/// margin absorbs every rounding between the cached field the filter reads
/// and the answer either strategy computes, with `u = 2⁻⁵³` the unit
/// roundoff:
///
/// * every value involved is a sum of non-negative products, so each
///   rounding is *relative*: a sum of `d` terms is within `d·u` of its
///   exact value, whatever the magnitudes;
/// * query-based, an object is answered from the same cached field: with
///   every anchor state below `τ(1 − β)`, the dot product over its `n`
///   anchor entries is below `τ(1 − β)·Σa·(1 + n·u)`, and the anchor's mass
///   `Σa` exceeds 1 by at most a few ulps (`n·u` bounds it too);
/// * object-based, the forward sweep computes the exact `P∃` within `k·d·u`
///   (`k` steps, rows and columns of at most `d` entries), and the cached
///   field is within `k·d·u` of the exact field;
///
/// so a pruned object's computed `P∃` stays below
/// `τ·(1 − β)·(1 + 2k·d·u + 2n·u)`, which is below `τ` while
/// `2k·d·u + 2n·u < β`, i.e. `k·d + n < β/(2u)` ≈ 4.5·10⁶. Neither strategy
/// can then accept it, and the accepted ids do not depend on the filter.
/// The bound is enforced, with a factor 2 to spare for the "few ulps":
/// [`Superlevel::of`] keeps no rectangle at an anchor time `t` with
/// `(t_end − t)·d + |S| > β/(4u)` ([`SUPERLEVEL_MAX_TERMS`]; `n ≤ |S|`), so
/// objects anchored there keep the cone test alone. The derived error
/// bound of the engines, once it exists, replaces this constant.
pub const SUPERLEVEL_MARGIN: f64 = 1e-9;

/// `β/(4u)` ≈ 2.25·10⁶: the largest `k·d + n` — horizon × widest row or
/// column ([`MarkovChain::max_line_nnz`]), plus anchor support — for which
/// [`SUPERLEVEL_MARGIN`] is proven to cover the rounding (`f64::EPSILON` is
/// `2u`).
pub const SUPERLEVEL_MAX_TERMS: f64 = SUPERLEVEL_MARGIN / (2.0 * f64::EPSILON);

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

    /// The one superlevel test: whether the anchor support's disc meets
    /// `rect`, the bounding rectangle of `U_τ` at the anchor time. A
    /// support with a state inside `rect` lies within `radius` of the
    /// centroid, so a disc that misses the rectangle means a support that
    /// misses `U_τ`: every field value the object's answer weighs is below
    /// `τ·(1 − β)`.
    pub fn meets(&self, rect: &Rect) -> bool {
        rect.distance_to_point(&self.centroid) <= self.radius
    }
}

/// Bounding rectangle of `states` under the embedding of `space` (empty
/// when there are none).
pub(crate) fn bounding_rect<S: StateSpace + ?Sized>(
    space: &S,
    states: impl Iterator<Item = usize>,
) -> Rect {
    states.fold(Rect::empty(), |rect, s| rect.union(&Rect::point(space.location(s))))
}

/// The τ-superlevel geometry of one backward ∃ field: for each snapshot
/// time `t`, one bounding rectangle of `U_τ(t) = {s : h_t(s) ≥ τ·(1 − β)}`
/// ([`SUPERLEVEL_MARGIN`]), grown by `S▫` when `t ∈ T▫` — an anchor state
/// inside the window at a query time counts with probability 1 (footnote
/// 3), whatever the snapshot holds there.
///
/// An object anchored at a time without a rectangle is not covered: the
/// index gives it the cone test alone. That is every time the field has no
/// snapshot at, and every time too far below `t_end` for the margin's
/// proof ([`SUPERLEVEL_MAX_TERMS`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Superlevel {
    /// `(t, rectangle of U_τ(t))`, ascending by `t`.
    rects: Vec<(u32, Rect)>,
}

impl Superlevel {
    /// The superlevel rectangles of `field` — an ∃ field of `window` under
    /// `chain` — at threshold `tau`: one scan of each covered snapshot's
    /// span.
    pub fn of<S: StateSpace + ?Sized>(
        field: &BackwardField,
        window: &QueryWindow,
        tau: f64,
        chain: &MarkovChain,
        space: &S,
    ) -> Superlevel {
        let level = tau * (1.0 - SUPERLEVEL_MARGIN);
        let (width, states) = (chain.max_line_nnz() as f64, chain.num_states() as f64);
        let proven = |t: u32| {
            f64::from(window.t_end().saturating_sub(t)) * width + states <= SUPERLEVEL_MAX_TERMS
        };
        let inside = bounding_rect(space, window.states().iter());
        let rects = field
            .times()
            .filter(|&t| proven(t))
            .filter_map(|t| {
                let (offset, values) = field.at(t)?.first()?.span();
                let above =
                    values.iter().enumerate().filter(|(_, &h)| h >= level).map(|(i, _)| offset + i);
                let rect = bounding_rect(space, above);
                Some((t, if window.time_in_window(t) { rect.union(&inside) } else { rect }))
            })
            .collect();
        Superlevel { rects }
    }

    /// The rectangle of `U_τ(t)`, or `None` when the field has no snapshot
    /// at `t`.
    pub(crate) fn at(&self, t: u32) -> Option<&Rect> {
        let i = self.rects.binary_search_by_key(&t, |&(time, _)| time).ok()?;
        Some(&self.rects[i].1)
    }

    /// The rectangle every one of `times` has inside its own — `None` when
    /// one of them has no rectangle. An anchor at any of `times` whose
    /// centroid lies within its radius of this rectangle meets its own.
    pub(crate) fn common(&self, times: &[u32]) -> Option<Rect> {
        let everywhere = Rect::from_bounds(f64::MIN, f64::MIN, f64::MAX, f64::MAX);
        times.iter().try_fold(everywhere, |common, &t| Some(common.intersection(self.at(t)?)))
    }

    /// The geometry of several models' fields at once: per time, the union
    /// of both rectangles — kept only where both fields have a snapshot,
    /// since an object of either model may be anchored there.
    pub(crate) fn union(&self, other: &Superlevel) -> Superlevel {
        let rects = self
            .rects
            .iter()
            .filter_map(|&(t, rect)| Some((t, rect.union(other.at(t)?))))
            .collect();
        Superlevel { rects }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::QueryProcessor;
    use crate::index::SpatioTemporalIndex;
    use crate::observation::Observation;
    use crate::query::QueryWindow;
    use crate::query::{Query, Strategy};
    use crate::testkit::line_chain;
    use ust_markov::{CooBuilder, MarkovChain};
    use ust_space::{LineSpace, TimeSet};

    /// The index's survivors of `window` over `db` on a line of `n` states.
    fn candidates(db: &TrajectoryDatabase, n: usize, window: &QueryWindow) -> Vec<usize> {
        SpatioTemporalIndex::build(db, Arc::new(LineSpace::new(n))).candidates(window)
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
        let spec = Query::exists().window(window.clone()).strategy(Strategy::ObjectBased);
        let exact = QueryProcessor::new(&db).execute(&spec.build().unwrap()).unwrap();
        let exact = exact.probabilities().unwrap();
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
    fn anchors_past_the_proven_horizon_keep_the_cone_test_alone() {
        // State 0 jumps anywhere (a row of n entries), every other state
        // stays put: `d = n`, so the margin is proven for `k·n + n` up to
        // `SUPERLEVEL_MAX_TERMS` — here k ≤ 2 249 steps.
        let n = 1000;
        let mut b = CooBuilder::new(n, n);
        for j in 0..n {
            b.push(0, j, 1.0).unwrap();
        }
        for i in 1..n {
            b.push(i, i, 1.0).unwrap();
        }
        let chain = MarkovChain::from_weights(b.build()).unwrap();
        assert_eq!(chain.max_line_nnz(), n);
        let t_end = 2300;
        let (far, near) = (0, 2000);
        let mut db = TrajectoryDatabase::new(chain.clone());
        for (id, t) in [far, near].into_iter().enumerate() {
            let fix = Observation::exact(t, n, 0).unwrap();
            db.insert(UncertainObject::with_single_observation(id as u64, fix)).unwrap();
        }
        let window = QueryWindow::from_states(n, [1usize], TimeSet::at(t_end)).unwrap();
        let field =
            BackwardField::compute(&chain, &window, &[far, near], &mut Default::default()).unwrap();
        let space = LineSpace::new(n);
        let superlevel = Superlevel::of(&field, &window, 0.5, &chain, &space);
        assert!(f64::from(t_end - far) * n as f64 + n as f64 > SUPERLEVEL_MAX_TERMS);
        assert_eq!(superlevel.at(far), None);
        assert_eq!(superlevel.at(near), Some(&Rect::point(space.location(1))));

        // Both objects sit at state 0 (P∃ ≈ 1/n): the covered one is
        // superlevel-pruned, the other survives on its cone alone.
        let index = SpatioTemporalIndex::build(&db, Arc::new(space));
        let probe = index.probe(&window, Some(&superlevel));
        assert_eq!(probe.survivors, vec![0]);
        assert_eq!(probe.superlevel_pruned, vec![1]);
    }

    #[test]
    fn empty_database_yields_no_candidates() {
        let db = TrajectoryDatabase::new(line_chain(10));
        let window = QueryWindow::from_states(10, [5usize], TimeSet::at(1)).unwrap();
        assert!(candidates(&db, 10, &window).is_empty());
    }
}
