//! The spatio-temporal candidate index: the filter step in front of the
//! planner's refine step.
//!
//! One pruning structure over one database snapshot: an R-tree over the
//! objects' reachability-cone anchors ([`crate::prefilter`]) — which
//! objects can possibly be inside the query region by `t_end`. Liveness —
//! the object has been observed by `t_end`; the motion model extrapolates
//! indefinitely past the last observation, so that is the whole temporal
//! test — is part of the same per-anchor predicate, `ConeAnchor::reaches`,
//! which is the only place either comparison is written. A cone-pruned
//! object has `P∃ = 0` exactly.
//!
//! A thresholded ∃ query over a window whose backward field is cached may
//! narrow the cone's survivors in the same R-tree pass
//! ([`SpatioTemporalIndex::probe`]): an object anchored at a time the
//! field has a [`Superlevel`] rectangle for must also meet that rectangle
//! (`ConeAnchor::meets`), or its `P∃` is below `τ`. That guarantee serves
//! thresholds only, and only from a warm field; objects anchored at times
//! without a rectangle keep the cone test alone.
//!
//! The index is built lazily per snapshot via
//! [`TrajectoryDatabase::spatial_index`] and maintained copy-on-write:
//! snapshots taken by async `submit` keep the index they were built with,
//! while mutations of the source database update it **incrementally** — the
//! bulk-built structures stay immutable behind a shared `Arc` and mutated
//! or inserted objects live in a small sorted *overlay* of the same anchors,
//! tested by the same predicate. A writer that holds the only handle to
//! the index updates the overlay in place, in O(log overlay); one that
//! shares it — with a snapshot, an in-flight query or a caller's
//! `spatial_index()` handle — updates a copy
//! ([`SpatioTemporalIndex::with_updated`]), and both run the same update.
//! Once the overlay outgrows [`SpatioTemporalIndex::wants_compaction`]'s
//! threshold the writer drops the index and the next read rebuilds it in
//! bulk (compaction).
//!
//! A probe ([`SpatioTemporalIndex::probe`]) costs what it keeps: hits
//! go into a bitset of `⌈|D|/64⌉` words and come back ascending, word by
//! word, so a selective window pays the words, the visited R-tree leaves
//! and its survivors, never a pass over `|D|` entries. The survivors are
//! the planner's one candidate set; it validates and groups them once per
//! query and `refine` reuses the groups ([`crate::engine::plan`]).
//!
//! [`TrajectoryDatabase::spatial_index`]: crate::database::TrajectoryDatabase::spatial_index

// The filter decides which objects are answered without evaluation — as
// exact zeros, or as below a threshold — so it sits on the answer path with
// the engines it feeds.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ust_space::{RTree, RTreeEntry, Rect, StateSpace};

use crate::database::TrajectoryDatabase;
use crate::object::UncertainObject;
use crate::prefilter::{bounding_rect, max_step_distance, ConeAnchor, Superlevel};
use crate::query::QueryWindow;

/// Overlay entries per base object below which incremental updates keep
/// extending the overlay; above it the writer compacts (full rebuild).
const OVERLAY_COMPACTION_FRACTION: usize = 8;

/// Overlay size the compaction threshold never drops below, so small
/// databases still amortize a handful of updates before rebuilding.
const OVERLAY_COMPACTION_MIN: usize = 16;

/// The immutable bulk-built portion of the index, `Arc`-shared between an
/// index and its incrementally updated successors.
struct IndexBase {
    /// Anchor centroids, keyed by database index.
    tree: RTree,
    /// Cone geometry per database index; overlay keys at or beyond its
    /// length are insertions, keys below it shadow stale entries.
    anchors: Vec<ConeAnchor>,
    /// The largest displacement of one transition of any model.
    max_step: f64,
    /// `max_a slack_a`: the `t_end`-independent part of the widest cone,
    /// so the coarse expansion radius is O(1) per probe instead of a fold
    /// over every anchor.
    max_slack: f64,
    /// `min_a slack_a`: the same for the *narrowest* cone, for accepting
    /// whole R-tree leaves that sit within even the smallest reach.
    min_slack: f64,
    /// Latest anchor time over `anchors` (0 when empty).
    max_anchor_time: u32,
    /// The distinct anchor times over `anchors`, ascending.
    anchor_times: Vec<u32>,
    /// `min_a radius_a`: the narrowest anchor support, for accepting whole
    /// R-tree leaves that sit inside every superlevel rectangle.
    min_radius: f64,
    space: Arc<dyn StateSpace + Send + Sync>,
}

/// The reachability-cone index over one database snapshot.
pub struct SpatioTemporalIndex {
    base: Arc<IndexBase>,
    /// Database indices whose geometry differs from the bulk build. Base
    /// results for these indices are stale; the overlay anchor decides.
    overlay: BTreeMap<usize, ConeAnchor>,
    /// Latest anchor time over the bulk build and the overlay (0 when
    /// empty), carried forward by `with_updated`.
    max_anchor_time: u32,
    num_objects: usize,
}

impl fmt::Debug for SpatioTemporalIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpatioTemporalIndex")
            .field("num_objects", &self.num_objects)
            .field("overlay_len", &self.overlay.len())
            .field("max_anchor_time", &self.max_anchor_time)
            .finish_non_exhaustive()
    }
}

impl SpatioTemporalIndex {
    /// Builds the index for all objects of `db` embedded in `space`.
    pub fn build(db: &TrajectoryDatabase, space: Arc<dyn StateSpace + Send + Sync>) -> Self {
        let max_step = db
            .models()
            .iter()
            .map(|chain| max_step_distance(chain.as_ref(), space.as_ref()))
            .fold(0.0f64, f64::max);
        let anchors: Vec<ConeAnchor> =
            db.objects().iter().map(|o| ConeAnchor::of(o, space.as_ref())).collect();
        let slacks = || anchors.iter().map(|a| a.slack(max_step));
        // A handful of distinct times, however many anchors: inserted in
        // place rather than collected, sorted and deduplicated.
        let mut anchor_times: Vec<u32> = Vec::new();
        for a in &anchors {
            if let Err(at) = anchor_times.binary_search(&a.anchor_time) {
                anchor_times.insert(at, a.anchor_time);
            }
        }
        let entries =
            anchors.iter().enumerate().map(|(id, a)| RTreeEntry { point: a.centroid, id });
        let base = IndexBase {
            tree: RTree::bulk_load(entries.collect()),
            max_step,
            max_slack: slacks().fold(f64::NEG_INFINITY, f64::max),
            min_slack: slacks().fold(f64::INFINITY, f64::min),
            max_anchor_time: anchor_times.last().copied().unwrap_or(0),
            anchor_times,
            min_radius: anchors.iter().map(|a| a.radius).fold(f64::INFINITY, f64::min),
            anchors,
            space,
        };
        SpatioTemporalIndex {
            max_anchor_time: base.max_anchor_time,
            base: Arc::new(base),
            overlay: BTreeMap::new(),
            num_objects: db.len(),
        }
    }

    /// A successor index in which the object at database index `idx` has
    /// the given (possibly new) geometry. The bulk structures are shared,
    /// only the overlay is copied, so an update costs O(overlay) instead of
    /// a rebuild. Handles both mutation (`idx` already covered) and
    /// insertion (`idx == num_objects()`).
    pub fn with_updated(&self, idx: usize, object: &UncertainObject) -> SpatioTemporalIndex {
        let mut next = SpatioTemporalIndex {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            max_anchor_time: self.max_anchor_time,
            num_objects: self.num_objects,
        };
        next.update(idx, object);
        next
    }

    /// [`SpatioTemporalIndex::with_updated`] applied to this index in
    /// place, in O(log overlay): the writer's path when it holds the only
    /// handle to the index.
    pub(crate) fn update(&mut self, idx: usize, object: &UncertainObject) {
        let anchor = ConeAnchor::of(object, self.base.space.as_ref());
        self.max_anchor_time = self.max_anchor_time.max(anchor.anchor_time);
        self.overlay.insert(idx, anchor);
        self.num_objects = self.num_objects.max(idx + 1);
    }

    /// True once the overlay has outgrown the point where linear overlay
    /// scans stop being cheaper than a bulk rebuild; the writer should drop
    /// the index and let the next read rebuild it.
    pub fn wants_compaction(&self) -> bool {
        self.overlay.len() >= compaction_size(self.base.anchors.len())
    }

    /// The identity of the bulk build this index overlays: an index
    /// updated in place or copied by [`SpatioTemporalIndex::with_updated`]
    /// keeps it, a rebuild (compaction, a new embedding) starts another.
    pub(crate) fn build_id(&self) -> IndexBuild {
        IndexBuild(Arc::downgrade(&self.base))
    }

    /// Number of objects mutated or inserted since the bulk build.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Number of objects the index covers (bulk build plus insertions).
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Latest first-observation time over all indexed objects (0 when the
    /// database is empty). Windows starting at or after this instant are
    /// guaranteed to pass per-object window validation, which is what
    /// licenses answering from pruned candidate sets without touching the
    /// pruned objects. Overlay anchors are monotone over the entries they
    /// shadow (ingest never moves an anchor backwards), so the running max
    /// [`SpatioTemporalIndex::with_updated`] carries is exact — O(1) here
    /// instead of a fold over the overlay on every whole-database query.
    pub fn max_anchor_time(&self) -> u32 {
        self.max_anchor_time
    }

    /// The embedding the index was built against.
    pub fn space(&self) -> &Arc<dyn StateSpace + Send + Sync> {
        &self.base.space
    }

    /// Bounding rectangle of the window's state set under the embedding.
    pub fn window_rect(&self, window: &QueryWindow) -> Rect {
        bounding_rect(self.base.space.as_ref(), window.states().iter())
    }

    /// Database indices of objects that *may* satisfy `window`
    /// (ascending): observed by the window's end and with a reachability
    /// cone that touches the window's bounding rectangle. Everything else
    /// is guaranteed to have `P∃ = 0`. Conservative by construction — never
    /// discards an object with non-zero probability.
    pub fn candidates(&self, window: &QueryWindow) -> Vec<usize> {
        self.probe(window, None).survivors
    }

    /// The cone filter of [`SpatioTemporalIndex::candidates`], narrowed by
    /// a τ-superlevel geometry when one is given: an object whose anchor
    /// time has a superlevel rectangle survives only if its support disc
    /// also meets that rectangle ([`Superlevel`]); every other object keeps
    /// the cone test alone. A superlevel-pruned object has `P∃ < τ`, not
    /// `0` — the narrowing serves a threshold of `τ` and nothing else.
    ///
    /// Hits land in a bitset of `⌈|D|/64⌉` words and are read back word by
    /// word, lowest bit first, so the output is ascending without a sort
    /// and a probe costs the words, the visited leaves and the survivors —
    /// never a pass over `|D|` entries. Both tests run in the one R-tree
    /// pass over the cone's region, so the objects only the superlevel
    /// test discarded are listed exactly.
    pub fn probe(&self, window: &QueryWindow, superlevel: Option<&Superlevel>) -> Probe {
        let base = &*self.base;
        let rect = self.window_rect(window);
        let t_end = window.t_end();
        let verdict = |a: &ConeAnchor, cone: bool| verdict(a, cone, superlevel);
        // An anchor observed by `t_end` reaches `t_end · max_step` plus its
        // slack: the coarse R-tree pass expands the rectangle by the widest
        // such reach (anchors after `t_end` fail the predicate wherever
        // they sit), and a leaf whose box lies entirely within the
        // narrowest passes the cone wholesale — which only holds while no
        // bulk anchor is later than `t_end`. Every other visited entry is
        // confirmed by its own cone.
        let horizon = f64::from(t_end) * base.max_step;
        let max_reach = (horizon + base.max_slack).max(0.0);
        let min_reach = horizon + base.min_slack;
        let all_observed = base.max_anchor_time <= t_end;
        // A leaf inside the narrowest cone passes the superlevel test
        // wholesale too when every bulk anchor time has a rectangle and the
        // leaf's box sits within the narrowest support of their common
        // part — and without superlevel rectangles, always: such a leaf is
        // kept without reading its anchors.
        let common = superlevel.map(|s| s.common(&base.anchor_times));
        let mut hits = vec![0u64; self.num_objects.div_ceil(64)];
        let mut cut = Vec::new();
        base.tree.visit_leaves(&rect.expand(max_reach), &mut |bbox, entries| {
            let whole_leaf = all_observed && rect.max_distance_to_rect(bbox) <= min_reach;
            let keep_all = whole_leaf
                && common.is_none_or(|common| {
                    common.is_some_and(|c| c.max_distance_to_rect(bbox) <= base.min_radius)
                });
            for entry in entries {
                let (word, bit) = (entry.id / 64, 1u64 << (entry.id % 64));
                if keep_all {
                    hits[word] |= bit;
                    continue;
                }
                let anchor = &base.anchors[entry.id];
                let cone = whole_leaf || anchor.reaches(&rect, t_end, base.max_step);
                let (kept, superlevel_pruned) = verdict(anchor, cone);
                if kept {
                    hits[word] |= bit;
                }
                if superlevel_pruned {
                    cut.push(entry.id);
                }
            }
        });
        // Overlay anchors replace whatever the bulk pass said about their
        // (stale or absent) base entries.
        cut.retain(|idx| !self.overlay.contains_key(idx));
        for (&idx, anchor) in &self.overlay {
            let (kept, superlevel_pruned) = self.retest_anchor(anchor, &rect, t_end, superlevel);
            let (word, bit) = (idx / 64, 1u64 << (idx % 64));
            hits[word] = if kept { hits[word] | bit } else { hits[word] & !bit };
            if superlevel_pruned {
                cut.push(idx);
            }
        }
        Probe { survivors: ascending_ones(&hits), superlevel_pruned: cut }
    }

    /// What [`SpatioTemporalIndex::probe`] decides for the overlay entry of
    /// database index `idx` — `(kept, discarded by the superlevel test
    /// alone)` — without a pass over the tree; `rect` is the window's
    /// [`SpatioTemporalIndex::window_rect`]. `None` when `idx` is not in
    /// the overlay: a bulk entry's verdict may come from a whole-leaf
    /// acceptance, which no per-object test reproduces.
    pub(crate) fn retest(
        &self,
        idx: usize,
        rect: &Rect,
        t_end: u32,
        superlevel: Option<&Superlevel>,
    ) -> Option<(bool, bool)> {
        let anchor = self.overlay.get(&idx)?;
        Some(self.retest_anchor(anchor, rect, t_end, superlevel))
    }

    /// The cone and superlevel test of one anchor, as a probe applies it
    /// to every overlay entry.
    fn retest_anchor(
        &self,
        anchor: &ConeAnchor,
        rect: &Rect,
        t_end: u32,
        superlevel: Option<&Superlevel>,
    ) -> (bool, bool) {
        verdict(anchor, anchor.reaches(rect, t_end, self.base.max_step), superlevel)
    }
}

/// The one per-anchor verdict of a probe: `(kept, discarded by the
/// superlevel test alone)` for an anchor whose cone test came out `cone` —
/// a cone survivor anchored at a time with a superlevel rectangle is kept
/// only if its support meets the rectangle.
fn verdict(anchor: &ConeAnchor, cone: bool, superlevel: Option<&Superlevel>) -> (bool, bool) {
    match superlevel.and_then(|s| s.at(anchor.anchor_time)) {
        Some(level) if cone => {
            let meets = anchor.meets(level);
            (meets, !meets)
        }
        _ => (cone, false),
    }
}

/// The overlay size at which an index over `base_len` bulk-built objects
/// wants compaction: at least [`OVERLAY_COMPACTION_MIN`], else one entry
/// per [`OVERLAY_COMPACTION_FRACTION`] objects. The database's write log
/// is bounded by the same size.
pub(crate) fn compaction_size(base_len: usize) -> usize {
    OVERLAY_COMPACTION_MIN.max(base_len / OVERLAY_COMPACTION_FRACTION)
}

/// The identity of one bulk build of the index
/// ([`SpatioTemporalIndex::build_id`]). It holds the build's allocation
/// weakly, so no later build can take its address, without keeping its
/// anchors or tree alive.
#[derive(Debug, Clone)]
pub(crate) struct IndexBuild(std::sync::Weak<IndexBase>);

impl IndexBuild {
    /// True when `index` overlays this build.
    pub(crate) fn is_of(&self, index: &SpatioTemporalIndex) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&index.base))
    }
}

/// What one [`SpatioTemporalIndex::probe`] keeps, and what the superlevel
/// test took from the cone's survivors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Database indices that may satisfy the query (ascending).
    pub survivors: Vec<usize>,
    /// Database indices the cone test kept and the superlevel test
    /// discarded, in no particular order (empty without a superlevel
    /// geometry).
    pub superlevel_pruned: Vec<usize>,
}

/// The positions of the set bits of `words` (bit `i` of word `w` is
/// position `64·w + i`), ascending: words in order, and within a word
/// `trailing_zeros` peels the lowest set bit first.
fn ascending_ones(words: &[u64]) -> Vec<usize> {
    let mut out = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(64 * w + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    out
}

/// Intersection of two ascending-sorted index sets.
pub(crate) fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::testkit::line_chain;
    use ust_space::{LineSpace, TimeSet};

    fn db_with_anchors(n: usize, anchors: &[(u32, usize)]) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new(line_chain(n));
        for (i, &(t, s)) in anchors.iter().enumerate() {
            db.insert(UncertainObject::with_single_observation(
                i as u64,
                Observation::exact(t, n, s).unwrap(),
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn candidates_combine_time_and_geometry() {
        let n = 50;
        let db = db_with_anchors(n, &[(0, 10), (0, 25), (8, 21), (0, 49)]);
        let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(n)));
        let window = QueryWindow::from_states(n, 20usize..=22, TimeSet::interval(3, 5)).unwrap();
        // Object 0 (too far), object 3 (too far) are pruned geometrically;
        // object 2 is pruned temporally (first observed at t = 8 > t_end).
        assert_eq!(index.candidates(&window), vec![1]);
        assert_eq!(index.max_anchor_time(), 8);
        assert_eq!(index.num_objects(), 4);
    }

    #[test]
    fn whole_leaf_accept_waits_for_every_anchor() {
        // Two objects spread over states 10 and 30 (centroid 20, radius
        // 10) share one R-tree leaf that sits well within even the narrower
        // reach of a window around state 20 — but the second is first
        // observed at t = 6, after the window ends at t = 5.
        let n = 50;
        let spread = || ust_markov::SparseVector::from_pairs(n, [(10, 0.5), (30, 0.5)]).unwrap();
        let mut db = TrajectoryDatabase::new(line_chain(n));
        for (id, t) in [(0, 0), (1, 6)] {
            let observation = Observation::uncertain(t, spread()).unwrap();
            db.insert(UncertainObject::with_single_observation(id, observation)).unwrap();
        }
        let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(n)));
        let window = |t1| QueryWindow::from_states(n, 19usize..=21, TimeSet::interval(3, t1));
        assert_eq!(index.candidates(&window(5).unwrap()), vec![0]);
        assert_eq!(index.candidates(&window(6).unwrap()), vec![0, 1]);
    }

    #[test]
    fn empty_database_has_no_candidates() {
        let db = TrajectoryDatabase::new(line_chain(10));
        let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(10)));
        let window = QueryWindow::from_states(10, [5usize], TimeSet::at(1)).unwrap();
        assert!(index.candidates(&window).is_empty());
        assert_eq!(index.max_anchor_time(), 0);
    }

    #[test]
    fn intersect_sorted_is_set_intersection() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[0, 3, 4, 5, 10]), vec![3, 5]);
        assert!(intersect_sorted(&[], &[1, 2]).is_empty());
        assert!(intersect_sorted(&[1, 2], &[]).is_empty());
    }

    #[test]
    fn window_rect_covers_window_states() {
        let db = db_with_anchors(50, &[(0, 10)]);
        let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(50)));
        let window = QueryWindow::from_states(50, 20usize..=22, TimeSet::at(1)).unwrap();
        let rect = index.window_rect(&window);
        assert_eq!((rect.min.x, rect.max.x), (20.0, 22.0));
    }

    #[test]
    fn overlay_update_matches_a_fresh_build() {
        let n = 50;
        let db = db_with_anchors(n, &[(0, 10), (0, 25), (8, 21), (0, 49)]);
        let space: Arc<LineSpace> = Arc::new(LineSpace::new(n));
        let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(n)));
        // Object 0 moves next to the window and re-anchors at t = 2; object
        // 4 is inserted right inside the window's state band.
        let moved =
            UncertainObject::with_single_observation(0, Observation::exact(2, n, 21).unwrap());
        let added =
            UncertainObject::with_single_observation(4, Observation::exact(0, n, 20).unwrap());
        let updated = index.with_updated(0, &moved).with_updated(4, &added);
        assert_eq!(updated.overlay_len(), 2);
        assert_eq!(updated.num_objects(), 5);

        // The same mutations applied to the database, then bulk-rebuilt.
        let mut objects: Vec<UncertainObject> = db.objects().to_vec();
        objects[0] = moved;
        objects.push(added);
        let mut fresh_db = TrajectoryDatabase::new(line_chain(n));
        fresh_db.insert_all(objects).unwrap();
        let fresh = SpatioTemporalIndex::build(&fresh_db, Arc::clone(&space) as _);

        for (t0, t1) in [(3u32, 5u32), (0, 1), (0, 25), (9, 12)] {
            let window =
                QueryWindow::from_states(n, 20usize..=22, TimeSet::interval(t0, t1)).unwrap();
            assert_eq!(
                updated.candidates(&window),
                fresh.candidates(&window),
                "window [{t0}, {t1}]"
            );
        }
        assert_eq!(updated.max_anchor_time(), fresh.max_anchor_time());
    }

    #[test]
    fn the_writer_updates_in_place_while_a_snapshot_keeps_its_index() {
        let n = 50;
        let mut db = db_with_anchors(n, &[(0, 10), (0, 25), (8, 21), (0, 49)]);
        db.attach_space(Arc::new(LineSpace::new(n))).unwrap();
        let windows: Vec<QueryWindow> = [(3u32, 5u32), (0, 1), (0, 25), (9, 12)]
            .into_iter()
            .map(|(t0, t1)| QueryWindow::from_states(n, 20usize..=22, TimeSet::interval(t0, t1)))
            .collect::<Result<_, _>>()
            .unwrap();
        let probe = |index: &SpatioTemporalIndex| -> Vec<Vec<usize>> {
            windows.iter().map(|w| index.candidates(w)).collect()
        };
        let built = db.spatial_index().unwrap();
        let snapshot = db.clone();
        let before = probe(&built);
        drop(built);

        // The store is shared with the snapshot: the first ingest copies it
        // and updates a copy of the index.
        let moved = Observation::exact(2, n, 21).unwrap();
        db.ingest(0, moved.clone()).unwrap();
        let copied = Arc::as_ptr(&db.spatial_index().unwrap());
        // The writer now holds its store and index alone: the insert
        // updates the same index in place.
        let added =
            UncertainObject::with_single_observation(4, Observation::exact(0, n, 20).unwrap());
        db.insert(added.clone()).unwrap();
        let index = db.spatial_index().unwrap();
        assert_eq!(Arc::as_ptr(&index), copied, "updated in place");
        assert_eq!(index.overlay_len(), 2);

        // It matches a bulk build of the same objects...
        let mut objects = snapshot.objects().to_vec();
        objects[0] = UncertainObject::with_single_observation(0, moved);
        objects.push(added);
        let mut fresh_db = TrajectoryDatabase::new(line_chain(n));
        fresh_db.insert_all(objects).unwrap();
        let fresh = SpatioTemporalIndex::build(&fresh_db, Arc::new(LineSpace::new(n)));
        assert_eq!(probe(&index), probe(&fresh));
        assert_eq!(index.max_anchor_time(), fresh.max_anchor_time());
        assert_eq!(index.num_objects(), 5);

        // ...while the snapshot's index never saw either update.
        let kept = snapshot.spatial_index().unwrap();
        assert_eq!((kept.overlay_len(), kept.max_anchor_time(), kept.num_objects()), (0, 8, 4));
        assert_eq!(probe(&kept), before);
    }

    #[test]
    fn crossing_the_compaction_threshold_empties_the_slot() {
        let n = 50;
        let mut db = db_with_anchors(n, &[(0, 10), (0, 25)]);
        db.attach_space(Arc::new(LineSpace::new(n))).unwrap();
        db.spatial_index().unwrap();
        let at = |id: u64| {
            UncertainObject::with_single_observation(id, Observation::exact(0, n, 30).unwrap())
        };
        for id in 2..2 + OVERLAY_COMPACTION_MIN as u64 {
            db.insert(at(id)).unwrap();
            assert_eq!(db.spatial_index().unwrap().overlay_len(), id as usize - 1);
        }
        assert!(db.spatial_index().unwrap().wants_compaction());
        // The next write leaves the slot empty; the read rebuilds in bulk.
        let last = 2 + OVERLAY_COMPACTION_MIN as u64;
        db.insert(at(last)).unwrap();
        let rebuilt = db.spatial_index().unwrap();
        assert_eq!((rebuilt.overlay_len(), rebuilt.num_objects()), (0, last as usize + 1));
    }

    #[test]
    fn survivors_cross_word_boundaries_in_ascending_order() {
        // Hits sit at state 101 (inside the window's reach), misses at 10.
        let n = 200;
        let (hit, miss) = (101, 10);
        let window = QueryWindow::from_states(n, 100usize..=102, TimeSet::interval(1, 2)).unwrap();
        let at = |id: usize, state| {
            let fix = Observation::exact(0, n, state).unwrap();
            UncertainObject::with_single_observation(id as u64, fix)
        };
        for len in [63usize, 64, 65, 128, 129] {
            let mut survivors: Vec<usize> =
                [0, 63, 64, len - 1].into_iter().filter(|&id| id < len).collect();
            survivors.dedup();
            let states: Vec<(u32, usize)> =
                (0..len).map(|id| (0, if survivors.contains(&id) { hit } else { miss })).collect();
            let db = db_with_anchors(n, &states);
            let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(n)));
            assert_eq!(index.candidates(&window), survivors, "|D| = {len}");

            // The overlay turns the last word's survivor off, object 1 on,
            // and inserts a hit at `len` — a new word when `len` is a
            // multiple of 64.
            let last = len - 1;
            let updated = index
                .with_updated(last, &at(last, miss))
                .with_updated(1, &at(1, hit))
                .with_updated(len, &at(len, hit));
            let mut expected: Vec<usize> =
                survivors.iter().copied().filter(|&id| id != last).chain([1, len]).collect();
            expected.sort_unstable();
            assert_eq!(updated.candidates(&window), expected, "|D| = {len} + overlay");
        }
    }

    #[test]
    fn compaction_threshold_scales_with_base_size() {
        let n = 50;
        let db = db_with_anchors(n, &[(0, 10), (0, 25)]);
        let index = SpatioTemporalIndex::build(&db, Arc::new(LineSpace::new(n)));
        assert!(!index.wants_compaction());
        let mut grown = index.with_updated(0, db.object(0).unwrap());
        for _ in 0..OVERLAY_COMPACTION_MIN {
            grown = grown.with_updated(0, db.object(0).unwrap());
        }
        // Repeated updates of one object keep a single overlay entry...
        assert_eq!(grown.overlay_len(), 1);
        // ...while distinct indices grow it to the threshold.
        for idx in 0..OVERLAY_COMPACTION_MIN {
            grown = grown.with_updated(idx, db.object(0).unwrap());
        }
        assert!(grown.wants_compaction());
    }
}
