//! The uncertain-trajectory database `D`.
//!
//! Holds the transition models (one shared chain in the common case the
//! paper optimizes for, or several per-class chains, each object naming
//! its own) and the uncertain objects referencing them.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ust_markov::MarkovChain;
use ust_space::StateSpace;

use crate::error::{QueryError, Result};
use crate::index::{compaction_size, SpatioTemporalIndex};
use crate::object::UncertainObject;
use crate::observation::Observation;

/// Outcome of feeding one observation into the database via
/// [`TrajectoryDatabase::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The fix is at or after the object's latest stored observation and
    /// replaced the object's observations.
    Applied,
    /// The fix predates the latest stored observation (out-of-order
    /// arrival) and was ignored; the database is unchanged.
    IgnoredStale,
}

/// A database of uncertain spatio-temporal objects over one or more
/// transition models.
///
/// The storage lives behind a shared handle: [`Clone`] is a cheap
/// reference-count bump, and a clone is a consistent **snapshot** — a later
/// [`TrajectoryDatabase::insert`] through one handle copies the object
/// store on write and leaves every other handle untouched. This is what
/// lets [`crate::engine::QueryProcessor::submit`] hand an asynchronous
/// query its own owned view of the database without copying the data or
/// blocking the submitting thread. The transition models themselves are
/// `Arc`-shared one level deeper, so snapshots keep serving the same cached
/// backward fields (the field cache keys on the chain allocation).
#[derive(Debug, Clone)]
pub struct TrajectoryDatabase {
    inner: Arc<DbInner>,
}

/// The source of [`TrajectoryDatabase::version`]: one counter for the whole
/// process, so no two differing stores ever share a value.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(0);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// What a written object looked like before the write: its model, anchor
/// time and anchor-support size — what a memoised plan counted it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AnchorKey {
    /// The object's model.
    pub model: usize,
    /// The time of its anchor observation.
    pub time: u32,
    /// The `nnz` of its anchor distribution.
    pub nnz: usize,
}

impl AnchorKey {
    /// The anchor of `object`.
    pub(crate) fn of(object: &UncertainObject) -> AnchorKey {
        let anchor = object.anchor();
        AnchorKey { model: object.model(), time: anchor.time(), nnz: anchor.distribution().nnz() }
    }
}

/// One applied write, as the [`WriteLog`] keeps it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write {
    /// The store's version after the write.
    pub version: u64,
    /// The database index written.
    pub idx: usize,
    /// The object before the write; `None` for an insert.
    pub previous: Option<AnchorKey>,
}

/// The store's recent applied writes (`insert`, an applied `ingest`), in
/// order, so what was computed at an earlier version can be brought up to
/// date instead of recomputed. Bounded by the index's compaction size
/// (`max(16, |D|/8)`): past it the oldest write is dropped and the log no
/// longer reaches the versions before it. `attach_space` clears it.
#[derive(Debug, Clone)]
struct WriteLog {
    /// The oldest version the log reaches back to: every write after it is
    /// in `writes`.
    floor: u64,
    writes: VecDeque<Write>,
}

impl WriteLog {
    fn new(floor: u64) -> WriteLog {
        WriteLog { floor, writes: VecDeque::new() }
    }

    /// Appends `write`, dropping the oldest writes past `bound`.
    fn push(&mut self, write: Write, bound: usize) {
        self.writes.push_back(write);
        while self.writes.len() > bound {
            if let Some(dropped) = self.writes.pop_front() {
                self.floor = dropped.version;
            }
        }
    }

    /// Every write after `version`, oldest first, when the log reaches
    /// back to it.
    fn since(&self, version: u64) -> Option<impl Iterator<Item = &Write>> {
        let start = if version == self.floor {
            0
        } else {
            self.writes.binary_search_by_key(&version, |w| w.version).ok()? + 1
        };
        Some(self.writes.range(start..))
    }
}

struct DbInner {
    /// Taken from [`NEXT_VERSION`] at construction and at every mutation
    /// ([`TrajectoryDatabase::mutate`]); clones share it with their store.
    version: u64,
    /// The applied writes since [`WriteLog::floor`].
    log: WriteLog,
    models: Vec<Arc<MarkovChain>>,
    objects: Vec<UncertainObject>,
    /// Each object's id, in store order: what id lookups bisect and what a
    /// probability answer's pruned zeros are written from, so neither
    /// reads the objects.
    ids: Vec<u64>,
    /// True while every insert carried an id above the previous one, i.e.
    /// the store is strictly ascending in id and id lookups may bisect it
    /// (see [`TrajectoryDatabase::index_of`]).
    ids_ascending: bool,
    /// Spatial embedding of the state space, when one has been attached;
    /// required for the planner's spatio-temporal prefilter.
    space: Option<Arc<dyn StateSpace + Send + Sync>>,
    /// Lazily built candidate index over this exact object store. Taken
    /// out on every mutation and replaced by its updated successor (see
    /// [`TrajectoryDatabase::insert`]), so a populated slot always
    /// describes the snapshot it lives in.
    index: OnceLock<Arc<SpatioTemporalIndex>>,
}

impl Clone for DbInner {
    fn clone(&self) -> Self {
        // The copy shares the source's index handle. Every copy is made by
        // a mutation, which takes the handle out of the slot and installs
        // an updated copy of the index (the source snapshot keeps its own),
        // so a populated slot still describes the store it lives in.
        DbInner {
            version: self.version,
            log: self.log.clone(),
            models: self.models.clone(),
            objects: self.objects.clone(),
            ids: self.ids.clone(),
            ids_ascending: self.ids_ascending,
            space: self.space.clone(),
            index: self.index.clone(),
        }
    }
}

impl fmt::Debug for DbInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbInner")
            .field("version", &self.version)
            .field("log", &self.log.writes.len())
            .field("models", &self.models)
            .field("objects", &self.objects)
            .field("space", &self.space.as_ref().map(|s| s.num_states()))
            .field("index", &self.index.get().is_some())
            .finish()
    }
}

impl TrajectoryDatabase {
    /// Creates a database with a single shared model (the paper's primary
    /// setting: "all objects follow the same model").
    pub fn new(chain: MarkovChain) -> Self {
        let version = next_version();
        TrajectoryDatabase {
            inner: Arc::new(DbInner {
                version,
                log: WriteLog::new(version),
                models: vec![Arc::new(chain)],
                objects: Vec::new(),
                ids: Vec::new(),
                ids_ascending: true,
                space: None,
                index: OnceLock::new(),
            }),
        }
    }

    /// Creates a database with several models (e.g. buses / trucks / cars).
    pub fn with_models(chains: Vec<MarkovChain>) -> Result<Self> {
        if chains.is_empty() {
            return Err(QueryError::UnknownModel { model: 0 });
        }
        let dim = chains[0].num_states();
        for c in &chains {
            if c.num_states() != dim {
                return Err(QueryError::ModelDimensionMismatch {
                    model_states: dim,
                    object_states: c.num_states(),
                });
            }
        }
        let version = next_version();
        Ok(TrajectoryDatabase {
            inner: Arc::new(DbInner {
                version,
                log: WriteLog::new(version),
                models: chains.into_iter().map(Arc::new).collect(),
                objects: Vec::new(),
                ids: Vec::new(),
                ids_ascending: true,
                space: None,
                index: OnceLock::new(),
            }),
        })
    }

    /// Attaches a spatial embedding of the state space, enabling the
    /// planner's index-accelerated candidate pruning
    /// ([`TrajectoryDatabase::spatial_index`]). The embedding must cover
    /// exactly the model dimension.
    pub fn attach_space(&mut self, space: Arc<dyn StateSpace + Send + Sync>) -> Result<()> {
        if space.num_states() != self.num_states() {
            return Err(QueryError::ModelDimensionMismatch {
                model_states: self.num_states(),
                object_states: space.num_states(),
            });
        }
        let inner = self.mutate();
        inner.space = Some(space);
        inner.index.take();
        inner.log = WriteLog::new(inner.version);
        Ok(())
    }

    /// This handle's store, copied first if another handle shares it, under
    /// a fresh [`TrajectoryDatabase::version`]: every mutation goes
    /// through here.
    fn mutate(&mut self) -> &mut DbInner {
        let inner = Arc::make_mut(&mut self.inner);
        inner.version = next_version();
        inner
    }

    /// The store's version: equal on two handles only when they share one
    /// unmutated store (a clone, a snapshot), so whatever is computed from
    /// a snapshot may be reused while the version it was computed at
    /// stands. An ignored stale ingest keeps it.
    pub(crate) fn version(&self) -> u64 {
        self.inner.version
    }

    /// The applied writes between `version` and this store's, oldest
    /// first — `None` when `version` is not one this store passed through
    /// within its write log's reach (another store, a later or branched
    /// snapshot, a write dropped from the log, or an `attach_space` since).
    pub(crate) fn writes_since(&self, version: u64) -> Option<impl Iterator<Item = &Write>> {
        self.inner.log.since(version)
    }

    /// Logs the write of `idx` the last [`TrajectoryDatabase::mutate`]
    /// versioned.
    fn log_write(inner: &mut DbInner, idx: usize, previous: Option<AnchorKey>) {
        let write = Write { version: inner.version, idx, previous };
        inner.log.push(write, compaction_size(inner.objects.len()));
    }

    /// The attached spatial embedding, if any.
    pub fn space(&self) -> Option<&Arc<dyn StateSpace + Send + Sync>> {
        self.inner.space.as_ref()
    }

    /// The spatio-temporal candidate index for this snapshot, building it
    /// on first use. `None` until a space is attached
    /// ([`TrajectoryDatabase::attach_space`]). The index is shared with
    /// clones taken *after* it was built and dropped from handles that
    /// mutate (insert / attach), so it always describes the snapshot that
    /// returns it.
    pub fn spatial_index(&self) -> Option<Arc<SpatioTemporalIndex>> {
        let space = self.inner.space.as_ref()?;
        let index = self
            .inner
            .index
            .get_or_init(|| Arc::new(SpatioTemporalIndex::build(self, Arc::clone(space))));
        Some(Arc::clone(index))
    }

    /// Adds an object after validating its model reference and dimensions.
    ///
    /// If other handles (clones, in-flight asynchronous queries) still
    /// share the storage, the object store is copied first — existing
    /// snapshots never observe the insertion.
    pub fn insert(&mut self, object: UncertainObject) -> Result<()> {
        let model = object.model();
        let chain = self.inner.models.get(model).ok_or(QueryError::UnknownModel { model })?;
        if object.num_states() != chain.num_states() {
            return Err(QueryError::ModelDimensionMismatch {
                model_states: chain.num_states(),
                object_states: object.num_states(),
            });
        }
        // A built index survives the insertion incrementally (overlay
        // entry) unless it is due for compaction, in which case the slot
        // stays empty and the next read rebuilds in bulk.
        let (idx, prev_index) = {
            let inner = self.mutate();
            let idx = inner.objects.len();
            if inner.ids.last().is_some_and(|&last| object.id() <= last) {
                inner.ids_ascending = false;
            }
            inner.ids.push(object.id());
            inner.objects.push(object);
            Self::log_write(inner, idx, None);
            // The index leaves the slot so it can never describe a stale
            // store; refresh_index installs its successor.
            (idx, inner.index.take())
        };
        self.refresh_index(prev_index, idx);
        Ok(())
    }

    /// Feeds one new observation for the object with id `object_id` — the
    /// streaming ingest path.
    ///
    /// The database keeps each object's **latest fix** (the paper's engines
    /// anchor at the most recent observation and extrapolate forward, so a
    /// newer sighting supersedes the stored one): a fix at or after the
    /// object's latest stored observation replaces all of them
    /// ([`IngestOutcome::Applied`]), an older out-of-order fix is ignored
    /// ([`IngestOutcome::IgnoredStale`]). Per object, anchors are therefore
    /// monotone non-decreasing and the database state is a pure function of
    /// the applied feed prefix — replaying the same feed always reproduces
    /// the same snapshot.
    ///
    /// Copy-on-write semantics match [`TrajectoryDatabase::insert`]:
    /// existing clones never observe the mutation, and a built
    /// [`SpatioTemporalIndex`] is updated incrementally instead of being
    /// rebuilt from scratch.
    pub fn ingest(&mut self, object_id: u64, observation: Observation) -> Result<IngestOutcome> {
        let idx = self.index_of(object_id).ok_or(QueryError::UnknownObject { id: object_id })?;
        let current = &self.inner.objects[idx];
        let model = current.model();
        let chain = &self.inner.models[model];
        if observation.num_states() != chain.num_states() {
            return Err(QueryError::ModelDimensionMismatch {
                model_states: chain.num_states(),
                object_states: observation.num_states(),
            });
        }
        if observation.time() < current.last_observation().time() {
            return Ok(IngestOutcome::IgnoredStale);
        }
        let previous = AnchorKey::of(current);
        let prev_index = {
            let inner = self.mutate();
            inner.objects[idx] =
                UncertainObject::with_single_observation(object_id, observation).with_model(model);
            Self::log_write(inner, idx, Some(previous));
            inner.index.take()
        };
        self.refresh_index(prev_index, idx);
        Ok(IngestOutcome::Applied)
    }

    /// The database index of the object with the given id, if present
    /// (the first one, should ids repeat).
    ///
    /// A store filled in strictly ascending id order — what every
    /// generator and loader produces — is bisected; one out-of-order or
    /// duplicate insert drops the database back to a linear scan for good.
    /// Either way only the id column is read.
    pub fn index_of(&self, object_id: u64) -> Option<usize> {
        if self.inner.ids_ascending {
            self.inner.ids.binary_search(&object_id).ok()
        } else {
            self.inner.ids.iter().position(|&id| id == object_id)
        }
    }

    /// Every object's id, in store order.
    pub(crate) fn ids(&self) -> &[u64] {
        &self.inner.ids
    }

    /// True while ids were inserted strictly ascending: id order is then
    /// index order and [`TrajectoryDatabase::index_of`] is a binary search.
    pub(crate) fn ids_ascending(&self) -> bool {
        self.inner.ids_ascending
    }

    /// Installs the incrementally updated successor of `prev` (if any) into
    /// this handle's empty index slot, covering the mutated object at
    /// `idx`: in place when `prev` is the only handle to the index, on a
    /// copy of its overlay when a snapshot, an in-flight query or a caller
    /// still holds it (a mutation that copied the store shares the index
    /// with the source snapshot). Past the compaction threshold the slot
    /// is left empty — the next [`TrajectoryDatabase::spatial_index`] read
    /// rebuilds in bulk.
    fn refresh_index(&self, prev: Option<Arc<SpatioTemporalIndex>>, idx: usize) {
        let Some(mut index) = prev.filter(|index| !index.wants_compaction()) else { return };
        let object = &self.inner.objects[idx];
        match Arc::get_mut(&mut index) {
            Some(sole) => sole.update(idx, object),
            None => index = Arc::new(index.with_updated(idx, object)),
        }
        let _ = self.inner.index.set(index);
    }

    /// Bulk insert.
    pub fn insert_all<I: IntoIterator<Item = UncertainObject>>(
        &mut self,
        objects: I,
    ) -> Result<()> {
        for o in objects {
            self.insert(o)?;
        }
        Ok(())
    }

    /// Number of objects `|D|`.
    pub fn len(&self) -> usize {
        self.inner.objects.len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.objects.is_empty()
    }

    /// Number of states of the (shared-dimension) state space.
    pub fn num_states(&self) -> usize {
        self.inner.models[0].num_states()
    }

    /// All objects.
    pub fn objects(&self) -> &[UncertainObject] {
        &self.inner.objects
    }

    /// The object with database index `idx`.
    pub fn object(&self, idx: usize) -> Option<&UncertainObject> {
        self.inner.objects.get(idx)
    }

    /// All transition models.
    pub fn models(&self) -> &[Arc<MarkovChain>] {
        &self.inner.models
    }

    /// The model a given object follows.
    pub fn model_of(&self, object: &UncertainObject) -> &Arc<MarkovChain> {
        &self.inner.models[object.model()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Observation;
    use crate::testkit::paper_chain;
    use ust_markov::CsrMatrix;

    fn object(id: u64, state: usize) -> UncertainObject {
        UncertainObject::with_single_observation(id, Observation::exact(0, 3, state).unwrap())
    }

    #[test]
    fn insert_and_query_objects() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object(1, 0)).unwrap();
        db.insert(object(2, 1)).unwrap();
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.num_states(), 3);
        assert_eq!(db.object(0).unwrap().id(), 1);
        assert!(db.object(5).is_none());
        assert_eq!(db.models().len(), 1);
    }

    #[test]
    fn insert_validates_model_and_dimension() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        let bad_model = object(3, 0).with_model(7);
        assert_eq!(db.insert(bad_model), Err(QueryError::UnknownModel { model: 7 }));
        let bad_dim =
            UncertainObject::with_single_observation(4, Observation::exact(0, 5, 0).unwrap());
        assert!(matches!(db.insert(bad_dim), Err(QueryError::ModelDimensionMismatch { .. })));
    }

    #[test]
    fn multi_model_grouping() {
        let mut db = TrajectoryDatabase::with_models(vec![paper_chain(), paper_chain()]).unwrap();
        db.insert_all([object(1, 0), object(2, 1).with_model(1), object(3, 2)]).unwrap();
        let models: Vec<usize> = db.objects().iter().map(UncertainObject::model).collect();
        assert_eq!(models, vec![0, 1, 0]);
        assert_eq!(db.model_of(db.object(1).unwrap()).num_states(), 3);
    }

    #[test]
    fn clones_are_snapshots_with_shared_models() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object(1, 0)).unwrap();
        let snapshot = db.clone();
        // The clone shares the model allocation (cache keys stay valid)...
        assert!(Arc::ptr_eq(&db.models()[0], &snapshot.models()[0]));
        // ...and an insert through one handle never reaches the other.
        db.insert(object(2, 1)).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot.object(0).unwrap().id(), 1);
    }

    #[test]
    fn every_mutation_takes_a_fresh_version_and_clones_share_theirs() {
        use ust_space::LineSpace;

        let mut db = TrajectoryDatabase::new(paper_chain());
        let other = TrajectoryDatabase::new(paper_chain());
        assert_ne!(db.version(), other.version(), "two stores never share a version");
        let mut seen = vec![db.version()];
        db.insert(object(1, 0)).unwrap();
        seen.push(db.version());
        let snapshot = db.clone();
        assert_eq!(snapshot.version(), db.version());
        db.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        seen.push(db.version());
        assert_eq!(db.ingest(1, Observation::exact(2, 3, 1).unwrap()), Ok(IngestOutcome::Applied));
        seen.push(db.version());
        let applied = db.version();
        assert_eq!(
            db.ingest(1, Observation::exact(1, 3, 0).unwrap()),
            Ok(IngestOutcome::IgnoredStale)
        );
        assert_eq!(db.version(), applied, "a stale fix changes nothing");
        assert!(db.insert(object(1, 0).with_model(3)).is_err());
        assert_eq!(db.version(), applied, "a rejected insert changes nothing");
        assert!(seen.windows(2).all(|pair| pair[0] < pair[1]), "each mutation a fresh version");
        assert_eq!(snapshot.version(), seen[1], "the snapshot keeps its store's version");
    }

    #[test]
    fn the_write_log_holds_each_applied_write_back_to_its_floor() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        let start = db.version();
        db.insert(object(1, 0)).unwrap();
        db.ingest(1, Observation::exact(2, 3, 1).unwrap()).unwrap();
        assert_eq!(
            db.ingest(1, Observation::exact(1, 3, 2).unwrap()),
            Ok(IngestOutcome::IgnoredStale)
        );
        let logged: Vec<(usize, Option<AnchorKey>)> =
            db.writes_since(start).unwrap().map(|w| (w.idx, w.previous)).collect();
        let before = AnchorKey { model: 0, time: 0, nnz: 1 };
        assert_eq!(logged, vec![(0, None), (0, Some(before))], "a stale fix is not a write");
        assert_eq!(db.writes_since(db.version()).unwrap().count(), 0);
        assert!(db.writes_since(TrajectoryDatabase::new(paper_chain()).version()).is_none());

        // Past the bound (16 for a store this small) the oldest writes go,
        // and with them the versions before them.
        let first = db.version();
        for t in 3..3 + 16 {
            db.ingest(1, Observation::exact(t, 3, 0).unwrap()).unwrap();
        }
        assert!(db.writes_since(start).is_none());
        assert_eq!(db.writes_since(first).unwrap().count(), 16);
        db.ingest(1, Observation::exact(40, 3, 0).unwrap()).unwrap();
        assert!(db.writes_since(first).is_none(), "the log no longer reaches back");
    }

    #[test]
    fn spatial_index_is_lazy_and_invalidated_on_write() {
        use ust_space::LineSpace;

        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object(1, 0)).unwrap();
        assert!(db.spatial_index().is_none(), "no index before a space is attached");

        db.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        let first = db.spatial_index().expect("index builds lazily");
        assert_eq!(first.num_objects(), 1);
        // Repeated reads return the same build.
        assert!(Arc::ptr_eq(&first, &db.spatial_index().unwrap()));

        // A snapshot taken now shares the built index...
        let snapshot = db.clone();
        assert!(Arc::ptr_eq(&first, &snapshot.spatial_index().unwrap()));

        // ...while an insert invalidates the writer's copy but not the
        // snapshot's.
        db.insert(object(2, 1)).unwrap();
        let rebuilt = db.spatial_index().unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.num_objects(), 2);
        assert_eq!(snapshot.spatial_index().unwrap().num_objects(), 1);
    }

    #[test]
    fn sole_owner_insert_still_invalidates_index() {
        use ust_space::LineSpace;

        let mut db = TrajectoryDatabase::new(paper_chain());
        db.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        db.insert(object(1, 0)).unwrap();
        let before = db.spatial_index().unwrap();
        // No other handle exists: make_mut mutates in place, so the
        // explicit invalidation is what protects the index here.
        db.insert(object(2, 1)).unwrap();
        let after = db.spatial_index().unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.num_objects(), 2);
    }

    #[test]
    fn ingest_keeps_the_latest_fix_and_ignores_stale_ones() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object(1, 0)).unwrap();
        let snapshot = db.clone();

        // A newer fix replaces the stored one.
        assert_eq!(db.ingest(1, Observation::exact(4, 3, 2).unwrap()), Ok(IngestOutcome::Applied));
        assert_eq!(db.object(0).unwrap().anchor().time(), 4);
        // An equal-time fix also applies (replacement, e.g. a corrected
        // reading for the same instant).
        assert_eq!(db.ingest(1, Observation::exact(4, 3, 1).unwrap()), Ok(IngestOutcome::Applied));
        let support: Vec<usize> =
            db.object(0).unwrap().anchor().distribution().iter().map(|(s, _)| s).collect();
        assert_eq!(support, vec![1]);
        // An out-of-order fix is ignored without touching the store.
        assert_eq!(
            db.ingest(1, Observation::exact(2, 3, 0).unwrap()),
            Ok(IngestOutcome::IgnoredStale)
        );
        assert_eq!(db.object(0).unwrap().anchor().time(), 4);
        // The pre-ingest snapshot never observed any of it.
        assert_eq!(snapshot.object(0).unwrap().anchor().time(), 0);
    }

    #[test]
    fn ingest_judges_staleness_against_the_latest_observation() {
        use ust_space::LineSpace;

        let mut db = TrajectoryDatabase::new(paper_chain());
        db.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        let sightings =
            vec![Observation::exact(0, 3, 0).unwrap(), Observation::exact(4, 3, 1).unwrap()];
        db.insert(UncertainObject::new(1, sightings).unwrap()).unwrap();
        let stored = db.object(0).unwrap().clone();
        let max_anchor = db.spatial_index().unwrap().max_anchor_time();

        // Older than the t = 4 sighting, though later than the first one.
        assert_eq!(
            db.ingest(1, Observation::exact(2, 3, 2).unwrap()),
            Ok(IngestOutcome::IgnoredStale)
        );
        assert_eq!(db.object(0), Some(&stored), "a stale fix leaves the store unchanged");
        assert_eq!(db.spatial_index().unwrap().max_anchor_time(), max_anchor);

        assert_eq!(db.ingest(1, Observation::exact(4, 3, 2).unwrap()), Ok(IngestOutcome::Applied));
        let object = db.object(0).unwrap();
        assert_eq!((object.anchor().time(), object.observations().len()), (4, 1));
        assert!(db.spatial_index().unwrap().max_anchor_time() >= max_anchor);
    }

    #[test]
    fn ingest_validates_id_and_dimension() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object(1, 0)).unwrap();
        assert_eq!(
            db.ingest(9, Observation::exact(1, 3, 0).unwrap()),
            Err(QueryError::UnknownObject { id: 9 })
        );
        assert!(matches!(
            db.ingest(1, Observation::exact(1, 5, 0).unwrap()),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
        assert_eq!(db.index_of(1), Some(0));
        assert_eq!(db.index_of(9), None);
    }

    #[test]
    fn index_of_bisects_ascending_ids_and_falls_back_otherwise() {
        let scan =
            |db: &TrajectoryDatabase, id: u64| db.objects().iter().position(|o| o.id() == id);
        let mut db = TrajectoryDatabase::new(paper_chain());
        assert_eq!(db.index_of(1), None, "empty store");
        db.insert_all([2u64, 5, 7, 11, 40].map(|id| object(id, 0))).unwrap();
        assert!(db.ids_ascending());
        for id in 0..=41u64 {
            assert_eq!(db.index_of(id), scan(&db, id), "id {id}");
        }
        // The flag rides along with a copy-on-write clone.
        let mut clone = db.clone();
        clone.insert(object(41, 1)).unwrap();
        assert!(clone.ids_ascending());
        assert_eq!(clone.index_of(41), Some(5));
        // An ingest right after an insert finds the new object.
        assert_eq!(
            clone.ingest(41, Observation::exact(2, 3, 2).unwrap()),
            Ok(IngestOutcome::Applied)
        );
        assert_eq!(clone.object(5).unwrap().anchor().time(), 2);
        assert_eq!(db.index_of(41), None, "the source snapshot never saw it");

        // Out of order: lookups fall back to the scan and answer as before.
        let mut unordered = db.clone();
        unordered.insert(object(3, 1)).unwrap();
        assert!(!unordered.ids_ascending());
        for id in 0..=41u64 {
            assert_eq!(unordered.index_of(id), scan(&unordered, id), "id {id}");
        }
        assert_eq!(unordered.index_of(3), Some(5));
        // A duplicate id: the first holder keeps answering, for lookups and
        // for ingest.
        let mut duplicated = db.clone();
        duplicated.insert(object(40, 2)).unwrap();
        assert!(!duplicated.ids_ascending());
        assert_eq!(duplicated.index_of(40), Some(4));
        duplicated.ingest(40, Observation::exact(6, 3, 1).unwrap()).unwrap();
        assert_eq!(duplicated.object(4).unwrap().anchor().time(), 6);
        assert_eq!(duplicated.object(5).unwrap().anchor().time(), 0);
    }

    #[test]
    fn ingest_updates_the_spatial_index_incrementally() {
        use ust_space::LineSpace;

        let mut db = TrajectoryDatabase::new(paper_chain());
        db.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        db.insert(object(1, 0)).unwrap();
        db.insert(object(2, 1)).unwrap();
        let before = db.spatial_index().unwrap();
        assert_eq!(before.overlay_len(), 0);

        db.ingest(2, Observation::exact(3, 3, 2).unwrap()).unwrap();
        let after = db.spatial_index().unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        // Incremental: one overlay entry instead of a rebuild, and the
        // anchor max reflects the new fix.
        assert_eq!(after.overlay_len(), 1);
        assert_eq!(after.max_anchor_time(), 3);
        assert_eq!(before.max_anchor_time(), 0, "snapshot index untouched");
    }

    #[test]
    fn attach_space_validates_dimension() {
        use ust_space::LineSpace;

        let mut db = TrajectoryDatabase::new(paper_chain());
        assert!(matches!(
            db.attach_space(Arc::new(LineSpace::new(7))),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
        assert!(db.space().is_none());
        db.attach_space(Arc::new(LineSpace::new(3))).unwrap();
        assert_eq!(db.space().unwrap().num_states(), 3);
    }

    #[test]
    fn with_models_validates() {
        assert!(TrajectoryDatabase::with_models(vec![]).is_err());
        let two = MarkovChain::from_csr(CsrMatrix::identity(2)).unwrap();
        assert!(TrajectoryDatabase::with_models(vec![paper_chain(), two]).is_err());
    }
}
