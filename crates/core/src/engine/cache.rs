//! The keyed cache of query-based backward fields.
//!
//! The query-based engines answer a whole database from one backward sweep
//! per `(model, window, rule)` — but every *query* would pay that sweep
//! again, even when consecutive queries share the window (a dashboard
//! refreshing a danger-zone query, a threshold and a top-k run over the
//! same window, a sliding workload revisiting recent windows).
//! [`FieldCache`] memoizes [`BackwardField`]s under a
//! `(model id, chain, window, rule)` key, with the anchor-time snapshots
//! living inside each entry:
//!
//! * a lookup whose anchor times are all snapshotted is a **hit** — no
//!   backward work at all;
//! * a lookup needing only *earlier* anchor times **extends** the cached
//!   sweep downward from its earliest snapshot — the `(min, t_end]` suffix
//!   is shared, which is what makes overlapping anchor populations cheap;
//! * anything else recomputes the union of known and requested times and
//!   replaces the entry (a **miss**).
//!
//! One cache holds the fields of all three predicates: the [`FieldRule`]
//! in the key keeps an ∃, a ∀ and a k-times field over the same window
//! apart, and one capacity bounds them together. Every snapshot is stored
//! trimmed to its non-zero span ([`ust_markov::SpanVector`]), so an entry
//! costs what `S_reach` covers (times `|T▫| + 1` levels under
//! [`FieldRule::KTimes`]), not `|S|` per anchor time. Hits and misses are
//! reported through [`EvalStats::cache_hits`] /
//! [`EvalStats::cache_misses`]. Eviction is least-recently-used at a fixed
//! entry capacity.
//!
//! The key holds the [`QueryWindow`] itself and is keyed by its *value*:
//! it hashes the window's 64-bit fingerprint (computed once per window)
//! and confirms a match by comparing states and times, which a clone of
//! the same window — a standing query's probe, a resubmitted spec — skips
//! on its shared pointer. A lookup by a window whose fingerprint is known
//! is therefore O(1) in the window's size; two windows built separately
//! from the same states and times share one entry for the price of one
//! mask comparison, and a fingerprint collision can never serve another
//! window's field.
//!
//! Cached answers are bit-for-bit identical to uncached evaluation —
//! resumed sweeps replay the same per-slot floating-point accumulation
//! order (property-tested in `tests/proptest_engines.rs` and
//! `tests/backward_fields.rs`).

#![expect(
    clippy::disallowed_types,
    reason = "fields, plan memos and superlevel memos are only read by exact key lookup; the \
              one iteration of each map (LRU eviction) takes `min_by_key(last_used)` over \
              strictly increasing clock values, so the minimum is unique and map order cannot \
              change which entry is evicted, let alone a cached field's contents or a memo."
)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Weak};

use ust_markov::MarkovChain;
use ust_space::StateSpace;

use crate::engine::plan::{AsPlanKey, PlanKey, PlanKeyRef, PlanMemo, Rows};
use crate::engine::query_based::{BackwardField, FieldRule};
use crate::engine::EngineConfig;
use crate::error::Result;
use crate::prefilter::Superlevel;
use crate::query::QueryWindow;
use crate::stats::EvalStats;
use crate::sync::{Mutex, CACHE};

/// Default number of `(model, window, rule)` entries a cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// The identity of a backward field: which chain it was swept over, which
/// query window shaped the sweep and under which rule.
///
/// The chain is identified by its model index **plus** its heap address
/// and shape, so one cache shared across several databases (or a database
/// whose models were swapped out) cannot serve another chain's field: a
/// different `MarkovChain` allocation yields a different key, and the
/// stale entry simply ages out of the LRU.
///
/// The window is held by handle and keyed by *value*: the key hashes its
/// fingerprint, and equality confirms a fingerprint match by comparing
/// states and times (a clone of the same window skips that on its shared
/// pointer). Equal windows built separately share an entry, and a
/// fingerprint collision can never serve another window's field.
#[derive(Debug, Clone)]
struct CacheKey {
    model: usize,
    chain_addr: usize,
    chain_shape: (usize, usize),
    window: QueryWindow,
    rule: FieldRule,
}

impl CacheKey {
    fn of(model: usize, chain: &MarkovChain, window: &QueryWindow, rule: FieldRule) -> CacheKey {
        CacheKey {
            model,
            chain_addr: chain as *const MarkovChain as usize,
            chain_shape: (chain.num_states(), chain.matrix().nnz()),
            window: window.clone(),
            rule,
        }
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        (self.model, self.chain_addr, self.chain_shape, self.rule)
            == (other.model, other.chain_addr, other.chain_shape, other.rule)
            && self.window.fingerprint() == other.window.fingerprint()
            && self.window == other.window
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.model, self.chain_addr, self.chain_shape, self.rule).hash(state);
        self.window.fingerprint().hash(state);
    }
}

struct CacheEntry {
    /// The field is held behind an [`Arc`] so
    /// [`FieldCache::get_or_compute_shared_concurrent`] can hand out
    /// read-only views without cloning the snapshots; a suffix extension
    /// works on a clone and replaces the entry, leaving earlier views
    /// untouched.
    field: Arc<BackwardField>,
    last_used: u64,
}

impl std::fmt::Debug for CacheEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("field", &self.field)
            .field("last_used", &self.last_used)
            .finish()
    }
}

/// The hasher of the cache's maps. Field and plan keys hold a window's
/// fingerprint — already a SipHash digest — and superlevel keys are
/// addresses and τ's bits, so folding a key's words in with FxHash's step
/// (rotate, xor, multiply) spreads them over a table of at most
/// `capacity` entries, where a second SipHash would cost every lookup
/// several times as much. Windows come from callers, so keys can be made
/// to collide; a map never holds more than `capacity` entries, so a lookup
/// then compares at most that many — what every LRU eviction already scans.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A map of the cache, hashed by [`FoldHasher`].
type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// A memoised plan, the rows the last query-based probabilities read of
/// it computed, and when it was last read or written.
struct PlanSlot {
    memo: Arc<PlanMemo>,
    rows: Option<Arc<Rows>>,
    last_used: u64,
}

/// A state embedding, as the spatio-temporal index holds it.
type Space = Arc<dyn StateSpace + Send + Sync>;

/// Which superlevel geometry a [`SuperlevelSlot`] holds: a cached ∃ field
/// and an embedding, by address, and a threshold, by bits.
type SuperlevelKey = (usize, u64, usize);

/// The τ-superlevel geometry of one cached ∃ field under one embedding, and
/// when it was last read or written. The `Weak`s pin the addresses the key
/// holds, so no other field or embedding can take them while the slot
/// lives, without keeping an evicted field's snapshots alive.
struct SuperlevelSlot {
    _field: Weak<BackwardField>,
    _space: Weak<dyn StateSpace + Send + Sync>,
    geometry: Arc<Superlevel>,
    last_used: u64,
}

impl SuperlevelSlot {
    fn key(field: &Arc<BackwardField>, tau: f64, space: &Space) -> SuperlevelKey {
        (Arc::as_ptr(field) as usize, tau.to_bits(), Arc::as_ptr(space) as *const () as usize)
    }
}

/// An LRU cache of [`BackwardField`]s — every query-based evaluation of a
/// processor (∃, ∀ and k-times, plain, thresholded or ranked) shares one —
/// and, beside them under the same lock and the same capacity, the plan
/// memo of the reads the index serves (`plan::PlanMemo`) and the
/// superlevel geometries measured from cached ∃ fields, so a field's is
/// measured once per threshold, whatever read needs it.
pub struct FieldCache {
    capacity: usize,
    entries: FoldMap<CacheKey, CacheEntry>,
    plans: FoldMap<PlanKey, PlanSlot>,
    superlevels: FoldMap<SuperlevelKey, SuperlevelSlot>,
    clock: u64,
}

impl std::fmt::Debug for FieldCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FieldCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries)
            .field("plans", &self.plans.len())
            .field("superlevels", &self.superlevels.len())
            .field("clock", &self.clock)
            .finish()
    }
}

impl Default for FieldCache {
    fn default() -> Self {
        FieldCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

/// What a lookup needs from the cached entry (if any).
enum Lookup {
    /// All requested anchors are snapshotted.
    Hit,
    /// The entry exists but must be swept further down to these times.
    Extend(Vec<u32>),
    /// The entry must be (re)computed for these times.
    Compute(Vec<u32>),
}

impl Lookup {
    /// Classifies a lookup of `anchor_times` against the field cached
    /// under its key.
    fn classify(field: &BackwardField, anchor_times: &[u32]) -> Lookup {
        let missing: Vec<u32> =
            anchor_times.iter().copied().filter(|&t| field.at(t).is_none()).collect();
        if missing.is_empty() {
            Lookup::Hit
        } else if field.min_time().is_some_and(|min| missing.iter().all(|&t| t < min)) {
            Lookup::Extend(missing)
        } else {
            // Times above the sweep's floor were never snapshotted;
            // recompute the union so nothing already served is lost.
            let mut union: Vec<u32> = field.times().collect();
            union.extend_from_slice(anchor_times);
            Lookup::Compute(union)
        }
    }
}

/// How much of a lookup of `anchor_times` the cached `field` (if any)
/// could serve without a fresh sweep — [`FieldCache::residency`] of a field
/// already in hand: `(hit, resumable_from)`.
pub(crate) fn residency_of(
    field: Option<&BackwardField>,
    anchor_times: &[u32],
) -> (bool, Option<u32>) {
    let Some(field) = field else {
        return (false, None);
    };
    match Lookup::classify(field, anchor_times) {
        Lookup::Hit => (true, field.min_time()),
        Lookup::Extend(_) => (false, field.min_time()),
        Lookup::Compute(_) => (false, None),
    }
}

/// Outcome of a lock-held [`FieldCache::probe`]: either a served field, or
/// the backward work to perform *outside* the lock.
enum Probe {
    /// All requested anchors are snapshotted — no backward work.
    Ready(Arc<BackwardField>),
    /// Clone `base`, extend it down to `missing`, then install.
    Extend {
        /// The cached field to resume from.
        base: Arc<BackwardField>,
        /// The times below its floor that must be swept.
        missing: Vec<u32>,
    },
    /// Sweep a fresh field over these times, then install.
    Compute(Vec<u32>),
}

impl FieldCache {
    /// A cache retaining at most `capacity` `(model, window, rule)` entries
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        FieldCache {
            capacity: capacity.max(1),
            entries: FoldMap::default(),
            plans: FoldMap::default(),
            superlevels: FoldMap::default(),
            clock: 0,
        }
    }

    /// Number of cached fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every cached field and every memo.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.plans.clear();
        self.superlevels.clear();
    }

    /// True when the `(model, chain, window, rule)` tuple has a cached
    /// field covering all of `anchor_times` (a lookup that would hit
    /// without backward work).
    pub fn contains(
        &self,
        model: usize,
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: FieldRule,
        anchor_times: &[u32],
    ) -> bool {
        self.entries
            .get(&CacheKey::of(model, chain, window, rule))
            .is_some_and(|e| e.field.covers(anchor_times))
    }

    /// How much of a lookup the cache could serve without a fresh sweep:
    /// `(hit, resumable_from)` — `hit` is true when every anchor time is
    /// snapshotted, otherwise `resumable_from` is the cached floor the
    /// sweep could extend down from (when all missing times lie below it).
    /// The planner uses this to cost cache residency without mutating the
    /// cache.
    pub fn residency(
        &self,
        model: usize,
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: FieldRule,
        anchor_times: &[u32],
    ) -> (bool, Option<u32>) {
        let entry = self.entries.get(&CacheKey::of(model, chain, window, rule));
        residency_of(entry.map(|e| e.field.as_ref()), anchor_times)
    }

    /// The ∃ field of `(model, window)`, when cached. A peek is not a
    /// lookup: it counts nothing and leaves the LRU order alone (the lookup
    /// that serves the query does both).
    pub(crate) fn peek_exists(
        &self,
        model: usize,
        chain: &MarkovChain,
        window: &QueryWindow,
    ) -> Option<&Arc<BackwardField>> {
        let entry = self.entries.get(&CacheKey::of(model, chain, window, FieldRule::Exists))?;
        Some(&entry.field)
    }

    /// The plan memoised under `key`, marked used, with the rows kept
    /// beside it. Reading a memo counts no cache lookup: only field lookups
    /// do.
    pub(crate) fn plan_memo(
        &mut self,
        key: PlanKeyRef<'_>,
    ) -> Option<(&Arc<PlanMemo>, Option<&Arc<Rows>>)> {
        self.clock += 1;
        let slot = self.plans.get_mut(&key as &dyn AsPlanKey)?;
        slot.last_used = self.clock;
        Some((&slot.memo, slot.rows.as_ref()))
    }

    /// Keeps `rows` beside the plan memoised under `key`, replacing the
    /// rows kept there, when that plan is still `memo` — the one whose
    /// survivors the rows follow.
    pub(crate) fn memoise_rows(
        &mut self,
        key: PlanKeyRef<'_>,
        memo: &Arc<PlanMemo>,
        rows: Arc<Rows>,
    ) {
        let slot = self.plans.get_mut(&key as &dyn AsPlanKey);
        if let Some(slot) = slot.filter(|slot| Arc::ptr_eq(&slot.memo, memo)) {
            slot.rows = Some(rows);
        }
    }

    /// Memoises `memo` under `key`, replacing the plan memoised there and
    /// dropping the rows kept beside it; at
    /// capacity a new key evicts the least recently used plan.
    pub(crate) fn memoise_plan(&mut self, key: PlanKey, memo: Arc<PlanMemo>) {
        self.clock += 1;
        if !self.plans.contains_key(&key) && self.plans.len() >= self.capacity {
            let lru = self.plans.iter().min_by_key(|(_, slot)| slot.last_used);
            if let Some(victim) = lru.map(|(key, _)| key.clone()) {
                self.plans.remove(&victim);
            }
        }
        self.plans.insert(key, PlanSlot { memo, rows: None, last_used: self.clock });
    }

    /// Number of memoised plans.
    #[cfg(test)]
    pub(crate) fn plans(&self) -> usize {
        self.plans.len()
    }

    /// The τ-superlevel geometry of `field` under `space` memoised by
    /// [`FieldCache::memoise_superlevel`], marked used.
    pub(crate) fn superlevel_memo(
        &mut self,
        field: &Arc<BackwardField>,
        tau: f64,
        space: &Space,
    ) -> Option<Arc<Superlevel>> {
        self.clock += 1;
        let slot = self.superlevels.get_mut(&SuperlevelSlot::key(field, tau, space))?;
        slot.last_used = self.clock;
        Some(Arc::clone(&slot.geometry))
    }

    /// Memoises `geometry`, the τ-superlevel geometry of `field` under
    /// `space` measured outside the lock; at capacity a new one evicts the
    /// least recently used.
    pub(crate) fn memoise_superlevel(
        &mut self,
        field: &Arc<BackwardField>,
        tau: f64,
        space: &Space,
        geometry: Arc<Superlevel>,
    ) {
        self.clock += 1;
        let key = SuperlevelSlot::key(field, tau, space);
        if !self.superlevels.contains_key(&key) && self.superlevels.len() >= self.capacity {
            let lru = self.superlevels.iter().min_by_key(|(_, slot)| slot.last_used);
            if let Some(victim) = lru.map(|(&key, _)| key) {
                self.superlevels.remove(&victim);
            }
        }
        let (_field, _space) = (Arc::downgrade(field), Arc::downgrade(space));
        let slot = SuperlevelSlot { _field, _space, geometry, last_used: self.clock };
        self.superlevels.insert(key, slot);
    }

    /// The backward field of `(model, window, rule)` with snapshots at
    /// every time in `anchor_times`, computing, extending or reusing as
    /// needed, as a cheap shared handle: the plan releases the cache at
    /// once and hands its workers read-only views.
    ///
    /// The key includes the chain's identity (address + shape), so one
    /// cache can safely be shared across databases: a different chain under
    /// the same model index misses instead of serving the wrong field.
    ///
    /// Designed for **concurrent** callers sharing the cache behind a
    /// mutex: the lock is held only to probe and to install — the backward
    /// sweep itself (fresh, or a suffix extension of a *clone* of the
    /// entry, so outstanding views are never mutated) runs **outside** the
    /// lock, so a burst of asynchronously submitted queries over distinct
    /// windows sweeps in parallel instead of convoying on the cache.
    ///
    /// Two racing callers that miss on the same key may both sweep (the
    /// later install wins; outstanding `Arc` views stay valid) — wasted
    /// work, never a wrong answer.
    #[allow(clippy::too_many_arguments, reason = "the cache key's parts plus the sweep's inputs")]
    pub(crate) fn get_or_compute_shared_concurrent(
        cache: &Mutex<Self, CACHE>,
        model: usize,
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: FieldRule,
        anchor_times: &[u32],
        config: &EngineConfig,
        stats: &mut EvalStats,
    ) -> Result<Arc<BackwardField>> {
        let key = CacheKey::of(model, chain, window, rule);
        let probe = {
            let mut cache = cache.lock();
            cache.probe(&key, anchor_times, stats)
        };
        match probe {
            Probe::Ready(field) => Ok(field),
            Probe::Extend { base, missing } => {
                let mut field = (*base).clone();
                field.extend_down(chain, window, &missing, config, stats)?;
                let mut cache = cache.lock();
                Ok(cache.install(key, field))
            }
            Probe::Compute(times) => {
                let field =
                    BackwardField::compute_with_config(chain, window, rule, &times, config, stats)?;
                let mut cache = cache.lock();
                Ok(cache.install(key, field))
            }
        }
    }

    /// The lock-held half of
    /// [`FieldCache::get_or_compute_shared_concurrent`]: classifies the
    /// lookup, counts it, and returns any work to do outside the lock.
    fn probe(&mut self, key: &CacheKey, anchor_times: &[u32], stats: &mut EvalStats) -> Probe {
        self.clock += 1;
        let clock = self.clock;
        let Some(entry) = self.entries.get_mut(key) else {
            stats.cache_misses += 1;
            return Probe::Compute(anchor_times.to_vec());
        };
        match Lookup::classify(entry.field.as_ref(), anchor_times) {
            Lookup::Hit => {
                stats.cache_hits += 1;
                entry.last_used = clock;
                Probe::Ready(Arc::clone(&entry.field))
            }
            // A partial hit: the suffix is reused, the extension below it
            // is swept by the caller (outside the lock).
            Lookup::Extend(missing) => {
                stats.cache_hits += 1;
                entry.last_used = clock;
                Probe::Extend { base: Arc::clone(&entry.field), missing }
            }
            Lookup::Compute(times) => {
                stats.cache_misses += 1;
                Probe::Compute(times)
            }
        }
    }

    /// The install half of
    /// [`FieldCache::get_or_compute_shared_concurrent`]: (re)inserts the
    /// swept field under `key` and returns the shared handle.
    fn install(&mut self, key: CacheKey, field: BackwardField) -> Arc<BackwardField> {
        self.clock += 1;
        let clock = self.clock;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        let field = Arc::new(field);
        self.entries.insert(key, CacheEntry { field: Arc::clone(&field), last_used: clock });
        field
    }

    fn evict_lru(&mut self) {
        if let Some(victim) =
            self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
        {
            self.entries.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::paper_chain;
    use ust_markov::CsrMatrix;
    use ust_space::TimeSet;

    const EXISTS: FieldRule = FieldRule::Exists;
    const KTIMES: FieldRule = FieldRule::KTimes;

    fn window(t_hi: u32) -> QueryWindow {
        QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, t_hi)).unwrap()
    }

    /// One lookup on model 0 under the default configuration.
    fn get(
        cache: &Mutex<FieldCache, CACHE>,
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: FieldRule,
        anchor_times: &[u32],
        stats: &mut EvalStats,
    ) -> Arc<BackwardField> {
        let config = EngineConfig::default();
        FieldCache::get_or_compute_shared_concurrent(
            cache,
            0,
            chain,
            window,
            rule,
            anchor_times,
            &config,
            stats,
        )
        .unwrap()
    }

    #[test]
    fn repeated_lookup_hits_without_backward_work() {
        let chain = paper_chain();
        let cache = Mutex::new(FieldCache::new(4));
        let mut stats = EvalStats::new();
        let w = window(3);
        let first = get(&cache, &chain, &w, EXISTS, &[0], &mut stats).at(0).unwrap()[0].clone();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        let sweeps_after_miss = stats.backward_steps;
        let again = get(&cache, &chain, &w, EXISTS, &[0], &mut stats).at(0).unwrap()[0].clone();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.backward_steps, sweeps_after_miss, "a hit performs no sweep");
        assert_eq!(first, again, "hits return the identical field");
        assert!(cache.lock().contains(0, &chain, &w, EXISTS, &[0]));
        assert!(!cache.lock().contains(0, &chain, &w, EXISTS, &[1]));
        assert!(!cache.lock().contains(1, &chain, &w, EXISTS, &[0]));
    }

    #[test]
    fn windows_are_keyed_by_value_with_identity_as_a_shortcut() {
        use crate::query::Query;

        let chain = paper_chain();
        let cache = Mutex::new(FieldCache::new(8));
        let mut stats = EvalStats::new();
        let w = window(3);
        get(&cache, &chain, &w, EXISTS, &[0], &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));

        // Built separately from the same states and times: one entry.
        let twin = QueryWindow::from_states(3, [1usize, 0], TimeSet::new([3, 2])).unwrap();
        get(&cache, &chain, &twin, EXISTS, &[0], &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));

        // A cloned spec carries the same window handle and hits too.
        let spec = Query::exists().window(w.clone()).build().unwrap();
        let probe = spec.clone();
        get(&cache, &chain, probe.window(), EXISTS, &[0], &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (2, 1));

        // One state fewer, one time more: both miss.
        let fewer = QueryWindow::from_states(3, [0usize], TimeSet::interval(2, 3)).unwrap();
        get(&cache, &chain, &fewer, EXISTS, &[0], &mut stats);
        get(&cache, &chain, &window(4), EXISTS, &[0], &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (2, 3));
        assert_eq!(cache.lock().len(), 3);

        // The same states over a wider space are another window: no chain
        // of this cache could even sweep it, and its key matches nothing.
        let wider = QueryWindow::from_states(4, [0usize, 1], TimeSet::interval(2, 3)).unwrap();
        let key = |w: &QueryWindow| CacheKey::of(0, &chain, w, EXISTS);
        assert!(key(&wider) != key(&w));
        assert!(!cache.lock().contains(0, &chain, &wider, EXISTS, &[0]));
        assert!(key(&twin) == key(&w) && key(probe.window()) == key(&w));
    }

    #[test]
    fn extension_reuses_the_suffix_sweep() {
        let chain = paper_chain();
        let cache = Mutex::new(FieldCache::new(4));
        let mut stats = EvalStats::new();
        let w = window(3);
        // First query anchors at t=2: sweep 3 → 2 (one step).
        get(&cache, &chain, &w, EXISTS, &[2], &mut stats);
        assert_eq!(stats.backward_steps, 1);
        // Second query anchors at t=0: extend 2 → 0 (two more steps), a
        // partial hit rather than a 3-step recomputation.
        let field = get(&cache, &chain, &w, EXISTS, &[0], &mut stats);
        assert_eq!(stats.backward_steps, 3);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        // The extended field matches Example 2 exactly.
        let h0 = &field.at(0).unwrap()[0];
        assert!((h0.get(1) - 0.864).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let chain = paper_chain();
        let cache = Mutex::new(FieldCache::new(2));
        let mut stats = EvalStats::new();
        let (w3, w4, w5) = (window(3), window(4), window(5));
        get(&cache, &chain, &w3, EXISTS, &[0], &mut stats);
        get(&cache, &chain, &w4, EXISTS, &[0], &mut stats);
        // Touch w3 so w4 becomes the least recently used...
        get(&cache, &chain, &w3, EXISTS, &[0], &mut stats);
        // ...then inserting a third window must evict w4, not w3.
        get(&cache, &chain, &w5, EXISTS, &[0], &mut stats);
        assert_eq!(cache.lock().len(), 2);
        assert!(cache.lock().contains(0, &chain, &w3, EXISTS, &[0]));
        assert!(!cache.lock().contains(0, &chain, &w4, EXISTS, &[0]));
        assert!(cache.lock().contains(0, &chain, &w5, EXISTS, &[0]));
        // Re-requesting the evicted window is a fresh miss.
        get(&cache, &chain, &w4, EXISTS, &[0], &mut stats);
        assert_eq!(stats.cache_misses, 4);
        cache.lock().clear();
        assert!(cache.lock().is_empty());
        assert_eq!(cache.lock().capacity(), 2);
        assert_eq!(FieldCache::new(0).capacity(), 1, "capacity clamps to 1");
    }

    #[test]
    fn distinct_chains_under_the_same_model_index_do_not_collide() {
        // One cache shared across two databases: the second chain must miss
        // and get its own field, not the first chain's.
        let moving = paper_chain();
        let frozen = MarkovChain::from_csr(CsrMatrix::identity(3)).unwrap();
        let cache = Mutex::new(FieldCache::new(4));
        let mut stats = EvalStats::new();
        let w = window(3);
        let from_moving =
            get(&cache, &moving, &w, EXISTS, &[0], &mut stats).at(0).unwrap()[0].clone();
        let from_frozen =
            get(&cache, &frozen, &w, EXISTS, &[0], &mut stats).at(0).unwrap()[0].clone();
        assert_eq!(stats.cache_misses, 2, "different chains must not share an entry");
        assert!((from_moving.get(1) - 0.864).abs() < 1e-12);
        // Under the identity chain, worlds inside the window stay there
        // with certainty and worlds outside never enter.
        assert_eq!(from_frozen.get(1), 1.0);
        assert_eq!(from_frozen.get(2), 0.0);
    }

    #[test]
    fn anchors_between_snapshots_force_a_union_recompute() {
        let chain = paper_chain();
        let cache = Mutex::new(FieldCache::new(4));
        let mut stats = EvalStats::new();
        let w = window(3);
        get(&cache, &chain, &w, EXISTS, &[0], &mut stats);
        // t=1 lies above the floor snapshot set {0}? No — 1 > 0, and 1 was
        // never snapshotted, so the entry cannot be extended downward: it
        // must be recomputed with the union {0, 1}.
        let field = get(&cache, &chain, &w, EXISTS, &[1], &mut stats);
        assert!(field.at(0).is_some(), "union keeps previously served anchors");
        assert!(field.at(1).is_some());
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 2));
        // Both anchors now hit.
        get(&cache, &chain, &w, EXISTS, &[0, 1], &mut stats);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn residency_probe_does_not_mutate() {
        let chain = paper_chain();
        let cache = Mutex::new(FieldCache::new(4));
        let mut stats = EvalStats::new();
        let w = window(3);
        assert_eq!(cache.lock().residency(0, &chain, &w, EXISTS, &[0]), (false, None));
        get(&cache, &chain, &w, EXISTS, &[2], &mut stats);
        // Full hit at the snapshotted time, extendable below it, dead
        // between floor and t_end.
        assert_eq!(cache.lock().residency(0, &chain, &w, EXISTS, &[2]), (true, Some(2)));
        assert_eq!(cache.lock().residency(0, &chain, &w, EXISTS, &[0]), (false, Some(2)));
        assert_eq!(cache.lock().residency(0, &chain, &w, EXISTS, &[3]), (false, None));
        // Probing changed no counters and swept nothing.
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    }

    #[test]
    fn ktimes_cache_hits_extends_and_matches_fresh_sweeps() {
        let chain = paper_chain();
        let w = window(3);
        let cache = Mutex::new(FieldCache::new(4));
        let mut stats = EvalStats::new();

        // Miss, then pure hit: no further backward level steps.
        get(&cache, &chain, &w, KTIMES, &[2], &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        let after_miss = stats.backward_steps;
        assert!(after_miss > 0);
        get(&cache, &chain, &w, KTIMES, &[2], &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.backward_steps, after_miss, "a hit performs no level sweep");

        // Extension down to t=0 must be bit-identical to a fresh sweep
        // over both anchor times.
        let extended = get(&cache, &chain, &w, KTIMES, &[0], &mut stats).at(0).unwrap().to_vec();
        assert_eq!((stats.cache_hits, stats.cache_misses), (2, 1));
        let fresh = BackwardField::compute_with_config(
            &chain,
            &w,
            KTIMES,
            &[0, 2],
            &EngineConfig::default(),
            &mut EvalStats::new(),
        )
        .unwrap()
        .at(0)
        .unwrap()
        .to_vec();
        assert_eq!(extended.len(), fresh.len());
        for (a, b) in extended.iter().zip(&fresh) {
            for s in 0..3 {
                assert_eq!(a.get(s).to_bits(), b.get(s).to_bits());
            }
        }
    }

    #[test]
    fn one_capacity_bounds_every_rule() {
        use crate::database::TrajectoryDatabase;
        use crate::engine::QueryProcessor;
        use crate::object::UncertainObject;
        use crate::observation::Observation;
        use crate::query::{Query, Strategy};
        use crate::testkit::reference_config;

        let mut db = TrajectoryDatabase::new(paper_chain());
        for s in 0..3usize {
            db.insert(UncertainObject::with_single_observation(
                s as u64,
                Observation::exact(0, 3, s).unwrap(),
            ))
            .unwrap();
        }
        let chain = &db.models()[0];
        let w = window(3);
        let cache = Mutex::new(FieldCache::new(2));
        let mut stats = EvalStats::new();

        // Three rules over one window are three entries: the first is
        // evicted by the third.
        let rules = [EXISTS, FieldRule::ForAll, KTIMES];
        for rule in rules {
            get(&cache, chain, &w, rule, &[0], &mut stats);
        }
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 3));
        assert_eq!(cache.lock().len(), 2);
        assert!(!cache.lock().contains(0, chain, &w, EXISTS, &[0]));

        // The surviving two serve repeats without backward work, and what
        // they serve is what the reference configuration answers.
        let mut repeat = EvalStats::new();
        let forall = get(&cache, chain, &w, FieldRule::ForAll, &[0], &mut repeat);
        let levels = get(&cache, chain, &w, KTIMES, &[0], &mut repeat);
        assert_eq!((repeat.cache_hits, repeat.cache_misses), (2, 0));
        assert_eq!(repeat.backward_steps, 0);
        let reference = QueryProcessor::with_config(&db, reference_config());
        let run = |builder: crate::query::QueryBuilder| {
            let spec = builder.window(w.clone()).strategy(Strategy::QueryBased).build().unwrap();
            reference.execute(&spec).unwrap()
        };
        let (probs, dists) = (run(Query::forall()), run(Query::ktimes(1)));
        let (probs, dists) = (probs.probabilities().unwrap(), dists.distributions().unwrap());
        for (object, (p, d)) in db.objects().iter().zip(probs.iter().zip(dists)) {
            let served = forall.object_probability(object, &w).unwrap();
            assert_eq!(served.to_bits(), p.probability.to_bits());
            let anchored = levels.anchored_at(object.anchor().time(), &w).unwrap();
            assert_eq!(anchored.distribution(object).unwrap(), d.probabilities);
        }
    }
}
