//! Ranked locks: the `Mutex`, `RwLock` and `Condvar` every lock of the
//! serving tier uses, each lock at its rank in the acquisition order of
//! ARCHITECTURE.md ("Concurrency invariants"). In debug builds a
//! thread-local records the ranks a thread holds (released by identity,
//! since guards drop in any order); acquiring a lock not strictly below
//! every held rank panics naming both locks, and so does reaching a
//! [`blocking_point`] holding any lock but the root. Release builds compile
//! every check out. Every acquisition recovers from poisoning: the guarded
//! state stays consistent under unwinds, so one panicked worker must not
//! wedge the serving tier.

use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// A lock's place in the acquisition order: its level (higher is taken
/// first) and its `Struct.field` name, as the rank table names it.
#[cfg(any(debug_assertions, test))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rank {
    level: u8,
    name: &'static str,
}

/// Every ranked lock, indexed by the constants below: a lock's type
/// carries its index (`Mutex<T, CACHE>`), so no lock is without a rank.
#[cfg(any(debug_assertions, test))]
const RANKS: [Rank; 8] = [
    Rank { level: 2, name: "QueryProcessor.notify_lock" },
    Rank { level: 1, name: "QueryProcessor.subscriptions" },
    Rank { level: 0, name: "QueryProcessor.db" },
    Rank { level: 0, name: "ServingCore.cache" },
    Rank { level: 0, name: "Metrics.inner" },
    Rank { level: 0, name: "SubscriptionState.inner" },
    Rank { level: 0, name: "TicketState.slot" },
    Rank { level: 0, name: "ShardQueue.state" },
];

/// `QueryProcessor.notify_lock`, the root of the order. It exists to be
/// held across subscription evaluation: registrations and concurrent
/// ingests must commit in one global order, and nothing ever acquires it
/// while holding another lock. It is therefore the one lock a thread may
/// hold at a blocking point (the shard fan-out of a refresh).
pub(crate) const NOTIFY: usize = 0;
/// `QueryProcessor.subscriptions`, the registry, beneath the root.
pub(crate) const SUBSCRIPTIONS: usize = 1;
// The leaves: a thread holding one takes no other lock.
pub(crate) const DB: usize = 2;
pub(crate) const CACHE: usize = 3;
pub(crate) const METRICS: usize = 4;
pub(crate) const SUBSCRIPTION: usize = 5;
pub(crate) const TICKET: usize = 6;
pub(crate) const QUEUE: usize = 7;

/// Takes the guard out of a poisoned lock: the one place poisoning is
/// recovered from.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(debug_assertions)]
thread_local! {
    /// The ranked locks this thread holds: each one's address and rank.
    static HELD: std::cell::RefCell<Vec<(usize, Rank)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Panics unless `rank` is strictly below every rank this thread holds,
/// then records the lock at `lock` as held — before the thread blocks on
/// it, so an inversion panics instead of deadlocking.
#[cfg(debug_assertions)]
#[expect(clippy::panic, reason = "a lock-order violation")]
fn record(lock: usize, rank: Rank) {
    let above = HELD.with_borrow(|held| {
        held.iter().find(|(_, held)| held.level <= rank.level).map(|&(_, held)| held)
    });
    // A second panic while one unwinds would abort the process and hide
    // the first: a violation inside a `Drop` during unwinding goes unreported.
    if let Some(above) = above.filter(|_| !std::thread::panicking()) {
        panic!(
            "lock order violated: {} (rank {}) acquired while holding {} (rank {})",
            rank.name, rank.level, above.name, above.level
        );
    }
    HELD.with_borrow_mut(|held| held.push((lock, rank)));
}

/// Erases the latest record of the lock at `lock`, wherever it sits.
#[cfg(debug_assertions)]
fn erase(lock: usize) {
    let _ = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Some(at) = held.iter().rposition(|&(held, _)| held == lock) {
            held.remove(at);
        }
    });
}

/// Asserts, in debug builds, that the calling thread holds no ranked lock
/// but the root at the blocking point `at`: a leaf or the registry held
/// here would stall every thread contending on it while the call blocks.
#[cfg_attr(not(debug_assertions), allow(unused_variables, reason = "debug-only check"))]
#[cfg_attr(debug_assertions, expect(clippy::panic, reason = "a guard held at a blocking point"))]
pub(crate) fn blocking_point(at: &'static str) {
    #[cfg(debug_assertions)]
    {
        let live = HELD.with_borrow(|held| {
            held.iter().find(|(_, rank)| *rank != RANKS[NOTIFY]).map(|&(_, rank)| rank)
        });
        if let Some(live) = live.filter(|_| !std::thread::panicking()) {
            panic!("{} (rank {}) held across the blocking point {at}", live.name, live.level);
        }
    }
}

/// This thread's record of one ranked lock it holds, erased on drop (and
/// for the span of a condvar wait). Empty in release builds.
#[derive(Debug)]
struct Held {
    #[cfg(debug_assertions)]
    lock: usize,
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl Held {
    fn suspend(&self) {
        #[cfg(debug_assertions)]
        erase(self.lock);
    }

    fn resume(&self) {
        #[cfg(debug_assertions)]
        record(self.lock, self.rank);
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        erase(self.lock);
    }
}

/// A `std` lock `L` whose rank is `RANKS[R]`: a [`Mutex`] or an [`RwLock`].
#[derive(Debug, Default)]
pub(crate) struct Ranked<L, const R: usize>(L);

/// A ranked `std::sync::Mutex`.
pub(crate) type Mutex<T, const R: usize> = Ranked<std::sync::Mutex<T>, R>;
/// A ranked `std::sync::RwLock`: both halves take the lock's one rank.
pub(crate) type RwLock<T, const R: usize> = Ranked<std::sync::RwLock<T>, R>;
/// The guard of a ranked [`Mutex`].
pub(crate) type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;

impl<L, const R: usize> Ranked<L, R> {
    /// Checks and records this lock's rank (see `record`).
    fn held(&self) -> Held {
        #[cfg(debug_assertions)]
        record(std::ptr::from_ref(self).addr(), RANKS[R]);
        Held {
            #[cfg(debug_assertions)]
            lock: std::ptr::from_ref(self).addr(),
            #[cfg(debug_assertions)]
            rank: RANKS[R],
        }
    }
}

impl<T, const R: usize> Mutex<T, R> {
    pub(crate) const fn new(value: T) -> Mutex<T, R> {
        Ranked(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering it from poisoning.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.held();
        Guard { inner: recover(self.0.lock()), held }
    }

    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.0.is_poisoned()
    }
}

impl<T, const R: usize> RwLock<T, R> {
    pub(crate) const fn new(value: T) -> RwLock<T, R> {
        Ranked(std::sync::RwLock::new(value))
    }

    /// Acquires shared access, recovering the lock from poisoning.
    pub(crate) fn read(&self) -> Guard<std::sync::RwLockReadGuard<'_, T>> {
        let held = self.held();
        Guard { inner: recover(self.0.read()), held }
    }

    /// Acquires exclusive access, recovering the lock from poisoning.
    pub(crate) fn write(&self) -> Guard<std::sync::RwLockWriteGuard<'_, T>> {
        let held = self.held();
        Guard { inner: recover(self.0.write()), held }
    }
}

/// A `std` guard `G` and this thread's record of holding its lock.
pub(crate) struct Guard<G> {
    inner: G,
    held: Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// A `std::sync::Condvar` over ranked guards. A wait is a blocking point
/// that releases the guard it is handed, so only the thread's *other*
/// ranked locks are checked there.
#[derive(Debug, Default)]
pub(crate) struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Blocks until notified, releasing `guard` meanwhile.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        guard.held.suspend();
        blocking_point("Condvar::wait");
        let inner = recover(self.0.wait(guard.inner));
        guard.held.resume();
        Guard { inner, held: guard.held }
    }

    /// As [`Condvar::wait`], giving up after `timeout`.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        guard.held.suspend();
        blocking_point("Condvar::wait_timeout");
        let (inner, timed_out) = recover(self.0.wait_timeout(guard.inner, timeout));
        guard.held.resume();
        (Guard { inner, held: guard.held }, timed_out)
    }

    pub(crate) fn notify_one(&self) {
        self.0.notify_one();
    }

    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ARCHITECTURE.md's `lock-hierarchy` block: one `rank N Struct.field`
    /// line per lock and one `Struct.field -> Struct.field` line per edge.
    #[test]
    fn the_documented_rank_table_is_the_code_and_every_edge_runs_downward() {
        let level_of = |name: &str| RANKS.iter().find(|rank| rank.name == name).unwrap().level;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ARCHITECTURE.md");
        let text = std::fs::read_to_string(path).unwrap();
        let block = text.split("<!-- lock-hierarchy:begin -->").nth(1).unwrap();
        let (mut table, mut edges) = (Vec::new(), 0);
        for line in block.split("<!-- lock-hierarchy:end -->").next().unwrap().lines() {
            if let Some((from, to)) = line.split_once(" -> ") {
                assert!(level_of(from) > level_of(to), "documented edge {from} -> {to} runs up");
                edges += 1;
            } else if let Some((level, name)) =
                line.strip_prefix("rank ").and_then(|r| r.split_once(' '))
            {
                table.push((name.trim(), level.parse::<u8>().unwrap()));
            }
        }
        let mut code: Vec<_> = RANKS.iter().map(|rank| (rank.name, rank.level)).collect();
        code.sort();
        table.sort();
        assert_eq!((table, edges), (code, 6), "ARCHITECTURE.md's rank table is sync.rs's");
    }

    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn an_inverted_or_sibling_acquisition_panics_naming_both_locks() {
        let (root, registry) = (Mutex::<(), NOTIFY>::new(()), Mutex::<(), SUBSCRIPTIONS>::new(()));
        let (db, cache) = (RwLock::<(), DB>::new(()), Mutex::<(), CACHE>::new(()));
        let message = panic_message(|| drop((cache.lock(), root.lock())));
        let expected =
            "QueryProcessor.notify_lock (rank 2) acquired while holding ServingCore.cache";
        assert!(message.starts_with(&format!("lock order violated: {expected}")), "{message}");
        let message = panic_message(|| drop((cache.lock(), db.read())));
        assert!(message.contains("QueryProcessor.db (rank 0) acquired"), "{message}");
        // Guards release by identity, in any order; the unwinds leaked none.
        let (outer, inner) = (root.lock(), registry.lock());
        drop(outer);
        drop((db.write(), inner));
        drop((root.lock(), registry.lock(), cache.lock()));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn blocking_points_admit_the_root_alone() {
        let (root, queue) = (Mutex::<(), NOTIFY>::new(()), Mutex::<(), QUEUE>::new(()));
        let _root = root.lock();
        blocking_point("a test");
        // A condvar wait releases the guard it is handed, and takes it back.
        let (guard, _) = Condvar::default().wait_timeout(queue.lock(), Duration::ZERO);
        let message = panic_message(move || drop((guard, blocking_point("a test"))));
        assert_eq!(message, "ShardQueue.state (rank 0) held across the blocking point a test");
    }
}
