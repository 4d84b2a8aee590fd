//! Deterministic observation feeds for the streaming ingest path.
//!
//! A streaming benchmark needs the opposite shape of a batch workload: a
//! fixed object population plus a long, *localized* arrival sequence —
//! most fixes land on a small hot set of frequently reporting objects,
//! per-object timestamps mostly advance, and a tunable fraction arrives
//! out of order (the events
//! [`ust_core::TrajectoryDatabase::ingest`] classifies as
//! [`ust_core::IngestOutcome::IgnoredStale`]). This module generates that
//! feed deterministically per seed, so the incremental-≡-batch harness in
//! `tests/streaming.rs` replays identical sequences.
//!
//! The motion model and placement reuse the clustered index workload
//! ([`crate::index_workload`]): the database a feed starts from is
//! exactly `generate_index_workload(&config.workload).db`.

#![expect(
    clippy::expect_used,
    reason = "synthetic dataset generator: events target objects the same generator created, \
              so every `expect` guards an invariant the generator itself establishes; a \
              failure is a bug in this file, not recoverable caller input."
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_core::{Observation, TrajectoryDatabase};
use ust_markov::SparseVector;
use ust_space::LineSpace;

use crate::index_workload::{generate_index_workload, IndexWorkloadConfig};

/// Parameters of a generated observation feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedConfig {
    /// The population the feed reports on (database + motion model).
    pub workload: IndexWorkloadConfig,
    /// Number of observation events to emit.
    pub num_events: usize,
    /// Number of distinct objects that ever report — the "hot set",
    /// drawn from the front of the database. Localized updates are the
    /// streaming win: everything outside the hot set keeps its
    /// registration-time answer entry untouched.
    pub hot_objects: usize,
    /// Fraction of events emitted with a timestamp *behind* the object's
    /// previous fix — out-of-order arrivals the latest-fix policy must
    /// ignore.
    pub stale_fraction: f64,
    /// Largest timestamp step between an object's consecutive fixes.
    pub max_time_step: u32,
    /// Feed RNG seed (independent of the workload seed, so the same
    /// population can be replayed under different feeds).
    pub seed: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            workload: IndexWorkloadConfig::small(),
            num_events: 64,
            hot_objects: 8,
            stale_fraction: 0.15,
            max_time_step: 3,
            seed: 0xFEED,
        }
    }
}

/// One arrival: a fresh (possibly out-of-order) fix for one object.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedEvent {
    /// The reporting object.
    pub object_id: u64,
    /// The new fix.
    pub observation: Observation,
}

/// A generated feed: the seed database plus the arrival sequence.
#[derive(Debug)]
pub struct StreamingFeed {
    /// The database the feed starts from (every object at time 0).
    pub db: TrajectoryDatabase,
    /// The 1-D state space the states live in.
    pub space: LineSpace,
    /// The arrivals, in feed order.
    pub events: Vec<FeedEvent>,
    /// The generating configuration.
    pub config: FeedConfig,
}

impl StreamingFeed {
    /// The database state after applying the first `n` events of the feed
    /// to a fresh copy of the seed database — the batch-side reference the
    /// equivalence harness compares subscriptions against. Latest-fix
    /// ingest makes this a pure function of the prefix: stale events are
    /// ignored exactly as the streaming side ignored them.
    pub fn replay_prefix(&self, n: usize) -> TrajectoryDatabase {
        let mut db = self.db.clone();
        for event in &self.events[..n.min(self.events.len())] {
            db.ingest(event.object_id, event.observation.clone())
                .expect("feed events target existing objects with matching dimensions");
        }
        db
    }
}

/// Generates the feed for `config`: the clustered seed database plus
/// `num_events` hot-set arrivals, deterministically per seed.
pub fn generate_streaming_feed(config: &FeedConfig) -> StreamingFeed {
    let workload = generate_index_workload(&config.workload);
    let n = config.workload.num_states;
    let spread = config.workload.object_spread.clamp(1, n);
    let hot = config.hot_objects.clamp(1, config.workload.num_objects);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut last_time = vec![0u32; hot];
    let mut events = Vec::with_capacity(config.num_events);
    for _ in 0..config.num_events {
        let slot = rng.random_range(0..hot);
        let stale = last_time[slot] > 0 && rng.random::<f64>() < config.stale_fraction;
        let time = if stale {
            rng.random_range(0..last_time[slot])
        } else {
            let step = rng.random_range(1..=config.max_time_step.max(1));
            last_time[slot] += step;
            last_time[slot]
        };
        let start = rng.random_range(0..(n - spread + 1));
        let pairs: Vec<(usize, f64)> =
            (0..spread).map(|offset| (start + offset, rng.random::<f64>() + 1e-3)).collect();
        let dist = SparseVector::from_pairs(n, pairs).expect("states in range");
        events.push(FeedEvent {
            object_id: slot as u64,
            observation: Observation::uncertain(time, dist).expect("positive weights"),
        });
    }
    StreamingFeed { db: workload.db, space: workload.space, events, config: *config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_core::IngestOutcome;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = FeedConfig::default();
        let a = generate_streaming_feed(&config);
        let b = generate_streaming_feed(&config);
        assert_eq!(a.events, b.events);
        let other = generate_streaming_feed(&FeedConfig { seed: 1, ..config });
        assert_ne!(a.events, other.events, "different seeds give different feeds");
    }

    #[test]
    fn feed_targets_the_hot_set_and_mixes_in_stale_events() {
        let config = FeedConfig { num_events: 200, ..FeedConfig::default() };
        let feed = generate_streaming_feed(&config);
        assert_eq!(feed.events.len(), 200);
        assert!(feed.events.iter().all(|e| (e.object_id as usize) < config.hot_objects));
        let mut db = feed.db.clone();
        let applied = feed
            .events
            .iter()
            .filter(|e| db.ingest(e.object_id, e.observation.clone()) == Ok(IngestOutcome::Applied))
            .count();
        assert!(applied < feed.events.len(), "some events are out-of-order");
        assert!(
            applied * 2 > feed.events.len(),
            "most events advance the clock ({applied}/200 applied)"
        );
    }

    #[test]
    fn replay_prefix_is_a_pure_function_of_the_prefix() {
        let feed = generate_streaming_feed(&FeedConfig::default());
        let half = feed.events.len() / 2;
        let a = feed.replay_prefix(half);
        let b = feed.replay_prefix(half);
        for idx in 0..a.len() {
            assert_eq!(
                a.object(idx).unwrap().anchor().distribution(),
                b.object(idx).unwrap().anchor().distribution()
            );
        }
        // The seed database itself is never mutated by replays.
        assert!(feed.db.objects().iter().all(|o| o.anchor().time() == 0));
    }
}
