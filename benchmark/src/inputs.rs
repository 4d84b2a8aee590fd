//! Inputs owned by the benchmark: every chain, object placement, window
//! and feed is a pure function of `--seed` and this file.
//!
//! Deliberately independent of `ust_data` and of `crates/compat/rand`
//! (whose stream changes when ROADMAP swaps in crates.io `rand`): a later
//! PR cannot move the workloads without editing this directory, which it
//! may not do.
//!
//! Structural parameters that set an op's cost — kind, window length,
//! window start time, event time step — are laid out on fixed schedules;
//! the seed only chooses *where* things are and in which order ops run.
//! That keeps every metric comparable across seeds (the driver reads
//! spread over ten seeds), while no two seeds share an input.

use ust_core::{Observation, QueryWindow, UncertainObject};
use ust_markov::{CooBuilder, MarkovChain, SparseVector};
use ust_space::TimeSet;

/// Successor states per state of the paper's banded model (Table I).
pub const STATE_SPREAD: usize = 5;
/// Width of the locality band reachable in one transition (Table I).
pub const MAX_STEP: usize = 40;
/// Start states per object / states per reported fix (Table I).
pub const OBJECT_SPREAD: usize = 5;
/// Share of a clustered population placed in the "city".
pub const CITY_OBJECT_SHARE: f64 = 0.9;
/// Share of the state space the "city" occupies (its low end).
pub const CITY_STATE_SHARE: f64 = 0.1;

/// SplitMix64 (Steele, Lea, Flood 2014): the benchmark's only PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named part of a workload, so adding draws to
    /// one part never shifts the stream of another.
    pub fn fork(seed: u64, part: &str) -> Self {
        let mut d = Digest::new();
        d.u64(seed);
        d.bytes(part.as_bytes());
        Rng(d.0)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A 64-bit digest over a canonical rendering of inputs or answers: FNV-1a
/// taken a word at a time (answers run to 10⁵ entries and are digested
/// after every op, so a byte-wise hash would cost as much as the op), with
/// a fold so high bits reach low ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word in.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 ^= self.0 >> 32;
    }

    /// Folds one float in, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a label in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u64(b as u64);
        }
    }

    /// The low 48 bits: exactly representable as a JSON number.
    pub fn low48(self) -> f64 {
        (self.0 & ((1 << 48) - 1)) as f64
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// The paper's banded random chain (Section VIII-A): from every state
/// exactly [`STATE_SPREAD`] successors inside `[i − MAX_STEP/2,
/// i + MAX_STEP/2]`, random row-normalised weights.
pub fn banded_chain(n: usize, rng: &mut Rng, digest: &mut Digest) -> MarkovChain {
    let half = MAX_STEP / 2;
    let mut builder = CooBuilder::with_capacity(n, n, n * STATE_SPREAD);
    let mut successors = Vec::with_capacity(STATE_SPREAD);
    let mut weights = Vec::with_capacity(STATE_SPREAD);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let band = (i + half).min(n - 1) - lo + 1;
        successors.clear();
        while successors.len() < STATE_SPREAD.min(band) {
            let c = lo + rng.below(band);
            if !successors.contains(&c) {
                successors.push(c);
            }
        }
        weights.clear();
        weights.extend(successors.iter().map(|_| rng.unit() + 1e-3));
        let total: f64 = weights.iter().sum();
        for (&c, &w) in successors.iter().zip(&weights) {
            digest.u64(c as u64);
            digest.f64(w / total);
            builder.push(i, c, w / total).expect("successor lies inside the matrix");
        }
    }
    MarkovChain::from_csr(builder.build()).expect("rows are normalised by construction")
}

/// One fix: a run of [`OBJECT_SPREAD`] states from `start`, random weights.
pub fn fix(n: usize, start: usize, time: u32, rng: &mut Rng, digest: &mut Digest) -> Observation {
    let start = start.min(n - OBJECT_SPREAD);
    let pairs: Vec<(usize, f64)> =
        (0..OBJECT_SPREAD).map(|k| (start + k, rng.unit() + 1e-3)).collect();
    digest.u64(time as u64);
    for &(s, w) in &pairs {
        digest.u64(s as u64);
        digest.f64(w);
    }
    let pdf = SparseVector::from_pairs(n, pairs).expect("states lie inside the space");
    Observation::uncertain(time, pdf).expect("weights are positive and finite")
}

/// `count` objects anchored at `t = 0`, ids `0..count`. With `clustered`,
/// the first [`CITY_OBJECT_SHARE`] of them start inside the city (the low
/// [`CITY_STATE_SHARE`] of the space) and the rest outside; otherwise all
/// start uniformly over the space.
pub fn objects(
    count: usize,
    n: usize,
    clustered: bool,
    rng: &mut Rng,
    digest: &mut Digest,
) -> Vec<UncertainObject> {
    let city = city_end(n);
    let in_city = if clustered { (count as f64 * CITY_OBJECT_SHARE) as usize } else { 0 };
    (0..count)
        .map(|id| {
            let start = match (clustered, id < in_city) {
                (false, _) => rng.below(n - OBJECT_SPREAD + 1),
                (true, true) => rng.below(city),
                (true, false) => city + rng.below(n - city - OBJECT_SPREAD + 1),
            };
            UncertainObject::with_single_observation(id as u64, fix(n, start, 0, rng, digest))
        })
        .collect()
}

/// First state outside the city.
pub fn city_end(n: usize) -> usize {
    ((n as f64 * CITY_STATE_SHARE) as usize).max(1)
}

/// The window `[lo, lo + len) × [t0, t1]`, clipped to the space.
pub fn window(n: usize, lo: usize, len: usize, t0: u32, t1: u32) -> QueryWindow {
    let lo = lo.min(n - len);
    QueryWindow::from_states(n, lo..lo + len, TimeSet::interval(t0, t1))
        .expect("window is non-empty and inside the space")
}

/// One arrival of a feed.
#[derive(Debug, Clone)]
pub struct Event {
    /// The reporting object.
    pub object_id: u64,
    /// The reported fix.
    pub observation: Observation,
    /// Whether the database must ignore it as out of order.
    pub stale: bool,
}

/// A latest-fix feed over objects `0..reporters`: the reporters take
/// turns in an order the seed shuffles, so after `events` arrivals no clock
/// is past `⌈events / reporters⌉` — windows that start later than that
/// stay answerable under every seed. From the second turn on, every
/// `stale_every`-th arrival re-reports the time before the reporter's
/// clock (out of order: the database ignores it); the others advance the
/// clock by one. The stale share of the op mix is thus the same under
/// every seed.
pub fn feed(
    events: usize,
    reporters: usize,
    n: usize,
    stale_every: usize,
    rng: &mut Rng,
    digest: &mut Digest,
) -> Vec<Event> {
    let mut turn: Vec<usize> = (0..reporters).collect();
    rng.shuffle(&mut turn);
    let mut clock = vec![0u32; reporters];
    (0..events)
        .map(|i| {
            let who = turn[i % reporters];
            let stale = i >= reporters && i % stale_every == stale_every - 1;
            let time = if stale {
                clock[who] - 1
            } else {
                clock[who] += 1;
                clock[who]
            };
            digest.u64(who as u64);
            let start = rng.below(n - OBJECT_SPREAD + 1);
            Event { object_id: who as u64, observation: fix(n, start, time, rng, digest), stale }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic_and_matches_the_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference C).
        let mut rng = Rng(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let a: Vec<u64> = (0..8).map(|_| Rng(42).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng(1).next_u64(), Rng(2).next_u64());
        assert_ne!(Rng::fork(1, "chain").next_u64(), Rng::fork(1, "objects").next_u64());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = Rng(7);
        for n in [1usize, 2, 3, 17, 1000] {
            assert!((0..200).all(|_| rng.below(n) < n));
        }
        assert!((0..200).all(|_| (0.0..1.0).contains(&rng.unit())));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let build = |seed| {
            let mut d = Digest::new();
            banded_chain(300, &mut Rng::fork(seed, "chain"), &mut d);
            objects(50, 300, true, &mut Rng::fork(seed, "objects"), &mut d);
            feed(40, 10, 300, 7, &mut Rng::fork(seed, "feed"), &mut d);
            d
        };
        assert_eq!(build(3), build(3));
        assert_ne!(build(3), build(4));
    }

    #[test]
    fn chain_respects_band_and_spread() {
        let chain = banded_chain(500, &mut Rng(1), &mut Digest::new());
        for i in 0..500usize {
            let (cols, _) = chain.matrix().row(i);
            assert_eq!(cols.len(), STATE_SPREAD);
            assert!(cols.iter().all(|&c| (c as i64 - i as i64).abs() <= (MAX_STEP / 2) as i64));
        }
    }

    #[test]
    fn clustered_objects_respect_the_city() {
        let n = 2000;
        let objs = objects(200, n, true, &mut Rng(5), &mut Digest::new());
        for (i, o) in objs.iter().enumerate() {
            let first = o.initial_distribution().iter().map(|(s, _)| s).min().unwrap();
            assert_eq!(first < city_end(n), i < 180, "object {i} starts at {first}");
        }
    }

    #[test]
    fn feed_marks_exactly_the_scheduled_stale_arrivals() {
        let events = feed(700, 20, 400, 7, &mut Rng(9), &mut Digest::new());
        // Every 7th arrival, except the two that fall into the first turn.
        assert_eq!(events.iter().filter(|e| e.stale).count(), 98);
        let mut clock = [0u32; 20];
        for e in &events {
            let c = &mut clock[e.object_id as usize];
            assert_eq!(e.stale, e.observation.time() < *c);
            *c = (*c).max(e.observation.time());
        }
        assert!(clock.iter().all(|&c| c <= 700 / 20), "no clock runs ahead of its turns");
    }
}
