//! Clustered-placement workloads for exercising the spatio-temporal
//! candidate index at scale.
//!
//! The paper's synthetic generator ([`crate::synthetic`]) places objects
//! uniformly over the state space, which makes every region query touch a
//! proportional share of the database — fine for kernel benchmarks, but a
//! worst case for index pruning. Real trajectory databases are clustered:
//! most objects concentrate in a dense "city" band while the remainder
//! spreads thinly over the countryside. This module reproduces that shape
//! so a *selective* window (in the sparse region, early time horizon)
//! prunes almost everything while a *broad* window (over the city, long
//! horizon) keeps the index honest about its overhead.
//!
//! The motion model is the same banded random chain as the synthetic
//! generator; only object placement differs.

#![expect(
    clippy::expect_used,
    reason = "synthetic dataset generator: states are sampled from `0..n` and weights are \
              positive, so every `expect` guards an invariant the generator itself \
              establishes; a failure is a bug in this file, not recoverable caller input."
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_core::{Observation, QueryWindow, Result, TrajectoryDatabase, UncertainObject};
use ust_markov::SparseVector;
use ust_space::{LineSpace, TimeSet};

use crate::synthetic::{synthetic_chain, SyntheticConfig};

/// Parameters of the clustered-placement index workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexWorkloadConfig {
    /// Number of uncertain objects `|D|`.
    pub num_objects: usize,
    /// Number of states `|S|`.
    pub num_states: usize,
    /// Fraction of objects placed inside the dense city band.
    pub city_fraction: f64,
    /// Fraction of the state space the city band occupies (from state 0).
    pub city_width: f64,
    /// Number of possible start states per object.
    pub object_spread: usize,
    /// Number of successor states per state.
    pub state_spread: usize,
    /// Width of the locality band reachable in one transition.
    pub max_step: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IndexWorkloadConfig {
    fn default() -> Self {
        IndexWorkloadConfig {
            num_objects: 100_000,
            num_states: 100_000,
            city_fraction: 0.9,
            city_width: 0.1,
            object_spread: 5,
            state_spread: 5,
            max_step: 40,
            seed: 0x1DE7,
        }
    }
}

impl IndexWorkloadConfig {
    /// A small configuration for unit tests and examples.
    pub fn small() -> Self {
        IndexWorkloadConfig {
            num_objects: 200,
            num_states: 2_000,
            ..IndexWorkloadConfig::default()
        }
    }

    /// The equivalent synthetic-model configuration (drives the chain).
    fn chain_config(&self) -> SyntheticConfig {
        SyntheticConfig {
            num_objects: self.num_objects,
            num_states: self.num_states,
            object_spread: self.object_spread,
            state_spread: self.state_spread,
            max_step: self.max_step,
            seed: self.seed,
        }
    }

    /// Last state (exclusive) of the city band.
    fn city_end(&self) -> usize {
        ((self.num_states as f64 * self.city_width) as usize).clamp(1, self.num_states)
    }
}

/// A generated clustered workload: database, embedding, and the query
/// windows the benchmark runs against it.
#[derive(Debug)]
pub struct IndexWorkload {
    /// The uncertain-trajectory database (shared chain + objects).
    pub db: TrajectoryDatabase,
    /// The 1-D state space the states live in.
    pub space: LineSpace,
    /// The generating configuration.
    pub config: IndexWorkloadConfig,
}

impl IndexWorkload {
    /// A selective region query: a narrow window deep in the sparse
    /// countryside with a short time horizon. Reachability cones of city
    /// objects (and of almost all sparse objects) cannot touch it, so the
    /// index prunes the overwhelming majority of the database.
    pub fn selective_window(&self) -> Result<QueryWindow> {
        let n = self.config.num_states;
        let center = self.config.city_end() + (n - self.config.city_end()) * 9 / 10;
        let lo = center.min(n - 9);
        QueryWindow::from_states(n, lo..lo + 8, TimeSet::interval(0, 2))
    }
}

/// Draws one object anchored at time 0 with a contiguous `object_spread`
/// PDF whose start lies in `[lo, hi)`.
fn placed_object(
    id: u64,
    config: &IndexWorkloadConfig,
    lo: usize,
    hi: usize,
    rng: &mut StdRng,
) -> UncertainObject {
    let n = config.num_states;
    let spread = config.object_spread.clamp(1, n);
    let hi = hi.min(n - spread + 1).max(lo + 1);
    let start = lo + rng.random_range(0..(hi - lo));
    let mut pairs = Vec::with_capacity(spread);
    for offset in 0..spread {
        pairs.push((start + offset, rng.random::<f64>() + 1e-3));
    }
    let dist = SparseVector::from_pairs(n, pairs).expect("states in range");
    UncertainObject::with_single_observation(
        id,
        Observation::uncertain(0, dist).expect("positive weights"),
    )
}

/// Generates the complete clustered workload for `config`.
pub fn generate_index_workload(config: &IndexWorkloadConfig) -> IndexWorkload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let chain = synthetic_chain(&config.chain_config(), &mut rng);
    let mut db = TrajectoryDatabase::new(chain);
    let city_end = config.city_end();
    let city_objects =
        ((config.num_objects as f64 * config.city_fraction) as usize).min(config.num_objects);
    for id in 0..config.num_objects {
        let (lo, hi) = if id < city_objects {
            (0, city_end)
        } else {
            (city_end.min(config.num_states - 1), config.num_states)
        };
        db.insert(placed_object(id as u64, config, lo, hi, &mut rng))
            .expect("generated objects are valid");
    }
    IndexWorkload { db, space: LineSpace::new(config.num_states), config: *config }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_respects_city_band() {
        let config = IndexWorkloadConfig::small();
        let data = generate_index_workload(&config);
        assert_eq!(data.db.len(), config.num_objects);
        let city_end = config.city_end();
        let city_objects = (config.num_objects as f64 * config.city_fraction) as usize;
        for (i, o) in data.db.objects().iter().enumerate() {
            let min_state =
                o.initial_distribution().iter().map(|(s, _)| s).min().expect("non-empty pdf");
            if i < city_objects {
                assert!(min_state < city_end, "object {i} starts at {min_state}");
            } else {
                assert!(min_state >= city_end, "object {i} starts at {min_state}");
            }
            assert_eq!(o.anchor().time(), 0);
        }
    }

    #[test]
    fn windows_are_valid_and_disjoint_in_character() {
        let data = generate_index_workload(&IndexWorkloadConfig::small());
        let selective = data.selective_window().unwrap();
        assert_eq!(selective.states().count(), 8);
        assert_eq!((selective.t_start(), selective.t_end()), (0, 2));
        // The selective window sits entirely outside the city band.
        let city_end = data.config.city_end();
        assert!(selective.states().to_indices().iter().all(|&s| s >= city_end));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = IndexWorkloadConfig::small();
        let a = generate_index_workload(&config);
        let b = generate_index_workload(&config);
        assert_eq!(
            a.db.object(13).unwrap().initial_distribution(),
            b.db.object(13).unwrap().initial_distribution()
        );
    }
}
