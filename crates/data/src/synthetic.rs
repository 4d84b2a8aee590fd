//! The paper's synthetic dataset generator (Table I).
//!
//! Reproduces the construction of Section VIII-A: `|S|` states indexed
//! linearly; from each state exactly `state_spread` successor states are
//! reachable, all within the locality band `[s_i − max_step/2,
//! s_i + max_step/2]`; transition probabilities are random and row-
//! normalized. Each of the `|D|` objects starts at time 0 with a PDF over
//! `object_spread` states (a contiguous run around a random center — the
//! paper only fixes the *number* of start states, which is what the
//! parameter controls).
//!
//! | parameter | range (paper) | default (paper) |
//! |---|---|---|
//! | `num_objects` (`\|D\|`) | 1,000 – 100,000 | 10,000 |
//! | `num_states` (`\|S\|`) | 2,000 – 100,000 | 100,000 |
//! | `object_spread` | 5 | 5 |
//! | `state_spread` | 1 – 20 | 5 |
//! | `max_step` | 10 – 100 | 40 |

#![expect(
    clippy::expect_used,
    reason = "synthetic dataset generator: successor states are sampled from `0..n`, so every \
              `expect` guards an invariant the generator itself establishes; a failure is a \
              bug in this file, not recoverable caller input."
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_core::{Observation, TrajectoryDatabase, UncertainObject};
use ust_markov::{CooBuilder, MarkovChain, SparseVector};
use ust_space::LineSpace;

/// Parameters of the synthetic generator (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticConfig {
    /// Number of uncertain objects `|D|`.
    pub num_objects: usize,
    /// Number of states `|S|`.
    pub num_states: usize,
    /// Number of possible start states per object.
    pub object_spread: usize,
    /// Number of successor states per state.
    pub state_spread: usize,
    /// Width of the locality band reachable in one transition.
    pub max_step: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_objects: 10_000,
            num_states: 100_000,
            object_spread: 5,
            state_spread: 5,
            max_step: 40,
            seed: 0xDA7A,
        }
    }
}

impl SyntheticConfig {
    /// A small configuration for unit tests and examples.
    pub fn small() -> Self {
        SyntheticConfig {
            num_objects: 100,
            num_states: 1_000,
            object_spread: 5,
            state_spread: 5,
            max_step: 40,
            seed: 0xDA7A,
        }
    }
}

/// A generated synthetic dataset: the database plus its 1-D embedding.
#[derive(Debug)]
pub struct SyntheticDataset {
    /// The uncertain-trajectory database (shared chain + objects).
    pub db: TrajectoryDatabase,
    /// The 1-D state space the states live in.
    pub space: LineSpace,
    /// The generating configuration.
    pub config: SyntheticConfig,
}

/// Builds the banded random transition matrix of the synthetic model.
pub fn synthetic_chain(config: &SyntheticConfig, rng: &mut StdRng) -> MarkovChain {
    let n = config.num_states;
    let half = (config.max_step / 2).max(1);
    let mut builder = CooBuilder::with_capacity(n, n, n * config.state_spread);
    let mut weights: Vec<f64> = Vec::with_capacity(config.state_spread);
    let mut successors: Vec<usize> = Vec::with_capacity(config.state_spread);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half).min(n - 1);
        let band = hi - lo + 1;
        let k = config.state_spread.clamp(1, band);
        successors.clear();
        while successors.len() < k {
            let c = lo + rng.random_range(0..band);
            if !successors.contains(&c) {
                successors.push(c);
            }
        }
        weights.clear();
        let mut total = 0.0;
        for _ in 0..k {
            let w: f64 = rng.random::<f64>() + 1e-3;
            weights.push(w);
            total += w;
        }
        for (&c, &w) in successors.iter().zip(&weights) {
            builder.push(i, c, w / total).expect("successors lie within the state space");
        }
    }
    MarkovChain::from_csr(builder.build()).expect("rows are normalized by construction")
}

/// Draws one object's initial PDF: a contiguous run of `object_spread`
/// states around a random center, with random normalized weights.
pub fn synthetic_object(id: u64, config: &SyntheticConfig, rng: &mut StdRng) -> UncertainObject {
    let n = config.num_states;
    let spread = config.object_spread.clamp(1, n);
    let start = rng.random_range(0..=(n - spread));
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

/// Generates the complete dataset for `config`.
pub fn generate(config: &SyntheticConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let chain = synthetic_chain(config, &mut rng);
    let mut db = TrajectoryDatabase::new(chain);
    for id in 0..config.num_objects {
        db.insert(synthetic_object(id as u64, config, &mut rng))
            .expect("generated objects are valid");
    }
    SyntheticDataset { db, space: LineSpace::new(config.num_states), config: *config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_space::StateSpace;

    #[test]
    fn defaults_match_table_1() {
        let c = SyntheticConfig::default();
        assert_eq!(c.num_objects, 10_000);
        assert_eq!(c.num_states, 100_000);
        assert_eq!(c.object_spread, 5);
        assert_eq!(c.state_spread, 5);
        assert_eq!(c.max_step, 40);
    }

    #[test]
    fn generated_chain_respects_band_and_spread() {
        let config = SyntheticConfig { num_states: 500, ..SyntheticConfig::small() };
        let mut rng = StdRng::seed_from_u64(1);
        let chain = synthetic_chain(&config, &mut rng);
        assert_eq!(chain.num_states(), 500);
        let half = (config.max_step / 2) as i64;
        for i in 0..500usize {
            let (cols, _) = chain.matrix().row(i);
            assert!(cols.len() <= config.state_spread);
            assert!(!cols.is_empty());
            for &c in cols {
                assert!((c as i64 - i as i64).abs() <= half, "state {i} reaches {c}");
            }
        }
    }

    #[test]
    fn objects_have_requested_spread() {
        let config = SyntheticConfig::small();
        let data = generate(&config);
        assert_eq!(data.db.len(), config.num_objects);
        for o in data.db.objects() {
            assert_eq!(o.initial_distribution().nnz(), config.object_spread);
            assert!((o.initial_distribution().sum() - 1.0).abs() < 1e-9);
            assert_eq!(o.anchor().time(), 0);
        }
        assert_eq!(data.space.num_states(), config.num_states);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = SyntheticConfig::small();
        let a = generate(&config);
        let b = generate(&config);
        assert!(a.db.models()[0].matrix().approx_eq(b.db.models()[0].matrix(), 0.0));
        assert_eq!(
            a.db.object(7).unwrap().initial_distribution(),
            b.db.object(7).unwrap().initial_distribution()
        );
        let c = generate(&SyntheticConfig { seed: 99, ..config });
        assert!(!a.db.models()[0].matrix().approx_eq(c.db.models()[0].matrix(), 1e-15));
    }

    #[test]
    fn degenerate_small_spaces_work() {
        let config = SyntheticConfig {
            num_objects: 3,
            num_states: 2,
            object_spread: 5, // clamped to 2
            state_spread: 10, // clamped to band
            max_step: 2,
            seed: 0,
        };
        let data = generate(&config);
        assert_eq!(data.db.len(), 3);
        for o in data.db.objects() {
            assert!(o.initial_distribution().nnz() <= 2);
        }
    }
}
