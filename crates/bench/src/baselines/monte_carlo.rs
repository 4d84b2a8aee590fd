//! Monte-Carlo path sampling — the paper's baseline competitor (MC).
//!
//! Samples complete trajectories ("possible worlds") of each object and
//! reports the fraction satisfying the query predicate. The paper uses this
//! as the state-of-the-art stand-in and shows it is orders of magnitude
//! slower than OB/QB while only approximating the answer: sampling is a
//! Bernoulli sequence, so the estimate carries a standard deviation of
//! `σ = √(p(1−p)/n)` — at the paper's 100 samples, up to 5 percentage
//! points.
//!
//! One sampled walk serves every predicate: the walk counts its window
//! visits, and each predicate is read off the visit-count distribution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_core::engine::object_based::validate;
use ust_core::{ObjectProbability, QueryWindow, Result, TrajectoryDatabase, UncertainObject};
use ust_markov::{MarkovChain, SparseVector};

/// Monte-Carlo estimator configuration: samples per object and the seed
/// its per-object random streams derive from.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    samples: usize,
    seed: u64,
}

impl MonteCarlo {
    /// An estimator drawing `samples` trajectories per object (the paper
    /// uses 100); estimates are deterministic per `seed`.
    ///
    /// Panics when `samples` is zero: no sampled world is no estimate.
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "a Monte-Carlo estimate needs at least one sample");
        MonteCarlo { samples, seed }
    }

    /// The standard deviation of the estimate `p̂` at `n` samples:
    /// `σ = √(p(1−p)/n)` (the paper's accuracy argument against MC).
    pub fn standard_error(p: f64, n: usize) -> f64 {
        if n == 0 {
            return f64::INFINITY;
        }
        (p * (1.0 - p) / n as f64).sqrt()
    }

    /// The sampled visit-count distribution of one object: entry `k` is
    /// the fraction of sampled worlds inside `S▫` at exactly `k` times of
    /// `T▫`. Each world draws its anchor state, then one successor per
    /// timestamp up to `t_end`, from a random stream seeded by the object id.
    pub fn visit_counts(
        &self,
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
    ) -> Result<Vec<f64>> {
        validate(chain, object, window)?;
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ object.id().wrapping_mul(0x9E3779B97F4A7C15));
        let anchor = object.anchor();
        let inside = |t: u32, state: usize| {
            usize::from(window.time_in_window(t) && window.states().contains(state))
        };
        let mut counts = vec![0u64; window.num_times() + 1];
        for _ in 0..self.samples {
            let mut state = sample_sparse(anchor.distribution(), &mut rng);
            let mut visits = inside(anchor.time(), state);
            for t in anchor.time() + 1..=window.t_end() {
                state = sample_row(chain, state, &mut rng);
                visits += inside(t, state);
            }
            counts[visits] += 1;
        }
        Ok(counts.into_iter().map(|c| c as f64 / self.samples as f64).collect())
    }

    /// PST∃Q estimate: fraction of sampled worlds with ≥ 1 window visit.
    pub fn exists_probability(
        &self,
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
    ) -> Result<f64> {
        Ok(1.0 - self.visit_counts(chain, object, window)?[0])
    }

    /// PSTkQ estimate: the sampled visit-count distribution.
    pub fn ktimes_distribution(
        &self,
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
    ) -> Result<Vec<f64>> {
        self.visit_counts(chain, object, window)
    }

    /// PST∃Q estimates for the whole database, in database order.
    pub fn evaluate_exists(
        &self,
        db: &TrajectoryDatabase,
        window: &QueryWindow,
    ) -> Result<Vec<ObjectProbability>> {
        db.objects()
            .iter()
            .map(|object| {
                let probability = self.exists_probability(db.model_of(object), object, window)?;
                Ok(ObjectProbability { object_id: object.id(), probability })
            })
            .collect()
    }
}

/// Draws a state from a sparse distribution by inverse-CDF walking.
fn sample_sparse(dist: &SparseVector, rng: &mut StdRng) -> usize {
    let u: f64 = rng.random::<f64>() * dist.sum();
    let mut acc = 0.0;
    let mut last = 0;
    for (i, p) in dist.iter() {
        acc += p;
        last = i;
        if u < acc {
            return i;
        }
    }
    last // numeric tail: return the final support state
}

/// Draws the successor of `state` from the chain's transition row.
fn sample_row(chain: &MarkovChain, state: usize, rng: &mut StdRng) -> usize {
    let (cols, vals) = chain.matrix().row(state);
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (&c, &p) in cols.iter().zip(vals) {
        acc += p;
        if u < acc {
            return c as usize;
        }
    }
    cols[cols.len() - 1] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::fixtures::{object_at_s2, paper_chain, paper_window};
    use ust_data::workload::paper_default_window;
    use ust_data::{synthetic, SyntheticConfig};

    #[test]
    fn estimate_converges_to_0864() {
        let mc = MonteCarlo::new(40_000, 7);
        let p = mc.exists_probability(&paper_chain(), &object_at_s2(), &paper_window()).unwrap();
        // 4σ tolerance at n = 40,000: ≈ 0.0069.
        let tol = 4.0 * MonteCarlo::standard_error(0.864, 40_000);
        assert!((p - 0.864).abs() < tol, "estimate {p} off by more than {tol}");
    }

    #[test]
    fn k_distribution_converges_to_section_7_values() {
        let mc = MonteCarlo::new(40_000, 11);
        let dist =
            mc.ktimes_distribution(&paper_chain(), &object_at_s2(), &paper_window()).unwrap();
        for (k, expected) in [0.136, 0.672, 0.192].into_iter().enumerate() {
            let tol = 4.0 * MonteCarlo::standard_error(expected, 40_000);
            assert!((dist[k] - expected).abs() < tol, "k={k}: {dist:?}");
        }
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let mc = MonteCarlo::new(500, 42);
        let a = mc.exists_probability(&paper_chain(), &object_at_s2(), &paper_window()).unwrap();
        let b = mc.exists_probability(&paper_chain(), &object_at_s2(), &paper_window()).unwrap();
        assert_eq!(a, b);
        let c = MonteCarlo::new(500, 43)
            .exists_probability(&paper_chain(), &object_at_s2(), &paper_window())
            .unwrap();
        assert_ne!(a, c, "different seeds should (virtually always) differ");
    }

    #[test]
    fn standard_error_formula() {
        assert!((MonteCarlo::standard_error(0.5, 100) - 0.05).abs() < 1e-12);
        assert_eq!(MonteCarlo::standard_error(0.5, 0), f64::INFINITY);
        assert_eq!(MonteCarlo::standard_error(0.0, 100), 0.0);
    }

    /// No sampled world is no estimate: its all-zero visit counts would
    /// read as `P∃ = 1` and a k-distribution summing to 0.
    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_are_refused() {
        let _ = MonteCarlo::new(0, 5).exists_probability(
            &paper_chain(),
            &object_at_s2(),
            &paper_window(),
        );
    }

    /// The estimates the figures and tests were calibrated on, recorded
    /// from the earlier pipeline-driven sampler: the plain loop draws the
    /// same worlds in the same order, so they reproduce bit for bit.
    #[test]
    fn estimates_reproduce_recorded_values() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let counts = |samples, seed| {
            MonteCarlo::new(samples, seed)
                .visit_counts(&paper_chain(), &object_at_s2(), &paper_window())
                .unwrap()
        };
        assert_eq!(bits(&counts(500, 42)), bits(&[0.16, 0.686, 0.154]));
        assert_eq!(bits(&counts(40_000, 7)), bits(&[0.134725, 0.674975, 0.1903]));

        // The Fig. 8(a) test database at 50 samples, seed 1.
        let data = synthetic::generate(&SyntheticConfig {
            num_objects: 20,
            num_states: 2_000,
            ..SyntheticConfig::default()
        });
        let window = paper_default_window(2_000).unwrap();
        let estimates: Vec<f64> = MonteCarlo::new(50, 1)
            .evaluate_exists(&data.db, &window)
            .unwrap()
            .iter()
            .map(|r| r.probability)
            .collect();
        let mut expected = [0.0; 20];
        expected[1] = 0.24;
        expected[2] = 0.06000000000000005;
        expected[18] = 0.09999999999999998;
        assert_eq!(bits(&estimates), bits(&expected));
    }
}
