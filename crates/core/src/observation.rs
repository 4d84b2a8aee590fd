//! Object observations.
//!
//! An observation fixes (exactly or with uncertainty) the location of an
//! object at one timestamp — a GPS fix, an iceberg sighting, a sensor
//! reading. Per the paper, "an observation at a specific time may be precise
//! or uncertain": we store a normalized sparse distribution over states.

use ust_markov::{SparseVector, StateMask};

use crate::error::{QueryError, Result};

/// A (possibly uncertain) location observation at a discrete timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    time: u32,
    distribution: SparseVector,
}

impl Observation {
    /// An exact observation: the object is at `state` with certainty.
    pub fn exact(time: u32, num_states: usize, state: usize) -> Result<Self> {
        let distribution = SparseVector::unit(num_states, state)?;
        Ok(Observation { time, distribution })
    }

    /// An uncertain observation from a (not necessarily normalized)
    /// non-negative weight vector; normalized on construction.
    pub fn uncertain(time: u32, mut distribution: SparseVector) -> Result<Self> {
        for (_, v) in distribution.iter() {
            if v < 0.0 || !v.is_finite() {
                return Err(QueryError::Markov(ust_markov::MarkovError::InvalidProbability {
                    value: v,
                }));
            }
        }
        distribution.normalize().map_err(QueryError::from)?;
        Ok(Observation { time, distribution })
    }

    /// A uniform observation over a set of candidate states (e.g. "somewhere
    /// within this sighting ellipse").
    pub fn uniform_over(time: u32, num_states: usize, states: &StateMask) -> Result<Self> {
        if states.is_empty() {
            return Err(QueryError::Markov(ust_markov::MarkovError::Empty {
                what: "observation support",
            }));
        }
        let p = 1.0 / states.count() as f64;
        let distribution = SparseVector::from_pairs(num_states, states.iter().map(|s| (s, p)))?;
        Ok(Observation { time, distribution })
    }

    /// The observation timestamp.
    pub fn time(&self) -> u32 {
        self.time
    }

    /// The normalized location distribution.
    pub fn distribution(&self) -> &SparseVector {
        &self.distribution
    }

    /// Dimension of the underlying state space.
    pub fn num_states(&self) -> usize {
        self.distribution.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_observation_is_one_hot() {
        let o = Observation::exact(5, 10, 3).unwrap();
        assert_eq!(o.time(), 5);
        assert_eq!(o.distribution().nnz(), 1);
        assert_eq!(o.distribution().get(3), 1.0);
        assert!(Observation::exact(5, 10, 10).is_err());
    }

    #[test]
    fn uncertain_observation_normalizes() {
        let raw = SparseVector::from_pairs(6, [(1, 2.0), (4, 6.0)]).unwrap();
        let o = Observation::uncertain(0, raw).unwrap();
        assert!((o.distribution().get(1) - 0.25).abs() < 1e-12);
        assert!((o.distribution().get(4) - 0.75).abs() < 1e-12);
        assert_eq!(o.num_states(), 6);
    }

    #[test]
    fn uncertain_rejects_negative_and_zero_mass() {
        let neg = SparseVector::from_pairs(3, [(0, -1.0), (1, 2.0)]).unwrap();
        assert!(Observation::uncertain(0, neg).is_err());
        assert!(Observation::uncertain(0, SparseVector::zeros(3)).is_err());
    }

    #[test]
    fn uniform_over_mask() {
        let mask = StateMask::from_indices(8, [2usize, 5, 6]).unwrap();
        let o = Observation::uniform_over(3, 8, &mask).unwrap();
        assert_eq!(o.distribution().nnz(), 3);
        assert!((o.distribution().get(5) - 1.0 / 3.0).abs() < 1e-12);
        assert!(Observation::uniform_over(3, 8, &StateMask::new(8)).is_err());
    }
}
