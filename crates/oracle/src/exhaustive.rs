//! Exact possible-worlds enumeration — the ground truth oracle.
//!
//! The paper observes that the number of possible worlds is `O(|S|^δt)`,
//! making enumeration infeasible in general — that blow-up is the whole
//! motivation for the matrix framework. On *tiny* instances, however,
//! enumeration is the perfect test oracle: this module walks every path of
//! non-zero probability, weights it (including multi-observation
//! likelihoods, Section VI semantics), and tallies each query predicate
//! directly from the definition. Every exact engine is cross-checked
//! against it.

use ust_markov::{MarkovChain, SparseVector, StateMask};
use ust_space::TimeSet;

use crate::error::{OracleError, Result};

/// Exact results of the enumeration: the full visit-count distribution and
/// the derived predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveResult {
    /// `P(k)` for `k ∈ {0..|T▫|}` under possible-worlds semantics.
    pub ktimes: Vec<f64>,
}

impl ExhaustiveResult {
    /// PST∃Q probability.
    pub fn exists(&self) -> f64 {
        1.0 - self.ktimes.first().copied().unwrap_or(1.0)
    }

    /// PST∀Q probability.
    pub fn forall(&self) -> f64 {
        self.ktimes.last().copied().unwrap_or(0.0)
    }
}

/// The input checks every reference of this crate runs, written from the
/// query model rather than borrowed from an engine: at least one
/// observation, strictly increasing times, every observation over the
/// chain's `|S|` with finite non-negative masses, a non-empty window over
/// the chain's `|S|` that starts no earlier than the first observation.
pub fn check_inputs(
    chain: &MarkovChain,
    observations: &[(u32, &SparseVector)],
    states: &StateMask,
    times: &TimeSet,
) -> Result<()> {
    let num_states = chain.num_states();
    let &(anchor_time, _) = observations.first().ok_or(OracleError::NoObservations)?;
    for pair in observations.windows(2) {
        if pair[1].0 <= pair[0].0 {
            return Err(OracleError::UnorderedObservations { time: pair[1].0 });
        }
    }
    for &(time, distribution) in observations {
        if distribution.dim() != num_states {
            return Err(OracleError::ObservationDimension {
                num_states,
                found: distribution.dim(),
            });
        }
        if let Some((state, mass)) =
            distribution.iter().find(|(_, p)| !(*p >= 0.0 && p.is_finite()))
        {
            return Err(OracleError::InvalidMass { time, state, mass });
        }
    }
    if states.dim() != num_states {
        return Err(OracleError::WindowDimension { num_states, found: states.dim() });
    }
    if states.is_empty() {
        return Err(OracleError::EmptySpatialWindow);
    }
    let window_start = times.min().ok_or(OracleError::EmptyTemporalWindow)?;
    if window_start < anchor_time {
        return Err(OracleError::WindowBeforeObservation {
            window_start,
            observation: anchor_time,
        });
    }
    Ok(())
}

/// Enumerates all possible worlds between the first observation and
/// `max(t_end, last observation)`, conditioning on every observation
/// (Section VI) and tallying visits of `states` at `times`.
///
/// `observations` are `(time, distribution)` pairs in increasing time; the
/// first is the anchor. Masses need not be normalised: the result is
/// normalised by the surviving world mass. `budget` caps the number of
/// expanded path prefixes; exceeding it returns
/// [`OracleError::BudgetExceeded`] instead of hanging the caller.
pub fn enumerate(
    chain: &MarkovChain,
    observations: &[(u32, &SparseVector)],
    states: &StateMask,
    times: &TimeSet,
    budget: u64,
) -> Result<ExhaustiveResult> {
    check_inputs(chain, observations, states, times)?;
    let (anchor_time, anchor) = observations[0];
    let (last_time, _) = observations[observations.len() - 1];
    let k_max = times.len();
    let t_end = times.max().unwrap_or(anchor_time);
    let horizon = t_end.max(last_time);
    let observation_at = |t: u32| {
        observations.binary_search_by_key(&t, |&(time, _)| time).ok().map(|i| observations[i].1)
    };
    let visit = |t: u32, s: usize| usize::from(times.contains(t) && states.contains(s));

    let mut tally = vec![0.0f64; k_max + 1];
    let mut total = 0.0f64;
    let mut expansions = 0u64;

    // Depth-first over (time, state, weight, visits).
    struct Frame {
        t: u32,
        state: usize,
        weight: f64,
        visits: usize,
    }
    let mut stack: Vec<Frame> = Vec::new();
    for (s, p) in anchor.iter() {
        if p > 0.0 {
            stack.push(Frame {
                t: anchor_time,
                state: s,
                weight: p,
                visits: visit(anchor_time, s),
            });
        }
    }

    while let Some(frame) = stack.pop() {
        expansions += 1;
        if expansions > budget {
            return Err(OracleError::BudgetExceeded { budget });
        }
        if frame.t == horizon {
            tally[frame.visits.min(k_max)] += frame.weight;
            total += frame.weight;
            continue;
        }
        let (cols, vals) = chain.matrix().row(frame.state);
        let next_t = frame.t + 1;
        let evidence = observation_at(next_t);
        for (&c, &p) in cols.iter().zip(vals) {
            if p == 0.0 {
                continue;
            }
            let state = c as usize;
            let mut weight = frame.weight * p;
            // Condition on an observation at next_t, if any (Lemma 1).
            if let Some(distribution) = evidence {
                weight *= distribution.get(state);
                if weight == 0.0 {
                    continue;
                }
            }
            let visits = frame.visits + visit(next_t, state);
            stack.push(Frame { t: next_t, state, weight, visits });
        }
    }

    if total <= 0.0 {
        return Err(OracleError::ImpossibleEvidence);
    }
    // Possible-worlds semantics (Equation 1): normalize by the surviving
    // world mass (total = 1 when no conditioning removed worlds).
    Ok(ExhaustiveResult { ktimes: tally.into_iter().map(|w| w / total).collect() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::paper_chain;
    use ust_markov::CsrMatrix;

    fn exact(state: usize) -> SparseVector {
        SparseVector::unit(3, state).unwrap()
    }

    fn mask(states: &[usize]) -> StateMask {
        StateMask::from_indices(3, states.iter().copied()).unwrap()
    }

    /// The paper's window `{s1, s2} × [2, 3]`.
    fn paper_window() -> (StateMask, TimeSet) {
        (mask(&[0, 1]), TimeSet::interval(2, 3))
    }

    #[test]
    fn reproduces_all_worked_examples() {
        let (states, times) = paper_window();
        let s2 = exact(1);
        let r = enumerate(&paper_chain(), &[(0, &s2)], &states, &times, 1 << 20).unwrap();
        assert!((r.exists() - 0.864).abs() < 1e-12);
        assert!((r.ktimes[0] - 0.136).abs() < 1e-12);
        assert!((r.ktimes[1] - 0.672).abs() < 1e-12);
        assert!((r.ktimes[2] - 0.192).abs() < 1e-12);
        assert!((r.forall() - 0.192).abs() < 1e-12);
        assert!((r.ktimes.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_is_enforced() {
        let (states, times) = paper_window();
        let s2 = exact(1);
        assert_eq!(
            enumerate(&paper_chain(), &[(0, &s2)], &states, &times, 3),
            Err(OracleError::BudgetExceeded { budget: 3 })
        );
    }

    #[test]
    fn section_6_multi_observation_example() {
        // Chain of Section VI (row 2 = 0.5/0.5), a point observation at
        // s1@t0 and one at s2@t3, window S▫ = {s2}, T▫ = {1, 2}: the only
        // consistent path is s1→s3→s3→s2, which avoids the window → P∃ = 0.
        let chain = MarkovChain::from_csr(
            CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.5, 0.0, 0.5], vec![0.0, 0.8, 0.2]])
                .unwrap(),
        )
        .unwrap();
        let (s1, s2) = (exact(0), exact(1));
        let r = enumerate(
            &chain,
            &[(0, &s1), (3, &s2)],
            &mask(&[1]),
            &TimeSet::interval(1, 2),
            1 << 20,
        )
        .unwrap();
        assert!(r.exists().abs() < 1e-12);
    }

    #[test]
    fn conditioning_renormalizes_worlds() {
        // Observation at t=1 fixes the state to s1 (reachable from s2 with
        // p=0.6). Conditioned on that, a window {s1}×{1} is hit surely.
        let (s1, s2) = (exact(0), exact(1));
        let r =
            enumerate(&paper_chain(), &[(0, &s2), (1, &s1)], &mask(&[0]), &TimeSet::at(1), 1 << 20)
                .unwrap();
        assert!((r.exists() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_evidence_detected() {
        // s2 → s2 is impossible.
        let s2 = exact(1);
        assert_eq!(
            enumerate(&paper_chain(), &[(0, &s2), (1, &s2)], &mask(&[0]), &TimeSet::at(1), 1 << 20),
            Err(OracleError::ImpossibleEvidence)
        );
    }

    #[test]
    fn horizon_extends_to_late_observation() {
        // Observation after t_end still conditions the result.
        let s2 = exact(1);
        let (states, times) = (mask(&[0]), TimeSet::at(1));
        let chain = paper_chain();
        let unconditioned = enumerate(&chain, &[(0, &s2)], &states, &times, 1 << 20).unwrap();
        let conditioned =
            enumerate(&chain, &[(0, &s2), (4, &s2)], &states, &times, 1 << 20).unwrap();
        assert!((conditioned.exists() - unconditioned.exists()).abs() > 1e-6);
    }
}
