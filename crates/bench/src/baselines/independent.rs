//! The temporal-independence model — what prior work computes, and why it
//! is wrong (Figures 1 and 9(d) of the paper).
//!
//! Approaches that treat a trajectory as an independent uncertain region
//! per timestamp (references \[8], \[9], \[16], \[17], \[19], \[20] in the paper) compute the
//! *correct marginal* distribution `P(o(t) ∈ S▫)` for each `t`, but combine
//! them as if they were independent events:
//!
//! ```text
//! P∃_indep = 1 − Π_{t∈T▫} (1 − P(o(t) ∈ S▫))
//! ```
//!
//! Because consecutive positions are in fact strongly dependent, this
//! biases PST∃Q — the paper shows the error grows with the window length,
//! which the accuracy experiment of Fig. 9(d) regenerates.

use ust_core::engine::object_based::validate;
use ust_core::{ObjectProbability, QueryWindow, Result, TrajectoryDatabase, UncertainObject};
use ust_markov::{MarkovChain, SpmvScratch};

/// The per-timestamp marginal window probabilities
/// `m_t = P(o(t) ∈ S▫)` for `t ∈ T▫` (these are exact; only their
/// combination below assumes independence): the anchor distribution is
/// stepped through the chain one timestamp at a time, and the window mass
/// is read — not removed — at every query timestamp.
pub fn window_marginals(
    chain: &MarkovChain,
    object: &UncertainObject,
    window: &QueryWindow,
) -> Result<Vec<f64>> {
    validate(chain, object, window)?;
    let anchor = object.anchor();
    let mut dist = anchor.distribution().clone();
    let mut scratch = SpmvScratch::new();
    let mut marginals = Vec::with_capacity(window.num_times());
    for t in anchor.time()..=window.t_end() {
        if t > anchor.time() {
            dist = chain.matrix().vecmat_sparse_with(&dist, &mut scratch)?;
        }
        if window.time_in_window(t) {
            marginals.push(dist.masked_sum(window.states()));
        }
    }
    Ok(marginals)
}

/// The independence combination rule `1 − Π (1 − m_t)`.
fn exists_from_marginals(marginals: &[f64]) -> f64 {
    1.0 - marginals.iter().map(|m| 1.0 - m).product::<f64>()
}

/// Database-level PST∃Q under the (incorrect) temporal-independence
/// assumption, in database order (for the Fig. 9(d) comparison).
pub fn evaluate_exists_independent(
    db: &TrajectoryDatabase,
    window: &QueryWindow,
) -> Result<Vec<ObjectProbability>> {
    db.objects()
        .iter()
        .map(|object| {
            let marginals = window_marginals(db.model_of(object), object, window)?;
            let probability = exists_from_marginals(&marginals);
            Ok(ObjectProbability { object_id: object.id(), probability })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::fixtures::{object_at_s2, paper_chain, paper_window};
    use ust_data::{synthetic, workload, SyntheticConfig};
    use ust_space::TimeSet;

    /// The exact `P∃` by possible-worlds enumeration.
    fn exact(chain: &MarkovChain, o: &UncertainObject, w: &QueryWindow) -> f64 {
        let anchor = (o.anchor().time(), o.anchor().distribution());
        ust_oracle::enumerate(chain, &[anchor], w.states(), w.times(), 1 << 20).unwrap().exists()
    }

    #[test]
    fn marginals_match_hand_computation() {
        // P(o,2) = (0, 0.32, 0.68) → m_2 = 0.32;
        // P(o,3) = (0,0.32,0.68)·M = (0.192, 0.544, 0.264): m_3 = 0.736.
        let m = window_marginals(&paper_chain(), &object_at_s2(), &paper_window()).unwrap();
        assert_eq!(m.len(), 2);
        assert!((m[0] - 0.32).abs() < 1e-12);
        assert!((m[1] - 0.736).abs() < 1e-12);
    }

    #[test]
    fn independence_overestimates_exists() {
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let correct = exact(&chain, &o, &w);
        let indep = exists_from_marginals(&window_marginals(&chain, &o, &w).unwrap());
        // 1 − (1−0.32)(1−0.736) = 1 − 0.68·0.264 = 0.82048 < 0.864 here —
        // the bias direction depends on the correlation sign; what must
        // hold is *disagreement* with the exact result.
        assert!((indep - (1.0 - 0.68 * 0.264)).abs() < 1e-12);
        assert!((indep - correct).abs() > 1e-3, "independence must bias the result");
    }

    #[test]
    fn single_timestamp_windows_are_unbiased() {
        // With |T▫| = 1 there is nothing to correlate: both models agree.
        let w = QueryWindow::from_states(3, [0usize, 1], TimeSet::at(2)).unwrap();
        let (chain, o) = (paper_chain(), object_at_s2());
        let correct = exact(&chain, &o, &w);
        let indep = exists_from_marginals(&window_marginals(&chain, &o, &w).unwrap());
        assert!((correct - indep).abs() < 1e-12);
    }

    #[test]
    fn batch_evaluation() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        db.insert(object_at_s2()).unwrap();
        let results = evaluate_exists_independent(&db, &paper_window()).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].probability > 0.0 && results[0].probability <= 1.0);
    }

    /// The plain loop reproduces the marginals of the pipeline-driven
    /// implementation it replaced — recorded in `reference_marginals.txt`
    /// on the windows of the Fig. 9(d) shape test (lengths 1, 5 and 10) —
    /// exactly: both accumulate each entry over ascending source states, in
    /// the same order. (`==`, not bits: an empty window mass sums to `-0.0`
    /// here and read `+0.0` there.)
    #[test]
    fn marginals_reproduce_recorded_values() {
        let mut reference = vec![vec![0.0; 10]; 80];
        for line in include_str!("reference_marginals.txt").lines() {
            if line.starts_with('#') {
                continue;
            }
            let (idx, values) = line.split_once(':').unwrap();
            let row = &mut reference[idx.parse::<usize>().unwrap()];
            for (slot, v) in row.iter_mut().zip(values.split_whitespace()) {
                *slot = v.parse::<f64>().unwrap();
            }
        }
        let data = synthetic::generate(&SyntheticConfig {
            num_objects: 80,
            num_states: 2_000,
            ..SyntheticConfig::default()
        });
        let base = workload::paper_default_window(2_000).unwrap();
        for len in [1u32, 5, 10] {
            let window = workload::with_duration(&base, len).unwrap();
            for (object, expected) in data.db.objects().iter().zip(&reference) {
                let m = window_marginals(data.db.model_of(object), object, &window).unwrap();
                assert_eq!(m, expected[..len as usize], "object {}, |T▫| = {len}", object.id());
            }
        }
    }
}
