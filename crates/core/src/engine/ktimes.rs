//! PSTkQ evaluation — Section VII of the paper.
//!
//! Computes, for each object, the full distribution over the number of
//! query timestamps `k ∈ {0..|T▫|}` at which the object is inside `S▫`.
//!
//! Two strategies:
//!
//! * object-based, the `KTimes` rule — the paper's memory-efficient
//!   algorithm: a `(|T▫|+1) × |S|` matrix `C(t)` whose row `i` holds the
//!   probability mass currently at each state *having visited the window
//!   exactly `i` times*; a transition steps every row through `M`, and
//!   each query timestamp "shifts down" the columns of `S▫` by one row.
//! * query-based — the shared [`BackwardField`] swept under
//!   [`FieldRule::KTimes`], whose snapshots are the backward level vectors
//!   `f_t(s, j)` = probability of exactly `j` further window visits in
//!   `(t, t_end]` given state `s` at `t`.
//!
//! The explicit `S × {0..|T▫|}` blown-up-matrix construction both are
//! checked against lives in `ust-oracle`.
//!
//! [`BackwardField`]: crate::engine::query_based::BackwardField
//! [`FieldRule::KTimes`]: crate::engine::query_based::FieldRule::KTimes

use ust_markov::PropagationVector;

use crate::engine::object_based::{ForwardRule, Swept};
use crate::engine::query_based::AnchoredField;
use crate::engine::reach::ReachRule;
use crate::error::Result;
use crate::object::UncertainObject;
use crate::query::{unit_clamp, ObjectKDistribution, QueryWindow};
use crate::stats::EvalStats;

/// The `C(t)` rule: the propagated state is the family of count-level
/// vectors (`rows[i]` = mass at each state having visited the window
/// exactly `i` times), and the accumulation rule applied at every query
/// timestamp (including an anchor inside `T▫`, footnote 3) is the
/// [`shift_down`] column shift. The sweep is trimmed to the ∃ reach of the
/// window: mass that cannot visit `S▫` again keeps its count level for
/// good and is *decided* there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KTimes;

impl ForwardRule for KTimes {
    type Output = ObjectKDistribution;
    const REACH: ReachRule = ReachRule::Exists;

    fn rows_per_object(&self, window: &QueryWindow) -> usize {
        window.num_times() + 1
    }

    fn at_window(
        &self,
        rows: &mut [PropagationVector],
        _hit: &mut f64,
        window: &QueryWindow,
    ) -> Result<()> {
        shift_down(rows, window)
    }

    fn finish(&mut self, swept: Swept<'_>, _stats: &mut EvalStats) -> ObjectKDistribution {
        ObjectKDistribution {
            object_id: swept.object.id(),
            probabilities: level_masses(swept.rows, swept.decided),
        }
    }
}

/// The answer of the `C(t)` algorithm: the mass at each count level —
/// what is still propagating there plus what was decided there. Sums of
/// many products overshoot 1 by an ulp or two, so every entry is clamped
/// into `[0, 1]` — no engine reports a probability outside the unit
/// interval.
fn level_masses(rows: &[PropagationVector], decided: &[f64]) -> Vec<f64> {
    rows.iter().zip(decided).map(|(r, d)| unit_clamp(r.sum() + d)).collect()
}

/// The column shift of the `C(t)` algorithm: for every state `s ∈ S▫`, the
/// mass at count level `i` moves to level `i + 1` (processed top-down so
/// each unit of mass moves exactly once).
fn shift_down(rows: &mut [PropagationVector], window: &QueryWindow) -> Result<()> {
    let k_max = rows.len() - 1;
    for i in (0..k_max).rev() {
        let moved = rows[i].split_masked(window.states());
        if moved.nnz() > 0 {
            rows[i + 1].add_sparse(&moved)?;
        }
    }
    Ok(())
}

/// `object`'s PSTkQ answer row, read from its model's level field at the
/// object's anchor time.
pub(crate) fn distribution_row(
    field: &AnchoredField<'_>,
    object: &UncertainObject,
) -> Option<ObjectKDistribution> {
    Some(ObjectKDistribution { object_id: object.id(), probabilities: field.distribution(object)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::forall::ForAll;
    use crate::engine::object_based::{evaluate_one, Exists, ForwardRule};
    use crate::engine::{EngineConfig, QueryProcessor};
    use crate::observation::Observation;
    use crate::query::{ObjectProbability, Query, Strategy};
    use crate::testkit::{object_at_s2, observations, paper_chain, paper_window, solo};
    use ust_markov::{CsrMatrix, MarkovChain};
    use ust_space::TimeSet;

    /// One object's answer under `rule` by the chunk-of-one driver.
    fn solo_ob<R: ForwardRule>(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
        rule: R,
    ) -> R::Output {
        let (config, stats) = (&EngineConfig::default(), &mut EvalStats::new());
        evaluate_one(chain, object, window, config, stats, rule).unwrap()
    }

    fn ktimes_ob(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> Vec<f64> {
        solo_ob(chain, object, window, KTimes).probabilities
    }

    fn ktimes_qb(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> Vec<f64> {
        let spec = Query::ktimes(1).window(window.clone()).strategy(Strategy::QueryBased);
        solo(chain, object, spec).unwrap().distributions().unwrap()[0].probabilities.clone()
    }

    /// The oracle's blown-up-matrix reference.
    fn blowup(chain: &MarkovChain, object: &UncertainObject, window: &QueryWindow) -> Vec<f64> {
        let anchor = observations(object)[0];
        let (states, times) = (window.states(), window.times());
        ust_oracle::augmented::ktimes_distribution_blowup(chain, anchor, states, times).unwrap()
    }

    #[test]
    fn section_7_worked_example() {
        // The paper derives P(k = 0, 1, 2) = (0.136, 0.672, 0.192).
        let dist = ktimes_ob(&paper_chain(), &object_at_s2(), &paper_window());
        assert_eq!(dist.len(), 3);
        assert!((dist[0] - 0.136).abs() < 1e-12, "{dist:?}");
        assert!((dist[1] - 0.672).abs() < 1e-12, "{dist:?}");
        assert!((dist[2] - 0.192).abs() < 1e-12, "{dist:?}");
    }

    #[test]
    fn qb_and_blowup_match_worked_example() {
        let qb = ktimes_qb(&paper_chain(), &object_at_s2(), &paper_window());
        let blow = blowup(&paper_chain(), &object_at_s2(), &paper_window());
        for (k, expected) in [0.136, 0.672, 0.192].into_iter().enumerate() {
            assert!((qb[k] - expected).abs() < 1e-12, "qb = {qb:?}");
            assert!((blow[k] - expected).abs() < 1e-12, "blowup = {blow:?}");
        }
    }

    #[test]
    fn distribution_sums_to_one_and_ties_to_exists_forall() {
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let dist = ktimes_ob(&chain, &o, &w);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let ObjectProbability { probability: exists, .. } = solo_ob(&chain, &o, &w, Exists);
        assert!((1.0 - dist[0] - exists).abs() < 1e-12);
        let forall = solo_ob(&chain, &o, &w, ForAll::over(&w).unwrap()).probability;
        assert!((dist[dist.len() - 1] - forall).abs() < 1e-12);
    }

    #[test]
    fn anchor_inside_window_starts_at_level_one() {
        // Anchor at t=2 (∈ T▫) on state s1 (∈ S▫): already one visit.
        let o = UncertainObject::with_single_observation(1, Observation::exact(2, 3, 0).unwrap());
        for dist in [
            ktimes_ob(&paper_chain(), &o, &paper_window()),
            ktimes_qb(&paper_chain(), &o, &paper_window()),
            blowup(&paper_chain(), &o, &paper_window()),
        ] {
            assert!(dist[0].abs() < 1e-12, "{dist:?}");
            // From s1 at t=2, the object moves to s3 ∉ S▫ at t=3: k = 1
            // with certainty.
            assert!((dist[1] - 1.0).abs() < 1e-12, "{dist:?}");
            assert!(dist[2].abs() < 1e-12, "{dist:?}");
        }
    }

    #[test]
    fn distribution_entries_stay_inside_the_unit_interval() {
        // Anchor weights 7 : 11 : 2 normalise to masses whose left-to-right
        // float sum is 1 + 1 ulp; a frozen chain inside a full-space window
        // puts all of it on the single count level k = 1.
        let frozen = MarkovChain::from_csr(CsrMatrix::identity(3)).unwrap();
        let start =
            ust_markov::SparseVector::from_pairs(3, [(0, 7.0), (1, 11.0), (2, 2.0)]).unwrap();
        let o =
            UncertainObject::with_single_observation(3, Observation::uncertain(0, start).unwrap());
        assert!(o.anchor().distribution().sum() > 1.0, "the instance must overshoot");
        let w = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::at(1)).unwrap();
        for dist in [ktimes_ob(&frozen, &o, &w), ktimes_qb(&frozen, &o, &w)] {
            assert_eq!(dist, vec![0.0, 1.0]);
        }
    }

    #[test]
    fn tail_probability_stays_inside_the_unit_interval() {
        // The same 7 : 11 : 2 anchor on a deterministic shift chain
        // (`s → s+1`, last state absorbing) with `S▫ = {3,4,5}`,
        // `T▫ = {1,2,3}`: the masses land on the levels k = 1, 2, 3, every
        // entry is below 1, and their left-to-right sum is 1 + 1 ulp.
        let mut shift = ust_markov::CooBuilder::new(6, 6);
        for s in 0..6 {
            shift.push(s, (s + 1).min(5), 1.0).unwrap();
        }
        let chain = MarkovChain::from_csr(shift.build()).unwrap();
        let start =
            ust_markov::SparseVector::from_pairs(6, [(0, 7.0), (1, 11.0), (2, 2.0)]).unwrap();
        let o =
            UncertainObject::with_single_observation(3, Observation::uncertain(0, start).unwrap());
        let w = QueryWindow::from_states(6, [3usize, 4, 5], TimeSet::interval(1, 3)).unwrap();
        for probabilities in [ktimes_ob(&chain, &o, &w), ktimes_qb(&chain, &o, &w)] {
            assert_eq!(probabilities, vec![0.0, 0.35000000000000003, 0.55, 0.1]);
            assert!(probabilities.iter().skip(1).sum::<f64>() > 1.0, "the instance overshoots");
            let dist = ObjectKDistribution { object_id: 3, probabilities };
            assert_eq!(dist.prob_at_least(1), 1.0);
        }

        let mut db = TrajectoryDatabase::new(chain);
        db.insert(o).unwrap();
        let processor = crate::engine::QueryProcessor::new(&db);
        let at_least_once = crate::query::Query::ktimes(1).window(w);
        let certain = processor.execute(&at_least_once.clone().threshold(1.0).build().unwrap());
        assert_eq!(certain.unwrap().ids().unwrap(), &[3]);
        let ranked = processor.execute(&at_least_once.top_k(1).build().unwrap()).unwrap();
        assert_eq!(ranked.ranked().unwrap()[0].probability, 1.0);
    }

    #[test]
    fn three_engines_agree_on_uncertain_anchor() {
        let chain = paper_chain();
        let start =
            ust_markov::SparseVector::from_pairs(3, [(0, 0.3), (1, 0.3), (2, 0.4)]).unwrap();
        let o =
            UncertainObject::with_single_observation(2, Observation::uncertain(0, start).unwrap());
        let w = QueryWindow::from_states(3, [1usize], TimeSet::new([1, 3, 4])).unwrap();
        let ob = ktimes_ob(&chain, &o, &w);
        let qb = ktimes_qb(&chain, &o, &w);
        let blow = blowup(&chain, &o, &w);
        assert_eq!(ob.len(), 4);
        for k in 0..4 {
            assert!((ob[k] - qb[k]).abs() < 1e-12, "k={k}: ob={ob:?} qb={qb:?}");
            assert!((ob[k] - blow[k]).abs() < 1e-12, "k={k}: ob={ob:?} blow={blow:?}");
        }
    }

    #[test]
    fn batch_evaluators_agree() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        for s in 0..3usize {
            db.insert(UncertainObject::with_single_observation(
                s as u64,
                Observation::exact(0, 3, s).unwrap(),
            ))
            .unwrap();
        }
        let w = paper_window();
        let processor = QueryProcessor::new(&db);
        let run = |strategy| {
            let spec = Query::ktimes(1).window(w.clone()).strategy(strategy).build().unwrap();
            processor.execute(&spec).unwrap().distributions().unwrap().to_vec()
        };
        let (ob, qb) = (run(Strategy::ObjectBased), run(Strategy::QueryBased));
        assert_eq!(ob.len(), 3);
        for (a, b) in ob.iter().zip(&qb) {
            assert_eq!(a.object_id, b.object_id);
            for (x, y) in a.probabilities.iter().zip(&b.probabilities) {
                assert!((x - y).abs() < 1e-12);
            }
            assert!((a.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_visits_matches_marginal_sum() {
        // E[visits] = Σ_{t∈T▫} P(o(t) ∈ S▫) — linearity of expectation
        // (holds even though the joint distribution is correlated).
        let chain = paper_chain();
        let o = object_at_s2();
        let w = paper_window();
        let dist = ktimes_ob(&chain, &o, &w);
        let expected: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        let mut marginal_sum = 0.0;
        let mut v = o.anchor().distribution().to_dense();
        for t in 0..=w.t_end() {
            if t > 0 {
                v = chain.step_dense(&v).unwrap();
            }
            if w.time_in_window(t) {
                marginal_sum += v.masked_sum(w.states());
            }
        }
        assert!((expected - marginal_sum).abs() < 1e-12);
    }
}
