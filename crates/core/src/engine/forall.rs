//! PST∀Q evaluation — Section VII of the paper.
//!
//! The probability that an object stays inside `S▫` at *all* query
//! timestamps complements the probability that it is outside at *some*
//! timestamp:
//!
//! ```text
//! P∀(o, S▫, T▫) = 1 − P∃(o, S ∖ S▫, T▫)
//! ```
//!
//! The **object-based** rule evaluates exactly this reduction: the paper
//! notes that despite `|S ∖ S▫| ≫ |S▫|` the complemented forward run is
//! "generally not larger" — and often faster, because `M+` of the
//! complement zeroes *more* columns, i.e. the forward pass absorbs worlds
//! sooner. The sweep is trimmed to the ∀ reach of the *original* window
//! ([`ReachRule::ForAll`]): a world on a state from which `S▫` cannot be
//! held at all remaining query times is certain to escape, so its mass is
//! *decided* — counted as escaped on the spot instead of being propagated
//! until it does.
//!
//! Backward, the reduction is the wrong way round: the ∃ field of the
//! complement window is non-zero on every state that can *leave* `S▫` —
//! nearly all of `S`, dense from the first step. The **query-based**
//! strategy therefore sweeps the ∀ field directly
//! ([`FieldRule::ForAll`](crate::engine::query_based::FieldRule::ForAll)):
//! at a query timestamp the backward vector *keeps* only `S▫` instead of
//! clamping it to 1, so `g_t(s)` =
//! P(inside `S▫` at all query times in `(t, t_end]` | `s` at `t`) lives on
//! the states that can reach `S▫`, like the ∃ field of the window itself.
//! The complement reduction stays the oracle the direct field is tested
//! against.
//!
//! A window covering the whole state space is rejected with
//! [`QueryError::EmptySpatialWindow`] under both strategies (its
//! complement selects no states), so the two cannot disagree on where a ∀
//! query is answerable.

use crate::engine::object_based::{ForwardRule, Swept};
use crate::engine::reach::ReachRule;
use crate::error::{QueryError, Result};
use crate::query::{unit_clamp, ObjectProbability, QueryWindow};
use crate::stats::EvalStats;

/// The query-based side of the full-space parity: the direct ∀ field could
/// answer a window covering all of `S` (with 1), but the object-based
/// reduction cannot — its complement is empty — so neither does.
pub(crate) fn reject_full_space(window: &QueryWindow) -> Result<()> {
    if window.states().count() == window.states().dim() {
        return Err(QueryError::EmptySpatialWindow);
    }
    Ok(())
}

/// The object-based ∀ rule — the Section VII reduction: the ∃ redirect over
/// the *complement* window (⊤ collects the worlds seen outside `S▫`),
/// trimmed to the ∀ reach of the original window (mass certain to leave
/// `S▫` is decided as escaped on the spot).
#[derive(Debug, Clone)]
pub(crate) struct ForAll {
    outside: QueryWindow,
}

impl ForAll {
    /// The rule for `window`; fails with [`QueryError::EmptySpatialWindow`]
    /// when its complement selects no states.
    pub(crate) fn over(window: &QueryWindow) -> Result<ForAll> {
        Ok(ForAll { outside: window.complement_states()? })
    }
}

impl ForwardRule for ForAll {
    type Output = ObjectProbability;
    const REACH: ReachRule = ReachRule::ForAll;

    fn absorbing<'w>(&'w self, _window: &'w QueryWindow) -> &'w QueryWindow {
        &self.outside
    }

    fn finish(&mut self, swept: Swept<'_>, _stats: &mut EvalStats) -> ObjectProbability {
        ObjectProbability {
            object_id: swept.object.id(),
            probability: forall_answer(swept.hit, swept.decided[0]),
        }
    }
}

/// The PST∀Q answer from a complement-window sweep's ⊤ mass (worlds seen
/// outside `S▫`) and the mass the ∀ schedule decided (worlds certain to
/// leave it).
fn forall_answer(escaped: f64, decided: f64) -> f64 {
    unit_clamp(1.0 - (escaped + decided))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TrajectoryDatabase;
    use crate::engine::object_based::{evaluate_one, Exists};
    use crate::engine::{EngineConfig, QueryProcessor};
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::query::{Query, Strategy};
    use crate::testkit::{paper_chain, solo};
    use ust_markov::MarkovChain;
    use ust_space::TimeSet;

    fn object_at(state: usize) -> UncertainObject {
        UncertainObject::with_single_observation(1, Observation::exact(0, 3, state).unwrap())
    }

    /// `P∀` of one object by the chunk-of-one driver.
    fn forall_ob(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
    ) -> Result<f64> {
        let (config, stats) = (&EngineConfig::default(), &mut EvalStats::new());
        Ok(evaluate_one(chain, object, window, config, stats, ForAll::over(window)?)?.probability)
    }

    /// `P∀` of one object through the front door, query-based.
    fn forall_qb(
        chain: &MarkovChain,
        object: &UncertainObject,
        window: &QueryWindow,
    ) -> Result<f64> {
        let spec = Query::forall().window(window.clone()).strategy(Strategy::QueryBased);
        Ok(solo(chain, object, spec)?.probabilities().unwrap()[0].probability)
    }

    #[test]
    fn forall_s3_over_two_steps_by_hand() {
        // P(stay at s3 during t ∈ {1, 2} | start s2):
        // paths s2→s3→s3 with probability 0.4 · 0.2 = 0.08.
        let window = QueryWindow::from_states(3, [2usize], TimeSet::interval(1, 2)).unwrap();
        let ob = forall_ob(&paper_chain(), &object_at(1), &window).unwrap();
        let qb = forall_qb(&paper_chain(), &object_at(1), &window).unwrap();
        assert!((ob - 0.08).abs() < 1e-12, "ob = {ob}");
        assert!((qb - 0.08).abs() < 1e-12, "qb = {qb}");
    }

    #[test]
    fn single_timestamp_forall_equals_exists() {
        // For |T▫| = 1 the predicates coincide.
        let window = QueryWindow::from_states(3, [1usize, 2], TimeSet::at(2)).unwrap();
        let (config, stats) = (&EngineConfig::default(), &mut EvalStats::new());
        let chain = paper_chain();
        let o = object_at(1);
        let forall = forall_ob(&chain, &o, &window).unwrap();
        let exists = evaluate_one(&chain, &o, &window, config, stats, Exists).unwrap().probability;
        assert!((forall - exists).abs() < 1e-12);
    }

    #[test]
    fn full_space_window_is_certain() {
        // Staying "somewhere in S" is certain, but the complement window
        // would be empty — the reduction must surface that as an error.
        let window = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::interval(1, 2)).unwrap();
        for forall in [forall_ob, forall_qb] {
            let r = forall(&paper_chain(), &object_at(0), &window);
            assert_eq!(r, Err(QueryError::EmptySpatialWindow), "degenerate full-space ∀ query");
        }
    }

    #[test]
    fn batch_ob_and_qb_agree() {
        let mut db = TrajectoryDatabase::new(paper_chain());
        for s in 0..3usize {
            db.insert(UncertainObject::with_single_observation(
                s as u64,
                Observation::exact(0, 3, s).unwrap(),
            ))
            .unwrap();
        }
        let window = QueryWindow::from_states(3, [1usize, 2], TimeSet::interval(2, 3)).unwrap();
        let processor = QueryProcessor::new(&db);
        let run = |strategy| {
            let spec = Query::forall().window(window.clone()).strategy(strategy).build().unwrap();
            processor.execute(&spec).unwrap().probabilities().unwrap().to_vec()
        };
        let (ob, qb) = (run(Strategy::ObjectBased), run(Strategy::QueryBased));
        assert_eq!(ob.len(), 3);
        for (a, b) in ob.iter().zip(&qb) {
            assert_eq!(a.object_id, b.object_id);
            assert!((a.probability - b.probability).abs() < 1e-12);
            assert!(a.probability >= 0.0 && a.probability <= 1.0);
        }
    }
}
