//! Uncertain spatio-temporal objects (Definition 1).
//!
//! An uncertain object is a stochastic process `{o(t) ∈ S, t ∈ T}`: a set of
//! timestamped observations plus the (shared or per-class) Markov chain that
//! instantiates its location at all unobserved timestamps.

use std::fmt;
use std::slice;

use ust_markov::SparseVector;

use crate::error::{QueryError, Result};
use crate::observation::Observation;

/// An uncertain moving object: id, observations, and the index of the
/// transition model it follows (into its database's model table).
#[derive(Clone, PartialEq)]
pub struct UncertainObject {
    id: u64,
    observations: Fixes,
    model: usize,
}

/// An object's observations, ascending by time. A single fix — every
/// streaming ingest, every single-fix generator — is held inline, so a
/// query reads its anchor one dependent load after the object instead of
/// two and the object owns no observation list; `Many` always holds two
/// or more (every constructor turns a one-element list into `One`), so
/// equal observations compare equal whichever way the object was built.
#[derive(Clone, PartialEq)]
enum Fixes {
    One(Observation),
    Many(Vec<Observation>),
}

impl fmt::Debug for UncertainObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UncertainObject")
            .field("id", &self.id)
            .field("observations", &self.observations())
            .field("model", &self.model)
            .finish()
    }
}

impl UncertainObject {
    /// Creates an object from observations (sorted by time on construction).
    /// At least one observation is required; duplicate timestamps are
    /// rejected.
    pub fn new(id: u64, mut observations: Vec<Observation>) -> Result<Self> {
        if observations.is_empty() {
            return Err(QueryError::NoObservations);
        }
        observations.sort_by_key(|o| o.time());
        for pair in observations.windows(2) {
            if pair[0].time() == pair[1].time() {
                return Err(QueryError::DuplicateObservation { time: pair[0].time() });
            }
        }
        let dim = observations[0].num_states();
        for o in &observations {
            if o.num_states() != dim {
                return Err(QueryError::ModelDimensionMismatch {
                    model_states: dim,
                    object_states: o.num_states(),
                });
            }
        }
        let observations = match <[Observation; 1]>::try_from(observations) {
            Ok([single]) => Fixes::One(single),
            Err(several) => Fixes::Many(several),
        };
        Ok(UncertainObject { id, observations, model: 0 })
    }

    /// Creates an object with a single observation.
    pub fn with_single_observation(id: u64, observation: Observation) -> Self {
        UncertainObject { id, observations: Fixes::One(observation), model: 0 }
    }

    /// Assigns a transition-model index (defaults to 0, the shared model).
    pub fn with_model(mut self, model: usize) -> Self {
        self.model = model;
        self
    }

    /// The object identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Index of the object's transition model in the database model table.
    pub fn model(&self) -> usize {
        self.model
    }

    /// All observations, ascending by time.
    pub fn observations(&self) -> &[Observation] {
        match &self.observations {
            Fixes::One(single) => slice::from_ref(single),
            Fixes::Many(several) => several,
        }
    }

    /// The earliest observation — the anchor of forward propagation.
    pub fn anchor(&self) -> &Observation {
        match &self.observations {
            Fixes::One(single) => single,
            Fixes::Many(several) => &several[0],
        }
    }

    /// The latest observation.
    #[expect(
        clippy::expect_used,
        reason = "every constructor rejects an empty observation list with \
                  `QueryError::NoObservations`, so `observations` is non-empty for the \
                  lifetime of the object."
    )]
    pub fn last_observation(&self) -> &Observation {
        self.observations().last().expect("objects hold ≥ 1 observation")
    }

    /// The observation at exactly time `t`, if any.
    pub fn observation_at(&self, t: u32) -> Option<&Observation> {
        let observations = self.observations();
        observations.binary_search_by_key(&t, |o| o.time()).ok().map(|i| &observations[i])
    }

    /// The anchor distribution (initial `P(o, t_anchor)`).
    pub fn initial_distribution(&self) -> &SparseVector {
        self.anchor().distribution()
    }

    /// Dimension of the state space the object lives in.
    pub fn num_states(&self) -> usize {
        self.anchor().num_states()
    }

    /// True when more than one observation is attached (interpolation
    /// semantics of Section VI apply).
    pub fn has_multiple_observations(&self) -> bool {
        matches!(self.observations, Fixes::Many(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(time: u32, state: usize) -> Observation {
        Observation::exact(time, 10, state).unwrap()
    }

    #[test]
    fn construction_sorts_observations() {
        let o = UncertainObject::new(1, vec![obs(7, 2), obs(3, 1)]).unwrap();
        assert_eq!(o.id(), 1);
        assert_eq!(o.anchor().time(), 3);
        assert_eq!(o.last_observation().time(), 7);
        assert!(o.has_multiple_observations());
        assert_eq!(o.num_states(), 10);
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert_eq!(UncertainObject::new(1, vec![]), Err(QueryError::NoObservations));
        assert_eq!(
            UncertainObject::new(1, vec![obs(3, 1), obs(3, 2)]),
            Err(QueryError::DuplicateObservation { time: 3 })
        );
    }

    #[test]
    fn rejects_mixed_dimensions() {
        let a = Observation::exact(0, 10, 1).unwrap();
        let b = Observation::exact(1, 12, 1).unwrap();
        assert!(matches!(
            UncertainObject::new(1, vec![a, b]),
            Err(QueryError::ModelDimensionMismatch { .. })
        ));
    }

    #[test]
    fn observation_lookup() {
        let o = UncertainObject::new(1, vec![obs(2, 0), obs(5, 1), obs(9, 2)]).unwrap();
        assert_eq!(o.observation_at(5).unwrap().time(), 5);
        assert!(o.observation_at(4).is_none());
        assert_eq!(o.observation_at(9).unwrap().time(), 9);
        assert!(o.observation_at(100).is_none());
    }

    #[test]
    fn a_one_element_list_is_the_inline_arm() {
        let built = UncertainObject::new(3, vec![obs(4, 2)]).unwrap();
        let single = UncertainObject::with_single_observation(3, obs(4, 2));
        assert_eq!(built, single);
        assert!(matches!(built.observations, Fixes::One(_)));
        let several = UncertainObject::new(3, vec![obs(4, 2), obs(6, 1)]).unwrap();
        assert!(matches!(several.observations, Fixes::Many(ref v) if v.len() == 2));
        assert_ne!(several, single);
    }

    #[test]
    fn both_arms_answer_every_accessor() {
        let single = UncertainObject::with_single_observation(5, obs(4, 2));
        assert_eq!(single.observations(), &[obs(4, 2)]);
        assert_eq!(single.anchor(), &obs(4, 2));
        assert_eq!(single.last_observation(), &obs(4, 2));
        assert_eq!(single.observation_at(4), Some(&obs(4, 2)));
        assert_eq!(single.observation_at(3), None);
        assert!(!single.has_multiple_observations());

        let several = UncertainObject::new(5, vec![obs(9, 3), obs(4, 2), obs(6, 1)]).unwrap();
        assert_eq!(several.observations(), &[obs(4, 2), obs(6, 1), obs(9, 3)]);
        assert_eq!(several.anchor(), &obs(4, 2));
        assert_eq!(several.last_observation(), &obs(9, 3));
        assert_eq!(several.observation_at(6), Some(&obs(6, 1)));
        assert_eq!(several.observation_at(5), None);
        assert!(several.has_multiple_observations());
    }

    /// The field layout `Debug` printed while the observations were a plain
    /// list, for either arm, compact and pretty.
    #[test]
    fn debug_prints_the_observation_list() {
        mod listed {
            #[derive(Debug)]
            #[expect(dead_code, reason = "read by the derived Debug only")]
            pub(super) struct UncertainObject {
                pub(super) id: u64,
                pub(super) observations: Vec<crate::observation::Observation>,
                pub(super) model: usize,
            }
        }
        for list in [vec![obs(4, 2)], vec![obs(4, 2), obs(6, 1)]] {
            let object = UncertainObject::new(7, list.clone()).unwrap().with_model(1);
            let reference = listed::UncertainObject { id: 7, observations: list, model: 1 };
            assert_eq!(format!("{object:?}"), format!("{reference:?}"));
            assert_eq!(format!("{object:#?}"), format!("{reference:#?}"));
        }
    }

    #[test]
    fn an_applied_ingest_stores_the_inline_arm() {
        let chain = ust_oracle::testutil::random_chain(1, 10, 3);
        let mut db = crate::database::TrajectoryDatabase::new(chain);
        db.insert(UncertainObject::new(8, vec![obs(1, 0), obs(3, 1)]).unwrap()).unwrap();
        assert!(db.objects()[0].has_multiple_observations());
        db.ingest(8, obs(5, 4)).unwrap();
        let stored = &db.objects()[0];
        assert!(matches!(stored.observations, Fixes::One(_)));
        assert_eq!(stored, &UncertainObject::new(8, vec![obs(5, 4)]).unwrap());
    }

    #[test]
    fn model_assignment() {
        let o = UncertainObject::with_single_observation(4, obs(0, 0)).with_model(2);
        assert_eq!(o.model(), 2);
        assert!(!o.has_multiple_observations());
        assert_eq!(o.initial_distribution().get(0), 1.0);
    }
}
