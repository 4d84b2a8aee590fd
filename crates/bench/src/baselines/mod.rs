//! The evaluation's two baselines, kept beside the figures that time them:
//! Monte-Carlo path sampling ([`monte_carlo`], the competitor of Fig. 8(a))
//! and the temporal-independence model ([`independent`], the strawman of
//! Figs. 1 and 9(d)).
//!
//! Neither is part of the product: the query engines in `ust-core` are the
//! paper's two exact algorithms. Each baseline is a plain loop over the
//! chain's transition rows that shares no propagation code with the
//! engines, which also makes it an independent check on them. Both run the
//! engines' per-object validation, so a baseline reports the same first
//! error as the engines for the same input.

pub mod independent;
pub mod monte_carlo;

#[cfg(test)]
mod fixtures {
    use ust_core::{Observation, QueryWindow, UncertainObject};
    use ust_space::TimeSet;

    pub use ust_oracle::testutil::paper_chain;

    /// The paper's object, observed at `s2` at time 0.
    pub fn object_at_s2() -> UncertainObject {
        UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap())
    }

    /// The paper's window `{s1, s2} × [2, 3]` (states 0 and 1 here).
    pub fn paper_window() -> QueryWindow {
        QueryWindow::from_states(3, [0usize, 1], TimeSet::interval(2, 3)).unwrap()
    }
}
