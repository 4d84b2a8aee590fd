//! The textbook forward loop of Section V-A, with no reach trimming.
//!
//! The engines trim every sweep to the mass the window can still change
//! the answer for. This loop does not: it steps the whole distribution to
//! `t_end` and moves the window mass to ⊤ at every query time. Per step it
//! runs the same `PropagationVector::step` and `extract_masked` a trimmed
//! sweep runs, so the trimmed ∃ must equal it to the bit — the trim only
//! drops mass that would never reach the window.

use ust_markov::{MarkovChain, PropagationVector, SparseVector, SpmvScratch, StateMask};
use ust_space::TimeSet;

use crate::error::Result;
use crate::exhaustive::check_inputs;

/// PST∃Q of an object anchored at `anchor = (time, distribution)` by the
/// untrimmed forward loop: the ⊤ mass after `t_end`, capped at 1.
pub fn untrimmed_exists(
    chain: &MarkovChain,
    anchor: (u32, &SparseVector),
    states: &StateMask,
    times: &TimeSet,
) -> Result<f64> {
    check_inputs(chain, &[anchor], states, times)?;
    let (t0, distribution) = anchor;
    let mut v = PropagationVector::from_sparse(distribution.clone());
    let mut scratch = SpmvScratch::new();
    let mut hit = 0.0;
    if times.contains(t0) {
        hit += v.extract_masked(states);
    }
    for t in t0..times.max().unwrap_or(t0) {
        v.step(chain.matrix(), &mut scratch)?;
        if times.contains(t + 1) {
            hit += v.extract_masked(states);
        }
    }
    Ok(hit.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::paper_chain;

    #[test]
    fn the_worked_example_yields_0864() {
        let chain = paper_chain();
        let states = StateMask::from_indices(3, [0usize, 1]).unwrap();
        let s2 = SparseVector::unit(3, 1).unwrap();
        let p = untrimmed_exists(&chain, (0, &s2), &states, &TimeSet::interval(2, 3)).unwrap();
        assert!((p - 0.864).abs() < 1e-12);
    }
}
