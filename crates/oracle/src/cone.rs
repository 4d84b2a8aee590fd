//! The spatio-temporal cone filter written from its definition, one object
//! at a time, on a line of states (state `s` at `x = s`).
//!
//! The chain moves at most `max_step` states per transition, so an object
//! anchored at `a ≤ t_end` with anchor centroid `c` and support radius `r`
//! may be in the window's span `[lo, hi]` by `t_end` only if
//! `dist(c, [lo, hi]) ≤ (t_end − a) · max_step + r`. The index answers the
//! same predicate through an R-tree and an overlay; this filter shares no
//! code with either.

use ust_markov::{MarkovChain, SparseVector, StateMask};
use ust_space::TimeSet;

/// The positions in `anchors` (`(time, distribution)` per object) whose
/// cone may meet the window `states × times`. An empty window keeps no
/// object.
pub fn line_candidates(
    chain: &MarkovChain,
    anchors: &[(u32, &SparseVector)],
    states: &StateMask,
    times: &TimeSet,
) -> Vec<usize> {
    let (Some(lo), Some(hi), Some(t_end)) =
        (states.iter().next(), states.iter().last(), times.max())
    else {
        return Vec::new();
    };
    let (lo, hi) = (lo as f64, hi as f64);
    let matrix = chain.matrix();
    let max_step = (0..chain.num_states())
        .flat_map(|i| matrix.row(i).0.iter().map(move |&j| (j as f64 - i as f64).abs()))
        .fold(0.0f64, f64::max);
    let reaches = |&(time, distribution): &(u32, &SparseVector)| {
        let (mut weighted, mut total) = (0.0, 0.0);
        for (s, p) in distribution.iter() {
            weighted += s as f64 * p;
            total += p;
        }
        let c = if total > 0.0 { weighted / total } else { 0.0 };
        let r = distribution.iter().map(|(s, _)| (s as f64 - c).abs()).fold(0.0, f64::max);
        let dist = (lo - c).max(0.0).max(c - hi);
        time <= t_end && dist <= f64::from(t_end - time) * max_step + r
    };
    (0..anchors.len()).filter(|&i| reaches(&anchors[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::CooBuilder;

    #[test]
    fn a_one_step_walk_reaches_one_state_per_step() {
        // s → s ± 1 on a line of 20 states; window {10} at t = 3.
        let n = 20;
        let mut b = CooBuilder::new(n, n);
        for s in 0..n {
            b.push(s, s.saturating_sub(1), 0.5).unwrap();
            b.push(s, (s + 1).min(n - 1), 0.5).unwrap();
        }
        let chain = MarkovChain::from_csr(b.build()).unwrap();
        let at = |s| SparseVector::unit(n, s).unwrap();
        let (s6, s7, s13, s14) = (at(6), at(7), at(13), at(14));
        let anchors = [(0, &s6), (0, &s7), (0, &s13), (0, &s14), (4, &s7)];
        let window = StateMask::from_indices(n, [10usize]).unwrap();
        // Three steps reach 7..=13; an anchor after t_end never reaches.
        assert_eq!(line_candidates(&chain, &anchors, &window, &TimeSet::at(3)), vec![1, 2]);
        assert!(line_candidates(&chain, &anchors, &window, &TimeSet::empty()).is_empty());
    }
}
