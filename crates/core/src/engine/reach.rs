//! Reach schedules — the plan a windowed forward sweep is trimmed to.
//!
//! A [`ReachSchedule`] holds, for every time `t0..=t_end`, the states from
//! which the rest of the window can still decide the predicate
//! ([`ReachRule`]); the pipeline cuts every live row down to `mask(t)` after
//! each processed timestamp. The masks are built once per model and query,
//! backwards from `t_end` over the transposed chain: with the *target*
//! `X_t = mask(t)`, joined with `S▫` by the rule when `t` is a query time,
//! `mask(t − 1)` is the predecessor set `pred(X_t)`.
//!
//! The build grows each mask from the one after it instead of recomputing
//! it: whenever the target contains the previous one (`X_t ⊇ X_{t+1}`),
//! `pred(X_t) = mask(t) ∪ pred(X_t ∖ X_{t+1})`, so only the *frontier*
//! `X_t ∖ X_{t+1}` has its predecessor rows read. On a chain whose masks
//! nest (every ∃ step with a self-loop at each state) the frontiers are
//! disjoint and their union is the last target: the whole schedule reads
//! each predecessor row at most once. A step whose target shrank (a ∀ step
//! inside the window, or a chain whose masks do not nest) falls back to the
//! full `pred(X_t)`. Either way the masks are the same sets, bit for bit.
//!
//! Every pass reads only the words a mask's extent
//! ([`StateMask::extent`]) covers — the join of the target, the nesting
//! test and the frontier — so a step costs O(reach / 64) words, not
//! `|S| / 64`, besides the copy of the mask it grows.

use std::ops::Range;

use ust_markov::{MarkovChain, StateMask};

use crate::engine::object_based::check_window;
use crate::error::Result;
use crate::query::QueryWindow;

/// States per packed word of a [`StateMask`].
const BITS: usize = 64;

/// The smallest word range holding both `a` and `b` (either may be empty).
fn hull(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b,
        (_, true) => a,
        _ => a.start.min(b.start)..a.end.max(b.end),
    }
}

/// The words both `a` and `b` cover (`0..0` when none).
fn overlap(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    let (start, end) = (a.start.max(b.start), a.end.min(b.end));
    if start < end {
        start..end
    } else {
        0..0
    }
}

/// Which predicate a [`ReachSchedule`] keeps decidable — the two window
/// rules the backward fields of [`crate::engine::query_based`] are swept
/// under (a k-times sweep lives on the ∃ reach: mass that cannot visit the
/// window again keeps its count level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachRule {
    /// `mask(t)` = states that can still **enter** `S▫` at a query time in
    /// `(t, t_end]` (union with the window, empty at `t_end`). Mass outside
    /// can never hit: decided as a miss.
    Exists,
    /// `mask(t)` = states that can still be **inside** `S▫` at *all* query
    /// times in `(t, t_end]` (intersection with the window, full at
    /// `t_end`). Mass outside is certain to escape: decided as escaped.
    ForAll,
}

/// Time-indexed backward reachability of a query window: the forward
/// pipeline's trimming schedule.
///
/// `mask(t)` holds the states from which the *remaining* window
/// (`T▫ ∩ (t, t_end]`) can still decide the predicate along the chain's
/// stored transitions (see [`ReachRule`]). Mass outside `mask(t)` is
/// decided, so the sweep drops it — the structural pruning the paper folds
/// into the `M+` matrices, hoisted out as boolean masks built once per
/// model and query from the transposed chain. The masks do not depend on
/// where the sweep starts, so one schedule built from the earliest anchor
/// time serves every later one.
#[derive(Debug, Clone)]
pub struct ReachSchedule {
    t0: u32,
    masks: Vec<StateMask>,
}

impl ReachSchedule {
    /// Builds the masks for times `t0..=t_end` (one backward pass over the
    /// transposed chain, reading the predecessor rows of each step's
    /// frontier; `t0` is clamped to `t_end`).
    ///
    /// Fails with [`crate::QueryError::ModelDimensionMismatch`] when the
    /// window's state mask does not have the chain's dimension.
    pub fn build(
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: ReachRule,
        t0: u32,
    ) -> Result<ReachSchedule> {
        Ok(Self::build_counting(chain, window, rule, t0)?.0)
    }

    /// [`ReachSchedule::build`], also returning how many predecessor rows
    /// the build read.
    fn build_counting(
        chain: &MarkovChain,
        window: &QueryWindow,
        rule: ReachRule,
        t0: u32,
    ) -> Result<(ReachSchedule, usize)> {
        check_window(chain, window)?;
        let n = chain.num_states();
        let t_end = window.t_end();
        let t0 = t0.min(t_end);
        let transposed = chain.transposed();
        let inside = window.states();
        let mut masks: Vec<StateMask> = Vec::with_capacity((t_end - t0) as usize + 1);
        // Nothing of the window remains ahead of t_end: no state can still
        // hit it, every state still satisfies "all remaining times".
        masks.push(match rule {
            ReachRule::Exists => StateMask::new(n),
            ReachRule::ForAll => StateMask::full(n),
        });
        // The target the last mask is the predecessor set of: `pred(∅) = ∅`
        // and `pred(S) = S` (every state has a successor), so the first
        // mask is its own. Each buffer is zero outside its extent, and every
        // pass below reads extents only.
        let mut prev = (masks[0].words().to_vec(), masks[0].extent());
        let mut target = (vec![0u64; prev.0.len()], 0..0);
        let mut reads = 0;
        // `t_end` down to `t0 + 1`, without forming `t0 + 1`: it overflows
        // for a sweep anchored at `u32::MAX`.
        for t in (t0..=t_end).rev().take_while(|&t| t > t0) {
            let ahead = &masks[(t_end - t) as usize];
            // Where a world must be at time `t` to stay undecided: on the
            // states ahead, joined with the window by the rule when `t` is
            // a query time.
            let joins = window.time_in_window(t).then_some(rule);
            let (x, extent) = &mut target;
            x[extent.clone()].fill(0);
            *extent = match joins {
                None => ahead.extent(),
                Some(ReachRule::Exists) => hull(ahead.extent(), inside.extent()),
                Some(ReachRule::ForAll) => overlap(ahead.extent(), inside.extent()),
            };
            let (a, s) = (ahead.words(), inside.words());
            for w in extent.clone() {
                x[w] = match joins {
                    None => a[w],
                    Some(ReachRule::Exists) => a[w] | s[w],
                    Some(ReachRule::ForAll) => a[w] & s[w],
                };
            }
            // Whether the target kept every state of the last one.
            let before = &prev.0;
            let nested = prev.1.clone().all(|w| before[w] & !x[w] == 0);
            // Every state has a successor (rows are stochastic), so a full
            // target is reached from everywhere.
            let sources = if ahead.count() == n && joins != Some(ReachRule::ForAll) {
                StateMask::full(n)
            } else {
                // Grow `mask(t)` by the predecessors of the new part of a
                // target that kept the last one; of the whole target when
                // it shrank.
                let (mut sources, mut grown) =
                    if nested { (a.to_vec(), ahead.extent()) } else { (vec![0; x.len()], 0..0) };
                for w in extent.clone() {
                    let mut frontier = if nested { x[w] & !before[w] } else { x[w] };
                    while frontier != 0 {
                        let s = w * BITS + frontier.trailing_zeros() as usize;
                        frontier &= frontier - 1;
                        reads += 1;
                        let (preds, _) = transposed.row(s);
                        if let (Some(&first), Some(&last)) = (preds.first(), preds.last()) {
                            let words = first as usize / BITS..last as usize / BITS + 1;
                            grown = hull(grown, words);
                        }
                        for &p in preds {
                            sources[p as usize / BITS] |= 1 << (p as usize % BITS);
                        }
                    }
                }
                StateMask::from_words_within(n, sources, grown)?
            };
            masks.push(sources);
            std::mem::swap(&mut prev, &mut target);
        }
        masks.reverse();
        Ok((ReachSchedule { t0, masks }, reads))
    }

    /// The mask at time `t` (`None` outside `t0..=t_end`).
    pub fn mask_at(&self, t: u32) -> Option<&StateMask> {
        self.masks.get(t.checked_sub(self.t0)? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use ust_oracle::testutil;
    use ust_space::TimeSet;

    #[test]
    fn a_window_of_another_dimension_is_rejected() {
        let chain = testutil::random_chain(3, 12, 3);
        for dim in [16, 8] {
            let window = QueryWindow::from_states(dim, [1usize, 2], TimeSet::new([2, 4])).unwrap();
            for rule in [ReachRule::Exists, ReachRule::ForAll] {
                assert!(
                    matches!(
                        ReachSchedule::build(&chain, &window, rule, 0),
                        Err(QueryError::ModelDimensionMismatch { model_states: 12, object_states })
                            if object_states == dim
                    ),
                    "window over {dim} states, {rule:?}"
                );
            }
        }
    }

    #[test]
    fn nested_steps_read_each_predecessor_row_at_most_once() {
        // A banded chain with a self-loop at every state: every ∃ target
        // contains the one after it, so every step grows from its frontier.
        let n = 400;
        let mut b = ust_markov::CooBuilder::new(n, n);
        for s in 0..n {
            let band = s.saturating_sub(2)..=(s + 2).min(n - 1);
            let weight = 1.0 / band.clone().count() as f64;
            band.into_iter().try_for_each(|c| b.push(s, c, weight)).unwrap();
        }
        let chain = MarkovChain::from_csr(b.build()).unwrap();
        let window =
            QueryWindow::from_states(n, 200usize..210, TimeSet::new([30, 33, 34, 40])).unwrap();
        let t0 = 2;
        let (schedule, reads) =
            ReachSchedule::build_counting(&chain, &window, ReachRule::Exists, t0).unwrap();
        let target = |t: u32| {
            let mask = schedule.mask_at(t).unwrap();
            if window.time_in_window(t) {
                mask.union(window.states()).unwrap()
            } else {
                mask.clone()
            }
        };
        // The frontiers are disjoint and their union is the last target.
        let bound = schedule.mask_at(t0 + 1).unwrap().count() + window.states().count();
        assert!(reads <= bound, "{reads} predecessor rows read, at most {bound}");
        assert_eq!(reads, target(t0 + 1).count());
        // From scratch, every step reads its whole target.
        let from_scratch: usize = (t0 + 1..=40).map(|t| target(t).count()).sum();
        assert!(reads * 10 < from_scratch, "{reads} reads against {from_scratch} from scratch");
    }
}
