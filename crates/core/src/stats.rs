//! Evaluation statistics (operation counters).
//!
//! The paper's complexity claims are stated in transitions and touched
//! states (`O(|D|·|S_reach|²·δt)` for OB vs `O(|D| + |S_reach|²·δt)` for
//! QB). These counters make the claims observable: tests assert that QB
//! performs a number of transitions independent of `|D|` while OB scales
//! linearly, without relying on wall-clock timing.

/// Counters accumulated during query evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalStats {
    /// Forward vector–matrix transitions performed. A windowed forward
    /// sweep steps only rows that still hold mass inside the window's reach
    /// (see [`crate::engine::reach::ReachSchedule`]): an object whose
    /// anchor lies outside it is answered with zero transitions.
    pub transitions: u64,
    /// Transition-matrix rows streamed during forward propagation. The
    /// batched kernel reads each touched row once per *batch* instead of
    /// once per object, so this is the counter that makes the batching win
    /// observable (cf. `ust_markov::BatchStepStats`).
    pub rows_traversed: u64,
    /// Transition-matrix entries multiplied into an accumulator during
    /// forward propagation. Unlike `rows_traversed` this is invariant
    /// across kernel choices (every batch grouping performs the same
    /// floating-point work): it is the unit the plan cost model estimates
    /// in, and `entries_touched / execute_time` is the matrix-entry
    /// *throughput* of a forward run. On a windowed forward sweep this is
    /// reachable work only — the rows of source states from which the
    /// window can still decide the predicate, the `|S_reach|²` of the
    /// paper's bound.
    pub entries_touched: u64,
    /// Backward vector–matrix transitions performed (query-based passes).
    pub backward_steps: u64,
    /// Objects whose answer was computed: every candidate a driver
    /// evaluated. A query-based ∃ probabilities read that re-scores the
    /// rows kept beside its memoised plan counts only the survivors it
    /// dotted again — those written since the plan it was served or
    /// patched from — and 0 on an unchanged store.
    pub objects_evaluated: u64,
    /// Objects the top-k driver dismissed at their anchor time, before any
    /// step; the index's prunings count in `candidates_pruned`. An object
    /// the reach trimming empties under any other driver is *not* pruned:
    /// it was evaluated (its answer is exact) and retires as an early
    /// termination.
    pub objects_pruned: u64,
    /// Candidate objects the spatio-temporal index handed to the engines —
    /// the post-pruning `|D∩|` a query actually dispatched on. Without an
    /// index pass this equals the resolved candidate set size. A re-scored
    /// read counts every survivor here, whether its row was copied or
    /// dotted again.
    pub candidates_examined: u64,
    /// Candidate objects discarded by the spatio-temporal index before any
    /// matrix work, by either filter: the reachability cone (provably
    /// `P∃ = 0`) or, for an ∃ threshold over a cached field, the
    /// τ-superlevel set (provably `P∃ < τ`).
    pub candidates_pruned: u64,
    /// Propagations cut short because all worlds were already decided —
    /// absorbed by the window, or trimmed because the window can no longer
    /// change their outcome.
    pub early_terminations: u64,
    /// Backward-field cache lookups answered without a fresh sweep
    /// (including suffix-extended partial hits).
    pub cache_hits: u64,
    /// Backward-field cache lookups that required a full backward sweep.
    pub cache_misses: u64,
    /// Executions whose prepared plan — survivors, groups, strategy and
    /// cost record — came from the plan memo unchanged, instead of a fresh
    /// index probe, validation and costing: an ∃ read over an indexed scope
    /// of at least 256 objects, repeated on an unchanged snapshot (re-costed
    /// when the cached fields it was costed against changed). Its refine
    /// still runs: the counted cache lookups, and the dot products —
    /// which a query-based probabilities read takes only where its kept
    /// rows no longer hold (see `objects_evaluated`).
    pub plans_reused: u64,
    /// Executions whose memoised plan was brought up to date from the
    /// store's write log instead of prepared afresh: the objects written
    /// since the memo was made were re-tested against the index and merged
    /// into its survivors, and the plan re-costed.
    pub plans_patched: u64,
    /// Objects in scope that patched plans re-tested: per patch, the
    /// distinct objects written since its memo was made.
    pub objects_retested: u64,
    /// `(model, window)` backward fields computed (or fetched from the
    /// cache) exactly once by a shared-field plan and handed to the worker
    /// fan-out as read-only views — sweeps that a per-worker evaluation
    /// would have repeated once per worker touching the model.
    pub fields_shared: u64,
    /// Total probability mass dropped by ε-pruning (bounds the error).
    pub pruned_mass: f64,
}

impl EvalStats {
    /// A fresh zeroed counter set.
    pub fn new() -> Self {
        EvalStats::default()
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        self.transitions += other.transitions;
        self.rows_traversed += other.rows_traversed;
        self.entries_touched += other.entries_touched;
        self.backward_steps += other.backward_steps;
        self.objects_evaluated += other.objects_evaluated;
        self.objects_pruned += other.objects_pruned;
        self.candidates_examined += other.candidates_examined;
        self.candidates_pruned += other.candidates_pruned;
        self.early_terminations += other.early_terminations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.plans_reused += other.plans_reused;
        self.plans_patched += other.plans_patched;
        self.objects_retested += other.objects_retested;
        self.fields_shared += other.fields_shared;
        self.pruned_mass += other.pruned_mass;
    }

    /// Total matrix transitions of either direction.
    pub fn total_steps(&self) -> u64 {
        self.transitions + self.backward_steps
    }

    /// The counters accumulated since `before` was snapshotted — the
    /// per-query delta [`crate::serving::Metrics`] attributes to one
    /// execution when the caller reuses a long-lived `EvalStats`.
    /// Saturating, so a mismatched snapshot cannot panic in release or
    /// debug builds.
    pub fn delta_since(&self, before: &EvalStats) -> EvalStats {
        EvalStats {
            transitions: self.transitions.saturating_sub(before.transitions),
            rows_traversed: self.rows_traversed.saturating_sub(before.rows_traversed),
            entries_touched: self.entries_touched.saturating_sub(before.entries_touched),
            backward_steps: self.backward_steps.saturating_sub(before.backward_steps),
            objects_evaluated: self.objects_evaluated.saturating_sub(before.objects_evaluated),
            objects_pruned: self.objects_pruned.saturating_sub(before.objects_pruned),
            candidates_examined: self
                .candidates_examined
                .saturating_sub(before.candidates_examined),
            candidates_pruned: self.candidates_pruned.saturating_sub(before.candidates_pruned),
            early_terminations: self.early_terminations.saturating_sub(before.early_terminations),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(before.cache_misses),
            plans_reused: self.plans_reused.saturating_sub(before.plans_reused),
            plans_patched: self.plans_patched.saturating_sub(before.plans_patched),
            objects_retested: self.objects_retested.saturating_sub(before.objects_retested),
            fields_shared: self.fields_shared.saturating_sub(before.fields_shared),
            pruned_mass: (self.pruned_mass - before.pruned_mass).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = EvalStats { transitions: 3, backward_steps: 1, ..Default::default() };
        let b = EvalStats {
            transitions: 2,
            rows_traversed: 9,
            entries_touched: 21,
            backward_steps: 4,
            objects_evaluated: 7,
            objects_pruned: 1,
            candidates_examined: 6,
            candidates_pruned: 5,
            early_terminations: 2,
            cache_hits: 3,
            cache_misses: 2,
            plans_reused: 6,
            plans_patched: 3,
            objects_retested: 8,
            fields_shared: 4,
            pruned_mass: 0.5,
        };
        a.merge(&b);
        assert_eq!(a.transitions, 5);
        assert_eq!(a.rows_traversed, 9);
        assert_eq!(a.entries_touched, 21);
        assert_eq!(a.backward_steps, 5);
        assert_eq!(a.objects_evaluated, 7);
        assert_eq!(a.objects_pruned, 1);
        assert_eq!(a.candidates_examined, 6);
        assert_eq!(a.candidates_pruned, 5);
        assert_eq!(a.early_terminations, 2);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 2);
        assert_eq!(a.plans_reused, 6);
        assert_eq!((a.plans_patched, a.objects_retested), (3, 8));
        assert_eq!(a.fields_shared, 4);
        assert_eq!(a.total_steps(), 10);
        assert!((a.pruned_mass - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(EvalStats::new(), EvalStats::default());
        assert_eq!(EvalStats::new().total_steps(), 0);
    }

    #[test]
    fn delta_since_subtracts_a_snapshot() {
        let before = EvalStats { transitions: 3, cache_hits: 1, ..Default::default() };
        let mut after = before.clone();
        after.transitions += 4;
        after.backward_steps += 2;
        after.candidates_pruned += 3;
        after.cache_hits += 1;
        after.plans_reused += 2;
        after.plans_patched += 1;
        after.objects_retested += 5;
        after.pruned_mass += 0.25;
        let delta = after.delta_since(&before);
        assert_eq!(delta.transitions, 4);
        assert_eq!(delta.backward_steps, 2);
        assert_eq!(delta.candidates_pruned, 3);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(delta.plans_reused, 2);
        assert_eq!((delta.plans_patched, delta.objects_retested), (1, 5));
        assert!((delta.pruned_mass - 0.25).abs() < 1e-12);
        // A mismatched (newer) snapshot saturates instead of wrapping.
        assert_eq!(before.delta_since(&after).transitions, 0);
    }
}
