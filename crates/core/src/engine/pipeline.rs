//! The shared propagation pipeline every engine drives — **batch-first**.
//!
//! All of the paper's algorithms are one loop wearing different hats: a
//! distribution vector (or a small family of them) is pushed through the
//! chain's transition matrix one timestamp at a time, and at every *query*
//! timestamp the window states receive special treatment — mass is
//! redirected to ⊤ (PST∃Q), shifted between count levels (PSTkQ) or
//! clamped to certainty (the backward query-based sweep). [`Propagator`] owns the loop once and the
//! engines reduce to thin drivers that supply the direction (forward /
//! backward), the start state and the accumulation rule applied at window
//! timestamps.
//!
//! Since PR 2 the unit of propagation is an **object batch**, not a single
//! object. The data flow is:
//!
//! ```text
//! object batch (grouped by model + anchor time)
//!   └─ ObjectBatch: one row group per object (1 row for ∃, |T▫|+1 for k)
//!        └─ CsrMatrix::step_batch: one shared row-major matrix traversal
//!             steps every live row of the batch (densified vectors reuse
//!             each streamed matrix row; sparse rows pay only their support)
//!        └─ per-object accumulators updated by the driver's window rule
//!        └─ per-group early-exit masks: a decided object drops out of the
//!             batch (bound met, mass exhausted) without stopping the sweep
//!   └─ shards: run_sharded hands the caller and each scoped thread
//!        its own Propagator + scratch and a contiguous slice of the
//!        batches; query-based drivers precompute shared backward fields
//!        (SharedFieldPlan) so no shard re-sweeps a field
//! ```
//!
//! Per object, the floating-point operations and their order are identical
//! to a solo sweep, so batched evaluation is bit-for-bit equal to the
//! per-object path at every batch size (property-tested in
//! `tests/proptest_engines.rs`).
//!
//! The loop invariants the pipeline enforces uniformly:
//!
//! * **Masking schedule** — the window hook fires at the anchor timestamp
//!   when it lies in `T▫` (footnotes 2/3 of the paper) and after stepping
//!   into every later `t ∈ T▫`;
//! * **ε-pruning** — with [`EngineConfig::epsilon`] `> 0`, entries `≤ ε`
//!   are dropped right after every transition and the dropped mass is
//!   accounted in [`EvalStats::pruned_mass`] (the absolute error bound);
//! * **Reach trimming** — a windowed sweep carries a [`ReachSchedule`]
//!   (the plan [`crate::engine::reach`] builds once per model and query):
//!   right after the window hook of every processed timestamp `t` (the
//!   anchor time included) and before `StepEnd`, every live row is cut
//!   down to `mask(t)`, the states from which the window can still decide
//!   the predicate, and the dropped mass is added to the row's *decided*
//!   accumulator ([`ObjectBatch::decided`]). Every source of an in-mask
//!   state lies in the previous mask, and a row's per-slot accumulation
//!   order does not depend on what else the row holds, so the entries that
//!   stay are bit-identical to an untrimmed sweep's — the sweep just stops
//!   paying for the `|S| ∖ S_reach` states the paper's
//!   `O(|D|·|S_reach|²·δt)` never charges for. Sweeps without a window or
//!   a schedule pass `None` and run unhooked or untrimmed;
//! * **Densification** — vectors created through [`Propagator::seed`]
//!   move from the sorted-index arm to the span arm at
//!   [`ust_markov::hybrid::DEFAULT_DENSIFY_THRESHOLD`];
//! * **Early termination** — a group whose rows run empty (all worlds
//!   decided) is retired from the batch and counted in
//!   [`EvalStats::early_terminations`]; the sweep itself stops only when no
//!   group remains. Drivers with their own stopping rules (threshold and
//!   top-k bounds) retire groups via [`ObjectBatch::deactivate`] instead;
//! * **Counters** — transitions and matrix-row traversals are counted per
//!   product, and [`EvalStats::objects_evaluated`] is bumped for every
//!   group that ran to its natural end (groups a driver deactivated are the
//!   driver's outcome: a dismissal is not an evaluation).

use std::ops::ControlFlow;

use ust_markov::{CsrMatrix, PropagationVector, SparseVector, SpmvScratch, StateMask};

use crate::engine::reach::ReachSchedule;
use crate::engine::EngineConfig;
use crate::error::{QueryError, Result};
use crate::query::QueryWindow;
use crate::stats::EvalStats;

/// Which hook of the masking schedule a forward event belongs to.
///
/// One closure receives both (rather than separate window / decision
/// callbacks) so a driver keeps its accumulator state in plain captured
/// variables shared by both rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPhase {
    /// The sweep reached a query timestamp `t ∈ T▫`: apply the
    /// accumulation rule to every live group.
    Window,
    /// A timestamp is fully processed (stepped, window rule applied,
    /// pruned, trimmed). Drivers with their own stopping rules (threshold /
    /// top-k bounds) decide here; drivers with non-window per-step rules
    /// (observation fusion) mutate here; plain sweeps just continue.
    StepEnd,
}

/// A batch of objects propagating in lockstep: `group_size` consecutive
/// rows per object (1 for the ∃/∀ drivers, `|T▫| + 1` count levels for
/// PSTkQ) plus a per-object activity mask.
///
/// The pipeline steps only rows of active groups, retires groups whose
/// mass runs out, and stops the sweep when none remain. Drivers retire
/// decided objects early through [`ObjectBatch::deactivate`] — the decided
/// object drops out of the shared traversal without stopping the sweep for
/// the rest of the batch.
#[derive(Debug)]
pub struct ObjectBatch<'r> {
    rows: &'r mut [PropagationVector],
    group_size: usize,
    /// Per group: still propagating.
    active: Vec<bool>,
    /// Per group: retired by the pipeline because its mass ran out (counts
    /// as evaluated, unlike a driver deactivation).
    exhausted: Vec<bool>,
    /// Per row: mass the reach trimming dropped — worlds the window can no
    /// longer change the predicate for.
    decided: Vec<f64>,
}

impl<'r> ObjectBatch<'r> {
    /// Wraps `rows` as a batch of `rows.len() / group_size` objects.
    ///
    /// Fails when `group_size` is zero or does not divide the row count.
    pub fn new(rows: &'r mut [PropagationVector], group_size: usize) -> Result<Self> {
        if group_size == 0 || !rows.len().is_multiple_of(group_size) {
            return Err(QueryError::MalformedBatch { rows: rows.len(), group_size });
        }
        let groups = rows.len() / group_size;
        let decided = vec![0.0; rows.len()];
        Ok(ObjectBatch {
            rows,
            group_size,
            active: vec![true; groups],
            exhausted: vec![false; groups],
            decided,
        })
    }

    /// Number of object groups in the batch.
    pub fn num_groups(&self) -> usize {
        self.active.len()
    }

    /// The rows of group `g`.
    pub fn group(&self, g: usize) -> &[PropagationVector] {
        &self.rows[g * self.group_size..(g + 1) * self.group_size]
    }

    /// The rows of group `g`, mutably.
    pub fn group_mut(&mut self, g: usize) -> &mut [PropagationVector] {
        &mut self.rows[g * self.group_size..(g + 1) * self.group_size]
    }

    /// The decided mass of group `g`, one entry per row: what the reach
    /// trimming dropped from that row so far. What it means is the
    /// driver's rule — a certain miss for ∃ (ignored), a certain escape
    /// for ∀ through the complement window, mass that keeps its count
    /// level for k-times. All zero on sweeps without a [`ReachSchedule`].
    pub fn decided(&self, g: usize) -> &[f64] {
        &self.decided[g * self.group_size..(g + 1) * self.group_size]
    }

    /// True while group `g` still participates in the sweep.
    pub fn is_active(&self, g: usize) -> bool {
        self.active[g]
    }

    /// Retires group `g` from the sweep — the driver decided its object
    /// (bound met, dismissed, …). The pipeline will not count it as
    /// evaluated; recording the outcome is the driver's job.
    pub fn deactivate(&mut self, g: usize) {
        self.active[g] = false;
    }

    /// Number of groups still propagating.
    pub fn active_groups(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Retires active groups whose rows all ran empty (every world
    /// decided); returns how many were retired this call.
    fn retire_exhausted(&mut self) -> u64 {
        let mut retired = 0;
        for g in 0..self.active.len() {
            if self.active[g] && self.group(g).iter().all(|row| row.nnz() == 0) {
                self.active[g] = false;
                self.exhausted[g] = true;
                retired += 1;
            }
        }
        retired
    }

    /// Reach trimming: cuts every live row down to `mask`, crediting the
    /// dropped mass to the row's decided accumulator.
    fn trim_to(&mut self, mask: &StateMask) {
        if mask.count() == mask.dim() {
            return;
        }
        for (g, _) in self.active.iter().enumerate().filter(|(_, a)| **a) {
            let span = g * self.group_size..(g + 1) * self.group_size;
            for (row, decided) in self.rows[span.clone()].iter_mut().zip(&mut self.decided[span]) {
                if row.nnz() > 0 {
                    *decided += row.retain_masked(mask);
                }
            }
        }
    }

    /// Per-row activity for the batched kernel; `None` when every group is
    /// live (the kernel's "all active" fast path).
    fn row_activity(&self, buf: &mut Vec<bool>) -> bool {
        if self.active.iter().all(|a| *a) {
            return false;
        }
        buf.clear();
        for &a in &self.active {
            for _ in 0..self.group_size {
                buf.push(a);
            }
        }
        true
    }

    /// Groups that completed evaluation: still live at the natural end of
    /// the sweep, or retired because their mass ran out. Driver-deactivated
    /// groups are excluded — their outcome is the driver's to account.
    fn evaluated_groups(&self) -> u64 {
        self.active.iter().zip(&self.exhausted).filter(|(a, e)| **a || **e).count() as u64
    }
}

/// The shared propagation core: owns the step loop, the masking schedule,
/// ε-pruning, reach trimming and all [`EvalStats`] accounting (which arm a
/// vector lives on — span or sorted-index — is the vector's own decision,
/// see [`PropagationVector`]).
///
/// One `Propagator` is typically created per evaluation batch (or per
/// [`crate::parallel::WorkerPool`] shard job) so the sparse-product
/// scratch space is allocated once and reused across objects.
#[derive(Debug)]
pub struct Propagator<'s> {
    config: EngineConfig,
    stats: &'s mut EvalStats,
    scratch: SpmvScratch,
    row_active: Vec<bool>,
}

impl<'s> Propagator<'s> {
    /// A pipeline accumulating into `stats` under `config`.
    pub fn new(config: &EngineConfig, stats: &'s mut EvalStats) -> Self {
        Propagator { config: *config, stats, scratch: SpmvScratch::new(), row_active: Vec::new() }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The statistics sink (drivers use it for outcome-specific counters
    /// such as `objects_pruned`).
    pub fn stats(&mut self) -> &mut EvalStats {
        self.stats
    }

    /// Wraps a start distribution in a hybrid vector (densifying at
    /// [`ust_markov::hybrid::DEFAULT_DENSIFY_THRESHOLD`]).
    pub fn seed(&self, start: SparseVector) -> PropagationVector {
        PropagationVector::from_sparse(start)
    }

    /// One processed timestamp of the masking schedule: the window hook
    /// when `t ∈ T▫`, reach trimming, then `StepEnd`. True when the driver
    /// broke the sweep.
    fn process_timestamp(
        batch: &mut ObjectBatch<'_>,
        t: u32,
        window: Option<&QueryWindow>,
        reach: Option<&ReachSchedule>,
        on_event: &mut impl FnMut(BatchPhase, &mut ObjectBatch<'_>, u32) -> Result<ControlFlow<()>>,
    ) -> Result<bool> {
        if window.is_some_and(|w| w.time_in_window(t))
            && on_event(BatchPhase::Window, batch, t)?.is_break()
        {
            return Ok(true);
        }
        if let Some(mask) = reach.and_then(|r| r.mask_at(t)) {
            batch.trim_to(mask);
        }
        Ok(on_event(BatchPhase::StepEnd, batch, t)?.is_break())
    }

    /// Forward sweep of an object batch from `start_time` to `end_time` —
    /// the one step loop every forward driver runs on.
    ///
    /// All groups must share `start_time` (one anchor time per batch; the
    /// object-based driver groups objects accordingly, one-object callers
    /// wrap their rows in a batch of one group). With a `window`,
    /// `on_event` fires with [`BatchPhase::Window`] at every query timestamp
    /// (including `start_time` itself when it lies in `T▫`); it always
    /// fires with [`BatchPhase::StepEnd`] after every processed timestamp.
    /// The driver applies its accumulation rule to each active group and
    /// may retire decided groups via [`ObjectBatch::deactivate`]. Between
    /// the two hooks every live row is trimmed to `reach`'s mask of that
    /// timestamp (see the module docs); the driver reads what was dropped
    /// from [`ObjectBatch::decided`]. `end_time` may lie beyond
    /// `window.t_end()` (later evidence still conditions a
    /// multi-observation result). Returning [`ControlFlow::Break`] aborts
    /// the whole sweep without counting its groups as evaluated; the
    /// returned timestamp is where the sweep broke, `None` at the natural
    /// end.
    #[allow(clippy::too_many_arguments, reason = "one sweep's inputs and its hook")]
    pub fn forward(
        &mut self,
        matrix: &CsrMatrix,
        batch: &mut ObjectBatch<'_>,
        start_time: u32,
        end_time: u32,
        window: Option<&QueryWindow>,
        reach: Option<&ReachSchedule>,
        mut on_event: impl FnMut(BatchPhase, &mut ObjectBatch<'_>, u32) -> Result<ControlFlow<()>>,
    ) -> Result<Option<u32>> {
        if Self::process_timestamp(batch, start_time, window, reach, &mut on_event)? {
            return Ok(Some(start_time));
        }
        for t in start_time..end_time {
            // Retire groups whose worlds are all decided (the paper's
            // inherent true-hit stop, and every world the reach trimming
            // dropped), then stop once none remain.
            self.stats.early_terminations += batch.retire_exhausted();
            if batch.active_groups() == 0 {
                break;
            }
            let masked = batch.row_activity(&mut self.row_active);
            let activity: &[bool] = if masked { &self.row_active } else { &[] };
            let report = matrix.step_batch(batch.rows, activity, &mut self.scratch)?;
            self.stats.transitions += report.vectors_stepped;
            self.stats.rows_traversed += report.rows_traversed;
            self.stats.entries_touched += report.entries_touched;
            if self.config.epsilon > 0.0 {
                for g in 0..batch.num_groups() {
                    if !batch.is_active(g) {
                        continue;
                    }
                    for row in batch.group_mut(g) {
                        self.stats.pruned_mass += row.prune(self.config.epsilon);
                    }
                }
            }
            if Self::process_timestamp(batch, t + 1, window, reach, &mut on_event)? {
                return Ok(Some(t + 1));
            }
        }
        // Exhaustion at the final timestamp is a natural end, not an early
        // termination — groups still flagged active are simply done.
        self.stats.objects_evaluated += batch.evaluated_groups();
        Ok(None)
    }

    /// Backward sweep from `resume_time` down to the earliest time in
    /// `snapshot_times`, for the query-based engines: `state` holds
    /// `h_{resume_time}` — the start state at `window.t_end()`, or where an
    /// earlier sweep stopped.
    ///
    /// The driver supplies the state (a hybrid vector for PST∃Q and PST∀Q,
    /// the interleaved level panel for PSTkQ) and three hooks:
    /// `apply_window` — the transposed `M+` surgery (the k-times lane
    /// shift), applied *before* stepping out of a query timestamp;
    /// `step` — one backward transition, returning the number of vectors
    /// it stepped, one per level (accounted as
    /// [`EvalStats::backward_steps`]);
    /// `snapshot` — called at every requested time the sweep reaches,
    /// `resume_time` included, in descending time order.
    ///
    /// Resuming is the suffix-sharing primitive behind
    /// [`crate::engine::cache::FieldCache`]: a cached sweep that
    /// stopped at its earliest snapshot can be extended further down to new
    /// anchor times without recomputing the `(resume_time, t_end]` suffix.
    /// Snapshot times above `resume_time` are ignored — they belong to the
    /// already-computed part of the sweep.
    #[allow(clippy::too_many_arguments, reason = "one sweep's inputs and its three hooks")]
    pub fn backward_from<S>(
        &mut self,
        state: &mut S,
        resume_time: u32,
        window: &QueryWindow,
        snapshot_times: &[u32],
        mut apply_window: impl FnMut(&mut S) -> Result<()>,
        mut step: impl FnMut(&mut S, &mut SpmvScratch) -> Result<u64>,
        mut snapshot: impl FnMut(&S, u32),
    ) -> Result<()> {
        let t_min = snapshot_times
            .iter()
            .copied()
            .filter(|&t| t <= resume_time)
            .min()
            .unwrap_or(resume_time);
        let mut wanted: Vec<u32> =
            snapshot_times.iter().copied().filter(|&t| t <= resume_time).collect();
        wanted.sort_unstable();
        wanted.dedup();

        if wanted.binary_search(&resume_time).is_ok() {
            snapshot(state, resume_time);
        }
        let mut t = resume_time;
        while t > t_min {
            // Stepping from t to t-1: the step's target time is t.
            if window.time_in_window(t) {
                apply_window(state)?;
            }
            self.stats.backward_steps += step(state, &mut self.scratch)?;
            t -= 1;
            if wanted.binary_search(&t).is_ok() {
                snapshot(state, t);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::reach::ReachRule;
    use crate::object::UncertainObject;
    use crate::observation::Observation;
    use crate::testkit::{paper_chain, paper_window};
    use ust_markov::{CsrMatrix, MarkovChain};
    use ust_space::TimeSet;

    /// The sweep the tests below share: from `t = 0` to `window.t_end()`,
    /// hooked on `window` and trimmed to its ∃ reach.
    fn sweep(
        pipeline: &mut Propagator<'_>,
        chain: &MarkovChain,
        batch: &mut ObjectBatch<'_>,
        window: &QueryWindow,
        on_event: impl FnMut(BatchPhase, &mut ObjectBatch<'_>, u32) -> Result<ControlFlow<()>>,
    ) -> Option<u32> {
        let reach = ReachSchedule::build(chain, window, ReachRule::Exists, 0).unwrap();
        let (matrix, t_end) = (chain.matrix(), window.t_end());
        pipeline.forward(matrix, batch, 0, t_end, Some(window), Some(&reach), on_event).unwrap()
    }

    #[test]
    fn trimming_moves_unreachable_mass_to_the_decided_accumulator() {
        // A conveyor belt moving right: from s2 onwards the window {s0} is
        // out of reach, so that mass is decided before any transition while
        // the in-reach row is stepped as usual.
        let chain = MarkovChain::from_csr(
            CsrMatrix::from_dense(&[vec![0.5, 0.5, 0.0], vec![0.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]])
                .unwrap(),
        )
        .unwrap();
        let window = QueryWindow::from_states(3, [0usize], TimeSet::interval(1, 2)).unwrap();
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut rows = vec![
            pipeline.seed(SparseVector::from_pairs(3, [(0, 0.5), (2, 0.5)]).unwrap()),
            pipeline.seed(SparseVector::unit(3, 1).unwrap()),
        ];
        let mut batch = ObjectBatch::new(&mut rows, 1).unwrap();
        let mut hits = [0.0f64; 2];
        sweep(&mut pipeline, &chain, &mut batch, &window, |phase, batch, _| {
            if phase == BatchPhase::Window {
                for (g, hit) in hits.iter_mut().enumerate() {
                    *hit += batch.group_mut(g)[0].extract_masked(window.states());
                }
            }
            Ok(ControlFlow::Continue(()))
        });
        // Group 0: 0.5 at s0 hits with 0.25 at t=1 (0.25 left for s1, which
        // is out of reach and decided); the 0.5 at s2 was decided at t=0.
        assert_eq!(hits, [0.25, 0.0]);
        assert_eq!(batch.decided(0), &[0.75]);
        assert_eq!(batch.decided(1), &[1.0]);
        // Only group 0 ever stepped, once; group 1 retired empty at t=0.
        assert_eq!(stats.transitions, 1);
        assert_eq!(stats.early_terminations, 2);
        assert_eq!(stats.objects_evaluated, 2);
    }

    #[test]
    fn forward_applies_schedule_and_counts() {
        // Re-derives the paper's 0.864 directly through the pipeline, on a
        // batch of one group.
        let chain = paper_chain();
        let window = paper_window();
        let object =
            UncertainObject::with_single_observation(1, Observation::exact(0, 3, 1).unwrap());
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut rows = [pipeline.seed(object.anchor().distribution().clone())];
        let mut batch = ObjectBatch::new(&mut rows, 1).unwrap();
        let mut hit = 0.0;
        sweep(&mut pipeline, &chain, &mut batch, &window, |phase, batch, _| {
            if phase == BatchPhase::Window {
                hit += batch.group_mut(0)[0].extract_masked(window.states());
            }
            Ok(ControlFlow::Continue(()))
        });
        assert!((hit - 0.864).abs() < 1e-12);
        assert_eq!(stats.transitions, 3);
        assert_eq!(stats.objects_evaluated, 1);
        assert!(stats.rows_traversed > 0);
    }

    #[test]
    fn a_broken_forward_sweep_is_not_counted_as_an_evaluation() {
        let chain = paper_chain();
        let window = paper_window();
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut rows = [pipeline.seed(SparseVector::from_pairs(3, [(1usize, 1.0)]).unwrap())];
        let mut batch = ObjectBatch::new(&mut rows, 1).unwrap();
        let broke_at = sweep(&mut pipeline, &chain, &mut batch, &window, |phase, _, t| {
            Ok(match phase {
                BatchPhase::StepEnd if t >= 1 => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            })
        });
        assert_eq!(broke_at, Some(1));
        assert_eq!(stats.transitions, 1);
        assert_eq!(stats.objects_evaluated, 0, "broken sweeps are the driver's outcome");
    }

    #[test]
    fn batch_retires_decided_groups_without_stopping_the_sweep() {
        // Two objects: the driver dismisses the first at t=1; the second
        // propagates to the end and is counted as evaluated.
        let chain = paper_chain();
        let window = paper_window();
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut rows = vec![
            pipeline.seed(SparseVector::unit(3, 1).unwrap()),
            pipeline.seed(SparseVector::unit(3, 2).unwrap()),
        ];
        let mut batch = ObjectBatch::new(&mut rows, 1).unwrap();
        let mut hits = [0.0f64; 2];
        let end = sweep(&mut pipeline, &chain, &mut batch, &window, |phase, batch, t| {
            match phase {
                BatchPhase::Window => {
                    for (g, hit) in hits.iter_mut().enumerate() {
                        if batch.is_active(g) {
                            *hit += batch.group_mut(g)[0].extract_masked(window.states());
                        }
                    }
                }
                BatchPhase::StepEnd => {
                    if t == 1 && batch.is_active(0) {
                        batch.deactivate(0);
                    }
                }
            }
            Ok(ControlFlow::Continue(()))
        });
        assert_eq!(end, None);
        assert_eq!(stats.objects_evaluated, 1, "the dismissed group is not an evaluation");
        // Group 1 from s3: hits 0.8 at t=2, then 0.2·0.8 = 0.16 at t=3.
        assert!((hits[1] - 0.928).abs() < 1e-12);
        // Group 0 was dismissed after one step: no window mass collected.
        assert_eq!(hits[0], 0.0);
        // Transitions: group 0 stepped once, group 1 three times.
        assert_eq!(stats.transitions, 4);
    }

    #[test]
    fn batch_exhausted_groups_count_as_early_terminations() {
        // A window covering the whole space at t=1 empties every group's
        // vector; both groups retire, both count as evaluated.
        let chain = paper_chain();
        let window = QueryWindow::from_states(3, [0usize, 1, 2], TimeSet::new([1, 9])).unwrap();
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut rows = vec![
            pipeline.seed(SparseVector::unit(3, 0).unwrap()),
            pipeline.seed(SparseVector::unit(3, 1).unwrap()),
        ];
        let mut batch = ObjectBatch::new(&mut rows, 1).unwrap();
        let mut hit = 0.0;
        sweep(&mut pipeline, &chain, &mut batch, &window, |phase, batch, _| {
            if phase == BatchPhase::Window {
                for g in 0..batch.num_groups() {
                    hit += batch.group_mut(g)[0].extract_masked(window.states());
                }
            }
            Ok(ControlFlow::Continue(()))
        });
        assert!((hit - 2.0).abs() < 1e-12);
        assert_eq!(stats.early_terminations, 2);
        assert_eq!(stats.objects_evaluated, 2);
        assert!(stats.transitions < 18, "the sweep must stop after t=1");
    }

    #[test]
    fn malformed_batches_are_rejected() {
        let mut rows = vec![
            PropagationVector::from_sparse(SparseVector::zeros(3)),
            PropagationVector::from_sparse(SparseVector::zeros(3)),
            PropagationVector::from_sparse(SparseVector::zeros(3)),
        ];
        assert!(matches!(
            ObjectBatch::new(&mut rows, 2),
            Err(QueryError::MalformedBatch { rows: 3, group_size: 2 })
        ));
        assert!(matches!(ObjectBatch::new(&mut rows, 0), Err(QueryError::MalformedBatch { .. })));
        let batch = ObjectBatch::new(&mut rows, 3).unwrap();
        assert_eq!(batch.num_groups(), 1);
        assert_eq!(batch.group(0).len(), 3);
    }

    #[test]
    fn forward_without_a_window_fires_only_step_end() {
        // The observation-driven schedule: StepEnd at every timestamp,
        // never a Window event.
        let chain = paper_chain();
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut rows = [pipeline.seed(SparseVector::unit(3, 1).unwrap())];
        let mut batch = ObjectBatch::new(&mut rows, 1).unwrap();
        let mut steps = Vec::new();
        pipeline
            .forward(chain.matrix(), &mut batch, 0, 4, None, None, |phase, _, t| {
                assert_eq!(phase, BatchPhase::StepEnd, "no window schedule");
                steps.push(t);
                Ok(ControlFlow::Continue(()))
            })
            .unwrap();
        assert_eq!(steps, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.transitions, 4);
    }

    #[test]
    fn backward_snapshots_only_requested_times() {
        let chain = paper_chain();
        let window = paper_window();
        let mut stats = EvalStats::new();
        let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
        let mut h = pipeline.seed(SparseVector::zeros(3));
        let mut seen = Vec::new();
        let transposed = chain.transposed();
        pipeline
            .backward_from(
                &mut h,
                window.t_end(),
                &window,
                &[0, 2],
                |h| {
                    let _ = h.extract_masked(window.states());
                    let ones =
                        SparseVector::from_pairs(3, window.states().iter().map(|s| (s, 1.0)))?;
                    h.add_sparse(&ones)?;
                    Ok(())
                },
                |h, scratch| {
                    h.step(transposed, scratch)?;
                    Ok(1)
                },
                |_, t| seen.push(t),
            )
            .unwrap();
        assert_eq!(seen, vec![2, 0]);
        assert_eq!(stats.backward_steps, 3);
    }

    #[test]
    fn backward_from_resumes_a_suffix_sweep() {
        // Running t_end → 1 in one sweep must equal t_end → 2 followed by a
        // resumed 2 → 1 sweep, bit for bit.
        let chain = paper_chain();
        let window = paper_window();
        let transposed = chain.transposed();
        let run = |segments: &[(u32, Vec<u32>)]| {
            let mut stats = EvalStats::new();
            let mut pipeline = Propagator::new(&EngineConfig::default(), &mut stats);
            let mut h = pipeline.seed(SparseVector::zeros(3));
            let mut snaps = Vec::new();
            for (resume, wanted) in segments {
                pipeline
                    .backward_from(
                        &mut h,
                        *resume,
                        &window,
                        wanted,
                        |h| {
                            let _ = h.extract_masked(window.states());
                            let ones = SparseVector::from_pairs(
                                3,
                                window.states().iter().map(|s| (s, 1.0)),
                            )?;
                            h.add_sparse(&ones)?;
                            Ok(())
                        },
                        |h, scratch| {
                            h.step(transposed, scratch)?;
                            Ok(1)
                        },
                        |h, t| snaps.push((t, h.to_dense())),
                    )
                    .unwrap();
            }
            snaps
        };
        let full = run(&[(3, vec![1, 2])]);
        let split = run(&[(3, vec![2]), (2, vec![1])]);
        assert_eq!(full.len(), 2);
        // The split run snapshots t=2 twice (once as the end of the first
        // segment, once as the resume point of the second).
        let split: Vec<_> = split
            .iter()
            .filter(|(t, _)| *t == 1)
            .chain(split.iter().filter(|(t, _)| *t == 2).take(1))
            .collect();
        for (t, h) in &full {
            let other = split.iter().find(|(st, _)| st == t).unwrap();
            for s in 0..3 {
                assert_eq!(h.get(s).to_bits(), other.1.get(s).to_bits(), "t={t}, s={s}");
            }
        }
    }
}
