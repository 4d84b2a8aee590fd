//! Adaptive propagation vectors: sorted indices or a contiguous span.
//!
//! The paper's data model is *local* — an object's location distribution
//! starts on a handful of neighbouring states (`object_spread` defaults to
//! 5) and fans out by at most `state_spread` successors inside `max_step`
//! per transition — so the support of every vector this system propagates
//! is an interval that widens by one transition's reach per step. A
//! [`PropagationVector`] therefore has two arms:
//!
//! * the **span arm** ([`SpanVector`]) — an offset plus the contiguous
//!   values between the first and last non-zero. One transition scatters
//!   into the contiguous output range read off the live matrix rows: no
//!   index list, no sort, no per-step allocation. The whole-space dense
//!   vector is the span `[0, |S|)`;
//! * the **sorted-index arm** ([`SparseVector`]) — for supports that are
//!   scattered across the space (unstructured chains in their first steps,
//!   multi-modal anchors), where a span would be mostly zeros.
//!
//! A vector is on the span arm while more than
//! [`DEFAULT_DENSIFY_THRESHOLD`] of its *span* is non-zero, and leaves it
//! when a transition's sources scatter further apart than four output
//! slots per matrix entry read — both properties read off the data, never
//! a setting. The arm never changes a result bit: per output slot the
//! operations are ascending source, ascending column, first touch
//! `0.0 + vi·m` in either.
//!
//! The batched entry point [`CsrMatrix::step_batch`] classifies a batch and
//! sends span members that overlap to the cache-blocked panel kernel in
//! [`crate::kernels`].

use crate::csr::{CsrMatrix, Reach, SpmvScratch};
use crate::dense::DenseVector;
use crate::error::{MarkovError, Result};
use crate::kernels::{self, GatherArm, SlicedRows};
use crate::mask::StateMask;
use crate::span_vec::SpanVector;
use crate::sparse_vec::SparseVector;

/// Fill of its own span above which a vector lives on the span arm.
pub const DEFAULT_DENSIFY_THRESHOLD: f64 = 0.25;

/// True when `nnz` non-zeros inside a span of `span_len` slots call for
/// the span arm.
fn span_dense(nnz: usize, span_len: usize) -> bool {
    nnz as f64 > DEFAULT_DENSIFY_THRESHOLD * span_len as f64
}

/// Work counters reported by one [`CsrMatrix::step_batch`] call.
///
/// `rows_traversed` counts *matrix-row reads*: how many times a row's
/// `(columns, values)` pair was streamed from memory. It is the unit the
/// batched kernels amortize — a panel of overlapping span vectors stepped
/// together reads each touched matrix row once per panel instead of once
/// per vector — and the quantity that drops against the per-object
/// baseline as the batch grows. `entries_touched` counts the matrix entries
/// actually multiplied into some vector; it is invariant across kernel
/// choices (every grouping performs the same floating-point work), so
/// dividing it by wall time gives the matrix-entry *throughput* the
/// benchmark's `kernels.*` probes and the plan cost model consume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStepStats {
    /// Matrix rows streamed during this batched transition.
    pub rows_traversed: u64,
    /// Matrix entries multiplied into an accumulator (per vector fed).
    pub entries_touched: u64,
    /// Vectors that performed a transition (rows with no mass are skipped).
    pub vectors_stepped: u64,
}

impl BatchStepStats {
    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: BatchStepStats) {
        self.rows_traversed += other.rows_traversed;
        self.entries_touched += other.entries_touched;
        self.vectors_stepped += other.vectors_stepped;
    }
}

impl CsrMatrix {
    /// Batched transition `v ← v · M` for many propagation vectors sharing
    /// one matrix traversal.
    ///
    /// `active` enables per-row early exit: when non-empty it must have one
    /// flag per row, and rows flagged `false` (decided objects) are left
    /// untouched without stopping the sweep; an empty slice means all rows
    /// are active. Rows with no mass are always skipped.
    ///
    /// Span members whose spans overlap step together through the
    /// interleaved panel kernel (`kernels::step_span_panel`), streaming
    /// each matrix row of their union span once; span members that stand
    /// alone, and sorted-index members, step one by one. Per vector, the
    /// floating-point operations and their order are **identical** to an
    /// individual [`PropagationVector::step`] — batched evaluation is
    /// bit-for-bit equal to the per-object path regardless of batch
    /// composition.
    pub fn step_batch(
        &self,
        rows: &mut [PropagationVector],
        active: &[bool],
        scratch: &mut SpmvScratch,
    ) -> Result<BatchStepStats> {
        if !active.is_empty() && active.len() != rows.len() {
            return Err(MarkovError::DimensionMismatch {
                op: "step_batch activity mask",
                expected: rows.len(),
                found: active.len(),
            });
        }
        let mut stats = BatchStepStats::default();
        // The member lists live in the scratch pool — one allocation per
        // sweep, not one per timestamp. Taken out for the duration of the
        // call so the scratch stays borrowable by the kernels.
        let mut sparse_members = std::mem::take(&mut scratch.members_sparse);
        let mut span_members = std::mem::take(&mut scratch.members_span);
        sparse_members.clear();
        span_members.clear();
        for (r, row) in rows.iter().enumerate() {
            if (!active.is_empty() && !active[r]) || row.nnz() == 0 {
                continue;
            }
            if row.dim() != self.nrows() {
                return Err(MarkovError::DimensionMismatch {
                    op: "step_batch",
                    expected: self.nrows(),
                    found: row.dim(),
                });
            }
            stats.vectors_stepped += 1;
            match &row.repr {
                Repr::Sparse(_) => sparse_members.push(r),
                Repr::Span(_) => span_members.push(r),
            }
        }

        // Span members first: one whose sources scatter joins the
        // sorted-index members.
        self.step_span_members(rows, &span_members, &mut sparse_members, scratch, &mut stats);
        let result =
            sparse_members.iter().try_for_each(|&r| rows[r].step_sparse(self, scratch, &mut stats));
        scratch.members_sparse = sparse_members;
        scratch.members_span = span_members;
        result.map(|()| stats)
    }

    /// Dispatches the span half of a batch. Consecutive members whose
    /// spans overlap (a k-times level family, clustered objects) are
    /// grouped, up to the width `kernels::panel_width` allows, and step
    /// through one interleaved panel when they would fill at least two
    /// thirds of it — Σ member spans against union span × lanes, the lanes
    /// rounded up to whole SIMD groups; below that a panel moves more zeros
    /// than it saves matrix reads, and each member scatters on its own. A
    /// member — or a whole panel — whose sources lie too far apart for a
    /// contiguous output ([`Reach::is_scattered`]) joins `scattered` for
    /// the sorted-index kernel.
    fn step_span_members(
        &self,
        rows: &mut [PropagationVector],
        members: &[usize],
        scattered: &mut Vec<usize>,
        scratch: &mut SpmvScratch,
        stats: &mut BatchStepStats,
    ) {
        let fills = |filled: usize, union: usize, lanes: usize| filled * 3 >= union * lanes * 2;
        let mut start = 0;
        while start < members.len() {
            let (mut lo, mut hi) = rows[members[start]].span_bounds();
            let (mut filled, mut end) = (hi - lo, start + 1);
            while end < members.len() {
                let (a, b) = rows[members[end]].span_bounds();
                let (new_lo, new_hi) = (lo.min(a), hi.max(b));
                let lanes = end - start + 1;
                if !fills(filled + (b - a), new_hi - new_lo, lanes)
                    || lanes > kernels::panel_width(new_hi - new_lo, lanes)
                {
                    break;
                }
                (lo, hi, filled, end) = (new_lo, new_hi, filled + (b - a), end + 1);
            }
            let group = &members[start..end];
            start = end;
            if fills(filled, hi - lo, group.len().next_multiple_of(kernels::LANE_WIDTH)) {
                let out = self.reach(lo..hi);
                if !out.is_scattered() {
                    let mut panel = std::mem::take(&mut scratch.panel_members);
                    panel.clear();
                    panel.extend(group.iter().map(|&r| rows[r].take_span()));
                    stats.merge(kernels::step_span_panel(self, &mut panel, (lo..hi, out), scratch));
                    for (&r, next) in group.iter().zip(panel.drain(..)) {
                        rows[r] = PropagationVector::from_span(next);
                    }
                    scratch.panel_members = panel;
                    continue;
                }
            }
            for &r in group {
                match rows[r].span_reach(self) {
                    Some(reach) => {
                        stats.rows_traversed += reach.rows;
                        stats.entries_touched += reach.entries;
                        rows[r].step_span(self, reach, scratch);
                    }
                    None => scattered.push(r),
                }
            }
        }
    }
}

/// The two physical representations of a propagation vector.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Sparse(SparseVector),
    Span(SpanVector),
}

/// A probability vector that propagates through transition matrices,
/// choosing its representation adaptively.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationVector {
    repr: Repr,
}

impl PropagationVector {
    /// Starts from a sparse distribution: on the span arm when it fills
    /// its own span past [`DEFAULT_DENSIFY_THRESHOLD`] (a 5-state anchor,
    /// a window indicator), on the sorted-index arm otherwise.
    pub fn from_sparse(v: SparseVector) -> Self {
        let hull = match (v.indices().first(), v.indices().last()) {
            (Some(&first), Some(&last)) => (last - first) as usize + 1,
            _ => 0,
        };
        let repr = if span_dense(v.nnz(), hull) {
            Repr::Span(SpanVector::from_sparse(&v))
        } else {
            Repr::Sparse(v)
        };
        PropagationVector { repr }
    }

    /// Starts from a dense distribution, as the span between its first and
    /// last non-zero.
    pub fn from_dense(v: DenseVector) -> Self {
        PropagationVector { repr: Repr::Span(SpanVector::from_slice(v.as_slice())) }
    }

    /// Resumes propagation from a span snapshot, on the arm its fill calls
    /// for — a move, no index round trip.
    pub fn from_span(span: SpanVector) -> Self {
        let repr = if span_dense(span.nnz(), span.span().1.len()) {
            Repr::Span(span)
        } else {
            Repr::Sparse(span.to_sparse())
        };
        PropagationVector { repr }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.dim(),
            Repr::Span(v) => v.dim(),
        }
    }

    /// Number of non-zero entries — O(1) on both arms (stored entries of
    /// the sorted-index arm, the exactly tracked count of the span arm).
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.nnz(),
            Repr::Span(v) => v.nnz(),
        }
    }

    /// True while the sorted-index arm is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Total mass (sum of entries).
    pub fn sum(&self) -> f64 {
        match &self.repr {
            Repr::Sparse(v) => v.sum(),
            Repr::Span(v) => v.sum(),
        }
    }

    /// Value at a single state.
    pub fn get(&self, index: usize) -> f64 {
        match &self.repr {
            Repr::Sparse(v) => v.get(index),
            Repr::Span(v) => v.get(index),
        }
    }

    /// One transition `v ← v · M`, on the arm the vector is on.
    pub fn step(&mut self, matrix: &CsrMatrix, scratch: &mut SpmvScratch) -> Result<()> {
        if self.dim() != matrix.nrows() {
            return Err(MarkovError::DimensionMismatch {
                op: "propagation step",
                expected: matrix.nrows(),
                found: self.dim(),
            });
        }
        match self.span_reach(matrix) {
            Some(reach) => self.step_span(matrix, reach, scratch),
            None => self.step_sparse(matrix, scratch, &mut BatchStepStats::default())?,
        }
        Ok(())
    }

    /// One backward step `v ← M · v` on the arm the vector is on: a span
    /// through the sliced-row gather of `rows` (`M`'s layout) on `arm`, a
    /// vector whose sources scatter ([`Reach::is_scattered`]) or that is
    /// already on the sorted-index arm through the sorted-index scatter
    /// over `Mᵀ`, which `transposed` supplies only then. Bit-identical to
    /// [`Self::step`] over `Mᵀ`.
    pub(crate) fn step_backward<'m>(
        &mut self,
        rows: &SlicedRows,
        transposed: impl FnOnce() -> &'m CsrMatrix,
        arm: GatherArm,
        scratch: &mut SpmvScratch,
    ) -> Result<()> {
        if let Repr::Span(v) = &self.repr {
            let reach = rows.reach_of(v);
            if !reach.is_scattered() {
                let next = PropagationVector::from_span(rows.step(v, reach, arm, scratch));
                if let Repr::Span(previous) = std::mem::replace(self, next).repr {
                    scratch.span_pool.push(previous.into_values());
                }
                return Ok(());
            }
            self.repr = Repr::Sparse(v.to_sparse());
        }
        self.step_sparse(transposed(), scratch, &mut BatchStepStats::default())
    }

    /// The reach of this vector's next transition when it takes the span
    /// kernel. A span whose live rows scatter too far apart
    /// ([`Reach::is_scattered`]) moves to the sorted-index arm here and,
    /// like a vector already on it, answers `None`.
    fn span_reach(&mut self, matrix: &CsrMatrix) -> Option<Reach> {
        let Repr::Span(v) = &self.repr else {
            return None;
        };
        let reach = matrix.reach_of(v);
        if reach.is_scattered() {
            self.repr = Repr::Sparse(v.to_sparse());
            return None;
        }
        Some(reach)
    }

    /// The span kernel step of a vector [`Self::span_reach`] answered for.
    fn step_span(&mut self, matrix: &CsrMatrix, reach: Reach, scratch: &mut SpmvScratch) {
        if let Repr::Span(v) = &self.repr {
            let next = PropagationVector::from_span(matrix.vecmat_span_with(v, reach, scratch));
            if let Repr::Span(previous) = std::mem::replace(self, next).repr {
                scratch.span_pool.push(previous.into_values());
            }
        }
    }

    /// The sorted-index kernel step of a vector on that arm, adding its
    /// work to `stats`.
    fn step_sparse(
        &mut self,
        matrix: &CsrMatrix,
        scratch: &mut SpmvScratch,
        stats: &mut BatchStepStats,
    ) -> Result<()> {
        let Repr::Sparse(v) = &self.repr else {
            return Ok(());
        };
        stats.rows_traversed += v.nnz() as u64;
        stats.entries_touched +=
            v.indices().iter().map(|&i| matrix.row_nnz(i as usize) as u64).sum::<u64>();
        let next = PropagationVector::from_sparse(matrix.vecmat_sparse_with(v, scratch)?);
        if let Repr::Sparse(previous) = std::mem::replace(self, next).repr {
            scratch.sparse_pool.push(previous.into_parts());
        }
        Ok(())
    }

    /// The stored span `[first, end)` of a span-arm vector (empty on the
    /// sorted-index arm).
    fn span_bounds(&self) -> (usize, usize) {
        match &self.repr {
            Repr::Span(v) => (v.span().0, v.span().0 + v.span().1.len()),
            Repr::Sparse(_) => (0, 0),
        }
    }

    /// Moves the span out (leaving the zero vector) for the panel kernel.
    fn take_span(&mut self) -> SpanVector {
        let dim = self.dim();
        match std::mem::replace(&mut self.repr, Repr::Span(SpanVector::zeros(dim))) {
            Repr::Span(v) => v,
            Repr::Sparse(v) => SpanVector::from_sparse(&v),
        }
    }

    /// Sum of the mass currently inside `mask`.
    pub fn masked_sum(&self, mask: &StateMask) -> f64 {
        match &self.repr {
            Repr::Sparse(v) => v.masked_sum(mask),
            Repr::Span(v) => v.masked_sum(mask),
        }
    }

    /// Removes and returns the mass inside `mask` — the virtual application
    /// of the `M+` redirect-to-⊤ column surgery.
    pub fn extract_masked(&mut self, mask: &StateMask) -> f64 {
        match &mut self.repr {
            Repr::Sparse(v) => v.extract_masked(mask),
            Repr::Span(v) => v.extract_masked(mask),
        }
    }

    /// Keeps only the mass inside `mask`, in place, and returns the mass
    /// dropped — the forward pipeline's reach trimming. Kept entries are
    /// untouched on either arm.
    pub fn retain_masked(&mut self, mask: &StateMask) -> f64 {
        match &mut self.repr {
            Repr::Sparse(v) => v.retain_masked(mask),
            Repr::Span(v) => v.retain_masked(mask),
        }
    }

    /// Removes the entries inside `mask`, returning them as a sparse vector
    /// (the k-times level shift of Section VII).
    pub fn split_masked(&mut self, mask: &StateMask) -> SparseVector {
        match &mut self.repr {
            Repr::Sparse(v) => v.split_masked(mask),
            Repr::Span(v) => v.split_masked(mask),
        }
    }

    /// Adds a sparse vector into this one (in place); a span widens to
    /// cover it.
    pub fn add_sparse(&mut self, other: &SparseVector) -> Result<()> {
        if other.dim() != self.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "propagation add",
                expected: self.dim(),
                found: other.dim(),
            });
        }
        match &mut self.repr {
            Repr::Sparse(v) => *self = PropagationVector::from_sparse(v.add(other)?),
            Repr::Span(v) => v.add_sparse(other),
        }
        Ok(())
    }

    /// Element-wise multiplication with an observation likelihood (Lemma 1
    /// fusion).
    pub fn hadamard_sparse(&mut self, obs: &SparseVector) -> Result<()> {
        if obs.dim() != self.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "observation fusion",
                expected: self.dim(),
                found: obs.dim(),
            });
        }
        let posterior = match &self.repr {
            Repr::Sparse(v) => v.hadamard(obs)?,
            // Posterior support is a subset of the observation support, so
            // it is read off the observation's entries.
            Repr::Span(v) => {
                let (mut indices, mut values) = (Vec::new(), Vec::new());
                for (i, likelihood) in obs.iter() {
                    let p = likelihood * v.get(i);
                    if p != 0.0 {
                        indices.push(i as u32);
                        values.push(p);
                    }
                }
                SparseVector::from_sorted_parts(v.dim(), indices, values)
            }
        };
        *self = PropagationVector::from_sparse(posterior);
        Ok(())
    }

    /// Scales all entries by `factor` (joint renormalization across the
    /// hit/not-hit pair of vectors is done by the caller).
    pub fn scale(&mut self, factor: f64) {
        match &mut self.repr {
            Repr::Sparse(v) => v.scale(factor),
            Repr::Span(v) => v.scale(factor),
        }
    }

    /// ε-pruning: drops entries with `|v| ≤ threshold`, returning the
    /// dropped mass.
    pub fn prune(&mut self, threshold: f64) -> f64 {
        match &mut self.repr {
            Repr::Sparse(v) => v.prune(threshold),
            Repr::Span(v) => v.prune(threshold),
        }
    }

    /// Dot product against a dense vector (e.g. a QB backward vector).
    pub fn dot_dense(&self, other: &DenseVector) -> Result<f64> {
        match &self.repr {
            Repr::Sparse(v) => v.dot_dense(other),
            Repr::Span(v) if v.dim() == other.dim() => Ok(v.dot_slice(other.as_slice())),
            Repr::Span(v) => Err(MarkovError::DimensionMismatch {
                op: "span·dense dot product",
                expected: v.dim(),
                found: other.dim(),
            }),
        }
    }

    /// Materializes the current state as a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        match &self.repr {
            Repr::Sparse(v) => v.to_dense(),
            Repr::Span(v) => v.to_dense(),
        }
    }

    /// Materializes the current state as a sparse vector.
    pub fn to_sparse(&self) -> SparseVector {
        match &self.repr {
            Repr::Sparse(v) => v.clone(),
            Repr::Span(v) => v.to_sparse(),
        }
    }

    /// Snapshots the current state trimmed to its non-zero span, without
    /// changing the representation — a clone on the span arm.
    pub fn to_span(&self) -> SpanVector {
        match &self.repr {
            Repr::Sparse(v) => SpanVector::from_sparse(v),
            Repr::Span(v) => v.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
            .unwrap()
    }

    /// A lazy walk to the right on `n` states: banded, two entries per row.
    fn walk(n: usize) -> CsrMatrix {
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| if i + 1 < n { vec![(i, 0.5), (i + 1, 0.5)] } else { vec![(i, 1.0)] })
            .collect();
        CsrMatrix::from_rows(n, &rows).unwrap()
    }

    /// Mass on the two ends of a 16-state space: 2 of 16 slots, scattered.
    fn two_ends() -> SparseVector {
        SparseVector::from_pairs(16, [(0, 0.3), (15, 0.7)]).unwrap()
    }

    fn assert_same_bits(a: &PropagationVector, b: &PropagationVector) {
        assert_eq!(a.nnz(), b.nnz());
        for s in 0..a.dim() {
            assert_eq!(a.get(s).to_bits(), b.get(s).to_bits(), "state {s}");
        }
    }

    #[test]
    fn sparse_start_densifies_at_threshold() {
        let m = walk(16);
        let mut scratch = SpmvScratch::new();
        // 2 of a 13-slot hull: scattered. One step later 4 of 14: past 1/4.
        let start = SparseVector::from_pairs(16, [(0, 0.5), (12, 0.5)]).unwrap();
        let mut v = PropagationVector::from_sparse(start);
        assert!(v.is_sparse());
        v.step(&m, &mut scratch).unwrap();
        assert!(!v.is_sparse());
        assert_eq!(v.to_sparse().indices(), &[0, 1, 12, 13]);
        // A unit anchor fills its one-slot span: on the span arm at once.
        assert!(!PropagationVector::from_sparse(SparseVector::unit(16, 3).unwrap()).is_sparse());
        assert!(PropagationVector::from_sparse(SparseVector::zeros(16)).is_sparse());
    }

    #[test]
    fn scattered_support_stays_sparse() {
        // A frozen chain never fills the gap between the two ends.
        let m = CsrMatrix::identity(16);
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_sparse(two_ends());
        for _ in 0..10 {
            v.step(&m, &mut scratch).unwrap();
            assert!(v.is_sparse());
        }
        assert!((v.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_sources_leave_the_span_arm() {
        // The same two ends forced onto the span arm: one output slot per
        // matrix entry would be 16 slots for 2 entries, past the 4× guard.
        let m = CsrMatrix::identity(16);
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_dense(two_ends().to_dense());
        assert!(!v.is_sparse());
        v.step(&m, &mut scratch).unwrap();
        assert!(v.is_sparse());
        assert_same_bits(&v, &PropagationVector::from_sparse(two_ends()));
    }

    #[test]
    fn sparse_and_dense_propagation_agree() {
        let m = walk(16);
        let mut scratch = SpmvScratch::new();
        let start = SparseVector::from_pairs(16, [(0, 0.5), (12, 0.5)]).unwrap();
        let mut sparse = PropagationVector::from_sparse(start.clone());
        let mut span = PropagationVector::from_dense(start.to_dense());
        assert!(sparse.is_sparse() && !span.is_sparse());
        for _ in 0..7 {
            sparse.step(&m, &mut scratch).unwrap();
            span.step(&m, &mut scratch).unwrap();
            assert_same_bits(&sparse, &span);
        }
    }

    #[test]
    fn extract_masked_moves_mass_in_both_representations() {
        let mask = StateMask::from_indices(16, [0usize]).unwrap();
        let mut sparse = PropagationVector::from_sparse(two_ends());
        let mut span = PropagationVector::from_dense(two_ends().to_dense());
        assert!(sparse.is_sparse() && !span.is_sparse());
        for v in [&mut sparse, &mut span] {
            assert_eq!(v.extract_masked(&mask), 0.3);
            assert_eq!(v.sum(), 0.7);
            assert_eq!(v.masked_sum(&mask), 0.0);
            assert_eq!(v.nnz(), 1);
        }
    }

    #[test]
    fn retain_masked_drops_the_same_mass_in_both_representations() {
        let mask = StateMask::from_indices(16, [0usize, 1]).unwrap();
        let mut sparse = PropagationVector::from_sparse(two_ends());
        let mut span = PropagationVector::from_dense(two_ends().to_dense());
        for v in [&mut sparse, &mut span] {
            assert_eq!(v.retain_masked(&mask), 0.7);
            assert_eq!(v.nnz(), 1);
            assert_eq!(v.get(0), 0.3);
            assert_eq!(v.retain_masked(&StateMask::full(16)), 0.0);
        }
        assert!(sparse.is_sparse() && !span.is_sparse());
    }

    #[test]
    fn hadamard_fusion_on_dense_resparsifies() {
        let mut v = PropagationVector::from_dense(DenseVector::from_vec(vec![1.0 / 16.0; 16]));
        // Evidence on the two ends: the posterior is scattered again.
        v.hadamard_sparse(&two_ends()).unwrap();
        assert!(v.is_sparse());
        assert!((v.get(15) - 0.7 / 16.0).abs() < 1e-12);
        assert_eq!(v.nnz(), 2);
        // Evidence on one state fills its own span.
        v.hadamard_sparse(&SparseVector::unit(16, 15).unwrap()).unwrap();
        assert!(!v.is_sparse());
        assert_eq!(v.nnz(), 1);
        let bad = SparseVector::zeros(5);
        assert!(v.hadamard_sparse(&bad).is_err());
    }

    #[test]
    fn prune_drops_small_entries_on_both_arms() {
        let small = SparseVector::from_pairs(16, [(0, 1e-12), (15, 0.9)]).unwrap();
        let mut sparse = PropagationVector::from_sparse(small.clone());
        let mut span = PropagationVector::from_dense(small.to_dense());
        assert!(sparse.is_sparse() && !span.is_sparse());
        for v in [&mut sparse, &mut span] {
            assert_eq!(v.prune(1e-9), 1e-12);
            assert_eq!(v.nnz(), 1);
            assert_eq!(v.prune(1e-9), 0.0);
        }
        assert_eq!(span.to_span().span(), (15, &[0.9][..]), "a pruned end trims the span");
    }

    #[test]
    fn dot_dense_works_in_both_representations() {
        let backward = DenseVector::from_vec((0..16).map(|s| s as f64 / 16.0).collect());
        let sparse = PropagationVector::from_sparse(two_ends());
        let span = PropagationVector::from_dense(two_ends().to_dense());
        assert!(sparse.is_sparse() && !span.is_sparse());
        let expected = 0.7 * (15.0 / 16.0);
        assert_eq!(sparse.dot_dense(&backward).unwrap(), expected);
        assert_eq!(span.dot_dense(&backward).unwrap(), expected);
        assert!(span.dot_dense(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn split_masked_and_add_sparse_roundtrip() {
        let mask = StateMask::from_indices(16, [0usize, 4]).unwrap();
        let start =
            SparseVector::from_pairs(16, [(0, 0.1), (4, 0.2), (10, 0.3), (15, 0.4)]).unwrap();
        let sparse = PropagationVector::from_sparse(start.clone());
        let span = PropagationVector::from_dense(start.to_dense());
        assert!(sparse.is_sparse() && !span.is_sparse());
        for mut v in [sparse, span] {
            let split = v.split_masked(&mask);
            assert!((split.sum() - 0.3).abs() < 1e-12);
            assert!((v.sum() - 0.7).abs() < 1e-12);
            assert_eq!(v.get(4), 0.0);
            assert_eq!(v.nnz(), 2);
            // Adds back beyond the (now trimmed) lower edge of the span.
            v.add_sparse(&split).unwrap();
            assert!((v.sum() - 1.0).abs() < 1e-12);
            assert_eq!(v.get(0), 0.1);
            assert_eq!(v.nnz(), 4);
            assert!(v.add_sparse(&SparseVector::zeros(9)).is_err());
        }
    }

    #[test]
    fn scale_applies_uniformly() {
        let mut v = PropagationVector::from_sparse(
            SparseVector::from_pairs(3, [(0, 0.5), (1, 0.5)]).unwrap(),
        );
        v.scale(2.0);
        assert!((v.sum() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_nnz_stays_exact_across_mutations() {
        let m = walk(16);
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_dense(DenseVector::unit(16, 4).unwrap());
        let check = |v: &PropagationVector| {
            assert!(!v.is_sparse());
            assert_eq!(v.nnz(), v.to_dense().nnz(), "tracked count matches a rescan");
        };
        check(&v);
        for _ in 0..4 {
            v.step(&m, &mut scratch).unwrap();
            check(&v);
        }
        // Support is now 4..=8; empty its lower end, then its upper end.
        let mask = StateMask::from_indices(16, [4usize]).unwrap();
        v.extract_masked(&mask);
        check(&v);
        let split = v.split_masked(&StateMask::from_indices(16, [8usize]).unwrap());
        check(&v);
        assert_eq!(v.to_span().span().0, 5);
        assert_eq!(v.to_span().span().1.len(), 3);
        v.add_sparse(&split).unwrap();
        check(&v);
        // Beyond either edge of the span.
        v.add_sparse(&SparseVector::from_pairs(16, [(1, 0.5), (14, 0.5)]).unwrap()).unwrap();
        check(&v);
        assert_eq!(v.nnz(), 6);
        v.hadamard_sparse(&SparseVector::from_pairs(16, [(5, 0.5), (6, 0.5), (7, 0.5)]).unwrap())
            .unwrap();
        check(&v);
        assert_eq!(v.nnz(), 3);
        let before = v.sum();
        let dropped = v.retain_masked(&StateMask::from_indices(16, [6usize]).unwrap());
        check(&v);
        assert!((dropped + v.sum() - before).abs() < 1e-12, "trimming conserves mass");
        v.scale(0.0);
        check(&v);
        assert_eq!(v.nnz(), 0, "scaling by zero empties the vector");
    }

    #[test]
    fn step_batch_is_bit_identical_to_individual_steps() {
        let m = walk(16);
        let mut scratch = SpmvScratch::new();
        // A mixed batch: a scattered row, three overlapping span rows (one
        // panel), a far-away span row (on its own) and an empty row.
        let mut batch = vec![
            PropagationVector::from_sparse(two_ends()),
            PropagationVector::from_sparse(SparseVector::unit(16, 2).unwrap()),
            PropagationVector::from_sparse(
                SparseVector::from_pairs(16, [(2, 0.25), (3, 0.75)]).unwrap(),
            ),
            PropagationVector::from_sparse(SparseVector::unit(16, 3).unwrap()),
            PropagationVector::from_sparse(SparseVector::unit(16, 11).unwrap()),
            PropagationVector::from_sparse(SparseVector::zeros(16)),
        ];
        let mut solo = batch.clone();
        for _ in 0..6 {
            let stats = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
            assert_eq!(stats.vectors_stepped, 5, "empty row skipped");
            for row in solo.iter_mut() {
                if row.nnz() > 0 {
                    row.step(&m, &mut scratch).unwrap();
                }
            }
            for (a, b) in batch.iter().zip(&solo) {
                assert_eq!(a, b, "same arm, same span, same bits");
            }
        }
    }

    #[test]
    fn step_batch_shares_dense_row_traversals() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let full = |v: [f64; 3]| PropagationVector::from_dense(DenseVector::from_vec(v.to_vec()));
        let mut batch = vec![full([0.2, 0.3, 0.5]), full([0.5, 0.3, 0.2]), full([0.3, 0.3, 0.4])];
        let shared = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
        // Three full vectors over 3 matrix rows: the shared traversal reads
        // each row once (3), the per-object path three times (9).
        assert_eq!(shared.rows_traversed, 3);
        let mut solo = vec![full([0.2, 0.3, 0.5])];
        let alone = m.step_batch(&mut solo, &[], &mut scratch).unwrap();
        assert_eq!(alone.rows_traversed, 3);
        // A member on its own counts the same multiply work per vector as
        // the panel kernel.
        assert_eq!(3 * alone.entries_touched, shared.entries_touched);
        assert_eq!(solo[0], batch[0]);
        // Two lanes would leave half of a SIMD-wide panel empty: on their own.
        let pair = m.step_batch(&mut batch[..2], &[], &mut scratch).unwrap();
        assert_eq!(pair.rows_traversed, 6);
    }

    #[test]
    fn step_batch_shares_overlapping_sparse_supports() {
        let m = CsrMatrix::from_dense(&[
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.0, 0.5, 0.5, 0.0],
            vec![0.0, 0.0, 0.5, 0.5],
            vec![0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let mut scratch = SpmvScratch::new();
        // Supports {0, 1, 2} twice, {1, 2} and {0, 1} fill their spans and
        // overlap: one panel over the union {0, 1, 2} is 3 matrix-row
        // reads, the per-object sum is 10.
        let even = |states: &[usize]| {
            let mass = 1.0 / states.len() as f64;
            PropagationVector::from_sparse(
                SparseVector::from_pairs(4, states.iter().map(|&s| (s, mass))).unwrap(),
            )
        };
        let mut batch = vec![even(&[0, 1, 2]), even(&[0, 1, 2]), even(&[1, 2]), even(&[0, 1])];
        let mut solo = batch.clone();
        let shared = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
        assert_eq!(shared.rows_traversed, 3, "union of supports, each row read once");
        let mut individual = BatchStepStats::default();
        for row in solo.iter_mut() {
            let one = std::slice::from_mut(row);
            individual.merge(m.step_batch(one, &[], &mut scratch).unwrap());
        }
        assert_eq!(individual.rows_traversed, 10, "per-object supports pay overlap twice");
        assert_eq!(shared.entries_touched, individual.entries_touched);
        assert_eq!(batch, solo);
    }

    #[test]
    fn disjoint_span_members_step_on_their_own() {
        let m = walk(64);
        let mut scratch = SpmvScratch::new();
        let mut batch = vec![
            PropagationVector::from_sparse(SparseVector::unit(64, 3).unwrap()),
            PropagationVector::from_sparse(SparseVector::unit(64, 40).unwrap()),
        ];
        let mut solo = batch.clone();
        let stats = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
        assert_eq!((stats.rows_traversed, stats.entries_touched), (2, 4));
        for row in solo.iter_mut() {
            row.step(&m, &mut scratch).unwrap();
        }
        assert_eq!(batch, solo);
        // Neither output was sized to the 38 states between the two.
        assert_eq!(batch[1].to_span().span(), (40, &[0.5, 0.5][..]));
    }

    #[test]
    fn step_batch_honours_activity_mask() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let mut batch = vec![
            PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap()),
            PropagationVector::from_sparse(SparseVector::unit(3, 2).unwrap()),
        ];
        let before = batch[1].clone();
        let stats = m.step_batch(&mut batch, &[true, false], &mut scratch).unwrap();
        assert_eq!(stats.vectors_stepped, 1);
        assert_eq!(batch[1], before, "inactive rows are untouched");
        assert!(m.step_batch(&mut batch, &[true], &mut scratch).is_err(), "mask length");
        let mut wrong = vec![PropagationVector::from_dense(DenseVector::from_vec(vec![1.0, 0.0]))];
        assert!(m.step_batch(&mut wrong, &[], &mut scratch).is_err(), "dimension");
        assert!(wrong[0].step(&m, &mut scratch).is_err(), "dimension");
    }

    #[test]
    fn span_snapshots_resume_in_the_representation_their_density_calls_for() {
        let m = walk(16);
        let mut scratch = SpmvScratch::new();
        let starts = [two_ends(), SparseVector::unit(16, 4).unwrap()];
        for (start, sparse) in starts.into_iter().zip([true, false]) {
            let mut v = PropagationVector::from_sparse(start);
            v.step(&m, &mut scratch).unwrap();
            let mut resumed = PropagationVector::from_span(v.to_span());
            assert_eq!((v.is_sparse(), resumed.is_sparse()), (sparse, sparse));
            assert_eq!(resumed, v);
            v.step(&m, &mut scratch).unwrap();
            resumed.step(&m, &mut scratch).unwrap();
            assert_same_bits(&v, &resumed);
        }
    }

    #[test]
    fn to_sparse_roundtrip() {
        let dense = PropagationVector::from_dense(DenseVector::from_vec(vec![0.0, 1.0, 0.0]));
        let s = dense.to_sparse();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(1), 1.0);
    }
}
