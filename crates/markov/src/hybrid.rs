//! Adaptive sparse→dense propagation vectors.
//!
//! An object's location distribution starts with a handful of non-zero
//! entries (the paper's `object_spread` defaults to 5) and fans out by at
//! most `state_spread` successors per step, so early transitions are far
//! cheaper on a sparse vector. As the chain mixes, the vector densifies and
//! sparse bookkeeping becomes pure overhead — beyond roughly 1/4 fill, a
//! dense kernel is faster and allocation-free. [`PropagationVector`] switches
//! representation automatically at a configurable density threshold.
//!
//! The batched entry points ([`CsrMatrix::step_batch`] and
//! [`CsrMatrix::step_batch_with_mode`]) classify a batch and dispatch to
//! the cache-blocked kernels in [`crate::kernels`].

use crate::csr::{CsrMatrix, SpmvScratch};
use crate::dense::DenseVector;
use crate::error::{MarkovError, Result};
use crate::kernels::{self, KernelMode};
use crate::mask::StateMask;
use crate::span_vec::SpanVector;
use crate::sparse_vec::SparseVector;

/// Density above which the vector flips to the dense representation.
pub const DEFAULT_DENSIFY_THRESHOLD: f64 = 0.25;

/// Work counters reported by one [`CsrMatrix::step_batch`] call.
///
/// `rows_traversed` counts *matrix-row reads*: how many times a row's
/// `(columns, values)` pair was streamed from memory. It is the unit the
/// batched kernels amortize — a panel of densified vectors stepped together
/// reads each touched matrix row once per panel instead of once per vector —
/// and the quantity that drops against the per-object baseline as the batch
/// grows. `entries_touched` counts the matrix entries actually multiplied
/// into some vector; it is invariant across kernel choices (every mode
/// performs the same floating-point work), so dividing it by wall time
/// gives the matrix-entry *throughput* the benchmark's `kernels.*` probes
/// and the plan cost model consume.
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
    /// one matrix traversal, under the default [`KernelMode::Auto`] policy.
    ///
    /// See [`CsrMatrix::step_batch_with_mode`] for the semantics.
    pub fn step_batch(
        &self,
        rows: &mut [PropagationVector],
        active: &[bool],
        scratch: &mut SpmvScratch,
    ) -> Result<BatchStepStats> {
        self.step_batch_with_mode(rows, active, KernelMode::default(), scratch)
    }

    /// Batched transition `v ← v · M` with an explicit kernel policy.
    ///
    /// `active` enables per-row early exit: when non-empty it must have one
    /// flag per row, and rows flagged `false` (decided objects) are left
    /// untouched without stopping the sweep; an empty slice means all rows
    /// are active. Rows with no mass are always skipped.
    ///
    /// Sparse members either merge over the sorted **union of their
    /// supports** (each matrix row in the union streamed once, feeding every
    /// member holding it) or step individually; `mode` picks the policy,
    /// with [`KernelMode::Auto`] estimating the support overlap per batch.
    /// Densified members step through the interleaved panel kernel
    /// (`kernels::step_dense_panels`), streaming the matrix once
    /// per panel. Per vector, the floating-point operations and their order
    /// are **identical** to an individual [`PropagationVector::step`] in
    /// every mode — batched evaluation is bit-for-bit equal to the
    /// per-object path regardless of batch composition or kernel choice.
    pub fn step_batch_with_mode(
        &self,
        rows: &mut [PropagationVector],
        active: &[bool],
        mode: KernelMode,
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
        let mut dense_members = std::mem::take(&mut scratch.members_dense);
        sparse_members.clear();
        dense_members.clear();
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
                Repr::Dense(_) => dense_members.push(r),
            }
        }

        let result = (|| {
            self.step_sparse_members(rows, &sparse_members, mode, scratch, &mut stats)?;
            self.step_dense_members(rows, &dense_members, mode, scratch, &mut stats)?;
            Ok(stats)
        })();
        scratch.members_sparse = sparse_members;
        scratch.members_dense = dense_members;
        result
    }

    /// Dispatches the sparse half of a batch: the shared-union k-way merge
    /// ([`crate::kernels::step_sparse_union`]) when the mode (or the
    /// [`KernelMode::Auto`] overlap estimate) calls for it, individual
    /// steps otherwise. Either way the work counters record the same
    /// `entries_touched`.
    fn step_sparse_members(
        &self,
        rows: &mut [PropagationVector],
        members: &[usize],
        mode: KernelMode,
        scratch: &mut SpmvScratch,
        stats: &mut BatchStepStats,
    ) -> Result<()> {
        if members.is_empty() {
            return Ok(());
        }
        let use_union = members.len() >= 2
            && match mode {
                KernelMode::PerObject => false,
                KernelMode::SharedUnion => true,
                KernelMode::Auto => {
                    kernels::choose_shared_union(members.iter().map(|&r| match &rows[r].repr {
                        Repr::Sparse(v) => {
                            let idx = v.indices();
                            (idx[0], idx[idx.len() - 1], v.nnz())
                        }
                        // lint: allow(panicking-call-in-lib) — `r` was placed in
                        // the sparse partition by the classifier just above.
                        Repr::Dense(_) => unreachable!("membership established by the classifier"),
                    }))
                }
            };
        if !use_union {
            // Per-object baseline (also the single-member fast path):
            // identical operations, none of the merge bookkeeping.
            for &r in members {
                if let Repr::Sparse(v) = &rows[r].repr {
                    stats.rows_traversed += v.nnz() as u64;
                    stats.entries_touched +=
                        v.indices().iter().map(|&i| self.row_nnz(i as usize) as u64).sum::<u64>();
                }
                rows[r].step(self, scratch)?;
            }
            return Ok(());
        }
        let inputs: Vec<SparseVector> = members
            .iter()
            .map(|&r| {
                let placeholder = Repr::Dense(DenseVector::zeros(0));
                match std::mem::replace(&mut rows[r].repr, placeholder) {
                    Repr::Sparse(v) => v,
                    // lint: allow(panicking-call-in-lib) — the sparse partition
                    // only holds rows the classifier tagged `Repr::Sparse`.
                    Repr::Dense(_) => unreachable!("membership established by the classifier"),
                }
            })
            .collect();
        let out = kernels::step_sparse_union(self, &inputs, scratch);
        stats.rows_traversed += out.rows_traversed;
        stats.entries_touched += out.entries_touched;
        for (&r, next) in members.iter().zip(out.outs) {
            let row = &mut rows[r];
            if next.density() > row.densify_at {
                // The kernel's gather pass skips zeros, so the stored-entry
                // count is the exact dense non-zero count.
                row.dense_nnz = next.nnz();
                row.repr = Repr::Dense(next.to_dense());
                scratch.sparse_pool.push(next.into_parts());
            } else {
                row.dense_nnz = 0;
                row.repr = Repr::Sparse(next);
            }
        }
        for input in inputs {
            scratch.sparse_pool.push(input.into_parts());
        }
        Ok(())
    }

    /// Dispatches the dense half of a batch to the panel kernel — one call
    /// over all members (shared traversal), or one call per member under
    /// [`KernelMode::PerObject`] (the baseline traversal the benchmarks
    /// compare against).
    fn step_dense_members(
        &self,
        rows: &mut [PropagationVector],
        members: &[usize],
        mode: KernelMode,
        scratch: &mut SpmvScratch,
        stats: &mut BatchStepStats,
    ) -> Result<()> {
        if let [r] = *members {
            // Single-member fast path, as on the sparse side: identical
            // operations, none of the panel packing.
            if let Repr::Dense(v) = &rows[r].repr {
                for (i, _) in v.as_slice().iter().enumerate().filter(|(_, x)| **x != 0.0) {
                    stats.rows_traversed += 1;
                    stats.entries_touched += self.row_nnz(i) as u64;
                }
            }
            return rows[r].step(self, scratch);
        }
        if members.is_empty() {
            return Ok(());
        }
        let mut inputs: Vec<DenseVector> = Vec::with_capacity(members.len());
        for &r in members {
            let placeholder = Repr::Sparse(SparseVector::zeros(self.nrows()));
            match std::mem::replace(&mut rows[r].repr, placeholder) {
                Repr::Dense(v) => inputs.push(v),
                // lint: allow(panicking-call-in-lib) — the dense partition only
                // holds rows the classifier tagged `Repr::Dense`.
                Repr::Sparse(_) => unreachable!("membership established by the classifier"),
            }
        }
        let (mut outs, mut counts) = (Vec::new(), Vec::new());
        if mode == KernelMode::PerObject {
            for input in &inputs {
                let out = kernels::step_dense_panels(self, std::slice::from_ref(input), scratch);
                stats.rows_traversed += out.rows_traversed;
                stats.entries_touched += out.entries_touched;
                outs.extend(out.outs);
                counts.extend(out.nnz);
            }
        } else {
            let out = kernels::step_dense_panels(self, &inputs, scratch);
            stats.rows_traversed += out.rows_traversed;
            stats.entries_touched += out.entries_touched;
            outs = out.outs;
            counts = out.nnz;
        }
        for ((&r, out), count) in members.iter().zip(outs).zip(counts) {
            rows[r].repr = Repr::Dense(out);
            rows[r].dense_nnz = count;
        }
        for input in inputs {
            scratch.dense_pool.push(input.into_vec());
        }
        Ok(())
    }
}

/// The two physical representations of a propagation vector.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Sparse(SparseVector),
    Dense(DenseVector),
}

/// A probability vector that propagates through transition matrices,
/// choosing its representation adaptively.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationVector {
    repr: Repr,
    densify_at: f64,
    /// Exact non-zero count of the dense representation, maintained
    /// incrementally by every mutating method so the hot `nnz() == 0`
    /// probes of the batch classifier and the pipeline's retirement check
    /// never rescan a densified vector. Invariant: `0` while sparse (the
    /// sparse count is already O(1)).
    dense_nnz: usize,
}

impl PropagationVector {
    /// Starts from a sparse distribution with the default threshold.
    pub fn from_sparse(v: SparseVector) -> Self {
        PropagationVector {
            repr: Repr::Sparse(v),
            densify_at: DEFAULT_DENSIFY_THRESHOLD,
            dense_nnz: 0,
        }
    }

    /// Starts from a dense distribution (never converts back to sparse).
    pub fn from_dense(v: DenseVector) -> Self {
        let dense_nnz = v.nnz();
        PropagationVector { repr: Repr::Dense(v), densify_at: DEFAULT_DENSIFY_THRESHOLD, dense_nnz }
    }

    /// Overrides the densification threshold.
    ///
    /// `1.0` (or anything ≥ 1) keeps the vector sparse forever; `0.0`
    /// densifies on the first step. Used by the ablation benchmarks.
    pub fn with_densify_threshold(mut self, threshold: f64) -> Self {
        self.densify_at = threshold;
        self
    }

    /// Adopts the sparse result of a transition-like operation, densifying
    /// (and seeding the tracked non-zero count) past the threshold.
    fn adopt_sparse_result(&mut self, next: SparseVector) {
        if next.density() > self.densify_at {
            // Stored entries can include explicit zeros (e.g. after a
            // `scale(0.0)`), so count the true non-zeros for the dense side.
            self.dense_nnz = next.values().iter().filter(|v| **v != 0.0).count();
            self.repr = Repr::Dense(next.to_dense());
        } else {
            self.dense_nnz = 0;
            self.repr = Repr::Sparse(next);
        }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.dim(),
            Repr::Dense(v) => v.dim(),
        }
    }

    /// Number of non-zero entries — O(1) in both representations (stored
    /// entries while sparse, the incrementally tracked count once dense).
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.nnz(),
            Repr::Dense(_) => self.dense_nnz,
        }
    }

    /// True while the sparse representation is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Total mass (sum of entries).
    pub fn sum(&self) -> f64 {
        match &self.repr {
            Repr::Sparse(v) => v.sum(),
            Repr::Dense(v) => v.sum(),
        }
    }

    /// Value at a single state.
    pub fn get(&self, index: usize) -> f64 {
        match &self.repr {
            Repr::Sparse(v) => v.get(index),
            Repr::Dense(v) => v.get(index),
        }
    }

    /// One transition `v ← v · M`, switching representation if the result
    /// crosses the density threshold.
    pub fn step(&mut self, matrix: &CsrMatrix, scratch: &mut SpmvScratch) -> Result<()> {
        match &self.repr {
            Repr::Sparse(v) => {
                let next = matrix.vecmat_sparse_with(v, scratch)?;
                self.adopt_sparse_result(next);
            }
            Repr::Dense(v) => {
                let next = matrix.vecmat_dense(v)?;
                self.dense_nnz = next.nnz();
                self.repr = Repr::Dense(next);
            }
        }
        Ok(())
    }

    /// Sum of the mass currently inside `mask`.
    pub fn masked_sum(&self, mask: &StateMask) -> f64 {
        match &self.repr {
            Repr::Sparse(v) => v.masked_sum(mask),
            Repr::Dense(v) => v.masked_sum(mask),
        }
    }

    /// Removes and returns the mass inside `mask` — the virtual application
    /// of the `M+` redirect-to-⊤ column surgery.
    pub fn extract_masked(&mut self, mask: &StateMask) -> f64 {
        match &mut self.repr {
            Repr::Sparse(v) => v.extract_masked(mask),
            Repr::Dense(v) => {
                let (moved, zeroed) = v.extract_masked_counting(mask);
                self.dense_nnz -= zeroed;
                moved
            }
        }
    }

    /// Keeps only the mass inside `mask`, in place, and returns the mass
    /// dropped — the forward pipeline's reach trimming. Kept entries are
    /// untouched in either representation, and a densified vector stays
    /// dense (its tracked non-zero count stays exact).
    pub fn retain_masked(&mut self, mask: &StateMask) -> f64 {
        match &mut self.repr {
            Repr::Sparse(v) => v.retain_masked(mask),
            Repr::Dense(v) => {
                let (dropped, zeroed) = v.retain_masked_counting(mask);
                self.dense_nnz -= zeroed;
                dropped
            }
        }
    }

    /// Removes the entries inside `mask`, returning them as a sparse vector
    /// (the k-times level shift of Section VII).
    pub fn split_masked(&mut self, mask: &StateMask) -> SparseVector {
        match &mut self.repr {
            Repr::Sparse(v) => v.split_masked(mask),
            Repr::Dense(v) => {
                let split = v.split_masked(mask);
                // The split keeps only previously non-zero entries, so its
                // stored count is exactly how many slots were zeroed.
                self.dense_nnz -= split.nnz();
                split
            }
        }
    }

    /// Adds a sparse vector into this one (in place).
    pub fn add_sparse(&mut self, other: &SparseVector) -> Result<()> {
        if other.dim() != self.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "propagation add",
                expected: self.dim(),
                found: other.dim(),
            });
        }
        match &mut self.repr {
            Repr::Sparse(v) => {
                let merged = v.add(other)?;
                self.adopt_sparse_result(merged);
            }
            Repr::Dense(v) => {
                let slice = v.as_mut_slice();
                for (i, val) in other.iter() {
                    let before = slice[i];
                    let after = before + val;
                    if before == 0.0 && after != 0.0 {
                        self.dense_nnz += 1;
                    } else if before != 0.0 && after == 0.0 {
                        self.dense_nnz -= 1;
                    }
                    slice[i] = after;
                }
            }
        }
        Ok(())
    }

    /// Element-wise multiplication with an observation likelihood (Lemma 1
    /// fusion). The result keeps the current representation.
    pub fn hadamard_sparse(&mut self, obs: &SparseVector) -> Result<()> {
        if obs.dim() != self.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "observation fusion",
                expected: self.dim(),
                found: obs.dim(),
            });
        }
        match &mut self.repr {
            Repr::Sparse(v) => {
                *v = v.hadamard(obs)?;
            }
            Repr::Dense(v) => {
                // Posterior support is a subset of the observation support,
                // so the result is sparse regardless of the prior's density.
                let pairs: Vec<(usize, f64)> = obs
                    .iter()
                    .map(|(i, likelihood)| (i, likelihood * v.get(i)))
                    .filter(|(_, p)| *p != 0.0)
                    .collect();
                let sparse = SparseVector::from_pairs(v.dim(), pairs)?;
                self.adopt_sparse_result(sparse);
            }
        }
        Ok(())
    }

    /// Scales all entries by `factor` (joint renormalization across the
    /// hit/not-hit pair of vectors is done by the caller).
    pub fn scale(&mut self, factor: f64) {
        match &mut self.repr {
            Repr::Sparse(v) => v.scale(factor),
            Repr::Dense(v) => {
                // Recount while multiplying: scaling can zero entries
                // (factor 0, underflow) without shrinking the storage.
                let mut count = 0usize;
                for x in v.as_mut_slice() {
                    *x *= factor;
                    if *x != 0.0 {
                        count += 1;
                    }
                }
                self.dense_nnz = count;
            }
        }
    }

    /// ε-pruning: drops entries with `|v| ≤ threshold`, returning the
    /// dropped mass. Only meaningful on the sparse representation; a dense
    /// vector is left untouched (dropping entries would not shrink it).
    pub fn prune(&mut self, threshold: f64) -> f64 {
        match &mut self.repr {
            Repr::Sparse(v) => v.prune(threshold),
            Repr::Dense(_) => 0.0,
        }
    }

    /// Dot product against a dense vector (e.g. a QB backward vector).
    pub fn dot_dense(&self, other: &DenseVector) -> Result<f64> {
        match &self.repr {
            Repr::Sparse(v) => v.dot_dense(other),
            Repr::Dense(v) => v.dot(other),
        }
    }

    /// Materializes the current state as a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        match &self.repr {
            Repr::Sparse(v) => v.to_dense(),
            Repr::Dense(v) => v.clone(),
        }
    }

    /// Materializes the current state as a sparse vector.
    pub fn to_sparse(&self) -> SparseVector {
        match &self.repr {
            Repr::Sparse(v) => v.clone(),
            Repr::Dense(v) => SparseVector::from_dense(v, 0.0),
        }
    }

    /// Snapshots the current state trimmed to its non-zero span, without
    /// changing (or forcing) the representation.
    pub fn to_span(&self) -> SpanVector {
        match &self.repr {
            Repr::Sparse(v) => SpanVector::from_sparse(v),
            Repr::Dense(v) => SpanVector::from_slice(v.as_slice()),
        }
    }

    /// Resumes propagation from a span snapshot: sparse unless the
    /// snapshot's density already exceeds `densify_threshold`, exactly the
    /// rule a vector propagated up to that point would have followed.
    pub fn from_span(span: &SpanVector, densify_threshold: f64) -> Self {
        let (offset, values) = span.span();
        let mut indices = Vec::new();
        let mut nonzero = Vec::new();
        for (i, v) in values.iter().enumerate().filter(|(_, v)| **v != 0.0) {
            indices.push((offset + i) as u32);
            nonzero.push(*v);
        }
        let mut out = PropagationVector::from_sparse(SparseVector::zeros(span.dim()))
            .with_densify_threshold(densify_threshold);
        out.adopt_sparse_result(SparseVector::from_sorted_parts(span.dim(), indices, nonzero));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
            .unwrap()
    }

    #[test]
    fn sparse_start_densifies_at_threshold() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap())
            .with_densify_threshold(0.5);
        assert!(v.is_sparse());
        v.step(&m, &mut scratch).unwrap(); // (0.6, 0, 0.4): density 2/3 > 0.5
        assert!(!v.is_sparse());
        assert!(v.to_dense().approx_eq(&DenseVector::from_vec(vec![0.6, 0.0, 0.4]), 1e-12));
    }

    #[test]
    fn threshold_one_stays_sparse() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap())
            .with_densify_threshold(1.0);
        for _ in 0..10 {
            v.step(&m, &mut scratch).unwrap();
            assert!(v.is_sparse());
        }
        assert!((v.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_and_dense_propagation_agree() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let mut sparse = PropagationVector::from_sparse(SparseVector::unit(3, 0).unwrap())
            .with_densify_threshold(1.0);
        let mut dense = PropagationVector::from_dense(DenseVector::unit(3, 0).unwrap());
        for _ in 0..7 {
            sparse.step(&m, &mut scratch).unwrap();
            dense.step(&m, &mut scratch).unwrap();
            assert!(sparse.to_dense().approx_eq(&dense.to_dense(), 1e-12));
        }
    }

    #[test]
    fn extract_masked_moves_mass_in_both_representations() {
        let mask = StateMask::from_indices(3, [0usize]).unwrap();
        let mut sparse = PropagationVector::from_sparse(
            SparseVector::from_pairs(3, [(0, 0.3), (2, 0.7)]).unwrap(),
        );
        assert!((sparse.extract_masked(&mask) - 0.3).abs() < 1e-12);
        assert!((sparse.sum() - 0.7).abs() < 1e-12);

        let mut dense = PropagationVector::from_dense(DenseVector::from_vec(vec![0.3, 0.0, 0.7]));
        assert!((dense.extract_masked(&mask) - 0.3).abs() < 1e-12);
        assert!((dense.masked_sum(&mask)).abs() < 1e-12);
    }

    #[test]
    fn retain_masked_drops_the_same_mass_in_both_representations() {
        let mask = StateMask::from_indices(3, [0usize, 1]).unwrap();
        let mut sparse = PropagationVector::from_sparse(
            SparseVector::from_pairs(3, [(0, 0.3), (2, 0.7)]).unwrap(),
        );
        let mut dense = PropagationVector::from_dense(DenseVector::from_vec(vec![0.3, 0.0, 0.7]));
        for v in [&mut sparse, &mut dense] {
            assert_eq!(v.retain_masked(&mask), 0.7);
            assert_eq!(v.nnz(), 1);
            assert_eq!(v.get(0), 0.3);
            assert_eq!(v.retain_masked(&StateMask::full(3)), 0.0);
        }
        assert!(sparse.is_sparse() && !dense.is_sparse());
    }

    #[test]
    fn hadamard_fusion_on_dense_resparsifies() {
        let mut v = PropagationVector::from_dense(DenseVector::from_vec(vec![0.2, 0.5, 0.3]))
            .with_densify_threshold(0.5);
        let obs = SparseVector::from_pairs(3, [(1, 0.5)]).unwrap();
        v.hadamard_sparse(&obs).unwrap();
        assert!(v.is_sparse());
        assert!((v.get(1) - 0.25).abs() < 1e-12);
        assert_eq!(v.nnz(), 1);
        let bad = SparseVector::zeros(5);
        assert!(v.hadamard_sparse(&bad).is_err());
    }

    #[test]
    fn prune_only_affects_sparse() {
        let mut sparse = PropagationVector::from_sparse(
            SparseVector::from_pairs(4, [(0, 1e-12), (1, 0.9)]).unwrap(),
        );
        assert!(sparse.prune(1e-9) > 0.0);
        assert_eq!(sparse.nnz(), 1);
        let mut dense = PropagationVector::from_dense(DenseVector::from_vec(vec![1e-12, 0.9]));
        assert_eq!(dense.prune(1e-9), 0.0);
        assert_eq!(dense.nnz(), 2);
    }

    #[test]
    fn dot_dense_works_in_both_representations() {
        let backward = DenseVector::from_vec(vec![0.96, 0.864, 0.928]);
        let sparse = PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap());
        assert!((sparse.dot_dense(&backward).unwrap() - 0.864).abs() < 1e-12);
        let dense = PropagationVector::from_dense(DenseVector::unit(3, 1).unwrap());
        assert!((dense.dot_dense(&backward).unwrap() - 0.864).abs() < 1e-12);
    }

    #[test]
    fn split_masked_and_add_sparse_roundtrip() {
        let mask = StateMask::from_indices(4, [1usize, 2]).unwrap();
        for mut v in [
            PropagationVector::from_sparse(
                SparseVector::from_pairs(4, [(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)]).unwrap(),
            )
            .with_densify_threshold(1.0),
            PropagationVector::from_dense(DenseVector::from_vec(vec![0.1, 0.2, 0.3, 0.4])),
        ] {
            let split = v.split_masked(&mask);
            assert!((split.sum() - 0.5).abs() < 1e-12);
            assert!((v.sum() - 0.5).abs() < 1e-12);
            assert_eq!(v.get(1), 0.0);
            assert_eq!(v.nnz(), 2);
            v.add_sparse(&split).unwrap();
            assert!((v.sum() - 1.0).abs() < 1e-12);
            assert!((v.get(2) - 0.3).abs() < 1e-12);
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
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_dense(DenseVector::from_vec(vec![0.0, 1.0, 0.0]));
        let check = |v: &PropagationVector| {
            assert_eq!(v.nnz(), v.to_dense().nnz(), "tracked count matches a rescan");
        };
        check(&v);
        for _ in 0..4 {
            v.step(&m, &mut scratch).unwrap();
            check(&v);
        }
        let mask = StateMask::from_indices(3, [0usize]).unwrap();
        v.extract_masked(&mask);
        check(&v);
        let split = v.split_masked(&StateMask::from_indices(3, [2usize]).unwrap());
        check(&v);
        v.add_sparse(&split).unwrap();
        check(&v);
        let before = v.sum();
        let dropped = v.retain_masked(&StateMask::from_indices(3, [1usize]).unwrap());
        check(&v);
        assert!((dropped + v.sum() - before).abs() < 1e-12, "trimming conserves mass");
        v.scale(0.0);
        check(&v);
        assert_eq!(v.nnz(), 0, "scaling by zero empties the vector");
    }

    #[test]
    fn step_batch_is_bit_identical_to_individual_steps() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        // A mixed batch: one sparse-forever row, one densifying row, one
        // already-dense row and one empty row.
        let mut batch = vec![
            PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap())
                .with_densify_threshold(1.0),
            PropagationVector::from_sparse(SparseVector::unit(3, 0).unwrap())
                .with_densify_threshold(0.3),
            PropagationVector::from_dense(DenseVector::from_vec(vec![0.25, 0.5, 0.25])),
            PropagationVector::from_sparse(SparseVector::zeros(3)),
        ];
        let mut solo = batch.clone();
        for _ in 0..6 {
            let stats = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
            assert_eq!(stats.vectors_stepped, 3, "empty row skipped");
            for row in solo.iter_mut() {
                if row.nnz() > 0 {
                    row.step(&m, &mut scratch).unwrap();
                }
            }
            for (a, b) in batch.iter().zip(&solo) {
                assert_eq!(a.is_sparse(), b.is_sparse());
                assert_eq!(a.nnz(), b.nnz());
                let (da, db) = (a.to_dense(), b.to_dense());
                for s in 0..3 {
                    assert_eq!(da.get(s).to_bits(), db.get(s).to_bits(), "state {s}");
                }
            }
        }
    }

    #[test]
    fn step_batch_modes_agree_bitwise() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let template = vec![
            PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap())
                .with_densify_threshold(1.0),
            PropagationVector::from_sparse(SparseVector::unit(3, 2).unwrap())
                .with_densify_threshold(1.0),
            PropagationVector::from_dense(DenseVector::from_vec(vec![0.25, 0.5, 0.25])),
            PropagationVector::from_dense(DenseVector::from_vec(vec![0.5, 0.25, 0.25])),
        ];
        let mut per_mode: Vec<Vec<PropagationVector>> = Vec::new();
        for mode in [KernelMode::Auto, KernelMode::SharedUnion, KernelMode::PerObject] {
            let mut batch = template.clone();
            let mut totals = BatchStepStats::default();
            for _ in 0..5 {
                totals.merge(m.step_batch_with_mode(&mut batch, &[], mode, &mut scratch).unwrap());
            }
            per_mode.push(batch);
            assert!(totals.entries_touched > 0, "{mode:?} reports entry work");
        }
        for batch in &per_mode[1..] {
            for (a, b) in per_mode[0].iter().zip(batch) {
                let (da, db) = (a.to_dense(), b.to_dense());
                for s in 0..3 {
                    assert_eq!(da.get(s).to_bits(), db.get(s).to_bits());
                }
            }
        }
    }

    #[test]
    fn per_object_mode_skips_sharing_but_counts_same_entries() {
        let m = CsrMatrix::from_dense(&[
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.0, 0.5, 0.5, 0.0],
            vec![0.0, 0.0, 0.5, 0.5],
            vec![0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let mut scratch = SpmvScratch::new();
        let template = vec![
            PropagationVector::from_sparse(
                SparseVector::from_pairs(4, [(0, 0.5), (1, 0.5)]).unwrap(),
            )
            .with_densify_threshold(1.0),
            PropagationVector::from_sparse(
                SparseVector::from_pairs(4, [(1, 0.5), (2, 0.5)]).unwrap(),
            )
            .with_densify_threshold(1.0),
        ];
        let mut shared = template.clone();
        let s = m
            .step_batch_with_mode(&mut shared, &[], KernelMode::SharedUnion, &mut scratch)
            .unwrap();
        let mut solo = template.clone();
        let p =
            m.step_batch_with_mode(&mut solo, &[], KernelMode::PerObject, &mut scratch).unwrap();
        assert_eq!(s.rows_traversed, 3, "union reads each support row once");
        assert_eq!(p.rows_traversed, 4, "per-object pays the overlap twice");
        assert_eq!(s.entries_touched, p.entries_touched, "identical multiply work");
    }

    #[test]
    fn step_batch_shares_dense_row_traversals() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        let mut batch = vec![
            PropagationVector::from_dense(DenseVector::from_vec(vec![0.2, 0.3, 0.5])),
            PropagationVector::from_dense(DenseVector::from_vec(vec![0.5, 0.3, 0.2])),
        ];
        let shared = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
        // Two full dense vectors over 3 matrix rows: the shared traversal
        // reads each row once (3), the per-object path twice (6).
        assert_eq!(shared.rows_traversed, 3);
        let mut solo =
            vec![PropagationVector::from_dense(DenseVector::from_vec(vec![0.2, 0.3, 0.5]))];
        let alone = m.step_batch(&mut solo, &[], &mut scratch).unwrap();
        assert_eq!(alone.rows_traversed, 3);
        // The single-member fast path counts the same multiply work per
        // vector as the panel kernel.
        assert_eq!(2 * alone.entries_touched, shared.entries_touched);
        assert_eq!(solo[0], batch[0]);
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
        // Supports {0, 1} and {1, 2}: the union {0, 1, 2} is 3 matrix-row
        // reads, the per-object sum is 4 — enough overlap that the Auto
        // heuristic picks the shared-union merge.
        let mut batch = vec![
            PropagationVector::from_sparse(
                SparseVector::from_pairs(4, [(0, 0.5), (1, 0.5)]).unwrap(),
            )
            .with_densify_threshold(1.0),
            PropagationVector::from_sparse(
                SparseVector::from_pairs(4, [(1, 0.5), (2, 0.5)]).unwrap(),
            )
            .with_densify_threshold(1.0),
        ];
        let mut solo = batch.clone();
        let shared = m.step_batch(&mut batch, &[], &mut scratch).unwrap();
        assert_eq!(shared.rows_traversed, 3, "union of supports, each row read once");
        let mut individual = BatchStepStats::default();
        for row in solo.iter_mut() {
            let one = std::slice::from_mut(row);
            individual.merge(m.step_batch(one, &[], &mut scratch).unwrap());
        }
        assert_eq!(individual.rows_traversed, 4, "per-object supports pay overlap twice");
        assert_eq!(shared.entries_touched, individual.entries_touched);
        for (a, b) in batch.iter().zip(&solo) {
            let (da, db) = (a.to_dense(), b.to_dense());
            for s in 0..4 {
                assert_eq!(da.get(s).to_bits(), db.get(s).to_bits());
            }
        }
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
    }

    #[test]
    fn span_snapshots_resume_in_the_representation_their_density_calls_for() {
        let m = paper_matrix();
        let mut scratch = SpmvScratch::new();
        for threshold in [0.0, 0.5, 1.0] {
            let mut v = PropagationVector::from_sparse(SparseVector::unit(3, 1).unwrap())
                .with_densify_threshold(threshold);
            v.step(&m, &mut scratch).unwrap();
            let mut resumed = PropagationVector::from_span(&v.to_span(), threshold);
            assert_eq!(resumed.is_sparse(), v.is_sparse(), "threshold {threshold}");
            assert_eq!(resumed.nnz(), v.nnz());
            v.step(&m, &mut scratch).unwrap();
            resumed.step(&m, &mut scratch).unwrap();
            for s in 0..3 {
                assert_eq!(v.get(s).to_bits(), resumed.get(s).to_bits());
            }
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
