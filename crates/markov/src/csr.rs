//! Compressed sparse row (CSR) matrices and the multiplication kernels that
//! every query of the paper reduces to.
//!
//! The paper's central observation is that possible-worlds-correct
//! probabilistic spatio-temporal queries reduce to (row-)vector × matrix
//! products with (augmented) Markov-chain transition matrices. All of those
//! products are implemented here:
//!
//! * [`CsrMatrix::vecmat_dense`] — `v · M` with a dense `v`,
//! * [`CsrMatrix::vecmat_sparse`] — `v · M` with a sparse `v`, cost
//!   proportional to the touched rows only,
//! * [`CsrMatrix::transpose`] — `Mᵀ`, for the forward reach schedules and
//!   the sorted-index arm of the query-based backward pass.

use crate::dense::DenseVector;
use crate::error::{MarkovError, Result};
use crate::span_vec::SpanVector;
use crate::sparse_vec::SparseVector;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
}

/// Reusable scratch space for the propagation products.
///
/// The sorted-index kernel scatters into a dense accumulator; reusing the
/// accumulator across the thousands of transitions of a query avoids an
/// `O(|S|)` allocation + clear per step (the clear is proportional to the
/// *touched* entries only). Every output buffer of either arm is recycled
/// through the pools below, so a steady-state sweep allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct SpmvScratch {
    acc: Vec<f64>,
    touched: Vec<u32>,
    /// Batched-kernel member lists, pooled because one batch sweep
    /// performs one `step_batch` call per timestamp.
    pub(crate) members_sparse: Vec<usize>,
    pub(crate) members_span: Vec<usize>,
    /// The span members of one panel group, moved out of their rows for
    /// the duration of the panel kernel.
    pub(crate) panel_members: Vec<SpanVector>,
    /// Recycled span storage: each step's inputs return their buffers here
    /// and the next step's outputs take them back.
    pub(crate) span_pool: Vec<Vec<f64>>,
    /// Recycled sparse `(indices, values)` storage, mirroring `span_pool`.
    pub(crate) sparse_pool: Vec<(Vec<u32>, Vec<f64>)>,
    /// The interleaved output panel of the span panel kernel
    /// (`panel[j * width + k]` = vector `k`'s value at the panel's `j`-th
    /// column).
    pub(crate) panel_out: Vec<f64>,
    /// The output buffers of one panel's lanes while they are unpacked.
    pub(crate) panel_lanes: Vec<Vec<f64>>,
    /// The zero-padded input of the backward gather
    /// ([`crate::kernels::SlicedRows`]): the stepped vector over the column
    /// extent of the output's slices.
    pub(crate) gather_in: Vec<f64>,
}

/// What a set of matrix rows touches: the column range `[lo, hi)` (CSR
/// columns are sorted, so each row contributes its first and last), the
/// row count and the matrix entries they hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Reach {
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) rows: u64,
    pub(crate) entries: u64,
}

impl Reach {
    /// True when the live rows scatter so far apart that a contiguous
    /// output would be mostly zeros (more than 4 slots per matrix entry
    /// read): the step belongs to the sorted-index kernel.
    pub(crate) fn is_scattered(&self) -> bool {
        (self.hi - self.lo) as u64 > 4 * self.entries
    }
}

impl SpmvScratch {
    /// Creates scratch space; it grows lazily to the needed dimension.
    pub fn new() -> Self {
        SpmvScratch::default()
    }

    fn ensure(&mut self, dim: usize) {
        if self.acc.len() < dim {
            self.acc.resize(dim, 0.0);
        }
    }

    /// A zeroed buffer of `len` slots from the span pool.
    pub(crate) fn zeroed_span(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.span_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }
}

impl CsrMatrix {
    /// Assembles a CSR matrix from raw parts.
    ///
    /// Intended for use by [`crate::coo::CooBuilder`] and tests; the caller
    /// must guarantee CSR invariants (monotone `indptr`, sorted column
    /// indices within each row).
    ///
    /// # Panics
    ///
    /// Panics when a column index is `≥ ncols` — every stored index being
    /// in range is the invariant the unchecked accumulation of the batched
    /// kernels relies on, so it is enforced at construction rather than
    /// merely documented.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), data.len());
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        assert!(
            indices.iter().all(|&c| (c as usize) < ncols),
            "CSR column index out of range (ncols = {ncols})"
        );
        CsrMatrix { nrows, ncols, indptr, indices, data }
    }

    /// Builds a matrix from per-row `(col, value)` lists.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Result<Self> {
        let mut builder = crate::coo::CooBuilder::new(rows.len(), ncols);
        for (r, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                builder.push(r, c, v)?;
            }
        }
        Ok(builder.build())
    }

    /// Builds from a dense row-major representation (test convenience).
    pub fn from_dense(rows: &[Vec<f64>]) -> Result<Self> {
        let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut builder = crate::coo::CooBuilder::new(rows.len(), ncols);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(MarkovError::DimensionMismatch {
                    op: "from_dense row length",
                    expected: ncols,
                    found: row.len(),
                });
            }
            for (c, &v) in row.iter().enumerate() {
                builder.push(r, c, v)?;
            }
        }
        Ok(builder.build())
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            data: vec![1.0; n],
        }
    }

    /// Matrix shape `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// The stored entries of row `i` as `(column indices, values)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Entry `(i, j)` via binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Sum of the entries in row `i`.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).1.iter().sum()
    }

    /// Applies `f` to every stored value, returning a new matrix.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// The transposed matrix `Mᵀ` (CSC-to-CSR conversion, O(nnz)).
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; nnz];
        let mut data = vec![0.0f64; nnz];
        let mut next = counts;
        for row in 0..self.nrows {
            let (cols, vals) = self.row(row);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = next[c as usize];
                indices[dst] = row as u32;
                data[dst] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, indptr, indices, data }
    }

    /// Row-vector × matrix with a dense input: `out = v · M`.
    pub fn vecmat_dense(&self, v: &DenseVector) -> Result<DenseVector> {
        if v.dim() != self.nrows {
            return Err(MarkovError::DimensionMismatch {
                op: "vecmat (dense)",
                expected: self.nrows,
                found: v.dim(),
            });
        }
        let mut out = DenseVector::zeros(self.ncols);
        let out_slice = out.as_mut_slice();
        for (i, &vi) in v.as_slice().iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (&c, &m) in cols.iter().zip(vals) {
                out_slice[c as usize] += vi * m;
            }
        }
        Ok(out)
    }

    /// Row-vector × matrix with a sparse input, reusing `scratch` — the
    /// sorted-index kernel.
    ///
    /// Cost is `Σ_{i ∈ supp(v)} nnz(row i)` — the `|S_reach|` bound of the
    /// paper — independent of `|S|`, plus one sort of the touched columns.
    /// The output's index / value storage comes from the scratch's pool.
    pub fn vecmat_sparse_with(
        &self,
        v: &SparseVector,
        scratch: &mut SpmvScratch,
    ) -> Result<SparseVector> {
        if v.dim() != self.nrows {
            return Err(MarkovError::DimensionMismatch {
                op: "vecmat (sparse)",
                expected: self.nrows,
                found: v.dim(),
            });
        }
        scratch.ensure(self.ncols);
        scratch.touched.clear();
        for (i, vi) in v.iter() {
            let (cols, vals) = self.row(i);
            for (&c, &m) in cols.iter().zip(vals) {
                let slot = &mut scratch.acc[c as usize];
                if *slot == 0.0 {
                    scratch.touched.push(c);
                }
                *slot += vi * m;
            }
        }
        scratch.touched.sort_unstable();
        let (mut indices, mut values) = scratch.sparse_pool.pop().unwrap_or_default();
        indices.clear();
        values.clear();
        // A slot that summed back to zero is listed once per first touch;
        // the later listings read the cleared slot and are skipped with it.
        for &c in &scratch.touched {
            let val = std::mem::take(&mut scratch.acc[c as usize]);
            if val != 0.0 {
                indices.push(c);
                values.push(val);
            }
        }
        Ok(SparseVector::from_sorted_parts(self.ncols, indices, values))
    }

    /// The [`Reach`] of `rows`.
    pub(crate) fn reach(&self, rows: impl Iterator<Item = usize>) -> Reach {
        let mut reach = Reach { lo: usize::MAX, ..Reach::default() };
        for i in rows {
            let (cols, _) = self.row(i);
            if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                reach.lo = reach.lo.min(first as usize);
                reach.hi = reach.hi.max(last as usize + 1);
            }
            reach.rows += 1;
            reach.entries += cols.len() as u64;
        }
        reach.lo = reach.lo.min(reach.hi);
        reach
    }

    /// The [`Reach`] of one transition of `v`: of the rows where it is
    /// non-zero.
    pub(crate) fn reach_of(&self, v: &SpanVector) -> Reach {
        let (offset, values) = v.span();
        let live = values.iter().enumerate().filter(|(_, vi)| **vi != 0.0);
        self.reach(live.map(|(i, _)| offset + i))
    }

    /// Row-vector × matrix with a span input whose `reach` is known — the
    /// span kernel: the products scatter into the zeroed contiguous output
    /// range (ascending source, ascending column, zero sources skipped as
    /// in [`CsrMatrix::vecmat_dense`]), which is then counted and trimmed
    /// in one pass. No index is built and nothing is sorted.
    pub(crate) fn vecmat_span_with(
        &self,
        v: &SpanVector,
        reach: Reach,
        scratch: &mut SpmvScratch,
    ) -> SpanVector {
        let mut out = scratch.zeroed_span(reach.hi - reach.lo);
        let (offset, values) = v.span();
        for (i, &vi) in values.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(offset + i);
            for (&c, &m) in cols.iter().zip(vals) {
                out[c as usize - reach.lo] += vi * m;
            }
        }
        SpanVector::from_parts(self.ncols, reach.lo, out)
    }

    /// Row-vector × matrix with a sparse input (allocating convenience).
    pub fn vecmat_sparse(&self, v: &SparseVector) -> Result<SparseVector> {
        let mut scratch = SpmvScratch::new();
        self.vecmat_sparse_with(v, &mut scratch)
    }

    /// Matrix × column-vector: `out = M · v`, i.e. `out[i] = row_i · v`.
    ///
    /// This is the kernel of the query-based backward pass: the recurrence
    /// `h_t(s) = Σ_j M(s,j) · h_{t+1}(j)` is exactly `h_t = M · h_{t+1}`.
    /// Equivalent to `vecmat_dense` on the transposed matrix, but avoids
    /// materializing `Mᵀ` and reads each row contiguously.
    pub fn matvec_dense(&self, v: &DenseVector) -> Result<DenseVector> {
        if v.dim() != self.ncols {
            return Err(MarkovError::DimensionMismatch {
                op: "matvec (dense)",
                expected: self.ncols,
                found: v.dim(),
            });
        }
        let vs = v.as_slice();
        let mut out = DenseVector::zeros(self.nrows);
        let out_slice = out.as_mut_slice();
        for (i, slot) in out_slice.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &m) in cols.iter().zip(vals) {
                acc += m * vs[c as usize];
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Converts to a dense row-major representation (test convenience).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for (i, row) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
        }
        out
    }

    /// True when every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &CsrMatrix, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        for i in 0..self.nrows {
            let (ac, av) = self.row(i);
            let (bc, bv) = other.row(i);
            // Compare as merged sparse rows so differing sparsity patterns
            // with near-zero values still compare equal.
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() || q < bc.len() {
                let ai = ac.get(p).copied().unwrap_or(u32::MAX);
                let bi = bc.get(q).copied().unwrap_or(u32::MAX);
                match ai.cmp(&bi) {
                    std::cmp::Ordering::Less => {
                        if av[p].abs() > tol {
                            return false;
                        }
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        if bv[q].abs() > tol {
                            return false;
                        }
                        q += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        if (av[p] - bv[q]).abs() > tol {
                            return false;
                        }
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running-example chain used throughout Section V of the paper.
    fn paper_matrix() -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
            .unwrap()
    }

    #[test]
    fn identity_roundtrip() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        let v = DenseVector::from_vec(vec![0.1, 0.2, 0.3, 0.4]);
        assert!(id.vecmat_dense(&v).unwrap().approx_eq(&v, 0.0));
    }

    #[test]
    fn row_access_and_get() {
        let m = paper_matrix();
        assert_eq!(m.row_nnz(0), 1);
        assert_eq!(m.row_nnz(1), 2);
        assert_eq!(m.get(1, 0), 0.6);
        assert_eq!(m.get(1, 1), 0.0);
        assert!((m.row_sum(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vecmat_dense_matches_paper_corollary_1() {
        // P(o,0) = (0,1,0); P(o,1) = P(o,0)·M = (0.6, 0, 0.4).
        let m = paper_matrix();
        let p0 = DenseVector::from_vec(vec![0.0, 1.0, 0.0]);
        let p1 = m.vecmat_dense(&p0).unwrap();
        assert!(p1.approx_eq(&DenseVector::from_vec(vec![0.6, 0.0, 0.4]), 1e-12));
        // P(o,2) = P(o,1)·M = (0, 0.32, 0.68) — the paper's lower-bound step.
        let p2 = m.vecmat_dense(&p1).unwrap();
        assert!(p2.approx_eq(&DenseVector::from_vec(vec![0.0, 0.32, 0.68]), 1e-12));
    }

    #[test]
    fn vecmat_sparse_agrees_with_dense() {
        let m = paper_matrix();
        let sv = SparseVector::from_pairs(3, [(1, 1.0)]).unwrap();
        let out = m.vecmat_sparse(&sv).unwrap();
        assert!(out.to_dense().approx_eq(&DenseVector::from_vec(vec![0.6, 0.0, 0.4]), 1e-12));
        // Scratch reuse across calls must not leak accumulator state.
        let mut scratch = SpmvScratch::new();
        let a = m.vecmat_sparse_with(&sv, &mut scratch).unwrap();
        let b = m.vecmat_sparse_with(&a, &mut scratch).unwrap();
        assert!(b.to_dense().approx_eq(&DenseVector::from_vec(vec![0.0, 0.32, 0.68]), 1e-12));
    }

    #[test]
    fn dimension_mismatches_error() {
        let m = paper_matrix();
        assert!(m.vecmat_dense(&DenseVector::zeros(2)).is_err());
        assert!(m.vecmat_sparse(&SparseVector::zeros(5)).is_err());
    }

    #[test]
    fn transpose_is_involution_and_swaps_entries() {
        let m = paper_matrix();
        let t = m.transpose();
        assert_eq!(t.get(0, 1), 0.6);
        assert_eq!(t.get(1, 2), 0.8);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matvec_equals_transposed_vecmat() {
        let m = paper_matrix();
        let v = DenseVector::from_vec(vec![0.2, 0.5, 0.3]);
        let direct = m.matvec_dense(&v).unwrap();
        let via_transpose = m.transpose().vecmat_dense(&v).unwrap();
        assert!(direct.approx_eq(&via_transpose, 1e-12));
        assert!(m.matvec_dense(&DenseVector::zeros(2)).is_err());
        // Backward-pass sanity: M · 1 = 1 for a stochastic matrix.
        let ones = DenseVector::from_vec(vec![1.0; 3]);
        assert!(m.matvec_dense(&ones).unwrap().approx_eq(&ones, 1e-12));
    }

    #[test]
    fn from_rows_builds_expected_matrix() {
        let m =
            CsrMatrix::from_rows(3, &[vec![(2, 1.0)], vec![(0, 0.6), (2, 0.4)], vec![]]).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.get(1, 0), 0.6);
    }

    #[test]
    fn from_dense_validates_row_lengths() {
        assert!(CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![1.0]]).is_err());
    }

    #[test]
    fn map_values_transforms_entries() {
        let m = paper_matrix().map_values(|v| v * 2.0);
        assert_eq!(m.get(1, 0), 1.2);
    }

    #[test]
    fn approx_eq_tolerates_pattern_differences() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1e-15], vec![0.0, 1.0]]).unwrap();
        let b = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(a.approx_eq(&b, 1e-12));
        assert!(!a.approx_eq(&b, 1e-16));
        let c = CsrMatrix::identity(3);
        assert!(!a.approx_eq(&c, 1.0));
    }
}
