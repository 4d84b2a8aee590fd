//! Span-trimmed vectors.
//!
//! Everything this system propagates lives on `S_reach` — the states that
//! can still reach (or be reached from) a query window or an anchor —
//! which on a spatially local chain is a narrow band of the state space
//! that widens by one transition's reach per step. Storing such a vector
//! densely costs `8·|S|` bytes however few states carry a value; storing
//! it as sorted indices turns every lookup into a binary search and every
//! product into index bookkeeping. [`SpanVector`] keeps only the contiguous
//! span `[first_nz, last_nz]` as `(offset, values)`: lookups stay O(1) (one
//! subtraction, one bounds check), products scatter into a contiguous
//! range, and the memory follows the band, not the space. It is both the
//! span arm of [`crate::hybrid::PropagationVector`] and the snapshot format
//! of the backward fields.

use crate::dense::DenseVector;
use crate::mask::StateMask;
use crate::sparse_vec::SparseVector;

/// An `f64` vector stored as the dense span between its first and last
/// non-zero entry; everything outside the span reads as `0.0`.
///
/// Invariants (kept by every constructor and every in-crate mutation): the
/// stored values are empty or start and end with a non-zero, and the
/// non-zero count is exact — so equality is canonical and `nnz()` is O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanVector {
    dim: usize,
    offset: usize,
    values: Vec<f64>,
    nnz: usize,
}

impl SpanVector {
    /// The all-zero vector of dimension `dim` (stores nothing).
    pub fn zeros(dim: usize) -> Self {
        SpanVector { dim, offset: 0, values: Vec::new(), nnz: 0 }
    }

    /// Trims a dense slice to its non-zero span.
    pub fn from_slice(dense: &[f64]) -> Self {
        let first = dense.iter().position(|v| *v != 0.0).unwrap_or(0);
        let end = dense.iter().rposition(|v| *v != 0.0).map_or(first, |last| last + 1);
        Self::from_parts(dense.len(), first, dense[first..end].to_vec())
    }

    /// Spreads a sparse vector over its non-zero span.
    pub fn from_sparse(sparse: &SparseVector) -> Self {
        let dim = sparse.dim();
        // Stored entries may include explicit zeros; the span ignores them.
        let nonzero = || sparse.iter().filter(|(_, v)| *v != 0.0);
        let Some((first, _)) = nonzero().next() else {
            return SpanVector::zeros(dim);
        };
        let last = nonzero().last().map_or(first, |(i, _)| i);
        let mut values = vec![0.0; last - first + 1];
        let mut nnz = 0;
        for (i, v) in nonzero() {
            values[i - first] = v;
            nnz += 1;
        }
        SpanVector { dim, offset: first, values, nnz }
    }

    /// Takes ownership of `values` as the entries from state `offset` on,
    /// trimming zero ends and counting the non-zeros.
    pub(crate) fn from_parts(dim: usize, offset: usize, values: Vec<f64>) -> Self {
        debug_assert!(offset + values.len() <= dim, "span inside the space");
        let mut out = SpanVector { dim, offset, values, nnz: 0 };
        out.recount();
        out
    }

    /// Consumes the vector, returning its value storage for recycling.
    pub(crate) fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Re-establishes the invariants after entries were zeroed (or may
    /// have been): exact count, zero ends trimmed.
    fn recount(&mut self) {
        self.nnz = self.values.iter().filter(|v| **v != 0.0).count();
        self.trim();
    }

    /// Drops zero entries from both ends of the stored span.
    fn trim(&mut self) {
        let end = self.values.iter().rposition(|v| *v != 0.0).map_or(0, |last| last + 1);
        self.values.truncate(end);
        let first = self.values.iter().position(|v| *v != 0.0).unwrap_or(0);
        if first > 0 {
            self.values.drain(..first);
            self.offset += first;
        }
        if self.values.is_empty() {
            self.offset = 0;
        }
    }

    /// Vector dimension (of the full space, not the stored span).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of non-zero entries, O(1).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Value at `index` in O(1); `0.0` outside the stored span.
    #[inline]
    pub fn get(&self, index: usize) -> f64 {
        self.values.get(index.wrapping_sub(self.offset)).copied().unwrap_or(0.0)
    }

    /// The stored span: its first state id and the values from there on.
    pub fn span(&self) -> (usize, &[f64]) {
        (self.offset, &self.values)
    }

    /// Sum of the entries, folded in ascending state order.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        let mut out = DenseVector::zeros(self.dim);
        out.as_mut_slice()[self.offset..self.offset + self.values.len()]
            .copy_from_slice(&self.values);
        out
    }

    /// The non-zero entries as a sorted-index vector.
    pub fn to_sparse(&self) -> SparseVector {
        let mut indices = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        for (i, v) in self.values.iter().enumerate().filter(|(_, v)| **v != 0.0) {
            indices.push((self.offset + i) as u32);
            values.push(*v);
        }
        SparseVector::from_sorted_parts(self.dim, indices, values)
    }

    /// Dot product with a dense vector of the same dimension, folded in
    /// ascending state order over the span.
    pub(crate) fn dot_slice(&self, other: &[f64]) -> f64 {
        let window = &other[self.offset..self.offset + self.values.len()];
        self.values.iter().zip(window).map(|(a, b)| a * b).sum()
    }

    /// Visits, in ascending state order, every stored slot whose state is
    /// in `mask` — by the mask's set bits when they are few against the
    /// span, by the span otherwise.
    fn for_each_masked(&mut self, mask: &StateMask, mut visit: impl FnMut(usize, &mut f64)) {
        let offset = self.offset;
        if mask.count() * 4 < self.values.len() {
            for s in mask.iter() {
                if let Some(v) = self.values.get_mut(s.wrapping_sub(offset)) {
                    visit(s, v);
                }
            }
        } else {
            for (i, v) in self.values.iter_mut().enumerate() {
                if mask.contains(offset + i) {
                    visit(offset + i, v);
                }
            }
        }
    }

    /// Sum of the mass inside `mask`, in ascending state order.
    pub(crate) fn masked_sum(&self, mask: &StateMask) -> f64 {
        let offset = self.offset;
        if mask.count() * 4 < self.values.len() {
            mask.iter().map(|s| self.get(s)).sum()
        } else {
            let inside = |(i, _): &(usize, &f64)| mask.contains(offset + i);
            self.values.iter().enumerate().filter(inside).map(|(_, v)| *v).sum()
        }
    }

    /// Removes (returns and zeroes) the mass of states in `mask`.
    pub(crate) fn extract_masked(&mut self, mask: &StateMask) -> f64 {
        let mut moved = 0.0;
        self.for_each_masked(mask, |_, v| {
            moved += *v;
            *v = 0.0;
        });
        self.recount();
        moved
    }

    /// Removes the non-zero entries of states in `mask`, returning them as
    /// a sorted-index vector.
    pub(crate) fn split_masked(&mut self, mask: &StateMask) -> SparseVector {
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        self.for_each_masked(mask, |s, v| {
            if *v != 0.0 {
                indices.push(s as u32);
                values.push(*v);
                *v = 0.0;
            }
        });
        self.nnz -= indices.len();
        self.trim();
        SparseVector::from_sorted_parts(self.dim, indices, values)
    }

    /// Zeroes every entry outside `mask`, returning the mass dropped
    /// (summed in ascending state order). Visits only the span's states
    /// outside the mask.
    pub(crate) fn retain_masked(&mut self, mask: &StateMask) -> f64 {
        let offset = self.offset;
        let mut dropped = 0.0;
        mask.for_each_outside(offset..offset + self.values.len(), |s| {
            let v = &mut self.values[s - offset];
            if *v != 0.0 {
                dropped += *v;
                *v = 0.0;
                self.nnz -= 1;
            }
        });
        self.trim();
        dropped
    }

    /// Adds a sparse vector of the same dimension in place, widening the
    /// span to cover it.
    pub(crate) fn add_sparse(&mut self, other: &SparseVector) {
        let (Some(&first), Some(&last)) = (other.indices().first(), other.indices().last()) else {
            return;
        };
        let (first, last) = (first as usize, last as usize);
        if self.values.is_empty() {
            self.offset = first;
        }
        if first < self.offset {
            let grow = self.offset - first;
            self.values.splice(..0, std::iter::repeat_n(0.0, grow));
            self.offset = first;
        }
        if last >= self.offset + self.values.len() {
            self.values.resize(last - self.offset + 1, 0.0);
        }
        for (i, v) in other.iter() {
            self.values[i - self.offset] += v;
        }
        self.recount();
    }

    /// Scales every entry (a zero or underflowing factor empties slots).
    pub(crate) fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
        self.recount();
    }

    /// Zeroes entries with `|v| <= threshold`, returning the absolute mass
    /// dropped (summed in ascending state order).
    pub(crate) fn prune(&mut self, threshold: f64) -> f64 {
        let mut dropped = 0.0;
        for v in self.values.iter_mut().filter(|v| **v != 0.0 && v.abs() <= threshold) {
            dropped += v.abs();
            *v = 0.0;
        }
        self.recount();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trims_to_the_nonzero_span_and_reads_zero_outside() {
        let v = SpanVector::from_slice(&[0.0, 0.0, 0.5, 0.0, 0.25, 0.0]);
        assert_eq!(v.dim(), 6);
        assert_eq!(v.span(), (2, &[0.5, 0.0, 0.25][..]));
        assert_eq!(v.nnz(), 2);
        let read: Vec<f64> = (0..8).map(|i| v.get(i)).collect();
        assert_eq!(read, vec![0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0]);
        assert_eq!(v.to_dense().as_slice(), &[0.0, 0.0, 0.5, 0.0, 0.25, 0.0]);
        assert_eq!(v.to_sparse().indices(), &[2, 4]);
    }

    #[test]
    fn sparse_and_dense_sources_agree() {
        let sparse = SparseVector::from_pairs(9, [(3, 0.1), (7, 0.9)]).unwrap();
        let from_sparse = SpanVector::from_sparse(&sparse);
        assert_eq!(from_sparse, SpanVector::from_slice(sparse.to_dense().as_slice()));
        assert_eq!(from_sparse.span().0, 3);
        assert_eq!(from_sparse.span().1.len(), 5);
    }

    #[test]
    fn all_zero_vectors_store_nothing() {
        for v in
            [SpanVector::from_slice(&[0.0; 4]), SpanVector::from_sparse(&SparseVector::zeros(4))]
        {
            assert_eq!(v, SpanVector::zeros(4));
            assert!(v.span().1.is_empty());
            assert_eq!(v.get(0), 0.0);
            assert_eq!(v.get(3), 0.0);
            assert_eq!(v.to_dense().nnz(), 0);
        }
    }

    #[test]
    fn mutations_keep_the_span_trimmed_and_the_count_exact() {
        let check = |v: &SpanVector| {
            let (_, values) = v.span();
            assert_eq!(v.nnz(), values.iter().filter(|x| **x != 0.0).count());
            assert!(values.first().is_none_or(|x| *x != 0.0));
            assert!(values.last().is_none_or(|x| *x != 0.0));
        };
        let mut v = SpanVector::from_slice(&[0.0, 0.1, 0.2, 0.0, 0.3, 0.4, 0.0, 0.0]);
        // Emptying the ends moves them inward.
        let ends = StateMask::from_indices(8, [1usize, 5]).unwrap();
        assert_eq!(v.masked_sum(&ends), 0.1 + 0.4);
        assert_eq!(v.extract_masked(&ends), 0.1 + 0.4);
        assert_eq!(v.span(), (2, &[0.2, 0.0, 0.3][..]));
        check(&v);
        // Adding beyond either edge widens the span.
        v.add_sparse(&SparseVector::from_pairs(8, [(0, 0.5), (7, 0.25)]).unwrap());
        assert_eq!(v.span().0, 0);
        assert_eq!(v.span().1.len(), 8);
        assert_eq!(v.nnz(), 4);
        check(&v);
        let split = v.split_masked(&StateMask::from_indices(8, [0usize, 3, 4]).unwrap());
        assert_eq!(split.indices(), &[0, 4], "explicit zeros are not split out");
        assert_eq!(v.span(), (2, &[0.2, 0.0, 0.0, 0.0, 0.0, 0.25][..]));
        check(&v);
        assert_eq!(v.retain_masked(&StateMask::from_indices(8, [2usize]).unwrap()), 0.25);
        assert_eq!(v.span(), (2, &[0.2][..]));
        check(&v);
        assert_eq!(v.prune(0.5), 0.2);
        assert_eq!(v, SpanVector::zeros(8));
        v.add_sparse(&SparseVector::from_pairs(8, [(6, 1.0)]).unwrap());
        assert_eq!(v.span(), (6, &[1.0][..]));
        v.scale(0.0);
        assert_eq!(v, SpanVector::zeros(8));
    }

    #[test]
    fn retain_masked_drops_what_a_per_state_scan_drops() {
        // Spans that start, end and cross word boundaries, against masks of
        // the vector's dimension and of a narrower one: the dropped mass
        // and the kept vector equal a per-state scan's, bit for bit.
        let dim = 200;
        let masks = [
            StateMask::from_indices(dim, (0..dim).filter(|s| s % 3 != 1)).unwrap(),
            StateMask::from_indices(dim, [0usize, 63, 64, 127, 130, 199]).unwrap(),
            StateMask::full(dim),
            StateMask::new(dim),
            StateMask::from_indices(100, (0..100usize).filter(|s| s % 2 == 0)).unwrap(),
        ];
        for (offset, len) in [(0, 200), (3, 61), (60, 8), (64, 64), (63, 1), (100, 99), (190, 10)] {
            let dense: Vec<f64> = (0..dim)
                .map(|s| {
                    if (offset..offset + len).contains(&s) && s % 7 != 2 {
                        0.1 + s as f64
                    } else {
                        0.0
                    }
                })
                .collect();
            for mask in &masks {
                let mut v = SpanVector::from_slice(&dense);
                let mut expected = dense.clone();
                let mut dropped = 0.0;
                for (s, x) in expected.iter_mut().enumerate() {
                    if *x != 0.0 && !mask.contains(s) {
                        dropped += *x;
                        *x = 0.0;
                    }
                }
                assert_eq!(v.retain_masked(mask).to_bits(), f64::to_bits(dropped));
                assert_eq!(v, SpanVector::from_slice(&expected), "span {offset}+{len}");
            }
        }
    }
}
