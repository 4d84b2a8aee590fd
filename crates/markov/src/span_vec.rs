//! Span-trimmed read-only vectors.
//!
//! A backward field lives on `S_reach` — the states that can still reach
//! the query window — which on a spatially local chain is a narrow band of
//! the state space. Storing a snapshot of such a vector densely costs
//! `8·|S|` bytes however few states carry a value; storing it sparsely
//! turns every lookup into a binary search. [`SpanVector`] keeps only the
//! contiguous span `[first_nz, last_nz]` as `(offset, values)`: lookups stay
//! O(1) (one subtraction, one bounds check) and the memory follows the
//! band, not the space.

use crate::dense::DenseVector;
use crate::sparse_vec::SparseVector;

/// An immutable `f64` vector stored as the dense span between its first and
/// last non-zero entry; everything outside the span reads as `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanVector {
    dim: usize,
    offset: usize,
    values: Vec<f64>,
}

impl SpanVector {
    /// Trims a dense slice to its non-zero span.
    pub fn from_slice(dense: &[f64]) -> Self {
        let dim = dense.len();
        match dense.iter().position(|v| *v != 0.0) {
            Some(first) => {
                let last = dense.iter().rposition(|v| *v != 0.0).unwrap_or(first);
                SpanVector { dim, offset: first, values: dense[first..=last].to_vec() }
            }
            None => SpanVector { dim, offset: 0, values: Vec::new() },
        }
    }

    /// Spreads a sparse vector over its non-zero span.
    pub fn from_sparse(sparse: &SparseVector) -> Self {
        let dim = sparse.dim();
        // Stored entries may include explicit zeros; the span ignores them.
        let nonzero = || sparse.iter().filter(|(_, v)| *v != 0.0);
        let Some((first, _)) = nonzero().next() else {
            return SpanVector { dim, offset: 0, values: Vec::new() };
        };
        let last = nonzero().last().map_or(first, |(i, _)| i);
        let mut values = vec![0.0; last - first + 1];
        for (i, v) in nonzero() {
            values[i - first] = v;
        }
        SpanVector { dim, offset: first, values }
    }

    /// Vector dimension (of the full space, not the stored span).
    pub fn dim(&self) -> usize {
        self.dim
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

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        let mut out = DenseVector::zeros(self.dim);
        out.as_mut_slice()[self.offset..self.offset + self.values.len()]
            .copy_from_slice(&self.values);
        out
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
        let read: Vec<f64> = (0..8).map(|i| v.get(i)).collect();
        assert_eq!(read, vec![0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0]);
        assert_eq!(v.to_dense().as_slice(), &[0.0, 0.0, 0.5, 0.0, 0.25, 0.0]);
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
            assert_eq!(v.dim(), 4);
            assert!(v.span().1.is_empty());
            assert_eq!(v.get(0), 0.0);
            assert_eq!(v.get(3), 0.0);
            assert_eq!(v.to_dense().nnz(), 0);
        }
    }
}
