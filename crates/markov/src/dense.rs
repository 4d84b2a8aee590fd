//! Dense probability/weight vectors.
//!
//! A [`DenseVector`] is a thin, owned wrapper around `Vec<f64>` providing the
//! handful of numerically careful operations the query engines need:
//! L1 normalization, dot products, masked mass extraction and element-wise
//! products (used for Bayesian observation fusion, Lemma 1 of the paper).

use crate::error::{MarkovError, Result};
use crate::mask::StateMask;

/// An owned dense `f64` vector indexed by state id.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector {
    values: Vec<f64>,
}

impl DenseVector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        DenseVector { values: vec![0.0; dim] }
    }

    /// Wraps an existing `Vec<f64>`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        DenseVector { values }
    }

    /// A unit (one-hot) vector with `1.0` at `index`.
    pub fn unit(dim: usize, index: usize) -> Result<Self> {
        if index >= dim {
            return Err(MarkovError::IndexOutOfBounds { index, dim });
        }
        let mut v = Self::zeros(dim);
        v.values[index] = 1.0;
        Ok(v)
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Immutable view of the underlying values.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the underlying values.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at `index` (0.0 if out of range, mirroring sparse semantics).
    pub fn get(&self, index: usize) -> f64 {
        self.values.get(index).copied().unwrap_or(0.0)
    }

    /// Sets the value at `index`.
    pub fn set(&mut self, index: usize, value: f64) -> Result<()> {
        let dim = self.values.len();
        match self.values.get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(MarkovError::IndexOutOfBounds { index, dim }),
        }
    }

    /// Plain sum of entries (the L1 norm of a probability vector).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|v| **v != 0.0).count()
    }

    /// Scales every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Normalizes the vector so its entries sum to 1. Fails on zero mass.
    pub fn normalize(&mut self) -> Result<()> {
        let total = self.sum();
        if total <= 0.0 || !total.is_finite() {
            return Err(MarkovError::ZeroMass);
        }
        self.scale(1.0 / total);
        Ok(())
    }

    /// Dot product with another dense vector.
    pub fn dot(&self, other: &DenseVector) -> Result<f64> {
        if self.dim() != other.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "dense dot product",
                expected: self.dim(),
                found: other.dim(),
            });
        }
        Ok(self.values.iter().zip(other.values.iter()).map(|(a, b)| a * b).sum())
    }

    /// Element-wise (Hadamard) product, used to condition a prior on an
    /// independent observation likelihood (Lemma 1 of the paper).
    pub fn hadamard(&self, other: &DenseVector) -> Result<DenseVector> {
        if self.dim() != other.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "hadamard product",
                expected: self.dim(),
                found: other.dim(),
            });
        }
        Ok(DenseVector {
            values: self.values.iter().zip(other.values.iter()).map(|(a, b)| a * b).collect(),
        })
    }

    /// Sums the entries whose state id is set in `mask`.
    pub fn masked_sum(&self, mask: &StateMask) -> f64 {
        // Iterating set bits is faster than scanning the whole vector when
        // the mask is small (query windows typically cover few states).
        if mask.count() * 4 < self.dim() {
            mask.iter().map(|i| self.get(i)).sum()
        } else {
            self.values.iter().enumerate().filter(|(i, _)| mask.contains(*i)).map(|(_, v)| *v).sum()
        }
    }

    /// Removes (returns and zeroes) the mass at states set in `mask`.
    ///
    /// This is the "redirect to the ⊤ state" step of the paper's `M+`
    /// matrix, applied virtually after an ordinary transition.
    pub fn extract_masked(&mut self, mask: &StateMask) -> f64 {
        let mut moved = 0.0;
        if mask.count() * 4 < self.dim() {
            for i in mask.iter() {
                if let Some(v) = self.values.get_mut(i) {
                    moved += std::mem::take(v);
                }
            }
        } else {
            for (i, v) in self.values.iter_mut().enumerate() {
                if mask.contains(i) {
                    moved += std::mem::take(v);
                }
            }
        }
        moved
    }

    /// Removes the entries of states in `mask`, returning them as a sparse
    /// vector (dense-side counterpart of
    /// [`crate::sparse_vec::SparseVector::split_masked`]).
    #[expect(
        clippy::expect_used,
        reason = "`StateMask::iter` yields only indices below the mask's dimension, which \
                  equals `self.dim()`."
    )]
    pub fn split_masked(&mut self, mask: &StateMask) -> crate::sparse_vec::SparseVector {
        let mut pairs = Vec::new();
        for i in mask.iter() {
            if let Some(v) = self.values.get_mut(i) {
                if *v != 0.0 {
                    pairs.push((i, *v));
                    *v = 0.0;
                }
            }
        }
        crate::sparse_vec::SparseVector::from_pairs(self.dim(), pairs)
            .expect("mask indices are within the vector dimension")
    }

    /// Largest entry and its index, or `None` for an empty vector.
    pub fn argmax(&self) -> Option<(usize, f64)> {
        self.values.iter().copied().enumerate().fold(None, |best, (i, v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
    }

    /// True when every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &DenseVector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self.values.iter().zip(other.values.iter()).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(values: Vec<f64>) -> Self {
        DenseVector::from_vec(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_unit() {
        let z = DenseVector::zeros(4);
        assert_eq!(z.dim(), 4);
        assert_eq!(z.sum(), 0.0);
        let u = DenseVector::unit(4, 2).unwrap();
        assert_eq!(u.get(2), 1.0);
        assert_eq!(u.nnz(), 1);
        assert!(DenseVector::unit(4, 4).is_err());
    }

    #[test]
    fn normalize_rescales_mass() {
        let mut v = DenseVector::from_vec(vec![1.0, 3.0]);
        v.normalize().unwrap();
        assert!(v.approx_eq(&DenseVector::from_vec(vec![0.25, 0.75]), 1e-12));
        let mut z = DenseVector::zeros(3);
        assert_eq!(z.normalize(), Err(MarkovError::ZeroMass));
    }

    #[test]
    fn dot_and_dimension_checks() {
        let a = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::from_vec(vec![0.5, 0.5, 0.0]);
        assert_eq!(a.dot(&b).unwrap(), 1.5);
        let c = DenseVector::zeros(2);
        assert!(a.dot(&c).is_err());
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = DenseVector::from_vec(vec![0.2, 0.8, 0.0]);
        let b = DenseVector::from_vec(vec![0.5, 0.5, 1.0]);
        let h = a.hadamard(&b).unwrap();
        assert!(h.approx_eq(&DenseVector::from_vec(vec![0.1, 0.4, 0.0]), 1e-12));
    }

    #[test]
    fn masked_sum_and_extract() {
        let mut v = DenseVector::from_vec(vec![0.1, 0.2, 0.3, 0.4]);
        let mask = StateMask::from_indices(4, [1usize, 3]).unwrap();
        assert!((v.masked_sum(&mask) - 0.6).abs() < 1e-12);
        let moved = v.extract_masked(&mask);
        assert!((moved - 0.6).abs() < 1e-12);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.get(3), 0.0);
        assert!((v.sum() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn masked_ops_handle_large_masks() {
        // Exercise the dense-scan branch (mask covering most states).
        let mut v = DenseVector::from_vec((0..100).map(|i| i as f64).collect());
        let mask = StateMask::from_indices(100, 0..90usize).unwrap();
        let expected: f64 = (0..90).map(|i| i as f64).sum();
        assert!((v.masked_sum(&mask) - expected).abs() < 1e-9);
        assert!((v.extract_masked(&mask) - expected).abs() < 1e-9);
    }

    #[test]
    fn argmax_finds_peak() {
        let v = DenseVector::from_vec(vec![0.1, 0.7, 0.2]);
        assert_eq!(v.argmax(), Some((1, 0.7)));
        assert_eq!(DenseVector::zeros(0).argmax(), None);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut v = DenseVector::zeros(3);
        v.set(1, 0.5).unwrap();
        assert_eq!(v.get(1), 0.5);
        assert_eq!(v.get(99), 0.0);
        assert!(v.set(3, 1.0).is_err());
    }
}
