//! Sparse probability/weight vectors.
//!
//! Object location distributions start extremely sparse — the paper's
//! `object_spread` parameter defaults to 5 possible start states out of
//! 100,000 — and only densify as the Markov chain mixes. A coordinate-sorted
//! sparse vector keeps per-transition cost proportional to the *reachable*
//! state count `|S_reach|` rather than `|S|`, which is exactly the cost model
//! analysed in Section V-C of the paper.

use crate::dense::DenseVector;
use crate::error::{MarkovError, Result};
use crate::mask::StateMask;

/// A sparse `f64` vector: strictly ascending indices with matching values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// An empty (all-zero) vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SparseVector { dim, indices: Vec::new(), values: Vec::new() }
    }

    /// A one-hot vector with `1.0` at `index`.
    pub fn unit(dim: usize, index: usize) -> Result<Self> {
        if index >= dim {
            return Err(MarkovError::IndexOutOfBounds { index, dim });
        }
        Ok(SparseVector { dim, indices: vec![index as u32], values: vec![1.0] })
    }

    /// Builds from `(index, value)` pairs; duplicate indices are summed and
    /// zero entries dropped.
    pub fn from_pairs<I>(dim: usize, pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        let mut entries: Vec<(usize, f64)> = pairs.into_iter().collect();
        for &(index, _) in &entries {
            if index >= dim {
                return Err(MarkovError::IndexOutOfBounds { index, dim });
            }
        }
        entries.sort_unstable_by_key(|(i, _)| *i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if let (Some(last_i), Some(last_v)) = (indices.last(), values.last_mut()) {
                if *last_i == i as u32 {
                    *last_v += v;
                    continue;
                }
            }
            indices.push(i as u32);
            values.push(v);
        }
        let mut out = SparseVector { dim, indices, values };
        out.retain_nonzero();
        Ok(out)
    }

    /// Assembles a vector from parts the caller guarantees are already
    /// strictly ascending, in range and free of explicit zeros — the
    /// allocation-free construction used by the batched kernels, whose
    /// gather pass establishes exactly these invariants.
    pub(crate) fn from_sorted_parts(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices strictly ascending");
        debug_assert!(indices.last().is_none_or(|&i| (i as usize) < dim), "indices in range");
        debug_assert!(values.iter().all(|v| *v != 0.0), "no explicit zeros");
        SparseVector { dim, indices, values }
    }

    /// Consumes the vector, returning its `(indices, values)` storage so
    /// the batched kernels can recycle the buffers through their pools.
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<f64>) {
        (self.indices, self.values)
    }

    /// Converts a dense vector, keeping entries with `|v| > threshold`.
    pub fn from_dense(dense: &DenseVector, threshold: f64) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in dense.as_slice().iter().enumerate() {
            if v.abs() > threshold {
                indices.push(i as u32);
                values.push(*v);
            }
        }
        SparseVector { dim: dense.dim(), indices, values }
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        let mut out = DenseVector::zeros(self.dim);
        for (i, v) in self.iter() {
            out.as_mut_slice()[i] = v;
        }
        out
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Value at `index` via binary search (0.0 when absent).
    pub fn get(&self, index: usize) -> f64 {
        match self.indices.binary_search(&(index as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates `(index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices.iter().zip(self.values.iter()).map(|(i, v)| (*i as usize, *v))
    }

    /// Stored indices (ascending).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sum of entries.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Scales all entries.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Normalizes entries to sum to 1.
    pub fn normalize(&mut self) -> Result<()> {
        let total = self.sum();
        if total <= 0.0 || !total.is_finite() {
            return Err(MarkovError::ZeroMass);
        }
        self.scale(1.0 / total);
        Ok(())
    }

    /// Drops entries with `|v| <= threshold` (ε-pruning). Returns the total
    /// absolute mass dropped so callers can bound the introduced error.
    pub fn prune(&mut self, threshold: f64) -> f64 {
        let mut dropped = 0.0;
        let mut keep_i = Vec::with_capacity(self.indices.len());
        let mut keep_v = Vec::with_capacity(self.values.len());
        for (i, v) in self.indices.iter().zip(self.values.iter()) {
            if v.abs() > threshold {
                keep_i.push(*i);
                keep_v.push(*v);
            } else {
                dropped += v.abs();
            }
        }
        self.indices = keep_i;
        self.values = keep_v;
        dropped
    }

    fn retain_nonzero(&mut self) {
        self.prune(0.0);
    }

    /// Dot product with a dense vector.
    pub fn dot_dense(&self, dense: &DenseVector) -> Result<f64> {
        if self.dim != dense.dim() {
            return Err(MarkovError::DimensionMismatch {
                op: "sparse·dense dot product",
                expected: self.dim,
                found: dense.dim(),
            });
        }
        let slice = dense.as_slice();
        Ok(self.iter().map(|(i, v)| v * slice[i]).sum())
    }

    /// Element-wise (Hadamard) product with another sparse vector.
    pub fn hadamard(&self, other: &SparseVector) -> Result<SparseVector> {
        if self.dim != other.dim {
            return Err(MarkovError::DimensionMismatch {
                op: "sparse hadamard",
                expected: self.dim,
                found: other.dim,
            });
        }
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    let v = self.values[a] * other.values[b];
                    if v != 0.0 {
                        indices.push(self.indices[a]);
                        values.push(v);
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
        Ok(SparseVector { dim: self.dim, indices, values })
    }

    /// `self + other`.
    pub fn add(&self, other: &SparseVector) -> Result<SparseVector> {
        if self.dim != other.dim {
            return Err(MarkovError::DimensionMismatch {
                op: "sparse add",
                expected: self.dim,
                found: other.dim,
            });
        }
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() || b < other.indices.len() {
            let ai = self.indices.get(a).copied().unwrap_or(u32::MAX);
            let bi = other.indices.get(b).copied().unwrap_or(u32::MAX);
            match ai.cmp(&bi) {
                std::cmp::Ordering::Less => {
                    indices.push(ai);
                    values.push(self.values[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    indices.push(bi);
                    values.push(other.values[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    let v = self.values[a] + other.values[b];
                    if v != 0.0 {
                        indices.push(ai);
                        values.push(v);
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
        Ok(SparseVector { dim: self.dim, indices, values })
    }

    /// Sums entries whose state is in `mask`.
    pub fn masked_sum(&self, mask: &StateMask) -> f64 {
        self.iter().filter(|(i, _)| mask.contains(*i)).map(|(_, v)| v).sum()
    }

    /// Removes the entries of states in `mask`, returning them as their own
    /// sparse vector. Used by the k-times `C(t)` shift: the mass extracted
    /// from count-level `k` is re-inserted at level `k + 1`.
    pub fn split_masked(&mut self, mask: &StateMask) -> SparseVector {
        let mut out_i = Vec::new();
        let mut out_v = Vec::new();
        let mut keep_i = Vec::with_capacity(self.indices.len());
        let mut keep_v = Vec::with_capacity(self.values.len());
        for (i, v) in self.indices.iter().zip(self.values.iter()) {
            if mask.contains(*i as usize) {
                out_i.push(*i);
                out_v.push(*v);
            } else {
                keep_i.push(*i);
                keep_v.push(*v);
            }
        }
        self.indices = keep_i;
        self.values = keep_v;
        SparseVector { dim: self.dim, indices: out_i, values: out_v }
    }

    /// Keeps only the entries of states in `mask`, compacting the storage
    /// in place; returns the mass dropped (summed in ascending state
    /// order). The forward pipeline's reach trimming: the kept entries
    /// are untouched, so nothing downstream of them can move by a bit.
    pub fn retain_masked(&mut self, mask: &StateMask) -> f64 {
        let mut dropped = 0.0;
        let mut kept = 0usize;
        for pos in 0..self.indices.len() {
            let (i, v) = (self.indices[pos], self.values[pos]);
            if mask.contains(i as usize) {
                self.indices[kept] = i;
                self.values[kept] = v;
                kept += 1;
            } else {
                dropped += v;
            }
        }
        self.indices.truncate(kept);
        self.values.truncate(kept);
        dropped
    }

    /// Removes (returns and zeroes) the mass of states in `mask`; the
    /// sparse-side implementation of the `M+` redirect-to-⊤ step.
    pub fn extract_masked(&mut self, mask: &StateMask) -> f64 {
        let mut moved = 0.0;
        let mut keep_i = Vec::with_capacity(self.indices.len());
        let mut keep_v = Vec::with_capacity(self.values.len());
        for (i, v) in self.indices.iter().zip(self.values.iter()) {
            if mask.contains(*i as usize) {
                moved += *v;
            } else {
                keep_i.push(*i);
                keep_v.push(*v);
            }
        }
        self.indices = keep_i;
        self.values = keep_v;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_dedups_and_drops_zeros() {
        let v = SparseVector::from_pairs(10, [(7, 0.5), (2, 0.25), (7, 0.25), (3, 0.0)]).unwrap();
        assert_eq!(v.indices(), &[2, 7]);
        assert_eq!(v.values(), &[0.25, 0.75]);
        assert_eq!(v.nnz(), 2);
        assert!(SparseVector::from_pairs(3, [(3, 1.0)]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let d = DenseVector::from_vec(vec![0.0, 0.5, 0.0, 0.5]);
        let s = SparseVector::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 2);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn get_uses_binary_search() {
        let v = SparseVector::from_pairs(100, [(10, 0.1), (50, 0.9)]).unwrap();
        assert_eq!(v.get(10), 0.1);
        assert_eq!(v.get(50), 0.9);
        assert_eq!(v.get(11), 0.0);
    }

    #[test]
    fn dot_products_agree_with_dense() {
        let a = SparseVector::from_pairs(6, [(0, 1.0), (3, 2.0), (5, 3.0)]).unwrap();
        let b = SparseVector::from_pairs(6, [(3, 0.5), (4, 9.0), (5, 1.0)]).unwrap();
        let expected = a.to_dense().dot(&b.to_dense()).unwrap();
        assert!((a.dot_dense(&b.to_dense()).unwrap() - expected).abs() < 1e-12);
        assert!(a.dot_dense(&DenseVector::zeros(5)).is_err());
    }

    #[test]
    fn add_merges_indices() {
        let a = SparseVector::from_pairs(6, [(0, 1.0), (3, 2.0)]).unwrap();
        let b = SparseVector::from_pairs(6, [(3, -2.0), (5, 1.0)]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.indices(), &[0, 5]); // the 3-entry cancelled exactly
        assert!(a.add(&SparseVector::zeros(2)).is_err());
    }

    #[test]
    fn hadamard_keeps_shared_support() {
        let a = SparseVector::from_pairs(6, [(1, 0.5), (2, 0.5)]).unwrap();
        let b = SparseVector::from_pairs(6, [(2, 0.4), (3, 0.6)]).unwrap();
        let h = a.hadamard(&b).unwrap();
        assert_eq!(h.indices(), &[2]);
        assert!((h.values()[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn prune_reports_dropped_mass() {
        let mut v = SparseVector::from_pairs(5, [(0, 1e-9), (1, 0.5), (2, -1e-9)]).unwrap();
        let dropped = v.prune(1e-6);
        assert!((dropped - 2e-9).abs() < 1e-15);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn normalize_and_zero_mass() {
        let mut v = SparseVector::from_pairs(4, [(1, 2.0), (2, 2.0)]).unwrap();
        v.normalize().unwrap();
        assert!((v.sum() - 1.0).abs() < 1e-12);
        let mut z = SparseVector::zeros(4);
        assert_eq!(z.normalize(), Err(MarkovError::ZeroMass));
    }

    #[test]
    fn masked_extract_moves_mass() {
        let mut v = SparseVector::from_pairs(8, [(1, 0.3), (4, 0.2), (6, 0.5)]).unwrap();
        let mask = StateMask::from_indices(8, [4usize, 6]).unwrap();
        assert!((v.masked_sum(&mask) - 0.7).abs() < 1e-12);
        let moved = v.extract_masked(&mask);
        assert!((moved - 0.7).abs() < 1e-12);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(1), 0.3);
    }

    #[test]
    fn retain_masked_compacts_in_place_and_reports_dropped_mass() {
        let mut v = SparseVector::from_pairs(8, [(1, 0.3), (4, 0.2), (6, 0.5)]).unwrap();
        let mask = StateMask::from_indices(8, [4usize, 5]).unwrap();
        assert_eq!(v.retain_masked(&mask), 0.3 + 0.5);
        assert_eq!(v.indices(), &[4]);
        assert_eq!(v.values(), &[0.2]);
        assert_eq!(v.retain_masked(&StateMask::full(8)), 0.0);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.retain_masked(&StateMask::new(8)), 0.2);
        assert_eq!(v.nnz(), 0);
    }
}
