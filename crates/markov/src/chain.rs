//! Homogeneous Markov chains over a discrete state space (Definition 5/6).
//!
//! [`MarkovChain`] bundles a validated transition matrix with the derived
//! artifacts query processing needs: the transposed matrix (built lazily and
//! cached — the query-based approach uses it for every backward step) and
//! distribution propagation (Corollaries 1 and 2 of the paper).

use std::sync::OnceLock;

use crate::csr::{CsrMatrix, SpmvScratch};
use crate::dense::DenseVector;
use crate::error::Result;
use crate::sparse_vec::SparseVector;
use crate::stochastic::StochasticMatrix;

/// A homogeneous first-order Markov chain.
#[derive(Debug)]
pub struct MarkovChain {
    matrix: StochasticMatrix,
    transposed: OnceLock<CsrMatrix>,
    max_line_nnz: OnceLock<usize>,
}

impl Clone for MarkovChain {
    fn clone(&self) -> Self {
        MarkovChain::new(self.matrix.clone())
    }
}

impl MarkovChain {
    /// Wraps a validated transition matrix.
    pub fn new(matrix: StochasticMatrix) -> Self {
        MarkovChain { matrix, transposed: OnceLock::new(), max_line_nnz: OnceLock::new() }
    }

    /// Validates `matrix` and wraps it.
    pub fn from_csr(matrix: CsrMatrix) -> Result<Self> {
        Ok(Self::new(StochasticMatrix::new(matrix)?))
    }

    /// Builds a chain by row-normalizing arbitrary non-negative weights.
    pub fn from_weights(matrix: CsrMatrix) -> Result<Self> {
        Ok(Self::new(StochasticMatrix::normalize(matrix)?))
    }

    /// Number of states `|S|`.
    pub fn num_states(&self) -> usize {
        self.matrix.dim()
    }

    /// The validated transition matrix.
    pub fn stochastic(&self) -> &StochasticMatrix {
        &self.matrix
    }

    /// The raw CSR transition matrix `M`.
    pub fn matrix(&self) -> &CsrMatrix {
        self.matrix.matrix()
    }

    /// The cached transposed matrix `Mᵀ` (computed on first use).
    pub fn transposed(&self) -> &CsrMatrix {
        self.transposed.get_or_init(|| self.matrix.transposed())
    }

    /// The most stored entries of any row or column of `M` — the longest
    /// sum one backward (row) or forward (column) step accumulates per
    /// state (computed on first use).
    pub fn max_line_nnz(&self) -> usize {
        *self.max_line_nnz.get_or_init(|| {
            [self.matrix(), self.transposed()]
                .into_iter()
                .flat_map(|m| (0..m.nrows()).map(move |i| m.row_nnz(i)))
                .max()
                .unwrap_or(0)
        })
    }

    /// One forward step: `P(o, t+1) = P(o, t) · M` (Corollary 1).
    pub fn step_dense(&self, dist: &DenseVector) -> Result<DenseVector> {
        self.matrix().vecmat_dense(dist)
    }

    /// One forward step on a sparse distribution.
    pub fn step_sparse(
        &self,
        dist: &SparseVector,
        scratch: &mut SpmvScratch,
    ) -> Result<SparseVector> {
        self.matrix().vecmat_sparse_with(dist, scratch)
    }

    /// `m` forward steps: `P(o, t+m) = P(o, t) · M^m` (Corollary 2),
    /// evaluated as `m` successive vector-matrix products (cheaper than
    /// materializing `M^m` unless the power is reused many times).
    pub fn propagate_dense(&self, dist: &DenseVector, m: u32) -> Result<DenseVector> {
        let mut current = dist.clone();
        for _ in 0..m {
            current = self.step_dense(&current)?;
        }
        Ok(current)
    }

    /// `m` forward steps on a sparse distribution.
    pub fn propagate_sparse(&self, dist: &SparseVector, m: u32) -> Result<SparseVector> {
        let mut scratch = SpmvScratch::new();
        let mut current = dist.clone();
        for _ in 0..m {
            current = self.step_sparse(&current, &mut scratch)?;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_chain() -> MarkovChain {
        MarkovChain::from_csr(
            CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn propagation_matches_worked_example() {
        let chain = paper_chain();
        let p0 = DenseVector::from_vec(vec![0.0, 1.0, 0.0]);
        let p2 = chain.propagate_dense(&p0, 2).unwrap();
        assert!(p2.approx_eq(&DenseVector::from_vec(vec![0.0, 0.32, 0.68]), 1e-12));
        let sparse = chain.propagate_sparse(&SparseVector::unit(3, 1).unwrap(), 2).unwrap();
        assert!(sparse.to_dense().approx_eq(&p2, 1e-12));
    }

    #[test]
    fn transposed_is_cached_and_correct() {
        let chain = paper_chain();
        let t1 = chain.transposed() as *const CsrMatrix;
        let t2 = chain.transposed() as *const CsrMatrix;
        assert_eq!(t1, t2, "transpose should be computed once");
        assert_eq!(chain.transposed().get(0, 1), 0.6);
    }

    #[test]
    fn from_weights_normalizes() {
        let raw = CsrMatrix::from_dense(&[vec![3.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let chain = MarkovChain::from_weights(raw).unwrap();
        assert_eq!(chain.matrix().get(0, 0), 0.75);
        assert_eq!(chain.num_states(), 2);
    }

    #[test]
    fn clone_preserves_matrix() {
        let chain = paper_chain();
        let _ = chain.transposed();
        let cloned = chain.clone();
        assert_eq!(cloned.matrix().get(1, 0), 0.6);
        assert_eq!(cloned.transposed().get(0, 1), 0.6);
    }
}
