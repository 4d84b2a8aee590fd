//! Homogeneous Markov chains over a discrete state space (Definition 5/6).
//!
//! [`MarkovChain`] bundles a validated transition matrix with the derived
//! artifacts query processing needs, each built lazily on first use and
//! cached: the sliced-row copy of `M` every backward step of the
//! query-based approach gathers through ([`MarkovChain::step_backward`]),
//! the transposed matrix (the forward reach schedules, and backward steps
//! of vectors on the sorted-index arm) — and distribution propagation
//! (Corollaries 1 and 2 of the paper).

use std::sync::OnceLock;

use crate::csr::{CsrMatrix, SpmvScratch};
use crate::dense::DenseVector;
use crate::error::{MarkovError, Result};
use crate::hybrid::PropagationVector;
use crate::kernels::{GatherArm, LevelPanel, SlicedRows};
use crate::sparse_vec::SparseVector;
use crate::stochastic::StochasticMatrix;

/// A homogeneous first-order Markov chain.
#[derive(Debug)]
pub struct MarkovChain {
    matrix: StochasticMatrix,
    transposed: OnceLock<CsrMatrix>,
    sliced: OnceLock<SlicedRows>,
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
        MarkovChain {
            matrix,
            transposed: OnceLock::new(),
            sliced: OnceLock::new(),
            max_line_nnz: OnceLock::new(),
        }
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

    /// The cached transposed matrix `Mᵀ` (computed on first use). It serves
    /// the forward reach schedules and the backward steps of vectors on the
    /// sorted-index arm; a chain that only runs span-arm backward sweeps
    /// never builds it.
    pub fn transposed(&self) -> &CsrMatrix {
        self.transposed.get_or_init(|| self.matrix.transposed())
    }

    /// The most stored entries of any row or column of `M` — the longest
    /// sum one backward (row) or forward (column) step accumulates per
    /// state. Read off the sliced copy of `M` backward steps gather
    /// through (its widest slice and its per-column entry counts), built
    /// here if no backward step has run yet; computed on first use.
    pub fn max_line_nnz(&self) -> usize {
        *self.max_line_nnz.get_or_init(|| self.sliced().max_line_nnz())
    }

    /// The sliced-row copy of `M` (built on first use).
    fn sliced(&self) -> &SlicedRows {
        self.sliced.get_or_init(|| SlicedRows::new(self.matrix()))
    }

    /// One backward step `h ← M · h` of the vector `h` (Section V-B's
    /// query-based recurrence), on the widest gather arm the CPU has; an
    /// empty vector stays as it is.
    ///
    /// A span-arm vector takes one dot product per row of `M`, gathered
    /// through the chain's sliced-row copy of `M` (built on first use); a
    /// vector whose sources scatter, or that is on the sorted-index arm,
    /// takes the sorted-index scatter over [`Self::transposed`]. Per
    /// output slot the terms add in ascending source order either way, so
    /// the result is bit-identical to [`PropagationVector::step`] over
    /// `Mᵀ`.
    pub fn step_backward(
        &self,
        h: &mut PropagationVector,
        scratch: &mut SpmvScratch,
    ) -> Result<()> {
        self.step_backward_on(GatherArm::detect(), h, scratch)
    }

    /// As [`Self::step_backward`] on an explicit gather arm — one the CPU
    /// lacks runs the scalar arm. Every arm gives the same bits.
    pub fn step_backward_on(
        &self,
        arm: GatherArm,
        h: &mut PropagationVector,
        scratch: &mut SpmvScratch,
    ) -> Result<()> {
        self.check_backward("backward step", h.dim())?;
        if h.nnz() == 0 {
            return Ok(());
        }
        h.step_backward(self.sliced(), || self.transposed(), arm, scratch)
    }

    /// One backward step `h ← M · h` of every level of a k-times field,
    /// interleaved in `panel`, on the widest arm the CPU has: one walk over
    /// `M`'s rows for all levels, its output range read off the column
    /// table of the chain's sliced-row copy of `M`. Each level's bits are
    /// those of [`Self::step_backward`] on that level alone.
    pub fn step_levels_backward(&self, panel: &mut LevelPanel) -> Result<()> {
        self.step_levels_backward_on(GatherArm::detect(), panel)
    }

    /// As [`Self::step_levels_backward`] on an explicit arm — one the CPU
    /// lacks runs the scalar arm. Every arm gives the same bits.
    pub fn step_levels_backward_on(&self, arm: GatherArm, panel: &mut LevelPanel) -> Result<()> {
        self.check_backward("level panel step", panel.dim())?;
        panel.step_backward(self.matrix(), self.sliced(), arm);
        Ok(())
    }

    /// Fails unless a backward operand of dimension `found` fits the chain.
    fn check_backward(&self, op: &'static str, found: usize) -> Result<()> {
        if found == self.num_states() {
            return Ok(());
        }
        Err(MarkovError::DimensionMismatch { op, expected: self.num_states(), found })
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
    fn max_line_nnz_reads_the_sliced_copy_without_transposing() {
        // Rows fan out to 1..=5 successors and columns collect from up to
        // 5 predecessors, so either line kind can be the widest. (Random
        // chains: `tests/proptests.rs`.)
        for n in [1usize, 2, 7, 23, 60] {
            for spread in [1usize, 3, 5] {
                let mut builder = crate::coo::CooBuilder::new(n, n);
                for i in 0..n {
                    let successors = 1 + (i * spread) % 5;
                    for k in 0..successors {
                        builder.push(i, (i * 3 + k) % n, 1.0).unwrap();
                    }
                }
                let chain = MarkovChain::from_weights(builder.build()).unwrap();
                let widest = chain.max_line_nnz();
                assert!(chain.transposed.get().is_none(), "reading it builds no Mᵀ");
                let lines = [chain.matrix(), chain.transposed()];
                let old = lines.iter().flat_map(|m| (0..m.nrows()).map(|i| m.row_nnz(i))).max();
                assert_eq!(widest, old.unwrap_or(0), "n = {n}, spread = {spread}");
            }
        }
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
