//! Row-stochastic transition matrices (Definition 5/6 of the paper).
//!
//! A [`StochasticMatrix`] wraps a [`CsrMatrix`] whose rows are valid discrete
//! probability distributions: all entries non-negative and every row summing
//! to 1 (within a numerical tolerance). The paper assumes the single-step
//! transition probabilities `P_{i,j}` are given (expert knowledge or learned
//! from historical data); this type is the validated carrier of that input.

use crate::csr::CsrMatrix;
use crate::error::{MarkovError, Result};

/// Default tolerance for row-sum validation.
pub const ROW_SUM_TOLERANCE: f64 = 1e-9;

/// A validated row-stochastic square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticMatrix {
    inner: CsrMatrix,
}

impl StochasticMatrix {
    /// Validates `matrix` as row-stochastic with the default tolerance.
    ///
    /// Rows are required to be square, non-negative, and sum to
    /// `1 ± ROW_SUM_TOLERANCE`. Rows with **zero** stored entries are
    /// rejected as well: every state needs *somewhere* to go (a sink state
    /// should carry an explicit self-loop instead).
    pub fn new(matrix: CsrMatrix) -> Result<Self> {
        Self::with_tolerance(matrix, ROW_SUM_TOLERANCE)
    }

    /// Validates with a caller-supplied tolerance.
    pub fn with_tolerance(matrix: CsrMatrix, tol: f64) -> Result<Self> {
        let (nrows, ncols) = matrix.shape();
        if nrows != ncols {
            return Err(MarkovError::DimensionMismatch {
                op: "stochastic matrix (square)",
                expected: nrows,
                found: ncols,
            });
        }
        for i in 0..nrows {
            let (_, vals) = matrix.row(i);
            let mut sum = 0.0;
            for &v in vals {
                if v < 0.0 {
                    return Err(MarkovError::InvalidProbability { value: v });
                }
                sum += v;
            }
            if (sum - 1.0).abs() > tol {
                return Err(MarkovError::NotStochastic { row: i, sum });
            }
        }
        Ok(StochasticMatrix { inner: matrix })
    }

    /// Normalizes each row of `matrix` to sum to 1, then wraps it.
    ///
    /// This mirrors the paper's treatment of the road-network datasets:
    /// "the value of the non-zero entries of one line in the matrix are set
    /// randomly and sum up to one". Rows with zero mass receive a self-loop.
    pub fn normalize(matrix: CsrMatrix) -> Result<Self> {
        let (nrows, ncols) = matrix.shape();
        if nrows != ncols {
            return Err(MarkovError::DimensionMismatch {
                op: "stochastic matrix (square)",
                expected: nrows,
                found: ncols,
            });
        }
        let mut builder = crate::coo::CooBuilder::with_capacity(nrows, ncols, matrix.nnz());
        for i in 0..nrows {
            let (cols, vals) = matrix.row(i);
            let sum: f64 = vals.iter().map(|v| v.abs()).sum();
            if sum == 0.0 {
                builder.push(i, i, 1.0)?;
            } else {
                for (&c, &v) in cols.iter().zip(vals) {
                    builder.push(i, c as usize, v.abs() / sum)?;
                }
            }
        }
        StochasticMatrix::new(builder.build())
    }

    /// The identity chain (every state loops to itself).
    pub fn identity(n: usize) -> Self {
        StochasticMatrix { inner: CsrMatrix::identity(n) }
    }

    /// Number of states.
    pub fn dim(&self) -> usize {
        self.inner.nrows()
    }

    /// Read access to the underlying CSR matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.inner
    }

    /// The transposed (no longer stochastic) matrix, needed by the
    /// query-based backward pass.
    pub fn transposed(&self) -> CsrMatrix {
        self.inner.transpose()
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
    fn accepts_valid_stochastic_matrix() {
        let m = StochasticMatrix::new(paper_matrix()).unwrap();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.matrix().nnz(), 5);
    }

    #[test]
    fn rejects_bad_row_sum() {
        let bad = CsrMatrix::from_dense(&[vec![0.5, 0.4], vec![0.0, 1.0]]).unwrap();
        match StochasticMatrix::new(bad) {
            Err(MarkovError::NotStochastic { row: 0, sum }) => assert!((sum - 0.9).abs() < 1e-12),
            other => panic!("expected NotStochastic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_negative_entries() {
        let bad = CsrMatrix::from_dense(&[vec![1.5, -0.5], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(StochasticMatrix::new(bad), Err(MarkovError::InvalidProbability { .. })));
    }

    #[test]
    fn rejects_empty_rows() {
        let bad = CsrMatrix::from_dense(&[vec![0.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            StochasticMatrix::new(bad),
            Err(MarkovError::NotStochastic { row: 0, .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let bad = CsrMatrix::from_dense(&[vec![0.5, 0.5, 0.0]]).unwrap();
        assert!(StochasticMatrix::new(bad).is_err());
        assert!(StochasticMatrix::normalize(bad2()).is_err());
        fn bad2() -> CsrMatrix {
            CsrMatrix::from_dense(&[vec![0.5, 0.5, 0.0]]).unwrap()
        }
    }

    #[test]
    fn normalize_rescales_rows_and_fixes_sinks() {
        let raw = CsrMatrix::from_dense(&[
            vec![2.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.0], // sink: becomes a self-loop
            vec![0.0, 3.0, 1.0],
        ])
        .unwrap();
        let m = StochasticMatrix::normalize(raw).unwrap();
        assert_eq!(m.matrix().get(0, 0), 0.5);
        assert_eq!(m.matrix().get(1, 1), 1.0);
        assert_eq!(m.matrix().get(2, 1), 0.75);
    }

    #[test]
    fn identity_is_all_absorbing() {
        let id = StochasticMatrix::identity(4);
        assert_eq!(id.matrix().nnz(), 4);
        assert!((0..4).all(|i| id.matrix().get(i, i) == 1.0));
    }

    #[test]
    fn transposed_columns_become_rows() {
        let m = StochasticMatrix::new(paper_matrix()).unwrap();
        let t = m.transposed();
        assert_eq!(t.get(0, 1), 0.6);
        assert_eq!(t.get(2, 0), 1.0);
    }
}
