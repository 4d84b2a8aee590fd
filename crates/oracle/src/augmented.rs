//! Explicit construction of the paper's augmented transition matrices.
//!
//! Section V introduces the absorbing "true hit" state ⊤ and the two derived
//! matrices
//!
//! ```text
//! M− = | M        0 |        M+ = | M'   sum(S▫) |
//!      | 0ᵀ       1 |             | 0    1       |
//! ```
//!
//! where `M'` is `M` with the columns of the query states `S▫` zeroed and
//! `sum(S▫)` collects the removed row mass, i.e. worlds entering `S▫` are
//! redirected into ⊤. Section VI doubles the state space (hit / not-hit
//! copies) so multiple observations can re-weight worlds after a hit, and
//! Section VII blows the space up by a hit-count level `k ∈ {0..|T▫|}`.
//!
//! The production engines apply these operators *virtually* (they never
//! materialize the augmented matrices; see `ust-core::engine`). The explicit
//! constructions below serve as the executable specification the engines are
//! cross-checked against, and remain practical for small state spaces —
//! with [`ktimes_distribution_blowup`], the k-times answer read off them.

#![expect(
    clippy::expect_used,
    reason = "every `builder.push` here writes indices derived from the loop bounds of the \
              matrix being built (row `i < n`, augmented offsets `off + i < dim`), so the \
              bounds checks cannot fire; the construction is a direct transcription of the \
              paper's block matrices and a Result-laden builder would bury the structure."
)]

use ust_markov::{CooBuilder, CsrMatrix, DenseVector, MarkovChain, SparseVector, StateMask};
use ust_space::TimeSet;

use crate::error::Result;
use crate::exhaustive::check_inputs;

/// Index of the absorbing ⊤ state in the `exists_*` matrices.
pub fn top_index(num_states: usize) -> usize {
    num_states
}

/// `M−` for the PST∃Q: `M` plus an absorbing ⊤ state (index `n`).
pub fn exists_minus(m: &CsrMatrix) -> CsrMatrix {
    let n = m.nrows();
    let mut builder = CooBuilder::with_capacity(n + 1, n + 1, m.nnz() + 1);
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            builder.push(i, c as usize, v).expect("index within bounds");
        }
    }
    builder.push(n, n, 1.0).expect("top state within bounds");
    builder.build()
}

/// `M+` for the PST∃Q: transitions entering a state of `window` are
/// redirected into the absorbing ⊤ state.
pub fn exists_plus(m: &CsrMatrix, window: &StateMask) -> CsrMatrix {
    let n = m.nrows();
    let top = top_index(n);
    let mut builder = CooBuilder::with_capacity(n + 1, n + 1, m.nnz() + 1);
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            if window.contains(c as usize) {
                builder.push(i, top, v).expect("index within bounds");
            } else {
                builder.push(i, c as usize, v).expect("index within bounds");
            }
        }
    }
    builder.push(top, top, 1.0).expect("top state within bounds");
    builder.build()
}

/// `M−` for the doubled state space of Section VI: block-diagonal
/// `diag(M, M)`. States `0..n` are "not yet hit", `n..2n` are "hit at s".
pub fn doubled_minus(m: &CsrMatrix) -> CsrMatrix {
    let n = m.nrows();
    let mut builder = CooBuilder::with_capacity(2 * n, 2 * n, 2 * m.nnz());
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            builder.push(i, c as usize, v).expect("index within bounds");
            builder.push(n + i, n + c as usize, v).expect("index within bounds");
        }
    }
    builder.build()
}

/// `M+` for the doubled state space: not-yet-hit worlds entering `window`
/// move to the *hit* copy of the entered state, preserving location identity
/// so later observations can still re-weight them:
///
/// ```text
/// M+ = | M − M'   M' |
///      | 0        M  |
/// ```
pub fn doubled_plus(m: &CsrMatrix, window: &StateMask) -> CsrMatrix {
    let n = m.nrows();
    let mut builder = CooBuilder::with_capacity(2 * n, 2 * n, 2 * m.nnz());
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let c = c as usize;
            if window.contains(c) {
                builder.push(i, n + c, v).expect("index within bounds");
            } else {
                builder.push(i, c, v).expect("index within bounds");
            }
            builder.push(n + i, n + c, v).expect("index within bounds");
        }
    }
    builder.build()
}

/// `M−` for the k-times blow-up of Section VII: `levels` copies of `M` on
/// the block diagonal. State `(k, s)` is encoded as `k·n + s`.
pub fn ktimes_minus(m: &CsrMatrix, levels: usize) -> CsrMatrix {
    let n = m.nrows();
    let dim = levels * n;
    let mut builder = CooBuilder::with_capacity(dim, dim, levels * m.nnz());
    for level in 0..levels {
        let off = level * n;
        for i in 0..n {
            let (cols, vals) = m.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                builder.push(off + i, off + c as usize, v).expect("index within bounds");
            }
        }
    }
    builder.build()
}

/// `M+` for the k-times blow-up: entering `window` increments the level.
/// The top level saturates (its count can no longer grow), keeping the
/// matrix stochastic.
pub fn ktimes_plus(m: &CsrMatrix, window: &StateMask, levels: usize) -> CsrMatrix {
    let n = m.nrows();
    let dim = levels * n;
    let mut builder = CooBuilder::with_capacity(dim, dim, levels * m.nnz());
    for level in 0..levels {
        let off = level * n;
        let next_off = if level + 1 < levels { off + n } else { off };
        for i in 0..n {
            let (cols, vals) = m.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if window.contains(c) {
                    builder.push(off + i, next_off + c, v).expect("index within bounds");
                } else {
                    builder.push(off + i, off + c, v).expect("index within bounds");
                }
            }
        }
    }
    builder.build()
}

/// Validates that an augmented matrix is still row-stochastic — every
/// construction in this module must preserve total probability mass.
pub fn assert_stochastic(m: &CsrMatrix) -> Result<()> {
    ust_markov::StochasticMatrix::new(m.clone())?;
    Ok(())
}

/// PSTkQ over the explicit blown-up matrices of Section VII
/// (`S′ = S × {0..|T▫|}`): `P(k)` for `k ∈ {0..|T▫|}` of an object
/// anchored at `anchor = (time, distribution)`. Exponential memory in
/// nothing, but `(|T▫|+1)·|S|`-dimensional — for small instances only.
pub fn ktimes_distribution_blowup(
    chain: &MarkovChain,
    anchor: (u32, &SparseVector),
    states: &StateMask,
    times: &TimeSet,
) -> Result<Vec<f64>> {
    check_inputs(chain, &[anchor], states, times)?;
    let (t0, distribution) = anchor;
    let n = chain.num_states();
    let levels = times.len() + 1;
    let minus = ktimes_minus(chain.matrix(), levels);
    let plus = ktimes_plus(chain.matrix(), states, levels);

    let mut v = DenseVector::zeros(levels * n);
    for (s, p) in distribution.iter() {
        // Footnote 3: anchor mass inside the window starts at level 1.
        let level = usize::from(times.contains(t0) && states.contains(s));
        v.set(level * n + s, p)?;
    }
    for t in t0..times.max().unwrap_or(t0) {
        let m = if times.contains(t + 1) { &plus } else { &minus };
        v = m.vecmat_dense(&v)?;
    }
    Ok((0..levels).map(|k| (0..n).map(|s| v.get(k * n + s)).sum()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]])
            .unwrap()
    }

    fn window_s1_s2() -> StateMask {
        StateMask::from_indices(3, [0usize, 1]).unwrap()
    }

    #[test]
    fn exists_matrices_match_example_1() {
        // Example 1 of the paper gives M− and M+ explicitly.
        let m = paper_matrix();
        let minus = exists_minus(&m);
        let expected_minus = CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0, 0.0],
            vec![0.6, 0.0, 0.4, 0.0],
            vec![0.0, 0.8, 0.2, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert!(minus.approx_eq(&expected_minus, 1e-12));

        let plus = exists_plus(&m, &window_s1_s2());
        let expected_plus = CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.4, 0.6],
            vec![0.0, 0.0, 0.2, 0.8],
            vec![0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert!(plus.approx_eq(&expected_plus, 1e-12));
    }

    #[test]
    fn example_1_propagation_yields_0864() {
        // Full worked example: object at s2 at t=0, S▫={s1,s2}, T▫={2,3}.
        let m = paper_matrix();
        let minus = exists_minus(&m);
        let plus = exists_plus(&m, &window_s1_s2());
        let p0 = DenseVector::from_vec(vec![0.0, 1.0, 0.0, 0.0]);
        let p1 = minus.vecmat_dense(&p0).unwrap();
        assert!(p1.approx_eq(&DenseVector::from_vec(vec![0.6, 0.0, 0.4, 0.0]), 1e-12));
        // Note: the paper's Example 1 prints the intermediate vector as
        // (0, 0, 0.64, 0.36), which contradicts its own Section V-A
        // narrative (hit mass 0.32 at t=2, remainder 0.68 at s3) *and* its
        // final vector (0, 0, 0.136, 0.864). The value below is the one
        // consistent with both: 0.4·0.8 = 0.32 hit, 0.6·1 + 0.4·0.2 = 0.68.
        let p2 = plus.vecmat_dense(&p1).unwrap();
        assert!(p2.approx_eq(&DenseVector::from_vec(vec![0.0, 0.0, 0.68, 0.32]), 1e-12));
        let p3 = plus.vecmat_dense(&p2).unwrap();
        assert!(p3.approx_eq(&DenseVector::from_vec(vec![0.0, 0.0, 0.136, 0.864]), 1e-12));
    }

    #[test]
    fn example_2_transposed_backward_pass() {
        // Query-based Example 2: backward vector P(t=0) = (0.96, 0.864, 0.928, 1).
        let m = paper_matrix();
        let minus_t = exists_minus(&m).transpose();
        let plus_t = exists_plus(&m, &window_s1_s2()).transpose();
        let p3 = DenseVector::from_vec(vec![0.0, 0.0, 0.0, 1.0]);
        let p2 = plus_t.vecmat_dense(&p3).unwrap();
        assert!(p2.approx_eq(&DenseVector::from_vec(vec![0.0, 0.6, 0.8, 1.0]), 1e-12));
        let p1 = plus_t.vecmat_dense(&p2).unwrap();
        assert!(p1.approx_eq(&DenseVector::from_vec(vec![0.8, 0.92, 0.96, 1.0]), 1e-12));
        let p0 = minus_t.vecmat_dense(&p1).unwrap();
        assert!(p0.approx_eq(&DenseVector::from_vec(vec![0.96, 0.864, 0.928, 1.0]), 1e-12));
        // Dotting with the initial distribution (object at s2) gives 0.864.
        let init = DenseVector::from_vec(vec![0.0, 1.0, 0.0, 0.0]);
        assert!((init.dot(&p0).unwrap() - 0.864).abs() < 1e-12);
    }

    #[test]
    fn augmented_matrices_stay_stochastic() {
        let m = paper_matrix();
        let w = window_s1_s2();
        assert_stochastic(&exists_minus(&m)).unwrap();
        assert_stochastic(&exists_plus(&m, &w)).unwrap();
        assert_stochastic(&doubled_minus(&m)).unwrap();
        assert_stochastic(&doubled_plus(&m, &w)).unwrap();
        assert_stochastic(&ktimes_minus(&m, 4)).unwrap();
        assert_stochastic(&ktimes_plus(&m, &w, 4)).unwrap();
    }

    #[test]
    fn doubled_matrices_match_section_6_example() {
        // Section VI uses M with row 2 = (0.5, 0, 0.5) and window {s2} at
        // positions: S▫ = {s2} (the middle state), giving the 6×6 matrices
        // printed in the paper.
        let m =
            CsrMatrix::from_dense(&[vec![0.0, 0.0, 1.0], vec![0.5, 0.0, 0.5], vec![0.0, 0.8, 0.2]])
                .unwrap();
        let w = StateMask::from_indices(3, [1usize]).unwrap();
        let minus = doubled_minus(&m);
        let expected_minus = CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
            vec![0.0, 0.8, 0.2, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
            vec![0.0, 0.0, 0.0, 0.0, 0.8, 0.2],
        ])
        .unwrap();
        assert!(minus.approx_eq(&expected_minus, 1e-12));

        let plus = doubled_plus(&m, &w);
        let expected_plus = CsrMatrix::from_dense(&[
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.2, 0.0, 0.8, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
            vec![0.0, 0.0, 0.0, 0.0, 0.8, 0.2],
        ])
        .unwrap();
        assert!(plus.approx_eq(&expected_plus, 1e-12));
    }

    #[test]
    fn ktimes_plus_increments_level_on_window_entry() {
        let m = paper_matrix();
        let w = window_s1_s2();
        let plus = ktimes_plus(&m, &w, 3);
        // From level 0 state s2 (row 1): 0.6 goes to level-1 s1 (col 3+0),
        // 0.4 stays level 0 at s3 (col 2).
        assert_eq!(plus.get(1, 3), 0.6);
        assert_eq!(plus.get(1, 2), 0.4);
        // Top level saturates: level-2 s2 (row 7) sends 0.6 to level-2 s1.
        assert_eq!(plus.get(7, 6), 0.6);
    }

    #[test]
    fn ktimes_minus_is_block_diagonal() {
        let m = paper_matrix();
        let minus = ktimes_minus(&m, 2);
        assert_eq!(minus.shape(), (6, 6));
        assert_eq!(minus.get(0, 2), 1.0);
        assert_eq!(minus.get(3, 5), 1.0);
        assert_eq!(minus.get(0, 5), 0.0);
    }

    #[test]
    fn top_index_is_last() {
        assert_eq!(top_index(3), 3);
    }
}
