//! # ust-markov — Markov-chain and sparse linear-algebra substrate
//!
//! This crate is the computational substrate of the reproduction of
//! *Querying Uncertain Spatio-Temporal Data* (Emrich, Kriegel, Mamoulis,
//! Renz, Züfle — ICDE 2012). The paper models uncertain trajectories as
//! realizations of a first-order homogeneous Markov chain and reduces every
//! probabilistic spatio-temporal query to products with (augmented)
//! transition matrices; the original artifact delegated those products to
//! MATLAB. This crate replaces that dependency with purpose-built sparse
//! kernels:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row matrices with the
//!   vector–matrix, matrix–matrix and transpose kernels used by every query;
//! * [`sparse_vec::SparseVector`] / [`span_vec::SpanVector`] — sorted
//!   indices or the contiguous span between the first and last non-zero,
//!   the two arms [`hybrid::PropagationVector`] switches between during
//!   propagation (a span is also the snapshot format of a backward field);
//!   [`dense::DenseVector`] for whole-space vectors;
//! * [`stochastic::StochasticMatrix`] / [`chain::MarkovChain`] — validated
//!   transition matrices and chains (Definitions 5/6, Corollaries 1/2);
//! * [`kernels`] — the cache-blocked, SIMD-friendly span panel kernel
//!   behind `CsrMatrix::step_batch` (forward steps) and the sliced-row
//!   gather behind `MarkovChain::step_backward` (backward steps);
//! * [`mask::StateMask`] — bitset state sets for query windows.

#![deny(missing_docs)]
// Library code does not panic; a panic that an invariant rules out carries
// an `#[expect]` naming the invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Kernels are pure functions of their inputs: no clock reads anywhere in
// this crate (clippy.toml lists the methods).
#![deny(clippy::disallowed_methods)]
#![allow(
    unsafe_code,
    reason = "the fixed-width SIMD propagation kernels (`kernels`); every block carries a \
              clippy-enforced safety comment"
)]
pub mod chain;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod hybrid;
pub mod kernels;
pub mod mask;
pub mod span_vec;
pub mod sparse_vec;
pub mod stochastic;

pub use chain::MarkovChain;
pub use coo::CooBuilder;
pub use csr::{CsrMatrix, SpmvScratch};
pub use dense::DenseVector;
pub use error::{MarkovError, Result};
pub use hybrid::{BatchStepStats, PropagationVector};
pub use mask::StateMask;
pub use span_vec::SpanVector;
pub use sparse_vec::SparseVector;
pub use stochastic::StochasticMatrix;
