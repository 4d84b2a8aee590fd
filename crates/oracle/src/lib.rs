//! # ust-oracle — the reference algorithms the engines are checked against
//!
//! The executable specifications of *Querying Uncertain Spatio-Temporal
//! Data* (Emrich et al., ICDE 2012), kept apart from the engines they
//! check. Every function here takes plain inputs — a
//! [`ust_markov::MarkovChain`], observations as `(time, &SparseVector)`
//! pairs, a window as a [`ust_markov::StateMask`] plus a
//! [`ust_space::TimeSet`] — and runs its own input checks
//! ([`exhaustive::check_inputs`], reporting [`OracleError`]), so a
//! reference and an engine cannot share a validation bug. This crate
//! depends on neither `ust-core` nor `ust-data`, and the workspace takes it
//! as a dev-dependency only; `tests/crate_boundaries.rs` reads the
//! manifests to keep it so.
//!
//! * [`exhaustive`] — possible-worlds enumeration, the ground truth for
//!   every predicate on tiny instances, multi-observation objects included
//!   (Section VI semantics);
//! * [`augmented`] — the paper's explicit `M−`/`M+` matrices (Sections V,
//!   VI and VII) and the k-times answer over the blown-up space;
//! * [`textbook`] — the untrimmed forward ∃ loop the reach-trimmed sweep
//!   must equal to the bit;
//! * [`cone`] — the brute-force spatio-temporal cone filter on a line of
//!   states, the reference of the index;
//! * [`testutil`] — seeded random chains and distributions shared by every
//!   test suite.

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

pub mod augmented;
pub mod cone;
pub mod error;
pub mod exhaustive;
pub mod testutil;
pub mod textbook;

pub use error::{OracleError, Result};
pub use exhaustive::{enumerate, ExhaustiveResult};
