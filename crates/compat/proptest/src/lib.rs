//! Minimal, dependency-free drop-in for the subset of the `proptest` API
//! this workspace uses.
//!
//! The build environment is fully offline, so instead of the real crate the
//! workspace ships this deterministic miniature: strategies are sampled
//! (not shrunk) from a per-test seeded [`rand::rngs::StdRng`], every test
//! runs [`ProptestConfig::cases`] random cases, and `prop_assert*!`
//! failures report the failing case index and sampled inputs are
//! reproducible from the test name alone.
//!
//! Supported surface: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` header), [`Strategy`] for integer and float
//! ranges plus tuples of strategies, [`prop_assert!`],
//! [`prop_assert_eq!`], [`prop_assume!`] and
//! [`ProptestConfig::with_cases`]. No shrinking is performed.

use rand::rngs::StdRng;

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases generated per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; it does not count as a run.
    Reject,
    /// `prop_assert*!` failed with the given message.
    Fail(String),
}

impl TestCaseError {
    /// An assertion failure carrying `msg`.
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// A source of random values (subset of `proptest::strategy::Strategy`;
/// sampling only, no shrink trees).
pub trait Strategy {
    /// The type of the generated values.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rand::Rng::random_range(rng, self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rand::Rng::random_range(rng, self.clone())
            }
        }
    )*};
}

impl_int_strategy!(usize, u64, u32, u16, u8);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        self.start + rand::Rng::random::<f64>(rng) * (self.end - self.start)
    }
}

impl Strategy for core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        // Endpoint-exclusive sampling is indistinguishable for the
        // threshold-style properties this workspace states.
        self.start() + rand::Rng::random::<f64>(rng) * (self.end() - self.start())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case, reason = "the bindings reuse the type parameters' names")]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// FNV-1a hash of the test name: the deterministic per-test seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Everything a `proptest!`-based test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declares property tests: each `#[test] fn name(pattern in strategy, ...)`
/// runs `cases` times with fresh samples. No shrinking; the failing case
/// index is reported and reproducible (sampling is seeded by the test
/// name).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = <::rand::rngs::StdRng as ::rand::SeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                let mut accepted: u32 = 0;
                let mut case: u64 = 0;
                while accepted < config.cases {
                    case += 1;
                    if case > 20 * config.cases as u64 + 100 {
                        panic!(
                            "proptest {}: too many cases rejected by prop_assume! \
                             ({accepted} accepted after {case} draws)",
                            stringify!($name),
                        );
                    }
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("proptest {} failed at case {case}: {msg}", stringify!($name))
                        }
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                        left, right
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                        "{}\n  left: `{:?}`\n right: `{:?}`",
                        format!($($fmt)+),
                        left,
                        right
                    )));
                }
            }
        }
    };
}

/// Filters out cases that do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn tuples_and_ranges_sample_in_bounds(
            (a, b) in (0u64..10, 2usize..=4),
            x in -1.5f64..2.5,
        ) {
            prop_assert!(a < 10);
            prop_assert!((2..=4).contains(&b), "b = {b}");
            prop_assert!((-1.5..2.5).contains(&x));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        proptest! {
            fn inner(n in 0usize..4) {
                prop_assert!(n < 3, "saw n = {n}");
            }
        }
        inner();
    }
}
