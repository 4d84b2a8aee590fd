//! Shared test utilities: the paper's running chain, random chains and
//! distributions.
//!
//! Every crate's test suites (and the examples) draw their
//! random-but-reproducible chains and distributions from here, so they
//! generate the same families. Not intended for production use.

#![expect(
    clippy::expect_used,
    reason = "deterministic test-fixture generators: indices come from `0..n` loops and \
              weights are strictly positive by construction. Not a production code path (see \
              module docs)."
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ust_markov::{CooBuilder, CsrMatrix, MarkovChain, SparseVector};

/// The paper's running 3-state chain (Example 1): `s1 → s3`,
/// `s2 → s1 | s3` (0.6 / 0.4), `s3 → s2 | s3` (0.8 / 0.2).
pub fn paper_chain() -> MarkovChain {
    let rows = [vec![0.0, 0.0, 1.0], vec![0.6, 0.0, 0.4], vec![0.0, 0.8, 0.2]];
    MarkovChain::from_csr(CsrMatrix::from_dense(&rows).expect("rows of equal length"))
        .expect("rows are stochastic")
}

/// A deterministic RNG for a given seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A random row-stochastic matrix where every state reaches `out_degree`
/// uniformly chosen successors with Dirichlet-ish random weights.
pub fn random_stochastic(rng: &mut StdRng, n: usize, out_degree: usize) -> CsrMatrix {
    let out_degree = out_degree.clamp(1, n);
    let mut builder = CooBuilder::with_capacity(n, n, n * out_degree);
    let mut weights: Vec<f64> = Vec::with_capacity(out_degree);
    for i in 0..n {
        // Sample distinct successors.
        let mut succ: Vec<usize> = Vec::with_capacity(out_degree);
        while succ.len() < out_degree {
            let c = rng.random_range(0..n);
            if !succ.contains(&c) {
                succ.push(c);
            }
        }
        weights.clear();
        let mut total = 0.0;
        for _ in 0..out_degree {
            let w: f64 = rng.random::<f64>() + 1e-3;
            weights.push(w);
            total += w;
        }
        for (c, w) in succ.iter().zip(&weights) {
            builder.push(i, *c, w / total).expect("indices in range");
        }
    }
    builder.build()
}

/// A random *banded* stochastic matrix mimicking the paper's synthetic
/// generator: from state `s_i` only states within `±max_step/2` are
/// reachable and at most `state_spread` of them are successors.
pub fn random_banded_stochastic(
    rng: &mut StdRng,
    n: usize,
    state_spread: usize,
    max_step: usize,
) -> CsrMatrix {
    let mut builder = CooBuilder::new(n, n);
    let half = (max_step / 2).max(1);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half).min(n - 1);
        let window = hi - lo + 1;
        let k = state_spread.clamp(1, window);
        let mut succ: Vec<usize> = Vec::with_capacity(k);
        while succ.len() < k {
            let c = lo + rng.random_range(0..window);
            if !succ.contains(&c) {
                succ.push(c);
            }
        }
        let mut weights: Vec<f64> = (0..k).map(|_| rng.random::<f64>() + 1e-3).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        for (c, w) in succ.iter().zip(&weights) {
            builder.push(i, *c, *w).expect("indices in range");
        }
    }
    builder.build()
}

/// A random Markov chain (validated).
pub fn random_chain(seed: u64, n: usize, out_degree: usize) -> MarkovChain {
    let mut r = rng(seed);
    MarkovChain::from_csr(random_stochastic(&mut r, n, out_degree))
        .expect("generator produces stochastic rows")
}

/// A random sparse distribution over `spread` distinct states.
pub fn random_distribution(rng: &mut StdRng, n: usize, spread: usize) -> SparseVector {
    let spread = spread.clamp(1, n);
    let mut states: Vec<usize> = Vec::with_capacity(spread);
    while states.len() < spread {
        let s = rng.random_range(0..n);
        if !states.contains(&s) {
            states.push(s);
        }
    }
    let mut weights: Vec<f64> = (0..spread).map(|_| rng.random::<f64>() + 1e-3).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    SparseVector::from_pairs(n, states.into_iter().zip(weights)).expect("states in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::StochasticMatrix;

    #[test]
    fn random_stochastic_is_valid() {
        let mut r = rng(42);
        for n in [1usize, 3, 17, 64] {
            let m = random_stochastic(&mut r, n, 4);
            StochasticMatrix::new(m).expect("rows must be stochastic");
        }
    }

    #[test]
    fn random_banded_respects_band() {
        let mut r = rng(7);
        let n = 50;
        let max_step = 10;
        let m = random_banded_stochastic(&mut r, n, 3, max_step);
        StochasticMatrix::new(m.clone()).expect("stochastic");
        for i in 0..n {
            let (cols, _) = m.row(i);
            for &c in cols {
                let d = (c as i64 - i as i64).abs();
                assert!(d <= (max_step / 2) as i64, "row {i} reaches {c}");
            }
        }
    }

    #[test]
    fn random_distribution_is_normalized() {
        let mut r = rng(9);
        let d = random_distribution(&mut r, 100, 5);
        assert_eq!(d.nnz(), 5);
        assert!((d.sum() - 1.0).abs() <= 1e-12);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = random_chain(5, 20, 3);
        let b = random_chain(5, 20, 3);
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
    }
}
