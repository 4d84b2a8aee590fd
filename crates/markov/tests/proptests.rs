//! Property-based tests of the linear-algebra substrate: the algebraic
//! invariants every query engine silently relies on.

use proptest::prelude::*;

use ust_markov::augmented;
use ust_markov::testutil;
use ust_markov::{
    CsrMatrix, DenseVector, MarkovChain, PropagationVector, SparseVector, SpmvScratch, StateMask,
    StochasticMatrix,
};

/// A batch of propagation vectors on both arms — scattered supports
/// through either constructor, and (every third member) a contiguous
/// cluster — the compositions the batched kernels must keep bit-identical
/// to solo stepping.
fn mixed_batch(rng: &mut rand::rngs::StdRng, n: usize, members: usize) -> Vec<PropagationVector> {
    (0..members)
        .map(|k| {
            let start = match k % 3 {
                2 => cluster(rng, n, 1 + k % 4),
                _ => testutil::random_distribution(rng, n, 1 + k % 4),
            };
            if k % 2 == 0 {
                PropagationVector::from_sparse(start)
            } else {
                PropagationVector::from_dense(start.to_dense())
            }
        })
        .collect()
}

/// A distribution over `width` neighbouring states at a random centre.
fn cluster(rng: &mut rand::rngs::StdRng, n: usize, width: usize) -> SparseVector {
    use rand::Rng as _;
    let width = width.clamp(1, n);
    let first = rng.random_range(0..=n - width);
    let weights: Vec<f64> = (0..width).map(|_| rng.random::<f64>() + 1e-3).collect();
    let total: f64 = weights.iter().sum();
    SparseVector::from_pairs(n, (first..first + width).zip(weights.iter().map(|w| w / total)))
        .unwrap()
}

/// The textbook transition: the sorted-index product of a freshly built
/// sparse vector — no hybrid arm, no pooled storage, no batching.
fn textbook_step(m: &CsrMatrix, v: &SparseVector) -> SparseVector {
    m.vecmat_sparse(&SparseVector::from_pairs(v.dim(), v.iter()).unwrap()).unwrap()
}

/// Matrix entries one transition of `v` multiplies: the entries of the rows
/// where `v` is non-zero — what every kernel must report per vector fed.
fn entries_of(m: &CsrMatrix, v: &SparseVector) -> u64 {
    v.iter().map(|(i, _)| m.row_nnz(i) as u64).sum()
}

fn chain_params() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..10_000, 2usize..=24, 1usize..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_generator_produces_stochastic_matrices((seed, n, deg) in chain_params()) {
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        prop_assert!(StochasticMatrix::new(m).is_ok());
    }

    #[test]
    fn transpose_is_involutive_and_preserves_nnz((seed, n, deg) in chain_params()) {
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        let t = m.transpose();
        prop_assert_eq!(t.nnz(), m.nnz());
        prop_assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn sparse_and_dense_vecmat_agree((seed, n, deg) in chain_params(), spread in 1usize..=6) {
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        let v = testutil::random_distribution(&mut rng, n, spread);
        let sparse_out = m.vecmat_sparse(&v).unwrap().to_dense();
        let dense_out = m.vecmat_dense(&v.to_dense()).unwrap();
        prop_assert!(sparse_out.approx_eq(&dense_out, 1e-12));
    }

    #[test]
    fn matvec_is_vecmat_of_transpose((seed, n, deg) in chain_params()) {
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        let v = testutil::random_distribution(&mut rng, n, (n / 2).max(1)).to_dense();
        let a = m.matvec_dense(&v).unwrap();
        let b = m.transpose().vecmat_dense(&v).unwrap();
        prop_assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn propagation_preserves_total_mass((seed, n, deg) in chain_params(), steps in 0u32..12) {
        let chain = MarkovChain::from_csr({
            let mut rng = testutil::rng(seed);
            testutil::random_stochastic(&mut rng, n, deg)
        }).unwrap();
        let mut rng = testutil::rng(seed ^ 1);
        let start = testutil::random_distribution(&mut rng, n, 2);
        let out = chain.propagate_sparse(&start, steps).unwrap();
        prop_assert!((out.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn augmented_matrices_preserve_stochasticity(
        (seed, n, deg) in chain_params(),
        mask_seed in 0u64..1_000,
    ) {
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        let mut mask_rng = testutil::rng(mask_seed);
        let mut mask = StateMask::new(n);
        use rand::Rng as _;
        for s in 0..n {
            if mask_rng.random::<f64>() < 0.4 {
                mask.insert(s).unwrap();
            }
        }
        for aug in [
            augmented::exists_minus(&m),
            augmented::exists_plus(&m, &mask),
            augmented::doubled_minus(&m),
            augmented::doubled_plus(&m, &mask),
            augmented::ktimes_minus(&m, 3),
            augmented::ktimes_plus(&m, &mask, 3),
        ] {
            prop_assert!(StochasticMatrix::with_tolerance(aug, 1e-9).is_ok());
        }
    }

    #[test]
    fn hybrid_vector_agrees_with_pure_sparse(
        (seed, n, deg) in chain_params(),
        steps in 0u32..8,
        clustered in 0u8..2,
    ) {
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        let start = match clustered {
            0 => testutil::random_distribution(&mut rng, n, 2),
            _ => cluster(&mut rng, n, 2),
        };
        let mut scratch = SpmvScratch::new();
        let mut hybrid = PropagationVector::from_sparse(start.clone());
        let mut reference = start;
        for _ in 0..steps {
            hybrid.step(&m, &mut scratch).unwrap();
            reference = textbook_step(&m, &reference);
        }
        prop_assert_eq!(hybrid.to_sparse(), reference);
    }

    #[test]
    fn both_arms_match_the_textbook_loop_at_every_batch_size(
        seed in 0u64..10_000,
        n in 48usize..=160,
        shape in 0u8..3,
        batch_sel in 0u8..3,
    ) {
        // Banded chains keep supports contiguous (the span arm from step
        // one), unstructured chains scatter them (the sorted-index arm,
        // flipping once the space fills), two far-apart clusters start
        // scattered on a banded chain and fill in from both sides.
        let mut rng = testutil::rng(seed);
        let m = match shape {
            1 => testutil::random_stochastic(&mut rng, n, 3),
            _ => testutil::random_banded_stochastic(&mut rng, n, 3, 8),
        };
        let batch = [1usize, 7, 64][batch_sel as usize];
        // A batch of 7 is a level family: clusters around one centre.
        let centre = cluster(&mut rng, n, 5);
        let mut textbook: Vec<SparseVector> = (0..batch)
            .map(|k| match (shape, batch) {
                (2, _) => {
                    let (a, b) = (cluster(&mut rng, n / 4, 3), cluster(&mut rng, n / 4, 3));
                    let far = b.iter().map(|(i, v)| (i + n - n / 4, v));
                    let mut both = SparseVector::from_pairs(n, a.iter().chain(far)).unwrap();
                    both.scale(0.5);
                    both
                }
                (_, 7) => {
                    let keep = centre.iter().skip(k % 3).map(|(i, v)| (i, v / (k + 1) as f64));
                    SparseVector::from_pairs(n, keep).unwrap()
                }
                _ => cluster(&mut rng, n, 5),
            })
            .collect();
        let mut rows: Vec<PropagationVector> =
            textbook.iter().cloned().map(PropagationVector::from_sparse).collect();
        let mut solo = rows.clone();
        let mut scratch = SpmvScratch::new();
        for _ in 0..6 {
            let expected: u64 = textbook.iter().map(|v| entries_of(&m, v)).sum();
            let stats = m.step_batch(&mut rows, &[], &mut scratch).unwrap();
            prop_assert_eq!(stats.entries_touched, expected);
            for ((row, alone), reference) in rows.iter().zip(&mut solo).zip(&mut textbook) {
                alone.step(&m, &mut scratch).unwrap();
                *reference = textbook_step(&m, reference);
                prop_assert_eq!(row, &*alone);
                prop_assert_eq!(row.nnz(), reference.nnz());
                prop_assert_eq!(&row.to_sparse(), &*reference);
                prop_assert_eq!(row.to_span().to_sparse(), row.to_sparse());
            }
        }
    }

    #[test]
    fn batched_step_is_bit_identical_to_solo_steps(
        (seed, n, deg) in chain_params(),
        members in 1usize..=6,
        steps in 0u32..6,
        mask_seed in 0u64..1_000,
    ) {
        // The PR 6 contract: whatever the batched path does with a batch —
        // span panels (any panel width the union span induces), members
        // stepped on their own, the sorted-index kernel — produces the
        // *same bits* as stepping each member alone, for any batch
        // composition and activity mask, and reports the same multiply
        // work.
        let mut rng = testutil::rng(seed);
        let m = testutil::random_stochastic(&mut rng, n, deg);
        let mut batch = mixed_batch(&mut rng, n, members);
        use rand::Rng as _;
        let mut mask_rng = testutil::rng(mask_seed);
        let active: Vec<bool> = (0..members).map(|_| mask_rng.random::<f64>() < 0.8).collect();
        let mut solo = batch.clone();
        let mut batch_scratch = SpmvScratch::new();
        let mut solo_scratch = SpmvScratch::new();
        for _ in 0..steps {
            let live = solo.iter().zip(&active).filter(|(row, on)| **on && row.nnz() > 0);
            let expected: u64 = live.map(|(row, _)| entries_of(&m, &row.to_sparse())).sum();
            let stats = m.step_batch(&mut batch, &active, &mut batch_scratch).unwrap();
            prop_assert_eq!(stats.entries_touched, expected);
            for (k, row) in solo.iter_mut().enumerate() {
                if active[k] && row.nnz() > 0 {
                    row.step(&m, &mut solo_scratch).unwrap();
                }
            }
        }
        for (a, b) in batch.iter().zip(solo.iter()) {
            // Derived equality covers representation, values *and* the
            // tracked non-zero count, all bit-for-bit.
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.nnz(), a.to_dense().nnz(), "tracked nnz matches a rescan");
        }
    }

    #[test]
    fn mask_set_laws(n in 1usize..200, seed in 0u64..1_000) {
        let mut rng = testutil::rng(seed);
        use rand::Rng as _;
        let mut a = StateMask::new(n);
        let mut b = StateMask::new(n);
        for s in 0..n {
            if rng.random::<f64>() < 0.3 { a.insert(s).unwrap(); }
            if rng.random::<f64>() < 0.3 { b.insert(s).unwrap(); }
        }
        // De Morgan: ¬(a ∪ b) = ¬a ∩ ¬b.
        let lhs = a.union(&b).unwrap().complement();
        let rhs = a.complement().intersection(&b.complement()).unwrap();
        prop_assert_eq!(lhs.to_indices(), rhs.to_indices());
        // |a| + |¬a| = n.
        prop_assert_eq!(a.count() + a.complement().count(), n);
        // intersects ⇔ non-empty intersection.
        prop_assert_eq!(a.intersects(&b), !a.intersection(&b).unwrap().is_empty());
    }

    #[test]
    fn sparse_vector_algebra(
        n in 1usize..100,
        seed in 0u64..1_000,
    ) {
        let mut rng = testutil::rng(seed);
        let a = testutil::random_distribution(&mut rng, n, (n / 3).max(1));
        let b = testutil::random_distribution(&mut rng, n, (n / 4).max(1));
        // Commutativity of dot and add.
        let ab_dot = a.dot_dense(&b.to_dense()).unwrap();
        prop_assert!((ab_dot - b.dot_dense(&a.to_dense()).unwrap()).abs() < 1e-12);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.to_dense().approx_eq(&ba.to_dense(), 1e-12));
        // Dense agreement.
        let dense_dot = a.to_dense().dot(&b.to_dense()).unwrap();
        prop_assert!((ab_dot - dense_dot).abs() < 1e-12);
        // split + add round-trips.
        let mask = StateMask::from_indices(n, (0..n).step_by(2)).unwrap();
        let mut v = a.clone();
        let split = v.split_masked(&mask);
        let merged = v.add(&split).unwrap();
        prop_assert!(merged.to_dense().approx_eq(&a.to_dense(), 1e-12));
    }

    #[test]
    fn coo_builder_accumulates_duplicates(
        n in 2usize..20,
        seed in 0u64..1_000,
        extra in 1usize..30,
    ) {
        use rand::Rng as _;
        let mut rng = testutil::rng(seed);
        let mut builder = ust_markov::CooBuilder::new(n, n);
        let mut dense = vec![vec![0.0f64; n]; n];
        for _ in 0..extra {
            let r = rng.random_range(0..n);
            let c = rng.random_range(0..n);
            let v: f64 = rng.random::<f64>() - 0.5;
            builder.push(r, c, v).unwrap();
            dense[r][c] += v;
        }
        let m = builder.build();
        let reference = CsrMatrix::from_dense(&dense).unwrap();
        prop_assert!(m.approx_eq(&reference, 1e-12));
    }
}

#[test]
fn dense_vector_masked_ops_match_naive() {
    for seed in 0..10u64 {
        let n = 64;
        let mut rng = testutil::rng(seed);
        let v = testutil::random_distribution(&mut rng, n, 20).to_dense();
        let mask = StateMask::from_indices(n, (0..n).filter(|i| i % 3 == 0)).unwrap();
        let naive: f64 = (0..n).filter(|&i| mask.contains(i)).map(|i| v.get(i)).sum();
        assert!((v.masked_sum(&mask) - naive).abs() < 1e-12);
        let mut w = v.clone();
        let extracted = w.extract_masked(&mask);
        assert!((extracted - naive).abs() < 1e-12);
        assert!((w.sum() + extracted - v.sum()).abs() < 1e-12);
        let mut x = v.clone();
        let split: SparseVector = x.split_masked(&mask);
        assert!((split.sum() - naive).abs() < 1e-12);
    }
}

#[test]
fn dense_roundtrip_through_sparse() {
    for seed in 0..10u64 {
        let mut rng = testutil::rng(seed);
        let v = testutil::random_distribution(&mut rng, 50, 17);
        let roundtrip = SparseVector::from_dense(&v.to_dense(), 0.0);
        assert_eq!(roundtrip.indices(), v.indices());
        let dv: DenseVector = v.to_dense();
        assert!((dv.sum() - 1.0).abs() < 1e-12);
    }
}
