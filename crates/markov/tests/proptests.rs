//! Property-based tests of the linear-algebra substrate: the algebraic
//! invariants every query engine silently relies on.

use proptest::prelude::*;

use ust_markov::kernels::{GatherArm, LevelPanel};
use ust_markov::{
    CsrMatrix, DenseVector, MarkovChain, PropagationVector, SpanVector, SparseVector, SpmvScratch,
    StateMask, StochasticMatrix,
};
use ust_oracle::{augmented, testutil};

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

/// A stochastic chain on `n` states whose rows have 1 to `max_deg`
/// successors — within `±band` of the row when `band` is set, anywhere
/// otherwise — so rows differ in length and the gather's slices pad. Every
/// third row also stores one explicit zero entry, which `CooBuilder` would
/// drop.
fn uneven_chain(seed: u64, n: usize, max_deg: usize, band: Option<usize>) -> MarkovChain {
    use rand::Rng as _;
    let mut rng = testutil::rng(seed);
    let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
    for i in 0..n {
        let (lo, hi) = band.map_or((0, n - 1), |b| (i.saturating_sub(b), (i + b).min(n - 1)));
        let room = hi - lo + 1;
        let deg = rng.random_range(1..=max_deg).min(room);
        let zero = i % 3 == 0 && deg < room;
        let mut cols: Vec<usize> = Vec::new();
        while cols.len() < deg + usize::from(zero) {
            let c = lo + rng.random_range(0..room);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        let weights: Vec<f64> = (0..deg).map(|_| rng.random::<f64>() + 1e-3).collect();
        let total: f64 = weights.iter().sum();
        // The last sampled column is the explicit zero, wherever it sorts.
        let mut row: Vec<(usize, f64)> = cols
            .iter()
            .zip(weights.iter().map(|w| w / total).chain([0.0]))
            .map(|(&c, w)| (c, w))
            .collect();
        row.sort_by_key(|&(c, _)| c);
        indices.extend(row.iter().map(|&(c, _)| c as u32));
        data.extend(row.iter().map(|&(_, w)| w));
        indptr.push(indices.len());
    }
    MarkovChain::from_csr(CsrMatrix::from_raw_parts(n, n, indptr, indices, data)).unwrap()
}

/// A vector's arm and its value at every state, as bits.
fn arm_and_bits(v: &PropagationVector) -> (bool, Vec<u64>) {
    (v.is_sparse(), v.to_dense().as_slice().iter().map(|x| x.to_bits()).collect())
}

/// A span vector's offset and stored values, as bits.
fn span_bits(v: &SpanVector) -> (usize, Vec<u64>) {
    let (offset, values) = v.span();
    (offset, values.iter().map(|x| x.to_bits()).collect())
}

/// A family of `levels` visit levels on `n` states, values in `(0, 1]`:
/// level `j` is, by `(j + shape) % 5`, empty, a span from state 0, a span
/// up to state `n − 1`, a span with zero gaps, or a span anywhere — so
/// spans overlap, nest or are disjoint.
fn level_family(seed: u64, n: usize, levels: usize, shape: usize) -> Vec<SpanVector> {
    use rand::Rng as _;
    let mut rng = testutil::rng(seed);
    (0..levels)
        .map(|j| {
            let width = rng.random_range(1..=n.min(12));
            let first = rng.random_range(0..=n - width);
            let (range, gaps) = match (j + shape) % 5 {
                0 => return SpanVector::zeros(n),
                1 => (0..width, false),
                2 => (n - width..n, false),
                3 => (first..first + width, true),
                _ => (first..first + width, false),
            };
            let mut v = vec![0.0; n];
            for s in range.filter(|s| !gaps || s % 3 != 1) {
                v[s] = 0.01 + 0.99 * rng.random::<f64>();
            }
            SpanVector::from_slice(&v)
        })
        .collect()
}

/// The k-times window rule written out level by level on hybrid vectors,
/// as a field sweep ran it before the level panel.
fn shift_levels(levels: &mut [PropagationVector], inside: &StateMask) {
    let n = inside.dim();
    let k_max = levels.len() - 1;
    let _ = levels[k_max].split_masked(inside);
    for j in (2..=k_max).rev() {
        let moved = levels[j - 1].split_masked(inside);
        levels[j].add_sparse(&moved).unwrap();
    }
    let deficit = levels[0].split_masked(inside);
    let no_visit = inside.iter().map(|s| (s, 1.0 - deficit.get(s)));
    levels[1].add_sparse(&SparseVector::from_pairs(n, no_visit).unwrap()).unwrap();
    levels[0]
        .add_sparse(&SparseVector::from_pairs(n, inside.iter().map(|s| (s, 1.0))).unwrap())
        .unwrap();
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
    fn max_line_nnz_is_the_widest_row_or_column(
        (seed, n, deg) in chain_params(),
        banded in 0u8..=1,
    ) {
        let mut rng = testutil::rng(seed);
        let m = match banded {
            0 => testutil::random_stochastic(&mut rng, n, deg),
            _ => testutil::random_banded_stochastic(&mut rng, n, 3, 10),
        };
        let chain = MarkovChain::from_csr(m).unwrap();
        let widest = chain.max_line_nnz();
        let lines = [chain.matrix(), chain.transposed()];
        let old = lines.iter().flat_map(|m| (0..m.nrows()).map(|i| m.row_nnz(i))).max();
        prop_assert_eq!(widest, old.unwrap_or(0));
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
    fn backward_gather_matches_the_transposed_step(
        seed in 0u64..10_000,
        n in 1usize..=70,
        max_deg in 1usize..=6,
        band in 0usize..=6,
        start in 0u8..5,
    ) {
        // Every gather arm the CPU has (the scalar arm always) against the
        // scatter over Mᵀ, bit for bit and on the same arm, over several
        // steps: spans touching state 0 and state |S| − 1, one with zero
        // gaps inside, a sorted-index start, and two far-apart states that
        // the scattered-sources guard sends to the sorted-index arm.
        use rand::Rng as _;
        // Band 0: successors anywhere.
        let chain = uneven_chain(seed, n, max_deg, (band > 0).then_some(band));
        let mut rng = testutil::rng(seed ^ 0x5EED);
        let width = rng.random_range(1..=n);
        let dense = |range: std::ops::Range<usize>, gaps: bool| {
            let mut v = vec![0.0; n];
            for s in range.filter(|s| !gaps || s % 3 != 1) {
                v[s] = 0.05 + (s % 7) as f64 / 7.0;
            }
            PropagationVector::from_dense(DenseVector::from_vec(v))
        };
        let start = match start {
            0 => dense(0..width, false),
            1 => dense(n - width..n, false),
            2 => dense(n / 3..(n / 3 + width).min(n), true),
            3 => PropagationVector::from_sparse(testutil::random_distribution(&mut rng, n, 3)),
            _ => {
                let mut ends = vec![0.0; n];
                ends[0] = 0.25;
                ends[n - 1] += 0.75;
                PropagationVector::from_dense(DenseVector::from_vec(ends))
            }
        };
        let arms = GatherArm::available();
        prop_assert_eq!(arms[0], GatherArm::Scalar);
        for arm in arms {
            let mut expected = start.clone();
            let mut gathered = start.clone();
            let mut scratch = SpmvScratch::new();
            for step in 0..5 {
                if expected.nnz() > 0 {
                    expected.step(chain.transposed(), &mut scratch).unwrap();
                }
                chain.step_backward_on(arm, &mut gathered, &mut scratch).unwrap();
                prop_assert_eq!(arm_and_bits(&gathered), arm_and_bits(&expected),
                    "{:?} arm, step {}", arm, step);
                prop_assert_eq!(&gathered, &expected);
            }
        }
    }

    #[test]
    fn level_panel_steps_match_the_transposed_step_per_level(
        seed in 0u64..10_000,
        n in 1usize..=70,
        max_deg in 1usize..=6,
        band in 0usize..=6,
        levels in 2usize..=21,
        shape in 0usize..5,
        shift_at in 0usize..4,
    ) {
        // One panel step against `PropagationVector::step` over Mᵀ for
        // every level, bit for bit, on every arm the CPU has, over four
        // steps with a window shift before step `shift_at`: banded and
        // unstructured chains with uneven rows and explicit zeros, 2 to 21
        // levels (4 to 24 lanes: one lane block or two), empty and disjoint
        // levels, spans touching
        // both ends of the space, and a window that may lie outside the
        // panel's span.
        use rand::Rng as _;
        let chain = uneven_chain(seed, n, max_deg, (band > 0).then_some(band));
        let family = level_family(seed ^ 0x1E7E1, n, levels, shape);
        let mut rng = testutil::rng(seed ^ 0x5417);
        let inside = StateMask::from_indices(n, (0..3).map(|_| rng.random_range(0..n))).unwrap();
        let arms = GatherArm::available();
        prop_assert_eq!(arms[0], GatherArm::Scalar);
        for arm in arms {
            let mut expected: Vec<PropagationVector> =
                family.iter().cloned().map(PropagationVector::from_span).collect();
            let mut panel = LevelPanel::from_levels(n, &family).unwrap();
            prop_assert_eq!(panel.levels(), levels);
            let mut scratch = SpmvScratch::new();
            for step in 0..4 {
                if step == shift_at {
                    shift_levels(&mut expected, &inside);
                    panel.shift_window(&inside).unwrap();
                }
                for level in expected.iter_mut().filter(|level| level.nnz() > 0) {
                    level.step(chain.transposed(), &mut scratch).unwrap();
                }
                chain.step_levels_backward_on(arm, &mut panel).unwrap();
                let unpacked = panel.to_levels();
                prop_assert_eq!(unpacked.len(), levels);
                for (j, (got, want)) in unpacked.iter().zip(&expected).enumerate() {
                    prop_assert_eq!(span_bits(got), span_bits(&want.to_span()),
                        "{:?} arm, step {}, level {}", arm, step, j);
                    prop_assert!(panel.span().contains(&got.span().0) || got.nnz() == 0);
                }
            }
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
fn scattered_sources_keep_the_sorted_index_arm_under_every_gather_arm() {
    // Mass on the two ends of a banded chain: the live columns reach rows
    // 0..4 and 60..64, 64 output slots for a handful of entries — past the
    // 4× guard, so the step goes to the sorted-index scatter over Mᵀ.
    let chain = uneven_chain(7, 64, 3, Some(2));
    let mut ends = vec![0.0; 64];
    (ends[0], ends[63]) = (0.25, 0.75);
    let start = PropagationVector::from_dense(DenseVector::from_vec(ends));
    assert!(!start.is_sparse());
    let mut expected = start.clone();
    let mut scratch = SpmvScratch::new();
    expected.step(chain.transposed(), &mut scratch).unwrap();
    assert!(expected.is_sparse());
    for arm in GatherArm::available() {
        let mut gathered = start.clone();
        chain.step_backward_on(arm, &mut gathered, &mut scratch).unwrap();
        assert!(gathered.is_sparse(), "{arm:?}");
        assert_eq!(arm_and_bits(&gathered), arm_and_bits(&expected), "{arm:?}");
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
