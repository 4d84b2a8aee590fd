//! Microbenchmark harness for the batched sparse kernels, shaped like the
//! fig11-ci locality workload (10k states, 5 random successors in a
//! 50-wide band, contiguous 5-state starts at random centers).
//!
//! Compares the shared-union, adaptive and per-object kernel modes with
//! the two solo step orders (object-major = hot cache, step-major = the
//! access pattern a batch forces), isolating kernel cost from driver and
//! window bookkeeping. Useful when tuning `kernels.rs` — the benchmark's
//! `forward_scan` workload measures the same trade end to end.

use std::time::Instant;

use ust_markov::{CooBuilder, CsrMatrix, KernelMode, PropagationVector, SparseVector, SpmvScratch};

struct Lcg(u64);
impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound
    }
}

fn banded(n: usize, max_step: usize, spread: usize, rng: &mut Lcg) -> CsrMatrix {
    let mut coo = CooBuilder::new(n, n);
    let mut cols = Vec::new();
    for i in 0..n {
        let lo = i.saturating_sub(max_step / 2);
        let hi = (i + max_step / 2).min(n - 1);
        cols.clear();
        while cols.len() < spread {
            let c = lo + rng.next(hi - lo + 1);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols.sort_unstable();
        for &c in &cols {
            coo.push(i, c, 1.0 / spread as f64).unwrap();
        }
    }
    coo.build()
}

fn main() {
    let n = 10_000;
    let mut rng = Lcg(42);
    let m = banded(n, 50, 5, &mut rng);
    let members = 128usize;
    let steps = 25u32;
    let rounds = 50;

    let starts: Vec<usize> = (0..members).map(|_| rng.next(n - 5)).collect();
    let make = |starts: &[usize]| -> Vec<PropagationVector> {
        starts
            .iter()
            .map(|&s| {
                let v = SparseVector::from_pairs(n, (s..s + 5).map(|i| (i, 0.2))).unwrap();
                PropagationVector::from_sparse(v).with_densify_threshold(0.25)
            })
            .collect()
    };

    for (label, mode) in [
        ("shared-union", KernelMode::SharedUnion),
        ("auto        ", KernelMode::Auto),
        ("per-object  ", KernelMode::PerObject),
    ] {
        let mut scratch = SpmvScratch::new();
        let t0 = Instant::now();
        for _ in 0..rounds {
            let mut rows = make(&starts);
            for _ in 0..steps {
                m.step_batch_with_mode(&mut rows, &[], mode, &mut scratch).unwrap();
            }
        }
        println!("{label}  batch: {:?}", t0.elapsed() / rounds);
    }

    // Solo loop: object-at-a-time, all steps consecutively (hot cache) —
    // what the batch-1 baseline effectively runs.
    let mut scratch = SpmvScratch::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let mut rows = make(&starts);
        for row in &mut rows {
            for _ in 0..steps {
                row.step(&m, &mut scratch).unwrap();
            }
        }
    }
    println!("solo object-major: {:?}", t0.elapsed() / rounds);

    // Solo loop, step-major order (cold cache, same ops as batch per-object).
    let mut scratch = SpmvScratch::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let mut rows = make(&starts);
        for _ in 0..steps {
            for row in &mut rows {
                row.step(&m, &mut scratch).unwrap();
            }
        }
    }
    println!("solo step-major  : {:?}", t0.elapsed() / rounds);
}
