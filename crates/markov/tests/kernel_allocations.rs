//! The propagation kernels allocate nothing once their buffers have grown:
//! every step recycles its input's storage through the [`SpmvScratch`]
//! pools (the level panel through its own two buffers). A counting global
//! allocator checks this by running the kernels, callees included. Each
//! arm — the sorted-index CSR rows, a single span step, the span panel of
//! `step_batch`, and the backward gather and the level panel on every arm
//! the CPU has — first steps until its support stops growing (growing
//! vectors do allocate larger buffers), then must take 100 more steps
//! without a single allocation.

#![allow(unsafe_code, reason = "the counting global allocator wraps the system allocator")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ust_markov::kernels::{GatherArm, LevelPanel};
use ust_markov::{
    CsrMatrix, MarkovChain, PropagationVector, SpanVector, SparseVector, SpmvScratch, StateMask,
};

/// The system allocator, counting the allocations made on each thread
/// (`GlobalAlloc`'s default `alloc_zeroed` and `realloc` go through
/// `alloc`, so zeroed and resized buffers count too).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `Counting` upholds exactly the `GlobalAlloc` contract
// `System` does; the counter is a const-initialised thread-local `Cell`,
// whose access neither allocates nor unwinds (a thread being torn down
// no longer counts).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator, i.e.
        // from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `step` (one step of an arm on `n` states, answering its total
/// support) until the support stops growing, then requires 100 more steps
/// to allocate nothing.
fn assert_steady(arm: &str, n: usize, mut step: impl FnMut() -> usize) {
    let (mut support, mut warm_up) = (step(), 1);
    loop {
        let next = step();
        warm_up += 1;
        if next <= support {
            break;
        }
        support = next;
        assert!(warm_up < 10_000, "{arm}: the support saturates");
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..100 {
        step();
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocated, 0,
        "{arm} on {n} states: {allocated} allocations in 100 steps after a {warm_up}-step warm-up"
    );
}

/// A chain on `n` states whose state `i` moves to the states `row(i)`, with
/// unequal weights.
fn chain(n: usize, row: impl Fn(usize) -> Vec<usize>) -> MarkovChain {
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|i| row(i).into_iter().map(|j| (j, 1.0 + ((i + 2 * j) % 5) as f64)).collect())
        .collect();
    MarkovChain::from_weights(CsrMatrix::from_rows(n, &rows).unwrap()).unwrap()
}

/// The span arms' chains: each state moves up to `band` states either way,
/// a wide band that saturates fast and a narrow one on twice the states
/// that takes hundreds of steps.
fn banded() -> impl Iterator<Item = (usize, MarkovChain)> {
    [(256, 3), (512, 1)].into_iter().map(|(n, band)| {
        (n, chain(n, |i| (i.saturating_sub(band)..(i + band + 1).min(n)).collect()))
    })
}

/// `members` distributions over four neighbouring states around the
/// middle, each weighted differently.
fn clustered(n: usize, members: usize) -> Vec<PropagationVector> {
    (0..members)
        .map(|k| {
            let pairs = (0..4).map(|j| (n / 2 + j, 1.0 + ((j + k) % 4) as f64));
            let mut v = SparseVector::from_pairs(n, pairs).unwrap();
            v.normalize().unwrap();
            PropagationVector::from_sparse(v)
        })
        .collect()
}

#[test]
fn sorted_index_rows_recycle_their_storage() {
    // Each state stays or jumps `stride` states up: from one state the
    // support is every `stride`-th state, scattered, on the sorted-index arm.
    for (n, stride) in [(256, 16), (512, 8)] {
        let chain = chain(n, |i| vec![i.min((i + stride) % n), i.max((i + stride) % n)]);
        let (mut scratch, mut v) =
            (SpmvScratch::new(), PropagationVector::from_sparse(SparseVector::unit(n, 3).unwrap()));
        assert_steady("the sorted-index rows", n, || {
            v.step(chain.matrix(), &mut scratch).unwrap();
            assert!(v.is_sparse(), "the support stays scattered");
            v.nnz()
        });
    }
}

#[test]
fn a_span_step_recycles_its_storage() {
    for (n, chain) in banded() {
        let mut scratch = SpmvScratch::new();
        let mut v = PropagationVector::from_sparse(SparseVector::unit(n, n / 3).unwrap());
        assert_steady("a span step", n, || {
            v.step(chain.matrix(), &mut scratch).unwrap();
            assert!(!v.is_sparse(), "a band keeps the support contiguous");
            v.nnz()
        });
    }
}

#[test]
fn the_span_panel_recycles_its_storage() {
    for (n, chain) in banded() {
        let (mut scratch, mut batch) = (SpmvScratch::new(), clustered(n, 8));
        assert_steady("the span panel", n, || {
            let stats = chain.matrix().step_batch(&mut batch, &[], &mut scratch).unwrap();
            let support = batch.iter().map(PropagationVector::nnz).sum();
            assert!(stats.rows_traversed < support as u64, "the members share one panel");
            support
        });
    }
}

#[test]
fn the_backward_gather_recycles_its_storage_on_every_arm() {
    for arm in GatherArm::available() {
        for (n, chain) in banded() {
            let (mut scratch, mut levels) = (SpmvScratch::new(), clustered(n, 3));
            assert_steady(&format!("the {arm:?} gather"), n, || {
                for level in &mut levels {
                    chain.step_backward_on(arm, level, &mut scratch).unwrap();
                }
                assert!(levels.iter().all(|level| !level.is_sparse()), "the gather's arm");
                levels.iter().map(PropagationVector::nnz).sum()
            });
        }
    }
}

#[test]
fn the_level_panel_recycles_its_storage() {
    // Five levels started on the clustered distributions, stepped with a
    // window shift on three states next to the cluster before every step,
    // as a k-times sweep whose every step enters a query time.
    for arm in GatherArm::available() {
        for (n, chain) in banded() {
            let starts: Vec<SpanVector> = clustered(n, 5).iter().map(|v| v.to_span()).collect();
            let mut panel = LevelPanel::from_levels(n, &starts).unwrap();
            let inside = StateMask::from_indices(n, [n / 2 - 3, n / 2 - 2, n / 2 - 1]).unwrap();
            assert_steady(&format!("the {arm:?} level panel"), n, || {
                panel.shift_window(&inside).unwrap();
                chain.step_levels_backward_on(arm, &mut panel).unwrap();
                panel.span().len()
            });
        }
    }
}
