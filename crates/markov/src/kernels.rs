//! The cache-blocked panel kernel behind [`CsrMatrix::step_batch`].
//!
//! Span vectors whose spans overlap — a k-times level family, clustered
//! objects — step together through one interleaved *panel*:
//! `panel[j * P + k]` holds vector `k`'s value at the panel's `j`-th
//! column, so for a given matrix entry the `P` vector values are contiguous
//! and the inner loop is an unrolled (and, on `x86_64` with AVX,
//! vectorized) multiply-add over the panel row. The panel covers the
//! members' union span, not the state space; its width `P` is sized so the
//! panel fits a slice of L2 (`panel_width`), and the matrix rows of the
//! union span are streamed once per panel instead of once per vector.
//!
//! **Bit-identity contract.** Per vector, the floating-point operations
//! and their order are exactly those of a solo
//! [`crate::hybrid::PropagationVector::step`]: ascending source state,
//! then ascending column within each matrix row, with a first touch
//! computed as `0.0 + vi * m` (a zeroed slot plus the term). SIMD and
//! unrolling only ever act *across* independent vectors of a panel, never
//! across the terms of one vector's accumulation, so no sum is reassociated
//! and no FMA contraction is introduced. The proptests in
//! `tests/proptests.rs` pin this contract across panel widths and batch
//! compositions.

use std::ops::Range;

use crate::csr::{CsrMatrix, Reach, SpmvScratch};
use crate::hybrid::BatchStepStats;
use crate::span_vec::SpanVector;

/// Byte budget for one input + output panel pair — a conservative slice
/// of a typical per-core L2 so the hot panel data stays cache-resident
/// while the matrix streams through.
const PANEL_L2_BYTES: usize = 256 * 1024;

/// Width of the SIMD/unrolled lane groups the panel kernels operate on.
pub(crate) const LANE_WIDTH: usize = 4;

/// Most lanes a panel ever interleaves.
const MAX_PANEL_WIDTH: usize = 64;

/// Panel rows transposed per block when unpacking: a block of the widest
/// panel is 32 KiB, an L1-resident tile.
const TRANSPOSE_ROWS: usize = 64;

/// Panel width (vectors interleaved per panel) for a union span of `ncols`
/// states and a group of `batch` span vectors: as many lanes as keep
/// `2 × P × ncols` doubles inside [`PANEL_L2_BYTES`], clamped to
/// `[LANE_WIDTH, 64]`, rounded down to a [`LANE_WIDTH`] multiple, and
/// never more than the batch itself.
pub(crate) fn panel_width(ncols: usize, batch: usize) -> usize {
    let by_cache = PANEL_L2_BYTES / (2 * std::mem::size_of::<f64>() * ncols.max(1));
    let p = by_cache.clamp(LANE_WIDTH, MAX_PANEL_WIDTH);
    if p >= batch {
        batch.max(1)
    } else {
        // p >= LANE_WIDTH, so the rounding never reaches zero.
        p & !(LANE_WIDTH - 1)
    }
}

/// The span half of the batched kernel: one interleaved multi-vector
/// panel over the members' **union span**.
///
/// `panel` holds at most [`panel_width`] span vectors whose spans overlap
/// (a k-times level family, clustered objects — the caller groups them),
/// `rows` is the union of their spans and `out` the [`Reach`] of those
/// rows. The rows are streamed once ([`sweep_panel`]) into an interleaved
/// output panel — `panel_out[j * P + k]` holds vector `k`'s value at the
/// `j`-th column of `out` — which is then transposed back, a block of
/// columns at a time so the strided side of the copy stays in L1. Each
/// member is replaced by its stepped vector, trimmed to its own span; value
/// storage is recycled through `scratch.span_pool`. Reports the matrix
/// rows streamed and the entries multiplied (per vector fed).
pub(crate) fn step_span_panel(
    m: &CsrMatrix,
    panel: &mut [SpanVector],
    (rows, out): (Range<usize>, Reach),
    scratch: &mut SpmvScratch,
) -> BatchStepStats {
    let mut stats = BatchStepStats::default();
    // Lanes are padded to whole SIMD groups: a pad lane holds zeros,
    // accumulates `0.0 * m` and is never unpacked.
    let stride = panel.len().next_multiple_of(LANE_WIDTH);
    let mut panel_out = std::mem::take(&mut scratch.panel_out);
    panel_out.clear();
    panel_out.resize((out.hi - out.lo) * stride, 0.0);
    sweep_panel(m, panel, &mut panel_out, (rows, out.lo), &mut stats);
    let mut outs = std::mem::take(&mut scratch.panel_lanes);
    outs.clear();
    outs.resize_with(panel.len(), || scratch.zeroed_span(out.hi - out.lo));
    for block in (0..out.hi - out.lo).step_by(TRANSPOSE_ROWS) {
        for (k, lane_out) in outs.iter_mut().enumerate() {
            let lane = panel_out[block * stride + k..].iter().step_by(stride);
            for (slot, &v) in lane_out[block..].iter_mut().take(TRANSPOSE_ROWS).zip(lane) {
                *slot = v;
            }
        }
    }
    for (member, lane_out) in panel.iter_mut().zip(outs.drain(..)) {
        let next = SpanVector::from_parts(m.ncols(), out.lo, lane_out);
        let previous = std::mem::replace(member, next);
        // lint: allow(alloc-in-kernel-hot-loop) — returns the input's buffer to the pool it was taken from; one push per lane, not per element
        scratch.span_pool.push(previous.into_values());
    }
    scratch.panel_out = panel_out;
    scratch.panel_lanes = outs;
    stats
}

/// Streams the matrix rows `rows` once into the interleaved output panel
/// whose first column is `out_lo`, with the widest lane-group update the
/// CPU has, adding the work to `stats`.
fn sweep_panel(
    m: &CsrMatrix,
    panel: &[SpanVector],
    panel_out: &mut [f64],
    (rows, out_lo): (Range<usize>, usize),
    stats: &mut BatchStepStats,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX availability was just checked.
            return unsafe { sweep_panel_avx(m, panel, panel_out, (rows, out_lo), stats) };
        }
    }
    sweep_panel_with(m, panel, panel_out, (rows, out_lo), stats, axpy_panel_scalar)
}

/// [`sweep_panel`] compiled with AVX enabled, so the lane-group update
/// inlines into the row loop.
///
/// # Safety
/// Caller must ensure the `avx` target feature is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sweep_panel_avx(
    m: &CsrMatrix,
    panel: &[SpanVector],
    panel_out: &mut [f64],
    (rows, out_lo): (Range<usize>, usize),
    stats: &mut BatchStepStats,
) {
    sweep_panel_with(m, panel, panel_out, (rows, out_lo), stats, |out, vals, mv| {
        // SAFETY: this function is only entered with AVX available.
        unsafe { axpy_panel_avx(out, vals, mv) }
    })
}

/// The row sweep behind [`sweep_panel`]. Per row, the lanes' values are
/// gathered from the members (no packed input panel is ever written) and
/// every lane takes the branch-free lane-group update `axpy`. A zero lane
/// then adds `0.0 · m` to its slots — an identity on an accumulator, which
/// starts at `+0.0` and can never hold `-0.0` — unless `m` is not finite:
/// such rows take the per-lane loop, which *skips* a zero lane's
/// multiply-add exactly as [`CsrMatrix::vecmat_dense`] does.
#[inline(always)]
fn sweep_panel_with(
    m: &CsrMatrix,
    panel: &[SpanVector],
    panel_out: &mut [f64],
    (rows, out_lo): (Range<usize>, usize),
    stats: &mut BatchStepStats,
    axpy: impl Fn(&mut [f64], &[f64], f64),
) {
    let lanes = panel.len();
    let stride = lanes.next_multiple_of(LANE_WIDTH);
    let mut gathered = [0.0; MAX_PANEL_WIDTH];
    let vals_i = &mut gathered[..stride];
    for i in rows {
        let mut live = 0;
        for (slot, member) in vals_i.iter_mut().zip(panel) {
            *slot = member.get(i);
            live += u64::from(*slot != 0.0);
        }
        if live == 0 {
            continue;
        }
        let (cols, mvals) = m.row(i);
        stats.rows_traversed += 1;
        stats.entries_touched += cols.len() as u64 * live;
        if live == lanes as u64 || mvals.iter().all(|mv| mv.is_finite()) {
            for (&c, &mv) in cols.iter().zip(mvals) {
                let base = (c as usize - out_lo) * stride;
                axpy(&mut panel_out[base..base + stride], vals_i, mv);
            }
        } else {
            for (k, &vi) in vals_i[..lanes].iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                for (&c, &mv) in cols.iter().zip(mvals) {
                    panel_out[(c as usize - out_lo) * stride + k] += vi * mv;
                }
            }
        }
    }
}

/// `out[k] += vals[k] * m` across a panel row of whole [`LANE_WIDTH`]
/// groups — the only loop SIMD ever touches. Element-wise with separate
/// multiply and add (never FMA), so each lane's operation is bitwise the
/// scalar reference.
#[inline]
fn axpy_panel_scalar(out: &mut [f64], vals: &[f64], m: f64) {
    for (oc, vc) in out.chunks_exact_mut(LANE_WIDTH).zip(vals.chunks_exact(LANE_WIDTH)) {
        oc[0] += vc[0] * m;
        oc[1] += vc[1] * m;
        oc[2] += vc[2] * m;
        oc[3] += vc[3] * m;
    }
}

/// AVX form of [`axpy_panel_scalar`]: 4 doubles per step with distinct
/// `_mm256_mul_pd` + `_mm256_add_pd` (no fused multiply-add, preserving
/// the scalar rounding per element).
///
/// # Safety
/// Caller must ensure the `avx` target feature is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn axpy_panel_avx(out: &mut [f64], vals: &[f64], m: f64) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    let mv = _mm256_set1_pd(m);
    for (oc, vc) in out.chunks_exact_mut(LANE_WIDTH).zip(vals.chunks_exact(LANE_WIDTH)) {
        // SAFETY: both chunks hold exactly LANE_WIDTH = 4 doubles, the
        // width of one unaligned 256-bit load / store.
        unsafe {
            let prod = _mm256_mul_pd(_mm256_loadu_pd(vc.as_ptr()), mv);
            let sum = _mm256_add_pd(_mm256_loadu_pd(oc.as_ptr()), prod);
            _mm256_storeu_pd(oc.as_mut_ptr(), sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_width_respects_cache_budget_and_batch() {
        // Tiny matrices: the whole batch fits one panel.
        assert_eq!(panel_width(3, 2), 2);
        assert_eq!(panel_width(3, 64), 64);
        // Large state spaces clamp to the minimum lane group.
        assert_eq!(panel_width(1_000_000, 128), LANE_WIDTH);
        // Mid sizes are LANE_WIDTH multiples below the batch.
        let p = panel_width(10_000, 128);
        assert!(p >= LANE_WIDTH && p.is_multiple_of(LANE_WIDTH) && p <= 128);
        // Degenerate batch.
        assert_eq!(panel_width(10, 0), 1);
    }

    #[test]
    fn axpy_paths_agree_bitwise() {
        let vals: Vec<f64> = (0..12).map(|k| 0.1 + k as f64 * 0.07).collect();
        let m = 0.37;
        let mut a: Vec<f64> = (0..12).map(|k| k as f64 * 0.01).collect();
        let mut b = a.clone();
        let reference: Vec<f64> = a.iter().zip(&vals).map(|(o, v)| o + v * m).collect();
        axpy_panel_scalar(&mut b, &vals, m);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX availability was just checked.
            unsafe { axpy_panel_avx(&mut a, &vals, m) };
            b.iter().zip(&a).for_each(|(x, y)| assert_eq!(x.to_bits(), y.to_bits()));
        }
        for (x, y) in b.iter().zip(&reference) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
