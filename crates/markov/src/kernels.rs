//! The SIMD propagation kernels: the cache-blocked panel kernel behind
//! [`CsrMatrix::step_batch`] (forward steps), the sliced-row gather behind
//! [`crate::chain::MarkovChain::step_backward`] (backward steps of one
//! vector) and the level panel behind
//! [`crate::chain::MarkovChain::step_levels_backward`] (backward steps of a
//! k-times level family).
//!
//! **Forward panel.** Span vectors whose spans overlap — a k-times level
//! family, clustered objects — step together through one interleaved
//! *panel*: `panel[j * P + k]` holds vector `k`'s value at the panel's
//! `j`-th column, so for a given matrix entry the `P` vector values are
//! contiguous and the inner loop is an unrolled (and, on `x86_64` with
//! AVX, vectorized) multiply-add over the panel row. The panel covers the
//! members' union span, not the state space; its width `P` is sized so the
//! panel fits a slice of L2 (`panel_width`), and the matrix rows of the
//! union span are streamed once per panel instead of once per vector.
//!
//! **Backward gather.** A backward step `h ← M · h` is one dot product per
//! row of `M`. `SlicedRows` holds `M` in sliced ELLPACK layout (SELL-C-σ,
//! Kreutzer et al., SIAM J. Sci. Comput. 2014, with C = 8 and no sorting):
//! slice `k` interleaves rows `8k … 8k+7`, so entry `e` of the eight rows
//! is eight consecutive `(offset, value)` pairs and one output slot per
//! lane accumulates its row's terms in vector registers — two 4-lane
//! gathers of input values per slice entry on AVX2, a scalar loop
//! otherwise; a slice wholly inside the output range is stored as one
//! fixed-size block. The output range is the rows the live inputs reach,
//! read off a per-column `(first row, last row, running entry total)` table
//! within the table's band (`csr::LineTable::reached`): the `Reach` the scatter
//! over `Mᵀ` would compute, so the same `Reach::is_scattered` guard picks
//! the same arm.
//!
//! **Level panel.** The `|T▫| + 1` visit levels of a k-times backward
//! field are one generating function's coefficients per state, so
//! [`LevelPanel`] keeps them interleaved for the whole sweep:
//! `vals[(s − lo) · W + j]`, `W` the level count rounded up to whole lane
//! groups, over the levels' union span. A step walks `M`'s CSR rows over
//! the output range — read off the same column table — and adds each
//! entry's `W` source lanes into its row with the forward panel's lane op:
//! contiguous loads, no gathers, one pass over `M` for up to 16 lanes,
//! whose accumulators stay in registers across a row (wider families take
//! one pass per 16-lane block). The k-times window rule is a lane shift
//! on the rows of `S▫`; the levels are unpacked into span vectors only
//! where a field keeps a snapshot, all levels in one blocked pass.
//!
//! **Bit-identity contract.** Per vector, the floating-point operations
//! and their order are exactly those of a solo
//! [`crate::hybrid::PropagationVector::step`]: per output slot, the terms
//! in ascending source state (ascending column within each matrix row for
//! the panel; ascending column of `M`'s row — the scatter's ascending
//! source over `Mᵀ` — for the gather and the level panel), accumulated from
//! `0.0` as a separate multiply and add, never an FMA. SIMD and unrolling
//! only ever act *across* independent slots or vectors, never across the
//! terms of one slot's accumulation, so no sum is reassociated. The band
//! rule that bounds a step's output range changes only which lines are
//! read to find it, never the range, the counts or the arm they select
//! (`band_bounded_reach_equals_the_full_fold`). The gather
//! adds `+0.0` for the padded entries and the in-span zero sources the
//! scatter skips, the level panel for every zero lane (a source outside
//! its span it skips): the identity on the finite, non-negative values a
//! validated chain and its fields carry. The proptests in
//! `tests/proptests.rs` pin this contract across panel widths, batch
//! compositions, level families and arms.

use std::ops::Range;

use crate::csr::{Band, CsrMatrix, LineTable, Reach, SpmvScratch};
use crate::error::{MarkovError, Result};
use crate::hybrid::BatchStepStats;
use crate::mask::StateMask;
use crate::span_vec::SpanVector;

/// Rows per slice of [`SlicedRows`]: two AVX2 registers of doubles.
const SLICE_ROWS: usize = 8;

/// Byte budget for one input + output panel pair — a conservative slice
/// of a typical per-core L2 so the hot panel data stays cache-resident
/// while the matrix streams through.
const PANEL_L2_BYTES: usize = 256 * 1024;

/// Width of the SIMD/unrolled lane groups the panel kernels operate on.
pub(crate) const LANE_WIDTH: usize = 4;

/// Most lanes a panel ever interleaves.
const MAX_PANEL_WIDTH: usize = 64;

/// Most lanes of a level panel one walk over a row accumulates: four
/// AVX registers.
const LEVEL_BLOCK: usize = 16;

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
        // Returns the input's buffer to the pool it was taken from: the push
        // reuses the pool's capacity once a sweep is warm, so it allocates
        // nothing (`tests/kernel_allocations.rs`).
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

/// A SIMD arm of the backward kernels: the gather (`SlicedRows`) and the
/// level panel ([`LevelPanel`]). Every arm performs the same operations per
/// output slot, so both are bit-identical; [`GatherArm::detect`] picks the
/// widest the CPU has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherArm {
    /// One scalar multiply-add per slot and entry.
    Scalar,
    /// Two 4-lane `i32` gathers per slice entry; the level panel's AVX
    /// lane op (AVX2 implies AVX).
    Avx2,
}

impl GatherArm {
    /// The widest arm the CPU supports.
    pub fn detect() -> GatherArm {
        if GatherArm::Avx2.is_supported() {
            GatherArm::Avx2
        } else {
            GatherArm::Scalar
        }
    }

    /// Every arm the CPU supports, narrowest first; always starts with
    /// [`GatherArm::Scalar`].
    pub fn available() -> Vec<GatherArm> {
        [GatherArm::Scalar, GatherArm::Avx2].into_iter().filter(|arm| arm.is_supported()).collect()
    }

    /// True when the CPU can run this arm.
    fn is_supported(self) -> bool {
        match self {
            GatherArm::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            GatherArm::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// One column's footprint in `M`: the rows `first..end` holding its
/// entries — the row of `Mᵀ` the scatter would read, reduced to what a
/// [`Reach`] needs — and the entries of columns `0..=c` (a running total,
/// so the entries of a run of columns are one difference). An empty column
/// has `first = u32::MAX`.
#[derive(Debug, Clone, Copy)]
struct ColumnReach {
    first: u32,
    end: u32,
    through: u32,
}

/// A square matrix `M` in sliced ELLPACK layout with 8-row slices — the
/// operand of the backward gather.
///
/// Slice `k` holds rows `8k … 8k+7`; entry `e` of row `r` sits at
/// `slice_off[k] + 8e + (r mod 8)`, as its column's offset from the
/// slice's first column and its value. A row shorter than its slice's
/// longest row is padded with value `0.0` at the row's own last column
/// (at the slice's first column if it has none, and for the rows past
/// `|S|` of a partial last slice), so storage and gather work per slice
/// are 8 × its longest row: the copy stays about `M`'s size, and a step
/// about the scatter's work, only while the rows within each slice have
/// similar lengths (one 1 000-entry row pads its 7 neighbours to 1 000
/// entries each; sorting rows by length, the σ of SELL-C-σ, is not done).
/// The fields stay private to this module: the gathers' memory safety rests on every stored offset lying
/// inside its slice's column extent, which only [`SlicedRows::new`]
/// establishes.
#[derive(Debug)]
pub(crate) struct SlicedRows {
    dim: usize,
    /// Slice `k`'s entries are `slice_off[k]..slice_off[k + 1]`.
    slice_off: Vec<usize>,
    /// Each entry's column minus its slice's first column.
    offsets: Vec<u32>,
    values: Vec<f64>,
    /// Per slice: its first and last column (`(u32::MAX, 0)` when the
    /// slice stores nothing).
    extent: Vec<(u32, u32)>,
    /// Per column of `M`.
    columns: Vec<ColumnReach>,
    /// How far the columns' rows lie from the column's own index.
    band: Band,
}

impl SlicedRows {
    /// Lays out the square matrix `m` in one pass over its rows, every
    /// vector allocated at its exact final size.
    pub(crate) fn new(m: &CsrMatrix) -> SlicedRows {
        debug_assert_eq!(m.nrows(), m.ncols(), "a transition matrix is square");
        let dim = m.nrows();
        let rows_of = |k: usize| k * SLICE_ROWS..((k + 1) * SLICE_ROWS).min(dim);
        let slices = dim.div_ceil(SLICE_ROWS);
        let slice_off: Vec<usize> = std::iter::once(0)
            .chain((0..slices).scan(0, |total, k| {
                *total += SLICE_ROWS * rows_of(k).map(|r| m.row_nnz(r)).max().unwrap_or(0);
                Some(*total)
            }))
            .collect();
        let total = slice_off[slices];
        let mut offsets = vec![0u32; total];
        let mut values = vec![0.0; total];
        let mut extent = vec![(u32::MAX, 0); slices];
        // The running totals count in `u32`, as the stored offsets do.
        assert!(u32::try_from(m.nnz()).is_ok(), "the sliced copy holds fewer than 2³² entries");
        let mut columns = vec![ColumnReach { first: u32::MAX, end: 0, through: 0 }; dim];
        for (k, slice_extent) in extent.iter_mut().enumerate() {
            let lanes = rows_of(k).map(|r| m.row(r));
            let ends = lanes.clone().filter_map(|(cols, _)| Some((*cols.first()?, *cols.last()?)));
            *slice_extent = ends.fold(*slice_extent, |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
            let first = slice_extent.0;
            let span = slice_off[k]..slice_off[k + 1];
            let width = span.len() / SLICE_ROWS;
            let (slice_offsets, slice_values) = (&mut offsets[span.clone()], &mut values[span]);
            for (lane, (r, (cols, vals))) in rows_of(k).zip(lanes).enumerate() {
                let slots = |e: usize| e * SLICE_ROWS + lane;
                for (e, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                    (slice_offsets[slots(e)], slice_values[slots(e)]) = (c - first, v);
                }
                // Padding keeps the value 0.0 the buffers start with.
                let pad = cols.last().map_or(0, |&c| c - first);
                for e in cols.len()..width {
                    slice_offsets[slots(e)] = pad;
                }
                // Branch-free: whether a column was seen before is as good
                // as random on a banded chain.
                for &c in cols {
                    let column = &mut columns[c as usize];
                    column.first = column.first.min(r as u32);
                    column.end = r as u32 + 1;
                    column.through += 1;
                }
            }
        }
        let mut total = 0;
        for column in &mut columns {
            total += column.through;
            column.through = total;
        }
        let mut rows =
            SlicedRows { dim, slice_off, offsets, values, extent, columns, band: Band::default() };
        rows.band = Band::of((0..dim).filter_map(|c| Some((c, rows.ends(c)?))));
        rows
    }

    /// The most stored entries of any row (a slice's width) or column of
    /// `M`.
    pub(crate) fn max_line_nnz(&self) -> usize {
        let rows = self.slice_off.windows(2).map(|pair| (pair[1] - pair[0]) / SLICE_ROWS);
        let columns =
            (0..self.dim).map(|c| (self.entries_before(c + 1) - self.entries_before(c)) as usize);
        rows.chain(columns).max().unwrap_or(0)
    }

    /// One backward step `M · v` of a span vector whose `reach` is known,
    /// on `arm`: rows `reach.lo..reach.hi` — the scatter's output range —
    /// written slice by slice into a buffer from `scratch.span_pool`, then
    /// counted and trimmed. The input is first copied into the pooled,
    /// zero-padded buffer `scratch.gather_in` covering the column extent
    /// of those rows' slices.
    pub(crate) fn step(
        &self,
        v: &SpanVector,
        reach: Reach,
        arm: GatherArm,
        scratch: &mut SpmvScratch,
    ) -> SpanVector {
        let mut out = scratch.zeroed_span(reach.hi - reach.lo);
        let mut input = std::mem::take(&mut scratch.gather_in);
        self.gather(v, reach.lo, &mut input, &mut out, arm);
        scratch.gather_in = input;
        SpanVector::from_parts(self.dim, reach.lo, out)
    }

    /// Fills `input` with `v` over the column extent of the slices holding
    /// rows `out_lo..out_lo + out.len()` and writes those rows of `M · v`
    /// to `out`, on `arm` when the CPU has it and every buffer offset fits
    /// an `i32`, on the scalar loop otherwise.
    fn gather(
        &self,
        v: &SpanVector,
        out_lo: usize,
        input: &mut Vec<f64>,
        out: &mut [f64],
        arm: GatherArm,
    ) {
        let slices = out_lo / SLICE_ROWS..(out_lo + out.len()).div_ceil(SLICE_ROWS);
        let (first, last) = self.extent[slices.clone()]
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &(a, b)| (lo.min(a), hi.max(b)));
        let (base, len) = (first as usize, (last as usize + 1).saturating_sub(first as usize));
        let (offset, values) = v.span();
        let copy = offset.max(base)..(offset + values.len()).min(base + len);
        input.clear();
        if !copy.is_empty() {
            input.resize(copy.start - base, 0.0);
            input.extend_from_slice(&values[copy.start - offset..copy.end - offset]);
        }
        input.resize(len, 0.0);
        // Every slice with entries starts inside `input` (so `&input[first
        // - base..]` cannot panic) and every offset it stores is at most
        // its extent's width (`new`), so the gathers read inside `input`
        // exactly when every such slice's last column does.
        assert!(
            self.extent[slices.clone()]
                .iter()
                .all(|&(a, b)| a > b || (b as usize) < base + input.len()),
            "every gathered slice lies inside the input buffer"
        );
        let arm = if input.len() <= i32::MAX as usize && arm.is_supported() {
            arm
        } else {
            GatherArm::Scalar
        };
        let rows = (slices, out_lo);
        match arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 was just checked, every gathered slice lies inside
            // `input` (asserted above) and every buffer offset fits an `i32`.
            GatherArm::Avx2 => unsafe { self.gather_avx2(rows, input, base, out) },
            _ => self.sweep_slices(rows, input, base, out, slice_dot_scalar),
        }
    }

    /// The slice loop every arm shares: `dot` turns one slice's entries
    /// and its input (the buffer from the slice's first column on) into
    /// the slice's 8 row sums, and the rows of `out_lo..out_lo + out.len()`
    /// among them are copied out. A slice without entries sums to zero.
    #[inline(always)]
    fn sweep_slices(
        &self,
        (slices, out_lo): (Range<usize>, usize),
        input: &[f64],
        base: usize,
        out: &mut [f64],
        dot: impl Fn(&[u32], &[f64], &[f64]) -> [f64; SLICE_ROWS],
    ) {
        let out_hi = out_lo + out.len();
        for k in slices {
            let span = self.slice_off[k]..self.slice_off[k + 1];
            let (offsets, values) = (&self.offsets[span.clone()], &self.values[span]);
            let sums = if offsets.is_empty() {
                [0.0; SLICE_ROWS]
            } else {
                dot(offsets, values, &input[self.extent[k].0 as usize - base..])
            };
            let rows = (k * SLICE_ROWS).max(out_lo)..((k + 1) * SLICE_ROWS).min(out_hi);
            let dst = &mut out[rows.start - out_lo..rows.end - out_lo];
            // A whole slice is one fixed-size store, not a `memcpy` call.
            if let Ok(whole) = <&mut [f64; SLICE_ROWS]>::try_from(&mut *dst) {
                *whole = sums;
            } else {
                dst.copy_from_slice(&sums[rows.start - k * SLICE_ROWS..rows.end - k * SLICE_ROWS]);
            }
        }
    }

    /// [`Self::sweep_slices`] compiled with AVX2, two 4-lane gathers per
    /// slice entry.
    ///
    /// # Safety
    /// Caller must ensure `avx2` is available, that every slice of `rows`
    /// with entries has its last column inside `base..base + input.len()`,
    /// and that `input.len()` fits an `i32`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_avx2(
        &self,
        rows: (Range<usize>, usize),
        input: &[f64],
        base: usize,
        out: &mut [f64],
    ) {
        self.sweep_slices(rows, input, base, out, |offsets, values, src| {
            // SAFETY: this closure only runs with AVX2 available (the
            // caller's contract), on a slice whose offsets lie inside `src`.
            unsafe { slice_dot_avx2(offsets, values, src) }
        })
    }
}

/// The column table: line `c` is column `c` of `M`, its outputs the rows
/// holding its entries.
impl LineTable for SlicedRows {
    #[inline]
    fn ends(&self, c: usize) -> Option<(usize, usize)> {
        let column = self.columns[c];
        (column.first != u32::MAX).then(|| (column.first as usize, column.end as usize - 1))
    }

    #[inline]
    fn entries_before(&self, c: usize) -> u64 {
        c.checked_sub(1).map_or(0, |last| u64::from(self.columns[last].through))
    }

    fn band(&self) -> Band {
        self.band
    }
}

/// One slice's 8 row sums, scalar: per lane `acc ← acc + m·h`, entries in
/// order.
#[inline(always)]
fn slice_dot_scalar(offsets: &[u32], values: &[f64], src: &[f64]) -> [f64; SLICE_ROWS] {
    let mut acc = [0.0; SLICE_ROWS];
    for (o, m) in offsets.chunks_exact(SLICE_ROWS).zip(values.chunks_exact(SLICE_ROWS)) {
        for lane in 0..SLICE_ROWS {
            acc[lane] += m[lane] * src[o[lane] as usize];
        }
    }
    acc
}

/// [`slice_dot_scalar`] with two 4-lane gathers, multiplies and adds per
/// entry (no fused multiply-add).
///
/// # Safety
/// Caller must ensure `avx2` is available and that every offset is below
/// `src.len()` and fits an `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn slice_dot_avx2(offsets: &[u32], values: &[f64], src: &[f64]) -> [f64; SLICE_ROWS] {
    use std::arch::x86_64::{
        __m128i, _mm256_add_pd, _mm256_i32gather_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm_loadu_si128,
    };
    let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    for (o, m) in offsets.chunks_exact(SLICE_ROWS).zip(values.chunks_exact(SLICE_ROWS)) {
        // SAFETY: `o` and `m` hold 8 `u32` / 8 `f64`, two unaligned 128- /
        // 256-bit loads each, and every gathered offset lies inside `src`
        // (caller's contract).
        unsafe {
            let h_lo = _mm256_i32gather_pd::<8>(
                src.as_ptr(),
                _mm_loadu_si128(o.as_ptr().cast::<__m128i>()),
            );
            let h_hi = _mm256_i32gather_pd::<8>(
                src.as_ptr(),
                _mm_loadu_si128(o.as_ptr().add(4).cast::<__m128i>()),
            );
            lo = _mm256_add_pd(lo, _mm256_mul_pd(_mm256_loadu_pd(m.as_ptr()), h_lo));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(m.as_ptr().add(4)), h_hi));
        }
    }
    let mut sums = [0.0; SLICE_ROWS];
    // SAFETY: `sums` holds exactly 8 doubles, two 256-bit stores.
    unsafe {
        _mm256_storeu_pd(sums.as_mut_ptr(), lo);
        _mm256_storeu_pd(sums.as_mut_ptr().add(4), hi);
    }
    sums
}

/// The visit levels of a k-times backward field, interleaved per state —
/// the state of a whole k-times sweep.
///
/// `vals[(s − lo) · W + j]` holds level `j` at state `s` for the states of
/// [`LevelPanel::span`], the union of the levels' spans (its end rows are
/// never all zero); `W` is the level count rounded up to whole 4-lane
/// groups, and the pad lanes stay zero. A backward step walks `M`'s CSR
/// rows over the output range and adds each entry's `W` source lanes into
/// its row's `W` output lanes with the forward panel's lane op
/// (`axpy_panel_*`): contiguous loads, no gathers, the accumulators of up
/// to 16 lanes held in registers across a row. Both buffers are recycled
/// from step to step, so once a sweep's span stops growing it allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct LevelPanel {
    dim: usize,
    levels: usize,
    width: usize,
    /// The first state of the stored rows.
    lo: usize,
    vals: Vec<f64>,
    /// The buffer the next step (or widening) writes.
    spare: Vec<f64>,
}

impl LevelPanel {
    /// `levels` all-zero levels over `dim` states; stores nothing.
    pub fn zeros(dim: usize, levels: usize) -> LevelPanel {
        let width = levels.max(1).next_multiple_of(LANE_WIDTH);
        LevelPanel { dim, levels, width, lo: 0, vals: Vec::new(), spare: Vec::new() }
    }

    /// Interleaves `levels`, each of dimension `dim`, over the union of
    /// their spans.
    pub fn from_levels(dim: usize, levels: &[SpanVector]) -> Result<LevelPanel> {
        if let Some(level) = levels.iter().find(|level| level.dim() != dim) {
            return Err(MarkovError::DimensionMismatch {
                op: "level panel",
                expected: dim,
                found: level.dim(),
            });
        }
        let mut panel = LevelPanel::zeros(dim, levels.len());
        let spans = levels.iter().map(SpanVector::span).filter(|(_, values)| !values.is_empty());
        let (lo, hi) = spans.fold((usize::MAX, 0), |(lo, hi), (offset, values)| {
            (lo.min(offset), hi.max(offset + values.len()))
        });
        if hi > 0 {
            panel.widen(lo..hi);
        }
        let width = panel.width;
        for (j, level) in levels.iter().enumerate() {
            let (offset, values) = level.span();
            if values.is_empty() {
                continue;
            }
            let rows = panel.vals[(offset - lo) * width..].chunks_exact_mut(width);
            for (row, &v) in rows.zip(values) {
                row[j] = v;
            }
        }
        Ok(panel)
    }

    /// Dimension of the state space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The states the panel stores: outside it every level is zero.
    pub fn span(&self) -> Range<usize> {
        self.lo..self.lo + self.vals.len() / self.width
    }

    /// The levels one by one, each trimmed to its own non-zero span — the
    /// snapshot format of a backward field. Each level's first and last
    /// non-zero row come from two scans that stop once every level is
    /// found; the levels are then unpacked together in one pass over the
    /// panel, a block of 64 rows (an L1 tile) at a time, each into a
    /// buffer of its exact length.
    pub fn to_levels(&self) -> Vec<SpanVector> {
        let (width, rows) = (self.width, self.vals.len() / self.width);
        let firsts = self.first_nonzero_rows(0..rows);
        let lasts = self.first_nonzero_rows((0..rows).rev());
        let mut lanes: Vec<(Range<usize>, Vec<f64>)> = firsts
            .into_iter()
            .zip(lasts)
            .map(|ends| match ends {
                (Some(first), Some(last)) => {
                    (first..last + 1, Vec::with_capacity(last + 1 - first))
                }
                _ => (0..0, Vec::new()),
            })
            .collect();
        for block in (0..rows).step_by(TRANSPOSE_ROWS) {
            for (j, (span, values)) in lanes.iter_mut().enumerate() {
                let rows = block.max(span.start)..(block + TRANSPOSE_ROWS).min(span.end);
                if !rows.is_empty() {
                    let lane = self.vals[rows.start * width + j..].iter().step_by(width);
                    values.extend(lane.take(rows.len()));
                }
            }
        }
        let snapshot = |(span, values): (Range<usize>, _)| {
            SpanVector::from_parts(self.dim, self.lo + span.start, values)
        };
        lanes.into_iter().map(snapshot).collect()
    }

    /// Per level, the first of the panel rows `rows` (in the order given)
    /// where it is non-zero; the scan stops once every level is found.
    fn first_nonzero_rows(&self, rows: impl Iterator<Item = usize>) -> Vec<Option<usize>> {
        let mut found = vec![None; self.levels];
        let mut missing = self.levels;
        for r in rows {
            if missing == 0 {
                break;
            }
            let lanes = &self.vals[r * self.width..][..self.levels];
            for (slot, v) in found.iter_mut().zip(lanes).filter(|(slot, _)| slot.is_none()) {
                if *v != 0.0 {
                    *slot = Some(r);
                    missing -= 1;
                }
            }
        }
        found
    }

    /// The k-times window rule on the states of `inside`, in place: per
    /// state, level `j` takes level `j − 1` from the top down, level 1
    /// takes `1 −` level 0 (level 0 holds the deficit) and level 0 becomes
    /// 1. The panel first widens to cover `inside`.
    pub fn shift_window(&mut self, inside: &StateMask) -> Result<()> {
        if inside.dim() != self.dim {
            return Err(MarkovError::DimensionMismatch {
                op: "level panel window",
                expected: self.dim,
                found: inside.dim(),
            });
        }
        // The mask iterates in ascending order.
        let (lo, hi) = inside.iter().fold((usize::MAX, 0), |(lo, _), s| (lo.min(s), s + 1));
        if hi == 0 {
            return Ok(());
        }
        self.widen(lo..hi);
        for s in inside.iter() {
            let row = (s - self.lo) * self.width;
            let levels = &mut self.vals[row..row + self.levels];
            for j in (2..levels.len()).rev() {
                levels[j] = levels[j - 1];
            }
            if let [deficit, rest @ ..] = levels {
                if let Some(once) = rest.first_mut() {
                    *once = 1.0 - *deficit;
                }
                *deficit = 1.0;
            }
        }
        Ok(())
    }

    /// Grows the stored rows to cover `states` (non-empty) as well,
    /// through the spare buffer.
    fn widen(&mut self, states: Range<usize>) {
        let span = self.span();
        let (lo, hi) = if span.is_empty() {
            (states.start, states.end)
        } else {
            (span.start.min(states.start), span.end.max(states.end))
        };
        if (lo..hi) == span {
            return;
        }
        let mut grown = std::mem::take(&mut self.spare);
        grown.clear();
        grown.resize((hi - lo) * self.width, 0.0);
        if !span.is_empty() {
            let at = (span.start - lo) * self.width;
            grown[at..at + self.vals.len()].copy_from_slice(&self.vals);
        }
        self.spare = std::mem::replace(&mut self.vals, grown);
        self.lo = lo;
    }

    /// One backward step `h ← M · h` of every level, on `arm` when the CPU
    /// has it: `m` is `M` and `rows` its sliced copy, whose column table
    /// gives the output range — the rows holding an entry in a column
    /// where some level is non-zero, read within the table's band
    /// ([`LineTable::reached`]). Each output row sums its `M` row's
    /// entries in ascending column from `0.0`, per lane as a separate
    /// multiply and add; a source outside the panel is skipped and a zero
    /// lane adds `+0.0`, so each level's bits are those of its own gather
    /// or of the scatter over `Mᵀ`. All-zero end rows are then dropped.
    pub(crate) fn step_backward(&mut self, m: &CsrMatrix, rows: &SlicedRows, arm: GatherArm) {
        if self.vals.is_empty() {
            return;
        }
        let (lo, width) = (self.lo, self.width);
        let nonzero = |row: &[f64]| row.iter().any(|v| *v != 0.0);
        let live = |s: usize| nonzero(&self.vals[(s - lo) * width..][..width]);
        let reached = rows.reached(self.span(), live);
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
        out.resize(reached.len() * width, 0.0);
        let input = (self.vals.as_slice(), lo, width);
        match arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2, and with it AVX, was just checked.
            GatherArm::Avx2 if arm.is_supported() => unsafe {
                step_levels_avx(m, input, &mut out, reached.start)
            },
            _ => step_levels_with(m, input, &mut out, reached.start, axpy_panel_scalar),
        }
        let first = out.chunks_exact(width).position(nonzero).unwrap_or(0);
        let end = out.chunks_exact(width).rposition(nonzero).map_or(first, |last| last + 1);
        out.copy_within(first * width..end * width, 0);
        out.truncate((end - first) * width);
        self.spare = std::mem::replace(&mut self.vals, out);
        self.lo = if first < end { reached.start + first } else { 0 };
    }
}

/// [`step_levels_with`] compiled with AVX enabled, so the lane op inlines
/// into the row loop.
///
/// # Safety
/// Caller must ensure the `avx` target feature is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn step_levels_avx(
    m: &CsrMatrix,
    input: (&[f64], usize, usize),
    out: &mut [f64],
    out_lo: usize,
) {
    step_levels_with(m, input, out, out_lo, |acc, src, mv| {
        // SAFETY: this function is only entered with AVX available.
        unsafe { axpy_panel_avx(acc, src, mv) }
    })
}

/// The row walk of [`LevelPanel::step_backward`]: the `width` lanes of
/// output row `out_lo + i` live at `out[i · width..]`, those of source state
/// `lo + k` at `vals[k · width..]`, and `axpy` adds one source row times
/// `M`'s entry into an output row. The lanes go in blocks of at most
/// [`LEVEL_BLOCK`], each block's row walked once.
#[inline(always)]
fn step_levels_with(
    m: &CsrMatrix,
    (vals, lo, width): (&[f64], usize, usize),
    out: &mut [f64],
    out_lo: usize,
    axpy: impl Fn(&mut [f64], &[f64], f64) + Copy,
) {
    let input = (vals, lo, width);
    // `width` is a whole number of lane groups, so what is left of a row
    // is 4, 8, 12 or at least 16 lanes.
    for first in (0..width).step_by(LEVEL_BLOCK) {
        match width - first {
            4 => step_level_block::<4>(m, input, first, out, out_lo, axpy),
            8 => step_level_block::<8>(m, input, first, out, out_lo, axpy),
            12 => step_level_block::<12>(m, input, first, out, out_lo, axpy),
            _ => step_level_block::<LEVEL_BLOCK>(m, input, first, out, out_lo, axpy),
        }
    }
}

/// Lanes `first..first + B` of every output row: the block's `B`
/// accumulators start at `0.0`, stay in a fixed-size array (registers)
/// across the row's entries in ascending column, and are stored once per
/// row. A source outside the panel is zero on every level: skipped.
#[inline(always)]
fn step_level_block<const B: usize>(
    m: &CsrMatrix,
    (vals, lo, width): (&[f64], usize, usize),
    first: usize,
    out: &mut [f64],
    out_lo: usize,
    axpy: impl Fn(&mut [f64], &[f64], f64),
) {
    let stored = vals.len() / width;
    for (i, row) in (out_lo..).zip(out.chunks_exact_mut(width)) {
        let mut acc = [0.0; B];
        let (cols, mvals) = m.row(i);
        for (&c, &mv) in cols.iter().zip(mvals) {
            let k = (c as usize).wrapping_sub(lo);
            if k < stored {
                let src = k * width + first;
                axpy(&mut acc, &vals[src..src + B], mv);
            }
        }
        row[first..first + B].copy_from_slice(&acc);
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
