//! Integer GEMM kernels for exact small-integer arithmetic, plus the
//! freeze-time weight packing and the patch matrices they stream.
//!
//! The CIM partial-sum front-end multiplies tiny integers — a bit-split
//! weight slice (a couple of bits) by a quantized activation — yet the
//! f32 path pays full-width float multiply-accumulate for it. This module
//! provides the integer alternative. The serving chain, per image and row
//! tile, is:
//!
//! 1. [`narrow_to_i8`] — the quantized activations of the row tile's
//!    channels are narrowed from their f32 carrier to `i8` once, not once
//!    per kernel tap.
//! 2. [`im2col_i16`] — the patch matrix is built from that `i8` image in
//!    `i16` lanes; every in-bounds output row is one contiguous (or
//!    strided) copy with no per-element bounds branch.
//! 3. [`igemm_splits_into`] — **one** GEMM for all bit-splits of the row
//!    tile. Each block of activation columns is streamed once for every
//!    split, and products accumulate in `i16` lanes (eight per SSE2
//!    vector) that spill into the `i32` accumulator every
//!    `⌊32767 / (max|w| · max|b|)⌋` non-zero weights. Both bounds are fixed
//!    at freeze time, and for every shipped CIM configuration the interval
//!    exceeds the reduction length, so the spill never fires.
//! 4. [`accum_to_f32`] / [`shift_add_into`] — the exact `i32 → f32`
//!    epilogues: psums are integers well inside f32's 24-bit mantissa, so
//!    converting (and optionally shift-adding across bit-splits) is
//!    bit-identical to having run the whole chain in f32.
//!
//! [`igemm_into`] runs the same kernel source with `i32` lanes over an
//! `i32` operand (from [`widen_i8_to_i32`] of an [`im2col_i8`] matrix): a
//! single split with no spill.
//!
//! The kernel is register-blocked: an output row's accumulators for a
//! block of 128 bytes of columns (64 `i16` or 32 `i32` lanes, eight SSE2
//! vectors) stay in registers while the row's weights stream past.
//! [`PackedPanels`] stores each row's non-zero weights as runs of equal
//! value, so zero weights cost nothing and `±1` runs — the bulk of low-bit
//! slices — are pure adds or subtracts with no multiply and no per-weight
//! branch. Columns left over after the full blocks are copied into a
//! zero-padded strip of the narrowest block width (8–64 lanes) that holds
//! them, so short rows (`OH·OW` of 1, 9 or 15) pay for at most one block.
//!
//! Everything here is plain safe Rust; the unit tests pin each piece
//! against the f32 kernels bit-for-bit.

use crate::conv::{im2col_with, ConvShape};
use std::mem::size_of;
use std::ops::{Add, Mul, Range, Sub};

/// Bytes of accumulator lanes a row block keeps in registers.
const BLOCK_BYTES: usize = 128;

/// A row-major `[rows, k]` integer weight matrix packed for the GEMM
/// kernels: each row's non-zero weights, grouped into runs of equal value.
///
/// Run `i` of row `r` (`runs[row_runs[r] + i]`) holds one weight value
/// and the ascending reduction indices `kk` it appears at. Zero weights
/// are not stored; the packing is done once at freeze time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPanels {
    rows: usize,
    k: usize,
    max_abs: i32,
    /// Row `r`'s runs are `runs[row_runs[r]..row_runs[r + 1]]`.
    row_runs: Vec<usize>,
    runs: Vec<Run>,
    /// The reduction indices of every run, back to back.
    taps: Vec<u32>,
}

/// One weight value and the span of `taps` it multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    w: i8,
    start: usize,
    end: usize,
}

impl PackedPanels {
    /// Packs a row-major `[rows, k]` matrix of f32-carried integers.
    ///
    /// Returns `None` if any value is not an exact integer in
    /// `[-128, 127]` — the caller's cue to stay on the f32 path (e.g.
    /// when device variation has perturbed weight slices off-integer).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * k` or `k` exceeds `u32::MAX`.
    pub fn pack(rows: usize, k: usize, a: &[f32]) -> Option<Self> {
        assert_eq!(a.len(), rows * k, "panel source length");
        assert!(u32::try_from(k).is_ok(), "reduction length {k} too long");
        let mut packed = Self {
            rows,
            k,
            max_abs: 0,
            row_runs: Vec::with_capacity(rows + 1),
            runs: Vec::with_capacity(rows),
            taps: Vec::with_capacity(a.len()),
        };
        packed.row_runs.push(0);
        let mut nonzero: Vec<(i8, u32)> = Vec::with_capacity(k);
        let mut values: Vec<i8> = Vec::new();
        for row in a.chunks_exact(k.max(1)).take(rows) {
            nonzero.clear();
            values.clear();
            for (kk, &v) in row.iter().enumerate() {
                // In range first, so the truncating round trip is exact
                // precisely for integers.
                if !(-128.0..=127.0).contains(&v) || v as i32 as f32 != v {
                    return None;
                }
                let q = v as i8;
                packed.max_abs = packed.max_abs.max(i32::from(q).abs());
                if q != 0 {
                    nonzero.push((q, kk as u32));
                    if !values.contains(&q) {
                        values.push(q);
                    }
                }
            }
            // One run per distinct value (a row of a bit-slice has one or
            // two), ascending; taps stay in ascending `kk` inside a run.
            values.sort_unstable();
            for &w in &values {
                let start = packed.taps.len();
                let taps = nonzero.iter().filter(|e| e.0 == w).map(|e| e.1);
                packed.taps.extend(taps);
                packed.runs.push(Run {
                    w,
                    start,
                    end: packed.taps.len(),
                });
            }
            packed.row_runs.push(packed.runs.len());
        }
        packed.row_runs.resize(rows + 1, packed.runs.len());
        packed.taps.shrink_to_fit();
        Some(packed)
    }

    /// Logical row count of the packed matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Inner (`k`) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Largest absolute packed value (for accumulator-range checks).
    pub fn max_abs(&self) -> i32 {
        self.max_abs
    }

    /// The runs of row `r`.
    fn row(&self, r: usize) -> &[Run] {
        &self.runs[self.row_runs[r]..self.row_runs[r + 1]]
    }
}

/// Narrows f32-carried integer activations to `i8` — step 1 of the
/// serving chain, done once per image so no kernel tap converts again.
///
/// Values must be exact integers in `[-128, 127]` (quantized activations
/// are; debug builds assert it).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn narrow_to_i8(src: &[f32], dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "narrow buffer length");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = to_i8(v);
    }
}

#[inline]
fn to_i8(v: f32) -> i8 {
    debug_assert!(
        v == v.round() && (-128.0..=127.0).contains(&v),
        "activation {v} is not an i8 integer"
    );
    // Adding 1.5·2²³ moves an integer of magnitude below 2²² into the low
    // mantissa bits, so the result is exact for i8 integers. Unlike the
    // saturating float-to-int cast, the add and subtract vectorize.
    const SHIFT: f32 = 12_582_912.0;
    (v + SHIFT).to_bits().wrapping_sub(SHIFT.to_bits()) as i8
}

/// Writes the i8 im2col matrix for channels `[c_start, c_start + c_len)`
/// of one image into `col` (shape `[c_len·kh·kw, out_h·out_w]`,
/// row-major) — the integer twin of the f32 im2col inside
/// [`conv2d_grouped`](crate::conv2d_grouped), producing the identical
/// patch matrix for integer-valued inputs.
///
/// `img` is the `[C, H, W]` slice of a single image whose values must be
/// exact integers in `[-128, 127]` (quantized activations are; debug
/// builds assert it).
pub fn im2col_i8(img: &[f32], c_start: usize, c_len: usize, s: &ConvShape, col: &mut [i8]) {
    im2col_with(img, c_start, c_len, s, col, to_i8);
}

/// Writes the im2col matrix for channels `[c_start, c_start + c_len)` of
/// an already narrowed `i8` image into `i16` lanes — step 2 of the
/// serving chain, the operand [`igemm_splits_into`] streams. Same layout
/// and values as [`im2col_i8`].
pub fn im2col_i16(img: &[i8], c_start: usize, c_len: usize, s: &ConvShape, col: &mut [i16]) {
    im2col_with(img, c_start, c_len, s, col, i16::from);
}

/// Widens an i8 matrix to the i32 operand [`igemm_into`] streams.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn widen_i8_to_i32(src: &[i8], dst: &mut [i32]) {
    assert_eq!(src.len(), dst.len(), "widen buffer length");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s as i32;
    }
}

/// `C[rows,n] += A · B` where `A` is a [`PackedPanels`] weight matrix and
/// `b` is the row-major `[k, n]` widened activation matrix — the
/// single-split, `i32`-lane form of the kernel behind
/// [`igemm_splits_into`].
///
/// The caller guarantees accumulators stay within i32 (see
/// [`PackedPanels::max_abs`]); all CIM psum configurations are orders of
/// magnitude inside the range.
///
/// # Panics
///
/// Panics if `b` or `c` lengths disagree with the panel geometry.
pub fn igemm_into(a: &PackedPanels, b: &[i32], n: usize, c: &mut [i32]) {
    gemm(&[a], b, n, usize::MAX, c);
}

/// `C[s] += A[s] · B` for every bit-split `s` of one row tile at once:
/// `sets[s]` is split `s`'s [`PackedPanels`] (all of one geometry
/// `[rows, k]`), `b` the row-major `[k, n]` `i16` patch matrix of
/// [`im2col_i16`], and `c` holds the splits' `[rows, n]` `i32`
/// accumulators back to back (`sets.len() · rows · n` values).
///
/// Every `|b|` must be at most `b_max_abs` (the activation format's
/// largest magnitude). With `max|w|` the largest [`PackedPanels::max_abs`]
/// of the sets, an `i16` lane then holds `⌊32767 / (max|w| · b_max_abs)⌋`
/// products exactly, and the kernel spills the lanes into `c` after that
/// many non-zero weights of a row.
///
/// # Panics
///
/// Panics if the sets disagree in geometry, `b`/`c` lengths disagree
/// with it, or a single product could overflow an `i16` lane.
pub fn igemm_splits_into(
    sets: &[&PackedPanels],
    b: &[i16],
    n: usize,
    b_max_abs: i32,
    c: &mut [i32],
) {
    let max_w = sets.iter().map(|a| a.max_abs).max().unwrap_or(0);
    let max_product = max_w.saturating_mul(b_max_abs).max(1) as usize;
    let spill = i16::MAX as usize / max_product;
    assert!(
        spill > 0,
        "products of |w| <= {max_w} and |b| <= {b_max_abs} overflow i16 lanes"
    );
    gemm(sets, b, n, spill, c);
}

/// An accumulator lane type of the GEMM kernel: `i16` for the serving
/// chain, `i32` for [`igemm_into`].
trait Lane:
    Copy + Default + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + From<i8> + Into<i32>
{
}

impl Lane for i16 {}
impl Lane for i32 {}

/// The one GEMM kernel: `c[s] += sets[s] · b`, with `L`-lane products
/// flushed into `c` after every `spill` non-zero weights of a row.
///
/// The columns run in full register blocks, then one zero-padded block of
/// the narrowest width that holds the rest.
fn gemm<L: Lane>(sets: &[&PackedPanels], b: &[L], n: usize, spill: usize, c: &mut [i32]) {
    let Some(first) = sets.first() else {
        return;
    };
    let (rows, k) = (first.rows, first.k);
    assert!(
        sets.iter().all(|a| a.rows == rows && a.k == k),
        "split panel sets disagree in geometry"
    );
    assert_eq!(b.len(), k * n, "B buffer length");
    assert_eq!(c.len(), sets.len() * rows * n, "C buffer length");
    assert!(spill > 0, "spill interval must be positive");
    if rows == 0 || n == 0 {
        return;
    }
    let width = BLOCK_BYTES / size_of::<L>();
    let tail = n % width;
    let run = |w: usize, cols: Range<usize>, c: &mut [i32]| match w {
        8 => blocks::<L, 8>(sets, b, n, cols, spill, c),
        16 => blocks::<L, 16>(sets, b, n, cols, spill, c),
        32 => blocks::<L, 32>(sets, b, n, cols, spill, c),
        _ => blocks::<L, 64>(sets, b, n, cols, spill, c),
    };
    if n > tail {
        run(width, 0..n - tail, c);
    }
    if tail > 0 {
        let w = [8, 16, 32].into_iter().find(|&w| w >= tail).unwrap_or(64);
        run(w, n - tail..n, c);
    }
}

/// Output columns `cols` in blocks of `W` lanes: each block of `b` is
/// copied once into a k-major strip (the last one zero-padded), then
/// every split's rows accumulate over it with their `W` lanes held in
/// registers while the row's weight runs stream past.
fn blocks<L: Lane, const W: usize>(
    sets: &[&PackedPanels],
    b: &[L],
    n: usize,
    cols: Range<usize>,
    spill: usize,
    c: &mut [i32],
) {
    let (rows, k) = (sets[0].rows, sets[0].k);
    let mut strip = vec![[L::default(); W]; k];
    for c0 in cols.clone().step_by(W) {
        let w = (cols.end - c0).min(W);
        for (lanes, brow) in strip.iter_mut().zip(b.chunks_exact(n)) {
            lanes[..w].copy_from_slice(&brow[c0..c0 + w]);
            lanes[w..].fill(L::default());
        }
        for (set, c) in sets.iter().zip(c.chunks_exact_mut(rows * n)) {
            for (r, crow) in c.chunks_exact_mut(n).enumerate() {
                let crow = &mut crow[c0..c0 + w];
                let runs = set.row(r);
                let mut acc = [L::default(); W];
                // The row's taps are one contiguous span of `set.taps`,
                // taken in windows of `spill` taps with a spill after each.
                let (mut t0, last) = match (runs.first(), runs.last()) {
                    (Some(first), Some(last)) => (first.start, last.end),
                    _ => (0, 0),
                };
                while t0 < last {
                    let t1 = t0.saturating_add(spill).min(last);
                    for run in runs {
                        let (lo, hi) = (run.start.max(t0), run.end.min(t1));
                        if lo < hi {
                            add_run(run.w, &set.taps[lo..hi], &strip, &mut acc);
                        }
                    }
                    spill_into(&mut acc, crow);
                    t0 = t1;
                }
            }
        }
    }
}

/// `acc += w · strip[kk]` over the taps `kk` of one run: plain adds or
/// subtracts for `±1`, a multiply-add otherwise.
#[inline(always)]
fn add_run<L: Lane, const W: usize>(w: i8, taps: &[u32], strip: &[[L; W]], acc: &mut [L; W]) {
    let row = |kk: u32| &strip[kk as usize];
    match w {
        1 => {
            for &kk in taps {
                for (a, &bv) in acc.iter_mut().zip(row(kk)) {
                    *a = *a + bv;
                }
            }
        }
        -1 => {
            for &kk in taps {
                for (a, &bv) in acc.iter_mut().zip(row(kk)) {
                    *a = *a - bv;
                }
            }
        }
        w => {
            let w = L::from(w);
            for &kk in taps {
                for (a, &bv) in acc.iter_mut().zip(row(kk)) {
                    *a = *a + w * bv;
                }
            }
        }
    }
}

/// Adds the accumulator lanes into their `i32` outputs and clears them.
#[inline]
fn spill_into<L: Lane, const W: usize>(acc: &mut [L; W], out: &mut [i32]) {
    let lanes = std::mem::replace(acc, [L::default(); W]);
    match <&mut [i32; W]>::try_from(&mut *out) {
        // A full block: fixed-length, so `acc` can stay in registers.
        Ok(out) => {
            for (o, a) in out.iter_mut().zip(lanes) {
                *o += a.into();
            }
        }
        Err(_) => {
            for (o, a) in out.iter_mut().zip(lanes) {
                *o += a.into();
            }
        }
    }
}

/// Exact `i32 → f32` epilogue: overwrites `out` with the accumulator
/// values. Bit-identical to an f32 computation of the same sums for
/// accumulators inside the 24-bit mantissa (debug builds assert it).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accum_to_f32(acc: &[i32], out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "epilogue buffer length");
    for (o, &v) in out.iter_mut().zip(acc) {
        debug_assert!(v.unsigned_abs() < 1 << 24, "psum {v} exceeds f32 exactness");
        *o = v as f32;
    }
}

/// Shift-add `i32 → f32` epilogue: `out[i] += (acc[i] as f32) · shift` —
/// folds one bit-split's accumulator into a running f32 output with its
/// `2^(cb·s)` shift weight. Exact under the same mantissa bound as
/// [`accum_to_f32`].
///
/// # Panics
///
/// Panics if lengths differ.
pub fn shift_add_into(acc: &[i32], shift: f32, out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "epilogue buffer length");
    for (o, &v) in out.iter_mut().zip(acc) {
        debug_assert!(v.unsigned_abs() < 1 << 24, "psum {v} exceeds f32 exactness");
        *o += (v as f32) * shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d_grouped, gemm_nn_acc, ExecBackend, ScalarRef, Tensor};

    fn int_filled(len: usize, seed: u64, lo: i32, hi: i32) -> Vec<f32> {
        let span = (hi - lo + 1) as u64;
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                (lo + ((x >> 33) % span) as i32) as f32
            })
            .collect()
    }

    /// The dense value at `(row, kk)`, read back from the runs.
    fn unpack(p: &PackedPanels, row: usize, kk: usize) -> f32 {
        p.row(row)
            .iter()
            .find(|run| p.taps[run.start..run.end].contains(&(kk as u32)))
            .map_or(0.0, |run| f32::from(run.w))
    }

    #[test]
    fn pack_roundtrips_layout() {
        // 5 rows × 3 cols with zeros and repeated values in one row.
        let mut a: Vec<f32> = (0..15).map(|i| (i as f32) - 7.0).collect();
        a[9..12].copy_from_slice(&[1.0, 0.0, 1.0]);
        let p = PackedPanels::pack(5, 3, &a).unwrap();
        assert_eq!(p.rows(), 5);
        assert_eq!(p.k(), 3);
        assert_eq!(p.max_abs(), 7);
        for row in 0..5 {
            for kk in 0..3 {
                assert_eq!(unpack(&p, row, kk), a[row * 3 + kk], "row {row} kk {kk}");
            }
            // One run per distinct non-zero value, ascending taps inside.
            for run in p.row(row) {
                assert_ne!(run.w, 0, "zero weights are not stored");
                assert!(p.taps[run.start..run.end].windows(2).all(|t| t[0] < t[1]));
            }
        }
        let nonzero = a.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(p.taps.len(), nonzero);
        assert_eq!(p.row(3).len(), 1, "equal weights share a run");
    }

    #[test]
    fn narrow_covers_the_i8_range() {
        let src: Vec<f32> = (-128..=127).map(|v| v as f32).chain([-0.0]).collect();
        let mut dst = vec![0i8; src.len()];
        narrow_to_i8(&src, &mut dst);
        let want: Vec<i8> = (-128..=127).chain([0]).collect();
        assert_eq!(dst, want);
    }

    #[test]
    fn pack_rejects_non_integer_and_out_of_range() {
        assert!(PackedPanels::pack(1, 2, &[1.0, 1.5]).is_none());
        assert!(PackedPanels::pack(1, 2, &[1.0, 129.0]).is_none());
        assert!(PackedPanels::pack(1, 2, &[-129.0, 0.0]).is_none());
        assert!(PackedPanels::pack(1, 2, &[-128.0, 127.0]).is_some());
    }

    #[test]
    fn igemm_matches_f32_gemm() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (8, 27, 25), (5, 9, 16)] {
            let a = int_filled(m * k, 1, -4, 3);
            let b = int_filled(k * n, 2, 0, 7);
            let mut want = vec![0.0f32; m * n];
            gemm_nn_acc(m, k, n, &a, &b, &mut want);
            let packed = PackedPanels::pack(m, k, &a).unwrap();
            let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
            let mut acc = vec![0i32; m * n];
            igemm_into(&packed, &b32, n, &mut acc);
            let mut got = vec![0.0f32; m * n];
            accum_to_f32(&acc, &mut got);
            assert_eq!(got, want, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn igemm_accumulates() {
        let a = PackedPanels::pack(2, 2, &[1.0, 2.0, -1.0, 3.0]).unwrap();
        let b32 = vec![1i32, 1, 1, 1];
        let mut acc = vec![10i32; 4];
        igemm_into(&a, &b32, 2, &mut acc);
        assert_eq!(acc, vec![13, 13, 12, 12]);
    }

    /// The full integer chain — im2col-i8, widen, panel igemm, f32
    /// epilogue — reproduces the f32 grouped convolution bit-for-bit on
    /// integer data.
    #[test]
    fn integer_conv_chain_matches_f32_grouped_conv() {
        for &(batch, groups, cg, ocg, hw, kk, stride, pad) in &[
            (
                2usize, 3usize, 2usize, 4usize, 6usize, 3usize, 1usize, 1usize,
            ),
            (1, 1, 3, 5, 5, 3, 2, 1),
            (1, 2, 4, 2, 5, 1, 1, 0),
        ] {
            let c = groups * cg;
            let x = Tensor::from_vec(
                int_filled(batch * c * hw * hw, 11, 0, 7),
                &[batch, c, hw, hw],
            );
            let w = Tensor::from_vec(
                int_filled(groups * ocg * cg * kk * kk, 13, -4, 3),
                &[groups * ocg, cg, kk, kk],
            );
            let want = conv2d_grouped(&x, &w, stride, pad, groups);
            let s = ConvShape::new(x.shape(), w.shape(), stride, pad, groups);
            let (cr, cc) = (s.col_rows(), s.col_cols());
            let mut col = vec![0i8; cr * cc];
            let mut b32 = vec![0i32; cr * cc];
            let mut acc = vec![0i32; ocg * cc];
            let mut got = Tensor::zeros(&[batch, s.out_ch, s.out_h, s.out_w]);
            let panels: Vec<PackedPanels> = (0..groups)
                .map(|g| {
                    PackedPanels::pack(ocg, cr, &w.data()[g * ocg * cr..(g + 1) * ocg * cr])
                        .unwrap()
                })
                .collect();
            let in_img = c * hw * hw;
            let out_img = s.out_ch * cc;
            for b in 0..batch {
                let img = &x.data()[b * in_img..(b + 1) * in_img];
                for (g, panel) in panels.iter().enumerate() {
                    im2col_i8(img, g * cg, cg, &s, &mut col);
                    widen_i8_to_i32(&col, &mut b32);
                    acc.fill(0);
                    igemm_into(panel, &b32, cc, &mut acc);
                    let out_g = &mut got.data_mut()
                        [b * out_img + g * ocg * cc..b * out_img + (g + 1) * ocg * cc];
                    accum_to_f32(&acc, out_g);
                }
            }
            assert_eq!(got, want, "batch={batch} groups={groups} k={kk}");
        }
    }

    /// One conv layer of the kernel matrix: every split's patch-matrix
    /// GEMM, through both the `i16` serving chain and the `i32`
    /// `igemm_into` chain, against the `ScalarRef` loop-nest oracle.
    struct Case {
        groups: usize,
        cg: usize,
        ocg: usize,
        h: usize,
        w: usize,
        kk: usize,
        stride: usize,
        pad: usize,
        /// Weight range of each split.
        splits: &'static [(i32, i32)],
        act_max: i32,
    }

    fn check_chains(case: &Case, seed: u64) {
        let Case {
            groups,
            cg,
            ocg,
            h,
            w,
            kk,
            stride,
            pad,
            splits,
            act_max,
        } = *case;
        let (batch, c) = (2, groups * cg);
        let x = Tensor::from_vec(
            int_filled(batch * c * h * w, seed, 0, act_max),
            &[batch, c, h, w],
        );
        let weights: Vec<Tensor> = splits
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                let len = groups * ocg * cg * kk * kk;
                Tensor::from_vec(
                    int_filled(len, seed + 13 * i as u64 + 1, lo, hi),
                    &[groups * ocg, cg, kk, kk],
                )
            })
            .collect();
        let want: Vec<Tensor> = weights
            .iter()
            .map(|wt| {
                let mut out = Tensor::zeros(&[1]);
                ScalarRef.conv_grouped_into(&x, wt, stride, pad, groups, &mut out, &mut Vec::new());
                out
            })
            .collect();
        let s = ConvShape::new(x.shape(), weights[0].shape(), stride, pad, groups);
        let (cr, cc) = (s.col_rows(), s.col_cols());
        let panels: Vec<Vec<PackedPanels>> = weights
            .iter()
            .map(|wt| {
                (0..groups)
                    .map(|g| {
                        let rows = &wt.data()[g * ocg * cr..(g + 1) * ocg * cr];
                        PackedPanels::pack(ocg, cr, rows).unwrap()
                    })
                    .collect()
            })
            .collect();
        let mut got16 = vec![Tensor::zeros(want[0].shape()); splits.len()];
        let mut got32 = got16.clone();
        let (chw, in_img, out_img) = (cg * h * w, c * h * w, s.out_ch * cc);
        let mut img8 = vec![0i8; chw];
        let mut col16 = vec![0i16; cr * cc];
        let mut col8 = vec![0i8; cr * cc];
        let mut b32 = vec![0i32; cr * cc];
        let mut acc = vec![0i32; splits.len() * ocg * cc];
        let mut acc1 = vec![0i32; ocg * cc];
        for bi in 0..batch {
            let img = &x.data()[bi * in_img..(bi + 1) * in_img];
            for g in 0..groups {
                narrow_to_i8(&img[g * chw..(g + 1) * chw], &mut img8);
                im2col_i16(&img8, 0, cg, &s, &mut col16);
                let sets: Vec<&PackedPanels> = panels.iter().map(|p| &p[g]).collect();
                acc.fill(0);
                igemm_splits_into(&sets, &col16, cc, act_max, &mut acc);
                im2col_i8(img, g * cg, cg, &s, &mut col8);
                widen_i8_to_i32(&col8, &mut b32);
                let at = bi * out_img + g * ocg * cc;
                for (si, acc_s) in acc.chunks_exact(ocg * cc).enumerate() {
                    accum_to_f32(acc_s, &mut got16[si].data_mut()[at..at + ocg * cc]);
                    acc1.fill(0);
                    igemm_into(&panels[si][g], &b32, cc, &mut acc1);
                    accum_to_f32(&acc1, &mut got32[si].data_mut()[at..at + ocg * cc]);
                }
            }
        }
        let ohw = cc;
        assert_eq!(got16, want, "i16 chain, OH·OW = {ohw}, splits {splits:?}");
        assert_eq!(got32, want, "i32 chain, OH·OW = {ohw}, splits {splits:?}");
    }

    /// Bit-slice weight ranges: low slices `{0, 1}`, the sign slice
    /// `{-1, 0}`, and a 2-bit-cell pair.
    const ONE: &[(i32, i32)] = &[(-1, 1)];
    const TWO: &[(i32, i32)] = &[(0, 3), (-2, 1)];
    const THREE: &[(i32, i32)] = &[(0, 1), (0, 1), (-1, 0)];

    /// The kernel matrix: stride 1/2, k = 1/3, OH·OW across the tail
    /// strips and full blocks (1, 9, 15, 16, 17, 64, 1024), output rows
    /// that fill no natural block height, 1/2/3 splits.
    #[test]
    fn kernel_matrix_matches_scalar_oracle() {
        let mut seed = 3;
        // (h, w, kk, stride, pad) → OH·OW
        let geoms = [
            (3, 3, 3, 1, 0),   // 1
            (3, 3, 3, 1, 1),   // 9
            (3, 5, 1, 1, 0),   // 15
            (8, 8, 3, 2, 1),   // 16
            (1, 17, 1, 1, 0),  // 17
            (16, 16, 1, 2, 0), // 64
            (32, 32, 3, 1, 1), // 1024
        ];
        for (h, w, kk, stride, pad) in geoms {
            for splits in [ONE, TWO, THREE] {
                for (groups, cg, ocg) in [(1, 3, 5), (2, 2, 7)] {
                    let case = Case {
                        groups,
                        cg,
                        ocg,
                        h,
                        w,
                        kk,
                        stride,
                        pad,
                        splits,
                        act_max: 7,
                    };
                    check_chains(&case, seed);
                    seed += 1;
                }
            }
        }
    }

    /// 7-bit activations × ±64 weights: an `i16` lane holds only four
    /// products, so every row spills many times — and overflow checks
    /// (on in test builds) would catch a missed spill.
    #[test]
    fn i16_lanes_spill_exactly() {
        for (h, w) in [(8, 8), (16, 16), (3, 5)] {
            let case = Case {
                groups: 1,
                cg: 4,
                ocg: 6,
                h,
                w,
                kk: 3,
                stride: 1,
                pad: 1,
                splits: &[(-64, 64), (-64, 64)],
                act_max: 127,
            };
            check_chains(&case, 9);
        }
        let a = PackedPanels::pack(1, 36, &int_filled(36, 9, -64, 64)).unwrap();
        let spill = i16::MAX as usize / (64 * 127);
        assert!(a.taps.len() > 2 * spill, "the layer must force spills");
    }

    #[test]
    #[should_panic(expected = "overflow i16 lanes")]
    fn i16_lanes_refuse_unbounded_products() {
        let a = PackedPanels::pack(1, 1, &[-128.0]).unwrap();
        igemm_splits_into(&[&a], &[0], 1, 300, &mut [0]);
    }

    #[test]
    fn shift_add_epilogue_is_exact() {
        let acc = vec![3i32, -5, 0, 1 << 20];
        let mut out = vec![1.0f32; 4];
        shift_add_into(&acc, 4.0, &mut out);
        assert_eq!(out, vec![13.0, -19.0, 1.0, 4194305.0]);
    }
}
