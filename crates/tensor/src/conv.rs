//! im2col-based 2-D convolution: forward, input gradient, weight gradient,
//! with first-class support for **grouped convolution over input channels**.
//!
//! Grouped convolution is load-bearing here: the ColumnQuant framework maps
//! each CIM array to one group (the paper's Sec. III-C), so each group
//! consumes a contiguous slice of input channels and produces a full set of
//! output channels — the array-wise partial sums.
//!
//! All functions are shape-checked and panic with descriptive messages on
//! misuse; see the `# Panics` sections.

use crate::matmul::{gemm_nn_acc, gemm_nt_acc};
use crate::Tensor;

/// Geometry of a (possibly grouped) 2-D convolution, with all derived sizes
/// validated once up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Total input channels.
    pub in_ch: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Total output channels (across all groups).
    pub out_ch: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both spatial dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Number of channel groups.
    pub groups: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

/// Output spatial size of a convolution along one dimension.
///
/// # Panics
///
/// Panics if the kernel does not fit in the padded input.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {input}+2*{pad}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

impl ConvShape {
    /// Derives and validates the geometry from input/weight shapes.
    ///
    /// `input` is `[B, C, H, W]`; `weight` is `[OC, C/groups, KH, KW]`.
    ///
    /// # Panics
    ///
    /// Panics if ranks are wrong, `C` is not divisible by `groups`, `OC` is
    /// not divisible by `groups`, or the kernel does not fit.
    pub fn new(
        input: &[usize],
        weight: &[usize],
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Self {
        assert_eq!(
            input.len(),
            4,
            "conv input must be [B,C,H,W], got {input:?}"
        );
        assert_eq!(
            weight.len(),
            4,
            "conv weight must be [OC,Cg,KH,KW], got {weight:?}"
        );
        assert!(groups > 0, "groups must be positive");
        let (batch, in_ch, in_h, in_w) = (input[0], input[1], input[2], input[3]);
        let (out_ch, cg, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
        assert_eq!(
            in_ch % groups,
            0,
            "input channels {in_ch} not divisible by groups {groups}"
        );
        assert_eq!(
            in_ch / groups,
            cg,
            "weight expects {cg} channels/group but input has {} ({} ch / {} groups)",
            in_ch / groups,
            in_ch,
            groups
        );
        assert_eq!(
            out_ch % groups,
            0,
            "output channels {out_ch} not divisible by groups {groups}"
        );
        let out_h = conv_out_dim(in_h, kh, stride, pad);
        let out_w = conv_out_dim(in_w, kw, stride, pad);
        ConvShape {
            batch,
            in_ch,
            in_h,
            in_w,
            out_ch,
            kh,
            kw,
            stride,
            pad,
            groups,
            out_h,
            out_w,
        }
    }

    /// Input channels per group.
    pub fn ch_per_group(&self) -> usize {
        self.in_ch / self.groups
    }

    /// Output channels per group.
    pub fn out_per_group(&self) -> usize {
        self.out_ch / self.groups
    }

    /// Rows of the im2col matrix for one group: `Cg * KH * KW`.
    pub fn col_rows(&self) -> usize {
        self.ch_per_group() * self.kh * self.kw
    }

    /// Columns of the im2col matrix: `OH * OW`.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Writes the im2col matrix for channels `[c_start, c_start + c_len)` of one
/// image into `col` (shape `[c_len*kh*kw, out_h*out_w]`, row-major).
///
/// `img` is the `[C, H, W]` slice of a single image.
pub(crate) fn im2col_image(
    img: &[f32],
    c_start: usize,
    c_len: usize,
    s: &ConvShape,
    col: &mut [f32],
) {
    im2col_with(img, c_start, c_len, s, col, |v| v);
}

/// The one im2col loop nest behind every patch matrix (f32, i8 and i16),
/// mapping each copied element through `cvt`.
///
/// For each tap `(ki, kj)` the output rows and columns whose input pixel
/// lies inside the image form two ranges computed up front, so every
/// in-bounds output row is a single contiguous (stride 1) or strided copy
/// with no per-element bounds branch; a tap's block is zero-filled first
/// only when it reaches into the padding.
pub(crate) fn im2col_with<S: Copy, D: Copy + Default>(
    img: &[S],
    c_start: usize,
    c_len: usize,
    s: &ConvShape,
    col: &mut [D],
    cvt: impl Fn(S) -> D,
) {
    let (h, w, stride, pad) = (s.in_h, s.in_w, s.stride, s.pad);
    let (out_w, ohw) = (s.out_w, s.out_h * s.out_w);
    debug_assert_eq!(col.len(), c_len * s.kh * s.kw * ohw);
    // Outputs `o` of a tap at kernel offset `off` whose input
    // `o·stride + off − pad` lies inside `[0, len)`.
    let inside = |off: usize, len: usize, out: usize| {
        let hi = (len + pad).saturating_sub(off).div_ceil(stride).min(out);
        pad.saturating_sub(off).div_ceil(stride).min(hi)..hi
    };
    for ki in 0..s.kh {
        let rows = inside(ki, h, s.out_h);
        for kj in 0..s.kw {
            let cols = inside(kj, w, out_w);
            let padded = rows.len() < s.out_h || cols.len() < out_w;
            for c_local in 0..c_len {
                let ch = &img[(c_start + c_local) * h * w..][..h * w];
                let at = ((c_local * s.kh + ki) * s.kw + kj) * ohw;
                let block = &mut col[at..at + ohw];
                if padded {
                    block.fill(D::default());
                }
                if cols.is_empty() {
                    continue;
                }
                for oh in rows.clone() {
                    let ih = oh * stride + ki - pad;
                    let src = &ch[ih * w + cols.start * stride + kj - pad..(ih + 1) * w];
                    let dst = &mut block[oh * out_w + cols.start..oh * out_w + cols.end];
                    if stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = cvt(v);
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = cvt(v);
                        }
                    }
                }
            }
        }
    }
}

/// Scatters (accumulates) a col matrix back into channels
/// `[c_start, c_start + c_len)` of one image gradient (col2im).
fn col2im_image(col: &[f32], c_start: usize, c_len: usize, s: &ConvShape, img: &mut [f32]) {
    let (h, w) = (s.in_h, s.in_w);
    let ohw = s.out_h * s.out_w;
    debug_assert_eq!(col.len(), c_len * s.kh * s.kw * ohw);
    for c_local in 0..c_len {
        let ch = &mut img[(c_start + c_local) * h * w..(c_start + c_local + 1) * h * w];
        for ki in 0..s.kh {
            for kj in 0..s.kw {
                let row = ((c_local * s.kh + ki) * s.kw + kj) * ohw;
                for oh in 0..s.out_h {
                    let ih = (oh * s.stride + ki) as isize - s.pad as isize;
                    if ih < 0 || ih as usize >= h {
                        continue;
                    }
                    let src = &col[row + oh * s.out_w..row + (oh + 1) * s.out_w];
                    let dst_row = &mut ch[ih as usize * w..(ih as usize + 1) * w];
                    for (ow, &v) in src.iter().enumerate() {
                        let iw = (ow * s.stride + kj) as isize - s.pad as isize;
                        if iw >= 0 && (iw as usize) < w {
                            dst_row[iw as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Standard (groups = 1) 2-D convolution.
///
/// `input` is `[B, C, H, W]`, `weight` is `[OC, C, KH, KW]`; returns
/// `[B, OC, OH, OW]`.
///
/// # Panics
///
/// Panics on any shape inconsistency (see [`ConvShape::new`]).
pub fn conv2d(input: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> Tensor {
    conv2d_grouped(input, weight, stride, pad, 1)
}

/// Grouped 2-D convolution: group `g` consumes input channels
/// `[g*Cg, (g+1)*Cg)` and produces output channels `[g*OCg, (g+1)*OCg)`.
///
/// # Panics
///
/// Panics on any shape inconsistency (see [`ConvShape::new`]).
pub fn conv2d_grouped(
    input: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let s = ConvShape::new(input.shape(), weight.shape(), stride, pad, groups);
    let mut out = Tensor::zeros(&[s.batch, s.out_ch, s.out_h, s.out_w]);
    let mut col = vec![0.0f32; s.col_rows() * s.col_cols()];
    conv2d_grouped_write(input, weight, &s, &mut out, &mut col);
    out
}

/// Like [`conv2d_grouped`] but writing into caller-provided output and
/// im2col scratch buffers, so a serving loop that runs the same layer
/// geometry repeatedly allocates nothing per call. `out` is resized and
/// overwritten; `col` is grown as needed and left dirty.
///
/// Bit-identical to [`conv2d_grouped`] (same kernels, same operation
/// order).
///
/// # Panics
///
/// Panics on any shape inconsistency (see [`ConvShape::new`]).
pub fn conv2d_grouped_into(
    input: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
    out: &mut Tensor,
    col: &mut Vec<f32>,
) {
    let s = ConvShape::new(input.shape(), weight.shape(), stride, pad, groups);
    let out_shape = [s.batch, s.out_ch, s.out_h, s.out_w];
    if out.shape() != out_shape {
        *out = Tensor::zeros(&out_shape);
    } else {
        out.fill(0.0);
    }
    let need = s.col_rows() * s.col_cols();
    if col.len() < need {
        col.resize(need, 0.0);
    }
    conv2d_grouped_write(input, weight, &s, out, &mut col[..need]);
}

fn conv2d_grouped_write(
    input: &Tensor,
    weight: &Tensor,
    s: &ConvShape,
    out: &mut Tensor,
    col: &mut [f32],
) {
    let (cr, cc) = (s.col_rows(), s.col_cols());
    let cg = s.ch_per_group();
    let ocg = s.out_per_group();
    debug_assert_eq!(col.len(), cr * cc);
    let in_img = s.in_ch * s.in_h * s.in_w;
    let out_img = s.out_ch * s.out_h * s.out_w;
    for b in 0..s.batch {
        let img = &input.data()[b * in_img..(b + 1) * in_img];
        for g in 0..s.groups {
            im2col_image(img, g * cg, cg, s, col);
            let w_g = &weight.data()[g * ocg * cr..(g + 1) * ocg * cr];
            let out_g =
                &mut out.data_mut()[b * out_img + g * ocg * cc..b * out_img + (g + 1) * ocg * cc];
            gemm_nn_acc(ocg, cr, cc, w_g, col, out_g);
        }
    }
}

/// Gradient of a grouped convolution with respect to its input.
///
/// `grad_out` is `[B, OC, OH, OW]`; returns `[B, C, H, W]` matching
/// `input_shape`.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let s = ConvShape::new(input_shape, weight.shape(), stride, pad, groups);
    assert_eq!(
        grad_out.shape(),
        &[s.batch, s.out_ch, s.out_h, s.out_w],
        "grad_out shape mismatch"
    );
    let mut dinput = Tensor::zeros(input_shape);
    let (cr, cc) = (s.col_rows(), s.col_cols());
    let cg = s.ch_per_group();
    let ocg = s.out_per_group();
    let in_img = s.in_ch * s.in_h * s.in_w;
    let out_img = s.out_ch * s.out_h * s.out_w;
    let mut dcol = vec![0.0f32; cr * cc];
    // Pre-transpose each group's weight to [cr, ocg] once.
    let mut wt = vec![0.0f32; s.groups * cr * ocg];
    for g in 0..s.groups {
        let w_g = &weight.data()[g * ocg * cr..(g + 1) * ocg * cr];
        let wt_g = &mut wt[g * cr * ocg..(g + 1) * cr * ocg];
        for oc in 0..ocg {
            for r in 0..cr {
                wt_g[r * ocg + oc] = w_g[oc * cr + r];
            }
        }
    }
    for b in 0..s.batch {
        for g in 0..s.groups {
            let gout_g =
                &grad_out.data()[b * out_img + g * ocg * cc..b * out_img + (g + 1) * ocg * cc];
            let wt_g = &wt[g * cr * ocg..(g + 1) * cr * ocg];
            dcol.fill(0.0);
            // dcol[cr, cc] = Wᵀ[cr, ocg] · gout[ocg, cc]
            gemm_nn_acc(cr, ocg, cc, wt_g, gout_g, &mut dcol);
            let img = &mut dinput.data_mut()[b * in_img..(b + 1) * in_img];
            col2im_image(&dcol, g * cg, cg, &s, img);
        }
    }
    dinput
}

/// Gradient of a grouped convolution with respect to its weight.
///
/// Returns a tensor shaped like `weight_shape` (`[OC, C/groups, KH, KW]`).
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let s = ConvShape::new(input.shape(), weight_shape, stride, pad, groups);
    assert_eq!(
        grad_out.shape(),
        &[s.batch, s.out_ch, s.out_h, s.out_w],
        "grad_out shape mismatch"
    );
    let mut dweight = Tensor::zeros(weight_shape);
    let (cr, cc) = (s.col_rows(), s.col_cols());
    let cg = s.ch_per_group();
    let ocg = s.out_per_group();
    let in_img = s.in_ch * s.in_h * s.in_w;
    let out_img = s.out_ch * s.out_h * s.out_w;
    let mut col = vec![0.0f32; cr * cc];
    for b in 0..s.batch {
        let img = &input.data()[b * in_img..(b + 1) * in_img];
        for g in 0..s.groups {
            im2col_image(img, g * cg, cg, &s, &mut col);
            let gout_g =
                &grad_out.data()[b * out_img + g * ocg * cc..b * out_img + (g + 1) * ocg * cc];
            let dw_g = &mut dweight.data_mut()[g * ocg * cr..(g + 1) * ocg * cr];
            // dW[ocg, cr] += gout[ocg, cc] · colᵀ[cc, cr]
            gemm_nt_acc(ocg, cc, cr, gout_g, &col, dw_g);
        }
    }
    dweight
}

/// Direct (seven-loop) reference convolution used by tests and as the
/// "naive" baseline in benchmarks. Semantics identical to
/// [`conv2d_grouped`].
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let s = ConvShape::new(input.shape(), weight.shape(), stride, pad, groups);
    let mut out = Tensor::zeros(&[s.batch, s.out_ch, s.out_h, s.out_w]);
    let cg = s.ch_per_group();
    let ocg = s.out_per_group();
    for b in 0..s.batch {
        for oc in 0..s.out_ch {
            let g = oc / ocg;
            for oh in 0..s.out_h {
                for ow in 0..s.out_w {
                    let mut acc = 0.0f32;
                    for cl in 0..cg {
                        let c = g * cg + cl;
                        for ki in 0..s.kh {
                            for kj in 0..s.kw {
                                let ih = (oh * s.stride + ki) as isize - s.pad as isize;
                                let iw = (ow * s.stride + kj) as isize - s.pad as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih as usize >= s.in_h
                                    || iw as usize >= s.in_w
                                {
                                    continue;
                                }
                                let iv = input.data()[input.idx4(b, c, ih as usize, iw as usize)];
                                let wv = weight.data()[((oc * cg + cl) * s.kh + ki) * s.kw + kj];
                                acc += iv * wv;
                            }
                        }
                    }
                    let oi = out.idx4(b, oc, oh, ow);
                    out.data_mut()[oi] = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_tensor(shape: &[usize], seed: u64) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(seed);
                ((x >> 32) % 9) as f32 - 4.0
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn conv_out_dim_cases() {
        assert_eq!(conv_out_dim(32, 3, 1, 1), 32);
        assert_eq!(conv_out_dim(32, 3, 2, 1), 16);
        assert_eq!(conv_out_dim(7, 7, 1, 0), 1);
        assert_eq!(conv_out_dim(224, 7, 2, 3), 112);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_out_dim_too_small_panics() {
        conv_out_dim(2, 5, 1, 0);
    }

    #[test]
    fn conv2d_matches_naive() {
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let x = det_tensor(&[2, 3, 8, 8], 11);
            let w = det_tensor(&[4, 3, 3, 3], 22);
            let fast = conv2d(&x, &w, stride, pad);
            let slow = conv2d_naive(&x, &w, stride, pad, 1);
            assert_eq!(fast, slow, "stride={stride} pad={pad}");
        }
    }

    #[test]
    fn conv2d_1x1_kernel_matches_naive() {
        let x = det_tensor(&[1, 4, 5, 5], 33);
        let w = det_tensor(&[6, 4, 1, 1], 44);
        assert_eq!(conv2d(&x, &w, 1, 0), conv2d_naive(&x, &w, 1, 0, 1));
        // stride-2 1x1 (ResNet downsample shortcut)
        assert_eq!(conv2d(&x, &w, 2, 0), conv2d_naive(&x, &w, 2, 0, 1));
    }

    #[test]
    fn grouped_conv_matches_naive() {
        // 6 in channels, 3 groups, 4 out channels per group.
        let x = det_tensor(&[2, 6, 6, 6], 55);
        let w = det_tensor(&[12, 2, 3, 3], 66);
        let fast = conv2d_grouped(&x, &w, 1, 1, 3);
        let slow = conv2d_naive(&x, &w, 1, 1, 3);
        assert_eq!(fast, slow);
    }

    #[test]
    fn grouped_conv_equals_sum_of_slices() {
        // The CIM property: a groups=G conv with full out-channel sets per
        // group equals per-group plain convs over channel slices.
        let (g, cg, oc) = (3usize, 2usize, 4usize);
        let x = det_tensor(&[1, g * cg, 5, 5], 77);
        let w = det_tensor(&[g * oc, cg, 3, 3], 88);
        let grouped = conv2d_grouped(&x, &w, 1, 1, g);
        for gi in 0..g {
            // Build the slice conv manually.
            let mut xs = Tensor::zeros(&[1, cg, 5, 5]);
            for c in 0..cg {
                for h in 0..5 {
                    for wi in 0..5 {
                        let v = x.at(&[0, gi * cg + c, h, wi]);
                        xs.set(&[0, c, h, wi], v);
                    }
                }
            }
            let ws = w.slice_outer(gi * oc, (gi + 1) * oc);
            let part = conv2d(&xs, &ws, 1, 1);
            for o in 0..oc {
                for h in 0..5 {
                    for wi in 0..5 {
                        assert_eq!(
                            grouped.at(&[0, gi * oc + o, h, wi]),
                            part.at(&[0, o, h, wi])
                        );
                    }
                }
            }
        }
    }

    /// Finite-difference check of both gradients on a small conv.
    #[test]
    fn conv_gradients_match_finite_difference() {
        let x = det_tensor(&[1, 2, 5, 5], 99).scale(0.25);
        let w = det_tensor(&[3, 2, 3, 3], 111).scale(0.25);
        let (stride, pad) = (1, 1);
        // Loss = sum of outputs weighted by a fixed pattern.
        let pat = det_tensor(&[1, 3, 5, 5], 123).scale(0.1);
        let loss =
            |xx: &Tensor, ww: &Tensor| -> f32 { conv2d(xx, ww, stride, pad).mul(&pat).sum() };
        let gout = pat.clone();
        let dx = conv2d_backward_input(&gout, &w, x.shape(), stride, pad, 1);
        let dw = conv2d_backward_weight(&gout, &x, w.shape(), stride, pad, 1);
        let eps = 1e-2f32;
        for i in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
        for i in [0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - dw.data()[i]).abs() < 1e-2,
                "dw[{i}]: numeric {num} vs analytic {}",
                dw.data()[i]
            );
        }
    }

    #[test]
    fn grouped_gradients_match_finite_difference() {
        let x = det_tensor(&[1, 4, 4, 4], 13).scale(0.25);
        let w = det_tensor(&[6, 2, 3, 3], 17).scale(0.25);
        let groups = 2;
        let pat = det_tensor(&[1, 6, 4, 4], 19).scale(0.1);
        let loss = |xx: &Tensor, ww: &Tensor| -> f32 {
            conv2d_grouped(xx, ww, 1, 1, groups).mul(&pat).sum()
        };
        let dx = conv2d_backward_input(&pat, &w, x.shape(), 1, 1, groups);
        let dw = conv2d_backward_weight(&pat, &x, w.shape(), 1, 1, groups);
        let eps = 1e-2f32;
        for i in [0usize, 15, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        for i in [0usize, 20, 50, 100] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 1e-2, "dw[{i}]");
        }
    }

    /// The scratch-buffer variant must be bit-identical to the allocating
    /// path, including when the buffers are reused across calls with
    /// different geometries (stale shapes, oversized col scratch).
    #[test]
    fn conv2d_grouped_into_matches_and_reuses_scratch() {
        let mut out = Tensor::zeros(&[1]); // wrong shape on purpose
        let mut col = Vec::new();
        for &(b, c, hw, groups, oc) in &[(2usize, 6usize, 6usize, 3usize, 12usize), (1, 4, 5, 2, 6)]
        {
            let x = det_tensor(&[b, c, hw, hw], 55);
            let w = det_tensor(&[oc, c / groups, 3, 3], 66);
            let want = conv2d_grouped(&x, &w, 1, 1, groups);
            conv2d_grouped_into(&x, &w, 1, 1, groups, &mut out, &mut col);
            assert_eq!(out, want, "b={b} c={c}");
            // Second call on dirty buffers must give the same answer.
            conv2d_grouped_into(&x, &w, 1, 1, groups, &mut out, &mut col);
            assert_eq!(out, want, "dirty-scratch call b={b} c={c}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible by groups")]
    fn bad_group_count_panics() {
        let x = Tensor::zeros(&[1, 5, 4, 4]);
        let w = Tensor::zeros(&[4, 2, 3, 3]);
        let _ = conv2d_grouped(&x, &w, 1, 1, 2);
    }

    #[test]
    fn integer_inputs_produce_exact_integer_outputs() {
        // CIM partial sums rely on exact integer arithmetic in f32.
        let x = det_tensor(&[1, 3, 6, 6], 21); // integers in [-4, 4]
        let w = det_tensor(&[4, 3, 3, 3], 23);
        let y = conv2d(&x, &w, 1, 1);
        for &v in y.data() {
            assert_eq!(v, v.round(), "non-integer output {v}");
        }
    }
}
