//! im2col-based 2-D convolution: forward, input gradient, weight gradient,
//! with first-class support for **grouped convolution over input channels**.
//!
//! Grouped convolution is load-bearing here: the ColumnQuant framework maps
//! each CIM array to one group (the paper's Sec. III-C), so each group
//! consumes a contiguous slice of input channels and produces a full set of
//! output channels — the array-wise partial sums.
//!
//! # Inference and training kernels
//!
//! [`conv2d_grouped`] / [`conv2d_grouped_into`] are the inference kernels:
//! one weight set, one im2col + GEMM per (image, group).
//!
//! Training runs the **multi-set** kernels, which take every weight set
//! of one layer at once — a CIM layer's bit-splits share one input and one
//! geometry:
//!
//! * [`conv2d_multi`] builds the im2col [`Patches`] of each (group, image)
//!   once and runs every set's GEMM from them; the patches are kept for
//! * [`conv2d_multi_backward_weight`], which needs no second im2col, and
//! * [`conv2d_multi_backward_input`], which sums the sets' input gradients.
//!
//! [`conv2d_backward_input`] and [`conv2d_backward_weight`] are their
//! one-set case.
//!
//! **Batch folding.** When `OH·OW` is small (the 6×6 and 3×3 stages of a
//! CIFAR ResNet) a GEMM over one image's columns is too narrow to
//! vectorize well, so the forward and input-gradient GEMMs run over
//! *column blocks*: consecutive images side by side along the GEMM's
//! column dimension, about `FOLD_COLS` columns wide.
//!
//! **Parallelism.** Each kernel cuts its output into disjoint work items —
//! (group × column block × output-channel range) for the forward,
//! (group × column block × input-channel range) for the input gradient,
//! (group × output-channel range) for the weight gradient — and runs them
//! on the persistent [`crate::exec`] pool, as many tasks as
//! [`threads_for`](crate::threads_for) grants the step's multiply-adds.
//!
//! **Reduction order.** Results are bit-identical for every pool width
//! and every block size, and identical to the per-set, per-image loop
//! nests they replaced:
//!
//! * a forward or input-gradient element sums its reduction index (input
//!   tap, resp. output channel) in a fixed order from zero, whatever
//!   column it sits in — so folding images into columns changes nothing;
//! * the sets' input gradients are added in set order, each one summed
//!   from zero first (`((0 + d₀) + d₁) + d₂`);
//! * a weight-gradient element is a sum over images, in image order, of
//!   per-image dot products summed like `matmul::dot` (four partial sums
//!   over the output pixels, combined left to right, then the tail). The
//!   kernel vectorizes across the weight's columns, never inside one dot.
//!
//! All functions are shape-checked and panic with descriptive messages on
//! misuse; see the `# Panics` sections.

use std::ops::Range;

use crate::matmul::{gemm_nn_acc, gemm_nn_rows, threads_for};
use crate::{arena, exec, Tensor};

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
    for ki in 0..s.kh {
        let rows = tap_range(ki, h, s.out_h, stride, pad);
        for kj in 0..s.kw {
            let cols = tap_range(kj, w, out_w, stride, pad);
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

/// The outputs `o` of a tap at kernel offset `off` whose input
/// `o·stride + off − pad` lies inside `[0, len)`, for `out` outputs.
fn tap_range(off: usize, len: usize, out: usize, stride: usize, pad: usize) -> Range<usize> {
    let hi = (len + pad).saturating_sub(off).div_ceil(stride).min(out);
    pad.saturating_sub(off).div_ceil(stride).min(hi)..hi
}

/// Scatters (accumulates) the patch rows of `c_len` channels back into
/// those channels of one image gradient, `img` (col2im). Row `r` of the
/// patch matrix starts at `col[r · ld]`.
///
/// Every input pixel receives its terms in `(channel, ki, kj, oh, ow)`
/// order; in-bounds runs of a row are plain (strided) adds.
fn col2im(col: &[f32], ld: usize, c_len: usize, s: &ConvShape, img: &mut [f32]) {
    let (h, w, stride, pad) = (s.in_h, s.in_w, s.stride, s.pad);
    let out_w = s.out_w;
    debug_assert_eq!(img.len(), c_len * h * w);
    for (c_local, ch) in img.chunks_exact_mut(h * w).enumerate() {
        for ki in 0..s.kh {
            let rows = tap_range(ki, h, s.out_h, stride, pad);
            for kj in 0..s.kw {
                let cols = tap_range(kj, w, out_w, stride, pad);
                if cols.is_empty() {
                    continue;
                }
                let row = &col[((c_local * s.kh + ki) * s.kw + kj) * ld..];
                for oh in rows.clone() {
                    let ih = oh * stride + ki - pad;
                    let src = &row[oh * out_w + cols.start..oh * out_w + cols.end];
                    let dst = &mut ch[ih * w + cols.start * stride + kj - pad..(ih + 1) * w];
                    if stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
                            *d += v;
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

/// Gradient of a grouped convolution with respect to its input: the
/// one-set case of [`conv2d_multi_backward_input`].
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
    conv2d_multi_backward_input(
        std::slice::from_ref(grad_out),
        std::slice::from_ref(weight),
        input_shape,
        stride,
        pad,
        groups,
    )
}

/// Gradient of a grouped convolution with respect to its weight: the
/// one-set case of [`conv2d_multi_backward_weight`], building the input's
/// patches first.
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
    let mut patches = Patches::default();
    patches.build(input, &s);
    conv2d_multi_backward_weight(std::slice::from_ref(grad_out), &patches, weight_shape)
        .pop()
        .expect("one weight set")
}

/// Target GEMM width of a column block: images are folded side by side
/// until a block is about this many output pixels wide.
const FOLD_COLS: usize = 144;

/// The im2col patch matrices of one batch, built once by [`conv2d_multi`]
/// and reused by [`conv2d_multi_backward_weight`] — the training step's
/// only im2col.
///
/// The batch is cut into column blocks of consecutive images (see the
/// module docs); group `g` and block `[b0, b0 + n)` own one row-major
/// `[Cg·KH·KW, n·OH·OW]` matrix, image `b0 + j` in columns
/// `[j·OH·OW, (j + 1)·OH·OW)`. The buffer is reused across builds and
/// grows only when a batch needs more room.
#[derive(Debug, Clone, Default)]
pub struct Patches {
    shape: Option<ConvShape>,
    data: Vec<f32>,
}

impl Patches {
    /// Images per column block of a `batch` whose images are `cc` output
    /// pixels each: blocks of about [`FOLD_COLS`] columns, evened out so
    /// the last block is not a sliver.
    fn images_per_block(batch: usize, cc: usize) -> usize {
        let want = FOLD_COLS.div_ceil(cc.max(1)).clamp(1, batch.max(1));
        batch.div_ceil(batch.div_ceil(want).max(1)).max(1)
    }

    /// The column blocks of `s`'s batch, as image ranges.
    fn blocks(s: &ConvShape) -> Vec<Range<usize>> {
        let nb = Self::images_per_block(s.batch, s.col_cols());
        (0..s.batch)
            .step_by(nb)
            .map(|b0| b0..(b0 + nb).min(s.batch))
            .collect()
    }

    /// Builds the patches of `input` under geometry `s`, one task per
    /// (group, column block).
    fn build(&mut self, input: &Tensor, s: &ConvShape) {
        let (cr, cc, cg) = (s.col_rows(), s.col_cols(), s.ch_per_group());
        let in_img = s.in_ch * s.in_h * s.in_w;
        self.shape = Some(*s);
        self.data.resize(s.groups * s.batch * cr * cc, 0.0);
        let blocks = Self::blocks(s);
        let mut rest = &mut self.data[..];
        let mut items = Vec::with_capacity(s.groups * blocks.len());
        for g in 0..s.groups {
            for imgs in &blocks {
                let m = take_front(&mut rest, cr * imgs.len() * cc);
                items.push((g, imgs.clone(), m));
            }
        }
        // An im2col copy costs about as much as a few multiply-adds.
        let work = 8 * s.groups * s.batch * cr * cc;
        run_items(items, work, |(g, imgs, m)| {
            let ld = imgs.len() * cc;
            let mut col = arena::take_f32(cr * cc);
            for (j, b) in imgs.enumerate() {
                let img = &input.data()[b * in_img..(b + 1) * in_img];
                im2col_image(img, g * cg, cg, s, &mut col);
                for (dst, src) in m.chunks_exact_mut(ld).zip(col.chunks_exact(cc)) {
                    dst[j * cc..(j + 1) * cc].copy_from_slice(src);
                }
            }
            arena::put_f32(col);
        });
    }

    /// The patch matrix of group `g`'s block starting at image `b0` with
    /// `n` images.
    fn block(&self, s: &ConvShape, g: usize, b0: usize, n: usize) -> &[f32] {
        let len = s.col_rows() * s.col_cols();
        &self.data[len * (g * s.batch + b0)..][..len * n]
    }
}

/// Splits `rest` into its first `n` elements and the remainder.
fn take_front<'a>(rest: &mut &'a mut [f32], n: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

/// `0..len` cut into `parts` (clamped to `1..=len`) near-equal ranges.
fn split_range(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    (0..parts)
        .map(|i| i * len / parts..(i + 1) * len / parts)
        .collect()
}

/// One work item of a multi-set kernel: group `g`, the images `imgs` of
/// one column block and the channel range `part`, with the chunk it owns
/// of every image of every output buffer (buffer-major, then image order).
struct Item<'a> {
    g: usize,
    imgs: Range<usize>,
    part: Range<usize>,
    chunks: Vec<&'a mut [f32]>,
}

/// The items of every (group, column block, part), cutting `bufs` — each
/// laid out `[batch, groups, channels, unit]`, its channels split by
/// `parts` — into the disjoint chunks the items own.
fn cut_items<'a>(
    bufs: Vec<&'a mut [f32]>,
    groups: usize,
    blocks: &[Range<usize>],
    parts: &[Range<usize>],
    unit: usize,
) -> Vec<Item<'a>> {
    let mut items = Vec::with_capacity(groups * blocks.len() * parts.len());
    for g in 0..groups {
        for imgs in blocks {
            for part in parts {
                let (imgs, part, chunks) = (imgs.clone(), part.clone(), Vec::new());
                items.push(Item {
                    g,
                    imgs,
                    part,
                    chunks,
                });
            }
        }
    }
    let (nb, batch) = (blocks[0].len(), blocks[blocks.len() - 1].end);
    for mut rest in bufs {
        for b in 0..batch {
            for g in 0..groups {
                for (pi, part) in parts.iter().enumerate() {
                    let at = (g * blocks.len() + b / nb) * parts.len() + pi;
                    items[at]
                        .chunks
                        .push(take_front(&mut rest, part.len() * unit));
                }
            }
        }
    }
    items
}

/// Runs `f` on every item, as up to [`threads_for`]`(work)` tasks of
/// consecutive items on the [`exec`] pool (inline when one task
/// suffices). Items own disjoint outputs, so the split never changes a
/// result.
fn run_items<T: Send>(items: Vec<T>, work: usize, f: impl Fn(T) + Sync) {
    let tasks = threads_for(work).min(items.len());
    if tasks <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    let per = items.len().div_ceil(tasks);
    let f = &f;
    let mut items = items.into_iter();
    exec::scope(|sc| loop {
        let chunk: Vec<T> = items.by_ref().take(per).collect();
        if chunk.is_empty() {
            break;
        }
        sc.spawn(move || chunk.into_iter().for_each(f));
    });
}

/// Validates a non-empty list of equally shaped weight sets and returns
/// the geometry they share with `input_shape`.
fn multi_shape(
    input_shape: &[usize],
    weights: &[Tensor],
    stride: usize,
    pad: usize,
    groups: usize,
) -> ConvShape {
    assert!(!weights.is_empty(), "need at least one weight set");
    for w in weights {
        assert_eq!(
            w.shape(),
            weights[0].shape(),
            "every weight set must share one shape"
        );
    }
    ConvShape::new(input_shape, weights[0].shape(), stride, pad, groups)
}

/// Grouped 2-D convolution of one input with every weight set in
/// `weights` (all shaped `[OC, C/groups, KH, KW]`): returns one
/// `[B, OC, OH, OW]` output per set, each bit-identical to
/// [`conv2d_grouped`] with that set.
///
/// The input's patches are built once into `patches` (reusing its buffer)
/// and left there for [`conv2d_multi_backward_weight`]; the GEMMs run
/// batch-folded on the exec pool (see the module docs).
///
/// # Panics
///
/// Panics on any shape inconsistency or an empty `weights`.
pub fn conv2d_multi(
    input: &Tensor,
    weights: &[Tensor],
    stride: usize,
    pad: usize,
    groups: usize,
    patches: &mut Patches,
) -> Vec<Tensor> {
    let s = multi_shape(input.shape(), weights, stride, pad, groups);
    let (cr, cc, ocg) = (s.col_rows(), s.col_cols(), s.out_per_group());
    let mut outs: Vec<Tensor> = weights
        .iter()
        .map(|_| Tensor::zeros(&[s.batch, s.out_ch, s.out_h, s.out_w]))
        .collect();
    patches.build(input, &s);
    if s.batch == 0 || cc == 0 {
        return outs;
    }
    let blocks = Patches::blocks(&s);
    let work = weights.len() * s.batch * s.out_ch * cr * cc;
    let o_parts = split_range(ocg, threads_for(work).div_ceil(s.groups * blocks.len()));

    // Each item owns the `[range, OH·OW]` block of every image of every
    // set's output.
    let bufs = outs.iter_mut().map(|t| t.data_mut()).collect();
    let items = cut_items(bufs, s.groups, &blocks, &o_parts, cc);
    let patches = &*patches;
    run_items(items, work, |mut item| {
        let n = item.imgs.len();
        let ncols = n * cc;
        let m = patches.block(&s, item.g, item.imgs.start, n);
        let rows = (item.g * ocg + item.part.start) * cr..(item.g * ocg + item.part.end) * cr;
        let mut acc = arena::take_f32(item.part.len() * ncols);
        for (w, outs) in weights.iter().zip(item.chunks.chunks_mut(n)) {
            acc.fill(0.0);
            gemm_nn_rows(cr, ncols, &w.data()[rows.clone()], m, &mut acc);
            for (j, out) in outs.iter_mut().enumerate() {
                for (dst, src) in out.chunks_exact_mut(cc).zip(acc.chunks_exact(ncols)) {
                    dst.copy_from_slice(&src[j * cc..(j + 1) * cc]);
                }
            }
        }
        arena::put_f32(acc);
    });
    outs
}

/// Input gradient of a grouped convolution applied with every weight set
/// in `weights`, summed over the sets: `grads[k]` is `∂L/∂out_k`
/// (`[B, OC, OH, OW]`) for the output of `weights[k]`. Returns
/// `[B, C, H, W]` matching `input_shape`, bit-identical to adding
/// [`conv2d_backward_input`] of each set in set order onto zeros.
///
/// # Panics
///
/// Panics on any shape inconsistency, an empty `weights`, or
/// `grads.len() != weights.len()`.
pub fn conv2d_multi_backward_input(
    grads: &[Tensor],
    weights: &[Tensor],
    input_shape: &[usize],
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let s = multi_shape(input_shape, weights, stride, pad, groups);
    assert_eq!(grads.len(), weights.len(), "one gradient per weight set");
    for g in grads {
        assert_eq!(
            g.shape(),
            &[s.batch, s.out_ch, s.out_h, s.out_w],
            "grad_out shape mismatch"
        );
    }
    let mut dinput = Tensor::zeros(input_shape);
    let (cr, cc, cg, ocg) = (
        s.col_rows(),
        s.col_cols(),
        s.ch_per_group(),
        s.out_per_group(),
    );
    let (hw, kk) = (s.in_h * s.in_w, s.kh * s.kw);
    if s.batch == 0 || cc == 0 || hw == 0 {
        return dinput;
    }
    // Every set's group weights transposed to `[cr, ocg]`, set-major.
    let mut wt = vec![0.0f32; weights.len() * s.groups * cr * ocg];
    for (w, wt_set) in weights.iter().zip(wt.chunks_exact_mut(s.groups * cr * ocg)) {
        for (w_g, wt_g) in w
            .data()
            .chunks_exact(ocg * cr)
            .zip(wt_set.chunks_exact_mut(cr * ocg))
        {
            for (oc, w_row) in w_g.chunks_exact(cr).enumerate() {
                for (r, &v) in w_row.iter().enumerate() {
                    wt_g[r * ocg + oc] = v;
                }
            }
        }
    }
    let blocks = Patches::blocks(&s);
    let work = weights.len() * s.batch * s.out_ch * cr * cc;
    let c_parts = split_range(cg, threads_for(work).div_ceil(s.groups * blocks.len()));

    // Each item owns its channels of every image of its block.
    let items = cut_items(vec![dinput.data_mut()], s.groups, &blocks, &c_parts, hw);
    let wt = &wt;
    run_items(items, work, |mut item| {
        let n = item.imgs.len();
        let ncols = n * cc;
        let rows = item.part.start * kk..item.part.end * kk;
        let mut gf = arena::take_f32(ocg * ncols);
        let mut dcol = arena::take_f32(rows.len() * ncols);
        let mut tmp = (grads.len() > 1).then(|| arena::take_f32(item.part.len() * hw));
        for (k, grad) in grads.iter().enumerate() {
            // Gather the block's `[ocg, n·OH·OW]` output gradient of group `g`.
            for (j, b) in item.imgs.clone().enumerate() {
                let src = &grad.data()[(b * s.out_ch + item.g * ocg) * cc..][..ocg * cc];
                for (dst, src) in gf.chunks_exact_mut(ncols).zip(src.chunks_exact(cc)) {
                    dst[j * cc..(j + 1) * cc].copy_from_slice(src);
                }
            }
            // dcol[rows, ncols] = Wᵀ[rows, ocg] · gout[ocg, ncols]
            let wt_g = &wt[(k * s.groups + item.g) * cr * ocg..][..cr * ocg];
            dcol.fill(0.0);
            gemm_nn_rows(
                ocg,
                ncols,
                &wt_g[rows.start * ocg..rows.end * ocg],
                &gf,
                &mut dcol,
            );
            for (j, dst) in item.chunks.iter_mut().enumerate() {
                let col = &dcol[j * cc..];
                match &mut tmp {
                    Some(tmp) if k > 0 => {
                        tmp.fill(0.0);
                        col2im(col, ncols, item.part.len(), &s, tmp);
                        for (d, &t) in dst.iter_mut().zip(tmp.iter()) {
                            *d += t;
                        }
                    }
                    // The first set lands on zeros: `0 + d₀ == d₀`.
                    _ => col2im(col, ncols, item.part.len(), &s, dst),
                }
            }
        }
        arena::put_f32(gf);
        arena::put_f32(dcol);
        if let Some(tmp) = tmp {
            arena::put_f32(tmp);
        }
    });
    dinput
}

/// Weight gradient of a grouped convolution for every set: `grads[k]` is
/// `∂L/∂out_k` (`[B, OC, OH, OW]`) of an output computed by
/// [`conv2d_multi`] from `patches`. Returns one `weight_shape`
/// (`[OC, C/groups, KH, KW]`) gradient per set, each bit-identical to the
/// per-image `gemm_nt_acc` loop it replaced (see the module docs'
/// reduction order).
///
/// # Panics
///
/// Panics if `patches` was never built, or on any shape inconsistency.
pub fn conv2d_multi_backward_weight(
    grads: &[Tensor],
    patches: &Patches,
    weight_shape: &[usize],
) -> Vec<Tensor> {
    let s = patches.shape.expect("patches were never built");
    assert_eq!(
        weight_shape,
        &[s.out_ch, s.ch_per_group(), s.kh, s.kw],
        "weight shape vs patches"
    );
    for g in grads {
        assert_eq!(
            g.shape(),
            &[s.batch, s.out_ch, s.out_h, s.out_w],
            "grad_out shape mismatch"
        );
    }
    let (cr, cc, ocg) = (s.col_rows(), s.col_cols(), s.out_per_group());
    let mut dws: Vec<Tensor> = grads.iter().map(|_| Tensor::zeros(weight_shape)).collect();
    if s.batch == 0 || cc == 0 {
        return dws;
    }
    let work = grads.len() * s.batch * s.out_ch * cr * cc;
    let o_parts = split_range(ocg, threads_for(work).div_ceil(s.groups));

    // Each item owns its rows of every set's gradient (the gradients as
    // one pseudo-image) and walks the whole batch in image order.
    let bufs = dws.iter_mut().map(|t| t.data_mut()).collect();
    let one = std::slice::from_ref(&(0..1));
    let items = cut_items(bufs, s.groups, one, &o_parts, cr);
    let blocks = Patches::blocks(&s);
    run_items(items, work, |mut item| {
        // The image's patch matrix transposed to `[OH·OW, width]`; lanes
        // past `cr` stay zero and are never read back.
        let width = cr.next_multiple_of(4);
        let mut col_t = arena::take_f32_zeroed(cc * width);
        let mut acc = arena::take_f32(4 * width);
        for imgs in &blocks {
            let m = patches.block(&s, item.g, imgs.start, imgs.len());
            let ld = imgs.len() * cc;
            for (j, b) in imgs.clone().enumerate() {
                for (r, row) in m.chunks_exact(ld).enumerate() {
                    for (p, &v) in row[j * cc..(j + 1) * cc].iter().enumerate() {
                        col_t[p * width + r] = v;
                    }
                }
                for (grad, dst) in grads.iter().zip(item.chunks.iter_mut()) {
                    let at = (b * s.out_ch + item.g * ocg + item.part.start) * cc;
                    let gout = &grad.data()[at..][..item.part.len() * cc];
                    for (g_row, dw_row) in gout.chunks_exact(cc).zip(dst.chunks_exact_mut(cr)) {
                        dot_rows(g_row, &col_t, width, &mut acc, dw_row);
                    }
                }
            }
        }
        arena::put_f32(col_t);
        arena::put_f32(acc);
    });
    dws
}

/// `dw[r] += Σ_p g[p] · col_t[p·width + r]` for every `r < dw.len()`, each
/// sum formed exactly like `matmul::dot(g, col_row_r)`: four partial sums
/// over `p mod 4` from zero, combined left to right, then the tail terms.
/// The loops run across `r`, so the four partial sums of many columns
/// advance together in vector lanes. `acc` is `4·width` scratch.
fn dot_rows(g: &[f32], col_t: &[f32], width: usize, acc: &mut [f32], dw: &mut [f32]) {
    let cc = g.len();
    let (a0, rest) = acc.split_at_mut(width);
    let (a1, rest) = rest.split_at_mut(width);
    let (a2, a3) = rest.split_at_mut(width);
    let a3 = &mut a3[..width];
    for a in [&mut *a0, &mut *a1, &mut *a2, &mut *a3] {
        a.fill(0.0);
    }
    let chunks = cc / 4;
    for (gs, t) in g
        .chunks_exact(4)
        .zip(col_t.chunks_exact(4 * width))
        .take(chunks)
    {
        let (t0, t) = t.split_at(width);
        let (t1, t) = t.split_at(width);
        let (t2, t3) = t.split_at(width);
        let (g0, g1, g2, g3) = (gs[0], gs[1], gs[2], gs[3]);
        for r in 0..width {
            a0[r] += g0 * t0[r];
            a1[r] += g1 * t1[r];
            a2[r] += g2 * t2[r];
            a3[r] += g3 * t3[r];
        }
    }
    for r in 0..width {
        a0[r] = a0[r] + a1[r] + a2[r] + a3[r];
    }
    for (p, &gv) in g.iter().enumerate().skip(chunks * 4) {
        for (a, &t) in a0.iter_mut().zip(&col_t[p * width..(p + 1) * width]) {
            *a += gv * t;
        }
    }
    for (d, &v) in dw.iter_mut().zip(a0.iter()) {
        *d += v;
    }
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

    /// Test-only copy of the per-image, per-group col2im the multi-set
    /// input gradient replaced.
    fn ref_col2im(col: &[f32], c_start: usize, c_len: usize, s: &ConvShape, img: &mut [f32]) {
        let (h, w) = (s.in_h, s.in_w);
        let ohw = s.out_h * s.out_w;
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

    /// Test-only copy of the serial loop nest behind the one-set input
    /// gradient before the multi-set kernels.
    fn ref_backward_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Tensor {
        let s = ConvShape::new(input_shape, weight.shape(), stride, pad, groups);
        let mut dinput = Tensor::zeros(input_shape);
        let (cr, cc) = (s.col_rows(), s.col_cols());
        let (cg, ocg) = (s.ch_per_group(), s.out_per_group());
        let in_img = s.in_ch * s.in_h * s.in_w;
        let out_img = s.out_ch * s.out_h * s.out_w;
        let mut dcol = vec![0.0f32; cr * cc];
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
                gemm_nn_acc(cr, ocg, cc, wt_g, gout_g, &mut dcol);
                let img = &mut dinput.data_mut()[b * in_img..(b + 1) * in_img];
                ref_col2im(&dcol, g * cg, cg, &s, img);
            }
        }
        dinput
    }

    /// Test-only copy of the serial loop nest behind the one-set weight
    /// gradient before the multi-set kernels.
    fn ref_backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Tensor {
        let s = ConvShape::new(input.shape(), weight_shape, stride, pad, groups);
        let mut dweight = Tensor::zeros(weight_shape);
        let (cr, cc) = (s.col_rows(), s.col_cols());
        let (cg, ocg) = (s.ch_per_group(), s.out_per_group());
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
                crate::matmul::gemm_nt_acc(ocg, cc, cr, gout_g, &col, dw_g);
            }
        }
        dweight
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The multi-set forward, input gradient and weight gradient against
    /// the serial per-set loop nests, bit for bit, across set counts,
    /// group counts, strides, output sizes (OH·OW ∈ {1, 9, 36, 144}) and
    /// batch sizes — each on a one- and a two-worker pool.
    #[test]
    fn multi_set_kernels_match_serial_loop_nests_bitwise() {
        use crate::exec::ExecPool;
        use crate::CqRng;
        let pools = [ExecPool::with_threads(1), ExecPool::with_threads(2)];
        let mut rng = CqRng::new(5);
        let mut patches = Patches::default();
        for sets in 1..=3usize {
            for groups in [1usize, 2, 8] {
                for stride in [1usize, 2] {
                    for out_hw in [1usize, 3, 6, 12] {
                        for batch in [1usize, 5, 16] {
                            let (cg, ocg, pad) = (2usize, 3usize, 1usize);
                            let hw = (out_hw - 1) * stride + 1;
                            let x = rng.normal_tensor(&[batch, groups * cg, hw, hw], 1.0);
                            let w_shape = [groups * ocg, cg, 3, 3];
                            // Sparse weights exercise the GEMM's zero skip.
                            let ws: Vec<Tensor> = (0..sets)
                                .map(|_| {
                                    rng.normal_tensor(&w_shape, 1.0).map(|v| {
                                        if v.abs() < 0.5 {
                                            0.0
                                        } else {
                                            v
                                        }
                                    })
                                })
                                .collect();
                            let out_shape = [batch, groups * ocg, out_hw, out_hw];
                            let grads: Vec<Tensor> = (0..sets)
                                .map(|_| rng.normal_tensor(&out_shape, 1.0))
                                .collect();
                            let want_y: Vec<Tensor> = ws
                                .iter()
                                .map(|w| conv2d_grouped(&x, w, stride, pad, groups))
                                .collect();
                            let mut want_dx = Tensor::zeros(x.shape());
                            for (g, w) in grads.iter().zip(&ws) {
                                want_dx.add_assign(&ref_backward_input(
                                    g,
                                    w,
                                    x.shape(),
                                    stride,
                                    pad,
                                    groups,
                                ));
                            }
                            let want_dw: Vec<Tensor> = grads
                                .iter()
                                .map(|g| ref_backward_weight(g, &x, &w_shape, stride, pad, groups))
                                .collect();
                            for pool in &pools {
                                let case = format!(
                                    "sets {sets} groups {groups} stride {stride} \
                                     ohw {} batch {batch} pool {}",
                                    out_hw * out_hw,
                                    pool.threads()
                                );
                                pool.install(|| {
                                    let y =
                                        conv2d_multi(&x, &ws, stride, pad, groups, &mut patches);
                                    let dx = conv2d_multi_backward_input(
                                        &grads,
                                        &ws,
                                        x.shape(),
                                        stride,
                                        pad,
                                        groups,
                                    );
                                    let dw =
                                        conv2d_multi_backward_weight(&grads, &patches, &w_shape);
                                    for k in 0..sets {
                                        assert_eq!(bits(&y[k]), bits(&want_y[k]), "y {case}");
                                        assert_eq!(bits(&dw[k]), bits(&want_dw[k]), "dw {case}");
                                    }
                                    assert_eq!(bits(&dx), bits(&want_dx), "dx {case}");
                                });
                            }
                        }
                    }
                }
            }
        }
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
