//! 2-D convolution via im2col, with full backward passes.
//!
//! Layout conventions (all NCHW):
//! - input `[N, C, H, W]`
//! - weight `[F, C, KH, KW]`
//! - bias `[F]`
//! - output `[N, F, OH, OW]`
//!
//! The backward pass returns gradients w.r.t. input, weight and bias; the
//! input gradient is what the adversarial attacks ultimately consume.
//!
//! # Planning
//!
//! Both entry points compute one [`Blueprint`] per call from the
//! geometry (`[N, C, H, W, F, KH, KW, stride, padding]`). The
//! blueprint carries cap-checked scratch/output sizes (anything that
//! would overflow `usize` surfaces as [`TensorError::Overflow`] before
//! a byte is allocated), the GEMM blocking, and the parallel/serial
//! decision. Scratch comes from the thread-local arena,
//! so steady-state serving reuses one high-water buffer per worker
//! instead of allocating per call.
//!
//! # Batch-fused forward
//!
//! The forward pass lowers *tiles of whole samples* — as many as fit in
//! [`FUSE_COLS`] columns — to one `[F, K] × [K, tile·OH·OW]` product:
//! each sample is unfolded straight into its column range of the tile
//! matrix (stride 1 moves whole row runs; padding is written as
//! explicit zeros, so the scratch needs no clearing), and the GEMM
//! micro-kernel stores every register tile into the NCHW output with
//! the bias added. Deep layers, whose per-sample product is only 16 or
//! 4 columns wide, thereby run full-width register tiles. A column's
//! value does not depend on which columns sit beside it, so a batch of
//! `n` equals `n` single-sample calls bit for bit.
//!
//! # Backward on the same kernel
//!
//! ∂input is `col2im(wᵀ · g)` per sample: the register-tiled GEMM, then
//! a fold that for stride 1 adds each unfolded row onto its image row
//! as one clipped run (the clip is [`clip_run`], shared with the
//! unfold). ∂weight is, per sample, `cols · gᵀ` on the same GEMM — one
//! fresh accumulator per element, then an ordered add onto the running
//! sum — and one transpose at the end. Samples are never fused along
//! the GEMM's `k`: that would re-associate the cross-sample sum, which
//! byte-exact training resume rests on (DESIGN.md §18.5).
//!
//! # Parallel decomposition
//!
//! The forward pass partitions the *batch* across the [`crate::par`]
//! pool (each worker unfolds, multiplies and bias-fuses its own
//! samples); the backward pass partitions ∂weight/∂bias over *filters*
//! and ∂input over samples. In every case each output element is owned
//! by exactly one chunk and its accumulation order matches the serial
//! loop — crucially, ∂weight sums its per-sample contributions in
//! increasing sample order within one owner — so results are bit-exact
//! regardless of thread count.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::matmul::{gemm_rows_into, gemm_rows_to, transpose_into};
use crate::plan::alloc;
use crate::plan::blueprint::{
    blocking_for, checked_add, checked_product, classify_gemm, Blocking, Blueprint,
    DEFAULT_BLOCKING,
};
use crate::simd::Dest;
use crate::{par, Result, Shape, Tensor, TensorError};

/// Column budget of one batch-fused forward tile: whole samples are
/// unfolded side by side until the next would pass it (a single sample
/// wider than this is a tile of its own).
const FUSE_COLS: usize = 1024;

/// Samples per forward tile for a batch of `n` with `ohw` output pixels
/// per sample.
fn fused_samples(n: usize, ohw: usize) -> usize {
    (FUSE_COLS / ohw.max(1)).min(n).max(1)
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Number of input channels `C`.
    pub in_channels: usize,
    /// Number of output channels (filters) `F`.
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on all four sides.
    pub padding: usize,
}

impl ConvSpec {
    /// A square-kernel spec with the given stride and padding.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        ConvSpec {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Spatial output size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the stride is zero
    /// or the (padded) input is smaller than the kernel, and
    /// [`TensorError::Overflow`] when `h + 2·padding` (or the width
    /// analogue) does not fit in `usize` — previously that wrapped in
    /// release builds and produced a nonsense geometry.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "stride must be positive".into(),
            });
        }
        if self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "kernel must be non-empty".into(),
            });
        }
        let pad2 = checked_product("conv padding", &[2, self.padding])?;
        let ph = checked_add("conv padded height", h, pad2)?;
        let pw = checked_add("conv padded width", w, pad2)?;
        if ph < self.kernel_h || pw < self.kernel_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel {}x{} larger than padded input {ph}x{pw}",
                    self.kernel_h, self.kernel_w
                ),
            });
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }

    /// Number of weight parameters: `F · C · KH · KW`.
    pub fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2dGrads {
    /// `∂L/∂input`, shaped like the forward input.
    pub input: Tensor,
    /// `∂L/∂weight`, shaped like the weight.
    pub weight: Tensor,
    /// `∂L/∂bias`, shaped `[F]`.
    pub bias: Tensor,
}

/// Stride-1 clip of one unfolded row run against the image row it
/// slides over: `(lo, hi, from)` such that output columns `lo..hi` of
/// an `ow`-wide run are the input columns `from..from + (hi − lo)` and
/// every other column is padding. In range means
/// `pad ≤ ox + kw < w + pad`; the span is non-empty only when `lo` was
/// not clipped, i.e. `lo + kw ≥ pad`. Shared by [`unfold_into`] and its
/// adjoint [`col2im_add`], so the two cannot disagree about a border.
fn clip_run(kw: usize, pad: usize, w: usize, ow: usize) -> (usize, usize, usize) {
    let lo = pad.saturating_sub(kw).min(ow);
    let hi = (w + pad).saturating_sub(kw).clamp(lo, ow);
    (lo, hi, (lo + kw).saturating_sub(pad))
}

/// Core im2col fill: unfolds one `[C, H, W]` image (`src`) into columns
/// `col0 .. col0 + OH·OW` of `dst`, a `[C·KH·KW, ld]` row-major matrix.
/// Every element of those columns is written — padded positions as
/// explicit zeros — so `dst` may arrive dirty. Stride 1 moves each
/// output row as one run; other strides go pixel by pixel.
fn unfold_into(src: &[f32], geom: &ConvGeom, dst: &mut [f32], ld: usize, col0: usize) {
    let ConvGeom {
        spec, h, w, oh, ow, ..
    } = *geom;
    let pad = spec.padding;
    let mut row = 0usize;
    for ch in 0..spec.in_channels {
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let out_row = &mut dst[row * ld + col0..][..oh * ow];
                row += 1;
                for (oy, run) in out_row.chunks_exact_mut(ow).enumerate() {
                    let iy = (oy * spec.stride + kh)
                        .checked_sub(pad)
                        .filter(|&iy| iy < h);
                    let Some(iy) = iy else {
                        run.fill(0.0);
                        continue;
                    };
                    let src_row = &src[(ch * h + iy) * w..][..w];
                    if spec.stride == 1 {
                        let (lo, hi, from) = clip_run(kw, pad, w, ow);
                        let (left, rest) = run.split_at_mut(lo);
                        let (mid, right) = rest.split_at_mut(hi - lo);
                        left.fill(0.0);
                        right.fill(0.0);
                        match src_row.get(from..from + mid.len()) {
                            Some(pixels) => mid.copy_from_slice(pixels),
                            None => mid.fill(0.0),
                        }
                    } else {
                        for (ox, o) in run.iter_mut().enumerate() {
                            let ix = (ox * spec.stride + kw).checked_sub(pad);
                            *o = ix.and_then(|ix| src_row.get(ix)).copied().unwrap_or(0.0);
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`unfold_into`]: folds `cols` (`[C·KH·KW, OH·OW]`) back
/// into `dst` (`[C, H, W]`, must arrive zeroed), summing overlapping
/// contributions. Stride 1 adds each output row as one run, clipped by
/// the same [`clip_run`] the unfold uses; other strides go pixel by
/// pixel. Either way a destination element receives its ≤ `KH·KW`
/// terms in `(kh, kw)` order.
fn col2im_add(cols: &[f32], geom: &ConvGeom, dst: &mut [f32]) {
    let ConvGeom {
        spec, h, w, oh, ow, ..
    } = *geom;
    let pad = spec.padding;
    let mut rows = cols.chunks_exact(oh * ow);
    for ch in 0..spec.in_channels {
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let Some(in_row) = rows.next() else { return };
                let clip = (spec.stride == 1).then(|| clip_run(kw, pad, w, ow));
                for (oy, run) in in_row.chunks_exact(ow).enumerate() {
                    let iy = (oy * spec.stride + kh)
                        .checked_sub(pad)
                        .filter(|&iy| iy < h);
                    let Some(iy) = iy else { continue };
                    let dst_row = &mut dst[(ch * h + iy) * w..][..w];
                    if let Some((lo, hi, from)) = clip {
                        if let Some(span) = dst_row.get_mut(from..from + (hi - lo)) {
                            for (d, &v) in span.iter_mut().zip(&run[lo..hi]) {
                                *d += v;
                            }
                        }
                    } else {
                        for (ox, &v) in run.iter().enumerate() {
                            let ix = (ox * spec.stride + kw).checked_sub(pad);
                            if let Some(d) = ix.and_then(|ix| dst_row.get_mut(ix)) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Unfolds one `[C, H, W]` image into an im2col matrix
/// `[C·KH·KW, OH·OW]` for the given geometry.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-3 input,
/// [`TensorError::ShapeMismatch`] when the channel count disagrees with
/// the spec, [`TensorError::InvalidGeometry`] for impossible geometry,
/// or [`TensorError::Overflow`] when the unfolded size overflows.
pub fn im2col(image: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    if image.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 3,
            actual: image.rank(),
        });
    }
    let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
    if c != spec.in_channels {
        return Err(TensorError::shape_mismatch(
            "im2col",
            image.dims(),
            &[spec.in_channels],
        ));
    }
    let (oh, ow) = spec.output_size(h, w)?;
    let rows = checked_product("im2col rows", &[c, spec.kernel_h, spec.kernel_w])?;
    let len = checked_product("im2col", &[rows, oh, ow])?;
    let mut out = alloc::fresh_vec(len);
    let geom = ConvGeom::new(spec, (h, w), (oh, ow), DEFAULT_BLOCKING);
    unfold_into(image.as_slice(), &geom, &mut out, oh * ow, 0);
    Tensor::from_vec(out, Shape::of(&[rows, oh * ow]))
}

/// Folds an im2col matrix back into an image, *summing* overlapping
/// contributions — the exact adjoint of [`im2col`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the
/// `[C·KH·KW, OH·OW]` shape implied by `spec` and `(h, w)`,
/// [`TensorError::InvalidGeometry`] for impossible geometry, or
/// [`TensorError::Overflow`] when a size implied by them overflows.
pub fn col2im(cols: &Tensor, spec: &ConvSpec, h: usize, w: usize) -> Result<Tensor> {
    let (oh, ow) = spec.output_size(h, w)?;
    let c = spec.in_channels;
    let rows = checked_product("col2im rows", &[c, spec.kernel_h, spec.kernel_w])?;
    let n_cols = checked_product("col2im columns", &[oh, ow])?;
    if cols.dims() != [rows, n_cols] {
        return Err(TensorError::shape_mismatch(
            "col2im",
            cols.dims(),
            &[rows, n_cols],
        ));
    }
    let mut out = alloc::fresh_vec(checked_product("col2im", &[c, h, w])?);
    let geom = ConvGeom::new(spec, (h, w), (oh, ow), DEFAULT_BLOCKING);
    col2im_add(cols.as_slice(), &geom, &mut out);
    Tensor::from_vec(out, Shape::of(&[c, h, w]))
}

fn validate_conv_input(input: &Tensor, spec: &ConvSpec) -> Result<(usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: input.rank(),
        });
    }
    if spec.in_channels == 0 || spec.out_channels == 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "channel counts must be positive".into(),
        });
    }
    if input.dims()[1] != spec.in_channels {
        return Err(TensorError::shape_mismatch(
            "conv2d",
            input.dims(),
            &[spec.in_channels],
        ));
    }
    Ok((input.dims()[0], input.dims()[2], input.dims()[3]))
}

/// Plans a convolution (forward or backward): the cap-checked sizes,
/// the blocking for the inner GEMM, and the parallel/serial decision.
///
/// Forward, the inner GEMM is the batch-fused `F × K × tile·OH·OW`
/// product and `scratch` is its unfolded `[K, tile·OH·OW]` operand
/// (`scratch2` is unused). Backward, it is the per-sample
/// `K × F × OH·OW` ∂input product: `scratch` holds its `[K, OH·OW]`
/// result and `scratch2` the transposed weight — which is also the
/// size of ∂weight's `[K, F]` per-sample product and of its running
/// sum — and `scratch3` the transposed output-gradient plane
/// `[OH·OW, F]` that product reads. Either way the blocking's `nc` is
/// raised to the product's column count, so the row-major right-hand
/// side is already in packed layout.
fn plan_conv2d(
    spec: &ConvSpec,
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    backward: bool,
) -> Result<Blueprint> {
    let k_flat = checked_product(
        "conv2d weight",
        &[spec.in_channels, spec.kernel_h, spec.kernel_w],
    )?;
    let ohw = checked_product("conv2d output plane", &[oh, ow])?;
    let gemm_cols = if backward {
        ohw
    } else {
        checked_product("conv2d fused columns", &[fused_samples(n, ohw), ohw])?
    };
    let scratch = checked_product("conv2d im2col", &[k_flat, gemm_cols])?;
    let (scratch2, scratch3, out_len) = if backward {
        (
            checked_product("conv2d_backward transpose", &[k_flat, spec.out_channels])?,
            checked_product("conv2d_backward grad transpose", &[ohw, spec.out_channels])?,
            checked_product("conv2d_backward input grad", &[n, spec.in_channels, h, w])?,
        )
    } else {
        (
            0,
            0,
            checked_product("conv2d output", &[n, spec.out_channels, oh, ow])?,
        )
    };
    // Blocking is classified on the inner GEMM; the dispatch threshold
    // sees the whole batch. Work figures only feed thresholds, so
    // saturation is fine.
    let per_column = spec.out_channels.saturating_mul(k_flat);
    let class = classify_gemm(
        spec.out_channels,
        gemm_cols,
        per_column.saturating_mul(gemm_cols),
    );
    let work = n.saturating_mul(per_column.saturating_mul(ohw));
    let rows_axis = if backward {
        n.max(spec.out_channels)
    } else {
        n
    };
    let base = blocking_for(class);
    Ok(Blueprint {
        blocking: Blocking {
            nc: base.nc.max(gemm_cols),
            ..base
        },
        parallel: par::should_parallelize(rows_axis, work),
        scratch,
        scratch2,
        scratch3,
        out_len,
    })
}

/// Immutable per-call geometry shared by the forward/backward workers.
#[derive(Clone, Copy)]
struct ConvGeom {
    spec: ConvSpec,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k_flat: usize,
    /// GEMM blocking from the blueprint; identical for every worker and
    /// every call with the same shape.
    bl: Blocking,
}

impl ConvGeom {
    /// `k_flat` is re-derived unchecked: callers have either planned the
    /// shape (cap-checked by `plan_conv2d`) or sized the
    /// unfolded matrix with `checked_product` already.
    fn new(
        spec: &ConvSpec,
        (h, w): (usize, usize),
        (oh, ow): (usize, usize),
        bl: Blocking,
    ) -> Self {
        ConvGeom {
            spec: *spec,
            h,
            w,
            oh,
            ow,
            k_flat: spec.in_channels * spec.kernel_h * spec.kernel_w,
            bl,
        }
    }

    fn image_len(&self) -> usize {
        self.spec.in_channels * self.h * self.w
    }

    fn cols_len(&self) -> usize {
        self.k_flat * self.oh * self.ow
    }

    fn out_plane_len(&self) -> usize {
        self.spec.out_channels * self.oh * self.ow
    }
}

/// The `i`-th `len`-element record of `data` (one sample's image,
/// output plane or column block).
fn record(data: &[f32], i: usize, len: usize) -> &[f32] {
    &data[i * len..][..len]
}

/// Forward worker: convolves the samples in `range`, returning their
/// `[len, F, OH, OW]` output block, one batch-fused tile at a time (see
/// the module docs). The tile matrix leases from the calling thread's
/// scratch arena — uncleared, the unfold writes every element — so a
/// warm worker performs exactly one allocation: the returned block.
fn conv2d_block(
    input: &[f32],
    w_mat: &[f32],
    bias: &[f32],
    geom: ConvGeom,
    range: Range<usize>,
) -> Vec<f32> {
    let ohw = geom.oh * geom.ow;
    let plane = geom.out_plane_len();
    let len = range.end - range.start;
    let tile = fused_samples(len, ohw);
    let mut out = alloc::fresh_vec(len * plane);
    let mut cols = alloc::scratch_stale(geom.k_flat * tile * ohw);
    let mut samples = range;
    for tile_out in out.chunks_mut(tile * plane) {
        let in_tile = tile_out.len() / plane;
        let n_cols = in_tile * ohw;
        let cols = &mut cols[..geom.k_flat * n_cols];
        for (slot, sample) in samples.by_ref().take(in_tile).enumerate() {
            let image = record(input, sample, geom.image_len());
            unfold_into(image, &geom, cols, n_cols, slot * ohw);
        }
        // A `[F, C, KH, KW]` weight is already `[F, K]` row-major.
        gemm_rows_to(
            w_mat,
            geom.spec.out_channels,
            geom.k_flat,
            cols,
            n_cols,
            geom.bl,
            &mut Dest::nchw(tile_out, geom.spec.out_channels, ohw, bias),
        );
    }
    out
}

/// Batched 2-D convolution: `[N, C, H, W] → [N, F, OH, OW]`.
///
/// Samples are independent, so the batch is partitioned across the
/// [`crate::par`] pool; per sample the result is identical to the
/// serial path bit-for-bit (see the module docs). The serial-vs-pool
/// decision and the GEMM blocking both come from one blueprint, so
/// they can never disagree for a given shape.
///
/// # Errors
///
/// Returns an error when the input is not rank 4, the channel counts
/// disagree with `spec`, `weight`/`bias` have the wrong shapes, the
/// geometry is impossible, or a buffer size overflows `usize`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    let (n, h, w) = validate_conv_input(input, spec)?;
    if weight.dims()
        != [
            spec.out_channels,
            spec.in_channels,
            spec.kernel_h,
            spec.kernel_w,
        ]
    {
        return Err(TensorError::shape_mismatch(
            "conv2d",
            weight.dims(),
            &[
                spec.out_channels,
                spec.in_channels,
                spec.kernel_h,
                spec.kernel_w,
            ],
        ));
    }
    if bias.dims() != [spec.out_channels] {
        return Err(TensorError::shape_mismatch(
            "conv2d",
            bias.dims(),
            &[spec.out_channels],
        ));
    }
    let (oh, ow) = spec.output_size(h, w)?;
    let bp = plan_conv2d(spec, n, h, w, oh, ow, false)?;
    let geom = ConvGeom::new(spec, (h, w), (oh, ow), bp.blocking);
    let out = if bp.parallel {
        // Cross-thread operands bypass the arena deliberately: a buffer
        // dropped on another thread would migrate into its pool.
        let input: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(input.as_slice()));
        let w_mat: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(weight.as_slice()));
        let bias: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(bias.as_slice()));
        let blocks = par::parallel_rows(n, move |range: Range<usize>| {
            conv2d_block(&input, &w_mat, &bias, geom, range)
        });
        let mut out = alloc::fresh_with(bp.out_len);
        for block in blocks {
            out.extend_from_slice(&block);
        }
        out
    } else {
        conv2d_block(
            input.as_slice(),
            weight.as_slice(),
            bias.as_slice(),
            geom,
            0..n,
        )
    };
    Tensor::from_vec(out, Shape::of(&[n, spec.out_channels, oh, ow]))
}

/// ∂weight/∂bias worker: gradient rows for the filters in `range`.
///
/// Per sample, `tmp[K, F′] = cols[K, OH·OW] × gᵀ[OH·OW, F′]` runs on the
/// register-tiled kernel — every element one fresh accumulator from
/// `0.0`, `o` ascending, multiply then add — and is then added onto the
/// running `[K, F′]` sum, samples in increasing order: term for term
/// the `acc = Σₒ g·col; grad += acc` of a scalar loop per element, so
/// the cross-sample association is the serial one. `gᵀ` and the final
/// `[K, F′] → [F′, K]` transpose are copies. The three scratch buffers
/// lease from the calling thread's arena; the blueprint cap-checked
/// their sizes for the whole filter range.
fn conv_grad_filters_block(
    grad_out: &[f32],
    cols_all: &[f32],
    geom: ConvGeom,
    n: usize,
    range: Range<usize>,
) -> (Vec<f32>, Vec<f32>) {
    let ohw = geom.oh * geom.ow;
    let len = range.end - range.start;
    // One column panel of `len` columns, so the row-major `gᵀ` is
    // already in packed layout.
    let bl = Blocking {
        nc: geom.bl.nc.max(len),
        ..geom.bl
    };
    let mut grad_b = alloc::fresh_vec(len);
    let mut g_t = alloc::scratch_stale(ohw * len);
    let mut tmp = alloc::scratch_stale(geom.k_flat * len);
    let mut sum = alloc::scratch_f32(geom.k_flat * len);
    for sample in 0..n {
        let g_sample = record(grad_out, sample, geom.out_plane_len());
        let g_rows = &g_sample[range.start * ohw..range.end * ohw];
        // ∂bias: sum over spatial positions, then across samples.
        for (b, g_row) in grad_b.iter_mut().zip(g_rows.chunks_exact(ohw)) {
            *b += g_row.iter().sum::<f32>();
        }
        transpose_into(g_rows, len, ohw, &mut g_t);
        let cols = record(cols_all, sample, geom.cols_len());
        gemm_rows_into(cols, geom.k_flat, ohw, &g_t, len, bl, &mut tmp);
        for (s, &t) in sum.iter_mut().zip(tmp.iter()) {
            *s += t;
        }
    }
    let mut grad_w = alloc::fresh_vec(len * geom.k_flat);
    transpose_into(&sum, geom.k_flat, len, &mut grad_w);
    (grad_w, grad_b)
}

/// ∂input worker: for each sample in `range`, computes
/// `col2im(w_matᵀ · g_mat)` and returns the concatenated image blocks.
/// `g_mat` (`[F, OH·OW]` row-major) is read in place — the blueprint's
/// `nc ≥ OH·OW` makes that the packed layout — and the unfolded
/// gradient columns lease from this thread's scratch arena.
fn conv_grad_input_block(
    grad_out: &[f32],
    w_t: &[f32],
    geom: ConvGeom,
    range: Range<usize>,
) -> Vec<f32> {
    let ohw = geom.oh * geom.ow;
    let f = geom.spec.out_channels;
    let mut out = alloc::fresh_vec((range.end - range.start) * geom.image_len());
    let mut gcols = alloc::scratch_stale(geom.cols_len());
    for (slot, sample) in range.enumerate() {
        let g_mat = record(grad_out, sample, geom.out_plane_len());
        gemm_rows_into(w_t, geom.k_flat, f, g_mat, ohw, geom.bl, &mut gcols);
        let dst = &mut out[slot * geom.image_len()..(slot + 1) * geom.image_len()];
        col2im_add(&gcols, &geom, dst);
    }
    out
}

/// Unfolds the samples in `range` into `dst`, their concatenated
/// `[len · K, OH·OW]` column blocks.
fn im2col_samples_into(input: &[f32], geom: ConvGeom, range: Range<usize>, dst: &mut [f32]) {
    let ohw = geom.oh * geom.ow;
    for (slot, sample) in range.enumerate() {
        let block = &mut dst[slot * geom.cols_len()..(slot + 1) * geom.cols_len()];
        unfold_into(
            record(input, sample, geom.image_len()),
            &geom,
            block,
            ohw,
            0,
        );
    }
}

/// im2col worker for the parallel path: returns a freshly allocated
/// (cross-thread) column block.
fn im2col_samples_block(input: &[f32], geom: ConvGeom, range: Range<usize>) -> Vec<f32> {
    let mut out = alloc::fresh_vec((range.end - range.start) * geom.cols_len());
    im2col_samples_into(input, geom, range, &mut out);
    out
}

/// Validates and plans a backward call: `(blueprint, geometry, N)`.
fn plan_backward(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
) -> Result<(Blueprint, ConvGeom, usize)> {
    let (n, h, w) = validate_conv_input(input, spec)?;
    let (oh, ow) = spec.output_size(h, w)?;
    if grad_out.dims() != [n, spec.out_channels, oh, ow] {
        return Err(TensorError::shape_mismatch(
            "conv2d_backward",
            grad_out.dims(),
            &[n, spec.out_channels, oh, ow],
        ));
    }
    let bp = plan_conv2d(spec, n, h, w, oh, ow, true)?;
    Ok((bp, ConvGeom::new(spec, (h, w), (oh, ow), bp.blocking), n))
}

/// ∂input of a planned backward call, partitioned over samples when
/// the blueprint says so: `col2im(wᵀ · g)` per sample.
fn grad_input(
    bp: &Blueprint,
    geom: ConvGeom,
    n: usize,
    weight: &[f32],
    grad_out: &[f32],
) -> Vec<f32> {
    let f = geom.spec.out_channels;
    if !bp.parallel {
        let mut w_t = alloc::scratch_f32(bp.scratch2);
        transpose_into(weight, f, geom.k_flat, &mut w_t);
        return conv_grad_input_block(grad_out, &w_t, geom, 0..n);
    }
    let mut w_t = alloc::fresh_vec(bp.scratch2);
    transpose_into(weight, f, geom.k_flat, &mut w_t);
    let w_t = Arc::new(w_t);
    let g: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(grad_out));
    let blocks = par::parallel_rows(n, move |range: Range<usize>| {
        conv_grad_input_block(&g, &w_t, geom, range)
    });
    let mut out = alloc::fresh_with(bp.out_len);
    for block in blocks {
        out.extend_from_slice(&block);
    }
    out
}

/// Backward pass of [`conv2d`].
///
/// `grad_out` must have the forward output's shape `[N, F, OH, OW]`.
///
/// ∂weight and ∂bias are partitioned over *filters* (each worker owns
/// whole gradient rows and sums samples in order), ∂input over samples;
/// both are bit-exact across thread counts.
///
/// # Errors
///
/// Same shape conditions as [`conv2d`], plus a shape check on `grad_out`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
) -> Result<Conv2dGrads> {
    let (bp, geom, n) = plan_backward(input, grad_out, spec)?;
    let cols_total = checked_product("conv2d_backward cols", &[n, geom.cols_len()])?;
    let (grad_w, grad_b) = if bp.parallel {
        // Unfold every sample once (partitioned over samples); the
        // column matrices are shared read-only by the ∂weight workers,
        // which own whole filter rows.
        let input_arc: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(input.as_slice()));
        let col_blocks = par::parallel_rows(n, move |range: Range<usize>| {
            im2col_samples_block(&input_arc, geom, range)
        });
        let mut cols_all = alloc::fresh_with(cols_total);
        for block in col_blocks {
            cols_all.extend_from_slice(&block);
        }
        let cols_all = Arc::new(cols_all);
        let g: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(grad_out.as_slice()));
        let grad_blocks = par::parallel_rows(spec.out_channels, move |range: Range<usize>| {
            conv_grad_filters_block(&g, &cols_all, geom, n, range)
        });
        let mut grad_w = alloc::fresh_with(spec.out_channels * geom.k_flat);
        let mut grad_b = alloc::fresh_with(spec.out_channels);
        for (w_block, b_block) in grad_blocks {
            grad_w.extend_from_slice(&w_block);
            grad_b.extend_from_slice(&b_block);
        }
        (grad_w, grad_b)
    } else {
        let mut cols_all = alloc::scratch_stale(cols_total);
        im2col_samples_into(input.as_slice(), geom, 0..n, &mut cols_all);
        conv_grad_filters_block(
            grad_out.as_slice(),
            &cols_all,
            geom,
            n,
            0..spec.out_channels,
        )
    };
    let grad_input = grad_input(&bp, geom, n, weight.as_slice(), grad_out.as_slice());
    Ok(Conv2dGrads {
        input: Tensor::from_vec(grad_input, input.shape().duplicate())?,
        weight: Tensor::from_vec(grad_w, Shape::of(weight.dims()))?,
        bias: Tensor::from_vec(grad_b, Shape::of(&[spec.out_channels]))?,
    })
}

/// The ∂input half of [`conv2d_backward`] alone — what an attack query
/// needs. Skips the unfold of `input` (only its shape is read) and the
/// whole ∂weight/∂bias product; the returned gradient is bit-identical
/// to `conv2d_backward(..)?.input`.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward`].
pub fn conv2d_backward_input(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
) -> Result<Tensor> {
    let (bp, geom, n) = plan_backward(input, grad_out, spec)?;
    let grad = grad_input(&bp, geom, n, weight.as_slice(), grad_out.as_slice());
    Tensor::from_vec(grad, input.shape().duplicate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::gemm_nt_block;
    use crate::TensorRng;
    use proptest::prelude::*;

    /// Naive direct convolution used as a reference implementation.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for s in 0..n {
            for f in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.get(&[f]).unwrap();
                        for ch in 0..c {
                            for kh in 0..spec.kernel_h {
                                for kw in 0..spec.kernel_w {
                                    let iy =
                                        (oy * spec.stride + kh) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kw) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.get(&[s, ch, iy as usize, ix as usize]).unwrap()
                                        * weight.get(&[f, ch, kh, kw]).unwrap();
                                }
                            }
                        }
                        out.set(&[s, f, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    fn random_setup(
        seed: u64,
        spec: &ConvSpec,
        n: usize,
        h: usize,
        w: usize,
    ) -> (Tensor, Tensor, Tensor) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let input = rng.uniform(&[n, spec.in_channels, h, w], -1.0, 1.0);
        let weight = rng.uniform(
            &[
                spec.out_channels,
                spec.in_channels,
                spec.kernel_h,
                spec.kernel_w,
            ],
            -0.5,
            0.5,
        );
        let bias = rng.uniform(&[spec.out_channels], -0.1, 0.1);
        (input, weight, bias)
    }

    #[test]
    fn output_size_math() {
        let spec = ConvSpec::new(1, 1, 3, 1, 1);
        assert_eq!(spec.output_size(8, 8).unwrap(), (8, 8)); // "same" conv
        let spec = ConvSpec::new(1, 1, 3, 2, 0);
        assert_eq!(spec.output_size(7, 7).unwrap(), (3, 3));
        let spec = ConvSpec::new(1, 1, 5, 1, 0);
        assert!(spec.output_size(3, 3).is_err());
        let spec = ConvSpec {
            stride: 0,
            ..ConvSpec::new(1, 1, 3, 1, 0)
        };
        assert!(spec.output_size(8, 8).is_err());
    }

    #[test]
    fn output_size_overflow_is_typed() {
        // `h + 2·padding` used to wrap in release builds; now it is a
        // typed error before any sizing happens.
        let spec = ConvSpec {
            padding: usize::MAX / 2 + 1,
            ..ConvSpec::new(1, 1, 3, 1, 0)
        };
        assert!(matches!(
            spec.output_size(8, 8),
            Err(TensorError::Overflow { .. })
        ));
        let spec = ConvSpec {
            padding: usize::MAX / 2,
            ..ConvSpec::new(1, 1, 3, 1, 0)
        };
        assert!(matches!(
            spec.output_size(8, 8),
            Err(TensorError::Overflow { .. })
        ));
    }

    #[test]
    fn conv2d_surfaces_overflow_not_panic() {
        let spec = ConvSpec {
            padding: usize::MAX / 2,
            ..ConvSpec::new(1, 1, 3, 1, 0)
        };
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let weight = Tensor::zeros(&[1, 1, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        assert!(matches!(
            conv2d(&input, &weight, &bias, &spec),
            Err(TensorError::Overflow { .. })
        ));
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let spec = ConvSpec::new(1, 1, 1, 1, 0);
        let mut rng = TensorRng::seed_from_u64(1);
        let input = rng.uniform(&[1, 1, 4, 4], -1.0, 1.0);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn matches_naive_reference() {
        for (spec, h, w) in [
            (ConvSpec::new(2, 3, 3, 1, 1), 5, 5),
            (ConvSpec::new(1, 2, 3, 2, 0), 7, 6),
            (ConvSpec::new(3, 1, 2, 1, 0), 4, 4),
            (ConvSpec::new(2, 2, 3, 1, 2), 3, 3),
        ] {
            let (input, weight, bias) = random_setup(42, &spec, 2, h, w);
            let fast = conv2d(&input, &weight, &bias, &spec).unwrap();
            let slow = conv2d_naive(&input, &weight, &bias, &spec);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b} for spec {spec:?}");
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn batch_equals_single_sample_calls_bit_for_bit() {
        // Batch sizes around the register tile (a 2×2 plane puts four
        // samples in one 16-column tile; 17 samples leave a narrow
        // strip) and around the fused tile (an 8×8 plane fuses 16
        // samples; 17 spill into a second tile).
        for (h, w) in [(2, 2), (8, 8), (5, 7)] {
            for stride in [1, 2] {
                for padding in [0, 1] {
                    let spec = ConvSpec::new(3, 5, 3, stride, padding);
                    if spec.output_size(h, w).is_err() {
                        continue;
                    }
                    for n in [1, 2, 5, 16, 17] {
                        let (input, weight, bias) = random_setup(n as u64, &spec, n, h, w);
                        let batched = conv2d(&input, &weight, &bias, &spec).unwrap();
                        let mut singles = Vec::new();
                        for s in 0..n {
                            let one = input.index_batch(s).unwrap().unsqueeze_batch();
                            singles.extend(bits(&conv2d(&one, &weight, &bias, &spec).unwrap()));
                        }
                        assert_eq!(
                            bits(&batched),
                            singles,
                            "{h}x{w} stride {stride} pad {padding} n {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_channel_specs_are_typed_errors() {
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        let spec = ConvSpec::new(2, 0, 3, 1, 1);
        let err = conv2d(
            &input,
            &Tensor::zeros(&[0, 2, 3, 3]),
            &Tensor::zeros(&[0]),
            &spec,
        );
        assert!(matches!(err, Err(TensorError::InvalidGeometry { .. })));
    }

    #[test]
    fn backward_input_equals_full_backward_bit_for_bit() {
        for (spec, n, h, w) in [
            (ConvSpec::new(2, 3, 3, 1, 1), 1, 5, 5),
            (ConvSpec::new(3, 4, 3, 2, 0), 2, 7, 6),
            (ConvSpec::new(48, 64, 3, 1, 1), 1, 2, 2),
        ] {
            let (input, weight, bias) = random_setup(3, &spec, n, h, w);
            let out = conv2d(&input, &weight, &bias, &spec).unwrap();
            let grad_out = TensorRng::seed_from_u64(4).uniform(out.dims(), -1.0, 1.0);
            let full = conv2d_backward(&input, &weight, &grad_out, &spec).unwrap();
            let only = conv2d_backward_input(&input, &weight, &grad_out, &spec).unwrap();
            assert_eq!(only.dims(), input.dims());
            assert_eq!(bits(&only), bits(&full.input), "{spec:?}");
        }
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let input = Tensor::zeros(&[1, 2, 5, 5]);
        let weight = Tensor::zeros(&[3, 2, 3, 3]);
        assert!(
            conv2d_backward_input(&input, &weight, &Tensor::zeros(&[1, 3, 4, 4]), &spec).is_err()
        );
    }

    /// The per-pixel fold `col2im_add` was before it moved whole row
    /// runs, kept verbatim as the reference for ∂input's bits.
    fn col2im_add_reference(
        cols: &[f32],
        spec: &ConvSpec,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        dst: &mut [f32],
    ) {
        let n_cols = oh * ow;
        let pad = spec.padding as isize;
        for ch in 0..spec.in_channels {
            for kh in 0..spec.kernel_h {
                for kw in 0..spec.kernel_w {
                    let row = (ch * spec.kernel_h + kh) * spec.kernel_w + kw;
                    let in_row = &cols[row * n_cols..(row + 1) * n_cols];
                    for oy in 0..oh {
                        let iy = (oy * spec.stride) as isize + kh as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * spec.stride) as isize + kw as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[(ch * h + iy as usize) * w + ix as usize] += in_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// The per-element dot-product ∂weight/∂bias worker
    /// `conv_grad_filters_block` was before it moved to the register
    /// tile, kept verbatim as the reference for its bits.
    fn conv_grad_filters_reference(
        grad_out: &[f32],
        cols_all: &[f32],
        geom: ConvGeom,
        n: usize,
        range: Range<usize>,
    ) -> (Vec<f32>, Vec<f32>) {
        let ohw = geom.oh * geom.ow;
        let len = range.end - range.start;
        let mut grad_w = vec![0.0f32; len * geom.k_flat];
        let mut grad_b = vec![0.0f32; len];
        for sample in 0..n {
            let g_sample = record(grad_out, sample, geom.out_plane_len());
            let cols = record(cols_all, sample, geom.cols_len());
            for (slot, f) in range.clone().enumerate() {
                let g_row = record(g_sample, f, ohw);
                if let Some(b) = grad_b.get_mut(slot) {
                    *b += g_row.iter().sum::<f32>();
                }
                let w_row = &mut grad_w[slot * geom.k_flat..(slot + 1) * geom.k_flat];
                gemm_nt_block(g_row, 1, cols, ohw, geom.k_flat, w_row, true);
            }
        }
        (grad_w, grad_b)
    }

    fn slice_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Checks one backward geometry against the scalar references:
    /// the ∂weight/∂bias worker on whole and partial filter ranges, the
    /// fold on one sample's gradient columns, and `conv2d_backward`
    /// end to end at one and two compute threads.
    fn assert_backward_matches_reference(spec: &ConvSpec, n: usize, h: usize, w: usize) {
        let (input, weight, _) = random_setup((n * h + w) as u64, spec, n, h, w);
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let f = spec.out_channels;
        let grad_out = TensorRng::seed_from_u64(11).uniform(&[n, f, oh, ow], -1.0, 1.0);
        let (bp, geom, _) = plan_backward(&input, &grad_out, spec).unwrap();
        let mut cols_all = vec![0.0f32; n * geom.cols_len()];
        im2col_samples_into(input.as_slice(), geom, 0..n, &mut cols_all);
        let tag = format!("{spec:?} n {n} {h}x{w}");

        let mut want_input = Vec::new();
        let mut w_t = vec![0.0f32; bp.scratch2];
        transpose_into(weight.as_slice(), f, geom.k_flat, &mut w_t);
        let mut gcols = vec![0.0f32; geom.cols_len()];
        for sample in 0..n {
            let g_mat = record(grad_out.as_slice(), sample, geom.out_plane_len());
            gemm_rows_into(&w_t, geom.k_flat, f, g_mat, oh * ow, geom.bl, &mut gcols);
            let mut want = vec![0.0f32; geom.image_len()];
            col2im_add_reference(&gcols, spec, h, w, oh, ow, &mut want);
            let mut got = vec![0.0f32; geom.image_len()];
            col2im_add(&gcols, &geom, &mut got);
            assert_eq!(slice_bits(&got), slice_bits(&want), "fold, {tag}");
            want_input.extend(want);
        }

        let (want_w, want_b) =
            conv_grad_filters_reference(grad_out.as_slice(), &cols_all, geom, n, 0..f);
        crate::simd::with_each_isa(|isa| {
            for range in [0..f, 1..f, 0..f - 1] {
                let (want_w, want_b) = conv_grad_filters_reference(
                    grad_out.as_slice(),
                    &cols_all,
                    geom,
                    n,
                    range.clone(),
                );
                let (got_w, got_b) =
                    conv_grad_filters_block(grad_out.as_slice(), &cols_all, geom, n, range.clone());
                assert_eq!(
                    slice_bits(&got_w),
                    slice_bits(&want_w),
                    "∂weight {range:?} on {isa:?}, {tag}"
                );
                assert_eq!(
                    slice_bits(&got_b),
                    slice_bits(&want_b),
                    "∂bias {range:?} on {isa:?}, {tag}"
                );
            }
            for threads in [1, 2] {
                par::set_threads(threads);
                let got = conv2d_backward(&input, &weight, &grad_out, spec).unwrap();
                let at = format!("on {isa:?} at {threads} threads, {tag}");
                assert_eq!(bits(&got.weight), slice_bits(&want_w), "∂weight {at}");
                assert_eq!(bits(&got.bias), slice_bits(&want_b), "∂bias {at}");
                assert_eq!(bits(&got.input), slice_bits(&want_input), "∂input {at}");
            }
            par::set_threads(0);
        });
    }

    #[test]
    fn backward_matches_scalar_references_on_victim_shapes() {
        // The served victim's five stages (3×3, stride 1, "same") at an
        // attack query, a small batch and the training batch.
        let (mut cin, mut side) = (3, 32);
        for cout in [8, 16, 32, 48, 64] {
            for n in [1, 4, 32] {
                assert_backward_matches_reference(
                    &ConvSpec::new(cin, cout, 3, 1, 1),
                    n,
                    side,
                    side,
                );
            }
            (cin, side) = (cout, side / 2);
        }
    }

    #[test]
    fn backward_matches_scalar_references_on_odd_geometries() {
        // Every padding against both kernels, on planes narrower and
        // shorter than the kernel, with stride 2 on the pixel path.
        for (h, w) in [(5, 7), (2, 9), (6, 1), (1, 1), (3, 3)] {
            for kernel in [3, 5] {
                for padding in [0, 1, 2] {
                    for stride in [1, 2] {
                        let spec = ConvSpec::new(2, 3, kernel, stride, padding);
                        if spec.output_size(h, w).is_ok() {
                            assert_backward_matches_reference(&spec, 3, h, w);
                        }
                    }
                }
            }
        }
        // Not square, padding wider than the kernel's reach.
        let spec = ConvSpec {
            kernel_h: 2,
            kernel_w: 4,
            ..ConvSpec::new(3, 5, 3, 1, 3)
        };
        assert_backward_matches_reference(&spec, 2, 4, 6);
    }

    #[test]
    fn col2im_surfaces_overflow_not_panic() {
        // `c·kh·kw` and `oh·ow` used to be bare products: a wrapped
        // allocation in release, an arithmetic panic in debug.
        let cols = Tensor::zeros(&[9, 16]);
        let spec = ConvSpec::new(usize::MAX / 2, 1, 3, 1, 1);
        assert!(matches!(
            col2im(&cols, &spec, 4, 4),
            Err(TensorError::Overflow { .. })
        ));
        let spec = ConvSpec::new(1, 1, 3, 1, 1);
        assert!(matches!(
            col2im(&cols, &spec, 1 << 33, 1 << 33),
            Err(TensorError::Overflow { .. })
        ));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is what backprop relies on.
        let spec = ConvSpec::new(2, 1, 3, 1, 1);
        let (h, w) = (5, 4);
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let rows = spec.in_channels * spec.kernel_h * spec.kernel_w;
        let mut rng = TensorRng::seed_from_u64(9);
        let x = rng.uniform(&[spec.in_channels, h, w], -1.0, 1.0);
        let y = rng.uniform(&[rows, oh * ow], -1.0, 1.0);
        let lhs = im2col(&x, &spec).unwrap().dot(&y).unwrap();
        let folded = col2im(&y, &spec, h, w).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = ConvSpec::new(2, 2, 3, 1, 1);
        let (input, weight, bias) = random_setup(7, &spec, 1, 4, 4);
        let out = conv2d(&input, &weight, &bias, &spec).unwrap();
        // Loss = sum of outputs → grad_out = ones.
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, &spec).unwrap();

        let eps = 1e-3f32;
        let loss =
            |inp: &Tensor, wgt: &Tensor, b: &Tensor| conv2d(inp, wgt, b, &spec).unwrap().sum();

        // Check a sample of input gradient entries.
        for idx in [0usize, 5, 13, 31] {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric =
                (loss(&plus, &weight, &bias) - loss(&minus, &weight, &bias)) / (2.0 * eps);
            let analytic = grads.input.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check weight gradient entries.
        for idx in [0usize, 7, 17, 35] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&input, &plus, &bias) - loss(&input, &minus, &bias)) / (2.0 * eps);
            let analytic = grads.weight.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 5e-2,
                "weight grad {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient is exactly N·OH·OW per filter for a sum loss.
        let (oh, ow) = spec.output_size(4, 4).unwrap();
        for f in 0..spec.out_channels {
            assert!((grads.bias.get(&[f]).unwrap() - (oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_wrong_shapes() {
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let bad_input = Tensor::zeros(&[1, 1, 4, 4]); // 1 channel, spec wants 2
        let weight = Tensor::zeros(&[3, 2, 3, 3]);
        let bias = Tensor::zeros(&[3]);
        assert!(conv2d(&bad_input, &weight, &bias, &spec).is_err());
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(conv2d(&input, &Tensor::zeros(&[3, 2, 2, 2]), &bias, &spec).is_err());
        assert!(conv2d(&input, &weight, &Tensor::zeros(&[4]), &spec).is_err());
        assert!(conv2d(&Tensor::zeros(&[2, 4, 4]), &weight, &bias, &spec).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Convolution is linear in its input: conv(a·x) == a·conv(x)
        /// when bias is zero.
        #[test]
        fn linear_in_input(seed in 0u64..1000, scale in 0.5f32..2.0) {
            let spec = ConvSpec::new(1, 2, 3, 1, 1);
            let (input, weight, _) = random_setup(seed, &spec, 1, 4, 4);
            let bias = Tensor::zeros(&[2]);
            let out1 = conv2d(&input.scale(scale), &weight, &bias, &spec).unwrap();
            let out2 = conv2d(&input, &weight, &bias, &spec).unwrap().scale(scale);
            for (a, b) in out1.as_slice().iter().zip(out2.as_slice()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }

        /// im2col → matmul path agrees with the naive reference for
        /// random geometry.
        #[test]
        fn agrees_with_reference(
            seed in 0u64..1000,
            kernel in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..2,
        ) {
            let spec = ConvSpec::new(2, 2, kernel, stride, padding);
            let (h, w) = (6, 5);
            prop_assume!(spec.output_size(h, w).is_ok());
            let (input, weight, bias) = random_setup(seed, &spec, 1, h, w);
            let fast = conv2d(&input, &weight, &bias, &spec).unwrap();
            let slow = conv2d_naive(&input, &weight, &bias, &spec);
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
