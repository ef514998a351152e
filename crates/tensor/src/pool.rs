//! 2-D max pooling with argmax bookkeeping for the backward pass.

use serde::{Deserialize, Serialize};

use crate::plan::alloc;
use crate::plan::blueprint::checked_product;
use crate::{Result, Shape, Tensor, TensorError};

/// Geometry of a 2-D max-pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Pooling window height.
    pub window_h: usize,
    /// Pooling window width.
    pub window_w: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl PoolSpec {
    /// A square window with the given stride.
    pub fn new(window: usize, stride: usize) -> Self {
        PoolSpec {
            window_h: window,
            window_w: window,
            stride,
        }
    }

    /// The ubiquitous 2×2 stride-2 pool used between VGG stages.
    pub fn half() -> Self {
        PoolSpec::new(2, 2)
    }

    /// Spatial output size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] for zero stride, an empty
    /// window, or a window larger than the input.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "pool stride must be positive".into(),
            });
        }
        if self.window_h == 0 || self.window_w == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "pool window must be non-empty".into(),
            });
        }
        if h < self.window_h || w < self.window_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "pool window {}x{} larger than input {h}x{w}",
                    self.window_h, self.window_w
                ),
            });
        }
        Ok((
            (h - self.window_h) / self.stride + 1,
            (w - self.window_w) / self.stride + 1,
        ))
    }
}

/// Result of [`max_pool2d`]: the pooled tensor plus the flat input index
/// of each selected maximum (needed for the backward pass).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled output, `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For each output element, the flat index into the input buffer of
    /// the element that produced it.
    pub argmax: Vec<usize>,
}

/// Plane geometry shared by the two pooling loops.
#[derive(Clone, Copy)]
struct PoolGeom {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

/// The maximum of one 2×2 window and its offset from the window's
/// first element in a `w`-wide plane, scanning `(0,0), (0,1), (1,0),
/// (1,1)` with a strict `>`: the first maximum wins and a leading NaN
/// is never displaced (not `f32::max`).
#[inline(always)]
fn window_max([a0, a1]: [f32; 2], [b0, b1]: [f32; 2], w: usize) -> (f32, usize) {
    let mut best = (a0, 0);
    for candidate in [(a1, 1), (b0, w), (b1, w + 1)] {
        if candidate.0 > best.0 {
            best = candidate;
        }
    }
    best
}

/// The 2×2 / stride-2 pool: walks two input rows and writes one output
/// row through slices. `argmax`, when wanted, is filled in the same
/// pass with flat indices into `data`.
fn pool_half(data: &[f32], g: PoolGeom, out: &mut [f32], mut argmax: Option<&mut [usize]>) {
    let PoolGeom { h, w, oh, ow } = g;
    let planes = data.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
    for (p, (plane, out_plane)) in planes.enumerate() {
        let row_pairs = plane
            .chunks_exact(2 * w)
            .zip(out_plane.chunks_exact_mut(ow));
        for (oy, (rows, out_row)) in row_pairs.enumerate() {
            let (top, bottom) = rows.split_at(w);
            let windows = top.as_chunks().0.iter().zip(bottom.as_chunks().0);
            let Some(arg) = argmax.as_deref_mut() else {
                for (o, (&a, &b)) in out_row.iter_mut().zip(windows) {
                    *o = window_max(a, b, w).0;
                }
                continue;
            };
            let arg_row = arg.get_mut((p * oh + oy) * ow..).unwrap_or_default();
            let row0 = (p * h + 2 * oy) * w;
            let cells = out_row.iter_mut().zip(arg_row).zip(windows);
            for (ox, ((o, slot), (&a, &b))) in cells.enumerate() {
                let (best, offset) = window_max(a, b, w);
                *o = best;
                *slot = row0 + 2 * ox + offset;
            }
        }
    }
}

/// Any other window: an indexed scan per output element, same
/// candidate order and the same strict `>`.
fn pool_general(
    data: &[f32],
    spec: &PoolSpec,
    g: PoolGeom,
    out: &mut [f32],
    mut argmax: Option<&mut [usize]>,
) {
    let PoolGeom { h, w, oh, ow } = g;
    for (i, o) in out.iter_mut().enumerate() {
        let (plane, oy, ox) = (i / (oh * ow), i / ow % oh, i % ow);
        let y0 = oy * spec.stride;
        let x0 = ox * spec.stride;
        let mut best: Option<(f32, usize)> = None;
        for ky in 0..spec.window_h {
            let row0 = (plane * h + y0 + ky) * w + x0;
            for (&v, idx) in data[row0..][..spec.window_w].iter().zip(row0..) {
                if best.is_none_or(|(b, _)| v > b) {
                    best = Some((v, idx));
                }
            }
        }
        let (best, best_idx) = best.unwrap_or_default();
        *o = best;
        if let Some(slot) = argmax.as_deref_mut().and_then(|arg| arg.get_mut(i)) {
            *slot = best_idx;
        }
    }
}

/// Validates and pools: the `[N, C, OH, OW]` output, with `argmax`
/// replaced by the winners' flat input indices when one is passed.
fn pooled(input: &Tensor, spec: &PoolSpec, argmax: Option<&mut Vec<usize>>) -> Result<Tensor> {
    let &[n, c, h, w] = input.dims() else {
        return Err(TensorError::RankMismatch {
            op: "max_pool2d",
            expected: 4,
            actual: input.rank(),
        });
    };
    let (oh, ow) = spec.output_size(h, w)?;
    // Pooling is a memory-bound gather: it stays serial and needs no
    // scratch, only the cap-checked output length.
    let out_len = checked_product("max_pool2d output", &[n, c, oh, ow])?;
    let mut out = alloc::fresh_vec(out_len);
    let argmax = argmax.map(|arg| {
        *arg = alloc::fresh_filled(out_len, 0usize);
        arg.as_mut_slice()
    });
    let g = PoolGeom { h, w, oh, ow };
    if *spec == PoolSpec::half() {
        pool_half(input.as_slice(), g, &mut out, argmax);
    } else {
        pool_general(input.as_slice(), spec, g, &mut out, argmax);
    }
    Tensor::from_vec(out, Shape::of(&[n, c, oh, ow]))
}

/// Batched 2-D max pooling over `[N, C, H, W]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input or
/// [`TensorError::InvalidGeometry`] for impossible geometry.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<MaxPoolOutput> {
    let mut argmax = Vec::default();
    let output = pooled(input, spec, Some(&mut argmax))?;
    Ok(MaxPoolOutput { output, argmax })
}

/// [`max_pool2d`]'s output alone, for inference: the same values bit
/// for bit, without computing or allocating the argmax plane that only
/// the backward pass reads.
///
/// # Errors
///
/// Same conditions as [`max_pool2d`].
pub fn max_pool2d_values(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    pooled(input, spec, None)
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// input position that won the max.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `grad_out` and `argmax`
/// disagree in length.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &Shape,
) -> Result<Tensor> {
    if grad_out.numel() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            provided: argmax.len(),
            expected: grad_out.numel(),
        });
    }
    let mut grad_in = alloc::fresh_vec(input_shape.numel());
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax) {
        grad_in[idx] += g;
    }
    Tensor::from_vec(grad_in, input_shape.duplicate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;
    use proptest::prelude::*;

    #[test]
    fn output_size_math() {
        assert_eq!(PoolSpec::half().output_size(8, 8).unwrap(), (4, 4));
        assert_eq!(PoolSpec::new(3, 2).output_size(7, 7).unwrap(), (3, 3));
        assert!(PoolSpec::new(5, 1).output_size(4, 4).is_err());
        assert!(PoolSpec::new(2, 0).output_size(4, 4).is_err());
    }

    #[test]
    fn picks_window_maximum() {
        // 1x1x2x2 input pooled with 2x2 window → single max.
        let input = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], [1, 1, 2, 2].into()).unwrap();
        let pooled = max_pool2d(&input, &PoolSpec::half()).unwrap();
        assert_eq!(pooled.output.as_slice(), &[5.0]);
        assert_eq!(pooled.argmax, vec![1]);
    }

    #[test]
    fn pools_per_channel() {
        let input = Tensor::from_vec(
            vec![
                // channel 0
                1.0, 2.0, 3.0, 4.0, //
                // channel 1
                8.0, 7.0, 6.0, 5.0,
            ],
            [1, 2, 2, 2].into(),
        )
        .unwrap();
        let pooled = max_pool2d(&input, &PoolSpec::half()).unwrap();
        assert_eq!(pooled.output.as_slice(), &[4.0, 8.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let input = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], [1, 1, 2, 2].into()).unwrap();
        let pooled = max_pool2d(&input, &PoolSpec::half()).unwrap();
        let grad_out = Tensor::full(pooled.output.dims(), 2.5);
        let grad_in = max_pool2d_backward(&grad_out, &pooled.argmax, input.shape()).unwrap();
        assert_eq!(grad_in.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn backward_finite_difference() {
        let mut rng = TensorRng::seed_from_u64(3);
        let input = rng.uniform(&[1, 2, 4, 4], -1.0, 1.0);
        let spec = PoolSpec::half();
        let pooled = max_pool2d(&input, &spec).unwrap();
        let grad_out = Tensor::ones(pooled.output.dims());
        let grad_in = max_pool2d_backward(&grad_out, &pooled.argmax, input.shape()).unwrap();

        let eps = 1e-3f32;
        for idx in [0usize, 6, 15, 30] {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (max_pool2d(&plus, &spec).unwrap().output.sum()
                - max_pool2d(&minus, &spec).unwrap().output.sum())
                / (2.0 * eps);
            let analytic = grad_in.as_slice()[idx];
            // Near ties the numeric gradient is ill-defined; allow slack.
            assert!(
                (numeric - analytic).abs() < 0.51,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Both loops over the same planes: outputs and argmax.
    fn both_loops(data: &[f32], planes: usize, h: usize, w: usize) -> [(Vec<u32>, Vec<usize>); 2] {
        let spec = PoolSpec::half();
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let g = PoolGeom { h, w, oh, ow };
        let run = |half: bool| {
            let mut out = vec![f32::NAN; planes * oh * ow];
            let mut arg = vec![usize::MAX; out.len()];
            if half {
                pool_half(data, g, &mut out, Some(&mut arg));
            } else {
                pool_general(data, &spec, g, &mut out, Some(&mut arg));
            }
            (out.iter().map(|v| v.to_bits()).collect(), arg)
        };
        [run(true), run(false)]
    }

    #[test]
    fn row_pair_loop_equals_general_loop_on_special_values() {
        // Ties (first maximum wins), signed zeros, NaN leading and
        // trailing a window, both infinities; 5×5 leaves an odd row and
        // column that no window covers.
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        #[rustfmt::skip]
        let plane = [
            1.0, 1.0,   -0.0, 0.0,   9.0,
            1.0, 1.0,    0.0, -0.0,  9.0,
            nan, 2.0,    3.0, nan,   9.0,
            4.0, 5.0,    inf, -inf,  9.0,
            9.0, 9.0,    9.0, 9.0,   9.0,
        ];
        let [(half_out, half_arg), (general_out, general_arg)] = both_loops(&plane, 1, 5, 5);
        assert_eq!(half_out, general_out);
        assert_eq!(half_arg, general_arg);
        assert_eq!(half_arg, vec![0, 2, 10, 17]);
        assert_eq!(half_out[1], (-0.0f32).to_bits());
        assert!(f32::from_bits(half_out[2]).is_nan());
        assert_eq!(half_out[3], inf.to_bits());

        let all_neg_inf = [-inf; 4];
        let [(out, arg), general] = both_loops(&all_neg_inf, 1, 2, 2);
        assert_eq!((out.clone(), arg.clone()), general);
        assert_eq!((out, arg), (vec![(-inf).to_bits()], vec![0]));
    }

    #[test]
    fn values_only_variant_matches_and_general_windows_still_pool() {
        let mut rng = TensorRng::seed_from_u64(5);
        let input = rng.uniform(&[2, 3, 7, 6], -1.0, 1.0);
        for spec in [PoolSpec::half(), PoolSpec::new(3, 2), PoolSpec::new(2, 1)] {
            let full = max_pool2d(&input, &spec).unwrap();
            assert_eq!(max_pool2d_values(&input, &spec).unwrap(), full.output);
            for (&v, &idx) in full.output.as_slice().iter().zip(&full.argmax) {
                assert_eq!(v, input.as_slice()[idx]);
            }
        }
        assert!(max_pool2d_values(&Tensor::zeros(&[2, 2]), &PoolSpec::half()).is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(max_pool2d(&Tensor::zeros(&[2, 2]), &PoolSpec::half()).is_err());
        let grad = Tensor::zeros(&[4]);
        assert!(max_pool2d_backward(&grad, &[0, 1], &Shape::new(vec![8])).is_err());
    }

    proptest! {
        /// Every pooled value is >= every input it covers and equal to one.
        #[test]
        fn max_dominates(seed in 0u64..500) {
            let mut rng = TensorRng::seed_from_u64(seed);
            let input = rng.uniform(&[1, 1, 4, 4], -1.0, 1.0);
            let pooled = max_pool2d(&input, &PoolSpec::half()).unwrap();
            for (i, &v) in pooled.output.as_slice().iter().enumerate() {
                prop_assert_eq!(v, input.as_slice()[pooled.argmax[i]]);
            }
            prop_assert!(pooled.output.max().unwrap() <= input.max().unwrap() + 1e-6);
        }

        /// The row-pair loop and the general loop agree bit for bit,
        /// outputs and argmax, on planes of every parity — with values
        /// drawn from a handful so that ties are the common case.
        #[test]
        fn row_pair_loop_equals_general_loop(
            seed in 0u64..10_000,
            planes in 1usize..4,
            h in 2usize..9,
            w in 2usize..9,
        ) {
            let mut rng = TensorRng::seed_from_u64(seed);
            let palette = [-1.0f32, -0.0, 0.0, 0.5, 0.5, 2.0, f32::NAN, f32::NEG_INFINITY];
            let data: Vec<f32> = (0..planes * h * w)
                .map(|_| palette[rng.index(palette.len())])
                .collect();
            let [half, general] = both_loops(&data, planes, h, w);
            prop_assert_eq!(half, general);
        }

        /// Pooling is monotone: adding a constant shifts the output by it.
        #[test]
        fn shift_equivariance(seed in 0u64..500, shift in -2.0f32..2.0) {
            let mut rng = TensorRng::seed_from_u64(seed);
            let input = rng.uniform(&[1, 1, 4, 4], -1.0, 1.0);
            let spec = PoolSpec::half();
            let base = max_pool2d(&input, &spec).unwrap().output;
            let shifted = max_pool2d(&input.add_scalar(shift), &spec).unwrap().output;
            for (a, b) in base.as_slice().iter().zip(shifted.as_slice()) {
                prop_assert!((a + shift - b).abs() < 1e-5);
            }
        }
    }
}
