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

/// Batched 2-D max pooling over `[N, C, H, W]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input or
/// [`TensorError::InvalidGeometry`] for impossible geometry.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<MaxPoolOutput> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "max_pool2d",
            expected: 4,
            actual: input.rank(),
        });
    }
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (oh, ow) = spec.output_size(h, w)?;
    // Pooling is a memory-bound gather: it stays serial and needs no
    // scratch, only the cap-checked output length.
    let out_len = checked_product("max_pool2d output", &[n, c, oh, ow])?;
    let data = input.as_slice();
    let mut out = alloc::fresh_with(out_len);
    let mut argmax: Vec<usize> = alloc::fresh_with(out_len);
    for s in 0..n {
        for ch in 0..c {
            let plane = (s * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = oy * spec.stride;
                    let x0 = ox * spec.stride;
                    let mut best_idx = plane + y0 * w + x0;
                    let mut best = data[best_idx];
                    for ky in 0..spec.window_h {
                        for kx in 0..spec.window_w {
                            let idx = plane + (y0 + ky) * w + (x0 + kx);
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
    }
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(out, Shape::of(&[n, c, oh, ow]))?,
        argmax,
    })
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
