//! Sensor noise model applied at acquisition time.
//!
//! The pre-processing filters in the pipeline exist to remove exactly
//! this noise, so its parameters shape the rising flank of the paper's
//! accuracy-vs-filter-strength curve (Figs. 7 and 9).

use fademl_tensor::{Tensor, TensorRng};
use serde::{Deserialize, Serialize};

/// Pixels per batch of Gaussian draws in
/// [`NoiseModel::apply_in_place`]: one stack array.
const NOISE_RUN: usize = 256;

/// Additive/impulse sensor noise applied to a clean rendered sign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Standard deviation of zero-mean Gaussian noise (per channel).
    pub gaussian_std: f32,
    /// Probability a pixel is replaced by salt (1.0) or pepper (0.0).
    pub salt_pepper_prob: f32,
}

impl NoiseModel {
    /// The default camera-noise profile used by the experiments.
    pub fn sensor() -> Self {
        NoiseModel {
            gaussian_std: 0.06,
            salt_pepper_prob: 0.01,
        }
    }

    /// No noise at all.
    pub fn none() -> Self {
        NoiseModel {
            gaussian_std: 0.0,
            salt_pepper_prob: 0.0,
        }
    }

    /// `true` if this model is a no-op.
    pub fn is_none(&self) -> bool {
        self.gaussian_std == 0.0 && self.salt_pepper_prob == 0.0
    }

    /// Applies the noise to an image tensor (any shape, values `[0, 1]`),
    /// clamping the result back into `[0, 1]`.
    pub fn apply(&self, image: &Tensor, rng: &mut TensorRng) -> Tensor {
        let mut out = image.clone();
        self.apply_in_place(out.as_mut_slice(), rng);
        out
    }

    /// [`apply`](NoiseModel::apply) on pixels the caller owns: the same
    /// draws from `rng`, written over `pixels`. The Gaussian pass takes
    /// its normals a stack run at a time from
    /// [`TensorRng::standard_normals`], so the call allocates nothing.
    pub fn apply_in_place(&self, pixels: &mut [f32], rng: &mut TensorRng) {
        if self.is_none() {
            return;
        }
        if self.gaussian_std > 0.0 {
            let mut normals = [0.0f32; NOISE_RUN];
            for run in pixels.chunks_mut(NOISE_RUN) {
                let normals = &mut normals[..run.len()];
                rng.standard_normals(normals);
                for (x, n) in run.iter_mut().zip(normals.iter()) {
                    *x += self.gaussian_std * n;
                }
            }
        }
        if self.salt_pepper_prob > 0.0 {
            for x in pixels.iter_mut() {
                if rng.chance(self.salt_pepper_prob) {
                    *x = if rng.chance(0.5) { 1.0 } else { 0.0 };
                }
            }
        }
        for x in pixels.iter_mut() {
            *x = x.clamp(0.0, 1.0);
        }
    }
}

impl Default for NoiseModel {
    /// The sensor profile — acquiring an image is noisy by default.
    fn default() -> Self {
        NoiseModel::sensor()
    }
}

/// One pass of a 3×3 box blur over a `[C, H, W]` image, with border
/// renormalization (the out-of-bounds taps are dropped).
///
/// Used as a training-time *defocus augmentation*: cameras deliver
/// slightly soft images, and a classifier trained on them tolerates the
/// pipeline's mild smoothing filters — which is what produces the
/// paper's accuracy-vs-filter-strength hump (DESIGN.md §4).
///
/// # Panics
///
/// Panics if `image` is not rank 3.
pub fn box_blur3(image: &Tensor) -> Tensor {
    assert_eq!(image.rank(), 3, "box_blur3 expects a [C, H, W] image");
    let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
    let src = image.as_slice();
    let mut out = vec![0.0f32; src.len()];
    for ch in 0..c {
        let base = ch * h * w;
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                let mut acc = 0.0f32;
                let mut count = 0u32;
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let (sy, sx) = (y + dy, x + dx);
                        if sy >= 0 && sy < h as i32 && sx >= 0 && sx < w as i32 {
                            acc += src[base + (sy as usize) * w + sx as usize];
                            count += 1;
                        }
                    }
                }
                out[base + (y as usize) * w + x as usize] = acc / count as f32;
            }
        }
    }
    Tensor::from_vec(out, image.shape().clone()).expect("blur preserves the shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let mut rng = TensorRng::seed_from_u64(0);
        let img = Tensor::full(&[3, 4, 4], 0.5);
        assert_eq!(NoiseModel::none().apply(&img, &mut rng), img);
        assert!(NoiseModel::none().is_none());
        assert!(!NoiseModel::sensor().is_none());
    }

    #[test]
    fn gaussian_perturbs_with_right_magnitude() {
        let mut rng = TensorRng::seed_from_u64(1);
        let model = NoiseModel {
            gaussian_std: 0.05,
            salt_pepper_prob: 0.0,
        };
        let img = Tensor::full(&[3, 32, 32], 0.5);
        let noisy = model.apply(&img, &mut rng);
        let diff = noisy.sub(&img).unwrap();
        let std = (diff.norm_l2_squared() / diff.numel() as f32).sqrt();
        assert!((std - 0.05).abs() < 0.01, "std {std}");
    }

    #[test]
    fn salt_pepper_creates_extremes() {
        let mut rng = TensorRng::seed_from_u64(2);
        let model = NoiseModel {
            gaussian_std: 0.0,
            salt_pepper_prob: 0.1,
        };
        let img = Tensor::full(&[3, 32, 32], 0.5);
        let noisy = model.apply(&img, &mut rng);
        let extremes = noisy
            .as_slice()
            .iter()
            .filter(|&&x| x == 0.0 || x == 1.0)
            .count();
        let frac = extremes as f32 / noisy.numel() as f32;
        assert!((frac - 0.1).abs() < 0.03, "extreme fraction {frac}");
    }

    #[test]
    fn output_stays_in_unit_range() {
        let mut rng = TensorRng::seed_from_u64(3);
        let model = NoiseModel {
            gaussian_std: 0.5,
            salt_pepper_prob: 0.05,
        };
        let img = Tensor::full(&[3, 16, 16], 0.9);
        let noisy = model.apply(&img, &mut rng);
        assert!(noisy.min().unwrap() >= 0.0);
        assert!(noisy.max().unwrap() <= 1.0);
    }

    /// The noise as it was defined before the Gaussian pass took its
    /// normals in lane-wise runs: one `normal_scalar` per pixel.
    fn per_pixel_reference(model: &NoiseModel, image: &Tensor, rng: &mut TensorRng) -> Tensor {
        let mut out = image.clone();
        let pixels = out.as_mut_slice();
        for x in pixels.iter_mut() {
            *x += model.gaussian_std * rng.normal_scalar();
        }
        for x in pixels.iter_mut() {
            if rng.chance(model.salt_pepper_prob) {
                *x = if rng.chance(0.5) { 1.0 } else { 0.0 };
            }
        }
        for x in pixels.iter_mut() {
            *x = x.clamp(0.0, 1.0);
        }
        out
    }

    #[test]
    fn apply_is_the_per_pixel_reference_bit_for_bit() {
        let model = NoiseModel::sensor();
        for seed in 0..200 {
            let mut rng = TensorRng::seed_from_u64(seed);
            let frame = rng.uniform(&[3, 32, 32], 0.0, 1.0);
            let mut reference_rng = rng.clone();
            let got = model.apply(&frame, &mut rng);
            let want = per_pixel_reference(&model, &frame, &mut reference_rng);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "frame {seed}");
            assert_eq!(
                rng.state(),
                reference_rng.state(),
                "frame {seed}: streams diverged"
            );
        }
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let img = Tensor::full(&[3, 8, 8], 0.5);
        let model = NoiseModel::sensor();
        let mut r1 = TensorRng::seed_from_u64(7);
        let mut r2 = TensorRng::seed_from_u64(7);
        assert_eq!(model.apply(&img, &mut r1), model.apply(&img, &mut r2));
    }
}
