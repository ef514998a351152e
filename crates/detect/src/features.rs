//! Multi-scale feature extraction over image pyramids.
//!
//! The detector never looks at raw pixels: each image is summarized as
//! a short vector of per-scale statistics and the isolation forest is
//! fitted over those. The scales are a mean pyramid — each level is a
//! 2×2 box average of the previous one — so a perturbation that is
//! *small per pixel but incoherent across pixels* (the FGSM / FAdeML
//! signature) shows up as inflated gradient and Laplacian energy at the
//! fine scales while the coarse-scale statistics stay near the clean
//! manifold. Six statistics are computed per scale:
//!
//! | # | statistic | what it captures |
//! |---|-----------|------------------|
//! | 0 | mean      | global brightness |
//! | 1 | variance  | contrast |
//! | 2 | gradient energy (mean abs 1-pixel diff, H+V) | local roughness |
//! | 3 | Laplacian energy (mean abs 4-neighbour residual) | per-pixel noise |
//! | 4 | dynamic range (max − min) | clipping / saturation |
//! | 5 | channel-mean variance | color cast consistency |
//!
//! Everything here is **serial, allocation-free scalar code** on the
//! steady state: scoring runs on the request-submission thread inside
//! the serving engine, and the bit-exactness invariant (identical
//! scores at every `fademl_tensor::par` thread count) holds trivially
//! because no parallel kernel is involved.
//!
//! A [`ScalePlan`] derives and validates the pyramid level dimensions
//! for one `[C, H, W]` shape: three compares and at most
//! [`MAX_SCALES`] halvings on the stack, so it is built per frame
//! (DESIGN.md §13.4 has the measurement against the memo it replaced).
//! Pixel buffers live in a per-thread [`PyramidScratch`] that is reused
//! across frames — after the first frame of a geometry the admission
//! path performs no heap allocation.

use std::cell::RefCell;

use fademl_tensor::Tensor;

use crate::error::{DetectError, Result};

/// Statistics computed per pyramid level.
pub const FEATURES_PER_SCALE: usize = 6;

/// Most pyramid levels a detector may be configured with. At 8 scales
/// the coarsest level of even a 4K frame is down to a handful of
/// pixels; anything beyond is a corrupt artifact, not a configuration.
pub const MAX_SCALES: usize = 8;

/// Length of the feature vector for a given pyramid depth.
pub fn feature_dim(scales: usize) -> usize {
    scales * FEATURES_PER_SCALE
}

/// Smallest image side that supports `scales` pyramid levels: the
/// coarsest level must keep at least 2×2 pixels so the gradient
/// statistics remain defined.
pub fn min_side(scales: usize) -> usize {
    2usize << scales.saturating_sub(1)
}

/// Dimensions of one pyramid level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelGeom {
    /// Plane height in pixels.
    pub height: usize,
    /// Plane width in pixels.
    pub width: usize,
}

/// A validated extraction plan: the pyramid level dimensions for one
/// `[C, H, W]` input shape, with the shape envelope checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalePlan {
    scales: usize,
    channels: usize,
    levels: [LevelGeom; MAX_SCALES],
}

impl ScalePlan {
    /// Builds and validates a plan for `scales` pyramid levels over an
    /// image of shape `dims`.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for an unsupported scale count;
    /// [`DetectError::InvalidInput`] for a non-`[C, H, W]` shape, an
    /// empty image, or an image too small for the requested depth.
    pub fn build(scales: usize, dims: &[usize]) -> Result<ScalePlan> {
        if scales == 0 || scales > MAX_SCALES {
            return Err(DetectError::InvalidConfig {
                reason: format!("scales must be in 1..={MAX_SCALES}, got {scales}"),
            });
        }
        let (channels, height, width) = match dims {
            &[c, h, w] => (c, h, w),
            _ => {
                return Err(DetectError::InvalidInput {
                    reason: format!("expected a [C, H, W] image, got shape {dims:?}"),
                })
            }
        };
        if channels == 0 || height == 0 || width == 0 {
            return Err(DetectError::InvalidInput {
                reason: format!("empty image {dims:?}"),
            });
        }
        let need = min_side(scales);
        if height < need || width < need {
            return Err(DetectError::InvalidInput {
                reason: format!(
                    "image {height}x{width} too small for {scales} scales (need {need})"
                ),
            });
        }
        let mut levels = [LevelGeom::default(); MAX_SCALES];
        let (mut h, mut w) = (height, width);
        for geom in levels.iter_mut().take(scales) {
            *geom = LevelGeom {
                height: h,
                width: w,
            };
            h /= 2;
            w /= 2;
        }
        Ok(ScalePlan {
            scales,
            channels,
            levels,
        })
    }

    /// Pyramid depth of the plan.
    pub fn scales(&self) -> usize {
        self.scales
    }

    /// The `[C, H, W]` geometry the plan was built for.
    pub fn geometry(&self) -> (usize, usize, usize) {
        let base = self.levels.first().copied().unwrap_or_default();
        (self.channels, base.height, base.width)
    }

    /// Whether `dims` matches the planned geometry.
    fn matches(&self, dims: &[usize]) -> bool {
        let (c, h, w) = self.geometry();
        matches!(dims, &[dc, dh, dw] if dc == c && dh == h && dw == w)
    }
}

/// Reusable pixel buffers for pyramid extraction. One instance per
/// thread (see [`with_thread_scratch`]) keeps the steady-state
/// admission path allocation-free: the buffers grow to the largest
/// geometry seen and are then reused verbatim.
#[derive(Debug, Default)]
pub struct PyramidScratch {
    planes: Vec<f32>,
    next: Vec<f32>,
    features: Vec<f32>,
}

impl PyramidScratch {
    /// The feature vector produced by the last [`extract_into`] call.
    pub fn features(&self) -> &[f32] {
        &self.features
    }
}

thread_local! {
    static SCRATCH: RefCell<PyramidScratch> = RefCell::new(PyramidScratch::default());
}

/// Runs `f` with this thread's reusable extraction scratch. Do not
/// re-enter from inside `f` — the scratch is a single per-thread cell.
pub fn with_thread_scratch<T>(f: impl FnOnce(&mut PyramidScratch) -> T) -> T {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Extracts the multi-scale features of `image` under a prebuilt plan,
/// leaving the result in `scratch.features()`. Allocation-free once the
/// scratch has warmed to the plan's geometry.
///
/// Non-finite pixels are tolerated (the forest treats `NaN`
/// comparisons as "right branch"), because the caller on the serving
/// path has already validated finiteness and the experiment path wants
/// scoring to be total.
///
/// # Errors
///
/// [`DetectError::InvalidInput`] if the image shape does not match the
/// plan's geometry.
pub fn extract_into(plan: &ScalePlan, image: &Tensor, scratch: &mut PyramidScratch) -> Result<()> {
    let dims = image.dims();
    if !plan.matches(dims) {
        let (c, h, w) = plan.geometry();
        return Err(DetectError::InvalidInput {
            reason: format!("image shape {dims:?} does not match planned [{c}, {h}, {w}]"),
        });
    }
    scratch.features.clear();
    scratch.planes.clear();
    scratch.planes.extend_from_slice(image.as_slice());
    for (level, geom) in plan.levels.iter().take(plan.scales).enumerate() {
        let stats = scale_stats(&scratch.planes, geom.height, geom.width);
        scratch.features.extend_from_slice(&stats);
        if level + 1 < plan.scales {
            downsample_into(&scratch.planes, geom.height, geom.width, &mut scratch.next);
            std::mem::swap(&mut scratch.planes, &mut scratch.next);
        }
    }
    Ok(())
}

/// Extracts the multi-scale feature vector of a `[C, H, W]` image.
///
/// One-shot convenience over [`ScalePlan::build`] + [`extract_into`]:
/// the experiment and fitting paths use this; the serving path reads
/// the thread scratch in place instead of copying the vector out.
///
/// # Errors
///
/// Same envelope checks as [`ScalePlan::build`].
pub fn pyramid_features(image: &Tensor, scales: usize) -> Result<Vec<f32>> {
    let plan = ScalePlan::build(scales, image.dims())?;
    with_thread_scratch(|scratch| {
        extract_into(&plan, image, scratch)?;
        let mut out = Vec::default();
        out.extend_from_slice(&scratch.features);
        Ok(out)
    })
}

/// The six per-scale statistics over `channels` planes of `h*w` pixels.
/// Pure streaming scalar code: no allocation, no indexing.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the sums run in f64; each feature rounds to the f32 the forest scores"
)]
fn scale_stats(planes: &[f32], h: usize, w: usize) -> [f32; FEATURES_PER_SCALE] {
    let plane_len = h * w;
    let total = planes.len() as f64;

    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in planes {
        sum += f64::from(v);
        sum_sq += f64::from(v) * f64::from(v);
        min = min.min(v);
        max = max.max(v);
    }
    let mean = sum / total;
    let var = (sum_sq / total - mean * mean).max(0.0);

    let mut grad_sum = 0.0f64;
    let mut grad_n = 0.0f64;
    let mut lap_sum = 0.0f64;
    let mut lap_n = 0.0f64;
    // Streaming mean/second-moment of the per-channel means replaces a
    // collected vector; channel-count is a divisor, never an index.
    let mut chan_mean_sum = 0.0f64;
    let mut chan_mean_sq_sum = 0.0f64;
    let mut chan_n = 0.0f64;
    for plane in planes.chunks_exact(plane_len) {
        let psum: f64 = plane.iter().map(|&v| f64::from(v)).sum();
        let pmean = psum / plane_len as f64;
        chan_mean_sum += pmean;
        chan_mean_sq_sum += pmean * pmean;
        chan_n += 1.0;

        // Horizontal neighbours, per row so pairs never wrap rows.
        for row in plane.chunks_exact(w) {
            for pair in row.windows(2) {
                if let &[a, b] = pair {
                    grad_sum += f64::from((b - a).abs());
                    grad_n += 1.0;
                }
            }
        }
        // Vertical neighbours: offset-by-one-row zip over the flat plane.
        for (&a, &b) in plane.iter().zip(plane.iter().skip(w)) {
            grad_sum += f64::from((b - a).abs());
            grad_n += 1.0;
        }
        // 4-neighbour Laplacian over the interior: three row cursors
        // offset by one row each walk the plane in lockstep.
        if h >= 3 && w >= 3 {
            let above_rows = plane.chunks_exact(w);
            let center_rows = plane.chunks_exact(w).skip(1);
            let below_rows = plane.chunks_exact(w).skip(2);
            for ((above, center), below) in above_rows.zip(center_rows).zip(below_rows) {
                for ((aw, cw), bw) in above
                    .windows(3)
                    .zip(center.windows(3))
                    .zip(below.windows(3))
                {
                    if let (&[_, up, _], &[left, mid, right], &[_, down, _]) = (aw, cw, bw) {
                        lap_sum += f64::from((4.0 * mid - up - down - left - right).abs());
                        lap_n += 1.0;
                    }
                }
            }
        }
    }
    let grad = if grad_n > 0.0 { grad_sum / grad_n } else { 0.0 };
    let lap = if lap_n > 0.0 { lap_sum / lap_n } else { 0.0 };
    let chan_var = if chan_n > 1.0 {
        let m = chan_mean_sum / chan_n;
        (chan_mean_sq_sum / chan_n - m * m).max(0.0)
    } else {
        0.0
    };

    [
        mean as f32,
        var as f32,
        grad as f32,
        lap as f32,
        max - min,
        chan_var as f32,
    ]
}

/// 2×2 box-average downsampling of every plane into `out`; odd
/// trailing rows and columns are dropped (floor semantics). `out` is
/// cleared and refilled — reusing its capacity across frames.
fn downsample_into(planes: &[f32], h: usize, w: usize, out: &mut Vec<f32>) {
    let (oh, ow) = (h / 2, w / 2);
    out.clear();
    for plane in planes.chunks_exact(h * w) {
        for row_pair in plane.chunks_exact(2 * w).take(oh) {
            let (top, bottom) = row_pair.split_at(w);
            for (tp, bp) in top.chunks_exact(2).zip(bottom.chunks_exact(2)).take(ow) {
                if let (&[a, b], &[c, d]) = (tp, bp) {
                    out.push((a + b + c + d) * 0.25);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    fn image(rng: &mut TensorRng, side: usize) -> Tensor {
        rng.uniform(&[3, side, side], 0.0, 1.0)
    }

    #[test]
    fn feature_vector_has_expected_length() {
        let mut rng = TensorRng::seed_from_u64(7);
        let img = image(&mut rng, 16);
        for scales in 1..=3 {
            let f = pyramid_features(&img, scales).unwrap();
            assert_eq!(f.len(), feature_dim(scales));
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn wrong_rank_and_tiny_images_are_typed_errors() {
        let mut rng = TensorRng::seed_from_u64(7);
        let flat = rng.uniform(&[16, 16], 0.0, 1.0);
        assert!(matches!(
            pyramid_features(&flat, 2),
            Err(DetectError::InvalidInput { .. })
        ));
        let small = rng.uniform(&[3, 4, 4], 0.0, 1.0);
        assert!(matches!(
            pyramid_features(&small, 3),
            Err(DetectError::InvalidInput { .. })
        ));
        assert!(matches!(
            pyramid_features(&small, 0),
            Err(DetectError::InvalidConfig { .. })
        ));
        assert!(matches!(
            pyramid_features(&small, MAX_SCALES + 1),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn constant_image_has_zero_texture_features() {
        let img = Tensor::from_vec(
            vec![0.5; 3 * 8 * 8],
            fademl_tensor::Shape::new(vec![3, 8, 8]),
        )
        .unwrap();
        let f = pyramid_features(&img, 2).unwrap();
        // mean is preserved, variance / gradients / laplacian / range /
        // channel spread all vanish at every scale.
        for level in f.chunks_exact(FEATURES_PER_SCALE) {
            if let &[mean, var, grad, lap, range, chan] = level {
                assert!((mean - 0.5).abs() < 1e-6);
                for v in [var, grad, lap, range, chan] {
                    assert!(v.abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn iid_noise_inflates_fine_scale_texture() {
        let mut rng = TensorRng::seed_from_u64(11);
        // Smooth image: constant gradient ramp.
        let side = 16;
        let mut data = Vec::new();
        for _ in 0..3 {
            for y in 0..side {
                for x in 0..side {
                    data.push((y + x) as f32 / (2 * side) as f32);
                }
            }
        }
        let smooth =
            Tensor::from_vec(data, fademl_tensor::Shape::new(vec![3, side, side])).unwrap();
        let noise = rng.uniform(&[3, side, side], -0.1, 0.1);
        let noisy_data: Vec<f32> = smooth
            .as_slice()
            .iter()
            .zip(noise.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let noisy =
            Tensor::from_vec(noisy_data, fademl_tensor::Shape::new(vec![3, side, side])).unwrap();
        let fs = pyramid_features(&smooth, 2).unwrap();
        let fnz = pyramid_features(&noisy, 2).unwrap();
        // Laplacian energy at the finest scale (index 3) must jump.
        assert!(!fnz.is_empty());
        let lap_smooth = fs.get(3).copied().unwrap_or(0.0);
        let lap_noisy = fnz.get(3).copied().unwrap_or(0.0);
        assert!(
            lap_noisy > 4.0 * lap_smooth + 1e-3,
            "laplacian should explode under iid noise: {lap_smooth} vs {lap_noisy}"
        );
    }

    #[test]
    fn downsample_halves_dims_with_floor() {
        let mut rng = TensorRng::seed_from_u64(3);
        let img = image(&mut rng, 9);
        let mut next = Vec::new();
        downsample_into(img.as_slice(), 9, 9, &mut next);
        assert_eq!(next.len(), 3 * 4 * 4);
        // Each output is the mean of a 2x2 block, so bounded by input range.
        assert!(next.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn plan_levels_match_manual_derivation() {
        let plan = ScalePlan::build(3, &[3, 32, 20]).unwrap();
        assert_eq!(plan.scales(), 3);
        assert_eq!(plan.geometry(), (3, 32, 20));
        let levels: Vec<LevelGeom> = plan.levels.iter().take(3).copied().collect();
        assert_eq!(
            levels,
            vec![
                LevelGeom {
                    height: 32,
                    width: 20
                },
                LevelGeom {
                    height: 16,
                    width: 10
                },
                LevelGeom {
                    height: 8,
                    width: 5
                },
            ]
        );
    }

    #[test]
    fn planned_extraction_matches_one_shot_path() {
        let mut rng = TensorRng::seed_from_u64(42);
        for _ in 0..4 {
            let img = image(&mut rng, 16);
            let expected = pyramid_features(&img, 3).unwrap();
            let plan = ScalePlan::build(3, img.dims()).unwrap();
            let mut scratch = PyramidScratch::default();
            extract_into(&plan, &img, &mut scratch).unwrap();
            assert_eq!(scratch.features(), expected.as_slice());
        }
    }

    #[test]
    fn extract_rejects_geometry_mismatch() {
        let mut rng = TensorRng::seed_from_u64(5);
        let plan = ScalePlan::build(2, &[3, 16, 16]).unwrap();
        let wrong = rng.uniform(&[3, 8, 8], 0.0, 1.0);
        let mut scratch = PyramidScratch::default();
        assert!(matches!(
            extract_into(&plan, &wrong, &mut scratch),
            Err(DetectError::InvalidInput { .. })
        ));
    }
}
