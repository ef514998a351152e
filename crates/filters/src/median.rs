use fademl_tensor::plan::alloc;
use fademl_tensor::Tensor;

use crate::filter::check_image_rank;
use crate::{Filter, FilterError, Result};

/// Median filter over a square window — a *non-linear* smoother.
///
/// Included as an extension beyond the paper's LAP/LAR: median filtering
/// is the classic counter to salt-and-pepper noise, and because it is
/// non-differentiable it exercises FAdeML's straight-through (BPDA)
/// gradient fallback. [`Filter::backward`] returns the incoming gradient
/// unchanged, the standard Backward-Pass Differentiable Approximation
/// for rank filters.
#[derive(Debug, Clone, Copy)]
pub struct Median {
    window: usize,
}

impl Median {
    /// Creates a median filter over a `window × window` neighbourhood.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] unless `window` is odd
    /// and in `3..=9`.
    pub fn new(window: usize) -> Result<Self> {
        if window.is_multiple_of(2) || !(3..=9).contains(&window) {
            return Err(FilterError::InvalidParameter {
                reason: format!("median window must be odd and in 3..=9, got {window}"),
            });
        }
        Ok(Median { window })
    }

    /// The configured window edge length.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Filter for Median {
    fn name(&self) -> String {
        format!("Median({})", self.window)
    }

    #[expect(
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        reason = "signed neighbourhood offsets over validated small images, the gather clamped to the image bounds before indexing"
    )]
    fn apply(&self, image: &Tensor) -> Result<Tensor> {
        check_image_rank(image)?;
        let dims = image.dims();
        let (h, w) = (dims[dims.len() - 2], dims[dims.len() - 1]);
        let planes = image.numel() / (h * w);
        let r = (self.window / 2) as i32;
        let src = image.as_slice();
        let mut out = alloc::fresh_vec(src.len());
        // The gather window leases from the scratch arena, and the
        // in-place unstable sort allocates nothing — a warm call's only
        // allocation is the output buffer itself. (`sort_by` on a Vec
        // heap-allocates a merge buffer for windows over 20 elements.)
        let mut buf = alloc::scratch_f32(self.window * self.window);
        for p in 0..planes {
            let base = p * h * w;
            for y in 0..h as i32 {
                for x in 0..w as i32 {
                    let mut cnt = 0usize;
                    for dy in -r..=r {
                        for dx in -r..=r {
                            let (sy, sx) = (y + dy, x + dx);
                            if sy >= 0 && sy < h as i32 && sx >= 0 && sx < w as i32 {
                                if let Some(slot) = buf.as_mut_slice().get_mut(cnt) {
                                    *slot = src[base + (sy as usize) * w + sx as usize];
                                }
                                cnt += 1;
                            }
                        }
                    }
                    let (window, _) = buf.as_mut_slice().split_at_mut(cnt);
                    window.sort_unstable_by(|a, b| {
                        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let mid = cnt / 2;
                    let median = if cnt % 2 == 1 {
                        window[mid]
                    } else {
                        0.5 * (window[mid - 1] + window[mid])
                    };
                    out[base + (y as usize) * w + x as usize] = median;
                }
            }
        }
        Ok(Tensor::from_vec(out, image.shape().duplicate())?)
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        check_image_rank(input)?;
        // Straight-through estimator (BPDA): treat the median as the
        // identity for gradient purposes.
        Ok(grad_out.duplicate())
    }

    fn is_linear(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn Filter> {
        crate::filter::boxed(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    #[test]
    fn construction_bounds() {
        assert!(Median::new(2).is_err());
        assert!(Median::new(1).is_err());
        assert!(Median::new(11).is_err());
        assert!(Median::new(3).is_ok());
        assert!(Median::new(5).is_ok());
    }

    #[test]
    fn kills_salt_and_pepper_impulse() {
        let mut img = Tensor::full(&[1, 9, 9], 0.5);
        img.set(&[0, 4, 4], 1.0).unwrap(); // salt
        img.set(&[0, 2, 2], 0.0).unwrap(); // pepper
        let out = Median::new(3).unwrap().apply(&img).unwrap();
        assert_eq!(out.get(&[0, 4, 4]).unwrap(), 0.5);
        assert_eq!(out.get(&[0, 2, 2]).unwrap(), 0.5);
    }

    #[test]
    fn constant_image_fixed_point() {
        let img = Tensor::full(&[3, 7, 7], 0.3);
        let out = Median::new(5).unwrap().apply(&img).unwrap();
        for &v in out.as_slice() {
            assert_eq!(v, 0.3);
        }
    }

    #[test]
    fn is_not_linear() {
        // Median(x + y) != Median(x) + Median(y) in general.
        let m = Median::new(3).unwrap();
        assert!(!m.is_linear());
        // 1×3 rows: median(x)[1] = 0 and median(y)[1] = 0, but their sum
        // has two ones in the window so median(x+y)[1] = 1.
        let x = Tensor::from_vec(vec![0.0, 1.0, 0.0], [1, 1, 3].into()).unwrap();
        let y = Tensor::from_vec(vec![1.0, 0.0, 0.0], [1, 1, 3].into()).unwrap();
        let lhs = m.apply(&x.add(&y).unwrap()).unwrap();
        let rhs = m.apply(&x).unwrap().add(&m.apply(&y).unwrap()).unwrap();
        assert_ne!(lhs, rhs);
        assert_eq!(lhs.get(&[0, 0, 1]).unwrap(), 1.0);
        assert_eq!(rhs.get(&[0, 0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn backward_is_straight_through() {
        let m = Median::new(3).unwrap();
        let mut rng = TensorRng::seed_from_u64(1);
        let x = rng.uniform(&[1, 6, 6], 0.0, 1.0);
        let g = rng.uniform(&[1, 6, 6], -1.0, 1.0);
        assert_eq!(m.backward(&x, &g).unwrap(), g);
    }

    #[test]
    fn preserves_step_edges_better_than_average() {
        // A sharp vertical edge survives a median but is softened by LAP.
        use crate::Lap;
        let mut img = Tensor::zeros(&[1, 8, 8]);
        for y in 0..8 {
            for x in 4..8 {
                img.set(&[0, y, x], 1.0).unwrap();
            }
        }
        let med = Median::new(3).unwrap().apply(&img).unwrap();
        let lap = Lap::new(8).unwrap().apply(&img).unwrap();
        // Column 3 (just left of the edge, interior row).
        let med_v = med.get(&[0, 4, 3]).unwrap();
        let lap_v = lap.get(&[0, 4, 3]).unwrap();
        assert_eq!(med_v, 0.0, "median blurred the edge");
        assert!(lap_v > 0.2, "average should bleed across the edge");
    }

    #[test]
    fn named() {
        assert_eq!(Median::new(5).unwrap().name(), "Median(5)");
        assert_eq!(Median::new(5).unwrap().window(), 5);
    }
}
