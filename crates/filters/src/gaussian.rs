use fademl_tensor::Tensor;

use crate::kernel::Kernel;
use crate::{Filter, FilterError, Result};

/// Gaussian blur — a third linear smoother beyond the paper's LAP/LAR,
/// used in the ablation benches (a weighted rather than uniform local
/// average).
///
/// The kernel is truncated at `3σ` and normalized.
#[derive(Debug, Clone)]
pub struct Gaussian {
    sigma: f32,
    kernel: Kernel,
}

impl Gaussian {
    /// Creates a Gaussian blur with standard deviation `sigma` (pixels).
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for non-finite or
    /// non-positive `sigma`, or `sigma > 3.0` (kernel would exceed the
    /// supported window).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "radius = ceil(3·sigma) ≤ 9: sigma is validated to (0, 3] first"
    )]
    pub fn new(sigma: f32) -> Result<Self> {
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(FilterError::InvalidParameter {
                reason: format!("gaussian sigma must be positive and finite, got {sigma}"),
            });
        }
        if sigma > 3.0 {
            return Err(FilterError::InvalidParameter {
                reason: format!("gaussian sigma {sigma} exceeds the supported maximum of 3.0"),
            });
        }
        let radius = (3.0 * sigma).ceil() as i32;
        let mut taps = Vec::default();
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let d2 = (dy * dy + dx * dx) as f32;
                let w = (-d2 / (2.0 * sigma * sigma)).exp();
                if w > 1e-6 {
                    taps.push((dy, dx, w));
                }
            }
        }
        Ok(Gaussian {
            sigma,
            kernel: Kernel::new(taps)?,
        })
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }
}

impl Filter for Gaussian {
    fn name(&self) -> String {
        format!("Gauss({:.2})", self.sigma)
    }

    fn apply(&self, image: &Tensor) -> Result<Tensor> {
        self.kernel.apply(image)
    }

    fn backward(&self, _input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        self.kernel.backward(grad_out)
    }

    fn is_linear(&self) -> bool {
        true
    }

    fn clone_box(&self) -> Box<dyn Filter> {
        crate::filter::boxed(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    #[test]
    fn construction_bounds() {
        assert!(Gaussian::new(0.0).is_err());
        assert!(Gaussian::new(-1.0).is_err());
        assert!(Gaussian::new(f32::NAN).is_err());
        assert!(Gaussian::new(4.0).is_err());
        assert!(Gaussian::new(1.0).is_ok());
    }

    #[test]
    fn centre_weight_dominates() {
        let g = Gaussian::new(0.8).unwrap();
        // Apply to an impulse: centre keeps the largest share.
        let mut img = Tensor::zeros(&[1, 11, 11]);
        img.set(&[0, 5, 5], 1.0).unwrap();
        let out = g.apply(&img).unwrap();
        let centre = out.get(&[0, 5, 5]).unwrap();
        assert_eq!(out.argmax().unwrap(), 5 * 11 + 5);
        assert!(centre > 0.1 && centre < 0.5);
    }

    #[test]
    fn wider_sigma_blurs_more() {
        let mut rng = TensorRng::seed_from_u64(1);
        let img = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let var = |t: &Tensor| {
            let m = t.mean();
            t.map(|x| (x - m) * (x - m)).mean()
        };
        let narrow = Gaussian::new(0.5).unwrap().apply(&img).unwrap();
        let wide = Gaussian::new(2.0).unwrap().apply(&img).unwrap();
        assert!(var(&wide) < var(&narrow));
    }

    #[test]
    fn adjoint_property() {
        let g = Gaussian::new(1.2).unwrap();
        let mut rng = TensorRng::seed_from_u64(2);
        let x = rng.uniform(&[1, 9, 9], -1.0, 1.0);
        let y = rng.uniform(&[1, 9, 9], -1.0, 1.0);
        let lhs = g.apply(&x).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&g.backward(&x, &y).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn named_and_linear() {
        let g = Gaussian::new(1.5).unwrap();
        assert_eq!(g.name(), "Gauss(1.50)");
        assert!(g.is_linear());
        assert_eq!(g.sigma(), 1.5);
    }
}
