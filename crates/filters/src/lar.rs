use fademl_tensor::Tensor;

use crate::kernel::Kernel;
use crate::{Filter, FilterError, Result};

/// **LAR** — local average with radius `r` (paper §III-A).
///
/// Each pixel becomes the uniform average over the disc of Euclidean
/// radius `r` pixels centred on it. The paper sweeps `r ∈ {1..5}`.
///
/// # Example
///
/// ```
/// use fademl_filters::{Filter, Lar};
/// use fademl_tensor::Tensor;
///
/// # fn main() -> Result<(), fademl_filters::FilterError> {
/// let lar = Lar::new(3)?;
/// assert_eq!(lar.name(), "LAR(3)");
/// let out = lar.apply(&Tensor::ones(&[3, 8, 8]))?;
/// assert_eq!(out.dims(), &[3, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lar {
    radius: usize,
    kernel: Kernel,
}

impl Lar {
    /// The radii evaluated in the paper.
    pub const PAPER_SWEEP: [usize; 5] = [1, 2, 3, 4, 5];

    /// Creates a LAR filter with the given radius.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for `radius == 0` or
    /// `radius > 8`.
    pub fn new(radius: usize) -> Result<Self> {
        if radius == 0 {
            return Err(FilterError::InvalidParameter {
                reason: "LAR radius must be at least 1".into(),
            });
        }
        if radius > 8 {
            return Err(FilterError::InvalidParameter {
                reason: format!("LAR radius {radius} exceeds the supported maximum of 8"),
            });
        }
        let kernel = Kernel::uniform(Kernel::disc(radius))?;
        Ok(Lar { radius, kernel })
    }

    /// The configured radius.
    pub fn radius(&self) -> usize {
        self.radius
    }
}

impl Filter for Lar {
    fn name(&self) -> String {
        format!("LAR({})", self.radius)
    }

    fn apply(&self, image: &Tensor) -> Result<Tensor> {
        self.kernel.apply(image)
    }

    fn backward(&self, _input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        self.kernel.backward(grad_out)
    }

    fn clone_box(&self) -> Box<dyn Filter> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    #[test]
    fn construction_bounds() {
        assert!(Lar::new(0).is_err());
        assert!(Lar::new(9).is_err());
        for r in Lar::PAPER_SWEEP {
            assert!(Lar::new(r).is_ok(), "r = {r}");
        }
    }

    #[test]
    fn larger_radius_smooths_more() {
        let mut rng = TensorRng::seed_from_u64(1);
        let img = rng.uniform(&[1, 20, 20], 0.0, 1.0);
        let var = |t: &Tensor| {
            let m = t.mean();
            t.map(|x| (x - m) * (x - m)).mean()
        };
        let mut last = f32::INFINITY;
        for r in Lar::PAPER_SWEEP {
            let out = Lar::new(r).unwrap().apply(&img).unwrap();
            let v = var(&out);
            assert!(v < last, "variance did not drop at r = {r}");
            last = v;
        }
    }

    #[test]
    fn lar1_equals_lap4() {
        // The r=1 disc is the von Neumann neighbourhood plus centre —
        // identical to LAP(4) by construction.
        use crate::Lap;
        let mut rng = TensorRng::seed_from_u64(2);
        let img = rng.uniform(&[3, 9, 9], 0.0, 1.0);
        let a = Lar::new(1).unwrap().apply(&img).unwrap();
        let b = Lap::new(4).unwrap().apply(&img).unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_adjoint_property() {
        let lar = Lar::new(4).unwrap();
        let mut rng = TensorRng::seed_from_u64(3);
        let x = rng.uniform(&[2, 12, 12], -1.0, 1.0);
        let y = rng.uniform(&[2, 12, 12], -1.0, 1.0);
        let lhs = lar.apply(&x).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&lar.backward(&x, &y).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn symmetric_kernel_backward_matches_forward_in_interior() {
        // For a symmetric kernel away from borders, Kᵀ == K; check on a
        // gradient concentrated in the interior.
        let lar = Lar::new(2).unwrap();
        let mut g = Tensor::zeros(&[1, 15, 15]);
        g.set(&[0, 7, 7], 1.0).unwrap();
        let fwd = lar.apply(&g).unwrap();
        let bwd = lar.backward(&g, &g).unwrap();
        for (a, b) in fwd.as_slice().iter().zip(bwd.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn is_linear_and_named() {
        let lar = Lar::new(5).unwrap();
        assert_eq!(lar.name(), "LAR(5)");
        assert_eq!(lar.radius(), 5);
    }
}
