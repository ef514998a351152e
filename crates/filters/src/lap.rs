use fademl_tensor::Tensor;

use crate::kernel::Kernel;
use crate::{Filter, FilterError, Result};

/// **LAP** — local average with `np` neighbourhood pixels (paper §III-A).
///
/// Each pixel becomes the uniform average of itself and its `np` nearest
/// neighbours (Euclidean distance, deterministic tie-breaking): `np = 4`
/// is the von Neumann neighbourhood, `np = 8` the Moore neighbourhood,
/// and larger values grow an approximately circular disc. The paper
/// sweeps `np ∈ {4, 8, 16, 32, 64}`.
///
/// # Example
///
/// ```
/// use fademl_filters::{Filter, Lap};
/// use fademl_tensor::Tensor;
///
/// # fn main() -> Result<(), fademl_filters::FilterError> {
/// let lap = Lap::new(8)?;
/// assert_eq!(lap.name(), "LAP(8)");
/// let out = lap.apply(&Tensor::ones(&[3, 8, 8]))?;
/// assert_eq!(out.dims(), &[3, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lap {
    np: usize,
    kernel: Kernel,
}

impl Lap {
    /// The neighbourhood sizes evaluated in the paper.
    pub const PAPER_SWEEP: [usize; 5] = [4, 8, 16, 32, 64];

    /// Creates a LAP filter with `np` neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for `np == 0` or
    /// `np > 80` (beyond the supported neighbourhood window).
    pub fn new(np: usize) -> Result<Self> {
        if np == 0 {
            return Err(FilterError::InvalidParameter {
                reason: "LAP needs at least one neighbour".into(),
            });
        }
        if np > 80 {
            return Err(FilterError::InvalidParameter {
                reason: format!("LAP np = {np} exceeds the supported maximum of 80"),
            });
        }
        let kernel = Kernel::uniform(Kernel::nearest_neighbourhood(np))?;
        Ok(Lap { np, kernel })
    }

    /// The configured neighbour count.
    pub fn np(&self) -> usize {
        self.np
    }
}

impl Filter for Lap {
    fn name(&self) -> String {
        format!("LAP({})", self.np)
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
        assert!(Lap::new(0).is_err());
        assert!(Lap::new(81).is_err());
        for np in Lap::PAPER_SWEEP {
            assert!(Lap::new(np).is_ok(), "np = {np}");
        }
    }

    #[test]
    fn larger_np_smooths_more() {
        let mut rng = TensorRng::seed_from_u64(1);
        let img = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let var = |t: &Tensor| {
            let m = t.mean();
            t.map(|x| (x - m) * (x - m)).mean()
        };
        let mut last = f32::INFINITY;
        for np in Lap::PAPER_SWEEP {
            let out = Lap::new(np).unwrap().apply(&img).unwrap();
            let v = var(&out);
            assert!(v < last, "variance did not drop at np = {np}");
            last = v;
        }
    }

    #[test]
    fn removes_impulse_noise() {
        // A single bright pixel in a flat image gets spread down by ~1/(np+1).
        let mut img = Tensor::zeros(&[1, 9, 9]);
        img.set(&[0, 4, 4], 1.0).unwrap();
        let out = Lap::new(8).unwrap().apply(&img).unwrap();
        assert!(out.get(&[0, 4, 4]).unwrap() < 0.2);
        assert!((out.sum() - img.sum()).abs() < 1e-4); // mass preserved in interior
    }

    #[test]
    fn backward_adjoint_property() {
        let lap = Lap::new(32).unwrap();
        let mut rng = TensorRng::seed_from_u64(2);
        let x = rng.uniform(&[3, 10, 10], -1.0, 1.0);
        let y = rng.uniform(&[3, 10, 10], -1.0, 1.0);
        let lhs = lap.apply(&x).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&lap.backward(&x, &y).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn is_linear_and_named() {
        let lap = Lap::new(16).unwrap();
        assert_eq!(lap.name(), "LAP(16)");
        assert_eq!(lap.np(), 16);
    }
}
