use std::fmt::Debug;

use fademl_tensor::Tensor;

use crate::{FilterError, Result};

/// A pre-processing image filter with a backward (vector-Jacobian
/// product) pass.
///
/// Filters accept `[C, H, W]` single images or `[N, C, H, W]` batches
/// and operate on each channel independently.
pub trait Filter: Debug + Send + Sync {
    /// Human-readable name including parameters, e.g. `"LAP(32)"`.
    fn name(&self) -> String;

    /// Applies the filter.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::UnsupportedRank`] for tensors that are not
    /// rank 3 or 4.
    fn apply(&self, image: &Tensor) -> Result<Tensor>;

    /// Vector-Jacobian product: maps `∂L/∂output` to `∂L/∂input` at the
    /// given input point.
    ///
    /// For linear filters the Jacobian is constant, so `input` is only
    /// used for its shape; non-linear filters may inspect it.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::UnsupportedRank`] for tensors that are not
    /// rank 3 or 4, or a shape error if `grad_out` and `input` disagree.
    fn backward(&self, input: &Tensor, grad_out: &Tensor) -> Result<Tensor>;

    /// Clones into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Filter>;
}

impl Clone for Box<dyn Filter> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Validates that `t` is `[C, H, W]` or `[N, C, H, W]`.
pub(crate) fn check_image_rank(t: &Tensor) -> Result<()> {
    match t.rank() {
        3 | 4 => Ok(()),
        actual => Err(FilterError::UnsupportedRank { actual }),
    }
}

/// The identity filter (no preprocessing) — the paper's "No Filter"
/// column.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Identity {
    /// Creates the identity filter.
    pub fn new() -> Self {
        Identity
    }
}

impl Filter for Identity {
    fn name(&self) -> String {
        "None".to_owned()
    }

    fn apply(&self, image: &Tensor) -> Result<Tensor> {
        check_image_rank(image)?;
        Ok(image.clone())
    }

    fn backward(&self, input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        check_image_rank(input)?;
        Ok(grad_out.clone())
    }

    fn clone_box(&self) -> Box<dyn Filter> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_through() {
        let f = Identity::new();
        let x = Tensor::ones(&[3, 4, 4]);
        assert_eq!(f.apply(&x).unwrap(), x);
        let g = Tensor::full(&[3, 4, 4], 0.5);
        assert_eq!(f.backward(&x, &g).unwrap(), g);
        assert_eq!(f.name(), "None");
    }

    #[test]
    fn identity_rejects_bad_rank() {
        let f = Identity::new();
        assert!(matches!(
            f.apply(&Tensor::ones(&[4, 4])),
            Err(FilterError::UnsupportedRank { actual: 2 })
        ));
        assert!(f.apply(&Tensor::ones(&[1, 3, 4, 4])).is_ok());
    }

    #[test]
    fn boxed_clone_works() {
        let f: Box<dyn Filter> = Box::new(Identity::new());
        let g = f.clone();
        assert_eq!(g.name(), "None");
    }
}
