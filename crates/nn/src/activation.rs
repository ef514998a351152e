use fademl_tensor::Tensor;

use crate::{Layer, NnError, Result};

/// Rectified linear unit activation: `y = max(x, 0)` elementwise.
///
/// Stateless apart from the backward mask cached during training.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.relu())
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        // The mask is 1 where the unit was active; the subgradient at
        // exactly 0 is taken as 0 (the standard convention).
        self.cached_mask = Some(input.map(|x| if x > 0.0 { 1.0 } else { 0.0 }));
        Ok(input.relu())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .cached_mask
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "relu" })?;
        Ok(grad_out.mul(mask)?)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::Shape;

    #[test]
    fn forward_clips_negatives() {
        let relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], Shape::new(vec![3])).unwrap();
        assert_eq!(relu.forward(&x).unwrap().as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], Shape::new(vec![3])).unwrap();
        relu.forward_train(&x).unwrap();
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0], Shape::new(vec![3])).unwrap();
        assert_eq!(relu.backward(&g).unwrap().as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_input_has_zero_subgradient() {
        let mut relu = Relu::new();
        let x = Tensor::zeros(&[2]);
        relu.forward_train(&x).unwrap();
        let g = Tensor::ones(&[2]);
        assert_eq!(relu.backward(&g).unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(matches!(
            relu.backward(&Tensor::ones(&[1])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn has_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }
}
