use fademl_tensor::{Tensor, TensorError};

use crate::{Layer, NnError, Result};

/// Rectified linear unit activation: `y = max(x, 0)` elementwise.
///
/// Stateless apart from the activation cached for the backward pass.
/// Its mask is the activation's sign: `y > 0` exactly when `x > 0`, so
/// the cache may hold the input or, when the layer before clamps as it
/// stores (`Layer::forward_train_relu`), the output — whichever
/// [`Layer::keep_input`] is handed.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached: Option<Tensor>,
}

impl Relu {
    /// The [`Layer::name`] `Sequential` fuses by.
    pub const NAME: &'static str = "relu";

    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        Relu::NAME
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.relu())
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cached = None;
        Ok(input.relu())
    }

    fn keeps_input(&self) -> bool {
        true
    }

    fn keep_input(&mut self, input: Tensor) {
        self.cached = Some(input);
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Result<Tensor> {
        let cached = self
            .cached
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "relu" })?;
        if grad_out.shape() != cached.shape() {
            return Err(NnError::Tensor(TensorError::shape_mismatch(
                "relu_backward",
                grad_out.dims(),
                cached.dims(),
            )));
        }
        // `g·1.0` where the unit was active, `g·0.0` elsewhere: the
        // subgradient at exactly 0 is taken as 0 (the standard
        // convention), and the product keeps a NaN or ∞ gradient's IEEE
        // result.
        for (g, &a) in grad_out.as_mut_slice().iter_mut().zip(cached.as_slice()) {
            *g *= if a > 0.0 { 1.0 } else { 0.0 };
        }
        Ok(grad_out)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::train_forward;
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
        train_forward(&mut relu, &x);
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0], Shape::new(vec![3])).unwrap();
        assert_eq!(
            relu.backward(g.clone()).unwrap().as_slice(),
            &[0.0, 10.0, 10.0]
        );
    }

    #[test]
    fn zero_input_has_zero_subgradient() {
        let mut relu = Relu::new();
        let x = Tensor::zeros(&[2]);
        train_forward(&mut relu, &x);
        let g = Tensor::ones(&[2]);
        assert_eq!(relu.backward(g.clone()).unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(matches!(
            relu.backward(Tensor::ones(&[1])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn has_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }
}
