//! [`Layer::Relu`](crate::Layer::Relu)'s backward.

use fademl_tensor::{Tensor, TensorError};

use crate::{NnError, Result};

/// ReLU's backward, in place: `g·1.0` where the unit was active, `g·0.0`
/// elsewhere. `active` may be the ReLU's input or its output:
/// `max(x, 0) > 0` exactly when `x > 0` (a NaN `x` clamps to `0`,
/// inactive either way). The subgradient at exactly 0 is taken as 0
/// (the standard convention), and the product keeps a NaN or ∞
/// gradient's IEEE result.
pub(crate) fn relu_backward(mut grad: Tensor, active: &Tensor) -> Result<Tensor> {
    if grad.shape() != active.shape() {
        return Err(NnError::Tensor(TensorError::shape_mismatch(
            "relu_backward",
            grad.dims(),
            active.dims(),
        )));
    }
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(active.as_slice()) {
        *g *= if a > 0.0 { 1.0 } else { 0.0 };
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use fademl_tensor::Shape;

    fn vector(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), Shape::new(vec![v.len()])).unwrap()
    }

    #[test]
    fn forward_clips_negatives() {
        let x = vector(&[-1.0, 0.0, 2.0]);
        assert_eq!(
            Layer::Relu.forward(&x).unwrap().as_slice(),
            &[0.0, 0.0, 2.0]
        );
    }

    #[test]
    fn backward_masks_gradient() {
        let x = vector(&[-1.0, 0.5, 2.0]);
        let g = vector(&[10.0, 10.0, 10.0]);
        assert_eq!(
            relu_backward(g.clone(), &x).unwrap().as_slice(),
            &[0.0, 10.0, 10.0]
        );
        // The output masks the same units as the input.
        let y = Layer::Relu.forward(&x).unwrap();
        assert_eq!(relu_backward(g, &y).unwrap().as_slice(), &[0.0, 10.0, 10.0]);
        assert!(relu_backward(Tensor::ones(&[2]), &x).is_err());
    }

    #[test]
    fn zero_input_has_zero_subgradient() {
        let g = relu_backward(Tensor::ones(&[2]), &Tensor::zeros(&[2])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        crate::sequential::assert_backward_requires_forward(Layer::Relu, &[1, 4]);
    }

    #[test]
    fn has_no_params() {
        assert_eq!(Layer::Relu.param_count(), 0);
    }
}
