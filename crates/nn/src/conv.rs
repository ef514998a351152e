use fademl_tensor::{
    conv2d, conv2d_backward, conv2d_backward_input, conv2d_backward_params, conv2d_relu, ConvSpec,
    Initializer, Tensor, TensorRng,
};

use crate::{Param, Result};

/// A 2-D convolution layer (NCHW, square kernels).
///
/// Weights are Kaiming-normal initialized — appropriate for the ReLU
/// stack the paper's VGGNet uses.
///
/// # Example
///
/// ```
/// use fademl_nn::Conv2d;
/// use fademl_tensor::{ConvSpec, Tensor, TensorRng};
///
/// # fn main() -> Result<(), fademl_nn::NnError> {
/// let mut rng = TensorRng::seed_from_u64(0);
/// let conv = Conv2d::new(ConvSpec::new(3, 8, 3, 1, 1), &mut rng);
/// let out = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]))?;
/// assert_eq!(out.dims(), &[2, 8, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: ConvSpec,
    pub(crate) weight: Param,
    pub(crate) bias: Param,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal weights and zero
    /// biases drawn from `rng`.
    pub fn new(spec: ConvSpec, rng: &mut TensorRng) -> Self {
        let fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w;
        let weight = rng.init(
            &[
                spec.out_channels,
                spec.in_channels,
                spec.kernel_h,
                spec.kernel_w,
            ],
            Initializer::KaimingNormal { fan_in },
        );
        Conv2d {
            spec,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[spec.out_channels])),
        }
    }

    /// The layer's geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Pure inference pass.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
        )?)
    }

    /// [`Conv2d::forward`] then a ReLU, bit for bit: the convolution
    /// clamps as it stores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Conv2d::forward`].
    pub fn forward_relu(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d_relu(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
        )?)
    }

    /// Adds `∂L/∂weight` and `∂L/∂bias` at `input` onto the gradients
    /// and returns `∂L/∂input`.
    pub(crate) fn backward(&mut self, input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        let grads = conv2d_backward(input, &self.weight.value, grad_out, &self.spec)?;
        self.weight.grad.add_scaled_inplace(&grads.weight, 1.0)?;
        self.bias.grad.add_scaled_inplace(&grads.bias, 1.0)?;
        Ok(grads.input)
    }

    /// [`Conv2d::backward`]'s `∂L/∂input` alone, bit for bit — what an
    /// attack query needs — without the parameter gradients.
    pub(crate) fn backward_input(&self, input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        Ok(conv2d_backward_input(
            input,
            &self.weight.value,
            grad_out,
            &self.spec,
        )?)
    }

    /// [`Conv2d::backward`]'s parameter gradients alone, bit for bit —
    /// what the first layer of a training step needs.
    pub(crate) fn backward_params(&mut self, input: &Tensor, grad_out: &Tensor) -> Result<()> {
        let (weight, bias) = conv2d_backward_params(input, grad_out, &self.spec)?;
        self.weight.grad.add_scaled_inplace(&weight, 1.0)?;
        self.bias.grad.add_scaled_inplace(&bias, 1.0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Sequential};

    fn layer() -> Conv2d {
        let mut rng = TensorRng::seed_from_u64(1);
        Conv2d::new(ConvSpec::new(2, 3, 3, 1, 1), &mut rng)
    }

    #[test]
    fn forward_shape() {
        let conv = layer();
        let out = conv.forward(&Tensor::zeros(&[2, 2, 8, 8])).unwrap();
        assert_eq!(out.dims(), &[2, 3, 8, 8]);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut conv = layer();
        let mut rng = TensorRng::seed_from_u64(2);
        let x = rng.uniform(&[1, 2, 6, 6], -1.0, 1.0);
        let g = Tensor::ones(conv.forward(&x).unwrap().dims());
        let gin = conv.backward(&x, &g).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(conv.weight.grad.norm_l2() > 0.0);
        assert!(conv.bias.grad.norm_l2() > 0.0);
        // Second backward accumulates (doubles) the gradient.
        let w_grad_once = conv.weight.grad.clone();
        conv.backward(&x, &g).unwrap();
        let doubled = w_grad_once.scale(2.0);
        for (a, b) in conv.weight.grad.as_slice().iter().zip(doubled.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        crate::sequential::assert_backward_requires_forward(layer().into(), &[1, 3, 8, 8]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut conv = Sequential::new().push(layer());
        let x = Tensor::ones(&[1, 2, 6, 6]);
        let y = conv.forward_train(&x).unwrap();
        conv.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(conv.params()[0].grad.norm_l2() > 0.0);
        conv.zero_grad();
        assert!(conv.params().iter().all(|p| p.grad.norm_l2() == 0.0));
    }

    #[test]
    fn inference_matches_train_forward() {
        let conv = layer();
        let mut rng = TensorRng::seed_from_u64(3);
        let x = rng.uniform(&[1, 2, 5, 5], -1.0, 1.0);
        let pure = conv.forward(&x).unwrap();
        let train = Sequential::new().push(conv).forward_train(&x).unwrap();
        assert_eq!(pure, train);
    }

    #[test]
    fn backward_input_matches_backward_and_leaves_param_grads_alone() {
        let mut conv = layer();
        let mut rng = TensorRng::seed_from_u64(4);
        let x = rng.uniform(&[2, 2, 6, 6], -1.0, 1.0);
        let g = rng.uniform(conv.forward(&x).unwrap().dims(), -1.0, 1.0);
        let only = conv.backward_input(&x, &g).unwrap();
        assert_eq!(conv.weight.grad.norm_l2(), 0.0);
        assert_eq!(conv.bias.grad.norm_l2(), 0.0);
        conv.backward_params(&x, &g).unwrap();
        let params = (conv.weight.grad.clone(), conv.bias.grad.clone());
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        let full = conv.backward(&x, &g).unwrap();
        assert_eq!(only, full);
        assert_eq!(params, (conv.weight.grad.clone(), conv.bias.grad.clone()));
    }

    #[test]
    fn param_count() {
        let conv = Layer::from(layer());
        // 3 filters × 2 channels × 3×3 + 3 biases
        assert_eq!(conv.param_count(), 3 * 2 * 9 + 3);
    }
}
