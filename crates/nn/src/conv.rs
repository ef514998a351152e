use fademl_tensor::{
    conv2d, conv2d_backward, conv2d_backward_input, conv2d_backward_params, conv2d_relu, ConvSpec,
    Initializer, Tensor, TensorRng,
};

use crate::{Layer, NnError, Param, Result};

/// A 2-D convolution layer (NCHW, square kernels).
///
/// Weights are Kaiming-normal initialized — appropriate for the ReLU
/// stack the paper's VGGNet uses.
///
/// # Example
///
/// ```
/// use fademl_nn::{Conv2d, Layer};
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
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
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
            cached_input: None,
        }
    }

    /// The layer's geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The input the backward pass differentiates at.
    fn input(&self) -> Result<&Tensor> {
        self.cached_input
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "conv2d" })
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
        )?)
    }

    fn forward_relu(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d_relu(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
        )?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cached_input = None;
        self.forward(input)
    }

    fn forward_train_relu(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cached_input = None;
        self.forward_relu(input)
    }

    fn keeps_input(&self) -> bool {
        true
    }

    fn keep_input(&mut self, input: Tensor) {
        self.cached_input = Some(input);
    }

    fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let grads = conv2d_backward(self.input()?, &self.weight.value, &grad_out, &self.spec)?;
        self.weight.grad.add_scaled_inplace(&grads.weight, 1.0)?;
        self.bias.grad.add_scaled_inplace(&grads.bias, 1.0)?;
        Ok(grads.input)
    }

    fn backward_input(&mut self, grad_out: Tensor) -> Result<Tensor> {
        Ok(conv2d_backward_input(
            self.input()?,
            &self.weight.value,
            &grad_out,
            &self.spec,
        )?)
    }

    fn backward_params(&mut self, grad_out: Tensor) -> Result<()> {
        let (weight, bias) = conv2d_backward_params(self.input()?, &grad_out, &self.spec)?;
        self.weight.grad.add_scaled_inplace(&weight, 1.0)?;
        self.bias.grad.add_scaled_inplace(&bias, 1.0)?;
        Ok(())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::train_forward;

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
    fn backward_without_forward_errors() {
        let mut conv = layer();
        let err = conv.backward(Tensor::zeros(&[1, 3, 8, 8])).unwrap_err();
        assert!(matches!(err, NnError::NoForwardCache { .. }));
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut conv = layer();
        let mut rng = TensorRng::seed_from_u64(2);
        let x = rng.uniform(&[1, 2, 6, 6], -1.0, 1.0);
        let y = train_forward(&mut conv, &x);
        let gin = conv.backward(Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(conv.params()[0].grad.norm_l2() > 0.0);
        assert!(conv.params()[1].grad.norm_l2() > 0.0);
        // Second backward accumulates (doubles) the gradient.
        let w_grad_once = conv.params()[0].grad.clone();
        train_forward(&mut conv, &x);
        conv.backward(Tensor::ones(y.dims())).unwrap();
        let doubled = w_grad_once.scale(2.0);
        for (a, b) in conv.params()[0]
            .grad
            .as_slice()
            .iter()
            .zip(doubled.as_slice())
        {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_input_matches_backward_and_leaves_param_grads_alone() {
        let mut conv = layer();
        let mut rng = TensorRng::seed_from_u64(4);
        let x = rng.uniform(&[2, 2, 6, 6], -1.0, 1.0);
        let y = train_forward(&mut conv, &x);
        let g = rng.uniform(y.dims(), -1.0, 1.0);
        let only = conv.backward_input(g.clone()).unwrap();
        assert_eq!(conv.params()[0].grad.norm_l2(), 0.0);
        assert_eq!(conv.params()[1].grad.norm_l2(), 0.0);
        let full = conv.backward(g.clone()).unwrap();
        assert_eq!(only, full);
        let mut cold = layer();
        assert!(matches!(
            cold.backward_input(g.clone()),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn zero_grad_clears() {
        let mut conv = layer();
        let x = Tensor::ones(&[1, 2, 6, 6]);
        let y = train_forward(&mut conv, &x);
        conv.backward(Tensor::ones(y.dims())).unwrap();
        conv.zero_grad();
        assert_eq!(conv.params()[0].grad.norm_l2(), 0.0);
    }

    #[test]
    fn inference_matches_train_forward() {
        let mut conv = layer();
        let mut rng = TensorRng::seed_from_u64(3);
        let x = rng.uniform(&[1, 2, 5, 5], -1.0, 1.0);
        let pure = conv.forward(&x).unwrap();
        let train = train_forward(&mut conv, &x);
        assert_eq!(pure, train);
    }

    #[test]
    fn param_count() {
        let conv = layer();
        // 3 filters × 2 channels × 3×3 + 3 biases
        assert_eq!(conv.param_count(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn clone_box_preserves_weights() {
        let conv = layer();
        let cloned = conv.clone_box();
        let x = Tensor::ones(&[1, 2, 5, 5]);
        assert_eq!(conv.forward(&x).unwrap(), cloned.forward(&x).unwrap());
    }
}
