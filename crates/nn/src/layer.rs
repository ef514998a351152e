use fademl_tensor::{max_pool2d_values, PoolSpec, Tensor};

use crate::flatten::flat_dims;
use crate::{Conv2d, Dense, Result};

/// A trainable parameter: its value and the gradient accumulated by the
/// most recent backward pass(es).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros_like(&value);
        Param { value, grad }
    }

    /// Resets the accumulated gradient to zero, in place when it already
    /// has the value's shape.
    pub fn zero_grad(&mut self) {
        if self.grad.shape() == self.value.shape() {
            self.grad.as_mut_slice().fill(0.0);
        } else {
            self.grad = Tensor::zeros_like(&self.value);
        }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// One layer of a [`Sequential`](crate::Sequential) model: the five
/// kinds the paper's VGGNet is built from.
///
/// A layer holds its geometry and parameters, nothing else. What a
/// backward pass reads — inputs, a max-pool's argmax — lives on the
/// model's training tape, written by
/// [`Sequential::forward_train`](crate::Sequential::forward_train).
#[derive(Debug, Clone)]
pub enum Layer {
    /// A 2-D convolution.
    Conv2d(Conv2d),
    /// Rectified linear unit: `y = max(x, 0)` elementwise.
    Relu,
    /// A 2-D max-pool over NCHW input with the given geometry.
    MaxPool2d(PoolSpec),
    /// Flattens all non-batch dimensions: `[n, d...] → [n, Πd]`.
    Flatten,
    /// A fully-connected layer.
    Dense(Dense),
}

impl From<Conv2d> for Layer {
    fn from(conv: Conv2d) -> Self {
        Layer::Conv2d(conv)
    }
}

impl From<Dense> for Layer {
    fn from(dense: Dense) -> Self {
        Layer::Dense(dense)
    }
}

impl Layer {
    /// Short static name, e.g. `"conv2d"` (used in error messages and
    /// model summaries).
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::Relu => "relu",
            Layer::MaxPool2d(_) => "max_pool2d",
            Layer::Flatten => "flatten",
            Layer::Dense(_) => "dense",
        }
    }

    /// Pure inference pass.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(conv) => conv.forward(input),
            Layer::Relu => Ok(input.relu()),
            Layer::MaxPool2d(spec) => Ok(max_pool2d_values(input, spec)?),
            Layer::Flatten => Ok(input.reshape(&flat_dims(input)?)?),
            Layer::Dense(dense) => dense.forward(input),
        }
    }

    /// The weight and bias of a convolution or dense layer.
    pub(crate) fn params(&self) -> Option<[&Param; 2]> {
        match self {
            Layer::Conv2d(Conv2d { weight, bias, .. })
            | Layer::Dense(Dense { weight, bias, .. }) => Some([weight, bias]),
            _ => None,
        }
    }

    /// [`Layer::params`], mutably: the one path through which a weight
    /// changes (optimizer steps, checkpoint and weight loads), so it
    /// drops a convolution's kept weight transpose.
    pub(crate) fn params_mut(&mut self) -> Option<[&mut Param; 2]> {
        if let Layer::Conv2d(conv) = self {
            conv.weight_t.reset();
        }
        self.grads_mut()
    }

    /// The weight and bias for their gradients alone: the kept weight
    /// transpose stays.
    pub(crate) fn grads_mut(&mut self) -> Option<[&mut Param; 2]> {
        match self {
            Layer::Conv2d(Conv2d { weight, bias, .. })
            | Layer::Dense(Dense { weight, bias, .. }) => Some([weight, bias]),
            _ => None,
        }
    }

    /// Number of scalar parameters in this layer.
    pub fn param_count(&self) -> usize {
        self.params()
            .map_or(0, |[weight, bias]| weight.numel() + bias.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad, Tensor::zeros(&[2, 3]));
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::full(&[2], 5.0);
        p.zero_grad();
        assert_eq!(p.grad, Tensor::zeros(&[2]));
        // A value reshaped under its gradient gets a gradient of its shape.
        p.value = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad, Tensor::zeros(&[3]));
    }
}
