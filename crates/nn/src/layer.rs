use std::fmt::Debug;

use fademl_tensor::Tensor;

use crate::Result;

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

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros_like(&self.value);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// A neural-network layer with explicit forward and backward passes.
///
/// Two forward entry points exist:
///
/// - [`Layer::forward`] is pure inference — it takes `&self` and caches
///   nothing, so a shared model can serve concurrent evaluation threads.
/// - [`Layer::forward_train`] caches whatever the backward pass needs
///   and must precede every [`Layer::backward`] call.
///
/// [`Layer::backward`] consumes `∂L/∂output`, *accumulates* parameter
/// gradients into the layer's [`Param`]s, and returns `∂L/∂input`. The
/// returned input gradient is what both the optimizer chain and the
/// adversarial attacks are built on.
pub trait Layer: Debug + Send + Sync {
    /// Short static name, e.g. `"conv2d"` (used in error messages and
    /// model summaries).
    fn name(&self) -> &'static str;

    /// Pure inference pass; does not touch any cache.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&self, input: &Tensor) -> Result<Tensor>;

    /// Forward pass that caches activations for a following
    /// [`Layer::backward`] call.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`](crate::NnError::NoForwardCache)
    /// if no [`Layer::forward_train`] preceded this call, or a shape error
    /// if `grad_out` does not match the cached forward output.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for callers that only want `∂L/∂input` — an
    /// attack query differentiates with respect to the image, never the
    /// weights. The returned gradient is bit-identical to `backward`'s;
    /// whether parameter gradients are also accumulated is left to the
    /// layer (this default simply calls `backward`; layers whose
    /// parameter gradients cost real work skip them).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_input(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward(grad_out)
    }

    /// The layer's trainable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the trainable parameters, in the same order as
    /// [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Clones the layer into a boxed trait object (enables cloning whole
    /// models for parallel evaluation).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Zeroes all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters in this layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
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
    }
}
