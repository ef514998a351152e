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

/// A neural-network layer with explicit forward and backward passes.
///
/// Two forward entry points exist:
///
/// - [`Layer::forward`] is pure inference — it takes `&self` and caches
///   nothing, so a shared model can serve concurrent evaluation threads.
/// - [`Layer::forward_train`] caches whatever the backward pass needs
///   apart from the input itself, and must precede every backward call.
///   A layer whose backward reads its input says so
///   ([`Layer::keeps_input`]) and is handed the input afterwards
///   ([`Layer::keep_input`]) — moved, not copied, once nothing later
///   reads it. [`Sequential`](crate::Sequential) does that hand-off.
///
/// [`Layer::backward`] consumes `∂L/∂output`, *accumulates* parameter
/// gradients into the layer's [`Param`]s, and returns `∂L/∂input`.
/// [`Layer::backward_input`] returns only `∂L/∂input` — what attacks are
/// built on — and [`Layer::backward_params`] only accumulates the
/// parameter gradients — what the first layer of a training step needs.
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

    /// [`Layer::forward`] then a ReLU, bit for bit: what
    /// [`Sequential::forward`](crate::Sequential::forward) runs when a
    /// [`Relu`](crate::Relu) follows. `Conv2d` clamps as it stores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::forward`].
    fn forward_relu(&self, input: &Tensor) -> Result<Tensor> {
        Ok(self.forward(input)?.relu())
    }

    /// Forward pass that caches what a following backward call needs,
    /// except the input: that comes through [`Layer::keep_input`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor>;

    /// [`Layer::forward_train`] then a ReLU, bit for bit: what
    /// [`Sequential::forward_train`](crate::Sequential::forward_train)
    /// runs when a [`Relu`](crate::Relu) follows. `Conv2d` clamps as it
    /// stores; the default clamps in place.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::forward_train`].
    fn forward_train_relu(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut out = self.forward_train(input)?;
        out.map_inplace(|x| x.max(0.0));
        Ok(out)
    }

    /// Whether the backward pass reads the input of the last
    /// [`Layer::forward_train`], so that it must be handed over through
    /// [`Layer::keep_input`].
    fn keeps_input(&self) -> bool {
        false
    }

    /// Takes the input the last [`Layer::forward_train`] read, for the
    /// backward pass. Layers whose [`Layer::keeps_input`] is `false` drop
    /// it.
    fn keep_input(&mut self, input: Tensor) {
        drop(input);
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the layer input. `grad_out` is taken by
    /// value, so a layer may compute in place.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`](crate::NnError::NoForwardCache)
    /// if no [`Layer::forward_train`] preceded this call, or a shape error
    /// if `grad_out` does not match the cached forward output.
    fn backward(&mut self, grad_out: Tensor) -> Result<Tensor>;

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
    fn backward_input(&mut self, grad_out: Tensor) -> Result<Tensor> {
        self.backward(grad_out)
    }

    /// [`Layer::backward`] for the first layer of a training step, whose
    /// `∂L/∂input` nothing reads: accumulates the same parameter
    /// gradients, bit for bit. This default calls `backward` and drops
    /// its result; layers whose input gradient costs real work skip it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_params(&mut self, grad_out: Tensor) -> Result<()> {
        self.backward(grad_out).map(drop)
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

/// What [`Sequential::forward_train`](crate::Sequential::forward_train)
/// does for one unfused layer: the training forward, then the input
/// handed over.
#[cfg(test)]
pub(crate) fn train_forward(layer: &mut dyn Layer, input: &Tensor) -> Tensor {
    let out = layer.forward_train(input).expect("training forward");
    layer.keep_input(input.clone());
    out
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
