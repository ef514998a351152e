use std::fmt;

use fademl_tensor::Tensor;

use crate::{Layer, NnError, Param, Result};

fn empty_model() -> NnError {
    NnError::InvalidConfig {
        reason: "cannot run forward on an empty model".into(),
    }
}

/// An ordered stack of layers forming a feed-forward network.
///
/// `Sequential` is the whole-model abstraction used everywhere in the
/// reproduction: the paper's VGGNet is a `Sequential` built by
/// [`vgg::VggConfig::build`](crate::vgg::VggConfig::build).
///
/// Cloning a `Sequential` deep-copies all weights, which is how the
/// experiment runner hands identical victims to parallel workers.
///
/// # Example
///
/// ```
/// use fademl_nn::{Dense, Relu, Sequential};
/// use fademl_tensor::{Tensor, TensorRng};
///
/// # fn main() -> Result<(), fademl_nn::NnError> {
/// let mut rng = TensorRng::seed_from_u64(0);
/// let model = Sequential::new()
///     .push(Dense::new(8, 16, &mut rng))
///     .push(Relu::new())
///     .push(Dense::new(16, 4, &mut rng));
/// let logits = model.forward(&Tensor::zeros(&[2, 8]))?;
/// assert_eq!(logits.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Pure inference pass producing logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty model or any layer
    /// error for incompatible shapes.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let (first, rest) = self.layers.split_first().ok_or_else(empty_model)?;
        let mut x = first.forward(input)?;
        for layer in rest {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Training forward pass (caches activations in every layer).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::forward`].
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let (first, rest) = self.layers.split_first_mut().ok_or_else(empty_model)?;
        let mut x = first.forward_train(input)?;
        for layer in rest {
            x = layer.forward_train(&x)?;
        }
        Ok(x)
    }

    /// Backward pass through the whole stack. Accumulates parameter
    /// gradients and returns `∂L/∂input` — the quantity adversarial
    /// attacks are built on.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if [`Sequential::forward_train`]
    /// did not precede this call.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<Tensor> {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// [`Sequential::backward`] through every layer's
    /// [`Layer::backward_input`]: the same `∂L/∂input`, bit for bit,
    /// without the ∂weight/∂bias products of the conv and dense layers.
    /// Parameter gradients are left in an unspecified state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::backward`].
    pub fn backward_input(&mut self, grad_logits: &Tensor) -> Result<Tensor> {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_input(&g)?;
        }
        Ok(g)
    }

    /// Softmax class probabilities `[n, classes]` for a batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::forward`].
    pub fn predict_proba(&self, input: &Tensor) -> Result<Tensor> {
        Ok(self.forward(input)?.softmax_rows()?)
    }

    /// Predicted class index per sample.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::forward`].
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>> {
        Ok(self.forward(input)?.argmax_rows()?)
    }

    /// All trainable parameters, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to all trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Clips the global L2 norm of all accumulated gradients to
    /// `max_norm`, scaling every gradient by the same factor when the
    /// combined norm exceeds it (the standard stabilizer for exploding
    /// gradients). Returns the pre-clip global norm.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive (a programming error in the
    /// training loop, not a data condition).
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        assert!(
            max_norm > 0.0 && max_norm.is_finite(),
            "max_norm must be positive and finite"
        );
        let total_sq: f32 = self.params().iter().map(|p| p.grad.norm_l2_squared()).sum();
        let total = total_sq.sqrt();
        if total > max_norm {
            let scale = max_norm / total;
            for p in self.params_mut() {
                p.grad = p.grad.scale(scale);
            }
        }
        total
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// A one-line-per-layer architecture summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            out.push_str(&format!(
                "{i:>2}: {:<12} params={}\n",
                layer.name(),
                layer.param_count()
            ));
        }
        out.push_str(&format!("total params: {}", self.param_count()));
        out
    }
}

impl FromIterator<Box<dyn Layer>> for Sequential {
    fn from_iter<I: IntoIterator<Item = Box<dyn Layer>>>(iter: I) -> Self {
        Sequential {
            layers: iter.into_iter().collect(),
        }
    }
}

impl Extend<Box<dyn Layer>> for Sequential {
    fn extend<I: IntoIterator<Item = Box<dyn Layer>>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

impl fmt::Debug for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sequential")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("param_count", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Flatten, Relu};
    use fademl_tensor::TensorRng;

    fn model() -> Sequential {
        let mut rng = TensorRng::seed_from_u64(3);
        Sequential::new()
            .push(Dense::new(6, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 3, &mut rng))
    }

    #[test]
    fn forward_chains_layers() {
        let m = model();
        let y = m.forward(&Tensor::zeros(&[2, 6])).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn empty_model_errors() {
        let mut m = Sequential::new();
        assert!(m.forward(&Tensor::zeros(&[1, 1])).is_err());
        assert!(m.forward_train(&Tensor::zeros(&[1, 1])).is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn forward_reads_its_argument_and_both_passes_agree() {
        let mut m = model();
        let x = TensorRng::seed_from_u64(4).uniform(&[3, 6], -1.0, 1.0);
        let before = x.clone();
        let y = m.forward(&x).unwrap();
        let y_train = m.forward_train(&x).unwrap();
        assert_eq!(x, before);
        assert_eq!(y, y_train);
    }

    #[test]
    fn backward_returns_input_grad() {
        let mut m = model();
        let mut rng = TensorRng::seed_from_u64(4);
        let x = rng.uniform(&[2, 6], -1.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        let gin = m.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
    }

    #[test]
    fn backward_input_matches_backward_bit_for_bit() {
        let mut rng = TensorRng::seed_from_u64(8);
        let mut m = crate::vgg::VggConfig::tiny(3, 16, 4)
            .build(&mut rng)
            .unwrap();
        let x = rng.uniform(&[2, 3, 16, 16], 0.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        let g = rng.uniform(y.dims(), -1.0, 1.0);
        let bits = |t: Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let only = bits(m.backward_input(&g).unwrap());
        // Conv and dense layers skipped their parameter gradients.
        assert!(m.params().iter().all(|p| p.grad.norm_l2() == 0.0));
        assert_eq!(only, bits(m.backward(&g).unwrap()));
    }

    #[test]
    fn whole_model_gradient_check() {
        let mut m = model();
        let mut rng = TensorRng::seed_from_u64(5);
        let x = rng.uniform(&[1, 6], -1.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        let gin = m.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric =
                (m.forward(&plus).unwrap().sum() - m.forward(&minus).unwrap().sum()) / (2.0 * eps);
            assert!(
                (numeric - gin.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                gin.as_slice()[idx]
            );
        }
    }

    #[test]
    fn predict_proba_is_distribution() {
        let m = model();
        let p = m.predict_proba(&Tensor::zeros(&[2, 6])).unwrap();
        for r in 0..2 {
            let sum: f32 = p.row(r).unwrap().as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn clone_is_deep() {
        let m = model();
        let mut m2 = m.clone();
        let x = Tensor::ones(&[1, 6]);
        let before = m.forward(&x).unwrap();
        // Mutate the clone's weights; original must be unaffected.
        m2.params_mut()[0].value.map_inplace(|w| w + 1.0);
        assert_eq!(m.forward(&x).unwrap(), before);
        assert_ne!(m2.forward(&x).unwrap(), before);
    }

    #[test]
    fn params_round_trip() {
        let mut m = model();
        assert_eq!(m.params().len(), 4); // 2 dense layers × (weight, bias)
        assert_eq!(m.param_count(), 6 * 8 + 8 + 8 * 3 + 3);
        m.zero_grad();
        assert!(m.params().iter().all(|p| p.grad.norm_l2() == 0.0));
    }

    #[test]
    fn clip_grad_norm_scales_down_not_up() {
        let mut m = model();
        let mut rng = TensorRng::seed_from_u64(6);
        let x = rng.uniform(&[2, 6], -1.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        m.backward(&Tensor::full(y.dims(), 100.0)).unwrap();
        let before = m.clip_grad_norm(1.0);
        assert!(before > 1.0, "test needs a large gradient, got {before}");
        // After clipping the global norm is exactly the cap.
        let after: f32 = m
            .params()
            .iter()
            .map(|p| p.grad.norm_l2_squared())
            .sum::<f32>()
            .sqrt();
        assert!((after - 1.0).abs() < 1e-4, "clipped norm {after}");
        // A norm already below the cap is untouched.
        let small_before = m.clip_grad_norm(10.0);
        let untouched: f32 = m
            .params()
            .iter()
            .map(|p| p.grad.norm_l2_squared())
            .sum::<f32>()
            .sqrt();
        assert!((untouched - small_before).abs() < 1e-5);
    }

    #[test]
    fn summary_mentions_layers() {
        let m = Sequential::new().push(Flatten::new());
        let s = m.summary();
        assert!(s.contains("flatten"));
        assert!(s.contains("total params"));
    }

    #[test]
    fn collects_and_extends_from_boxed_layers() {
        let mut rng = TensorRng::seed_from_u64(7);
        let layers: Vec<Box<dyn Layer>> =
            vec![Box::new(Dense::new(4, 8, &mut rng)), Box::new(Relu::new())];
        let mut m: Sequential = layers.into_iter().collect();
        assert_eq!(m.len(), 2);
        m.extend(std::iter::once(
            Box::new(Dense::new(8, 2, &mut rng)) as Box<dyn Layer>
        ));
        assert_eq!(m.len(), 3);
        assert_eq!(m.forward(&Tensor::zeros(&[1, 4])).unwrap().dims(), &[1, 2]);
    }

    #[test]
    fn model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sequential>();
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", model()).is_empty());
    }
}
