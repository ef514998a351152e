use std::fmt;

use fademl_tensor::plan::alloc;
use fademl_tensor::Tensor;

use crate::{Layer, NnError, Param, Relu, Result};

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

    /// Pure inference pass producing logits, bit for bit the
    /// layer-by-layer [`Layer::forward`] loop: a layer followed by a
    /// [`Relu`] runs as one [`Layer::forward_relu`], and each
    /// intermediate activation goes back to this thread's activation
    /// list (DESIGN.md §18.3) once the next layer has read it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty model or any layer
    /// error for incompatible shapes.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let mut layers = self.layers.iter().peekable();
        let mut x: Option<Tensor> = None;
        while let Some(layer) = layers.next() {
            let src = x.as_ref().unwrap_or(input);
            let y = if layers.next_if(|next| next.name() == Relu::NAME).is_some() {
                layer.forward_relu(src)?
            } else {
                layer.forward(src)?
            };
            if let Some(read) = x.replace(y) {
                alloc::recycle_activation(read.into_vec());
            }
        }
        x.ok_or_else(empty_model)
    }

    /// Training forward pass: every layer caches what its backward
    /// reads. As in [`Sequential::forward`], a layer followed by a
    /// [`Relu`] runs as one [`Layer::forward_train_relu`]. Each
    /// activation, once the next layer has read it, moves into the
    /// cache of the layers whose backward reads it — that next layer's
    /// input ([`Layer::keeps_input`]) and a fused ReLU's output — and is
    /// copied only when both want it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::forward`].
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(empty_model());
        }
        let mut layers = self.layers.iter_mut().peekable();
        let mut x = input.clone();
        // The ReLU fused into the layer that wrote `x`.
        let mut fused: Option<&mut Box<dyn Layer>> = None;
        while let Some(layer) = layers.next() {
            let relu = layers.next_if(|next| next.name() == Relu::NAME);
            let y = if relu.is_some() {
                layer.forward_train_relu(&x)?
            } else {
                layer.forward_train(&x)?
            };
            let read = std::mem::replace(&mut x, y);
            match (fused.take(), layer.keeps_input()) {
                (Some(relu), true) => {
                    relu.keep_input(read.clone());
                    layer.keep_input(read);
                }
                (Some(relu), false) => relu.keep_input(read),
                (None, true) => layer.keep_input(read),
                (None, false) => {}
            }
            fused = relu;
        }
        if let Some(relu) = fused {
            relu.keep_input(x.clone());
        }
        Ok(x)
    }

    /// Backward pass through the whole stack: accumulates every
    /// parameter gradient. The first layer runs
    /// [`Layer::backward_params`], so `∂L/∂input` — which a training
    /// step never reads — is not computed; [`Sequential::backward_input`]
    /// is the pass that returns it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if [`Sequential::forward_train`]
    /// did not precede this call.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = grad_logits.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(g)?;
        }
        first.backward_params(g)
    }

    /// `∂L/∂input` through every layer's [`Layer::backward_input`] — the
    /// quantity adversarial attacks are built on — without the
    /// ∂weight/∂bias products of the conv and dense layers. Parameter
    /// gradients are left in an unspecified state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::backward`].
    pub fn backward_input(&mut self, grad_logits: &Tensor) -> Result<Tensor> {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_input(g)?;
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The loop `forward` was before it fused the ReLU and recycled its
    /// activations: every layer on its own, every output fresh.
    fn layer_by_layer(m: &Sequential, x: &Tensor) -> Tensor {
        let mut x = x.clone();
        for layer in m.layers() {
            x = layer.forward(&x).unwrap();
        }
        x
    }

    #[test]
    fn forward_equals_the_layer_by_layer_loop_bit_for_bit() {
        let mut rng = TensorRng::seed_from_u64(12);
        let m = crate::vgg::VggConfig::new(crate::vgg::VggProfile::Compact, 3, 32, 43)
            .build(&mut rng)
            .unwrap();
        // b1, b16 and b20, then b16 → b1 → b20 → b16 on this one thread:
        // every later call draws its activations from buffers an earlier
        // batch size left behind, so a value it failed to overwrite would
        // show here.
        for n in [1, 16, 20, 16, 1, 20, 16] {
            let x = rng.uniform(&[n, 3, 32, 32], 0.0, 1.0);
            let want = bits(&layer_by_layer(&m, &x));
            assert_eq!(bits(&m.forward(&x).unwrap()), want, "batch of {n}");
        }
    }

    #[test]
    fn forward_equals_the_layer_by_layer_loop_on_nan_logits() {
        // One +∞ pixel: the convolution spreads it with each weight's
        // sign, the ReLU keeps the +∞ (and turns NaN into 0), and the
        // dense layer's mixed-sign weights make the logits NaN.
        let mut rng = TensorRng::seed_from_u64(13);
        let m = Sequential::new()
            .push(crate::Conv2d::new(
                fademl_tensor::ConvSpec::new(3, 4, 3, 1, 1),
                &mut rng,
            ))
            .push(Relu::new())
            .push(crate::MaxPool2d::half())
            .push(Flatten::new())
            .push(Dense::new(4 * 4 * 4, 5, &mut rng));
        let mut x = rng.uniform(&[2, 3, 8, 8], -1.0, 1.0);
        x.as_mut_slice()[3 * 64 + 27] = f32::INFINITY;
        let want = layer_by_layer(&m, &x);
        assert!(want.as_slice().iter().any(|v| v.is_nan()), "logits not NaN");
        let got = m.forward(&x).unwrap();
        assert_eq!(got.dims(), want.dims());
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{g} vs {w}"
            );
        }
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
    fn backward_input_returns_input_grad() {
        let mut m = model();
        let mut rng = TensorRng::seed_from_u64(4);
        let x = rng.uniform(&[2, 6], -1.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        let gin = m.backward_input(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
    }

    /// The training step as it was before ReLU fused into the layer
    /// before it, caches moved, and the first layer skipped its
    /// `∂L/∂input`: every layer's own training forward, its input
    /// handed over as a copy, then every layer's full backward. Returns
    /// that `∂L/∂input` and every parameter gradient.
    fn layer_by_layer_step(m: &mut Sequential, x: &Tensor, g: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut x = x.clone();
        for layer in &mut m.layers {
            x = crate::layer::train_forward(layer.as_mut(), &x);
        }
        let mut g = g.clone();
        for layer in m.layers.iter_mut().rev() {
            g = layer.backward(g).unwrap();
        }
        (g, m.params().iter().map(|p| p.grad.clone()).collect())
    }

    #[test]
    fn backward_input_matches_backward_bit_for_bit() {
        let mut rng = TensorRng::seed_from_u64(8);
        for (mut m, dims) in [
            (
                crate::vgg::VggConfig::tiny(3, 16, 4)
                    .build(&mut rng)
                    .unwrap(),
                vec![2, 3, 16, 16],
            ),
            (
                crate::vgg::VggConfig::new(crate::vgg::VggProfile::Compact, 3, 32, 43)
                    .build(&mut rng)
                    .unwrap(),
                vec![3, 3, 32, 32],
            ),
            (model(), vec![3, 6]),
        ] {
            let x = rng.uniform(&dims, -0.5, 1.0);
            let y = m.forward_train(&x).unwrap();
            let g = rng.uniform(y.dims(), -1.0, 1.0);
            let only = bits(&m.backward_input(&g).unwrap());
            // Conv and dense layers skipped their parameter gradients.
            assert!(m.params().iter().all(|p| p.grad.norm_l2() == 0.0));
            m.zero_grad();
            m.forward_train(&x).unwrap();
            m.backward(&g).unwrap();
            let fused: Vec<Vec<u32>> = m.params().iter().map(|p| bits(&p.grad)).collect();
            m.zero_grad();
            let (input_grad, param_grads) = layer_by_layer_step(&mut m, &x, &g);
            assert_eq!(only, bits(&input_grad), "∂input of {dims:?}");
            let want: Vec<Vec<u32>> = param_grads.iter().map(bits).collect();
            assert_eq!(fused, want, "parameter gradients of {dims:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Each sample's `∂L/∂input` does not know its neighbours: row
        /// `i` of a batched `backward_input` on the Compact victim is the
        /// batch-1 call on sample `i`, bit for bit, on every kernel
        /// instantiation — at batches that fill one fused ∂input tile
        /// partway (2, 5), whole (16) and past it (33).
        #[test]
        fn backward_input_rows_equal_single_sample_calls(seed in 0u64..10_000, pick in 0usize..4) {
            let n = [2, 5, 16, 33][pick];
            let mut rng = TensorRng::seed_from_u64(seed);
            let mut m = crate::vgg::VggConfig::new(crate::vgg::VggProfile::Compact, 3, 32, 43)
                .build(&mut rng)
                .unwrap();
            let x = rng.uniform(&[n, 3, 32, 32], 0.0, 1.0);
            let g = rng.uniform(&[n, 43], -1.0, 1.0);
            for isa in fademl_tensor::simd::available() {
                proptest::prop_assert!(fademl_tensor::simd::pin(Some(isa)));
                m.forward_train(&x).unwrap();
                let batched = m.backward_input(&g).unwrap();
                for i in 0..n {
                    let one = x.index_batch(i).unwrap().unsqueeze_batch();
                    m.forward_train(&one).unwrap();
                    let g_one = g.row(i).unwrap().unsqueeze_batch();
                    let single = m.backward_input(&g_one).unwrap();
                    let row = batched.index_batch(i).unwrap().unsqueeze_batch();
                    proptest::prop_assert_eq!(bits(&row), bits(&single), "row {} of b{} on {:?}", i, n, isa);
                }
            }
            fademl_tensor::simd::pin(None);
        }
    }

    #[test]
    fn whole_model_gradient_check() {
        let mut m = model();
        let mut rng = TensorRng::seed_from_u64(5);
        let x = rng.uniform(&[1, 6], -1.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        let gin = m.backward_input(&Tensor::ones(y.dims())).unwrap();
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
