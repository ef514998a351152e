use std::fmt;

use fademl_tensor::plan::alloc;
use fademl_tensor::{max_pool2d, max_pool2d_backward, Tensor};

use crate::activation::relu_backward;
use crate::flatten::flatten_owned;
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
/// use fademl_nn::{Dense, Layer, Sequential};
/// use fademl_tensor::{Tensor, TensorRng};
///
/// # fn main() -> Result<(), fademl_nn::NnError> {
/// let mut rng = TensorRng::seed_from_u64(0);
/// let model = Sequential::new()
///     .push(Dense::new(8, 16, &mut rng))
///     .push(Layer::Relu)
///     .push(Dense::new(16, 4, &mut rng));
/// let logits = model.forward(&Tensor::zeros(&[2, 8]))?;
/// assert_eq!(logits.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Layer>,
    tape: Tape,
}

/// What [`Sequential::forward_train`] keeps for the backward passes:
/// one entry per layer, in order, so it covers the model only after a
/// whole training forward.
#[derive(Debug, Clone, Default)]
struct Tape(Vec<Saved>);

/// One layer's entry on the [`Tape`].
#[derive(Debug, Clone)]
struct Saved {
    /// The layer's input, moved in once the layer has read it. A
    /// convolution's output under a fused ReLU is never stored: that
    /// ReLU's entry is `None`, and it masks by its output, the next
    /// layer's input.
    input: Option<Tensor>,
    /// A max-pool's argmax; empty for every other layer.
    argmax: Vec<usize>,
}

impl Tape {
    /// The input layer `k` (named `layer`) read in the last training
    /// forward.
    fn input(&self, k: usize, layer: &'static str) -> Result<&Tensor> {
        self.0
            .get(k)
            .and_then(|saved| saved.input.as_ref())
            .ok_or(NnError::NoForwardCache { layer })
    }

    /// Layer `k`'s `∂L/∂input` from its `∂L/∂output`, without parameter
    /// gradients.
    fn grad_input(&self, k: usize, layer: &Layer, grad: Tensor) -> Result<Tensor> {
        let input = || self.input(k, layer.name());
        match layer {
            Layer::Conv2d(conv) => conv.backward_input(input()?, &grad),
            // Fused, the ReLU masks by its output: the next input.
            Layer::Relu => relu_backward(grad, input().or_else(|_| self.input(k + 1, "relu"))?),
            Layer::MaxPool2d(_) => {
                let argmax = self.0.get(k).map_or(&[][..], |saved| &saved.argmax);
                Ok(max_pool2d_backward(&grad, argmax, input()?.shape())?)
            }
            Layer::Flatten => Ok(Tensor::from_vec(grad.into_vec(), input()?.shape().clone())?),
            Layer::Dense(dense) => dense.backward_input(&grad),
        }
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Into<Layer>) -> Self {
        self.layers.push(layer.into());
        self
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
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Pure inference pass producing logits, bit for bit the
    /// layer-by-layer [`Layer::forward`] loop: a [`Layer::Conv2d`]
    /// followed by a [`Layer::Relu`] runs as one
    /// [`Conv2d::forward_relu`](crate::Conv2d::forward_relu), a
    /// [`Layer::Flatten`] relabels the activation it is handed, and each
    /// other intermediate activation goes back to this thread's
    /// activation list (DESIGN.md §18.3) once the next layer has read it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty model or any layer
    /// error for incompatible shapes.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let mut rest = self.layers.as_slice();
        let mut x: Option<Tensor> = None;
        loop {
            let src = x.as_ref().unwrap_or(input);
            let (y, tail) = match rest {
                [Layer::Conv2d(conv), Layer::Relu, tail @ ..] => (conv.forward_relu(src)?, tail),
                [Layer::Flatten, tail @ ..] => (
                    flatten_owned(x.take().unwrap_or_else(|| input.clone()))?,
                    tail,
                ),
                [layer, tail @ ..] => (layer.forward(src)?, tail),
                [] => break,
            };
            if let Some(read) = x.replace(y) {
                alloc::recycle_activation(read.into_vec());
            }
            rest = tail;
        }
        x.ok_or_else(empty_model)
    }

    /// Training forward pass: the same values as [`Sequential::forward`],
    /// bit for bit, and the tape the backward passes read. Each layer's
    /// input moves onto the tape once the layer has read it, beside each
    /// max-pool's argmax; nothing is copied. A [`Layer::Conv2d`] followed
    /// by a [`Layer::Relu`] runs fused when another layer follows them,
    /// whose input is the ReLU's output and gives the ReLU its mask. The
    /// tape is cleared first, so a failed call leaves it short.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::forward`].
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.tape.0.clear();
        if self.layers.is_empty() {
            return Err(empty_model());
        }
        let mut rest = self.layers.as_slice();
        let mut x = input.clone();
        loop {
            let (y, argmax, tail) = match rest {
                [Layer::Conv2d(conv), Layer::Relu, tail @ ..] if !tail.is_empty() => {
                    (conv.forward_relu(&x)?, Vec::new(), tail)
                }
                [Layer::MaxPool2d(spec), tail @ ..] => {
                    let pooled = max_pool2d(&x, spec)?;
                    (pooled.output, pooled.argmax, tail)
                }
                [layer, tail @ ..] => (layer.forward(&x)?, Vec::new(), tail),
                [] => break,
            };
            let read = std::mem::replace(&mut x, y);
            self.tape.0.push(Saved {
                input: Some(read),
                argmax,
            });
            // A fused pair: the ReLU masks by `x`, the next layer's input.
            if rest.len() - tail.len() == 2 {
                self.tape.0.push(Saved {
                    input: None,
                    argmax: Vec::new(),
                });
            }
            rest = tail;
        }
        Ok(x)
    }

    /// Errors unless the last [`Sequential::forward_train`] ran every
    /// layer: checked before a backward pass touches any [`Param`].
    fn check_tape(&self) -> Result<()> {
        let covered = self.tape.0.len();
        if covered == self.layers.len() {
            return Ok(());
        }
        Err(NnError::NoForwardCache {
            layer: self.layers.get(covered).map_or("sequential", Layer::name),
        })
    }

    /// Backward pass through the whole stack: accumulates every
    /// parameter gradient. The first layer computes only its parameter
    /// gradients, so `∂L/∂input` — which a training step never reads —
    /// is not computed; [`Sequential::backward_input`] is the pass that
    /// returns it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`], before any gradient moves,
    /// unless a [`Sequential::forward_train`] ran every layer since the
    /// last failed one.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        self.check_tape()?;
        let Sequential { layers, tape } = self;
        let mut g = grad_logits.clone();
        for (k, layer) in layers.iter_mut().enumerate().rev() {
            g = match layer {
                Layer::Conv2d(conv) if k == 0 => {
                    return conv.backward_params(tape.input(k, "conv2d")?, &g)
                }
                Layer::Dense(dense) if k == 0 => {
                    return dense.backward_params(tape.input(k, "dense")?, &g)
                }
                Layer::Conv2d(conv) => conv.backward(tape.input(k, "conv2d")?, &g)?,
                Layer::Dense(dense) => dense.backward(tape.input(k, "dense")?, &g)?,
                _ if k == 0 => break,
                layer => tape.grad_input(k, layer, g)?,
            };
        }
        Ok(())
    }

    /// `∂L/∂input` through every layer — the quantity adversarial
    /// attacks are built on — without the ∂weight/∂bias products of the
    /// conv and dense layers, which it leaves as they are.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::backward`].
    pub fn backward_input(&self, grad_logits: &Tensor) -> Result<Tensor> {
        self.check_tape()?;
        let mut g = grad_logits.clone();
        for (k, layer) in self.layers.iter().enumerate().rev() {
            g = self.tape.grad_input(k, layer, g)?;
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
        self.layers
            .iter()
            .filter_map(Layer::params)
            .flatten()
            .collect()
    }

    /// Mutable access to all trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .filter_map(Layer::params_mut)
            .flatten()
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
            for p in self
                .layers
                .iter_mut()
                .filter_map(Layer::grads_mut)
                .flatten()
            {
                p.grad = p.grad.scale(scale);
            }
        }
        total
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.grads_mut().into_iter().flatten() {
                p.zero_grad();
            }
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

/// Checks that a model of `layer` alone refuses both backward passes
/// before any training forward, naming the layer.
#[cfg(test)]
pub(crate) fn assert_backward_requires_forward(layer: Layer, grad_dims: &[usize]) {
    let name = layer.name();
    let mut m = Sequential::new().push(layer);
    let g = Tensor::zeros(grad_dims);
    for err in [
        m.backward_input(&g).unwrap_err(),
        m.backward(&g).unwrap_err(),
    ] {
        assert!(
            matches!(err, NnError::NoForwardCache { layer } if layer == name),
            "{err}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vgg::{VggConfig, VggProfile};
    use crate::{Conv2d, Dense};
    use fademl_tensor::{ConvSpec, PoolSpec, TensorRng};

    fn model() -> Sequential {
        let mut rng = TensorRng::seed_from_u64(3);
        Sequential::new()
            .push(Dense::new(6, 8, &mut rng))
            .push(Layer::Relu)
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
        let m = VggConfig::new(VggProfile::Compact, 3, 32, 43)
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
            .push(Conv2d::new(ConvSpec::new(3, 4, 3, 1, 1), &mut rng))
            .push(Layer::Relu)
            .push(Layer::MaxPool2d(PoolSpec::half()))
            .push(Layer::Flatten)
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
    /// before it, inputs moved onto one tape, and the first layer
    /// skipped its `∂L/∂input`: every layer's own forward, its input
    /// kept as a copy, then every layer's full backward, the ReLU
    /// masking by its input. Returns that `∂L/∂input` and every
    /// parameter gradient.
    fn layer_by_layer_step(m: &mut Sequential, x: &Tensor, g: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut inputs = Vec::new();
        let mut argmax = Vec::new();
        let mut x = x.clone();
        for layer in &m.layers {
            inputs.push(x.clone());
            x = match layer {
                Layer::MaxPool2d(spec) => {
                    let pooled = max_pool2d(&x, spec).unwrap();
                    argmax.push(pooled.argmax);
                    pooled.output
                }
                layer => layer.forward(&x).unwrap(),
            };
        }
        let mut g = g.clone();
        for (layer, input) in m.layers.iter_mut().zip(&inputs).rev() {
            g = match layer {
                Layer::Conv2d(conv) => conv.backward(input, &g).unwrap(),
                Layer::Relu => relu_backward(g, input).unwrap(),
                Layer::MaxPool2d(_) => {
                    max_pool2d_backward(&g, &argmax.pop().unwrap(), input.shape()).unwrap()
                }
                Layer::Flatten => g.reshape(input.dims()).unwrap(),
                Layer::Dense(dense) => dense.backward(input, &g).unwrap(),
            };
        }
        (g, m.params().iter().map(|p| p.grad.clone()).collect())
    }

    #[test]
    fn backward_input_matches_backward_bit_for_bit() {
        let mut rng = TensorRng::seed_from_u64(8);
        for (mut m, dims) in [
            (
                VggConfig::tiny(3, 16, 4).build(&mut rng).unwrap(),
                vec![2, 3, 16, 16],
            ),
            (
                VggConfig::new(VggProfile::Compact, 3, 32, 43)
                    .build(&mut rng)
                    .unwrap(),
                vec![3, 3, 32, 32],
            ),
            (model(), vec![3, 6]),
            // A fused pair feeding a convolution, and a ReLU that ends
            // the model and so runs unfused.
            (
                Sequential::new()
                    .push(Conv2d::new(ConvSpec::new(3, 4, 3, 1, 1), &mut rng))
                    .push(Layer::Relu)
                    .push(Conv2d::new(ConvSpec::new(4, 2, 3, 1, 0), &mut rng))
                    .push(Layer::Relu),
                vec![2, 3, 7, 7],
            ),
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
            let mut m = VggConfig::new(VggProfile::Compact, 3, 32, 43)
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
        let m = Sequential::new().push(Layer::Flatten);
        let s = m.summary();
        assert!(s.contains("flatten"));
        assert!(s.contains("total params"));
    }

    #[test]
    fn a_failed_training_forward_leaves_every_gradient_alone() {
        let mut rng = TensorRng::seed_from_u64(10);
        let mut m = VggConfig::tiny(3, 16, 4).build(&mut rng).unwrap();
        let x = rng.uniform(&[2, 3, 16, 16], 0.0, 1.0);
        let y = m.forward_train(&x).unwrap();
        m.backward(&Tensor::ones(y.dims())).unwrap();
        m.zero_grad();
        // One channel where the first convolution wants three.
        assert!(m
            .forward_train(&rng.uniform(&[2, 1, 16, 16], 0.0, 1.0))
            .is_err());
        let g = Tensor::ones(y.dims());
        for err in [
            m.backward(&g).unwrap_err(),
            m.backward_input(&g).unwrap_err(),
        ] {
            assert!(
                matches!(err, NnError::NoForwardCache { layer: "conv2d" }),
                "{err}"
            );
        }
        let moved: Vec<usize> = (0..m.params().len())
            .filter(|&i| m.params()[i].grad.norm_l2() != 0.0)
            .collect();
        assert!(
            moved.is_empty(),
            "gradients {moved:?} picked up a stale batch"
        );
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
