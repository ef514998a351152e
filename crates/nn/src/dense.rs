use fademl_tensor::{Initializer, Shape, Tensor, TensorError, TensorRng};

use crate::{Layer, NnError, Param, Result};

/// A fully-connected layer: `y = x·Wᵀ + b` over `[batch, in] → [batch, out]`.
///
/// The weight is stored `[out, in]` (one row per output unit), the bias
/// `[out]`.
///
/// # Example
///
/// ```
/// use fademl_nn::{Dense, Layer};
/// use fademl_tensor::{Tensor, TensorRng};
///
/// # fn main() -> Result<(), fademl_nn::NnError> {
/// let mut rng = TensorRng::seed_from_u64(0);
/// let fc = Dense::new(64, 43, &mut rng); // the paper's classification head
/// let logits = fc.forward(&Tensor::zeros(&[2, 64]))?;
/// assert_eq!(logits.dims(), &[2, 43]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero biases.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = rng.init(
            &[out_features, in_features],
            Initializer::XavierUniform {
                fan_in: in_features,
                fan_out: out_features,
            },
        );
        Dense {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if !matches!(*input.dims(), [_, f] if f == self.in_features) {
            return Err(NnError::Tensor(TensorError::shape_mismatch(
                "dense",
                input.dims(),
                &[self.in_features],
            )));
        }
        Ok(())
    }

    /// Adds this batch's `∂W = gᵀ·x` and `∂b = Σ g` onto the gradients.
    fn accumulate_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "dense" })?;
        self.check_grad(grad_out)?;
        // ∂W = gᵀ·x  ([out, n] × [n, in]).
        let grad_w = grad_out.matmul_tn(input)?;
        self.weight.grad.add_scaled_inplace(&grad_w, 1.0)?;
        // ∂b = column sums of g.
        let grad_b = grad_out.sum_batch()?;
        self.bias
            .grad
            .add_scaled_inplace(&grad_b.reshape(&[self.out_features])?, 1.0)?;
        Ok(())
    }

    fn check_grad(&self, grad_out: &Tensor) -> Result<()> {
        if !matches!(*grad_out.dims(), [_, f] if f == self.out_features) {
            return Err(NnError::Tensor(TensorError::shape_mismatch(
                "dense_backward",
                grad_out.dims(),
                &[self.out_features],
            )));
        }
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        // x [n, in] · Wᵀ [in, out] + b
        let out = input.matmul_nt(&self.weight.value)?;
        Ok(out.add(&self.bias.value)?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cached_input = None;
        self.forward(input)
    }

    fn keeps_input(&self) -> bool {
        true
    }

    fn keep_input(&mut self, input: Tensor) {
        self.cached_input = Some(input);
    }

    fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        self.accumulate_params(&grad_out)?;
        // ∂x = g·W  ([n, out] × [out, in]).
        Ok(grad_out.matmul(&self.weight.value)?)
    }

    fn backward_input(&mut self, grad_out: Tensor) -> Result<Tensor> {
        self.check_grad(&grad_out)?;
        Ok(grad_out.matmul(&self.weight.value)?)
    }

    fn backward_params(&mut self, grad_out: Tensor) -> Result<()> {
        self.accumulate_params(&grad_out)
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

/// Builds a one-hot row matrix `[n, classes]` from class labels.
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfBounds`] (wrapped) if any label is
/// `>= classes`.
pub(crate) fn one_hot(labels: &[usize], classes: usize) -> Result<Tensor> {
    let mut data = vec![0.0f32; labels.len() * classes];
    for (i, &label) in labels.iter().enumerate() {
        let cell = if label < classes {
            data.get_mut(i * classes + label)
        } else {
            None
        };
        let Some(cell) = cell else {
            return Err(NnError::Tensor(TensorError::index_oob(
                &[label],
                &[classes],
            )));
        };
        *cell = 1.0;
    }
    Ok(Tensor::from_vec(data, Shape::of(&[labels.len(), classes]))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::train_forward;

    fn layer() -> Dense {
        let mut rng = TensorRng::seed_from_u64(5);
        Dense::new(4, 3, &mut rng)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut fc = layer();
        // Set weight to zeros so output equals bias broadcast.
        fc.params_mut()[0].value = Tensor::zeros(&[3, 4]);
        fc.params_mut()[1].value =
            Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::new(vec![3])).unwrap();
        let y = fc.forward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let fc = layer();
        assert!(fc.forward(&Tensor::zeros(&[2, 5])).is_err());
        assert!(fc.forward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn backward_finite_difference() {
        let mut fc = layer();
        let mut rng = TensorRng::seed_from_u64(6);
        let x = rng.uniform(&[3, 4], -1.0, 1.0);
        let y = train_forward(&mut fc, &x);
        let gin = fc.backward(Tensor::ones(y.dims())).unwrap();

        let eps = 1e-3f32;
        // Input gradient check.
        for idx in [0usize, 5, 11] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (fc.forward(&plus).unwrap().sum() - fc.forward(&minus).unwrap().sum())
                / (2.0 * eps);
            assert!((numeric - gin.as_slice()[idx]).abs() < 1e-2);
        }
        // Weight gradient check.
        let wgrad = fc.params()[0].grad.clone();
        for idx in [0usize, 7, 11] {
            let mut plus = fc.clone();
            plus.params_mut()[0].value.as_mut_slice()[idx] += eps;
            let mut minus = fc.clone();
            minus.params_mut()[0].value.as_mut_slice()[idx] -= eps;
            let numeric =
                (plus.forward(&x).unwrap().sum() - minus.forward(&x).unwrap().sum()) / (2.0 * eps);
            assert!((numeric - wgrad.as_slice()[idx]).abs() < 1e-2);
        }
        // Bias gradient equals batch size for a sum loss.
        for &g in fc.params()[1].grad.as_slice() {
            assert!((g - 3.0).abs() < 1e-4);
        }
    }

    #[test]
    fn one_hot_rows() {
        let t = one_hot(&[2, 0], 3).unwrap();
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        assert!(one_hot(&[3], 3).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut fc = layer();
        assert!(matches!(
            fc.backward(Tensor::zeros(&[1, 3])),
            Err(NnError::NoForwardCache { .. })
        ));
    }
}
