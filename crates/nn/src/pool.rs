use fademl_tensor::{max_pool2d, max_pool2d_backward, max_pool2d_values, PoolSpec, Shape, Tensor};

use crate::{Layer, NnError, Result};

/// A 2-D max-pooling layer over NCHW input.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: PoolSpec,
    cache: Option<(Vec<usize>, Shape)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given geometry.
    pub fn new(spec: PoolSpec) -> Self {
        MaxPool2d { spec, cache: None }
    }

    /// The conventional 2×2 stride-2 pool.
    pub fn half() -> Self {
        MaxPool2d::new(PoolSpec::half())
    }

    /// The layer's geometry.
    pub fn spec(&self) -> &PoolSpec {
        &self.spec
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(max_pool2d_values(input, &self.spec)?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let pooled = max_pool2d(input, &self.spec)?;
        self.cache = Some((pooled.argmax, input.shape().clone()));
        Ok(pooled.output)
    }

    fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let (argmax, in_shape) = self.cache.as_ref().ok_or(NnError::NoForwardCache {
            layer: "max_pool2d",
        })?;
        Ok(max_pool2d_backward(&grad_out, argmax, in_shape)?)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    #[test]
    fn halves_spatial_dims() {
        let pool = MaxPool2d::half();
        let out = pool.forward(&Tensor::zeros(&[1, 2, 8, 8])).unwrap();
        assert_eq!(out.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn backward_shape_matches_input() {
        let mut pool = MaxPool2d::half();
        let mut rng = TensorRng::seed_from_u64(1);
        let x = rng.uniform(&[2, 3, 6, 6], -1.0, 1.0);
        let y = pool.forward_train(&x).unwrap();
        let gin = pool.backward(Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
        // Gradient mass is conserved: one unit per output element.
        assert!((gin.sum() - y.numel() as f32).abs() < 1e-4);
    }

    #[test]
    fn backward_requires_forward() {
        let mut pool = MaxPool2d::half();
        assert!(matches!(
            pool.backward(Tensor::zeros(&[1, 1, 2, 2])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn stateless_inference() {
        let pool = MaxPool2d::half();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        assert_eq!(pool.forward(&x).unwrap(), pool.forward(&x).unwrap());
        assert_eq!(pool.param_count(), 0);
    }
}
