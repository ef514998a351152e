use fademl_tensor::{Shape, Tensor, TensorError};

use crate::{Layer, NnError, Result};

/// Flattens all non-batch dimensions: `[n, d...] → [n, Πd]`.
///
/// Bridges the convolutional trunk and the dense classification head.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    fn flatten(input: &Tensor) -> Result<Tensor> {
        let Some((&n, rest)) = input
            .dims()
            .split_first()
            .filter(|(_, rest)| !rest.is_empty())
        else {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                op: "flatten",
                expected: 2,
                actual: input.rank(),
            }));
        };
        let inner: usize = rest.iter().product();
        Ok(input.reshape(&[n, inner])?)
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Self::flatten(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cached_shape = Some(input.shape().clone());
        Self::flatten(input)
    }

    fn backward(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "flatten" })?;
        Ok(Tensor::from_vec(grad_out.into_vec(), shape.clone())?)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_inner_dims() {
        let flat = Flatten::new();
        let out = flat.forward(&Tensor::zeros(&[2, 3, 4, 5])).unwrap();
        assert_eq!(out.dims(), &[2, 60]);
    }

    #[test]
    fn backward_restores_shape() {
        let mut flat = Flatten::new();
        let x = Tensor::ones(&[2, 3, 2, 2]);
        let y = flat.forward_train(&x).unwrap();
        let gin = flat.backward(Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
    }

    #[test]
    fn rejects_rank_1() {
        assert!(Flatten::new().forward(&Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut flat = Flatten::new();
        assert!(matches!(
            flat.backward(Tensor::zeros(&[1, 4])),
            Err(NnError::NoForwardCache { .. })
        ));
    }
}
