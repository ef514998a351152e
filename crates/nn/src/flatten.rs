//! [`Layer::Flatten`](crate::Layer::Flatten): all non-batch dimensions
//! into one, `[n, d...] → [n, Πd]`.

use fademl_tensor::{Shape, Tensor, TensorError};

use crate::{NnError, Result};

/// The `[n, Πd]` a flatten gives `input`.
pub(crate) fn flat_dims(input: &Tensor) -> Result<[usize; 2]> {
    match input.dims().split_first() {
        Some((&n, rest)) if !rest.is_empty() => Ok([n, rest.iter().product()]),
        _ => Err(NnError::Tensor(TensorError::RankMismatch {
            op: "flatten",
            expected: 2,
            actual: input.rank(),
        })),
    }
}

/// Flattens an activation the caller owns: the same data, relabelled,
/// without a copy.
pub(crate) fn flatten_owned(input: Tensor) -> Result<Tensor> {
    let dims = flat_dims(&input)?;
    Ok(Tensor::from_vec(input.into_vec(), Shape::of(&dims))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Sequential};

    #[test]
    fn flattens_inner_dims() {
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let out = Layer::Flatten.forward(&x).unwrap();
        assert_eq!(out.dims(), &[2, 60]);
        assert_eq!(flatten_owned(x).unwrap(), out);
    }

    #[test]
    fn backward_restores_shape() {
        let mut flat = Sequential::new().push(Layer::Flatten);
        let x = Tensor::ones(&[2, 3, 2, 2]);
        let y = flat.forward_train(&x).unwrap();
        let gin = flat.backward_input(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
    }

    #[test]
    fn rejects_rank_1() {
        assert!(Layer::Flatten.forward(&Tensor::zeros(&[5])).is_err());
        assert!(flatten_owned(Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        crate::sequential::assert_backward_requires_forward(Layer::Flatten, &[1, 4]);
    }
}
