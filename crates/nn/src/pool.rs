//! [`Layer::MaxPool2d`](crate::Layer::MaxPool2d) as a layer. Its
//! passes are `fademl_tensor`'s: `max_pool2d_values` for inference,
//! `max_pool2d` (which records the argmax on the training tape) and
//! `max_pool2d_backward`.

#[cfg(test)]
mod tests {
    use fademl_tensor::{PoolSpec, Tensor, TensorRng};

    use crate::{Layer, Sequential};

    fn half() -> Layer {
        Layer::MaxPool2d(PoolSpec::half())
    }

    #[test]
    fn halves_spatial_dims() {
        let out = half().forward(&Tensor::zeros(&[1, 2, 8, 8])).unwrap();
        assert_eq!(out.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn backward_shape_matches_input() {
        let mut pool = Sequential::new().push(half());
        let mut rng = TensorRng::seed_from_u64(1);
        let x = rng.uniform(&[2, 3, 6, 6], -1.0, 1.0);
        let y = pool.forward_train(&x).unwrap();
        let gin = pool.backward_input(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
        // Gradient mass is conserved: one unit per output element.
        assert!((gin.sum() - y.numel() as f32).abs() < 1e-4);
    }

    #[test]
    fn backward_requires_forward() {
        crate::sequential::assert_backward_requires_forward(half(), &[1, 1, 2, 2]);
    }

    #[test]
    fn stateless_inference() {
        let pool = half();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        assert_eq!(pool.forward(&x).unwrap(), pool.forward(&x).unwrap());
        assert_eq!(pool.param_count(), 0);
    }
}
