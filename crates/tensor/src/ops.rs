//! Elementwise arithmetic with broadcasting, plus common nonlinearities.

use crate::broadcast::broadcast_zip;
use crate::{Result, Tensor};

impl Tensor {
    /// Elementwise addition with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch)
    /// if the shapes are not broadcast-compatible.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        broadcast_zip("add", self, other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch)
    /// if the shapes are not broadcast-compatible.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        broadcast_zip("sub", self, other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch)
    /// if the shapes are not broadcast-compatible.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        broadcast_zip("mul", self, other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    ///
    /// Division by zero follows IEEE-754 semantics (yields ±inf / NaN).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch)
    /// if the shapes are not broadcast-compatible.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        broadcast_zip("div", self, other, |a, b| a / b)
    }

    /// Adds `other * factor` into `self` in place (axpy). Shapes must match
    /// exactly; this is the hot path of the optimizers so no broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch)
    /// if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, factor: f32) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(crate::TensorError::shape_mismatch(
                "add_scaled_inplace",
                self.dims(),
                other.dims(),
            ));
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b * factor;
        }
        Ok(())
    }

    /// Rectified linear unit: `max(x, 0)` elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Elementwise sign: −1, 0 or +1. This is the core of FGSM.
    pub fn sign(&self) -> Tensor {
        self.map(|x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Natural exponential, elementwise.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Natural logarithm, elementwise (log of non-positive values yields
    /// `-inf`/NaN per IEEE-754).
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Squares every element.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Numerically stable row-wise softmax of a `[rows, cols]` tensor.
    ///
    /// Each row is shifted by its maximum before exponentiation so large
    /// logits do not overflow.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`](crate::TensorError::RankMismatch)
    /// if the tensor is not rank 2.
    #[expect(clippy::indexing_slicing, reason = "row slices after the rank check")]
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(crate::TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = crate::plan::alloc::fresh_vec(rows * cols);
        let data = self.as_slice();
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                let e = (x - max).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in &mut out[r * cols..(r + 1) * cols] {
                *o *= inv;
            }
        }
        Tensor::from_vec(out, self.shape().duplicate())
    }

    /// Squared Euclidean (L2²) norm of the whole tensor.
    pub fn norm_l2_squared(&self) -> f32 {
        self.as_slice().iter().map(|x| x * x).sum()
    }

    /// Euclidean (L2) norm of the whole tensor.
    pub fn norm_l2(&self) -> f32 {
        self.norm_l2_squared().sqrt()
    }

    /// L∞ (maximum-magnitude) norm of the whole tensor.
    pub fn norm_linf(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|x| x.abs())
            .fold(0.0f32, f32::max)
    }

    /// Dot product with a same-shaped tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch)
    /// if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(crate::TensorError::shape_mismatch(
                "dot",
                self.dims(),
                other.dims(),
            ));
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use proptest::prelude::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), Shape::new(vec![v.len()])).unwrap()
    }

    #[test]
    fn arithmetic() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn add_scaled_inplace_axpy() {
        let mut a = t(&[1.0, 2.0]);
        a.add_scaled_inplace(&t(&[10.0, 20.0]), 0.5).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        assert!(a.add_scaled_inplace(&Tensor::zeros(&[3]), 1.0).is_err());
    }

    #[test]
    fn relu_and_sign() {
        let x = t(&[-2.0, 0.0, 3.0]);
        assert_eq!(x.relu().as_slice(), &[0.0, 0.0, 3.0]);
        assert_eq!(x.sign().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], [2, 3].into()).unwrap();
        let p = x.softmax_rows().unwrap();
        for r in 0..2 {
            let row = p.row(r).unwrap();
            let sum: f32 = row.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform logits give uniform probabilities.
        let row1 = p.row(1).unwrap();
        for &v in row1.as_slice() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], [1, 2].into()).unwrap();
        let p = x.softmax_rows().unwrap();
        assert!(!p.has_non_finite());
        assert!(p.get(&[0, 1]).unwrap() > p.get(&[0, 0]).unwrap());
    }

    #[test]
    fn softmax_requires_rank_2() {
        assert!(Tensor::zeros(&[4]).softmax_rows().is_err());
    }

    #[test]
    fn norms() {
        let x = t(&[3.0, -4.0]);
        assert_eq!(x.norm_l2_squared(), 25.0);
        assert_eq!(x.norm_l2(), 5.0);
        assert_eq!(x.norm_linf(), 4.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(t(&[1.0, 2.0]).dot(&t(&[3.0, 4.0])).unwrap(), 11.0);
        assert!(t(&[1.0]).dot(&t(&[1.0, 2.0])).is_err());
    }

    proptest! {
        /// a + b - b == a (within float tolerance).
        #[test]
        fn add_sub_inverse(
            a in proptest::collection::vec(-100.0f32..100.0, 8),
            b in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let ta = t(&a);
            let tb = t(&b);
            let back = ta.add(&tb).unwrap().sub(&tb).unwrap();
            for (x, y) in back.as_slice().iter().zip(&a) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// Softmax output lies in (0, 1] and rows sum to 1.
        #[test]
        fn softmax_simplex(vals in proptest::collection::vec(-20.0f32..20.0, 10)) {
            let x = Tensor::from_vec(vals, [2, 5].into()).unwrap();
            let p = x.softmax_rows().unwrap();
            for &v in p.as_slice() {
                prop_assert!(v > 0.0 && v <= 1.0);
            }
            for r in 0..2 {
                let sum: f32 = p.row(r).unwrap().as_slice().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-5);
            }
        }

        /// sign(x) * |x| == x.
        #[test]
        fn sign_abs_reconstruct(vals in proptest::collection::vec(-50.0f32..50.0, 8)) {
            let x = t(&vals);
            let rebuilt = x.sign().mul(&x.abs()).unwrap();
            for (a, b) in rebuilt.as_slice().iter().zip(x.as_slice()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
