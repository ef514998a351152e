//! Dense `f32` tensor library underpinning the FAdeML reproduction.
//!
//! This crate provides the numeric substrate for the neural-network,
//! filter, and attack crates: an owned, row-major, `f32` n-dimensional
//! array ([`Tensor`]) together with the operations a small convolutional
//! network needs — elementwise arithmetic with broadcasting, matrix
//! multiplication, 2-D convolution and max-pooling (forward *and*
//! backward), reductions, and random initialization.
//!
//! The design goal is a correct, well-tested CPU implementation, not a
//! BLAS replacement: every backward pass is validated against finite
//! differences in the test suite, and structural invariants are covered
//! by property-based tests.
//!
//! # Example
//!
//! ```
//! use fademl_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), fademl_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::new(vec![2, 2]))?;
//! let b = Tensor::full(&[2, 2], 10.0);
//! let sum = a.add(&b)?;
//! assert_eq!(sum.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
//! let prod = a.matmul(&b)?;
//! assert_eq!(prod.as_slice(), &[30.0, 30.0, 70.0, 70.0]);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: `simd` alone opts back in, for the one call
// into its `#[target_feature]` kernel instantiation (fademl-lint's
// `unsafe-confinement` pass holds every other file to zero `unsafe`).
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod broadcast;
mod conv;
mod error;
mod init;
pub mod io;
mod matmul;
mod ops;
pub mod par;
pub mod plan;
mod pool;
mod reduce;
mod shape;
pub mod simd;
mod tensor;

pub use broadcast::reduce_to_shape;
pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_input, im2col, Conv2dGrads, ConvSpec,
};
pub use error::TensorError;
pub use init::{Initializer, TensorRng};
pub use io::{digest, fnv1a};
pub use pool::{max_pool2d, max_pool2d_backward, max_pool2d_values, MaxPoolOutput, PoolSpec};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
