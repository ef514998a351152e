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
// into its `#[target_feature]` kernel instantiation (`ci.sh` fails if any
// other item under `crates/` does).
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
// The serving path's panic surface and discarded `Result`s, held to
// zero by clippy outside tests; an exemption is an
// `#[expect(lint, reason = …)]` on the smallest item that needs it
// (DESIGN.md §11).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::indexing_slicing)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "tests assert by panicking on fixtures they built, and discard what they do not check"
    )
)]

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
#[allow(unsafe_code, reason = "calls its target_feature kernels")]
pub mod simd;
mod tensor;

pub use broadcast::reduce_to_shape;
#[doc(hidden)]
pub use conv::PlaneForward;
pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_input, conv2d_backward_params, conv2d_layer,
    conv2d_relu, im2col, Conv2dGrads, ConvSpec, TransposedWeight,
};
pub use error::TensorError;
pub use init::{Initializer, TensorRng};
pub use io::{digest, fnv1a};
pub use pool::{max_pool2d, max_pool2d_backward, max_pool2d_values, MaxPoolOutput, PoolSpec};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
