//! Pre-processing noise filters — the defense the paper studies and the
//! stage the FAdeML attack differentiates through.
//!
//! The paper's two filter families are implemented exactly as described
//! in §III-A:
//!
//! - **LAP** ([`Lap`]): *local average with neighbourhood pixels* — each
//!   pixel is replaced by the uniform average of itself and its `np`
//!   nearest neighbours, `np ∈ {4, 8, 16, 32, 64}`.
//! - **LAR** ([`Lar`]): *local average with radius* — the uniform average
//!   over the disc of radius `r ∈ {1..5}` pixels.
//!
//! Both are linear operators, so their vector-Jacobian products
//! ([`Filter::backward`]) are exact — which is precisely the property
//! the FAdeML attack exploits. [`Gaussian`] is provided as a third
//! linear smoother and [`Median`] as a *non-linear* one whose backward
//! pass falls back to a straight-through (BPDA-style) estimate.
//!
//! # Example
//!
//! ```
//! use fademl_filters::{Filter, FilterSpec};
//! use fademl_tensor::Tensor;
//!
//! # fn main() -> Result<(), fademl_filters::FilterError> {
//! let lap32 = FilterSpec::Lap { np: 32 }.build()?;
//! let image = Tensor::ones(&[3, 16, 16]);
//! let smoothed = lap32.apply(&image)?;
//! assert_eq!(smoothed.dims(), image.dims());
//! // Averaging a constant image is the identity.
//! assert!((smoothed.sub(&image)?.norm_linf()) < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod error;
mod filter;
mod gaussian;
mod kernel;
mod lap;
mod lar;
mod median;
mod spec;
mod squeeze;

pub use error::FilterError;
pub use filter::{Filter, Identity};
pub use gaussian::Gaussian;
pub use kernel::Kernel;
pub use lap::Lap;
pub use lar::Lar;
pub use median::Median;
pub use spec::FilterSpec;
pub use squeeze::BitDepth;

/// Convenient result alias for fallible filter operations.
pub type Result<T> = std::result::Result<T, FilterError>;
