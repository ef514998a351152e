//! Neural-network building blocks for the FAdeML reproduction.
//!
//! This crate implements everything the paper's victim model needs,
//! from scratch on top of [`fademl_tensor`]:
//!
//! - [`Layer`] — the five layer kinds of the paper's VGGNet, as one
//!   closed enum: [`Conv2d`] and [`Dense`] hold parameters;
//!   [`Layer::Relu`], [`Layer::MaxPool2d`] and [`Layer::Flatten`] hold
//!   none.
//! - [`Sequential`] — an ordered stack of layers with whole-model
//!   forward, backward and input-gradient entry points. Its training
//!   forward keeps what the backward passes read, and
//!   [`Sequential::backward_input`] returns the gradient with respect
//!   to the model *input*, which is the quantity adversarial attacks
//!   consume.
//! - [`CrossEntropyLoss`] — softmax cross-entropy with its analytic
//!   gradient.
//! - [`Sgd`] / [`Adam`] — optimizers.
//! - [`vgg`] — the paper's "VGGNet" (5 conv stages + 1 fully-connected
//!   head, Fig. 4) in three size profiles.
//! - [`metrics`] — top-1 / top-5 accuracy and confidence, the paper's
//!   reporting vocabulary.
//! - [`Trainer`] — minibatch SGD training loop.
//!
//! # Example: train a tiny classifier
//!
//! ```
//! use fademl_nn::{vgg, Trainer, TrainConfig};
//! use fademl_tensor::TensorRng;
//!
//! # fn main() -> Result<(), fademl_nn::NnError> {
//! let mut rng = TensorRng::seed_from_u64(0);
//! let config = vgg::VggConfig::tiny(3, 16, 4); // 3x16x16 input, 4 classes
//! let mut model = config.build(&mut rng)?;
//! let images = rng.uniform(&[8, 3, 16, 16], 0.0, 1.0);
//! let labels = vec![0, 1, 2, 3, 0, 1, 2, 3];
//! let mut trainer = Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::default() });
//! let history = trainer.fit(&mut model, &images, &labels)?;
//! assert_eq!(history.epochs.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
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

mod activation;
pub mod checkpoint;
mod conv;
mod dense;
mod error;
mod flatten;
mod layer;
mod loss;
pub mod metrics;
mod optimizer;
mod pool;
mod sequential;
pub mod serialize;
mod trainer;
pub mod vgg;

pub use checkpoint::{CheckpointConfig, CheckpointStore, TrainState};
pub use conv::Conv2d;
pub use dense::Dense;
pub use error::NnError;
pub use layer::{Layer, Param};
pub use loss::{CrossEntropyLoss, LossValue};
pub use optimizer::{Adam, Optimizer, OptimizerState, Sgd};
pub use sequential::Sequential;
pub use trainer::{
    DivergenceGuard, EpochStats, FitReport, OptimizerKind, TrainConfig, TrainHistory, TrainSignal,
    Trainer,
};

/// Convenient result alias for fallible network operations.
pub type Result<T> = std::result::Result<T, NnError>;
