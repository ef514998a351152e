//! # fademl-detect — multi-scale isolation-forest adversarial detection
//!
//! FAdeML's central finding is that a pre-processing filter alone is a
//! brittle defense: a filter-aware attacker (the FAdeML loop) walks
//! straight through it. This crate adds the *detection* leg of a
//! defense-in-depth serving stack: a real-time anomaly detector that
//! scores every admitted image against the clean-input distribution, so
//! the serving engine can route suspicious inputs to a hardened path
//! instead of either trusting the filter or shedding load.
//!
//! The detector follows the multi-scale isolation-forest shape of
//! Abhulimhen et al. (see PAPERS.md): each image is summarized as a
//! short vector of per-pyramid-level statistics
//! ([`features::pyramid_features`]) and an isolation forest
//! ([`Detector`]) fitted on clean frames turns that vector into an
//! anomaly score in `(0, 1)`. FGSM-style perturbations — small per
//! pixel, incoherent across pixels — inflate the fine-scale gradient
//! and Laplacian statistics far off the clean manifold and isolate in
//! very few random cuts.
//!
//! Design invariants, shared with the rest of the workspace:
//!
//! - **Deterministic**: fitting and scoring are reproducible from a
//!   single `u64` seed through [`fademl_tensor::TensorRng`], and
//!   scoring is serial scalar code, so scores are bit-identical at
//!   every compute-thread count.
//! - **Typed failure surface**: every refusal is a [`DetectError`];
//!   nothing in this crate panics on hostile input. The serving triage
//!   stage additionally wraps scoring in `catch_unwind` and fails
//!   *open* — detection is advisory, never a request-killer.
//! - **Durable artifacts**: detectors persist in the `FADEMLD1` format
//!   (magic + CRC-32 trailer, every structural field cap-checked
//!   before allocation) via `fademl_tensor::io`, like `FADEMLC1`
//!   checkpoints and `FADEMLW2` weights.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod error;
pub mod features;
pub mod forest;

pub use error::{DetectError, Result};
pub use features::{
    feature_dim, min_side, pyramid_features, with_thread_scratch, PyramidScratch, ScalePlan,
    FEATURES_PER_SCALE, MAX_SCALES,
};
pub use forest::{Detector, DetectorConfig, DETECTOR_MAGIC, MAX_NODES, MAX_SUBSAMPLE, MAX_TREES};
