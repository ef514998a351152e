//! Adversarial ML attacks for the FAdeML reproduction.
//!
//! The paper studies three classical gradient attacks and contributes a
//! fourth, filter-aware one:
//!
//! - [`Fgsm`] — the fast gradient sign method (one signed-gradient step).
//! - [`Bim`] — the basic iterative method (small FGSM steps, clipped to
//!   an ε-ball).
//! - [`LbfgsAttack`] — Szegedy et al.'s box-constrained optimization
//!   attack, minimizing `c·‖η‖² + loss(f(x + η))` with a from-scratch
//!   L-BFGS optimizer ([`lbfgs::Lbfgs`], two-loop recursion + backtracking
//!   line search).
//! - [`Fademl`] — the paper's contribution: any of the above, run against
//!   a *filter-aware* [`AttackSurface`] that chains the pre-processing
//!   filter's vector-Jacobian product into the input gradient, with an
//!   outer budget-escalation loop (paper §IV steps 1-6).
//!
//! The central abstraction is the [`AttackSurface`]: the differentiable
//! composition the attacker can see. Under the paper's Threat Model I
//! the surface is the bare DNN; FAdeML's insight is to make the surface
//! `filter ∘ DNN`.
//!
//! # Example
//!
//! ```
//! use fademl_attacks::{Attack, AttackGoal, AttackSurface, Fgsm};
//! use fademl_nn::vgg::VggConfig;
//! use fademl_tensor::TensorRng;
//!
//! # fn main() -> Result<(), fademl_attacks::AttackError> {
//! let mut rng = TensorRng::seed_from_u64(0);
//! let model = VggConfig::tiny(3, 16, 4).build(&mut rng)?;
//! let mut surface = AttackSurface::new(model);
//! let x = rng.uniform(&[3, 16, 16], 0.0, 1.0);
//! let fgsm = Fgsm::new(0.05)?;
//! let adv = fgsm.run(&mut surface, &x, AttackGoal::Targeted { class: 2 })?;
//! assert_eq!(adv.adversarial.dims(), x.dims());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Discarded `Result`s, held to zero by clippy outside tests; an
// exemption is an `#[expect(lint, reason = …)]` on the smallest item
// that needs it (DESIGN.md §11).
#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "tests discard what they do not check"
    )
)]

mod attack;
mod bim;
mod cw;
mod deepfool;
mod eot;
mod error;
mod fademl;
mod fgsm;
mod imperceptibility;
mod jsma;
pub mod lbfgs;
mod one_pixel;
mod perturbation;
mod surface;
mod universal;
mod zoo;

pub use attack::{AdversarialExample, Attack, AttackGoal};
pub use bim::Bim;
pub use cw::CarliniWagner;
pub use deepfool::DeepFool;
pub use eot::EotPgd;
pub use error::AttackError;
pub use fademl::Fademl;
pub use fgsm::Fgsm;
pub use imperceptibility::ImperceptibilityReport;
pub use jsma::Jsma;
pub use lbfgs::LbfgsAttack;
pub use one_pixel::OnePixel;
pub use perturbation::PerturbationBudget;
pub use surface::AttackSurface;
pub use universal::{UniversalOutcome, UniversalPerturbation};
pub use zoo::Zoo;

/// Convenient result alias for fallible attack operations.
pub type Result<T> = std::result::Result<T, AttackError>;
