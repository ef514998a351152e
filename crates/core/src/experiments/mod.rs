//! Figure-by-figure experiment runners.
//!
//! Each submodule regenerates one quantitative artifact of the paper's
//! evaluation (see `DESIGN.md` §3 and `EXPERIMENTS.md`):
//!
//! - [`fig5`] — Threat Model I: all three classical attacks achieve all
//!   five targeted misclassification scenarios.
//! - [`fig6`] — overall top-5 accuracy under attack (no filter).
//! - [`fig7`] — Threat Models II/III: LAP/LAR filters neutralize the
//!   classical attacks; accuracy vs filter strength is hump-shaped.
//! - [`fig9`] — the FAdeML filter-aware attacks survive the same filters.
//!
//! [`detection`] extends the suite past the paper: a detect-under-attack
//! sweep scoring the serving stack's triage detector (ROC/AUC) on a
//! correlated frame stream with FGSM/FAdeML segments mixed in.
//!
//! [`adaptive`] closes the loop: the same stream now drifts mid-sweep
//! and an online-refitting arm (reservoir, budgeted threshold
//! controller, validated hot swap) is compared against the static
//! detector it replaces.
//!
//! [`resume`] is the journal those two run on: completed stages are
//! appended to a [`StageLedger`] so a killed sweep restarts at the
//! first incomplete stage.

pub mod adaptive;
pub mod detection;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
mod grid;
pub mod resume;

pub use adaptive::{
    run_adaptive_resumable, AdaptiveParams, AdaptiveResult, AdaptiveSegment, RefitStats,
};
pub use detection::{
    run_detection_resumable, DetectionParams, DetectionResult, RocPoint, SegmentKind,
    SegmentOutcome,
};
pub use grid::{AccuracyCell, AccuracyGrid, ScenarioCell};
pub use resume::{ResumeReport, StageLedger};

use fademl_attacks::{Attack, Bim, Fgsm, LbfgsAttack};

use crate::Result;

/// Attack hyper-parameters shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackParams {
    /// FGSM step / BIM ball radius / noise magnitude scale.
    pub epsilon: f32,
    /// BIM per-step size.
    pub bim_alpha: f32,
    /// BIM iteration cap.
    pub bim_iterations: usize,
    /// L-BFGS noise-norm weight `c`.
    pub lbfgs_c: f32,
    /// L-BFGS iteration cap.
    pub lbfgs_iterations: usize,
    /// FAdeML refinement rounds.
    pub fademl_rounds: usize,
    /// FAdeML noise scaling factor η.
    pub fademl_eta: f32,
}

impl Default for AttackParams {
    fn default() -> Self {
        AttackParams {
            epsilon: 0.08,
            bim_alpha: 0.015,
            bim_iterations: 12,
            lbfgs_c: 0.02,
            lbfgs_iterations: 20,
            fademl_rounds: 2,
            fademl_eta: 1.0,
        }
    }
}

impl AttackParams {
    /// The paper's attack library in figure order: L-BFGS, FGSM, BIM.
    ///
    /// # Errors
    ///
    /// Propagates attack-construction errors for invalid parameters.
    pub fn library(&self) -> Result<Vec<Box<dyn Attack>>> {
        Ok(vec![
            Box::new(LbfgsAttack::new(self.lbfgs_c, self.lbfgs_iterations)?),
            Box::new(Fgsm::new(self.epsilon)?),
            Box::new(Bim::new(self.epsilon, self.bim_alpha, self.bim_iterations)?),
        ])
    }

    /// Short labels matching [`AttackParams::library`] order.
    pub fn labels() -> [&'static str; 3] {
        ["L-BFGS", "FGSM", "BIM"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_matches_paper_order() {
        let params = AttackParams::default();
        let attacks = params.library().unwrap();
        assert_eq!(attacks.len(), 3);
        assert!(attacks[0].name().contains("L-BFGS"));
        assert!(attacks[1].name().contains("FGSM"));
        assert!(attacks[2].name().contains("BIM"));
        assert_eq!(AttackParams::labels().len(), 3);
    }

    #[test]
    fn invalid_params_propagate() {
        let bad = AttackParams {
            epsilon: -1.0,
            ..AttackParams::default()
        };
        assert!(bad.library().is_err());
    }
}
