//! Admission-adjacent adversarial triage: every admitted image is
//! scored by a multi-scale isolation-forest [`Detector`] before it is
//! batched, and flagged inputs are routed to a *hardened* execution
//! path instead of being dropped.
//!
//! Design stance (defense in depth, not a gate):
//!
//! - **Detection is advisory.** A detector failure — panic, scoring
//!   error, or blown latency budget — resolves to a typed
//!   [`TriageVerdict::FailOpen`] and the request is served on the
//!   normal path. The detector can never fail a request.
//! - **Flagged ≠ rejected.** The FAdeML paper shows filter-aware
//!   attackers defeat any single static filter, so dropping "detected"
//!   inputs would both break availability on false positives and teach
//!   the attacker the decision boundary. Instead a flagged input is
//!   served through a *stronger* filter configuration and isolated
//!   per-image execution (the same machinery the circuit breaker uses
//!   for degraded mode), so one poisoned input cannot take co-batched
//!   requests down with it.
//! - **Filter-bypassing threat models are revoked.** A flagged TM-I
//!   request (attacker past the filter) is executed as TM-III — the
//!   hardened filter is applied regardless of where the input claimed
//!   to enter the pipeline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use fademl::{Detection, InferencePipeline, ThreatModel};
use fademl_detect::Detector;
use fademl_filters::FilterSpec;
use fademl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::{Result, ServeError};
use crate::metrics::ServerMetrics;
use crate::server::{fault_at, FaultHandle, FaultSite};
use crate::sync::Snapshot;

/// Configuration for the triage stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriageConfig {
    /// Anomaly-score threshold: scores `>= threshold` flag the input.
    /// Isolation-forest scores live in `(0, 1)`; ~0.5 is "ordinary",
    /// values toward 1 are increasingly isolated.
    pub threshold: f32,
    /// Filter deployed on the hardened path. Should smooth harder than
    /// the normal pipeline's filter (e.g. `Lap {np: 32}` over
    /// `Lap {np: 8}`).
    pub hardened_filter: FilterSpec,
    /// Per-image scoring budget in microseconds; `0` disables the
    /// budget. A score that arrives over budget is discarded and the
    /// request fails open ([`FailOpenKind::Timeout`]) — a detector too
    /// slow to keep up must not become the latency floor.
    pub score_budget_us: u64,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            threshold: 0.6,
            hardened_filter: FilterSpec::Lap { np: 32 },
            score_budget_us: 0,
        }
    }
}

impl TriageConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a non-finite or out-of-range
    /// threshold, or a hardened filter spec that cannot be built.
    pub fn validate(&self) -> Result<()> {
        if !self.threshold.is_finite() || !(0.0..=1.0).contains(&self.threshold) {
            return Err(ServeError::InvalidConfig {
                reason: format!("triage threshold must be in [0, 1], got {}", self.threshold),
            });
        }
        self.hardened_filter
            .build()
            .map_err(|err| ServeError::InvalidConfig {
                reason: format!("hardened filter: {err}"),
            })?;
        Ok(())
    }
}

/// Why a triage scoring attempt failed open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOpenKind {
    /// The detector panicked mid-score.
    Panic,
    /// The score arrived after the configured budget elapsed.
    Timeout,
    /// The detector returned a typed error (e.g. feature-dimension
    /// mismatch after a bad artifact swap).
    Error,
}

/// Outcome of scoring one admitted image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriageVerdict {
    /// Score below threshold: serve on the normal batched path.
    Clean {
        /// The anomaly score.
        score: f32,
    },
    /// Score at or above threshold: route to the hardened path.
    Flagged {
        /// The anomaly score.
        score: f32,
    },
    /// The detector failed; the request is served on the normal path
    /// as if it had never been scored. Never fails the request.
    FailOpen {
        /// What went wrong.
        kind: FailOpenKind,
    },
}

impl TriageVerdict {
    /// The verdict annotation carried back to the client, if any.
    /// `hardened` reports whether the engine actually executed the
    /// request on the hardened path (a flagged request on a server
    /// without triage machinery would not be).
    pub(crate) fn detection(&self, hardened: bool) -> Option<Detection> {
        match *self {
            TriageVerdict::Clean { score } => Some(Detection {
                score,
                flagged: false,
                hardened: false,
            }),
            TriageVerdict::Flagged { score } => Some(Detection {
                score,
                flagged: true,
                hardened,
            }),
            TriageVerdict::FailOpen { .. } => None,
        }
    }
}

/// Escalates the threat model for hardened execution: TM-I claims to
/// bypass the pre-processing filter, and a flagged input loses that
/// privilege — the hardened filter applies no matter where the input
/// entered. TM-II/III already pass through the filter stage.
pub(crate) fn hardened_threat(threat: ThreatModel) -> ThreatModel {
    match threat {
        ThreatModel::I => ThreatModel::III,
        other => other,
    }
}

/// The live triage stage: the fitted detector (behind its own swap
/// point, so it hot-swaps like weights) plus the hardened pipeline it
/// routes flagged inputs to. The hardened
/// pipeline tracks weight swaps (same model, stronger filter) behind
/// its own swap point, mirroring the engine's main pipeline slot.
#[derive(Debug)]
pub(crate) struct TriageRuntime {
    /// Deployed detector behind the same [`Snapshot`] as weights:
    /// scorers load it once per frame, a swap replaces it, in-flight
    /// scores finish on the detector they started with.
    detector: Snapshot<Detector>,
    config: TriageConfig,
    hardened: Snapshot<InferencePipeline>,
}

impl TriageRuntime {
    /// Builds the runtime, constructing the hardened pipeline
    /// from the base pipeline's model and the configured stronger
    /// filter.
    pub(crate) fn new(
        detector: Detector,
        config: TriageConfig,
        base: &InferencePipeline,
    ) -> Result<Self> {
        config.validate()?;
        let hardened = build_hardened(base, config.hardened_filter)?;
        Ok(TriageRuntime {
            detector: Snapshot::new(detector),
            config,
            hardened: Snapshot::new(hardened),
        })
    }

    /// Atomically deploys `candidate` as the triage detector and
    /// returns the new detector generation. In-flight scores finish on
    /// the detector they snapshotted; every score started after this
    /// call sees the candidate.
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapFailed`] if the candidate's feature geometry
    /// disagrees with the incumbent's — a detector that scores
    /// different features would silently mis-triage every frame.
    pub(crate) fn swap_detector(
        &self,
        candidate: Detector,
        metrics: &ServerMetrics,
    ) -> Result<u64> {
        let incumbent = self.detector.load();
        if candidate.feature_dim() != incumbent.feature_dim() {
            return Err(ServeError::SwapFailed {
                reason: format!(
                    "candidate detector scores {}-dim features, incumbent scores {}",
                    candidate.feature_dim(),
                    incumbent.feature_dim()
                ),
            });
        }
        self.detector.store(candidate);
        Ok(metrics.record_detector_swap())
    }

    /// The hardened pipeline, loaded like the main pipeline slot.
    pub(crate) fn hardened_snapshot(&self) -> Arc<InferencePipeline> {
        self.hardened.load()
    }

    /// Rebuilds the hardened pipeline from freshly swapped weights so
    /// the hardened path never serves stale generations. The filter
    /// spec was validated at startup, so a rebuild failure is
    /// impossible in practice; if it ever happened the previous
    /// hardened pipeline keeps serving (old weights beat no service).
    pub(crate) fn rebuild_hardened(&self, next: &InferencePipeline) {
        if let Ok(rebuilt) = build_hardened(next, self.config.hardened_filter) {
            self.hardened.store(rebuilt);
        }
    }

    /// Scores one admitted image under full fault isolation against a
    /// fixed threshold. Always returns a verdict — panics, errors and
    /// budget overruns all resolve to [`TriageVerdict::FailOpen`].
    pub(crate) fn score(
        &self,
        image: &Tensor,
        metrics: &ServerMetrics,
        faults: &FaultHandle,
    ) -> TriageVerdict {
        let detector = self.detector.load();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fault_at(faults, FaultSite::Score);
            detector.score_image(image)
        }));
        let took_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let score = match resolve_score(outcome, took_us, self.config.score_budget_us, metrics) {
            Ok(score) => score,
            Err(verdict) => return verdict,
        };
        let score_bp = score_basis_points(score);
        if score >= self.config.threshold {
            metrics.record_triage_flagged(score_bp, took_us);
            TriageVerdict::Flagged { score }
        } else {
            metrics.record_triage_clean(score_bp, took_us);
            TriageVerdict::Clean { score }
        }
    }
}

/// Folds a guarded scoring attempt into a score or the fail-open
/// verdict it resolves to, recording the fail-open metric.
fn resolve_score<E>(
    outcome: std::thread::Result<std::result::Result<f32, E>>,
    took_us: u64,
    budget_us: u64,
    metrics: &ServerMetrics,
) -> std::result::Result<f32, TriageVerdict> {
    let score = match outcome {
        Err(_) => {
            metrics.record_triage_fail_open(FailOpenKind::Panic);
            return Err(TriageVerdict::FailOpen {
                kind: FailOpenKind::Panic,
            });
        }
        Ok(Err(_)) => {
            metrics.record_triage_fail_open(FailOpenKind::Error);
            return Err(TriageVerdict::FailOpen {
                kind: FailOpenKind::Error,
            });
        }
        Ok(Ok(score)) => score,
    };
    if budget_us > 0 && took_us > budget_us {
        metrics.record_triage_fail_open(FailOpenKind::Timeout);
        return Err(TriageVerdict::FailOpen {
            kind: FailOpenKind::Timeout,
        });
    }
    Ok(score)
}

/// Same model, stronger filter: the hardened variant of `base`.
fn build_hardened(base: &InferencePipeline, filter: FilterSpec) -> Result<InferencePipeline> {
    InferencePipeline::new(base.model().clone(), filter).map_err(|err| ServeError::InvalidConfig {
        reason: format!("hardened pipeline: {err}"),
    })
}

/// Anomaly score in integer basis points for histogram recording —
/// integer microsecond/basis-point reservoirs keep NaN out of the
/// percentile math by construction.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the score is clamped to [0, 1] first, and a float-to-int `as` maps NaN to 0"
)]
fn score_basis_points(score: f32) -> u64 {
    (score.clamp(0.0, 1.0) * 10_000.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(TriageConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_threshold_is_refused() {
        for threshold in [f32::NAN, -0.1, 1.5] {
            let config = TriageConfig {
                threshold,
                ..TriageConfig::default()
            };
            assert!(
                matches!(config.validate(), Err(ServeError::InvalidConfig { .. })),
                "threshold {threshold} must be refused"
            );
        }
    }

    #[test]
    fn bad_hardened_filter_is_refused() {
        let config = TriageConfig {
            hardened_filter: FilterSpec::Lar { r: 0 }, // radius below 1
            ..TriageConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn config_serde_round_trip() {
        let config = TriageConfig {
            threshold: 0.55,
            hardened_filter: FilterSpec::Lar { r: 3 },
            score_budget_us: 2_500,
        };
        let json = serde::json::to_string_pretty(&config);
        let back: TriageConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn hardened_threat_revokes_filter_bypass() {
        assert_eq!(hardened_threat(ThreatModel::I), ThreatModel::III);
        assert_eq!(hardened_threat(ThreatModel::II), ThreatModel::II);
        assert_eq!(hardened_threat(ThreatModel::III), ThreatModel::III);
    }

    #[test]
    fn verdict_detection_annotations() {
        assert_eq!(
            TriageVerdict::Clean { score: 0.4 }.detection(false),
            Some(Detection {
                score: 0.4,
                flagged: false,
                hardened: false,
            })
        );
        assert_eq!(
            TriageVerdict::Flagged { score: 0.8 }.detection(true),
            Some(Detection {
                score: 0.8,
                flagged: true,
                hardened: true,
            })
        );
        assert_eq!(
            TriageVerdict::FailOpen {
                kind: FailOpenKind::Panic
            }
            .detection(false),
            None
        );
    }

    #[test]
    fn score_basis_points_clamps() {
        assert_eq!(score_basis_points(0.5), 5_000);
        assert_eq!(score_basis_points(-1.0), 0);
        assert_eq!(score_basis_points(2.0), 10_000);
    }
}
