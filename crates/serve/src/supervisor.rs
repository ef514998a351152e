//! Detector supervision: background refits from the serving reservoir,
//! candidate validation on a held-out slice, and generation-tracked hot
//! swaps.
//!
//! The refit loop closes the adaptive-detection feedback circle. The
//! triage stage samples served-clean feature vectors into a bounded
//! reservoir ([`fademl_detect::FeatureReservoir`]); at each interval
//! the supervisor snapshots that reservoir, trains a candidate forest
//! *off the serving path*, and scores both the candidate and the
//! incumbent on a held-out validation slice. The candidate deploys only
//! if its AUC does not regress past the configured margin — a refit can
//! drift the detector toward current traffic, but it can never silently
//! trade away separation the incumbent still has. Every outcome is
//! typed ([`RefitOutcome`]) and counted
//! ([`crate::MetricsReport`]`::detection`), including refit panics,
//! which are contained by `catch_unwind` exactly like worker panics:
//! the incumbent keeps serving, the loop keeps running.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fademl_detect::{holdout_auc, DetectorConfig};

use crate::error::{Result, ServeError};
use crate::metrics::ServerMetrics;
use crate::server::{fault_on_refit, spawn_thread, FaultHandle};
use crate::triage::TriageRuntime;

/// Held-out feature vectors the supervisor validates candidates on.
/// Both sides are scored with [`fademl_detect::holdout_auc`]; the slice
/// never enters the reservoir, so a candidate cannot be validated on
/// its own training data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationSet {
    /// Feature vectors of known-clean frames.
    pub clean: Vec<Vec<f32>>,
    /// Feature vectors of known-adversarial frames.
    pub adversarial: Vec<Vec<f32>>,
}

/// Knobs for the refit supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Wall-clock spacing between background refits.
    /// [`Duration::ZERO`] disables the background thread: refits then
    /// run only when
    /// [`InferenceServer::refit_detector`](crate::InferenceServer::refit_detector)
    /// is called.
    pub interval: Duration,
    /// Reservoir rows required before a refit is attempted; colder
    /// reservoirs resolve to [`RefitOutcome::SkippedCold`].
    pub min_samples: usize,
    /// Tolerated AUC regression: a candidate scoring below
    /// `incumbent_auc - auc_margin` is rejected.
    pub auc_margin: f32,
    /// Forest geometry candidates are trained with. Its `scales` must
    /// match the serving detector's, or every refit fails the
    /// reservoir's dimension check. The seed is rotated by detector
    /// generation so successive refits do not train identical forests.
    pub refit_detector: DetectorConfig,
    /// The held-out validation slice.
    pub validation: ValidationSet,
    /// Where to persist the reservoir (`FADEMLR1`, atomic write) after
    /// each refit attempt, so a restart resumes the sampled stream
    /// instead of starting cold. `None` disables persistence.
    pub reservoir_path: Option<PathBuf>,
}

impl SupervisorConfig {
    /// Validates the supervisor knobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if self.min_samples < 2 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "supervisor min_samples must be at least 2, got {}",
                    self.min_samples
                ),
            });
        }
        if !self.auc_margin.is_finite() || !(0.0..=1.0).contains(&self.auc_margin) {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "supervisor auc_margin must be in [0, 1], got {}",
                    self.auc_margin
                ),
            });
        }
        self.refit_detector
            .validate()
            .map_err(|err| ServeError::InvalidConfig {
                reason: format!("supervisor refit_detector: {err}"),
            })?;
        if self.validation.clean.is_empty() || self.validation.adversarial.is_empty() {
            return Err(ServeError::InvalidConfig {
                reason: "supervisor validation set needs clean and adversarial examples".into(),
            });
        }
        Ok(())
    }
}

/// How one refit attempt resolved. Every variant is also counted in the
/// server's detection metrics, so operators see the refit history
/// without holding these values.
#[derive(Debug, Clone, PartialEq)]
pub enum RefitOutcome {
    /// The candidate validated and was hot-swapped in.
    Swapped {
        /// Detector generation after the swap.
        generation: u64,
        /// Candidate AUC on the held-out slice.
        candidate_auc: f32,
        /// Incumbent AUC on the same slice.
        incumbent_auc: f32,
    },
    /// The candidate regressed past the margin; the incumbent keeps
    /// serving.
    Rejected {
        /// Candidate AUC on the held-out slice.
        candidate_auc: f32,
        /// Incumbent AUC on the same slice.
        incumbent_auc: f32,
    },
    /// The reservoir has not yet collected `min_samples` rows.
    SkippedCold {
        /// Rows the reservoir held at snapshot time.
        samples: usize,
    },
    /// Training or validation returned a typed error.
    Failed {
        /// What went wrong.
        reason: String,
    },
    /// Training panicked; the panic was contained and the incumbent
    /// keeps serving.
    Panicked,
}

/// Result of one refit attempt: the outcome plus whether persisting the
/// reservoir failed (persistence is best-effort and never blocks a
/// swap — a torn disk must not stop the detector from adapting).
#[derive(Debug, Clone, PartialEq)]
pub struct RefitReport {
    /// How the refit resolved.
    pub outcome: RefitOutcome,
    /// Error text if the post-refit reservoir persist failed.
    pub persist_error: Option<String>,
}

/// Runs one refit attempt end to end. Never panics and never touches
/// the serving path beyond a reservoir snapshot and (on success) the
/// detector pointer flip.
pub(crate) fn run_refit(
    triage: &TriageRuntime,
    metrics: &ServerMetrics,
    config: &SupervisorConfig,
    faults: &FaultHandle,
) -> RefitReport {
    let Some(reservoir) = triage.reservoir_snapshot() else {
        return RefitReport {
            outcome: RefitOutcome::Failed {
                reason: "refit on a server without adaptive triage state".into(),
            },
            persist_error: None,
        };
    };
    let outcome = attempt_refit(triage, metrics, config, faults, &reservoir);
    // Persist after the attempt so a restart resumes the exact sampled
    // stream. Best-effort by design: a failed write is reported, never
    // allowed to block the swap that already happened.
    let persist_error = config
        .reservoir_path
        .as_deref()
        .and_then(|path| reservoir.save(path).err())
        .map(|err| err.to_string());
    RefitReport {
        outcome,
        persist_error,
    }
}

/// Train → validate → swap, with each failure mode mapped to its
/// [`RefitOutcome`] and metric.
fn attempt_refit(
    triage: &TriageRuntime,
    metrics: &ServerMetrics,
    config: &SupervisorConfig,
    faults: &FaultHandle,
    reservoir: &fademl_detect::FeatureReservoir,
) -> RefitOutcome {
    if reservoir.len() < config.min_samples {
        return RefitOutcome::SkippedCold {
            samples: reservoir.len(),
        };
    }
    // Rotate the training seed by generation: successive refits explore
    // different forests over the (evolving) reservoir instead of
    // re-deriving the same one.
    let mut detector_config = config.refit_detector;
    detector_config.seed = detector_config
        .seed
        .wrapping_add(metrics.detector_generation().wrapping_add(1));
    let trained = catch_unwind(AssertUnwindSafe(|| {
        fault_on_refit(faults);
        reservoir.refit(&detector_config)
    }));
    let candidate = match trained {
        Err(_) => {
            metrics.record_refit_panic();
            return RefitOutcome::Panicked;
        }
        Ok(Err(err)) => {
            metrics.record_refit_failed();
            return RefitOutcome::Failed {
                reason: err.to_string(),
            };
        }
        Ok(Ok(candidate)) => candidate,
    };
    let incumbent = triage.detector_snapshot();
    let aucs = holdout_auc(
        &candidate,
        &config.validation.clean,
        &config.validation.adversarial,
    )
    .and_then(|cand| {
        holdout_auc(
            &incumbent,
            &config.validation.clean,
            &config.validation.adversarial,
        )
        .map(|inc| (cand, inc))
    });
    let (candidate_auc, incumbent_auc) = match aucs {
        Ok(aucs) => aucs,
        Err(err) => {
            metrics.record_refit_failed();
            return RefitOutcome::Failed {
                reason: format!("validation: {err}"),
            };
        }
    };
    if candidate_auc < incumbent_auc - config.auc_margin {
        metrics.record_refit_rejected();
        return RefitOutcome::Rejected {
            candidate_auc,
            incumbent_auc,
        };
    }
    match triage.swap_detector(candidate, metrics) {
        Ok(generation) => {
            metrics.record_refit_swapped();
            RefitOutcome::Swapped {
                generation,
                candidate_auc,
                incumbent_auc,
            }
        }
        Err(err) => {
            metrics.record_refit_failed();
            RefitOutcome::Failed {
                reason: err.to_string(),
            }
        }
    }
}

/// Spawns the background refit loop. The loop sleeps in short slices so
/// shutdown joins promptly, and runs one refit per elapsed interval;
/// reports are dropped because every outcome is already counted in the
/// metrics.
pub(crate) fn spawn_refit_loop(
    triage: Arc<TriageRuntime>,
    metrics: Arc<ServerMetrics>,
    config: Arc<SupervisorConfig>,
    shutting_down: Arc<AtomicBool>,
    faults: FaultHandle,
) -> Result<JoinHandle<()>> {
    spawn_thread("fademl-serve-refit".into(), move || {
        let slice = Duration::from_millis(5);
        // An interval too long to add to `Instant::now()` never comes due.
        let mut next_refit = Instant::now().checked_add(config.interval);
        while !shutting_down.load(Ordering::Acquire) {
            if next_refit.is_some_and(|at| Instant::now() >= at) {
                run_refit(&triage, &metrics, &config, &faults);
                next_refit = Instant::now().checked_add(config.interval);
            }
            std::thread::sleep(slice);
        }
    })
}
