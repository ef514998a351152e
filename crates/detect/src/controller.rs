//! Budget-driven threshold control for the triage stage.
//!
//! PR 7's triage threshold was a magic score. The right operational
//! target is *hardened-path load*: the fraction of traffic routed to
//! the expensive hardened pipeline must stay inside a capacity budget
//! (e.g. ≤ 5%) regardless of what the detector's score distribution
//! does under drift or attack. [`ThresholdController`] closes that
//! loop: it watches the flagged fraction over fixed windows and nudges
//! the threshold up when the hardened path runs hot, down when it runs
//! cold, with hysteresis so a fraction near the budget does not make
//! the threshold oscillate.
//!
//! Two hard rails bound the feedback:
//!
//! - a **floor** the threshold never drops below, so a long quiet
//!   stretch cannot talk the controller into flagging everything;
//! - a **ceiling** it never exceeds, so an attacker flooding
//!   high-score inputs cannot push the threshold up until the detector
//!   is blind. Past the ceiling the serving layer *load-sheds* excess
//!   hardened traffic instead (see [`ControllerConfig::shed_cap`]) —
//!   flooding degrades to shed requests with a typed error, never to a
//!   detector that waves attacks through.
//!
//! The controller is plain sequential state — no locks, no
//! allocation. Callers (the serve triage stage, the adaptive
//! experiment) wrap it in whatever synchronization they already hold.

use crate::error::{DetectError, Result};

/// Knobs for the budget feedback loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Target hardened-path load as a fraction of traffic, in (0, 1).
    pub budget: f32,
    /// Dead band around the budget, as a fraction of it: no adjustment
    /// while the observed load is within `budget * (1 ± hysteresis)`.
    pub hysteresis: f32,
    /// Threshold step per adjustment, in score units.
    pub step: f32,
    /// Hard floor the threshold never drops below.
    pub floor: f32,
    /// Hard ceiling the threshold never exceeds (anti-blinding rail).
    pub ceiling: f32,
    /// Scored frames per observation window.
    pub window: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            budget: 0.05,
            hysteresis: 0.25,
            step: 0.01,
            floor: 0.5,
            ceiling: 0.85,
            window: 64,
        }
    }
}

impl ControllerConfig {
    /// Checks every knob against its envelope.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if !(self.budget > 0.0 && self.budget < 1.0) {
            return Err(DetectError::InvalidConfig {
                reason: format!("controller budget must be in (0, 1), got {}", self.budget),
            });
        }
        if !(self.hysteresis >= 0.0 && self.hysteresis < 1.0) {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "controller hysteresis must be in [0, 1), got {}",
                    self.hysteresis
                ),
            });
        }
        if !(self.step > 0.0 && self.step <= 0.5) {
            return Err(DetectError::InvalidConfig {
                reason: format!("controller step must be in (0, 0.5], got {}", self.step),
            });
        }
        if !(self.floor >= 0.0 && self.floor <= 1.0) {
            return Err(DetectError::InvalidConfig {
                reason: format!("controller floor must be in [0, 1], got {}", self.floor),
            });
        }
        if !(self.ceiling >= self.floor && self.ceiling <= 1.0) {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "controller ceiling must be in [floor, 1], got {} (floor {})",
                    self.ceiling, self.floor
                ),
            });
        }
        if self.window == 0 {
            return Err(DetectError::InvalidConfig {
                reason: "controller window must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// Most hardened dispatches tolerated per window before the
    /// serving layer sheds the excess: twice the budget, never below
    /// one so legitimate flags always have a path through.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates, and the cap is re-fitted into u32"
    )]
    pub fn shed_cap(&self) -> u32 {
        let cap = (2.0 * self.budget * self.window as f32).ceil();
        let cap = u32::try_from(cap as u64).unwrap_or(u32::MAX);
        cap.max(1)
    }
}

/// Feedback controller holding hardened-path load at the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdController {
    config: ControllerConfig,
    threshold: f32,
    window_scored: u32,
    window_flagged: u32,
}

impl ThresholdController {
    /// A controller starting at `initial`, clamped into `[floor, ceiling]`.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] if the config is out of envelope.
    pub fn new(config: ControllerConfig, initial: f32) -> Result<ThresholdController> {
        config.validate()?;
        Ok(ThresholdController {
            config,
            threshold: initial.clamp(config.floor, config.ceiling),
            window_scored: 0,
            window_flagged: 0,
        })
    }

    /// The current triage threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The configuration driving the loop.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Hardened dispatches flagged so far in the open window — the
    /// serving layer compares this against [`ControllerConfig::shed_cap`]
    /// to decide whether to shed.
    pub fn window_flagged(&self) -> u32 {
        self.window_flagged
    }

    /// Records one scored frame. On a window boundary, compares the
    /// flagged fraction against the budget (with hysteresis) and steps
    /// the threshold inside `[floor, ceiling]`. Returns the new
    /// threshold when it changed, `None` otherwise. Allocation-free.
    pub fn observe(&mut self, flagged: bool) -> Option<f32> {
        self.window_scored += 1;
        if flagged {
            self.window_flagged += 1;
        }
        if self.window_scored < self.config.window {
            return None;
        }
        let fraction = self.window_flagged as f32 / self.window_scored as f32;
        self.window_scored = 0;
        self.window_flagged = 0;
        let high = self.config.budget * (1.0 + self.config.hysteresis);
        let low = self.config.budget * (1.0 - self.config.hysteresis);
        let before = self.threshold;
        if fraction > high {
            self.threshold = (self.threshold + self.config.step).min(self.config.ceiling);
        } else if fraction < low {
            self.threshold = (self.threshold - self.config.step).max(self.config.floor);
        }
        if self.threshold.to_bits() != before.to_bits() {
            Some(self.threshold)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_each_knob() {
        let base = ControllerConfig::default();
        let bad = [
            ControllerConfig {
                budget: 0.0,
                ..base
            },
            ControllerConfig {
                budget: 1.0,
                ..base
            },
            ControllerConfig {
                hysteresis: -0.1,
                ..base
            },
            ControllerConfig {
                hysteresis: 1.0,
                ..base
            },
            ControllerConfig { step: 0.0, ..base },
            ControllerConfig { step: 0.6, ..base },
            ControllerConfig {
                floor: -0.1,
                ..base
            },
            ControllerConfig {
                floor: 0.9,
                ceiling: 0.8,
                ..base
            },
            ControllerConfig {
                ceiling: 1.1,
                ..base
            },
            ControllerConfig { window: 0, ..base },
        ];
        for config in bad {
            assert!(config.validate().is_err(), "{config:?} should be rejected");
        }
        assert!(base.validate().is_ok());
    }

    #[test]
    fn initial_threshold_is_clamped_into_the_rails() {
        let config = ControllerConfig::default();
        let low = ThresholdController::new(config, 0.0).unwrap();
        assert_eq!(low.threshold(), config.floor);
        let high = ThresholdController::new(config, 1.0).unwrap();
        assert_eq!(high.threshold(), config.ceiling);
    }

    #[test]
    fn hot_load_steps_threshold_up_to_the_ceiling_and_stops() {
        let config = ControllerConfig {
            window: 8,
            ..ControllerConfig::default()
        };
        let mut ctl = ThresholdController::new(config, 0.6).unwrap();
        // Every frame flagged: far over budget, each window steps up.
        let mut changes = 0;
        for _ in 0..(8 * 100) {
            if ctl.observe(true).is_some() {
                changes += 1;
            }
        }
        assert_eq!(ctl.threshold(), config.ceiling);
        // The windows it took to travel 0.6 -> ceiling (one extra step
        // possible when float accumulation lands just under it).
        assert!((25..=26).contains(&changes), "got {changes}");
        // Pinned at the ceiling, further floods change nothing: the
        // anti-blinding rail. Excess load is shed, not absorbed.
        for _ in 0..(8 * 10) {
            assert!(ctl.observe(true).is_none());
        }
        assert_eq!(ctl.threshold(), config.ceiling);
    }

    #[test]
    fn cold_load_steps_down_to_the_floor_and_stops() {
        let config = ControllerConfig {
            window: 8,
            ..ControllerConfig::default()
        };
        let mut ctl = ThresholdController::new(config, 0.6).unwrap();
        for _ in 0..(8 * 100) {
            ctl.observe(false);
        }
        assert_eq!(ctl.threshold(), config.floor);
    }

    #[test]
    fn load_inside_the_dead_band_holds_steady() {
        let config = ControllerConfig {
            budget: 0.25,
            hysteresis: 0.5,
            window: 8,
            ..ControllerConfig::default()
        };
        // 2/8 = 0.25 flagged: exactly on budget, inside the band.
        let mut ctl = ThresholdController::new(config, 0.7).unwrap();
        for round in 0..50 {
            for i in 0..8 {
                let changed = ctl.observe(i < 2);
                assert!(changed.is_none(), "round {round} moved the threshold");
            }
        }
        assert_eq!(ctl.threshold(), 0.7);
    }

    #[test]
    fn adjustments_happen_only_on_window_boundaries() {
        let config = ControllerConfig {
            window: 16,
            ..ControllerConfig::default()
        };
        let mut ctl = ThresholdController::new(config, 0.6).unwrap();
        for i in 1..16 {
            assert!(ctl.observe(true).is_none(), "frame {i} adjusted early");
        }
        assert!(ctl.observe(true).is_some());
    }

    #[test]
    fn shed_cap_is_twice_budget_with_a_floor_of_one() {
        let config = ControllerConfig {
            budget: 0.05,
            window: 64,
            ..ControllerConfig::default()
        };
        // 2 * 0.05 * 64 = 6.4 -> 7
        assert_eq!(config.shed_cap(), 7);
        let tiny = ControllerConfig {
            budget: 0.01,
            window: 8,
            ..ControllerConfig::default()
        };
        assert_eq!(tiny.shed_cap(), 1);
    }

    #[test]
    fn window_flagged_resets_each_window() {
        let config = ControllerConfig {
            window: 4,
            ..ControllerConfig::default()
        };
        let mut ctl = ThresholdController::new(config, 0.6).unwrap();
        ctl.observe(true);
        ctl.observe(true);
        assert_eq!(ctl.window_flagged(), 2);
        ctl.observe(false);
        ctl.observe(false);
        assert_eq!(ctl.window_flagged(), 0);
    }
}
