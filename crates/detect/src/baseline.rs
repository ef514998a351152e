//! Per-tenant score baselines: streaming quantile sketches that make
//! the triage threshold relative to each tenant's clean distribution.
//!
//! A single global threshold lets one tenant's traffic shape poison
//! everyone's triage rate: a tenant whose clean frames naturally score
//! high eats the hardened budget, a tenant who scores low gets a free
//! evasion margin. Instead we track a streaming quantile of clean
//! scores per tenant (the P² algorithm — five markers, fixed arrays,
//! no sample buffer) alongside a global sketch, and shift each
//! tenant's effective threshold by the clamped difference between its
//! quantile and the global one.
//!
//! The tenant table is cap-checked: at most [`BaselineConfig::max_tenants`]
//! entries, with least-recently-used eviction, so an attacker spraying
//! tenant IDs bounds memory instead of growing it. The steady-state
//! observe path (known tenant) is allocation-free; only first contact
//! with a new tenant allocates its table entry.

use std::collections::HashMap;

use crate::error::{DetectError, Result};

/// Hard cap on [`BaselineConfig::max_tenants`].
pub const MAX_TENANT_TABLE: usize = 1 << 16;

/// Knobs for the per-tenant baseline table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Which clean-score quantile anchors the baseline (e.g. `0.9`).
    pub quantile: f64,
    /// Most tenants tracked before LRU eviction kicks in.
    pub max_tenants: usize,
    /// Observations a sketch needs before its quantile is trusted.
    pub min_samples: u64,
    /// Largest absolute threshold shift a tenant baseline may apply.
    pub max_shift: f32,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            quantile: 0.9,
            max_tenants: 256,
            min_samples: 32,
            max_shift: 0.1,
        }
    }
}

impl BaselineConfig {
    /// Checks every knob against its envelope.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if !(self.quantile > 0.0 && self.quantile < 1.0) {
            return Err(DetectError::InvalidConfig {
                reason: format!("baseline quantile must be in (0, 1), got {}", self.quantile),
            });
        }
        if self.max_tenants == 0 || self.max_tenants > MAX_TENANT_TABLE {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "baseline max_tenants must be in 1..={MAX_TENANT_TABLE}, got {}",
                    self.max_tenants
                ),
            });
        }
        if self.min_samples < 5 {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "baseline min_samples must be at least 5 (the P\u{b2} marker count), got {}",
                    self.min_samples
                ),
            });
        }
        if !(self.max_shift >= 0.0 && self.max_shift <= 0.5) {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "baseline max_shift must be in [0, 0.5], got {}",
                    self.max_shift
                ),
            });
        }
        Ok(())
    }
}

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac,
/// 1985): five markers whose heights track the min, the target
/// quantile and its midpoints, and the max. Fixed-size state, no
/// sample buffer, one parabolic adjustment per observation.
#[derive(Debug, Clone, PartialEq)]
struct QuantileSketch {
    /// Target quantile in (0, 1).
    q: f64,
    /// Marker heights (sorted ascending once primed).
    heights: [f64; 5],
    /// Actual marker positions, 1-based.
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
    /// Observations absorbed so far.
    count: u64,
}

fn at(a: &[f64; 5], i: usize) -> f64 {
    a.get(i).copied().unwrap_or(0.0)
}

fn set(a: &mut [f64; 5], i: usize, v: f64) {
    if let Some(slot) = a.get_mut(i) {
        *slot = v;
    }
}

impl QuantileSketch {
    fn new(q: f64) -> QuantileSketch {
        QuantileSketch {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        if self.count < 5 {
            // Priming: sorted insertion of the first five observations.
            let n = usize::try_from(self.count).unwrap_or(0);
            let mut i = n;
            while i > 0 && at(&self.heights, i - 1) > value {
                let shifted = at(&self.heights, i - 1);
                set(&mut self.heights, i, shifted);
                i -= 1;
            }
            set(&mut self.heights, i, value);
            self.count += 1;
            return;
        }
        // Locate the cell the new value falls into, adjusting extremes.
        let k = if value < at(&self.heights, 0) {
            set(&mut self.heights, 0, value);
            0
        } else if value >= at(&self.heights, 4) {
            set(&mut self.heights, 4, value);
            3
        } else {
            let mut cell = 0;
            for i in 1..4 {
                if value < at(&self.heights, i) {
                    break;
                }
                cell = i;
            }
            cell
        };
        for i in (k + 1)..5 {
            let p = at(&self.positions, i);
            set(&mut self.positions, i, p + 1.0);
        }
        for i in 0..5 {
            let d = at(&self.desired, i);
            set(&mut self.desired, i, d + at(&self.increments, i));
        }
        // Nudge the three interior markers toward their desired spots.
        for i in 1..4 {
            let n_i = at(&self.positions, i);
            let d = at(&self.desired, i) - n_i;
            let n_prev = at(&self.positions, i - 1);
            let n_next = at(&self.positions, i + 1);
            if (d >= 1.0 && n_next - n_i > 1.0) || (d <= -1.0 && n_prev - n_i < -1.0) {
                let step = if d >= 1.0 { 1.0 } else { -1.0 };
                let h_i = at(&self.heights, i);
                let h_prev = at(&self.heights, i - 1);
                let h_next = at(&self.heights, i + 1);
                // Parabolic (P²) interpolation; fall back to linear if
                // it would break marker ordering.
                let parabolic = h_i
                    + step / (n_next - n_prev)
                        * ((n_i - n_prev + step) * (h_next - h_i) / (n_next - n_i)
                            + (n_next - n_i - step) * (h_i - h_prev) / (n_i - n_prev));
                let candidate = if h_prev < parabolic && parabolic < h_next {
                    parabolic
                } else if step > 0.0 {
                    h_i + (h_next - h_i) / (n_next - n_i)
                } else {
                    h_i - (h_prev - h_i) / (n_prev - n_i)
                };
                set(&mut self.heights, i, candidate);
                set(&mut self.positions, i, n_i + step);
            }
        }
        self.count += 1;
    }

    /// The current quantile estimate, or `None` while priming.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates, and the rank is clamped into 1..=n"
    )]
    fn quantile(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            // Not enough for the marker machinery: nearest-rank over
            // the primed prefix.
            let n = usize::try_from(self.count).unwrap_or(1);
            let rank = usize::try_from((self.q * n as f64).ceil() as u64)
                .unwrap_or(n)
                .clamp(1, n);
            return Some(at(&self.heights, rank - 1));
        }
        Some(at(&self.heights, 2))
    }

    fn count(&self) -> u64 {
        self.count
    }
}

#[derive(Debug, Clone)]
struct TenantEntry {
    sketch: QuantileSketch,
    last_used: u64,
}

/// Cap-checked table of per-tenant clean-score sketches plus the
/// global sketch they are measured against.
#[derive(Debug, Clone)]
pub struct TenantBaselines {
    config: BaselineConfig,
    global: QuantileSketch,
    tenants: HashMap<String, TenantEntry>,
    /// Logical clock driving LRU eviction; bumps per observation.
    clock: u64,
}

impl TenantBaselines {
    /// An empty baseline table.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] if the config is out of envelope.
    pub fn new(config: BaselineConfig) -> Result<TenantBaselines> {
        config.validate()?;
        Ok(TenantBaselines {
            config,
            global: QuantileSketch::new(config.quantile),
            tenants: HashMap::default(),
            clock: 0,
        })
    }

    /// Feeds one clean-verdict score into the global sketch and the
    /// tenant's. Steady state (tenant already tracked) is
    /// allocation-free; first contact with a new tenant allocates its
    /// entry, evicting the least-recently-used one at the cap.
    pub fn observe(&mut self, tenant: &str, score: f32) {
        self.clock = self.clock.wrapping_add(1);
        self.global.observe(f64::from(score));
        if let Some(entry) = self.tenants.get_mut(tenant) {
            entry.sketch.observe(f64::from(score));
            entry.last_used = self.clock;
            return;
        }
        if self.tenants.len() >= self.config.max_tenants {
            let coldest = self
                .tenants
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.to_string());
            if let Some(key) = coldest {
                self.tenants.remove(&key);
            }
        }
        let mut sketch = QuantileSketch::new(self.config.quantile);
        sketch.observe(f64::from(score));
        self.tenants.insert(
            tenant.to_string(),
            TenantEntry {
                sketch,
                last_used: self.clock,
            },
        );
    }

    /// The threshold shift for `tenant`: the difference between its
    /// clean-score quantile and the global one, clamped to
    /// `±max_shift`. Zero until both sketches are warm — an unknown or
    /// cold tenant gets the global threshold, never a guess.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the sketches run in f64; the shift rounds to the f32 thresholds"
    )]
    pub fn shift(&self, tenant: &str) -> f32 {
        let global_warm = self.global.count() >= self.config.min_samples;
        let Some(entry) = self.tenants.get(tenant) else {
            return 0.0;
        };
        if !global_warm || entry.sketch.count() < self.config.min_samples {
            return 0.0;
        }
        match (entry.sketch.quantile(), self.global.quantile()) {
            (Some(tq), Some(gq)) => {
                ((tq - gq) as f32).clamp(-self.config.max_shift, self.config.max_shift)
            }
            _ => 0.0,
        }
    }

    /// Tenants currently tracked.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Total clean scores absorbed (all tenants).
    pub fn observations(&self) -> u64 {
        self.global.count()
    }

    /// The configuration this table was built with.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    #[test]
    fn config_validation_names_each_knob() {
        let bad = [
            BaselineConfig {
                quantile: 0.0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                quantile: 1.0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                max_tenants: 0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                max_tenants: MAX_TENANT_TABLE + 1,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                min_samples: 4,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                max_shift: -0.01,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                max_shift: 0.6,
                ..BaselineConfig::default()
            },
        ];
        for config in bad {
            assert!(
                matches!(
                    TenantBaselines::new(config),
                    Err(DetectError::InvalidConfig { .. })
                ),
                "{config:?} should be rejected"
            );
        }
        assert!(TenantBaselines::new(BaselineConfig::default()).is_ok());
    }

    #[test]
    fn sketch_tracks_known_quantiles_of_uniform_data() {
        let mut sketch = QuantileSketch::new(0.9);
        let mut rng = TensorRng::seed_from_u64(17);
        for _ in 0..20_000 {
            sketch.observe(f64::from(rng.uniform_scalar(0.0, 1.0)));
        }
        let q = sketch.quantile().unwrap();
        assert!(
            (q - 0.9).abs() < 0.02,
            "p90 of U(0,1) should be ~0.9, got {q}"
        );

        let mut median = QuantileSketch::new(0.5);
        let mut rng = TensorRng::seed_from_u64(18);
        for _ in 0..20_000 {
            median.observe(f64::from(rng.uniform_scalar(-1.0, 1.0)));
        }
        let m = median.quantile().unwrap();
        assert!(m.abs() < 0.03, "median of U(-1,1) should be ~0, got {m}");
    }

    #[test]
    fn sketch_handles_tiny_counts_without_panicking() {
        let mut sketch = QuantileSketch::new(0.9);
        assert!(sketch.quantile().is_none());
        for v in [3.0, 1.0, 2.0] {
            sketch.observe(v);
        }
        // Nearest-rank over the primed prefix; must be one of the
        // observed values.
        let q = sketch.quantile().unwrap();
        assert!([1.0, 2.0, 3.0].contains(&q), "got {q}");
    }

    #[test]
    fn shift_is_zero_until_warm_then_tracks_tenant_offset() {
        let config = BaselineConfig {
            min_samples: 32,
            max_shift: 0.2,
            ..BaselineConfig::default()
        };
        let mut table = TenantBaselines::new(config).unwrap();
        let mut rng = TensorRng::seed_from_u64(5);
        assert_eq!(table.shift("unknown"), 0.0);
        // A dominant "mid" tenant anchors the global sketch near 0.45;
        // "hot" runs ~0.1 above it, "cool" ~0.1 below.
        for _ in 0..500 {
            for _ in 0..8 {
                table.observe("mid", 0.45 + rng.uniform_scalar(-0.02, 0.02));
            }
            table.observe("cool", 0.35 + rng.uniform_scalar(-0.02, 0.02));
            table.observe("hot", 0.55 + rng.uniform_scalar(-0.02, 0.02));
        }
        let hot = table.shift("hot");
        let cool = table.shift("cool");
        assert!(hot > 0.02, "hot tenant should shift up, got {hot}");
        assert!(cool < -0.02, "cool tenant should shift down, got {cool}");
        assert!(hot <= config.max_shift && cool >= -config.max_shift);
        assert_eq!(table.shift("never-seen"), 0.0);
    }

    #[test]
    fn shift_clamps_to_max_shift() {
        let config = BaselineConfig {
            min_samples: 32,
            max_shift: 0.05,
            ..BaselineConfig::default()
        };
        let mut table = TenantBaselines::new(config).unwrap();
        // The global p90 sits at 0.5 (dominant mid tenant); the outlier
        // tenants are far enough off that both shifts saturate.
        for _ in 0..100 {
            for _ in 0..10 {
                table.observe("mid", 0.5);
            }
            table.observe("low", 0.1);
            table.observe("high", 0.9);
        }
        assert_eq!(table.shift("high"), 0.05);
        assert_eq!(table.shift("low"), -0.05);
    }

    #[test]
    fn tenant_table_is_capped_with_lru_eviction() {
        let config = BaselineConfig {
            max_tenants: 4,
            ..BaselineConfig::default()
        };
        let mut table = TenantBaselines::new(config).unwrap();
        for i in 0..4 {
            table.observe(&format!("t{i}"), 0.5);
        }
        assert_eq!(table.tenants(), 4);
        // Touch t0 so t1 becomes the LRU victim.
        table.observe("t0", 0.5);
        table.observe("t9", 0.5);
        assert_eq!(table.tenants(), 4);
        // t1 evicted; observing it again re-admits (evicting t2).
        table.observe("t1", 0.5);
        assert_eq!(table.tenants(), 4);
        // An attacker spraying tenant IDs never grows the table.
        for i in 0..1000 {
            table.observe(&format!("spray-{i}"), 0.5);
        }
        assert_eq!(table.tenants(), 4);
    }

    #[test]
    fn steady_state_observe_does_not_touch_the_tenant_map_size() {
        let mut table = TenantBaselines::new(BaselineConfig::default()).unwrap();
        table.observe("a", 0.5);
        let cap = table.tenants.capacity();
        for _ in 0..10_000 {
            table.observe("a", 0.5);
        }
        assert_eq!(table.tenants.capacity(), cap);
        assert_eq!(table.tenants(), 1);
        assert_eq!(table.observations(), 10_001);
    }
}
