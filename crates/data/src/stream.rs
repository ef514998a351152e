//! Correlated-frame serving workload: a synthetic camera tracking one
//! sign over consecutive frames.
//!
//! Real deployments of the paper's camera → filter → DNN pipeline see
//! *streams*, not i.i.d. samples: consecutive frames show the same sign
//! under slowly drifting pose and exposure, plus fresh per-frame sensor
//! noise. The detection experiments need exactly that workload — a
//! triage detector fitted on clean traffic must not be confusable by
//! ordinary frame-to-frame drift, only by adversarial perturbation.
//!
//! [`FrameStream`] evolves a [`RenderJitter`] by a bounded random walk
//! (temporal correlation) and re-applies the sensor noise model each
//! frame (temporal independence of the noise), all deterministic from
//! one seed.

use fademl_tensor::{Tensor, TensorRng};

use crate::classes::ClassId;
use crate::noise::NoiseModel;
use crate::templates::{render_sign, RenderJitter};
use crate::{DataError, Result};

/// Configuration of a correlated frame stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The tracked sign's class.
    pub class: ClassId,
    /// Square frame edge length in pixels.
    pub image_size: usize,
    /// Per-frame random-walk step in unit space for the geometric
    /// jitter (position/scale); photometric drift uses `2×` this step.
    pub walk_step: f32,
    /// Whether to apply the per-frame sensor noise model.
    pub sensor_noise: bool,
    /// Seed for the walk and the noise.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            class: ClassId::STOP,
            image_size: 32,
            walk_step: 0.02,
            sensor_noise: true,
            seed: 0,
        }
    }
}

impl StreamConfig {
    fn validate(&self) -> Result<()> {
        if self.image_size == 0 {
            return Err(DataError::InvalidConfig {
                reason: "stream image_size must be positive".into(),
            });
        }
        if !self.walk_step.is_finite() || self.walk_step < 0.0 || self.walk_step > 0.25 {
            return Err(DataError::InvalidConfig {
                reason: format!(
                    "walk_step must be a finite value in [0, 0.25], got {}",
                    self.walk_step
                ),
            });
        }
        Ok(())
    }
}

/// A deterministic stream of temporally correlated `[3, S, S]` frames.
#[derive(Debug)]
pub struct FrameStream {
    config: StreamConfig,
    jitter: RenderJitter,
    noise: NoiseModel,
    rng: TensorRng,
    produced: u64,
}

impl FrameStream {
    /// Opens a stream at the canonical (centred, neutral) pose.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidConfig`] for a zero frame size or an
    /// unusable walk step.
    pub fn new(config: StreamConfig) -> Result<Self> {
        config.validate()?;
        Ok(FrameStream {
            config,
            jitter: RenderJitter::default(),
            noise: NoiseModel::sensor(),
            rng: TensorRng::seed_from_u64(config.seed),
            produced: 0,
        })
    }

    /// Renders the next frame: one random-walk step of the jitter, a
    /// fresh render, and (if configured) fresh sensor noise.
    ///
    /// # Errors
    ///
    /// Propagates rendering failures (none for a validated config).
    pub fn next_frame(&mut self) -> Result<Tensor> {
        let step = self.config.walk_step;
        self.jitter = RenderJitter {
            offset_x: self.jitter.offset_x + self.rng.uniform_scalar(-step, step),
            offset_y: self.jitter.offset_y + self.rng.uniform_scalar(-step, step),
            scale: self.jitter.scale + self.rng.uniform_scalar(-step, step),
            brightness: self.jitter.brightness + self.rng.uniform_scalar(-2.0 * step, 2.0 * step),
            background: self.jitter.background,
        }
        // Clamp after every step so the walk reflects at the canvas
        // margins instead of wandering off-frame.
        .clamped();
        let clean = render_sign(self.config.class, self.config.image_size, &self.jitter)?;
        self.produced += 1;
        if self.config.sensor_noise {
            Ok(self.noise.apply(&clean, &mut self.rng))
        } else {
            Ok(clean)
        }
    }

    /// Renders the next `n` frames.
    ///
    /// # Errors
    ///
    /// Same as [`next_frame`](Self::next_frame).
    pub fn take_frames(&mut self, n: usize) -> Result<Vec<Tensor>> {
        (0..n).map(|_| self.next_frame()).collect()
    }

    /// Frames produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2(a: &Tensor, b: &Tensor) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn streams_are_deterministic_from_seed() {
        let config = StreamConfig {
            seed: 7,
            ..StreamConfig::default()
        };
        let a = FrameStream::new(config).unwrap().take_frames(5).unwrap();
        let b = FrameStream::new(config).unwrap().take_frames(5).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_eq!(a[0].dims(), &[3, 32, 32]);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FrameStream::new(StreamConfig {
            seed: 1,
            ..StreamConfig::default()
        })
        .unwrap();
        let mut b = FrameStream::new(StreamConfig {
            seed: 2,
            ..StreamConfig::default()
        })
        .unwrap();
        assert_ne!(
            a.next_frame().unwrap().as_slice(),
            b.next_frame().unwrap().as_slice()
        );
    }

    #[test]
    fn consecutive_frames_are_more_similar_than_distant_ones() {
        // Noise off isolates the geometric walk: frame t vs t+1 must be
        // closer than frame t vs t+30 on average — the correlation the
        // workload exists to model.
        let mut stream = FrameStream::new(StreamConfig {
            sensor_noise: false,
            seed: 11,
            ..StreamConfig::default()
        })
        .unwrap();
        let frames = stream.take_frames(31).unwrap();
        let near: f32 = (0..10).map(|i| l2(&frames[i], &frames[i + 1])).sum();
        let far: f32 = (0..10).map(|i| l2(&frames[i], &frames[30])).sum();
        assert!(
            near < far,
            "adjacent frames must correlate: near {near}, far {far}"
        );
    }

    #[test]
    fn frames_stay_in_unit_range() {
        let mut stream = FrameStream::new(StreamConfig {
            seed: 3,
            ..StreamConfig::default()
        })
        .unwrap();
        for _ in 0..5 {
            let frame = stream.next_frame().unwrap();
            assert!(frame
                .as_slice()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
        }
        assert_eq!(stream.produced(), 5);
    }

    #[test]
    fn invalid_configs_are_refused() {
        for config in [
            StreamConfig {
                image_size: 0,
                ..StreamConfig::default()
            },
            StreamConfig {
                walk_step: f32::NAN,
                ..StreamConfig::default()
            },
            StreamConfig {
                walk_step: 0.5,
                ..StreamConfig::default()
            },
        ] {
            assert!(matches!(
                FrameStream::new(config),
                Err(DataError::InvalidConfig { .. })
            ));
        }
    }
}
