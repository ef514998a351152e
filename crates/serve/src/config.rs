//! Server tuning knobs.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::error::{Result, ServeError};

/// Configuration for an [`InferenceServer`](crate::InferenceServer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Most requests that may wait for a worker at once, over all
    /// threat models. Submissions beyond this are rejected with
    /// [`ServeError::Overloaded`] — backpressure is explicit, never an
    /// unbounded buffer.
    pub queue_capacity: usize,
    /// Largest batch a worker takes at once. A full bucket is ready
    /// for the next free worker whatever its age.
    pub max_batch_size: usize,
    /// How old a bucket's head must be before a free worker may take a
    /// bucket that is not yet full (microseconds; stored as an integer
    /// so the config is serde-friendly). It only ever holds work back
    /// from an *idle* worker: while all workers are busy, requests
    /// accumulate into batches on their own, so load, not this timer,
    /// fills batches. `0` serves a lone request the moment a worker
    /// wakes, but then every near-simultaneous arrival runs as its own
    /// batch on its own worker and a few clients keep every core busy:
    /// throughput tracks whatever CPU the host grants from one run to
    /// the next. The default `500` lets such arrivals share one batch
    /// and leaves the cores slack, at half a millisecond per request
    /// (DESIGN.md §9 has the measured trade). Also pins batch
    /// composition in tests.
    pub linger_us: u64,
    /// Number of inference worker threads sharing the model.
    pub workers: usize,
    /// Smallest pixel value admitted by input validation. Images with
    /// any value below this (or non-finite) are rejected with
    /// [`ServeError::InvalidInput`] before they can share a batch.
    pub pixel_min: f32,
    /// Largest pixel value admitted by input validation.
    pub pixel_max: f32,
    /// Consecutive batch-level failures (panics or whole-batch pipeline
    /// errors) after which the circuit breaker sheds to per-image
    /// classification (degraded mode).
    pub degrade_after_failures: usize,
    /// While degraded, every `probe_every`-th batch is attempted on the
    /// full batched path as a probe; a successful probe restores normal
    /// batched execution. `1` probes on every batch.
    pub probe_every: usize,
    /// Compute threads for the parallel tensor kernels (matmul, conv)
    /// backing the batched inference path. `0` (the default)
    /// defers to the `FADEML_THREADS` environment variable or
    /// auto-detection; a positive value installs a process-wide
    /// [`fademl_tensor::par::set_threads`] override at server start.
    /// Kernels are bit-exact across thread counts, so this only changes
    /// throughput, never predictions.
    pub compute_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            max_batch_size: 16,
            linger_us: 500,
            workers: 2,
            pixel_min: 0.0,
            pixel_max: 1.0,
            degrade_after_failures: 3,
            probe_every: 4,
            compute_threads: 0,
        }
    }
}

impl ServerConfig {
    /// The linger hold as a [`Duration`].
    pub fn linger(&self) -> Duration {
        Duration::from_micros(self.linger_us)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when any count knob is
    /// zero or the admitted pixel range is empty or non-finite.
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue_capacity must be positive".into(),
            });
        }
        if self.max_batch_size == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_batch_size must be positive".into(),
            });
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "workers must be positive".into(),
            });
        }
        if !self.pixel_min.is_finite() || !self.pixel_max.is_finite() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "pixel range [{}, {}] must be finite",
                    self.pixel_min, self.pixel_max
                ),
            });
        }
        if self.pixel_min >= self.pixel_max {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "pixel range [{}, {}] is empty",
                    self.pixel_min, self.pixel_max
                ),
            });
        }
        if self.degrade_after_failures == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "degrade_after_failures must be positive".into(),
            });
        }
        if self.probe_every == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "probe_every must be positive".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServerConfig::default().validate().unwrap();
        // A quarter of the old fixed 2 ms linger.
        assert_eq!(ServerConfig::default().linger(), Duration::from_micros(500));
    }

    #[test]
    fn zero_knobs_rejected() {
        for broken in [
            ServerConfig {
                queue_capacity: 0,
                ..Default::default()
            },
            ServerConfig {
                max_batch_size: 0,
                ..Default::default()
            },
            ServerConfig {
                workers: 0,
                ..Default::default()
            },
            ServerConfig {
                degrade_after_failures: 0,
                ..Default::default()
            },
            ServerConfig {
                probe_every: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                broken.validate(),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn broken_pixel_range_rejected() {
        for (lo, hi) in [
            (1.0, 0.0),
            (0.5, 0.5),
            (f32::NAN, 1.0),
            (0.0, f32::INFINITY),
        ] {
            let broken = ServerConfig {
                pixel_min: lo,
                pixel_max: hi,
                ..Default::default()
            };
            assert!(
                matches!(broken.validate(), Err(ServeError::InvalidConfig { .. })),
                "range [{lo}, {hi}] should be refused"
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let config = ServerConfig {
            queue_capacity: 32,
            max_batch_size: 8,
            linger_us: 500,
            workers: 3,
            pixel_min: -1.0,
            pixel_max: 2.0,
            degrade_after_failures: 5,
            probe_every: 2,
            compute_threads: 4,
        };
        let text = serde::json::to_string(&config);
        let back: ServerConfig = serde::json::from_str(&text).unwrap();
        assert_eq!(back, config);
    }
}
