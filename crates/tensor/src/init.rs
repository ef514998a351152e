//! Random tensor initialization.
//!
//! All randomness in the workspace flows through [`TensorRng`], a thin
//! wrapper over a seeded [`StdRng`], so every experiment is reproducible
//! from a single `u64` seed. Gaussian samples are produced with the
//! Box–Muller transform (the `rand_distr` crate is deliberately not a
//! dependency).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::Tensor;

/// Weight-initialization schemes for neural-network layers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Initializer {
    /// All zeros (used for biases).
    Zeros,
    /// Uniform in `[-limit, limit]`.
    Uniform {
        /// Half-width of the sampling interval.
        limit: f32,
    },
    /// Gaussian with the given standard deviation, mean 0.
    Normal {
        /// Standard deviation.
        std: f32,
    },
    /// He/Kaiming normal: `std = sqrt(2 / fan_in)` — the right scale for
    /// ReLU networks like the paper's VGGNet.
    KaimingNormal {
        /// Number of input connections per output unit.
        fan_in: usize,
    },
    /// Glorot/Xavier uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform {
        /// Number of input connections.
        fan_in: usize,
        /// Number of output connections.
        fan_out: usize,
    },
}

/// Deterministic random source for tensors.
///
/// # Example
///
/// ```
/// use fademl_tensor::TensorRng;
///
/// let mut rng = TensorRng::seed_from_u64(42);
/// let a = rng.uniform(&[2, 2], -1.0, 1.0);
/// let mut rng2 = TensorRng::seed_from_u64(42);
/// let b = rng2.uniform(&[2, 2], -1.0, 1.0);
/// assert_eq!(a, b); // same seed, same tensor
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: StdRng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        TensorRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples a single uniform value in `[lo, hi)`.
    pub fn uniform_scalar(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            return lo;
        }
        self.rng.random_range(lo..hi)
    }

    /// Samples a single standard-normal value via Box–Muller.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Box–Muller runs in f64 for the log; the sample rounds to the f32 tensors hold"
    )]
    pub fn normal_scalar(&mut self) -> f32 {
        // Box–Muller transform: two uniforms → one normal. u1 must be
        // strictly positive for the log.
        let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Samples a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.rng.random_range(0..bound)
    }

    /// Samples `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f32) -> bool {
        self.rng.random_range(0.0..1.0f32) < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.rng.random_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A tensor of uniform samples in `[lo, hi)`.
    pub fn uniform(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        Tensor::from_fn(dims, || self.uniform_scalar(lo, hi))
    }

    /// A tensor of Gaussian samples with the given mean and std.
    pub fn normal(&mut self, dims: &[usize], mean: f32, std: f32) -> Tensor {
        Tensor::from_fn(dims, || mean + std * self.normal_scalar())
    }

    /// A tensor drawn according to an [`Initializer`].
    pub fn init(&mut self, dims: &[usize], init: Initializer) -> Tensor {
        match init {
            Initializer::Zeros => Tensor::zeros(dims),
            Initializer::Uniform { limit } => self.uniform(dims, -limit, limit),
            Initializer::Normal { std } => self.normal(dims, 0.0, std),
            Initializer::KaimingNormal { fan_in } => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                self.normal(dims, 0.0, std)
            }
            Initializer::XavierUniform { fan_in, fan_out } => {
                let limit = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                self.uniform(dims, -limit, limit)
            }
        }
    }

    /// Forks a child generator whose stream is decorrelated from the
    /// parent's but still deterministic.
    pub fn fork(&mut self) -> TensorRng {
        TensorRng::seed_from_u64(self.rng.random())
    }

    /// Captures the generator's full internal state so a checkpointed
    /// training run can resume the *exact* random stream (same future
    /// shuffles and samples) instead of restarting from the seed.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a generator from a state captured with
    /// [`TensorRng::state`]. The restored generator continues the
    /// original stream bit-for-bit.
    pub fn from_state(state: [u64; 4]) -> TensorRng {
        TensorRng {
            rng: StdRng::from_state(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = TensorRng::seed_from_u64(7);
        let mut b = TensorRng::seed_from_u64(7);
        assert_eq!(a.uniform(&[10], 0.0, 1.0), b.uniform(&[10], 0.0, 1.0));
        assert_eq!(a.normal(&[10], 0.0, 1.0), b.normal(&[10], 0.0, 1.0));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed_from_u64(1);
        let mut b = TensorRng::seed_from_u64(2);
        assert_ne!(a.uniform(&[16], 0.0, 1.0), b.uniform(&[16], 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seed_from_u64(3);
        let t = rng.uniform(&[1000], -0.5, 0.5);
        for &x in t.as_slice() {
            assert!((-0.5..0.5).contains(&x));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = TensorRng::seed_from_u64(4);
        let t = rng.normal(&[20000], 3.0, 2.0);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "var was {var}");
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let mut rng = TensorRng::seed_from_u64(5);
        let wide = rng.init(&[5000], Initializer::KaimingNormal { fan_in: 1000 });
        let narrow = rng.init(&[5000], Initializer::KaimingNormal { fan_in: 10 });
        assert!(wide.norm_l2() < narrow.norm_l2());
    }

    #[test]
    fn zeros_initializer() {
        let mut rng = TensorRng::seed_from_u64(6);
        assert_eq!(rng.init(&[4], Initializer::Zeros), Tensor::zeros(&[4]));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::seed_from_u64(8);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn index_within_bound() {
        let mut rng = TensorRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = TensorRng::seed_from_u64(10);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = TensorRng::seed_from_u64(12);
        a.uniform(&[64], 0.0, 1.0); // advance the stream
        let mut b = TensorRng::from_state(a.state());
        assert_eq!(a.uniform(&[32], -1.0, 1.0), b.uniform(&[32], -1.0, 1.0));
        let mut order_a: Vec<usize> = (0..20).collect();
        let mut order_b = order_a.clone();
        a.shuffle(&mut order_a);
        b.shuffle(&mut order_b);
        assert_eq!(order_a, order_b);
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = TensorRng::seed_from_u64(11);
        let mut child = parent.fork();
        assert_ne!(
            parent.uniform(&[8], 0.0, 1.0),
            child.uniform(&[8], 0.0, 1.0)
        );
    }
}
