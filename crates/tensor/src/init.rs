//! Random tensor initialization.
//!
//! All randomness in the workspace flows through [`TensorRng`], a thin
//! wrapper over a seeded [`StdRng`], so every experiment is reproducible
//! from a single `u64` seed. Gaussian samples are produced with the
//! Box–Muller transform (the `rand_distr` crate is deliberately not a
//! dependency): [`TensorRng::normal_scalar`] defines each sample through
//! the platform's `ln` and `cos`, and [`TensorRng::standard_normals`]
//! makes the same samples, bit for bit, in lane-wise chunks.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::simd::{self, NORMAL_CHUNK};
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

    /// Samples a single standard-normal value via Box–Muller. This is
    /// the definition every Gaussian sample in the workspace meets.
    pub fn normal_scalar(&mut self) -> f32 {
        let (u1, u2) = self.box_muller_uniforms();
        box_muller_scalar(u1, u2)
    }

    /// Fills `out` with standard normals: the draws, in the order, and
    /// the bits of `out.len()` calls of
    /// [`normal_scalar`](TensorRng::normal_scalar). The transform runs
    /// on lanes through the active `simd` instantiation; the rare lane
    /// it cannot prove equal to the scalar definition is recomputed by
    /// it. Allocates nothing.
    pub fn standard_normals(&mut self, out: &mut [f32]) {
        // In-domain filler for the lanes past a short last chunk, which
        // are computed and dropped.
        let mut u1 = [0.5f64; NORMAL_CHUNK];
        let mut u2 = [0.5f64; NORMAL_CHUNK];
        let mut normals = [0.0f32; NORMAL_CHUNK];
        let mut exact = [true; NORMAL_CHUNK];
        for run in out.chunks_mut(NORMAL_CHUNK) {
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()).take(run.len()) {
                (*a, *b) = self.box_muller_uniforms();
            }
            simd::box_muller(&u1, &u2, &mut normals, &mut exact);
            let lanes = normals.iter().zip(&exact).zip(u1.iter().zip(&u2));
            for (o, ((&n, &x), (&a, &b))) in run.iter_mut().zip(lanes) {
                *o = if x { n } else { box_muller_scalar(a, b) };
            }
        }
    }

    /// The two uniforms one Box–Muller sample consumes: `u1` strictly
    /// positive for the log, then `u2`.
    #[inline(always)]
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        (u1, u2)
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
        let mut out = Tensor::zeros(dims);
        let values = out.as_mut_slice();
        self.standard_normals(values);
        for x in values {
            *x = mean + std * *x;
        }
        out
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

/// Box–Muller: two uniforms → one standard normal, through the
/// platform's `ln` and `cos`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "Box–Muller runs in f64 for the log; the sample rounds to the f32 tensors hold"
)]
fn box_muller_scalar(u1: f64, u2: f64) -> f32 {
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
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

    /// Runs `pairs` through the lane transform under the active
    /// instantiation, a chunk at a time, and checks every output
    /// against the scalar definition by bits. Returns how many lanes
    /// the guard handed back.
    fn lanes_against_scalar(pairs: impl Iterator<Item = (f64, f64)>) -> usize {
        let isa = crate::simd::active();
        let mut pairs = pairs.peekable();
        let mut fallbacks = 0;
        while pairs.peek().is_some() {
            let (mut u1, mut u2) = ([0.5; NORMAL_CHUNK], [0.5; NORMAL_CHUNK]);
            for (slot, (a, b)) in u1.iter_mut().zip(u2.iter_mut()).zip(pairs.by_ref()) {
                (*slot.0, *slot.1) = (a, b);
            }
            let mut out = [0.0f32; NORMAL_CHUNK];
            let mut exact = [true; NORMAL_CHUNK];
            simd::box_muller(&u1, &u2, &mut out, &mut exact);
            for i in 0..NORMAL_CHUNK {
                let (a, b) = (u1[i], u2[i]);
                if exact[i] {
                    assert_eq!(
                        out[i].to_bits(),
                        box_muller_scalar(a, b).to_bits(),
                        "u1 = {a:e}, u2 = {b:e} on {isa:?}"
                    );
                } else {
                    fallbacks += 1;
                }
            }
        }
        fallbacks
    }

    #[test]
    fn guard_keeps_only_libm_bits_on_random_pairs() {
        const PAIRS: usize = 1 << 22;
        crate::simd::with_each_isa(|_| {
            let mut rng = TensorRng::seed_from_u64(0xB0C5);
            let pairs = std::iter::repeat_with(|| rng.box_muller_uniforms()).take(PAIRS);
            let fallbacks = lanes_against_scalar(pairs);
            assert!(
                fallbacks * 100_000 < PAIRS,
                "{fallbacks} of {PAIRS} random pairs fell back"
            );
        });
    }

    #[test]
    fn guard_falls_back_at_the_edges() {
        // The smallest `u1` the draw makes, and the 10⁵ largest (1 − k·2⁻⁵³,
        // where `ln` takes its |f| < 2⁻²⁰ branch and the normal is tiny),
        // against `u2` at and a few ulps around 0, ¼, ½ and ¾ — where
        // `cos` is ±1 or crosses zero.
        let mut u1s = vec![f64::MIN_POSITIVE, 2f64.powi(-53), 0.5, 0.75];
        u1s.extend((1..=100_000).map(|k| 1.0 - f64::from(k) * 2f64.powi(-53)));
        let mut u2s = Vec::new();
        for centre in [0.0f64, 0.25, 0.5, 0.75] {
            let (mut up, mut down) = (centre, centre);
            u2s.push(centre);
            for _ in 0..4 {
                up = up.next_up();
                u2s.push(up);
                if centre > 0.0 {
                    down = down.next_down();
                    u2s.push(down);
                }
            }
        }
        crate::simd::with_each_isa(|isa| {
            let pairs = u1s.iter().flat_map(|&a| u2s.iter().map(move |&b| (a, b)));
            let fallbacks = lanes_against_scalar(pairs);
            assert!(
                fallbacks > 0,
                "the guard never fired at the edges on {isa:?}"
            );
        });
    }

    #[test]
    fn standard_normals_are_the_scalar_draws() {
        crate::simd::with_each_isa(|isa| {
            // A short last chunk, and a run shorter than one chunk.
            for len in [3 * NORMAL_CHUNK + 17, 5] {
                let mut fast = TensorRng::seed_from_u64(len as u64);
                let mut slow = fast.clone();
                let mut out = vec![0.0f32; len];
                fast.standard_normals(&mut out);
                for (i, v) in out.iter().enumerate() {
                    let want = slow.normal_scalar();
                    assert_eq!(v.to_bits(), want.to_bits(), "sample {i} on {isa:?}");
                }
                assert_eq!(fast.state(), slow.state(), "the streams diverged");
            }
        });
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
