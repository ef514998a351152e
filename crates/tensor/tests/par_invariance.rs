//! Thread-count and instruction-set invariance: every kernel routed
//! through the `fademl_tensor::par` pool must produce **bit-identical**
//! output at any thread count, and the GEMM micro-kernel's
//! instantiations (baseline, AVX2, AVX-512F) must agree lane for lane.
//! This is the invariant that lets byte-exact checkpoint/resume
//! and the seed-sensitive statistical tests survive parallelisation and
//! vectorisation — partitioning only ever splits independent outputs,
//! and no instantiation fuses or re-associates a reduction.
//!
//! `set_threads` and `simd::pin` are process-wide overrides, so every
//! test here serialises on one mutex and restores the defaults on exit.

use parking_lot::Mutex;

use fademl_tensor::plan::blueprint::{plan_gemm, OpKind};
use fademl_tensor::simd;
use fademl_tensor::{conv2d, conv2d_backward, par, ConvSpec, Tensor, TensorRng};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

static THREADS_GUARD: Mutex<()> = Mutex::new(());

/// Thread counts probed by every invariance check: serial, even splits,
/// and a prime count that never divides the row counts evenly.
const SWEEP: [usize; 4] = [1, 2, 4, 7];

/// Runs `op` once per (instantiation, thread count) cell — every
/// instantiation this host can run — and returns each cell's label and
/// output bit patterns, baseline-serial first.
fn sweep_bits(op: impl Fn() -> Vec<f32>) -> Vec<(String, Vec<u32>)> {
    let _guard = THREADS_GUARD.lock();
    let mut runs = Vec::new();
    for isa in simd::available() {
        assert!(simd::pin(Some(isa)), "{isa:?} is available but refused");
        for &t in &SWEEP {
            par::set_threads(t);
            let bits = op().iter().map(|v| v.to_bits()).collect();
            runs.push((format!("{} × {t} threads", isa.name()), bits));
        }
    }
    simd::pin(None);
    par::set_threads(1);
    runs
}

fn assert_invariant(op: impl Fn() -> Vec<f32>, what: &str) {
    let runs = sweep_bits(op);
    for (cell, run) in &runs[1..] {
        assert_eq!(
            run, &runs[0].1,
            "{what}: output at {cell} diverged from baseline serial"
        );
    }
}

fn filled(rng: &mut TensorRng, dims: &[usize]) -> Tensor {
    rng.uniform(dims, -2.0, 2.0)
}

// ---------------------------------------------------------------- fixed
// Adversarial fixed shapes: degenerate 1×1, primes everywhere, fewer
// rows than workers, and shapes big enough to actually engage the pool
// (work ≥ the `should_parallelize` threshold).

#[test]
fn matmul_family_invariant_on_adversarial_shapes() {
    let mut rng = TensorRng::seed_from_u64(7);
    for (m, k, n) in [
        (1, 1, 1),      // scalar product, below every threshold
        (2, 257, 3),    // prime k spanning two KC blocks
        (3, 1, 1031),   // prime n spanning three NC panels
        (7, 64, 513),   // rows below the sweep's max thread count
        (67, 129, 65),  // primes straddling MC/KC block edges
        (128, 256, 64), // well past the parallel threshold
    ] {
        let a = filled(&mut rng, &[m, k]);
        let b = filled(&mut rng, &[k, n]);
        let at = filled(&mut rng, &[k, m]);
        let bt = filled(&mut rng, &[n, k]);
        assert_invariant(
            || a.matmul(&b).expect("matmul").into_vec(),
            &format!("matmul {m}x{k}x{n}"),
        );
        assert_invariant(
            || at.matmul_tn(&b).expect("matmul_tn").into_vec(),
            &format!("matmul_tn {m}x{k}x{n}"),
        );
        assert_invariant(
            || a.matmul_nt(&bt).expect("matmul_nt").into_vec(),
            &format!("matmul_nt {m}x{k}x{n}"),
        );
    }
}

#[test]
fn conv2d_invariant_on_adversarial_shapes() {
    let mut rng = TensorRng::seed_from_u64(11);
    // (batch, spec, h, w): single sample, fewer samples than workers,
    // stride/padding asymmetry, and a pool-engaging VGG-ish layer.
    for (n, spec, h, w) in [
        (1, ConvSpec::new(1, 1, 1, 1, 0), 1, 1),
        (3, ConvSpec::new(2, 5, 3, 2, 1), 7, 11),
        (8, ConvSpec::new(3, 32, 3, 1, 1), 32, 32),
    ] {
        let input = filled(&mut rng, &[n, spec.in_channels, h, w]);
        let weight = filled(
            &mut rng,
            &[
                spec.out_channels,
                spec.in_channels,
                spec.kernel_h,
                spec.kernel_w,
            ],
        );
        let bias = filled(&mut rng, &[spec.out_channels]);
        let out = conv2d(&input, &weight, &bias, &spec).expect("conv2d");
        let grad_out = filled(&mut rng, out.dims());
        assert_invariant(
            || {
                conv2d(&input, &weight, &bias, &spec)
                    .expect("conv2d")
                    .into_vec()
            },
            &format!("conv2d n={n} {spec:?}"),
        );
        assert_invariant(
            || {
                let grads =
                    conv2d_backward(&input, &weight, &grad_out, &spec).expect("conv2d_backward");
                let mut all = grads.input.into_vec();
                all.extend(grads.weight.into_vec());
                all.extend(grads.bias.into_vec());
                all
            },
            &format!("conv2d_backward n={n} {spec:?}"),
        );
    }
}

// ----------------------------------------------------------------- plan

/// A plan reads `par::threads()` itself, so a `set_threads` change shows
/// in the very next plan of the same shape — nothing can serve it stale.
#[test]
fn plan_follows_set_threads_on_the_next_call() {
    let _guard = THREADS_GUARD.lock();
    let (m, k, n) = (128, 256, 64); // well past the parallel threshold
    par::set_threads(1);
    let serial = plan_gemm(OpKind::MatMul, m, k, n).expect("plan");
    par::set_threads(4);
    let pooled = plan_gemm(OpKind::MatMul, m, k, n).expect("plan");
    par::set_threads(1);
    assert!(!serial.parallel, "one thread must plan serial");
    assert!(pooled.parallel, "four threads must plan onto the pool");
    assert_eq!(
        (serial.blocking, serial.out_len),
        (pooled.blocking, pooled.out_len),
        "only the dispatch bit may depend on the pool width"
    );
}

// ------------------------------------------------------------- proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small-to-medium GEMMs are bit-identical across the sweep.
    #[test]
    fn matmul_bits_invariant(seed in 0u64..1_000_000, m in 1usize..24, k in 1usize..80, n in 1usize..80) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let a = filled(&mut rng, &[m, k]);
        let b = filled(&mut rng, &[k, n]);
        let runs = sweep_bits(|| a.matmul(&b).expect("matmul").into_vec());
        for (_, run) in &runs[1..] {
            prop_assert_eq!(run, &runs[0].1);
        }
    }

    /// Random conv forward+backward are bit-identical across the sweep.
    #[test]
    fn conv_bits_invariant(
        seed in 0u64..1_000_000,
        batch in 1usize..6,
        c in 1usize..4,
        f in 1usize..6,
        h in 3usize..12,
        w in 3usize..12,
    ) {
        let spec = ConvSpec::new(c, f, 3, 1, 1);
        let mut rng = TensorRng::seed_from_u64(seed);
        let input = filled(&mut rng, &[batch, c, h, w]);
        let weight = filled(&mut rng, &[f, c, 3, 3]);
        let bias = filled(&mut rng, &[f]);
        let out = conv2d(&input, &weight, &bias, &spec).expect("conv2d");
        let grad_out = filled(&mut rng, out.dims());
        let runs = sweep_bits(|| {
            let fwd = conv2d(&input, &weight, &bias, &spec).expect("conv2d");
            let grads = conv2d_backward(&input, &weight, &grad_out, &spec).expect("backward");
            let mut all = fwd.into_vec();
            all.extend(grads.input.into_vec());
            all.extend(grads.weight.into_vec());
            all.extend(grads.bias.into_vec());
            all
        });
        for (_, run) in &runs[1..] {
            prop_assert_eq!(run, &runs[0].1);
        }
        prop_assert!(runs[0].1.iter().all(|bits| !f32::from_bits(*bits).is_nan()));
    }
}
