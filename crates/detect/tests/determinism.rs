//! Detector determinism under the workspace thread-count sweep.
//!
//! The triage stage's scores feed ROC thresholds, wire responses and
//! resumable experiment ledgers, so they must be **bit-identical** for
//! the same seed and frames regardless of how many compute threads the
//! process runs — scoring is serial scalar code by design, and this
//! suite pins that property the same way `par_invariance` pins the
//! kernels.

use parking_lot::Mutex;

use fademl_detect::{pyramid_features, Detector, DetectorConfig};
use fademl_tensor::{par, Tensor, TensorRng};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

static THREADS_GUARD: Mutex<()> = Mutex::new(());

const SWEEP: [usize; 3] = [1, 2, 4];

fn frames(seed: u64, n: usize, side: usize) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let base = rng.uniform_scalar(0.1, 0.9);
            let noise = rng.uniform(&[3, side, side], -0.05, 0.05);
            let data: Vec<f32> = noise
                .as_slice()
                .iter()
                .map(|v| (base + v).clamp(0.0, 1.0))
                .collect();
            Tensor::from_vec(data, fademl_tensor::Shape::new(vec![3, side, side])).unwrap()
        })
        .collect()
}

/// Fits on `train`, scores `probe`, at each thread count in the sweep;
/// returns (detector bytes, score bits) per run.
fn sweep(seed: u64, train: &[Tensor], probe: &[Tensor]) -> Vec<(Vec<u8>, Vec<u32>)> {
    let _guard = THREADS_GUARD.lock();
    let config = DetectorConfig {
        trees: 16,
        subsample: 16,
        scales: 2,
        seed,
    };
    let runs = SWEEP
        .iter()
        .map(|&t| {
            par::set_threads(t);
            let det = Detector::fit_images(train, &config).expect("fit");
            let scores = probe
                .iter()
                .map(|img| det.score_image(img).expect("score").to_bits())
                .collect();
            (det.to_bytes(), scores)
        })
        .collect();
    par::set_threads(1);
    runs
}

#[test]
fn fit_and_score_are_bit_identical_at_1_2_4_threads() {
    let train = frames(11, 24, 16);
    let probe = frames(12, 8, 16);
    let runs = sweep(7, &train, &probe);
    let (base_bytes, base_scores) = runs.first().expect("sweep ran");
    for (i, (bytes, scores)) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            bytes, base_bytes,
            "detector bytes at {} threads diverged from serial",
            SWEEP[i]
        );
        assert_eq!(
            scores, base_scores,
            "scores at {} threads diverged from serial",
            SWEEP[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same frames ⇒ bit-identical scores at every thread
    /// count, for arbitrary seeds and frame counts.
    #[test]
    fn scoring_is_thread_count_invariant(seed in 0u64..1_000, n in 8usize..20) {
        let train = frames(seed ^ 0xA5A5, n, 16);
        let probe = frames(seed ^ 0x5A5A, 4, 16);
        let runs = sweep(seed, &train, &probe);
        let (base_bytes, base_scores) = runs.first().expect("sweep ran");
        for (bytes, scores) in runs.iter().skip(1) {
            prop_assert_eq!(bytes, base_bytes);
            prop_assert_eq!(scores, base_scores);
        }
    }

    /// Feature extraction itself is deterministic and finite for valid
    /// shapes at any pyramid depth the image supports.
    #[test]
    fn features_are_deterministic(seed in 0u64..1_000, scales in 1usize..4) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        let a = pyramid_features(&img, scales).expect("features");
        let b = pyramid_features(&img, scales).expect("features");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a), bits(&b));
        prop_assert!(a.iter().all(|v| v.is_finite()));
    }
}
