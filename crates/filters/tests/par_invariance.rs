//! Thread-count invariance for the pre-processing filters: `apply` and
//! `backward` partition over planes on the `fademl_tensor::par` pool
//! and must stay bit-identical at any thread count — the defended
//! pipeline's predictions (and the paper's figure sweeps) may never
//! depend on the host's core count.

use parking_lot::Mutex;

use fademl_filters::FilterSpec;
use fademl_tensor::{par, TensorRng};
use proptest::{prop_assert_eq, proptest, ProptestConfig};

static THREADS_GUARD: Mutex<()> = Mutex::new(());

const SWEEP: [usize; 4] = [1, 2, 4, 7];

fn sweep_bits(op: impl Fn() -> Vec<f32>) -> Vec<Vec<u32>> {
    let _guard = THREADS_GUARD.lock();
    let runs = SWEEP
        .iter()
        .map(|&t| {
            par::set_threads(t);
            op().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    par::set_threads(1);
    runs
}

#[test]
fn paper_sweep_filters_invariant_on_batched_input() {
    let mut rng = TensorRng::seed_from_u64(3);
    // 8 samples × 3 channels = 24 planes: more planes than workers at
    // every sweep point, with a remainder at t=7.
    let image = rng.uniform(&[8, 3, 32, 32], 0.0, 1.0);
    let grad = rng.uniform(&[8, 3, 32, 32], -1.0, 1.0);
    for spec in FilterSpec::paper_sweep() {
        let filter = spec.build().expect("paper sweep builds");
        let fwd = sweep_bits(|| filter.apply(&image).expect("apply").into_vec());
        let bwd = sweep_bits(|| filter.backward(&image, &grad).expect("backward").into_vec());
        for run in &fwd[1..] {
            assert_eq!(run, &fwd[0], "{spec}: apply diverged across threads");
        }
        for run in &bwd[1..] {
            assert_eq!(run, &bwd[0], "{spec}: backward diverged across threads");
        }
    }
}

#[test]
fn single_plane_and_tiny_images_invariant() {
    let mut rng = TensorRng::seed_from_u64(5);
    // Fewer planes than workers, images where every pixel loses taps to
    // the border, and planes narrower than the kernel's reach (1 for
    // LAP(8), 3 for LAP(32)).
    let shapes: [&[usize]; 5] = [
        &[1, 3, 3],
        &[1, 5, 7],
        &[2, 1, 4, 4],
        &[1, 13, 1],
        &[1, 9, 2],
    ];
    for np in [8, 32] {
        let lap = FilterSpec::Lap { np }.build().expect("LAP builds");
        for dims in shapes {
            let image = rng.uniform(dims, 0.0, 1.0);
            let fwd = sweep_bits(|| lap.apply(&image).expect("apply").into_vec());
            let bwd = sweep_bits(|| lap.backward(&image, &image).expect("backward").into_vec());
            for run in &fwd[1..] {
                assert_eq!(
                    run, &fwd[0],
                    "LAP({np}) {dims:?}: apply diverged across threads"
                );
            }
            for run in &bwd[1..] {
                assert_eq!(
                    run, &bwd[0],
                    "LAP({np}) {dims:?}: backward diverged across threads"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random geometry: LAP and LAR forward/backward bits never depend
    /// on the thread count.
    #[test]
    fn filter_bits_invariant(
        seed in 0u64..1_000_000,
        n in 1usize..5,
        c in 1usize..4,
        h in 4usize..16,
        w in 4usize..16,
        np_pick in 0usize..3,
    ) {
        let np = [4, 8, 24][np_pick];
        let filter = (FilterSpec::Lap { np }).build().expect("LAP builds");
        let mut rng = TensorRng::seed_from_u64(seed);
        let image = rng.uniform(&[n, c, h, w], 0.0, 1.0);
        let grad = rng.uniform(&[n, c, h, w], -1.0, 1.0);
        let runs = sweep_bits(|| {
            let mut all = filter.apply(&image).expect("apply").into_vec();
            all.extend(filter.backward(&image, &grad).expect("backward").into_vec());
            all
        });
        for run in &runs[1..] {
            prop_assert_eq!(run, &runs[0]);
        }
    }
}
