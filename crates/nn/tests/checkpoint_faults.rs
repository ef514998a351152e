//! Chaos tests: scripted IO faults against the checkpoint subsystem.
//!
//! Each test arms a deterministic [`IoFaultPlan`] (short write, torn
//! rename, bit flip) and asserts the durability contract: a wounded
//! write either propagates a typed error or leaves a file that *fails
//! verification* — a load never yields garbage weights — and recovery
//! always finds the newest intact generation.
//!
//! Requires `--features faults`; `ci.sh` runs this as its checkpoint
//! chaos step.

use std::fs;
use std::path::PathBuf;

use fademl_nn::{
    Adam, CheckpointConfig, CheckpointStore, Dense, Layer, NnError, Sequential, TrainConfig,
    TrainHistory, TrainState, Trainer,
};
use fademl_tensor::io::faults::{arm, disarm, IoFaultPlan, INJECTED};
use fademl_tensor::io::is_staging_file;
use fademl_tensor::{Shape, Tensor, TensorRng};

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fademl_chaos_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn mlp(seed: u64) -> Sequential {
    let mut rng = TensorRng::seed_from_u64(seed);
    Sequential::new()
        .push(Dense::new(2, 8, &mut rng))
        .push(Layer::Relu)
        .push(Dense::new(8, 2, &mut rng))
}

fn sample_state(epochs_done: u64) -> TrainState {
    let model = mlp(epochs_done + 10);
    let opt = Adam::new(1e-3);
    let rng = TensorRng::seed_from_u64(epochs_done);
    TrainState::capture(&model, &opt, &rng, &TrainHistory::default(), epochs_done)
}

fn toy_data() -> (Tensor, Vec<usize>) {
    let mut rng = TensorRng::seed_from_u64(42);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..40 {
        let class = i % 2;
        let center = if class == 0 { -2.0 } else { 2.0 };
        rows.push(center + rng.uniform_scalar(-0.5, 0.5));
        rows.push(center + rng.uniform_scalar(-0.5, 0.5));
        labels.push(class);
    }
    (
        Tensor::from_vec(rows, Shape::new(vec![40, 2])).expect("toy tensor"),
        labels,
    )
}

/// A short write crashes while staging: the destination is never
/// touched, only an orphan `.tmp` file appears, and recovery still
/// finds the previous generation.
#[test]
fn short_write_never_touches_the_destination() {
    let dir = chaos_dir("short");
    let store = CheckpointStore::open(&dir, 3).expect("open store");
    arm(IoFaultPlan::new().short_write_on(2));
    store.save(&sample_state(1)).expect("write 1 is clean");
    let err = store
        .save(&sample_state(2))
        .expect_err("write 2 is wounded");
    disarm();

    assert!(matches!(err, NnError::Io(_)), "unexpected error: {err:?}");
    assert!(format!("{err}").contains(INJECTED));
    assert!(
        !dir.join("ckpt-00000002.fckpt").exists(),
        "short write must not create the destination"
    );
    let orphans: Vec<_> = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| is_staging_file(&e.path()))
        .collect();
    assert_eq!(orphans.len(), 1, "expected exactly one orphan staging file");

    // Recovery skips the orphan and lands on generation 1.
    let (gen, state) = store
        .latest_intact()
        .expect("scan")
        .expect("generation 1 survives");
    assert_eq!(gen, 1);
    assert_eq!(state, sample_state(1));
    let _ = fs::remove_dir_all(&dir);
}

/// A torn rename leaves a truncated prefix at the destination: loading
/// it is a typed corruption error (the CRC trailer is gone), and
/// recovery falls back to the previous intact generation.
#[test]
fn torn_rename_is_detected_and_recovery_falls_back() {
    for keep_bytes in [0usize, 1, 8, 12, 64, 200] {
        let dir = chaos_dir(&format!("torn{keep_bytes}"));
        let store = CheckpointStore::open(&dir, 3).expect("open store");
        arm(IoFaultPlan::new().torn_rename_on(2, keep_bytes));
        store.save(&sample_state(1)).expect("write 1 is clean");
        let err = store.save(&sample_state(2)).expect_err("write 2 tears");
        disarm();
        assert!(format!("{err}").contains(INJECTED));

        let torn = dir.join("ckpt-00000002.fckpt");
        assert!(torn.exists(), "torn rename leaves a destination file");
        match CheckpointStore::load(&torn) {
            Err(NnError::Corrupt { .. }) => {}
            other => panic!("torn file (keep {keep_bytes}) must be Corrupt, got {other:?}"),
        }
        let (gen, _) = store
            .latest_intact()
            .expect("scan")
            .expect("generation 1 survives");
        assert_eq!(gen, 1, "recovery must fall back past the torn file");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A silent bit flip after a successful write: the store must refuse
/// the rotted generation and recover the previous one.
#[test]
fn bit_flip_is_caught_by_the_crc() {
    for offset in [0usize, 7, 11, 100, 5000] {
        let dir = chaos_dir(&format!("flip{offset}"));
        let store = CheckpointStore::open(&dir, 3).expect("open store");
        arm(IoFaultPlan::new().bit_flip_on(2, offset));
        store.save(&sample_state(1)).expect("write 1 is clean");
        // The wounded write itself reports success — the corruption is
        // silent, exactly like media rot.
        store.save(&sample_state(2)).expect("write 2 'succeeds'");
        disarm();

        let rotten = dir.join("ckpt-00000002.fckpt");
        match CheckpointStore::load(&rotten) {
            Err(NnError::Corrupt { .. }) => {}
            other => panic!("flipped bit at {offset} must be Corrupt, got {other:?}"),
        }
        let (gen, state) = store
            .latest_intact()
            .expect("scan")
            .expect("generation 1 survives");
        assert_eq!(gen, 1);
        assert_eq!(state, sample_state(1));
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Sweep: under any of the scripted faults, every generation on disk
/// either loads as exactly what was saved or fails with a typed error —
/// never garbage in between.
#[test]
fn loads_are_all_or_nothing_under_chaos() {
    let plans: Vec<(&str, IoFaultPlan)> = vec![
        ("short3", IoFaultPlan::new().short_write_on(3)),
        ("torn2", IoFaultPlan::new().torn_rename_on(2, 40)),
        ("flip1", IoFaultPlan::new().bit_flip_on(1, 21)),
        (
            "multi",
            IoFaultPlan::new()
                .short_write_on(2)
                .bit_flip_on(3, 9)
                .torn_rename_on(4, 100),
        ),
    ];
    for (tag, plan) in plans {
        let dir = chaos_dir(&format!("sweep_{tag}"));
        let store = CheckpointStore::open(&dir, 10).expect("open store");
        arm(plan);
        for epoch in 1..=4u64 {
            // Wounded saves error (crash) or silently rot; both are fine
            // here — the contract under test is on the *load* side.
            let _ = store.save(&sample_state(epoch));
        }
        disarm();
        for (gen, path) in store.generations().expect("list generations") {
            match CheckpointStore::load(&path) {
                Ok(state) => {
                    assert_eq!(state.epochs_done, gen, "[{tag}] filename/content mismatch");
                    // A load that succeeds must be byte-exactly what was
                    // saved — "reported success" (bit flip) is not enough.
                    assert_eq!(
                        state,
                        sample_state(gen),
                        "[{tag}] generation {gen} loaded but differs from what was saved"
                    );
                }
                Err(NnError::Corrupt { .. }) | Err(NnError::Io(_)) => {}
                Err(other) => panic!("[{tag}] generation {gen}: unexpected error {other:?}"),
            }
        }
        // Recovery, if it returns anything, returns an intact state.
        if let Some((gen, state)) = store.latest_intact().expect("scan") {
            assert_eq!(
                state,
                sample_state(gen),
                "[{tag}] recovery returned garbage"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Trainer level: a checkpoint save that dies mid-run surfaces as a
/// typed error, and a disarmed rerun resumes from the last intact
/// generation and reproduces the uninterrupted run bit-for-bit.
#[test]
fn trainer_survives_an_injected_crash_and_resumes_exactly() {
    let (x, y) = toy_data();
    let config = TrainConfig {
        epochs: 6,
        batch_size: 8,
        seed: 11,
        ..TrainConfig::default()
    };

    // Clean reference run.
    let dir_a = chaos_dir("trainer_ref");
    let mut model_a = mlp(1);
    Trainer::new(config.clone())
        .fit_durable(
            &mut model_a,
            &x,
            &y,
            &CheckpointConfig::new(&dir_a).every(2),
        )
        .expect("reference run");

    // Faulted run: the epoch-4 checkpoint (second write) dies short.
    let dir_b = chaos_dir("trainer_hurt");
    let ckpt_b = CheckpointConfig::new(&dir_b).every(2);
    let mut model_b = mlp(1);
    arm(IoFaultPlan::new().short_write_on(2));
    let err = Trainer::new(config.clone())
        .fit_durable(&mut model_b, &x, &y, &ckpt_b)
        .expect_err("wounded save must propagate");
    disarm();
    assert!(format!("{err}").contains(INJECTED), "got: {err}");

    // Rerun with a fresh model: resume from epoch 2 and finish.
    let mut model_b = mlp(1);
    let report = Trainer::new(config)
        .fit_durable(&mut model_b, &x, &y, &ckpt_b)
        .expect("resumed run");
    assert_eq!(report.resumed_from_epoch, Some(2));
    assert!(report.completed);

    let weights =
        |m: &Sequential| -> Vec<Tensor> { m.params().iter().map(|p| p.value.clone()).collect() };
    assert_eq!(
        weights(&model_a),
        weights(&model_b),
        "crash + resume must match the uninterrupted run bit-for-bit"
    );
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}
