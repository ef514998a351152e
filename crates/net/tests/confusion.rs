//! Cross-format confusion: a valid instance of every artifact kind is
//! offered to every loader. A loader accepts its own kind and refuses
//! each of the others with its own typed error — never a panic, never
//! a success — and a live server offered the wrong artifact keeps
//! serving the generation it had.

use fademl::experiments::StageLedger;
use fademl::{FademlError, InferencePipeline, ThreatModel};
use fademl_data::{DataError, DatasetConfig, NoiseModel, SignDataset};
use fademl_detect::{DetectError, Detector, DetectorConfig};
use fademl_filters::FilterSpec;
use fademl_net::wire::{decode_frame, encode_frame};
use fademl_net::{Frame, FrameError, WireRequest};
use fademl_nn::serialize::{decode_weights, encode_weights};
use fademl_nn::vgg::VggConfig;
use fademl_nn::{NnError, Sequential, Sgd, TrainHistory, TrainState};
use fademl_serve::{InferenceServer, ServeError, ServerConfig, TriageConfig};
use fademl_tensor::{Tensor, TensorRng};

fn model(seed: u64) -> Sequential {
    let mut rng = TensorRng::seed_from_u64(seed);
    VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap()
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.uniform(&[3, 16, 16], 0.0, 1.0))
        .collect()
}

fn detector() -> Detector {
    let config = DetectorConfig {
        trees: 16,
        subsample: 16,
        scales: 2,
        seed: 7,
    };
    Detector::fit_images(&images(32, 7), &config).unwrap()
}

fn scratch_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fademl_confusion_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One valid artifact of every kind, by name. `tag` keeps concurrent
/// tests off each other's ledger file.
fn artifacts(tag: &str) -> Vec<(&'static str, Vec<u8>)> {
    let net = model(1);
    let rng = TensorRng::seed_from_u64(2);
    let checkpoint =
        TrainState::capture(&net, &Sgd::new(0.1), &rng, &TrainHistory::default(), 0).encode();

    let ledger_path = scratch_file(&format!("{tag}.ledger"));
    std::fs::remove_file(&ledger_path).ok();
    StageLedger::open(&ledger_path, 9)
        .unwrap()
        .record("stage", b"value")
        .unwrap();
    let ledger = std::fs::read(&ledger_path).unwrap();

    let dataset = SignDataset::generate(&DatasetConfig {
        samples_per_class: 1,
        image_size: 12,
        seed: 3,
        noise: NoiseModel::sensor(),
        blur_prob: 0.0,
    })
    .unwrap();
    let mut dataset_bytes = Vec::new();
    fademl_data::save_dataset(&dataset, &mut dataset_bytes).unwrap();

    let frame = encode_frame(&Frame::Request(WireRequest {
        id: 1,
        threat: ThreatModel::II,
        deadline_us: 0,
        tenant: "t".into(),
        image: images(1, 4).remove(0),
    }))
    .unwrap();

    vec![
        ("checkpoint", checkpoint),
        ("weights", encode_weights(&net)),
        ("ledger", ledger),
        ("detector", detector().to_bytes()),
        ("dataset", dataset_bytes),
        ("frame", frame),
    ]
}

/// Runs one loader: `Ok` on success, `Err` on a refusal with the
/// loader's own typed error. Any other error is a test failure.
type Loader = fn(&[u8]) -> Result<(), String>;

#[expect(
    clippy::disallowed_methods,
    reason = "the ledger loader offers the bytes as a file, overwritten per case"
)]
fn loaders() -> Vec<(&'static str, Loader)> {
    vec![
        ("checkpoint", |bytes| match TrainState::decode(bytes) {
            Ok(_) => Ok(()),
            Err(NnError::Corrupt { reason }) => Err(reason),
            Err(other) => panic!("TrainState::decode: untyped refusal {other:?}"),
        }),
        ("weights", |bytes| {
            match decode_weights(bytes, &mut model(5)) {
                Ok(()) => Ok(()),
                Err(NnError::Corrupt { reason }) => Err(reason),
                Err(other) => panic!("decode_weights: untyped refusal {other:?}"),
            }
        }),
        ("ledger", |bytes| {
            let path = scratch_file("offered.ledger");
            std::fs::write(&path, bytes).unwrap();
            match StageLedger::open(&path, 9) {
                // A ledger that opened must also have kept its record:
                // a foreign file "repaired" to empty is not a success.
                Ok(ledger) if ledger.completed() == 1 => Ok(()),
                Ok(_) => panic!("StageLedger::open: accepted a file with no records"),
                Err(FademlError::Corrupt { reason }) => Err(reason),
                Err(other) => panic!("StageLedger::open: untyped refusal {other:?}"),
            }
        }),
        ("detector", |bytes| match Detector::from_bytes(bytes) {
            Ok(_) => Ok(()),
            Err(DetectError::Corrupt { reason }) => Err(reason),
            Err(other) => panic!("Detector::from_bytes: untyped refusal {other:?}"),
        }),
        ("dataset", |bytes| match fademl_data::load_dataset(bytes) {
            Ok(_) => Ok(()),
            Err(DataError::Corrupt { reason }) => Err(reason),
            Err(other) => panic!("load_dataset: untyped refusal {other:?}"),
        }),
        ("frame", |bytes| match decode_frame(bytes) {
            Ok(_) => Ok(()),
            Err(FrameError::BadMagic) => Err("bad magic".into()),
            Err(other) => panic!("decode_frame: refusal other than BadMagic: {other:?}"),
        }),
    ]
}

#[test]
fn every_loader_refuses_every_other_artifact_kind() {
    let artifacts = artifacts("loaders");
    for (loader_kind, load) in loaders() {
        for (kind, bytes) in &artifacts {
            let outcome = load(bytes);
            if *kind == loader_kind {
                assert_eq!(outcome, Ok(()), "{loader_kind} loader refused its own kind");
            } else {
                assert!(
                    outcome.is_err(),
                    "{loader_kind} loader accepted a {kind} artifact"
                );
            }
        }
    }
}

#[test]
fn live_server_refuses_foreign_artifacts_and_keeps_its_generation() {
    let pipeline = InferencePipeline::new(model(1), FilterSpec::Lap { np: 8 }).unwrap();
    let triage = TriageConfig {
        threshold: 1.0,
        ..TriageConfig::default()
    };
    let server =
        InferenceServer::start_with_triage(pipeline, ServerConfig::default(), detector(), triage)
            .unwrap();
    let probe = images(1, 11).remove(0);
    let before = server.classify(probe.clone(), ThreatModel::II).unwrap();
    for (kind, bytes) in artifacts("server") {
        if kind != "weights" {
            let err = server.swap_weights(&bytes).unwrap_err();
            assert!(
                matches!(err, ServeError::SwapFailed { .. }),
                "{kind}: {err}"
            );
        }
        if kind != "detector" {
            let err = server.swap_detector(&bytes).unwrap_err();
            assert!(
                matches!(err, ServeError::SwapFailed { .. }),
                "{kind}: {err}"
            );
        }
    }
    assert_eq!(server.swap_generation(), 0);
    assert_eq!(server.detector_generation(), 0);
    let after = server.classify(probe, ThreatModel::II).unwrap();
    assert_eq!(before, after);
    server.shutdown();
}
