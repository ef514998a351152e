//! Static detector hot swap on a triaged server: swaps from serialized
//! artifacts under sustained concurrent load never drop a request, and
//! a mismatched, garbage or bit-flipped artifact is refused with a typed
//! error while the incumbent keeps scoring.

use std::time::Duration;

use fademl::{InferencePipeline, ThreatModel};
use fademl_detect::{Detector, DetectorConfig};
use fademl_filters::FilterSpec as Spec;
use fademl_nn::vgg::VggConfig;
use fademl_serve::{InferenceServer, ServeError, ServerConfig, TriageConfig};
use fademl_tensor::{Tensor, TensorRng};

fn pipeline() -> InferencePipeline {
    let mut rng = TensorRng::seed_from_u64(1);
    let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
    InferencePipeline::new(model, Spec::Lap { np: 8 }).unwrap()
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.uniform(&[3, 16, 16], 0.0, 1.0))
        .collect()
}

/// Detector fitted on the live-traffic distribution (uniform images).
fn detector(seed: u64) -> Detector {
    let config = DetectorConfig {
        trees: 16,
        subsample: 16,
        scales: 2,
        seed,
    };
    Detector::fit_images(&images(32, seed), &config).unwrap()
}

fn single_worker_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 256,
        max_batch_size: 2,
        linger_us: 5_000,
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Threshold 1.0 sits above every isolation score: all traffic is clean.
fn all_clean_triage() -> TriageConfig {
    TriageConfig {
        threshold: 1.0,
        ..TriageConfig::default()
    }
}

#[test]
fn detector_hot_swap_under_sustained_concurrent_load() {
    let server = InferenceServer::start_with_triage(
        pipeline(),
        ServerConfig {
            queue_capacity: 1024,
            max_batch_size: 4,
            linger_us: 2_000,
            workers: 2,
            ..ServerConfig::default()
        },
        detector(50),
        all_clean_triage(),
    )
    .unwrap();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 40;
    const SWAPS: u64 = 5;
    let generations = std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            scope.spawn(move || {
                for img in images(PER_THREAD, 60 + t as u64) {
                    let handle = server
                        .submit(img, ThreatModel::II)
                        .expect("no request may be rejected during swaps");
                    handle.wait().expect("no request may fail during swaps");
                }
            });
        }
        // Swap mid-flight, repeatedly, from serialized artifacts.
        let mut generations = Vec::new();
        for k in 0..SWAPS {
            std::thread::sleep(Duration::from_millis(3));
            let artifact = detector(70 + k).to_bytes();
            generations.push(server.swap_detector(&artifact).unwrap());
        }
        generations
    });
    // Generations are strictly monotone: every swap observed its own.
    assert_eq!(generations, (1..=SWAPS).collect::<Vec<_>>());
    assert_eq!(server.detector_generation(), SWAPS);

    let report = server.shutdown();
    assert_eq!(
        report.requests_completed,
        (THREADS * PER_THREAD) as u64,
        "every request served across {SWAPS} detector swaps"
    );
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.requests_rejected, 0);
    let d = report.detection.expect("detection section present");
    assert_eq!(d.detector_generation, SWAPS);
    assert_eq!(
        d.fail_open_panics + d.fail_open_timeouts + d.fail_open_errors,
        0
    );
}

#[test]
fn mismatched_detector_artifact_is_refused() {
    let server = InferenceServer::start_with_triage(
        pipeline(),
        single_worker_config(),
        detector(80),
        all_clean_triage(),
    )
    .unwrap();
    // scales 1 ⇒ different feature geometry than the incumbent's 2.
    let wrong = Detector::fit_images(
        &images(32, 81),
        &DetectorConfig {
            trees: 8,
            subsample: 16,
            scales: 1,
            seed: 81,
        },
    )
    .unwrap();
    let err = server.swap_detector(&wrong.to_bytes()).unwrap_err();
    assert!(matches!(err, ServeError::SwapFailed { .. }), "{err}");
    // Garbage bytes are refused by artifact validation.
    let err = server.swap_detector(&[0u8; 16]).unwrap_err();
    assert!(matches!(err, ServeError::SwapFailed { .. }), "{err}");
    assert_eq!(server.detector_generation(), 0);
    server.shutdown();
}

#[test]
fn bit_flipped_candidate_artifact_is_refused_with_typed_error() {
    let server = InferenceServer::start_with_triage(
        pipeline(),
        ServerConfig::default(),
        detector(30),
        all_clean_triage(),
    )
    .unwrap();
    let mut artifact = detector(31).to_bytes();
    let mid = artifact.len() / 2;
    artifact[mid] ^= 0x10;
    let err = server.swap_detector(&artifact).unwrap_err();
    assert!(matches!(err, ServeError::SwapFailed { .. }), "{err}");
    assert_eq!(server.detector_generation(), 0);
    // The incumbent keeps serving after the refused swap.
    for img in images(4, 32) {
        let verdict = server.classify(img, ThreatModel::II).unwrap();
        assert!(verdict.detection.is_some());
    }
    let report = server.shutdown();
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.detection.unwrap().detector_generation, 0);
}
