//! End-to-end tests for the adaptive detection stage: budget-driven
//! threshold control with load-shedding, per-tenant baselines, reservoir
//! refits with held-out validation, detector hot swaps under sustained
//! concurrent load, and reservoir warm-resume across server restarts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use fademl::{InferencePipeline, ThreatModel};
use fademl_detect::{feature_dim, pyramid_features, ControllerConfig, Detector, DetectorConfig};
use fademl_filters::FilterSpec as Spec;
use fademl_nn::vgg::VggConfig;
use fademl_serve::{
    AdaptiveConfig, InferenceServer, RefitOutcome, ServeError, ServerConfig, SupervisorConfig,
    TriageConfig, ValidationSet,
};
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

/// Feature vectors of uniform images — what live clean traffic looks
/// like to the detector.
fn traffic_features(n: usize, seed: u64) -> Vec<Vec<f32>> {
    images(n, seed)
        .iter()
        .map(|img| pyramid_features(img, 2).unwrap())
        .collect()
}

/// Synthetic far-out-of-distribution feature vectors: any forest
/// trained on traffic features isolates these quickly.
fn outlier_features(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let dim = feature_dim(2);
    let mut rng = TensorRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| 7.0 + rng.uniform_scalar(-0.2, 0.2))
                .collect()
        })
        .collect()
}

/// Supervisor with manual-only refits (zero interval) validating on
/// traffic-vs-outlier features.
fn manual_supervisor(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        interval: Duration::ZERO,
        min_samples: 32,
        auc_margin: 0.2,
        refit_detector: DetectorConfig {
            trees: 16,
            subsample: 16,
            scales: 2,
            seed,
        },
        validation: ValidationSet {
            clean: traffic_features(16, 900 + seed),
            adversarial: outlier_features(16, 901 + seed),
        },
        reservoir_path: None,
    }
}

/// Triage config whose effective threshold sits above every isolation
/// score, so all traffic verdicts come back clean and feed the
/// reservoir and baselines.
fn all_clean_triage() -> (TriageConfig, AdaptiveConfig) {
    let triage = TriageConfig {
        threshold: 1.0,
        ..TriageConfig::default()
    };
    let adaptive = AdaptiveConfig {
        controller: ControllerConfig {
            floor: 1.0,
            ceiling: 1.0,
            ..ControllerConfig::default()
        },
        ..AdaptiveConfig::default()
    };
    (triage, adaptive)
}

#[test]
fn flooding_degrades_to_typed_load_shedding_within_budget() {
    // Ceiling far below every real score: the controller pins at the
    // ceiling (anti-blinding rail) and every frame flags, so the shed
    // rail must bound hardened-path load per window.
    let controller = ControllerConfig {
        budget: 0.25,
        floor: 0.0,
        ceiling: 0.05,
        window: 8,
        ..ControllerConfig::default()
    };
    let shed_cap = controller.shed_cap();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(10),
        TriageConfig {
            threshold: 0.0,
            ..TriageConfig::default()
        },
        AdaptiveConfig {
            controller,
            ..AdaptiveConfig::default()
        },
        None,
    )
    .unwrap();

    let total = 64u64;
    let mut served = 0u64;
    let mut shed = 0u64;
    for img in images(usize::try_from(total).unwrap(), 11) {
        match server.classify(img, ThreatModel::I) {
            Ok(verdict) => {
                let detection = verdict.detection.expect("flagged verdicts are annotated");
                assert!(detection.flagged);
                assert!(detection.hardened);
                served += 1;
            }
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(other) => panic!("only Overloaded may refuse a flood, got {other}"),
        }
    }
    assert!(shed > 0, "a sustained flood must shed");
    // Per window the hardened path serves at most shed_cap + 1 frames
    // (the window-boundary frame resets the counter before the check).
    let windows = total / u64::from(controller.window);
    assert!(
        served <= windows * u64::from(shed_cap + 1),
        "served {served}"
    );

    let report = server.shutdown();
    let d = report.detection.expect("detection section present");
    assert_eq!(d.flagged, total);
    assert_eq!(d.shed, shed);
    assert_eq!(d.hardened_served, served);
    assert_eq!(report.requests_failed, 0);
    // Shed requests never reach the queue, so they are not counted as
    // queue rejections.
    assert_eq!(report.requests_rejected, 0);
}

#[test]
fn clean_traffic_fills_reservoir_and_tracks_tenants() {
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(20),
        triage,
        adaptive,
        Some(manual_supervisor(21)),
    )
    .unwrap();
    assert!(server.adaptive_enabled());
    assert_eq!(server.triage_threshold(), Some(1.0));

    let imgs = images(12, 22);
    for (i, img) in imgs.into_iter().enumerate() {
        let tenant = if i % 2 == 0 { "acme" } else { "globex" };
        let handle = server
            .submit_for_tenant(img, ThreatModel::II, tenant, None)
            .unwrap();
        let verdict = handle.wait().unwrap();
        let detection = verdict.detection.expect("clean verdicts are annotated");
        assert!(!detection.flagged);
    }
    let report = server.shutdown();
    let d = report.detection.expect("detection section present");
    assert_eq!(d.clean, 12);
    assert_eq!(d.flagged, 0);
    assert_eq!(d.shed, 0);
    assert_eq!(d.tenants_tracked, 2);
    assert_eq!(d.detector_generation, 0);
}

#[test]
fn refit_swaps_validated_candidate_and_serving_continues() {
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(30),
        triage,
        adaptive,
        Some(manual_supervisor(31)),
    )
    .unwrap();

    // Cold reservoir: the refit must refuse to train, not train badly.
    let cold = server.refit_detector().unwrap();
    assert!(
        matches!(cold.outcome, RefitOutcome::SkippedCold { samples: 0 }),
        "{:?}",
        cold.outcome
    );

    for img in images(48, 32) {
        server.classify(img, ThreatModel::II).unwrap();
    }
    let report = server.refit_detector().unwrap();
    match report.outcome {
        RefitOutcome::Swapped {
            generation,
            candidate_auc,
            incumbent_auc,
        } => {
            assert_eq!(generation, 1);
            assert!(candidate_auc > 0.9, "candidate AUC {candidate_auc}");
            assert!(incumbent_auc > 0.9, "incumbent AUC {incumbent_auc}");
        }
        other => panic!("expected a swap, got {other:?}"),
    }
    assert!(report.persist_error.is_none());
    assert_eq!(server.detector_generation(), 1);

    // The swapped-in detector serves immediately.
    for img in images(4, 33) {
        let verdict = server.classify(img, ThreatModel::II).unwrap();
        assert!(verdict.detection.is_some());
    }
    let report = server.shutdown();
    let d = report.detection.expect("detection section present");
    assert_eq!(d.refits_swapped, 1);
    assert_eq!(d.refits_rejected, 0);
    assert_eq!(d.detector_generation, 1);
    assert_eq!(report.requests_failed, 0);
}

#[test]
fn regressing_candidate_is_rejected_and_incumbent_keeps_serving() {
    // The incumbent is trained on outlier-land and validated on a slice
    // where outlier-land is "clean": it separates perfectly. Any
    // candidate refit from the live (uniform-traffic) reservoir scores
    // that validation slice inverted, so the swap must be refused.
    let dim = feature_dim(2);
    let incumbent = Detector::fit(
        &outlier_features(32, 40),
        &DetectorConfig {
            trees: 16,
            subsample: 16,
            scales: 2,
            seed: 40,
        },
    )
    .unwrap();
    assert_eq!(incumbent.feature_dim(), dim);
    let supervisor = SupervisorConfig {
        validation: ValidationSet {
            clean: outlier_features(16, 41),
            adversarial: traffic_features(16, 42),
        },
        ..manual_supervisor(43)
    };
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        incumbent,
        triage,
        adaptive,
        Some(supervisor),
    )
    .unwrap();

    // Live traffic reads as clean (threshold pinned at 1.0), filling
    // the reservoir with uniform-image features.
    for img in images(48, 44) {
        server.classify(img, ThreatModel::II).unwrap();
    }
    let report = server.refit_detector().unwrap();
    match report.outcome {
        RefitOutcome::Rejected {
            candidate_auc,
            incumbent_auc,
        } => {
            assert!(
                candidate_auc < incumbent_auc - 0.2,
                "candidate {candidate_auc} vs incumbent {incumbent_auc}"
            );
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    // The incumbent stays deployed and keeps serving.
    assert_eq!(server.detector_generation(), 0);
    for img in images(4, 45) {
        server.classify(img, ThreatModel::II).unwrap();
    }
    let report = server.shutdown();
    let d = report.detection.expect("detection section present");
    assert_eq!(d.refits_rejected, 1);
    assert_eq!(d.refits_swapped, 0);
    assert_eq!(d.detector_generation, 0);
    assert_eq!(report.requests_failed, 0);
}

#[test]
fn detector_hot_swap_under_sustained_concurrent_load() {
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        ServerConfig {
            queue_capacity: 1024,
            max_batch_size: 4,
            linger_us: 2_000,
            workers: 2,
            ..ServerConfig::default()
        },
        detector(50),
        triage,
        adaptive,
        None,
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
                    let tenant = format!("tenant-{t}");
                    let handle = server
                        .submit_for_tenant(img, ThreatModel::II, &tenant, None)
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
    assert_eq!(d.shed, 0);
    assert_eq!(d.detector_generation, SWAPS);
    assert_eq!(
        d.fail_open_panics + d.fail_open_timeouts + d.fail_open_errors,
        0
    );
}

#[test]
fn mismatched_detector_artifact_is_refused() {
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(80),
        triage,
        adaptive,
        None,
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
fn reservoir_persists_and_warm_resumes_across_restart() {
    let path = std::env::temp_dir().join(format!(
        "fademl-adaptive-reservoir-{}.bin",
        std::process::id()
    ));
    // best-effort: stale artifact from a previous failed run.
    let _ = std::fs::remove_file(&path);

    let supervisor = SupervisorConfig {
        reservoir_path: Some(path.clone()),
        ..manual_supervisor(90)
    };
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(91),
        triage,
        adaptive,
        Some(supervisor.clone()),
    )
    .unwrap();
    for img in images(48, 92) {
        server.classify(img, ThreatModel::II).unwrap();
    }
    // The refit persists the reservoir snapshot (and swaps).
    let report = server.refit_detector().unwrap();
    assert!(matches!(report.outcome, RefitOutcome::Swapped { .. }));
    assert!(report.persist_error.is_none());
    assert!(path.exists(), "reservoir artifact must be written");
    server.shutdown();

    // A fresh server warm-resumes the reservoir: a refit succeeds
    // without serving a single frame first.
    let (triage, adaptive) = all_clean_triage();
    let resumed = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(93),
        triage,
        adaptive,
        Some(supervisor),
    )
    .unwrap();
    let report = resumed.refit_detector().unwrap();
    assert!(
        matches!(report.outcome, RefitOutcome::Swapped { generation: 1, .. }),
        "{:?}",
        report.outcome
    );
    resumed.shutdown();
    // best-effort: temp-dir hygiene only.
    let _ = std::fs::remove_file(&path);
}

#[test]
fn background_refit_loop_swaps_without_manual_triggers() {
    let supervisor = SupervisorConfig {
        interval: Duration::from_millis(30),
        ..manual_supervisor(95)
    };
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(96),
        triage,
        adaptive,
        Some(supervisor),
    )
    .unwrap();
    for img in images(48, 97) {
        server.classify(img, ThreatModel::II).unwrap();
    }
    // Wait for the loop to run at least one warm refit.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.detector_generation() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.detector_generation() >= 1,
        "background refit loop never swapped"
    );
    let report = server.shutdown();
    let d = report.detection.expect("detection section present");
    assert!(d.refits_swapped >= 1);
    assert_eq!(report.requests_failed, 0);
}

#[test]
fn an_interval_past_the_clock_never_refits_but_serves() {
    // The refit thread's panic would be swallowed by shutdown's join, so
    // count it on the way out.
    static REFIT_PANICS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("fademl-serve-refit") {
            REFIT_PANICS.fetch_add(1, Ordering::SeqCst);
        }
        previous(info);
    }));
    let supervisor = SupervisorConfig {
        interval: Duration::MAX,
        ..manual_supervisor(98)
    };
    let (triage, adaptive) = all_clean_triage();
    let server = InferenceServer::start_adaptive(
        pipeline(),
        single_worker_config(),
        detector(99),
        triage,
        adaptive,
        Some(supervisor),
    )
    .unwrap();
    for img in images(4, 100) {
        server.classify(img, ThreatModel::II).unwrap();
    }
    assert_eq!(server.detector_generation(), 0);
    let report = server.shutdown();
    assert_eq!(
        REFIT_PANICS.load(Ordering::SeqCst),
        0,
        "the refit loop panicked"
    );
    assert_eq!(report.requests_failed, 0);
    assert_eq!(
        report.detection.expect("detection section present").clean,
        4
    );
}
