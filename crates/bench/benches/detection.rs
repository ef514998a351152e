//! Detect-under-attack serving bench: the adversarial-triage stage
//! measured end to end. Three artifacts per run:
//!
//! 1. `BENCH_detection.json` at the repo root — a **trajectory** of
//!    runs. Each run appends one entry carrying the static
//!    detect-under-attack AUC, the static-vs-adaptive comparison under
//!    drift (AUCs, hardened budget adherence, refit accounting), and
//!    the live triaged server's economics. The newest 20 entries are
//!    kept, so the file shows how detection quality moves across PRs
//!    instead of a single snapshot.
//! 2. `results/detection_roc.txt` — the full ROC sweep plus the chosen
//!    operating point.
//! 3. A stage ledger exercising the resumable experiment paths.
//!
//! `cargo bench -p fademl-bench --bench detection` — full run.
//! `cargo bench -p fademl-bench --bench detection -- --test` — CI
//! smoke: smaller stream and burst; an entry is still appended (tagged
//! `"mode": "smoke"`) so the artifact pipeline is exercised.

use std::path::Path;
use std::time::Instant;

use fademl::experiments::{
    run_adaptive_resumable, run_detection_resumable, AdaptiveParams, AttackParams, DetectionParams,
};
use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{InferencePipeline, ThreatModel};
use fademl_attacks::{Attack, AttackGoal, AttackSurface, Fgsm};
use fademl_data::{ClassId, DriftSpec, FrameStream, StreamConfig};
use fademl_detect::{ControllerConfig, Detector, DetectorConfig};
use fademl_filters::FilterSpec;
use fademl_serve::{InferenceServer, ServerConfig, TriageConfig};
use fademl_tensor::io::atomic_write;
use fademl_tensor::Tensor;

/// Trajectory entries retained in `BENCH_detection.json`.
const TRAJECTORY_CAP: usize = 20;

/// Pulls the prior trajectory entries (verbatim JSON objects) out of an
/// existing `BENCH_detection.json`. A file from the old single-snapshot
/// schema has no `"trajectory"` array and yields none — the trajectory
/// starts fresh. Our own entries never nest strings containing braces,
/// so brace counting is exact.
fn prior_entries(text: &str) -> Vec<String> {
    let Some(key) = text.find("\"trajectory\"") else {
        return Vec::new();
    };
    let tail = &text[key..];
    let Some(open) = tail.find('[') else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut entry_start = None;
    for (i, c) in tail[open..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    entry_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = entry_start.take() {
                        entries.push(tail[open..][s..=i].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    entries
}

struct ServingCell {
    requests: u64,
    adversarial_submitted: usize,
    triage_overhead_us: u64,
    score_p50_bp: u64,
    score_p99_bp: u64,
    flagged: u64,
    hardened_served: u64,
    hardened_hit_rate: f64,
    hardened_latency_p99_us: u64,
    throughput_rps: f64,
}

/// Drives a triaged server with a correlated stream, one third of it
/// carrying FGSM noise, and reads the triage economics off the
/// metrics report.
fn run_serving_cell(
    prepared: &fademl::setup::PreparedSetup,
    detector: Detector,
    threshold: f32,
    size: usize,
    burst: usize,
) -> ServingCell {
    let pipeline = InferencePipeline::new(prepared.model.clone(), FilterSpec::Lap { np: 8 })
        .expect("pipeline builds");
    let server = InferenceServer::start_with_triage(
        pipeline,
        ServerConfig {
            queue_capacity: 1024,
            max_batch_size: 8,
            linger_us: 500,
            workers: 2,
            ..ServerConfig::default()
        },
        detector,
        TriageConfig {
            threshold,
            ..TriageConfig::default()
        },
    )
    .expect("triaged server starts");

    let mut feed = FrameStream::new(StreamConfig {
        class: ClassId::STOP,
        image_size: size,
        seed: 0xBE7C,
        ..StreamConfig::default()
    })
    .expect("stream opens");
    let frames = feed.take_frames(burst).expect("stream renders");
    let fgsm = Fgsm::new(0.08).expect("attack builds");
    let mut surface = AttackSurface::new(prepared.model.clone());
    let goal = AttackGoal::Untargeted {
        source: ClassId::STOP.index(),
    };
    let noise = fgsm
        .run(&mut surface, &frames[0], goal)
        .expect("noise crafts")
        .noise;

    let mut adversarial_submitted = 0usize;
    let images: Vec<Tensor> = frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            if i % 3 == 2 {
                adversarial_submitted += 1;
                frame.add(&noise).expect("adds").clamp(0.0, 1.0)
            } else {
                frame.clone()
            }
        })
        .collect();

    let started = Instant::now();
    let handles: Vec<_> = images
        .into_iter()
        .map(|image| {
            server
                .submit(image, ThreatModel::I)
                .expect("queue sized for burst")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("worker answers");
    }
    let elapsed = started.elapsed();

    let report = server.shutdown();
    assert_eq!(report.requests_failed, 0, "bench load must serve cleanly");
    let d = report.detection.expect("triage ran");
    assert_eq!(
        d.fail_open_panics + d.fail_open_timeouts + d.fail_open_errors,
        0,
        "no fail-opens expected without injected faults"
    );
    ServingCell {
        requests: report.requests_completed,
        adversarial_submitted,
        triage_overhead_us: d.mean_score_time_us,
        score_p50_bp: d.score_p50_bp,
        score_p99_bp: d.score_p99_bp,
        flagged: d.flagged,
        hardened_served: d.hardened_served,
        hardened_hit_rate: d.hardened_served as f64 / report.requests_completed.max(1) as f64,
        hardened_latency_p99_us: d.hardened_latency_p99_us,
        throughput_rps: report.requests_completed as f64 / elapsed.as_secs_f64(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    eprintln!(
        "[detection] mode: {}",
        if quick { "smoke (--test)" } else { "full" }
    );

    let prepared = ExperimentSetup::profile(SetupProfile::Smoke)
        .prepare()
        .expect("victim trains");
    let size = prepared.train.images().dims()[2];

    let params = if quick {
        DetectionParams {
            fit_frames: 48,
            segments: 6,
            frames_per_segment: 8,
            detector: DetectorConfig {
                trees: 24,
                subsample: 32,
                ..DetectorConfig::default()
            },
            ..DetectionParams::default()
        }
    } else {
        DetectionParams {
            segments: 9,
            frames_per_segment: 32,
            ..DetectionParams::default()
        }
    };
    let attack = AttackParams::default();

    // Fresh ledger each run: the bench measures, the tests prove resume.
    let ledger =
        std::env::temp_dir().join(format!("fademl_bench_detection_{}.fjl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    let sweep_started = Instant::now();
    let report =
        run_detection_resumable(&prepared, &params, &attack, &ledger).expect("detection sweep");
    let sweep_ms = sweep_started.elapsed().as_millis();
    let _ = std::fs::remove_file(&ledger);
    let result = &report.result;
    assert!(
        result.auc > 0.5,
        "detector must beat chance on the attacked stream, got AUC {}",
        result.auc
    );
    eprintln!(
        "[detection] AUC {:.3} over {} clean + {} adversarial frames ({} stages, {} ms)",
        result.auc, result.clean_frames, result.adversarial_frames, report.stages_total, sweep_ms,
    );

    // Operating point: the Youden-optimal threshold from the sweep,
    // clamped into the triage config's domain.
    let threshold = result
        .roc
        .iter()
        .filter(|p| p.threshold.is_finite())
        .max_by(|a, b| {
            (a.tpr - a.fpr)
                .partial_cmp(&(b.tpr - b.fpr))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map_or(0.6, |p| p.threshold.clamp(0.0, 1.0));
    eprintln!("[detection] operating threshold {threshold:.4}");

    // A detector fitted the same way the sweep's was, for the live cell.
    let mut feed = FrameStream::new(StreamConfig {
        class: ClassId::STOP,
        image_size: size,
        seed: params.stream_seed,
        ..StreamConfig::default()
    })
    .expect("stream opens");
    let clean = feed.take_frames(params.fit_frames).expect("stream renders");
    let detector = Detector::fit_images(&clean, &params.detector).expect("detector fits");

    let burst = if quick { 60 } else { 300 };
    let cell = run_serving_cell(&prepared, detector, threshold, size, burst);
    eprintln!(
        "[detection] {} requests: triage overhead {} µs/image, {} flagged, hardened hit rate {:.2}, {:.0} req/s",
        cell.requests, cell.triage_overhead_us, cell.flagged, cell.hardened_hit_rate, cell.throughput_rps,
    );

    // Static vs adaptive under drift: the same stream now darkens and
    // gets noisier mid-sweep, with attack bursts landing post-drift.
    let adaptive_params = if quick {
        // The core crate's seeded-regression configuration: small and
        // deterministic, with a demonstrated adaptive-over-static win.
        AdaptiveParams {
            fit_frames: 48,
            segments: 6,
            frames_per_segment: 24,
            burst_from: 3,
            detector: DetectorConfig {
                trees: 16,
                subsample: 16,
                scales: 2,
                seed: 9,
            },
            controller: ControllerConfig {
                budget: 0.1,
                step: 0.05,
                floor: 0.3,
                ceiling: 0.95,
                window: 12,
                ..ControllerConfig::default()
            },
            initial_threshold: 0.52,
            reservoir_capacity: 96,
            reservoir_seed: 0x5EED,
            min_refit_samples: 24,
            auc_margin: 0.1,
            holdout_cap: 8,
            drift: DriftSpec {
                at_frame: 1,
                ramp_frames: 2,
                brightness_shift: -0.35,
                noise_gain: 2.5,
            },
            ..AdaptiveParams::default()
        }
    } else {
        AdaptiveParams {
            controller: ControllerConfig {
                budget: 0.1,
                step: 0.05,
                floor: 0.3,
                window: 16,
                ..ControllerConfig::default()
            },
            ..AdaptiveParams::default()
        }
    };
    // The smoke's tiny segments need a stronger burst for a stable
    // above-chance signal; the full run keeps the shared parameters.
    let adaptive_attack = if quick {
        AttackParams {
            epsilon: 0.15,
            fademl_rounds: 1,
            ..attack
        }
    } else {
        attack
    };
    let adaptive_ledger =
        std::env::temp_dir().join(format!("fademl_bench_adaptive_{}.fjl", std::process::id()));
    let _ = std::fs::remove_file(&adaptive_ledger);
    let adaptive_started = Instant::now();
    let adaptive = run_adaptive_resumable(
        &prepared,
        &adaptive_params,
        &adaptive_attack,
        &adaptive_ledger,
    )
    .expect("adaptive sweep")
    .result;
    let adaptive_ms = adaptive_started.elapsed().as_millis();
    let _ = std::fs::remove_file(&adaptive_ledger);
    assert!(
        adaptive.adaptive_auc > 0.5,
        "adaptive arm must beat chance under drift, got AUC {}",
        adaptive.adaptive_auc
    );
    assert!(
        adaptive.adaptive_auc >= adaptive.static_auc,
        "refitting must not lose to the static detector it replaces: {} vs {}",
        adaptive.adaptive_auc,
        adaptive.static_auc
    );
    eprintln!(
        "[detection] drift sweep: static AUC {:.3} vs adaptive AUC {:.3}; clean hardened load {:.3} (budget {:.2}); {} refits swapped / {} rejected ({} ms)",
        adaptive.static_auc,
        adaptive.adaptive_auc,
        adaptive.adaptive_clean_flagged_frac,
        adaptive.budget,
        adaptive.refits.swapped,
        adaptive.refits.rejected,
        adaptive_ms,
    );

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    let mut roc_txt =
        String::from("Detection ROC — triage isolation score vs FGSM/FAdeML-mixed frame stream\n");
    roc_txt.push_str(&format!(
        "AUC {:.4} | {} clean frames (mean score {:.4}) | {} adversarial frames (mean score {:.4})\n",
        result.auc,
        result.clean_frames,
        result.mean_clean_score,
        result.adversarial_frames,
        result.mean_adversarial_score,
    ));
    roc_txt.push_str(&format!("operating threshold (Youden): {threshold:.4}\n\n"));
    roc_txt.push_str("threshold     tpr     fpr\n");
    for point in &result.roc {
        roc_txt.push_str(&format!(
            "{:>9.4}  {:>6.3}  {:>6.3}\n",
            point.threshold.min(9.9999),
            point.tpr,
            point.fpr
        ));
    }
    let roc_path = format!("{root}/results/detection_roc.txt");
    atomic_write(Path::new(&roc_path), roc_txt.as_bytes()).expect("write detection_roc.txt");
    eprintln!("[detection] wrote {roc_path}");

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entry = String::from("{\n");
    entry.push_str(&format!("      \"unix_time\": {unix_time},\n"));
    entry.push_str(&format!(
        "      \"mode\": \"{}\",\n",
        if quick { "smoke" } else { "full" }
    ));
    entry.push_str(&format!("      \"auc\": {:.4},\n", result.auc));
    entry.push_str(&format!(
        "      \"clean_frames\": {},\n",
        result.clean_frames
    ));
    entry.push_str(&format!(
        "      \"adversarial_frames\": {},\n",
        result.adversarial_frames
    ));
    entry.push_str(&format!(
        "      \"mean_clean_score\": {:.4},\n",
        result.mean_clean_score
    ));
    entry.push_str(&format!(
        "      \"mean_adversarial_score\": {:.4},\n",
        result.mean_adversarial_score
    ));
    entry.push_str(&format!(
        "      \"sweep_stages\": {},\n",
        report.stages_total
    ));
    entry.push_str(&format!("      \"sweep_ms\": {sweep_ms},\n"));
    entry.push_str(&format!("      \"threshold\": {threshold:.4},\n"));
    entry.push_str("      \"adaptive\": {\n");
    entry.push_str(&format!(
        "        \"static_auc\": {:.4},\n",
        adaptive.static_auc
    ));
    entry.push_str(&format!(
        "        \"adaptive_auc\": {:.4},\n",
        adaptive.adaptive_auc
    ));
    entry.push_str(&format!("        \"budget\": {:.4},\n", adaptive.budget));
    entry.push_str(&format!(
        "        \"static_clean_flagged_frac\": {:.4},\n",
        adaptive.static_clean_flagged_frac
    ));
    entry.push_str(&format!(
        "        \"adaptive_clean_flagged_frac\": {:.4},\n",
        adaptive.adaptive_clean_flagged_frac
    ));
    entry.push_str(&format!(
        "        \"refits_attempted\": {},\n",
        adaptive.refits.attempted
    ));
    entry.push_str(&format!(
        "        \"refits_swapped\": {},\n",
        adaptive.refits.swapped
    ));
    entry.push_str(&format!(
        "        \"refits_rejected\": {},\n",
        adaptive.refits.rejected
    ));
    entry.push_str(&format!(
        "        \"final_generation\": {},\n",
        adaptive.final_generation
    ));
    entry.push_str(&format!(
        "        \"final_threshold\": {:.4},\n",
        adaptive.final_threshold
    ));
    entry.push_str(&format!("        \"sweep_ms\": {adaptive_ms}\n"));
    entry.push_str("      },\n");
    entry.push_str("      \"serving\": {\n");
    entry.push_str(&format!("        \"requests\": {},\n", cell.requests));
    entry.push_str(&format!(
        "        \"adversarial_submitted\": {},\n",
        cell.adversarial_submitted
    ));
    entry.push_str(&format!(
        "        \"triage_overhead_us_per_image\": {},\n",
        cell.triage_overhead_us
    ));
    entry.push_str(&format!(
        "        \"score_p50_bp\": {},\n",
        cell.score_p50_bp
    ));
    entry.push_str(&format!(
        "        \"score_p99_bp\": {},\n",
        cell.score_p99_bp
    ));
    entry.push_str(&format!("        \"flagged\": {},\n", cell.flagged));
    entry.push_str(&format!(
        "        \"hardened_served\": {},\n",
        cell.hardened_served
    ));
    entry.push_str(&format!(
        "        \"hardened_hit_rate\": {:.4},\n",
        cell.hardened_hit_rate
    ));
    entry.push_str(&format!(
        "        \"hardened_latency_p99_us\": {},\n",
        cell.hardened_latency_p99_us
    ));
    entry.push_str(&format!(
        "        \"throughput_rps\": {:.1}\n",
        cell.throughput_rps
    ));
    entry.push_str("      }\n    }");

    let json_path = format!("{root}/BENCH_detection.json");
    let mut entries = std::fs::read_to_string(&json_path)
        .map(|text| prior_entries(&text))
        .unwrap_or_default();
    entries.push(entry);
    if entries.len() > TRAJECTORY_CAP {
        entries.drain(..entries.len() - TRAJECTORY_CAP);
    }
    let mut json = String::from("{\n  \"bench\": \"detection\",\n");
    json.push_str(
        "  \"note\": \"one entry per run, newest last (cap 20): static detect-under-attack AUC, \
         static-vs-adaptive comparison under drift + attack bursts, and live triaged-server \
         economics on a 1/3-adversarial frame stream\",\n",
    );
    json.push_str("  \"trajectory\": [\n    ");
    json.push_str(&entries.join(",\n    "));
    json.push_str("\n  ]\n}\n");
    atomic_write(Path::new(&json_path), json.as_bytes()).expect("write BENCH_detection.json");
    eprintln!(
        "[detection] wrote {json_path} ({} trajectory entries)",
        entries.len()
    );
}
