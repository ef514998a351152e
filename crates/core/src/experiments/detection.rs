//! Detect-under-attack: the triage detector evaluated on a streaming
//! serving workload.
//!
//! The serving stack's admission triage (see `fademl-serve`) scores
//! every image with a multi-scale isolation forest fitted on clean
//! traffic. This experiment answers the question that design stands on:
//! *can the detector separate adversarial frames from ordinary
//! frame-to-frame drift?* A correlated [`FrameStream`] models the
//! camera; FGSM and filter-aware FAdeML perturbations are mixed into
//! alternating segments; every frame is scored and the resulting
//! (label, score) population is swept into a ROC curve and a
//! rank-statistic AUC.
//!
//! The sweep is resumable through the [`StageLedger`] journal: the
//! fitted detector and every scored segment are recorded as
//! independent stages, so a killed run re-fits nothing and re-scores
//! only the segment it died in.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;

use fademl_attacks::{Attack, AttackGoal, AttackSurface, Fademl, Fgsm};
use fademl_data::{ClassId, FrameStream, StreamConfig};
use fademl_detect::{Detector, DetectorConfig};
use fademl_filters::FilterSpec;
use fademl_tensor::io::{ByteReader, ByteWriter};
use fademl_tensor::Tensor;

use super::resume::{experiment_fingerprint, ResumeReport, StageLedger};
use super::AttackParams;
use crate::setup::PreparedSetup;
use crate::{FademlError, Result, ThreatModel};

/// Knobs of the detect-under-attack sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionParams {
    /// Clean frames used to fit the detector.
    pub fit_frames: usize,
    /// Scored segments; segment `i` carries [`SegmentKind::cycle`]`(i)`.
    pub segments: usize,
    /// Frames per scored segment.
    pub frames_per_segment: usize,
    /// Isolation-forest fit configuration.
    pub detector: DetectorConfig,
    /// The deployed filter the FAdeML segments craft against.
    pub deployed_filter: FilterSpec,
    /// Base seed for the frame streams (fit and per-segment).
    pub stream_seed: u64,
}

impl Default for DetectionParams {
    fn default() -> Self {
        DetectionParams {
            fit_frames: 96,
            segments: 6,
            frames_per_segment: 16,
            detector: DetectorConfig::default(),
            deployed_filter: FilterSpec::Lap { np: 8 },
            stream_seed: 0xFADE_000D,
        }
    }
}

impl DetectionParams {
    fn validate(&self) -> Result<()> {
        if self.fit_frames == 0 || self.segments == 0 || self.frames_per_segment == 0 {
            return Err(FademlError::InvalidConfig {
                reason: "detection sweep sizes must all be positive".into(),
            });
        }
        self.detector.validate().map_err(detect_config)?;
        self.deployed_filter.build()?;
        Ok(())
    }
}

/// What a scored segment's frames carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Unperturbed frames — the negative population.
    Clean,
    /// Frames carrying FGSM noise crafted against the bare DNN.
    Fgsm,
    /// Frames carrying FAdeML noise crafted against `filter ∘ DNN`.
    Fademl,
}

impl SegmentKind {
    /// The kind of segment `index` — clean and attacked segments
    /// alternate so both populations grow with the sweep length.
    pub fn cycle(index: usize) -> SegmentKind {
        match index % 3 {
            0 => SegmentKind::Clean,
            1 => SegmentKind::Fgsm,
            _ => SegmentKind::Fademl,
        }
    }

    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            SegmentKind::Clean => "clean",
            SegmentKind::Fgsm => "FGSM",
            SegmentKind::Fademl => "FAdeML",
        }
    }

    fn is_adversarial(&self) -> bool {
        !matches!(self, SegmentKind::Clean)
    }
}

/// One point of the ROC sweep: flag when `score >= threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold on the isolation score.
    pub threshold: f32,
    /// True-positive rate (adversarial frames flagged).
    pub tpr: f32,
    /// False-positive rate (clean frames flagged).
    pub fpr: f32,
}

/// Per-segment accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOutcome {
    /// What the segment carried.
    pub kind: SegmentKind,
    /// Frames scored.
    pub frames: usize,
    /// Mean isolation score over the segment.
    pub mean_score: f32,
}

/// The sweep's result.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// Rank-statistic (Mann–Whitney) AUC of the score as an
    /// adversarial-vs-clean discriminator; 0.5 is chance.
    pub auc: f32,
    /// ROC curve, thresholds descending (so points run (0,0) → (1,1)).
    pub roc: Vec<RocPoint>,
    /// Clean frames scored.
    pub clean_frames: usize,
    /// Adversarial frames scored.
    pub adversarial_frames: usize,
    /// Mean score over the clean population.
    pub mean_clean_score: f32,
    /// Mean score over the adversarial population.
    pub mean_adversarial_score: f32,
    /// Per-segment breakdown, in stream order.
    pub segments: Vec<SegmentOutcome>,
}

pub(crate) fn detect_config(e: fademl_detect::DetectError) -> FademlError {
    FademlError::InvalidConfig {
        reason: format!("detector: {e}"),
    }
}

pub(crate) fn detect_corrupt(e: fademl_detect::DetectError) -> FademlError {
    FademlError::Corrupt {
        reason: format!("recorded detector rejected: {e}"),
    }
}

pub(crate) fn detect_score(e: fademl_detect::DetectError) -> FademlError {
    FademlError::InvalidInput {
        reason: format!("detector scoring failed: {e}"),
    }
}

pub(crate) fn truncated(_: std::io::Error) -> FademlError {
    FademlError::Corrupt {
        reason: "detection stage value truncated mid-field".into(),
    }
}

/// Everything that influences a stage output, folded over the base
/// figure fingerprint so a ledger written under different detection
/// knobs (or a different victim) recomputes instead of being trusted.
pub(crate) fn detection_fingerprint(
    prepared: &PreparedSetup,
    params: &DetectionParams,
    attack: &AttackParams,
) -> u64 {
    let base = experiment_fingerprint(
        "detection",
        prepared,
        attack,
        &[params.deployed_filter],
        params.fit_frames,
        ThreatModel::III,
    );
    let mut h = DefaultHasher::new();
    base.hash(&mut h);
    params.segments.hash(&mut h);
    params.frames_per_segment.hash(&mut h);
    params.detector.trees.hash(&mut h);
    params.detector.subsample.hash(&mut h);
    params.detector.scales.hash(&mut h);
    params.detector.seed.hash(&mut h);
    params.stream_seed.hash(&mut h);
    h.finish()
}

/// The victim's input edge length, recovered from the prepared splits.
pub(crate) fn frame_size(prepared: &PreparedSetup) -> Result<usize> {
    let dims = prepared.train.images().dims();
    match dims {
        &[_, _, h, w] if h == w && h > 0 => Ok(h),
        _ => Err(FademlError::InvalidConfig {
            reason: format!("prepared dataset has unusable image shape {dims:?}"),
        }),
    }
}

fn stream(class: ClassId, size: usize, seed: u64) -> Result<FrameStream> {
    FrameStream::new(StreamConfig {
        class,
        image_size: size,
        seed,
        ..StreamConfig::default()
    })
    .map_err(FademlError::from)
}

/// Crafts the segment's additive noise once, on its first clean frame —
/// the attacker perturbs the feed, not each frame independently.
fn segment_noise(
    prepared: &PreparedSetup,
    params: &DetectionParams,
    attack: &AttackParams,
    kind: SegmentKind,
    source: &Tensor,
) -> Result<Option<Tensor>> {
    let goal = AttackGoal::Untargeted {
        source: ClassId::STOP.index(),
    };
    match kind {
        SegmentKind::Clean => Ok(None),
        SegmentKind::Fgsm => {
            let fgsm = Fgsm::new(attack.epsilon)?;
            let mut surface = AttackSurface::new(prepared.model.clone());
            Ok(Some(fgsm.run(&mut surface, source, goal)?.noise))
        }
        SegmentKind::Fademl => {
            let base = Fgsm::new(attack.epsilon)?;
            let aware = Fademl::new(Box::new(base), attack.fademl_rounds, attack.fademl_eta)?;
            let mut surface =
                AttackSurface::with_filter(prepared.model.clone(), params.deployed_filter.build()?);
            Ok(Some(aware.run(&mut surface, source, goal)?.noise))
        }
    }
}

/// Scores one segment: a fresh correlated stream, the segment's noise
/// (if adversarial) applied to every frame, one detector score each.
fn score_segment(
    prepared: &PreparedSetup,
    params: &DetectionParams,
    attack: &AttackParams,
    detector: &Detector,
    index: usize,
    size: usize,
) -> Result<Vec<f32>> {
    let kind = SegmentKind::cycle(index);
    let mut feed = stream(
        ClassId::STOP,
        size,
        params.stream_seed.wrapping_add(1 + index as u64),
    )?;
    let frames = feed.take_frames(params.frames_per_segment)?;
    let noise = segment_noise(prepared, params, attack, kind, &frames[0])?;
    let mut scores = Vec::with_capacity(frames.len());
    for frame in &frames {
        let scored = match &noise {
            None => detector.score_image(frame),
            Some(noise) => detector.score_image(&frame.add(noise)?.clamp(0.0, 1.0)),
        };
        scores.push(scored.map_err(detect_score)?);
    }
    Ok(scores)
}

fn encode_scores(scores: &[f32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(scores.len() as u64);
    for &score in scores {
        w.put_f32(score);
    }
    w.into_bytes()
}

fn decode_scores(bytes: &[u8]) -> Result<Vec<f32>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_u64().map_err(truncated)? as usize;
    if n > bytes.len() {
        return Err(FademlError::Corrupt {
            reason: "detection stage score count exceeds record size".into(),
        });
    }
    let mut scores = Vec::with_capacity(n);
    for _ in 0..n {
        scores.push(r.get_f32().map_err(truncated)?);
    }
    Ok(scores)
}

/// Mann–Whitney AUC with average-rank tie handling: the probability a
/// random adversarial frame outscores a random clean one.
pub(crate) fn rank_auc(labeled: &[(bool, f32)]) -> f32 {
    let mut order: Vec<usize> = (0..labeled.len()).collect();
    order.sort_by(|&a, &b| {
        labeled[a]
            .1
            .partial_cmp(&labeled[b].1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut adv_rank_sum = 0.0f64;
    let (mut n_adv, mut n_clean) = (0usize, 0usize);
    let mut i = 0usize;
    while i < order.len() {
        // Average ranks across a tie group so equal scores contribute
        // symmetrically regardless of sort order.
        let mut j = i;
        while j < order.len() && labeled[order[j]].1 == labeled[order[i]].1 {
            j += 1;
        }
        let mean_rank = ((i + 1 + j) as f64) / 2.0;
        for &idx in &order[i..j] {
            if labeled[idx].0 {
                adv_rank_sum += mean_rank;
                n_adv += 1;
            } else {
                n_clean += 1;
            }
        }
        i = j;
    }
    if n_adv == 0 || n_clean == 0 {
        return 0.5;
    }
    let u = adv_rank_sum - (n_adv as f64) * (n_adv as f64 + 1.0) / 2.0;
    (u / (n_adv as f64 * n_clean as f64)) as f32
}

/// Sweeps every distinct observed score as a threshold, descending, and
/// brackets the curve with its (0,0) and (1,1) endpoints.
fn roc_sweep(labeled: &[(bool, f32)]) -> Vec<RocPoint> {
    let n_adv = labeled.iter().filter(|(adv, _)| *adv).count().max(1) as f32;
    let n_clean = labeled.iter().filter(|(adv, _)| !*adv).count().max(1) as f32;
    let mut thresholds: Vec<f32> = labeled.iter().map(|&(_, s)| s).collect();
    thresholds.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    thresholds.dedup();
    let mut roc = vec![RocPoint {
        threshold: f32::INFINITY,
        tpr: 0.0,
        fpr: 0.0,
    }];
    for t in thresholds {
        let tp = labeled.iter().filter(|&&(adv, s)| adv && s >= t).count();
        let fp = labeled.iter().filter(|&&(adv, s)| !adv && s >= t).count();
        roc.push(RocPoint {
            threshold: t,
            tpr: tp as f32 / n_adv,
            fpr: fp as f32 / n_clean,
        });
    }
    roc
}

fn mean(values: impl Iterator<Item = f32>) -> f32 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for v in values {
        sum += f64::from(v);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64) as f32
    }
}

/// Runs the resumable detect-under-attack sweep.
///
/// Stages journaled to `ledger_path`: `"fit"` (the serialized detector)
/// plus one `"segment/i"` per scored segment. A rerun under identical
/// parameters and victim reuses every recorded stage.
///
/// # Errors
///
/// Propagates configuration, attack, detector and ledger errors.
pub fn run_detection_resumable(
    prepared: &PreparedSetup,
    params: &DetectionParams,
    attack: &AttackParams,
    ledger_path: &Path,
) -> Result<ResumeReport<DetectionResult>> {
    params.validate()?;
    let size = frame_size(prepared)?;
    let fingerprint = detection_fingerprint(prepared, params, attack);
    let ledger = StageLedger::open(ledger_path, fingerprint)?;
    let mut reused = 0usize;

    let detector = match ledger.get("fit") {
        Some(bytes) => {
            reused += 1;
            Detector::from_bytes(&bytes).map_err(detect_corrupt)?
        }
        None => {
            let mut feed = stream(ClassId::STOP, size, params.stream_seed)?;
            let clean = feed.take_frames(params.fit_frames)?;
            let detector = Detector::fit_images(&clean, &params.detector).map_err(detect_config)?;
            ledger.record("fit", &detector.to_bytes())?;
            detector
        }
    };

    let mut labeled = Vec::with_capacity(params.segments * params.frames_per_segment);
    let mut segments = Vec::with_capacity(params.segments);
    for index in 0..params.segments {
        let key = format!("segment/{index}");
        let scores = match ledger.get(&key) {
            Some(bytes) => {
                reused += 1;
                decode_scores(&bytes)?
            }
            None => {
                let scores = score_segment(prepared, params, attack, &detector, index, size)?;
                ledger.record(&key, &encode_scores(&scores))?;
                scores
            }
        };
        let kind = SegmentKind::cycle(index);
        segments.push(SegmentOutcome {
            kind,
            frames: scores.len(),
            mean_score: mean(scores.iter().copied()),
        });
        labeled.extend(scores.into_iter().map(|s| (kind.is_adversarial(), s)));
    }

    let result = DetectionResult {
        auc: rank_auc(&labeled),
        roc: roc_sweep(&labeled),
        clean_frames: labeled.iter().filter(|(adv, _)| !*adv).count(),
        adversarial_frames: labeled.iter().filter(|(adv, _)| *adv).count(),
        mean_clean_score: mean(labeled.iter().filter(|(adv, _)| !*adv).map(|&(_, s)| s)),
        mean_adversarial_score: mean(labeled.iter().filter(|(adv, _)| *adv).map(|&(_, s)| s)),
        segments,
    };
    Ok(ResumeReport {
        result,
        stages_total: 1 + params.segments,
        stages_reused: reused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ExperimentSetup, SetupProfile};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn ledger_file(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("fademl_detection_{tag}_{}.fjl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn prepared() -> &'static PreparedSetup {
        static CELL: OnceLock<PreparedSetup> = OnceLock::new();
        CELL.get_or_init(|| {
            ExperimentSetup::profile(SetupProfile::Smoke)
                .prepare()
                .unwrap()
        })
    }

    fn tiny_params() -> DetectionParams {
        DetectionParams {
            fit_frames: 32,
            segments: 3,
            frames_per_segment: 6,
            detector: DetectorConfig {
                trees: 16,
                subsample: 16,
                scales: 2,
                seed: 9,
            },
            ..DetectionParams::default()
        }
    }

    fn cheap_attack() -> AttackParams {
        AttackParams {
            epsilon: 0.15,
            fademl_rounds: 1,
            ..AttackParams::default()
        }
    }

    #[test]
    fn detection_sweep_separates_attack_from_drift() {
        let path = ledger_file("auc");
        let report =
            run_detection_resumable(prepared(), &tiny_params(), &cheap_attack(), &path).unwrap();
        assert_eq!(report.stages_total, 4);
        assert_eq!(report.stages_reused, 0);
        let r = &report.result;
        assert_eq!(r.clean_frames, 6);
        assert_eq!(r.adversarial_frames, 12);
        assert!(
            r.auc > 0.5,
            "detector must beat chance on FGSM/FAdeML frames: auc {}",
            r.auc
        );
        assert!(r.mean_adversarial_score > r.mean_clean_score);
        // ROC runs (0,0) → (1,1) and is monotone in both axes.
        let first = r.roc.first().unwrap();
        let last = r.roc.last().unwrap();
        assert_eq!((first.tpr, first.fpr), (0.0, 0.0));
        assert_eq!((last.tpr, last.fpr), (1.0, 1.0));
        for pair in r.roc.windows(2) {
            assert!(pair[1].tpr >= pair[0].tpr && pair[1].fpr >= pair[0].fpr);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rerun_reuses_every_stage_and_reproduces_the_result() {
        let path = ledger_file("rerun");
        let first =
            run_detection_resumable(prepared(), &tiny_params(), &cheap_attack(), &path).unwrap();
        let second =
            run_detection_resumable(prepared(), &tiny_params(), &cheap_attack(), &path).unwrap();
        assert_eq!(second.stages_reused, second.stages_total);
        assert_eq!(second.result, first.result);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn killed_run_resumes_from_recorded_stages() {
        // Simulate a kill after the fit and the first segment: copy just
        // those records into a fresh ledger and resume from it.
        let full_path = ledger_file("kill_full");
        let partial_path = ledger_file("kill_partial");
        let params = tiny_params();
        let attack = cheap_attack();
        run_detection_resumable(prepared(), &params, &attack, &full_path).unwrap();

        let fingerprint = detection_fingerprint(prepared(), &params, &attack);
        let full = StageLedger::open(&full_path, fingerprint).unwrap();
        let partial = StageLedger::open(&partial_path, fingerprint).unwrap();
        for key in ["fit", "segment/0"] {
            partial.record(key, &full.get(key).unwrap()).unwrap();
        }
        drop(partial);

        let resumed = run_detection_resumable(prepared(), &params, &attack, &partial_path).unwrap();
        assert_eq!(resumed.stages_reused, 2);
        assert_eq!(resumed.stages_total, 4);
        let _ = fs::remove_file(&full_path);
        let _ = fs::remove_file(&partial_path);
    }

    #[test]
    fn changed_parameters_invalidate_the_ledger() {
        let path = ledger_file("fp");
        let attack = cheap_attack();
        run_detection_resumable(prepared(), &tiny_params(), &attack, &path).unwrap();
        let shifted = DetectionParams {
            stream_seed: 0xBEEF,
            ..tiny_params()
        };
        let rerun = run_detection_resumable(prepared(), &shifted, &attack, &path).unwrap();
        assert_eq!(rerun.stages_reused, 0, "foreign-fingerprint stages reused");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn invalid_params_are_refused() {
        let path = ledger_file("invalid");
        for params in [
            DetectionParams {
                segments: 0,
                ..tiny_params()
            },
            DetectionParams {
                detector: DetectorConfig {
                    trees: 0,
                    ..DetectorConfig::default()
                },
                ..tiny_params()
            },
        ] {
            assert!(matches!(
                run_detection_resumable(prepared(), &params, &cheap_attack(), &path),
                Err(FademlError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn rank_auc_handles_degenerate_populations() {
        assert_eq!(rank_auc(&[]), 0.5);
        assert_eq!(rank_auc(&[(true, 0.9), (true, 0.8)]), 0.5);
        // Perfect separation and perfect inversion.
        assert_eq!(rank_auc(&[(false, 0.1), (true, 0.9)]), 1.0);
        assert_eq!(rank_auc(&[(false, 0.9), (true, 0.1)]), 0.0);
        // All-tied scores are chance.
        assert_eq!(rank_auc(&[(false, 0.5), (true, 0.5)]), 0.5);
    }
}
