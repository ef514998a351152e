// The deployed pipeline is the one file of `fademl` on the serving path,
// so it alone is held to the serving crates' panic lints (their roots
// explain them); experiment drivers may panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::indexing_slicing)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        reason = "tests assert by panicking on fixtures they built"
    )
)]

use fademl_data::NoiseModel;
use fademl_filters::{Filter, FilterSpec};
use fademl_nn::metrics::{Prediction, EVAL_CHUNK};
use fademl_nn::Sequential;
use fademl_tensor::{Shape, Tensor, TensorRng};

use crate::{FademlError, Result, ThreatModel};

/// Outcome of the serving-side adversarial triage stage for one image.
///
/// Attached to a [`Verdict`] by `fademl-serve` when a detector is
/// configured; `None` means the image was never triaged (direct
/// pipeline use, or a server running without detection). A triage
/// fail-open (detector panic/timeout) also reports `None` — detection
/// is advisory and absence of a verdict is the honest encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Isolation-forest anomaly score in `(0, 1)`; higher ⇒ more
    /// anomalous relative to the clean training distribution.
    pub score: f32,
    /// `true` if the score crossed the configured triage threshold.
    pub flagged: bool,
    /// `true` if the image was classified on the hardened path
    /// (stronger filter, isolated per-image execution).
    pub hardened: bool,
}

/// What the deployed pipeline reports for one image.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Winning class index.
    pub class: usize,
    /// Confidence (softmax probability of the winner).
    pub confidence: f32,
    /// Full top-5 ranking.
    pub top5: Prediction,
    /// Full class-probability vector.
    pub probabilities: Tensor,
    /// Adversarial-triage outcome, when the serving layer scored the
    /// image (see [`Detection`]).
    pub detection: Option<Detection>,
}

/// The deployed inference pipeline of the paper's Fig. 2: data
/// acquisition → pre-processing noise filter → input buffer → DNN.
///
/// The pipeline is the *defender's* object; the attacker's view of it is
/// an [`AttackSurface`](fademl_attacks::AttackSurface). Where an
/// adversarial image enters is controlled by the [`ThreatModel`]:
///
/// - **TM-I**: straight into the DNN buffer — the filter is bypassed.
/// - **TM-II**: re-acquired by the sensor (fresh acquisition noise) and
///   passed through the filter.
/// - **TM-III**: injected after acquisition but before the filter — the
///   filter runs, no fresh sensor noise.
#[derive(Debug, Clone)]
pub struct InferencePipeline {
    model: Sequential,
    filter: Box<dyn Filter>,
    filter_spec: FilterSpec,
    acquisition_noise: NoiseModel,
    noise_seed: u64,
}

impl InferencePipeline {
    /// Builds a pipeline from a trained model and a filter spec, with
    /// the default sensor-noise profile for TM-II re-acquisition.
    ///
    /// # Errors
    ///
    /// Propagates filter construction errors.
    pub fn new(model: Sequential, filter_spec: FilterSpec) -> Result<Self> {
        Ok(InferencePipeline {
            model,
            filter: filter_spec.build()?,
            filter_spec,
            acquisition_noise: NoiseModel::sensor(),
            noise_seed: 0xACC0_57ED,
        })
    }

    /// Replaces the TM-II acquisition-noise profile (builder style).
    #[must_use]
    pub fn with_acquisition_noise(mut self, noise: NoiseModel) -> Self {
        self.acquisition_noise = noise;
        self
    }

    /// The pipeline's filter configuration.
    pub fn filter_spec(&self) -> FilterSpec {
        self.filter_spec
    }

    /// The victim model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable access to the victim model. The hot-swap path clones the
    /// deployed pipeline, decodes a new weight artifact into the clone,
    /// and publishes it atomically — the live pipeline itself is never
    /// mutated in place.
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Runs the pipeline stages an image would traverse under `threat`
    /// and returns the tensor that reaches the DNN input buffer.
    ///
    /// # Errors
    ///
    /// Propagates filter errors.
    pub fn stage_input(&self, image: &Tensor, threat: ThreatModel) -> Result<Tensor> {
        let acquired = threat.reacquires().then(|| self.reacquire(image));
        self.filter_stage(image, acquired, threat)
    }

    /// Runs the pipeline stages for a whole `[N, C, H, W]` batch under
    /// `threat`, producing exactly what per-image [`stage_input`] calls
    /// would: TM-II sensor noise is seeded per image from its content,
    /// and the filter (plane-wise by construction) runs once on the
    /// whole batch.
    ///
    /// [`stage_input`]: InferencePipeline::stage_input
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::InvalidConfig`] for non-rank-4 input, plus
    /// any filter error.
    pub fn stage_input_batch(&self, images: &Tensor, threat: ThreatModel) -> Result<Tensor> {
        let &[n, _, _, _] = images.dims() else {
            return Err(FademlError::InvalidConfig {
                reason: format!("expected [N, C, H, W] images, got {:?}", images.dims()),
            });
        };
        let mut acquired = None;
        if threat.reacquires() {
            let mut noised = Vec::with_capacity(images.numel());
            for i in 0..n {
                let image = images.index_batch(i)?;
                noised.extend_from_slice(self.reacquire(&image).as_slice());
            }
            acquired = Some(Tensor::from_vec(
                noised,
                Shape::new(images.dims().to_vec()),
            )?);
        }
        self.filter_stage(images, acquired, threat)
    }

    /// The filter stage of `threat` over the re-acquired frames when
    /// there are any, else over `images` as given. The input is copied
    /// only when no stage ran to produce a tensor of its own.
    fn filter_stage(
        &self,
        images: &Tensor,
        acquired: Option<Tensor>,
        threat: ThreatModel,
    ) -> Result<Tensor> {
        if threat.filter_applies() {
            return Ok(self.filter.apply(acquired.as_ref().unwrap_or(images))?);
        }
        Ok(acquired.unwrap_or_else(|| images.clone()))
    }

    /// TM-II re-acquisition: deterministic per-image sensor noise, seeded
    /// from the image content so repeated classification of the same
    /// image is reproducible (and batch staging matches per-image
    /// staging exactly).
    fn reacquire(&self, image: &Tensor) -> Tensor {
        let fingerprint = image.as_slice().iter().fold(0u64, |acc, &v| {
            acc.wrapping_mul(31).wrapping_add(v.to_bits() as u64)
        });
        let mut rng = TensorRng::seed_from_u64(self.noise_seed ^ fingerprint);
        self.acquisition_noise.apply(image, &mut rng)
    }

    /// Rejects tensors carrying non-finite values: a single NaN spreads
    /// through every conv/matmul reduction and silently corrupts the
    /// verdict of everything sharing the forward pass. Runs only on the
    /// classification entry points — staging helpers stay permissive so
    /// attack evaluation can probe the pipeline with anything.
    fn validate_input(image: &Tensor) -> Result<()> {
        if let Some((index, value)) = image
            .as_slice()
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
        {
            return Err(FademlError::InvalidInput {
                reason: format!("non-finite value {value} at flat index {index}"),
            });
        }
        Ok(())
    }

    /// Builds a [`Verdict`] from one row of class probabilities.
    #[expect(
        clippy::indexing_slicing,
        reason = "top_k ranks indices of this very row"
    )]
    fn verdict_from_probabilities(probabilities: Tensor) -> Verdict {
        let top_classes = probabilities.top_k(5);
        let probs = probabilities.as_slice();
        let top_probs: Vec<f32> = top_classes.iter().map(|&c| probs[c]).collect();
        let top5 = Prediction {
            top_classes,
            top_probs,
        };
        Verdict {
            class: top5.class(),
            confidence: top5.confidence(),
            top5,
            probabilities,
            detection: None,
        }
    }

    /// Classifies a single `[C, H, W]` image entering under `threat`.
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::InvalidConfig`] for non-rank-3 input,
    /// [`FademlError::InvalidInput`] for non-finite values, plus any
    /// filter/model error.
    pub fn classify(&self, image: &Tensor, threat: ThreatModel) -> Result<Verdict> {
        if image.rank() != 3 {
            return Err(FademlError::InvalidConfig {
                reason: format!("expected a [C, H, W] image, got {:?}", image.dims()),
            });
        }
        Self::validate_input(image)?;
        let staged = self.stage_input(image, threat)?;
        let batch = staged.unsqueeze_batch();
        // One forward pass; the top-5 ranking is a cheap argsort of the
        // probability vector we already have.
        let probabilities = self.model.predict_proba(&batch)?.row(0)?;
        Ok(Self::verdict_from_probabilities(probabilities))
    }

    /// Classifies a whole `[N, C, H, W]` batch entering under `threat`
    /// with one filter pass and one model forward, returning one
    /// [`Verdict`] per image (identical to per-image [`classify`] calls).
    ///
    /// [`classify`]: InferencePipeline::classify
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::InvalidConfig`] for non-rank-4 input,
    /// [`FademlError::InvalidInput`] for non-finite values, plus any
    /// filter/model error.
    pub fn classify_batch(&self, images: &Tensor, threat: ThreatModel) -> Result<Vec<Verdict>> {
        Self::validate_input(images)?;
        let staged = self.stage_input_batch(images, threat)?;
        let probabilities = self.model.predict_proba(&staged)?; // [N, classes]
        let n = probabilities.dims().first().copied().unwrap_or(0);
        let mut verdicts = Vec::with_capacity(n);
        for i in 0..n {
            verdicts.push(Self::verdict_from_probabilities(probabilities.row(i)?));
        }
        Ok(verdicts)
    }

    /// Top-`k` accuracy of the pipeline over a batch entering under
    /// `threat` (the paper's headline metric uses `k = 5`).
    ///
    /// Staging stays permissive, but an image [`classify`] would refuse
    /// (a non-finite pixel) is a miss, and so is one whose probability
    /// at its label is NaN: neither carries a prediction.
    ///
    /// [`classify`]: InferencePipeline::classify
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::InvalidConfig`] when labels and batch
    /// disagree, plus any filter/model error.
    pub fn top_k_accuracy(
        &self,
        images: &Tensor,
        labels: &[usize],
        threat: ThreatModel,
        k: usize,
    ) -> Result<f32> {
        if !matches!(*images.dims(), [n, _, _, _] if n == labels.len()) {
            return Err(FademlError::InvalidConfig {
                reason: format!(
                    "need [n, c, h, w] images matching {} labels, got {:?}",
                    labels.len(),
                    images.dims()
                ),
            });
        }
        if labels.is_empty() {
            return Ok(0.0);
        }
        // Batched evaluation in bounded chunks: each chunk pays one
        // filter pass and one forward, without materialising activations
        // for the entire dataset at once.
        let n = labels.len();
        let mut hits = 0usize;
        for (start, chunk_labels) in (0..n).step_by(EVAL_CHUNK).zip(labels.chunks(EVAL_CHUNK)) {
            let chunk = images.select_batch(start..start + chunk_labels.len())?;
            let staged = self.stage_input_batch(&chunk, threat)?;
            let probabilities = self.model.predict_proba(&staged)?;
            let frame_len = (chunk.numel() / chunk_labels.len()).max(1);
            let frames = chunk.as_slice().chunks_exact(frame_len);
            for ((i, label), frame) in chunk_labels.iter().enumerate().zip(frames) {
                let row = probabilities.row(i)?;
                let scored = frame.iter().all(|v| v.is_finite())
                    && row.as_slice().get(*label).is_some_and(|p| !p.is_nan());
                if scored && row.top_k(k).contains(label) {
                    hits += 1;
                }
            }
        }
        Ok(hits as f32 / n as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_nn::vgg::{VggConfig, VggProfile};

    fn pipeline(spec: FilterSpec) -> InferencePipeline {
        let mut rng = TensorRng::seed_from_u64(1);
        let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        InferencePipeline::new(model, spec).unwrap()
    }

    #[test]
    fn tm1_bypasses_filter() {
        let p = pipeline(FilterSpec::Lap { np: 32 });
        let mut rng = TensorRng::seed_from_u64(2);
        let img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        let staged = p.stage_input(&img, ThreatModel::I).unwrap();
        assert_eq!(staged, img);
    }

    #[test]
    fn tm3_filters_without_noise() {
        let p = pipeline(FilterSpec::Lap { np: 8 });
        let mut rng = TensorRng::seed_from_u64(3);
        let img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        let staged = p.stage_input(&img, ThreatModel::III).unwrap();
        assert_ne!(staged, img);
        // Deterministic: same image, same staging.
        assert_eq!(staged, p.stage_input(&img, ThreatModel::III).unwrap());
    }

    #[test]
    fn tm2_adds_noise_then_filters() {
        let p = pipeline(FilterSpec::Lap { np: 8 });
        let mut rng = TensorRng::seed_from_u64(4);
        let img = rng.uniform(&[3, 16, 16], 0.2, 0.8);
        let tm2 = p.stage_input(&img, ThreatModel::II).unwrap();
        let tm3 = p.stage_input(&img, ThreatModel::III).unwrap();
        assert_ne!(tm2, tm3); // sensor noise distinguishes II from III
                              // Still reproducible.
        assert_eq!(tm2, p.stage_input(&img, ThreatModel::II).unwrap());
    }

    #[test]
    fn classify_returns_consistent_verdict() {
        let p = pipeline(FilterSpec::None);
        let mut rng = TensorRng::seed_from_u64(5);
        let img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        let v = p.classify(&img, ThreatModel::I).unwrap();
        assert!(v.class < 6);
        assert_eq!(v.class, v.top5.top_classes[0]);
        assert!((v.confidence - v.top5.top_probs[0]).abs() < 1e-6);
        let psum: f32 = v.probabilities.as_slice().iter().sum();
        assert!((psum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn classify_rejects_batches() {
        let p = pipeline(FilterSpec::None);
        assert!(p
            .classify(&Tensor::zeros(&[1, 3, 16, 16]), ThreatModel::I)
            .is_err());
    }

    #[test]
    fn accuracy_counts_topk_hits() {
        let p = pipeline(FilterSpec::None);
        let mut rng = TensorRng::seed_from_u64(6);
        let images = rng.uniform(&[4, 3, 16, 16], 0.0, 1.0);
        // With k = 6 classes and top-6 every label hits.
        let acc = p
            .top_k_accuracy(&images, &[0, 1, 2, 3], ThreatModel::I, 6)
            .unwrap();
        assert_eq!(acc, 1.0);
        assert!(p
            .top_k_accuracy(&images, &[0, 1], ThreatModel::I, 5)
            .is_err());
    }

    #[test]
    fn accuracy_counts_a_nan_image_as_a_miss() {
        // Staging is permissive, so a NaN image reaches the ranking; the
        // ReLU turns its NaN activations into zeros, so without the
        // finiteness check it would score whatever the bias predicts.
        // With top-6 of 6 classes every finite image hits.
        let p = pipeline(FilterSpec::Lar { r: 2 });
        let mut images = TensorRng::seed_from_u64(6).uniform(&[4, 3, 16, 16], 0.0, 1.0);
        let frame = 3 * 16 * 16;
        images.as_mut_slice()[frame..2 * frame].fill(f32::NAN);
        images.as_mut_slice()[3 * frame + 17] = f32::NAN;
        for threat in [ThreatModel::I, ThreatModel::III] {
            let acc = p.top_k_accuracy(&images, &[0, 0, 1, 2], threat, 6).unwrap();
            assert_eq!(acc, 0.5, "{threat:?}");
        }
    }

    #[test]
    fn filter_spec_accessor() {
        let p = pipeline(FilterSpec::Lar { r: 2 });
        assert_eq!(p.filter_spec(), FilterSpec::Lar { r: 2 });
    }

    #[test]
    fn classify_rejects_non_finite_input() {
        let p = pipeline(FilterSpec::None);
        let mut rng = TensorRng::seed_from_u64(21);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
            img.as_mut_slice()[7] = poison;
            assert!(matches!(
                p.classify(&img, ThreatModel::I),
                Err(FademlError::InvalidInput { .. })
            ));
            let mut batch = rng.uniform(&[2, 3, 16, 16], 0.0, 1.0);
            batch.as_mut_slice()[100] = poison;
            assert!(matches!(
                p.classify_batch(&batch, ThreatModel::III),
                Err(FademlError::InvalidInput { .. })
            ));
        }
    }

    #[test]
    fn staging_stays_permissive_for_attack_probing() {
        // Attack evaluation probes the filter with arbitrary tensors;
        // validation belongs to the classification entry points only.
        let p = pipeline(FilterSpec::Lap { np: 8 });
        let mut rng = TensorRng::seed_from_u64(22);
        let mut img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        img.as_mut_slice()[0] = f32::NAN;
        assert!(p.stage_input(&img, ThreatModel::III).is_ok());
    }

    #[test]
    fn classify_batch_rejects_single_images() {
        let p = pipeline(FilterSpec::None);
        assert!(p
            .classify_batch(&Tensor::zeros(&[3, 16, 16]), ThreatModel::I)
            .is_err());
    }

    #[test]
    fn batch_staging_matches_per_image_under_tm2() {
        // TM-II is the subtle case: sensor noise must be seeded per
        // image from its content, not once per batch.
        let p = pipeline(FilterSpec::Lap { np: 8 });
        let mut rng = TensorRng::seed_from_u64(11);
        let images = rng.uniform(&[3, 3, 16, 16], 0.1, 0.9);
        let staged = p.stage_input_batch(&images, ThreatModel::II).unwrap();
        for i in 0..3 {
            let single = p
                .stage_input(&images.index_batch(i).unwrap(), ThreatModel::II)
                .unwrap();
            assert_eq!(staged.index_batch(i).unwrap(), single);
        }
    }

    fn verdict_bits(v: &Verdict) -> (usize, Vec<usize>, Vec<u32>, Vec<u32>) {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            v.class,
            v.top5.top_classes.clone(),
            bits(&v.top5.top_probs),
            bits(v.probabilities.as_slice()),
        )
    }

    /// A served verdict does not depend on its batch: row `i` of
    /// `classify_batch` is `classify` of image `i`, bit for bit, on the
    /// Compact victim, at batches that fill a fused convolution tile
    /// partway, whole and past it, on every kernel instantiation, for
    /// every threat model under both filter families.
    #[test]
    fn classify_batch_matches_classify() {
        let mut rng = TensorRng::seed_from_u64(19);
        let model = VggConfig::new(VggProfile::Compact, 3, 32, 43)
            .build(&mut rng)
            .unwrap();
        let images = rng.uniform(&[33, 3, 32, 32], 0.0, 1.0);
        for spec in [FilterSpec::Lap { np: 32 }, FilterSpec::Lar { r: 3 }] {
            let p = InferencePipeline::new(model.clone(), spec).unwrap();
            for isa in fademl_tensor::simd::available() {
                assert!(fademl_tensor::simd::pin(Some(isa)));
                for threat in ThreatModel::ALL {
                    let singles: Vec<_> = (0..33)
                        .map(|i| {
                            let image = images.index_batch(i).unwrap();
                            verdict_bits(&p.classify(&image, threat).unwrap())
                        })
                        .collect();
                    for b in [1, 2, 5, 16, 33] {
                        let batch = images.select_batch(0..b).unwrap();
                        let batched = p.classify_batch(&batch, threat).unwrap();
                        assert_eq!(batched.len(), b);
                        for (i, verdict) in batched.iter().enumerate() {
                            assert_eq!(
                                verdict_bits(verdict),
                                singles[i],
                                "row {i} of b{b}, {threat:?}, {spec:?}, {isa:?}"
                            );
                        }
                    }
                }
            }
        }
        fademl_tensor::simd::pin(None);
    }
}
