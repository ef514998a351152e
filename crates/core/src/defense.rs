//! Adversarial training — the training-time defense the paper's
//! conclusion calls for ("inspire researchers to develop ML
//! architectures that are effective yet can resist adversarial
//! examples").
//!
//! Each minibatch is augmented with FGSM examples crafted against the
//! *current* model state (Goodfellow et al.'s original recipe), so the
//! decision boundary is pushed away from the ε-neighbourhood of the
//! training data. The robustness evaluation helpers quantify the gain.

use fademl_attacks::{Attack, AttackGoal, AttackSurface, Fgsm};
use fademl_nn::{CrossEntropyLoss, Loss, OptimizerKind, Sequential, TrainConfig};
use fademl_tensor::{Tensor, TensorRng};

use crate::{FademlError, Result};

/// Configuration for adversarially augmented training.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialTrainingConfig {
    /// The underlying optimization schedule.
    pub base: TrainConfig,
    /// FGSM budget used for the on-the-fly adversarial examples.
    pub epsilon: f32,
    /// Fraction of every minibatch replaced by adversarial versions
    /// (0.5 is the classic half-clean/half-adversarial mix).
    pub adversarial_fraction: f32,
}

impl Default for AdversarialTrainingConfig {
    fn default() -> Self {
        AdversarialTrainingConfig {
            base: TrainConfig::default(),
            epsilon: 0.06,
            adversarial_fraction: 0.5,
        }
    }
}

/// Trains `model` with FGSM adversarial augmentation.
///
/// # Errors
///
/// Returns [`FademlError::InvalidConfig`] for an out-of-range
/// `adversarial_fraction`/`epsilon` or degenerate base config, and
/// propagates model/attack errors.
pub fn adversarial_fit(
    model: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    config: &AdversarialTrainingConfig,
) -> Result<()> {
    if !(0.0..=1.0).contains(&config.adversarial_fraction) {
        return Err(FademlError::InvalidConfig {
            reason: format!(
                "adversarial_fraction must be in [0, 1], got {}",
                config.adversarial_fraction
            ),
        });
    }
    if config.base.epochs == 0 || config.base.batch_size == 0 {
        return Err(FademlError::InvalidConfig {
            reason: "epochs and batch_size must be positive".into(),
        });
    }
    let n = images.dims().first().copied().unwrap_or(0);
    if n == 0 || n != labels.len() {
        return Err(FademlError::InvalidConfig {
            reason: format!("{} labels for {} images", labels.len(), n),
        });
    }
    let fgsm = Fgsm::new(config.epsilon).map_err(FademlError::from)?;
    let loss = CrossEntropyLoss::new();
    let mut optimizer: Box<dyn fademl_nn::Optimizer> = match config.base.optimizer {
        OptimizerKind::SgdMomentum { lr } => Box::new(fademl_nn::Sgd::with_momentum(lr, 0.9)),
        OptimizerKind::Adam { lr } => Box::new(fademl_nn::Adam::new(lr)),
        _ => Box::new(fademl_nn::Adam::new(1e-3)),
    };
    let mut rng = TensorRng::seed_from_u64(config.base.seed);
    let mut order: Vec<usize> = (0..n).collect();

    for _ in 0..config.base.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(config.base.batch_size) {
            // Split the chunk: the leading part is adversarially
            // perturbed against the current model, the rest stays clean.
            let adv_count = ((chunk.len() as f32) * config.adversarial_fraction).round() as usize;
            let mut batch_images = Vec::with_capacity(chunk.len());
            let mut batch_labels = Vec::with_capacity(chunk.len());
            // A fresh surface per batch sees the current weights.
            let mut surface = AttackSurface::new(model.clone());
            for (k, &i) in chunk.iter().enumerate() {
                let image = images.index_batch(i)?;
                let label = labels[i];
                if k < adv_count {
                    let adv = fgsm
                        .run(
                            &mut surface,
                            &image,
                            AttackGoal::Untargeted { source: label },
                        )
                        .map_err(FademlError::from)?;
                    batch_images.push(adv.adversarial);
                } else {
                    batch_images.push(image);
                }
                batch_labels.push(label);
            }
            let batch = Tensor::stack(&batch_images)?;
            model.zero_grad();
            let logits = model.forward_train(&batch)?;
            let lv = loss.compute(&logits, &batch_labels)?;
            model.backward(&lv.grad)?;
            optimizer.step(&mut model.params_mut())?;
        }
    }
    Ok(())
}

/// Top-1 *robust accuracy*: the fraction of samples still classified
/// correctly after a per-sample untargeted FGSM attack at `epsilon`.
///
/// # Errors
///
/// Propagates attack/model errors; returns
/// [`FademlError::InvalidConfig`] for mismatched labels.
pub fn robust_accuracy(
    model: &Sequential,
    images: &Tensor,
    labels: &[usize],
    epsilon: f32,
) -> Result<f32> {
    let n = images.dims().first().copied().unwrap_or(0);
    if n != labels.len() {
        return Err(FademlError::InvalidConfig {
            reason: format!("{} labels for {} images", labels.len(), n),
        });
    }
    if n == 0 {
        return Ok(0.0);
    }
    let fgsm = Fgsm::new(epsilon).map_err(FademlError::from)?;
    let mut surface = AttackSurface::new(model.clone());
    let mut hits = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let image = images.index_batch(i)?;
        let adv = fgsm
            .run(
                &mut surface,
                &image,
                AttackGoal::Untargeted { source: label },
            )
            .map_err(FademlError::from)?;
        let (predicted, _) = surface
            .predict(&adv.adversarial)
            .map_err(FademlError::from)?;
        if predicted == label {
            hits += 1;
        }
    }
    Ok(hits as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_data::{DatasetConfig, SignDataset};
    use fademl_nn::metrics::top1_accuracy;
    use fademl_nn::vgg::VggConfig;

    fn small_dataset() -> SignDataset {
        SignDataset::generate(&DatasetConfig {
            samples_per_class: 6,
            image_size: 16,
            seed: 5,
            ..DatasetConfig::default()
        })
        .unwrap()
    }

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = TensorRng::seed_from_u64(seed);
        VggConfig {
            stage_channels: vec![8, 16],
            in_channels: 3,
            input_size: 16,
            classes: 43,
        }
        .build(&mut rng)
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let ds = small_dataset();
        let mut model = tiny_model(1);
        let bad_fraction = AdversarialTrainingConfig {
            adversarial_fraction: 1.5,
            ..AdversarialTrainingConfig::default()
        };
        assert!(adversarial_fit(&mut model, ds.images(), ds.labels(), &bad_fraction).is_err());
        let bad_epochs = AdversarialTrainingConfig {
            base: TrainConfig {
                epochs: 0,
                ..TrainConfig::default()
            },
            ..AdversarialTrainingConfig::default()
        };
        assert!(adversarial_fit(&mut model, ds.images(), ds.labels(), &bad_epochs).is_err());
        assert!(adversarial_fit(&mut model, ds.images(), &[0, 1], &Default::default()).is_err());
    }

    #[test]
    fn adversarial_training_improves_robust_accuracy() {
        let ds = small_dataset();
        let epsilon = 0.03f32;
        let base = TrainConfig {
            epochs: 16,
            batch_size: 32,
            optimizer: OptimizerKind::Adam { lr: 3e-3 },
            seed: 5,
            ..TrainConfig::default()
        };

        // Plain training.
        let mut plain = tiny_model(9);
        let mut trainer = fademl_nn::Trainer::new(base.clone());
        trainer.fit(&mut plain, ds.images(), ds.labels()).unwrap();

        // Adversarial training with identical budget.
        let mut hardened = tiny_model(9);
        adversarial_fit(
            &mut hardened,
            ds.images(),
            ds.labels(),
            &AdversarialTrainingConfig {
                base,
                epsilon,
                adversarial_fraction: 0.5,
            },
        )
        .unwrap();

        let plain_robust = robust_accuracy(&plain, ds.images(), ds.labels(), epsilon).unwrap();
        let hardened_robust =
            robust_accuracy(&hardened, ds.images(), ds.labels(), epsilon).unwrap();
        assert!(
            hardened_robust > plain_robust,
            "adversarial training did not help: {plain_robust:.2} → {hardened_robust:.2}"
        );
        // And it must not destroy clean accuracy.
        let hardened_clean = top1_accuracy(&hardened, ds.images(), ds.labels()).unwrap();
        assert!(
            hardened_clean > 0.4,
            "hardened clean accuracy collapsed to {hardened_clean:.2}"
        );
    }

    #[test]
    fn robust_accuracy_bounds() {
        let ds = small_dataset();
        let model = tiny_model(2);
        let r = robust_accuracy(&model, ds.images(), ds.labels(), 0.05).unwrap();
        assert!((0.0..=1.0).contains(&r));
        assert!(robust_accuracy(&model, ds.images(), &[1, 2], 0.05).is_err());
    }
}
