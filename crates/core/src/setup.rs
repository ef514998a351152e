//! Victim preparation: dataset generation, VGG training and weight
//! caching, shared by every experiment binary, example and test.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use fademl_data::{DatasetConfig, NoiseModel, SignDataset, CLASS_COUNT};
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{serialize, OptimizerKind, Sequential, TrainConfig, Trainer};
use fademl_tensor::TensorRng;

use crate::Result;

/// Canned experiment sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SetupProfile {
    /// Tiny model, 16×16 images, few samples — seconds, for tests and
    /// doc examples. Not accurate enough for paper-shaped results.
    Smoke,
    /// Compact VGG, 24×24 images, enough data to reach high clean
    /// accuracy — the default for the figure-regeneration binaries.
    Standard,
    /// Compact VGG on 32×32 with more data per class; slower, closer to
    /// paper scale.
    Full,
}

/// Everything an experiment needs to specify its victim.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSetup {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Victim architecture.
    pub vgg: VggConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Held-out test fraction.
    pub test_fraction: f32,
    /// Master seed for weight init.
    pub seed: u64,
    /// If `true`, trained weights are cached on disk keyed by the whole
    /// setup, so repeated experiment runs skip training.
    pub cache_weights: bool,
}

/// A prepared victim: trained model plus its train/test data.
#[derive(Debug, Clone)]
pub struct PreparedSetup {
    /// The trained victim model.
    pub model: Sequential,
    /// Training split.
    pub train: SignDataset,
    /// Held-out test split.
    pub test: SignDataset,
    /// Top-1 training accuracy reached.
    pub train_accuracy: f32,
    /// Whether the weights came from the on-disk cache.
    pub from_cache: bool,
}

impl ExperimentSetup {
    /// A canned profile.
    pub fn profile(profile: SetupProfile) -> Self {
        match profile {
            SetupProfile::Smoke => ExperimentSetup {
                dataset: DatasetConfig {
                    samples_per_class: 60,
                    image_size: 20,
                    seed: 7,
                    noise: NoiseModel::sensor(),
                    blur_prob: 0.5,
                },
                vgg: VggConfig {
                    stage_channels: vec![8, 16],
                    in_channels: 3,
                    input_size: 20,
                    classes: CLASS_COUNT,
                },
                train: TrainConfig {
                    epochs: 12,
                    batch_size: 32,
                    optimizer: OptimizerKind::Adam { lr: 3e-3 },
                    seed: 7,
                    lr_decay: 1.0,
                    verbose: false,
                    patience: None,
                    divergence: None,
                    compute_threads: 0,
                },
                test_fraction: 0.25,
                seed: 7,
                cache_weights: true,
            },
            SetupProfile::Standard => ExperimentSetup {
                dataset: DatasetConfig {
                    samples_per_class: 40,
                    image_size: 24,
                    seed: 7,
                    noise: NoiseModel::sensor(),
                    blur_prob: 0.5,
                },
                vgg: VggConfig::new(VggProfile::Compact, 3, 24, CLASS_COUNT),
                train: TrainConfig {
                    epochs: 25,
                    batch_size: 32,
                    optimizer: OptimizerKind::Adam { lr: 3e-3 },
                    seed: 7,
                    lr_decay: 0.9,
                    verbose: true,
                    patience: None,
                    divergence: None,
                    compute_threads: 0,
                },
                test_fraction: 0.25,
                seed: 7,
                cache_weights: true,
            },
            SetupProfile::Full => ExperimentSetup {
                dataset: DatasetConfig {
                    samples_per_class: 80,
                    image_size: 32,
                    seed: 7,
                    noise: NoiseModel::sensor(),
                    blur_prob: 0.5,
                },
                vgg: VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT),
                train: TrainConfig {
                    epochs: 30,
                    batch_size: 32,
                    optimizer: OptimizerKind::Adam { lr: 3e-3 },
                    seed: 7,
                    lr_decay: 0.9,
                    verbose: true,
                    patience: None,
                    divergence: None,
                    compute_threads: 0,
                },
                test_fraction: 0.25,
                seed: 7,
                cache_weights: true,
            },
        }
    }

    /// Stable cache key over every training-relevant field.
    fn cache_key(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.dataset.samples_per_class.hash(&mut hasher);
        self.dataset.image_size.hash(&mut hasher);
        self.dataset.seed.hash(&mut hasher);
        self.dataset.noise.gaussian_std.to_bits().hash(&mut hasher);
        self.dataset
            .noise
            .salt_pepper_prob
            .to_bits()
            .hash(&mut hasher);
        self.dataset.blur_prob.to_bits().hash(&mut hasher);
        // No `..`: a new `VggConfig` field does not compile until it is hashed.
        let VggConfig {
            stage_channels,
            in_channels,
            input_size,
            classes,
        } = &self.vgg;
        stage_channels.hash(&mut hasher);
        in_channels.hash(&mut hasher);
        input_size.hash(&mut hasher);
        classes.hash(&mut hasher);
        self.train.epochs.hash(&mut hasher);
        self.train.batch_size.hash(&mut hasher);
        self.train.seed.hash(&mut hasher);
        match self.train.optimizer {
            OptimizerKind::Adam { lr } => {
                0u8.hash(&mut hasher);
                lr.to_bits().hash(&mut hasher);
            }
            OptimizerKind::SgdMomentum { lr } => {
                1u8.hash(&mut hasher);
                lr.to_bits().hash(&mut hasher);
            }
            _ => 2u8.hash(&mut hasher),
        }
        self.train.lr_decay.to_bits().hash(&mut hasher);
        self.test_fraction.to_bits().hash(&mut hasher);
        self.seed.hash(&mut hasher);
        // Split-strategy marker: bumping this invalidates caches written
        // under a different train/test partition scheme.
        "stratified-v1".hash(&mut hasher);
        hasher.finish()
    }

    fn cache_path(&self) -> PathBuf {
        std::env::temp_dir().join(format!("fademl-victim-{:016x}.weights", self.cache_key()))
    }

    /// Generates the dataset, builds the model, and trains it (or loads
    /// cached weights when enabled and available).
    ///
    /// # Errors
    ///
    /// Propagates dataset, model and training errors; cache-read
    /// failures fall back to training rather than erroring.
    pub fn prepare(&self) -> Result<PreparedSetup> {
        let dataset = SignDataset::generate(&self.dataset)?;
        // Stratified: every class keeps samples on both sides of the
        // split, so scenario source images always exist in the test set.
        let split = dataset.split_stratified(self.test_fraction)?;
        let mut rng = TensorRng::seed_from_u64(self.seed);
        let mut model = self.vgg.build(&mut rng)?;

        if self.cache_weights {
            let path = self.cache_path();
            if path.exists() && serialize::load_weights_from_path(&mut model, &path).is_ok() {
                let train_accuracy = fademl_nn::metrics::top1_accuracy(
                    &model,
                    split.train.images(),
                    split.train.labels(),
                )?;
                return Ok(PreparedSetup {
                    model,
                    train: split.train,
                    test: split.test,
                    train_accuracy,
                    from_cache: true,
                });
            }
        }

        let mut trainer = Trainer::new(self.train.clone());
        let history = trainer.fit(&mut model, split.train.images(), split.train.labels())?;
        if self.cache_weights {
            // save_weights_to_path stages and renames internally, so
            // concurrent readers never see a half-written file.
            // best-effort: a failed cache write only costs future time.
            let _ = serialize::save_weights_to_path(&model, self.cache_path());
        }
        Ok(PreparedSetup {
            model,
            train: split.train,
            test: split.test,
            train_accuracy: history.final_accuracy(),
            from_cache: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_trains_to_useful_accuracy() {
        let prepared = ExperimentSetup::profile(SetupProfile::Smoke)
            .prepare()
            .unwrap();
        assert!(
            prepared.train_accuracy > 0.5,
            "smoke victim only reached {:.1}% train accuracy",
            prepared.train_accuracy * 100.0
        );
        assert!(!prepared.train.is_empty());
        assert!(!prepared.test.is_empty());
        // from_cache may be either value depending on whether another
        // test binary already populated the shared weight cache.
    }

    #[test]
    fn cache_round_trip() {
        let mut setup = ExperimentSetup::profile(SetupProfile::Smoke);
        setup.cache_weights = true;
        setup.train.epochs = 1;
        setup.dataset.samples_per_class = 2;
        setup.seed = 424_242; // unique cache slot for this test
        let path = setup.cache_path();
        let _ = std::fs::remove_file(&path);

        let first = setup.prepare().unwrap();
        assert!(!first.from_cache);
        assert!(path.exists());
        let second = setup.prepare().unwrap();
        assert!(second.from_cache);
        // Identical weights → identical predictions.
        let x = first
            .test
            .images()
            .index_batch(0)
            .unwrap()
            .unsqueeze_batch();
        assert_eq!(
            first.model.forward(&x).unwrap(),
            second.model.forward(&x).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let a = ExperimentSetup::profile(SetupProfile::Smoke);
        let mut b = a.clone();
        b.train.epochs += 1;
        assert_ne!(a.cache_key(), b.cache_key());
        let mut c = a.clone();
        c.dataset.seed += 1;
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(a.cache_key(), a.clone().cache_key());
    }

    #[test]
    fn profiles_are_well_formed() {
        for profile in [
            SetupProfile::Smoke,
            SetupProfile::Standard,
            SetupProfile::Full,
        ] {
            let setup = ExperimentSetup::profile(profile);
            assert_eq!(setup.vgg.classes, CLASS_COUNT);
            assert_eq!(setup.vgg.input_size, setup.dataset.image_size);
        }
    }
}
