//! The paper's victim model: a VGG-style CNN (Fig. 4 — five
//! convolutional stages followed by one fully-connected classifier).
//!
//! The original VGGNet channel plan (64/128/256/512/512) is available as
//! [`VggProfile::Paper`]; the experiments default to the
//! [`VggProfile::Compact`] plan, which keeps the same topology at a size
//! a pure-Rust CPU build can train in seconds (see DESIGN.md §4 for the
//! substitution rationale).

use fademl_tensor::{ConvSpec, TensorRng};
use serde::{Deserialize, Serialize};

use crate::{Conv2d, Dense, Flatten, MaxPool2d, NnError, Relu, Result, Sequential};

/// Predefined channel plans for the five convolutional stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum VggProfile {
    /// The channel plan from the paper's Fig. 4: 64/128/256/512/512.
    Paper,
    /// Same 5-stage topology at 8/16/32/48/64 channels (experiment default).
    Compact,
    /// Two stages at 4/8 channels — for fast unit tests.
    Tiny,
}

impl VggProfile {
    /// The per-stage output channel counts.
    pub fn stage_channels(self) -> Vec<usize> {
        match self {
            VggProfile::Paper => vec![64, 128, 256, 512, 512],
            VggProfile::Compact => vec![8, 16, 32, 48, 64],
            VggProfile::Tiny => vec![4, 8],
        }
    }
}

/// Configuration for building a VGG-style [`Sequential`] model.
///
/// # Example
///
/// ```
/// use fademl_nn::vgg::{VggConfig, VggProfile};
/// use fademl_tensor::TensorRng;
///
/// # fn main() -> Result<(), fademl_nn::NnError> {
/// let mut rng = TensorRng::seed_from_u64(0);
/// let config = VggConfig::new(VggProfile::Compact, 3, 32, 43);
/// let model = config.build(&mut rng)?;
/// assert!(model.param_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VggConfig {
    /// Per-stage output channel counts (one conv per stage).
    pub stage_channels: Vec<usize>,
    /// Input channel count (3 for RGB traffic signs).
    pub in_channels: usize,
    /// Input spatial size (square images).
    pub input_size: usize,
    /// Number of output classes (43 for GTSRB).
    pub classes: usize,
}

impl VggConfig {
    /// A config using one of the predefined profiles.
    pub fn new(profile: VggProfile, in_channels: usize, input_size: usize, classes: usize) -> Self {
        VggConfig {
            stage_channels: profile.stage_channels(),
            in_channels,
            input_size,
            classes,
        }
    }

    /// The test-sized two-stage network.
    pub fn tiny(in_channels: usize, input_size: usize, classes: usize) -> Self {
        VggConfig::new(VggProfile::Tiny, in_channels, input_size, classes)
    }

    /// Spatial size after all pooling stages, and whether each stage pools.
    fn plan(&self) -> Result<(usize, Vec<bool>)> {
        if self.stage_channels.is_empty() {
            return Err(NnError::InvalidConfig {
                reason: "at least one convolutional stage is required".into(),
            });
        }
        if self.input_size == 0 || self.in_channels == 0 || self.classes == 0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "input_size ({}), in_channels ({}) and classes ({}) must be positive",
                    self.input_size, self.in_channels, self.classes
                ),
            });
        }
        let mut size = self.input_size;
        let mut pools = Vec::with_capacity(self.stage_channels.len());
        for _ in &self.stage_channels {
            // Pool whenever the feature map can still be halved.
            let pool = size >= 2;
            if pool {
                size /= 2;
            }
            pools.push(pool);
        }
        Ok((size, pools))
    }

    /// Spatial size of the final feature map.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for degenerate configurations.
    pub fn final_spatial(&self) -> Result<usize> {
        Ok(self.plan()?.0)
    }

    /// Builds the model: per stage `conv3x3(pad 1) → ReLU → maxpool2`,
    /// then `flatten → dense(classes)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for degenerate configurations
    /// (no stages, zero classes, or an input too small for the stage count).
    pub fn build(&self, rng: &mut TensorRng) -> Result<Sequential> {
        let (final_size, pools) = self.plan()?;
        if final_size == 0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "input size {} collapses to zero after {} pooling stages",
                    self.input_size,
                    self.stage_channels.len()
                ),
            });
        }
        let mut model = Sequential::new();
        let mut in_ch = self.in_channels;
        for (&out_ch, &pool) in self.stage_channels.iter().zip(&pools) {
            model.push_boxed(Box::new(Conv2d::new(
                ConvSpec::new(in_ch, out_ch, 3, 1, 1),
                rng,
            )));
            model.push_boxed(Box::new(Relu::new()));
            if pool {
                model.push_boxed(Box::new(MaxPool2d::half()));
            }
            in_ch = out_ch;
        }
        model.push_boxed(Box::new(Flatten::new()));
        let features = in_ch * final_size * final_size;
        model.push_boxed(Box::new(Dense::new(features, self.classes, rng)));
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::Tensor;

    #[test]
    fn compact_profile_shapes() {
        let mut rng = TensorRng::seed_from_u64(0);
        let config = VggConfig::new(VggProfile::Compact, 3, 32, 43);
        let model = config.build(&mut rng).unwrap();
        let logits = model.forward(&Tensor::zeros(&[2, 3, 32, 32])).unwrap();
        assert_eq!(logits.dims(), &[2, 43]);
        // 5 stages × (conv, relu, pool) + flatten + dense
        assert_eq!(model.len(), 5 * 3 + 2);
    }

    #[test]
    fn paper_profile_matches_fig4() {
        let config = VggConfig::new(VggProfile::Paper, 3, 32, 43);
        assert_eq!(config.stage_channels, vec![64, 128, 256, 512, 512]);
        let mut rng = TensorRng::seed_from_u64(0);
        let model = config.build(&mut rng).unwrap();
        // Shape-check only (the Paper profile is too slow to train in tests).
        let logits = model.forward(&Tensor::zeros(&[1, 3, 32, 32])).unwrap();
        assert_eq!(logits.dims(), &[1, 43]);
        // Conv1 weight: [64, 3, 3, 3].
        assert_eq!(model.params()[0].value.dims(), &[64, 3, 3, 3]);
    }

    #[test]
    fn tiny_profile_small() {
        let mut rng = TensorRng::seed_from_u64(0);
        let model = VggConfig::tiny(3, 16, 4).build(&mut rng).unwrap();
        let logits = model.forward(&Tensor::zeros(&[1, 3, 16, 16])).unwrap();
        assert_eq!(logits.dims(), &[1, 4]);
    }

    #[test]
    fn final_spatial_math() {
        assert_eq!(
            VggConfig::new(VggProfile::Compact, 3, 32, 43)
                .final_spatial()
                .unwrap(),
            1
        );
        assert_eq!(VggConfig::tiny(3, 16, 4).final_spatial().unwrap(), 4);
    }

    #[test]
    fn degenerate_configs_rejected() {
        let mut rng = TensorRng::seed_from_u64(0);
        let empty = VggConfig {
            stage_channels: vec![],
            ..VggConfig::tiny(3, 32, 10)
        };
        assert!(empty.build(&mut rng).is_err());
        let zero_classes = VggConfig {
            classes: 0,
            ..VggConfig::tiny(3, 16, 4)
        };
        assert!(zero_classes.build(&mut rng).is_err());
        let zero_input = VggConfig {
            input_size: 0,
            ..VggConfig::tiny(3, 16, 4)
        };
        assert!(zero_input.build(&mut rng).is_err());
    }

    #[test]
    fn odd_input_size_still_builds() {
        // 30 → 15 → 7 → 3 → 1 → (no pool on last stage).
        let mut rng = TensorRng::seed_from_u64(0);
        let config = VggConfig::new(VggProfile::Compact, 3, 30, 10);
        let model = config.build(&mut rng).unwrap();
        let logits = model.forward(&Tensor::zeros(&[1, 3, 30, 30])).unwrap();
        assert_eq!(logits.dims(), &[1, 10]);
    }

    #[test]
    fn deterministic_build_from_seed() {
        let config = VggConfig::tiny(3, 16, 4);
        let mut r1 = TensorRng::seed_from_u64(7);
        let mut r2 = TensorRng::seed_from_u64(7);
        let m1 = config.build(&mut r1).unwrap();
        let m2 = config.build(&mut r2).unwrap();
        let x = Tensor::ones(&[1, 3, 16, 16]);
        assert_eq!(m1.forward(&x).unwrap(), m2.forward(&x).unwrap());
    }
}
