use fademl_filters::Filter;
use fademl_nn::{CrossEntropyLoss, Loss, Sequential};
use fademl_tensor::Tensor;

use crate::attack::AttackGoal;
use crate::{AttackError, Result};

/// The differentiable composition the attacker optimizes against.
///
/// Under the paper's Threat Model I the surface is the bare DNN
/// ([`AttackSurface::new`]); the FAdeML attack instead optimizes against
/// `filter ∘ DNN` ([`AttackSurface::with_filter`]), chaining the
/// filter's vector-Jacobian product into the input gradient.
///
/// The surface counts every gradient/forward query so experiments can
/// report attacker cost.
#[derive(Debug, Clone)]
pub struct AttackSurface {
    model: Sequential,
    filter: Option<Box<dyn Filter>>,
    loss: CrossEntropyLoss,
    queries: u64,
}

impl AttackSurface {
    /// A surface over the bare model (Threat Model I view).
    pub fn new(model: Sequential) -> Self {
        AttackSurface {
            model,
            filter: None,
            loss: CrossEntropyLoss::new(),
            queries: 0,
        }
    }

    /// A filter-aware surface: the attacker models `filter ∘ DNN`.
    pub fn with_filter(model: Sequential, filter: Box<dyn Filter>) -> Self {
        AttackSurface {
            model,
            filter: Some(filter),
            loss: CrossEntropyLoss::new(),
            queries: 0,
        }
    }

    /// The pre-processing filter the surface models, if any.
    pub fn filter(&self) -> Option<&dyn Filter> {
        self.filter.as_deref()
    }

    /// The victim model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Number of forward/gradient queries issued so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Resets the query counter.
    pub fn reset_queries(&mut self) {
        self.queries = 0;
    }

    fn check_image(x: &Tensor) -> Result<()> {
        if x.rank() != 3 {
            return Err(AttackError::InvalidInput {
                reason: format!("expected a [C, H, W] image, got shape {:?}", x.dims()),
            });
        }
        Ok(())
    }

    /// The batch of one the model reads for `x`: what the filter makes
    /// of it, or `x` itself on a bare surface.
    fn model_input(&self, x: &Tensor) -> Result<Tensor> {
        Ok(match &self.filter {
            Some(f) => f.apply(x)?.unsqueeze_batch(),
            None => x.unsqueeze_batch(),
        })
    }

    /// Class logits for a single `[C, H, W]` image, through the filter
    /// if the surface has one.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidInput`] for non-rank-3 input plus
    /// any filter/model error.
    pub fn logits(&mut self, x: &Tensor) -> Result<Tensor> {
        Self::check_image(x)?;
        self.queries += 1;
        let logits = self.model.forward(&self.model_input(x)?)?;
        Ok(logits.row(0)?)
    }

    /// Softmax probabilities for a single image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AttackSurface::logits`].
    pub fn probabilities(&mut self, x: &Tensor) -> Result<Tensor> {
        let logits = self.logits(x)?;
        Ok(logits
            .reshape(&[1, logits.numel()])?
            .softmax_rows()?
            .row(0)?)
    }

    /// Predicted `(class, confidence)` for a single image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AttackSurface::logits`].
    pub fn predict(&mut self, x: &Tensor) -> Result<(usize, f32)> {
        let probs = self.probabilities(x)?;
        let class = probs.argmax()?;
        Ok((class, probs.as_slice()[class]))
    }

    /// Forward pass for a single image that *caches* activations so a
    /// following [`AttackSurface::backward_to_input`] can run. Returns
    /// the `[classes]` logits (through the filter when present).
    ///
    /// Building block for custom attack objectives (the built-in
    /// cross-entropy path is [`AttackSurface::loss_and_input_grad`]).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidInput`] for non-rank-3 input plus
    /// any filter/model error.
    pub fn forward_train_logits(&mut self, x: &Tensor) -> Result<Tensor> {
        Self::check_image(x)?;
        self.queries += 1;
        let logits = self.model.forward_train(&self.model_input(x)?)?;
        Ok(logits.row(0)?)
    }

    /// Backward pass from a `[classes]` logit gradient down to the raw
    /// input, chaining through the filter when present. Must follow a
    /// [`AttackSurface::forward_train_logits`] call on the same `x`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad_logits` does not match the class
    /// count, or a cache error if no training forward preceded the call.
    pub fn backward_to_input(&mut self, x: &Tensor, grad_logits: &Tensor) -> Result<Tensor> {
        let grad_batch = grad_logits.reshape(&[1, grad_logits.numel()])?;
        let grad_filtered = self.model.backward_input(&grad_batch)?.index_batch(0)?;
        Ok(match &self.filter {
            Some(f) => f.backward(x, &grad_filtered)?,
            None => grad_filtered,
        })
    }

    /// The scalar attack objective and its gradient w.r.t. the *raw*
    /// input `x` (i.e. chained through the filter when present).
    ///
    /// The objective is framed so the attack always *descends*:
    ///
    /// - [`AttackGoal::Targeted`]: cross-entropy towards the target class.
    /// - [`AttackGoal::Untargeted`]: negative cross-entropy on the source
    ///   class (descending pushes the prediction away from it).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidInput`] for non-rank-3 input or an
    /// out-of-range class, plus any filter/model error.
    pub fn loss_and_input_grad(&mut self, x: &Tensor, goal: AttackGoal) -> Result<(f32, Tensor)> {
        Self::check_image(x)?;
        self.queries += 1;
        let batch = self.model_input(x)?;
        let logits = self.model.forward_train(&batch)?;
        let classes = logits.dims()[1];
        let (label, sign) = match goal {
            AttackGoal::Targeted { class } => (class, 1.0f32),
            AttackGoal::Untargeted { source } => (source, -1.0f32),
        };
        if label >= classes {
            return Err(AttackError::InvalidInput {
                reason: format!("class {label} out of range for {classes} classes"),
            });
        }
        let lv = self.loss.compute(&logits, &[label])?;
        let grad_batch = self.model.backward_input(&lv.grad.scale(sign))?;
        let grad_filtered = grad_batch.index_batch(0)?;
        let grad_input = match &self.filter {
            Some(f) => f.backward(x, &grad_filtered)?,
            None => grad_filtered,
        };
        Ok((sign * lv.loss, grad_input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_filters::Lap;
    use fademl_nn::vgg::VggConfig;
    use fademl_tensor::TensorRng;

    fn setup() -> (AttackSurface, Tensor) {
        let mut rng = TensorRng::seed_from_u64(1);
        let model = VggConfig::tiny(3, 16, 4).build(&mut rng).unwrap();
        let x = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        (AttackSurface::new(model), x)
    }

    #[test]
    fn logits_and_probabilities() {
        let (mut surface, x) = setup();
        let logits = surface.logits(&x).unwrap();
        assert_eq!(logits.dims(), &[4]);
        let probs = surface.probabilities(&x).unwrap();
        let sum: f32 = probs.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        let (class, conf) = surface.predict(&x).unwrap();
        assert!(class < 4);
        assert!(conf > 0.0 && conf <= 1.0);
    }

    #[test]
    fn rejects_batched_input() {
        let (mut surface, _) = setup();
        assert!(matches!(
            surface.logits(&Tensor::zeros(&[1, 3, 16, 16])),
            Err(AttackError::InvalidInput { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_class() {
        let (mut surface, x) = setup();
        assert!(surface
            .loss_and_input_grad(&x, AttackGoal::Targeted { class: 99 })
            .is_err());
    }

    #[test]
    fn targeted_gradient_matches_finite_difference() {
        let (mut surface, x) = setup();
        let goal = AttackGoal::Targeted { class: 1 };
        let (_, grad) = surface.loss_and_input_grad(&x, goal).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 100, 400, 700] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let (lp, _) = surface.loss_and_input_grad(&plus, goal).unwrap();
            let (lm, _) = surface.loss_and_input_grad(&minus, goal).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn filtered_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seed_from_u64(2);
        let model = VggConfig::tiny(3, 16, 4).build(&mut rng).unwrap();
        let mut surface = AttackSurface::with_filter(model, Box::new(Lap::new(8).unwrap()));
        let x = rng.uniform(&[3, 16, 16], 0.2, 0.8);
        let goal = AttackGoal::Targeted { class: 2 };
        let (_, grad) = surface.loss_and_input_grad(&x, goal).unwrap();
        let eps = 1e-2f32;
        for idx in [50usize, 300, 600] {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let (lp, _) = surface.loss_and_input_grad(&plus, goal).unwrap();
            let (lm, _) = surface.loss_and_input_grad(&minus, goal).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn untargeted_objective_is_negated() {
        let (mut surface, x) = setup();
        let (class, _) = surface.predict(&x).unwrap();
        let (targeted_loss, tg) = surface
            .loss_and_input_grad(&x, AttackGoal::Targeted { class })
            .unwrap();
        let (untargeted_loss, ug) = surface
            .loss_and_input_grad(&x, AttackGoal::Untargeted { source: class })
            .unwrap();
        assert!((targeted_loss + untargeted_loss).abs() < 1e-5);
        for (a, b) in tg.as_slice().iter().zip(ug.as_slice()) {
            assert!((a + b).abs() < 1e-5);
        }
    }

    #[test]
    fn query_counter_increments() {
        let (mut surface, x) = setup();
        assert_eq!(surface.queries(), 0);
        surface.logits(&x).unwrap();
        surface
            .loss_and_input_grad(&x, AttackGoal::Targeted { class: 0 })
            .unwrap();
        assert_eq!(surface.queries(), 2);
        surface.reset_queries();
        assert_eq!(surface.queries(), 0);
    }

    #[test]
    fn filter_accessor() {
        let (surface, _) = setup();
        assert!(surface.filter().is_none());
        let mut rng = TensorRng::seed_from_u64(3);
        let model = VggConfig::tiny(3, 16, 4).build(&mut rng).unwrap();
        let filtered = AttackSurface::with_filter(model, Box::new(Lap::new(4).unwrap()));
        assert_eq!(filtered.filter().unwrap().name(), "LAP(4)");
    }
}
