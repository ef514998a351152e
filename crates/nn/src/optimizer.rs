use fademl_tensor::Tensor;

use crate::{NnError, Param, Result};

/// A complete, serializable snapshot of an optimizer's mutable state
/// (momentum buffers / Adam moments plus the hyper-parameters needed to
/// continue the run), captured by checkpoints and restored on resume so
/// a resumed run steps *identically* to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptimizerState {
    /// [`Sgd`] state.
    Sgd {
        /// Learning rate at capture time (includes any decay applied).
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
        /// Per-parameter velocity buffers (empty before the first
        /// momentum step).
        velocity: Vec<Tensor>,
    },
    /// [`Adam`] state.
    Adam {
        /// Learning rate at capture time.
        lr: f32,
        /// β₁.
        beta1: f32,
        /// β₂.
        beta2: f32,
        /// ε.
        eps: f32,
        /// Step counter (drives bias correction).
        t: u32,
        /// First-moment estimates, one per parameter.
        m: Vec<Tensor>,
        /// Second-moment estimates, one per parameter.
        v: Vec<Tensor>,
    },
}

impl OptimizerState {
    /// Short kind label for error messages and checkpoint headers.
    pub fn kind(&self) -> &'static str {
        match self {
            OptimizerState::Sgd { .. } => "SGD",
            OptimizerState::Adam { .. } => "Adam",
        }
    }
}

/// A first-order optimizer stepping a list of parameters given their
/// accumulated gradients.
///
/// Implementations may keep per-parameter state (momentum buffers,
/// moment estimates) keyed by the *position* of the parameter in the
/// list, so callers must always pass the same parameter order — which
/// [`Sequential::params_mut`](crate::Sequential::params_mut) guarantees.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step. Does **not** zero gradients; call
    /// [`Sequential::zero_grad`](crate::Sequential::zero_grad) before the
    /// next backward pass.
    ///
    /// # Errors
    ///
    /// Returns an error if parameter/state shapes disagree (only possible
    /// if the parameter list changed between steps).
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Captures the optimizer's full mutable state for checkpointing.
    fn export_state(&self) -> OptimizerState;

    /// Restores state captured by [`Optimizer::export_state`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ArchMismatch`] when `state` belongs to a
    /// different optimizer kind.
    fn import_state(&mut self, state: OptimizerState) -> Result<()>;
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            momentum,
            ..Sgd::new(lr)
        }
    }

    /// Adds L2 weight decay (builder style).
    #[must_use]
    pub fn weight_decay(mut self, decay: f32) -> Self {
        self.weight_decay = decay;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()> {
        if self.momentum == 0.0 {
            for p in params.iter_mut() {
                if self.weight_decay > 0.0 {
                    let decay = p.value.scale(self.weight_decay);
                    p.grad.add_scaled_inplace(&decay, 1.0)?;
                }
                let grad = p.grad.clone();
                p.value.add_scaled_inplace(&grad, -self.lr)?;
            }
            return Ok(());
        }
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros_like(&p.value))
                .collect();
        }
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            if self.weight_decay > 0.0 {
                let decay = p.value.scale(self.weight_decay);
                p.grad.add_scaled_inplace(&decay, 1.0)?;
            }
            // v ← μ·v + g ; θ ← θ − lr·v
            let mut new_v = v.scale(self.momentum);
            new_v.add_scaled_inplace(&p.grad, 1.0)?;
            p.value.add_scaled_inplace(&new_v, -self.lr)?;
            *v = new_v;
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState::Sgd {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            velocity: self.velocity.clone(),
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<()> {
        match state {
            OptimizerState::Sgd {
                lr,
                momentum,
                weight_decay,
                velocity,
            } => {
                self.lr = lr;
                self.momentum = momentum;
                self.weight_decay = weight_decay;
                self.velocity = velocity;
                Ok(())
            }
            other => Err(NnError::ArchMismatch {
                reason: format!(
                    "cannot restore {} state into an SGD optimizer",
                    other.kind()
                ),
            }),
        }
    }
}

/// Adam (Kingma & Ba) with bias-corrected moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()> {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros_like(&p.value))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros_like(&p.value))
                .collect();
            self.t = 0;
        }
        self.t += 1;
        // Past `i32::MAX` steps both powers are 0 in f32 anyway.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let (value, g) = (p.value.as_mut_slice(), p.grad.as_slice());
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            for ((w, &gi), (mi, vi)) in value.iter_mut().zip(g).zip(moments) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState::Adam {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<()> {
        match state {
            OptimizerState::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                self.lr = lr;
                self.beta1 = beta1;
                self.beta2 = beta2;
                self.eps = eps;
                self.t = t;
                self.m = m;
                self.v = v;
                Ok(())
            }
            other => Err(NnError::ArchMismatch {
                reason: format!(
                    "cannot restore {} state into an Adam optimizer",
                    other.kind()
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quadratic-bowl step: loss = ½‖θ‖², grad = θ.
    fn quad_step(opt: &mut dyn Optimizer, p: &mut Param) {
        p.grad = p.value.clone();
        opt.step(&mut [p]).unwrap();
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut opt = Sgd::new(0.1);
        let mut p = Param::new(Tensor::full(&[4], 1.0));
        for _ in 0..80 {
            quad_step(&mut opt, &mut p);
        }
        assert!(p.value.norm_l2() < 1e-2, "norm {}", p.value.norm_l2());
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::new(0.05);
        let mut momentum = Sgd::with_momentum(0.05, 0.9);
        let mut p1 = Param::new(Tensor::full(&[4], 1.0));
        let mut p2 = Param::new(Tensor::full(&[4], 1.0));
        for _ in 0..10 {
            quad_step(&mut plain, &mut p1);
            quad_step(&mut momentum, &mut p2);
        }
        assert!(p2.value.norm_l2() < p1.value.norm_l2());
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        let mut p = Param::new(Tensor::full(&[2], 1.0));
        // Zero task gradient: decay alone should shrink the weight.
        p.grad = Tensor::zeros(&[2]);
        opt.step(&mut [&mut p]).unwrap();
        assert!(p.value.as_slice()[0] < 1.0);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut opt = Adam::new(0.1);
        let mut p = Param::new(Tensor::full(&[4], 1.0));
        for _ in 0..200 {
            quad_step(&mut opt, &mut p);
        }
        assert!(p.value.norm_l2() < 5e-2, "norm {}", p.value.norm_l2());
    }

    #[test]
    fn adam_handles_sparse_gradients() {
        let mut opt = Adam::new(0.01);
        let mut p = Param::new(Tensor::full(&[2], 1.0));
        p.grad = Tensor::from_vec(vec![1.0, 0.0], [2].into()).unwrap();
        opt.step(&mut [&mut p]).unwrap();
        // Only the first coordinate moves.
        assert!(p.value.as_slice()[0] < 1.0);
        assert_eq!(p.value.as_slice()[1], 1.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.3);
        assert_eq!(opt.learning_rate(), 0.3);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        let mut adam = Adam::new(0.2);
        adam.set_learning_rate(0.05);
        assert_eq!(adam.learning_rate(), 0.05);
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        // Two optimizers on identical parameters: run A for 5 steps,
        // snapshot, pour the state into B, then both must produce
        // byte-identical trajectories.
        for make in [
            || Box::new(Sgd::with_momentum(0.05, 0.9)) as Box<dyn Optimizer>,
            || Box::new(Adam::new(0.05)) as Box<dyn Optimizer>,
        ] {
            let mut a = make();
            let mut pa = Param::new(Tensor::full(&[4], 1.0));
            for _ in 0..5 {
                quad_step(a.as_mut(), &mut pa);
            }
            let mut b = make();
            let mut pb = Param::new(pa.value.clone());
            b.import_state(a.export_state()).unwrap();
            for _ in 0..5 {
                quad_step(a.as_mut(), &mut pa);
                quad_step(b.as_mut(), &mut pb);
            }
            assert_eq!(pa.value, pb.value);
        }
    }

    #[test]
    fn import_rejects_wrong_kind() {
        let sgd = Sgd::new(0.1);
        let mut adam = Adam::new(0.1);
        assert!(matches!(
            adam.import_state(sgd.export_state()),
            Err(NnError::ArchMismatch { .. })
        ));
        let mut sgd = Sgd::new(0.1);
        assert!(sgd.import_state(Adam::new(0.2).export_state()).is_err());
        assert_eq!(sgd.export_state().kind(), "SGD");
    }

    #[test]
    fn step_does_not_zero_grads() {
        let mut opt = Sgd::new(0.1);
        let mut p = Param::new(Tensor::full(&[2], 1.0));
        p.grad = Tensor::ones(&[2]);
        opt.step(&mut [&mut p]).unwrap();
        assert_eq!(p.grad, Tensor::ones(&[2]));
    }
}
