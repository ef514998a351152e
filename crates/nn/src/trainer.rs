use fademl_tensor::{Tensor, TensorRng};

use crate::checkpoint::{CheckpointConfig, CheckpointStore, TrainState};
use crate::metrics::top1_accuracy;
use crate::{Adam, CrossEntropyLoss, NnError, Optimizer, Result, Sequential, Sgd};

/// Which optimizer the [`Trainer`] should construct.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum OptimizerKind {
    /// SGD with momentum 0.9.
    SgdMomentum {
        /// Learning rate.
        lr: f32,
    },
    /// Adam with default betas.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
    /// Seed for shuffling.
    pub seed: u64,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// If `true`, prints one progress line per epoch to stderr.
    pub verbose: bool,
    /// Early stopping: stop when training accuracy has not improved for
    /// this many consecutive epochs (`None` disables it).
    pub patience: Option<usize>,
    /// Divergence guard for [`Trainer::fit_durable`]: roll back to the
    /// last intact checkpoint with a reduced learning rate instead of
    /// aborting when the loss goes non-finite or spikes (`None`
    /// disables it; ignored by plain [`Trainer::fit`]).
    pub divergence: Option<DivergenceGuard>,
    /// Compute threads for the parallel tensor kernels during this fit.
    /// `0` (the default) leaves the process-wide setting untouched
    /// (`FADEML_THREADS` or auto-detection); a positive value installs
    /// a [`fademl_tensor::par::set_threads`] override at fit entry.
    /// Kernel results are bit-exact for every thread count, so this
    /// knob never changes trained weights.
    pub compute_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            seed: 0,
            lr_decay: 1.0,
            verbose: false,
            patience: None,
            divergence: None,
            compute_threads: 0,
        }
    }
}

/// Policy for detecting and surviving training divergence in
/// [`Trainer::fit_durable`].
///
/// An epoch counts as diverged when its mean loss is non-finite or
/// exceeds `spike_factor` × the previous epoch's loss. On divergence
/// the trainer restores the last intact checkpoint (or the run-start
/// state when none exists yet), multiplies the learning rate by
/// `lr_backoff` — compounding across consecutive rollbacks — and
/// retries. After `max_rollbacks` rollbacks the run fails with
/// [`NnError::Diverged`].
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceGuard {
    /// Loss-spike threshold relative to the previous epoch (> 1.0).
    pub spike_factor: f32,
    /// Absolute loss ceiling: any epoch loss above this counts as
    /// divergence even with no previous epoch to compare against
    /// (`f32::INFINITY` disables the ceiling).
    pub max_loss: f32,
    /// Learning-rate multiplier applied on each rollback (in (0, 1)).
    pub lr_backoff: f32,
    /// Rollback budget before giving up.
    pub max_rollbacks: usize,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        DivergenceGuard {
            spike_factor: 4.0,
            max_loss: f32::INFINITY,
            lr_backoff: 0.5,
            max_rollbacks: 3,
        }
    }
}

/// Observer verdict after each completed epoch of
/// [`Trainer::fit_durable_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainSignal {
    /// Keep training.
    Continue,
    /// Stop *now*, without writing any further checkpoint — simulates a
    /// crash at this boundary. The returned [`FitReport`] has
    /// `completed == false`.
    Halt,
}

/// Outcome of a durable training run.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Per-epoch statistics, including epochs replayed from a resumed
    /// checkpoint's history.
    pub history: TrainHistory,
    /// The checkpoint generation this run resumed from, if any.
    pub resumed_from_epoch: Option<u64>,
    /// `true` when training ran to its configured end (or stopped
    /// early via patience); `false` when the observer halted it.
    pub completed: bool,
    /// Number of divergence rollbacks performed.
    pub rollbacks: usize,
    /// Number of checkpoint generations written by this run.
    pub checkpoints_written: usize,
}

/// Statistics for one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy over all minibatches.
    pub loss: f32,
    /// Top-1 accuracy on the training set after the epoch.
    pub train_accuracy: f32,
}

/// Per-epoch training history returned by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainHistory {
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// The final epoch's training accuracy (0.0 before any training).
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.train_accuracy)
    }
}

/// Minibatch training loop: shuffles, batches, runs
/// forward/backward/step, and records per-epoch statistics.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    loss: CrossEntropyLoss,
}

impl Trainer {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            loss: CrossEntropyLoss::new(),
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `images` (`[n, c, h, w]`) with integer `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero epochs/batch size,
    /// [`NnError::ArchMismatch`] when labels and batch disagree, and
    /// propagates any forward/backward error.
    pub fn fit(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
    ) -> Result<TrainHistory> {
        if self.config.epochs == 0 || self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                reason: "epochs and batch_size must be positive".into(),
            });
        }
        if self.config.compute_threads > 0 {
            fademl_tensor::par::set_threads(self.config.compute_threads);
        }
        let n = images.dims().first().copied().unwrap_or(0);
        if n != labels.len() || n == 0 {
            return Err(NnError::ArchMismatch {
                reason: format!("{} labels for {} images", labels.len(), n),
            });
        }

        let mut optimizer: Box<dyn Optimizer> = match self.config.optimizer {
            OptimizerKind::SgdMomentum { lr } => Box::new(Sgd::with_momentum(lr, 0.9)),
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
        };
        let mut rng = TensorRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = TrainHistory::default();
        let mut best_accuracy = 0.0f32;
        let mut stale_epochs = 0usize;

        for epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let stats = self.run_pass(model, images, labels, optimizer.as_mut(), &order)?;
            let train_accuracy = stats.train_accuracy;
            if self.config.verbose {
                eprintln!(
                    "epoch {:>3}: loss {:.4}  train acc {:.1}%",
                    epoch + 1,
                    stats.loss,
                    stats.train_accuracy * 100.0
                );
            }
            history.epochs.push(stats);
            if let Some(patience) = self.config.patience {
                if train_accuracy > best_accuracy + 1e-6 {
                    best_accuracy = train_accuracy;
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    if stale_epochs >= patience {
                        if self.config.verbose {
                            eprintln!(
                                "early stop after {} epochs ({} without improvement)",
                                epoch + 1,
                                stale_epochs
                            );
                        }
                        break;
                    }
                }
            }
            let lr = optimizer.learning_rate() * self.config.lr_decay;
            optimizer.set_learning_rate(lr);
        }
        Ok(history)
    }

    /// [`Trainer::fit_durable_with`] without an observer: trains to the
    /// configured epoch count, checkpointing periodically and resuming
    /// automatically from the newest intact generation in `ckpt.dir`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Trainer::fit_durable_with`].
    pub fn fit_durable(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        ckpt: &CheckpointConfig,
    ) -> Result<FitReport> {
        self.fit_durable_with(model, images, labels, ckpt, |_, _| TrainSignal::Continue)
    }

    /// Durable training loop: periodic checkpoints, crash resume, and
    /// divergence rollback.
    ///
    /// On entry the newest intact checkpoint generation in `ckpt.dir`
    /// (if any) is restored — model weights, optimizer state, learning
    /// rate, RNG stream position and history — and training continues
    /// from that epoch. Because the full random state round-trips, a
    /// run interrupted at a checkpoint boundary and resumed produces
    /// **byte-identical final weights** to an uninterrupted run with
    /// the same seed.
    ///
    /// `observe` runs after every completed epoch (after any checkpoint
    /// for that epoch was written); returning [`TrainSignal::Halt`]
    /// stops immediately *without* writing anything further, which is
    /// how the tests and the demo simulate a crash.
    ///
    /// When [`TrainConfig::divergence`] is set, a non-finite or spiking
    /// epoch loss triggers a rollback to the last intact checkpoint (or
    /// the run-start state) with a compounding learning-rate backoff
    /// instead of poisoning the run; the rollback budget is bounded by
    /// [`DivergenceGuard::max_rollbacks`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero epochs, batch size
    /// or checkpoint period, [`NnError::ArchMismatch`] when a resumed
    /// checkpoint does not fit `model`, [`NnError::Diverged`] when the
    /// rollback budget is exhausted, and propagates checkpoint IO
    /// failures as [`NnError::Io`].
    pub fn fit_durable_with<F>(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        ckpt: &CheckpointConfig,
        mut observe: F,
    ) -> Result<FitReport>
    where
        F: FnMut(usize, &EpochStats) -> TrainSignal,
    {
        if self.config.epochs == 0 || self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                reason: "epochs and batch_size must be positive".into(),
            });
        }
        if ckpt.every_epochs == 0 {
            return Err(NnError::InvalidConfig {
                reason: "checkpoint period must be positive".into(),
            });
        }
        if self.config.compute_threads > 0 {
            fademl_tensor::par::set_threads(self.config.compute_threads);
        }
        let n = images.dims().first().copied().unwrap_or(0);
        if n != labels.len() || n == 0 {
            return Err(NnError::ArchMismatch {
                reason: format!("{} labels for {} images", labels.len(), n),
            });
        }

        let store = CheckpointStore::open(&ckpt.dir, ckpt.retain)?;
        let mut optimizer: Box<dyn Optimizer> = match self.config.optimizer {
            OptimizerKind::SgdMomentum { lr } => Box::new(Sgd::with_momentum(lr, 0.9)),
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
        };

        let mut resumed_from_epoch = None;
        let (mut rng, mut history, mut epochs_done);
        if let Some((gen, state)) = store.latest_intact()? {
            state.apply_to(model)?;
            optimizer.import_state(state.optimizer.clone())?;
            rng = state.resume_rng();
            history = state.history.clone();
            epochs_done = state.epochs_resumed()?;
            resumed_from_epoch = Some(gen);
            if self.config.verbose {
                eprintln!("resumed from checkpoint generation {gen}");
            }
        } else {
            rng = TensorRng::seed_from_u64(self.config.seed);
            history = TrainHistory::default();
            epochs_done = 0;
        }
        // Rollback target of last resort, before any checkpoint exists.
        let anchor = TrainState::capture(
            model,
            optimizer.as_ref(),
            &rng,
            &history,
            epochs_done as u64,
        );

        let mut rollbacks = 0usize;
        let mut lr_scale = 1.0f32;
        let mut checkpoints_written = 0usize;
        let mut last_saved = resumed_from_epoch;
        let mut prev_loss = history.epochs.last().map(|e| e.loss);
        let (mut best_accuracy, mut stale_epochs) = replay_patience(&history);

        while epochs_done < self.config.epochs {
            let stats = self.run_epoch(model, images, labels, optimizer.as_mut(), &mut rng, n)?;

            if let Some(guard) = self.config.divergence.clone() {
                let spiked = prev_loss
                    .map(|p| stats.loss > guard.spike_factor * p.max(f32::MIN_POSITIVE))
                    .unwrap_or(false);
                if !stats.loss.is_finite() || stats.loss > guard.max_loss || spiked {
                    rollbacks += 1;
                    if rollbacks > guard.max_rollbacks {
                        return Err(NnError::Diverged {
                            epoch: epochs_done,
                            loss: stats.loss,
                        });
                    }
                    let diverged_epoch = epochs_done + 1;
                    let state = match store.latest_intact()? {
                        Some((_, state)) => state,
                        None => anchor.clone(),
                    };
                    state.apply_to(model)?;
                    optimizer.import_state(state.optimizer.clone())?;
                    lr_scale *= guard.lr_backoff;
                    optimizer.set_learning_rate(state.learning_rate * lr_scale);
                    rng = state.resume_rng();
                    history = state.history.clone();
                    epochs_done = state.epochs_resumed()?;
                    prev_loss = history.epochs.last().map(|e| e.loss);
                    (best_accuracy, stale_epochs) = replay_patience(&history);
                    if self.config.verbose {
                        eprintln!(
                            "divergence at epoch {diverged_epoch} (loss {}): rolled back to epoch {epochs_done}, lr scale {lr_scale}",
                            stats.loss
                        );
                    }
                    continue;
                }
            }

            if self.config.verbose {
                eprintln!(
                    "epoch {:>3}: loss {:.4}  train acc {:.1}%",
                    epochs_done + 1,
                    stats.loss,
                    stats.train_accuracy * 100.0
                );
            }
            prev_loss = Some(stats.loss);
            history.epochs.push(stats.clone());
            epochs_done += 1;
            let lr = optimizer.learning_rate() * self.config.lr_decay;
            optimizer.set_learning_rate(lr);

            let mut stop_early = false;
            if let Some(patience) = self.config.patience {
                if stats.train_accuracy > best_accuracy + 1e-6 {
                    best_accuracy = stats.train_accuracy;
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    stop_early = stale_epochs >= patience;
                }
            }

            let boundary = epochs_done % ckpt.every_epochs == 0;
            if boundary || epochs_done == self.config.epochs || stop_early {
                let state = TrainState::capture(
                    model,
                    optimizer.as_ref(),
                    &rng,
                    &history,
                    epochs_done as u64,
                );
                store.save(&state)?;
                checkpoints_written += 1;
                last_saved = Some(epochs_done as u64);
            }

            if observe(epochs_done, &stats) == TrainSignal::Halt {
                return Ok(FitReport {
                    history,
                    resumed_from_epoch,
                    completed: false,
                    rollbacks,
                    checkpoints_written,
                });
            }
            if stop_early {
                if self.config.verbose {
                    eprintln!("early stop after {epochs_done} epochs ({stale_epochs} without improvement)");
                }
                break;
            }
        }

        if last_saved != Some(epochs_done as u64) {
            let state = TrainState::capture(
                model,
                optimizer.as_ref(),
                &rng,
                &history,
                epochs_done as u64,
            );
            store.save(&state)?;
            checkpoints_written += 1;
        }
        Ok(FitReport {
            history,
            resumed_from_epoch,
            completed: true,
            rollbacks,
            checkpoints_written,
        })
    }

    /// One shuffled pass over the data. Unlike [`Trainer::fit`], the
    /// visit order is re-derived from the RNG alone each epoch (not
    /// carried over from the previous shuffle), so an epoch is a pure
    /// function of the captured RNG state — the property checkpoint
    /// resume depends on.
    fn run_epoch(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
        rng: &mut TensorRng,
        n: usize,
    ) -> Result<EpochStats> {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        self.run_pass(model, images, labels, optimizer, &order)
    }

    /// One optimisation pass visiting the samples in `order`, one
    /// mini-batch at a time, then the training accuracy it reached.
    fn run_pass(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
        order: &[usize],
    ) -> Result<EpochStats> {
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(self.config.batch_size) {
            let batch = images.select_batch(chunk.iter().copied())?;
            let batch_labels: Vec<usize> = chunk
                .iter()
                .filter_map(|&i| labels.get(i).copied())
                .collect();

            model.zero_grad();
            let logits = model.forward_train(&batch)?;
            let lv = self.loss.compute(&logits, &batch_labels)?;
            model.backward(&lv.grad)?;
            optimizer.step(&mut model.params_mut())?;

            epoch_loss += lv.loss;
            batches += 1;
        }
        let train_accuracy = top1_accuracy(model, images, labels)?;
        Ok(EpochStats {
            loss: epoch_loss / batches.max(1) as f32,
            train_accuracy,
        })
    }
}

/// Reconstructs the early-stopping counters from a (possibly resumed)
/// history, applying the same update rule [`Trainer::fit`] uses, so
/// patience state never needs to live in the checkpoint.
fn replay_patience(history: &TrainHistory) -> (f32, usize) {
    let mut best_accuracy = 0.0f32;
    let mut stale_epochs = 0usize;
    for e in &history.epochs {
        if e.train_accuracy > best_accuracy + 1e-6 {
            best_accuracy = e.train_accuracy;
            stale_epochs = 0;
        } else {
            stale_epochs += 1;
        }
    }
    (best_accuracy, stale_epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Layer};
    use fademl_tensor::Shape;

    /// A linearly separable 2-class toy problem.
    fn toy_data() -> (Tensor, Vec<usize>) {
        let mut rng = TensorRng::seed_from_u64(42);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            rows.push(center + rng.uniform_scalar(-0.5, 0.5));
            rows.push(center + rng.uniform_scalar(-0.5, 0.5));
            labels.push(class);
        }
        (
            Tensor::from_vec(rows, Shape::new(vec![40, 2])).unwrap(),
            labels,
        )
    }

    fn mlp() -> Sequential {
        let mut rng = TensorRng::seed_from_u64(1);
        Sequential::new()
            .push(Dense::new(2, 8, &mut rng))
            .push(Layer::Relu)
            .push(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn learns_separable_problem() {
        let (x, y) = toy_data();
        let mut model = mlp();
        // 100 epochs: Adam at the default 1e-3 needs the extra steps to
        // climb out of this seed's small-weight init on the toy net.
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 100,
            batch_size: 8,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut model, &x, &y).unwrap();
        assert_eq!(history.epochs.len(), 100);
        assert!(
            history.final_accuracy() > 0.95,
            "final acc {}",
            history.final_accuracy()
        );
        // Loss decreased overall.
        assert!(history.epochs.last().unwrap().loss < history.epochs[0].loss);
    }

    #[test]
    fn sgd_also_learns() {
        let (x, y) = toy_data();
        let mut model = mlp();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 8,
            optimizer: OptimizerKind::SgdMomentum { lr: 0.05 },
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut model, &x, &y).unwrap();
        assert!(history.final_accuracy() > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = toy_data();
        let run = || {
            let mut model = mlp();
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 3,
                batch_size: 8,
                seed: 9,
                ..TrainConfig::default()
            });
            trainer.fit(&mut model, &x, &y).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_bad_configs() {
        let (x, y) = toy_data();
        let mut model = mlp();
        let mut t = Trainer::new(TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        });
        assert!(t.fit(&mut model, &x, &y).is_err());
        let mut t = Trainer::new(TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        });
        assert!(t.fit(&mut model, &x, &y).is_err());
        let mut t = Trainer::new(TrainConfig::default());
        assert!(t.fit(&mut model, &x, &y[..5]).is_err());
    }

    #[test]
    fn early_stopping_cuts_training_short() {
        let (x, y) = toy_data();
        let mut model = mlp();
        // The toy problem saturates at 100% within a few epochs, so with
        // patience 2 the run must stop well before the 100-epoch cap.
        // 100 epochs: Adam at the default 1e-3 needs the extra steps to
        // climb out of this seed's small-weight init on the toy net.
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 100,
            batch_size: 8,
            patience: Some(5),
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut model, &x, &y).unwrap();
        assert!(
            history.epochs.len() < 100,
            "ran all {} epochs despite patience",
            history.epochs.len()
        );
        // Training still made progress before stopping.
        assert!(history.final_accuracy() >= history.epochs[0].train_accuracy);
    }

    #[test]
    fn patience_none_runs_all_epochs() {
        let (x, y) = toy_data();
        let mut model = mlp();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 12,
            batch_size: 8,
            patience: None,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut model, &x, &y).unwrap();
        assert_eq!(history.epochs.len(), 12);
    }

    #[test]
    fn lr_decay_applies() {
        let (x, y) = toy_data();
        let mut model = mlp();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            lr_decay: 0.5,
            ..TrainConfig::default()
        });
        // Smoke test: decaying LR must not break training.
        assert!(trainer.fit(&mut model, &x, &y).is_ok());
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fademl_fit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn weights(model: &Sequential) -> Vec<Tensor> {
        model.params().iter().map(|p| p.value.clone()).collect()
    }

    #[test]
    fn durable_run_writes_generations_and_reports() {
        let (x, y) = toy_data();
        let dir = ckpt_dir("fresh");
        let mut model = mlp();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr_decay: 0.9,
            ..TrainConfig::default()
        });
        let ckpt = crate::CheckpointConfig::new(&dir).every(2).retain(2);
        let report = trainer.fit_durable(&mut model, &x, &y, &ckpt).unwrap();
        assert!(report.completed);
        assert_eq!(report.resumed_from_epoch, None);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.history.epochs.len(), 6);
        // Epochs 2, 4 and 6 were checkpointed; retention keeps 4 and 6.
        assert_eq!(report.checkpoints_written, 3);
        let store = crate::CheckpointStore::open(&dir, 2).unwrap();
        let gens: Vec<u64> = store
            .generations()
            .unwrap()
            .into_iter()
            .map(|(g, _)| g)
            .collect();
        assert_eq!(gens, vec![4, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_resume_is_byte_identical_to_uninterrupted() {
        let (x, y) = toy_data();
        let config = TrainConfig {
            epochs: 6,
            batch_size: 8,
            seed: 11,
            lr_decay: 0.9,
            ..TrainConfig::default()
        };

        // Reference: one uninterrupted durable run.
        let dir_a = ckpt_dir("uninterrupted");
        let mut model_a = mlp();
        let report_a = Trainer::new(config.clone())
            .fit_durable(
                &mut model_a,
                &x,
                &y,
                &crate::CheckpointConfig::new(&dir_a).every(2),
            )
            .unwrap();

        // Crash-and-resume: halt right after the epoch-4 checkpoint
        // (simulating a kill at a checkpoint boundary), then resume.
        let dir_b = ckpt_dir("resumed");
        let ckpt_b = crate::CheckpointConfig::new(&dir_b).every(2);
        let mut model_b = mlp();
        let crashed = Trainer::new(config.clone())
            .fit_durable_with(&mut model_b, &x, &y, &ckpt_b, |epoch, _| {
                if epoch == 4 {
                    TrainSignal::Halt
                } else {
                    TrainSignal::Continue
                }
            })
            .unwrap();
        assert!(!crashed.completed);
        assert_eq!(crashed.history.epochs.len(), 4);

        // Resume into a FRESH model: everything must come from disk.
        let mut model_b = mlp();
        let report_b = Trainer::new(config)
            .fit_durable(&mut model_b, &x, &y, &ckpt_b)
            .unwrap();
        assert_eq!(report_b.resumed_from_epoch, Some(4));
        assert!(report_b.completed);

        assert_eq!(
            weights(&model_a),
            weights(&model_b),
            "resumed run must reproduce the uninterrupted run bit-for-bit"
        );
        assert_eq!(report_a.history, report_b.history);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn parallel_training_is_deterministic_and_matches_serial() {
        let (x, y) = toy_data();
        let run = |threads: usize, tag: &str| {
            let dir = ckpt_dir(tag);
            let mut model = mlp();
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 4,
                batch_size: 8,
                seed: 23,
                compute_threads: threads,
                ..TrainConfig::default()
            });
            let report = trainer
                .fit_durable(&mut model, &x, &y, &crate::CheckpointConfig::new(&dir))
                .unwrap();
            assert!(report.completed);
            let _ = std::fs::remove_dir_all(&dir);
            (weights(&model), report.history)
        };
        // Two pooled runs agree with each other AND with a serial run:
        // the par kernels are bit-exact, so the thread count can never
        // leak into the weights.
        let (w_par_a, h_par_a) = run(4, "par_a");
        let (w_par_b, h_par_b) = run(4, "par_b");
        let (w_serial, h_serial) = run(1, "serial");
        assert_eq!(w_par_a, w_par_b, "two 4-thread runs must be byte-identical");
        assert_eq!(
            w_par_a, w_serial,
            "4-thread weights must match the serial run bit-for-bit"
        );
        assert_eq!(h_par_a, h_par_b);
        assert_eq!(h_par_a, h_serial);
        fademl_tensor::par::set_threads(1);
    }

    #[test]
    fn divergence_guard_rolls_back_and_recovers() {
        let (x, y) = toy_data();
        let dir = ckpt_dir("diverge");
        let mut model = mlp();
        // An absurd learning rate blows the loss up immediately; the
        // guard must roll back and shrink it until training survives.
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            optimizer: OptimizerKind::SgdMomentum { lr: 1e5 },
            divergence: Some(DivergenceGuard {
                spike_factor: 4.0,
                max_loss: 10.0,
                lr_backoff: 1e-3,
                max_rollbacks: 5,
            }),
            ..TrainConfig::default()
        });
        let ckpt = crate::CheckpointConfig::new(&dir);
        let report = trainer.fit_durable(&mut model, &x, &y, &ckpt).unwrap();
        assert!(report.completed);
        assert!(report.rollbacks >= 1, "guard never fired");
        assert_eq!(report.history.epochs.len(), 4);
        for e in &report.history.epochs {
            assert!(e.loss.is_finite(), "diverged loss leaked into history");
        }
        for w in weights(&model) {
            assert!(
                w.as_slice().iter().all(|v| v.is_finite()),
                "non-finite weights survived the rollback"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_rollback_budget_is_a_typed_error() {
        let (x, y) = toy_data();
        let dir = ckpt_dir("budget");
        let mut model = mlp();
        // Backoff of 1.0 never fixes anything, so the budget runs out.
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            optimizer: OptimizerKind::SgdMomentum { lr: 1e5 },
            divergence: Some(DivergenceGuard {
                spike_factor: 4.0,
                max_loss: 10.0,
                lr_backoff: 1.0,
                max_rollbacks: 2,
            }),
            ..TrainConfig::default()
        });
        let ckpt = crate::CheckpointConfig::new(&dir);
        assert!(matches!(
            trainer.fit_durable(&mut model, &x, &y, &ckpt),
            Err(NnError::Diverged { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_rejects_zero_checkpoint_period() {
        let (x, y) = toy_data();
        let dir = ckpt_dir("zeroperiod");
        let mut model = mlp();
        let mut trainer = Trainer::new(TrainConfig::default());
        let ckpt = crate::CheckpointConfig::new(&dir).every(0);
        assert!(matches!(
            trainer.fit_durable(&mut model, &x, &y, &ckpt),
            Err(NnError::InvalidConfig { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_early_stop_checkpoints_final_state() {
        let (x, y) = toy_data();
        let dir = ckpt_dir("earlystop");
        let mut model = mlp();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 100,
            batch_size: 8,
            patience: Some(5),
            ..TrainConfig::default()
        });
        // Long period: the early-stop epoch itself must still be saved.
        let ckpt = crate::CheckpointConfig::new(&dir).every(1000);
        let report = trainer.fit_durable(&mut model, &x, &y, &ckpt).unwrap();
        assert!(report.completed);
        assert!(report.history.epochs.len() < 100);
        let store = crate::CheckpointStore::open(&dir, 2).unwrap();
        let (gen, state) = store.latest_intact().unwrap().unwrap();
        assert_eq!(gen as usize, report.history.epochs.len());
        assert_eq!(state.history, report.history);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
