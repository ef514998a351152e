//! Durable, verifiable training checkpoints.
//!
//! A checkpoint captures *everything* [`Trainer`](crate::Trainer) needs
//! to continue a run bit-for-bit: model weights, optimizer state
//! (momentum / Adam moments and step counter), the trainer RNG's exact
//! stream position, the current learning rate, the epoch counter and
//! the accumulated [`TrainHistory`]. A run interrupted at a checkpoint
//! boundary and resumed produces **byte-identical final weights** to an
//! uninterrupted run with the same seed (proven by test).
//!
//! # On-disk format (`FADEMLC1`)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"FADEMLC1"` |
//! | 8      | 4    | version `u32` = 1 (start of CRC-covered body) |
//! | 12     | 8    | `epochs_done: u64` |
//! | 20     | 32   | trainer RNG state, 4 × `u64` |
//! | 52     | 4    | current learning rate `f32` |
//! | 56     | ..   | model parameters: count `u32`, then per tensor `rank u8`, dims `u64`×rank, data `f32`×numel |
//! | ..     | ..   | optimizer state: kind tag `u8` (0 = SGD, 1 = Adam), hyper-parameters, then state tensors in the same per-tensor encoding |
//! | ..     | ..   | history: epoch count `u32`, then (`loss f32`, `train_accuracy f32`) per epoch |
//! | end−4  | 4    | CRC-32 (IEEE) over the body (everything after the magic) |
//!
//! All integers and floats are little-endian. Loading verifies magic,
//! version and CRC **before** interpreting any tensor data, and every
//! structural field is bounds-checked against hard caps before a single
//! allocation — a truncated, torn or bit-flipped checkpoint is a
//! [`NnError::Corrupt`], never garbage weights.
//!
//! # Generations
//!
//! [`CheckpointStore`] manages a directory of `ckpt-<epoch>.fckpt`
//! generations, written via the atomic temp-file + rename helper
//! ([`fademl_tensor::io::atomic_write`]) and pruned to a configurable
//! retention count. [`CheckpointStore::latest_intact`] scans newest →
//! oldest and returns the first generation that passes verification, so
//! recovery survives a corrupt newest file as long as one older
//! generation is intact.

use std::fs;
use std::path::{Path, PathBuf};

use fademl_tensor::io::{
    atomic_write, is_staging_file, read_artifact, ByteReader, ByteWriter, CrcScope, Envelope,
};
use fademl_tensor::{Shape, Tensor, TensorRng};

use crate::error::corrupt;
use crate::{EpochStats, Optimizer};
use crate::{NnError, OptimizerState, Result, Sequential, TrainHistory};

/// The `FADEMLC1` framing: the CRC covers everything after the magic.
const CHECKPOINT: Envelope = Envelope {
    magic: b"FADEMLC1",
    crc: CrcScope::AfterMagic,
};
const VERSION: u32 = 1;

/// Hard caps applied while parsing, before any allocation: a corrupt
/// header can never trigger a runaway allocation.
const MAX_RANK: usize = 8;
const MAX_TENSORS: usize = 65_536;
const MAX_HISTORY: usize = 10_000_000;
/// Bytes of the smallest tensor record: rank 0 and its one element.
const MIN_TENSOR_BYTES: usize = 1 + 4;

const SGD_TAG: u8 = 0;
const ADAM_TAG: u8 = 1;

/// Where and how often [`Trainer::fit_durable`](crate::Trainer::fit_durable)
/// checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint generations (created if absent).
    pub dir: PathBuf,
    /// Checkpoint after every `every_epochs` completed epochs.
    pub every_epochs: usize,
    /// How many most-recent generations to keep on disk (≥ 1). Keeping
    /// more than one lets recovery fall back past a corrupt newest file.
    pub retain: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` after every epoch, retaining the last two
    /// generations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_epochs: 1,
            retain: 2,
        }
    }

    /// Sets the checkpoint period (builder style).
    #[must_use]
    pub fn every(mut self, epochs: usize) -> Self {
        self.every_epochs = epochs;
        self
    }

    /// Sets the retention count (builder style).
    #[must_use]
    pub fn retain(mut self, generations: usize) -> Self {
        self.retain = generations;
        self
    }
}

/// A complete snapshot of a training run at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Number of epochs fully completed before this snapshot.
    pub epochs_done: u64,
    /// The trainer RNG's exact stream position.
    pub rng_state: [u64; 4],
    /// Learning rate in effect for the *next* epoch (decay applied).
    pub learning_rate: f32,
    /// Model parameter values, in [`Sequential::params`] order.
    pub params: Vec<Tensor>,
    /// Optimizer state (momentum buffers / Adam moments).
    pub optimizer: OptimizerState,
    /// Per-epoch statistics accumulated so far.
    pub history: TrainHistory,
}

impl TrainState {
    /// Snapshots a live training run.
    pub fn capture(
        model: &Sequential,
        optimizer: &dyn Optimizer,
        rng: &TensorRng,
        history: &TrainHistory,
        epochs_done: u64,
    ) -> TrainState {
        TrainState {
            epochs_done,
            rng_state: rng.state(),
            learning_rate: optimizer.learning_rate(),
            params: model.params().iter().map(|p| p.value.clone()).collect(),
            optimizer: optimizer.export_state(),
            history: history.clone(),
        }
    }

    /// Pours the snapshot's weights back into `model`, verifying count
    /// and shape of every parameter first.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ArchMismatch`] when the snapshot does not fit
    /// the model.
    pub fn apply_to(&self, model: &mut Sequential) -> Result<()> {
        let mut params = model.params_mut();
        if params.len() != self.params.len() {
            return Err(NnError::ArchMismatch {
                reason: format!(
                    "checkpoint has {} parameters, model has {}",
                    self.params.len(),
                    params.len()
                ),
            });
        }
        for (i, (target, saved)) in params.iter_mut().zip(&self.params).enumerate() {
            if target.value.dims() != saved.dims() {
                return Err(NnError::ArchMismatch {
                    reason: format!(
                        "parameter {i}: checkpoint shape {:?} vs model shape {:?}",
                        saved.dims(),
                        target.value.dims()
                    ),
                });
            }
        }
        for (target, saved) in params.iter_mut().zip(&self.params) {
            target.value = saved.clone();
        }
        Ok(())
    }

    /// `epochs_done` as a count this host can index.
    pub(crate) fn epochs_resumed(&self) -> Result<usize> {
        usize::try_from(self.epochs_done).map_err(|_| corrupt("epoch counter overflows usize"))
    }

    /// A trainer RNG positioned exactly where the snapshot left off.
    pub fn resume_rng(&self) -> TensorRng {
        TensorRng::from_state(self.rng_state)
    }

    /// Serializes the snapshot to the `FADEMLC1` format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CHECKPOINT.writer();
        w.put_u32(VERSION);
        w.put_u64(self.epochs_done);
        for &s in &self.rng_state {
            w.put_u64(s);
        }
        w.put_f32(self.learning_rate);
        w.put_count(self.params.len());
        for t in &self.params {
            put_tensor(&mut w, t);
        }
        match &self.optimizer {
            OptimizerState::Sgd {
                lr,
                momentum,
                weight_decay,
                velocity,
            } => {
                w.put_u8(SGD_TAG);
                w.put_f32(*lr);
                w.put_f32(*momentum);
                w.put_f32(*weight_decay);
                put_tensor_list(&mut w, velocity);
            }
            OptimizerState::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                w.put_u8(ADAM_TAG);
                w.put_f32(*lr);
                w.put_f32(*beta1);
                w.put_f32(*beta2);
                w.put_f32(*eps);
                w.put_u32(*t);
                put_tensor_list(&mut w, m);
                put_tensor_list(&mut w, v);
            }
        }
        w.put_count(self.history.epochs.len());
        for e in &self.history.epochs {
            w.put_f32(e.loss);
            w.put_f32(e.train_accuracy);
        }
        CHECKPOINT.seal(w)
    }

    /// Parses and verifies a `FADEMLC1` checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Corrupt`] for bad magic, unsupported version,
    /// CRC mismatch, truncation or any structurally invalid field.
    pub fn decode(bytes: &[u8]) -> Result<TrainState> {
        let body = CHECKPOINT
            .open(bytes)
            .map_err(|refusal| corrupt(format!("not a FAdeML checkpoint: {refusal}")))?;
        let mut r = ByteReader::new(body);
        let state = parse_body(&mut r)?;
        if r.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after the checkpoint body",
                r.remaining()
            )));
        }
        Ok(state)
    }
}

fn parse_body(r: &mut ByteReader<'_>) -> Result<TrainState> {
    let rd = |e: std::io::Error| corrupt(e.to_string());
    let version = r.get_u32().map_err(rd)?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported checkpoint version {version}")));
    }
    let epochs_done = r.get_u64().map_err(rd)?;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.get_u64().map_err(rd)?;
    }
    let learning_rate = r.get_f32().map_err(rd)?;
    let params = get_tensor_list(r)?;
    let tag = r.get_u8().map_err(rd)?;
    let optimizer = match tag {
        SGD_TAG => OptimizerState::Sgd {
            lr: r.get_f32().map_err(rd)?,
            momentum: r.get_f32().map_err(rd)?,
            weight_decay: r.get_f32().map_err(rd)?,
            velocity: get_tensor_list(r)?,
        },
        ADAM_TAG => OptimizerState::Adam {
            lr: r.get_f32().map_err(rd)?,
            beta1: r.get_f32().map_err(rd)?,
            beta2: r.get_f32().map_err(rd)?,
            eps: r.get_f32().map_err(rd)?,
            t: r.get_u32().map_err(rd)?,
            m: get_tensor_list(r)?,
            v: get_tensor_list(r)?,
        },
        other => return Err(corrupt(format!("unknown optimizer tag {other}"))),
    };
    let epochs = r.get_u32().map_err(rd)? as usize;
    if epochs > MAX_HISTORY {
        return Err(corrupt(format!("implausible history length {epochs}")));
    }
    let mut history = TrainHistory::default();
    for _ in 0..epochs {
        history.epochs.push(EpochStats {
            loss: r.get_f32().map_err(rd)?,
            train_accuracy: r.get_f32().map_err(rd)?,
        });
    }
    Ok(TrainState {
        epochs_done,
        rng_state,
        learning_rate,
        params,
        optimizer,
        history,
    })
}

fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    // A rank past `u8::MAX` saturates, which the decoder's rank cap refuses.
    w.put_u8(u8::try_from(t.dims().len()).unwrap_or(u8::MAX));
    for &d in t.dims() {
        w.put_u64(d as u64);
    }
    for &x in t.as_slice() {
        w.put_f32(x);
    }
}

fn put_tensor_list(w: &mut ByteWriter, list: &[Tensor]) {
    w.put_count(list.len());
    for t in list {
        put_tensor(w, t);
    }
}

/// Reads one tensor record, validating rank and size against the bytes
/// actually present *before* allocating the data buffer.
fn get_tensor(r: &mut ByteReader<'_>) -> Result<Tensor> {
    let rd = |e: std::io::Error| corrupt(e.to_string());
    let rank = r.get_u8().map_err(rd)? as usize;
    if rank > MAX_RANK {
        return Err(corrupt(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut numel: usize = 1;
    for _ in 0..rank {
        let d = r.get_usize().map_err(rd)?;
        numel = numel
            .checked_mul(d)
            .ok_or_else(|| corrupt("tensor dims overflow"))?;
        dims.push(d);
    }
    let data = r.get_f32s(numel).map_err(rd)?;
    Tensor::from_vec(data, Shape::new(dims)).map_err(NnError::from)
}

fn get_tensor_list(r: &mut ByteReader<'_>) -> Result<Vec<Tensor>> {
    let rd = |e: std::io::Error| corrupt(e.to_string());
    let count = r.get_u32().map_err(rd)? as usize;
    if count > MAX_TENSORS {
        return Err(corrupt(format!("implausible tensor count {count}")));
    }
    // Reserve no more records than the unread body can hold.
    let mut out = Vec::with_capacity(count.min(r.remaining() / MIN_TENSOR_BYTES));
    for _ in 0..count {
        out.push(get_tensor(r)?);
    }
    Ok(out)
}

/// A directory of checkpoint generations with atomic writes, integrity
/// verification on load, and newest-intact recovery.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory keeping the
    /// last `retain` generations.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for `retain == 0` and
    /// [`NnError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self> {
        if retain == 0 {
            return Err(NnError::InvalidConfig {
                reason: "checkpoint retention must be at least 1".into(),
            });
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, retain })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn generation_path(&self, epochs_done: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{epochs_done:08}.fckpt"))
    }

    /// All generations on disk (intact or not), oldest first, as
    /// `(epochs_done, path)` pairs. Staging leftovers and foreign files
    /// are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn generations(&self) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if is_staging_file(&path) {
                continue;
            }
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if let Some(gen) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".fckpt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((gen, path));
            }
        }
        out.sort_by_key(|(g, _)| *g);
        Ok(out)
    }

    /// Atomically writes `state` as generation `state.epochs_done` and
    /// prunes generations beyond the retention count.
    ///
    /// # Errors
    ///
    /// Propagates encode/write failures ([`NnError::Io`]); pruning
    /// failures are ignored (they only cost disk space, not safety).
    pub fn save(&self, state: &TrainState) -> Result<PathBuf> {
        let path = self.generation_path(state.epochs_done);
        atomic_write(&path, &state.encode())?;
        if let Ok(gens) = self.generations() {
            for (_, old) in gens.iter().take(gens.len().saturating_sub(self.retain)) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort: pruning a vanished generation is fine"
                )]
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Loads and verifies one checkpoint file.
    ///
    /// # Errors
    ///
    /// [`NnError::Io`] when the file cannot be read, [`NnError::Corrupt`]
    /// when it fails verification.
    pub fn load(path: &Path) -> Result<TrainState> {
        let bytes = read_artifact(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                corrupt(e.to_string())
            } else {
                NnError::Io(e)
            }
        })?;
        TrainState::decode(&bytes)
    }

    /// Scans generations newest → oldest and returns the first one that
    /// passes full verification, or `None` when no intact generation
    /// exists. Corrupt or unreadable generations are skipped — recovery
    /// never loads a file that fails its CRC.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures only.
    pub fn latest_intact(&self) -> Result<Option<(u64, TrainState)>> {
        for (gen, path) in self.generations()?.into_iter().rev() {
            if let Ok(state) = Self::load(&path) {
                return Ok(Some((gen, state)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "rots a committed generation in place on purpose"
)]
mod tests {
    use super::*;
    use crate::{Adam, Dense, Layer, Sgd};
    use proptest::prelude::*;

    fn model(seed: u64) -> Sequential {
        let mut rng = TensorRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(5, 7, &mut rng))
            .push(Layer::Relu)
            .push(Dense::new(7, 3, &mut rng))
    }

    fn sample_state(seed: u64) -> TrainState {
        let m = model(seed);
        let mut opt = Adam::new(2e-3);
        opt.set_learning_rate(1.5e-3);
        let rng = TensorRng::seed_from_u64(seed + 1);
        let history = TrainHistory {
            epochs: vec![
                EpochStats {
                    loss: 1.25,
                    train_accuracy: 0.4,
                },
                EpochStats {
                    loss: 0.75,
                    train_accuracy: 0.8,
                },
            ],
        };
        TrainState::capture(&m, &opt, &rng, &history, 2)
    }

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fademl_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_round_trip() {
        let state = sample_state(1);
        let decoded = TrainState::decode(&state.encode()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn sgd_state_round_trips_too() {
        let m = model(2);
        let opt = Sgd::with_momentum(0.05, 0.9).weight_decay(1e-4);
        let rng = TensorRng::seed_from_u64(9);
        let state = TrainState::capture(&m, &opt, &rng, &TrainHistory::default(), 0);
        assert_eq!(TrainState::decode(&state.encode()).unwrap(), state);
    }

    #[test]
    fn apply_restores_weights_and_checks_shapes() {
        let source = model(1);
        let state = sample_state(1);
        let mut target = model(2);
        let x = Tensor::ones(&[2, 5]);
        assert_ne!(source.forward(&x).unwrap(), target.forward(&x).unwrap());
        state.apply_to(&mut target).unwrap();
        assert_eq!(source.forward(&x).unwrap(), target.forward(&x).unwrap());

        let mut rng = TensorRng::seed_from_u64(3);
        let mut wrong = Sequential::new().push(Dense::new(5, 4, &mut rng));
        assert!(matches!(
            state.apply_to(&mut wrong),
            Err(NnError::ArchMismatch { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // Flip one bit in every byte region — magic, header, payload,
        // trailer — and require a typed error each time. The CRC covers
        // the body, the magic check covers the prefix.
        let state = sample_state(4);
        let clean = state.encode();
        // Exhaustive over a stride to keep runtime sane, but always
        // covering magic (0..8), header, the first/last payload bytes
        // and the trailer.
        let mut offsets: Vec<usize> = (0..clean.len()).step_by(97).collect();
        offsets.extend(0..12);
        offsets.extend(clean.len() - 8..clean.len());
        for at in offsets {
            let mut bad = clean.clone();
            bad[at] ^= 0x20;
            match TrainState::decode(&bad) {
                Err(NnError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {at}: wrong error kind {other:?}"),
                Ok(decoded) => {
                    panic!(
                        "byte {at}: corrupt checkpoint decoded successfully ({} params)",
                        decoded.params.len()
                    )
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let clean = sample_state(5).encode();
        for len in (0..clean.len()).step_by(13) {
            assert!(
                matches!(
                    TrainState::decode(&clean[..len]),
                    Err(NnError::Corrupt { .. })
                ),
                "truncation to {len} bytes must be Corrupt"
            );
        }
    }

    #[test]
    fn store_saves_prunes_and_recovers_newest() {
        let dir = unique_dir("store");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        for epochs in [1u64, 2, 3, 4] {
            let mut s = sample_state(epochs);
            s.epochs_done = epochs;
            store.save(&s).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(
            gens.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            vec![3, 4],
            "retention must keep only the last two generations"
        );
        let (gen, state) = store.latest_intact().unwrap().unwrap();
        assert_eq!(gen, 4);
        assert_eq!(state.epochs_done, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_a_corrupt_newest_generation() {
        let dir = unique_dir("recover");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        for epochs in [1u64, 2] {
            let mut s = sample_state(epochs);
            s.epochs_done = epochs;
            store.save(&s).unwrap();
        }
        // Rot the newest generation on disk.
        let newest = store.generations().unwrap().last().unwrap().1.clone();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            CheckpointStore::load(&newest),
            Err(NnError::Corrupt { .. })
        ));
        // latest_intact falls back to generation 1.
        let (gen, state) = store.latest_intact().unwrap().unwrap();
        assert_eq!(gen, 1);
        assert_eq!(state.epochs_done, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_has_no_intact_generation() {
        let dir = unique_dir("empty");
        let store = CheckpointStore::open(&dir, 1).unwrap();
        assert!(store.latest_intact().unwrap().is_none());
        assert!(CheckpointStore::open(&dir, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_foreign_and_oversized_headers() {
        assert!(matches!(
            TrainState::decode(b"NOTACKPTxxxxyyyy"),
            Err(NnError::Corrupt { .. })
        ));
        // A payload claiming an absurd tensor rank must fail before
        // allocating.
        let mut w = CHECKPOINT.writer();
        w.put_u32(VERSION);
        w.put_u64(0);
        for _ in 0..4 {
            w.put_u64(0);
        }
        w.put_f32(0.0);
        w.put_u32(1); // one param tensor
        w.put_u8(255); // rank 255 ≫ MAX_RANK
        assert!(matches!(
            TrainState::decode(&CHECKPOINT.seal(w)),
            Err(NnError::Corrupt { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary layer stacks and optimizer states survive the
        /// save/load round trip bit-for-bit.
        #[test]
        fn prop_round_trip(
            widths in proptest::collection::vec(1usize..6, 1..4),
            use_adam in 0u8..2,
            steps in 0u32..50,
            epochs_done in 0u64..1000,
            lr in 1e-5f32..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TensorRng::seed_from_u64(seed);
            let mut m = Sequential::new();
            let mut prev = 3usize;
            for w in widths {
                m = m.push(Dense::new(prev, w, &mut rng)).push(Layer::Relu);
                prev = w;
            }
            let mut opt: Box<dyn Optimizer> = if use_adam == 1 {
                Box::new(Adam::new(lr))
            } else {
                Box::new(Sgd::with_momentum(lr, 0.9))
            };
            // Drive a few steps so moment buffers are non-trivial.
            for _ in 0..steps.min(3) {
                for p in m.params_mut() {
                    p.grad = Tensor::ones(p.value.dims());
                }
                opt.step(&mut m.params_mut()).unwrap();
            }
            let history = TrainHistory {
                epochs: (0..(steps as usize % 5)).map(|i| EpochStats {
                    loss: i as f32 * 0.1,
                    train_accuracy: 1.0 - i as f32 * 0.05,
                }).collect(),
            };
            let state = TrainState::capture(&m, opt.as_ref(), &rng, &history, epochs_done);
            let decoded = TrainState::decode(&state.encode()).unwrap();
            prop_assert_eq!(decoded, state);
        }

        /// Any single-byte corruption of a checkpoint is a typed error.
        #[test]
        fn prop_single_byte_corruption_is_typed(
            at_frac in 0.0f64..1.0,
            flip in 1u32..256,
        ) {
            let clean = sample_state(6).encode();
            let at = ((clean.len() - 1) as f64 * at_frac) as usize;
            let mut bad = clean.clone();
            bad[at] ^= flip as u8;
            prop_assert!(matches!(
                TrainState::decode(&bad),
                Err(NnError::Corrupt { .. })
            ));
        }
    }
}
