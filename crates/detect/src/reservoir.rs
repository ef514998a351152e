//! Bounded reservoir of served-clean feature vectors, feeding online
//! detector refits.
//!
//! The serving engine offers every *clean-verdict* frame's feature
//! vector to a [`FeatureReservoir`]; Algorithm R (Vitter) keeps a
//! uniform sample of everything seen so far in bounded memory, driven
//! by the same deterministic [`TensorRng`] stream the trainer uses —
//! same seed + same offer sequence ⇒ bit-identical reservoir, which is
//! what makes refits reproducible and the resumable experiments exact.
//!
//! The admission-path half ([`FeatureReservoir::offer`]) is
//! allocation-free: storage is reserved up front and replacement
//! copies in place. The cold half (refit, persistence) may allocate.
//!
//! Persistence follows the workspace artifact discipline: magic
//! `FADEMLR1`, little-endian fields, the full RNG state (so a reloaded
//! reservoir continues the *exact* sampling stream), a CRC-32 trailer,
//! and every structural field cap-checked before any allocation. The
//! write path goes through [`fademl_tensor::io::atomic_write`], so a
//! crash mid-persist leaves the previous snapshot intact — never a
//! torn sample set.

use std::path::Path;

use fademl_tensor::io::{atomic_write, crc32, read_artifact, ByteReader, ByteWriter};
use fademl_tensor::TensorRng;

use crate::error::{corrupt, DetectError, Result};
use crate::features::{feature_dim, FEATURES_PER_SCALE, MAX_SCALES};
use crate::forest::{Detector, DetectorConfig};

/// Magic bytes of the serialized reservoir format.
pub const RESERVOIR_MAGIC: &[u8; 8] = b"FADEMLR1";

/// Most samples a reservoir may be configured to hold.
pub const MAX_RESERVOIR: usize = 1 << 16;

/// Longest feature vector a reservoir may carry (the deepest pyramid).
pub const MAX_RESERVOIR_DIM: usize = MAX_SCALES * FEATURES_PER_SCALE;

/// A bounded, deterministic uniform sample of offered feature vectors.
#[derive(Debug, Clone)]
pub struct FeatureReservoir {
    capacity: usize,
    feature_dim: usize,
    seen: u64,
    rng: TensorRng,
    /// Flat row-major storage, `len() / feature_dim` filled slots; the
    /// full `capacity * feature_dim` is reserved at construction so
    /// the offer path never reallocates.
    samples: Vec<f32>,
}

impl FeatureReservoir {
    /// An empty reservoir for `capacity` vectors of `feature_dim`
    /// floats, sampling off the deterministic stream seeded by `seed`.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for a capacity outside
    /// `2..=MAX_RESERVOIR` (a forest needs at least two samples) or a
    /// feature dimension outside `1..=MAX_RESERVOIR_DIM`.
    pub fn new(capacity: usize, feature_dim: usize, seed: u64) -> Result<Self> {
        if !(2..=MAX_RESERVOIR).contains(&capacity) {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "reservoir capacity must be in 2..={MAX_RESERVOIR}, got {capacity}"
                ),
            });
        }
        if feature_dim == 0 || feature_dim > MAX_RESERVOIR_DIM {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "reservoir feature_dim must be in 1..={MAX_RESERVOIR_DIM}, got {feature_dim}"
                ),
            });
        }
        let mut samples = Vec::default();
        samples.reserve_exact(capacity * feature_dim);
        Ok(FeatureReservoir {
            capacity,
            feature_dim,
            seen: 0,
            rng: TensorRng::seed_from_u64(seed),
            samples,
        })
    }

    /// Offers one feature vector to the sample (Algorithm R). Returns
    /// `true` if the vector was admitted (kept), `false` if the stream
    /// position rolled past it. Allocation-free: storage was reserved
    /// at construction and replacement copies in place.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidInput`] on a feature-length mismatch.
    pub fn offer(&mut self, features: &[f32]) -> Result<bool> {
        if features.len() != self.feature_dim {
            return Err(DetectError::InvalidInput {
                reason: format!(
                    "offered vector has length {}, reservoir holds {}-dim features",
                    features.len(),
                    self.feature_dim
                ),
            });
        }
        self.seen = self.seen.saturating_add(1);
        if self.len() < self.capacity {
            self.samples.extend_from_slice(features);
            return Ok(true);
        }
        // Replacement slot j uniform over everything seen so far; the
        // offered vector survives iff j lands inside the reservoir.
        let bound = usize::try_from(self.seen).unwrap_or(usize::MAX).max(1);
        let j = self.rng.index(bound);
        if j < self.capacity {
            if let Some(slot) = self.samples.chunks_exact_mut(self.feature_dim).nth(j) {
                slot.copy_from_slice(features);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Filled sample slots.
    pub fn len(&self) -> usize {
        self.samples.len() / self.feature_dim
    }

    /// `true` if no sample has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total vectors offered over the reservoir's lifetime.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Length of the feature vectors held.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The current sample set, one feature vector per item.
    pub fn samples(&self) -> impl Iterator<Item = &[f32]> {
        self.samples.chunks_exact(self.feature_dim)
    }

    /// Trains a replacement forest from the current sample set. The
    /// cold half of the refit loop — allocates freely.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] if `config` is out of envelope
    /// or its pyramid depth disagrees with the reservoir's feature
    /// dimension; [`DetectError::InvalidInput`] if fewer than two
    /// samples have been collected.
    pub fn refit(&self, config: &DetectorConfig) -> Result<Detector> {
        config.validate()?;
        if feature_dim(config.scales) != self.feature_dim {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "refit config wants {}-dim features ({} scales), reservoir holds {}-dim",
                    feature_dim(config.scales),
                    config.scales,
                    self.feature_dim
                ),
            });
        }
        if self.len() < 2 {
            return Err(DetectError::InvalidInput {
                reason: format!("reservoir too cold to refit: {} sample(s)", self.len()),
            });
        }
        let mut rows = Vec::default();
        rows.reserve_exact(self.len());
        for sample in self.samples() {
            let mut row: Vec<f32> = Vec::default();
            row.reserve_exact(self.feature_dim);
            row.extend_from_slice(sample);
            rows.push(row);
        }
        Detector::fit(&rows, config)
    }

    /// Serializes to the `FADEMLR1` byte format (CRC-32 trailer
    /// included), capturing the full RNG state so a reloaded reservoir
    /// continues the exact sampling stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(RESERVOIR_MAGIC);
        w.put_u32(u32::try_from(self.capacity).unwrap_or(u32::MAX));
        w.put_u32(u32::try_from(self.feature_dim).unwrap_or(u32::MAX));
        w.put_u32(u32::try_from(self.len()).unwrap_or(u32::MAX));
        w.put_u64(self.seen);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        for &v in &self.samples {
            w.put_f32(v);
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parses and fully validates a `FADEMLR1` artifact. Truncations,
    /// bit flips, and over-cap structural fields are typed
    /// [`DetectError::Corrupt`] — never a panic or an over-allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<FeatureReservoir> {
        let Some((body, tail)) = bytes
            .split_last_chunk::<4>()
            .filter(|(body, _)| body.len() >= RESERVOIR_MAGIC.len())
        else {
            return Err(corrupt(format!(
                "reservoir artifact too short ({} bytes)",
                bytes.len()
            )));
        };
        let stored = u32::from_le_bytes(*tail);
        let actual = crc32(body);
        if stored != actual {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let mut r = ByteReader::new(body);
        let magic = r
            .get_bytes(RESERVOIR_MAGIC.len())
            .map_err(|_| corrupt("truncated magic"))?;
        if magic != RESERVOIR_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let capacity = read_field(&mut r, "capacity")?;
        let dim = read_field(&mut r, "feature_dim")?;
        let filled = read_field(&mut r, "filled count")?;
        let seen = r.get_u64().map_err(|_| corrupt("truncated seen count"))?;
        let mut state = [0u64; 4];
        for word in state.iter_mut() {
            *word = r.get_u64().map_err(|_| corrupt("truncated rng state"))?;
        }
        if !(2..=MAX_RESERVOIR).contains(&capacity) {
            return Err(corrupt(format!("capacity {capacity} out of range")));
        }
        if dim == 0 || dim > MAX_RESERVOIR_DIM {
            return Err(corrupt(format!("feature_dim {dim} out of range")));
        }
        if filled > capacity {
            return Err(corrupt(format!(
                "filled count {filled} exceeds capacity {capacity}"
            )));
        }
        if seen < filled as u64 {
            return Err(corrupt(format!(
                "seen count {seen} below filled count {filled}"
            )));
        }
        let mut reservoir = FeatureReservoir::new(capacity, dim, 0)?;
        reservoir.rng = TensorRng::from_state(state);
        reservoir.seen = seen;
        for _ in 0..filled * dim {
            let v = r.get_f32().map_err(|_| corrupt("truncated sample data"))?;
            reservoir.samples.push(v);
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(reservoir)
    }

    /// Persists the artifact via the workspace atomic write path: the
    /// previous snapshot survives any crash mid-write.
    ///
    /// # Errors
    ///
    /// [`DetectError::Io`]-mapped failures from the tensor IO layer.
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.to_bytes())?;
        Ok(())
    }

    /// Loads and validates an artifact written by
    /// [`FeatureReservoir::save`].
    ///
    /// # Errors
    ///
    /// Typed IO or [`DetectError::Corrupt`] errors; never a panic.
    pub fn load(path: &Path) -> Result<FeatureReservoir> {
        let bytes = read_artifact(path)?;
        FeatureReservoir::from_bytes(&bytes)
    }
}

fn read_field(r: &mut ByteReader<'_>, what: &str) -> Result<usize> {
    let v = r
        .get_u32()
        .map_err(|_| corrupt(format!("truncated {what}")))?;
    Ok(usize::try_from(v).unwrap_or(usize::MAX))
}

/// Area under the ROC curve of `detector` separating `adversarial`
/// from `clean` feature vectors — the Mann–Whitney rank form with
/// average-rank tie handling. Used by the swap validator: a candidate
/// refit must not regress this on the held-out slice.
///
/// # Errors
///
/// [`DetectError::InvalidInput`] if either side is empty, or any
/// scoring error from the detector (e.g. a dimension mismatch).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the rank sums run in f64; the AUC rounds to f32"
)]
pub fn holdout_auc(
    detector: &Detector,
    clean: &[Vec<f32>],
    adversarial: &[Vec<f32>],
) -> Result<f32> {
    if clean.is_empty() || adversarial.is_empty() {
        return Err(DetectError::InvalidInput {
            reason: format!(
                "holdout AUC needs both sides: {} clean, {} adversarial",
                clean.len(),
                adversarial.len()
            ),
        });
    }
    let mut scored: Vec<(f32, bool)> = Vec::default();
    scored.reserve_exact(clean.len() + adversarial.len());
    for sample in clean {
        scored.push((detector.score(sample)?, false));
    }
    for sample in adversarial {
        scored.push((detector.score(sample)?, true));
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Average-rank walk over tie groups: ranks are 1-based.
    let mut rank_sum_adv = 0.0f64;
    let mut processed = 0usize;
    let mut iter = scored.iter().peekable();
    while let Some(&(score, _)) = iter.peek().copied() {
        let mut group_adv = 0usize;
        let mut group_len = 0usize;
        while let Some(&&(s, adv)) = iter.peek() {
            if s.to_bits() != score.to_bits() {
                break;
            }
            group_len += 1;
            if adv {
                group_adv += 1;
            }
            iter.next();
        }
        // Ranks processed+1 ..= processed+group_len share the average.
        let avg_rank = processed as f64 + (group_len as f64 + 1.0) / 2.0;
        rank_sum_adv += avg_rank * group_adv as f64;
        processed += group_len;
    }
    let n_adv = adversarial.len() as f64;
    let n_clean = clean.len() as f64;
    let auc = (rank_sum_adv - n_adv * (n_adv + 1.0) / 2.0) / (n_adv * n_clean);
    Ok(auc as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;

    fn vector(rng: &mut TensorRng, dim: usize, base: f32) -> Vec<f32> {
        (0..dim)
            .map(|_| base + rng.uniform_scalar(-0.05, 0.05))
            .collect()
    }

    #[test]
    fn fills_then_samples_uniformly_and_deterministically() {
        let dim = 12;
        let mut a = FeatureReservoir::new(16, dim, 7).unwrap();
        let mut b = FeatureReservoir::new(16, dim, 7).unwrap();
        let mut rng = TensorRng::seed_from_u64(3);
        for i in 0..200 {
            let v = vector(&mut rng, dim, i as f32 / 200.0);
            let ka = a.offer(&v).unwrap();
            let kb = b.offer(&v).unwrap();
            assert_eq!(ka, kb, "same seed + stream must make same decisions");
        }
        assert_eq!(a.len(), 16);
        assert_eq!(a.seen(), 200);
        let av: Vec<&[f32]> = a.samples().collect();
        let bv: Vec<&[f32]> = b.samples().collect();
        assert_eq!(av, bv);
        // A different seed diverges.
        let mut c = FeatureReservoir::new(16, dim, 8).unwrap();
        let mut rng = TensorRng::seed_from_u64(3);
        for i in 0..200 {
            let v = vector(&mut rng, dim, i as f32 / 200.0);
            c.offer(&v).unwrap();
        }
        let cv: Vec<&[f32]> = c.samples().collect();
        assert_ne!(av, cv);
    }

    #[test]
    fn offer_rejects_wrong_dim_and_validates_config() {
        let mut r = FeatureReservoir::new(4, 6, 0).unwrap();
        assert!(matches!(
            r.offer(&[0.0; 5]),
            Err(DetectError::InvalidInput { .. })
        ));
        assert!(matches!(
            FeatureReservoir::new(1, 6, 0),
            Err(DetectError::InvalidConfig { .. })
        ));
        assert!(matches!(
            FeatureReservoir::new(4, 0, 0),
            Err(DetectError::InvalidConfig { .. })
        ));
        assert!(matches!(
            FeatureReservoir::new(4, MAX_RESERVOIR_DIM + 1, 0),
            Err(DetectError::InvalidConfig { .. })
        ));
        assert!(matches!(
            FeatureReservoir::new(MAX_RESERVOIR + 1, 6, 0),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn offer_never_reallocates_after_construction() {
        let dim = 12;
        let mut r = FeatureReservoir::new(32, dim, 1).unwrap();
        let cap_before = r.samples.capacity();
        let mut rng = TensorRng::seed_from_u64(5);
        for i in 0..500 {
            let v = vector(&mut rng, dim, i as f32 / 500.0);
            r.offer(&v).unwrap();
        }
        assert_eq!(
            r.samples.capacity(),
            cap_before,
            "offer must stay allocation-free"
        );
    }

    #[test]
    fn persistence_round_trips_and_resumes_the_exact_stream() {
        let dim = 12;
        let mut live = FeatureReservoir::new(8, dim, 42).unwrap();
        let mut rng = TensorRng::seed_from_u64(9);
        for i in 0..50 {
            live.offer(&vector(&mut rng, dim, i as f32 / 50.0)).unwrap();
        }
        let bytes = live.to_bytes();
        let mut restored = FeatureReservoir::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.seen(), live.seen());
        // Continuing both must make bit-identical sampling decisions.
        for i in 0..100 {
            let v = vector(&mut rng, dim, i as f32 / 100.0);
            assert_eq!(live.offer(&v).unwrap(), restored.offer(&v).unwrap());
        }
        let lv: Vec<&[f32]> = live.samples().collect();
        let rv: Vec<&[f32]> = restored.samples().collect();
        assert_eq!(lv, rv);
    }

    #[test]
    fn every_truncation_and_byte_flip_is_refused() {
        let dim = 6;
        let mut r = FeatureReservoir::new(4, dim, 3).unwrap();
        let mut rng = TensorRng::seed_from_u64(2);
        for i in 0..10 {
            r.offer(&vector(&mut rng, dim, i as f32 * 0.1)).unwrap();
        }
        let bytes = r.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                FeatureReservoir::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must be refused"
            );
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x20;
            assert!(
                FeatureReservoir::from_bytes(&mutated).is_err(),
                "bit flip at byte {i} must be refused"
            );
        }
    }

    #[test]
    fn oversized_structural_fields_are_refused_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_bytes(RESERVOIR_MAGIC);
        w.put_u32(u32::MAX); // capacity: hostile
        w.put_u32(6);
        w.put_u32(0);
        w.put_u64(0);
        for _ in 0..4 {
            w.put_u64(0);
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        match FeatureReservoir::from_bytes(&bytes) {
            Err(DetectError::Corrupt { reason }) => {
                assert!(reason.contains("capacity"), "{reason}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("fademl-reservoir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.frsv");
        let dim = 12;
        let mut r = FeatureReservoir::new(8, dim, 11).unwrap();
        let mut rng = TensorRng::seed_from_u64(4);
        for i in 0..30 {
            r.offer(&vector(&mut rng, dim, i as f32 / 30.0)).unwrap();
        }
        r.save(&path).unwrap();
        let back = FeatureReservoir::load(&path).unwrap();
        assert_eq!(back.to_bytes(), r.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refit_trains_a_working_detector() {
        let config = DetectorConfig {
            trees: 16,
            subsample: 24,
            scales: 2,
            seed: 77,
        };
        let dim = feature_dim(config.scales);
        let mut r = FeatureReservoir::new(32, dim, 5).unwrap();
        let mut rng = TensorRng::seed_from_u64(6);
        for _ in 0..100 {
            r.offer(&vector(&mut rng, dim, 0.4)).unwrap();
        }
        let det = r.refit(&config).unwrap();
        assert_eq!(det.feature_dim(), dim);
        // In-distribution scores low, far-off vectors score high.
        let inlier = det.score(&vector(&mut rng, dim, 0.4)).unwrap();
        let outlier = det.score(&vec![7.0; dim]).unwrap();
        assert!(outlier > inlier, "outlier {outlier} vs inlier {inlier}");
        // Refit is deterministic from the reservoir + config.
        let again = r.refit(&config).unwrap();
        assert_eq!(again.to_bytes(), det.to_bytes());
    }

    #[test]
    fn refit_rejects_mismatched_scales_and_cold_reservoirs() {
        let config = DetectorConfig {
            trees: 8,
            subsample: 8,
            scales: 3,
            seed: 1,
        };
        let r = FeatureReservoir::new(8, 12, 0).unwrap(); // 12-dim = 2 scales
        assert!(matches!(
            r.refit(&config),
            Err(DetectError::InvalidConfig { .. })
        ));
        let cold = FeatureReservoir::new(8, 18, 0).unwrap();
        assert!(matches!(
            cold.refit(&DetectorConfig {
                scales: 3,
                ..config
            }),
            Err(DetectError::InvalidInput { .. })
        ));
    }

    #[test]
    fn holdout_auc_separates_and_handles_edges() {
        let config = DetectorConfig {
            trees: 16,
            subsample: 32,
            scales: 2,
            seed: 13,
        };
        let dim = feature_dim(config.scales);
        let mut rng = TensorRng::seed_from_u64(21);
        let train: Vec<Vec<f32>> = (0..64).map(|_| vector(&mut rng, dim, 0.5)).collect();
        let det = Detector::fit(&train, &config).unwrap();
        let clean: Vec<Vec<f32>> = (0..16).map(|_| vector(&mut rng, dim, 0.5)).collect();
        let adversarial: Vec<Vec<f32>> = (0..16).map(|_| vector(&mut rng, dim, 3.0)).collect();
        let auc = holdout_auc(&det, &clean, &adversarial).unwrap();
        assert!(auc > 0.9, "separable sets must give high AUC, got {auc}");
        // Identical sets land at chance.
        let auc_same = holdout_auc(&det, &clean, &clean).unwrap();
        assert!((auc_same - 0.5).abs() < 1e-3, "got {auc_same}");
        assert!(matches!(
            holdout_auc(&det, &[], &adversarial),
            Err(DetectError::InvalidInput { .. })
        ));
    }
}
