//! Deterministic isolation forest over multi-scale image features.
//!
//! An isolation forest scores how *easy* a point is to separate from
//! the training distribution: random axis-aligned splits isolate
//! anomalies in few cuts, so a short average path length over the
//! ensemble ⇒ high anomaly score `s = 2^(−E[h(x)]/c(ψ))` in `(0, 1)`.
//! Fitting is fully deterministic from a single `u64` seed through the
//! workspace [`TensorRng`] stream — same seed + same samples ⇒
//! bit-identical trees and scores at every compute-thread count
//! (scoring is serial scalar code, no parallel kernels involved).
//!
//! Persistence is a [`fademl_tensor::io::Envelope`] like every other
//! workspace artifact: magic `FADEMLD1`, little-endian fields, a CRC-32
//! trailer over everything before it, and **every structural field
//! cap-checked before any allocation** so hostile bytes produce typed
//! [`DetectError::Corrupt`] instead of panics or over-allocation. Tree
//! topology is validated on load: children strictly follow their parent
//! (preorder), so a loaded tree cannot cycle and scoring always
//! terminates.

use std::path::Path;

use fademl_tensor::io::{atomic_write, read_artifact, ByteReader, CrcScope, Envelope};
use fademl_tensor::{Tensor, TensorRng};
use serde::{Deserialize, Serialize};

use crate::error::{corrupt, DetectError, Result};
use crate::features::{
    extract_into, feature_dim, pyramid_features, with_thread_scratch, ScalePlan,
    FEATURES_PER_SCALE, MAX_SCALES,
};

/// Magic bytes of the serialized detector format.
pub const DETECTOR_MAGIC: &[u8; 8] = b"FADEMLD1";

/// The `FADEMLD1` framing: the CRC covers everything before it, magic
/// included.
const DETECTOR: Envelope = Envelope {
    magic: DETECTOR_MAGIC,
    crc: CrcScope::FromStart,
};

/// Most trees a detector artifact may carry.
pub const MAX_TREES: usize = 1024;

/// Most nodes a single tree may carry (a tree over ψ samples has at
/// most `2ψ − 1` nodes; this cap is far above any legal fit).
pub const MAX_NODES: usize = 1 << 20;

/// Largest per-tree subsample size.
pub const MAX_SUBSAMPLE: usize = 1 << 20;

/// Bytes of the smallest encoded node: a leaf's tag and size.
const LEAF_BYTES: usize = 1 + 4;

/// Bytes of the smallest encoded tree: a node count and one leaf.
const MIN_TREE_BYTES: usize = 4 + LEAF_BYTES;

/// Euler–Mascheroni constant, for the harmonic-number approximation in
/// the average-path normalizer.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Fit-time knobs of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Ensemble size. More trees ⇒ smoother scores, linear cost.
    pub trees: usize,
    /// Per-tree subsample size ψ (clamped to the training-set size).
    pub subsample: usize,
    /// Pyramid depth for feature extraction.
    pub scales: usize,
    /// Seed for the deterministic tree construction stream.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            trees: 50,
            subsample: 96,
            scales: 3,
            seed: 0xFADE_0007,
        }
    }
}

impl DetectorConfig {
    /// Rejects out-of-envelope knobs with a typed error.
    pub fn validate(&self) -> Result<()> {
        if self.trees == 0 || self.trees > MAX_TREES {
            return Err(DetectError::InvalidConfig {
                reason: format!("trees must be in 1..={MAX_TREES}, got {}", self.trees),
            });
        }
        if self.subsample < 2 || self.subsample > MAX_SUBSAMPLE {
            return Err(DetectError::InvalidConfig {
                reason: format!(
                    "subsample must be in 2..={MAX_SUBSAMPLE}, got {}",
                    self.subsample
                ),
            });
        }
        if self.scales == 0 || self.scales > MAX_SCALES {
            return Err(DetectError::InvalidConfig {
                reason: format!("scales must be in 1..={MAX_SCALES}, got {}", self.scales),
            });
        }
        Ok(())
    }
}

/// One node of an isolation tree, preorder-stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Terminal node holding `size` training samples.
    Leaf {
        /// Number of subsample points that reached this node.
        size: u32,
    },
    /// Binary split on one feature.
    Split {
        /// Feature index into the multi-scale vector.
        feature: u32,
        /// Values strictly below go left; `NaN` comparisons go right.
        threshold: f32,
        /// Arena index of the left child (always > the node's own).
        left: u32,
        /// Arena index of the right child (always > the node's own).
        right: u32,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct Tree {
    nodes: Vec<Node>,
}

/// A fitted multi-scale isolation forest.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    scales: usize,
    feature_dim: usize,
    /// Effective per-tree subsample ψ (normalizes path lengths).
    subsample: u32,
    seed: u64,
    trees: Vec<Tree>,
}

impl Detector {
    /// Fits a forest over pre-extracted feature vectors. Every sample
    /// must have length `feature_dim(config.scales)`.
    pub fn fit(samples: &[Vec<f32>], config: &DetectorConfig) -> Result<Detector> {
        config.validate()?;
        let dim = feature_dim(config.scales);
        if samples.len() < 2 {
            return Err(DetectError::InvalidInput {
                reason: format!("need at least 2 training samples, got {}", samples.len()),
            });
        }
        if let Some(bad) = samples.iter().find(|s| s.len() != dim) {
            return Err(DetectError::InvalidInput {
                reason: format!(
                    "feature vector length {} does not match {} ({} scales x {})",
                    bad.len(),
                    dim,
                    config.scales,
                    FEATURES_PER_SCALE
                ),
            });
        }
        let psi = config.subsample.min(samples.len());
        let depth_limit = ceil_log2(psi).max(1);
        let mut rng = TensorRng::seed_from_u64(config.seed);
        let mut indices: Vec<usize> = (0..samples.len()).collect();
        let mut trees = Vec::with_capacity(config.trees);
        for _ in 0..config.trees {
            rng.shuffle(&mut indices);
            let members: Vec<usize> = indices.iter().take(psi).copied().collect();
            let mut nodes = Vec::new();
            build_node(&mut nodes, samples, &members, 0, depth_limit, &mut rng)?;
            trees.push(Tree { nodes });
        }
        Ok(Detector {
            scales: config.scales,
            feature_dim: dim,
            subsample: u32::try_from(psi).unwrap_or(u32::MAX),
            seed: config.seed,
            trees,
        })
    }

    /// Convenience fit over `[C, H, W]` images: extracts the
    /// multi-scale features of each, then fits.
    pub fn fit_images(images: &[Tensor], config: &DetectorConfig) -> Result<Detector> {
        config.validate()?;
        let mut feats = Vec::with_capacity(images.len());
        for image in images {
            feats.push(pyramid_features(image, config.scales)?);
        }
        Detector::fit(&feats, config)
    }

    /// Anomaly score of a pre-extracted feature vector, in `(0, 1)`.
    /// Higher ⇒ more isolated from the training distribution.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "path lengths average in f64; the score rounds to f32"
    )]
    pub fn score(&self, features: &[f32]) -> Result<f32> {
        if features.len() != self.feature_dim {
            return Err(DetectError::InvalidInput {
                reason: format!(
                    "feature vector length {} does not match fitted dim {}",
                    features.len(),
                    self.feature_dim
                ),
            });
        }
        let mut total = 0.0f64;
        for tree in &self.trees {
            total += path_length(tree, features);
        }
        let mean_path = total / self.trees.len().max(1) as f64;
        let norm = c_norm(f64::from(self.subsample)).max(f64::MIN_POSITIVE);
        let score = 2.0f64.powf(-mean_path / norm);
        Ok(score as f32)
    }

    /// Anomaly score of a `[C, H, W]` image (feature extraction at the
    /// detector's fitted pyramid depth, then [`Detector::score`]).
    ///
    /// The scale plan is a few compares on the stack and pixel buffers
    /// are reused per thread, so a stream of same-sized frames scores
    /// without heap allocation.
    pub fn score_image(&self, image: &Tensor) -> Result<f32> {
        let plan = ScalePlan::build(self.scales, image.dims())?;
        with_thread_scratch(|scratch| {
            extract_into(&plan, image, scratch)?;
            self.score(scratch.features())
        })
    }

    /// Pyramid depth the detector was fitted with.
    pub fn scales(&self) -> usize {
        self.scales
    }

    /// Length of the feature vectors the detector scores.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Ensemble size.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Seed the forest was fitted from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serializes to the `FADEMLD1` byte format (CRC-32 trailer
    /// included). The encoding is canonical: equal detectors produce
    /// equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = DETECTOR.writer();
        w.put_u32(u32::try_from(self.scales).unwrap_or(u32::MAX));
        w.put_u32(u32::try_from(self.feature_dim).unwrap_or(u32::MAX));
        w.put_u32(self.subsample);
        w.put_u32(u32::try_from(self.trees.len()).unwrap_or(u32::MAX));
        w.put_u64(self.seed);
        for tree in &self.trees {
            w.put_u32(u32::try_from(tree.nodes.len()).unwrap_or(u32::MAX));
            for node in &tree.nodes {
                match *node {
                    Node::Leaf { size } => {
                        w.put_u8(0);
                        w.put_u32(size);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        w.put_u8(1);
                        w.put_u32(feature);
                        w.put_f32(threshold);
                        w.put_u32(left);
                        w.put_u32(right);
                    }
                }
            }
        }
        DETECTOR.seal(w)
    }

    /// Parses and fully validates a `FADEMLD1` artifact. Any
    /// truncation, bit flip, over-cap field, dangling feature/child
    /// reference, or non-finite threshold is a typed
    /// [`DetectError::Corrupt`] — never a panic or a large allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Detector> {
        let body = DETECTOR
            .open(bytes)
            .map_err(|refusal| corrupt(format!("detector artifact: {refusal}")))?;
        let mut r = ByteReader::new(body);
        let scales = read_usize(&mut r, "scales")?;
        let dim = read_usize(&mut r, "feature_dim")?;
        let subsample = r.get_u32().map_err(|_| corrupt("truncated subsample"))?;
        let tree_count = read_usize(&mut r, "tree count")?;
        let seed = r.get_u64().map_err(|_| corrupt("truncated seed"))?;
        if scales == 0 || scales > MAX_SCALES {
            return Err(corrupt(format!("scales {scales} out of range")));
        }
        if dim != feature_dim(scales) {
            return Err(corrupt(format!(
                "feature dim {dim} inconsistent with {scales} scales"
            )));
        }
        let psi = usize::try_from(subsample).unwrap_or(usize::MAX);
        if !(2..=MAX_SUBSAMPLE).contains(&psi) {
            return Err(corrupt(format!("subsample {subsample} out of range")));
        }
        if tree_count == 0 || tree_count > MAX_TREES {
            return Err(corrupt(format!("tree count {tree_count} out of range")));
        }
        // Declared counts reserve no more records than the unread body
        // can hold.
        let mut trees = Vec::with_capacity(tree_count.min(r.remaining() / MIN_TREE_BYTES));
        for t in 0..tree_count {
            let node_count = read_usize(&mut r, "node count")?;
            if node_count == 0 || node_count > MAX_NODES {
                return Err(corrupt(format!(
                    "tree {t}: node count {node_count} out of range"
                )));
            }
            let mut nodes = Vec::with_capacity(node_count.min(r.remaining() / LEAF_BYTES));
            for i in 0..node_count {
                let tag = r.get_u8().map_err(|_| corrupt("truncated node tag"))?;
                let node = match tag {
                    0 => {
                        let size = r.get_u32().map_err(|_| corrupt("truncated leaf size"))?;
                        if size == 0 || usize::try_from(size).unwrap_or(usize::MAX) > MAX_SUBSAMPLE
                        {
                            return Err(corrupt(format!("tree {t} node {i}: leaf size {size}")));
                        }
                        Node::Leaf { size }
                    }
                    1 => {
                        let feature = r.get_u32().map_err(|_| corrupt("truncated feature"))?;
                        let threshold = r.get_f32().map_err(|_| corrupt("truncated threshold"))?;
                        let left = r.get_u32().map_err(|_| corrupt("truncated left child"))?;
                        let right = r.get_u32().map_err(|_| corrupt("truncated right child"))?;
                        if usize::try_from(feature).unwrap_or(usize::MAX) >= dim {
                            return Err(corrupt(format!(
                                "tree {t} node {i}: feature {feature} out of range"
                            )));
                        }
                        if !threshold.is_finite() {
                            return Err(corrupt(format!(
                                "tree {t} node {i}: non-finite threshold"
                            )));
                        }
                        // Preorder invariant: children strictly follow
                        // their parent, so walks terminate.
                        let (lu, ru) = (
                            usize::try_from(left).unwrap_or(usize::MAX),
                            usize::try_from(right).unwrap_or(usize::MAX),
                        );
                        if lu <= i || ru <= i || lu >= node_count || ru >= node_count || lu == ru {
                            return Err(corrupt(format!(
                                "tree {t} node {i}: bad children {left}/{right}"
                            )));
                        }
                        Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        }
                    }
                    other => return Err(corrupt(format!("tree {t} node {i}: bad tag {other}"))),
                };
                nodes.push(node);
            }
            trees.push(Tree { nodes });
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok(Detector {
            scales,
            feature_dim: dim,
            subsample,
            seed,
            trees,
        })
    }

    /// Persists the artifact via the workspace atomic write path.
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.to_bytes())?;
        Ok(())
    }

    /// Loads and validates an artifact written by [`Detector::save`].
    pub fn load(path: &Path) -> Result<Detector> {
        let bytes = read_artifact(path)?;
        Detector::from_bytes(&bytes)
    }
}

fn read_usize(r: &mut ByteReader<'_>, what: &str) -> Result<usize> {
    let v = r
        .get_u32()
        .map_err(|_| corrupt(format!("truncated {what}")))?;
    Ok(usize::try_from(v).unwrap_or(usize::MAX))
}

/// Smallest `d` with `2^d >= n`.
fn ceil_log2(n: usize) -> usize {
    let mut d = 0;
    let mut reach = 1usize;
    while reach < n {
        reach = reach.saturating_mul(2);
        d += 1;
    }
    d
}

/// Average unsuccessful-search path length of a BST over `n` points —
/// the standard isolation-forest normalizer `c(n)`.
fn c_norm(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else if n <= 2.0 {
        1.0
    } else {
        2.0 * ((n - 1.0).ln() + EULER_GAMMA) - 2.0 * (n - 1.0) / n
    }
}

/// Recursively grows one isolation tree in preorder. Returns the arena
/// index of the node it created.
fn build_node(
    nodes: &mut Vec<Node>,
    samples: &[Vec<f32>],
    members: &[usize],
    depth: usize,
    limit: usize,
    rng: &mut TensorRng,
) -> Result<u32> {
    if nodes.len() >= MAX_NODES {
        return Err(DetectError::InvalidConfig {
            reason: format!("tree exceeded {MAX_NODES} nodes"),
        });
    }
    let here = u32::try_from(nodes.len()).unwrap_or(u32::MAX);
    let size = u32::try_from(members.len()).unwrap_or(u32::MAX).max(1);
    if members.len() <= 1 || depth >= limit {
        nodes.push(Node::Leaf { size });
        return Ok(here);
    }
    let dim = samples.first().map(Vec::len).unwrap_or(0);
    // Pick a random feature; if it has no spread among the members,
    // scan forward (deterministically) for one that does.
    let start = rng.index(dim.max(1));
    let mut split = None;
    for off in 0..dim {
        let f = start
            .checked_add(off)
            .map(|s| s % dim)
            .unwrap_or(off % dim.max(1));
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &m in members {
            let v = samples
                .get(m)
                .and_then(|s| s.get(f))
                .copied()
                .unwrap_or(f32::NAN);
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi > lo {
            split = Some((f, lo, hi));
            break;
        }
    }
    let Some((f, lo, hi)) = split else {
        // All members identical on every feature: nothing isolates them.
        nodes.push(Node::Leaf { size });
        return Ok(here);
    };
    let threshold = rng.uniform_scalar(lo, hi);
    let mut left_members = Vec::new();
    let mut right_members = Vec::new();
    for &m in members {
        let v = samples
            .get(m)
            .and_then(|s| s.get(f))
            .copied()
            .unwrap_or(f32::NAN);
        if v < threshold {
            left_members.push(m);
        } else {
            right_members.push(m);
        }
    }
    if left_members.is_empty() || right_members.is_empty() {
        // uniform_scalar may land on the exact minimum; degenerate
        // splits become leaves rather than infinite recursion.
        nodes.push(Node::Leaf { size });
        return Ok(here);
    }
    nodes.push(Node::Split {
        feature: u32::try_from(f).unwrap_or(u32::MAX),
        threshold,
        left: 0,
        right: 0,
    });
    let left = build_node(nodes, samples, &left_members, depth + 1, limit, rng)?;
    let right = build_node(nodes, samples, &right_members, depth + 1, limit, rng)?;
    let here_usize = usize::try_from(here).unwrap_or(usize::MAX);
    if let Some(Node::Split {
        left: l, right: r, ..
    }) = nodes.get_mut(here_usize)
    {
        *l = left;
        *r = right;
    }
    Ok(here)
}

/// Path length of one feature vector through one tree, including the
/// `c(size)` adjustment at the terminal leaf. The preorder child
/// invariant guarantees termination; a hop counter bounds the walk
/// defensively anyway.
fn path_length(tree: &Tree, features: &[f32]) -> f64 {
    let mut idx = 0usize;
    let mut depth = 0.0f64;
    let mut hops = 0usize;
    loop {
        let Some(node) = tree.nodes.get(idx) else {
            return depth;
        };
        match *node {
            Node::Leaf { size } => return depth + c_norm(f64::from(size)),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let fi = usize::try_from(feature).unwrap_or(usize::MAX);
                let v = features.get(fi).copied().unwrap_or(f32::NAN);
                // NaN comparisons are false ⇒ NaN goes right, totally.
                let next = if v < threshold { left } else { right };
                idx = usize::try_from(next).unwrap_or(usize::MAX);
                depth += 1.0;
                hops += 1;
                if hops > tree.nodes.len() {
                    return depth;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_images(n: usize, seed: u64) -> Vec<Tensor> {
        // Smooth-ish images: low-frequency ramps plus mild sensor noise.
        let mut rng = TensorRng::seed_from_u64(seed);
        let side = 16usize;
        (0..n)
            .map(|_| {
                let base = rng.uniform_scalar(0.2, 0.8);
                let tilt = rng.uniform_scalar(-0.3, 0.3);
                let mut data = Vec::with_capacity(3 * side * side);
                for _ in 0..3 {
                    for y in 0..side {
                        for x in 0..side {
                            let v = base
                                + tilt * (y + x) as f32 / (2 * side) as f32
                                + 0.01 * rng.normal_scalar();
                            data.push(v.clamp(0.0, 1.0));
                        }
                    }
                }
                Tensor::from_vec(data, fademl_tensor::Shape::new(vec![3, side, side])).unwrap()
            })
            .collect()
    }

    fn small_config() -> DetectorConfig {
        DetectorConfig {
            trees: 25,
            subsample: 32,
            scales: 2,
            seed: 99,
        }
    }

    #[test]
    fn fit_is_deterministic_from_the_seed() {
        let images = training_images(48, 5);
        let a = Detector::fit_images(&images, &small_config()).unwrap();
        let b = Detector::fit_images(&images, &small_config()).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
        let mut other = small_config();
        other.seed = 100;
        let c = Detector::fit_images(&images, &other).unwrap();
        assert_ne!(a.to_bytes(), c.to_bytes());
    }

    #[test]
    fn scores_are_in_unit_interval_and_anomalies_score_higher() {
        let images = training_images(64, 7);
        let det = Detector::fit_images(&images, &small_config()).unwrap();
        let mut rng = TensorRng::seed_from_u64(1234);
        let clean_mean: f32 = images
            .iter()
            .take(16)
            .map(|img| det.score_image(img).unwrap())
            .sum::<f32>()
            / 16.0;
        let noise_mean: f32 = (0..16)
            .map(|_| {
                let img = rng.uniform(&[3, 16, 16], 0.0, 1.0);
                det.score_image(&img).unwrap()
            })
            .sum::<f32>()
            / 16.0;
        assert!(clean_mean > 0.0 && clean_mean < 1.0);
        assert!(noise_mean > 0.0 && noise_mean < 1.0);
        assert!(
            noise_mean > clean_mean + 0.05,
            "iid noise should be anomalous: clean {clean_mean} vs noise {noise_mean}"
        );
    }

    #[test]
    fn round_trip_is_byte_exact_and_score_preserving() {
        let images = training_images(40, 21);
        let det = Detector::fit_images(&images, &small_config()).unwrap();
        let bytes = det.to_bytes();
        let back = Detector::from_bytes(&bytes).unwrap();
        assert_eq!(back, det);
        assert_eq!(back.to_bytes(), bytes);
        let probe = images.first().unwrap();
        assert_eq!(
            det.score_image(probe).unwrap().to_bits(),
            back.score_image(probe).unwrap().to_bits()
        );
    }

    #[test]
    fn every_truncation_is_refused() {
        let images = training_images(16, 2);
        let cfg = DetectorConfig {
            trees: 4,
            subsample: 8,
            scales: 2,
            seed: 1,
        };
        let bytes = Detector::fit_images(&images, &cfg).unwrap().to_bytes();
        for len in 0..bytes.len() {
            let truncated = &bytes[..len];
            assert!(
                Detector::from_bytes(truncated).is_err(),
                "truncation to {len} bytes must be refused"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_refused_or_revalidated() {
        let images = training_images(16, 3);
        let cfg = DetectorConfig {
            trees: 2,
            subsample: 8,
            scales: 1,
            seed: 4,
        };
        let bytes = Detector::fit_images(&images, &cfg).unwrap().to_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x40;
            // CRC catches every single-byte flip (including flips in
            // the trailer itself).
            assert!(
                Detector::from_bytes(&mutated).is_err(),
                "bit flip at byte {i} must be refused"
            );
        }
    }

    #[test]
    fn oversized_structural_fields_are_refused_before_allocation() {
        // Hand-build a header claiming u32::MAX trees with a valid CRC:
        // the cap check must fire, not an allocation.
        let mut w = DETECTOR.writer();
        w.put_u32(2); // scales
        w.put_u32(12); // feature dim
        w.put_u32(8); // subsample
        w.put_u32(u32::MAX); // tree count
        w.put_u64(0); // seed
        match Detector::from_bytes(&DETECTOR.seal(w)) {
            Err(DetectError::Corrupt { reason }) => {
                assert!(reason.contains("tree count"), "{reason}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn dangling_children_are_refused() {
        let mut w = DETECTOR.writer();
        w.put_u32(1); // scales
        w.put_u32(6); // feature dim
        w.put_u32(4); // subsample
        w.put_u32(1); // tree count
        w.put_u64(0); // seed
        w.put_u32(3); // node count
                      // Split whose left child points at itself.
        w.put_u8(1);
        w.put_u32(0); // feature
        w.put_f32(0.5);
        w.put_u32(0); // left == self: cycle
        w.put_u32(2);
        w.put_u8(0);
        w.put_u32(1);
        w.put_u8(0);
        w.put_u32(1);
        match Detector::from_bytes(&DETECTOR.seal(w)) {
            Err(DetectError::Corrupt { reason }) => {
                assert!(reason.contains("children"), "{reason}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn score_rejects_wrong_feature_dim() {
        let images = training_images(16, 9);
        let det = Detector::fit_images(&images, &small_config()).unwrap();
        assert!(matches!(
            det.score(&[0.0; 3]),
            Err(DetectError::InvalidInput { .. })
        ));
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("fademl-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("det.fdet");
        let images = training_images(24, 13);
        let det = Detector::fit_images(&images, &small_config()).unwrap();
        det.save(&path).unwrap();
        let back = Detector::load(&path).unwrap();
        assert_eq!(back, det);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_envelope_is_enforced() {
        for bad in [
            DetectorConfig {
                trees: 0,
                ..Default::default()
            },
            DetectorConfig {
                trees: MAX_TREES + 1,
                ..Default::default()
            },
            DetectorConfig {
                subsample: 1,
                ..Default::default()
            },
            DetectorConfig {
                scales: 0,
                ..Default::default()
            },
            DetectorConfig {
                scales: MAX_SCALES + 1,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                bad.validate(),
                Err(DetectError::InvalidConfig { .. })
            ));
        }
        assert!(DetectorConfig::default().validate().is_ok());
    }
}
