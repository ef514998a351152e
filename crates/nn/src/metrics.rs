//! Evaluation metrics in the paper's reporting vocabulary: top-1 / top-5
//! accuracy and per-prediction confidence.

use fademl_tensor::Tensor;

use crate::{NnError, Result, Sequential};

/// A single sample's prediction: ranked classes with probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Class indices ranked by descending probability (top-k, k ≤ classes).
    pub top_classes: Vec<usize>,
    /// Probabilities corresponding to `top_classes`.
    pub top_probs: Vec<f32>,
}

impl Prediction {
    /// The winning class.
    #[expect(
        clippy::indexing_slicing,
        reason = "a ranking holds at least one class; an empty one is the caller's bug"
    )]
    pub fn class(&self) -> usize {
        self.top_classes[0]
    }

    /// The winning class's probability — the paper's "confidence".
    #[expect(
        clippy::indexing_slicing,
        reason = "a ranking holds at least one class; an empty one is the caller's bug"
    )]
    pub fn confidence(&self) -> f32 {
        self.top_probs[0]
    }

    /// Whether `label` appears within the top-k ranks.
    pub fn contains_in_top(&self, label: usize, k: usize) -> bool {
        self.top_classes.iter().take(k).any(|&c| c == label)
    }
}

/// Most samples any evaluation pass runs through the model at once: a
/// forward materialises every layer's activations for its whole batch
/// (a 774-image training set is ≈ 70 MiB of them at once, against
/// ≈ 6 MiB for a chunk), and a batch of `n` equals `n` single-sample
/// calls bit for bit, so chunking changes memory and nothing else.
pub const EVAL_CHUNK: usize = 64;

/// Appends the top-`k` ranking of every row of `probs`.
#[expect(
    clippy::indexing_slicing,
    reason = "a rank-2 matrix from predict_proba, and top_k ranks indices of its row"
)]
fn rank_rows(probs: &Tensor, k: usize, out: &mut Vec<Prediction>) -> Result<()> {
    for i in 0..probs.dims()[0] {
        let row = probs.row(i)?;
        let top_classes = row.top_k(k);
        let top_probs = top_classes.iter().map(|&c| row.as_slice()[c]).collect();
        out.push(Prediction {
            top_classes,
            top_probs,
        });
    }
    Ok(())
}

/// Computes top-`k` ranked predictions for a batch of inputs, running
/// the model over at most [`EVAL_CHUNK`] samples at a time.
///
/// # Errors
///
/// Propagates model forward errors.
pub fn predict_top_k(model: &Sequential, inputs: &Tensor, k: usize) -> Result<Vec<Prediction>> {
    let n = inputs.dims().first().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(n);
    if n <= EVAL_CHUNK {
        rank_rows(&model.predict_proba(inputs)?, k, &mut out)?;
        return Ok(out);
    }
    for start in (0..n).step_by(EVAL_CHUNK) {
        let chunk = inputs.select_batch(start..(start + EVAL_CHUNK).min(n))?;
        rank_rows(&model.predict_proba(&chunk)?, k, &mut out)?;
    }
    Ok(out)
}

/// Fraction of samples whose true label is the top-1 prediction.
///
/// # Errors
///
/// Returns [`NnError::ArchMismatch`] if label/batch counts differ, plus
/// any model forward error.
pub fn top1_accuracy(model: &Sequential, inputs: &Tensor, labels: &[usize]) -> Result<f32> {
    top_k_accuracy(model, inputs, labels, 1)
}

/// Fraction of samples whose true label appears in the top-5 ranked
/// predictions — the headline metric of the paper's Figs. 6, 7 and 9.
///
/// # Errors
///
/// Returns [`NnError::ArchMismatch`] if label/batch counts differ, plus
/// any model forward error.
pub fn top5_accuracy(model: &Sequential, inputs: &Tensor, labels: &[usize]) -> Result<f32> {
    top_k_accuracy(model, inputs, labels, 5)
}

/// Fraction of samples whose true label appears in the top-`k`
/// predictions.
///
/// # Errors
///
/// Returns [`NnError::ArchMismatch`] if label/batch counts differ or `k`
/// is zero, plus any model forward error.
pub fn top_k_accuracy(
    model: &Sequential,
    inputs: &Tensor,
    labels: &[usize],
    k: usize,
) -> Result<f32> {
    if k == 0 {
        return Err(NnError::InvalidConfig {
            reason: "k must be positive".into(),
        });
    }
    if inputs.dims().first().copied().unwrap_or(0) != labels.len() {
        return Err(NnError::ArchMismatch {
            reason: format!(
                "{} labels for a batch of {:?}",
                labels.len(),
                inputs.dims().first()
            ),
        });
    }
    if labels.is_empty() {
        return Ok(0.0);
    }
    let preds = predict_top_k(model, inputs, k)?;
    let hits = preds
        .iter()
        .zip(labels)
        .filter(|(p, &l)| p.contains_in_top(l, k))
        .count();
    Ok(hits as f32 / labels.len() as f32)
}

/// Per-class top-1 accuracy: entry `c` is the fraction of samples of
/// true class `c` predicted correctly, or `None` when the batch has no
/// samples of that class. Useful for spotting which sign classes a
/// victim confuses (and which scenario sources are soft targets).
///
/// # Errors
///
/// Returns [`NnError::ArchMismatch`] if any label is `>= classes` or
/// the label/batch counts differ.
pub fn per_class_accuracy(
    model: &Sequential,
    inputs: &Tensor,
    labels: &[usize],
    classes: usize,
) -> Result<Vec<Option<f32>>> {
    if inputs.dims().first().copied().unwrap_or(0) != labels.len() {
        return Err(NnError::ArchMismatch {
            reason: "label count does not match batch".into(),
        });
    }
    let preds = model.predict(inputs)?;
    let mut hits = vec![0usize; classes];
    let mut totals = vec![0usize; classes];
    for (&t, &p) in labels.iter().zip(&preds) {
        let (Some(total), Some(hit)) = (totals.get_mut(t), hits.get_mut(t)) else {
            return Err(NnError::ArchMismatch {
                reason: format!("label {t} out of range {classes}"),
            });
        };
        *total += 1;
        if p == t {
            *hit += 1;
        }
    }
    Ok(hits
        .iter()
        .zip(&totals)
        .map(|(&h, &n)| {
            if n == 0 {
                None
            } else {
                Some(h as f32 / n as f32)
            }
        })
        .collect())
}

/// Confusion counts between true and predicted labels for a batch.
///
/// Entry `[t][p]` counts samples of true class `t` predicted as `p`.
///
/// # Errors
///
/// Returns [`NnError::ArchMismatch`] if any label is `>= classes` or the
/// label/batch counts differ.
pub fn confusion_matrix(
    model: &Sequential,
    inputs: &Tensor,
    labels: &[usize],
    classes: usize,
) -> Result<Vec<Vec<usize>>> {
    if inputs.dims().first().copied().unwrap_or(0) != labels.len() {
        return Err(NnError::ArchMismatch {
            reason: "label count does not match batch".into(),
        });
    }
    let preds = model.predict(inputs)?;
    let mut matrix = vec![vec![0usize; classes]; classes];
    for (&t, &p) in labels.iter().zip(&preds) {
        let Some(cell) = matrix.get_mut(t).and_then(|row| row.get_mut(p)) else {
            return Err(NnError::ArchMismatch {
                reason: format!("label {t} or prediction {p} out of range {classes}"),
            });
        };
        *cell += 1;
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Sequential};
    use fademl_tensor::{Shape, TensorRng};

    /// A "model" whose logits equal its input (identity dense layer).
    fn identity_model(classes: usize) -> Sequential {
        let mut rng = TensorRng::seed_from_u64(0);
        let mut model = Sequential::new().push(Dense::new(classes, classes, &mut rng));
        let mut eye = Tensor::zeros(&[classes, classes]);
        for i in 0..classes {
            eye.set(&[i, i], 1.0).unwrap();
        }
        model.params_mut()[0].value = eye;
        model.params_mut()[1].value = Tensor::zeros(&[classes]);
        model
    }

    fn batch(rows: &[&[f32]]) -> Tensor {
        let cols = rows[0].len();
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor::from_vec(data, Shape::new(vec![rows.len(), cols])).unwrap()
    }

    #[test]
    fn top1_counts_exact_hits() {
        let m = identity_model(3);
        let x = batch(&[&[5.0, 0.0, 0.0], &[0.0, 0.0, 5.0]]);
        assert_eq!(top1_accuracy(&m, &x, &[0, 2]).unwrap(), 1.0);
        assert_eq!(top1_accuracy(&m, &x, &[1, 2]).unwrap(), 0.5);
    }

    #[test]
    fn top5_more_forgiving_than_top1() {
        let m = identity_model(6);
        // True class ranks 2nd.
        let x = batch(&[&[1.0, 5.0, 0.0, 0.0, 0.0, 0.0]]);
        assert_eq!(top1_accuracy(&m, &x, &[0]).unwrap(), 0.0);
        assert_eq!(top5_accuracy(&m, &x, &[0]).unwrap(), 1.0);
    }

    #[test]
    fn top_k_at_class_count_is_total() {
        let m = identity_model(3);
        let x = batch(&[&[0.0, 1.0, 2.0]]);
        assert_eq!(top_k_accuracy(&m, &x, &[0], 3).unwrap(), 1.0);
    }

    #[test]
    fn predictions_ranked_descending() {
        let m = identity_model(4);
        let x = batch(&[&[0.1, 3.0, 1.0, 2.0]]);
        let p = &predict_top_k(&m, &x, 4).unwrap()[0];
        assert_eq!(p.top_classes, vec![1, 3, 2, 0]);
        assert_eq!(p.class(), 1);
        assert!(p.confidence() > 0.25);
        for w in p.top_probs.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn chunked_predictions_equal_one_batch_predictions() {
        // Around the chunk boundary and well past it, on a network with
        // convolutions (whose forward fuses samples into tiles).
        let mut rng = TensorRng::seed_from_u64(2);
        let model = crate::vgg::VggConfig::tiny(3, 16, 6)
            .build(&mut rng)
            .unwrap();
        for n in [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 200] {
            let inputs = rng.uniform(&[n, 3, 16, 16], 0.0, 1.0);
            let mut one_batch = Vec::new();
            rank_rows(&model.predict_proba(&inputs).unwrap(), 5, &mut one_batch).unwrap();
            let chunked = predict_top_k(&model, &inputs, 5).unwrap();
            assert_eq!(chunked.len(), n);
            for (c, o) in chunked.iter().zip(&one_batch) {
                assert_eq!(c.top_classes, o.top_classes, "n = {n}");
                let bits = |p: &Prediction| -> Vec<u32> {
                    p.top_probs.iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(c), bits(o), "n = {n}");
            }
        }
    }

    #[test]
    fn confidence_is_probability() {
        let m = identity_model(3);
        let x = batch(&[&[100.0, 0.0, 0.0]]);
        let p = &predict_top_k(&m, &x, 1).unwrap()[0];
        assert!(p.confidence() > 0.99 && p.confidence() <= 1.0);
    }

    #[test]
    fn validation_errors() {
        let m = identity_model(3);
        let x = batch(&[&[1.0, 0.0, 0.0]]);
        assert!(top1_accuracy(&m, &x, &[0, 1]).is_err()); // label count
        assert!(top_k_accuracy(&m, &x, &[0], 0).is_err()); // k = 0
    }

    #[test]
    fn per_class_accuracy_splits_by_class() {
        let m = identity_model(3);
        let x = batch(&[
            &[5.0, 0.0, 0.0], // true 0, pred 0 ✓
            &[5.0, 0.0, 0.0], // true 0, pred 0 ✓
            &[5.0, 0.0, 0.0], // true 1, pred 0 ✗
        ]);
        let acc = per_class_accuracy(&m, &x, &[0, 0, 1], 3).unwrap();
        assert_eq!(acc[0], Some(1.0));
        assert_eq!(acc[1], Some(0.0));
        assert_eq!(acc[2], None); // no samples of class 2
        assert!(per_class_accuracy(&m, &x, &[0, 0, 9], 3).is_err());
        assert!(per_class_accuracy(&m, &x, &[0, 0], 3).is_err());
    }

    #[test]
    fn confusion_matrix_counts() {
        let m = identity_model(3);
        let x = batch(&[&[5.0, 0.0, 0.0], &[5.0, 0.0, 0.0], &[0.0, 0.0, 5.0]]);
        let cm = confusion_matrix(&m, &x, &[0, 1, 2], 3).unwrap();
        assert_eq!(cm[0][0], 1); // true 0 → pred 0
        assert_eq!(cm[1][0], 1); // true 1 → pred 0 (misclassified)
        assert_eq!(cm[2][2], 1);
        assert!(confusion_matrix(&m, &x, &[0, 1, 9], 3).is_err());
    }
}
