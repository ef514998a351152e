use fademl_tensor::{Tensor, TensorError};

use crate::dense::one_hot;
use crate::{NnError, Result};

/// The value of a loss together with its gradient w.r.t. the logits.
#[derive(Debug, Clone, PartialEq)]
pub struct LossValue {
    /// Mean loss over the batch.
    pub loss: f32,
    /// `∂loss/∂logits`, shaped like the logits `[n, classes]`.
    pub grad: Tensor,
}

/// Softmax cross-entropy, the classification loss used to train the
/// paper's VGGNet and inside every attack objective.
///
/// The fused softmax+CE gradient is the numerically friendly
/// `(softmax(z) − onehot(y)) / n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl CrossEntropyLoss {
    /// Creates the loss.
    pub fn new() -> Self {
        CrossEntropyLoss
    }

    /// Computes the batch-mean loss and its gradient w.r.t. the logits.
    ///
    /// # Errors
    ///
    /// Returns an error if `logits` is not `[n, classes]` or any label is
    /// out of range.
    pub fn compute(&self, logits: &Tensor, labels: &[usize]) -> Result<LossValue> {
        let &[n, k] = logits.dims() else {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                op: "loss",
                expected: 2,
                actual: logits.rank(),
            }));
        };
        if labels.len() != n {
            return Err(NnError::ArchMismatch {
                reason: format!("{} labels for a batch of {n}", labels.len()),
            });
        }
        let probs = logits.softmax_rows()?;
        let mut loss = 0.0f32;
        for (i, &label) in labels.iter().enumerate() {
            if label >= k {
                return Err(NnError::Tensor(TensorError::IndexOutOfBounds {
                    index: vec![label],
                    shape: vec![k],
                }));
            }
            // Clamp avoids -inf when a probability underflows to 0.
            loss -= probs.get(&[i, label])?.max(1e-12).ln();
        }
        let one_hot = one_hot(labels, k)?;
        let grad = probs.sub(&one_hot)?.scale(1.0 / n as f32);
        Ok(LossValue {
            loss: loss / n as f32,
            grad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::{Shape, TensorRng};

    fn logits(v: &[f32], n: usize, k: usize) -> Tensor {
        Tensor::from_vec(v.to_vec(), Shape::new(vec![n, k])).unwrap()
    }

    #[test]
    fn ce_is_low_for_confident_correct() {
        let good = logits(&[10.0, -10.0], 1, 2);
        let bad = logits(&[-10.0, 10.0], 1, 2);
        let ce = CrossEntropyLoss::new();
        assert!(ce.compute(&good, &[0]).unwrap().loss < 1e-3);
        assert!(ce.compute(&bad, &[0]).unwrap().loss > 10.0);
    }

    #[test]
    fn ce_uniform_is_log_k() {
        let ce = CrossEntropyLoss::new();
        let z = Tensor::zeros(&[1, 4]);
        let lv = ce.compute(&z, &[2]).unwrap();
        assert!((lv.loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let ce = CrossEntropyLoss::new();
        let mut rng = TensorRng::seed_from_u64(1);
        let z = rng.uniform(&[2, 5], -2.0, 2.0);
        let labels = [3usize, 1];
        let lv = ce.compute(&z, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..10 {
            let mut plus = z.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = z.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (ce.compute(&plus, &labels).unwrap().loss
                - ce.compute(&minus, &labels).unwrap().loss)
                / (2.0 * eps);
            let analytic = lv.grad.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "idx {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn ce_grad_rows_sum_to_zero() {
        // softmax − onehot sums to zero per row.
        let ce = CrossEntropyLoss::new();
        let mut rng = TensorRng::seed_from_u64(2);
        let z = rng.uniform(&[3, 4], -1.0, 1.0);
        let lv = ce.compute(&z, &[0, 1, 2]).unwrap();
        for r in 0..3 {
            let s: f32 = lv.grad.row(r).unwrap().as_slice().iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn ce_handles_extreme_logits() {
        let ce = CrossEntropyLoss::new();
        let z = logits(&[1000.0, -1000.0], 1, 2);
        let lv = ce.compute(&z, &[1]).unwrap();
        assert!(lv.loss.is_finite());
        assert!(!lv.grad.has_non_finite());
    }

    #[test]
    fn rejects_bad_inputs() {
        let ce = CrossEntropyLoss::new();
        assert!(ce.compute(&Tensor::zeros(&[4]), &[0]).is_err());
        assert!(ce.compute(&Tensor::zeros(&[2, 3]), &[0]).is_err()); // wrong label count
        assert!(ce.compute(&Tensor::zeros(&[1, 3]), &[3]).is_err()); // label out of range
    }
}
