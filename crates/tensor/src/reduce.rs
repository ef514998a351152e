//! Reductions: sums, means, extrema, argmax and top-k.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// Returns 0.0 for an empty tensor (a deliberate convention — the
    /// mean of no samples contributes nothing to a running statistic).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty tensor.
    pub fn max(&self) -> Result<f32> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "max" });
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max))
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty tensor.
    pub fn min(&self) -> Result<f32> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "min" });
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min))
    }

    /// Index of the maximum element in the flattened buffer (first
    /// occurrence wins on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "argmax" });
        }
        let mut best = 0usize;
        let mut best_val = f32::NEG_INFINITY;
        for (i, &x) in self.as_slice().iter().enumerate() {
            if x > best_val {
                best_val = x;
                best = i;
            }
        }
        Ok(best)
    }

    /// Per-row argmax of a `[rows, cols]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if not rank 2, or
    /// [`TensorError::EmptyTensor`] if a row is empty.
    #[expect(clippy::indexing_slicing, reason = "row slices after the rank check")]
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if cols == 0 {
            return Err(TensorError::EmptyTensor { op: "argmax_rows" });
        }
        let data = self.as_slice();
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            let mut best_val = f32::NEG_INFINITY;
            for (i, &x) in row.iter().enumerate() {
                if x > best_val {
                    best_val = x;
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Indices of the `k` largest elements, descending by value
    /// (ties broken by lower index first; `-0.0` ties `+0.0`). A NaN
    /// ranks after every number. If `k` exceeds the element count, all
    /// indices are returned.
    ///
    /// This drives the paper's *top-5* accuracy metric and the Eq. 2 cost
    /// function over the top-5 predicted classes.
    #[expect(
        clippy::indexing_slicing,
        reason = "the sort compares indices of this very slice"
    )]
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let data = self.as_slice();
        let mut idx: Vec<usize> = Vec::with_capacity(data.len());
        idx.extend(0..data.len());
        // A total order, as `sort_by` requires: NaN last, then value
        // descending, then index. `partial_cmp` is `None` only for two
        // NaNs, which the first key has already called equal.
        idx.sort_by(|&a, &b| {
            let (va, vb) = (data[a], data[b]);
            va.is_nan()
                .cmp(&vb.is_nan())
                .then(vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    /// Sums over the batch (first) axis: `[n, d...] → [d...]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for a rank-0 tensor.
    #[expect(
        clippy::indexing_slicing,
        reason = "the batch records after the rank check"
    )]
    pub fn sum_batch(&self) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::EmptyTensor { op: "sum_batch" });
        }
        let batch = self.dims()[0];
        let inner: usize = self.dims()[1..].iter().product();
        let mut out = vec![0.0f32; inner];
        let data = self.as_slice();
        for n in 0..batch {
            for (o, &x) in out.iter_mut().zip(&data[n * inner..(n + 1) * inner]) {
                *o += x;
            }
        }
        Tensor::from_vec(out, crate::Shape::of(&self.dims()[1..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use proptest::prelude::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), Shape::new(vec![v.len()])).unwrap()
    }

    #[test]
    fn scalar_reductions() {
        let x = t(&[1.0, -2.0, 3.0]);
        assert_eq!(x.sum(), 2.0);
        assert!((x.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(x.max().unwrap(), 3.0);
        assert_eq!(x.min().unwrap(), -2.0);
        assert_eq!(x.argmax().unwrap(), 2);
    }

    #[test]
    fn empty_tensor_errors() {
        let e = Tensor::zeros(&[0]);
        assert!(e.max().is_err());
        assert!(e.min().is_err());
        assert!(e.argmax().is_err());
        assert_eq!(e.mean(), 0.0);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(t(&[5.0, 5.0, 1.0]).argmax().unwrap(), 0);
    }

    #[test]
    fn argmax_rows_per_row() {
        let m = Tensor::from_vec(vec![1.0, 9.0, 0.0, 7.0, 2.0, 3.0], [2, 3].into()).unwrap();
        assert_eq!(m.argmax_rows().unwrap(), vec![1, 0]);
        assert!(t(&[1.0]).argmax_rows().is_err());
    }

    #[test]
    fn top_k_descending() {
        let x = t(&[0.1, 0.9, 0.5, 0.7]);
        assert_eq!(x.top_k(3), vec![1, 3, 2]);
        assert_eq!(x.top_k(10).len(), 4);
        assert!(x.top_k(0).is_empty());
    }

    #[test]
    fn top_k_ties_prefer_lower_index() {
        let x = t(&[0.5, 0.5, 0.5]);
        assert_eq!(x.top_k(2), vec![0, 1]);
    }

    #[test]
    fn top_k_ranks_nan_after_every_number() {
        // A NaN at each position of a 43-wide row (the victim's class
        // count), alone and beside a second NaN: the comparator used to
        // call NaN equal to everything, which is no order, and
        // `sort_by` panics on that.
        let base: Vec<f32> = (0..43).map(|i| ((i * 17) % 43) as f32 - 21.0).collect();
        for at in 0..43 {
            for second in [None, Some((at + 7) % 43)] {
                let mut row = base.clone();
                row[at] = f32::NAN;
                if let Some(j) = second {
                    row[j] = f32::NAN;
                }
                let nans = 1 + usize::from(second.is_some());
                let ranked = t(&row).top_k(43);
                let (numbers, tail) = ranked.split_at(43 - nans);
                assert!(numbers.iter().all(|&i| !row[i].is_nan()), "NaN at {at}");
                assert!(numbers.windows(2).all(|w| row[w[0]] > row[w[1]]));
                assert!(tail.windows(2).all(|w| w[0] < w[1]), "NaNs by index");
                assert!(tail.iter().all(|&i| row[i].is_nan()));
            }
        }
        assert_eq!(
            t(&[f32::NAN, 1.0, f32::NAN, 2.0]).top_k(4),
            vec![3, 1, 0, 2]
        );
        // Signed zeros still tie, so the lower index leads.
        assert_eq!(t(&[0.0, -0.0, -1.0]).top_k(3), vec![0, 1, 2]);
        assert_eq!(t(&[-0.0, 0.0, -1.0]).top_k(3), vec![0, 1, 2]);
    }

    #[test]
    fn sum_batch_collapses_first_axis() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], [2, 2].into()).unwrap();
        let s = x.sum_batch().unwrap();
        assert_eq!(s.dims(), &[2]);
        assert_eq!(s.as_slice(), &[11.0, 22.0]);
    }

    proptest! {
        /// top_k(1) agrees with argmax.
        #[test]
        fn top1_is_argmax(vals in proptest::collection::vec(-10.0f32..10.0, 1..20)) {
            let x = t(&vals);
            prop_assert_eq!(x.top_k(1)[0], x.argmax().unwrap());
        }

        /// Rows without NaN rank exactly as under the comparator that
        /// preceded the NaN fix: ties and signed zeros by index, and
        /// `top_k(1)` is still `argmax`.
        #[test]
        fn nan_free_rows_rank_as_before(picks in proptest::collection::vec(0usize..6, 1..30)) {
            let palette = [-1.0f32, -0.0, 0.0, 0.5, 2.0, f32::INFINITY];
            let vals: Vec<f32> = picks.iter().map(|&p| palette[p]).collect();
            let mut before: Vec<usize> = (0..vals.len()).collect();
            before.sort_by(|&a, &b| {
                vals[b]
                    .partial_cmp(&vals[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let x = t(&vals);
            prop_assert_eq!(x.top_k(vals.len()), before);
            prop_assert_eq!(x.top_k(1)[0], x.argmax().unwrap());
        }

        /// top_k values are non-increasing.
        #[test]
        fn top_k_sorted(vals in proptest::collection::vec(-10.0f32..10.0, 1..20), k in 1usize..10) {
            let x = t(&vals);
            let idx = x.top_k(k);
            for w in idx.windows(2) {
                prop_assert!(x.as_slice()[w[0]] >= x.as_slice()[w[1]]);
            }
        }

        /// Sum over batch equals total sum.
        #[test]
        fn sum_batch_preserves_total(vals in proptest::collection::vec(-5.0f32..5.0, 12)) {
            let x = Tensor::from_vec(vals, [3, 4].into()).unwrap();
            let total = x.sum();
            let batched = x.sum_batch().unwrap().sum();
            prop_assert!((total - batched).abs() < 1e-3);
        }
    }
}
