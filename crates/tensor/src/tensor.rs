use std::fmt;

use serde::{Deserialize, Serialize};

use crate::plan::alloc;
use crate::{Result, Shape, TensorError};

/// A dense, owned, row-major `f32` n-dimensional array.
///
/// `Tensor` is the single numeric container used throughout the FAdeML
/// reproduction: images are `[C, H, W]` or batched `[N, C, H, W]`
/// tensors, layer weights are `[out, in]` or `[out, in, kh, kw]`,
/// and class probabilities are `[N, classes]`.
///
/// All operations allocate fresh output tensors unless the method name
/// ends in `_inplace` or takes `&mut self`.
///
/// # Example
///
/// ```
/// use fademl_tensor::Tensor;
///
/// # fn main() -> Result<(), fademl_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3].into())?;
/// assert_eq!(t.get(&[1, 2])?, 6.0);
/// let doubled = t.scale(2.0);
/// assert_eq!(doubled.get(&[0, 0])?, 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a data buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal `shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: Shape) -> Result<Self> {
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                provided: data.len(),
                expected: shape.numel(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: alloc::fresh_filled(1, value),
            shape: Shape::scalar(),
        }
    }

    /// Creates a tensor of zeros with the given dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::of(dims);
        Tensor {
            data: alloc::fresh_vec(shape.numel()),
            shape,
        }
    }

    /// A tensor whose elements, in row-major order, are successive
    /// results of `next`.
    pub(crate) fn from_fn(dims: &[usize], next: impl FnMut() -> f32) -> Self {
        let shape = Shape::of(dims);
        let mut data = alloc::fresh_with(shape.numel());
        data.extend(std::iter::repeat_with(next).take(shape.numel()));
        Tensor { data, shape }
    }

    /// Creates a tensor of ones with the given dimensions.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::of(dims);
        Tensor {
            data: alloc::fresh_filled(shape.numel(), value),
            shape,
        }
    }

    /// Creates a tensor of zeros with the same shape as `other`.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor {
            data: alloc::fresh_vec(other.numel()),
            shape: other.shape.duplicate(),
        }
    }

    /// An explicit owned copy built through the plan layer's allocation
    /// chokepoints. Hot paths use this instead of `Clone` so per-call
    /// data copies stay measurable at a single budgeted site.
    pub fn duplicate(&self) -> Tensor {
        Tensor {
            data: alloc::fresh_from(&self.data),
            shape: self.shape.duplicate(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    #[expect(
        clippy::indexing_slicing,
        reason = "offset() validates the index first"
    )]
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    #[expect(
        clippy::indexing_slicing,
        reason = "offset() validates the index first"
    )]
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data reinterpreted under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::of(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::reshape_mismatch(self.dims(), dims));
        }
        Ok(Tensor {
            data: alloc::fresh_from(&self.data),
            shape,
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let mut data = alloc::fresh_with(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            data,
            shape: self.shape.duplicate(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ. For
    /// broadcasting semantics use [`Tensor::add`] and friends.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::shape_mismatch(
                "zip_map",
                self.dims(),
                other.dims(),
            ));
        }
        let mut data = alloc::fresh_with(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Ok(Tensor {
            data,
            shape: self.shape.duplicate(),
        })
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Adds a scalar to every element, producing a new tensor.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Clamps every element into `[lo, hi]`, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN (propagated from
    /// [`f32::clamp`]).
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    #[expect(
        clippy::indexing_slicing,
        reason = "the two dims after the rank check bound both loops"
    )]
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = alloc::fresh_vec(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, Shape::of(&[cols, rows]))
    }

    /// Extracts row `row` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2,
    /// or [`TensorError::IndexOutOfBounds`] if the row does not exist.
    #[expect(
        clippy::indexing_slicing,
        reason = "the two dims after the rank check, and a row already checked below them"
    )]
    pub fn row(&self, row: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if row >= rows {
            return Err(TensorError::index_oob(&[row], self.dims()));
        }
        Tensor::from_vec(
            alloc::fresh_from(&self.data[row * cols..(row + 1) * cols]),
            Shape::of(&[cols]),
        )
    }

    /// Extracts sample `n` from a batched tensor (first axis), dropping
    /// the batch dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for rank-0 input or
    /// [`TensorError::IndexOutOfBounds`] if `n` exceeds the batch size.
    #[expect(
        clippy::indexing_slicing,
        reason = "the batch dim after the rank check, and a sample already checked below it"
    )]
    pub fn index_batch(&self, n: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::EmptyTensor { op: "index_batch" });
        }
        let batch = self.dims()[0];
        if n >= batch {
            return Err(TensorError::index_oob(&[n], self.dims()));
        }
        let inner: usize = self.dims()[1..].iter().product();
        Tensor::from_vec(
            alloc::fresh_from(&self.data[n * inner..(n + 1) * inner]),
            Shape::of(&self.dims()[1..]),
        )
    }

    /// Copies the samples at `indices` of the leading (batch) axis, in
    /// that order, into one new batch `[indices.len(), d...]`: a
    /// contiguous chunk (`start..end`) of a dataset, or a shuffled
    /// mini-batch, each pixel copied once.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for rank-0 input or
    /// [`TensorError::IndexOutOfBounds`] if an index exceeds the batch
    /// size.
    pub fn select_batch(&self, indices: impl IntoIterator<Item = usize>) -> Result<Tensor> {
        let Some((&batch, inner_dims)) = self.dims().split_first() else {
            return Err(TensorError::EmptyTensor { op: "select_batch" });
        };
        let inner: usize = inner_dims.iter().product();
        let indices = indices.into_iter();
        let mut data = alloc::fresh_with(indices.size_hint().0 * inner);
        let mut count = 0usize;
        for n in indices {
            let sample = self.data.get(n * inner..(n + 1) * inner);
            let Some(sample) = sample.filter(|_| n < batch) else {
                return Err(TensorError::index_oob(&[n], self.dims()));
            };
            data.extend_from_slice(sample);
            count += 1;
        }
        let mut dims = alloc::fresh_with(self.rank());
        dims.push(count);
        dims.extend_from_slice(inner_dims);
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// Stacks same-shaped tensors along a new leading batch axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty input list and
    /// [`TensorError::ShapeMismatch`] if element shapes differ.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items
            .first()
            .ok_or(TensorError::EmptyTensor { op: "stack" })?;
        let mut data = alloc::fresh_with(first.numel() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::shape_mismatch(
                    "stack",
                    first.dims(),
                    item.dims(),
                ));
            }
            data.extend_from_slice(&item.data);
        }
        let mut dims = alloc::fresh_with(1 + first.rank());
        dims.push(items.len());
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// Inserts a leading batch axis of extent 1 (`[d...]` → `[1, d...]`).
    pub fn unsqueeze_batch(&self) -> Tensor {
        let mut dims = alloc::fresh_with(1 + self.rank());
        dims.push(1usize);
        dims.extend_from_slice(self.dims());
        Tensor {
            data: alloc::fresh_from(&self.data),
            shape: Shape::new(dims),
        }
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Default for Tensor {
    /// A scalar zero; matches `Tensor::scalar(0.0)`.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    #[expect(clippy::indexing_slicing, reason = "shown is at most data.len()")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const MAX: usize = 8;
        let shown = self.data.len().min(MAX);
        write!(f, "[")?;
        for (i, x) in self.data[..shown].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > MAX {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], Shape::new(vec![2, 3])).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], Shape::new(vec![2, 3])).is_ok());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).numel(), 1);
        assert_eq!(Tensor::scalar(3.0).rank(), 0);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t =
            Tensor::from_vec((0..6).map(|i| i as f32).collect(), Shape::new(vec![2, 3])).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::new(vec![2, 3])).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn stack_and_index_batch() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.index_batch(0).unwrap(), a);
        assert_eq!(s.index_batch(1).unwrap(), b);
        assert!(s.index_batch(2).is_err());
        assert!(Tensor::stack(&[]).is_err());
        assert!(Tensor::stack(&[a, Tensor::zeros(&[3])]).is_err());
    }

    #[test]
    fn select_batch_copies_chunks_and_gathers() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [4, 3].into()).unwrap();
        let chunk = t.select_batch(1..3).unwrap();
        assert_eq!(chunk.dims(), &[2, 3]);
        assert_eq!(chunk.as_slice(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let gathered = t.select_batch([3, 0, 3]).unwrap();
        assert_eq!(gathered.dims(), &[3, 3]);
        assert_eq!(
            gathered,
            Tensor::stack(&[
                t.index_batch(3).unwrap(),
                t.index_batch(0).unwrap(),
                t.index_batch(3).unwrap()
            ])
            .unwrap()
        );
        assert_eq!(t.select_batch(2..2).unwrap().dims(), &[0, 3]);
        assert!(matches!(
            t.select_batch([0, 4]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            Tensor::scalar(1.0).select_batch(0..1),
            Err(TensorError::EmptyTensor { .. })
        ));
    }

    #[test]
    fn unsqueeze_batch_adds_axis() {
        let t = Tensor::zeros(&[3, 4]);
        let b = t.unsqueeze_batch();
        assert_eq!(b.dims(), &[1, 3, 4]);
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::new(vec![2, 2])).unwrap();
        assert_eq!(t.row(1).unwrap().as_slice(), &[3.0, 4.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], Shape::new(vec![2])).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], Shape::new(vec![2])).unwrap();
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(
            a.zip_map(&b, |x, y| x * y).unwrap().as_slice(),
            &[3.0, -8.0]
        );
        assert!(a.zip_map(&Tensor::zeros(&[3]), |x, _| x).is_err());
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_vec(vec![-1.0, 0.5, 2.0], Shape::new(vec![3])).unwrap();
        assert_eq!(t.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.set(&[0], f32::NAN).unwrap();
        assert!(t.has_non_finite());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.contains("[100]"));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }

    proptest! {
        /// stack ∘ index_batch is the identity.
        #[test]
        fn stack_index_round_trip(
            vals in proptest::collection::vec(-10.0f32..10.0, 12),
        ) {
            let items: Vec<Tensor> = vals
                .chunks(4)
                .map(|c| Tensor::from_vec(c.to_vec(), Shape::new(vec![2, 2])).unwrap())
                .collect();
            let stacked = Tensor::stack(&items).unwrap();
            for (i, item) in items.iter().enumerate() {
                prop_assert_eq!(&stacked.index_batch(i).unwrap(), item);
            }
        }

        /// transpose is an involution.
        #[test]
        fn transpose_involution(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0.0f32..1.0,
        ) {
            let data: Vec<f32> = (0..rows * cols).map(|i| seed + i as f32).collect();
            let t = Tensor::from_vec(data, Shape::new(vec![rows, cols])).unwrap();
            prop_assert_eq!(t.transpose().unwrap().transpose().unwrap(), t);
        }
    }
}
