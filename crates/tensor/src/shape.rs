use std::fmt;

use serde::{Deserialize, Serialize};

use crate::TensorError;

/// The dimensions of a [`Tensor`](crate::Tensor), stored outermost-first.
///
/// A `Shape` is an immutable list of dimension extents. Tensors in this
/// crate are dense and row-major (C order), so [`Shape::strides`] is
/// derived rather than stored.
///
/// # Example
///
/// ```
/// use fademl_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension extents (outermost first).
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates a scalar (rank-0) shape with a single element.
    pub fn scalar() -> Self {
        // An empty Vec never allocates.
        Shape {
            dims: Vec::default(),
        }
    }

    /// Creates a shape from borrowed extents. This is the one place the
    /// crate copies a dimension slice into an owned rank vector —
    /// bounded by rank (≤ 4 everywhere in this workspace) — so kernel
    /// call sites can build output shapes without their own `to_vec`.
    pub fn of(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// An explicit owned copy; the rank-vector clone chokepoint used by
    /// kernels that must hand out an owned `Shape` (e.g. identity
    /// filters and elementwise outputs).
    pub fn duplicate(&self) -> Self {
        Shape {
            dims: self.dims.clone(),
        }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::InvalidAxis {
                axis,
                rank: self.rank(),
            })
    }

    /// Total number of elements (the product of all extents; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides, in elements.
    #[expect(
        clippy::indexing_slicing,
        reason = "i runs over 0..rank-1, so i + 1 stays in bounds"
    )]
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = crate::plan::alloc::fresh_filled(self.dims.len(), 1usize);
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` has the wrong
    /// rank or any coordinate exceeds the corresponding extent.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::index_oob(index, &self.dims));
        }
        let mut offset = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.dims).zip(&strides) {
            if i >= d {
                return Err(TensorError::index_oob(index, &self.dims));
            }
            offset += i * s;
        }
        Ok(offset)
    }

    /// Returns `true` if the shape has zero total elements.
    pub fn is_empty(&self) -> bool {
        self.numel() == 0
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::of(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::of(dims.as_slice())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numel_is_product() {
        assert_eq!(Shape::new(vec![2, 3, 4]).numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::new(vec![5, 0, 2]).numel(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(vec![7]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 1, 2]).unwrap(), 6);
    }

    #[test]
    fn offset_rejects_bad_indices() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn dim_checks_axis() {
        let s = Shape::new(vec![4, 5]);
        assert_eq!(s.dim(1).unwrap(), 5);
        assert!(matches!(s.dim(2), Err(TensorError::InvalidAxis { .. })));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = [1usize, 2].into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), &[1, 2]);
    }

    proptest! {
        /// Offsets of all valid indices are unique and cover 0..numel.
        #[test]
        fn offsets_bijective(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5) {
            let s = Shape::new(vec![d0, d1, d2]);
            let mut seen = vec![false; s.numel()];
            for i in 0..d0 {
                for j in 0..d1 {
                    for k in 0..d2 {
                        let off = s.offset(&[i, j, k]).unwrap();
                        prop_assert!(off < s.numel());
                        prop_assert!(!seen[off]);
                        seen[off] = true;
                    }
                }
            }
            prop_assert!(seen.iter().all(|&b| b));
        }

        /// Last stride is 1 and strides decrease (row-major contiguity).
        #[test]
        fn strides_monotonic(dims in proptest::collection::vec(1usize..6, 1..5)) {
            let s = Shape::new(dims);
            let strides = s.strides();
            prop_assert_eq!(*strides.last().unwrap(), 1);
            for w in strides.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }
    }
}
