use std::error::Error;
use std::fmt;

/// Error type for all fallible tensor operations.
///
/// Every public function in this crate that can fail returns
/// `Result<T, TensorError>`; the variants carry enough context to
/// diagnose the offending shapes without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Name of the operation that failed (e.g. `"add"`).
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The data buffer length did not match the product of the dimensions.
    LengthMismatch {
        /// Number of elements provided.
        provided: usize,
        /// Number of elements the shape requires.
        expected: usize,
    },
    /// An operation required a specific rank (number of dimensions).
    RankMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Rank the operation requires.
        expected: usize,
        /// Rank that was provided.
        actual: usize,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's shape.
        shape: Vec<usize>,
    },
    /// A convolution / pooling geometry was invalid (e.g. kernel larger
    /// than the padded input, or zero stride).
    InvalidGeometry {
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// Reshape target had a different element count than the source.
    ReshapeMismatch {
        /// Source shape.
        from: Vec<usize>,
        /// Requested shape.
        to: Vec<usize>,
    },
    /// An axis argument exceeded the tensor's rank.
    InvalidAxis {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// The operation is undefined on an empty tensor.
    EmptyTensor {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A scratch/output size product overflowed `usize` — the shape is
    /// representable but its flattened buffer is not. Raised by the
    /// plan layer's cap-checked sizing before any allocation happens.
    Overflow {
        /// Name of the operation whose sizing overflowed.
        op: &'static str,
        /// The dimensions whose product overflowed.
        dims: Vec<usize>,
    },
}

impl TensorError {
    /// Builds [`TensorError::ShapeMismatch`] from borrowed shapes.
    pub fn shape_mismatch(op: &'static str, lhs: &[usize], rhs: &[usize]) -> Self {
        TensorError::ShapeMismatch {
            op,
            lhs: lhs.to_vec(),
            rhs: rhs.to_vec(),
        }
    }

    /// Builds [`TensorError::IndexOutOfBounds`] from borrowed slices.
    pub fn index_oob(index: &[usize], shape: &[usize]) -> Self {
        TensorError::IndexOutOfBounds {
            index: index.to_vec(),
            shape: shape.to_vec(),
        }
    }

    /// Builds [`TensorError::ReshapeMismatch`] from borrowed shapes.
    pub fn reshape_mismatch(from: &[usize], to: &[usize]) -> Self {
        TensorError::ReshapeMismatch {
            from: from.to_vec(),
            to: to.to_vec(),
        }
    }

    /// Builds [`TensorError::Overflow`] from the borrowed dimensions.
    pub fn overflow(op: &'static str, dims: &[usize]) -> Self {
        TensorError::Overflow {
            op,
            dims: dims.to_vec(),
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in `{op}`: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::LengthMismatch { provided, expected } => write!(
                f,
                "data length {provided} does not match shape requiring {expected} elements"
            ),
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(
                f,
                "`{op}` requires rank {expected} but tensor has rank {actual}"
            ),
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidGeometry { reason } => {
                write!(f, "invalid geometry: {reason}")
            }
            TensorError::ReshapeMismatch { from, to } => {
                write!(
                    f,
                    "cannot reshape {from:?} into {to:?}: element counts differ"
                )
            }
            TensorError::InvalidAxis { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::EmptyTensor { op } => {
                write!(f, "`{op}` is undefined on an empty tensor")
            }
            TensorError::Overflow { op, dims } => {
                write!(
                    f,
                    "size overflow in `{op}`: product of {dims:?} exceeds usize"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            op: "add",
            lhs: vec![2, 3],
            rhs: vec![3, 2],
        };
        let msg = err.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[3, 2]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn Error> = Box::new(TensorError::EmptyTensor { op: "argmax" });
        assert!(err.to_string().contains("argmax"));
    }
}
