use std::error::Error;
use std::fmt;

use fademl_tensor::TensorError;

/// Error type for filter construction and application.
#[derive(Debug)]
#[non_exhaustive]
pub enum FilterError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A filter parameter was invalid (e.g. `np = 0`, `r = 0`).
    InvalidParameter {
        /// Human-readable description of the invalid value.
        reason: String,
    },
    /// The input tensor was neither `[C, H, W]` nor `[N, C, H, W]`.
    UnsupportedRank {
        /// The rank that was provided.
        actual: usize,
    },
    /// The kernel geometry leaves at least one pixel with every tap out
    /// of bounds, so border renormalization would divide by zero and
    /// emit `inf`/`NaN`.
    DegenerateGeometry {
        /// Which kernel/image combination is degenerate and where.
        reason: String,
    },
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::Tensor(e) => write!(f, "tensor error: {e}"),
            FilterError::InvalidParameter { reason } => {
                write!(f, "invalid filter parameter: {reason}")
            }
            FilterError::UnsupportedRank { actual } => write!(
                f,
                "filters accept [C, H, W] or [N, C, H, W] tensors, got rank {actual}"
            ),
            FilterError::DegenerateGeometry { reason } => {
                write!(f, "degenerate kernel geometry: {reason}")
            }
        }
    }
}

impl Error for FilterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FilterError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for FilterError {
    fn from(e: TensorError) -> Self {
        FilterError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(FilterError::UnsupportedRank { actual: 2 }
            .to_string()
            .contains("rank 2"));
        assert!(FilterError::InvalidParameter {
            reason: "np = 0".into()
        }
        .to_string()
        .contains("np = 0"));
        let e = FilterError::from(TensorError::EmptyTensor { op: "x" });
        assert!(e.source().is_some());
        assert!(FilterError::DegenerateGeometry {
            reason: "all taps out of bounds at (0, 0)".into()
        }
        .to_string()
        .contains("degenerate"));
    }
}
