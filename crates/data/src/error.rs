use std::error::Error;
use std::fmt;

use fademl_tensor::TensorError;

/// Error type for dataset generation.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A class id outside `0..43` was requested.
    UnknownClass {
        /// The offending id.
        id: usize,
    },
    /// A generation parameter was invalid.
    InvalidConfig {
        /// Human-readable description of the invalid value.
        reason: String,
    },
    /// Reading or writing image files failed.
    Io(std::io::Error),
    /// A dataset file failed its magic, CRC or structural checks.
    Corrupt {
        /// What was wrong with the bytes.
        reason: String,
    },
}

impl DataError {
    /// Wraps an I/O error (named constructor rather than `From` so the
    /// conversion stays explicit at call sites).
    pub fn from_io(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
            DataError::UnknownClass { id } => {
                write!(f, "class id {id} out of range (0..{})", crate::CLASS_COUNT)
            }
            DataError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::Corrupt { reason } => write!(f, "corrupt dataset file: {reason}"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Tensor(e) => Some(e),
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DataError {
    fn from(e: TensorError) -> Self {
        DataError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DataError::UnknownClass { id: 99 };
        assert!(e.to_string().contains("99"));
        assert!(e.source().is_none());
        let e = DataError::from(TensorError::EmptyTensor { op: "x" });
        assert!(e.source().is_some());
    }
}
