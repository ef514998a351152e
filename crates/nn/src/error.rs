use std::error::Error;
use std::fmt;

use fademl_tensor::TensorError;

/// Error type for network construction, training and inference.
#[derive(Debug)]
#[non_exhaustive]
pub enum NnError {
    /// An underlying tensor operation failed (usually a shape error).
    Tensor(TensorError),
    /// A layer was asked to run backward before any forward pass cached
    /// its activations.
    NoForwardCache {
        /// The layer that was misused.
        layer: &'static str,
    },
    /// Model architecture disagreed with provided data (e.g. label count
    /// vs batch size, or weight file vs parameter shapes).
    ArchMismatch {
        /// Human-readable description of the disagreement.
        reason: String,
    },
    /// A configuration value was invalid (e.g. zero epochs, empty model).
    InvalidConfig {
        /// Human-readable description of the invalid value.
        reason: String,
    },
    /// Weight (de)serialization failed.
    Io(std::io::Error),
    /// A persisted artifact (weight file, checkpoint) failed an
    /// integrity check: bad magic, truncated body, or CRC mismatch. The
    /// file must not be loaded — its numbers cannot be trusted.
    Corrupt {
        /// Human-readable description of what failed to verify.
        reason: String,
    },
    /// Training diverged (non-finite or spiking loss) and the
    /// divergence guard ran out of rollback budget or had no intact
    /// checkpoint to roll back to.
    Diverged {
        /// The epoch (0-based) at which divergence was detected.
        epoch: usize,
        /// The offending loss value.
        loss: f32,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::NoForwardCache { layer } => {
                write!(f, "backward called on `{layer}` before forward_train")
            }
            NnError::ArchMismatch { reason } => write!(f, "architecture mismatch: {reason}"),
            NnError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            NnError::Io(e) => write!(f, "i/o error: {e}"),
            NnError::Corrupt { reason } => write!(f, "corrupt artifact: {reason}"),
            NnError::Diverged { epoch, loss } => {
                write!(f, "training diverged at epoch {epoch} (loss {loss})")
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A [`NnError::Corrupt`]: the artifact codecs' one refusal.
pub(crate) fn corrupt(reason: impl Into<String>) -> NnError {
    NnError::Corrupt {
        reason: reason.into(),
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<std::io::Error> for NnError {
    fn from(e: std::io::Error) -> Self {
        NnError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = NnError::from(TensorError::EmptyTensor { op: "argmax" });
        assert!(e.to_string().contains("argmax"));
        assert!(e.source().is_some());
        let e = NnError::NoForwardCache { layer: "conv2d" };
        assert!(e.to_string().contains("conv2d"));
        assert!(e.source().is_none());
    }

    #[test]
    fn corruption_and_divergence_display() {
        let e = NnError::Corrupt {
            reason: "CRC mismatch".into(),
        };
        assert!(e.to_string().contains("CRC mismatch"));
        assert!(e.source().is_none());
        let e = NnError::Diverged {
            epoch: 4,
            loss: f32::NAN,
        };
        assert!(e.to_string().contains("epoch 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
