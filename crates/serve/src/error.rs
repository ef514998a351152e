//! Error type for the serving engine.

use std::fmt;

/// Result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Which enforcement point caught an expired request deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// The request expired while waiting in its batcher bucket — it
    /// never reached a worker.
    Queue,
    /// The request expired between a worker taking its batch and
    /// executing it — too late to serve a fresh answer.
    Batch,
}

impl fmt::Display for DeadlineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlineStage::Queue => write!(f, "queue"),
            DeadlineStage::Batch => write!(f, "batch"),
        }
    }
}

/// Everything that can go wrong between `submit` and a verdict.
///
/// The variants are `Clone` on purpose: one failed batch must deliver
/// the same error to every request it carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded submission queue is full — the caller should shed
    /// load (retry later, degrade, or drop). Carries the configured
    /// capacity so callers can log a meaningful message.
    Overloaded {
        /// Configured submission-queue capacity.
        capacity: usize,
    },
    /// The server is shutting down (or has shut down) and accepts no
    /// new work.
    ShuttingDown,
    /// The inference pipeline failed while processing the batch that
    /// carried this request.
    Pipeline {
        /// Stringified pipeline error (kept as text so the error stays
        /// `Clone` across every request of the failed batch).
        message: String,
    },
    /// The batch carrying this request was lost to a worker panic (or a
    /// worker death) — the request itself may have been well-formed.
    /// The caller may safely retry.
    BatchFailed {
        /// What took the batch down (panic message or death report).
        reason: String,
    },
    /// The request's deadline expired before a verdict was computed, so
    /// the engine refused to serve a stale answer.
    DeadlineExceeded {
        /// The enforcement point that caught the expiry.
        stage: DeadlineStage,
    },
    /// The request's image was rejected at admission: wrong shape,
    /// non-finite values, or pixels outside the configured range. The
    /// image never reached a shared batch.
    InvalidInput {
        /// Why the image was refused.
        reason: String,
    },
    /// The server configuration is unusable.
    InvalidConfig {
        /// Why the configuration was refused.
        reason: String,
    },
    /// The engine itself failed to assemble (e.g. a worker thread could
    /// not be spawned). Not caused by the request.
    Internal {
        /// What went wrong inside the engine.
        reason: String,
    },
    /// A hot weight swap was refused: the artifact failed CRC
    /// validation or its shapes don't match the live architecture. The
    /// previously deployed weights keep serving untouched.
    SwapFailed {
        /// Why the artifact was rejected.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "submission queue full (capacity {capacity}); load shed")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Pipeline { message } => write!(f, "pipeline failure: {message}"),
            ServeError::BatchFailed { reason } => {
                write!(f, "batch failed: {reason}")
            }
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded in {stage}")
            }
            ServeError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            ServeError::InvalidConfig { reason } => write!(f, "invalid server config: {reason}"),
            ServeError::Internal { reason } => write!(f, "internal serving error: {reason}"),
            ServeError::SwapFailed { reason } => {
                write!(f, "weight swap rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        assert!(ServeError::Overloaded { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(ServeError::Pipeline {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(ServeError::InvalidConfig {
            reason: "zero".into()
        }
        .to_string()
        .contains("zero"));
        assert!(ServeError::BatchFailed {
            reason: "worker panicked".into()
        }
        .to_string()
        .contains("worker panicked"));
        assert!(ServeError::InvalidInput {
            reason: "NaN pixel".into()
        }
        .to_string()
        .contains("NaN pixel"));
        assert!(ServeError::Internal {
            reason: "spawn failed".into()
        }
        .to_string()
        .contains("spawn failed"));
        assert!(ServeError::SwapFailed {
            reason: "CRC mismatch".into()
        }
        .to_string()
        .contains("CRC mismatch"));
    }

    #[test]
    fn deadline_stage_named_in_display() {
        assert_eq!(
            ServeError::DeadlineExceeded {
                stage: DeadlineStage::Queue
            }
            .to_string(),
            "deadline exceeded in queue"
        );
        assert_eq!(
            ServeError::DeadlineExceeded {
                stage: DeadlineStage::Batch
            }
            .to_string(),
            "deadline exceeded in batch"
        );
    }
}
