//! Error type for the network layer.

use std::fmt;
use std::io;

use fademl_serve::ServeError;

use crate::wire::FrameError;

/// Result alias for network operations.
pub type Result<T> = std::result::Result<T, NetError>;

/// Everything a network call can fail with. The load-shedding
/// semantics of the serving engine survive the wire: a remote
/// [`ServeError`] arrives as [`NetError::Remote`] carrying the exact
/// variant the engine raised.
#[derive(Debug)]
pub enum NetError {
    /// An unclassified transport error.
    Io(io::Error),
    /// The peer sent bytes that are not a valid frame.
    Frame(FrameError),
    /// The remote serving engine answered with a typed error.
    Remote(ServeError),
    /// The peer closed the connection (possibly mid-frame).
    Disconnected {
        /// What was being read or written when the stream ended.
        context: String,
    },
    /// The stream's read/write timeout fired — the peer is too slow
    /// (or dribbling bytes, slow-loris style).
    Timeout {
        /// What was being read or written when the timer fired.
        context: String,
    },
    /// The network configuration is unusable.
    InvalidConfig {
        /// Why the configuration was refused.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "transport error: {err}"),
            NetError::Frame(err) => write!(f, "wire protocol error: {err}"),
            NetError::Remote(err) => write!(f, "remote serving error: {err}"),
            NetError::Disconnected { context } => {
                write!(f, "connection closed while {context}")
            }
            NetError::Timeout { context } => write!(f, "timed out while {context}"),
            NetError::InvalidConfig { reason } => {
                write!(f, "invalid network config: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(err) => Some(err),
            NetError::Frame(err) => Some(err),
            NetError::Remote(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FrameError> for NetError {
    fn from(err: FrameError) -> Self {
        NetError::Frame(err)
    }
}

impl From<ServeError> for NetError {
    fn from(err: ServeError) -> Self {
        NetError::Remote(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        assert!(NetError::Remote(ServeError::ShuttingDown)
            .to_string()
            .contains("shutting down"));
        assert!(NetError::Frame(FrameError::BadMagic)
            .to_string()
            .contains("magic"));
        assert!(NetError::Timeout {
            context: "frame header".into()
        }
        .to_string()
        .contains("frame header"));
        assert!(NetError::Disconnected {
            context: "frame body".into()
        }
        .to_string()
        .contains("frame body"));
        assert!(std::error::Error::source(&NetError::Frame(FrameError::BadMagic)).is_some());
    }
}
