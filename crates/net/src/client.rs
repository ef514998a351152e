//! Blocking wire-protocol client.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fademl::{ThreatModel, Verdict};
use fademl_serve::error::ServeError;
use fademl_tensor::Tensor;

use crate::error::NetError;
use crate::wire::{read_frame, write_frame, Frame, WireRequest};

/// A blocking client over one TCP connection. Requests carry a
/// client-chosen correlation id; replies are matched on it, so a
/// response for an older request is skipped, never misdelivered.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
    tenant: String,
}

impl NetClient {
    /// Connects to a [`NetServer`](crate::server::NetServer) under the
    /// empty tenant.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the framed client: every request it sends is a capped, CRC-sealed frame"
        )]
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort: socket tuning failures degrade latency, not correctness"
        )]
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            next_id: 1,
            tenant: String::new(),
        })
    }

    /// Sets the tenant key sent with every subsequent request.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_string();
        self
    }

    /// Bounds how long a single reply read may block; `None` blocks
    /// indefinitely.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket option cannot be set.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout).map_err(NetError::Io)
    }

    /// Classifies `image` under `threat` with no deadline.
    ///
    /// # Errors
    ///
    /// See [`classify_with_deadline`](NetClient::classify_with_deadline).
    pub fn classify(&mut self, image: &Tensor, threat: ThreatModel) -> Result<Verdict, NetError> {
        self.classify_with_deadline(image, threat, None)
    }

    /// Classifies `image` under `threat`, optionally asking the server
    /// to refuse a stale answer past `deadline`.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] carrying the exact [`ServeError`] the
    /// engine raised (load shed, deadline miss, invalid input, …),
    /// [`NetError::Disconnected`] / [`NetError::Timeout`] on transport
    /// failure, [`NetError::Frame`] for malformed reply bytes.
    pub fn classify_with_deadline(
        &mut self,
        image: &Tensor,
        threat: ThreatModel,
        deadline: Option<Duration>,
    ) -> Result<Verdict, NetError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let request = Frame::Request(WireRequest {
            id,
            threat,
            deadline_us: deadline_us(deadline),
            tenant: self.tenant.clone(),
            image: image.clone(),
        });
        write_frame(&mut self.stream, &request)?;
        loop {
            match read_frame(&mut self.stream)? {
                Frame::Response(resp) if resp.id == id => return Ok(resp.verdict),
                Frame::Error(fault) if fault.id == id || fault.id == 0 => {
                    return Err(NetError::Remote(fault.error));
                }
                // A reply for a superseded request: skip it.
                Frame::Response(_) | Frame::Error(_) => continue,
                Frame::Goodbye => {
                    return Err(NetError::Remote(ServeError::ShuttingDown));
                }
                Frame::Request(_) => {
                    return Err(NetError::Frame(crate::wire::FrameError::BadPayload {
                        reason: "server sent a request frame".into(),
                    }));
                }
            }
        }
    }

    /// Orderly hang-up: sends `Goodbye` and closes the connection.
    pub fn goodbye(mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort: Goodbye is advisory; the connection closes regardless"
        )]
        let _ = write_frame(&mut self.stream, &Frame::Goodbye);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort: the socket closes when the stream drops either way"
        )]
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The wire encoding of a request deadline, in whole microseconds.
/// `0` means "no deadline" on the wire, so a deadline under 1 µs is sent
/// as 1 µs: the server then refuses the stale answer, as the engine
/// does in process, instead of serving it with no deadline at all.
fn deadline_us(deadline: Option<Duration>) -> u64 {
    deadline.map_or(0, |d| {
        u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deadline_under_a_microsecond_is_still_a_deadline() {
        assert_eq!(deadline_us(None), 0);
        assert_eq!(deadline_us(Some(Duration::ZERO)), 1);
        assert_eq!(deadline_us(Some(Duration::from_nanos(900))), 1);
        assert_eq!(deadline_us(Some(Duration::from_nanos(1_900))), 1);
        assert_eq!(deadline_us(Some(Duration::from_millis(5))), 5_000);
        assert_eq!(deadline_us(Some(Duration::MAX)), u64::MAX);
    }
}
