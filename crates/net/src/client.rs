//! Blocking wire-protocol client, plus a retrying wrapper with bounded
//! exponential backoff for transient transport failures.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use fademl::{ThreatModel, Verdict};
use fademl_serve::error::ServeError;
use fademl_tensor::{Tensor, TensorRng};

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
        let deadline_us = deadline
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let request = Frame::Request(WireRequest {
            id,
            threat,
            deadline_us,
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

/// Retry schedule for [`RetryingClient`]: bounded attempts, exponential
/// backoff capped at `max_delay`, and deterministic jitter (a seeded
/// per-client RNG scales each delay by a factor in `[0.5, 1.0)`, so two
/// clients with different seeds never thundering-herd in lockstep while
/// each client's schedule is exactly reproducible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (must be at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Upper bound on a single backoff delay (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0x0BAC_0FF5,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] with the offending field named.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.attempts == 0 {
            return Err(NetError::InvalidConfig {
                reason: "retry attempts must be at least 1".into(),
            });
        }
        if self.base_delay > self.max_delay {
            return Err(NetError::InvalidConfig {
                reason: "retry base_delay must not exceed max_delay".into(),
            });
        }
        Ok(())
    }

    /// The jittered backoff slept after failed attempt number `attempt`
    /// (1-based). Pure given the RNG state, so schedules are replayable.
    fn delay_after(&self, attempt: u32, rng: &mut TensorRng) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let scaled = self
            .base_delay
            .saturating_mul(1_u32 << doublings)
            .min(self.max_delay);
        let jitter = f64::from(rng.uniform_scalar(0.5, 1.0));
        Duration::from_secs_f64(scaled.as_secs_f64() * jitter)
    }
}

/// Whether an error is a transient transport failure worth retrying.
/// Remote serving errors are the engine's *answer* (load shed, deadline
/// miss, invalid input) and are never retried here — backpressure
/// semantics must survive the wrapper.
fn transient(err: &NetError) -> bool {
    matches!(
        err,
        NetError::Io(_)
            | NetError::Disconnected { .. }
            | NetError::Timeout { .. }
            | NetError::Frame(_)
    )
}

/// A self-healing client: reconnects on demand and retries transient
/// transport failures under a bounded [`RetryPolicy`]. Safe because
/// inference requests are idempotent — re-sending a classify after an
/// ambiguous failure at worst computes a verdict nobody reads; it never
/// double-applies anything. After the final attempt fails, the caller
/// gets a typed [`NetError::RetriesExhausted`] carrying the last error.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    tenant: String,
    read_timeout: Option<Duration>,
    policy: RetryPolicy,
    rng: TensorRng,
    conn: Option<NetClient>,
}

impl RetryingClient {
    /// Builds a client for `addr` under `policy`. Connection is lazy:
    /// the first call dials (and a refused dial is itself retried).
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for an unusable policy or an address
    /// that resolves to nothing; [`NetError::Io`] if resolution fails.
    pub fn connect<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> Result<Self, NetError> {
        policy.validate()?;
        let addr = addr
            .to_socket_addrs()
            .map_err(NetError::Io)?
            .next()
            .ok_or_else(|| NetError::InvalidConfig {
                reason: "address resolved to no socket address".into(),
            })?;
        Ok(RetryingClient {
            addr,
            tenant: String::new(),
            read_timeout: None,
            policy,
            rng: TensorRng::seed_from_u64(policy.jitter_seed),
            conn: None,
        })
    }

    /// Sets the tenant key sent with every subsequent request (applies
    /// from the next (re)connect).
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_string();
        self.conn = None;
        self
    }

    /// Bounds how long a single reply read may block; `None` blocks
    /// indefinitely. Applied to the live connection and every reconnect.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket option cannot be set.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.read_timeout = timeout;
        if let Some(conn) = self.conn.as_mut() {
            conn.set_read_timeout(timeout)?;
        }
        Ok(())
    }

    /// Classifies `image` under `threat` with no deadline, retrying
    /// transient transport failures.
    ///
    /// # Errors
    ///
    /// See [`classify_with_deadline`](RetryingClient::classify_with_deadline).
    pub fn classify(&mut self, image: &Tensor, threat: ThreatModel) -> Result<Verdict, NetError> {
        self.classify_with_deadline(image, threat, None)
    }

    /// Classifies `image` under `threat`, retrying transient transport
    /// failures (reconnecting first) up to the policy's attempt bound
    /// with jittered exponential backoff between attempts.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] immediately (never retried — the engine
    /// answered); [`NetError::RetriesExhausted`] after the final
    /// transient failure, carrying the last attempt's error.
    pub fn classify_with_deadline(
        &mut self,
        image: &Tensor,
        threat: ThreatModel,
        deadline: Option<Duration>,
    ) -> Result<Verdict, NetError> {
        let mut attempt = 1_u32;
        loop {
            match self.try_once(image, threat, deadline) {
                Ok(verdict) => return Ok(verdict),
                Err(err) if !transient(&err) => return Err(err),
                Err(err) => {
                    // The connection is suspect after any transport
                    // fault; the next attempt dials fresh.
                    self.conn = None;
                    if attempt >= self.policy.attempts {
                        return Err(NetError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(err),
                        });
                    }
                    std::thread::sleep(self.policy.delay_after(attempt, &mut self.rng));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// One attempt: dial if disconnected, then classify.
    fn try_once(
        &mut self,
        image: &Tensor,
        threat: ThreatModel,
        deadline: Option<Duration>,
    ) -> Result<Verdict, NetError> {
        let conn = match self.conn.as_mut() {
            Some(conn) => conn,
            None => {
                let mut fresh = NetClient::connect(self.addr)?.with_tenant(&self.tenant);
                fresh.set_read_timeout(self.read_timeout)?;
                self.conn.insert(fresh)
            }
        };
        conn.classify_with_deadline(image, threat, deadline)
    }

    /// Orderly hang-up of the live connection, if any.
    pub fn goodbye(mut self) {
        if let Some(conn) = self.conn.take() {
            conn.goodbye();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
            jitter_seed: 7,
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = TensorRng::seed_from_u64(seed);
            (1..=4).map(|a| policy.delay_after(a, &mut rng)).collect()
        };
        let delays = schedule(7);
        // Jitter scales within [0.5, 1.0) of the capped exponential.
        for (delay, cap_ms) in delays.iter().zip([10_u64, 20, 35, 35]) {
            let cap = Duration::from_millis(cap_ms);
            assert!(*delay < cap, "{delay:?} under pre-jitter cap {cap:?}");
            assert!(*delay >= cap / 2, "{delay:?} at least half of {cap:?}");
        }
        // Same seed, same schedule — fully replayable.
        assert_eq!(delays, schedule(7));
        assert_ne!(delays, schedule(8));
    }

    #[test]
    fn policy_validation_names_the_offence() {
        let zero = RetryPolicy {
            attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(zero
            .validate()
            .unwrap_err()
            .to_string()
            .contains("attempts"));
        let inverted = RetryPolicy {
            base_delay: Duration::from_secs(2),
            max_delay: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        assert!(inverted
            .validate()
            .unwrap_err()
            .to_string()
            .contains("base_delay"));
    }

    #[test]
    fn remote_errors_are_not_transient() {
        assert!(!transient(&NetError::Remote(ServeError::ShuttingDown)));
        assert!(!transient(&NetError::InvalidConfig { reason: "x".into() }));
        assert!(transient(&NetError::Disconnected {
            context: "reply".into()
        }));
        assert!(transient(&NetError::Timeout {
            context: "reply".into()
        }));
        assert!(transient(&NetError::Io(std::io::Error::other("refused"))));
        assert!(transient(&NetError::Frame(
            crate::wire::FrameError::BadMagic
        )));
    }
}
