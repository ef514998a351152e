//! The TCP front: accepts connections, speaks the wire protocol, and
//! feeds requests into the [`ReplicaRouter`].
//!
//! Threading model: one accept thread plus one handler thread per
//! connection (bounded by `max_connections`; excess connections get a
//! best-effort `Overloaded` error frame and are closed). A handler
//! always finishes answering its current request before honoring
//! shutdown, so draining never cuts off an in-flight reply.
//!
//! Shutdown sequence (graceful, end-to-end):
//! 1. stop accepting (the accept thread is unblocked by a self-connect
//!    and exits),
//! 2. drain open connections up to `drain_deadline_ms` — handlers
//!    observe the flag, answer their in-flight request, send `Goodbye`
//!    and exit,
//! 3. force-close any straggler sockets past the deadline,
//! 4. drain the replicas (every queued and in-flight request answered)
//!    and return the final report.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fademl::InferencePipeline;
use fademl_serve::error::ServeError;
use fademl_serve::sync::{self, Leaf};

use crate::error::NetError;
use crate::router::{ReplicaRouter, RouterConfig, RouterReport};
use crate::wire::{read_frame, write_frame, Frame, WireFault, WireResponse};

#[cfg(feature = "faults")]
use crate::faults::{NetFaultPlan, ResponseFault};

/// Network fault hook: `None` unless a chaos test armed a plan.
type FaultHandle = Option<NetFaultPlan>;

/// Without the `faults` feature no plan can exist, so every handle is
/// `None` and every hook compiles to nothing.
#[cfg(not(feature = "faults"))]
#[derive(Debug)]
enum NetFaultPlan {}

/// TCP front configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub bind_addr: String,
    /// Maximum concurrent connections; excess connections receive a
    /// best-effort `Overloaded` error frame and are closed.
    pub max_connections: usize,
    /// Per-read timeout on client sockets (ms). A peer that dribbles
    /// bytes slower than this — slow-loris — is disconnected.
    pub read_timeout_ms: u64,
    /// How long shutdown waits for open connections to drain before
    /// force-closing them (ms).
    pub drain_deadline_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bind_addr: "127.0.0.1:0".into(),
            max_connections: 64,
            read_timeout_ms: 10_000,
            drain_deadline_ms: 5_000,
        }
    }
}

impl NetConfig {
    /// Validates the settings.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] with the offending field named.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.max_connections == 0 {
            return Err(NetError::InvalidConfig {
                reason: "max_connections must be at least 1".into(),
            });
        }
        if self.read_timeout_ms == 0 {
            return Err(NetError::InvalidConfig {
                reason: "read_timeout_ms must be nonzero (slow-loris guard)".into(),
            });
        }
        Ok(())
    }
}

#[derive(Debug)]
struct NetShared {
    router: ReplicaRouter,
    config: NetConfig,
    shutting_down: AtomicBool,
    active: AtomicUsize,
    /// Socket clones of open connections, for force-close at the drain
    /// deadline.
    conns: Leaf<Vec<(u64, TcpStream)>>,
    handlers: Leaf<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    timeouts: AtomicU64,
    frame_errors: AtomicU64,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    /// Read only by the `faults`-gated reply path; carried (zero-sized)
    /// in production builds so construction sites stay identical.
    #[cfg_attr(
        not(feature = "faults"),
        allow(dead_code, reason = "read only by the faults-gated reply path")
    )]
    faults: FaultHandle,
}

/// A running TCP serving front over a [`ReplicaRouter`].
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds, starts the router's replicas and the accept thread.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for unusable settings,
    /// [`NetError::Remote`] if the router fails to start,
    /// [`NetError::Io`] if the bind fails.
    pub fn start(
        pipeline: InferencePipeline,
        router_config: RouterConfig,
        net_config: NetConfig,
    ) -> Result<Self, NetError> {
        let router = ReplicaRouter::start(pipeline, router_config)?;
        Self::serve(router, net_config, None)
    }

    /// Starts the front over an already-running router (lets chaos
    /// tests arm replica fault plans first).
    ///
    /// # Errors
    ///
    /// Same as [`start`](NetServer::start), minus router startup.
    pub fn serve_router(router: ReplicaRouter, net_config: NetConfig) -> Result<Self, NetError> {
        Self::serve(router, net_config, None)
    }

    /// Starts the front with an armed network fault plan (chaos
    /// testing): scripted response frames are torn mid-frame or
    /// dropped with the connection.
    ///
    /// # Errors
    ///
    /// Same as [`serve_router`](NetServer::serve_router).
    #[cfg(feature = "faults")]
    pub fn serve_router_with_faults(
        router: ReplicaRouter,
        net_config: NetConfig,
        plan: NetFaultPlan,
    ) -> Result<Self, NetError> {
        Self::serve(router, net_config, Some(plan))
    }

    fn serve(
        router: ReplicaRouter,
        config: NetConfig,
        faults: FaultHandle,
    ) -> Result<Self, NetError> {
        config.validate()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "the framed front's listener: every connection goes through admission and the wire codec"
        )]
        let listener = TcpListener::bind(&config.bind_addr).map_err(NetError::Io)?;
        let local_addr = listener.local_addr().map_err(NetError::Io)?;
        let shared = Arc::new(NetShared {
            router,
            config,
            shutting_down: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Leaf::new(Vec::new()),
            handlers: Leaf::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            faults,
        });
        let accept_shared = Arc::clone(&shared);
        #[expect(
            clippy::disallowed_methods,
            reason = "the network front owns its accept thread"
        )]
        let accept_handle = std::thread::Builder::new()
            .name("fademl-net-accept".into())
            .spawn(move || run_accept(&accept_shared, &listener))
            .map_err(NetError::Io)?;
        Ok(NetServer {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router behind the front (for swaps and live reports).
    pub fn router(&self) -> &ReplicaRouter {
        &self.shared.router
    }

    /// Live aggregated snapshot.
    pub fn report(&self) -> RouterReport {
        self.shared.router.report()
    }

    /// Connections disconnected by the read timeout (slow-loris guard).
    pub fn timeouts(&self) -> u64 {
        self.shared.timeouts.load(Ordering::Relaxed)
    }

    /// Connections that sent malformed frames.
    pub fn frame_errors(&self) -> u64 {
        self.shared.frame_errors.load(Ordering::Relaxed)
    }

    /// Connections accepted and handled.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.conns_accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the concurrency cap.
    pub fn connections_rejected(&self) -> u64 {
        self.shared.conns_rejected.load(Ordering::Relaxed)
    }

    /// Graceful end-to-end shutdown (see module docs) returning the
    /// final aggregated report.
    pub fn shutdown(mut self) -> RouterReport {
        self.stop();
        // After stop(), the accept thread and every handler have been
        // joined, so their Arc clones are gone: this clone plus the one
        // inside `self` are the only references left.
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop is a no-op now (accept_handle taken by stop)
        match Arc::try_unwrap(shared) {
            Ok(inner) => inner.router.shutdown(),
            // Defensive: a reference survived (it should not); report
            // rather than block forever on a drain we cannot own.
            Err(arc) => arc.router.report(),
        }
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Unblock the accept thread: it is parked in accept(); a
        // throwaway self-connection wakes it to observe the flag.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort: the wake-up poke may race the listener closing"
        )]
        #[expect(
            clippy::disallowed_methods,
            reason = "a self-connection to this server's own listener, carrying no frame"
        )]
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort: a panicked accept thread still counts as stopped"
            )]
            let _ = handle.join();
        }
        // Drain: handlers answer their in-flight request and exit.
        let deadline = Instant::now() + Duration::from_millis(self.shared.config.drain_deadline_ms);
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Force-close stragglers so their handlers unblock and exit.
        // Drain under the lock, shut down outside it: a handler blocked
        // mid-register must not contend with a socket syscall.
        let streams: Vec<(u64, TcpStream)> = self.shared.conns.lock().drain(..).collect();
        for (_, stream) in streams {
            sync::assert_unlocked();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort: the peer may already be gone; shutdown is a nudge"
            )]
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handlers: Vec<JoinHandle<()>> = self.shared.handlers.lock().drain(..).collect();
        for handle in handlers {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort: a panicked handler must not abort the shutdown"
            )]
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.stop();
        }
    }
}

fn run_accept(shared: &Arc<NetShared>, listener: &TcpListener) {
    loop {
        sync::assert_unlocked();
        let accepted = listener.accept();
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        let Ok((stream, _)) = accepted else { continue };
        if shared.active.load(Ordering::Acquire) >= shared.config.max_connections {
            shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
            refuse_connection(shared, stream);
            continue;
        }
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::AcqRel);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().push((conn_id, clone));
        }
        let handler_shared = Arc::clone(shared);
        #[expect(
            clippy::disallowed_methods,
            reason = "the network front owns its per-connection handler threads"
        )]
        let spawned = std::thread::Builder::new()
            .name(format!("fademl-net-conn-{conn_id}"))
            .spawn(move || {
                let _registration = Registration {
                    shared: &handler_shared,
                    conn_id,
                };
                run_handler(&handler_shared, stream, conn_id);
            });
        match spawned {
            Ok(handle) => shared.handlers.lock().push(handle),
            // Spawn failed: undo the registration; the socket drops
            // closed and the client sees a disconnect.
            Err(_) => drop(Registration { shared, conn_id }),
        }
    }
}

/// `run_accept`'s registration of a connection — its slot under
/// `max_connections` and its socket clone in the registry — undone on
/// drop. The handler holds it, so a handler that panics releases both
/// as it unwinds instead of keeping its socket open through the clone.
struct Registration<'a> {
    shared: &'a NetShared,
    conn_id: u64,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        let conn_id = self.conn_id;
        self.shared.conns.lock().retain(|(id, _)| *id != conn_id);
    }
}

/// Best-effort `Overloaded` error frame to a connection refused at the
/// concurrency cap, so well-behaved clients get a typed reason instead
/// of a bare hangup.
fn refuse_connection(shared: &NetShared, mut stream: TcpStream) {
    let frame = Frame::Error(WireFault {
        id: 0,
        error: ServeError::Overloaded {
            capacity: shared.router.queue_capacity(),
        },
    });
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort: the refusal notice is a courtesy; the peer may have hung up"
    )]
    let _ = write_frame(&mut stream, &frame);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort: the socket closes when the stream drops either way"
    )]
    let _ = stream.shutdown(Shutdown::Both);
}

fn run_handler(shared: &NetShared, mut stream: TcpStream, _conn_id: u64) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort: socket tuning failures degrade latency, not correctness"
    )]
    let _ = stream.set_nodelay(true);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort: without the timeout the read blocks until shutdown's nudge"
    )]
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.config.read_timeout_ms)));
    loop {
        match read_frame(&mut stream) {
            Ok(Frame::Request(request)) => {
                let deadline =
                    (request.deadline_us > 0).then(|| Duration::from_micros(request.deadline_us));
                let result = shared.router.classify_for_tenant(
                    request.image,
                    request.threat,
                    deadline,
                    &request.tenant,
                );
                let reply = match result {
                    Ok(verdict) => Frame::Response(WireResponse {
                        id: request.id,
                        verdict,
                    }),
                    Err(error) => Frame::Error(WireFault {
                        id: request.id,
                        error,
                    }),
                };
                if !send_reply(shared, &mut stream, &reply) {
                    break;
                }
                // The in-flight request was answered before honoring
                // shutdown — now say goodbye and close.
                if shared.shutting_down.load(Ordering::Acquire) {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "best-effort: Goodbye is advisory; close either way"
                    )]
                    let _ = write_frame(&mut stream, &Frame::Goodbye);
                    break;
                }
            }
            Ok(Frame::Goodbye) => break,
            Ok(_) => {
                // A client sending server-side frames is violating the
                // protocol; answer typed and close.
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort: we are closing on them regardless"
                )]
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error(WireFault {
                        id: 0,
                        error: ServeError::InvalidInput {
                            reason: "unexpected frame kind from client".into(),
                        },
                    }),
                );
                break;
            }
            Err(NetError::Frame(frame_error)) => {
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort: the stream is already suspect; close after"
                )]
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error(WireFault {
                        id: 0,
                        error: ServeError::InvalidInput {
                            reason: format!("malformed frame: {frame_error}"),
                        },
                    }),
                );
                break;
            }
            Err(NetError::Timeout { .. }) => {
                // Slow-loris guard: a peer that cannot deliver a frame
                // within the read timeout loses the connection.
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break,
        }
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort: the peer may already be gone; this closes the socket the registry's clone holds open"
    )]
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writes a reply frame, applying any scripted network fault. Returns
/// `false` when the connection should close.
fn send_reply(shared: &NetShared, stream: &mut TcpStream, reply: &Frame) -> bool {
    #[cfg(feature = "faults")]
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort: fault injection tears or drops the stream on purpose"
    )]
    if let Some(plan) = &shared.faults {
        match plan.on_response() {
            ResponseFault::Tear(keep_bytes) => {
                // Send a torn frame: the prefix only, then cut the
                // connection — the client must see a typed error.
                if let Ok(bytes) = crate::wire::encode_frame(reply) {
                    use std::io::Write;
                    let keep = keep_bytes.min(bytes.len());
                    let (head, _) = bytes.split_at(keep);
                    let _ = stream.write_all(head);
                    let _ = stream.flush();
                }
                let _ = stream.shutdown(Shutdown::Both);
                return false;
            }
            ResponseFault::Drop => {
                // Kill the connection without a byte of the reply.
                let _ = stream.shutdown(Shutdown::Both);
                return false;
            }
            ResponseFault::None => {}
        }
    }
    #[cfg(not(feature = "faults"))]
    let _ = shared;
    write_frame(stream, reply).is_ok()
}
