//! # fademl-net — networked serving for the FAdeML pipeline
//!
//! Three layers over the in-process serving engine
//! ([`fademl_serve`]), zero dependencies beyond the workspace:
//!
//! 1. **Wire protocol** ([`wire`]): length-prefixed, CRC-framed binary
//!    records on std TCP, reusing [`fademl_tensor::io`]'s
//!    bounds-checked codec. Requests carry image tensors, the threat
//!    model, a deadline and a tenant key; replies carry verdicts or
//!    *typed* serving errors — load-shedding semantics
//!    ([`ServeError::Overloaded`](fademl_serve::ServeError),
//!    deadlines, invalid input) survive the network hop intact.
//!    Hostile input (truncated frames, bit flips, lying length
//!    prefixes) becomes a typed [`FrameError`], never a panic or an
//!    oversized allocation.
//! 2. **Replica router** ([`router`]): shards requests across N
//!    in-process replica servers via consistent hashing keyed on
//!    threat model (threat models never share a batch, so pinning them
//!    to replicas maximizes coalescing), with per-tenant token-bucket
//!    quotas, one-hop spill on load shed, and per-replica health
//!    tracking that routes around a breaker-open or repeatedly-failing
//!    replica.
//! 3. **Hot weight swap**: a new `FADEMLW2` artifact is CRC- and
//!    shape-validated, then swapped replica-by-replica while in-flight
//!    batches drain on the weights they started with — the
//!    `swap_generation` metric proves no torn weights and no dropped
//!    traffic. Detectors swap the same way: a router started with
//!    triage ([`ReplicaRouter::start_with_triage`]) rolls a fresh
//!    `FADEMLD1` artifact across the fleet via
//!    [`swap_detectors`](ReplicaRouter::swap_detectors), so a new
//!    detector deploys with zero downtime and the fleet is never blind.
//!
//! On the client side, [`NetClient`] holds one connection and answers
//! every call with a verdict or a typed [`NetError`]: a remote serving
//! error arrives as [`NetError::Remote`] carrying the engine's variant,
//! and a torn frame, dropped response or read timeout as a transport
//! error. Inference is idempotent, so a caller may reconnect and resend.
//!
//! The TCP front ([`server`]) drains gracefully end-to-end: stop
//! accepting → drain open connections under a deadline → drain the
//! replicas. The `faults` feature compiles a deterministic network
//! chaos harness (`faults`) — torn frames, dropped responses — on
//! top of the serving engine's own fault hooks.
//!
//! ```no_run
//! use fademl_net::{NetClient, NetConfig, NetServer, RouterConfig};
//! use fademl::ThreatModel;
//! # fn pipeline() -> fademl::InferencePipeline { unimplemented!() }
//! # fn image() -> fademl_tensor::Tensor { unimplemented!() }
//!
//! let server =
//!     NetServer::start(pipeline(), RouterConfig::default(), NetConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let verdict = client.classify(&image(), ThreatModel::II).unwrap();
//! println!("class {} at {:.2}", verdict.class, verdict.confidence);
//! println!("{}", server.shutdown().render());
//! ```

#![forbid(unsafe_code)]
// The serving path's panic surface and discarded `Result`s, held to
// zero by clippy outside tests; an exemption is an
// `#[expect(lint, reason = …)]` on the smallest item that needs it
// (DESIGN.md §11).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::indexing_slicing)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "tests assert by panicking on fixtures they built, and discard what they do not check"
    )
)]

pub mod client;
pub mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod quota;
pub mod router;
pub mod server;
pub mod wire;

pub use client::NetClient;
pub use error::{NetError, Result};
#[cfg(feature = "faults")]
pub use faults::NetFaultPlan;
pub use quota::{QuotaConfig, TenantQuotas};
pub use router::{ReplicaRouter, RouterConfig, RouterReport};
pub use server::{NetConfig, NetServer};
pub use wire::{Frame, FrameError, WireFault, WireRequest, WireResponse};
