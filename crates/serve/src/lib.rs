//! # fademl-serve — dynamic-batching inference serving engine
//!
//! Production-style serving layer over the FAdeML
//! [`InferencePipeline`](fademl::InferencePipeline): clients submit
//! single `[C, H, W]` images, the engine coalesces them into
//! `[N, C, H, W]` batches (keyed by [`ThreatModel`](fademl::ThreatModel)
//! — TM-I/II/III stage differently and never share a batch), and a
//! worker pool runs the batched pipeline path once per batch.
//!
//! Design pillars:
//!
//! - **Backpressure, not buffering**: at most `queue_capacity` requests
//!   wait for a worker; beyond that
//!   [`submit`](InferenceServer::submit) returns
//!   [`ServeError::Overloaded`] immediately so callers shed load at the
//!   edge.
//! - **Work-conserving dynamic batching**: `submit` pushes straight
//!   into the shared [`batcher`]; a worker that becomes free takes up to
//!   `max_batch_size` requests from the bucket whose head has waited
//!   longest, and parks only when nothing is ready. Under load,
//!   batches fill from whatever queued up while the workers were busy;
//!   in front of an *idle* worker a non-full bucket is held until its
//!   head is `linger_us` old (default 500 µs, `0` = served at once).
//! - **Fault tolerance**: admission-time input validation
//!   ([`ServeError::InvalidInput`]), per-request deadlines enforced
//!   when a worker takes the request and again when it executes the
//!   batch ([`ServeError::DeadlineExceeded`]),
//!   `catch_unwind` panic isolation that fails only the offending batch
//!   ([`ServeError::BatchFailed`]), supervised worker respawn, and a
//!   [`CircuitBreaker`] that sheds to isolated per-image execution
//!   after repeated batch failures and recovers via probe batches.
//! - **Observability**: [`ServerMetrics`] counts requests, batches,
//!   batch-size distribution, queue depth and queue wait, rejections,
//!   panics, respawns, deadline misses (with an overshoot histogram), degraded
//!   transitions and end-to-end latency percentiles; [`MetricsReport`]
//!   serializes to JSON.
//! - **Adversarial triage** (defense in depth): started with a fitted
//!   [`fademl_detect::Detector`] via
//!   [`start_with_triage`](InferenceServer::start_with_triage), the
//!   engine scores every admitted image and routes flagged inputs to a
//!   *hardened* path — stronger pre-processing filter, isolated
//!   per-image execution, filter-bypassing threat models revoked —
//!   instead of dropping them. The detector itself fails *open*: a
//!   scoring panic, error or budget overrun yields a typed
//!   [`TriageVerdict::FailOpen`] and normal-path service, never a
//!   failed request (see [`triage`]).
//! - **Detector hot swap**:
//!   [`swap_detector`](InferenceServer::swap_detector) deploys a
//!   serialized `FADEMLD1` detector the way
//!   [`swap_weights`](InferenceServer::swap_weights) deploys weights —
//!   validated first, then one pointer flip, with scores in flight
//!   finishing on the detector they started with.
//! - **Graceful shutdown**: [`shutdown`](InferenceServer::shutdown)
//!   (and `Drop`) closes the queue, wakes every parked worker and
//!   drains every queued and in-flight request before the threads exit
//!   — no client ever hangs on a dropped slot.
//!
//! The engine-wide invariant — *every accepted request's handle
//! resolves, with a verdict or a typed error* — is chaos-tested by the
//! deterministic fault-injection harness in [`faults`] (built with
//! `--features faults`, which production builds never enable).
//!
//! ```no_run
//! use fademl_serve::{InferenceServer, ServerConfig};
//! use fademl::ThreatModel;
//! use std::time::Duration;
//! # fn pipeline() -> fademl::InferencePipeline { unimplemented!() }
//! # fn image() -> fademl_tensor::Tensor { unimplemented!() }
//!
//! let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
//! let handle = server
//!     .submit_with_deadline(image(), ThreatModel::III, Some(Duration::from_millis(250)))
//!     .unwrap();
//! let verdict = handle.wait().unwrap();
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

pub mod batcher;
pub mod breaker;
pub mod config;
pub mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod metrics;
mod queue;
pub mod request;
pub mod server;
pub mod triage;

pub use breaker::{BatchMode, CircuitBreaker};
pub use config::ServerConfig;
pub use error::{DeadlineStage, Result, ServeError};
#[cfg(feature = "faults")]
pub use faults::FaultPlan;
pub use metrics::{ArenaReport, DetectionReport, MetricsReport, ServerMetrics};
pub use request::ResponseHandle;
pub use server::InferenceServer;
pub use triage::{FailOpenKind, TriageConfig, TriageVerdict};
