//! The serving engine: `submit` pushes into the shared batcher, a
//! supervised worker pool pulls batches out of it, with shared metrics,
//! fault isolation and a draining shutdown.
//!
//! ```text
//!                    ┌─────────────────────────────────────────────┐
//!  submit(img, tm) ──► shared batcher (mutex + condvar)            │
//!     │ Overloaded   │  one FIFO per TM, `queue_capacity` in all   │
//!     │ InvalidInput │  ready = full, or head `linger` old         │
//!     ▼ at admission └──────┬──────────────────────────────────────┘
//!  ResponseHandle           │ take: oldest ready head, ≤ max_batch,
//!     wait() ◄─────────┐    ▼ in-queue deadline check
//!                      │  free worker (parks only if nothing is ready)
//!                      │   (catch_unwind, breaker,
//!                      └────supervised respawn)
//! ```
//!
//! Fault model: a worker panic fails only the batch that triggered it
//! (every handle gets a typed [`ServeError::BatchFailed`]); a worker
//! *death* is detected by the supervisor and the thread respawned;
//! consecutive batch failures open the [`CircuitBreaker`] and the pool
//! sheds to isolated per-image execution until a probe batch succeeds.
//! The engine-wide invariant — every accepted request's handle
//! resolves — is enforced by a mid-batch drop guard and chaos-tested
//! under injected faults (`tests/faults.rs`, `--features faults`).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use fademl::{Detection, InferencePipeline, ThreatModel, Verdict};
use fademl_detect::Detector;
use fademl_tensor::Tensor;
use parking_lot::RwLock;

use crate::breaker::{BatchMode, CircuitBreaker};
use crate::config::ServerConfig;
use crate::error::{DeadlineStage, Result, ServeError};
use crate::metrics::{MetricsReport, ServerMetrics};
use crate::queue::SubmissionQueue;
use crate::request::{Batch, Request, ResponseHandle, ResponseSlot};
use crate::supervisor::{self, RefitReport, SupervisorConfig};
use crate::triage::{hardened_threat, AdaptiveConfig, TriageConfig, TriageRuntime, TriageVerdict};

#[cfg(feature = "faults")]
use crate::faults::{self, FaultPlan};

/// The fault-injection hook threaded through the engine. Without the
/// `faults` feature it is a unit type and every hook call compiles to
/// nothing.
#[cfg(feature = "faults")]
pub(crate) type FaultHandle = Option<FaultPlan>;

/// Zero-sized stand-in when the feature is off; deliberately not
/// `Copy` so both configurations use identical `clone()` plumbing.
#[cfg(not(feature = "faults"))]
#[derive(Debug, Clone)]
pub(crate) struct FaultHandle;

#[cfg(feature = "faults")]
fn no_faults() -> FaultHandle {
    None
}
#[cfg(not(feature = "faults"))]
fn no_faults() -> FaultHandle {
    FaultHandle
}

fn fault_on_dequeue(faults: &FaultHandle) {
    #[cfg(feature = "faults")]
    if let Some(plan) = faults {
        plan.on_dequeue();
    }
    #[cfg(not(feature = "faults"))]
    let _ = faults;
}

fn fault_on_batch_start(faults: &FaultHandle) {
    #[cfg(feature = "faults")]
    if let Some(plan) = faults {
        plan.on_batch_start();
    }
    #[cfg(not(feature = "faults"))]
    let _ = faults;
}

pub(crate) fn fault_on_score(faults: &FaultHandle) {
    #[cfg(feature = "faults")]
    if let Some(plan) = faults {
        plan.on_score();
    }
    #[cfg(not(feature = "faults"))]
    let _ = faults;
}

pub(crate) fn fault_on_refit(faults: &FaultHandle) {
    #[cfg(feature = "faults")]
    if let Some(plan) = faults {
        plan.on_refit();
    }
    #[cfg(not(feature = "faults"))]
    let _ = faults;
}

/// A running inference server wrapping one [`InferencePipeline`].
///
/// Dropping the server shuts it down gracefully: queued and in-flight
/// requests are drained and answered before the threads exit.
#[derive(Debug)]
pub struct InferenceServer {
    queue: Arc<SubmissionQueue>,
    shutting_down: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    breaker: Arc<CircuitBreaker>,
    /// The deployed pipeline behind a swap point. Workers snapshot the
    /// inner `Arc` once per batch, so a hot swap replaces the pointer
    /// while in-flight batches drain on the weights they started with.
    pipeline: Arc<RwLock<Arc<InferencePipeline>>>,
    /// The detection/triage stage, when the server was started with a
    /// fitted detector. Scores at admission; workers route flagged
    /// requests through its hardened pipeline.
    triage: Option<Arc<TriageRuntime>>,
    /// Fault-injection handle consulted by the admission-time scoring
    /// path (workers hold their own clones).
    faults: FaultHandle,
    /// The refit supervisor's configuration, when the server was
    /// started adaptive with one. Shared with the background refit
    /// loop and used by manual [`refit_detector`] calls.
    ///
    /// [`refit_detector`]: InferenceServer::refit_detector
    refit: Option<Arc<SupervisorConfig>>,
    config: ServerConfig,
    supervisor_handle: Option<JoinHandle<()>>,
    refit_handle: Option<JoinHandle<()>>,
}

/// How the triage stage is configured at launch.
enum TriageSpec {
    /// No detection: the plain serving engine.
    Off,
    /// PR 7's static triage: fixed threshold, no online state.
    Static(Detector, TriageConfig),
    /// Adaptive triage, optionally with a refit supervisor. The
    /// supervisor config is boxed to keep the enum small — it only
    /// lives for the duration of launch.
    Adaptive(
        Detector,
        TriageConfig,
        AdaptiveConfig,
        Option<Box<SupervisorConfig>>,
    ),
}

/// Everything a worker thread needs; shared so the supervisor can
/// spawn replacements for workers that die mid-flight.
#[derive(Debug)]
struct WorkerShared {
    pipeline: Arc<RwLock<Arc<InferencePipeline>>>,
    metrics: Arc<ServerMetrics>,
    breaker: Arc<CircuitBreaker>,
    queue: Arc<SubmissionQueue>,
    faults: FaultHandle,
    triage: Option<Arc<TriageRuntime>>,
}

/// Sent to the supervisor when a worker thread ends, cleanly (queue
/// closed and drained) or not (the thread died unwinding).
#[derive(Debug)]
struct WorkerExit {
    idx: usize,
    clean: bool,
}

/// Drop guard inside each worker: whatever kills the thread, the
/// supervisor hears about it.
struct ExitNotice {
    tx: Sender<WorkerExit>,
    idx: usize,
    clean: bool,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        // best-effort: if the supervisor is gone there is nobody to notify.
        let _ = self.tx.send(WorkerExit {
            idx: self.idx,
            clean: self.clean,
        });
    }
}

impl InferenceServer {
    /// Starts the engine: `config.workers` supervised inference workers
    /// sharing `pipeline` and pulling from one queue.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for unusable settings and
    /// [`ServeError::Internal`] if a thread cannot be spawned.
    pub fn start(pipeline: InferencePipeline, config: ServerConfig) -> Result<Self> {
        Self::launch(pipeline, config, TriageSpec::Off, no_faults())
    }

    /// Starts the engine with an adversarial-detection triage stage:
    /// every admitted image is scored by `detector`, and flagged inputs
    /// are served through the hardened path (stronger filter, isolated
    /// per-image execution) instead of the shared batch.
    ///
    /// # Errors
    ///
    /// Same as [`start`](InferenceServer::start), plus
    /// [`ServeError::InvalidConfig`] for an unusable [`TriageConfig`].
    pub fn start_with_triage(
        pipeline: InferencePipeline,
        config: ServerConfig,
        detector: Detector,
        triage: TriageConfig,
    ) -> Result<Self> {
        Self::launch(
            pipeline,
            config,
            TriageSpec::Static(detector, triage),
            no_faults(),
        )
    }

    /// Starts the engine with the *adaptive* detection stage: static
    /// triage plus per-tenant score baselines, the budget-driven
    /// threshold controller with its anti-flooding shed rail, and the
    /// refit reservoir. With a [`SupervisorConfig`], a background loop
    /// periodically retrains the detector from the reservoir and
    /// hot-swaps validated candidates; with `supervisor: None` (or a
    /// zero interval) the reservoir still fills but refits only run via
    /// [`refit_detector`](InferenceServer::refit_detector).
    ///
    /// # Errors
    ///
    /// Same as [`start_with_triage`](InferenceServer::start_with_triage),
    /// plus [`ServeError::InvalidConfig`] for unusable adaptive or
    /// supervisor knobs.
    pub fn start_adaptive(
        pipeline: InferencePipeline,
        config: ServerConfig,
        detector: Detector,
        triage: TriageConfig,
        adaptive: AdaptiveConfig,
        supervisor: Option<SupervisorConfig>,
    ) -> Result<Self> {
        Self::launch(
            pipeline,
            config,
            TriageSpec::Adaptive(detector, triage, adaptive, supervisor.map(Box::new)),
            no_faults(),
        )
    }

    /// Starts the engine with an armed [`FaultPlan`] (chaos testing).
    /// Also installs the quiet panic hook so injected panics don't spam
    /// stderr.
    ///
    /// # Errors
    ///
    /// Same as [`start`](InferenceServer::start).
    #[cfg(feature = "faults")]
    pub fn start_with_faults(
        pipeline: InferencePipeline,
        config: ServerConfig,
        plan: FaultPlan,
    ) -> Result<Self> {
        faults::install_quiet_panic_hook();
        Self::launch(pipeline, config, TriageSpec::Off, Some(plan))
    }

    /// Triage stage plus an armed [`FaultPlan`]: the configuration the
    /// detection chaos suite runs under.
    ///
    /// # Errors
    ///
    /// Same as [`start_with_triage`](InferenceServer::start_with_triage).
    #[cfg(feature = "faults")]
    pub fn start_with_triage_and_faults(
        pipeline: InferencePipeline,
        config: ServerConfig,
        detector: Detector,
        triage: TriageConfig,
        plan: FaultPlan,
    ) -> Result<Self> {
        faults::install_quiet_panic_hook();
        Self::launch(
            pipeline,
            config,
            TriageSpec::Static(detector, triage),
            Some(plan),
        )
    }

    /// Adaptive detection plus an armed [`FaultPlan`]: the
    /// configuration the refit chaos suite runs under.
    ///
    /// # Errors
    ///
    /// Same as [`start_adaptive`](InferenceServer::start_adaptive).
    #[cfg(feature = "faults")]
    pub fn start_adaptive_with_faults(
        pipeline: InferencePipeline,
        config: ServerConfig,
        detector: Detector,
        triage: TriageConfig,
        adaptive: AdaptiveConfig,
        supervisor: Option<SupervisorConfig>,
        plan: FaultPlan,
    ) -> Result<Self> {
        faults::install_quiet_panic_hook();
        Self::launch(
            pipeline,
            config,
            TriageSpec::Adaptive(detector, triage, adaptive, supervisor.map(Box::new)),
            Some(plan),
        )
    }

    fn launch(
        pipeline: InferencePipeline,
        config: ServerConfig,
        triage: TriageSpec,
        faults: FaultHandle,
    ) -> Result<Self> {
        config.validate()?;
        if config.compute_threads > 0 {
            fademl_tensor::par::set_threads(config.compute_threads);
        }
        let (triage, refit) = match triage {
            TriageSpec::Off => (None, None),
            TriageSpec::Static(detector, triage_config) => (
                Some(Arc::new(TriageRuntime::new(
                    detector,
                    triage_config,
                    &pipeline,
                )?)),
                None,
            ),
            TriageSpec::Adaptive(detector, triage_config, adaptive, refit) => {
                let refit = refit.map(|boxed| Arc::new(*boxed));
                if let Some(refit) = &refit {
                    refit.validate()?;
                }
                let runtime = Arc::new(TriageRuntime::new_adaptive(
                    detector,
                    triage_config,
                    adaptive,
                    &pipeline,
                )?);
                // Warm-resume the reservoir from a prior run's persisted
                // artifact. Strictly best-effort: a missing, torn or
                // mismatched artifact just means a cold reservoir.
                if let Some(path) = refit.as_ref().and_then(|r| r.reservoir_path.as_deref()) {
                    if let Ok(restored) = fademl_detect::FeatureReservoir::load(path) {
                        let _ = runtime.restore_reservoir(restored); // best-effort: cold start on mismatch
                    }
                }
                (Some(runtime), refit)
            }
        };
        let pipeline = Arc::new(RwLock::new(Arc::new(pipeline)));
        let metrics = Arc::new(ServerMetrics::new(config.max_batch_size));
        let breaker = Arc::new(CircuitBreaker::new(
            config.degrade_after_failures,
            config.probe_every,
        ));
        let queue = Arc::new(SubmissionQueue::new(&config));

        let shared = Arc::new(WorkerShared {
            pipeline: Arc::clone(&pipeline),
            metrics: Arc::clone(&metrics),
            breaker: Arc::clone(&breaker),
            queue: Arc::clone(&queue),
            faults: faults.clone(),
            triage: triage.clone(),
        });
        let (exit_tx, exit_rx) = channel::unbounded::<WorkerExit>();
        let mut worker_handles = Vec::with_capacity(config.workers);
        for idx in 0..config.workers {
            worker_handles.push(spawn_worker(idx, &shared, &exit_tx)?);
        }

        let supervisor_handle = spawn_thread("fademl-serve-supervisor".into(), move || {
            run_supervisor(&shared, &exit_rx, &exit_tx, worker_handles);
        })?;

        let shutting_down = Arc::new(AtomicBool::new(false));
        // The background refit loop only exists for adaptive servers
        // with a positive interval; manual refits need no thread.
        let refit_handle = match (&triage, &refit) {
            (Some(runtime), Some(refit_config)) if !refit_config.interval.is_zero() => {
                Some(supervisor::spawn_refit_loop(
                    Arc::clone(runtime),
                    Arc::clone(&metrics),
                    Arc::clone(refit_config),
                    Arc::clone(&shutting_down),
                    faults.clone(),
                )?)
            }
            _ => None,
        };

        Ok(InferenceServer {
            queue,
            shutting_down,
            metrics,
            breaker,
            pipeline,
            triage,
            faults,
            refit,
            config,
            supervisor_handle: Some(supervisor_handle),
            refit_handle,
        })
    }

    /// Submits one `[C, H, W]` image entering under `threat`. Returns
    /// immediately with a handle; the verdict is computed by the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the submission queue is full
    /// (the caller should shed load), [`ServeError::ShuttingDown`]
    /// during shutdown, [`ServeError::InvalidInput`] for images that
    /// fail admission validation (wrong rank, non-finite values,
    /// pixels outside the configured range).
    pub fn submit(&self, image: Tensor, threat: ThreatModel) -> Result<ResponseHandle> {
        self.submit_with_deadline(image, threat, None)
    }

    /// Like [`submit`](InferenceServer::submit), with a per-request
    /// deadline: if the verdict cannot be produced within `deadline`
    /// of now, the request is answered with
    /// [`ServeError::DeadlineExceeded`] instead of a stale result —
    /// enforced when a worker takes the request out of the queue and
    /// again when it starts executing the batch.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](InferenceServer::submit).
    pub fn submit_with_deadline(
        &self,
        image: Tensor,
        threat: ThreatModel,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle> {
        self.submit_for_tenant(image, threat, "", deadline)
    }

    /// Full-form submission carrying a tenant identity. On adaptive
    /// servers the tenant selects its score baseline (so one tenant's
    /// unusual-but-legitimate traffic does not eat the shared hardened
    /// budget); elsewhere the tenant is ignored. Anonymous callers pass
    /// `""` and share one baseline.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](InferenceServer::submit). Additionally, on
    /// adaptive servers a flagged request past the hardened path's
    /// per-window shed cap is refused with [`ServeError::Overloaded`] —
    /// the anti-flooding rail sheds excess hardened load instead of
    /// letting an attacker blind the detector or saturate the hardened
    /// pipeline.
    pub fn submit_for_tenant(
        &self,
        image: Tensor,
        threat: ThreatModel,
        tenant: &str,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if let Err(error) = validate_image(&image, &self.config) {
            self.metrics.record_invalid();
            return Err(error);
        }
        // Admission-adjacent triage: score before the request can join
        // a shared batch, so routing is settled at enqueue time. A
        // detector failure resolves to a fail-open verdict — scoring
        // can never reject the request. Only the adaptive shed rail
        // refuses work here, and only with a typed error.
        let triage = self
            .triage
            .as_ref()
            .map(|runtime| runtime.score(&image, tenant, &self.metrics, &self.faults));
        if matches!(triage, Some(TriageVerdict::Shed { .. })) {
            return Err(ServeError::Overloaded {
                capacity: self.config.queue_capacity,
            });
        }
        let slot = ResponseSlot::new();
        let handle = ResponseHandle::new(Arc::clone(&slot));
        let submitted_at = Instant::now();
        let request = Request {
            image,
            threat,
            slot,
            submitted_at,
            deadline: deadline.map(|d| submitted_at + d),
            triage,
        };
        // Reserve the depth-gauge slot before the request can reach a
        // worker, so the dequeue decrement can never race ahead of it.
        self.metrics.record_enqueue_attempt();
        match self.queue.submit(request) {
            Ok(()) => {
                self.metrics.record_submitted();
                Ok(handle)
            }
            Err(err) => {
                if matches!(err, ServeError::Overloaded { .. }) {
                    self.metrics.record_rejected();
                } else {
                    self.metrics.release_queue_slot();
                }
                Err(err)
            }
        }
    }

    /// Convenience: submit and block for the verdict.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](InferenceServer::submit), plus any pipeline
    /// error the workers hit.
    pub fn classify(&self, image: Tensor, threat: ThreatModel) -> Result<Verdict> {
        self.submit(image, threat)?.wait()
    }

    /// Live metrics snapshot.
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Generation of the currently deployed weights (0 = the weights
    /// the server started with; bumped once per completed swap).
    pub fn swap_generation(&self) -> u64 {
        self.metrics.swap_generation()
    }

    /// Atomically publishes `next` as the deployed pipeline and returns
    /// the new weight generation.
    ///
    /// Zero-downtime by construction: workers snapshot the pipeline
    /// pointer once per batch, so every in-flight batch finishes on the
    /// consistent weights it started with, every batch picked up after
    /// this call sees `next` in full, and no request is paused or
    /// dropped while the pointer flips.
    pub fn swap_pipeline(&self, next: InferencePipeline) -> u64 {
        // The hardened pipeline shares the swapped model: rebuild it
        // first so no flagged request can observe new weights on the
        // normal path but old weights on the hardened one for longer
        // than one in-flight batch.
        if let Some(triage) = &self.triage {
            triage.rebuild_hardened(&next);
        }
        *self.pipeline.write() = Arc::new(next);
        self.metrics.record_swap()
    }

    /// Whether this server runs the adversarial-detection triage stage.
    pub fn triage_enabled(&self) -> bool {
        self.triage.is_some()
    }

    /// Whether this server runs the *adaptive* detection stage
    /// (reservoir, baselines, threshold controller).
    pub fn adaptive_enabled(&self) -> bool {
        self.triage
            .as_ref()
            .is_some_and(|runtime| runtime.adaptive_enabled())
    }

    /// Generation of the deployed detector (0 = the detector the server
    /// started with; bumped once per completed detector swap).
    pub fn detector_generation(&self) -> u64 {
        self.metrics.detector_generation()
    }

    /// The triage stage's current effective base threshold: the
    /// controller's value on adaptive servers, the configured static
    /// threshold otherwise, `None` without triage.
    pub fn triage_threshold(&self) -> Option<f32> {
        self.triage
            .as_ref()
            .map(|runtime| runtime.current_threshold())
    }

    /// Hot detector swap from a serialized `FADEMLD1` artifact: CRC and
    /// structural validation first, then the same zero-downtime pointer
    /// flip as [`swap_weights`](InferenceServer::swap_weights) — scores
    /// in flight finish on the incumbent, every later score sees the
    /// candidate. Returns the new detector generation.
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapFailed`] when the server has no triage stage,
    /// the artifact fails validation, or the decoded detector's feature
    /// geometry disagrees with the incumbent's. The incumbent keeps
    /// serving untouched in every failure case.
    pub fn swap_detector(&self, artifact: &[u8]) -> Result<u64> {
        let triage = self.triage.as_ref().ok_or_else(|| ServeError::SwapFailed {
            reason: "server has no triage stage to swap a detector into".into(),
        })?;
        let candidate = Detector::from_bytes(artifact).map_err(|err| ServeError::SwapFailed {
            reason: err.to_string(),
        })?;
        triage.swap_detector(candidate, &self.metrics)
    }

    /// Runs one refit attempt now, on the caller's thread: snapshot the
    /// reservoir, train a candidate, validate it against the held-out
    /// slice, swap only if the AUC holds up. Useful for tests and for
    /// deployments that drive refits from their own scheduler
    /// (supervisor `interval: Duration::ZERO`).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the server was not started
    /// via [`start_adaptive`](InferenceServer::start_adaptive) with a
    /// supervisor config. Refit failures themselves do not error — they
    /// resolve inside the returned [`RefitReport`].
    pub fn refit_detector(&self) -> Result<RefitReport> {
        let (Some(triage), Some(refit)) = (&self.triage, &self.refit) else {
            return Err(ServeError::InvalidConfig {
                reason: "refit requires an adaptive server with a supervisor config".into(),
            });
        };
        Ok(supervisor::run_refit(
            triage,
            &self.metrics,
            refit,
            &self.faults,
        ))
    }

    /// Hot weight swap from a serialized `FADEMLW2` artifact (see
    /// [`fademl::serialize`]). The bytes are decoded into a clone of
    /// the deployed pipeline — CRC trailer and per-layer shape
    /// validation included — so the live weights are replaced only if
    /// the whole artifact is valid. Returns the new generation.
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapFailed`] when the artifact fails CRC or shape
    /// validation; the previous weights keep serving untouched.
    pub fn swap_weights(&self, artifact: &[u8]) -> Result<u64> {
        let current = pipeline_snapshot(&self.pipeline);
        let mut next = (*current).clone();
        fademl::serialize::decode_weights(artifact, next.model_mut()).map_err(|err| {
            ServeError::SwapFailed {
                reason: err.to_string(),
            }
        })?;
        Ok(self.swap_pipeline(next))
    }

    /// Whether the engine is currently degraded (per-image execution
    /// behind the circuit breaker).
    pub fn is_degraded(&self) -> bool {
        self.breaker.is_degraded()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Graceful shutdown: stops accepting new work, drains every queued
    /// and in-flight request, joins all threads and returns the final
    /// metrics.
    pub fn shutdown(mut self) -> MetricsReport {
        self.stop();
        self.metrics.report()
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        if let Some(handle) = self.refit_handle.take() {
            // best-effort: a panicked refit loop still counts as stopped.
            let _ = handle.join();
        }
        // Closing the queue wakes every parked worker; they drain all
        // buckets regardless of linger, exit, and the supervisor follows.
        self.queue.close();
        if let Some(handle) = self.supervisor_handle.take() {
            // best-effort: same for the supervisor during teardown.
            let _ = handle.join();
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        if self.supervisor_handle.is_some() || self.refit_handle.is_some() {
            self.stop();
        }
    }
}

/// Spawns a named thread, mapping spawn failure to a typed error.
pub(crate) fn spawn_thread<F>(name: String, body: F) -> Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(body)
        .map_err(|err| ServeError::Internal {
            reason: format!("failed to spawn thread {name}: {err}"),
        })
}

/// Spawns worker `idx` over the shared context. The `ExitNotice` drop
/// guard reports the thread's end to the supervisor whether it drains
/// cleanly or dies unwinding.
fn spawn_worker(
    idx: usize,
    shared: &Arc<WorkerShared>,
    exit_tx: &Sender<WorkerExit>,
) -> Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let exit_tx = exit_tx.clone();
    spawn_thread(format!("fademl-serve-worker-{idx}"), move || {
        let mut notice = ExitNotice {
            tx: exit_tx,
            idx,
            clean: false,
        };
        loop {
            fault_on_dequeue(&shared.faults);
            let Some(batch) = shared.queue.take(&shared.metrics) else {
                break;
            };
            process_batch(&shared, batch);
        }
        notice.clean = true;
    })
}

/// Supervisor loop: respawn workers that die uncleanly, wind down once
/// every worker has drained, then join all of them.
fn run_supervisor(
    shared: &Arc<WorkerShared>,
    exit_rx: &Receiver<WorkerExit>,
    exit_tx: &Sender<WorkerExit>,
    mut handles: Vec<JoinHandle<()>>,
) {
    let mut live = handles.len();
    while live > 0 {
        let Ok(exit) = exit_rx.recv() else { break };
        if exit.clean {
            live -= 1;
        } else {
            shared.metrics.record_worker_respawn();
            match spawn_worker(exit.idx, shared, exit_tx) {
                Ok(handle) => handles.push(handle),
                // Without a replacement the dead worker counts as gone;
                // the remaining workers keep draining the queue.
                Err(_) => live -= 1,
            }
        }
    }
    // Every worker is gone. If the queue is still open (all workers
    // died and could not be respawned), answer what it holds with a
    // typed error until shutdown closes it — clients must never hang on
    // a batch nobody will execute.
    while let Some(batch) = shared.queue.take(&shared.metrics) {
        for request in batch.requests {
            if request.fail(ServeError::BatchFailed {
                reason: "no workers available".into(),
            }) {
                shared.metrics.record_failed();
            }
        }
    }
    for handle in handles {
        // best-effort: a panicked worker was already counted as failed.
        let _ = handle.join();
    }
}

/// Admission-time input validation: one adversarially-malformed image
/// must never reach a shared batch, where it would poison co-batched
/// requests (NaN spreads through conv/matmul reductions) or crash the
/// worker serving them.
fn validate_image(image: &Tensor, config: &ServerConfig) -> Result<()> {
    if image.rank() != 3 {
        return Err(ServeError::InvalidInput {
            reason: format!("expected a [C, H, W] image, got {:?}", image.dims()),
        });
    }
    if image.numel() == 0 {
        return Err(ServeError::InvalidInput {
            reason: "empty image".into(),
        });
    }
    for (index, &value) in image.as_slice().iter().enumerate() {
        if !value.is_finite() {
            return Err(ServeError::InvalidInput {
                reason: format!("non-finite pixel {value} at flat index {index}"),
            });
        }
        if value < config.pixel_min || value > config.pixel_max {
            return Err(ServeError::InvalidInput {
                reason: format!(
                    "pixel {value} at flat index {index} outside [{}, {}]",
                    config.pixel_min, config.pixel_max
                ),
            });
        }
    }
    Ok(())
}

/// One request awaiting execution inside a batch: its slot, its
/// submission time, and the detection annotation (if triaged) to carry
/// back on the verdict.
struct Waiter {
    slot: Arc<ResponseSlot>,
    submitted_at: Instant,
    detection: Option<Detection>,
}

/// Mid-batch drop guard: if the worker dies between taking the batch
/// and delivery — panic, injected kill, anything that unwinds — every
/// still-unanswered handle in the batch resolves with a typed error
/// instead of hanging a client forever.
struct AnswerOnDrop<'a> {
    metrics: &'a ServerMetrics,
    waiters: &'a [Waiter],
}

impl Drop for AnswerOnDrop<'_> {
    fn drop(&mut self) {
        for waiter in self.waiters {
            if waiter.slot.fill(Err(ServeError::BatchFailed {
                reason: "worker terminated mid-batch".into(),
            })) {
                self.metrics.record_failed();
            }
        }
    }
}

/// Clones the live pipeline pointer. The read guard lives only for the
/// inner expression, so no caller ever holds the pipeline lock across
/// other lock acquisitions or a concurrent swap.
fn pipeline_snapshot(slot: &RwLock<Arc<InferencePipeline>>) -> Arc<InferencePipeline> {
    Arc::clone(&slot.read())
}

/// Executes one batch under full fault isolation: in-batch deadline
/// enforcement, `catch_unwind` around the pipeline, circuit-breaker
/// accounting, and the answer-on-drop guard.
fn process_batch(shared: &WorkerShared, batch: Batch) {
    let threat = batch.threat;
    let now = Instant::now();
    let mut images = Vec::with_capacity(batch.requests.len());
    let mut waiters = Vec::with_capacity(batch.requests.len());
    let mut hard_images = Vec::new();
    let mut hard_waiters = Vec::new();
    for request in batch.requests {
        if let Some(overshoot) = request.overshoot(now) {
            // Expired between leaving the queue and execution: refuse
            // to serve a stale answer.
            shared
                .metrics
                .record_deadline_miss(DeadlineStage::Batch, overshoot);
            if request.fail(ServeError::DeadlineExceeded {
                stage: DeadlineStage::Batch,
            }) {
                shared.metrics.record_failed();
            }
            continue;
        }
        // Flagged requests peel off to the hardened path; everything
        // else (clean, fail-open, untriaged) stays on the shared batch.
        let hardened = shared.triage.is_some()
            && matches!(request.triage, Some(TriageVerdict::Flagged { .. }));
        let waiter = Waiter {
            slot: request.slot,
            submitted_at: request.submitted_at,
            detection: request.triage.and_then(|t| t.detection(hardened)),
        };
        if hardened {
            hard_images.push(request.image);
            hard_waiters.push(waiter);
        } else {
            images.push(request.image);
            waiters.push(waiter);
        }
    }
    if waiters.is_empty() && hard_waiters.is_empty() {
        return;
    }

    // Both guards are armed before either path executes: a worker kill
    // mid-way through the normal subset must still answer the hardened
    // subset (and vice versa) during the unwind.
    let guard = AnswerOnDrop {
        metrics: &shared.metrics,
        waiters: &waiters,
    };
    let hard_guard = AnswerOnDrop {
        metrics: &shared.metrics,
        waiters: &hard_waiters,
    };
    let mode = shared.breaker.plan_batch();
    // One pipeline snapshot per batch: a concurrent hot swap flips the
    // shared pointer, but this batch keeps the consistent weights it
    // started with — no request can observe torn weights.
    let pipeline = pipeline_snapshot(&shared.pipeline);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fault_on_batch_start(&shared.faults);
        if !waiters.is_empty() {
            match mode {
                BatchMode::Batched { probe } => {
                    execute_batched(shared, &pipeline, probe, &images, threat, &waiters);
                }
                BatchMode::PerImage => {
                    execute_per_image(shared, &pipeline, &images, threat, &waiters, false);
                }
            }
        }
        // The hardened subset always runs isolated per-image on the
        // stronger-filter pipeline, with the filter-bypassing threat
        // model revoked — the same degraded-mode machinery the circuit
        // breaker uses, so one adversarial input fails alone.
        if let (Some(triage), false) = (&shared.triage, hard_waiters.is_empty()) {
            let hardened = triage.hardened_snapshot();
            execute_per_image(
                shared,
                &hardened,
                &hard_images,
                hardened_threat(threat),
                &hard_waiters,
                true,
            );
        }
    }));
    match outcome {
        Ok(()) => {}
        Err(payload) => {
            // Panic isolation: only this batch fails; the worker (and
            // every other in-flight batch) survives.
            shared.metrics.record_worker_panic();
            shared.metrics.record_batch_failed();
            shared.breaker.record_batch_failure(&shared.metrics);
            let error = ServeError::BatchFailed {
                reason: panic_message(payload.as_ref()),
            };
            for waiter in waiters.iter().chain(&hard_waiters) {
                if waiter.slot.fill(Err(error.clone())) {
                    shared.metrics.record_failed();
                }
            }
            // An injected worker kill unwinds past the worker loop so
            // the supervisor's respawn path gets exercised; the guards
            // (already satisfied above) drop during the unwind.
            #[cfg(feature = "faults")]
            if faults::is_worker_kill(payload.as_ref()) {
                std::panic::resume_unwind(payload);
            }
        }
    }
    drop(hard_guard);
    drop(guard);
}

/// Normal batched execution: stack, one batched forward, deliver.
/// Mixed-shape batches fall back to isolated per-image execution.
/// Breaker accounting happens *before* any slot is filled, so clients
/// observing a resolved handle also observe the breaker transition it
/// caused.
fn execute_batched(
    shared: &WorkerShared,
    pipeline: &InferencePipeline,
    probe: bool,
    images: &[Tensor],
    threat: ThreatModel,
    waiters: &[Waiter],
) {
    let stacked = match Tensor::stack(images) {
        Ok(stacked) => stacked,
        // Heterogeneous image shapes can't stack; classify each image
        // individually so well-formed requests still succeed.
        Err(_) => {
            return execute_per_image(shared, pipeline, images, threat, waiters, false);
        }
    };
    match pipeline.classify_batch(&stacked, threat) {
        Ok(verdicts) => {
            shared.breaker.record_success(probe, &shared.metrics);
            for (mut verdict, waiter) in verdicts.into_iter().zip(waiters) {
                verdict.detection = waiter.detection;
                if waiter.slot.fill(Ok(verdict)) {
                    shared
                        .metrics
                        .record_completed(elapsed_us(waiter.submitted_at));
                }
            }
        }
        Err(err) => {
            shared.metrics.record_batch_failed();
            shared.breaker.record_batch_failure(&shared.metrics);
            let error = ServeError::Pipeline {
                message: err.to_string(),
            };
            for waiter in waiters {
                if waiter.slot.fill(Err(error.clone())) {
                    shared.metrics.record_failed();
                }
            }
        }
    }
}

/// Isolated per-image execution: one image at a time, each
/// classification wrapped in its own `catch_unwind`, so a single
/// poisoned image fails alone instead of taking down its neighbours.
/// Serves three callers — degraded mode behind the breaker,
/// mixed-shape fallback, and (with `hardened`) the triage stage's
/// hardened path, which additionally records the hardened latency
/// split.
fn execute_per_image(
    shared: &WorkerShared,
    pipeline: &InferencePipeline,
    images: &[Tensor],
    threat: ThreatModel,
    waiters: &[Waiter],
    hardened: bool,
) {
    for (image, waiter) in images.iter().zip(waiters) {
        if !hardened {
            shared.metrics.record_single_fallback();
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| pipeline.classify(image, threat)));
        match outcome {
            Ok(Ok(mut verdict)) => {
                verdict.detection = waiter.detection;
                if waiter.slot.fill(Ok(verdict)) {
                    let latency = elapsed_us(waiter.submitted_at);
                    shared.metrics.record_completed(latency);
                    if hardened {
                        shared.metrics.record_hardened(latency);
                    }
                }
            }
            Ok(Err(err)) => {
                if waiter.slot.fill(Err(ServeError::Pipeline {
                    message: err.to_string(),
                })) {
                    shared.metrics.record_failed();
                }
            }
            Err(payload) => {
                shared.metrics.record_worker_panic();
                if waiter.slot.fill(Err(ServeError::BatchFailed {
                    reason: panic_message(payload.as_ref()),
                })) {
                    shared.metrics.record_failed();
                }
            }
        }
    }
}

/// Renders a caught panic payload into a `BatchFailed` reason.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    #[cfg(feature = "faults")]
    if let Some(described) = faults::describe_payload(payload) {
        return described;
    }
    if let Some(text) = payload.downcast_ref::<&str>() {
        return (*text).to_string();
    }
    if let Some(text) = payload.downcast_ref::<String>() {
        return text.clone();
    }
    "worker panicked with an opaque payload".into()
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl::InferencePipeline;
    use fademl_filters::FilterSpec as Spec;
    use fademl_nn::vgg::VggConfig;
    use fademl_tensor::TensorRng;

    fn pipeline() -> InferencePipeline {
        let mut rng = TensorRng::seed_from_u64(1);
        let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        InferencePipeline::new(model, Spec::Lap { np: 8 }).unwrap()
    }

    fn images(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = TensorRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.uniform(&[3, 16, 16], 0.0, 1.0))
            .collect()
    }

    #[test]
    fn serves_verdicts_matching_direct_classification() {
        let reference = pipeline();
        let server = InferenceServer::start(
            pipeline(),
            ServerConfig {
                queue_capacity: 64,
                max_batch_size: 4,
                linger_us: 1_000,
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let imgs = images(10, 2);
        let threats = [ThreatModel::I, ThreatModel::II, ThreatModel::III];
        let handles: Vec<_> = imgs
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let threat = threats[i % 3];
                (i, threat, server.submit(img.clone(), threat).unwrap())
            })
            .collect();
        for (i, threat, handle) in handles {
            let served = handle.wait().unwrap();
            let direct = reference.classify(&imgs[i], threat).unwrap();
            assert_eq!(served.class, direct.class, "image {i} under {threat}");
            assert_eq!(served.top5, direct.top5);
        }
        let report = server.shutdown();
        assert_eq!(report.requests_submitted, 10);
        assert_eq!(report.requests_completed, 10);
        assert_eq!(report.requests_failed, 0);
        // Depth gauge must net out to zero after a full drain — the
        // enqueue increment is reserved before a worker can race it.
        assert_eq!(report.queue_depth, 0);
        assert!(report.batches_dispatched >= 3); // ≥ one per threat model
        assert!(report.max_batch_seen <= 4);
        assert_eq!(report.worker_panics, 0);
        assert_eq!(report.workers_respawned, 0);
        assert!(!report.degraded_now);
    }

    #[test]
    fn a_lone_request_waits_no_longer_than_the_linger_plus_a_wake_up() {
        // Concurrency 1, so every batch is a singleton and the queue
        // wait is the hold plus one worker wake-up: never shorter than
        // the hold, and at both settings under the 2000 the old push
        // design's default could not beat.
        for linger_us in [0, ServerConfig::default().linger_us] {
            let config = ServerConfig {
                linger_us,
                ..ServerConfig::default()
            };
            let server = InferenceServer::start(pipeline(), config).unwrap();
            for img in images(20, 30) {
                server.classify(img, ThreatModel::III).unwrap();
            }
            let report = server.shutdown();
            assert_eq!(report.batch_size_counts[0], 20, "concurrency 1: singletons");
            assert!(
                (linger_us..2_000).contains(&report.queue_wait_p50_us),
                "linger {linger_us}µs: queue wait p50 {}µs",
                report.queue_wait_p50_us
            );
            assert!(report.queue_wait_p50_us <= report.latency_p50_us);
        }
    }

    #[test]
    fn shutdown_wakes_parked_workers_promptly() {
        let server = InferenceServer::start(
            pipeline(),
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // By the time one request has been served the other workers have
        // had every chance to park; shutdown must return either way.
        server
            .classify(images(1, 31).pop().unwrap(), ThreatModel::I)
            .unwrap();
        let started = Instant::now();
        let report = server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(report.requests_completed, 1);
    }

    /// The one place a deadline can still expire in stage `Batch`: after
    /// the worker took the request out of the queue, before it executes.
    #[test]
    fn deadline_passed_between_take_and_execution_is_a_batch_stage_miss() {
        let config = ServerConfig::default();
        let shared = WorkerShared {
            pipeline: Arc::new(RwLock::new(Arc::new(pipeline()))),
            metrics: Arc::new(ServerMetrics::new(config.max_batch_size)),
            breaker: Arc::new(CircuitBreaker::new(3, 4)),
            queue: Arc::new(SubmissionQueue::new(&config)),
            faults: no_faults(),
            triage: None,
        };
        let mut imgs = images(2, 32).into_iter();
        let now = Instant::now();
        let mut handles = Vec::new();
        let requests = [Some(now - Duration::from_millis(1)), None]
            .into_iter()
            .map(|deadline| {
                let slot = ResponseSlot::new();
                handles.push(ResponseHandle::new(Arc::clone(&slot)));
                Request {
                    image: imgs.next().unwrap(),
                    threat: ThreatModel::I,
                    slot,
                    submitted_at: now - Duration::from_millis(5),
                    deadline,
                    triage: None,
                }
            })
            .collect();
        process_batch(
            &shared,
            Batch {
                threat: ThreatModel::I,
                requests,
            },
        );
        let live = handles.pop().unwrap();
        let stale = handles.pop().unwrap();
        assert_eq!(
            stale.wait(),
            Err(ServeError::DeadlineExceeded {
                stage: DeadlineStage::Batch,
            })
        );
        assert!(live.wait().is_ok(), "its batch-mate is still served");
        let report = shared.metrics.report();
        assert_eq!(report.deadline_missed_batch, 1);
        assert_eq!(report.deadline_missed_queue, 0);
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        // Long linger + large batches: requests sit in buckets until
        // shutdown drains them.
        let server = InferenceServer::start(
            pipeline(),
            ServerConfig {
                queue_capacity: 64,
                max_batch_size: 64,
                linger_us: 60_000_000, // 60s — only the drain can flush
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let handles: Vec<_> = images(5, 3)
            .into_iter()
            .map(|img| server.submit(img, ThreatModel::III).unwrap())
            .collect();
        let started = Instant::now();
        let report = server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5), "no 60 s hold");
        assert_eq!(report.requests_completed, 5);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn rejects_malformed_images_at_submit() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        let err = server
            .submit(Tensor::zeros(&[1, 3, 16, 16]), ThreatModel::I)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidInput { .. }));
        assert_eq!(server.metrics().requests_invalid, 1);
        server.shutdown();
    }

    #[test]
    fn rejects_non_finite_and_out_of_range_pixels() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        let mut nan = images(1, 7).pop().unwrap();
        nan.as_mut_slice()[5] = f32::NAN;
        let mut inf = images(1, 8).pop().unwrap();
        inf.as_mut_slice()[0] = f32::INFINITY;
        let mut hot = images(1, 9).pop().unwrap();
        hot.as_mut_slice()[10] = 3.5;
        for bad in [nan, inf, hot] {
            let err = server.submit(bad, ThreatModel::I).unwrap_err();
            assert!(matches!(err, ServeError::InvalidInput { .. }), "{err}");
        }
        let report = server.shutdown();
        assert_eq!(report.requests_invalid, 3);
        assert_eq!(report.requests_submitted, 0);
        assert_eq!(report.queue_depth, 0);
    }

    #[test]
    fn custom_pixel_range_admits_wider_values() {
        let server = InferenceServer::start(
            pipeline(),
            ServerConfig {
                pixel_min: -2.0,
                pixel_max: 2.0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::seed_from_u64(12);
        let img = rng.uniform(&[3, 16, 16], -1.5, 1.5);
        assert!(server.submit(img, ThreatModel::I).is_ok());
        server.shutdown();
    }

    #[test]
    fn generous_deadline_still_serves() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        let handle = server
            .submit_with_deadline(
                images(1, 10).pop().unwrap(),
                ThreatModel::I,
                Some(Duration::from_secs(30)),
            )
            .unwrap();
        assert!(handle.wait().is_ok());
        let report = server.shutdown();
        assert_eq!(report.deadline_missed_queue, 0);
        assert_eq!(report.deadline_missed_batch, 0);
    }

    #[test]
    fn mixed_shapes_fall_back_to_individual_classification() {
        let server = InferenceServer::start(
            pipeline(),
            ServerConfig {
                max_batch_size: 2,
                linger_us: 50_000,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::seed_from_u64(4);
        let good = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        let odd = rng.uniform(&[3, 8, 8], 0.0, 1.0); // stacks with nothing
        let h1 = server.submit(good.clone(), ThreatModel::I).unwrap();
        let h2 = server.submit(odd, ThreatModel::I).unwrap();
        // The well-formed image must still be classified.
        assert!(h1.wait().is_ok());
        // The odd-shaped one either classifies (16×16 model may reject
        // it) or reports a pipeline error — but it must not hang.
        let _ = h2.wait();
        server.shutdown();
    }

    #[test]
    fn drop_is_a_graceful_shutdown() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        let handle = server
            .submit(images(1, 5).pop().unwrap(), ThreatModel::I)
            .unwrap();
        drop(server);
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn swap_weights_changes_served_verdicts() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        assert_eq!(server.swap_generation(), 0);
        let img = images(1, 20).pop().unwrap();
        let before = server.classify(img.clone(), ThreatModel::I).unwrap();

        // A differently-seeded model, shipped as a FADEMLW2 artifact.
        let mut rng = TensorRng::seed_from_u64(99);
        let other = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        let reference = InferencePipeline::new(other.clone(), Spec::Lap { np: 8 }).unwrap();
        let artifact = fademl::serialize::encode_weights(&other);
        let generation = server.swap_weights(&artifact).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(server.swap_generation(), 1);

        let after = server.classify(img.clone(), ThreatModel::I).unwrap();
        let direct = reference.classify(&img, ThreatModel::I).unwrap();
        assert_eq!(after.class, direct.class);
        assert_eq!(after.top5, direct.top5);
        // The probabilities must come from the new weights, not the old.
        assert_ne!(before.probabilities, after.probabilities);
        let report = server.shutdown();
        assert_eq!(report.swap_generation, 1);
        assert_eq!(report.requests_failed, 0);
    }

    #[test]
    fn corrupt_artifact_is_refused_and_old_weights_keep_serving() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        let img = images(1, 21).pop().unwrap();
        let before = server.classify(img.clone(), ThreatModel::II).unwrap();

        let mut rng = TensorRng::seed_from_u64(99);
        let other = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        let intact = fademl::serialize::encode_weights(&other);
        let mut flipped = intact.clone();
        flipped[intact.len() / 2] ^= 0xFF; // break the CRC

        // The retired CRC-less format: old magic, records, no trailer.
        let mut legacy = intact[..intact.len() - 4].to_vec();
        legacy[..8].copy_from_slice(b"FADEMLW1");
        for artifact in [flipped, legacy] {
            let err = server.swap_weights(&artifact).unwrap_err();
            assert!(matches!(err, ServeError::SwapFailed { .. }), "{err}");
            assert_eq!(server.swap_generation(), 0);
        }

        let after = server.classify(img, ThreatModel::II).unwrap();
        assert_eq!(before.probabilities, after.probabilities);
        server.shutdown();
    }

    #[test]
    fn mismatched_architecture_artifact_is_refused() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        // Different class count → per-layer shapes can't match.
        let mut rng = TensorRng::seed_from_u64(5);
        let wrong = VggConfig::tiny(3, 16, 9).build(&mut rng).unwrap();
        let artifact = fademl::serialize::encode_weights(&wrong);
        let err = server.swap_weights(&artifact).unwrap_err();
        assert!(matches!(err, ServeError::SwapFailed { .. }), "{err}");
        assert_eq!(server.swap_generation(), 0);
        server.shutdown();
    }

    fn detector(seed: u64) -> Detector {
        let config = fademl_detect::DetectorConfig {
            trees: 16,
            subsample: 16,
            scales: 2,
            seed,
        };
        Detector::fit_images(&images(32, seed), &config).unwrap()
    }

    #[test]
    fn triage_annotates_clean_verdicts() {
        // Threshold 1.0: isolation scores are strictly below 1, so
        // nothing flags and everything serves on the batched path.
        let server = InferenceServer::start_with_triage(
            pipeline(),
            ServerConfig::default(),
            detector(40),
            TriageConfig {
                threshold: 1.0,
                ..TriageConfig::default()
            },
        )
        .unwrap();
        assert!(server.triage_enabled());
        for img in images(4, 41) {
            let verdict = server.classify(img, ThreatModel::II).unwrap();
            let detection = verdict.detection.expect("triaged verdicts are annotated");
            assert!(!detection.flagged);
            assert!(!detection.hardened);
            assert!((0.0..1.0).contains(&detection.score));
        }
        let report = server.shutdown();
        let d = report.detection.expect("triage section present");
        assert_eq!(d.clean, 4);
        assert_eq!(d.flagged, 0);
        assert_eq!(d.hardened_served, 0);
        assert_eq!(
            d.fail_open_panics + d.fail_open_timeouts + d.fail_open_errors,
            0
        );
    }

    #[test]
    fn flagged_requests_take_hardened_path() {
        // Threshold 0.0 flags everything: every request must be served
        // through the stronger filter with TM-I escalated to TM-III.
        let hardened_filter = Spec::Lap { np: 32 };
        let mut rng = TensorRng::seed_from_u64(1);
        let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        let reference = InferencePipeline::new(model, hardened_filter).unwrap();
        let server = InferenceServer::start_with_triage(
            pipeline(),
            ServerConfig::default(),
            detector(42),
            TriageConfig {
                threshold: 0.0,
                hardened_filter,
                ..TriageConfig::default()
            },
        )
        .unwrap();
        let imgs = images(3, 43);
        for img in &imgs {
            let verdict = server.classify(img.clone(), ThreatModel::I).unwrap();
            let detection = verdict.detection.expect("flagged verdicts are annotated");
            assert!(detection.flagged);
            assert!(detection.hardened);
            let direct = reference.classify(img, ThreatModel::III).unwrap();
            assert_eq!(verdict.class, direct.class);
            assert_eq!(verdict.probabilities, direct.probabilities);
        }
        let report = server.shutdown();
        let d = report.detection.expect("triage section present");
        assert_eq!(d.flagged, 3);
        assert_eq!(d.hardened_served, 3);
        assert_eq!(report.requests_completed, 3);
        assert_eq!(report.requests_failed, 0);
        // Hardened execution is per-image but is not degraded-mode
        // accounting: the breaker never opened.
        assert_eq!(report.single_image_fallbacks, 0);
        assert!(!report.degraded_now);
    }

    #[test]
    fn swap_rebuilds_hardened_pipeline() {
        let hardened_filter = Spec::Lap { np: 32 };
        let server = InferenceServer::start_with_triage(
            pipeline(),
            ServerConfig::default(),
            detector(44),
            TriageConfig {
                threshold: 0.0,
                hardened_filter,
                ..TriageConfig::default()
            },
        )
        .unwrap();
        let img = images(1, 45).pop().unwrap();
        let before = server.classify(img.clone(), ThreatModel::III).unwrap();

        let mut rng = TensorRng::seed_from_u64(99);
        let other = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        let reference = InferencePipeline::new(other.clone(), hardened_filter).unwrap();
        let artifact = fademl::serialize::encode_weights(&other);
        server.swap_weights(&artifact).unwrap();

        // The hardened path must serve the swapped weights, not the
        // generation the server started with.
        let after = server.classify(img.clone(), ThreatModel::III).unwrap();
        let direct = reference.classify(&img, ThreatModel::III).unwrap();
        assert_eq!(after.class, direct.class);
        assert_eq!(after.probabilities, direct.probabilities);
        assert_ne!(before.probabilities, after.probabilities);
        server.shutdown();
    }

    #[test]
    fn plain_server_reports_no_detection_section() {
        let server = InferenceServer::start(pipeline(), ServerConfig::default()).unwrap();
        assert!(!server.triage_enabled());
        let verdict = server
            .classify(images(1, 46).pop().unwrap(), ThreatModel::I)
            .unwrap();
        assert!(verdict.detection.is_none());
        assert!(server.shutdown().detection.is_none());
    }

    #[test]
    fn invalid_triage_config_refused() {
        assert!(matches!(
            InferenceServer::start_with_triage(
                pipeline(),
                ServerConfig::default(),
                detector(47),
                TriageConfig {
                    threshold: f32::NAN,
                    ..TriageConfig::default()
                },
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn invalid_config_refused() {
        assert!(matches!(
            InferenceServer::start(
                pipeline(),
                ServerConfig {
                    workers: 0,
                    ..Default::default()
                }
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
    }
}
