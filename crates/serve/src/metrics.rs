//! Server observability: lock-free counters on the hot path, a compact
//! latency reservoir, and a serde-serializable snapshot for reports.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::error::DeadlineStage;
use crate::triage::FailOpenKind;

/// Cap on the latency reservoir; beyond this the recorder degrades to
/// overwrite-oldest so long-running servers stay bounded in memory.
const LATENCY_RESERVOIR: usize = 65_536;

/// Upper edges (µs) of the deadline-miss overshoot histogram buckets;
/// the last bucket is open-ended.
const OVERSHOOT_EDGES_US: [u64; 3] = [1_000, 10_000, 100_000];

/// Live counters shared by the submission path and the workers. All
/// hot-path updates are single atomic ops; only latency recording takes
/// a (short) lock.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests_submitted: AtomicU64,
    requests_rejected: AtomicU64,
    requests_invalid: AtomicU64,
    requests_completed: AtomicU64,
    requests_failed: AtomicU64,
    batches_dispatched: AtomicU64,
    batched_images: AtomicU64,
    max_batch_seen: AtomicUsize,
    queue_depth: AtomicUsize,
    /// Count of dispatched batches per size; index 0 holds size 1.
    batch_size_counts: Vec<AtomicU64>,
    /// End-to-end latencies in microseconds (submit → verdict ready).
    latencies_us: Mutex<LatencyReservoir>,
    /// Queue waits in microseconds (submit → taken by a worker).
    queue_waits_us: Mutex<LatencyReservoir>,
    // Fault-tolerance counters.
    worker_panics: AtomicU64,
    workers_respawned: AtomicU64,
    batches_failed: AtomicU64,
    deadline_missed_queue: AtomicU64,
    deadline_missed_batch: AtomicU64,
    /// Deadline-miss overshoot histogram: <1 ms, <10 ms, <100 ms, rest.
    deadline_overshoot_buckets: [AtomicU64; 4],
    degraded_entered: AtomicU64,
    degraded_exited: AtomicU64,
    degraded_now: AtomicBool,
    single_image_fallbacks: AtomicU64,
    /// Completed hot weight swaps. Monotone: a reader observing
    /// generation `g` knows every batch started after the swap ran on
    /// weights of generation ≥ `g`.
    swap_generation: AtomicU64,
    // Adversarial-triage counters (all zero when triage is disabled;
    // the report's `detection` section materializes only once any of
    // them, or the detector generation, moves, so non-triage reports
    // stay schema-identical).
    triage_clean: AtomicU64,
    triage_flagged: AtomicU64,
    triage_fail_open_panics: AtomicU64,
    triage_fail_open_timeouts: AtomicU64,
    triage_fail_open_errors: AtomicU64,
    /// Total microseconds spent scoring (mean overhead = total / scored).
    triage_score_time_us: AtomicU64,
    /// Anomaly scores in integer basis points (0..=10 000).
    triage_scores_bp: Mutex<LatencyReservoir>,
    hardened_served: AtomicU64,
    /// End-to-end latencies of hardened-path requests, kept separately
    /// so the hardened/normal latency split is visible.
    hardened_latencies_us: Mutex<LatencyReservoir>,
    /// Completed detector hot swaps; doubles as the detector
    /// generation, mirroring `swap_generation` for weights.
    detector_generation: AtomicU64,
}

#[derive(Debug, Default)]
struct LatencyReservoir {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyReservoir {
    /// Records one sample, degrading to overwrite-oldest at the cap.
    fn record(&mut self, value: u64) {
        if self.samples.len() < LATENCY_RESERVOIR {
            self.samples.push(value);
        } else {
            let at = self.next % LATENCY_RESERVOIR;
            if let Some(slot) = self.samples.get_mut(at) {
                *slot = value;
            }
            self.next = at + 1;
        }
    }

    /// Sorted snapshot for percentile extraction.
    fn sorted(&self) -> Vec<u64> {
        let mut snapshot = self.samples.clone();
        snapshot.sort_unstable();
        snapshot
    }
}

/// Nearest-rank percentile (`p_bp` in basis points) over a sorted
/// sample set: no float rounding, no unchecked indexing, and NaN
/// cannot exist because samples never leave integer space.
fn percentile(sorted: &[u64], p_bp: u64) -> u64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0;
    };
    let rank = (last as u64 * p_bp + 5_000) / 10_000;
    usize::try_from(rank)
        .ok()
        .and_then(|r| sorted.get(r))
        .copied()
        .unwrap_or(0)
}

/// Whole microseconds of `duration`, saturating.
fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

impl ServerMetrics {
    /// Metrics sized for batches up to `max_batch_size`.
    pub fn new(max_batch_size: usize) -> Self {
        ServerMetrics {
            batch_size_counts: (0..max_batch_size).map(|_| AtomicU64::new(0)).collect(),
            ..Default::default()
        }
    }

    /// Reserves a queue slot in the depth gauge. Call *before* the
    /// request can reach a worker: if the gauge were bumped after
    /// enqueueing, the taking worker's decrement could land first,
    /// saturate at zero, and leave the gauge permanently inflated.
    pub fn record_enqueue_attempt(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an accepted submission (slot already reserved by
    /// [`record_enqueue_attempt`](Self::record_enqueue_attempt)).
    pub fn record_submitted(&self) {
        self.requests_submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a load-shed (queue-full) rejection, releasing the slot
    /// reserved by the enqueue attempt.
    pub fn record_rejected(&self) {
        self.requests_rejected.fetch_add(1, Ordering::Relaxed);
        self.release_queue_slot();
    }

    /// Records a request refused by admission-time input validation
    /// (it never reached the queue, so no slot is released).
    pub fn record_invalid(&self) {
        self.requests_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request leaving the queue outside a batch (answered
    /// there, e.g. expired); batch members are released by
    /// [`record_batch_taken`](Self::record_batch_taken).
    pub fn record_dequeued(&self) {
        self.release_queue_slot();
    }

    /// Releases a reserved queue slot without recording anything else
    /// (e.g. an enqueue that failed because the server is stopping).
    pub fn release_queue_slot(&self) {
        // Saturating: a racing reader must never see usize::MAX depth.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort: Err only means the depth was already zero"
        )]
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Records one dispatched batch of `size` images.
    pub fn record_batch(&self, size: usize) {
        debug_assert!(size > 0);
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.batched_images
            .fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch_seen.fetch_max(size, Ordering::Relaxed);
        if let Some(slot) = self.batch_size_counts.get(size.saturating_sub(1)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one batch leaving the queue for a worker: its size and
    /// each member's queue wait (submit → taken), releasing their slots
    /// in the depth gauge.
    pub fn record_batch_taken(&self, queue_waits: impl ExactSizeIterator<Item = Duration>) {
        self.record_batch(queue_waits.len());
        let mut reservoir = self.queue_waits_us.lock();
        for wait in queue_waits {
            self.release_queue_slot();
            reservoir.record(micros(wait));
        }
    }

    /// Records one successfully answered request and its end-to-end
    /// latency.
    pub fn record_completed(&self, latency_us: u64) {
        self.requests_completed.fetch_add(1, Ordering::Relaxed);
        self.latencies_us.lock().record(latency_us);
    }

    /// Records one request answered with an error.
    pub fn record_failed(&self) {
        self.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker panic caught (or rethrown) while executing a
    /// batch or a single image.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker thread replaced after dying mid-flight.
    pub fn record_worker_respawn(&self) {
        self.workers_respawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch whose every request was answered with an
    /// error (panic or whole-batch pipeline failure).
    pub fn record_batch_failed(&self) {
        self.batches_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request answered with `DeadlineExceeded`, caught at
    /// `stage`, `overshoot` past its deadline.
    pub fn record_deadline_miss(&self, stage: DeadlineStage, overshoot: Duration) {
        match stage {
            DeadlineStage::Queue => &self.deadline_missed_queue,
            DeadlineStage::Batch => &self.deadline_missed_batch,
        }
        .fetch_add(1, Ordering::Relaxed);
        let us = micros(overshoot);
        let bucket = OVERSHOOT_EDGES_US
            .iter()
            .position(|&edge| us < edge)
            .unwrap_or(OVERSHOOT_EDGES_US.len());
        if let Some(counter) = self.deadline_overshoot_buckets.get(bucket) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the circuit breaker opening (entering degraded mode).
    pub fn record_degraded_enter(&self) {
        self.degraded_entered.fetch_add(1, Ordering::Relaxed);
        self.degraded_now.store(true, Ordering::Release);
    }

    /// Records a successful probe batch closing the circuit breaker.
    pub fn record_degraded_exit(&self) {
        self.degraded_exited.fetch_add(1, Ordering::Relaxed);
        self.degraded_now.store(false, Ordering::Release);
    }

    /// Records one request served by isolated per-image classification
    /// (degraded mode or a mixed-shape batch).
    pub fn record_single_fallback(&self) {
        self.single_image_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one image triaged below the flagging threshold.
    pub fn record_triage_clean(&self, score_bp: u64, took_us: u64) {
        self.triage_clean.fetch_add(1, Ordering::Relaxed);
        self.triage_score_time_us
            .fetch_add(took_us, Ordering::Relaxed);
        self.triage_scores_bp.lock().record(score_bp);
    }

    /// Records one image flagged by the triage detector.
    pub fn record_triage_flagged(&self, score_bp: u64, took_us: u64) {
        self.triage_flagged.fetch_add(1, Ordering::Relaxed);
        self.triage_score_time_us
            .fetch_add(took_us, Ordering::Relaxed);
        self.triage_scores_bp.lock().record(score_bp);
    }

    /// Records one triage scoring attempt that failed open (the
    /// request was served unscored on the normal path).
    pub fn record_triage_fail_open(&self, kind: FailOpenKind) {
        match kind {
            FailOpenKind::Panic => &self.triage_fail_open_panics,
            FailOpenKind::Timeout => &self.triage_fail_open_timeouts,
            FailOpenKind::Error => &self.triage_fail_open_errors,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request completed on the hardened path and its
    /// end-to-end latency (also recorded in the overall reservoir by
    /// [`record_completed`](Self::record_completed)).
    pub fn record_hardened(&self, latency_us: u64) {
        self.hardened_served.fetch_add(1, Ordering::Relaxed);
        self.hardened_latencies_us.lock().record(latency_us);
    }

    /// Records one completed detector hot swap, returning the new
    /// detector generation (1-based; 0 = the detector the server
    /// started with). Monotone under concurrent swaps, mirroring
    /// [`record_swap`](Self::record_swap) for weights.
    pub fn record_detector_swap(&self) -> u64 {
        self.detector_generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Generation of the currently deployed detector.
    pub fn detector_generation(&self) -> u64 {
        self.detector_generation.load(Ordering::Acquire)
    }

    /// Records one completed hot weight swap, returning the new
    /// generation number (1-based).
    pub fn record_swap(&self) -> u64 {
        self.swap_generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Generation of the currently deployed weights (0 = as started).
    pub fn swap_generation(&self) -> u64 {
        self.swap_generation.load(Ordering::Acquire)
    }

    /// Whether the engine is currently in degraded (per-image) mode.
    pub fn degraded(&self) -> bool {
        self.degraded_now.load(Ordering::Acquire)
    }

    /// Current queue depth (requests accepted but not yet taken by a
    /// worker).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot for reporting. Counters are
    /// read individually (relaxed), so totals can be off by in-flight
    /// requests — fine for observability, never for control flow.
    pub fn report(&self) -> MetricsReport {
        let latencies = self.latencies_us.lock().sorted();
        let queue_waits = self.queue_waits_us.lock().sorted();
        let batches = self.batches_dispatched.load(Ordering::Relaxed);
        let images = self.batched_images.load(Ordering::Relaxed);
        MetricsReport {
            requests_submitted: self.requests_submitted.load(Ordering::Relaxed),
            requests_rejected: self.requests_rejected.load(Ordering::Relaxed),
            requests_invalid: self.requests_invalid.load(Ordering::Relaxed),
            requests_completed: self.requests_completed.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            batches_dispatched: batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                images as f64 / batches as f64
            },
            max_batch_seen: self.max_batch_seen.load(Ordering::Relaxed) as u64,
            batch_size_counts: self
                .batch_size_counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            queue_depth: self.queue_depth() as u64,
            latency_mean_us: if latencies.is_empty() {
                0
            } else {
                latencies.iter().sum::<u64>() / latencies.len() as u64
            },
            latency_p50_us: percentile(&latencies, 5_000),
            latency_p90_us: percentile(&latencies, 9_000),
            latency_p99_us: percentile(&latencies, 9_900),
            queue_wait_p50_us: percentile(&queue_waits, 5_000),
            queue_wait_p99_us: percentile(&queue_waits, 9_900),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            batches_failed: self.batches_failed.load(Ordering::Relaxed),
            deadline_missed_queue: self.deadline_missed_queue.load(Ordering::Relaxed),
            deadline_missed_batch: self.deadline_missed_batch.load(Ordering::Relaxed),
            deadline_overshoot_buckets: self
                .deadline_overshoot_buckets
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            degraded_entered: self.degraded_entered.load(Ordering::Relaxed),
            degraded_exited: self.degraded_exited.load(Ordering::Relaxed),
            degraded_now: self.degraded(),
            single_image_fallbacks: self.single_image_fallbacks.load(Ordering::Relaxed),
            swap_generation: self.swap_generation(),
            replicas: Vec::new(),
            detection: self.detection_report(),
            arena: ArenaReport::capture(),
        }
    }

    /// The `detection` report section, or `None` when triage never ran
    /// and no detector was swapped in (so reports from servers without
    /// a detector stay byte-identical to the pre-triage schema).
    fn detection_report(&self) -> Option<DetectionReport> {
        let clean = self.triage_clean.load(Ordering::Relaxed);
        let flagged = self.triage_flagged.load(Ordering::Relaxed);
        let fail_open_panics = self.triage_fail_open_panics.load(Ordering::Relaxed);
        let fail_open_timeouts = self.triage_fail_open_timeouts.load(Ordering::Relaxed);
        let fail_open_errors = self.triage_fail_open_errors.load(Ordering::Relaxed);
        let hardened_served = self.hardened_served.load(Ordering::Relaxed);
        let detector_generation = self.detector_generation();
        let activity = clean + flagged + fail_open_panics + fail_open_timeouts + fail_open_errors;
        if activity == 0 && hardened_served == 0 && detector_generation == 0 {
            return None;
        }
        let scored = clean + flagged;
        let scores = self.triage_scores_bp.lock().sorted();
        let hardened = self.hardened_latencies_us.lock().sorted();
        Some(DetectionReport {
            clean,
            flagged,
            fail_open_panics,
            fail_open_timeouts,
            fail_open_errors,
            mean_score_time_us: self
                .triage_score_time_us
                .load(Ordering::Relaxed)
                .checked_div(scored)
                .unwrap_or(0),
            score_p50_bp: percentile(&scores, 5_000),
            score_p90_bp: percentile(&scores, 9_000),
            score_p99_bp: percentile(&scores, 9_900),
            hardened_served,
            hardened_latency_p50_us: percentile(&hardened, 5_000),
            hardened_latency_p99_us: percentile(&hardened, 9_900),
            detector_generation,
        })
    }
}

/// The triage/hardened-path section of a [`MetricsReport`]. Present
/// only on servers that ran the detection stage; absent from (and
/// ignored in) legacy reports.
///
/// `detector_generation` was added after the first triage reports
/// shipped, so it is `#[serde(default)]`: reports from that era keep
/// parsing, with the generation at zero. Keys of retired fields are
/// ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Images scored below the flagging threshold.
    pub clean: u64,
    /// Images flagged and routed to the hardened path.
    pub flagged: u64,
    /// Scoring attempts that failed open because the detector panicked.
    pub fail_open_panics: u64,
    /// Scoring attempts that failed open past the latency budget.
    pub fail_open_timeouts: u64,
    /// Scoring attempts that failed open on a typed detector error.
    pub fail_open_errors: u64,
    /// Mean per-image triage overhead in microseconds.
    pub mean_score_time_us: u64,
    /// Median anomaly score in basis points (0..=10 000).
    pub score_p50_bp: u64,
    /// 90th-percentile anomaly score in basis points.
    pub score_p90_bp: u64,
    /// 99th-percentile anomaly score in basis points.
    pub score_p99_bp: u64,
    /// Requests completed on the hardened path.
    pub hardened_served: u64,
    /// Median end-to-end latency of hardened-path requests (µs).
    pub hardened_latency_p50_us: u64,
    /// 99th-percentile end-to-end latency of hardened-path requests (µs).
    pub hardened_latency_p99_us: u64,
    /// Generation of the deployed detector (0 = as started; bumped once
    /// per completed detector swap). Aggregated as the minimum across
    /// replicas, like `swap_generation`.
    #[serde(default)]
    pub detector_generation: u64,
}

/// Point-in-time snapshot of [`ServerMetrics`], ready for JSON or text.
///
/// Fields added after the first schema shipped (`queue_wait_*`,
/// `swap_generation`, `replicas`, `detection`, `arena`) are
/// `#[serde(default)]`, so older reports keep parsing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Requests accepted into the queue.
    pub requests_submitted: u64,
    /// Requests shed because the queue was full.
    pub requests_rejected: u64,
    /// Requests refused by admission-time input validation.
    pub requests_invalid: u64,
    /// Requests answered with a verdict.
    pub requests_completed: u64,
    /// Requests answered with an error.
    pub requests_failed: u64,
    /// Batches handed to the worker pool.
    pub batches_dispatched: u64,
    /// Mean images per dispatched batch.
    pub mean_batch_size: f64,
    /// Largest batch dispatched.
    pub max_batch_seen: u64,
    /// Batches dispatched per size (index 0 = size 1).
    pub batch_size_counts: Vec<u64>,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Mean end-to-end latency (µs).
    pub latency_mean_us: u64,
    /// Median end-to-end latency (µs).
    pub latency_p50_us: u64,
    /// 90th-percentile end-to-end latency (µs).
    pub latency_p90_us: u64,
    /// 99th-percentile end-to-end latency (µs).
    pub latency_p99_us: u64,
    /// Median wait between `submit` and a worker taking the request
    /// into a batch (µs): linger plus time behind busy workers. `0` in
    /// reports written before the field existed.
    #[serde(default)]
    pub queue_wait_p50_us: u64,
    /// 99th-percentile queue wait (µs).
    #[serde(default)]
    pub queue_wait_p99_us: u64,
    /// Worker panics caught while executing batches or single images.
    pub worker_panics: u64,
    /// Worker threads replaced after dying mid-flight.
    pub workers_respawned: u64,
    /// Batches whose every request was answered with an error.
    pub batches_failed: u64,
    /// Requests whose deadline expired before leaving the queue.
    pub deadline_missed_queue: u64,
    /// Requests whose deadline expired between dispatch and execution.
    pub deadline_missed_batch: u64,
    /// Deadline-miss overshoot histogram: <1 ms, <10 ms, <100 ms, rest.
    pub deadline_overshoot_buckets: Vec<u64>,
    /// Times the circuit breaker opened (entered degraded mode).
    pub degraded_entered: u64,
    /// Times a probe batch closed the breaker again.
    pub degraded_exited: u64,
    /// Whether the engine was degraded at snapshot time.
    pub degraded_now: bool,
    /// Requests served by isolated per-image classification.
    pub single_image_fallbacks: u64,
    /// Generation of the deployed weights (0 = the weights the server
    /// started with; bumped once per completed hot swap). In an
    /// aggregated router report this is the *minimum* across replicas —
    /// the generation every replica has provably reached.
    #[serde(default)]
    pub swap_generation: u64,
    /// Per-replica breakdown, populated only when this report was
    /// aggregated by a router; empty for a single in-process server.
    #[serde(default)]
    pub replicas: Vec<ReplicaReport>,
    /// Adversarial-triage section; `None` on servers that never ran
    /// the detection stage (including every pre-triage report).
    #[serde(default)]
    pub detection: Option<DetectionReport>,
    /// Scratch-arena section; `None` until the process has run a
    /// kernel that leases scratch (and in every pre-arena report).
    #[serde(default)]
    pub arena: Option<ArenaReport>,
}

/// The scratch-arena section of a [`MetricsReport`]: process-wide
/// counters from the tensor crate's scratch arena. A healthy
/// steady-state server shows `scratch_hits` tracking
/// `scratch_acquires` with `scratch_grows` flat — the zero-allocation
/// serving contract, observable in production.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArenaReport {
    /// Scratch-buffer leases requested by kernels.
    pub scratch_acquires: u64,
    /// Leases served from a pooled buffer without heap growth.
    pub scratch_hits: u64,
    /// Leases that had to allocate or grow (cold path / warm-up).
    pub scratch_grows: u64,
    /// Buffers dropped on release because a thread's pool was full.
    pub scratch_evictions: u64,
}

impl ArenaReport {
    /// Snapshot of the process-wide arena counters, or `None` if no
    /// kernel has leased scratch yet (keeps cold reports
    /// schema-identical to the pre-arena era).
    fn capture() -> Option<ArenaReport> {
        let arena = fademl_tensor::plan::alloc::stats();
        (arena.acquires > 0).then_some(ArenaReport {
            scratch_acquires: arena.acquires,
            scratch_hits: arena.hits,
            scratch_grows: arena.grows,
            scratch_evictions: arena.evictions,
        })
    }
}

/// One replica's row in an aggregated router report: enough to see at
/// a glance which replica is shedding, degraded, or behind on a swap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Replica index within the router.
    pub replica: u64,
    /// Whether the router considered this replica routable at snapshot
    /// time (not breaker-open, not past its failure threshold).
    pub healthy: bool,
    /// Submission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Whether the replica's circuit breaker was open (degraded mode).
    pub degraded: bool,
    /// Weight generation this replica is serving.
    pub swap_generation: u64,
    /// Requests this replica shed with `Overloaded`.
    pub requests_rejected: u64,
    /// Requests this replica answered with a verdict.
    pub requests_completed: u64,
    /// Requests this replica answered with an error.
    pub requests_failed: u64,
}

impl ReplicaReport {
    /// Summarizes one replica's full report into its router-view row.
    pub fn from_report(replica: u64, healthy: bool, report: &MetricsReport) -> Self {
        ReplicaReport {
            replica,
            healthy,
            queue_depth: report.queue_depth,
            degraded: report.degraded_now,
            swap_generation: report.swap_generation,
            requests_rejected: report.requests_rejected,
            requests_completed: report.requests_completed,
            requests_failed: report.requests_failed,
        }
    }
}

impl MetricsReport {
    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Folds per-replica reports into one router-level report. Each
    /// part is `(replica index, healthy, report)`.
    ///
    /// Counters sum; histograms sum elementwise; the mean batch size is
    /// recomputed from totals; latency and queue-wait percentiles take
    /// the worst replica (a conservative tail estimate — exact merging
    /// would need the raw reservoirs); the mean latency is weighted by
    /// completed requests; `swap_generation` is the minimum across replicas, the
    /// generation every replica has provably reached; the arena section
    /// is process-wide, so it takes the field-wise maximum (the counters
    /// are monotone: the largest snapshot is the latest).
    pub fn aggregate(parts: &[(u64, bool, MetricsReport)]) -> MetricsReport {
        let mut total = MetricsReport::default();
        let mut latency_weight: u64 = 0;
        let mut latency_weighted_sum: u128 = 0;
        let mut score_time_weight: u64 = 0;
        let mut score_time_weighted_sum: u128 = 0;
        let mut batched_images = 0.0f64;
        for (replica, healthy, part) in parts {
            total.requests_submitted += part.requests_submitted;
            total.requests_rejected += part.requests_rejected;
            total.requests_invalid += part.requests_invalid;
            total.requests_completed += part.requests_completed;
            total.requests_failed += part.requests_failed;
            total.batches_dispatched += part.batches_dispatched;
            batched_images += part.mean_batch_size * part.batches_dispatched as f64;
            total.max_batch_seen = total.max_batch_seen.max(part.max_batch_seen);
            sum_into(&mut total.batch_size_counts, &part.batch_size_counts);
            total.queue_depth += part.queue_depth;
            latency_weight += part.requests_completed;
            latency_weighted_sum +=
                u128::from(part.latency_mean_us) * u128::from(part.requests_completed);
            total.latency_p50_us = total.latency_p50_us.max(part.latency_p50_us);
            total.latency_p90_us = total.latency_p90_us.max(part.latency_p90_us);
            total.latency_p99_us = total.latency_p99_us.max(part.latency_p99_us);
            total.queue_wait_p50_us = total.queue_wait_p50_us.max(part.queue_wait_p50_us);
            total.queue_wait_p99_us = total.queue_wait_p99_us.max(part.queue_wait_p99_us);
            total.worker_panics += part.worker_panics;
            total.workers_respawned += part.workers_respawned;
            total.batches_failed += part.batches_failed;
            total.deadline_missed_queue += part.deadline_missed_queue;
            total.deadline_missed_batch += part.deadline_missed_batch;
            sum_into(
                &mut total.deadline_overshoot_buckets,
                &part.deadline_overshoot_buckets,
            );
            total.degraded_entered += part.degraded_entered;
            total.degraded_exited += part.degraded_exited;
            total.degraded_now |= part.degraded_now;
            total.single_image_fallbacks += part.single_image_fallbacks;
            if let Some(detection) = &part.detection {
                let merged = total.detection.get_or_insert_with(DetectionReport::default);
                // Counters sum; the mean score time is re-weighted
                // below; percentiles take the worst replica (same
                // conservative tail estimate as latency percentiles).
                merged.clean += detection.clean;
                merged.flagged += detection.flagged;
                merged.fail_open_panics += detection.fail_open_panics;
                merged.fail_open_timeouts += detection.fail_open_timeouts;
                merged.fail_open_errors += detection.fail_open_errors;
                merged.score_p50_bp = merged.score_p50_bp.max(detection.score_p50_bp);
                merged.score_p90_bp = merged.score_p90_bp.max(detection.score_p90_bp);
                merged.score_p99_bp = merged.score_p99_bp.max(detection.score_p99_bp);
                merged.hardened_served += detection.hardened_served;
                merged.hardened_latency_p50_us = merged
                    .hardened_latency_p50_us
                    .max(detection.hardened_latency_p50_us);
                merged.hardened_latency_p99_us = merged
                    .hardened_latency_p99_us
                    .max(detection.hardened_latency_p99_us);
                score_time_weight += detection.clean + detection.flagged;
                score_time_weighted_sum += u128::from(detection.mean_score_time_us)
                    * u128::from(detection.clean + detection.flagged);
            }
            if let Some(arena) = &part.arena {
                let merged = total.arena.get_or_insert_with(ArenaReport::default);
                merged.scratch_acquires = merged.scratch_acquires.max(arena.scratch_acquires);
                merged.scratch_hits = merged.scratch_hits.max(arena.scratch_hits);
                merged.scratch_grows = merged.scratch_grows.max(arena.scratch_grows);
                merged.scratch_evictions = merged.scratch_evictions.max(arena.scratch_evictions);
            }
            total
                .replicas
                .push(ReplicaReport::from_report(*replica, *healthy, part));
        }
        total.mean_batch_size = if total.batches_dispatched == 0 {
            0.0
        } else {
            batched_images / total.batches_dispatched as f64
        };
        total.latency_mean_us = if latency_weight == 0 {
            0
        } else {
            u64::try_from(latency_weighted_sum / u128::from(latency_weight)).unwrap_or(u64::MAX)
        };
        total.swap_generation = parts
            .iter()
            .map(|(_, _, part)| part.swap_generation)
            .min()
            .unwrap_or(0);
        if let Some(detection) = &mut total.detection {
            detection.mean_score_time_us = if score_time_weight == 0 {
                0
            } else {
                u64::try_from(score_time_weighted_sum / u128::from(score_time_weight))
                    .unwrap_or(u64::MAX)
            };
            // Minimum across the replicas that carry a detection
            // section — the detector generation the fleet has provably
            // reached, mirroring `swap_generation`.
            detection.detector_generation = parts
                .iter()
                .filter_map(|(_, _, part)| part.detection.as_ref())
                .map(|d| d.detector_generation)
                .min()
                .unwrap_or(0);
        }
        total
    }

    /// Human-readable multi-line rendering for logs and reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("serving metrics\n");
        out.push_str(&format!(
            "  requests: {} submitted, {} completed, {} failed, {} rejected, {} invalid (queue depth {})\n",
            self.requests_submitted,
            self.requests_completed,
            self.requests_failed,
            self.requests_rejected,
            self.requests_invalid,
            self.queue_depth,
        ));
        out.push_str(&format!(
            "  batches:  {} dispatched, mean size {:.2}, max size {}\n",
            self.batches_dispatched, self.mean_batch_size, self.max_batch_seen,
        ));
        let histogram: Vec<String> = self
            .batch_size_counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, count)| format!("{}×{count}", i + 1))
            .collect();
        out.push_str(&format!(
            "  batch size histogram: [{}]\n",
            histogram.join(", ")
        ));
        out.push_str(&format!(
            "  latency:  mean {}µs, p50 {}µs, p90 {}µs, p99 {}µs\n",
            self.latency_mean_us, self.latency_p50_us, self.latency_p90_us, self.latency_p99_us,
        ));
        out.push_str(&format!(
            "  queue wait: p50 {}µs, p99 {}µs (submit → taken by a worker)\n",
            self.queue_wait_p50_us, self.queue_wait_p99_us,
        ));
        out.push_str(&format!(
            "  faults:   {} worker panics, {} workers respawned, {} batches failed, {} single-image fallbacks\n",
            self.worker_panics,
            self.workers_respawned,
            self.batches_failed,
            self.single_image_fallbacks,
        ));
        out.push_str(&format!(
            "  degraded: entered {}, exited {}, currently {}\n",
            self.degraded_entered,
            self.degraded_exited,
            if self.degraded_now { "yes" } else { "no" },
        ));
        let buckets = &self.deadline_overshoot_buckets;
        out.push_str(&format!(
            "  deadline misses: {} in queue, {} in batch; overshoot [<1ms: {}, <10ms: {}, <100ms: {}, ≥100ms: {}]\n",
            self.deadline_missed_queue,
            self.deadline_missed_batch,
            buckets.first().copied().unwrap_or(0),
            buckets.get(1).copied().unwrap_or(0),
            buckets.get(2).copied().unwrap_or(0),
            buckets.get(3).copied().unwrap_or(0),
        ));
        out.push_str(&format!(
            "  weights:  generation {}\n",
            self.swap_generation
        ));
        if let Some(d) = &self.detection {
            out.push_str(&format!(
                "  triage:   {} clean, {} flagged, fail-open [{} panic, {} timeout, {} error], mean score time {}µs\n",
                d.clean,
                d.flagged,
                d.fail_open_panics,
                d.fail_open_timeouts,
                d.fail_open_errors,
                d.mean_score_time_us,
            ));
            out.push_str(&format!(
                "  scores:   p50 {}bp, p90 {}bp, p99 {}bp\n",
                d.score_p50_bp, d.score_p90_bp, d.score_p99_bp,
            ));
            out.push_str(&format!(
                "  hardened: {} served, latency p50 {}µs, p99 {}µs\n",
                d.hardened_served, d.hardened_latency_p50_us, d.hardened_latency_p99_us,
            ));
            out.push_str(&format!(
                "  detector: generation {}\n",
                d.detector_generation
            ));
        }
        if let Some(a) = &self.arena {
            out.push_str(&format!(
                "  compute:  scratch [{} acquires, {} hits, {} grows, {} evictions]\n",
                a.scratch_acquires, a.scratch_hits, a.scratch_grows, a.scratch_evictions,
            ));
        }
        for r in &self.replicas {
            out.push_str(&format!(
                "  replica {}: {}, gen {}, depth {}, {} done, {} failed, {} shed{}\n",
                r.replica,
                if r.healthy { "healthy" } else { "unhealthy" },
                r.swap_generation,
                r.queue_depth,
                r.requests_completed,
                r.requests_failed,
                r.requests_rejected,
                if r.degraded { ", degraded" } else { "" },
            ));
        }
        out
    }
}

/// Elementwise `lhs += rhs`, growing `lhs` if `rhs` is longer (replica
/// histograms can differ in length across configs).
fn sum_into(lhs: &mut Vec<u64>, rhs: &[u64]) {
    if lhs.len() < rhs.len() {
        lhs.resize(rhs.len(), 0);
    }
    for (slot, add) in lhs.iter_mut().zip(rhs) {
        *slot += add;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new(8);
        m.record_enqueue_attempt();
        m.record_submitted();
        m.record_enqueue_attempt();
        m.record_submitted();
        m.record_enqueue_attempt();
        m.record_rejected();
        m.record_dequeued();
        m.record_batch(2);
        m.record_completed(100);
        m.record_completed(300);
        m.record_failed();
        let r = m.report();
        assert_eq!(r.requests_submitted, 2);
        assert_eq!(r.requests_rejected, 1);
        assert_eq!(r.requests_completed, 2);
        assert_eq!(r.requests_failed, 1);
        assert_eq!(r.batches_dispatched, 1);
        assert_eq!(r.queue_depth, 1);
        assert_eq!(r.max_batch_seen, 2);
        assert_eq!(r.batch_size_counts[1], 1);
        assert!((r.mean_batch_size - 2.0).abs() < 1e-9);
        assert_eq!(r.latency_mean_us, 200);
        assert_eq!(r.latency_p50_us, 300); // nearest-rank on 2 samples
    }

    #[test]
    fn queue_depth_never_underflows() {
        let m = ServerMetrics::new(4);
        m.record_dequeued();
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn percentiles_on_spread() {
        let m = ServerMetrics::new(4);
        for us in 1..=100u64 {
            m.record_completed(us);
        }
        let r = m.report();
        assert_eq!(r.latency_p50_us, 51);
        assert_eq!(r.latency_p90_us, 90);
        assert_eq!(r.latency_p99_us, 99);
    }

    #[test]
    fn fault_counters_accumulate() {
        let m = ServerMetrics::new(4);
        m.record_worker_panic();
        m.record_worker_panic();
        m.record_worker_respawn();
        m.record_batch_failed();
        m.record_invalid();
        m.record_single_fallback();
        m.record_degraded_enter();
        assert!(m.degraded());
        m.record_degraded_exit();
        assert!(!m.degraded());
        let r = m.report();
        assert_eq!(r.worker_panics, 2);
        assert_eq!(r.workers_respawned, 1);
        assert_eq!(r.batches_failed, 1);
        assert_eq!(r.requests_invalid, 1);
        assert_eq!(r.single_image_fallbacks, 1);
        assert_eq!(r.degraded_entered, 1);
        assert_eq!(r.degraded_exited, 1);
        assert!(!r.degraded_now);
    }

    #[test]
    fn deadline_misses_bucket_by_overshoot() {
        let m = ServerMetrics::new(4);
        m.record_deadline_miss(DeadlineStage::Queue, Duration::from_micros(500));
        m.record_deadline_miss(DeadlineStage::Queue, Duration::from_millis(5));
        m.record_deadline_miss(DeadlineStage::Batch, Duration::from_millis(50));
        m.record_deadline_miss(DeadlineStage::Batch, Duration::from_secs(1));
        let r = m.report();
        assert_eq!(r.deadline_missed_queue, 2);
        assert_eq!(r.deadline_missed_batch, 2);
        assert_eq!(r.deadline_overshoot_buckets, vec![1, 1, 1, 1]);
    }

    #[test]
    fn arena_section_appears_after_a_planned_kernel_and_round_trips() {
        // Run one planned kernel so the process-wide counters are live.
        let x = fademl_tensor::Tensor::zeros(&[4, 8]);
        let y = fademl_tensor::Tensor::zeros(&[8, 4]);
        let _ = x.matmul(&y).expect("matmul");
        let m = ServerMetrics::new(4);
        let report = m.report();
        let arena = report.arena.as_ref().expect("arena section after kernel");
        assert!(arena.scratch_acquires >= arena.scratch_hits);
        let now = report.to_json();
        let back: MetricsReport = serde::json::from_str(&now).unwrap();
        assert_eq!(back.arena, report.arena);
        // PR 10–14 reports carry three blueprint-cache counters here:
        // unknown keys are ignored, and re-serializing drops them.
        let old = now.replace(
            "\"scratch_acquires\"",
            "\"plan_hits\": 3, \"plan_misses\": 2, \"plan_entries\": 2, \"scratch_acquires\"",
        );
        assert_ne!(old, now);
        let back: MetricsReport = serde::json::from_str(&old).expect("planner-era schema parses");
        assert_eq!(back.to_json(), now);
        // A key of the first schema stays required.
        let torn = now.replace("\"requests_completed\"", "\"requests_done\"");
        let err = serde::json::from_str::<MetricsReport>(&torn).expect_err("torn report");
        assert!(err.to_string().contains("requests_completed"), "{err}");
    }

    #[test]
    fn aggregate_takes_the_latest_arena_snapshot_and_tolerates_absent_ones() {
        // In-process replicas snapshot the same process-wide counters
        // at slightly different moments: the merge is the latest one.
        let with = |hits: u64| MetricsReport {
            arena: Some(ArenaReport {
                scratch_acquires: hits + 1,
                scratch_hits: hits,
                scratch_grows: 1,
                scratch_evictions: 0,
            }),
            ..MetricsReport::default()
        };
        let parts = vec![
            (0, true, with(10)),
            (1, true, MetricsReport::default()),
            (2, true, with(5)),
        ];
        let total = MetricsReport::aggregate(&parts);
        assert_eq!(total.arena, with(10).arena);
    }

    #[test]
    fn report_serde_round_trip() {
        let m = ServerMetrics::new(4);
        m.record_submitted();
        m.record_batch_taken([9, 30, 700].map(Duration::from_micros).into_iter());
        m.record_completed(42);
        m.record_degraded_enter();
        m.record_deadline_miss(DeadlineStage::Batch, Duration::from_millis(2));
        let report = m.report();
        let back: MetricsReport = serde::json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn swap_generation_is_monotone() {
        let m = ServerMetrics::new(4);
        assert_eq!(m.swap_generation(), 0);
        assert_eq!(m.record_swap(), 1);
        assert_eq!(m.record_swap(), 2);
        assert_eq!(m.swap_generation(), 2);
        assert_eq!(m.report().swap_generation, 2);
    }

    #[test]
    fn aggregate_sums_counters_and_takes_min_generation() {
        let a = ServerMetrics::new(4);
        a.record_enqueue_attempt();
        a.record_submitted();
        a.record_batch_taken([40, 60].map(Duration::from_micros).into_iter());
        a.record_completed(100);
        a.record_completed(100);
        a.record_swap();
        a.record_swap();
        let b = ServerMetrics::new(8);
        b.record_enqueue_attempt();
        b.record_submitted();
        b.record_enqueue_attempt();
        b.record_rejected();
        b.record_batch_taken([5, 10, 20, 900].map(Duration::from_micros).into_iter());
        b.record_completed(400);
        b.record_degraded_enter();
        b.record_swap();
        let merged = MetricsReport::aggregate(&[(0, true, a.report()), (1, false, b.report())]);
        assert_eq!(merged.requests_submitted, 2);
        assert_eq!(merged.requests_rejected, 1);
        assert_eq!(merged.requests_completed, 3);
        assert_eq!(merged.batches_dispatched, 2);
        // 2 images + 4 images over 2 batches.
        assert!((merged.mean_batch_size - 3.0).abs() < 1e-9);
        assert_eq!(merged.max_batch_seen, 4);
        // b's histogram is longer; merged must cover both.
        assert_eq!(merged.batch_size_counts.len(), 8);
        assert_eq!(merged.batch_size_counts[1], 1);
        assert_eq!(merged.batch_size_counts[3], 1);
        // Weighted mean: (100*2 + 400*1) / 3 = 200.
        assert_eq!(merged.latency_mean_us, 200);
        // Conservative tail: worst replica wins.
        assert_eq!(merged.latency_p99_us, 400);
        assert_eq!(merged.queue_wait_p50_us, 60); // a's {40, 60} over b's 20
        assert_eq!(merged.queue_wait_p99_us, 900);
        // Every taken request released its depth-gauge slot.
        assert_eq!(merged.queue_depth, 0);
        assert!(merged.degraded_now);
        // a reached gen 2, b only gen 1 → the fleet has proven gen 1.
        assert_eq!(merged.swap_generation, 1);
        assert_eq!(merged.replicas.len(), 2);
        assert!(merged.replicas[0].healthy);
        assert!(!merged.replicas[1].healthy);
        assert_eq!(merged.replicas[0].swap_generation, 2);
        assert_eq!(merged.replicas[1].requests_rejected, 1);
    }

    #[test]
    fn aggregate_of_nothing_is_empty() {
        let merged = MetricsReport::aggregate(&[]);
        assert_eq!(merged.requests_submitted, 0);
        assert_eq!(merged.swap_generation, 0);
        assert!(merged.replicas.is_empty());
    }

    #[test]
    fn legacy_report_without_router_fields_still_parses() {
        let m = ServerMetrics::new(4);
        m.record_submitted();
        m.record_swap();
        let report = m.report();
        // Simulate a pre-router report: strip the fields that did not
        // exist when the first schema shipped.
        let serde::Value::Map(fields) = report.to_value() else {
            panic!("report must serialize to a map");
        };
        let legacy: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(name, _)| name != "swap_generation" && name != "replicas")
            .filter(|(name, _)| !name.starts_with("queue_wait_"))
            .collect();
        let back =
            MetricsReport::from_value(&serde::Value::Map(legacy)).expect("legacy schema parses");
        assert_eq!(back.swap_generation, 0);
        assert!(back.replicas.is_empty());
        assert_eq!((back.queue_wait_p50_us, back.queue_wait_p99_us), (0, 0));
        assert_eq!(back.requests_submitted, report.requests_submitted);
    }

    #[test]
    fn detection_section_absent_until_triage_runs() {
        let m = ServerMetrics::new(4);
        m.record_submitted();
        m.record_completed(50);
        let report = m.report();
        assert!(report.detection.is_none());
        // Absent means absent on the wire too: the JSON must not even
        // mention the key with a null, so pre-triage consumers doing
        // strict schema checks see the exact legacy document... or at
        // worst a null, which `Option` also reads as `None`.
        let back: MetricsReport = serde::json::from_str(&report.to_json()).unwrap();
        assert!(back.detection.is_none());
    }

    #[test]
    fn detection_counters_accumulate_and_round_trip() {
        let m = ServerMetrics::new(4);
        m.record_triage_clean(4_000, 30);
        m.record_triage_clean(4_500, 50);
        m.record_triage_flagged(8_000, 40);
        m.record_triage_fail_open(FailOpenKind::Panic);
        m.record_triage_fail_open(FailOpenKind::Timeout);
        m.record_triage_fail_open(FailOpenKind::Error);
        m.record_hardened(700);
        let report = m.report();
        let d = report.detection.as_ref().expect("triage ran");
        assert_eq!(d.clean, 2);
        assert_eq!(d.flagged, 1);
        assert_eq!(d.fail_open_panics, 1);
        assert_eq!(d.fail_open_timeouts, 1);
        assert_eq!(d.fail_open_errors, 1);
        assert_eq!(d.mean_score_time_us, 40); // (30 + 50 + 40) / 3
        assert_eq!(d.score_p50_bp, 4_500);
        assert_eq!(d.score_p99_bp, 8_000);
        assert_eq!(d.hardened_served, 1);
        assert_eq!(d.hardened_latency_p50_us, 700);
        let back: MetricsReport = serde::json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn legacy_report_without_detection_field_still_parses() {
        let m = ServerMetrics::new(4);
        m.record_triage_flagged(9_000, 25);
        let report = m.report();
        assert!(report.detection.is_some());
        let serde::Value::Map(fields) = report.to_value() else {
            panic!("report must serialize to a map");
        };
        let legacy: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(name, _)| name != "detection")
            .collect();
        let back = MetricsReport::from_value(&serde::Value::Map(legacy))
            .expect("pre-triage schema parses");
        assert!(back.detection.is_none());
        assert_eq!(back.requests_submitted, report.requests_submitted);
    }

    #[test]
    fn aggregate_merges_detection_sections() {
        let a = ServerMetrics::new(4);
        a.record_triage_clean(4_000, 10);
        a.record_triage_flagged(8_000, 30);
        a.record_hardened(500);
        a.record_detector_swap();
        a.record_detector_swap();
        let b = ServerMetrics::new(4);
        b.record_submitted(); // no triage on this replica
        let c = ServerMetrics::new(4);
        c.record_triage_clean(3_000, 50);
        c.record_triage_fail_open(FailOpenKind::Panic);
        c.record_detector_swap();
        let merged = MetricsReport::aggregate(&[
            (0, true, a.report()),
            (1, true, b.report()),
            (2, true, c.report()),
        ]);
        let d = merged.detection.as_ref().expect("two replicas triaged");
        assert_eq!(d.clean, 2);
        assert_eq!(d.flagged, 1);
        assert_eq!(d.fail_open_panics, 1);
        assert_eq!(d.hardened_served, 1);
        // Weighted mean: (20*2 + 50*1) / 3 = 30.
        assert_eq!(d.mean_score_time_us, 30);
        // Worst replica wins the score tail.
        assert_eq!(d.score_p99_bp, 8_000);
        // a reached detector gen 2, c only gen 1 → the fleet has proven
        // gen 1; b, without a detection section, does not count.
        assert_eq!(d.detector_generation, 1);
        // Replicas without triage leave the merged section untouched.
        let plain = MetricsReport::aggregate(&[(0, true, b.report())]);
        assert!(plain.detection.is_none());
    }

    #[test]
    fn detection_section_materializes_on_a_detector_swap_alone() {
        // A triaged server that has hot-swapped its detector but not yet
        // scored anything must still report the generation it serves.
        let m = ServerMetrics::new(4);
        assert_eq!(m.record_detector_swap(), 1);
        let report = m.report();
        let d = report
            .detection
            .as_ref()
            .expect("a detector swap is reported");
        assert_eq!(d.detector_generation, 1);
        assert_eq!(d.clean, 0);
        let back: MetricsReport = serde::json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn static_triage_era_detection_section_still_parses() {
        // Reports from before detector swaps carry no
        // `detector_generation`: it defaults to zero. Reports from
        // adaptive-detection servers carry counters this schema no
        // longer has: their keys are ignored.
        let m = ServerMetrics::new(4);
        m.record_triage_clean(4_000, 10);
        m.record_triage_flagged(9_000, 20);
        m.record_hardened(800);
        m.record_detector_swap();
        let report = m.report();
        let serde::Value::Map(fields) = report.to_value() else {
            panic!("report must serialize to a map");
        };
        let legacy: Vec<(String, serde::Value)> = fields
            .into_iter()
            .map(|(name, value)| {
                if name == "detection" {
                    let serde::Value::Map(inner) = value else {
                        panic!("detection must serialize to a map");
                    };
                    let stripped: Vec<(String, serde::Value)> = inner
                        .into_iter()
                        .filter(|(key, _)| key != "detector_generation")
                        .collect();
                    (name, serde::Value::Map(stripped))
                } else {
                    (name, value)
                }
            })
            .collect();
        let back = MetricsReport::from_value(&serde::Value::Map(legacy))
            .expect("static-triage-era schema parses");
        let d = back.detection.expect("detection section survives");
        assert_eq!(d.clean, 1);
        assert_eq!(d.flagged, 1);
        assert_eq!(d.hardened_served, 1);
        assert_eq!(d.detector_generation, 0);

        let now = report.to_json();
        let adaptive_era = now.replace(
            "\"detector_generation\"",
            "\"shed\": 2, \"refits_swapped\": 1, \"threshold_bp\": 6000, \"tenants_tracked\": 3, \"detector_generation\"",
        );
        assert_ne!(adaptive_era, now);
        let back: MetricsReport =
            serde::json::from_str(&adaptive_era).expect("adaptive-era schema parses");
        assert_eq!(back, report);
    }

    #[test]
    fn render_mentions_detection_when_present() {
        let m = ServerMetrics::new(4);
        m.record_triage_clean(4_000, 10);
        m.record_triage_flagged(9_000, 20);
        m.record_hardened(800);
        m.record_detector_swap();
        let text = m.report().render();
        assert!(text.contains("1 clean, 1 flagged"));
        assert!(text.contains("1 served"));
        assert!(text.contains("detector: generation 1"));
        let plain = ServerMetrics::new(4);
        assert!(!plain.report().render().contains("triage"));
    }

    #[test]
    fn render_mentions_key_numbers() {
        let m = ServerMetrics::new(4);
        m.record_batch(4);
        m.record_batch_taken([Duration::from_micros(37); 4].into_iter());
        m.record_worker_panic();
        m.record_degraded_enter();
        let text = m.report().render();
        assert!(text.contains("2 dispatched"));
        assert!(text.contains("queue wait: p50 37µs, p99 37µs"));
        assert!(text.contains("4×2"));
        assert!(text.contains("1 worker panics"));
        assert!(text.contains("currently yes"));
    }
}
