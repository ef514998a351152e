//! Deterministic fault injection for chaos-testing the serving engine.
//!
//! Compiled only with the `faults` cargo feature — production builds
//! carry zero injection hooks. A [`FaultPlan`] scripts *where* the
//! engine is wounded:
//!
//! - **panic-on-Nth-batch**: the worker executing the Nth batch panics
//!   mid-execution (caught by the engine's panic isolation);
//! - **kill-worker-on-Nth-batch**: the panic is rethrown past the
//!   worker loop so the whole worker thread dies (exercising the
//!   supervisor's respawn path);
//! - **delay-on-Nth-batch**: the worker sleeps before executing,
//!   holding everything queued behind it;
//! - **stall-on-Nth-dequeue**: a free worker sleeps before it looks at
//!   the queue, forcing in-queue deadline expiry and queue
//!   backpressure;
//! - **panic-on-Nth-score** / **delay-on-Nth-score**: the triage
//!   detector panics (or sleeps past its budget) while scoring the Nth
//!   admitted image, exercising the fail-open guarantees of the
//!   detection stage.
//!
//! Every hook counts its own events on a
//! [`Schedule`](fademl_tensor::io::faults::Schedule) (1-based, shared
//! across clones), so a single-worker server is fully deterministic.
//! Chaos tests assert the engine's invariant: *every submitted
//! request's handle resolves* — with a verdict or a typed error — no
//! matter which plan is armed.

use std::any::Any;
use std::sync::Once;
use std::time::Duration;

use fademl_tensor::io::faults::Schedule;

use crate::server::FaultSite;

/// What a scripted event does, in this order: sleep, then die or panic.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Sleep(Duration),
    Panic,
    Kill,
}

/// A scripted set of faults, cloned into every worker.
/// Clones share the sequence counters, so a plan describes one global
/// schedule regardless of how many threads consult it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    batches: Schedule<Fault>,
    dequeues: Schedule<Fault>,
    scores: Schedule<Fault>,
}

impl FaultPlan {
    /// An empty plan injecting nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The worker executing batch number `seq` (1-based, in arrival
    /// order at the pool) panics mid-execution.
    #[must_use]
    pub fn panic_on_batch(mut self, seq: u64) -> Self {
        self.batches.on(seq, Fault::Panic);
        self
    }

    /// The worker executing batch number `seq` dies entirely: the
    /// injected panic is rethrown past the worker loop, so the thread
    /// exits uncleanly and the supervisor must respawn it.
    #[must_use]
    pub fn kill_worker_on_batch(mut self, seq: u64) -> Self {
        self.batches.on(seq, Fault::Kill);
        self
    }

    /// The worker executing batch number `seq` sleeps for `delay`
    /// before touching the pipeline.
    #[must_use]
    pub fn delay_batch(mut self, seq: u64, delay: Duration) -> Self {
        self.batches.on(seq, Fault::Sleep(delay));
        self
    }

    /// The worker about to make dequeue number `seq` (1-based, counted
    /// across workers, one per batch pulled or park attempted) sleeps
    /// for `stall` first — outside the queue lock — so whatever is
    /// queued waits for it or for another free worker.
    #[must_use]
    pub fn stall_dequeue(mut self, seq: u64, stall: Duration) -> Self {
        self.dequeues.on(seq, Fault::Sleep(stall));
        self
    }

    /// The triage detector panics while scoring image number `seq`
    /// (1-based, in admission order). The engine must fail open: the
    /// request is served unscored, never failed.
    #[must_use]
    pub fn panic_on_score(mut self, seq: u64) -> Self {
        self.scores.on(seq, Fault::Panic);
        self
    }

    /// The triage detector sleeps for `delay` while scoring image
    /// number `seq`, blowing any configured scoring budget so the
    /// timeout fail-open path fires.
    #[must_use]
    pub fn delay_score(mut self, seq: u64, delay: Duration) -> Self {
        self.scores.on(seq, Fault::Sleep(delay));
        self
    }

    /// The engine's hook, called once per event at `site`: counts it on
    /// that site's schedule and carries out what is scripted there —
    /// every sleep first, then a worker kill over a plain panic.
    #[expect(
        clippy::panic,
        reason = "injects the panic the caller's isolation must contain"
    )]
    pub(crate) fn on(&self, site: FaultSite) {
        let schedule = match site {
            FaultSite::Dequeue => &self.dequeues,
            FaultSite::Batch => &self.batches,
            FaultSite::Score => &self.scores,
        };
        let (seq, due) = schedule.tick();
        let (mut panic, mut kill) = (false, false);
        for &fault in due {
            match fault {
                Fault::Sleep(delay) => std::thread::sleep(delay),
                Fault::Panic => panic = true,
                Fault::Kill => kill = true,
            }
        }
        if kill {
            std::panic::panic_any(WorkerKill { seq });
        }
        if panic {
            std::panic::panic_any(InjectedPanic { seq });
        }
    }
}

/// Panic payload for `panic_on_batch`: caught by the worker's batch
/// isolation; the worker survives.
#[derive(Debug)]
pub(crate) struct InjectedPanic {
    pub(crate) seq: u64,
}

/// Panic payload for `kill_worker_on_batch`: rethrown past the worker
/// loop so the thread dies and the supervisor respawns it.
#[derive(Debug)]
pub(crate) struct WorkerKill {
    pub(crate) seq: u64,
}

/// Renders a caught panic payload for `ServeError::BatchFailed`.
pub(crate) fn describe_payload(payload: &(dyn Any + Send)) -> Option<String> {
    if let Some(panic) = payload.downcast_ref::<InjectedPanic>() {
        return Some(format!("injected panic on batch {}", panic.seq));
    }
    if let Some(kill) = payload.downcast_ref::<WorkerKill>() {
        return Some(format!("injected worker kill on batch {}", kill.seq));
    }
    None
}

/// Whether a caught payload demands the worker thread's death.
pub(crate) fn is_worker_kill(payload: &(dyn Any + Send)) -> bool {
    payload.is::<WorkerKill>()
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" report for *injected* panics only —
/// genuine panics still print. Keeps chaos-test and demo output
/// readable; called automatically by
/// [`InferenceServer::start_with_faults`](crate::InferenceServer::start_with_faults).
pub fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<InjectedPanic>() || payload.is::<WorkerKill>() {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn hooks_fire_on_scheduled_sequence_numbers() {
        let plan = FaultPlan::new()
            .panic_on_batch(2)
            .kill_worker_on_batch(3)
            .delay_batch(1, Duration::from_millis(1));
        // Batch 1: delayed but quiet.
        assert!(catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Batch))).is_ok());
        // Batch 2: injected panic.
        let payload = catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Batch))).unwrap_err();
        assert_eq!(
            describe_payload(payload.as_ref()).unwrap(),
            "injected panic on batch 2"
        );
        assert!(!is_worker_kill(payload.as_ref()));
        // Batch 3: worker kill.
        let payload = catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Batch))).unwrap_err();
        assert!(is_worker_kill(payload.as_ref()));
        assert_eq!(
            describe_payload(payload.as_ref()).unwrap(),
            "injected worker kill on batch 3"
        );
        // Batch 4: nothing scheduled.
        assert!(catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Batch))).is_ok());
    }

    #[test]
    fn clones_share_one_schedule() {
        let plan = FaultPlan::new().panic_on_batch(2);
        let clone = plan.clone();
        assert!(catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Batch))).is_ok());
        // The clone sees the shared counter: its first call is batch 2.
        assert!(catch_unwind(AssertUnwindSafe(|| clone.on(FaultSite::Batch))).is_err());
    }

    #[test]
    fn foreign_payloads_are_not_described() {
        let payload = catch_unwind(|| panic!("genuine")).unwrap_err();
        assert!(describe_payload(payload.as_ref()).is_none());
        assert!(!is_worker_kill(payload.as_ref()));
    }

    #[test]
    fn score_hooks_count_independently() {
        let plan = FaultPlan::new()
            .panic_on_score(2)
            .delay_score(1, Duration::from_millis(2));
        let start = std::time::Instant::now();
        assert!(catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Score))).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(2));
        let payload = catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Score))).unwrap_err();
        assert!(payload.is::<InjectedPanic>());
        // The batch counter is untouched by score events.
        assert!(catch_unwind(AssertUnwindSafe(|| plan.on(FaultSite::Batch))).is_ok());
    }

    #[test]
    fn dequeue_stall_counts_independently() {
        let plan = FaultPlan::new().stall_dequeue(1, Duration::from_millis(5));
        let start = std::time::Instant::now();
        plan.on(FaultSite::Dequeue);
        assert!(start.elapsed() >= Duration::from_millis(5));
        let start = std::time::Instant::now();
        plan.on(FaultSite::Dequeue);
        assert!(start.elapsed() < Duration::from_millis(5));
    }
}
