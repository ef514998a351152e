//! In-flight request plumbing: the queued request, the slot a worker
//! fills, and the handle a client waits on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Result, ServeError};
use crate::sync::{Condvar, Leaf};
use crate::triage::TriageVerdict;
use fademl::{ThreatModel, Verdict};
use fademl_tensor::Tensor;

/// One-shot rendezvous between a worker (producer) and a client
/// (consumer).
#[derive(Debug)]
pub struct ResponseSlot {
    outcome: Leaf<Option<Result<Verdict>>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            outcome: Leaf::new(None),
            ready: Condvar::new(),
        })
    }

    /// Fills the slot and wakes every waiter. Later fills are ignored —
    /// first verdict wins. Returns `true` when this call was the one
    /// that filled the slot, so callers can keep metrics exact even
    /// when failure paths race (e.g. a panic handler and the mid-batch
    /// drop guard both answering the same request).
    pub(crate) fn fill(&self, result: Result<Verdict>) -> bool {
        let mut guard = self.outcome.lock();
        if guard.is_none() {
            *guard = Some(result);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    fn wait(&self) -> Result<Verdict> {
        let mut guard = self.outcome.lock();
        loop {
            if let Some(outcome) = guard.clone() {
                return outcome;
            }
            guard.wait(&self.ready);
        }
    }

    /// A `timeout` too long to add to `Instant::now()` waits as [`wait`](Self::wait).
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Verdict>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut guard = self.outcome.lock();
        loop {
            if let Some(outcome) = guard.clone() {
                return Some(outcome);
            }
            match deadline {
                None => guard.wait(&self.ready),
                Some(at) if Instant::now() < at => {
                    guard.wait_until(&self.ready, at);
                }
                Some(_) => return None,
            }
        }
    }

    fn try_get(&self) -> Option<Result<Verdict>> {
        self.outcome.lock().clone()
    }
}

/// Client-side handle to a submitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    pub(crate) fn new(slot: Arc<ResponseSlot>) -> Self {
        ResponseHandle { slot }
    }

    /// Blocks until the verdict (or error) for this request is ready.
    ///
    /// # Errors
    ///
    /// Returns whatever error the serving engine answered with —
    /// [`ServeError::Pipeline`] for inference failures,
    /// [`ServeError::BatchFailed`] when a panic took the batch down,
    /// [`ServeError::DeadlineExceeded`] for expired deadlines,
    /// [`ServeError::ShuttingDown`] if the request was dropped during
    /// shutdown.
    pub fn wait(self) -> Result<Verdict> {
        self.slot.wait()
    }

    /// Blocks for at most `timeout`; `None` when the request is still
    /// in flight afterwards. Useful for callers enforcing their own
    /// liveness bound on top of server-side deadlines.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Verdict>> {
        self.slot.wait_timeout(timeout)
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_get(&self) -> Option<Result<Verdict>> {
        self.slot.try_get()
    }
}

/// A request travelling through the engine.
#[derive(Debug)]
pub struct Request {
    /// `[C, H, W]` image to classify.
    pub image: Tensor,
    /// Where the image enters the pipeline.
    pub threat: ThreatModel,
    /// Where the verdict goes.
    pub slot: Arc<ResponseSlot>,
    /// Submission timestamp for end-to-end latency.
    pub submitted_at: Instant,
    /// Absolute expiry; a request past its deadline is answered with
    /// [`ServeError::DeadlineExceeded`] instead of a stale verdict.
    pub deadline: Option<Instant>,
    /// Admission-time triage outcome; `None` on servers without a
    /// detection stage. A flagged request is routed to the hardened
    /// path by the worker pool.
    pub triage: Option<TriageVerdict>,
}

impl Request {
    /// Answers this request with an error. Returns `true` when this
    /// call filled the slot (first answer wins).
    pub fn fail(self, error: ServeError) -> bool {
        self.slot.fill(Err(error))
    }

    /// How far past its deadline this request is at `now`, or `None`
    /// while it is still live (or has no deadline).
    pub fn overshoot(&self, now: Instant) -> Option<Duration> {
        match self.deadline {
            Some(deadline) if now > deadline => Some(now.saturating_duration_since(deadline)),
            _ => None,
        }
    }
}

/// A coalesced batch ready for a worker: all requests share one threat
/// model, so they stage and forward together.
#[derive(Debug)]
pub struct Batch {
    /// Common threat model of every request in the batch.
    pub threat: ThreatModel,
    /// The member requests, in arrival order.
    pub requests: Vec<Request>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DeadlineStage;

    fn dummy_verdict() -> Verdict {
        use fademl_nn::metrics::Prediction;
        Verdict {
            class: 1,
            confidence: 0.9,
            top5: Prediction {
                top_classes: vec![1, 0],
                top_probs: vec![0.9, 0.1],
            },
            probabilities: Tensor::from_vec(vec![0.1, 0.9], fademl_tensor::Shape::new(vec![2]))
                .unwrap(),
            detection: None,
        }
    }

    #[test]
    fn handle_sees_filled_slot() {
        let slot = ResponseSlot::new();
        let handle = ResponseHandle::new(Arc::clone(&slot));
        assert!(handle.try_get().is_none());
        assert!(slot.fill(Ok(dummy_verdict())));
        assert_eq!(handle.try_get().unwrap().unwrap().class, 1);
        assert_eq!(handle.wait().unwrap().class, 1);
    }

    #[test]
    fn first_fill_wins() {
        let slot = ResponseSlot::new();
        assert!(slot.fill(Err(ServeError::ShuttingDown)));
        assert!(!slot.fill(Ok(dummy_verdict())));
        assert_eq!(
            ResponseHandle::new(slot).wait(),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn wait_blocks_until_fill() {
        let slot = ResponseSlot::new();
        let handle = ResponseHandle::new(Arc::clone(&slot));
        #[expect(
            clippy::disallowed_methods,
            reason = "the fill must come from another thread while this one waits"
        )]
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.fill(Ok(dummy_verdict()));
        });
        assert_eq!(handle.wait().unwrap().class, 1);
        filler.join().unwrap();
    }

    #[test]
    fn wait_timeout_returns_none_then_some() {
        let slot = ResponseSlot::new();
        let handle = ResponseHandle::new(Arc::clone(&slot));
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());
        slot.fill(Err(ServeError::DeadlineExceeded {
            stage: DeadlineStage::Batch,
        }));
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(10)),
            Some(Err(ServeError::DeadlineExceeded {
                stage: DeadlineStage::Batch,
            }))
        );
    }

    #[test]
    fn wait_timeout_without_a_representable_deadline_still_answers() {
        let slot = ResponseSlot::new();
        let handle = ResponseHandle::new(Arc::clone(&slot));
        slot.fill(Ok(dummy_verdict()));
        assert_eq!(
            handle.wait_timeout(Duration::MAX).unwrap().unwrap().class,
            1
        );
    }

    #[test]
    fn overshoot_tracks_deadline() {
        let now = Instant::now();
        let request = Request {
            image: Tensor::zeros(&[1, 2, 2]),
            threat: ThreatModel::I,
            slot: ResponseSlot::new(),
            submitted_at: now,
            deadline: Some(now + Duration::from_millis(10)),
            triage: None,
        };
        assert_eq!(request.overshoot(now), None);
        assert_eq!(request.overshoot(now + Duration::from_millis(10)), None);
        assert_eq!(
            request.overshoot(now + Duration::from_millis(15)),
            Some(Duration::from_millis(5))
        );
        let undated = Request {
            deadline: None,
            ..request
        };
        assert_eq!(undated.overshoot(now + Duration::from_secs(60)), None);
    }
}
