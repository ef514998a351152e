//! The engine's one meeting point: `submit` pushes into the shared
//! [`Batcher`], free workers pull batches out of it, and a worker parks
//! here only when no bucket is ready.
//!
//! `state` is a leaf lock (see [`crate::sync`]): a request the queue
//! refuses or expires is answered — its response slot locked and
//! filled — only after the `state` guard is dropped.

use std::time::Instant;

use crate::batcher::Batcher;
use crate::config::ServerConfig;
use crate::error::{DeadlineStage, Result, ServeError};
use crate::metrics::ServerMetrics;
use crate::request::{Batch, Request};
use crate::sync::{Condvar, Leaf};

/// The bounded queue between submitters and workers. Overflow is a
/// typed [`ServeError::Overloaded`] instead of an ever-growing buffer.
#[derive(Debug)]
pub(crate) struct SubmissionQueue {
    state: Leaf<State>,
    /// Signalled by every accepted push, by `close`, and by a taker
    /// that leaves requests behind; waiters re-check under `state`.
    work: Condvar,
}

#[derive(Debug)]
struct State {
    batcher: Batcher,
    /// Shutdown: pushes are refused, takers drain every bucket.
    closed: bool,
}

impl SubmissionQueue {
    pub fn new(config: &ServerConfig) -> Self {
        SubmissionQueue {
            state: Leaf::new(State {
                batcher: Batcher::new(
                    config.queue_capacity,
                    config.max_batch_size,
                    config.linger(),
                ),
                closed: false,
            }),
            work: Condvar::new(),
        }
    }

    /// Enqueues without blocking and wakes one parked worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] at capacity, [`ServeError::ShuttingDown`]
    /// once closed; the refused request's handle gets the same error.
    pub fn submit(&self, request: Request) -> Result<()> {
        let mut state = self.state.lock();
        if state.closed {
            drop(state);
            request.fail(ServeError::ShuttingDown);
            return Err(ServeError::ShuttingDown);
        }
        let pushed = state.batcher.push(request);
        let capacity = state.batcher.capacity();
        drop(state);
        match pushed {
            Ok(()) => {
                self.work.notify_one();
                Ok(())
            }
            Err(refused) => {
                let error = ServeError::Overloaded { capacity };
                refused.fail(error.clone());
                Err(error)
            }
        }
    }

    /// Blocks until a batch is ready and takes it; `None` once the queue
    /// is closed and empty. Records what left the queue: in-queue
    /// deadline misses, the batch, and its members' queue waits.
    pub fn take(&self, metrics: &ServerMetrics) -> Option<Batch> {
        let mut expired = Vec::new();
        let mut state = self.state.lock();
        loop {
            let now = Instant::now();
            let closed = state.closed;
            let taken = state.batcher.take(now, closed, &mut expired);
            if taken.is_none() && !closed && expired.is_empty() {
                if let Some(at) = state.batcher.next_ready_at() {
                    state.wait_until(&self.work, at);
                } else {
                    state.wait(&self.work);
                }
                continue;
            }
            // What stays behind may turn ready while this worker is
            // busy, and this take may have used up the wake-up meant
            // for it: hand the watch to a parked worker.
            if taken.is_some() && state.batcher.pending() > 0 {
                self.work.notify_one();
            }
            drop(state);
            for request in expired.drain(..) {
                let overshoot = request.overshoot(now).unwrap_or_default();
                let stage = DeadlineStage::Queue;
                if request.fail(ServeError::DeadlineExceeded { stage }) {
                    metrics.record_dequeued();
                    metrics.record_deadline_miss(stage, overshoot);
                    metrics.record_failed();
                }
            }
            if let Some(batch) = taken {
                let waited = |r: &Request| now.saturating_duration_since(r.submitted_at);
                metrics.record_batch_taken(batch.requests.iter().map(waited));
                return Some(batch);
            }
            if closed {
                return None;
            }
            state = self.state.lock();
        }
    }

    /// Refuses further pushes; wakes every parked worker to drain.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ResponseHandle, ResponseSlot};
    use fademl::ThreatModel;
    use fademl_tensor::Tensor;
    use std::sync::Arc;
    use std::time::Duration;

    fn request() -> Request {
        Request {
            image: Tensor::zeros(&[1, 2, 2]),
            threat: ThreatModel::I,
            slot: ResponseSlot::new(),
            submitted_at: Instant::now(),
            deadline: None,
            triage: None,
        }
    }

    fn queue(capacity: usize, linger_us: u64) -> SubmissionQueue {
        SubmissionQueue::new(&ServerConfig {
            queue_capacity: capacity,
            max_batch_size: 4,
            linger_us,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn rejects_when_full_and_recovers_after_a_take() {
        let queue = queue(2, 0);
        let metrics = ServerMetrics::new(4);
        queue.submit(request()).unwrap();
        queue.submit(request()).unwrap();
        // Third submission is shed with the configured capacity, and
        // its handle says so.
        let shed = request();
        let handle = ResponseHandle::new(Arc::clone(&shed.slot));
        let overloaded = ServeError::Overloaded { capacity: 2 };
        assert_eq!(queue.submit(shed), Err(overloaded.clone()));
        assert_eq!(handle.wait(), Err(overloaded));
        // A worker taking the backlog makes room again.
        assert_eq!(queue.take(&metrics).unwrap().requests.len(), 2);
        queue.submit(request()).unwrap();
        let report = metrics.report();
        assert_eq!(report.batches_dispatched, 1);
        assert_eq!(report.batch_size_counts, [0, 1, 0, 0]);
    }

    #[test]
    fn closed_queue_refuses_pushes_and_drains_held_buckets() {
        // 60 s linger: only the close can release the bucket.
        let queue = queue(4, 60_000_000);
        let metrics = ServerMetrics::new(4);
        queue.submit(request()).unwrap();
        queue.close();
        let late = request();
        let handle = ResponseHandle::new(Arc::clone(&late.slot));
        assert_eq!(queue.submit(late), Err(ServeError::ShuttingDown));
        assert_eq!(handle.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(queue.take(&metrics).unwrap().requests.len(), 1);
        assert!(queue.take(&metrics).is_none());
    }

    /// A request whose deadline has already passed, and its handle.
    fn expired() -> (Request, ResponseHandle) {
        let mut request = request();
        request.deadline = Some(request.submitted_at - Duration::from_millis(1));
        let handle = ResponseHandle::new(Arc::clone(&request.slot));
        (request, handle)
    }

    const QUEUE_MISS: Result<fademl::Verdict> = Err(ServeError::DeadlineExceeded {
        stage: DeadlineStage::Queue,
    });

    #[test]
    fn expired_requests_resolve_in_queue_and_are_counted_once() {
        let queue = queue(8, 0);
        let metrics = ServerMetrics::new(4);
        let (dead, dead_handle) = expired();
        for request in [dead, request()] {
            metrics.record_enqueue_attempt();
            queue.submit(request).unwrap();
        }
        // The live request is served; the dead one takes no batch slot.
        assert_eq!(queue.take(&metrics).unwrap().requests.len(), 1);
        assert_eq!(dead_handle.try_get(), Some(QUEUE_MISS));
        // Only expired requests left, then shutdown: no batch, every
        // handle answered.
        let (dead, dead_handle) = expired();
        metrics.record_enqueue_attempt();
        queue.submit(dead).unwrap();
        queue.close();
        assert!(queue.take(&metrics).is_none());
        assert_eq!(dead_handle.try_get(), Some(QUEUE_MISS));
        let report = metrics.report();
        assert_eq!(report.deadline_missed_queue, 2);
        assert_eq!(report.requests_failed, 2);
        assert_eq!(report.batches_dispatched, 1);
        assert_eq!(report.queue_depth, 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the taker must park on its own thread"
    )]
    fn a_parked_taker_answers_an_expired_request_and_parks_again() {
        let queue = Arc::new(queue(8, 0));
        let metrics = Arc::new(ServerMetrics::new(4));
        let taker = {
            let (queue, metrics) = (Arc::clone(&queue), Arc::clone(&metrics));
            std::thread::spawn(move || queue.take(&metrics).is_none())
        };
        let (dead, dead_handle) = expired();
        queue.submit(dead).unwrap();
        // Answered by the taker while the queue stays open.
        assert_eq!(dead_handle.wait(), QUEUE_MISS);
        queue.close();
        assert!(taker.join().unwrap());
        assert_eq!(metrics.report().deadline_missed_queue, 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the takers must park on their own threads"
    )]
    fn parked_takers_wake_on_submit_and_on_close() {
        let queue = Arc::new(queue(4, 0));
        let metrics = Arc::new(ServerMetrics::new(4));
        let takers: Vec<_> = (0..2)
            .map(|_| {
                let (queue, metrics) = (Arc::clone(&queue), Arc::clone(&metrics));
                std::thread::spawn(move || {
                    let mut served = 0;
                    while let Some(batch) = queue.take(&metrics) {
                        served += batch.requests.len();
                    }
                    served
                })
            })
            .collect();
        queue.submit(request()).unwrap();
        // Whichever taker got it, the request left the queue.
        while metrics.report().batches_dispatched == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        queue.close();
        let served: usize = takers.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(served, 1);
    }
}
