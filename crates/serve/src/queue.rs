//! The engine's one meeting point: `submit` pushes into the shared
//! [`Batcher`], free workers pull batches out of it, and a worker parks
//! here only when no bucket is ready.

use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::batcher::Batcher;
use crate::config::ServerConfig;
use crate::error::{DeadlineStage, Result, ServeError};
use crate::metrics::ServerMetrics;
use crate::request::{Batch, Request};

/// The bounded queue between submitters and workers. Overflow is a
/// typed [`ServeError::Overloaded`] instead of an ever-growing buffer.
#[derive(Debug)]
pub(crate) struct SubmissionQueue {
    state: Mutex<State>,
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
            state: Mutex::new(State {
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
        drop(state);
        if pushed.is_ok() {
            self.work.notify_one();
        }
        pushed
    }

    /// Blocks until a batch is ready and takes it; `None` once the queue
    /// is closed and empty. Records what left the queue: in-queue
    /// deadline misses, the batch, and its members' queue waits.
    pub fn take(&self, metrics: &ServerMetrics) -> Option<Batch> {
        let mut state = self.state.lock();
        loop {
            let now = Instant::now();
            let closed = state.closed;
            let taken = state.batcher.take(now, closed, &mut |overshoot| {
                metrics.record_dequeued();
                metrics.record_deadline_miss(DeadlineStage::Queue, overshoot);
                metrics.record_failed();
            });
            if let Some(batch) = taken {
                // What stays behind may turn ready while this worker is
                // busy, and this take may have used up the wake-up meant
                // for it: hand the watch to a parked worker.
                if state.batcher.pending() > 0 {
                    self.work.notify_one();
                }
                drop(state);
                let waited = |r: &Request| now.saturating_duration_since(r.submitted_at);
                metrics.record_batch_taken(batch.requests.iter().map(waited));
                return Some(batch);
            }
            if closed {
                return None;
            }
            if let Some(at) = state.batcher.next_ready_at() {
                self.work.wait_until(&mut state, at);
            } else {
                self.work.wait(&mut state);
            }
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
        // Third submission is shed with the configured capacity.
        assert_eq!(
            queue.submit(request()),
            Err(ServeError::Overloaded { capacity: 2 })
        );
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

    #[test]
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
