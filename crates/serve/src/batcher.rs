//! Dynamic batching: every accepted request waits here, in one FIFO per
//! threat model, until a free worker takes a batch of up to
//! `max_batch_size` from the bucket whose head has waited longest.
//!
//! A bucket is *ready* once it is full or its head is `linger` old. At
//! `linger == 0` an idle worker serves a lone request at once, and
//! batches form from what accumulated while all workers were busy.
//!
//! Pure state-machine logic — no threads, no locks, no clock (`now` is
//! passed in) — so the coalescing policy is unit-testable in isolation.
//! `queue.rs` wraps it in the lock and condvar the engine shares. The
//! batcher answers no request itself: a refused or expired request is
//! handed back, so its handle is filled after that lock is released.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fademl::ThreatModel;

use crate::request::{Batch, Request};

/// Coalescing state machine.
///
/// Requests for different [`ThreatModel`]s never share a batch: TM-I
/// skips the filter while TM-II/III stage differently, so mixing them
/// would force per-image staging and defeat batching.
#[derive(Debug)]
pub struct Batcher {
    capacity: usize,
    max_batch_size: usize,
    linger: Duration,
    /// Arrival-ordered requests, one queue per [`ThreatModel::ALL`] entry.
    buckets: [VecDeque<Request>; 3],
}

impl Batcher {
    /// Holds at most `capacity` requests; hands out batches of up to
    /// `max_batch_size` from buckets that are full or `linger` old.
    pub fn new(capacity: usize, max_batch_size: usize, linger: Duration) -> Self {
        assert!(max_batch_size > 0, "max_batch_size must be positive");
        Batcher {
            capacity,
            max_batch_size,
            linger,
            buckets: Default::default(),
        }
    }

    /// Number of requests currently waiting in buckets.
    pub fn pending(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }

    /// The most requests that wait at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a request to its threat bucket.
    ///
    /// # Errors
    ///
    /// Hands the request back, unanswered, when `capacity` requests are
    /// already waiting.
    pub fn push(&mut self, request: Request) -> Result<(), Request> {
        if self.pending() >= self.capacity {
            return Err(request);
        }
        let threat = request.threat;
        for (bucket, t) in self.buckets.iter_mut().zip(ThreatModel::ALL) {
            if t == threat {
                bucket.push_back(request);
                break;
            }
        }
        Ok(())
    }

    /// The earliest instant at which some bucket is ready — in the past
    /// when one already is. A parked worker sleeps no later than this.
    pub fn next_ready_at(&self) -> Option<Instant> {
        self.buckets
            .iter()
            .filter_map(|b| ready_at(b, self.max_batch_size, self.linger))
            .min()
    }

    /// Takes up to `max_batch_size` live requests, in arrival order,
    /// from the ready bucket whose head is oldest; `None` when no bucket
    /// is ready. `drain` (shutdown) makes every non-empty bucket ready.
    /// Requests past their deadline at `now` take no batch slot: they
    /// are moved, unanswered, onto `expired`.
    pub fn take(&mut self, now: Instant, drain: bool, expired: &mut Vec<Request>) -> Option<Batch> {
        let (max_batch_size, linger) = (self.max_batch_size, self.linger);
        loop {
            let (bucket, threat) = self
                .buckets
                .iter_mut()
                .zip(ThreatModel::ALL)
                .filter(|(b, _)| {
                    let ready = ready_at(b, max_batch_size, linger).is_some_and(|at| at <= now);
                    !b.is_empty() && (drain || ready)
                })
                .min_by_key(|(b, _)| b.front().map(|head| head.submitted_at))?;
            let mut requests = Vec::with_capacity(bucket.len().min(max_batch_size));
            while requests.len() < max_batch_size {
                let Some(request) = bucket.pop_front() else {
                    break;
                };
                if request.overshoot(now).is_none() {
                    requests.push(request);
                } else {
                    expired.push(request);
                }
            }
            // All expired: no batch here, look at the next-oldest bucket.
            if !requests.is_empty() {
                return Some(Batch { threat, requests });
            }
        }
    }
}

/// When `bucket` becomes ready: at once if full, else when its head
/// turns `linger` old. `None` if empty (or `linger` overflows `Instant`).
fn ready_at(
    bucket: &VecDeque<Request>,
    max_batch_size: usize,
    linger: Duration,
) -> Option<Instant> {
    let head = bucket.front()?.submitted_at;
    if bucket.len() >= max_batch_size {
        return Some(head);
    }
    head.checked_add(linger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ResponseHandle, ResponseSlot};
    use fademl_tensor::Tensor;
    use std::sync::Arc;

    const MS: Duration = Duration::from_millis(1);

    /// The tests' clock: an hour ahead of the wall clock, so a batcher
    /// that reads `Instant::now()` instead of its `now` disagrees with
    /// every test.
    fn t0() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    fn request_at(threat: ThreatModel, submitted_at: Instant) -> Request {
        Request {
            image: Tensor::zeros(&[1, 2, 2]),
            threat,
            slot: ResponseSlot::new(),
            submitted_at,
            deadline: None,
            triage: None,
        }
    }

    fn id(request: &Request) -> *const ResponseSlot {
        Arc::as_ptr(&request.slot)
    }

    fn answered(request: &Request) -> bool {
        ResponseHandle::new(Arc::clone(&request.slot))
            .try_get()
            .is_some()
    }

    /// `take` for tests that expect no in-queue expiry.
    fn take(b: &mut Batcher, now: Instant) -> Option<Batch> {
        let mut expired = Vec::new();
        let batch = b.take(now, false, &mut expired);
        assert!(expired.is_empty(), "nothing should expire");
        batch
    }

    #[test]
    fn linger_zero_serves_a_lone_request_at_once() {
        let mut b = Batcher::new(8, 4, Duration::ZERO);
        let t0 = t0();
        assert!(take(&mut b, t0).is_none());
        assert_eq!(b.next_ready_at(), None);
        b.push(request_at(ThreatModel::II, t0)).unwrap();
        assert_eq!(b.next_ready_at(), Some(t0));
        let batch = take(&mut b, t0).expect("ready without waiting");
        assert_eq!(batch.threat, ThreatModel::II);
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn backlog_splits_at_max_batch_size_in_arrival_order() {
        let mut b = Batcher::new(64, 16, Duration::ZERO);
        let t0 = t0();
        let mut ids = Vec::new();
        for i in 0..40 {
            let request = request_at(ThreatModel::III, t0 + MS * i);
            ids.push(id(&request));
            b.push(request).unwrap();
        }
        let now = t0 + MS * 40;
        let mut sizes = Vec::new();
        let mut got = Vec::new();
        while let Some(batch) = take(&mut b, now) {
            sizes.push(batch.requests.len());
            got.extend(batch.requests.iter().map(id));
        }
        assert_eq!(sizes, [16, 16, 8]);
        assert_eq!(got, ids);
    }

    #[test]
    fn oldest_head_is_served_first_and_threat_models_never_mix() {
        let mut b = Batcher::new(64, 2, Duration::ZERO);
        let t0 = t0();
        // Arrivals interleave; TM-I is the busy one.
        let arrivals = [
            ThreatModel::I,
            ThreatModel::II,
            ThreatModel::I,
            ThreatModel::III,
            ThreatModel::I,
            ThreatModel::I,
            ThreatModel::II,
        ];
        for (i, threat) in arrivals.into_iter().enumerate() {
            b.push(request_at(threat, t0 + MS * i as u32)).unwrap();
        }
        let now = t0 + MS * 10;
        let mut order = Vec::new();
        while let Some(batch) = take(&mut b, now) {
            assert!(batch.requests.iter().all(|r| r.threat == batch.threat));
            order.push((batch.threat, batch.requests.len()));
        }
        // Heads were submitted at 0 (I), 1 (II), 3 (III); after the first
        // TM-I pair its next head is 4, behind both other buckets.
        assert_eq!(
            order,
            [
                (ThreatModel::I, 2),
                (ThreatModel::II, 2),
                (ThreatModel::III, 1),
                (ThreatModel::I, 2),
            ]
        );
    }

    #[test]
    fn linger_holds_a_partial_bucket_exactly_that_long() {
        let linger = MS * 10;
        let mut b = Batcher::new(64, 4, linger);
        let t0 = t0();
        b.push(request_at(ThreatModel::I, t0)).unwrap();
        b.push(request_at(ThreatModel::I, t0 + MS * 5)).unwrap();
        assert_eq!(b.next_ready_at(), Some(t0 + linger));
        assert!(take(&mut b, t0 + linger - Duration::from_nanos(1)).is_none());
        let batch = take(&mut b, t0 + linger).expect("head is linger old");
        assert_eq!(batch.requests.len(), 2);

        // A full bucket is ready immediately, whatever its age; the
        // overflow stays behind, held by its own head's linger.
        for _ in 0..5 {
            b.push(request_at(ThreatModel::II, t0)).unwrap();
        }
        assert_eq!(b.next_ready_at(), Some(t0));
        assert_eq!(take(&mut b, t0).expect("full").requests.len(), 4);
        assert!(take(&mut b, t0).is_none());
        assert_eq!(b.pending(), 1);
        // Shutdown drains it regardless.
        let rest = b
            .take(t0, true, &mut Vec::new())
            .expect("drain ignores linger");
        assert_eq!(rest.requests.len(), 1);
    }

    #[test]
    fn push_at_capacity_hands_the_request_back_unanswered() {
        let mut b = Batcher::new(2, 4, Duration::ZERO);
        let t0 = t0();
        b.push(request_at(ThreatModel::I, t0)).unwrap();
        b.push(request_at(ThreatModel::II, t0)).unwrap();
        let shed = request_at(ThreatModel::I, t0);
        let shed_id = id(&shed);
        let refused = b.push(shed).expect_err("at capacity");
        assert_eq!(id(&refused), shed_id);
        assert!(!answered(&refused));
        assert_eq!(b.pending(), 2);
        // Taking a batch makes room again.
        take(&mut b, t0).unwrap();
        b.push(request_at(ThreatModel::I, t0)).unwrap();
    }

    #[test]
    fn expired_requests_are_handed_back_and_take_no_batch_slot() {
        let mut b = Batcher::new(64, 2, Duration::ZERO);
        let t0 = t0();
        let mut dead_ids = Vec::new();
        // dead, live, dead, live, live — all TM-I.
        for (i, dead) in [true, false, true, false, false].into_iter().enumerate() {
            let mut request = request_at(ThreatModel::I, t0 + MS * i as u32);
            request.deadline = dead.then_some(t0 + MS * 20);
            if dead {
                dead_ids.push(id(&request));
            }
            b.push(request).unwrap();
        }
        // A bucket holding only an expired request yields no batch.
        let mut lone = request_at(ThreatModel::II, t0 + MS * 9);
        lone.deadline = Some(t0 + MS * 20);
        dead_ids.push(id(&lone));
        b.push(lone).unwrap();

        let now = t0 + MS * 25;
        let mut expired = Vec::new();
        let mut sizes = Vec::new();
        while let Some(batch) = b.take(now, false, &mut expired) {
            assert!(batch.requests.iter().all(|r| r.deadline.is_none()));
            sizes.push(batch.requests.len());
        }
        // The first batch is filled to two live requests past the dead ones.
        assert_eq!(sizes, [2, 1]);
        assert_eq!(b.pending(), 0);
        assert_eq!(expired.iter().map(id).collect::<Vec<_>>(), dead_ids);
        for request in &expired {
            assert_eq!(request.overshoot(now), Some(MS * 5));
            assert!(!answered(request));
        }
    }
}
