//! Deterministic network fault injection, on the same
//! [`Schedule`] core as `serve::faults`.
//!
//! A [`NetFaultPlan`] scripts *which* response frames are wounded, by
//! 1-based response sequence number counted across the whole server.
//! Compiled only with `--features faults`; production builds carry
//! zero injection code.

use fademl_tensor::io::faults::Schedule;

/// What to do to the current response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseFault {
    /// Send it whole.
    None,
    /// Send only the first `n` bytes, then cut the connection — a torn
    /// frame mid-stream.
    Tear(usize),
    /// Cut the connection without sending a byte.
    Drop,
}

/// Scripted network faults. Sequence numbers are 1-based and counted
/// over every response the server attempts to send.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    responses: Schedule<ResponseFault>,
}

impl NetFaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        NetFaultPlan::default()
    }

    /// Tear response number `seq` after `keep_bytes` bytes.
    #[must_use]
    pub fn tear_response_on(mut self, seq: u64, keep_bytes: usize) -> Self {
        self.responses.on(seq, ResponseFault::Tear(keep_bytes));
        self
    }

    /// Drop response number `seq` entirely (cut before any byte).
    #[must_use]
    pub fn drop_response_on(mut self, seq: u64) -> Self {
        self.responses.on(seq, ResponseFault::Drop);
        self
    }

    /// Called by the server once per response it is about to send;
    /// returns the first fault scripted on this sequence number.
    pub fn on_response(&self) -> ResponseFault {
        let (_, mut due) = self.responses.tick();
        due.next().copied().unwrap_or(ResponseFault::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_on_scripted_sequence_only() {
        let plan = NetFaultPlan::new()
            .tear_response_on(2, 5)
            .drop_response_on(3);
        assert_eq!(plan.on_response(), ResponseFault::None);
        assert_eq!(plan.on_response(), ResponseFault::Tear(5));
        assert_eq!(plan.on_response(), ResponseFault::Drop);
        assert_eq!(plan.on_response(), ResponseFault::None);
    }

    #[test]
    fn every_scripted_fault_of_a_kind_fires() {
        let plan = NetFaultPlan::new().drop_response_on(1).drop_response_on(3);
        let fired: Vec<_> = (0..3).map(|_| plan.on_response()).collect();
        let expected = [
            ResponseFault::Drop,
            ResponseFault::None,
            ResponseFault::Drop,
        ];
        assert_eq!(fired, expected);
    }

    #[test]
    fn clones_share_the_sequence_counter() {
        let plan = NetFaultPlan::new().drop_response_on(2);
        let clone = plan.clone();
        assert_eq!(plan.on_response(), ResponseFault::None);
        assert_eq!(clone.on_response(), ResponseFault::Drop);
    }
}
