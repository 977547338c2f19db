//! Wire-level event tracing.
//!
//! A simulator is only as trustworthy as your ability to see what it
//! did. A `World` hands every wire-level event of every connection,
//! timestamped and tagged with its [`ConnId`](crate::ids::ConnId), to the
//! one observer set by [`World::set_observer`](crate::world::World::set_observer),
//! in the order the events happen; filtered to one connection, that
//! stream is the connection's trace. No observer is set unless a caller
//! sets one. Traces are the ground truth behind the TCP behaviour tests
//! and invaluable when a workload behaves unexpectedly.

use crate::packet::SegIndex;
use crate::time::SimTime;

/// One traced wire/timer event on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The handshake completed; data may flow.
    Established {
        /// When.
        at: SimTime,
    },
    /// A data segment left the sender.
    SegmentSent {
        /// When.
        at: SimTime,
        /// Stream position.
        seq: SegIndex,
        /// Whether it was a retransmission.
        retransmit: bool,
    },
    /// A data segment was dropped by the path.
    SegmentDropped {
        /// When.
        at: SimTime,
        /// Stream position.
        seq: SegIndex,
        /// `true` = queue overflow, `false` = random loss.
        overflow: bool,
    },
    /// A data segment reached the receiver.
    SegmentDelivered {
        /// When.
        at: SimTime,
        /// Stream position.
        seq: SegIndex,
    },
    /// A cumulative ACK reached the sender.
    AckDelivered {
        /// When.
        at: SimTime,
        /// Acknowledged frontier.
        cum_ack: SegIndex,
        /// Sender congestion window after processing, in segments.
        cwnd_after: u32,
    },
    /// The retransmission timer fired (and was current).
    RtoFired {
        /// When.
        at: SimTime,
    },
    /// A transfer completed.
    TransferCompleted {
        /// When.
        at: SimTime,
        /// Payload size.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Established { at }
            | TraceEvent::SegmentSent { at, .. }
            | TraceEvent::SegmentDropped { at, .. }
            | TraceEvent::SegmentDelivered { at, .. }
            | TraceEvent::AckDelivered { at, .. }
            | TraceEvent::RtoFired { at }
            | TraceEvent::TransferCompleted { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_accessible() {
        let e = TraceEvent::RtoFired {
            at: SimTime::from_secs(3),
        };
        assert_eq!(e.at(), SimTime::from_secs(3));
    }
}
