//! On-the-wire units exchanged between simulated TCP endpoints.
//!
//! The simulator models data segments individually (they occupy queue space
//! and can be dropped) while control packets — SYN/SYN-ACK and pure ACKs —
//! are modelled as delay-only: they still traverse the path's propagation
//! delay but are too small to contend for queue space. This mirrors the
//! paper's §II-B model assumptions and keeps the dynamics focused on the
//! forward data path, where initcwnd matters.
//!
//! An [`Ack`] has one shape from the receiver that builds it, through the
//! event queue, to the sender that reads it. Its SACK ranges ride boxed,
//! and only when SACK is on and the receiver holds a segment above its
//! frontier, so an ACK without ranges stays small enough for a 32-byte
//! queued event.

use crate::ids::ConnId;

/// Sequence position expressed in whole MSS-sized segments.
///
/// The simulated sender transmits full segments only (the last segment of a
/// transfer may be logically short but still occupies one slot), so segment
/// indices are sufficient and keep arithmetic exact.
pub type SegIndex = u64;

/// A TCP data segment in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Connection this segment belongs to.
    pub conn: ConnId,
    /// Index of this segment within the connection's byte stream.
    pub seq: SegIndex,
    /// Bytes on the wire (payload + headers) for queue accounting.
    pub wire_bytes: u32,
    /// Whether this is a retransmission (for stats only).
    pub retransmit: bool,
    /// Whether the path's AQM set the ECN Congestion Experienced mark
    /// on this segment (RFC 3168 CE codepoint).
    pub ecn: bool,
}

/// Maximum SACK ranges carried per ACK (RFC 2018: three fit alongside
/// timestamps in the TCP option space).
pub const MAX_SACK_BLOCKS: usize = 3;

/// Selective-acknowledgement ranges: segments the receiver holds above
/// the cumulative frontier. Half-open `[start, end)` intervals in
/// segment indices, most relevant first. Built up from `default()`, which
/// holds none; an [`Ack`] without ranges carries no `SackBlocks` at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(SegIndex, SegIndex); MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// Appends a range; silently ignored once the option space is full.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` (empty or inverted range).
    pub fn push(&mut self, start: SegIndex, end: SegIndex) {
        assert!(
            start < end,
            "SACK range must be non-empty: [{start}, {end})"
        );
        if (self.len as usize) < MAX_SACK_BLOCKS {
            self.blocks[self.len as usize] = (start, end);
            self.len += 1;
        }
    }

    /// The carried ranges, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (SegIndex, SegIndex)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// Number of ranges carried.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no ranges are carried.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A cumulative acknowledgement travelling back to the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// Connection being acknowledged.
    pub conn: ConnId,
    /// The receiver has every segment with index `< cum_ack`.
    pub cum_ack: SegIndex,
    /// Receive window advertised by the receiver, in segments.
    pub rwnd: u32,
    /// ECN Echo: the receiver saw a Congestion Experienced mark since
    /// its last acknowledgement (RFC 3168 ECE flag).
    pub ece: bool,
    /// Selective-acknowledgement ranges: `None` unless SACK is enabled
    /// and the receiver holds a segment above `cum_ack`, so never an
    /// empty set.
    pub sack: Option<Box<SackBlocks>>,
}

impl Ack {
    /// An ACK without SACK information.
    pub fn plain(conn: ConnId, cum_ack: SegIndex, rwnd: u32) -> Self {
        Ack {
            conn,
            cum_ack,
            rwnd,
            ece: false,
            sack: None,
        }
    }
}

/// Control packets that consume one path RTT but no queue space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Connection request (client → server).
    Syn {
        /// The connection being opened.
        conn: ConnId,
    },
    /// Connection accept (server → client).
    SynAck {
        /// The connection being accepted.
        conn: ConnId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConnId;

    #[test]
    fn segment_fields_hold() {
        let s = Segment {
            conn: ConnId::from_index(1),
            seq: 42,
            wire_bytes: 1500,
            retransmit: false,
            ecn: false,
        };
        assert_eq!(s.seq, 42);
        assert!(!s.retransmit);
    }

    #[test]
    fn ack_semantics_are_cumulative() {
        let a = Ack::plain(ConnId::from_index(1), 10, 64);
        // cum_ack of 10 means segments 0..=9 are held by the receiver.
        assert_eq!(a.cum_ack, 10);
        assert!(a.sack.is_none());
    }

    #[test]
    fn sack_blocks_cap_at_three() {
        let mut s = SackBlocks::default();
        s.push(5, 7);
        s.push(9, 10);
        s.push(12, 20);
        s.push(30, 40); // silently dropped: option space full
        assert_eq!(s.len(), 3);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(5, 7), (9, 10), (12, 20)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn sack_rejects_empty_range() {
        let mut s = SackBlocks::default();
        s.push(5, 5);
    }
}
