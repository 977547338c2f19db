//! The receiving half of a simulated TCP connection.
//!
//! Tracks the cumulative in-order frontier plus an out-of-order set, and
//! answers data segments with cumulative ACKs carrying the current
//! advertised receive window and, with [`TcpConfig::sack`] set, SACK
//! ranges for the held segments (none while nothing is held). The receive
//! window starts at the configured `initrwnd` and autotunes upward with
//! received traffic — faster than the sender's window can grow, as §III-C
//! describes, unless an experiment deliberately configures it small.
//!
//! With [`TcpConfig::delayed_ack`] set, the receiver follows RFC 1122
//! delayed acknowledgements: every second in-order segment is acked
//! immediately, a lone segment only when the delayed-ack timer fires;
//! out-of-order and duplicate segments always trigger an immediate ACK
//! (they carry loss signals the sender needs now).

use crate::config::TcpConfig;
use crate::ids::ConnId;
use crate::packet::{Ack, SackBlocks, SegIndex, MAX_SACK_BLOCKS};

/// What the receiver wants done after accepting a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckDecision {
    /// Send this acknowledgement now.
    Immediate(Ack),
    /// Hold the acknowledgement; fire the delayed-ack timer at the
    /// transport's configured timeout with this epoch.
    Deferred {
        /// Epoch the timer must present to [`Receiver::on_delack_timer`].
        epoch: u64,
    },
}

/// Received segments above the frontier, one bit each: bit `i` of
/// `words[w]` is segment `base + 64 w + i`.
///
/// `base` is a multiple of 64 at or below the frontier, taken from the
/// frontier (never from the first held segment, which a lower one may
/// follow) whenever the set fills from empty. No held segment lies below
/// the frontier, so the words wholly under it are dropped as it advances,
/// and all of them are freed when the set empties.
#[derive(Debug, Clone, Default)]
struct HeldSegments {
    base: SegIndex,
    words: Vec<u64>,
    /// Number of set bits.
    len: u64,
}

impl HeldSegments {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn contains(&self, seq: SegIndex) -> bool {
        let Some(offset) = seq.checked_sub(self.base) else {
            return false;
        };
        let word = usize::try_from(offset / 64).unwrap_or(usize::MAX);
        self.words
            .get(word)
            .is_some_and(|&bits| bits >> (offset % 64) & 1 == 1)
    }

    /// Holds `seq`, which is above the frontier `cum` and not yet held.
    fn insert(&mut self, seq: SegIndex, cum: SegIndex) {
        debug_assert!(cum < seq && !self.contains(seq));
        if self.len == 0 {
            self.base = cum & !63;
        }
        let offset = seq - self.base;
        let word = (offset / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (offset % 64);
        self.len += 1;
    }

    /// Takes the held run that starts at the frontier `cum` out of the
    /// set, a word at a time, and returns the frontier past it.
    fn advance(&mut self, mut cum: SegIndex) -> SegIndex {
        if self.len == 0 {
            return cum;
        }
        loop {
            let offset = cum - self.base;
            let bit = (offset % 64) as u32;
            let Some(bits) = self.words.get_mut((offset / 64) as usize) else {
                break;
            };
            let run = (*bits >> bit).trailing_ones();
            if run == 0 {
                break;
            }
            *bits &= !(u64::MAX >> (64 - run) << bit);
            self.len -= u64::from(run);
            cum += u64::from(run);
            if bit + run < 64 {
                break;
            }
        }
        if self.len == 0 {
            self.words = Vec::new();
        } else {
            let below = ((cum - self.base) / 64) as usize;
            if below > 0 {
                self.words.drain(..below);
                self.base += 64 * below as u64;
            }
        }
        cum
    }

    /// Coalesces the held segments into SACK ranges, highest (most
    /// recently useful) first, capped at the option-space limit: a walk
    /// down the words from the top that stops once the option space is
    /// full.
    fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = SackBlocks::default();
        // The range being grown downward, `[start, end)`.
        let mut open: Option<(SegIndex, SegIndex)> = None;
        for (w, &word) in self.words.iter().enumerate().rev() {
            let origin = self.base + 64 * w as u64;
            let mut bits = word;
            while bits != 0 {
                let top = 63 - bits.leading_zeros();
                let run = (bits << (63 - top)).leading_ones();
                let low = top + 1 - run;
                bits &= !(u64::MAX >> (64 - run) << low);
                let (start, end) = (origin + u64::from(low), origin + u64::from(top) + 1);
                open = match open {
                    Some((s, e)) if s == end => Some((start, e)),
                    Some((s, e)) => {
                        blocks.push(s, e);
                        if blocks.len() == MAX_SACK_BLOCKS {
                            return blocks;
                        }
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
        }
        if let Some((s, e)) = open {
            blocks.push(s, e);
        }
        blocks
    }
}

/// The receiving half of one TCP connection.
#[derive(Debug, Clone)]
pub struct Receiver {
    conn: ConnId,
    /// Every segment with index `< cum` has been received.
    cum: SegIndex,
    /// Received segments above the frontier (holes below them).
    out_of_order: HeldSegments,
    /// Currently advertised window, in segments.
    rwnd: u32,
    max_rwnd: u32,
    delayed_ack: bool,
    sack: bool,
    /// In-order segments accepted since the last ACK left.
    unacked: u32,
    /// Whether an ACK is being withheld.
    pending: bool,
    /// Invalidates stale delayed-ack timers.
    epoch: u64,
    /// A Congestion Experienced mark arrived since the last ACK left;
    /// echo ECE on the next acknowledgement (one-shot — this simulator
    /// does not model the full CWR handshake).
    ece_pending: bool,
    segments_received: u64,
    duplicates_received: u64,
}

impl Receiver {
    /// Creates a receiver advertising `cfg.initial_rwnd`.
    pub fn new(conn: ConnId, cfg: &TcpConfig) -> Self {
        Receiver {
            conn,
            cum: 0,
            out_of_order: HeldSegments::default(),
            rwnd: cfg.initial_rwnd,
            max_rwnd: cfg.max_rwnd,
            delayed_ack: cfg.delayed_ack,
            sack: cfg.sack,
            unacked: 0,
            pending: false,
            epoch: 0,
            ece_pending: false,
            segments_received: 0,
            duplicates_received: 0,
        }
    }

    /// The in-order frontier: every segment below this is held.
    pub fn cum_received(&self) -> SegIndex {
        self.cum
    }

    /// The currently advertised receive window, in segments.
    pub fn rwnd(&self) -> u32 {
        self.rwnd
    }

    /// Count of segments that arrived already-held (go-back-N duplicates).
    pub fn duplicates_received(&self) -> u64 {
        self.duplicates_received
    }

    /// Whether an acknowledgement is currently withheld.
    pub fn has_pending_ack(&self) -> bool {
        self.pending
    }

    fn current_ack(&mut self) -> Ack {
        let held = self.sack && !self.out_of_order.is_empty();
        Ack {
            conn: self.conn,
            cum_ack: self.cum,
            rwnd: self.rwnd,
            ece: std::mem::take(&mut self.ece_pending),
            sack: held.then(|| Box::new(self.out_of_order.sack_blocks())),
        }
    }

    /// Frees the held-segment words, for a connection that is closed.
    pub(crate) fn release_held(&mut self) {
        self.out_of_order = HeldSegments::default();
    }

    /// Words of held-segment storage: what an idle or closed
    /// connection must not keep.
    #[cfg(test)]
    pub(crate) fn held_capacity(&self) -> usize {
        self.out_of_order.words.capacity()
    }

    fn emit_now(&mut self) -> AckDecision {
        self.pending = false;
        self.unacked = 0;
        self.epoch += 1; // cancel any armed delayed-ack timer
        AckDecision::Immediate(self.current_ack())
    }

    /// Accepts a data segment and decides how to acknowledge it.
    pub fn on_segment(&mut self, seq: SegIndex) -> AckDecision {
        self.on_segment_ecn(seq, false)
    }

    /// [`Receiver::on_segment`] for a segment that may carry an ECN
    /// Congestion Experienced mark. A marked segment forces an
    /// immediate ACK carrying ECE — the sender needs the congestion
    /// signal now, like a dup-ack.
    pub fn on_segment_ecn(&mut self, seq: SegIndex, ecn: bool) -> AckDecision {
        if ecn {
            self.ece_pending = true;
        }
        let duplicate = seq < self.cum || self.out_of_order.contains(seq);
        if duplicate {
            self.duplicates_received += 1;
            // Duplicates signal spurious retransmission — ack immediately.
            return self.emit_now();
        }
        self.segments_received += 1;
        if seq == self.cum {
            // In-order arrival (the common case): advance the frontier
            // past it and past any held run it completes.
            self.cum = self.out_of_order.advance(self.cum + 1);
        } else {
            // Above the frontier with a hole below: park it.
            self.out_of_order.insert(seq, self.cum);
        }
        // Receive-window autotuning: grow with received traffic, two
        // segments per segment, so it outpaces the sender's window.
        self.rwnd = self.rwnd.saturating_add(2).min(self.max_rwnd);

        let gap = !self.out_of_order.is_empty();
        if gap {
            // A hole exists: the sender needs dup-acks immediately
            // (RFC 5681 §4.2).
            return self.emit_now();
        }
        self.unacked += 1;
        if ecn || !self.delayed_ack || self.unacked >= 2 {
            return self.emit_now();
        }
        self.pending = true;
        AckDecision::Deferred { epoch: self.epoch }
    }

    /// Handles a delayed-ack timer firing. Returns the withheld ACK if
    /// the timer is still current and an ACK is still pending.
    pub fn on_delack_timer(&mut self, epoch: u64) -> Option<Ack> {
        if !self.pending || epoch != self.epoch {
            return None;
        }
        self.pending = false;
        self.unacked = 0;
        self.epoch += 1;
        Some(self.current_ack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn rx() -> Receiver {
        Receiver::new(ConnId::from_index(0), &TcpConfig::default())
    }

    fn rx_delack() -> Receiver {
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        Receiver::new(ConnId::from_index(0), &cfg)
    }

    /// Unwraps an immediate decision (quickack mode always acks now).
    fn imm(d: AckDecision) -> Ack {
        match d {
            AckDecision::Immediate(a) => a,
            AckDecision::Deferred { .. } => panic!("expected immediate ack, got deferred"),
        }
    }

    /// The SACK ranges an ACK carries, in order.
    fn ranges(ack: &Ack) -> Vec<(SegIndex, SegIndex)> {
        ack.sack
            .as_deref()
            .map_or_else(Vec::new, |b| b.iter().collect())
    }

    #[test]
    fn in_order_advances_frontier() {
        let mut r = rx();
        assert_eq!(imm(r.on_segment(0)).cum_ack, 1);
        assert_eq!(imm(r.on_segment(1)).cum_ack, 2);
        assert_eq!(imm(r.on_segment(2)).cum_ack, 3);
        assert_eq!(r.cum_received(), 3);
    }

    #[test]
    fn hole_produces_duplicate_acks() {
        let mut r = rx();
        assert_eq!(imm(r.on_segment(0)).cum_ack, 1);
        // Segment 1 lost; 2, 3, 4 arrive.
        assert_eq!(imm(r.on_segment(2)).cum_ack, 1);
        assert_eq!(imm(r.on_segment(3)).cum_ack, 1);
        assert_eq!(imm(r.on_segment(4)).cum_ack, 1);
        // The retransmitted hole fills everything at once.
        assert_eq!(imm(r.on_segment(1)).cum_ack, 5);
    }

    #[test]
    fn duplicates_are_counted_not_double_delivered() {
        let mut r = rx();
        r.on_segment(0);
        r.on_segment(0);
        assert_eq!(r.duplicates_received(), 1);
        assert_eq!(r.cum_received(), 1);
        // Out-of-order duplicate as well.
        r.on_segment(5);
        r.on_segment(5);
        assert_eq!(r.duplicates_received(), 2);
    }

    #[test]
    fn rwnd_grows_with_traffic_and_caps() {
        let cfg = TcpConfig {
            initial_rwnd: 10,
            max_rwnd: 20,
            ..TcpConfig::default()
        };
        let mut r = Receiver::new(ConnId::from_index(1), &cfg);
        assert_eq!(r.rwnd(), 10);
        for i in 0..3 {
            r.on_segment(i);
        }
        assert_eq!(r.rwnd(), 16);
        for i in 3..50 {
            r.on_segment(i);
        }
        assert_eq!(r.rwnd(), 20, "capped at max_rwnd");
    }

    #[test]
    fn duplicate_does_not_grow_rwnd() {
        let cfg = TcpConfig {
            initial_rwnd: 10,
            max_rwnd: 100,
            ..TcpConfig::default()
        };
        let mut r = Receiver::new(ConnId::from_index(1), &cfg);
        r.on_segment(0);
        let w = r.rwnd();
        r.on_segment(0);
        assert_eq!(r.rwnd(), w);
    }

    #[test]
    fn quickack_mode_never_defers() {
        let mut r = rx();
        for i in 0..20 {
            assert!(matches!(r.on_segment(i), AckDecision::Immediate(_)));
        }
    }

    #[test]
    fn delack_defers_lone_segment_acks_second() {
        let mut r = rx_delack();
        let d = r.on_segment(0);
        assert!(
            matches!(d, AckDecision::Deferred { .. }),
            "first held: {d:?}"
        );
        assert!(r.has_pending_ack());
        // Second in-order segment: ack both at once.
        let a = imm(r.on_segment(1));
        assert_eq!(a.cum_ack, 2);
        assert!(!r.has_pending_ack());
    }

    #[test]
    fn delack_timer_flushes_pending() {
        let mut r = rx_delack();
        let epoch = match r.on_segment(0) {
            AckDecision::Deferred { epoch } => epoch,
            other => panic!("expected deferred, got {other:?}"),
        };
        let ack = r.on_delack_timer(epoch).expect("pending ack released");
        assert_eq!(ack.cum_ack, 1);
        assert!(r.on_delack_timer(epoch).is_none(), "timer consumed");
    }

    #[test]
    fn stale_delack_timer_is_ignored() {
        let mut r = rx_delack();
        let epoch = match r.on_segment(0) {
            AckDecision::Deferred { epoch } => epoch,
            other => panic!("expected deferred, got {other:?}"),
        };
        // The second segment acked immediately — the timer is stale.
        imm(r.on_segment(1));
        assert!(r.on_delack_timer(epoch).is_none());
    }

    #[test]
    fn sack_blocks_describe_the_out_of_order_set() {
        let cfg = TcpConfig {
            sack: true,
            ..TcpConfig::default()
        };
        let mut r = Receiver::new(ConnId::from_index(0), &cfg);
        imm(r.on_segment(0));
        // Holes at 1 and 4: receiver holds {2,3} and {5}.
        let a = imm(r.on_segment(2));
        assert_eq!(ranges(&a), vec![(2, 3)]);
        imm(r.on_segment(3));
        let a = imm(r.on_segment(5));
        assert_eq!(ranges(&a), vec![(5, 6), (2, 4)], "highest range first");
        // Filling hole 1 merges the first range into the frontier.
        let a = imm(r.on_segment(1));
        assert_eq!(a.cum_ack, 4);
        assert_eq!(ranges(&a), vec![(5, 6)]);
        // Filling the last hole clears all SACK info.
        let a = imm(r.on_segment(4));
        assert_eq!(a.cum_ack, 6);
        assert!(a.sack.is_none());
    }

    /// The coalescing `sack_blocks` did before it walked down from the
    /// top: every out-of-order range collected bottom up, then the
    /// highest ones taken.
    fn collected_sack_blocks(out_of_order: &BTreeSet<SegIndex>) -> Vec<(SegIndex, SegIndex)> {
        let mut ranges: Vec<(SegIndex, SegIndex)> = Vec::new();
        for &seq in out_of_order {
            match ranges.last_mut() {
                Some((_, end)) if *end == seq => *end = seq + 1,
                _ => ranges.push((seq, seq + 1)),
            }
        }
        ranges.into_iter().rev().take(MAX_SACK_BLOCKS).collect()
    }

    /// The receiver as it was while it kept its held segments in a
    /// `BTreeSet`: the model the receiver is held to, decision by
    /// decision.
    struct Model {
        conn: ConnId,
        cum: SegIndex,
        out_of_order: BTreeSet<SegIndex>,
        rwnd: u32,
        max_rwnd: u32,
        delayed_ack: bool,
        sack: bool,
        unacked: u32,
        pending: bool,
        epoch: u64,
        ece_pending: bool,
    }

    impl Model {
        fn new(conn: ConnId, cfg: &TcpConfig) -> Self {
            Model {
                conn,
                cum: 0,
                out_of_order: BTreeSet::new(),
                rwnd: cfg.initial_rwnd,
                max_rwnd: cfg.max_rwnd,
                delayed_ack: cfg.delayed_ack,
                sack: cfg.sack,
                unacked: 0,
                pending: false,
                epoch: 0,
                ece_pending: false,
            }
        }

        fn current_ack(&mut self) -> Ack {
            let mut sack: Option<Box<SackBlocks>> = None;
            if self.sack {
                for (start, end) in collected_sack_blocks(&self.out_of_order) {
                    sack.get_or_insert_default().push(start, end);
                }
            }
            Ack {
                conn: self.conn,
                cum_ack: self.cum,
                rwnd: self.rwnd,
                ece: std::mem::take(&mut self.ece_pending),
                sack,
            }
        }

        fn emit_now(&mut self) -> AckDecision {
            self.pending = false;
            self.unacked = 0;
            self.epoch += 1;
            AckDecision::Immediate(self.current_ack())
        }

        fn on_segment_ecn(&mut self, seq: SegIndex, ecn: bool) -> AckDecision {
            self.ece_pending |= ecn;
            if seq < self.cum || self.out_of_order.contains(&seq) {
                return self.emit_now();
            }
            self.out_of_order.insert(seq);
            while self.out_of_order.remove(&self.cum) {
                self.cum += 1;
            }
            self.rwnd = self.rwnd.saturating_add(2).min(self.max_rwnd);
            if !self.out_of_order.is_empty() {
                return self.emit_now();
            }
            self.unacked += 1;
            if ecn || !self.delayed_ack || self.unacked >= 2 {
                return self.emit_now();
            }
            self.pending = true;
            AckDecision::Deferred { epoch: self.epoch }
        }

        fn on_delack_timer(&mut self, epoch: u64) -> Option<Ack> {
            if !self.pending || epoch != self.epoch {
                return None;
            }
            self.pending = false;
            self.unacked = 0;
            self.epoch += 1;
            Some(self.current_ack())
        }
    }

    /// Segment indices the differential property draws from: eight
    /// 64-segment words.
    const SPAN: u64 = 512;

    proptest::proptest! {
        // Segments arriving in any order, duplicates included: every ACK
        // carries the ranges the collect-then-take coalescing gives. The
        // arrivals span eight words, so ranges cross word boundaries.
        #[test]
        fn sack_blocks_match_the_collected_ranges(
            arrivals in proptest::collection::vec(0u64..SPAN, 1..600)
        ) {
            let cfg = TcpConfig {
                sack: true,
                ..TcpConfig::default()
            };
            let mut r = Receiver::new(ConnId::from_index(0), &cfg);
            let mut held = BTreeSet::new();
            for seq in arrivals {
                let ack = imm(r.on_segment(seq));
                held.insert(seq);
                held.retain(|&s| s >= ack.cum_ack);
                proptest::prop_assert_eq!(ranges(&ack), collected_sack_blocks(&held));
            }
        }

        // The receiver against its `BTreeSet` model under every mix of
        // SACK and delayed ACKs: arrivals anywhere in eight words (a high
        // segment may come before lower ones), arrivals just above the
        // frontier (so it advances through held runs and across words),
        // duplicates, ECN marks and delayed-ack timers current and stale.
        // Every decision must match. With SACK off no ACK carries ranges,
        // even with segments held above a hole; with it on, an ACK carries
        // none exactly when nothing is held.
        #[test]
        fn the_receiver_matches_its_btree_model(
            sack in proptest::strategy::any::<bool>(),
            delayed_ack in proptest::strategy::any::<bool>(),
            max_rwnd in 1000u32..1400,
            ops in proptest::collection::vec((0u64..SPAN, 0u8..10), 1..800)
        ) {
            let cfg = TcpConfig {
                sack,
                delayed_ack,
                max_rwnd,
                ..TcpConfig::default()
            };
            let conn = ConnId::from_index(3);
            let mut r = Receiver::new(conn, &cfg);
            let mut model = Model::new(conn, &cfg);
            for (i, (x, kind)) in ops.into_iter().enumerate() {
                let near = (model.cum + x % 8).min(SPAN - 1);
                let (seq, ecn) = match kind {
                    0..=2 => (x, false),
                    3..=6 => (near, false),
                    _ => (x, true),
                };
                let sent = if kind <= 7 {
                    let decision = r.on_segment_ecn(seq, ecn);
                    proptest::prop_assert_eq!(
                        &decision,
                        &model.on_segment_ecn(seq, ecn),
                        "op {} segment {} marked {}",
                        i,
                        seq,
                        ecn
                    );
                    match decision {
                        AckDecision::Immediate(ack) => Some(ack),
                        AckDecision::Deferred { .. } => None,
                    }
                } else {
                    // The current epoch, or a stale one.
                    let epoch = model.epoch - (x % 2).min(model.epoch);
                    let ack = r.on_delack_timer(epoch);
                    proptest::prop_assert_eq!(
                        &ack,
                        &model.on_delack_timer(epoch),
                        "op {} delayed-ack timer {}",
                        i,
                        epoch
                    );
                    ack
                };
                if let Some(ack) = sent {
                    let none_expected = !sack || model.out_of_order.is_empty();
                    proptest::prop_assert_eq!(
                        ack.sack.is_none(),
                        none_expected,
                        "op {}: SACK {}, {} held",
                        i,
                        sack,
                        model.out_of_order.len()
                    );
                }
                proptest::prop_assert_eq!(r.cum_received(), model.cum);
                proptest::prop_assert_eq!(r.has_pending_ack(), model.pending);
            }
        }
    }

    #[test]
    fn held_words_are_freed_when_the_set_empties_or_the_connection_closes() {
        let mut r = rx();
        r.on_segment(0);
        // A hole at 1, a held run crossing two words, then one far above.
        for seq in (60..70).chain([300]) {
            r.on_segment(seq);
        }
        assert!(r.held_capacity() >= 5);
        for seq in 1..60 {
            r.on_segment(seq);
        }
        assert_eq!(r.cum_received(), 70);
        assert!(r.held_capacity() > 0, "300 is still held");
        for seq in 70..300 {
            r.on_segment(seq);
        }
        assert_eq!(r.cum_received(), 301);
        assert_eq!(r.held_capacity(), 0, "the set emptied");
        r.on_segment(303);
        r.release_held();
        assert_eq!(r.held_capacity(), 0);
    }

    #[test]
    fn sack_disabled_sends_plain_acks() {
        let mut r = rx();
        imm(r.on_segment(0));
        let a = imm(r.on_segment(5));
        assert!(a.sack.is_none(), "no SACK info without the flag");
    }

    #[test]
    fn sack_blocks_cap_at_option_space() {
        let cfg = TcpConfig {
            sack: true,
            ..TcpConfig::default()
        };
        let mut r = Receiver::new(ConnId::from_index(0), &cfg);
        // Five disjoint ranges: 2, 4, 6, 8, 10.
        let mut last = None;
        for seq in [2u64, 4, 6, 8, 10] {
            last = Some(r.on_segment(seq));
        }
        let a = imm(last.unwrap());
        let blocks = ranges(&a);
        assert_eq!(blocks.len(), 3, "only three ranges fit");
        assert_eq!(
            blocks[0],
            (10, 11),
            "the most recent (highest) range survives"
        );
    }

    #[test]
    fn ecn_mark_echoes_ece_once() {
        let mut r = rx();
        let a = imm(r.on_segment_ecn(0, true));
        assert!(a.ece, "mark echoed on the very next ACK");
        // The echo is one-shot: the following clean ACK is ECE-free.
        let a = imm(r.on_segment_ecn(1, false));
        assert!(!a.ece);
    }

    #[test]
    fn ecn_mark_forces_immediate_ack_under_delack() {
        let mut r = rx_delack();
        // A lone marked segment may not sit behind the delack timer —
        // the sender needs the congestion signal now.
        let a = imm(r.on_segment_ecn(0, true));
        assert!(a.ece);
    }

    #[test]
    fn ece_survives_until_an_ack_actually_leaves() {
        let mut r = rx_delack();
        // Unmarked lone segment deferred, then a marked one arrives:
        // the combined ACK carries ECE.
        assert!(matches!(r.on_segment(0), AckDecision::Deferred { .. }));
        let a = imm(r.on_segment_ecn(1, true));
        assert_eq!(a.cum_ack, 2);
        assert!(a.ece);
    }

    #[test]
    fn delack_acks_immediately_on_gap() {
        let mut r = rx_delack();
        // Out-of-order arrival: no deferral allowed.
        assert!(matches!(r.on_segment(5), AckDecision::Immediate(_)));
        // Duplicates likewise.
        assert!(matches!(r.on_segment(5), AckDecision::Immediate(_)));
    }
}
