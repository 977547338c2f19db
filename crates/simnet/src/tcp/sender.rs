//! The sending half of a simulated TCP connection.
//!
//! Implements loss detection and recovery: cumulative ACK processing,
//! duplicate-ACK counting with fast retransmit on the third duplicate,
//! NewReno partial-ACK retransmission inside recovery (or, with
//! [`TcpConfig::sack`], an RFC 6675-lite SACK scoreboard that fills every
//! known hole per episode), and a retransmission timer with exponential
//! backoff and go-back-N on expiry. Window *growth* is delegated to a
//! [`CongestionControl`] implementation.
//!
//! The sender is a pure state machine: it never touches the event queue
//! directly. [`Sender::write`], [`Sender::on_ack`] and
//! [`Sender::on_rto_fire`] push the segments to put on the wire into a
//! buffer the caller passes in — the [`crate::world::World`] passes one
//! for all its connections, so a sender owns no outbox — and leave an RTO
//! re-arm request readable through [`Sender::take_timer_request`]; the
//! world turns both into events.
//!
//! The send-time ring grows with the largest flight. The world takes it
//! back when the sender is fully acknowledged or its connection closes,
//! and lends it to the next sender that writes without one
//! (`Sender::release_send_times`, `Sender::adopt_send_times`), so an idle
//! connection holds no ring; a sender used on its own grows and keeps its
//! own.

use std::collections::{BTreeSet, VecDeque};

use crate::config::TcpConfig;
use crate::packet::{Ack, SegIndex};
use crate::tcp::controller::{self, CongestionControl};
use crate::tcp::rtt::RttEstimator;
use crate::time::{SimDuration, SimTime};

/// A segment the sender wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outgoing {
    /// Stream position, in segments.
    pub seq: SegIndex,
    /// Whether this is a retransmission.
    pub retransmit: bool,
}

/// Send timestamps of the segments in flight, indexed by offset from the
/// sender's `send_base`; `true` = retransmitted.
pub(crate) type SendTimes = VecDeque<Option<(SimTime, bool)>>;

/// A request to (re-)arm the retransmission timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// When the timer should fire.
    pub deadline: SimTime,
    /// Epoch that must still be current for the firing to count.
    pub epoch: u64,
}

/// Why the congestion window changed last (exposed for stats/debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SenderPhase {
    /// No loss event has occurred yet.
    #[default]
    Open,
    /// In fast recovery following a triple duplicate ACK.
    Recovery,
    /// Recovering from a retransmission timeout.
    Timeout,
}

/// The sending half of one TCP connection.
#[derive(Debug)]
pub struct Sender {
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    initial_cwnd: u32,
    slow_start_after_idle: bool,
    /// Window to restart from after a long idle period. Linux re-reads the
    /// route's *current* `initcwnd` in `tcp_cwnd_restart`, so a Riptide
    /// route update affects already-open idle connections too; the world
    /// refreshes this from the host policy before each transfer.
    idle_restart_window: u32,

    /// Total segments the application has written.
    stream_end: SegIndex,
    /// Next never-before-sent segment.
    next_seq: SegIndex,
    /// Everything below this is cumulatively acknowledged.
    cum_acked: SegIndex,
    /// Peer's advertised receive window, in segments.
    peer_rwnd: u32,

    dup_acks: u32,
    phase: SenderPhase,
    /// NewReno recovery point: highest sequence sent when loss was detected.
    recover_point: SegIndex,
    /// ECN recovery point: ECE echoes below this acknowledge the same
    /// congestion event and trigger no further reduction (one cwnd cut
    /// per RTT, RFC 3168 §6.1.2).
    ece_recover_point: SegIndex,

    rto_backoff: u32,
    rto_epoch: u64,
    rto_armed: bool,

    /// Send timestamps for in-flight segments, indexed by offset from
    /// `send_base`; `true` = retransmitted (Karn's rule: never RTT-sample
    /// those). A ring buffer rather than a map: live entries always fall
    /// in `[cum_acked, stream_end)`, so cumulative ACKs prune from the
    /// front and sends append near the back, with no per-segment node
    /// allocation.
    send_times: SendTimes,
    /// Stream position of `send_times[0]`; advances with `cum_acked`.
    send_base: SegIndex,

    /// Whether SACK-based recovery is enabled (RFC 2018/6675-lite).
    sack_enabled: bool,
    /// Scoreboard: segments above `cum_acked` the receiver has reported
    /// holding selectively.
    sacked: BTreeSet<SegIndex>,
    /// Holes already retransmitted during the current recovery episode.
    recovery_retx: BTreeSet<SegIndex>,

    timer_request: Option<TimerRequest>,
    /// Set when a loss event updates ssthresh; the stack persists it to
    /// the destination metrics cache (Linux `tcp_metrics`).
    ssthresh_update: Option<u32>,

    last_activity: SimTime,
    retransmits_total: u64,
    timeouts_total: u64,
    fast_retransmits_total: u64,
    ece_reductions_total: u64,
}

impl Sender {
    /// Creates a sender whose slow start begins at `initial_cwnd` segments
    /// (the knob Riptide turns) under the stack-wide `cfg`.
    pub fn new(cfg: &TcpConfig, initial_cwnd: u32, now: SimTime) -> Self {
        Sender::with_ssthresh(cfg, initial_cwnd, cfg.initial_ssthresh, now)
    }

    /// Creates a sender with an explicit initial slow-start threshold —
    /// how a cached `tcp_metrics` entry seeds a new connection.
    pub fn with_ssthresh(
        cfg: &TcpConfig,
        initial_cwnd: u32,
        initial_ssthresh: u32,
        now: SimTime,
    ) -> Self {
        Sender {
            cc: controller::build(cfg.cc, initial_cwnd, initial_ssthresh),
            rtt: RttEstimator::new(cfg.rto_initial, cfg.rto_min, cfg.rto_max),
            initial_cwnd: initial_cwnd.max(1),
            slow_start_after_idle: cfg.slow_start_after_idle,
            idle_restart_window: initial_cwnd.max(1),
            stream_end: 0,
            next_seq: 0,
            cum_acked: 0,
            peer_rwnd: cfg.initial_rwnd,
            dup_acks: 0,
            phase: SenderPhase::Open,
            recover_point: 0,
            ece_recover_point: 0,
            rto_backoff: 0,
            rto_epoch: 0,
            rto_armed: false,
            send_times: VecDeque::new(),
            send_base: 0,
            sack_enabled: cfg.sack,
            sacked: BTreeSet::new(),
            recovery_retx: BTreeSet::new(),
            timer_request: None,
            ssthresh_update: None,
            last_activity: now,
            retransmits_total: 0,
            timeouts_total: 0,
            fast_retransmits_total: 0,
            ece_reductions_total: 0,
        }
    }

    /// The initial congestion window this connection opened with.
    pub fn initial_cwnd(&self) -> u32 {
        self.initial_cwnd
    }

    /// Sets the window used for slow-start-after-idle restarts. Linux
    /// derives this from the route's current `initcwnd` at restart time,
    /// so it changes when Riptide updates the route.
    pub fn set_idle_restart_window(&mut self, window: u32) {
        self.idle_restart_window = window.max(1);
    }

    /// The current idle-restart window.
    pub fn idle_restart_window(&self) -> u32 {
        self.idle_restart_window
    }

    /// Current congestion window rounded to whole segments, as `ss` shows.
    pub fn cwnd_segments(&self) -> u32 {
        (self.cc.cwnd().round() as u32).max(1)
    }

    /// Current slow-start threshold in segments (`u32::MAX` ≈ unset).
    pub fn ssthresh_segments(&self) -> u32 {
        let s = self.cc.ssthresh();
        if s >= u32::MAX as f64 {
            u32::MAX
        } else {
            s.round() as u32
        }
    }

    /// Smoothed RTT, once measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Cumulatively acknowledged stream position, in segments.
    pub fn cum_acked(&self) -> SegIndex {
        self.cum_acked
    }

    /// Total segments the application has written.
    pub fn stream_end(&self) -> SegIndex {
        self.stream_end
    }

    /// Whether every written segment has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.cum_acked == self.stream_end
    }

    /// Segments currently considered in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.cum_acked
    }

    /// RFC 6675 "pipe": in-flight segments not known to have left the
    /// network via selective acknowledgement.
    pub fn pipe(&self) -> u64 {
        self.in_flight().saturating_sub(self.sacked.len() as u64)
    }

    /// Segments currently marked in the SACK scoreboard.
    pub fn sacked_count(&self) -> usize {
        self.sacked.len()
    }

    /// Total retransmitted segments (fast + timeout-driven).
    pub fn retransmits_total(&self) -> u64 {
        self.retransmits_total
    }

    /// Total retransmission timeouts taken.
    pub fn timeouts_total(&self) -> u64 {
        self.timeouts_total
    }

    /// Total fast-retransmit events.
    pub fn fast_retransmits_total(&self) -> u64 {
        self.fast_retransmits_total
    }

    /// Total window reductions taken in response to ECN echoes. These
    /// involve no retransmission — the congestion signal arrives without
    /// packet loss, which is exactly why ECN and the retransmit counter
    /// diverge as learning-policy inputs.
    pub fn ece_reductions_total(&self) -> u64 {
        self.ece_reductions_total
    }

    /// Current recovery phase.
    pub fn phase(&self) -> SenderPhase {
        self.phase
    }

    /// Instant of the last send/ack activity.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// Gives the send-time ring, emptied, to `free` and keeps one that
    /// holds no allocation. The world calls it when nothing is in flight
    /// or the connection has closed: the timestamps of a closed
    /// connection's flight are never read.
    pub(crate) fn release_send_times(&mut self, free: &mut Vec<SendTimes>) {
        if self.send_times.capacity() > 0 {
            let mut ring = std::mem::take(&mut self.send_times);
            ring.clear();
            free.push(ring);
        }
    }

    /// Takes the last ring of `free` as the send-time ring, if this
    /// sender holds none.
    pub(crate) fn adopt_send_times(&mut self, free: &mut Vec<SendTimes>) {
        if self.send_times.capacity() == 0 {
            if let Some(ring) = free.pop() {
                self.send_times = ring;
            }
        }
    }

    /// The recorded `(sent_at, retransmitted)` pair for `seq`, if it has
    /// been transmitted and is not yet cumulatively acknowledged.
    fn send_time(&self, seq: SegIndex) -> Option<(SimTime, bool)> {
        let idx = seq.checked_sub(self.send_base)?;
        self.send_times.get(idx as usize).copied().flatten()
    }

    /// Records (or overwrites) the send timestamp for `seq`.
    fn record_send(&mut self, seq: SegIndex, at: SimTime, retransmit: bool) {
        debug_assert!(seq >= self.send_base, "sends never precede cum_acked");
        let idx = (seq - self.send_base) as usize;
        if idx >= self.send_times.len() {
            self.send_times.resize(idx + 1, None);
        }
        self.send_times[idx] = Some((at, retransmit));
    }

    /// Whether a flush has anything to move: a timer request or an
    /// ssthresh update.
    pub(crate) fn has_pending_output(&self) -> bool {
        self.timer_request.is_some() || self.ssthresh_update.is_some()
    }

    /// Takes the pending timer re-arm request, if any.
    pub fn take_timer_request(&mut self) -> Option<TimerRequest> {
        self.timer_request.take()
    }

    /// Takes the ssthresh value recorded by the most recent loss event,
    /// if any — destined for the host's destination metrics cache.
    pub fn take_ssthresh_update(&mut self) -> Option<u32> {
        self.ssthresh_update.take()
    }

    /// Appends `segments` of application data to the stream and pushes
    /// onto `out` as much as the window allows.
    pub fn write(&mut self, segments: u64, now: SimTime, out: &mut Vec<Outgoing>) {
        if segments == 0 {
            return;
        }
        // tcp_slow_start_after_idle: collapse a window that has sat unused
        // longer than one RTO back to the initial window.
        if self.slow_start_after_idle
            && self.in_flight() == 0
            && now.saturating_since(self.last_activity) > self.rtt.rto()
        {
            self.cc.on_idle_restart(self.idle_restart_window);
        }
        self.stream_end += segments;
        self.last_activity = now;
        self.pump(now, out);
    }

    /// Processes a cumulative acknowledgement, pushing onto `out` the
    /// segments it releases or retransmits.
    pub fn on_ack(&mut self, ack: &Ack, now: SimTime, out: &mut Vec<Outgoing>) {
        self.peer_rwnd = ack.rwnd;
        self.last_activity = now;
        if self.sack_enabled {
            for (start, end) in ack.sack.iter().flat_map(|blocks| blocks.iter()) {
                for seq in start.max(self.cum_acked)..end.min(self.next_seq) {
                    self.sacked.insert(seq);
                }
            }
        }
        // ECN echo: cut the window once per round trip (RFC 3168
        // §6.1.2) without retransmitting anything — the packet was
        // delivered, only marked. Echoes for the same flight (below the
        // recovery point) repeat the same congestion event.
        if ack.ece && ack.cum_ack >= self.ece_recover_point {
            self.cc.on_ecn(now);
            self.ssthresh_update = Some(self.ssthresh_segments());
            self.ece_recover_point = self.next_seq;
            self.ece_reductions_total += 1;
        }
        if ack.cum_ack > self.cum_acked {
            self.handle_advance(ack.cum_ack, now, out);
        } else if ack.cum_ack == self.cum_acked && self.in_flight() > 0 {
            self.handle_duplicate(now, out);
        }
        self.pump(now, out);
    }

    fn handle_advance(&mut self, new_cum: SegIndex, now: SimTime, out: &mut Vec<Outgoing>) {
        let newly = new_cum - self.cum_acked;
        // Congestion-window validation (Linux `tcp_is_cwnd_limited`): the
        // window only grows when the flow was actually using it — within
        // 2x in slow start, exactly full in congestion avoidance. Without
        // this, every ack on an app-limited flow inflates cwnd to values
        // the path never demonstrated it could carry. The unbounded
        // growth this still allows across repeated transfers is what the
        // ssthresh metrics cache (tcp_metrics) moderates.
        let in_flight_before = self.next_seq.saturating_sub(self.cum_acked);
        let wnd = (self.cc.cwnd().floor() as u64)
            .max(1)
            .min(self.peer_rwnd as u64);
        let cwnd_limited = if self.cc.in_slow_start() {
            2 * in_flight_before >= wnd
        } else {
            in_flight_before >= wnd
        };
        // RTT sample from the most recently acknowledged, never-
        // retransmitted segment (Karn's algorithm).
        if let Some((sent_at, retx)) = self.send_time(new_cum - 1) {
            if !retx {
                self.rtt.on_sample(now.saturating_since(sent_at));
            }
        }
        let acked = ((new_cum - self.send_base) as usize).min(self.send_times.len());
        self.send_times.drain(..acked);
        self.send_base = new_cum;
        self.cum_acked = new_cum;
        // A late ACK from a pre-timeout flight can pass a rewound
        // `next_seq` (go-back-N); those segments need no resending.
        self.next_seq = self.next_seq.max(new_cum);
        if !self.sacked.is_empty() {
            self.sacked = self.sacked.split_off(&new_cum);
        }
        if !self.recovery_retx.is_empty() {
            self.recovery_retx = self.recovery_retx.split_off(&new_cum);
        }
        self.dup_acks = 0;
        self.rto_backoff = 0;

        match self.phase {
            SenderPhase::Recovery | SenderPhase::Timeout if new_cum < self.recover_point => {
                if self.sack_enabled {
                    // SACK: retransmit every known hole once per episode.
                    self.fill_holes(now, out);
                } else {
                    // Partial ACK: another hole. Retransmit the new first
                    // unacked segment immediately (NewReno).
                    self.retransmit(self.cum_acked, now, out);
                }
            }
            SenderPhase::Recovery | SenderPhase::Timeout => {
                self.phase = SenderPhase::Open;
                self.recovery_retx.clear();
                if cwnd_limited {
                    self.cc.on_ack(newly, now, self.rtt.srtt());
                }
            }
            SenderPhase::Open => {
                if cwnd_limited {
                    self.cc.on_ack(newly, now, self.rtt.srtt());
                }
            }
        }

        if self.all_acked() && self.in_flight() == 0 {
            self.disarm_rto();
        } else {
            self.arm_rto(now);
        }
    }

    fn handle_duplicate(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        self.dup_acks += 1;
        if self.dup_acks == 3 && self.phase == SenderPhase::Open {
            self.cc.on_loss(now);
            self.ssthresh_update = Some(self.ssthresh_segments());
            self.phase = SenderPhase::Recovery;
            self.recover_point = self.next_seq;
            self.recovery_retx.clear();
            self.fast_retransmits_total += 1;
            if self.sack_enabled {
                self.fill_holes(now, out);
            } else {
                self.retransmit(self.cum_acked, now, out);
            }
            self.arm_rto(now);
        } else if self.phase == SenderPhase::Recovery && self.sack_enabled {
            // Later dup-acks widen the scoreboard: keep filling holes.
            self.fill_holes(now, out);
        }
    }

    /// SACK recovery (RFC 6675-lite): retransmit every segment below the
    /// recovery point that the receiver has not selectively acknowledged,
    /// at most once per recovery episode.
    fn fill_holes(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        for seq in self.cum_acked..self.recover_point.min(self.next_seq) {
            if self.sacked.contains(&seq) || self.recovery_retx.contains(&seq) {
                continue;
            }
            self.recovery_retx.insert(seq);
            self.retransmit(seq, now, out);
        }
    }

    /// Handles a retransmission-timer firing, pushing the resent segments
    /// onto `out`. Returns `true` if the timer was current and a timeout
    /// was actually taken.
    pub fn on_rto_fire(&mut self, epoch: u64, now: SimTime, out: &mut Vec<Outgoing>) -> bool {
        if !self.rto_armed || epoch != self.rto_epoch {
            return false; // stale timer from an earlier arm
        }
        if self.in_flight() == 0 {
            self.disarm_rto();
            return false;
        }
        self.timeouts_total += 1;
        self.rto_backoff += 1;
        self.cc.on_timeout(now);
        self.ssthresh_update = Some(self.ssthresh_segments());
        // RFC 2018 reneging safety: discard the scoreboard on timeout.
        self.sacked.clear();
        self.recovery_retx.clear();
        self.phase = SenderPhase::Timeout;
        self.recover_point = self.next_seq;
        // Go-back-N: rewind and resend from the first unacknowledged
        // segment. The receiver discards duplicates.
        self.next_seq = self.cum_acked;
        self.last_activity = now;
        self.pump(now, out);
        self.arm_rto(now);
        true
    }

    fn retransmit(&mut self, seq: SegIndex, now: SimTime, out: &mut Vec<Outgoing>) {
        self.retransmits_total += 1;
        self.record_send(seq, now, true);
        out.push(Outgoing {
            seq,
            retransmit: true,
        });
    }

    /// Sends new segments while the effective window allows.
    fn pump(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        let wnd = (self.cc.cwnd().floor() as u64)
            .max(1)
            .min(self.peer_rwnd as u64);
        while self.next_seq < self.stream_end && self.pipe() < wnd {
            let seq = self.next_seq;
            let retx = self.send_time(seq).is_some();
            if retx {
                self.retransmits_total += 1;
            }
            self.record_send(seq, now, retx);
            out.push(Outgoing {
                seq,
                retransmit: retx,
            });
            self.next_seq += 1;
        }
        if self.in_flight() > 0 && !self.rto_armed {
            self.arm_rto(now);
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_epoch += 1;
        self.rto_armed = true;
        let deadline = now + self.rtt.rto_backed_off(self.rto_backoff);
        self.timer_request = Some(TimerRequest {
            deadline,
            epoch: self.rto_epoch,
        });
    }

    fn disarm_rto(&mut self) {
        self.rto_epoch += 1;
        self.rto_armed = false;
        self.timer_request = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SackBlocks;

    impl Sender {
        /// Entries the send-time ring has room for.
        pub(crate) fn send_times_capacity(&self) -> usize {
            self.send_times.capacity()
        }
    }

    /// A sender with the outbox its caller passes it, emptied by
    /// `take_outbox` as the world's flush empties its own.
    struct Tx {
        sender: Sender,
        out: Vec<Outgoing>,
    }

    impl Tx {
        fn new(cfg: &TcpConfig, iw: u32) -> Tx {
            Tx {
                sender: Sender::new(cfg, iw, SimTime::ZERO),
                out: Vec::new(),
            }
        }

        fn write(&mut self, segments: u64, now: SimTime) {
            self.sender.write(segments, now, &mut self.out);
        }

        fn on_ack(&mut self, ack: Ack, now: SimTime) {
            self.sender.on_ack(&ack, now, &mut self.out);
        }

        fn on_rto_fire(&mut self, epoch: u64, now: SimTime) -> bool {
            self.sender.on_rto_fire(epoch, now, &mut self.out)
        }

        fn take_outbox(&mut self) -> Vec<Outgoing> {
            std::mem::take(&mut self.out)
        }
    }

    impl std::ops::Deref for Tx {
        type Target = Sender;
        fn deref(&self) -> &Sender {
            &self.sender
        }
    }

    impl std::ops::DerefMut for Tx {
        fn deref_mut(&mut self) -> &mut Sender {
            &mut self.sender
        }
    }

    fn sender_with_iw(iw: u32) -> Tx {
        Tx::new(&TcpConfig::default(), iw)
    }

    fn ack(cum: SegIndex) -> Ack {
        Ack::plain(crate::ids::ConnId::from_index(0), cum, 1000)
    }

    fn ece_ack(cum: SegIndex) -> Ack {
        Ack {
            ece: true,
            ..ack(cum)
        }
    }

    #[test]
    fn ece_reduces_cwnd_without_retransmitting() {
        let mut s = sender_with_iw(10);
        s.write(100, SimTime::ZERO);
        s.take_outbox();
        let before = s.cwnd_segments();
        s.on_ack(ece_ack(5), SimTime::from_millis(100));
        assert!(
            s.cwnd_segments() < before,
            "window cut: {} -> {}",
            before,
            s.cwnd_segments()
        );
        assert_eq!(s.ece_reductions_total(), 1);
        assert_eq!(s.retransmits_total(), 0, "nothing was lost");
        assert_eq!(s.phase(), SenderPhase::Open, "no recovery episode");
        assert!(
            s.take_outbox().iter().all(|o| !o.retransmit),
            "only fresh data after an ECE"
        );
    }

    #[test]
    fn ece_cuts_at_most_once_per_rtt() {
        let mut s = sender_with_iw(10);
        s.write(100, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ece_ack(2), SimTime::from_millis(50));
        let after_first = s.cwnd_segments();
        // More ECE echoes from the same flight: same congestion event.
        s.on_ack(ece_ack(4), SimTime::from_millis(60));
        s.on_ack(ece_ack(6), SimTime::from_millis(70));
        assert_eq!(s.ece_reductions_total(), 1);
        assert!(s.cwnd_segments() >= after_first.saturating_sub(1));
        // Once the post-cut flight is acknowledged, a new echo counts.
        let flight_end = s.stream_end().min(s.cum_acked() + s.in_flight());
        s.on_ack(ack(flight_end), SimTime::from_millis(150));
        s.take_outbox();
        s.on_ack(ece_ack(flight_end + 1), SimTime::from_millis(250));
        assert_eq!(s.ece_reductions_total(), 2);
    }

    #[test]
    fn ece_records_ssthresh_for_the_metrics_cache() {
        let mut s = sender_with_iw(10);
        s.write(100, SimTime::ZERO);
        s.take_outbox();
        assert!(s.take_ssthresh_update().is_none());
        s.on_ack(ece_ack(5), SimTime::from_millis(100));
        let cached = s.take_ssthresh_update().expect("ECE updates the cache");
        assert!(cached >= 1);
    }

    #[test]
    fn initial_burst_is_initcwnd_limited() {
        let mut s = sender_with_iw(10);
        s.write(100, SimTime::ZERO);
        let out = s.take_outbox();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[9].seq, 9);
        assert!(out.iter().all(|o| !o.retransmit));
        assert_eq!(s.in_flight(), 10);
    }

    #[test]
    fn larger_initcwnd_sends_larger_burst() {
        let mut s = sender_with_iw(80);
        s.write(100, SimTime::ZERO);
        assert_eq!(s.take_outbox().len(), 80);
    }

    #[test]
    fn ack_releases_more_segments_slow_start() {
        let mut s = sender_with_iw(10);
        s.write(100, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        s.on_ack(ack(10), t);
        // Slow start: cwnd 10 -> 20, all acked, so 20 new segments fly.
        let out = s.take_outbox();
        assert_eq!(out.len(), 20);
        assert_eq!(s.cwnd_segments(), 20);
    }

    #[test]
    fn rtt_is_sampled_from_acks() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ack(10), SimTime::from_millis(120));
        assert_eq!(s.srtt(), Some(SimDuration::from_millis(120)));
    }

    #[test]
    fn transfer_completes_when_all_acked() {
        let mut s = sender_with_iw(10);
        s.write(5, SimTime::ZERO);
        s.take_outbox();
        assert!(!s.all_acked());
        s.on_ack(ack(5), SimTime::from_millis(50));
        assert!(s.all_acked());
        assert_eq!(s.in_flight(), 0);
        // Timer is disarmed once everything is acknowledged.
        assert!(s.take_timer_request().is_none());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        // Segment 0 lost: receiver acks 0 repeatedly.
        s.on_ack(ack(0), t);
        s.on_ack(ack(0), t);
        assert_eq!(s.fast_retransmits_total(), 0);
        s.on_ack(ack(0), t);
        assert_eq!(s.fast_retransmits_total(), 1);
        assert_eq!(s.phase(), SenderPhase::Recovery);
        let out = s.take_outbox();
        assert!(out.iter().any(|o| o.seq == 0 && o.retransmit));
        // CUBIC beta: cwnd dropped to 7.
        assert_eq!(s.cwnd_segments(), 7);
    }

    #[test]
    fn full_ack_exits_recovery() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        for _ in 0..3 {
            s.on_ack(ack(0), t);
        }
        assert_eq!(s.phase(), SenderPhase::Recovery);
        s.on_ack(ack(10), SimTime::from_millis(200));
        assert_eq!(s.phase(), SenderPhase::Open);
        assert!(s.all_acked());
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        for _ in 0..3 {
            s.on_ack(ack(0), t);
        }
        s.take_outbox();
        // Partial ack: segments 0..4 arrive but 5 is also lost.
        s.on_ack(ack(5), SimTime::from_millis(150));
        assert_eq!(s.phase(), SenderPhase::Recovery, "still recovering");
        let out = s.take_outbox();
        assert!(
            out.iter().any(|o| o.seq == 5 && o.retransmit),
            "partial ack retransmits the new hole: {out:?}"
        );
    }

    #[test]
    fn rto_collapses_window_and_goes_back_n() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let req = s.take_timer_request().expect("timer armed on first send");
        assert!(s.on_rto_fire(req.epoch, req.deadline));
        assert_eq!(s.timeouts_total(), 1);
        assert_eq!(s.cwnd_segments(), 1);
        let out = s.take_outbox();
        // cwnd=1: exactly the first unacked segment is resent.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 0);
        assert!(out[0].retransmit);
    }

    #[test]
    fn stale_rto_epoch_is_ignored() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let req = s.take_timer_request().unwrap();
        // An ack re-arms with a new epoch; the old deadline must not fire.
        s.on_ack(ack(5), SimTime::from_millis(10));
        assert!(!s.on_rto_fire(req.epoch, req.deadline));
        assert_eq!(s.timeouts_total(), 0);
    }

    #[test]
    fn rto_backoff_doubles_deadline() {
        let mut s = sender_with_iw(10);
        s.write(100, SimTime::ZERO);
        s.take_outbox();
        let r1 = s.take_timer_request().unwrap();
        assert!(s.on_rto_fire(r1.epoch, r1.deadline));
        let r2 = s.take_timer_request().unwrap();
        assert!(s.on_rto_fire(r2.epoch, r2.deadline));
        let r3 = s.take_timer_request().unwrap();
        let d1 = r2.deadline - r1.deadline;
        let d2 = r3.deadline - r2.deadline;
        assert_eq!(d2, d1 * 2, "backoff doubles: {d1} then {d2}");
    }

    #[test]
    fn peer_rwnd_limits_burst() {
        let cfg = TcpConfig {
            initial_rwnd: 4,
            ..TcpConfig::default()
        };
        let mut s = Tx::new(&cfg, 100);
        s.write(50, SimTime::ZERO);
        assert_eq!(s.take_outbox().len(), 4, "rwnd-bound despite cwnd=100");
        // Receiver opens the window; next ack releases more.
        s.on_ack(
            Ack::plain(crate::ids::ConnId::from_index(0), 4, 64),
            SimTime::from_millis(50),
        );
        assert!(s.take_outbox().len() > 4);
    }

    #[test]
    fn idle_restart_resets_window_when_enabled() {
        let cfg = TcpConfig {
            slow_start_after_idle: true,
            ..TcpConfig::default()
        };
        let mut s = Tx::new(&cfg, 10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ack(10), SimTime::from_millis(100));
        s.take_outbox();
        assert_eq!(s.cwnd_segments(), 20);
        // A long idle gap, then new data: window collapses to initial.
        s.write(10, SimTime::from_secs(30));
        assert_eq!(s.cwnd_segments(), 10);
    }

    #[test]
    fn idle_restart_uses_updated_route_window() {
        // Linux re-reads the route's initcwnd at restart time; a Riptide
        // route update therefore lifts even already-open idle connections.
        let cfg = TcpConfig {
            slow_start_after_idle: true,
            ..TcpConfig::default()
        };
        let mut s = Tx::new(&cfg, 10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ack(10), SimTime::from_millis(100));
        s.take_outbox();
        assert_eq!(s.cwnd_segments(), 20);
        s.set_idle_restart_window(80);
        // Idle long past the RTO, then a new window-filling burst: the
        // restart window of 80 exceeds the current 20, so the cap is a
        // no-op and the full window keeps growing.
        s.write(20, SimTime::from_secs(30));
        assert_eq!(
            s.cwnd_segments(),
            20,
            "restart window above cwnd is a no-op"
        );
        s.take_outbox();
        s.on_ack(ack(30), SimTime::from_secs(31));
        s.take_outbox();
        assert!(s.cwnd_segments() > 20);
        // Now a small restart window does shrink.
        s.set_idle_restart_window(5);
        s.write(10, SimTime::from_secs(60));
        assert_eq!(s.cwnd_segments(), 5);
        assert_eq!(s.idle_restart_window(), 5);
    }

    #[test]
    fn idle_does_not_reset_when_disabled() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ack(10), SimTime::from_millis(100));
        s.take_outbox();
        assert_eq!(s.cwnd_segments(), 20);
        s.write(10, SimTime::from_secs(30));
        assert_eq!(s.cwnd_segments(), 20, "CDN practice: window retained");
    }

    #[test]
    fn rto_during_recovery_takes_precedence() {
        // Fast retransmit enters recovery; if the retransmission itself
        // is lost, the RTO must still rescue the connection.
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        for _ in 0..3 {
            s.on_ack(ack(0), t);
        }
        assert_eq!(s.phase(), SenderPhase::Recovery);
        s.take_outbox();
        let req = s.take_timer_request().expect("recovery re-arms the timer");
        assert!(s.on_rto_fire(req.epoch, req.deadline));
        assert_eq!(s.phase(), SenderPhase::Timeout);
        assert_eq!(s.cwnd_segments(), 1);
        // Everything eventually acked exits cleanly.
        s.take_outbox();
        s.on_ack(ack(10), req.deadline + SimDuration::from_millis(100));
        assert_eq!(s.phase(), SenderPhase::Open);
        assert!(s.all_acked());
    }

    #[test]
    fn consecutive_loss_episodes_keep_shrinking_ssthresh() {
        let mut s = sender_with_iw(100);
        s.write(1000, SimTime::ZERO);
        s.take_outbox();
        let mut now = SimTime::from_millis(100);
        let mut cum = 0u64;
        let mut prev_ssthresh = u32::MAX;
        for _round in 0..3 {
            // Partial progress, then a loss episode.
            cum += 50;
            s.on_ack(ack(cum), now);
            s.take_outbox();
            for _ in 0..3 {
                s.on_ack(ack(cum), now);
            }
            s.take_outbox();
            let ss = s.ssthresh_segments();
            assert!(ss < prev_ssthresh, "ssthresh ratchets down: {ss}");
            prev_ssthresh = ss;
            // Recover fully before the next episode.
            now += SimDuration::from_millis(100);
            cum = s.stream_end().min(cum + 100);
            s.on_ack(ack(cum), now);
            s.take_outbox();
        }
        assert!(prev_ssthresh >= 2, "floor holds");
    }

    #[test]
    fn dupacks_after_recovery_exit_do_not_retrigger() {
        let mut s = sender_with_iw(10);
        s.write(20, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        for _ in 0..3 {
            s.on_ack(ack(0), t);
        }
        let first_frt = s.fast_retransmits_total();
        s.take_outbox();
        // Full ack exits recovery.
        s.on_ack(ack(10), SimTime::from_millis(200));
        s.take_outbox();
        // A second loss episode is a *new* event and may trigger again —
        // but only after three fresh dupacks, not stale state.
        s.on_ack(ack(10), SimTime::from_millis(210));
        s.on_ack(ack(10), SimTime::from_millis(211));
        assert_eq!(
            s.fast_retransmits_total(),
            first_frt,
            "two dupacks insufficient"
        );
        s.on_ack(ack(10), SimTime::from_millis(212));
        assert_eq!(s.fast_retransmits_total(), first_frt + 1);
    }

    #[test]
    fn cwnd_validation_blocks_app_limited_growth() {
        // A tiny transfer on a huge window must not inflate the window.
        let mut s = sender_with_iw(100);
        s.write(5, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ack(5), SimTime::from_millis(80));
        assert_eq!(
            s.cwnd_segments(),
            100,
            "5 in flight of a 100 window is app-limited: no growth"
        );
    }

    #[test]
    fn window_filling_transfer_does_grow() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(ack(10), SimTime::from_millis(80));
        assert!(s.cwnd_segments() > 10, "window-filling flight grows");
    }

    #[test]
    fn write_zero_is_a_noop() {
        let mut s = sender_with_iw(10);
        s.write(0, SimTime::ZERO);
        assert!(s.take_outbox().is_empty());
        assert!(s.all_acked());
    }

    fn sack_sender(iw: u32) -> Tx {
        let cfg = TcpConfig {
            sack: true,
            ..TcpConfig::default()
        };
        Tx::new(&cfg, iw)
    }

    fn sack_ack(cum: SegIndex, ranges: &[(SegIndex, SegIndex)]) -> Ack {
        let mut blocks = Box::<SackBlocks>::default();
        for &(s, e) in ranges {
            blocks.push(s, e);
        }
        Ack {
            sack: Some(blocks),
            ..ack(cum)
        }
    }

    #[test]
    fn sack_fills_multiple_holes_in_one_episode() {
        // Segments 0 and 5 both lost out of a 10-segment flight. NewReno
        // needs a partial-ack round trip per hole; SACK retransmits both
        // as soon as the scoreboard shows them.
        let mut s = sack_sender(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        // Receiver got 1..=4 and 6..=9: dup-acks at cum 0 with SACK info.
        s.on_ack(sack_ack(0, &[(1, 5)]), t);
        s.on_ack(sack_ack(0, &[(1, 5), (6, 8)]), t);
        s.on_ack(sack_ack(0, &[(1, 5), (6, 10)]), t);
        assert_eq!(s.phase(), SenderPhase::Recovery);
        let out = s.take_outbox();
        let retx: Vec<SegIndex> = out.iter().filter(|o| o.retransmit).map(|o| o.seq).collect();
        assert!(retx.contains(&0), "first hole retransmitted: {retx:?}");
        assert!(retx.contains(&5), "second hole retransmitted too: {retx:?}");
        assert_eq!(s.sacked_count(), 8);
        assert_eq!(s.pipe(), 2, "only the two retransmits count as in flight");
        // Both land: full ack exits recovery cleanly.
        s.on_ack(ack(10), SimTime::from_millis(200));
        assert!(s.all_acked());
        assert_eq!(s.phase(), SenderPhase::Open);
        assert_eq!(s.sacked_count(), 0, "scoreboard drained by cum ack");
    }

    #[test]
    fn sack_does_not_retransmit_the_same_hole_twice() {
        let mut s = sack_sender(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        for i in 0..4 {
            s.on_ack(sack_ack(0, &[(1, 5 + i)]), t);
        }
        let out = s.take_outbox();
        let retx0 = out.iter().filter(|o| o.retransmit && o.seq == 0).count();
        assert_eq!(retx0, 1, "hole 0 retransmitted exactly once per episode");
    }

    #[test]
    fn newreno_needs_partial_acks_where_sack_does_not() {
        // The comparison motivating SACK: same double-loss pattern.
        let mut s = sender_with_iw(10); // sack off
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        let t = SimTime::from_millis(100);
        for _ in 0..3 {
            s.on_ack(ack(0), t);
        }
        let out = s.take_outbox();
        let retx: Vec<SegIndex> = out.iter().filter(|o| o.retransmit).map(|o| o.seq).collect();
        assert_eq!(retx, vec![0], "NewReno only knows about the first hole");
        // Only after the partial ack does it learn about segment 5.
        s.on_ack(ack(5), SimTime::from_millis(200));
        let out = s.take_outbox();
        assert!(out.iter().any(|o| o.retransmit && o.seq == 5));
    }

    #[test]
    fn sack_rto_clears_scoreboard() {
        let mut s = sack_sender(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(sack_ack(0, &[(1, 9)]), SimTime::from_millis(50));
        assert!(s.sacked_count() > 0);
        let req = s.take_timer_request().unwrap();
        assert!(s.on_rto_fire(req.epoch, req.deadline));
        assert_eq!(s.sacked_count(), 0, "reneging safety: scoreboard dropped");
    }

    #[test]
    fn sack_ignored_when_disabled() {
        let mut s = sender_with_iw(10);
        s.write(10, SimTime::ZERO);
        s.take_outbox();
        s.on_ack(sack_ack(0, &[(1, 9)]), SimTime::from_millis(50));
        assert_eq!(s.sacked_count(), 0, "scoreboard untouched without the flag");
        assert_eq!(s.pipe(), s.in_flight());
    }

    #[test]
    fn karn_no_rtt_sample_from_retransmit() {
        let mut s = sender_with_iw(10);
        s.write(1, SimTime::ZERO);
        s.take_outbox();
        let req = s.take_timer_request().unwrap();
        s.on_rto_fire(req.epoch, req.deadline);
        s.take_outbox();
        // The eventual ack of a retransmitted segment must not poison SRTT.
        s.on_ack(ack(1), req.deadline + SimDuration::from_millis(5));
        assert_eq!(s.srtt(), None);
    }
}
