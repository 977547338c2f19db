//! Unidirectional network paths with netem-style impairments.
//!
//! A [`Path`] models everything between two PoPs in one direction: a
//! serialization rate, a finite queue under a configurable AQM
//! ([`AqmPolicy`]: drop-tail or RED with optional ECN marking), fixed
//! propagation delay, optional uniform jitter, and random packet loss.
//! These are exactly the knobs a `tc netem` + `tbf` (or `red`) testbed
//! exposes, which is what a hardware reproduction of the paper would use.
//!
//! Delivery is FIFO: jitter never reorders packets (arrival times are
//! clamped to be non-decreasing), matching netem without its `reorder`
//! option.
//!
//! Queue occupancy is tracked as an **integer byte counter** decremented
//! as packets depart the transmitter, with the serialized portion of the
//! in-flight head packet credited in integer arithmetic — no
//! floating-point reconstruction, so admission decisions at the
//! `queue_bytes` boundary are exact at any rate.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Builder-side rejections: how many times a [`PathConfig`] builder was
/// handed an out-of-range value and clamped it (see
/// [`PathConfig::rejected_configs`]).
static CONFIG_REJECTIONS: AtomicU64 = AtomicU64::new(0);

fn count_rejection() {
    CONFIG_REJECTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Active queue management policy for a path's transmit queue.
///
/// `DropTail` is the classic bounded FIFO (and the digest-pinned
/// default). `Red` implements the EWMA-average-queue RED of Floyd &
/// Jacobson as analysed by the mean-field RED literature: on each
/// arrival the average queue length is updated as
/// `avg ← (1 − w_q)·avg + w_q·q`, and the packet is dropped (or
/// ECN-marked) with probability `max_p·(avg − min_th)/(max_th − min_th)`
/// between the thresholds, always above `max_th`, never below `min_th`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AqmPolicy {
    /// Bounded FIFO: packets are dropped only when the queue is full.
    #[default]
    DropTail,
    /// Random Early Detection over the EWMA queue length, in bytes.
    Red {
        /// Average-queue threshold below which nothing is dropped.
        min_th: u64,
        /// Average-queue threshold above which everything is dropped.
        max_th: u64,
        /// Drop/mark probability as the average reaches `max_th`.
        max_p: f64,
        /// EWMA weight on the instantaneous queue sample, in `(0, 1]`.
        w_q: f64,
        /// Mark ECN-capable packets instead of dropping them (RFC 3168
        /// style). Packets from non-ECN transports are still dropped.
        ecn: bool,
    },
}

impl AqmPolicy {
    /// A RED profile sized for a queue of `queue_bytes`: thresholds at
    /// 25% / 75% of capacity, `max_p` 0.1, the literature's `w_q` 0.002.
    pub fn red_for_queue(queue_bytes: u64, ecn: bool) -> Self {
        AqmPolicy::Red {
            min_th: queue_bytes / 4,
            max_th: queue_bytes * 3 / 4,
            max_p: 0.1,
            w_q: 0.002,
            ecn,
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AqmPolicy::DropTail => Ok(()),
            AqmPolicy::Red {
                min_th,
                max_th,
                max_p,
                w_q,
                ..
            } => {
                if min_th >= max_th {
                    return Err(format!(
                        "RED needs min_th < max_th, got {min_th} >= {max_th}"
                    ));
                }
                if !(0.0..=1.0).contains(&max_p) || max_p.is_nan() {
                    return Err(format!("RED max_p must be in [0, 1], got {max_p}"));
                }
                if !(w_q > 0.0 && w_q <= 1.0) {
                    return Err(format!("RED w_q must be in (0, 1], got {w_q}"));
                }
                Ok(())
            }
        }
    }
}

/// Static configuration of a unidirectional path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathConfig {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Maximum extra uniform delay added per packet.
    pub jitter: SimDuration,
    /// Independent per-packet drop probability in `[0, 1]`.
    pub loss: f64,
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// Queue capacity in bytes (backlog beyond what has already been
    /// serialized).
    pub queue_bytes: u64,
    /// Active queue management discipline in front of the queue.
    pub aqm: AqmPolicy,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            delay: SimDuration::from_millis(25),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            rate_bps: 1_000_000_000, // 1 Gbit/s
            queue_bytes: 512 * 1024,
            aqm: AqmPolicy::DropTail,
        }
    }
}

impl PathConfig {
    /// A path with the given one-way delay and defaults elsewhere.
    pub fn with_delay(delay: SimDuration) -> Self {
        PathConfig {
            delay,
            ..PathConfig::default()
        }
    }

    /// Sets the random loss probability (builder-style). An out-of-range
    /// or NaN value is clamped into `[0, 1]` and counted as a rejected
    /// configuration ([`PathConfig::rejected_configs`]) instead of being
    /// accepted silently.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = if p.is_nan() {
            count_rejection();
            0.0
        } else if !(0.0..=1.0).contains(&p) {
            count_rejection();
            p.clamp(0.0, 1.0)
        } else {
            p
        };
        self
    }

    /// Sets the serialization rate (builder-style). A zero rate would
    /// make every serialization time infinite (and the old code divide
    /// by zero), so it is clamped to 1 bit/s and counted as a rejected
    /// configuration.
    pub fn rate_bps(mut self, bps: u64) -> Self {
        self.rate_bps = if bps == 0 {
            count_rejection();
            1
        } else {
            bps
        };
        self
    }

    /// Sets the queue capacity (builder-style).
    pub fn queue_bytes(mut self, bytes: u64) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Sets the jitter bound (builder-style).
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the queue discipline (builder-style). Invalid RED parameters
    /// are rejected back to drop-tail with a counted rejection.
    pub fn aqm(mut self, aqm: AqmPolicy) -> Self {
        self.aqm = if aqm.validate().is_ok() {
            aqm
        } else {
            count_rejection();
            AqmPolicy::DropTail
        };
        self
    }

    /// How many times a builder rejected (and clamped) an out-of-range
    /// value process-wide — the observability hook for configuration
    /// bugs that previously passed through silently.
    pub fn rejected_configs() -> u64 {
        CONFIG_REJECTIONS.load(Ordering::Relaxed)
    }

    /// Time to serialize `bytes` at this path's rate.
    pub fn serialization_time(&self, bytes: u32) -> SimDuration {
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.rate_bps.max(1) as u128;
        SimDuration::from_nanos(ns as u64)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if loss is outside `[0, 1]`,
    /// the rate is zero, or the AQM parameters are out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss must be in [0, 1], got {}", self.loss));
        }
        if self.rate_bps == 0 {
            return Err("rate_bps must be positive".into());
        }
        self.aqm.validate()
    }
}

/// Why a packet was lost on a path. [`PathStats::drop_rate`] is
/// exhaustive over this enum — adding a cause without extending the
/// stats breaks compilation, not the accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Independent random loss (the netem `loss` knob).
    Random,
    /// Drop-tail queue overflow.
    Overflow,
    /// Early drop by the AQM (RED).
    Aqm,
}

impl LossCause {
    /// Every loss cause, in stats order.
    pub const ALL: [LossCause; 3] = [LossCause::Random, LossCause::Overflow, LossCause::Aqm];
}

/// The verdict for a packet offered to a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The packet will be delivered at the given instant.
    Deliver {
        /// Arrival time at the far end.
        arrival: SimTime,
        /// Whether the AQM set the ECN Congestion Experienced mark.
        ecn: bool,
    },
    /// Dropped by random loss.
    LostRandom,
    /// Dropped because the queue was full.
    LostOverflow,
    /// Dropped early by the AQM.
    LostAqm,
}

/// Counters a path accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Packets offered to the path.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped by random loss.
    pub lost_random: u64,
    /// Packets dropped by queue overflow.
    pub lost_overflow: u64,
    /// Packets dropped early by the AQM.
    pub lost_aqm: u64,
    /// Packets delivered with an ECN Congestion Experienced mark.
    pub marked_ecn: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

impl PathStats {
    /// Packets lost to one cause.
    pub fn lost(&self, cause: LossCause) -> u64 {
        match cause {
            LossCause::Random => self.lost_random,
            LossCause::Overflow => self.lost_overflow,
            LossCause::Aqm => self.lost_aqm,
        }
    }

    /// Total packets lost, summed over every [`LossCause`].
    pub fn lost_total(&self) -> u64 {
        LossCause::ALL.iter().map(|&c| self.lost(c)).sum()
    }

    /// Overall drop fraction, or 0 if nothing was offered. Exhaustive
    /// over [`LossCause`]: a future loss category is included the moment
    /// it exists.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.lost_total() as f64 / self.offered as f64
        }
    }

    /// ECN mark fraction of offered packets, or 0 if nothing was
    /// offered. Marks are congestion signals, not losses — they never
    /// count toward [`PathStats::drop_rate`].
    pub fn mark_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.marked_ecn as f64 / self.offered as f64
        }
    }
}

/// One packet in (or entering) the transmitter: used to decrement the
/// queue byte counter when the packet departs.
#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    /// When serialization of this packet starts.
    start: SimTime,
    /// When it finishes (departure from the queue).
    departure: SimTime,
    /// Wire bytes.
    bytes: u32,
}

/// Runtime state of a unidirectional path.
#[derive(Debug, Clone)]
pub struct Path {
    config: PathConfig,
    rng: DetRng,
    /// When the transmitter finishes serializing the last admitted packet.
    busy_until: SimTime,
    /// Arrival time of the most recently admitted packet (FIFO clamp).
    last_arrival: SimTime,
    /// Memoized `(wire_bytes, serialization_time(wire_bytes))` for the
    /// common case of one fixed segment size per run — the value is
    /// exactly what [`PathConfig::serialization_time`] returns, just
    /// without redoing the wide division per packet.
    ser_memo: (u32, SimDuration),
    /// Packets admitted but not yet fully serialized, in departure order.
    queue: std::collections::VecDeque<QueuedPacket>,
    /// Sum of `bytes` over `queue` — the integer backlog counter,
    /// decremented as departures are drained.
    queued_bytes: u64,
    /// RED average queue length in bytes (EWMA of the instantaneous
    /// queue at each arrival). Unused (and never updated) for drop-tail.
    avg_queue: f64,
    stats: PathStats,
}

impl Path {
    /// Creates a path with its own random stream.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PathConfig::validate`].
    pub fn new(config: PathConfig, rng: DetRng) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid path config: {e}");
        }
        Path {
            config,
            rng,
            busy_until: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            ser_memo: (0, SimDuration::ZERO),
            queue: std::collections::VecDeque::new(),
            queued_bytes: 0,
            avg_queue: 0.0,
            stats: PathStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &PathConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> PathStats {
        self.stats
    }

    /// Replaces the impairment configuration mid-run (e.g. to congest a
    /// link for a scenario). Queue backlog and counters carry over.
    pub fn reconfigure(&mut self, config: PathConfig) {
        assert!(config.validate().is_ok(), "invalid path config");
        self.config = config;
        self.ser_memo = (0, SimDuration::ZERO);
    }

    /// Current queueing backlog, expressed as time until the transmitter
    /// would go idle.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Drops every packet that has finished serializing by `now` from
    /// the byte counter — the "decrement on departure" half of the
    /// integer accounting.
    fn drain_departures(&mut self, now: SimTime) {
        while let Some(front) = self.queue.front() {
            if front.departure > now {
                break;
            }
            self.queued_bytes -= front.bytes as u64;
            self.queue.pop_front();
        }
    }

    /// Bytes of the head packet already on the wire at `now`, in exact
    /// integer arithmetic (round-half-down, matching the rational value
    /// the old floating-point reconstruction approximated).
    fn head_serialized_bytes(&self, now: SimTime) -> u64 {
        let Some(head) = self.queue.front() else {
            return 0;
        };
        let elapsed = now.saturating_since(head.start).as_nanos();
        serialized_bytes(elapsed, self.config.rate_bps, head.bytes)
    }

    /// Current queue occupancy in bytes: whole queued packets minus the
    /// serialized portion of the in-flight head. Never computed through
    /// floating point.
    fn backlog_bytes(&self, now: SimTime) -> u64 {
        self.queued_bytes - self.head_serialized_bytes(now)
    }

    /// Offers a queue-occupying packet of `wire_bytes` to the path at
    /// `now`, returning whether and when it arrives. `ect` says whether
    /// the transport is ECN-capable: a RED AQM in marking mode marks
    /// such packets instead of dropping them.
    pub fn admit_ect(&mut self, now: SimTime, wire_bytes: u32, ect: bool) -> Admission {
        self.stats.offered += 1;
        self.drain_departures(now);
        let backlog_bytes = self.backlog_bytes(now);

        // AQM verdict first (RED sits in front of the queue), then the
        // physical drop-tail bound, then random wire loss — so drop-tail
        // paths draw exactly the randomness they always did.
        let mut mark = false;
        if let AqmPolicy::Red {
            min_th,
            max_th,
            max_p,
            w_q,
            ecn,
        } = self.config.aqm
        {
            self.avg_queue = (1.0 - w_q) * self.avg_queue + w_q * backlog_bytes as f64;
            let congested = if self.avg_queue >= max_th as f64 {
                true
            } else if self.avg_queue >= min_th as f64 {
                let p = max_p * (self.avg_queue - min_th as f64) / (max_th - min_th) as f64;
                self.rng.chance(p)
            } else {
                false
            };
            if congested {
                if ecn && ect {
                    mark = true;
                } else {
                    self.stats.lost_aqm += 1;
                    return Admission::LostAqm;
                }
            }
        }
        if backlog_bytes + wire_bytes as u64 > self.config.queue_bytes {
            self.stats.lost_overflow += 1;
            return Admission::LostOverflow;
        }
        if self.rng.chance(self.config.loss) {
            self.stats.lost_random += 1;
            return Admission::LostRandom;
        }
        let start = self.busy_until.max(now);
        if self.ser_memo.0 != wire_bytes {
            self.ser_memo = (wire_bytes, self.config.serialization_time(wire_bytes));
        }
        let departure = start + self.ser_memo.1;
        self.busy_until = departure;
        self.queue.push_back(QueuedPacket {
            start,
            departure,
            bytes: wire_bytes,
        });
        self.queued_bytes += wire_bytes as u64;
        let mut arrival = departure + self.config.delay + self.rng.jitter(self.config.jitter);
        // FIFO: never deliver before a previously admitted packet.
        if arrival < self.last_arrival {
            arrival = self.last_arrival;
        }
        self.last_arrival = arrival;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += wire_bytes as u64;
        if mark {
            self.stats.marked_ecn += 1;
        }
        Admission::Deliver { arrival, ecn: mark }
    }

    /// [`Path::admit_ect`] for a non-ECN transport.
    pub fn admit(&mut self, now: SimTime, wire_bytes: u32) -> Admission {
        self.admit_ect(now, wire_bytes, false)
    }

    /// Offers a control packet (SYN/ACK-sized) that experiences delay and
    /// random loss but never queues. Returns its arrival time, or `None`
    /// if lost.
    pub fn admit_control(&mut self, now: SimTime, lossy: bool) -> Option<SimTime> {
        if lossy && self.rng.chance(self.config.loss) {
            return None;
        }
        let mut arrival = now + self.config.delay + self.rng.jitter(self.config.jitter);
        if arrival < self.last_arrival {
            arrival = self.last_arrival;
        }
        self.last_arrival = arrival;
        Some(arrival)
    }
}

/// Bytes of a `bytes`-long packet serialized `elapsed` ns into its
/// transmission at `rate_bps`: `elapsed × rate / 8e9` rounded half down,
/// capped at the packet. A head departs before `elapsed` reaches its
/// serialization time, so for packet-sized heads the product fits a
/// `u64` (1 500 B is 1.2e13 bit·ns); the `u128` path only serves a
/// product that would overflow.
fn serialized_bytes(elapsed: u64, rate_bps: u64, bytes: u32) -> u64 {
    const HALF: u64 = 4_000_000_000;
    const ONE: u64 = 8_000_000_000;
    let whole = match elapsed
        .checked_mul(rate_bps)
        .and_then(|bits_ns| bits_ns.checked_add(HALF - 1))
    {
        Some(num) => num / ONE,
        None => ((elapsed as u128 * rate_bps as u128 + (HALF - 1) as u128) / ONE as u128) as u64,
    };
    whole.min(bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(config: PathConfig) -> Path {
        Path::new(config, DetRng::from_seed(99))
    }

    #[test]
    fn lossless_path_delivers_after_delay_and_serialization() {
        let cfg = PathConfig {
            delay: SimDuration::from_millis(10),
            rate_bps: 8_000_000, // 1 byte/us
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        match p.admit(SimTime::ZERO, 1000) {
            Admission::Deliver { arrival, ecn } => {
                // 1000 bytes at 1 byte/us = 1 ms serialization + 10 ms delay.
                assert_eq!(arrival, SimTime::from_millis(11));
                assert!(!ecn, "drop-tail never marks");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn serialization_serializes_back_to_back() {
        let cfg = PathConfig {
            delay: SimDuration::ZERO,
            rate_bps: 8_000_000,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let a1 = p.admit(SimTime::ZERO, 1000);
        let a2 = p.admit(SimTime::ZERO, 1000);
        let (t1, t2) = match (a1, a2) {
            (Admission::Deliver { arrival: t1, .. }, Admission::Deliver { arrival: t2, .. }) => {
                (t1, t2)
            }
            other => panic!("expected deliveries, got {other:?}"),
        };
        assert_eq!(t2 - t1, SimDuration::from_millis(1));
    }

    #[test]
    fn queue_overflows_drop_tail() {
        let cfg = PathConfig {
            delay: SimDuration::ZERO,
            rate_bps: 8_000, // 1 byte/ms: glacial
            queue_bytes: 3000,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let mut delivered = 0;
        let mut overflowed = 0;
        for _ in 0..10 {
            match p.admit(SimTime::ZERO, 1000) {
                Admission::Deliver { .. } => delivered += 1,
                Admission::LostOverflow => overflowed += 1,
                other => panic!("unexpected admission {other:?}"),
            }
        }
        assert!(delivered >= 3, "capacity admits at least queue/packet");
        assert!(overflowed >= 6, "the rest overflow");
        assert_eq!(p.stats().lost_overflow, overflowed as u64);
    }

    #[test]
    fn queue_drains_over_time() {
        let cfg = PathConfig {
            delay: SimDuration::ZERO,
            rate_bps: 8_000_000,
            queue_bytes: 2000,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        for _ in 0..2 {
            assert!(matches!(
                p.admit(SimTime::ZERO, 1000),
                Admission::Deliver { .. }
            ));
        }
        assert!(matches!(
            p.admit(SimTime::ZERO, 1000),
            Admission::LostOverflow
        ));
        // After the backlog serializes, admission succeeds again.
        let later = SimTime::from_millis(5);
        assert!(matches!(p.admit(later, 1000), Admission::Deliver { .. }));
    }

    #[test]
    fn boundary_admission_is_byte_exact() {
        // Regression test for the f64 backlog reconstruction. At
        // 4 Gbit/s a byte serializes in 2 ns, so an odd number of
        // remaining nanoseconds corresponds to exactly k + 0.5 bytes —
        // the tie the old `(secs_f64 * rate / 8).round()` path computed
        // through two inexact floating-point roundings. The integer
        // accounting admits a packet that fits to the byte.
        let cfg = PathConfig {
            delay: SimDuration::ZERO,
            rate_bps: 4_000_000_000,
            queue_bytes: 2000,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        // 1000 bytes serialize in 2000 ns.
        assert!(matches!(
            p.admit(SimTime::ZERO, 1000),
            Admission::Deliver { .. }
        ));
        // 1 ns in: 0.5 bytes are gone (rounds half-down to 0 credited),
        // so the backlog is still 1000 bytes and a second 1000-byte
        // packet fits the 2000-byte queue exactly — `1000 + 1000 >
        // 2000` is false in integers, no rounding noise involved.
        let now = SimTime::ZERO + SimDuration::from_nanos(1);
        assert!(
            matches!(p.admit(now, 1000), Admission::Deliver { .. }),
            "packet fitting the queue to the byte must be admitted"
        );
        // A third is over capacity by exactly one byte's worth and must
        // be dropped, not admitted by a rounding wobble.
        let now = SimTime::ZERO + SimDuration::from_nanos(2);
        assert!(matches!(p.admit(now, 1000), Admission::LostOverflow));
    }

    #[test]
    fn integer_backlog_matches_old_float_where_it_was_right() {
        // At the testbed rate (500 Mbit/s, 16 ns/byte) the old f64
        // reconstruction was almost always exact; the integer counter
        // must agree with it decision-for-decision (this is what keeps
        // the golden digests byte-identical).
        let cfg = PathConfig {
            delay: SimDuration::from_millis(1),
            rate_bps: 500_000_000,
            queue_bytes: 6000,
            ..PathConfig::default()
        };
        let mut int_path = path(cfg.clone());
        let float_bytes = |p: &Path, now: SimTime| -> u64 {
            let backlog = p.backlog(now);
            (backlog.as_secs_f64() * cfg.rate_bps as f64 / 8.0).round() as u64
        };
        let mut now = SimTime::ZERO;
        for i in 0..5_000u64 {
            now += SimDuration::from_nanos(3 + (i * 7919) % 40_000);
            let old = float_bytes(&int_path, now);
            int_path.drain_departures(now);
            let new = int_path.backlog_bytes(now);
            assert!(
                old.abs_diff(new) <= 1,
                "counter {new} vs float {old} at {now:?}"
            );
            int_path.admit(now, 1500);
        }
    }

    #[test]
    fn conservation_offered_equals_delivered_plus_lost() {
        let cfg = PathConfig {
            delay: SimDuration::from_millis(2),
            rate_bps: 8_000_000,
            queue_bytes: 4000,
            loss: 0.1,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let mut now = SimTime::ZERO;
        for i in 0..10_000u64 {
            now += SimDuration::from_micros(i % 300);
            p.admit(now, 1000);
        }
        let s = p.stats();
        assert_eq!(s.offered, s.delivered + s.lost_total(), "{s:?}");
    }

    #[test]
    fn random_loss_rate_is_respected() {
        let cfg = PathConfig {
            loss: 0.2,
            rate_bps: 1_000_000_000_000, // effectively instant
            queue_bytes: u64::MAX,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let mut lost = 0;
        let n = 20_000;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now += SimDuration::from_micros(10);
            if matches!(p.admit(now, 1500), Admission::LostRandom) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate} far from 0.2");
    }

    #[test]
    fn jitter_never_reorders() {
        let cfg = PathConfig {
            delay: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(5),
            rate_bps: 1_000_000_000,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let mut last = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            now += SimDuration::from_micros(50);
            if let Admission::Deliver { arrival, .. } = p.admit(now, 1500) {
                assert!(arrival >= last, "FIFO violated");
                last = arrival;
            }
        }
    }

    #[test]
    fn control_packets_skip_the_queue() {
        let cfg = PathConfig {
            delay: SimDuration::from_millis(50),
            rate_bps: 8_000, // 1 byte/ms — queue would be hopeless
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let arrival = p.admit_control(SimTime::ZERO, false).unwrap();
        assert_eq!(arrival, SimTime::from_millis(50));
    }

    #[test]
    fn stats_drop_rate_is_exhaustive_over_loss_causes() {
        let mut s = PathStats::default();
        assert_eq!(s.drop_rate(), 0.0);
        s.offered = 20;
        s.lost_random = 1;
        s.lost_overflow = 1;
        s.lost_aqm = 2;
        // Lockstep check: an exhaustive match over LossCause must agree
        // with lost_total(). A new enum variant fails to compile here
        // until both the stats field and this sum are extended.
        let by_match: u64 = LossCause::ALL
            .iter()
            .map(|&c| match c {
                LossCause::Random => s.lost_random,
                LossCause::Overflow => s.lost_overflow,
                LossCause::Aqm => s.lost_aqm,
            })
            .sum();
        assert_eq!(by_match, s.lost_total());
        assert!((s.drop_rate() - 0.2).abs() < 1e-12);
        s.marked_ecn = 5;
        assert!((s.mark_rate() - 0.25).abs() < 1e-12);
        assert!(
            (s.drop_rate() - 0.2).abs() < 1e-12,
            "ECN marks are not drops"
        );
    }

    #[test]
    #[should_panic(expected = "invalid path config")]
    fn invalid_loss_panics() {
        // Hand-built (non-builder) configs still hard-fail at Path::new.
        let cfg = PathConfig {
            loss: 1.5,
            ..PathConfig::default()
        };
        let _ = path(cfg);
    }

    #[test]
    fn builder_clamps_out_of_range_loss_with_counted_rejection() {
        // Pre-fix this produced an invalid config silently (loss 1.5
        // stored verbatim, only caught — if ever — at Path::new).
        let before = PathConfig::rejected_configs();
        let cfg = PathConfig::default().loss(1.5);
        assert_eq!(cfg.loss, 1.0, "clamped into [0, 1]");
        let cfg = cfg.loss(-0.25);
        assert_eq!(cfg.loss, 0.0);
        let cfg = cfg.loss(f64::NAN);
        assert_eq!(cfg.loss, 0.0);
        assert!(cfg.validate().is_ok(), "builder output is always valid");
        assert!(
            PathConfig::rejected_configs() >= before + 3,
            "each clamp was counted"
        );
        // In-range values pass through uncounted.
        let calm = PathConfig::rejected_configs();
        let cfg = PathConfig::default().loss(0.3);
        assert_eq!(cfg.loss, 0.3);
        assert_eq!(PathConfig::rejected_configs(), calm);
    }

    #[test]
    fn builder_clamps_zero_rate_with_counted_rejection() {
        // Pre-fix `rate_bps = 0` flowed into `serialization_time`'s
        // division — infinite serialization at best, a divide-by-zero
        // panic in the integer path at worst.
        let before = PathConfig::rejected_configs();
        let cfg = PathConfig::default().rate_bps(0);
        assert_eq!(cfg.rate_bps, 1, "clamped to the minimum rate");
        assert!(cfg.validate().is_ok());
        assert!(PathConfig::rejected_configs() > before);
        // The defensive max(1) also keeps a hand-built zero-rate config
        // from dividing by zero before validation can reject it.
        let raw = PathConfig {
            rate_bps: 0,
            ..PathConfig::default()
        };
        assert!(raw.validate().is_err());
        let _ = raw.serialization_time(1500); // must not panic
    }

    #[test]
    fn red_drops_early_and_counts_aqm_losses() {
        let cfg = PathConfig {
            delay: SimDuration::ZERO,
            rate_bps: 8_000_000, // 1 byte/us
            queue_bytes: 64_000,
            aqm: AqmPolicy::Red {
                min_th: 2_000,
                max_th: 16_000,
                max_p: 0.2,
                w_q: 0.2,
                ecn: false,
            },
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let mut aqm_drops = 0;
        let mut overflow = 0;
        let mut now = SimTime::ZERO;
        // Offer far above the drain rate: the average climbs through the
        // RED band and early drops begin well before physical overflow.
        for _ in 0..4_000 {
            now += SimDuration::from_micros(100); // drain 100 B/packet slot
            match p.admit(now, 1000) {
                Admission::LostAqm => aqm_drops += 1,
                Admission::LostOverflow => overflow += 1,
                _ => {}
            }
        }
        assert!(aqm_drops > 0, "RED dropped early: {:?}", p.stats());
        assert_eq!(p.stats().lost_aqm, aqm_drops);
        assert!(
            p.stats().lost_aqm >= overflow,
            "early drops dominate tail drops under RED: {:?}",
            p.stats()
        );
        let s = p.stats();
        assert_eq!(s.offered, s.delivered + s.lost_total());
    }

    #[test]
    fn red_marks_ect_packets_instead_of_dropping() {
        let aqm = AqmPolicy::Red {
            min_th: 2_000,
            max_th: 16_000,
            max_p: 0.2,
            w_q: 0.2,
            ecn: true,
        };
        let cfg = PathConfig {
            delay: SimDuration::ZERO,
            rate_bps: 8_000_000,
            queue_bytes: 64_000,
            aqm,
            ..PathConfig::default()
        };
        let mut p = path(cfg.clone());
        let mut marks = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..4_000 {
            now += SimDuration::from_micros(100);
            if let Admission::Deliver { ecn: true, .. } = p.admit_ect(now, 1000, true) {
                marks += 1;
            }
        }
        assert!(marks > 0, "ECT packets are marked: {:?}", p.stats());
        assert_eq!(p.stats().marked_ecn, marks);
        assert_eq!(p.stats().lost_aqm, 0, "marking replaced dropping");
        // A non-ECT transport through the same marking AQM is dropped.
        let mut p = path(cfg);
        let mut now = SimTime::ZERO;
        let mut drops = 0;
        for _ in 0..4_000 {
            now += SimDuration::from_micros(100);
            if matches!(p.admit_ect(now, 1000, false), Admission::LostAqm) {
                drops += 1;
            }
        }
        assert!(drops > 0, "non-ECT packets still drop: {:?}", p.stats());
        assert_eq!(p.stats().marked_ecn, 0);
    }

    #[test]
    fn red_below_min_threshold_is_transparent() {
        // A trickle that keeps the average under min_th must behave
        // exactly like drop-tail: no drops, no marks, no extra draws.
        let aqm = AqmPolicy::Red {
            min_th: 50_000,
            max_th: 100_000,
            max_p: 0.1,
            w_q: 0.02,
            ecn: false,
        };
        let cfg = PathConfig {
            delay: SimDuration::from_millis(5),
            rate_bps: 8_000_000,
            queue_bytes: 200_000,
            aqm,
            ..PathConfig::default()
        };
        let mut p = path(cfg);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(2);
            assert!(matches!(p.admit(now, 1000), Admission::Deliver { .. }));
        }
        let s = p.stats();
        assert_eq!(s.lost_total(), 0);
        assert_eq!(s.marked_ecn, 0);
    }

    #[test]
    fn aqm_validation_rejects_bad_parameters() {
        assert!(AqmPolicy::DropTail.validate().is_ok());
        assert!(AqmPolicy::red_for_queue(384 * 1024, true)
            .validate()
            .is_ok());
        let bad = [
            AqmPolicy::Red {
                min_th: 10,
                max_th: 10,
                max_p: 0.1,
                w_q: 0.1,
                ecn: false,
            },
            AqmPolicy::Red {
                min_th: 1,
                max_th: 10,
                max_p: 1.5,
                w_q: 0.1,
                ecn: false,
            },
            AqmPolicy::Red {
                min_th: 1,
                max_th: 10,
                max_p: 0.1,
                w_q: 0.0,
                ecn: false,
            },
        ];
        for aqm in bad {
            assert!(aqm.validate().is_err(), "{aqm:?}");
            // The builder rejects it back to drop-tail, counted.
            let before = PathConfig::rejected_configs();
            let cfg = PathConfig::default().aqm(aqm);
            assert_eq!(cfg.aqm, AqmPolicy::DropTail);
            assert!(PathConfig::rejected_configs() > before);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        // FIFO survives the whole impairment cross-product: for any
        // jitter magnitude, RED threshold band, marking mode, ECT
        // capability and traffic cadence, delivered arrival times
        // never go backwards, marks appear only when a marking AQM
        // meets an ECN-capable packet, and the packet-conservation
        // ledger still balances.
        proptest! {
            #[test]
            fn fifo_holds_under_jitter_red_and_ecn(
                seed in any::<u64>(),
                jitter_us in 0u64..8_000,
                marking in any::<bool>(),
                ect in any::<bool>(),
                queue_kib in 4u64..64,
                gap_us in 1u64..400,
            ) {
                let queue_bytes = queue_kib * 1024;
                let cfg = PathConfig {
                    delay: SimDuration::from_millis(5),
                    jitter: SimDuration::from_micros(jitter_us),
                    rate_bps: 100_000_000,
                    queue_bytes,
                    aqm: AqmPolicy::red_for_queue(queue_bytes, marking),
                    ..PathConfig::default()
                };
                let mut p = Path::new(cfg, DetRng::from_seed(seed));
                let mut last = SimTime::ZERO;
                let mut now = SimTime::ZERO;
                let mut marks = 0u64;
                for _ in 0..400 {
                    now += SimDuration::from_micros(gap_us);
                    if let Admission::Deliver { arrival, ecn } = p.admit_ect(now, 1500, ect) {
                        prop_assert!(
                            arrival >= last,
                            "FIFO violated: {arrival:?} after {last:?} \
                             (jitter {jitter_us}us, queue {queue_kib}KiB)"
                        );
                        last = arrival;
                        if ecn {
                            marks += 1;
                        }
                    }
                }
                if !(marking && ect) {
                    prop_assert_eq!(marks, 0, "marks without marking AQM + ECT");
                }
                let s = p.stats();
                prop_assert_eq!(s.marked_ecn, marks);
                prop_assert_eq!(s.offered, s.delivered + s.lost_total());
            }

            // The 64-bit path of the backlog arithmetic equals the
            // 128-bit formula everywhere: at packet-sized products, at
            // products that overflow a `u64`, and on both sides of every
            // rounding tie. A tie needs `elapsed × rate ≡ 4e9 (mod 8e9)`:
            // with `rate = 4e9 / m` for a divisor `m = 2^i·5^j` of 4e9,
            // that is `elapsed = m·(2k + 1)`.
            #[test]
            fn serialized_bytes_match_the_u128_formula(
                twos in 0u32..12,
                fives in 0u32..10,
                k in 0u64..2_000_000,
                nudge in 0u64..3,
                elapsed in any::<u64>(),
                rate_bps in any::<u64>(),
                bytes in any::<u32>(),
                shift in 0u32..64,
            ) {
                let reference = |elapsed: u64, rate: u64, bytes: u32| {
                    let num = elapsed as u128 * rate as u128 + (4_000_000_000 - 1);
                    ((num / 8_000_000_000) as u64).min(bytes as u64)
                };
                let m = 2u64.pow(twos) * 5u64.pow(fives);
                let tie = (m * (2 * k + 1), 4_000_000_000 / m);
                let cases = [
                    (tie.0 + nudge - 1, tie.1),
                    (tie.0 + nudge - 1, tie.1 + 1),
                    (elapsed >> shift, rate_bps >> (63 - shift)),
                    (elapsed, rate_bps),
                    (elapsed >> shift, 100_000_000),
                ];
                for (elapsed, rate) in cases {
                    for cap in [bytes, u32::MAX] {
                        prop_assert_eq!(
                            serialized_bytes(elapsed, rate, cap),
                            reference(elapsed, rate, cap),
                            "elapsed {} rate {} cap {}", elapsed, rate, cap
                        );
                    }
                }
            }
        }
    }
}
