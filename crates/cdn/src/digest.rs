//! The canonical digest encoding of shard results. DESIGN §9 ("Digest
//! contract") is the specification — widths, tag tables, field order,
//! pinned vectors; this module is its implementation.
//!
//! A shard's `data=` token hashes a byte stream defined field by field,
//! so no Rust type, variant or field *name* is part of the contract.
//! The stream is never materialised: every value is folded straight
//! into the running hash. Each struct is listed once, in `encoder!`,
//! which destructures it **without `..`**: a field added to an encoded
//! type does not compile until it is given a place in the stream — at
//! which point [`FORMAT_VERSION`] is bumped and the goldens re-blessed.

use riptide_simnet::fault::FaultStats;

use crate::engine::{ConvergencePoint, ShardData};
use crate::sim::{ChaosReport, ColdstartReport, ProbeOutcome};
use crate::stats::Cdf;
use crate::topology::RttBucket;

/// First byte of every shard-data stream. Bump on any change to the
/// format.
pub const FORMAT_VERSION: u8 = 1;

/// The per-byte multiplier: the value the engine has hashed with since
/// its first digest, one hex digit longer than the standard 64-bit FNV
/// prime `0x100_0000_01b3`. Part of the contract — `metrics=` tokens
/// and every `digest_fnv` go through the same function.
pub const MULTIPLIER: u64 = 0x1000_0000_01b3;

/// The running hash: FNV-1a shaped (xor the byte in, then multiply).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(MULTIPLIER);
        }
    }

    /// A `Vec`: its length as `u64`, then the elements in order.
    fn seq<T>(&mut self, items: &[T], each: impl Fn(&mut Fnv, &T)) {
        self.put(&(items.len() as u64).to_le_bytes());
        for item in items {
            each(self, item);
        }
    }
}

/// The hash of `bytes` — the function behind
/// [`RunReport::digest_fnv64`](crate::engine::RunReport::digest_fnv64)
/// and the `metrics=` token.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.put(bytes);
    h.0
}

/// Defines a struct's encoder from `field: kind` pairs in stream order.
/// Kinds: `le` (a `u32`/`u64`, little-endian at its own width), `index`
/// (a `usize` as `u64`), `nanos` (a `SimTime`/`SimDuration` as `u64`
/// nanoseconds), `float` (an `f64` by bit pattern), `flag` (a `bool` as
/// one byte), `bucket` (an [`RttBucket`] tag), `faults` (a nested
/// [`FaultStats`]).
macro_rules! encoder {
    ($name:ident($ty:ident) { $($field:ident: $kind:ident),* $(,)? }) => {
        fn $name(h: &mut Fnv, value: &$ty) {
            let $ty { $($field),* } = *value;
            $(encoder!(@$kind h, $field);)*
        }
    };
    (@le $h:ident, $f:ident) => { $h.put(&$f.to_le_bytes()) };
    (@index $h:ident, $f:ident) => { $h.put(&($f as u64).to_le_bytes()) };
    (@nanos $h:ident, $f:ident) => { $h.put(&$f.as_nanos().to_le_bytes()) };
    (@float $h:ident, $f:ident) => { $h.put(&$f.to_bits().to_le_bytes()) };
    (@flag $h:ident, $f:ident) => { $h.put(&[$f as u8]) };
    (@bucket $h:ident, $f:ident) => { $h.put(&[rtt_bucket($f)]) };
    (@faults $h:ident, $f:ident) => { fault_stats($h, &$f) };
}

/// The `data=` hash of one shard's measurement: the version byte, the
/// variant tag (`Cwnd` = 0, `Profile` = 1, `Probes` = 2,
/// `Convergence` = 3), then the payload.
pub fn shard_data_fnv(data: &ShardData) -> u64 {
    let mut h = Fnv::new();
    h.put(&[FORMAT_VERSION]);
    match data {
        ShardData::Cwnd(cdf) => {
            h.put(&[0]);
            cdf_samples(&mut h, cdf);
        }
        ShardData::Profile { probe_only, busy } => {
            h.put(&[1]);
            cdf_samples(&mut h, probe_only);
            cdf_samples(&mut h, busy);
        }
        ShardData::Probes {
            outcomes,
            chaos,
            coldstart,
        } => {
            h.put(&[2]);
            h.seq(outcomes, probe_outcome);
            chaos_report(&mut h, chaos);
            coldstart_report(&mut h, coldstart);
        }
        ShardData::Convergence(points) => {
            h.put(&[3]);
            h.seq(points, convergence_point);
        }
    }
    h.0
}

/// A CDF is its sorted samples, as a `Vec<f64>`.
fn cdf_samples(h: &mut Fnv, cdf: &Cdf) {
    h.seq(cdf.samples(), |h, x| h.put(&x.to_bits().to_le_bytes()));
}

/// Bucket tags: `Close` = 0, `Medium` = 1, `Far` = 2, `VeryFar` = 3.
fn rtt_bucket(bucket: RttBucket) -> u8 {
    match bucket {
        RttBucket::Close => 0,
        RttBucket::Medium => 1,
        RttBucket::Far => 2,
        RttBucket::VeryFar => 3,
    }
}

encoder!(probe_outcome(ProbeOutcome) {
    src_site: index,
    dst_site: index,
    size: le,
    bucket: bucket,
    completion: nanos,
    fresh_connection: flag,
    requested_at: nanos,
    initial_cwnd: le,
});

encoder!(convergence_point(ConvergencePoint) {
    at_secs: le,
    mean_window: float,
    destinations: index,
    route_updates: le,
});

encoder!(fault_stats(FaultStats) {
    observe_timeouts: le,
    observe_partials: le,
    install_errors: le,
    install_delays: le,
    crashes: le,
    bursts: le,
    route_churns: le,
    targeted_bursts: le,
});

encoder!(chaos_report(ChaosReport) {
    faults: faults,
    degraded_ticks: le,
    observe_retries: le,
    install_retries: le,
    install_gave_up: le,
    delayed_applied: le,
    routes_recovered: le,
    installs: le,
    invariant_breaches: le,
    installed_min: le,
    installed_max: le,
    drift_deleted: le,
    drift_orphaned: le,
    foreign_injected: le,
    reconcile_repairs: le,
    reconcile_foreign_seen: le,
    guard_trips: le,
    drift_unrepaired: le,
    foreign_missing: le,
});

encoder!(coldstart_report(ColdstartReport) {
    restarts_tracked: le,
    recoveries: le,
    ramp_nanos_total: le,
    ramp_nanos_max: le,
    unrecovered: le,
    restored_routes: le,
    snapshots_written: le,
    journal_records: le,
    gossip_rounds: le,
    gossip_pairs: le,
    digests_matched: le,
    entries_shipped: le,
    entries_accepted: le,
    gossip_backoff_skips: le,
    gossip_peers_marked_down: le,
});
