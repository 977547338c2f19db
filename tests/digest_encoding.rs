//! The canonical digest encoding (DESIGN §9, "Digest contract").
//!
//! Pinned vectors: one small hand-built [`ShardData`] per variant, whose
//! hash was computed from the written format by an independent
//! implementation — so the encoder is held to the document, not to
//! itself. Sensitivity: changing any single encoded field, or the
//! variant tag alone, moves the hash.

use riptide_repro::cdn::digest::{fnv1a, shard_data_fnv, FORMAT_VERSION};
use riptide_repro::cdn::engine::{ConvergencePoint, ShardData};
use riptide_repro::cdn::sim::{ChaosReport, ColdstartReport, ProbeOutcome};
use riptide_repro::cdn::stats::Cdf;
use riptide_repro::cdn::topology::RttBucket;
use riptide_repro::simnet::fault::FaultStats;
use riptide_repro::simnet::time::{SimDuration, SimTime};

fn outcome() -> ProbeOutcome {
    ProbeOutcome {
        src_site: 0,
        dst_site: 4,
        size: 100_000,
        bucket: RttBucket::Far,
        completion: SimDuration::from_millis(250),
        fresh_connection: true,
        requested_at: SimTime::from_secs(180),
        initial_cwnd: 37,
    }
}

fn chaos() -> ChaosReport {
    ChaosReport {
        faults: FaultStats {
            observe_timeouts: 1,
            observe_partials: 2,
            install_errors: 3,
            install_delays: 4,
            crashes: 5,
            bursts: 6,
            route_churns: 7,
            targeted_bursts: 8,
        },
        degraded_ticks: 9,
        observe_retries: 10,
        install_retries: 11,
        install_gave_up: 12,
        delayed_applied: 13,
        routes_recovered: 14,
        installs: 15,
        invariant_breaches: 0,
        installed_min: 10,
        installed_max: 100,
        drift_deleted: 16,
        drift_orphaned: 17,
        foreign_injected: 18,
        reconcile_repairs: 19,
        reconcile_foreign_seen: 20,
        guard_trips: 21,
        drift_unrepaired: 0,
        foreign_missing: 0,
    }
}

/// Fields 101..=115 in declaration order.
fn coldstart() -> ColdstartReport {
    ColdstartReport {
        restarts_tracked: 101,
        recoveries: 102,
        ramp_nanos_total: 103,
        ramp_nanos_max: 104,
        unrecovered: 105,
        restored_routes: 106,
        snapshots_written: 107,
        journal_records: 108,
        gossip_rounds: 109,
        gossip_pairs: 110,
        digests_matched: 111,
        entries_shipped: 112,
        entries_accepted: 113,
        gossip_backoff_skips: 114,
        gossip_peers_marked_down: 115,
    }
}

fn point() -> ConvergencePoint {
    ConvergencePoint {
        at_secs: 60,
        mean_window: 42.5,
        destinations: 3,
        route_updates: 7,
    }
}

fn probes(outcomes: Vec<ProbeOutcome>, chaos: ChaosReport, coldstart: ColdstartReport) -> u64 {
    shard_data_fnv(&ShardData::Probes {
        outcomes,
        chaos,
        coldstart,
    })
}

#[test]
fn pinned_vectors_match_the_documented_format() {
    assert_eq!(FORMAT_VERSION, 1, "a format bump re-pins these vectors");
    // Samples are hashed sorted: the CDF is [2.5, 10.0].
    let cwnd = ShardData::Cwnd(Cdf::new([10.0, 2.5]));
    assert_eq!(shard_data_fnv(&cwnd), 0xed48_4fc6_d46a_a3a6);
    let profile = ShardData::Profile {
        probe_only: Cdf::new([1.0]),
        busy: Cdf::new([]),
    };
    assert_eq!(shard_data_fnv(&profile), 0x902a_54e6_0592_b187);
    assert_eq!(
        probes(vec![outcome()], chaos(), coldstart()),
        0xb95a_bbeb_cb6a_70fe
    );
    let convergence = ShardData::Convergence(vec![point()]);
    assert_eq!(shard_data_fnv(&convergence), 0x26ca_a997_788d_a7c9);
    // A control shard that saw nothing: no outcomes, default reports
    // (`installed_min` is `u32::MAX` when nothing was installed).
    assert_eq!(
        probes(
            Vec::new(),
            ChaosReport::default(),
            ColdstartReport::default()
        ),
        0x0aa4_f0e1_31da_1506
    );
    // The byte hash itself: the FNV-1a offset basis, and one step with
    // the engine's multiplier (not the standard FNV prime — DESIGN §9).
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
}

/// Asserts every mutation of `base` hashes differently from `base` and
/// from every other mutation.
fn assert_all_distinct<T: Clone>(
    what: &str,
    base: &T,
    mutations: &[fn(&mut T)],
    hash: impl Fn(&T) -> u64,
) {
    let mut seen = vec![hash(base)];
    for (i, mutate) in mutations.iter().enumerate() {
        let mut changed = base.clone();
        mutate(&mut changed);
        let h = hash(&changed);
        assert!(
            !seen.contains(&h),
            "{what}: mutation {i} did not move the hash (or collided with an earlier one)"
        );
        seen.push(h);
    }
}

#[test]
fn every_probe_outcome_field_moves_the_hash() {
    assert_all_distinct(
        "ProbeOutcome",
        &outcome(),
        &[
            |p| p.src_site += 1,
            |p| p.dst_site += 1,
            |p| p.size += 1,
            |p| p.bucket = RttBucket::VeryFar,
            |p| p.completion = SimDuration::from_nanos(p.completion.as_nanos() + 1),
            |p| p.fresh_connection = false,
            |p| p.requested_at = SimTime::from_nanos(p.requested_at.as_nanos() + 1),
            |p| p.initial_cwnd += 1,
        ],
        |p| probes(vec![*p], chaos(), coldstart()),
    );
    // Every bucket has its own tag.
    let tagged = |bucket| {
        probes(
            vec![ProbeOutcome {
                bucket,
                ..outcome()
            }],
            chaos(),
            coldstart(),
        )
    };
    let mut tags = [
        RttBucket::Close,
        RttBucket::Medium,
        RttBucket::Far,
        RttBucket::VeryFar,
    ]
    .map(tagged)
    .to_vec();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 4);
    // Order and count are encoded too.
    let other = ProbeOutcome {
        dst_site: 2,
        ..outcome()
    };
    assert_ne!(
        probes(vec![outcome(), other], chaos(), coldstart()),
        probes(vec![other, outcome()], chaos(), coldstart())
    );
    assert_ne!(
        probes(vec![outcome()], chaos(), coldstart()),
        probes(vec![outcome(), outcome()], chaos(), coldstart())
    );
}

#[test]
fn every_chaos_report_field_moves_the_hash() {
    assert_all_distinct(
        "ChaosReport",
        &chaos(),
        &[
            |r| r.faults.observe_timeouts += 1,
            |r| r.faults.observe_partials += 1,
            |r| r.faults.install_errors += 1,
            |r| r.faults.install_delays += 1,
            |r| r.faults.crashes += 1,
            |r| r.faults.bursts += 1,
            |r| r.faults.route_churns += 1,
            |r| r.faults.targeted_bursts += 1,
            |r| r.degraded_ticks += 1,
            |r| r.observe_retries += 1,
            |r| r.install_retries += 1,
            |r| r.install_gave_up += 1,
            |r| r.delayed_applied += 1,
            |r| r.routes_recovered += 1,
            |r| r.installs += 1,
            |r| r.invariant_breaches += 1,
            |r| r.installed_min += 1,
            |r| r.installed_max += 1,
            |r| r.drift_deleted += 1,
            |r| r.drift_orphaned += 1,
            |r| r.foreign_injected += 1,
            |r| r.reconcile_repairs += 1,
            |r| r.reconcile_foreign_seen += 1,
            |r| r.guard_trips += 1,
            |r| r.drift_unrepaired += 1,
            |r| r.foreign_missing += 1,
        ],
        |r| probes(vec![outcome()], *r, coldstart()),
    );
}

#[test]
fn every_coldstart_report_field_moves_the_hash() {
    assert_all_distinct(
        "ColdstartReport",
        &coldstart(),
        &[
            |r| r.restarts_tracked += 1,
            |r| r.recoveries += 1,
            |r| r.ramp_nanos_total += 1,
            |r| r.ramp_nanos_max += 1,
            |r| r.unrecovered += 1,
            |r| r.restored_routes += 1,
            |r| r.snapshots_written += 1,
            |r| r.journal_records += 1,
            |r| r.gossip_rounds += 1,
            |r| r.gossip_pairs += 1,
            |r| r.digests_matched += 1,
            |r| r.entries_shipped += 1,
            |r| r.entries_accepted += 1,
            |r| r.gossip_backoff_skips += 1,
            |r| r.gossip_peers_marked_down += 1,
        ],
        |r| probes(vec![outcome()], chaos(), *r),
    );
}

#[test]
fn every_convergence_point_field_moves_the_hash() {
    assert_all_distinct(
        "ConvergencePoint",
        &point(),
        &[
            |p| p.at_secs += 1,
            |p| p.mean_window = f64::from_bits(p.mean_window.to_bits() + 1),
            |p| p.destinations += 1,
            |p| p.route_updates += 1,
        ],
        |p| shard_data_fnv(&ShardData::Convergence(vec![*p])),
    );
    // Floats hash by bit pattern: the two zeros are different values.
    let zero = |z: f64| shard_data_fnv(&ShardData::Cwnd(Cdf::new([z])));
    assert_ne!(zero(0.0), zero(-0.0));
}

#[test]
fn the_variant_tag_alone_moves_the_hash() {
    // Same payload bytes — one empty `Vec` — under two different tags.
    let cwnd = shard_data_fnv(&ShardData::Cwnd(Cdf::new([])));
    let convergence = shard_data_fnv(&ShardData::Convergence(Vec::new()));
    assert_ne!(cwnd, convergence);
    // One two-sample CDF vs two one-sample CDFs: lengths delimit.
    let one = shard_data_fnv(&ShardData::Cwnd(Cdf::new([1.0, 2.0])));
    let two = shard_data_fnv(&ShardData::Profile {
        probe_only: Cdf::new([1.0]),
        busy: Cdf::new([2.0]),
    });
    assert_ne!(one, two);
}
