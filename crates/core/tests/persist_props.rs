//! Property tests for the crash-durable state codec (`riptide::persist`)
//! and the daemon loop that writes it (`riptide::daemon`).
//!
//! The codec guards the warm-restart path: whatever bytes a crash, a
//! torn append, or a corrupt disk hands back, decoding must never
//! panic, never fabricate records, and replay must be idempotent so a
//! restore can safely run against an already-replayed snapshot. The
//! loop must never leave a file whose restore loses a write it saw land.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::collection::vec;
use proptest::prelude::*;

use riptide::agent::RiptideAgent;
use riptide::config::RiptideConfig;
use riptide::daemon::{Daemon, Storage};
use riptide::guard::{BreakerState, GuardExport};
use riptide::observe::{CwndObservation, FnObserver};
use riptide::persist::{
    crc32, decode_journal, decode_state, encode_state, JournalOp, JournalRecord, SnapshotEntry,
    TableSnapshot, JOURNAL_RECORD_BYTES,
};
use riptide::policy::{HistoryState, LearningPolicy};
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::{SimDuration, SimTime};

/// Expands one seed into a prefix; lengths stay in the valid 8..=32
/// band the codec accepts.
fn prefix_from(seed: u64) -> Ipv4Prefix {
    let bits = (seed >> 16) as u32;
    let len = 8 + (seed % 25) as u8;
    Ipv4Prefix::new(Ipv4Addr::from(bits), len)
}

/// Expands one seed into a snapshot entry covering every history
/// variant with finite floats (NaN would break `PartialEq`, not the
/// codec — `to_bits` round-trips any pattern).
fn entry_from(seed: u64) -> SnapshotEntry {
    let history = match (seed >> 3) % 6 {
        0 => HistoryState::Ewma { value: None },
        1 => HistoryState::Ewma {
            value: Some((seed % 10_000) as f64 / 7.0),
        },
        2 => HistoryState::None,
        3 => HistoryState::Window {
            values: Box::new((0..(seed % 5)).map(|i| (seed ^ i) as f64 % 900.0).collect()),
        },
        4 => HistoryState::Ring {
            values: Box::new((0..(seed % 7)).map(|i| (seed ^ i) as f64 % 300.0).collect()),
        },
        _ => HistoryState::Utility {
            value: (seed & 1 == 1).then(|| (seed % 5_000) as f64 / 13.0),
        },
    };
    SnapshotEntry {
        key: prefix_from(seed),
        window: 10 + (seed % 91) as u32,
        last_fresh: (seed % 100_000) as f64 / 3.0,
        last_updated: SimTime::from_nanos(seed % (1 << 40)),
        history,
    }
}

fn guard_from(seed: u64) -> GuardExport {
    GuardExport {
        key: prefix_from(seed.rotate_left(13)),
        breaker: match seed % 3 {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        },
        penalty: (seed % 4_000) as f64 / 11.0,
        penalty_at: SimTime::from_nanos(seed % (1 << 38)),
        clean_streak: (seed % 7) as u32,
    }
}

fn record_from(seed: u64) -> JournalRecord {
    JournalRecord {
        at: SimTime::from_nanos(seed % (1 << 41)),
        key: prefix_from(seed.rotate_right(7)),
        op: match seed % 3 {
            0 => JournalOp::Install {
                window: 10 + (seed % 91) as u32,
            },
            1 => JournalOp::Withdraw,
            _ => JournalOp::Evict,
        },
    }
}

fn snapshot_from(taken_at: u64, seeds: &[u64]) -> TableSnapshot {
    TableSnapshot {
        taken_at: SimTime::from_nanos(taken_at),
        entries: seeds.iter().map(|&s| entry_from(s)).collect(),
        installs: seeds
            .iter()
            .map(|&s| (prefix_from(s), 10 + (s % 91) as u32))
            .collect(),
        guards: seeds.iter().map(|&s| guard_from(s)).collect(),
        skipped_entries: 0,
    }
}

/// Regression for the forward-compat gap fixed alongside the policy
/// work: decoding a snapshot whose entry carries an unknown history tag
/// used to reject the *whole* snapshot
/// (`Err(Malformed("unknown history tag"))`), so a version rollback
/// lost the entire learned table. It must instead skip just that entry
/// and count the skip.
#[test]
fn unknown_history_tag_skips_entry_not_snapshot() {
    let snapshot = snapshot_from(3, &[8, 100, 201]);
    assert_eq!(snapshot.entries.len(), 3);
    let mut bytes = snapshot.encode();
    // Walk the fixed v2 layout to the first entry's history tag:
    // header = magic(4) + version(2) + taken_at(8) + 3 counts(12),
    // entry fields = prefix(5) + window(4) + fresh(8) + updated(8).
    let tag_pos = 26 + 25;
    bytes[tag_pos] = 0xEE;
    let body_len = bytes.len() - 4;
    let crc = crc32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());

    let state = decode_state(&bytes).expect("one foreign entry must not reject the snapshot");
    assert_eq!(state.snapshot.skipped_entries, 1);
    assert_eq!(state.snapshot.entries, snapshot.entries[1..]);
    assert_eq!(state.snapshot.installs, snapshot.installs);
    assert_eq!(state.snapshot.guards, snapshot.guards);
}

/// The model `replay` must agree with: the replay it replaced, which
/// clones every snapshot entry into a map, folds the journal into the
/// map and collects it back.
fn replay_model(snapshot: &TableSnapshot, journal: &[JournalRecord]) -> TableSnapshot {
    let mut entries: BTreeMap<Ipv4Prefix, SnapshotEntry> = snapshot
        .entries
        .iter()
        .map(|e| (e.key, e.clone()))
        .collect();
    let mut installs: BTreeMap<Ipv4Prefix, u32> = snapshot.installs.iter().copied().collect();
    let mut taken_at = snapshot.taken_at;
    for rec in journal {
        taken_at = taken_at.max(rec.at);
        match rec.op {
            JournalOp::Install { window } => {
                installs.insert(rec.key, window);
                entries
                    .entry(rec.key)
                    .and_modify(|e| {
                        e.window = window;
                        e.last_updated = rec.at;
                    })
                    .or_insert_with(|| SnapshotEntry {
                        key: rec.key,
                        window,
                        last_fresh: window as f64,
                        last_updated: rec.at,
                        history: HistoryState::Ewma { value: None },
                    });
            }
            JournalOp::Withdraw | JournalOp::Evict => {
                installs.remove(&rec.key);
                entries.remove(&rec.key);
            }
        }
    }
    TableSnapshot {
        taken_at,
        entries: entries.into_values().collect(),
        installs: installs.into_iter().collect(),
        guards: snapshot.guards.clone(),
        skipped_entries: snapshot.skipped_entries,
    }
}

type View = BTreeMap<Ipv4Prefix, u32>;

/// A state file in memory whose writes fail, land short or land whole
/// at random, drawn from a seed. A failed replace leaves the old file,
/// as an atomic rename does; a short append lands a prefix of its bytes.
struct Fake {
    bytes: Vec<u8>,
    draws: u64,
    /// What the last write landed, and whether that was all of it
    /// (`None`: nothing landed). The test takes it after each call.
    last: RefCell<Option<(Vec<u8>, bool)>>,
}

impl Fake {
    /// splitmix64.
    fn draw(&mut self) -> u64 {
        self.draws = self.draws.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.draws;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Storage for Fake {
    fn replace(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.draw().is_multiple_of(3) {
            *self.last.get_mut() = None;
            return Err(std::io::Error::other("replace failed"));
        }
        self.bytes = bytes.to_vec();
        *self.last.get_mut() = Some((self.bytes.clone(), true));
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let landed = match self.draw() % 3 {
            0 => self.draw() as usize % bytes.len(),
            _ => bytes.len(),
        };
        self.bytes.extend_from_slice(&bytes[..landed]);
        let whole = landed == bytes.len();
        *self.last.get_mut() = (landed > 0).then(|| (bytes[..landed].to_vec(), whole));
        match whole {
            true => Ok(()),
            false => Err(std::io::Error::other("append cut short")),
        }
    }
}

/// A daemon over `storage` whose agent learns host `10.0.9.n` windows
/// as seen, never expires them, and holds at most 4 of them, so
/// evictions journal withdrawals.
fn fresh_daemon(storage: Fake, snapshot_every: u64) -> Daemon<Fake> {
    let config = RiptideConfig::builder()
        .policy(LearningPolicy::None)
        .ttl(SimDuration::from_secs(1 << 30))
        .table_capacity(4)
        .build()
        .unwrap();
    Daemon::new(
        RiptideAgent::new(config).unwrap(),
        Some(storage),
        snapshot_every,
    )
}

/// Folds the daemon's last write into `file`, the view the bytes on the
/// fake describe; `at_write` is the agent's installed view when it
/// wrote. A write that landed whole describes that view. A short append
/// adds the whole records it landed to what the file described before.
fn after_write(file: &mut View, daemon: &Daemon<Fake>, at_write: &View) {
    match daemon.storage().unwrap().last.take() {
        Some((_, true)) => file.clone_from(at_write),
        Some((landed, false)) => {
            for rec in decode_journal(&landed).0 {
                match rec.op {
                    JournalOp::Install { window } => file.insert(rec.key, window),
                    JournalOp::Withdraw | JournalOp::Evict => file.remove(&rec.key),
                };
            }
        }
        None => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Polls, restarts and graceful shutdowns over a disk whose writes
    // fail or land short: every restart restores exactly the last
    // installed view the daemon saw a write confirm, plus whatever whole
    // records a short append after it left (a crash mid-append keeps the
    // records that landed). So a failed write never hides a later one
    // that landed.
    #[test]
    fn every_restart_restores_the_confirmed_view(
        draws in any::<u64>(),
        snapshot_every in 1u64..6,
        steps in vec(any::<u64>(), 1..48),
    ) {
        let fake = Fake { bytes: Vec::new(), draws, last: RefCell::new(None) };
        let mut daemon = fresh_daemon(fake, snapshot_every);
        let mut routes = RouteTable::new();
        let mut file = View::new();
        let mut now = SimTime::ZERO;
        daemon.start(&[], now, &mut routes).unwrap_err();
        after_write(&mut file, &daemon, &View::new());
        for step in steps {
            now += SimDuration::from_secs(1);
            if step % 8 < 2 {
                if step % 8 == 1 {
                    let at_write = daemon.agent().installed_view().clone();
                    daemon.shutdown(now, &mut routes);
                    after_write(&mut file, &daemon, &at_write);
                }
                // A new daemon and kernel table over the same disk.
                let fake = daemon.take_storage().unwrap();
                let bytes = fake.bytes.clone();
                daemon = fresh_daemon(fake, snapshot_every);
                routes = RouteTable::new();
                // Replaces are atomic, so only a file no write reached
                // fails to decode.
                let restored = daemon.start(&bytes, now, &mut routes);
                prop_assert_eq!(restored.is_err(), bytes.is_empty());
                prop_assert_eq!(daemon.agent().installed_view(), &file, "restart at {:?}", now);
            } else {
                let seen = (0..6u64).filter(|i| step >> (8 + i) & 1 == 1);
                let rows: Vec<CwndObservation> = seen
                    .map(|i| CwndObservation {
                        dst: Ipv4Addr::new(10, 0, 9, 1 + i as u8),
                        cwnd: 10 + ((step >> (16 + 7 * i)) % 91) as u32,
                        bytes_acked: 1,
                        retrans: 0,
                        ecn_marks: 0,
                    })
                    .collect();
                let mut observer = FnObserver(|| rows.clone());
                daemon.poll(now, |agent| agent.tick(now, &mut observer, &mut routes));
            }
            let at_write = daemon.agent().installed_view().clone();
            after_write(&mut file, &daemon, &at_write);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // encode → decode is the identity on any table and journal.
    #[test]
    fn state_round_trips(
        taken_at in 0u64..1 << 40,
        entry_seeds in vec(any::<u64>(), 0..24),
        journal_seeds in vec(any::<u64>(), 0..24),
    ) {
        let snapshot = snapshot_from(taken_at, &entry_seeds);
        let journal: Vec<JournalRecord> =
            journal_seeds.iter().map(|&s| record_from(s)).collect();
        let bytes = encode_state(&snapshot, &journal);
        let decoded = decode_state(&bytes);
        prop_assert!(decoded.is_ok(), "clean bytes must decode: {decoded:?}");
        let state = decoded.unwrap();
        prop_assert_eq!(&state.snapshot, &snapshot);
        prop_assert_eq!(&state.journal, &journal);
        prop_assert!(!state.torn_tail);
    }

    // Truncating anywhere — mid-snapshot, mid-record, at a boundary —
    // is rejected or cleanly torn, never a panic and never an invented
    // record.
    #[test]
    fn truncated_tail_is_rejected_without_panic(
        entry_seeds in vec(any::<u64>(), 0..12),
        journal_seeds in vec(any::<u64>(), 1..12),
        cut_seed in any::<u64>(),
    ) {
        let snapshot = snapshot_from(7, &entry_seeds);
        let journal: Vec<JournalRecord> =
            journal_seeds.iter().map(|&s| record_from(s)).collect();
        let snap_len = snapshot.encode().len();
        let bytes = encode_state(&snapshot, &journal);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        match decode_state(&bytes[..cut]) {
            // A cut inside the snapshot block must not decode at all.
            Err(_) => prop_assert!(cut < snap_len),
            // A cut in the journal keeps only whole, clean records.
            Ok(state) => {
                prop_assert!(cut >= snap_len);
                let whole = (cut - snap_len) / JOURNAL_RECORD_BYTES;
                prop_assert_eq!(&state.journal[..], &journal[..whole]);
                prop_assert_eq!(state.torn_tail, !(cut - snap_len).is_multiple_of(JOURNAL_RECORD_BYTES));
            }
        }
    }

    // A single flipped bit anywhere in the file is caught by a CRC:
    // either the snapshot refuses to decode or the journal truncates
    // at the damaged record — decoded content is never wrong.
    #[test]
    fn bit_flip_never_corrupts_decoded_state(
        entry_seeds in vec(any::<u64>(), 0..12),
        journal_seeds in vec(any::<u64>(), 1..12),
        flip_seed in any::<u64>(),
    ) {
        let snapshot = snapshot_from(11, &entry_seeds);
        let journal: Vec<JournalRecord> =
            journal_seeds.iter().map(|&s| record_from(s)).collect();
        let snap_len = snapshot.encode().len();
        let mut bytes = encode_state(&snapshot, &journal);
        let pos = (flip_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << (flip_seed % 8);
        match decode_state(&bytes) {
            Err(_) => prop_assert!(pos < snap_len, "journal damage is not fatal"),
            Ok(state) => {
                prop_assert!(pos >= snap_len, "snapshot damage must not decode");
                prop_assert_eq!(&state.snapshot, &snapshot);
                let hit = (pos - snap_len) / JOURNAL_RECORD_BYTES;
                prop_assert_eq!(&state.journal[..], &journal[..hit]);
                prop_assert!(state.torn_tail, "the damaged record is dropped as torn");
            }
        }
    }

    // The merge-join replay agrees with the map fold it replaced, on
    // snapshots whose keys come unsorted and repeated (a pool of ten, so
    // every key recurs and the journal hits snapshot keys, keys it
    // removed and keys it never saw) and on any journal over them.
    #[test]
    fn replay_agrees_with_the_map_fold(
        taken_at in 0u64..1 << 40,
        pool_seed in any::<u64>(),
        entry_picks in vec((0usize..10, any::<u64>()), 0..24),
        install_picks in vec((0usize..10, any::<u64>()), 0..24),
        journal_picks in vec((0usize..10, any::<u64>()), 0..32),
    ) {
        let pool: Vec<Ipv4Prefix> = (0..10u64)
            .map(|i| prefix_from(pool_seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
            .collect();
        let snapshot = TableSnapshot {
            taken_at: SimTime::from_nanos(taken_at),
            entries: entry_picks
                .iter()
                .map(|&(i, s)| SnapshotEntry { key: pool[i], ..entry_from(s) })
                .collect(),
            installs: install_picks
                .iter()
                .map(|&(i, s)| (pool[i], 10 + (s % 91) as u32))
                .collect(),
            guards: entry_picks.iter().map(|&(_, s)| guard_from(s)).collect(),
            skipped_entries: (pool_seed % 3) as u32,
        };
        let journal: Vec<JournalRecord> = journal_picks
            .iter()
            .map(|&(i, s)| JournalRecord { key: pool[i], ..record_from(s) })
            .collect();
        let got = riptide::persist::replay(&snapshot, &journal);
        let want = replay_model(&snapshot, &journal);
        prop_assert_eq!(&got.entries, &want.entries);
        prop_assert_eq!(&got.installs, &want.installs);
        prop_assert_eq!(&got.guards, &want.guards);
        prop_assert_eq!(got.taken_at, want.taken_at);
        prop_assert_eq!(got.skipped_entries, want.skipped_entries);
    }

    // Replaying a journal twice lands on the same table as once:
    // installs are last-writer-wins upserts, removals are absent-ok.
    #[test]
    fn replay_is_idempotent(
        taken_at in 0u64..1 << 40,
        entry_seeds in vec(any::<u64>(), 0..16),
        journal_seeds in vec(any::<u64>(), 0..32),
    ) {
        let snapshot = snapshot_from(taken_at, &entry_seeds);
        let journal: Vec<JournalRecord> =
            journal_seeds.iter().map(|&s| record_from(s)).collect();
        let once = riptide::persist::replay(&snapshot, &journal);
        let twice = riptide::persist::replay(&once, &journal);
        prop_assert_eq!(&once, &twice);
        // And the replayed image itself round-trips.
        let bytes = encode_state(&once, &[]);
        let back = decode_state(&bytes);
        prop_assert!(back.is_ok());
        prop_assert_eq!(&back.unwrap().snapshot, &once);
    }
}
