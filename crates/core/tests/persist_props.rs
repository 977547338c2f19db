//! Property tests for the crash-durable state codec (`riptide::persist`).
//!
//! The codec guards the warm-restart path: whatever bytes a crash, a
//! torn append, or a corrupt disk hands back, decoding must never
//! panic, never fabricate records, and replay must be idempotent so a
//! restore can safely run against an already-replayed snapshot.

use std::net::Ipv4Addr;

use proptest::collection::vec;
use proptest::prelude::*;

use riptide::guard::{BreakerState, GuardExport};
use riptide::persist::{
    crc32, decode_state, encode_state, JournalOp, JournalRecord, SnapshotEntry, TableSnapshot,
    JOURNAL_RECORD_BYTES,
};
use riptide::policy::HistoryState;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimTime;

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
            values: (0..(seed % 5)).map(|i| (seed ^ i) as f64 % 900.0).collect(),
        },
        4 => HistoryState::Ring {
            values: (0..(seed % 7)).map(|i| (seed ^ i) as f64 % 300.0).collect(),
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
