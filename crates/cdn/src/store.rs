//! Warm-restart persistence for simulated hosts: one in-memory state
//! file per host, on a "disk" that survives crash faults, diffed and
//! restored by `riptide::persist::StateStore` just as `riptided` does it.
//! The layer only observes the run — no RNG draws, and no route writes
//! except the restore itself — so with no crashes a run with it is
//! bit-identical to one without.

use riptide::prelude::*;
use riptide_simnet::time::{SimDuration, SimTime};

use crate::sim::{ColdstartReport, Daemon};

/// How often each live host rewrites its snapshot; every agent tick in
/// between journals its deltas, so a crash loses at most one tick.
pub(crate) const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(60);

/// Persistence-layer state; present only when configured.
#[derive(Debug)]
pub(crate) struct PersistLayer {
    /// Per host: the encoded `persist::StateFile` bytes a real daemon
    /// would have on disk, and the installed view they last described.
    files: Vec<(Vec<u8>, StateStore)>,
    /// Routes restored, snapshots written, journal records appended.
    pub(crate) done: ColdstartReport,
}

impl PersistLayer {
    pub(crate) fn new(hosts: usize) -> Self {
        PersistLayer {
            files: vec![Default::default(); hosts],
            done: ColdstartReport::default(),
        }
    }

    /// Warm restart: reload host `h`'s state file and reinstall the
    /// surviving routes, instead of re-learning from an empty table. A
    /// missing or corrupt file degrades to a cold start.
    pub(crate) fn restore(&mut self, h: usize, now: SimTime, daemon: &mut Daemon) {
        let (bytes, store) = &mut self.files[h];
        if let Ok((n, _)) = store.restore(bytes, now, &mut daemon.agent, &mut daemon.controller) {
            self.done.restored_routes += n as u64;
        }
    }

    /// Appends journal records for each live host whose installed view
    /// changed since its state file last described it — the WAL half of
    /// the persistence hybrid.
    pub(crate) fn journal_deltas(&mut self, now: SimTime, hosts: &[Daemon], up: &[bool]) {
        for (h, daemon) in hosts.iter().enumerate().filter(|&(h, _)| up[h]) {
            let (bytes, store) = &mut self.files[h];
            let delta = store.journal_delta(&daemon.agent, now);
            if delta.is_empty() {
                continue;
            }
            // The first append needs a snapshot header to land behind.
            if bytes.is_empty() {
                *bytes = encode_state(&TableSnapshot::default(), &[]);
            }
            bytes.extend_from_slice(&delta);
            store.confirm(&daemon.agent);
            self.done.journal_records +=
                (delta.len() / riptide::persist::JOURNAL_RECORD_BYTES) as u64;
        }
    }

    /// [`Activity::Snapshot`]: rewrites every live host's snapshot from
    /// its agent's full state, truncating the journal tail into it.
    /// Returns the gap to the next snapshot.
    ///
    /// [`Activity::Snapshot`]: crate::agenda::Activity::Snapshot
    pub(crate) fn snapshot(&mut self, now: SimTime, hosts: &[Daemon], up: &[bool]) -> SimDuration {
        for (h, daemon) in hosts.iter().enumerate().filter(|&(h, _)| up[h]) {
            let (bytes, store) = &mut self.files[h];
            *bytes = store.snapshot(&daemon.agent, now);
            store.confirm(&daemon.agent);
            self.done.snapshots_written += 1;
        }
        SNAPSHOT_EVERY
    }
}
