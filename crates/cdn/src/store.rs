//! Warm-restart persistence for simulated hosts: one state file
//! (snapshot + journal tail) per host, on a "disk" that survives crash
//! faults, which a restarted daemon reloads instead of starting empty.
//!
//! The layer only observes the run — no RNG draws, and no route writes
//! except the restore itself — so with no crashes a run with it is
//! bit-identical to one without.

use std::collections::BTreeMap;

use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::{SimDuration, SimTime};

use crate::sim::{ColdstartReport, Daemon, PersistenceConfig};

/// One host's simulated on-disk state file: the encoded snapshot plus
/// journal tail, and the installed view it last described (so agent
/// ticks journal only the deltas).
#[derive(Debug, Clone, Default)]
struct HostStore {
    /// Encoded `persist::StateFile` bytes — what a real daemon would
    /// have on disk.
    bytes: Vec<u8>,
    /// The installed view as of the last snapshot or journal append.
    last_installed: BTreeMap<Ipv4Prefix, u32>,
}

/// Persistence-layer state; present only when configured.
#[derive(Debug)]
pub(crate) struct PersistLayer {
    cfg: PersistenceConfig,
    stores: Vec<HostStore>,
    /// Routes restored, snapshots written, journal records appended (the
    /// report's other fields stay 0).
    pub(crate) done: ColdstartReport,
}

impl PersistLayer {
    pub(crate) fn new(cfg: PersistenceConfig, hosts: usize) -> Self {
        PersistLayer {
            cfg,
            stores: vec![HostStore::default(); hosts],
            done: ColdstartReport::default(),
        }
    }

    /// Warm restart: reload host `h`'s state file and reinstall the
    /// surviving routes, instead of re-learning from an empty table. A
    /// torn or corrupt file degrades to a cold start.
    pub(crate) fn restore(&mut self, h: usize, now: SimTime, daemon: &mut Daemon) {
        let store = &mut self.stores[h];
        let Ok(state) = decode_state(&store.bytes) else {
            return;
        };
        let merged = replay(&state.snapshot, &state.journal);
        let restored = daemon
            .agent
            .restore_state(&merged, now, &mut daemon.controller);
        self.done.restored_routes += restored.len() as u64;
        store.last_installed = daemon.agent.installed_view().clone();
    }

    /// Appends journal records for each live host whose installed view
    /// changed since its state file last described it — the WAL half of
    /// the persistence hybrid, so a crash loses at most one tick.
    pub(crate) fn journal_deltas(&mut self, now: SimTime, daemons: &[Daemon], up: &[bool]) {
        if !self.cfg.journal {
            return;
        }
        for (h, daemon) in daemons.iter().enumerate().filter(|&(h, _)| up[h]) {
            let store = &mut self.stores[h];
            let cur = daemon.agent.installed_view();
            if *cur == store.last_installed {
                continue;
            }
            // A journal needs a snapshot header to replay onto; the
            // first append starts from an empty one.
            if store.bytes.is_empty() {
                store.bytes = encode_state(&TableSnapshot::default(), &[]);
            }
            let withdrawn = store.last_installed.keys().filter(|k| !cur.contains_key(k));
            let installed = cur
                .iter()
                .filter(|&(key, window)| store.last_installed.get(key) != Some(window));
            let ops = withdrawn
                .map(|&key| (key, JournalOp::Withdraw))
                .chain(installed.map(|(&key, &window)| (key, JournalOp::Install { window })));
            for (key, op) in ops {
                JournalRecord { at: now, key, op }.encode_into(&mut store.bytes);
                self.done.journal_records += 1;
            }
            store.last_installed = cur.clone();
        }
    }

    /// [`Activity::Snapshot`]: rewrites every live host's snapshot from
    /// its agent's full state, truncating the journal tail into it.
    /// Returns the gap to the next snapshot.
    ///
    /// [`Activity::Snapshot`]: crate::agenda::Activity::Snapshot
    pub(crate) fn snapshot(
        &mut self,
        now: SimTime,
        daemons: &[Daemon],
        up: &[bool],
    ) -> SimDuration {
        for (h, daemon) in daemons.iter().enumerate().filter(|&(h, _)| up[h]) {
            let store = &mut self.stores[h];
            store.bytes = encode_state(&daemon.agent.snapshot_state(now), &[]);
            store.last_installed = daemon.agent.installed_view().clone();
            self.done.snapshots_written += 1;
        }
        self.cfg.snapshot_every
    }
}
