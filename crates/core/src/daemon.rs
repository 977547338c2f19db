//! The agent's lifecycle, written once: `riptided` runs it over a file
//! on disk and the simulator's hosts over bytes in memory, so the loop a
//! chaos test crashes is the loop operators run. [`Daemon::start`]
//! restores what the host read, then anchors the file with a fresh
//! snapshot; [`Daemon::poll`] runs the host's tick, then journals what
//! it changed or rewrites the snapshot; [`Daemon::shutdown`] writes the
//! snapshot before the withdrawal sweep.
//!
//! Only a write that lands moves the diff base, so the next write covers
//! what a failed one missed. **After a failed write the next write is a
//! snapshot, never an append**: a failed append may have left part of a
//! record, decoding stops at the first torn record, and anything
//! appended behind it would be confirmed and then lost. That holds for a
//! failed anchor after a restore that dropped a torn tail, too.

use std::collections::BTreeMap;
use std::io;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimTime;

use crate::agent::RiptideAgent;
use crate::control::RouteController;
use crate::persist::{decode_state, encode_state, replay, JournalOp, JournalRecord, PersistError};

/// Polls between full snapshot rewrites: once a minute at the default
/// 1 s `i_u`.
pub const SNAPSHOT_EVERY: u64 = 60;

/// Where a daemon's state file lives.
pub trait Storage {
    /// Replaces the whole file with `bytes`. Atomic: when it fails, the
    /// old file is intact.
    fn replace(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to the file. When it fails, any prefix of `bytes`
    /// may have landed.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// A state file in memory, whose writes never fail.
impl Storage for Vec<u8> {
    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.clear();
        Storage::append(self, bytes)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

/// One agent's lifecycle over an optional state file.
#[derive(Debug)]
pub struct Daemon<S> {
    agent: RiptideAgent,
    storage: Option<S>,
    snapshot_every: u64,
    /// Polls until a snapshot is due; 0 until one lands, and again after
    /// any failed write.
    snapshot_in: u64,
    /// The installed view the state file describes.
    base: BTreeMap<Ipv4Prefix, u32>,
}

impl<S: Storage> Daemon<S> {
    /// A daemon running `agent` that keeps its state file on `storage`
    /// (`None`: nothing persists) and rewrites the snapshot every
    /// `snapshot_every` polls.
    pub fn new(agent: RiptideAgent, storage: Option<S>, snapshot_every: u64) -> Self {
        Daemon {
            agent,
            storage,
            snapshot_every,
            snapshot_in: 0,
            base: BTreeMap::new(),
        }
    }

    /// The agent.
    pub fn agent(&self) -> &RiptideAgent {
        &self.agent
    }

    /// The agent, for work between polls (a gossip merge, an audit);
    /// the next poll journals what it changed.
    pub fn agent_mut(&mut self) -> &mut RiptideAgent {
        &mut self.agent
    }

    /// The state file's storage, if any.
    pub fn storage(&self) -> Option<&S> {
        self.storage.as_ref()
    }

    /// Takes the storage away, as a crash does before it drops the
    /// daemon.
    pub fn take_storage(&mut self) -> Option<S> {
        self.storage.take()
    }

    /// Warm restart at `now` from `bytes`, what the host read from its
    /// state file (decode, replay, [`RiptideAgent::restore_state`]
    /// through `controller`); then the anchor snapshot. Returns how many
    /// routes were reinstalled and whether a torn journal tail was
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when `bytes` hold no sound snapshot block
    /// (empty: the host has no file yet); the agent then starts empty.
    pub fn start<C>(
        &mut self,
        bytes: &[u8],
        now: SimTime,
        controller: &mut C,
    ) -> Result<(usize, bool), PersistError>
    where
        C: RouteController + ?Sized,
    {
        let restored = decode_state(bytes).map(|state| {
            let merged = replay(&state.snapshot, &state.journal);
            let routes = self.agent.restore_state(&merged, now, controller);
            (routes.len(), state.torn_tail)
        });
        self.write(now, true);
        restored
    }

    /// One poll at `now`: `tick` runs the host's agent tick (or its
    /// degraded stand-in), then the state file catches up. Returns what
    /// `tick` returned.
    pub fn poll<R>(&mut self, now: SimTime, tick: impl FnOnce(&mut RiptideAgent) -> R) -> R {
        let out = tick(&mut self.agent);
        self.snapshot_in = self.snapshot_in.saturating_sub(1);
        self.write(now, self.snapshot_in == 0);
        out
    }

    /// Graceful exit at `now`: the snapshot, then the withdrawal sweep.
    /// Returns the keys withdrawn.
    pub fn shutdown<C>(&mut self, now: SimTime, controller: &mut C) -> Vec<Ipv4Prefix>
    where
        C: RouteController + ?Sized,
    {
        self.write(now, true);
        self.agent.shutdown(controller)
    }

    /// Rewrites the snapshot, or appends the journal records that carry
    /// the file from the base to the installed view (withdraws, then
    /// installs, each in key order).
    fn write(&mut self, now: SimTime, snapshot: bool) {
        let Some(storage) = &mut self.storage else {
            return;
        };
        let view = self.agent.installed_view();
        let wrote = if snapshot {
            storage.replace(&encode_state(&self.agent.snapshot_state(now), &[]))
        } else {
            let base = &self.base;
            let withdrawn = base.keys().filter(|k| !view.contains_key(k));
            let installed = view.iter().filter(|&(k, w)| base.get(k) != Some(w));
            let ops = withdrawn
                .map(|&key| (key, JournalOp::Withdraw))
                .chain(installed.map(|(&key, &window)| (key, JournalOp::Install { window })));
            let mut delta = Vec::new();
            for (key, op) in ops {
                JournalRecord { at: now, key, op }.encode_into(&mut delta);
            }
            if delta.is_empty() {
                return;
            }
            storage.append(&delta)
        };
        if wrote.is_err() {
            // The module's rule: only a snapshot may follow a failure.
            self.snapshot_in = 0;
            return;
        }
        if snapshot {
            self.snapshot_in = self.snapshot_every;
        }
        self.base.clone_from(view);
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::config::RiptideConfig;
    use crate::observe::{CwndObservation, FnObserver};
    use crate::persist::decode_journal;
    use crate::policy::LearningPolicy;
    use riptide_linuxnet::route::RouteTable;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n))
    }

    fn daemon<S: Storage>(storage: S, snapshot_every: u64) -> (Daemon<S>, RouteTable) {
        let cfg = RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .unwrap();
        let agent = RiptideAgent::new(cfg).unwrap();
        (
            Daemon::new(agent, Some(storage), snapshot_every),
            RouteTable::new(),
        )
    }

    /// One poll at `secs` observing host `10.0.0.n` at window `w` for
    /// each `(n, w)`.
    fn poll<S: Storage>(d: &mut Daemon<S>, routes: &mut RouteTable, secs: u64, seen: &[(u8, u32)]) {
        let now = SimTime::from_secs(secs);
        let rows = || {
            let row = |&(n, cwnd): &(u8, u32)| CwndObservation {
                dst: Ipv4Addr::new(10, 0, 0, n),
                cwnd,
                bytes_acked: 1_000_000,
                retrans: 0,
                ecn_marks: 0,
            };
            seen.iter().map(row).collect()
        };
        d.poll(now, |agent| agent.tick(now, &mut FnObserver(rows), routes));
    }

    /// The view a restart from `bytes` reinstalls, and what it found.
    fn restart(bytes: &[u8], secs: u64) -> (Vec<(Ipv4Prefix, u32)>, (usize, bool)) {
        let (mut d, mut routes) = daemon(Vec::new(), SNAPSHOT_EVERY);
        let found = d
            .start(bytes, SimTime::from_secs(secs), &mut routes)
            .unwrap();
        assert_eq!(routes.len(), d.agent().installed_view().len());
        let view = d.agent().installed_view().iter().map(|(&k, &w)| (k, w));
        (view.collect(), found)
    }

    /// Bytes in memory whose next write fails once, after landing
    /// `cut` bytes of an append (a replace lands nothing).
    #[derive(Default)]
    struct Flaky {
        bytes: Vec<u8>,
        cut: Option<usize>,
        writes: Vec<&'static str>,
    }

    impl Storage for Flaky {
        fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.writes.push("replace");
            match self.cut.take() {
                Some(_) => Err(io::Error::other("injected")),
                None => Storage::replace(&mut self.bytes, bytes),
            }
        }

        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.writes.push("append");
            match self.cut.take() {
                Some(n) => {
                    self.bytes.extend_from_slice(&bytes[..n.min(bytes.len())]);
                    Err(io::Error::other("injected"))
                }
                None => Storage::append(&mut self.bytes, bytes),
            }
        }
    }

    #[test]
    fn start_anchors_then_polls_journal_until_a_snapshot_is_due() {
        let (mut d, mut routes) = daemon(Vec::new(), 3);
        d.start(&[], SimTime::ZERO, &mut routes).unwrap_err();
        let anchor = d.storage().unwrap().clone();
        poll(&mut d, &mut routes, 1, &[(3, 50), (1, 40), (2, 60)]);
        // Keys 1 and 3 expire (94 s > the 90 s TTL); key 2 re-windows.
        poll(&mut d, &mut routes, 95, &[(2, 70)]);
        let bytes = d.storage().unwrap();
        assert_eq!(
            bytes[..anchor.len()],
            anchor[..],
            "appends land behind the anchor"
        );
        let (records, torn) = decode_journal(&bytes[anchor.len()..]);
        assert!(!torn);
        let ops: Vec<_> = records.iter().map(|r| (r.at, r.key, r.op)).collect();
        let (t1, t95) = (SimTime::from_secs(1), SimTime::from_secs(95));
        let install = |window| JournalOp::Install { window };
        let want = vec![
            (t1, key(1), install(40)),
            (t1, key(2), install(60)),
            (t1, key(3), install(50)),
            (t95, key(1), JournalOp::Withdraw),
            (t95, key(3), JournalOp::Withdraw),
            (t95, key(2), install(70)),
        ];
        assert_eq!(ops, want, "withdraws, then installs, each in key order");
        // The third poll is a snapshot rewrite: no journal left.
        poll(&mut d, &mut routes, 96, &[(2, 70)]);
        let state = decode_state(d.storage().unwrap()).unwrap();
        assert!(state.journal.is_empty());
        assert_eq!(state.snapshot.installs, vec![(key(2), 70)]);
    }

    #[test]
    fn a_short_append_is_followed_by_a_snapshot_not_an_append() {
        // The append of 10.0.0.1's install fails after 5 bytes. A restart
        // now restores the last confirmed view (nothing), and the next
        // poll's write must not land behind the torn record, where a
        // restore would never read it.
        let (mut d, mut routes) = daemon(Flaky::default(), SNAPSHOT_EVERY);
        d.start(&[], SimTime::ZERO, &mut routes).unwrap_err();
        d.storage.as_mut().unwrap().cut = Some(5);
        poll(&mut d, &mut routes, 1, &[(1, 40)]);
        let (view, found) = restart(&d.storage().unwrap().bytes, 1);
        assert_eq!((view, found), (vec![], (0, true)));
        poll(&mut d, &mut routes, 2, &[(1, 40), (2, 60)]);
        let flaky = d.storage().unwrap();
        assert_eq!(flaky.writes, ["replace", "append", "replace"]);
        let (view, found) = restart(&flaky.bytes, 2);
        assert_eq!(
            (view, found),
            (vec![(key(1), 40), (key(2), 60)], (2, false))
        );
    }

    #[test]
    fn shutdown_snapshots_before_withdrawing() {
        let (mut d, mut routes) = daemon(Vec::new(), SNAPSHOT_EVERY);
        d.start(&[], SimTime::ZERO, &mut routes).unwrap_err();
        poll(&mut d, &mut routes, 1, &[(1, 40), (2, 60)]);
        let withdrawn = d.shutdown(SimTime::from_secs(1), &mut routes);
        assert_eq!(withdrawn, vec![key(1), key(2)]);
        assert!(routes.is_empty());
        let state = decode_state(d.storage().unwrap()).unwrap();
        assert!(state.journal.is_empty(), "a fresh snapshot, no journal");
        let (view, _) = restart(d.storage().unwrap(), 2);
        assert_eq!(view, vec![(key(1), 40), (key(2), 60)]);
    }

    #[test]
    fn torn_tail_is_reported_and_the_rest_restores() {
        let (mut d, mut routes) = daemon(Vec::new(), SNAPSHOT_EVERY);
        d.start(&[], SimTime::ZERO, &mut routes).unwrap_err();
        poll(&mut d, &mut routes, 1, &[(1, 40), (2, 60)]);
        poll(
            &mut d,
            &mut routes,
            2,
            &[(1, 40), (2, 60), (3, 50), (4, 30)],
        );
        // A kill -9 mid-append: key 4's record loses its tail.
        let mut bytes = d.take_storage().unwrap();
        bytes.truncate(bytes.len() - 5);

        let (mut b, mut b_routes) = daemon(Vec::new(), SNAPSHOT_EVERY);
        let now = SimTime::from_secs(3);
        assert_eq!(b.start(&bytes, now, &mut b_routes), Ok((3, true)));
        let keys: Vec<Ipv4Prefix> = b.agent().installed_view().keys().copied().collect();
        assert_eq!(keys, vec![key(1), key(2), key(3)]);
        assert_eq!(b_routes.len(), 3);
        // The anchor rewrote the file: the torn record is gone.
        let state = decode_state(b.storage().unwrap()).unwrap();
        assert!(!state.torn_tail && state.journal.is_empty());
    }

    #[test]
    fn empty_or_damaged_bytes_restore_nothing() {
        let (mut d, mut routes) = daemon(Vec::new(), SNAPSHOT_EVERY);
        d.start(&[], SimTime::ZERO, &mut routes).unwrap_err();
        poll(&mut d, &mut routes, 1, &[(1, 40)]);
        let mut damaged = d.take_storage().unwrap();
        damaged[10] ^= 0x40;
        for bytes in [&[][..], &damaged[..]] {
            let (mut b, mut b_routes) = daemon(Vec::new(), SNAPSHOT_EVERY);
            b.start(bytes, SimTime::from_secs(2), &mut b_routes)
                .unwrap_err();
            let agent = b.agent();
            assert!(agent.installed_view().is_empty() && agent.table().is_empty());
            assert!(b_routes.is_empty());
            let cold = RiptideAgent::new(agent.config().clone()).unwrap();
            assert_eq!(agent.stats(), cold.stats());
        }
    }
}
