//! The anti-entropy gossip fabric: who syncs with whom, and when.
//!
//! The *pure* half of fleet sync — digests, bounded deltas, and the
//! newest-wins clamp-merge conflict rule — lives in `riptide::sync`;
//! the agent-side application of a delta is `RiptideAgent::merge_remote`.
//! This module holds the simulation-facing scheduler around them:
//!
//! * **Seeded schedule** — each round, every live host draws `fanout`
//!   peers from a [`DetRng`] forked off the simulation stream. Forking
//!   is pure, so a run with gossip disabled draws the exact same
//!   sequence everywhere else (the digest-neutrality invariant every
//!   optional layer in this repo obeys).
//! * **Digest-first push-pull** — a pair first compares
//!   [`TableDigest`]s (12 bytes each way); deltas only travel when the
//!   digests differ, and each delta is capped at
//!   [`GossipConfig::max_entries`] entries, so message sizes stay
//!   bounded no matter how large tables grow.
//! * **Per-peer backoff** — a peer found down (crashed, mid-restart)
//!   is not re-probed until [`GossipConfig::backoff`] elapses, so a
//!   dead host does not eat the fleet's gossip budget.
//!
//! The fabric never writes a table itself: a round hands each delta to
//! [`RiptideAgent::merge_remote`], which keeps all table mutation on the
//! one code path that honours the no-harm bounds. [`CdnSim`] fires a
//! round at each of its agenda's gossip instants.
//!
//! [`TableDigest`]: riptide::sync::TableDigest
//! [`CdnSim`]: crate::sim::CdnSim

use std::collections::BTreeMap;

use riptide::agent::RiptideAgent;
use riptide::sync::{delta_for, digest_of, SyncConfig, SyncEntry};
use riptide_simnet::prelude::*;

use crate::sim::{ColdstartReport, Host};

/// Tuning for the gossip fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Gossip round interval.
    pub every: SimDuration,
    /// Peers each live host initiates an exchange with per round.
    pub fanout: usize,
    /// Hard cap on entries per shipped delta (bounded message sizes).
    pub max_entries: usize,
    /// How long a peer found down is left alone before being re-tried.
    pub backoff: SimDuration,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            every: SimDuration::from_secs(30),
            fanout: 1,
            max_entries: 256,
            backoff: SimDuration::from_secs(60),
        }
    }
}

impl GossipConfig {
    /// Checks the parameters are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.every == SimDuration::ZERO {
            return Err("gossip interval must be positive".into());
        }
        if self.fanout == 0 {
            return Err("gossip fanout must be at least 1".into());
        }
        if self.max_entries == 0 {
            return Err("gossip max_entries must be at least 1".into());
        }
        Ok(())
    }
}

/// The per-run gossip scheduler: a forked RNG, per-pair freshness
/// stamps, and per-peer backoff clocks.
#[derive(Debug)]
pub struct GossipFabric {
    config: GossipConfig,
    rng: DetRng,
    /// Per unordered pair: when the two hosts last exchanged state —
    /// the `newer_than` bound of the next delta between them.
    last_exchange: BTreeMap<(usize, usize), SimTime>,
    /// Per host: do not initiate an exchange with this peer before
    /// this instant (set when a draw finds the peer down).
    backoff_until: Vec<SimTime>,
    /// Rounds, draws and exchanged entries so far, as the cold-start
    /// report's gossip fields (its other fields stay 0).
    pub(crate) done: ColdstartReport,
}

fn pair_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl GossipFabric {
    /// Builds the fabric for `hosts` hosts, forking its RNG off
    /// `parent` (purely: the parent's own sequence is not advanced).
    pub fn new(config: GossipConfig, parent: &DetRng, hosts: usize) -> Self {
        GossipFabric {
            rng: parent.fork(0x9055_1FAB),
            last_exchange: BTreeMap::new(),
            backoff_until: vec![SimTime::ZERO; hosts],
            done: ColdstartReport::default(),
            config,
        }
    }

    /// Draws this round's exchange pairs: each live host picks
    /// `fanout` uniform peers, skipping itself, peers inside their
    /// backoff window, and pairs already drawn this round. A drawn
    /// peer that turns out to be down is not exchanged with; instead
    /// its backoff clock starts.
    pub fn pairs_for_round(&mut self, now: SimTime, alive: &[bool]) -> Vec<(usize, usize)> {
        self.done.gossip_rounds += 1;
        let n = alive.len();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        if n < 2 {
            return pairs;
        }
        for h in 0..n {
            if !alive[h] {
                continue;
            }
            for _ in 0..self.config.fanout {
                let mut p = self.rng.below(n - 1);
                if p >= h {
                    p += 1;
                }
                if now < self.backoff_until[p] {
                    self.done.gossip_backoff_skips += 1;
                    continue;
                }
                if !alive[p] {
                    self.backoff_until[p] = now + self.config.backoff;
                    self.done.gossip_peers_marked_down += 1;
                    continue;
                }
                let key = pair_key(h, p);
                if pairs.iter().any(|&(a, b)| pair_key(a, b) == key) {
                    continue;
                }
                self.done.gossip_pairs += 1;
                pairs.push((h, p));
            }
        }
        pairs
    }

    /// When `a` and `b` last exchanged state (`SimTime::ZERO` if never)
    /// — the freshness bound for the next delta between them.
    pub fn last_exchange(&self, a: usize, b: usize) -> SimTime {
        self.last_exchange
            .get(&pair_key(a, b))
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Records that `a` and `b` completed an exchange at `now`.
    pub fn record_exchange(&mut self, a: usize, b: usize, now: SimTime) {
        self.last_exchange.insert(pair_key(a, b), now);
    }

    /// One gossip round over the fleet: draw this round's pairs among
    /// the `alive` hosts, compare digests, and ship bounded deltas both
    /// ways where they differ. Returns the gap to the next round.
    pub(crate) fn round(
        &mut self,
        now: SimTime,
        alive: &[bool],
        hosts: &mut [Host],
    ) -> SimDuration {
        let sync_cfg = SyncConfig {
            max_entries: self.config.max_entries,
        };
        for (a, b) in self.pairs_for_round(now, alive) {
            let since = self.last_exchange(a, b);
            self.record_exchange(a, b, now);
            let [ea, eb] = [a, b].map(|h| sync_entries(hosts[h].daemon.agent()));
            if digest_of(&ea) == digest_of(&eb) {
                self.done.digests_matched += 1;
                continue;
            }
            let delta_ab = delta_for(&ea, since, &sync_cfg);
            let delta_ba = delta_for(&eb, since, &sync_cfg);
            self.done.entries_shipped += (delta_ab.entries.len() + delta_ba.entries.len()) as u64;
            for (dst, delta) in [(b, delta_ab), (a, delta_ba)] {
                if delta.entries.is_empty() {
                    continue;
                }
                let Host { daemon, controller } = &mut hosts[dst];
                let accepted = daemon
                    .agent_mut()
                    .merge_remote(&delta.entries, now, controller);
                self.done.entries_accepted += accepted.len() as u64;
            }
        }
        self.config.every
    }
}

/// One host's learned table as sync entries, key-sorted (tables iterate
/// in key order).
fn sync_entries(agent: &RiptideAgent) -> Vec<SyncEntry> {
    let entries = agent.table().iter().map(|(k, e)| SyncEntry {
        key: *k,
        window: e.window,
        last_updated: e.last_updated,
    });
    entries.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(hosts: usize) -> GossipFabric {
        GossipFabric::new(GossipConfig::default(), &DetRng::from_seed(7), hosts)
    }

    #[test]
    fn default_config_validates() {
        assert!(GossipConfig::default().validate().is_ok());
        let bad = GossipConfig {
            fanout: 0,
            ..GossipConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GossipConfig {
            max_entries: 0,
            ..GossipConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GossipConfig {
            every: SimDuration::ZERO,
            ..GossipConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn pair_draws_are_deterministic_and_never_self() {
        let draw = || {
            let mut f = fabric(6);
            f.pairs_for_round(SimTime::from_secs(30), &[true; 6])
        };
        let pairs = draw();
        assert_eq!(pairs, draw(), "same seed, same schedule");
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|&(a, b)| a != b), "no self-gossip");
        // No unordered pair appears twice in one round.
        for (i, &(a, b)) in pairs.iter().enumerate() {
            for &(c, d) in &pairs[i + 1..] {
                assert_ne!(pair_key(a, b), pair_key(c, d));
            }
        }
    }

    #[test]
    fn forking_does_not_advance_the_parent_stream() {
        let rng = DetRng::from_seed(99);
        let mut before = rng.clone();
        let _f = GossipFabric::new(GossipConfig::default(), &rng, 4);
        let mut after = rng.clone();
        assert_eq!(before.next_u64(), after.next_u64());
    }

    #[test]
    fn down_peers_get_backed_off_then_retried() {
        let mut f = fabric(2);
        let mut alive = [true, false];
        // Host 0's only possible peer is 1, which is down: every draw
        // this round marks it down exactly once, then backoff skips.
        let t0 = SimTime::from_secs(30);
        assert!(f.pairs_for_round(t0, &alive).is_empty());
        assert_eq!(f.done.gossip_peers_marked_down, 1);
        // Within the backoff window the peer is not re-probed.
        let t1 = t0 + SimDuration::from_secs(30);
        assert!(f.pairs_for_round(t1, &alive).is_empty());
        assert_eq!(f.done.gossip_peers_marked_down, 1);
        assert_eq!(f.done.gossip_backoff_skips, 1);
        // After backoff elapses and the peer restarts, gossip resumes.
        alive[1] = true;
        let t2 = t0 + SimDuration::from_secs(90);
        assert_eq!(f.pairs_for_round(t2, &alive), vec![(0, 1)]);
    }

    #[test]
    fn exchange_stamps_round_trip() {
        let mut f = fabric(3);
        assert_eq!(f.last_exchange(0, 2), SimTime::ZERO);
        f.record_exchange(2, 0, SimTime::from_secs(60));
        assert_eq!(f.last_exchange(0, 2), SimTime::from_secs(60));
        assert_eq!(f.last_exchange(2, 0), SimTime::from_secs(60), "unordered");
        assert_eq!(f.last_exchange(0, 1), SimTime::ZERO);
    }
}
