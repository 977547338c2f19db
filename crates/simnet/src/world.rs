//! The simulation world: hosts, PoPs, paths, connections and the
//! deterministic event loop that drives them.
//!
//! # Model
//!
//! * Hosts live in PoPs. Every host has one IPv4 address
//!   (`10.<pop_hi>.<pop_lo>.<n>`), so a PoP is a /24 — matching the paper's
//!   "destinations as routes" discussion where a whole PoP can be grouped
//!   under one prefix.
//! * Traffic between PoPs traverses a unidirectional [`Path`] per ordered
//!   PoP pair. All connections between the same PoP pair share that path's
//!   queue, which is what makes observations of *existing* connections
//!   informative about *new* ones — the premise of the paper.
//! * Data segments occupy queue space and may drop; ACKs and handshake
//!   packets are delay-only (see [`crate::packet`]).
//! * When a host opens a connection, the world consults the host's
//!   [`InitcwndPolicy`] — the hook Riptide plugs into, playing the role of
//!   the kernel's per-route `initcwnd` lookup.
//!
//! # Examples
//!
//! ```
//! use riptide_simnet::prelude::*;
//!
//! let mut world = World::new(TcpConfig::default(), 7);
//! let a = world.add_pop();
//! let b = world.add_pop();
//! let h1 = world.add_host(a);
//! let h2 = world.add_host(b);
//! world.set_symmetric_path(a, b, PathConfig::with_delay(SimDuration::from_millis(40)));
//! let conn = world.open_connection(h1, h2);
//! world.start_transfer(conn, 100_000);
//! world.run_until(SimTime::from_secs(10));
//! let done = world.drain_completed();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].completion_time() > SimDuration::from_millis(80));
//! ```

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use crate::config::TcpConfig;
use crate::conn::{ActiveTransfer, ConnState, Connection, PendingTransfer};
use crate::event::EventQueue;
use crate::ids::{ConnId, HostId, PathId, PopId, TransferId};
use crate::link::{Admission, Path, PathConfig, PathStats};
use crate::packet::{Ack, Control, Segment};
use crate::rng::DetRng;
use crate::stats::{ConnStats, TransferRecord, WorldStats};
use crate::tcp::sender::Outgoing;
use crate::time::{SimDuration, SimTime};
use crate::trace::{ConnTrace, TraceEvent};

/// Decides the initial congestion window for new connections from a host.
///
/// This is the seam between the substrate and Riptide: in Linux the kernel
/// looks up the route to the destination and uses its `initcwnd` attribute;
/// here the world asks the host's policy. Returning `None` falls back to
/// the stack default ([`TcpConfig::initial_cwnd`]).
pub trait InitcwndPolicy {
    /// The initial window for a new connection from `src` to `dst_addr`,
    /// in segments, or `None` for the default.
    fn initial_cwnd(&self, src: HostId, dst_addr: Ipv4Addr) -> Option<u32>;
}

#[derive(Debug)]
struct Host {
    pop: PopId,
    addr: Ipv4Addr,
    open_conns: Vec<ConnId>,
    policy: Option<Rc<dyn InitcwndPolicy>>,
    /// Per-destination cached slow-start threshold (Linux `tcp_metrics`).
    metrics: HashMap<Ipv4Addr, u32>,
}

impl std::fmt::Debug for dyn InitcwndPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InitcwndPolicy")
    }
}

#[derive(Debug)]
struct Pop {
    hosts: Vec<HostId>,
}

#[derive(Debug)]
enum Event {
    Segment(Segment),
    AckPkt(Ack),
    Ctl(Control),
    Rto { conn: ConnId, epoch: u64 },
    DelAck { conn: ConnId, epoch: u64 },
}

/// The simulation: entity storage plus the event loop.
#[derive(Debug)]
pub struct World {
    cfg: TcpConfig,
    rng: DetRng,
    now: SimTime,
    queue: EventQueue<Event>,
    pops: Vec<Pop>,
    hosts: Vec<Host>,
    conns: Vec<Connection>,
    path_index: HashMap<(PopId, PopId), PathId>,
    paths: Vec<Path>,
    completed: Vec<TransferRecord>,
    next_transfer: u64,
    stats: WorldStats,
    traces: HashMap<ConnId, ConnTrace>,
    /// Reusable buffer for draining sender outboxes in [`World::flush`];
    /// kept across events so the hot path stops allocating once warm.
    outbox_scratch: Vec<Outgoing>,
}

impl World {
    /// Creates an empty world with the given TCP stack configuration and
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`TcpConfig::validate`].
    pub fn new(cfg: TcpConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid tcp config: {e}");
        }
        World {
            cfg,
            rng: DetRng::from_seed(seed),
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            pops: Vec::new(),
            hosts: Vec::new(),
            conns: Vec::new(),
            path_index: HashMap::new(),
            paths: Vec::new(),
            completed: Vec::new(),
            next_transfer: 0,
            stats: WorldStats::default(),
            traces: HashMap::new(),
            outbox_scratch: Vec::new(),
        }
    }

    /// Starts recording wire-level events for `conn` (see
    /// [`crate::trace`]).
    pub fn enable_trace(&mut self, conn: ConnId) {
        self.traces.entry(conn).or_default();
    }

    /// The trace recorded for `conn` so far, if tracing is enabled.
    pub fn trace(&self, conn: ConnId) -> Option<&ConnTrace> {
        self.traces.get(&conn)
    }

    fn trace_push(&mut self, conn: ConnId, event: TraceEvent) {
        // Tracing is off in every large-scale run; skip the hash lookup.
        if self.traces.is_empty() {
            return;
        }
        if let Some(t) = self.traces.get_mut(&conn) {
            t.push(event);
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The stack configuration this world runs.
    pub fn tcp_config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// World-wide counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Adds a PoP and returns its id.
    ///
    /// # Panics
    ///
    /// Panics after 65 536 PoPs (the 10.x.y.0/24 addressing plan is full).
    pub fn add_pop(&mut self) -> PopId {
        let id = PopId::from_index(self.pops.len() as u32);
        assert!(self.pops.len() < 65_536, "PoP addressing plan exhausted");
        self.pops.push(Pop { hosts: Vec::new() });
        id
    }

    /// Adds a host to `pop` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the PoP already holds 254 hosts (its /24 is full) or
    /// `pop` does not exist.
    pub fn add_host(&mut self, pop: PopId) -> HostId {
        let n = self.pops[pop.index()].hosts.len();
        assert!(n < 254, "PoP {pop} /24 exhausted");
        let id = HostId::from_index(self.hosts.len() as u32);
        let addr = Ipv4Addr::new(
            10,
            (pop.index() / 256) as u8,
            (pop.index() % 256) as u8,
            (n + 1) as u8,
        );
        self.hosts.push(Host {
            pop,
            addr,
            open_conns: Vec::new(),
            policy: None,
            metrics: HashMap::new(),
        });
        self.pops[pop.index()].hosts.push(id);
        id
    }

    /// The address of `host`.
    pub fn host_addr(&self, host: HostId) -> Ipv4Addr {
        self.hosts[host.index()].addr
    }

    /// The PoP containing `host`.
    pub fn pop_of(&self, host: HostId) -> PopId {
        self.hosts[host.index()].pop
    }

    /// The hosts of `pop`, in creation order.
    pub fn hosts_in_pop(&self, pop: PopId) -> &[HostId] {
        &self.pops[pop.index()].hosts
    }

    /// Number of PoPs.
    pub fn pop_count(&self) -> usize {
        self.pops.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The /24 network address covering all hosts of `pop`.
    pub fn pop_prefix(&self, pop: PopId) -> (Ipv4Addr, u8) {
        (
            Ipv4Addr::new(10, (pop.index() / 256) as u8, (pop.index() % 256) as u8, 0),
            24,
        )
    }

    /// Installs (or replaces) the unidirectional path `src → dst`.
    pub fn set_path(&mut self, src: PopId, dst: PopId, config: PathConfig) {
        let stream = (src.index() as u64) << 20 | dst.index() as u64;
        let rng = self.rng.fork(0x7061_7468 ^ stream);
        match self.path_index.get(&(src, dst)) {
            Some(&pid) => self.paths[pid.index()] = Path::new(config, rng),
            None => {
                let pid = PathId::from_index(self.paths.len() as u32);
                self.paths.push(Path::new(config, rng));
                self.path_index.insert((src, dst), pid);
            }
        }
    }

    /// Installs the same configuration in both directions between two PoPs.
    pub fn set_symmetric_path(&mut self, a: PopId, b: PopId, config: PathConfig) {
        self.set_path(a, b, config.clone());
        self.set_path(b, a, config);
    }

    /// Replaces the impairments of an existing path, keeping its backlog.
    ///
    /// # Panics
    ///
    /// Panics if no path `src → dst` exists.
    pub fn reconfigure_path(&mut self, src: PopId, dst: PopId, config: PathConfig) {
        let pid = self.path_index[&(src, dst)];
        self.paths[pid.index()].reconfigure(config);
    }

    /// Counters for the path `src → dst`, if it exists.
    pub fn path_stats(&self, src: PopId, dst: PopId) -> Option<PathStats> {
        self.path_index
            .get(&(src, dst))
            .map(|pid| self.paths[pid.index()].stats())
    }

    /// The configuration of the path `src → dst`, if it exists.
    pub fn path_config(&self, src: PopId, dst: PopId) -> Option<&PathConfig> {
        self.path_index
            .get(&(src, dst))
            .map(|pid| self.paths[pid.index()].config())
    }

    /// Sets the initial-congestion-window policy for a host (Riptide's
    /// hook). Passing policies shared via `Rc` lets an external agent
    /// mutate the backing table between events.
    pub fn set_host_policy(&mut self, host: HostId, policy: Rc<dyn InitcwndPolicy>) {
        self.hosts[host.index()].policy = Some(policy);
    }

    /// Removes the host's policy, restoring stack defaults.
    pub fn clear_host_policy(&mut self, host: HostId) {
        self.hosts[host.index()].policy = None;
    }

    // ------------------------------------------------------------------
    // Connections and transfers
    // ------------------------------------------------------------------

    /// Opens a TCP connection from `src` to `dst`, returning immediately
    /// with its id; the handshake completes one RTT later. The initial
    /// congestion window comes from the host's policy, defaulting to
    /// [`TcpConfig::initial_cwnd`].
    ///
    /// # Panics
    ///
    /// Panics if no path exists between the hosts' PoPs.
    pub fn open_connection(&mut self, src: HostId, dst: HostId) -> ConnId {
        let src_pop = self.hosts[src.index()].pop;
        let dst_pop = self.hosts[dst.index()].pop;
        assert!(
            self.path_index.contains_key(&(src_pop, dst_pop))
                && self.path_index.contains_key(&(dst_pop, src_pop)),
            "no path between {src_pop} and {dst_pop}"
        );
        let src_addr = self.hosts[src.index()].addr;
        let dst_addr = self.hosts[dst.index()].addr;
        let iw = self.hosts[src.index()]
            .policy
            .as_ref()
            .and_then(|p| p.initial_cwnd(src, dst_addr))
            .unwrap_or(self.cfg.initial_cwnd)
            .max(1);
        let initial_ssthresh = if self.cfg.metrics_cache {
            self.hosts[src.index()]
                .metrics
                .get(&dst_addr)
                .copied()
                .unwrap_or(self.cfg.initial_ssthresh)
        } else {
            self.cfg.initial_ssthresh
        };
        let id = ConnId::from_index(self.conns.len() as u64);
        let fwd_path = self.path_index[&(src_pop, dst_pop)];
        let rev_path = self.path_index[&(dst_pop, src_pop)];
        let conn = Connection::new(
            id,
            src,
            dst,
            src_pop,
            dst_pop,
            fwd_path,
            rev_path,
            src_addr,
            dst_addr,
            iw,
            initial_ssthresh,
            &self.cfg,
            self.now,
        );
        self.conns.push(conn);
        self.hosts[src.index()].open_conns.push(id);
        self.stats.connections_opened += 1;
        // SYN travels to the peer; SYN-ACK comes back (handshake packets
        // are delay-only and lossless, see crate docs).
        if let Some(arrival) = self.paths[fwd_path.index()].admit_control(self.now, false) {
            self.queue
                .schedule(arrival, Event::Ctl(Control::Syn { conn: id }));
        }
        id
    }

    /// Starts a transfer of `bytes` from the connection's source to its
    /// destination. Data is queued behind any transfer already in
    /// progress; if the handshake is still pending the transfer waits for
    /// it. Zero-byte transfers complete immediately.
    ///
    /// # Panics
    ///
    /// Panics if the connection is closed.
    pub fn start_transfer(&mut self, conn: ConnId, bytes: u64) -> TransferId {
        let tid = TransferId::from_index(self.next_transfer);
        self.next_transfer += 1;
        let state = self.conns[conn.index()].state;
        assert!(
            state != ConnState::Closed,
            "cannot transfer on closed {conn}"
        );
        if bytes == 0 {
            let c = &self.conns[conn.index()];
            let rec = TransferRecord {
                transfer: tid,
                conn,
                src: c.src,
                dst: c.dst,
                src_pop: c.src_pop,
                dst_pop: c.dst_pop,
                bytes: 0,
                requested_at: self.now,
                started_at: self.now,
                completed_at: self.now,
                fresh_connection: false,
                initial_cwnd: c.initial_cwnd,
            };
            self.completed.push(rec);
            self.stats.transfers_completed += 1;
            return tid;
        }
        match state {
            ConnState::Connecting => {
                self.conns[conn.index()].pending.push_back(PendingTransfer {
                    id: tid,
                    bytes,
                    requested_at: self.now,
                });
            }
            ConnState::Established => {
                // Linux `tcp_cwnd_restart` re-reads the route's current
                // initcwnd when restarting an idle connection; mirror that
                // by refreshing the sender's restart window from the
                // host's policy before the transfer begins.
                let (src, dst_addr) = {
                    let c = &self.conns[conn.index()];
                    (c.src, c.dst_addr)
                };
                let restart = self.hosts[src.index()]
                    .policy
                    .as_ref()
                    .and_then(|p| p.initial_cwnd(src, dst_addr))
                    .unwrap_or(self.cfg.initial_cwnd);
                self.conns[conn.index()]
                    .sender
                    .set_idle_restart_window(restart);
                self.begin_transfer(conn, tid, bytes, self.now, false);
                self.flush(conn);
            }
            ConnState::Closed => unreachable!(),
        }
        tid
    }

    /// Opens a connection and immediately starts a transfer on it —
    /// the "no idle connection available" case of the paper's probe
    /// infrastructure. The resulting [`TransferRecord`] is marked
    /// `fresh_connection`.
    pub fn open_and_transfer(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: u64,
    ) -> (ConnId, TransferId) {
        let conn = self.open_connection(src, dst);
        let tid = self.start_transfer(conn, bytes);
        (conn, tid)
    }

    fn begin_transfer(
        &mut self,
        conn: ConnId,
        tid: TransferId,
        bytes: u64,
        requested_at: SimTime,
        fresh: bool,
    ) {
        let segs = self.cfg.segments_for(bytes);
        let c = &mut self.conns[conn.index()];
        let end_seq = c.sender.stream_end() + segs;
        c.active.push_back(ActiveTransfer {
            id: tid,
            bytes,
            end_seq,
            requested_at,
            started_at: self.now,
            fresh_connection: fresh,
        });
        c.sender.write(segs, self.now);
    }

    /// Closes a connection. In-flight and queued transfers are abandoned
    /// without records, mirroring an application-level reset (§II-A's
    /// "unmanageable error cases").
    pub fn close_connection(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn.index()];
        if c.state == ConnState::Closed {
            return;
        }
        c.state = ConnState::Closed;
        c.pending.clear();
        c.active.clear();
        let src = c.src;
        self.hosts[src.index()].open_conns.retain(|&k| k != conn);
    }

    /// Closes every live connection touching `host`, in both directions
    /// — what a machine restart does to its TCP state (and to the far
    /// ends of its peers' connections). In-flight transfers are
    /// abandoned without records, like [`World::close_connection`].
    /// Returns how many connections were closed.
    pub fn reset_host_connections(&mut self, host: HostId) -> usize {
        let ids: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|c| c.state != ConnState::Closed && (c.src == host || c.dst == host))
            .map(|c| c.id)
            .collect();
        let n = ids.len();
        for cid in ids {
            self.close_connection(cid);
        }
        n
    }

    /// Finds an established, idle connection from `src` to `dst`
    /// (oldest first), for the paper's reuse-if-possible probe behaviour.
    pub fn find_idle_connection(&self, src: HostId, dst: HostId) -> Option<ConnId> {
        self.hosts[src.index()]
            .open_conns
            .iter()
            .copied()
            .find(|&cid| {
                let c = &self.conns[cid.index()];
                c.dst == dst && c.is_idle()
            })
    }

    /// Whether a connection is established and idle.
    pub fn conn_is_idle(&self, conn: ConnId) -> bool {
        self.conns[conn.index()].is_idle()
    }

    /// The lifecycle state of a connection.
    pub fn conn_state(&self, conn: ConnId) -> ConnState {
        self.conns[conn.index()].state
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// An `ss -i`-style snapshot of one connection.
    pub fn conn_stats(&self, conn: ConnId) -> ConnStats {
        let c = &self.conns[conn.index()];
        ConnStats {
            conn: c.id,
            src: c.src,
            dst: c.dst,
            src_addr: c.src_addr,
            dst_addr: c.dst_addr,
            state: c.state,
            cwnd: c.sender.cwnd_segments(),
            ssthresh: c.sender.ssthresh_segments(),
            srtt: c.sender.srtt(),
            bytes_acked: c.sender.cum_acked() * self.cfg.mss as u64,
            retransmits: c.sender.retransmits_total(),
            ece_reductions: c.sender.ece_reductions_total(),
            initial_cwnd: c.initial_cwnd,
            opened_at: c.opened_at,
            established_at: c.established_at,
        }
    }

    /// Snapshots of every non-closed connection originating at `host` —
    /// what `ss` would print there.
    pub fn host_conn_stats(&self, host: HostId) -> Vec<ConnStats> {
        self.hosts[host.index()]
            .open_conns
            .iter()
            .map(|&cid| self.conn_stats(cid))
            .collect()
    }

    /// Visits the same snapshots as [`World::host_conn_stats`] without
    /// materialising the intermediate `Vec` — the streaming form the
    /// per-tick `ss` pollers use.
    pub fn each_host_conn_stat(&self, host: HostId, mut f: impl FnMut(ConnStats)) {
        for &cid in &self.hosts[host.index()].open_conns {
            f(self.conn_stats(cid));
        }
    }

    /// Drains the records of transfers completed since the last call.
    pub fn drain_completed(&mut self) -> Vec<TransferRecord> {
        std::mem::take(&mut self.completed)
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    pub fn run_until(&mut self, deadline: SimTime) {
        assert!(deadline >= self.now, "cannot run backwards");
        while let Some((t, ev)) = self.queue.pop_before(deadline) {
            self.now = t;
            self.dispatch(ev);
        }
        self.now = deadline;
    }

    /// Runs until the event queue is empty (all in-flight work settles).
    pub fn run_to_quiescence(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            self.dispatch(ev);
        }
    }

    /// Number of pending events (for tests and benchmarks).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn dispatch(&mut self, ev: Event) {
        self.stats.events_processed += 1;
        match ev {
            Event::Segment(seg) => self.on_segment(seg),
            Event::AckPkt(ack) => self.on_ack(ack),
            Event::Ctl(ctl) => self.on_control(ctl),
            Event::Rto { conn, epoch } => self.on_rto(conn, epoch),
            Event::DelAck { conn, epoch } => self.on_delack(conn, epoch),
        }
    }

    fn on_segment(&mut self, seg: Segment) {
        if self.conns[seg.conn.index()].state == ConnState::Closed {
            return;
        }
        self.stats.segments_delivered += 1;
        self.trace_push(
            seg.conn,
            TraceEvent::SegmentDelivered {
                at: self.now,
                seq: seg.seq,
            },
        );
        match self.conns[seg.conn.index()]
            .receiver
            .on_segment_ecn(seg.seq, seg.ecn)
        {
            crate::tcp::receiver::AckDecision::Immediate(ack) => {
                self.send_ack_back(seg.conn, ack);
            }
            crate::tcp::receiver::AckDecision::Deferred { epoch } => {
                self.queue.schedule(
                    self.now + self.cfg.delayed_ack_timeout,
                    Event::DelAck {
                        conn: seg.conn,
                        epoch,
                    },
                );
            }
        }
    }

    fn on_delack(&mut self, conn: ConnId, epoch: u64) {
        if self.conns[conn.index()].state == ConnState::Closed {
            return;
        }
        if let Some(ack) = self.conns[conn.index()].receiver.on_delack_timer(epoch) {
            self.send_ack_back(conn, ack);
        }
    }

    /// Sends an acknowledgement over the reverse path (delay-only).
    fn send_ack_back(&mut self, conn: ConnId, ack: Ack) {
        let pid = self.conns[conn.index()].rev_path;
        if let Some(arrival) = self.paths[pid.index()].admit_control(self.now, false) {
            self.queue.schedule(arrival, Event::AckPkt(ack));
        }
    }

    fn on_ack(&mut self, ack: Ack) {
        let conn = ack.conn;
        if self.conns[conn.index()].state == ConnState::Closed {
            return;
        }
        self.stats.acks_delivered += 1;
        self.conns[conn.index()].sender.on_ack(ack, self.now);
        if !self.traces.is_empty() && self.traces.contains_key(&conn) {
            let cwnd_after = self.conns[conn.index()].sender.cwnd_segments();
            self.trace_push(
                conn,
                TraceEvent::AckDelivered {
                    at: self.now,
                    cum_ack: ack.cum_ack,
                    cwnd_after,
                },
            );
        }
        self.flush(conn);
        self.record_completions(conn);
    }

    fn on_control(&mut self, ctl: Control) {
        match ctl {
            Control::Syn { conn } => {
                if self.conns[conn.index()].state == ConnState::Closed {
                    return;
                }
                let pid = self.conns[conn.index()].rev_path;
                if let Some(arrival) = self.paths[pid.index()].admit_control(self.now, false) {
                    self.queue
                        .schedule(arrival, Event::Ctl(Control::SynAck { conn }));
                }
            }
            Control::SynAck { conn } => {
                if self.conns[conn.index()].state == ConnState::Closed {
                    return;
                }
                {
                    let c = &mut self.conns[conn.index()];
                    c.state = ConnState::Established;
                    c.established_at = Some(self.now);
                }
                self.trace_push(conn, TraceEvent::Established { at: self.now });
                // Release transfers that were waiting on the handshake;
                // the first of them is the fresh-connection transfer.
                let mut released = 0usize;
                while let Some(p) = self.conns[conn.index()].pending.pop_front() {
                    self.begin_transfer(conn, p.id, p.bytes, p.requested_at, released == 0);
                    released += 1;
                }
                self.flush(conn);
            }
        }
    }

    fn on_rto(&mut self, conn: ConnId, epoch: u64) {
        if self.conns[conn.index()].state == ConnState::Closed {
            return;
        }
        if self.conns[conn.index()].sender.on_rto_fire(epoch, self.now) {
            self.trace_push(conn, TraceEvent::RtoFired { at: self.now });
        }
        self.flush(conn);
    }

    /// Moves the sender's queued work onto the wire and into the timer
    /// queue.
    fn flush(&mut self, conn: ConnId) {
        let (pid, wire_bytes) = {
            let c = &self.conns[conn.index()];
            (c.fwd_path, self.cfg.wire_bytes())
        };
        let ecn_capable = self.cfg.ecn;
        let mut outbox = std::mem::take(&mut self.outbox_scratch);
        outbox.clear();
        self.conns[conn.index()]
            .sender
            .drain_outbox_into(&mut outbox);
        if !outbox.is_empty() {
            let path = &mut self.paths[pid.index()];
            let tracing = !self.traces.is_empty() && self.traces.contains_key(&conn);
            let mut trace_events = Vec::new();
            for &out in &outbox {
                if out.retransmit {
                    self.stats.retransmits += 1;
                }
                if tracing {
                    trace_events.push(TraceEvent::SegmentSent {
                        at: self.now,
                        seq: out.seq,
                        retransmit: out.retransmit,
                    });
                }
                match path.admit_ect(self.now, wire_bytes, ecn_capable) {
                    Admission::Deliver { arrival, ecn } => {
                        self.queue.schedule(
                            arrival,
                            Event::Segment(Segment {
                                conn,
                                seq: out.seq,
                                wire_bytes,
                                retransmit: out.retransmit,
                                ecn,
                            }),
                        );
                    }
                    Admission::LostRandom => {
                        // Dropped; the sender recovers via dup-acks or RTO.
                        if tracing {
                            trace_events.push(TraceEvent::SegmentDropped {
                                at: self.now,
                                seq: out.seq,
                                overflow: false,
                            });
                        }
                    }
                    Admission::LostOverflow | Admission::LostAqm => {
                        if tracing {
                            trace_events.push(TraceEvent::SegmentDropped {
                                at: self.now,
                                seq: out.seq,
                                overflow: true,
                            });
                        }
                    }
                }
            }
            for e in trace_events {
                self.trace_push(conn, e);
            }
        }
        outbox.clear();
        self.outbox_scratch = outbox;
        if let Some(req) = self.conns[conn.index()].sender.take_timer_request() {
            self.queue.schedule(
                req.deadline,
                Event::Rto {
                    conn,
                    epoch: req.epoch,
                },
            );
        }
        if let Some(ssthresh) = self.conns[conn.index()].sender.take_ssthresh_update() {
            if self.cfg.metrics_cache {
                let (src, dst_addr) = {
                    let c = &self.conns[conn.index()];
                    (c.src, c.dst_addr)
                };
                self.hosts[src.index()].metrics.insert(dst_addr, ssthresh);
            }
        }
    }

    /// The cached destination metric (`tcp_metrics` ssthresh) a host
    /// holds for `dst_addr`, if any.
    pub fn cached_ssthresh(&self, host: HostId, dst_addr: Ipv4Addr) -> Option<u32> {
        self.hosts[host.index()].metrics.get(&dst_addr).copied()
    }

    fn record_completions(&mut self, conn: ConnId) {
        loop {
            let rec = {
                let c = &mut self.conns[conn.index()];
                match c.active.front() {
                    Some(front) if c.sender.cum_acked() >= front.end_seq => {
                        let t = *front;
                        c.active.pop_front();
                        TransferRecord {
                            transfer: t.id,
                            conn,
                            src: c.src,
                            dst: c.dst,
                            src_pop: c.src_pop,
                            dst_pop: c.dst_pop,
                            bytes: t.bytes,
                            requested_at: t.requested_at,
                            started_at: t.started_at,
                            completed_at: self.now,
                            fresh_connection: t.fresh_connection,
                            initial_cwnd: c.initial_cwnd,
                        }
                    }
                    _ => break,
                }
            };
            self.trace_push(
                conn,
                TraceEvent::TransferCompleted {
                    at: self.now,
                    bytes: rec.bytes,
                },
            );
            self.completed.push(rec);
            self.stats.transfers_completed += 1;
        }
    }
}

/// Convenience seconds-based duration literal used across tests.
pub fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pop_world(delay_ms: u64) -> (World, HostId, HostId) {
        let mut w = World::new(TcpConfig::default(), 42);
        let a = w.add_pop();
        let b = w.add_pop();
        let h1 = w.add_host(a);
        let h2 = w.add_host(b);
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(delay_ms)),
        );
        (w, h1, h2)
    }

    #[test]
    fn addressing_plan() {
        let mut w = World::new(TcpConfig::default(), 1);
        let p0 = w.add_pop();
        let p1 = w.add_pop();
        let h0 = w.add_host(p0);
        let h1 = w.add_host(p0);
        let h2 = w.add_host(p1);
        assert_eq!(w.host_addr(h0), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(w.host_addr(h1), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(w.host_addr(h2), Ipv4Addr::new(10, 0, 1, 1));
        assert_eq!(w.pop_prefix(p1), (Ipv4Addr::new(10, 0, 1, 0), 24));
        assert_eq!(w.pop_of(h1), p0);
        assert_eq!(w.hosts_in_pop(p0), &[h0, h1]);
    }

    #[test]
    fn handshake_takes_one_rtt() {
        let (mut w, h1, h2) = two_pop_world(50);
        let conn = w.open_connection(h1, h2);
        assert_eq!(w.conn_state(conn), ConnState::Connecting);
        w.run_until(SimTime::from_millis(99));
        assert_eq!(w.conn_state(conn), ConnState::Connecting);
        w.run_until(SimTime::from_millis(101));
        assert_eq!(w.conn_state(conn), ConnState::Established);
    }

    #[test]
    fn run_until_before_the_first_event_pops_nothing_and_later_opens_go_first() {
        let mut w = World::new(TcpConfig::default(), 42);
        let (a, b, c) = (w.add_pop(), w.add_pop(), w.add_pop());
        let (ha, hb, hc) = (w.add_host(a), w.add_host(b), w.add_host(c));
        w.set_symmetric_path(a, b, PathConfig::with_delay(SimDuration::from_millis(500)));
        w.set_symmetric_path(a, c, PathConfig::with_delay(SimDuration::from_millis(5)));
        let slow = w.open_connection(ha, hb);
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.stats().events_processed, 0);
        assert_eq!(w.pending_events(), 1);
        assert_eq!(w.now(), SimTime::from_millis(100));
        // Issued at the new `now`, this SYN is earlier than everything
        // pending.
        let fast = w.open_connection(ha, hc);
        w.run_until(SimTime::from_millis(106));
        assert_eq!(w.stats().events_processed, 1, "the fast SYN, alone");
        w.run_until(SimTime::from_millis(111));
        assert_eq!(w.conn_state(fast), ConnState::Established);
        assert_eq!(w.conn_state(slow), ConnState::Connecting);
        w.run_to_quiescence();
        assert_eq!(w.conn_state(slow), ConnState::Established);
    }

    #[test]
    fn small_transfer_completes_in_two_rtts_fresh() {
        // 10 KB fits in the default initial window: 1 RTT handshake +
        // 1 RTT data (plus serialization epsilon).
        let (mut w, h1, h2) = two_pop_world(50);
        let (_, _) = w.open_and_transfer(h1, h2, 10_000);
        w.run_until(SimTime::from_secs(5));
        let recs = w.drain_completed();
        assert_eq!(recs.len(), 1);
        let ct = recs[0].completion_time().as_millis_f64();
        assert!((200.0..215.0).contains(&ct), "completion {ct}ms");
        assert!(recs[0].fresh_connection);
    }

    #[test]
    fn file_larger_than_initcwnd_needs_extra_rtts() {
        // 100 KB = 70 segments; iw=10 grows 10,20,40 -> 3 data RTTs.
        let (mut w, h1, h2) = two_pop_world(50);
        w.open_and_transfer(h1, h2, 100_000);
        w.run_until(SimTime::from_secs(5));
        let recs = w.drain_completed();
        let ct = recs[0].completion_time().as_millis_f64();
        assert!((400.0..430.0).contains(&ct), "completion {ct}ms");
    }

    #[test]
    fn larger_initcwnd_cuts_rtts() {
        struct Fixed(u32);
        impl InitcwndPolicy for Fixed {
            fn initial_cwnd(&self, _src: HostId, _dst: Ipv4Addr) -> Option<u32> {
                Some(self.0)
            }
        }
        let (mut w, h1, h2) = two_pop_world(50);
        w.set_host_policy(h1, Rc::new(Fixed(100)));
        w.open_and_transfer(h1, h2, 100_000);
        w.run_until(SimTime::from_secs(5));
        let recs = w.drain_completed();
        let ct = recs[0].completion_time().as_millis_f64();
        // 1 RTT handshake + 1 RTT data.
        assert!((200.0..225.0).contains(&ct), "completion {ct}ms");
        assert_eq!(recs[0].initial_cwnd, 100);
    }

    #[test]
    fn policy_none_falls_back_to_default() {
        struct Never;
        impl InitcwndPolicy for Never {
            fn initial_cwnd(&self, _src: HostId, _dst: Ipv4Addr) -> Option<u32> {
                None
            }
        }
        let (mut w, h1, h2) = two_pop_world(10);
        w.set_host_policy(h1, Rc::new(Never));
        let conn = w.open_connection(h1, h2);
        assert_eq!(w.conn_stats(conn).initial_cwnd, 10);
    }

    #[test]
    fn reused_connection_skips_handshake_and_keeps_window() {
        let (mut w, h1, h2) = two_pop_world(50);
        let (conn, _) = w.open_and_transfer(h1, h2, 100_000);
        w.run_until(SimTime::from_secs(5));
        w.drain_completed();
        assert!(w.conn_is_idle(conn));
        let grown = w.conn_stats(conn).cwnd;
        assert!(grown > 10, "window grew to {grown}");
        // Reuse: second transfer is faster (no handshake, big window).
        w.start_transfer(conn, 100_000);
        w.run_until(SimTime::from_secs(10));
        let recs = w.drain_completed();
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].fresh_connection);
        let ct = recs[0].completion_time().as_millis_f64();
        assert!(ct < 220.0, "reuse completion {ct}ms");
    }

    #[test]
    fn find_idle_connection_semantics() {
        let (mut w, h1, h2) = two_pop_world(10);
        assert_eq!(w.find_idle_connection(h1, h2), None);
        let (conn, _) = w.open_and_transfer(h1, h2, 10_000);
        assert_eq!(w.find_idle_connection(h1, h2), None, "busy conn not idle");
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.find_idle_connection(h1, h2), Some(conn));
        w.close_connection(conn);
        assert_eq!(w.find_idle_connection(h1, h2), None);
    }

    #[test]
    fn close_drops_future_events() {
        let (mut w, h1, h2) = two_pop_world(50);
        let (conn, _) = w.open_and_transfer(h1, h2, 500_000);
        w.run_until(SimTime::from_millis(150));
        w.close_connection(conn);
        w.run_to_quiescence();
        assert!(
            w.drain_completed().is_empty(),
            "no record for aborted transfer"
        );
        assert!(w.host_conn_stats(h1).is_empty());
    }

    #[test]
    fn transfers_queue_fifo_on_one_connection() {
        let (mut w, h1, h2) = two_pop_world(20);
        let conn = w.open_connection(h1, h2);
        let t1 = w.start_transfer(conn, 50_000);
        let t2 = w.start_transfer(conn, 50_000);
        w.run_until(SimTime::from_secs(5));
        let recs = w.drain_completed();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].transfer, t1);
        assert_eq!(recs[1].transfer, t2);
        assert!(recs[0].completed_at <= recs[1].completed_at);
        assert!(recs[0].fresh_connection && !recs[1].fresh_connection);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let (mut w, h1, h2) = two_pop_world(20);
        let conn = w.open_connection(h1, h2);
        w.start_transfer(conn, 0);
        let recs = w.drain_completed();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].completion_time(), SimDuration::ZERO);
    }

    #[test]
    fn lossy_path_still_completes_with_retransmits() {
        let mut w = World::new(TcpConfig::default(), 7);
        let a = w.add_pop();
        let b = w.add_pop();
        let h1 = w.add_host(a);
        let h2 = w.add_host(b);
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(30)).loss(0.05),
        );
        for _ in 0..10 {
            w.open_and_transfer(h1, h2, 100_000);
        }
        w.run_until(SimTime::from_secs(60));
        let recs = w.drain_completed();
        assert_eq!(recs.len(), 10, "all transfers complete despite loss");
    }

    #[test]
    fn sock_stats_reflect_live_windows() {
        let (mut w, h1, h2) = two_pop_world(30);
        let (conn, _) = w.open_and_transfer(h1, h2, 300_000);
        w.run_until(SimTime::from_secs(5));
        let stats = w.host_conn_stats(h1);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].conn, conn);
        assert!(stats[0].cwnd > 10);
        assert!(stats[0].srtt.is_some());
        assert!(stats[0].bytes_acked >= 300_000);
        let srtt = stats[0].srtt.unwrap().as_millis_f64();
        assert!((55.0..80.0).contains(&srtt), "srtt {srtt}ms");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut w = World::new(TcpConfig::default(), seed);
            let a = w.add_pop();
            let b = w.add_pop();
            let h1 = w.add_host(a);
            let h2 = w.add_host(b);
            w.set_symmetric_path(
                a,
                b,
                PathConfig::with_delay(SimDuration::from_millis(40)).loss(0.02),
            );
            for _ in 0..20 {
                w.open_and_transfer(h1, h2, 80_000);
            }
            w.run_until(SimTime::from_secs(30));
            w.drain_completed()
                .iter()
                .map(|r| r.completed_at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds see different loss");
    }

    #[test]
    fn sack_beats_newreno_under_heavy_loss_statistically() {
        // At 8% loss, individual transfers are RTO lotteries: per-seed
        // outcomes are noisy. Across seeds, SACK's multi-hole recovery
        // must win the majority and the aggregate.
        let run = |sack: bool, seed: u64| {
            let cfg = TcpConfig {
                sack,
                ..TcpConfig::default()
            };
            let mut w = World::new(cfg, seed);
            let a = w.add_pop();
            let b = w.add_pop();
            let h1 = w.add_host(a);
            let h2 = w.add_host(b);
            w.set_symmetric_path(
                a,
                b,
                PathConfig::with_delay(SimDuration::from_millis(50)).loss(0.08),
            );
            let mut total = 0.0;
            for i in 0..15u64 {
                let (conn, _) = w.open_and_transfer(h1, h2, 150_000);
                w.run_until(SimTime::from_secs((i + 1) * 60));
                let recs = w.drain_completed();
                assert_eq!(recs.len(), 1, "sack={sack} seed={seed}: transfer completes");
                total += recs[0].completion_time().as_secs_f64();
                w.close_connection(conn);
            }
            total
        };
        let mut wins = 0;
        let mut total_newreno = 0.0;
        let mut total_sack = 0.0;
        const SEEDS: u64 = 10;
        for seed in 0..SEEDS {
            let nr = run(false, seed);
            let sk = run(true, seed);
            total_newreno += nr;
            total_sack += sk;
            if sk <= nr {
                wins += 1;
            }
        }
        assert!(
            wins * 2 > SEEDS as usize,
            "SACK wins a majority of seeds: {wins}/{SEEDS}"
        );
        assert!(
            total_sack < total_newreno,
            "SACK wins in aggregate: {total_sack:.1}s vs {total_newreno:.1}s"
        );
    }

    #[test]
    fn traces_record_the_full_transfer_story() {
        use crate::trace::TraceEvent;
        let mut w = World::new(TcpConfig::default(), 77);
        let a = w.add_pop();
        let b = w.add_pop();
        let h1 = w.add_host(a);
        let h2 = w.add_host(b);
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(30)).loss(0.1),
        );
        let conn = w.open_connection(h1, h2);
        w.enable_trace(conn);
        w.start_transfer(conn, 50_000); // 35 segments, 10% loss
        w.run_until(SimTime::from_secs(30));
        let trace = w.trace(conn).expect("tracing enabled");
        assert!(!trace.is_empty());
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Established { .. })));
        assert!(
            trace.segments_sent() >= 35,
            "at least one send per segment: {}",
            trace.segments_sent()
        );
        assert!(trace.segments_dropped() > 0, "10% loss shows up");
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::TransferCompleted { bytes: 50_000, .. })));
        // Timestamps are non-decreasing.
        let times: Vec<_> = trace.events().iter().map(|e| e.at()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Render produces one line per event.
        assert_eq!(trace.render().lines().count(), trace.len());
        // Untraced connections record nothing.
        let other = w.open_connection(h1, h2);
        assert!(w.trace(other).is_none());
    }

    #[test]
    fn metrics_cache_seeds_ssthresh_across_connections() {
        // A lossy narrow path: the first connection's loss records an
        // ssthresh; the next connection to the same destination starts
        // in (or near) congestion avoidance instead of blind slow start.
        let mut w = World::new(TcpConfig::default(), 21);
        let a = w.add_pop();
        let b = w.add_pop();
        let h1 = w.add_host(a);
        let h2 = w.add_host(b);
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(20))
                .rate_bps(20_000_000)
                .queue_bytes(48 * 1024),
        );
        let dst = w.host_addr(h2);
        assert_eq!(w.cached_ssthresh(h1, dst), None);
        let (c1, _) = w.open_and_transfer(h1, h2, 2_000_000);
        assert_eq!(w.conn_stats(c1).ssthresh, u32::MAX, "first conn: unset");
        w.run_until(SimTime::from_secs(60));
        w.drain_completed();
        let cached = w
            .cached_ssthresh(h1, dst)
            .expect("bulk flow on a narrow queue hits loss and records ssthresh");
        assert!(cached >= 2);
        let c2 = w.open_connection(h1, h2);
        assert_eq!(w.conn_stats(c2).ssthresh, cached, "seeded from the cache");
    }

    #[test]
    fn metrics_cache_can_be_disabled() {
        let cfg = TcpConfig {
            metrics_cache: false,
            ..TcpConfig::default()
        };
        let mut w = World::new(cfg, 21);
        let a = w.add_pop();
        let b = w.add_pop();
        let h1 = w.add_host(a);
        let h2 = w.add_host(b);
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(20))
                .rate_bps(20_000_000)
                .queue_bytes(48 * 1024),
        );
        w.open_and_transfer(h1, h2, 2_000_000);
        w.run_until(SimTime::from_secs(60));
        assert_eq!(w.cached_ssthresh(h1, w.host_addr(h2)), None);
        let c2 = w.open_connection(h1, h2);
        assert_eq!(w.conn_stats(c2).ssthresh, u32::MAX);
    }

    #[test]
    fn delayed_acks_slow_but_do_not_stall_transfers() {
        let run = |delack: bool| {
            let cfg = TcpConfig {
                delayed_ack: delack,
                ..TcpConfig::default()
            };
            let mut w = World::new(cfg, 42);
            let a = w.add_pop();
            let b = w.add_pop();
            let h1 = w.add_host(a);
            let h2 = w.add_host(b);
            w.set_symmetric_path(a, b, PathConfig::with_delay(SimDuration::from_millis(50)));
            // An odd segment count forces the delayed-ack timer for the
            // final lone segment.
            w.open_and_transfer(h1, h2, 1448 * 7);
            w.run_until(SimTime::from_secs(30));
            let recs = w.drain_completed();
            assert_eq!(recs.len(), 1, "transfer completes (delack={delack})");
            recs[0].completion_time()
        };
        let quick = run(false);
        let delayed = run(true);
        assert!(
            delayed >= quick,
            "delayed acks never speed things up: {quick} vs {delayed}"
        );
        assert!(
            delayed <= quick + SimDuration::from_millis(100),
            "penalty bounded by ~the 40ms timer per stall: {quick} vs {delayed}"
        );
    }

    #[test]
    fn shared_path_congestion_couples_connections() {
        // Many bulk flows squeeze a narrow shared bottleneck; a probe
        // between the same PoPs takes visibly longer than on an idle path.
        let narrow = |w: &mut World, a, b| {
            w.set_symmetric_path(
                a,
                b,
                PathConfig::with_delay(SimDuration::from_millis(20))
                    .rate_bps(20_000_000)
                    .queue_bytes(64 * 1024),
            );
        };
        // Idle baseline.
        let mut w1 = World::new(TcpConfig::default(), 3);
        let (a1, b1) = (w1.add_pop(), w1.add_pop());
        let (h1, h2) = (w1.add_host(a1), w1.add_host(b1));
        narrow(&mut w1, a1, b1);
        w1.open_and_transfer(h1, h2, 100_000);
        w1.run_until(SimTime::from_secs(20));
        let idle_time = w1.drain_completed()[0].completion_time();

        // Congested run.
        let mut w2 = World::new(TcpConfig::default(), 3);
        let (a2, b2) = (w2.add_pop(), w2.add_pop());
        let (g1, g2) = (w2.add_host(a2), w2.add_host(b2));
        narrow(&mut w2, a2, b2);
        for _ in 0..8 {
            w2.open_and_transfer(g1, g2, 2_000_000);
        }
        let (_, probe) = w2.open_and_transfer(g1, g2, 100_000);
        w2.run_until(SimTime::from_secs(60));
        let recs = w2.drain_completed();
        let probe_time = recs
            .iter()
            .find(|r| r.transfer == probe)
            .expect("probe completes")
            .completion_time();
        assert!(
            probe_time > idle_time.saturating_mul(2),
            "congestion visible: idle {idle_time} vs congested {probe_time}"
        );
    }
}
