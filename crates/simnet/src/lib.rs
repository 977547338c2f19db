//! # riptide-simnet
//!
//! A deterministic, packet-level, discrete-event network and TCP simulator.
//!
//! This crate is the *testbed substrate* for the reproduction of
//! **Riptide: Jump-Starting Back-Office Connections in Cloud Systems**
//! (Flores, Khakpour, Bedi — ICDCS 2016). The paper evaluates on a
//! production CDN; this simulator stands in for that infrastructure with
//! the same knobs a `tc netem` hardware testbed would expose: per-path
//! propagation delay, jitter, random loss, rate limits and finite
//! drop-tail queues, under TCP senders running CUBIC or Reno slow
//! start / congestion avoidance / fast retransmit / RTO.
//!
//! Determinism is a design requirement: every run is a pure function of
//! its construction calls and RNG seed, so the paper's figures regenerate
//! bit-identically.
//!
//! ## Model boundaries
//!
//! * Data segments occupy queue space and can drop; ACKs and handshake
//!   packets are delay-only and lossless (forward-path dynamics are what
//!   initcwnd affects).
//! * Loss recovery is NewReno-style by default; opt-in SACK
//!   (RFC 2018 blocks, RFC 6675-lite hole filling) via [`config::TcpConfig::sack`].
//! * A connection carries data from its opener to its peer; the CDN layer
//!   models "PoP A fetches from PoP B" as a connection opened at B toward
//!   A, since Riptide acts on the data-*sender* side.
//!
//! ## Module map (↔ paper sections)
//!
//! | Module | Role | Paper anchor |
//! |---|---|---|
//! | [`world`] | Event loop, hosts/PoPs, connect-time `initcwnd` policy lookup | §IV-A testbed; §II kernel route lookup |
//! | [`tcp`] | CUBIC/Reno senders, slow start, recovery, RTO | §II slow-start cost model's subject |
//! | [`conn`] | Connection state machine, transfers, reuse | §II-A connection reuse |
//! | [`link`] | netem-style paths: delay/jitter/loss/rate/queues | §IV-A network substrate |
//! | [`packet`], [`event`] | Segments and the deterministic event queue | — |
//! | [`rng`] | xoshiro256++ streams; seed → forked per-purpose streams | determinism requirement |
//! | [`fault`] | Deterministic fault injection (poll timeouts, install failures, crashes, loss bursts) | §IV-D no-harm under failure |
//! | [`stats`], [`trace`] | Per-connection counters; the wire-level events a `World` hands its one observer | figure inputs |
//! | [`time`], [`ids`], [`config`] | Sim time, typed ids, TCP knobs | Table I context |
//!
//! ## Quick start
//!
//! ```
//! use riptide_simnet::prelude::*;
//!
//! # fn main() {
//! let mut world = World::new(TcpConfig::default(), 1);
//! let (a, b) = (world.add_pop(), world.add_pop());
//! let (h1, h2) = (world.add_host(a), world.add_host(b));
//! world.set_symmetric_path(a, b, PathConfig::with_delay(SimDuration::from_millis(60)));
//! world.open_and_transfer(h1, h2, 50_000);
//! world.run_until(SimTime::from_secs(2));
//! assert_eq!(world.drain_completed().len(), 1);
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod event;
pub mod fault;
pub mod ids;
pub mod link;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod trace;
pub mod world;

/// The types most users need, importable in one line.
pub mod prelude {
    pub use crate::config::{CcAlgorithm, TcpConfig};
    pub use crate::conn::ConnState;
    pub use crate::fault::{
        ChurnFault, FaultInjector, FaultPlan, FaultStats, InstallFault, ObserveFault,
    };
    pub use crate::ids::{ConnId, HostId, PopId, TransferId};
    pub use crate::link::{AqmPolicy, LossCause, PathConfig, PathStats};
    pub use crate::rng::DetRng;
    pub use crate::stats::{ConnStats, TransferRecord, WorldStats};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::TraceEvent;
    pub use crate::world::{InitcwndPolicy, World};
}
