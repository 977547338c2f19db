//! # riptide-linuxnet
//!
//! A faithful, in-process model of the three Linux networking control-plane
//! surfaces the Riptide paper (ICDCS 2016) builds on:
//!
//! * [`route::RouteTable`] — an IPv4 routing table with longest-prefix-match
//!   lookup and per-route `initcwnd` / `initrwnd` attributes. In Linux this
//!   is the *only* sanctioned way to set an initial congestion window
//!   (§III-C of the paper); Riptide installs one route per learned
//!   destination.
//! * [`ss::SockTable`] — the `ss -i` socket-statistics view (peer address,
//!   `cwnd`, `rtt`, `bytes_acked`) that is Riptide's sole input, including
//!   a renderer/parser for the utility's text format.
//! * [`ip_cmd::IpRouteCmd`] — the `ip route add/replace/del` command syntax
//!   of the paper's Fig. 8, so control actions round-trip through the same
//!   text a shell deployment would execute.
//!
//! ## Module map (↔ paper sections)
//!
//! | Module | Role | Paper anchor |
//! |---|---|---|
//! | [`route`] | LPM table, `initcwnd`/`initrwnd` route attributes | §III-C "the route table is the knob" |
//! | [`lpm`] | compressed stride-4 multibit trie backing the LPM table | §III-B at internet scale |
//! | [`ss`] | `ss -i` render/parse, incl. lossy salvage of truncated output | §III poll loop input |
//! | [`ip_cmd`] | `ip route …` grammar | Fig. 8 |
//! | [`prefix`] | IPv4 prefixes (host and `/24` granularity) | §III-B granularity |
//! | [`parts`] | work in parts across cores: the `ss` scan's and the agent tick's | — |
//!
//! The crate is dependency-free and usable on its own. It runs no
//! processes: the reproduction wires it to simulated hosts, and
//! `riptided` reads `ss` text from files and prints `ip route` lines.
//!
//! ## Example: what Riptide does, in three lines
//!
//! ```
//! use riptide_linuxnet::prelude::*;
//! use std::net::Ipv4Addr;
//!
//! let mut table = RouteTable::new();
//! // Fig. 8 of the paper, verbatim:
//! let cmd: IpRouteCmd =
//!     "ip route add 10.0.0.127 dev eth0 proto static initcwnd 80 via 10.0.0.1".parse()?;
//! cmd.apply(&mut table)?;
//! assert_eq!(table.initcwnd_for(Ipv4Addr::new(10, 0, 0, 127)), Some(80));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ip_cmd;
pub mod lpm;
pub mod parts;
pub mod prefix;
pub mod route;
pub mod ss;

/// The types most users need, importable in one line.
pub mod prelude {
    pub use crate::ip_cmd::{IpRouteAction, IpRouteCmd};
    pub use crate::lpm::LpmTrie;
    pub use crate::prefix::Ipv4Prefix;
    pub use crate::route::{Route, RouteAttrs, RouteError, RouteProto, RouteTable};
    pub use crate::ss::{SockEntry, SockState, SockTable};
}
