//! Observation inputs: what the agent learns from and how it gets it.
//!
//! This is the §III poll loop's input side. [`WindowObserver`] models an
//! `ss -i` poll: the simulator's in-process snapshot, or a parsed
//! [`SockTable`]. A poll that fails is the caller's to handle before the
//! tick: `riptided` ends the run on `ss` text it cannot parse, and the
//! simulator's fault-injected hosts retry a timed-out poll and run the
//! cycle degraded ([`crate::agent::RiptideAgent::tick_degraded`]) when
//! it gives up.

use std::net::Ipv4Addr;

use riptide_linuxnet::ss::{SockState, SockTable};

/// One observed connection: the fields of an `ss -i` row that matter to
/// the algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwndObservation {
    /// The connection's remote address.
    pub dst: Ipv4Addr,
    /// Its current congestion window, in segments.
    pub cwnd: u32,
    /// Bytes acknowledged over the connection's lifetime — the weight the
    /// §III-B "conservative" combiner uses.
    pub bytes_acked: u64,
    /// Segments retransmitted over the connection's lifetime (`ss`'s
    /// cumulative `retrans` total) — the loss signal the guard layer
    /// differentiates into a post-install retransmit rate.
    pub retrans: u64,
    /// ECN-echo window reductions over the connection's lifetime —
    /// congestion signalled by marking rather than loss. Zero wherever
    /// ECN is not negotiated, which keeps every existing pipeline
    /// arithmetic unchanged.
    pub ecn_marks: u64,
}

/// A source of congestion-window observations — the agent's view of
/// "poll the current windows of all open connections".
///
/// Implementations: a simulated host's socket list, or a parsed
/// [`SockTable`] (what `riptided` ticks over).
pub trait WindowObserver {
    /// A snapshot of every established connection's window.
    fn observe(&mut self) -> Vec<CwndObservation>;
}

/// Adapts any closure returning observations into a [`WindowObserver`].
#[derive(Debug)]
pub struct FnObserver<F>(pub F);

impl<F> WindowObserver for FnObserver<F>
where
    F: FnMut() -> Vec<CwndObservation>,
{
    fn observe(&mut self) -> Vec<CwndObservation> {
        (self.0)()
    }
}

/// Extracts observations from an `ss`-style table, keeping only
/// established sockets (windows of half-open sockets mean nothing).
pub fn observations_from_sock_table(table: &SockTable) -> Vec<CwndObservation> {
    table
        .entries()
        .iter()
        .filter(|e| e.state == SockState::Established)
        .map(|e| CwndObservation {
            dst: e.dst,
            cwnd: e.cwnd,
            bytes_acked: e.bytes_acked,
            retrans: e.retrans,
            // `ss` exposes no per-socket ECN-reduction counter; the
            // kernel path reports marks only through the simulator.
            ecn_marks: 0,
        })
        .collect()
}

impl WindowObserver for SockTable {
    fn observe(&mut self) -> Vec<CwndObservation> {
        observations_from_sock_table(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riptide_linuxnet::ss::SockEntry;

    fn sock(dst: [u8; 4], state: SockState, cwnd: u32) -> SockEntry {
        SockEntry {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::from(dst),
            state,
            cc: "cubic".into(),
            cwnd,
            ssthresh: None,
            rtt_ms: None,
            bytes_acked: 100,
            retrans: 7,
            lost: 0,
        }
    }

    #[test]
    fn only_established_sockets_count() {
        let table: SockTable = vec![
            sock([10, 0, 1, 1], SockState::Established, 40),
            sock([10, 0, 1, 1], SockState::SynSent, 10),
            sock([10, 0, 2, 1], SockState::CloseWait, 10),
        ]
        .into_iter()
        .collect();
        let obs = observations_from_sock_table(&table);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].cwnd, 40);
        assert_eq!(obs[0].retrans, 7, "loss counter flows through");
    }

    #[test]
    fn fn_observer_adapts_closures() {
        let mut calls = 0;
        let mut obs = FnObserver(|| {
            calls += 1;
            vec![CwndObservation {
                dst: Ipv4Addr::new(10, 0, 1, 1),
                cwnd: 33,
                bytes_acked: 0,
                retrans: 0,
                ecn_marks: 0,
            }]
        });
        assert_eq!(obs.observe().len(), 1);
        assert_eq!(obs.observe()[0].cwnd, 33);
        let _ = obs;
        assert_eq!(calls, 2);
    }

    #[test]
    fn sock_table_is_itself_an_observer() {
        let mut table: SockTable = vec![sock([10, 0, 1, 1], SockState::Established, 40)]
            .into_iter()
            .collect();
        assert_eq!(table.observe().len(), 1);
    }
}
