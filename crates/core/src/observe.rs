//! Observation inputs: what the agent learns from and how it gets it.
//!
//! This is the §III poll loop's input side. [`WindowObserver`] models an
//! `ss -i` poll that always succeeds (the simulator's in-process
//! snapshot, or a parsed [`SockTable`]); [`FallibleObserver`] models a
//! poll that can time out, as the simulator's fault plans make it.
//! [`crate::resilience::ResilientObserver`] bridges the two with retries
//! and a per-tick time budget.

use std::fmt;
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

/// Why an observation poll produced nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObserveError {
    /// The poll exceeded its per-call timeout.
    Timeout,
}

impl fmt::Display for ObserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveError::Timeout => write!(f, "observation poll timed out"),
        }
    }
}

impl std::error::Error for ObserveError {}

/// A [`WindowObserver`] whose polls can fail, as a poll with a deadline
/// does.
///
/// Every infallible [`WindowObserver`] is trivially a `FallibleObserver`
/// (via a blanket impl), so simulation code and tests can pass plain
/// observers anywhere a fallible one is expected.
pub trait FallibleObserver {
    /// Attempts one snapshot of every established connection's window.
    ///
    /// # Errors
    ///
    /// Returns [`ObserveError`] when the poll times out.
    fn try_observe(&mut self) -> Result<Vec<CwndObservation>, ObserveError>;
}

impl<T: WindowObserver> FallibleObserver for T {
    fn try_observe(&mut self) -> Result<Vec<CwndObservation>, ObserveError> {
        Ok(self.observe())
    }
}

/// Adapts a closure returning `Result` into a [`FallibleObserver`] —
/// the fault-injection seam the chaos harness uses.
#[derive(Debug)]
pub struct FnFallibleObserver<F>(pub F);

impl<F> FallibleObserver for FnFallibleObserver<F>
where
    F: FnMut() -> Result<Vec<CwndObservation>, ObserveError>,
{
    fn try_observe(&mut self) -> Result<Vec<CwndObservation>, ObserveError> {
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
    fn infallible_observers_are_fallible_observers() {
        let mut obs = FnObserver(|| {
            vec![CwndObservation {
                dst: Ipv4Addr::new(10, 0, 1, 1),
                cwnd: 12,
                bytes_acked: 0,
                retrans: 0,
                ecn_marks: 0,
            }]
        });
        assert_eq!(obs.try_observe().unwrap().len(), 1);
    }

    #[test]
    fn fallible_closures_surface_errors() {
        let mut flaky = FnFallibleObserver(|| Err(ObserveError::Timeout));
        assert_eq!(flaky.try_observe(), Err(ObserveError::Timeout));
        assert_eq!(
            ObserveError::Timeout.to_string(),
            "observation poll timed out"
        );
    }

    #[test]
    fn sock_table_is_itself_an_observer() {
        let mut table: SockTable = vec![sock([10, 0, 1, 1], SockState::Established, 40)]
            .into_iter()
            .collect();
        assert_eq!(table.observe().len(), 1);
    }
}
