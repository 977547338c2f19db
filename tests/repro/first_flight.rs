//! The first flight at `World` scope: on a fresh connection, the data
//! segments sent before the first ACK arrives are the least of the route's
//! `initcwnd` at connect (or the stack default), the receive window the
//! peer starts with, and the object's segments.
//!
//! The host policy reads a `RouteTable`, as `cdn::sim`'s does, and the
//! table is rewritten after every connect: a window read later than the
//! connect, or from anywhere but the route, shows up as a different count.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use proptest::prelude::*;

use riptide_repro::linuxnet::prefix::Ipv4Prefix;
use riptide_repro::linuxnet::route::{RouteAttrs, RouteTable};
use riptide_repro::simnet::prelude::*;
use riptide_repro::simnet::trace::TraceEvent;

struct TablePolicy(Rc<RefCell<RouteTable>>);

impl InitcwndPolicy for TablePolicy {
    fn initial_cwnd(&self, _src: HostId, dst_addr: Ipv4Addr) -> Option<u32> {
        self.0.borrow().initcwnd_for(dst_addr)
    }
}

/// Data segments (first sends and resends) sent before the first
/// `AckDelivered`.
fn first_flight(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .take_while(|e| !matches!(e, TraceEvent::AckDelivered { .. }))
        .filter(|e| matches!(e, TraceEvent::SegmentSent { .. }))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn the_first_flight_is_the_least_of_route_rwnd_and_object(
        seed in any::<u64>(),
        host_routes in proptest::collection::vec(proptest::option::of(1u32..300), 4),
        pop_route in proptest::option::of(1u32..300),
        initial_rwnd in 10u32..400,
        delayed_ack in any::<bool>(),
        delay_ms in 1u64..80,
        objects in proptest::collection::vec((0usize..4, 1u64..600_000), 1..8),
    ) {
        let cfg = TcpConfig {
            initial_rwnd,
            max_rwnd: TcpConfig::default().max_rwnd.max(initial_rwnd),
            delayed_ack,
            ..TcpConfig::default()
        };
        let mut w = World::new(cfg.clone(), seed);
        let (a, b) = (w.add_pop(), w.add_pop());
        let src = w.add_host(a);
        let dsts: Vec<HostId> = (0..host_routes.len()).map(|_| w.add_host(b)).collect();
        // A queue no first flight overflows: every flight meets its ACK.
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(delay_ms)).queue_bytes(64 << 20),
        );

        let table = Rc::new(RefCell::new(RouteTable::new()));
        let route = |table: &RefCell<RouteTable>, prefix, window: Option<u32>| {
            if let Some(window) = window {
                table.borrow_mut().replace(prefix, RouteAttrs::initcwnd(window));
            }
        };
        let (pop_net, pop_len) = w.pop_prefix(b);
        route(&table, Ipv4Prefix::new(pop_net, pop_len), pop_route);
        for (&dst, &window) in dsts.iter().zip(&host_routes) {
            route(&table, Ipv4Prefix::host(w.host_addr(dst)), window);
        }
        w.set_host_policy(src, Rc::new(TablePolicy(Rc::clone(&table))));

        let mut routes = host_routes.clone();
        let mut expected = Vec::new();
        for (i, &(dst, bytes)) in objects.iter().enumerate() {
            let conn = w.open_connection(src, dsts[dst]);
            w.enable_trace(conn);
            w.start_transfer(conn, bytes);
            let route_window = routes[dst].or(pop_route).unwrap_or(cfg.initial_cwnd);
            let want = u64::from(route_window)
                .min(u64::from(initial_rwnd))
                .min(cfg.segments_for(bytes));
            expected.push((conn, want));
            // Rewrite the route before the handshake completes: the
            // window is the route's at connect.
            routes[dst] = Some(1 + (i as u32 * 37 + 11) % 299);
            route(&table, Ipv4Prefix::host(w.host_addr(dsts[dst])), routes[dst]);
        }
        w.run_until(SimTime::from_secs(600));
        prop_assert_eq!(w.drain_completed().len(), objects.len());
        for (conn, want) in expected {
            let trace = w.trace(conn).expect("traced");
            prop_assert_eq!(
                first_flight(trace.events()) as u64,
                want,
                "{}: routes {:?} / {:?}, rwnd {}, delack {}",
                conn, host_routes, pop_route, initial_rwnd, delayed_ack
            );
        }
    }
}
