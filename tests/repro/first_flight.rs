//! The first flight at `World` scope: on a fresh connection, the data
//! segments sent before the first ACK arrives are the least of the route's
//! `initcwnd` at connect (or the stack default), the receive window the
//! peer starts with, and the object's segments.
//!
//! The host policy reads a `RouteTable`, as `cdn::sim`'s does, and the
//! table is rewritten after every connect: a window read later than the
//! connect, or from anywhere but the route, shows up as a different count.
//!
//! `every_traced_event_matches_the_golden_file` pins every event two
//! lossy `World`s trace, one line per event, to `tests/golden/traces.txt`.
//! Re-bless it, only when the simulator's behaviour changes on purpose,
//! with
//!
//! ```text
//! RIPTIDE_BLESS=1 cargo test --release --test repro first_flight::
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::rc::Rc;

use proptest::prelude::*;

use riptide_repro::linuxnet::prefix::Ipv4Prefix;
use riptide_repro::linuxnet::route::{RouteAttrs, RouteTable};
use riptide_repro::simnet::prelude::*;

struct TablePolicy(Rc<RefCell<RouteTable>>);

impl InitcwndPolicy for TablePolicy {
    fn initial_cwnd(&self, _src: HostId, dst_addr: Ipv4Addr) -> Option<u32> {
        self.0.borrow().initcwnd_for(dst_addr)
    }
}

/// Every event `w` traces from here on, tagged with its connection.
fn observe(w: &mut World) -> Rc<RefCell<Vec<(ConnId, TraceEvent)>>> {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&seen);
    w.set_observer(move |conn, event| sink.borrow_mut().push((conn, event)));
    seen
}

/// `conn`'s events among `seen`, oldest first.
fn trace_of(seen: &[(ConnId, TraceEvent)], conn: ConnId) -> impl Iterator<Item = &TraceEvent> {
    seen.iter()
        .filter(move |&&(c, _)| c == conn)
        .map(|(_, e)| e)
}

/// Data segments (first sends and resends) `conn` sent before its first
/// `AckDelivered`.
fn first_flight(seen: &[(ConnId, TraceEvent)], conn: ConnId) -> usize {
    trace_of(seen, conn)
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
        let seen = observe(&mut w);

        let mut routes = host_routes.clone();
        let mut expected = Vec::new();
        for (i, &(dst, bytes)) in objects.iter().enumerate() {
            let conn = w.open_connection(src, dsts[dst]);
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
        let seen = seen.borrow();
        for (conn, want) in expected {
            prop_assert_eq!(
                first_flight(&seen, conn) as u64,
                want,
                "{}: routes {:?} / {:?}, rwnd {}, delack {}",
                conn, host_routes, pop_route, initial_rwnd, delayed_ack
            );
        }
    }
}

/// Every traced event of one `World`, grouped by connection in `ConnId`
/// order: three routes between one source PoP and three others, a
/// clean one, one losing 8 % of segments at random and a 2 Mbit/s one
/// whose 12 KB queue overflows, with two objects over each.
fn traced_world(label: &str, cfg: TcpConfig, seed: u64) -> String {
    let mut w = World::new(cfg, seed);
    let seen = observe(&mut w);
    let src_pop = w.add_pop();
    let src = w.add_host(src_pop);
    let delay = SimDuration::from_millis(20);
    let paths = [
        PathConfig::with_delay(delay),
        PathConfig::with_delay(delay).loss(0.08),
        PathConfig::with_delay(delay)
            .rate_bps(2_000_000)
            .queue_bytes(12_000),
    ];
    let mut conns = Vec::new();
    for path in paths {
        let pop = w.add_pop();
        let dst = w.add_host(pop);
        w.set_symmetric_path(src_pop, pop, path);
        for bytes in [14_600, 90_000] {
            let conn = w.open_connection(src, dst);
            w.start_transfer(conn, bytes);
            conns.push(conn);
        }
    }
    w.run_until(SimTime::from_secs(120));
    let mut out = format!("# {label}\n");
    let seen = seen.borrow();
    for conn in conns {
        for event in trace_of(&seen, conn) {
            writeln!(out, "{conn} {event:?}").unwrap();
        }
    }
    out
}

fn traces_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("traces.txt")
}

#[test]
fn every_traced_event_matches_the_golden_file() {
    let acks = TcpConfig {
        sack: true,
        delayed_ack: true,
        ..TcpConfig::default()
    };
    let traces = traced_world("default", TcpConfig::default(), 46)
        + &traced_world("sack+delayed_ack", acks, 46);
    for variant in [
        "Established",
        "SegmentSent",
        "retransmit: true",
        "SegmentDropped",
        "overflow: false",
        "overflow: true",
        "SegmentDelivered",
        "AckDelivered",
        "RtoFired",
        "TransferCompleted",
    ] {
        assert!(traces.contains(variant), "no {variant} in the traces");
    }
    let path = traces_path();
    if std::env::var("RIPTIDE_BLESS").is_ok() {
        std::fs::write(&path, &traces).expect("write golden traces");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} ({e}); bless with RIPTIDE_BLESS=1", path.display()));
    assert!(
        traces == want,
        "traced events drifted from {}; re-bless with RIPTIDE_BLESS=1 only if the change is intentional",
        path.display()
    );
}
