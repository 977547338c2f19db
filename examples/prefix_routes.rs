//! §III-B "Destinations as Routes": running Riptide at prefix
//! granularity, where one /24 route covers a whole remote PoP.
//!
//! Demonstrates that (a) observations of *any* host in the PoP inform
//! connections to *every* host in it, and (b) the agent installs one
//! route instead of dozens — the overhead reduction the paper argues
//! for when intra-PoP interconnects are uniform.
//!
//! Run with: `cargo run --example prefix_routes`

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::prelude::*;
use riptide_repro::simnet::time::SimTime;

fn observations() -> Vec<CwndObservation> {
    // Connections to 40 different hosts of the remote PoP 10.0.7.0/24,
    // windows spread around 60.
    (0..40u32)
        .map(|i| CwndObservation {
            dst: Ipv4Addr::new(10, 0, 7, (i + 1) as u8),
            cwnd: 40 + (i % 41),
            bytes_acked: 1_000_000,
            retrans: 0,
            ecn_marks: 0,
        })
        .collect()
}

fn run(granularity: Granularity) -> (usize, Option<u32>) {
    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut controller = SharedRouteController::new(Rc::clone(&table));
    let config = RiptideConfig::builder()
        .granularity(granularity)
        .policy(LearningPolicy::None)
        .build()
        .expect("valid config");
    let mut agent = RiptideAgent::new(config).expect("valid config");
    let mut observer = FnObserver(observations);
    agent.tick(SimTime::from_secs(1), &mut observer, &mut controller);
    // A host we have NEVER talked to, in the same remote PoP:
    let unseen = Ipv4Addr::new(10, 0, 7, 250);
    let routes = table.borrow().len();
    let window = table.borrow().initcwnd_for(unseen);
    (routes, window)
}

fn main() {
    let (routes, window) = run(Granularity::Host);
    println!("host granularity:   {routes} routes installed; unseen host 10.0.7.250 -> {window:?}");
    assert_eq!(routes, 40);
    assert_eq!(window, None, "host routes say nothing about unseen hosts");

    let (routes, window) = run(Granularity::Prefix(24));
    println!("prefix/24:          {routes} route installed;  unseen host 10.0.7.250 -> {window:?}");
    assert_eq!(routes, 1);
    assert!(window.is_some(), "the PoP-wide route covers unseen hosts");

    println!("\none /24 route replaces 40 host routes and jump-starts connections");
    println!("to hosts never previously contacted — the paper's PoP-granularity case.");
}
