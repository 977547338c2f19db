//! Quickstart: the whole Riptide loop on one host, in fifty lines.
//!
//! A host has a few live connections to `10.0.0.127`; the agent polls
//! them (the simulated `ss`), learns a window, installs a route (the
//! simulated `ip route`), and from then on *new* connections to that
//! destination start at the learned window instead of the kernel
//! default of 10.
//!
//! Run with: `cargo run --example quickstart`

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::prelude::*;
use riptide_repro::simnet::time::SimTime;

fn main() {
    let dst = Ipv4Addr::new(10, 0, 0, 127);

    // The kernel-side routing table, shared between the agent (which
    // writes it) and the stack (which reads it at connect time).
    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut controller = SharedRouteController::new(Rc::clone(&table));

    // Deployment configuration: Table I of the paper.
    let config = RiptideConfig::deployment();
    println!(
        "riptide config: i_u={} ttl={} window=[{}, {}]",
        config.update_interval, config.ttl, config.cwnd_min, config.cwnd_max
    );
    let mut agent = RiptideAgent::new(config).expect("deployment config is valid");

    // Three live connections to the destination, windows 60/80/100 —
    // the situation of the paper's Fig. 7.
    let mut observer = FnObserver(move || {
        [60u32, 80, 100]
            .iter()
            .map(|&cwnd| CwndObservation {
                dst,
                cwnd,
                bytes_acked: 5_000_000,
                retrans: 0,
                ecn_marks: 0,
            })
            .collect()
    });

    // One agent cycle: poll -> average -> blend -> clamp -> install.
    let report = agent.tick(SimTime::from_secs(1), &mut observer, &mut controller);
    println!("tick observed {} connections", report.observed_connections);

    // What the kernel now does for new connections to that destination:
    let initcwnd = table.borrow().initcwnd_for(dst);
    println!("new connections to {dst} start with initcwnd {initcwnd:?}");
    assert_eq!(initcwnd, Some(80));

    // The shell commands an out-of-process deployment would have run:
    println!("\ncommands issued:");
    for cmd in controller.drain_commands() {
        println!("{cmd}");
    }
    println!();

    // No traffic for longer than the TTL: the route is withdrawn and the
    // kernel default (10) is restored.
    let mut silence = FnObserver(Vec::new);
    let report = agent.tick(SimTime::from_secs(120), &mut silence, &mut controller);
    println!(
        "after {} expiry(ies): initcwnd {:?}",
        report.expired.len(),
        table.borrow().initcwnd_for(dst)
    );
    assert_eq!(table.borrow().initcwnd_for(dst), None);
}
