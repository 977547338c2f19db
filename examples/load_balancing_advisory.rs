//! §V "Additional Algorithms": the control plane warns Riptide about an
//! imminent load-balancing wave, and the agent installs conservative
//! windows until the wave passes — avoiding "sudden crowding" on paths
//! whose history no longer predicts their load.
//!
//! Run with: `cargo run --example load_balancing_advisory`

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::prelude::*;
use riptide_repro::simnet::time::SimTime;

fn observe_steady() -> Vec<CwndObservation> {
    [("10.0.1.1", 90), ("10.0.2.1", 60), ("10.0.3.1", 120)]
        .iter()
        .map(|&(dst, cwnd)| CwndObservation {
            dst: dst.parse().expect("valid addr"),
            cwnd,
            bytes_acked: 5 << 20,
            retrans: 0,
            ecn_marks: 0,
        })
        .collect()
}

fn show(table: &Rc<RefCell<RouteTable>>, label: &str) {
    let t = table.borrow();
    let w = |s: &str| t.initcwnd_for(s.parse::<Ipv4Addr>().expect("valid addr"));
    println!(
        "{label:<28} 10.0.1.1={:?} 10.0.2.1={:?} 10.0.3.1={:?}",
        w("10.0.1.1"),
        w("10.0.2.1"),
        w("10.0.3.1")
    );
}

fn main() {
    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut controller = SharedRouteController::new(Rc::clone(&table));
    let mut agent = RiptideAgent::new(
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .expect("valid config"),
    )
    .expect("valid config");

    // Steady state: windows learned from live traffic.
    let mut observer = FnObserver(observe_steady);
    agent.tick(SimTime::from_secs(1), &mut observer, &mut controller);
    show(&table, "steady state:");

    // The orchestrator announces a rebalancing wave: halve everything.
    agent
        .set_advisory(Advisory::Conservative { factor: 0.5 })
        .expect("valid advisory");
    agent.tick(SimTime::from_secs(2), &mut observer, &mut controller);
    show(&table, "during rebalancing (x0.5):");

    // Maintenance freeze: keep learning, change nothing.
    agent
        .set_advisory(Advisory::Suspend)
        .expect("valid advisory");
    let mut shifted = FnObserver(|| {
        vec![CwndObservation {
            dst: "10.0.1.1".parse().expect("valid addr"),
            cwnd: 200,
            bytes_acked: 5 << 20,
            retrans: 0,
            ecn_marks: 0,
        }]
    });
    agent.tick(SimTime::from_secs(3), &mut shifted, &mut controller);
    show(&table, "frozen (learning continues):");

    // Back to normal: the learned state lands on the next cycle.
    agent
        .set_advisory(Advisory::Normal)
        .expect("valid advisory");
    agent.tick(SimTime::from_secs(4), &mut shifted, &mut controller);
    show(&table, "resumed:");

    println!(
        "\ncommands the deployment would have run:\n{}",
        controller.render_log()
    );
}
