//! Degraded mode across cycles: an agent whose poll fails runs
//! [`RiptideAgent::tick_degraded`] instead of guessing from stale rows,
//! then leaves and re-enters that mode as polls recover and fail again.

use std::net::Ipv4Addr;

use riptide::prelude::*;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::SimTime;

fn obs(dst: [u8; 4], cwnd: u32) -> CwndObservation {
    CwndObservation {
        dst: Ipv4Addr::from(dst),
        cwnd,
        bytes_acked: 1_000_000,
        retrans: 0,
        ecn_marks: 0,
    }
}

#[test]
fn agent_reenters_degraded_mode_and_recovers_between_episodes() {
    let cfg = RiptideConfig::builder()
        .policy(LearningPolicy::None)
        .build()
        .unwrap();
    let mut agent = RiptideAgent::new(cfg).unwrap();
    agent.attach_telemetry(AgentTelemetry::standalone(32));
    let mut routes = RouteTable::new();

    // `Some(window)` scripts a clean poll, `None` a dead one.
    let cycle = |agent: &mut RiptideAgent, routes: &mut RouteTable, t: u64, poll: Option<u32>| {
        let now = SimTime::from_secs(t);
        match poll {
            Some(w) => {
                let mut observer = FnObserver(move || vec![obs([10, 0, 7, 1], w)]);
                agent.tick(now, &mut observer, routes);
            }
            None => {
                agent.tick_degraded(now, routes);
            }
        }
    };

    cycle(&mut agent, &mut routes, 1, Some(80)); // learn + install
    cycle(&mut agent, &mut routes, 2, None); // episode 1
    assert_eq!(
        routes.initcwnd_for(Ipv4Addr::new(10, 0, 7, 1)),
        Some(80),
        "degraded cycle must not withdraw a live route"
    );
    cycle(&mut agent, &mut routes, 3, Some(40)); // recovery relearns
    assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 7, 1)), Some(40));
    // Episode 2, still degraded when the TTL horizon passes: expiry
    // keeps running without polls.
    cycle(&mut agent, &mut routes, 4, None);
    cycle(&mut agent, &mut routes, 300, None);

    let s = agent.stats();
    assert_eq!(s.ticks, 5, "degraded cycles still count as ticks");
    assert_eq!(s.degraded_ticks, 3, "two episodes, three degraded cycles");
    assert_eq!(s.route_updates, 2, "one install per clean cycle");
    assert_eq!(s.route_expirations, 1, "TTL sweep ran while degraded");
    assert_eq!(
        routes.initcwnd_for(Ipv4Addr::new(10, 0, 7, 1)),
        None,
        "expired route withdrawn during the degraded episode"
    );
    // Telemetry mirrors the stats through both episodes.
    let snap = agent.telemetry().unwrap().registry().snapshot();
    assert_eq!(snap.value("riptide_degraded_ticks_total"), Some(3));
    assert_eq!(snap.value("riptide_route_updates_total"), Some(2));
    assert_eq!(snap.value("riptide_installed_routes"), Some(0));
}
