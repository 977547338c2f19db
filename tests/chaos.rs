//! Failure injection and adversarial-conditions tests: the paper's §V
//! adaptivity claims, and the agent's behaviour when its environment
//! misbehaves.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use riptide_repro::linuxnet::prefix::Ipv4Prefix;
use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::prelude::*;
use riptide_repro::simnet::prelude::*;
use riptide_repro::simnet::time::SimTime;

/// A route controller that fails every other call — a stand-in for
/// `ip route` hitting permission or netlink errors in production.
#[derive(Debug, Default)]
struct FlakyController {
    inner: RouteTable,
    calls: usize,
    failures: usize,
}

impl RouteController for FlakyController {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.calls += 1;
        if self.calls.is_multiple_of(2) {
            self.failures += 1;
            return Err(ControlError::new("netlink: permission denied"));
        }
        self.inner.set_initcwnd(key, window)
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.calls += 1;
        if self.calls.is_multiple_of(2) {
            self.failures += 1;
            return Err(ControlError::new("netlink: permission denied"));
        }
        self.inner.clear_initcwnd(key)
    }
}

#[test]
fn agent_survives_flaky_route_control() {
    let mut agent = RiptideAgent::new(
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut controller = FlakyController::default();
    for t in 1..=20u64 {
        let mut observer = FnObserver(move || {
            (1..=4u8)
                .map(|i| CwndObservation {
                    dst: Ipv4Addr::new(10, 0, i, 1),
                    cwnd: 40 + t as u32 + i as u32, // keeps changing -> keeps installing
                    bytes_acked: 1 << 20,
                    retrans: 0,
                    ecn_marks: 0,
                })
                .collect()
        });
        let report = agent.tick(SimTime::from_secs(t), &mut observer, &mut controller);
        // Failures are surfaced, never panicked on.
        assert_eq!(report.errors.len() + report.updates.len(), 4);
    }
    assert!(controller.failures > 0, "injector actually fired");
    assert!(agent.stats().errors > 0);
    assert!(agent.stats().route_updates > 0, "successes continue");
    assert_eq!(
        agent.table().len(),
        4,
        "learning unaffected by actuator errors"
    );
}

#[test]
fn learned_windows_track_a_path_that_degrades() {
    // The §V adaptivity claim: when a link's capacity collapses, the
    // windows of live connections shrink, and Riptide follows them down.
    struct Policy(Rc<RefCell<RouteTable>>);
    impl InitcwndPolicy for Policy {
        fn initial_cwnd(&self, _s: HostId, d: Ipv4Addr) -> Option<u32> {
            self.0.borrow().initcwnd_for(d)
        }
    }

    let mut w = World::new(TcpConfig::default(), 99);
    let a = w.add_pop();
    let b = w.add_pop();
    let h1 = w.add_host(a);
    let h2 = w.add_host(b);
    let good = PathConfig::with_delay(SimDuration::from_millis(30));
    w.set_symmetric_path(a, b, good.clone());

    let table = Rc::new(RefCell::new(RouteTable::new()));
    w.set_host_policy(h1, Rc::new(Policy(Rc::clone(&table))));
    let mut controller = SharedRouteController::new(Rc::clone(&table));
    let mut agent =
        RiptideAgent::new(RiptideConfig::builder().alpha(0.3).build().unwrap()).unwrap();

    let dst_addr = w.host_addr(h2);
    let drive = |w: &mut World,
                 agent: &mut RiptideAgent,
                 controller: &mut SharedRouteController,
                 from: u64,
                 to: u64| {
        for t in from..to {
            let now = SimTime::from_secs(t);
            w.run_until(now);
            // A fresh 150 KB transfer every 10 s; drain so conns go idle.
            if t % 10 == 0 {
                match w.find_idle_connection(h1, h2) {
                    Some(c) => {
                        w.start_transfer(c, 150_000);
                    }
                    None => {
                        w.open_and_transfer(h1, h2, 150_000);
                    }
                }
            }
            let obs: Vec<CwndObservation> = w
                .host_conn_stats(h1)
                .into_iter()
                .filter(|s| s.state == riptide_repro::simnet::conn::ConnState::Established)
                .map(|s| CwndObservation {
                    dst: s.dst_addr,
                    cwnd: s.cwnd,
                    bytes_acked: s.bytes_acked,
                    retrans: s.retransmits,
                    ecn_marks: s.ece_reductions,
                })
                .collect();
            let mut o = FnObserver(move || obs.clone());
            agent.tick(now, &mut o, controller);
        }
    };

    drive(&mut w, &mut agent, &mut controller, 1, 120);
    let healthy = agent
        .learned_window(dst_addr)
        .expect("learned on healthy path");
    assert!(
        healthy > 30,
        "healthy path learns a big window, got {healthy}"
    );

    // The path degrades hard: 5% loss and a sliver of bandwidth.
    let bad = PathConfig::with_delay(SimDuration::from_millis(30))
        .loss(0.05)
        .rate_bps(5_000_000)
        .queue_bytes(32 * 1024);
    w.reconfigure_path(a, b, bad.clone());
    w.reconfigure_path(b, a, bad);

    drive(&mut w, &mut agent, &mut controller, 120, 400);
    let degraded = agent.learned_window(dst_addr).expect("still learning");
    assert!(
        degraded < healthy,
        "windows shrink with the path: {healthy} -> {degraded}"
    );
}

#[test]
fn connection_storm_and_mass_close_stay_consistent() {
    let mut w = World::new(TcpConfig::default(), 5);
    let a = w.add_pop();
    let b = w.add_pop();
    let h1 = w.add_host(a);
    let h2 = w.add_host(b);
    w.set_symmetric_path(
        a,
        b,
        PathConfig::with_delay(SimDuration::from_millis(20))
            .rate_bps(50_000_000)
            .queue_bytes(128 * 1024),
    );
    // Open a storm of concurrent transfers.
    let conns: Vec<ConnId> = (0..50)
        .map(|_| w.open_and_transfer(h1, h2, 200_000).0)
        .collect();
    w.run_until(SimTime::from_millis(500));
    // Kill half of them mid-flight.
    for c in conns.iter().step_by(2) {
        w.close_connection(*c);
    }
    w.run_until(SimTime::from_secs(120));
    let completed = w.drain_completed().len();
    assert!(
        completed >= 25,
        "survivors complete despite the mass close, got {completed}"
    );
    // The world still works for new traffic.
    w.open_and_transfer(h1, h2, 50_000);
    w.run_until(SimTime::from_secs(130));
    assert_eq!(w.drain_completed().len(), 1);
}

#[test]
fn degenerate_observations_clamp_to_floor() {
    let mut agent = RiptideAgent::new(
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut routes = RouteTable::new();
    // A buggy observer reporting zero windows must not install zero.
    let mut observer = FnObserver(|| {
        vec![CwndObservation {
            dst: Ipv4Addr::new(10, 0, 1, 1),
            cwnd: 0,
            bytes_acked: 0,
            retrans: 0,
            ecn_marks: 0,
        }]
    });
    agent.tick(SimTime::from_secs(1), &mut observer, &mut routes);
    assert_eq!(
        routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
        Some(10),
        "c_min floors garbage"
    );
}

#[test]
fn expiry_storm_after_total_silence() {
    // Learn hundreds of destinations, then go silent: every entry must
    // expire and every route must be withdrawn in one tick.
    let mut agent = RiptideAgent::new(
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut routes = RouteTable::new();
    let mut observer = FnObserver(|| {
        (0..=255u8)
            .map(|i| CwndObservation {
                dst: Ipv4Addr::new(10, 0, i, 1),
                cwnd: 50,
                bytes_acked: 1,
                retrans: 0,
                ecn_marks: 0,
            })
            .collect()
    });
    agent.tick(SimTime::from_secs(1), &mut observer, &mut routes);
    assert_eq!(routes.len(), 256);
    let mut silence = FnObserver(Vec::new);
    let report = agent.tick(SimTime::from_secs(500), &mut silence, &mut routes);
    assert_eq!(report.expired.len(), 256);
    assert!(routes.is_empty());
    assert!(agent.table().is_empty());
}

// ---- The deterministic fault-injection layer ----

use proptest::prelude::*;
use riptide_repro::cdn::engine::RunPlan;
use riptide_repro::cdn::experiment::ExperimentScale;
use riptide_repro::cdn::sim::{CdnSim, CdnSimConfig, ResilienceOverlay};
use riptide_repro::cdn::topology::TestbedConfig;
use riptide_repro::cdn::workload::{OrganicConfig, ProbeConfig};
use riptide_repro::simnet::time::SimDuration;

fn chaos_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::test();
    scale.duration = SimDuration::from_secs(300);
    scale
}

#[test]
fn zero_fault_rate_reproduces_the_clean_probe_comparison() {
    // chaos_sweep arms are seed-paired per (unit, replicate) exactly
    // like probe_comparison, so a zero rate must reproduce its probes
    // bit for bit — the fault layer is provably a no-op when disabled.
    let scale = chaos_scale();
    let clean = RunPlan::probe_comparison(&scale, 2).run_with_threads(2);
    let chaos = RunPlan::chaos_sweep(&scale, &[0.0], 2).run_with_threads(2);
    assert_eq!(clean.merged_probes(0), chaos.merged_probes(0));
    assert_eq!(clean.merged_probes(1), chaos.merged_probes(1));
    let report = chaos.merged_chaos_report(1);
    assert_eq!(report.faults, Default::default(), "no faults fired");
    assert_eq!(report.degraded_ticks, 0);
}

#[test]
fn chaos_sweep_is_thread_count_invariant() {
    let plan = RunPlan::chaos_sweep(&chaos_scale(), &[0.05], 2);
    assert_eq!(plan.shards.len(), 8);
    let serial = plan.run_with_threads(1);
    let parallel = plan.run_with_threads(8);
    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "fault injection must not break deterministic sharding"
    );
    let report = serial.merged_chaos_report(1);
    assert!(
        report.faults.observe_timeouts > 0,
        "faults fired: {report:?}"
    );
}

#[test]
fn high_fault_rate_degrades_gracefully_and_never_breaks_no_harm() {
    let plan = RunPlan::chaos_sweep(&chaos_scale(), &[0.2], 1);
    let report = plan.run_with_threads(4);
    for scenario in [0, 1] {
        let r = report.merged_chaos_report(scenario);
        assert_eq!(r.invariant_breaches, 0, "scenario {scenario}: {r:?}");
        if let Some((lo, hi)) = r.installed_range() {
            assert!(
                lo >= 10 && hi <= 100,
                "scenario {scenario}: installed range [{lo}, {hi}]"
            );
        }
    }
    let riptide = report.merged_chaos_report(1);
    assert!(riptide.faults.crashes > 0, "{riptide:?}");
    assert!(riptide.observe_retries > 0, "{riptide:?}");
    assert!(
        !report.merged_probes(1).is_empty(),
        "probes still complete under 20% faults"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The window-range invariant: whatever fault sequence a seed and
    // rate produce — timeouts, truncations, failed and delayed
    // installs, crashes, loss bursts — no installed window ever leaves
    // [c_min, c_max].
    #[test]
    fn any_fault_sequence_keeps_installed_windows_in_bounds(
        seed in 0u64..1_000,
        rate in 0.0f64..0.5,
    ) {
        let cfg = CdnSimConfig {
            testbed: TestbedConfig::tiny(3, 1, seed),
            riptide: Some(RiptideConfig::deployment()),
            probes: ProbeConfig {
                interval: SimDuration::from_secs(30),
                ..ProbeConfig::default()
            },
            organic: OrganicConfig::none(),
            cwnd_sample_interval: SimDuration::from_secs(60),
            probe_senders: None,
            telemetry: false,
            resilience: ResilienceOverlay {
                faults: FaultPlan::uniform(rate),
                ..ResilienceOverlay::default()
            },
        };
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(150));
        let r = sim.chaos_report();
        prop_assert_eq!(r.invariant_breaches, 0);
        if let Some((lo, hi)) = r.installed_range() {
            prop_assert!(lo >= 10 && hi <= 100, "installed range [{}, {}]", lo, hi);
        }
    }
}
