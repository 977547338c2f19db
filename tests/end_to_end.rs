//! Integration tests spanning all four crates: the full
//! observe → learn → install → jump-start pipeline, run on the simulated
//! CDN exactly as the figure harnesses run it (through `RunPlan`, one
//! shard per arm and sender).

use riptide_repro::cdn::experiment::{
    completion_by_bucket, gain_by_percentile, probe_sender_sites, ExperimentScale, StackTweaks,
};
use riptide_repro::cdn::prelude::*;
use riptide_repro::cdn::stats::Cdf;
use riptide_repro::linuxnet::ip_cmd::IpRouteCmd;
use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::model;
use riptide_repro::riptide::prelude::*;
use riptide_repro::simnet::prelude::*;
use riptide_repro::simnet::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

fn scale() -> ExperimentScale {
    ExperimentScale::test()
}

/// The test-scale probe comparison, run once for every test here.
fn comparison() -> &'static ProbeComparison {
    static RUN: OnceLock<ProbeComparison> = OnceLock::new();
    RUN.get_or_init(|| RunPlan::probe_comparison(&scale(), 1).run().comparison())
}

/// Completion times (ms) of `size` probes sent from `sender`.
fn completions(arm: &[ProbeOutcome], sender: usize, size: u64) -> Cdf {
    arm.iter()
        .filter(|p| p.src_site == sender && p.size == size)
        .map(|p| p.completion.as_millis_f64())
        .collect()
}

#[test]
fn headline_riptide_beats_control_on_large_probes() {
    let cmp = comparison();
    let sender = probe_sender_sites(&scale())[0];
    for &size in &[50_000u64, 100_000] {
        let ctl = completions(&cmp.control, sender, size);
        let rip = completions(&cmp.riptide, sender, size);
        assert!(
            rip.quantile(0.75) < ctl.quantile(0.75),
            "{size}B p75: riptide {} vs control {}",
            rip.quantile(0.75),
            ctl.quantile(0.75)
        );
    }
}

#[test]
fn headline_small_probes_and_tails_are_unharmed() {
    let cmp = comparison();
    let sender = probe_sender_sites(&scale())[0];
    let pick = |arm: &[ProbeOutcome], size| completions(arm, sender, size);
    // Fig. 12: 10 KB fits the default window — no change either way.
    let ctl = pick(&cmp.control, 10_000);
    let rip = pick(&cmp.riptide, 10_000);
    let rel = (ctl.median() - rip.median()).abs() / ctl.median();
    assert!(rel < 0.2, "10KB medians differ {rel}");
    // §IV-B2: the worst case must not regress dangerously (no induced
    // congestion collapse).
    let ctl100 = pick(&cmp.control, 100_000);
    let rip100 = pick(&cmp.riptide, 100_000);
    assert!(
        rip100.max() <= ctl100.max() * 2.0,
        "tail must not blow up: {} vs {}",
        rip100.max(),
        ctl100.max()
    );
}

#[test]
fn fig15_shape_lower_percentiles_flat_upper_gain() {
    let sender = probe_sender_sites(&scale())[0];
    let gains = gain_by_percentile(comparison(), sender, 50_000);
    let low: Vec<f64> = gains
        .iter()
        .filter(|g| g.percentile <= 40)
        .map(|g| g.gain)
        .collect();
    let high: Vec<f64> = gains
        .iter()
        .filter(|g| g.percentile >= 70)
        .map(|g| g.gain)
        .collect();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&low).abs() < 0.10,
        "lower percentiles ~unchanged, got {}",
        avg(&low)
    );
    assert!(
        avg(&high) > avg(&low),
        "gains concentrate in upper percentiles: {} vs {}",
        avg(&high),
        avg(&low)
    );
}

#[test]
fn probes_land_in_every_expected_bucket_per_figures_12_to_14() {
    let big = ExperimentScale {
        sites: 34,
        machines_per_pop: 1,
        duration: SimDuration::from_secs(240),
        warmup: SimDuration::from_secs(60),
        probe_interval: SimDuration::from_secs(60),
        seed: 5,
    };
    let control = PlanArm::stack("control", None, StackTweaks::default());
    let outcomes = RunPlan::probe_arms("control", &big, vec![control], 1)
        .run()
        .merged_probes(0);
    let sender = probe_sender_sites(&big)[0];
    let buckets = completion_by_bucket(&outcomes, sender, 50_000);
    assert_eq!(
        buckets.len(),
        4,
        "all four RTT groups populated from the EU sender: {:?}",
        buckets.keys().collect::<Vec<_>>()
    );
    // Farther buckets have higher completion floors (the best case is
    // one data round trip), as Figs. 12–14 show on their x-axes.
    let floors: Vec<f64> = buckets.values().map(Cdf::min).collect();
    assert!(
        floors.windows(2).all(|w| w[0] < w[1]),
        "bucket completion floors ordered by distance: {floors:?}"
    );
}

#[test]
fn section3c_small_initrwnd_nullifies_riptide() {
    // §III-C: "If a sender opens with large initial congestion window,
    // the default receive window may not be able to handle the first
    // incoming burst" — initrwnd must be raised to c_max or the boost is
    // wasted.
    let scale = scale();
    let sender = probe_sender_sites(&scale)[0];
    let riptide = Some(RiptideConfig::deployment());
    let starved = StackTweaks {
        initial_rwnd: Some(10),
        ..StackTweaks::default()
    };
    let arms = vec![
        PlanArm::stack("proper", riptide.clone(), StackTweaks::default()),
        PlanArm::stack("starved", riptide, starved),
    ];
    let report = RunPlan::probe_arms("initrwnd", &scale, arms, 1).run();
    let med = |arm| completions(&report.merged_probes(arm), sender, 100_000).median();
    let (proper, starved) = (med(0), med(1));
    assert!(
        starved > proper * 1.15,
        "without the initrwnd fix Riptide's boost stalls on flow control: \
         proper {proper:.1}ms vs starved {starved:.1}ms"
    );
}

#[test]
fn simulated_transfer_times_match_the_analytic_model_when_lossless() {
    // Cross-validation of the two independent implementations of the
    // paper's arithmetic: a lossless simulated transfer must take
    // (1 handshake + model RTTs) x RTT, up to serialization epsilon.
    for (rtt_ms, bytes, iw) in [
        (100u64, 10_000u64, 10u32),
        (100, 100_000, 10),
        (100, 100_000, 100),
        (40, 50_000, 25),
        (250, 1_000_000, 50),
    ] {
        let mut w = World::new(TcpConfig::default(), 3);
        let a = w.add_pop();
        let b = w.add_pop();
        let h1 = w.add_host(a);
        let h2 = w.add_host(b);
        w.set_symmetric_path(
            a,
            b,
            PathConfig::with_delay(SimDuration::from_millis(rtt_ms / 2)),
        );
        struct Fixed(u32);
        impl riptide_repro::simnet::world::InitcwndPolicy for Fixed {
            fn initial_cwnd(&self, _s: HostId, _d: std::net::Ipv4Addr) -> Option<u32> {
                Some(self.0)
            }
        }
        w.set_host_policy(h1, Rc::new(Fixed(iw)));
        w.open_and_transfer(h1, h2, bytes);
        w.run_until(SimTime::from_secs(600));
        let recs = w.drain_completed();
        assert_eq!(recs.len(), 1);
        let measured = recs[0].completion_time().as_millis_f64();
        let rtt = SimDuration::from_millis(rtt_ms);
        let predicted =
            model::transfer_time(bytes, w.tcp_config().mss, iw, rtt, true).as_millis_f64();
        let err = (measured - predicted).abs() / predicted;
        assert!(
            err < 0.08,
            "rtt={rtt_ms}ms bytes={bytes} iw={iw}: measured {measured:.1} vs model {predicted:.1}"
        );
    }
}

#[test]
fn agent_commands_round_trip_through_ip_route_syntax() {
    // Every command the agent issues must be parseable by the ip-route
    // grammar and reproduce the same table — fidelity to a real shell
    // deployment.
    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut controller = SharedRouteController::new(Rc::clone(&table));
    let mut agent = RiptideAgent::new(RiptideConfig::deployment()).unwrap();
    let mut observer = FnObserver(|| {
        (1..=20u8)
            .map(|i| CwndObservation {
                dst: std::net::Ipv4Addr::new(10, 0, i, 1),
                cwnd: 30 + i as u32 * 5,
                bytes_acked: 1 << 20,
                retrans: 0,
                ecn_marks: 0,
            })
            .collect()
    });
    agent.tick(SimTime::from_secs(1), &mut observer, &mut controller);
    let mut silent = FnObserver(Vec::new);
    agent.tick(SimTime::from_secs(200), &mut silent, &mut controller);

    let mut replayed = RouteTable::new();
    for line in controller.render_log().lines() {
        let cmd: IpRouteCmd = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        cmd.apply(&mut replayed).unwrap();
    }
    assert_eq!(replayed.len(), table.borrow().len());
    assert!(replayed.is_empty(), "all routes expired at t=200");
}

#[test]
fn ss_text_drives_the_agent_like_structured_input() {
    // Render a socket table to ss text, parse it back, and feed the
    // parse to the agent: same learned windows as the direct path.
    use riptide_repro::linuxnet::ss::{SockEntry, SockState, SockTable};
    let entries: SockTable = (0..5u8)
        .map(|i| SockEntry {
            src: std::net::Ipv4Addr::new(10, 0, 0, 1),
            dst: std::net::Ipv4Addr::new(10, 0, 9, 1),
            state: SockState::Established,
            cc: "cubic".into(),
            cwnd: 60 + i as u32 * 10,
            ssthresh: Some(50),
            rtt_ms: Some(100.0),
            bytes_acked: 1 << 20,
            retrans: 0,
            lost: 0,
        })
        .collect();
    let text = entries.render();
    let mut parsed = SockTable::parse(&text).unwrap();

    let mut routes = RouteTable::new();
    let mut agent = RiptideAgent::new(
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .unwrap(),
    )
    .unwrap();
    agent.tick(SimTime::from_secs(1), &mut parsed, &mut routes);
    assert_eq!(
        routes.initcwnd_for(std::net::Ipv4Addr::new(10, 0, 9, 1)),
        Some(80),
        "average of 60..=100 is 80"
    );
}

#[test]
fn world_respects_riptide_routes_installed_mid_flight() {
    // A live deployment: the table changes between connections, and each
    // new connection picks up the freshest value.
    let mut w = World::new(TcpConfig::default(), 8);
    let a = w.add_pop();
    let b = w.add_pop();
    let h1 = w.add_host(a);
    let h2 = w.add_host(b);
    w.set_symmetric_path(a, b, PathConfig::with_delay(SimDuration::from_millis(30)));
    let table = Rc::new(RefCell::new(RouteTable::new()));
    struct Policy(Rc<RefCell<RouteTable>>);
    impl InitcwndPolicy for Policy {
        fn initial_cwnd(&self, _s: HostId, d: std::net::Ipv4Addr) -> Option<u32> {
            self.0.borrow().initcwnd_for(d)
        }
    }
    w.set_host_policy(h1, Rc::new(Policy(Rc::clone(&table))));

    let c1 = w.open_connection(h1, h2);
    assert_eq!(w.conn_stats(c1).initial_cwnd, 10, "no route yet: default");

    let dst = w.host_addr(h2);
    table
        .borrow_mut()
        .set_initcwnd(dst.into(), 90)
        .expect("install");
    let c2 = w.open_connection(h1, h2);
    assert_eq!(w.conn_stats(c2).initial_cwnd, 90, "route applies");

    table.borrow_mut().clear_initcwnd(dst.into()).expect("ttl");
    let c3 = w.open_connection(h1, h2);
    assert_eq!(w.conn_stats(c3).initial_cwnd, 10, "expiry restores default");
}

#[test]
fn full_deployment_learns_only_within_clamp() {
    let cfg = CdnSimConfig {
        testbed: TestbedConfig::tiny(4, 2, 77),
        riptide: Some(RiptideConfig::deployment()),
        probes: ProbeConfig {
            interval: SimDuration::from_secs(60),
            ..ProbeConfig::default()
        },
        organic: OrganicConfig::among(vec![0, 1], 0.3),
        cwnd_sample_interval: SimDuration::from_secs(60),
        probe_senders: None,
        telemetry: false,
        resilience: Default::default(),
    };
    let mut sim = CdnSim::new(cfg);
    sim.run_for(SimDuration::from_secs(600));
    // Every probe that used a learned window stayed within [c_min, c_max].
    for p in sim.probe_outcomes() {
        assert!(
            p.initial_cwnd == 10 || (10..=100).contains(&p.initial_cwnd),
            "initial window {} outside clamp",
            p.initial_cwnd
        );
    }
    let stats = sim.agent_stats_total();
    assert!(stats.route_updates > 0);
    assert_eq!(stats.errors, 0, "no control errors in steady state");
}
