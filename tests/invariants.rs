//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use riptide_repro::cdn::stats::Cdf;
use riptide_repro::linuxnet::ip_cmd::IpRouteCmd;
use riptide_repro::linuxnet::lpm::LpmTrie;
use riptide_repro::linuxnet::prefix::Ipv4Prefix;
use riptide_repro::linuxnet::route::{RouteAttrs, RouteProto, RouteTable};
use riptide_repro::linuxnet::ss::{SockEntry, SockState, SockTable};
use riptide_repro::riptide::combine::CombineStrategy;
use riptide_repro::riptide::config::RiptideConfig;
use riptide_repro::riptide::model;
use riptide_repro::riptide::observe::CwndObservation;
use riptide_repro::riptide::policy::LearningPolicy;
use riptide_repro::simnet::config::TcpConfig;
use riptide_repro::simnet::ids::ConnId;
use riptide_repro::simnet::packet::Ack;
use riptide_repro::simnet::tcp::{Receiver, Sender};
use riptide_repro::simnet::time::SimTime;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------
// Analytic model
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn model_rtts_monotone_in_window(bytes in 1u64..20_000_000, iw in 1u32..500) {
        let r1 = model::rtts_for_bytes(bytes, model::DEFAULT_MSS, iw);
        let r2 = model::rtts_for_bytes(bytes, model::DEFAULT_MSS, iw + 1);
        prop_assert!(r2 <= r1, "larger window never needs more RTTs");
    }

    #[test]
    fn model_rtts_monotone_in_size(bytes in 1u64..20_000_000, iw in 1u32..500) {
        let r1 = model::rtts_for_bytes(bytes, model::DEFAULT_MSS, iw);
        let r2 = model::rtts_for_bytes(bytes + 1448, model::DEFAULT_MSS, iw);
        prop_assert!(r2 >= r1, "more data never needs fewer RTTs");
    }

    #[test]
    fn model_one_rtt_exactly_when_file_fits(bytes in 1u64..10_000_000, iw in 1u32..500) {
        let fits = bytes <= model::one_rtt_capacity(model::DEFAULT_MSS, iw);
        let rtts = model::rtts_for_bytes(bytes, model::DEFAULT_MSS, iw);
        prop_assert_eq!(rtts == 1, fits);
    }

    #[test]
    fn model_gain_bounded(bytes in 1u64..10_000_000, iw in 10u32..500) {
        let g = model::rtt_gain(bytes, model::DEFAULT_MSS, iw, 10);
        prop_assert!((0.0..1.0).contains(&g), "gain {g} in [0,1)");
    }
}

// ---------------------------------------------------------------------
// Route table: LPM versus a naive reference
// ---------------------------------------------------------------------

fn naive_lookup(routes: &[(Ipv4Prefix, u32)], addr: Ipv4Addr) -> Option<u32> {
    routes
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|&(_, w)| w)
}

proptest! {
    #[test]
    fn lpm_matches_naive_reference(
        entries in proptest::collection::vec((any::<u32>(), 0u8..=32, 1u32..200), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut table = RouteTable::new();
        let mut reference: Vec<(Ipv4Prefix, u32)> = Vec::new();
        for (bits, len, w) in entries {
            let prefix = Ipv4Prefix::new(Ipv4Addr::from(bits), len);
            table.replace(prefix, RouteAttrs::initcwnd(w));
            reference.retain(|(p, _)| *p != prefix);
            reference.push((prefix, w));
        }
        for bits in probes {
            let addr = Ipv4Addr::from(bits);
            prop_assert_eq!(table.initcwnd_for(addr), naive_lookup(&reference, addr));
        }
    }

    #[test]
    fn lpm_trie_matches_naive_reference_under_churn(
        // Interleaved insert/remove/lookup/exact get against a
        // linear-scan oracle. Masking `bits` down to a handful of
        // distinct /8 roots and four third octets makes overlapping and
        // duplicate prefixes common rather than rare, and puts sibling
        // /24s under one node.
        ops in proptest::collection::vec(
            (0u8..4, any::<u32>(), 0u8..=32, 1u32..200), 1..120),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        const MASK: u32 = 0x03FF_03FF;
        let mut trie: LpmTrie<u32> = LpmTrie::new();
        let mut reference: Vec<(Ipv4Prefix, u32)> = Vec::new();
        for (op, bits, len, w) in ops {
            let bits = bits & MASK; // few roots, dense low hosts
            let prefix = Ipv4Prefix::new(Ipv4Addr::from(bits), len);
            match op {
                0 => {
                    let old = trie.insert(prefix, w);
                    let oracle = reference.iter().position(|(p, _)| *p == prefix);
                    prop_assert_eq!(old, oracle.map(|i| reference[i].1));
                    if let Some(i) = oracle {
                        reference[i].1 = w;
                    } else {
                        reference.push((prefix, w));
                    }
                }
                1 => {
                    let old = trie.remove(&prefix);
                    let oracle = reference.iter().position(|(p, _)| *p == prefix);
                    prop_assert_eq!(old, oracle.map(|i| reference[i].1));
                    if let Some(i) = oracle {
                        reference.swap_remove(i);
                    }
                }
                2 => {
                    let got = trie.lookup(Ipv4Addr::from(bits)).map(|(_, w)| *w);
                    let want = naive_lookup(&reference, Ipv4Addr::from(bits));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let want = reference.iter().find(|(p, _)| *p == prefix).map(|(_, w)| *w);
                    prop_assert_eq!(trie.get(&prefix).copied(), want);
                }
            }
            prop_assert_eq!(trie.len(), reference.len());
        }
        for bits in probes {
            let addr = Ipv4Addr::from(bits & MASK);
            prop_assert_eq!(trie.lookup(addr).map(|(_, w)| *w), naive_lookup(&reference, addr));
        }
    }

    #[test]
    fn lpm_trie_default_route_and_host_route_edges(
        bits in any::<u32>(), w0 in 1u32..200, w32 in 1u32..200,
        probe in any::<u32>(),
    ) {
        // /0 matches everything; a /32 over the same address always wins.
        let mut trie: LpmTrie<u32> = LpmTrie::new();
        trie.insert(Ipv4Prefix::new(Ipv4Addr::from(0), 0), w0);
        trie.insert(Ipv4Prefix::new(Ipv4Addr::from(bits), 32), w32);
        prop_assert_eq!(trie.lookup(Ipv4Addr::from(bits)).map(|(_, w)| *w), Some(w32));
        let fallback = trie.lookup(Ipv4Addr::from(probe)).map(|(p, w)| (p.len(), *w));
        if probe == bits {
            prop_assert_eq!(fallback, Some((32, w32)));
        } else {
            prop_assert_eq!(fallback, Some((0, w0)));
        }
        prop_assert_eq!(trie.remove(&Ipv4Prefix::new(Ipv4Addr::from(bits), 32)), Some(w32));
        prop_assert_eq!(trie.lookup(Ipv4Addr::from(bits)).map(|(_, w)| *w), Some(w0));
    }

    #[test]
    fn prefix_display_parse_round_trip(bits in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(Ipv4Addr::from(bits), len);
        let q: Ipv4Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn add_then_del_is_identity(bits in any::<u32>(), len in 0u8..=32, w in 1u32..200) {
        let mut table = RouteTable::new();
        let p = Ipv4Prefix::new(Ipv4Addr::from(bits), len);
        table.add(p, RouteAttrs::initcwnd(w)).unwrap();
        let removed = table.del(p).unwrap();
        prop_assert_eq!(removed.attrs.initcwnd, Some(w));
        prop_assert!(table.is_empty());
        prop_assert_eq!(table.lookup(Ipv4Addr::from(bits)), None);
    }
}

// ---------------------------------------------------------------------
// ip route / ss text round trips
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn ip_cmd_round_trips(
        bits in any::<u32>(),
        len in 0u8..=32,
        initcwnd in proptest::option::of(1u32..1000),
        initrwnd in proptest::option::of(1u32..1000),
        via in proptest::option::of(any::<u32>()),
        dev in proptest::option::of("[a-z][a-z0-9]{1,6}"),
        action in 0u8..3,
    ) {
        let cmd = IpRouteCmd {
            action: match action {
                0 => riptide_repro::linuxnet::ip_cmd::IpRouteAction::Add,
                1 => riptide_repro::linuxnet::ip_cmd::IpRouteAction::Replace,
                _ => riptide_repro::linuxnet::ip_cmd::IpRouteAction::Del,
            },
            prefix: Ipv4Prefix::new(Ipv4Addr::from(bits), len),
            attrs: RouteAttrs {
                via: via.map(Ipv4Addr::from),
                dev,
                proto: RouteProto::Static,
                initcwnd,
                initrwnd,
            },
        };
        let reparsed: IpRouteCmd = cmd.to_string().parse().unwrap();
        // `del` does not print proto; everything else round-trips exactly.
        prop_assert_eq!(reparsed.action, cmd.action);
        prop_assert_eq!(reparsed.prefix, cmd.prefix);
        prop_assert_eq!(reparsed.attrs.initcwnd, cmd.attrs.initcwnd);
        prop_assert_eq!(reparsed.attrs.initrwnd, cmd.attrs.initrwnd);
        prop_assert_eq!(reparsed.attrs.via, cmd.attrs.via);
        prop_assert_eq!(reparsed.attrs.dev, cmd.attrs.dev);
    }

    #[test]
    fn ss_table_round_trips(
        rows in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 1u32..2000,
             proptest::option::of(1u32..2000), proptest::option::of(0.0f64..2000.0),
             any::<u64>(), 0u8..3, 0u64..10_000, 0u64..1_000),
            0..20,
        )
    ) {
        let table: SockTable = rows
            .into_iter()
            .map(|(src, dst, cwnd, ssthresh, rtt, bytes, state, retrans, lost)| SockEntry {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                state: match state {
                    0 => SockState::Established,
                    1 => SockState::SynSent,
                    _ => SockState::CloseWait,
                },
                cc: "cubic".into(),
                cwnd,
                ssthresh,
                // Rendered at 3 decimals; quantize so equality holds.
                rtt_ms: rtt.map(|r| (r * 1000.0).round() / 1000.0),
                bytes_acked: bytes,
                retrans,
                lost,
            })
            .collect();
        let parsed = SockTable::parse(&table.render()).unwrap();
        prop_assert_eq!(parsed, table);
    }
}

// ---------------------------------------------------------------------
// Riptide algorithm pieces
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn combine_stays_within_group_bounds(
        cwnds in proptest::collection::vec((1u32..500, 0u64..10_000_000), 1..30)
    ) {
        let group: Vec<CwndObservation> = cwnds
            .iter()
            .map(|&(cwnd, bytes)| CwndObservation {
                dst: Ipv4Addr::new(10, 0, 0, 1),
                cwnd,
                bytes_acked: bytes,
                retrans: 0,
                ecn_marks: 0,
            })
            .collect();
        let lo = group.iter().map(|o| o.cwnd as f64).fold(f64::MAX, f64::min);
        let hi = group.iter().map(|o| o.cwnd as f64).fold(f64::MIN, f64::max);
        for s in [
            CombineStrategy::Average,
            CombineStrategy::Max,
            CombineStrategy::TrafficWeighted,
        ] {
            let v = s.combine(&group).unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{s}: {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn ewma_stays_between_history_and_fresh(
        alpha in 0.0f64..=1.0,
        values in proptest::collection::vec(1.0f64..500.0, 1..50),
    ) {
        let s = LearningPolicy::Ewma { alpha };
        let mut st = s.new_state();
        let mut prev: Option<f64> = None;
        for v in values {
            let out = s.blend(&mut st, v);
            match prev {
                None => prop_assert!((out - v).abs() < 1e-9),
                Some(p) => {
                    let (lo, hi) = if p < v { (p, v) } else { (v, p) };
                    prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
                }
            }
            prev = Some(out);
        }
    }

    #[test]
    fn clamp_always_lands_in_bounds(
        value in -1e6f64..1e6,
        lo in 1u32..200,
        extra in 0u32..200,
    ) {
        let cfg = RiptideConfig::builder()
            .cwnd_min(lo)
            .cwnd_max(lo + extra)
            .build()
            .unwrap();
        let w = cfg.clamp(value);
        prop_assert!(w >= lo && w <= lo + extra);
    }
}

// ---------------------------------------------------------------------
// TCP sender/receiver: eventual delivery under arbitrary loss patterns
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sender_receiver_eventually_deliver_everything(
        segments in 1u64..200,
        loss_mask in proptest::collection::vec(any::<bool>(), 0..300),
        sack in any::<bool>(),
    ) {
        let cfg = TcpConfig {
            sack,
            ..TcpConfig::default()
        };
        let conn = ConnId::from_index(0);
        let mut tx = Sender::new(&cfg, 10, SimTime::ZERO);
        let mut rx = Receiver::new(conn, &cfg);
        let mut now = SimTime::from_nanos(0);
        let mut outbox = Vec::new();
        tx.write(segments, now, &mut outbox);

        let mut losses = loss_mask.into_iter();
        let mut steps = 0u32;
        while !tx.all_acked() {
            steps += 1;
            prop_assert!(steps < 10_000, "livelock suspected");
            now += riptide_repro::simnet::time::SimDuration::from_millis(10);
            let out = std::mem::take(&mut outbox);
            let mut delivered_any = false;
            for seg in out {
                // Drop while the mask lasts; afterwards the network is clean,
                // so delivery must eventually finish.
                if losses.next() == Some(true) {
                    continue;
                }
                delivered_any = true;
                // quickack config: every segment is acked immediately.
                let ack: Ack = match rx.on_segment(seg.seq) {
                    riptide_repro::simnet::tcp::receiver::AckDecision::Immediate(a) => a,
                    other => panic!("quickack receiver deferred: {other:?}"),
                };
                tx.on_ack(&ack, now, &mut outbox);
            }
            if !delivered_any {
                // Nothing moved: fire the retransmission timer if armed.
                if let Some(req) = tx.take_timer_request() {
                    tx.on_rto_fire(req.epoch, req.deadline.max(now), &mut outbox);
                }
            }
        }
        prop_assert_eq!(tx.cum_acked(), segments);
        prop_assert_eq!(rx.cum_received(), segments);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn delayed_ack_receiver_still_delivers_everything(
        segments in 1u64..150,
    ) {
        use riptide_repro::simnet::tcp::receiver::AckDecision;
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        let conn = ConnId::from_index(0);
        let mut tx = Sender::new(&cfg, 10, SimTime::ZERO);
        let mut rx = Receiver::new(conn, &cfg);
        let mut now = SimTime::from_nanos(0);
        let mut outbox = Vec::new();
        tx.write(segments, now, &mut outbox);
        let mut steps = 0u32;
        while !tx.all_acked() {
            steps += 1;
            prop_assert!(steps < 10_000, "livelock suspected");
            now += riptide_repro::simnet::time::SimDuration::from_millis(10);
            let out = std::mem::take(&mut outbox);
            let mut pending_timer = None;
            for seg in out {
                match rx.on_segment(seg.seq) {
                    AckDecision::Immediate(ack) => tx.on_ack(&ack, now, &mut outbox),
                    AckDecision::Deferred { epoch } => pending_timer = Some(epoch),
                }
            }
            // Fire the delayed-ack timer if one was armed this round.
            if let Some(epoch) = pending_timer {
                now += cfg.delayed_ack_timeout;
                if let Some(ack) = rx.on_delack_timer(epoch) {
                    tx.on_ack(&ack, now, &mut outbox);
                }
            }
            if std::mem::take(&mut outbox).is_empty() && !tx.all_acked() && pending_timer.is_none() {
                // Nothing in flight released new data: fall back to RTO.
                if let Some(req) = tx.take_timer_request() {
                    tx.on_rto_fire(req.epoch, req.deadline.max(now), &mut outbox);
                }
            }
        }
        prop_assert_eq!(rx.cum_received(), segments);
    }
}

// ---------------------------------------------------------------------
// World-level determinism under arbitrary workloads
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn world_runs_are_reproducible_under_arbitrary_schedules(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..3, 1_000u64..300_000, 0u64..5_000), 1..25),
    ) {
        use riptide_repro::simnet::prelude::*;
        let run = || {
            let mut w = World::new(TcpConfig::default(), seed);
            let a = w.add_pop();
            let b = w.add_pop();
            let h1 = w.add_host(a);
            let h2 = w.add_host(b);
            w.set_symmetric_path(
                a,
                b,
                PathConfig::with_delay(
                    riptide_repro::simnet::time::SimDuration::from_millis(25),
                )
                .loss(0.01),
            );
            let mut t = SimTime::ZERO;
            let mut open: Vec<ConnId> = Vec::new();
            for &(kind, bytes, gap_ms) in &ops {
                t += riptide_repro::simnet::time::SimDuration::from_millis(gap_ms);
                w.run_until(t);
                match kind {
                    0 => {
                        let (c, _) = w.open_and_transfer(h1, h2, bytes);
                        open.push(c);
                    }
                    1 => {
                        if let Some(&c) = open.last() {
                            if w.conn_state(c) != riptide_repro::simnet::conn::ConnState::Closed {
                                w.start_transfer(c, bytes);
                            }
                        }
                    }
                    _ => {
                        if let Some(c) = open.pop() {
                            w.close_connection(c);
                        }
                    }
                }
            }
            w.run_until(t + riptide_repro::simnet::time::SimDuration::from_secs(120));
            let recs: Vec<(u64, u64)> = w
                .drain_completed()
                .iter()
                .map(|r| (r.bytes, r.completed_at.as_nanos()))
                .collect();
            (recs, w.stats().events_processed)
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first, second, "identical construction must replay identically");
    }
}

// ---------------------------------------------------------------------
// Closed-loop safety: reconciler audit and the bounded learned table
// ---------------------------------------------------------------------

proptest! {
    // From *any* divergent (kernel routes, learned table) pair, one
    // reconciler audit restores agreement, never touches a foreign
    // route, and never installs a window outside `[c_min, c_max]`.
    #[test]
    fn one_audit_repairs_arbitrary_drift_and_spares_foreign_routes(
        expected_rows in proptest::collection::btree_map(1u8..250, 1u32..300, 0..24),
        perturb in proptest::collection::vec(0u8..4, 24),
        orphans in proptest::collection::btree_map(1u8..250, 1u32..300, 0..8),
        foreigners in proptest::collection::btree_set(1u8..250, 0..8),
        lo in 2u32..50,
        extra in 0u32..120,
    ) {
        use riptide_repro::riptide::reconcile::{audit, is_riptide_route};
        use std::collections::BTreeMap;

        let bounds = (lo, lo + extra);
        let exp_key = |n: u8| Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n));
        let orphan_key = |n: u8| Ipv4Prefix::host(Ipv4Addr::new(10, 0, 2, n));
        let foreign_key = |n: u8| Ipv4Prefix::host(Ipv4Addr::new(10, 0, 3, n));

        // Drift the kernel away from the expected view, one perturbation
        // per expectation: in sync, deleted behind the agent's back,
        // window rewritten, or shadowed by a foreign squatter.
        let mut expected: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        let mut kernel = RouteTable::new();
        let mut squatted: Vec<Ipv4Prefix> = Vec::new();
        for (i, (&n, &w)) in expected_rows.iter().enumerate() {
            let key = exp_key(n);
            expected.insert(key, w);
            match perturb[i] {
                0 => {
                    kernel.replace(key, RouteAttrs::initcwnd(w));
                }
                1 => {}
                2 => {
                    kernel.replace(key, RouteAttrs::initcwnd(w + 7));
                }
                _ => {
                    kernel.replace(
                        key,
                        RouteAttrs {
                            proto: RouteProto::Boot,
                            via: Some(Ipv4Addr::new(192, 0, 2, 1)),
                            ..RouteAttrs::default()
                        },
                    );
                    squatted.push(key);
                }
            }
        }
        // Signature orphans (a crashed predecessor's leftovers) and
        // unambiguously foreign routes.
        for (&n, &w) in &orphans {
            kernel.replace(orphan_key(n), RouteAttrs::initcwnd(w));
        }
        for &n in &foreigners {
            kernel.replace(
                foreign_key(n),
                RouteAttrs {
                    proto: RouteProto::Kernel,
                    ..RouteAttrs::default()
                },
            );
        }
        let foreign_snapshot: Vec<(Ipv4Prefix, RouteAttrs)> = kernel
            .iter()
            .filter(|r| !is_riptide_route(&r.attrs))
            .map(|r| (r.prefix, r.attrs.clone()))
            .collect();

        // One audit: diff the dump, repair the live table.
        let mut live = kernel.clone();
        let report = audit(&expected, &kernel, bounds, &mut live);
        prop_assert!(report.errors.is_empty(), "{:?}", report.errors);

        // Foreign routes survive byte for byte.
        for (prefix, attrs) in &foreign_snapshot {
            prop_assert_eq!(
                live.get(*prefix).map(|r| &r.attrs),
                Some(attrs),
                "foreign route modified at {}",
                prefix
            );
        }
        // Every expectation converged to its clamped window — except
        // where a foreign squatter holds the key, which is left alone.
        for (&key, &want) in &expected {
            if squatted.contains(&key) {
                continue;
            }
            prop_assert_eq!(
                live.get(key).and_then(|r| r.attrs.initcwnd),
                Some(want.clamp(bounds.0, bounds.1)),
                "expectation not converged at {}",
                key
            );
        }
        // No signature orphan survives the audit.
        for route in live.iter() {
            prop_assert!(
                !is_riptide_route(&route.attrs) || expected.contains_key(&route.prefix),
                "orphan survived at {}",
                route.prefix
            );
        }
        // Nothing the audit installed leaves the bounds.
        for &(_, w) in &report.reinstalled {
            prop_assert!(w >= bounds.0 && w <= bounds.1, "installed {w} outside bounds");
        }
        // A second audit against the repaired table is a no-op.
        let repaired = live.clone();
        let second = audit(&expected, &repaired, bounds, &mut live);
        prop_assert!(second.converged(), "second audit not converged: {second:?}");
    }

    // A capacity-bounded table never exceeds its bound, never evicts the
    // entry that was just refreshed, and evicts deterministically.
    #[test]
    fn bounded_table_respects_capacity_and_lru_order(
        cap in 1usize..12,
        updates in proptest::collection::vec((1u8..40, 1u32..200), 1..60),
    ) {
        use riptide_repro::riptide::table::FinalTable;
        use riptide_repro::riptide::policy::LearningPolicy;
        use riptide_repro::simnet::time::SimDuration;

        let strategy = LearningPolicy::None;
        let run = || {
            let mut table = FinalTable::bounded(cap);
            let mut log: Vec<Ipv4Prefix> = Vec::new();
            for (i, &(n, w)) in updates.iter().enumerate() {
                let now = SimTime::ZERO + SimDuration::from_secs(i as u64 + 1);
                let key = Ipv4Prefix::host(Ipv4Addr::new(10, 0, 9, n));
                table.blend(key, w as f64, &strategy, now);
                table.set_window(&key, w);
                let evicted = table.enforce_capacity();
                assert!(table.len() <= cap, "table grew past its bound");
                assert!(
                    !evicted.contains(&key),
                    "evicted the entry that was just refreshed"
                );
                log.extend(evicted);
            }
            log
        };
        prop_assert_eq!(run(), run(), "eviction order must be deterministic");
    }
}

// ---------------------------------------------------------------------
// Telemetry: counters, the decision journal, and snapshot merging
// ---------------------------------------------------------------------

proptest! {
    // A counter only moves forward, by exactly what was added.
    #[test]
    fn counters_are_monotone_under_arbitrary_increments(
        increments in proptest::collection::vec(0u64..1_000, 0..100),
    ) {
        use riptide_repro::riptide::telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let counter = registry.counter("riptide_prop_total", "property fixture");
        let mut prev = counter.get();
        prop_assert_eq!(prev, 0);
        for inc in increments {
            counter.add(inc);
            let cur = counter.get();
            prop_assert!(cur >= prev, "counter moved backwards: {prev} -> {cur}");
            prop_assert_eq!(cur, prev + inc);
            prev = cur;
        }
        // The registry hands back the same underlying cell, not a fresh one.
        prop_assert_eq!(
            registry.counter("riptide_prop_total", "property fixture").get(),
            prev
        );
    }

    // The journal holds at most `capacity` records, drops only from the
    // front, and keeps arrival order among whatever it retains.
    #[test]
    fn journal_is_bounded_and_preserves_order(
        capacity in 1usize..32,
        pushes in 0usize..150,
    ) {
        use riptide_repro::riptide::telemetry::{
            DecisionAction, DecisionCause, DecisionJournal, DecisionRecord,
        };
        let journal = DecisionJournal::bounded(capacity);
        for i in 0..pushes {
            journal.record(DecisionRecord {
                at: SimTime::from_secs(i as u64),
                key: Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 1)),
                // Encode the sequence number in the window so order is
                // observable from the outside.
                action: DecisionAction::Install { window: i as u32 },
                cause: DecisionCause::TtlExpired,
            });
            prop_assert!(journal.len() <= capacity, "journal grew past capacity");
        }
        prop_assert_eq!(journal.total_recorded(), pushes as u64);
        prop_assert_eq!(journal.len(), pushes.min(capacity));
        let held = journal.snapshot();
        let first_kept = pushes.saturating_sub(capacity);
        for (slot, record) in held.iter().enumerate() {
            prop_assert!(
                matches!(
                    record.action,
                    DecisionAction::Install { window } if window as usize == first_kept + slot
                ),
                "slot {slot} holds {record:?}, expected sequence {}",
                first_kept + slot
            );
        }
    }

    // Sharded metric collection is equivalent to unsharded: however the
    // same operations are split across shard registries, and in whatever
    // order the per-shard snapshots merge, the result equals one registry
    // that saw everything.
    #[test]
    fn snapshot_merge_is_interleaving_invariant(
        ops in proptest::collection::vec((0usize..5, 0u8..2, 1u64..120), 1..120),
        shard_count in 1usize..5,
        rotate_by in 0usize..5,
    ) {
        use riptide_repro::riptide::telemetry::{MetricsRegistry, MetricsSnapshot};
        const BOUNDS: [u64; 3] = [10, 50, 100];
        let apply = |registry: &MetricsRegistry, &(_, kind, value): &(usize, u8, u64)| {
            match kind {
                0 => registry
                    .counter("riptide_prop_ops_total", "property fixture")
                    .add(value),
                _ => registry
                    .histogram("riptide_prop_window", "property fixture", &BOUNDS)
                    .observe(value),
            }
        };

        let pooled = MetricsRegistry::new();
        let shards: Vec<MetricsRegistry> =
            (0..shard_count).map(|_| MetricsRegistry::new()).collect();
        for op in &ops {
            apply(&pooled, op);
            apply(&shards[op.0 % shard_count], op);
        }

        let merge_in = |order: &[usize]| {
            let mut merged = MetricsSnapshot::default();
            for &i in order {
                merged.merge(&shards[i].snapshot());
            }
            merged
        };
        let plan_order: Vec<usize> = (0..shard_count).collect();
        let mut rotated = plan_order.clone();
        rotated.rotate_left(rotate_by % shard_count);
        let reversed: Vec<usize> = plan_order.iter().rev().copied().collect();

        let want = pooled.snapshot();
        prop_assert_eq!(&merge_in(&plan_order), &want, "sharded merge equals unsharded");
        prop_assert_eq!(&merge_in(&rotated), &want, "merge order cannot matter");
        prop_assert_eq!(&merge_in(&reversed), &want, "merge order cannot matter");
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn cdf_quantiles_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::new(samples);
        let mut prev = f64::MIN;
        for i in 0..=20 {
            let q = cdf.quantile(i as f64 / 20.0);
            prop_assert!(q >= prev);
            prev = q;
        }
        prop_assert_eq!(cdf.quantile(1.0), cdf.max());
    }

    #[test]
    fn cdf_fraction_is_consistent_with_quantile(
        samples in proptest::collection::vec(0.0f64..1e6, 2..200),
        p in 0.05f64..1.0,
    ) {
        let cdf = Cdf::new(samples);
        let q = cdf.quantile(p);
        // At least p of the mass sits at or below the p-quantile.
        prop_assert!(cdf.fraction_at_or_below(q) >= p - 1e-9);
    }
}

// ---------------------------------------------------------------------
// Simulated time: constructors never wrap
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn sim_time_constructors_never_wrap(v in 0u64..=u64::MAX) {
        use riptide_repro::simnet::time::{SimDuration, SimTime};
        // A wrapped multiply would produce an instant *smaller* than an
        // exact widening conversion; saturation can only pin at MAX.
        let exact_secs = (v as u128) * 1_000_000_000;
        let got = SimTime::from_secs(v).as_nanos() as u128;
        prop_assert_eq!(got, exact_secs.min(u64::MAX as u128));

        let exact_ms = (v as u128) * 1_000_000;
        let got = SimTime::from_millis(v).as_nanos() as u128;
        prop_assert_eq!(got, exact_ms.min(u64::MAX as u128));

        let exact_us = (v as u128) * 1_000;
        let got = SimDuration::from_micros(v).as_nanos() as u128;
        prop_assert_eq!(got, exact_us.min(u64::MAX as u128));

        let got = SimDuration::from_millis(v).as_nanos() as u128;
        prop_assert_eq!(got, exact_ms.min(u64::MAX as u128));

        let got = SimDuration::from_secs(v).as_nanos() as u128;
        prop_assert_eq!(got, exact_secs.min(u64::MAX as u128));
    }

    #[test]
    fn sim_time_constructors_monotone(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        use riptide_repro::simnet::time::{SimDuration, SimTime};
        // Wrapping breaks monotonicity; saturation preserves it.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(SimTime::from_secs(lo) <= SimTime::from_secs(hi));
        prop_assert!(SimTime::from_millis(lo) <= SimTime::from_millis(hi));
        prop_assert!(SimDuration::from_micros(lo) <= SimDuration::from_micros(hi));
        prop_assert!(SimDuration::from_millis(lo) <= SimDuration::from_millis(hi));
        prop_assert!(SimDuration::from_secs(lo) <= SimDuration::from_secs(hi));
    }
}

// ---------------------------------------------------------------------
// Learning policies: every registered policy honours the same contracts
// ---------------------------------------------------------------------

/// The policies under test: the arena registry plus the spec-grammar
/// corners the registry does not cover (no-history, windowed mean, an
/// odd percentile).
fn policies_under_test() -> Vec<(String, riptide_repro::riptide::policy::LearningPolicy)> {
    use riptide_repro::riptide::policy::LearningPolicy;
    let mut out: Vec<(String, LearningPolicy)> =
        riptide_repro::riptide::policy::registered_policies()
            .into_iter()
            .map(|(name, p)| (name.to_string(), p))
            .collect();
    for spec in ["none", "windowed:5", "percentile:0.5:32"] {
        out.push((
            spec.to_string(),
            LearningPolicy::from_spec(spec).expect("test specs parse"),
        ));
    }
    out
}

proptest! {
    // Whatever a policy learns from arbitrary (cwnd, retransmit,
    // bytes-acked) observations, nothing the agent installs ever
    // leaves [c_min, c_max]: the clamp sits downstream of every
    // policy, not just the default EWMA.
    #[test]
    fn installed_windows_stay_clamped_for_every_policy(
        ticks in proptest::collection::vec(
            proptest::collection::vec((1u32..10_000, 0u64..100, 1u64..10_000_000), 1..5),
            1..8),
    ) {
        use riptide_repro::riptide::agent::RiptideAgent;
        use riptide_repro::riptide::observe::FnObserver;
        use riptide_repro::simnet::time::SimDuration;

        for (name, policy) in policies_under_test() {
            let cfg = RiptideConfig::builder()
                .policy(policy)
                .build()
                .expect("registered policies build valid configs");
            let (c_min, c_max) = (cfg.cwnd_min, cfg.cwnd_max);
            let mut table = RouteTable::new();
            let mut agent = RiptideAgent::new(cfg).expect("valid config");
            for (i, tick) in ticks.iter().enumerate() {
                let now = SimTime::ZERO + SimDuration::from_secs(10 * (i as u64 + 1));
                let batch: Vec<CwndObservation> = tick
                    .iter()
                    .enumerate()
                    .map(|(j, &(cwnd, retrans, bytes_acked))| CwndObservation {
                        dst: Ipv4Addr::new(10, 0, j as u8 % 4, 1),
                        cwnd,
                        bytes_acked,
                        retrans,
                        ecn_marks: 0,
                    })
                    .collect();
                let mut observer = FnObserver(|| batch.clone());
                agent.tick(now, &mut observer, &mut table);
                for route in table.iter() {
                    if let Some(w) = route.attrs.initcwnd {
                        prop_assert!(
                            (c_min..=c_max).contains(&w),
                            "{}: installed {} outside [{}, {}] at {}",
                            name, w, c_min, c_max, route.prefix
                        );
                    }
                }
            }
        }
    }

    // A constant signal is a fixed point for every policy: feed the
    // same fresh value long enough (loss-free, so the utility score
    // has nothing to discount) and the learned window is that value.
    #[test]
    fn constant_input_converges_for_every_policy(
        c in 1.0f64..1_000_000.0,
        steps in 50usize..200,
    ) {
        use riptide_repro::riptide::policy::PolicyInput;

        for (name, policy) in policies_under_test() {
            let mut state = policy.new_state();
            let mut last = f64::NAN;
            for _ in 0..steps {
                last = policy.observe(&mut state, &PolicyInput::fresh_only(c));
            }
            prop_assert!(
                ((last - c) / c).abs() < 1e-9,
                "{}: constant {} converged to {}",
                name, c, last
            );
        }
    }

    // Every policy's history accumulator — the seeded/unseeded EWMA
    // and utility scores, the sample ring, the windowed mean —
    // survives a persist encode → decode round trip bit-exactly
    // (Debug rendering distinguishes -0.0 from 0.0, so comparing it
    // alongside `==` pins the bits, not just numeric equality).
    #[test]
    fn history_states_round_trip_bit_exactly_for_every_policy(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        use riptide_repro::riptide::persist::{
            decode_state, encode_state, SnapshotEntry, TableSnapshot,
        };
        use riptide_repro::riptide::policy::PolicyInput;

        let mut entries = Vec::new();
        for (i, (_, policy)) in policies_under_test().into_iter().enumerate() {
            for (j, &seed) in seeds.iter().enumerate() {
                let mut state = policy.new_state();
                let mut rng = seed;
                let mut last = 0.0;
                for _ in 0..1 + seed % 9 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    last = policy.observe(&mut state, &PolicyInput {
                        fresh: (rng >> 40) as f64 / 16.0 + 1.0,
                        retrans: (rng >> 20) & 0x3,
                        ecn_marks: 0,
                        bytes_acked: 1 << 20,
                    });
                }
                entries.push(SnapshotEntry {
                    key: Ipv4Prefix::host(Ipv4Addr::new(10, i as u8, j as u8, 1)),
                    window: 10 + (seed % 90) as u32,
                    last_fresh: last,
                    last_updated: SimTime::from_secs(seed % 1_000),
                    history: state,
                });
            }
        }
        let snapshot = TableSnapshot {
            taken_at: SimTime::from_secs(1),
            entries,
            installs: Vec::new(),
            guards: Vec::new(),
            skipped_entries: 0,
        };
        let bytes = encode_state(&snapshot, &[]);
        let state = decode_state(&bytes);
        prop_assert!(state.is_ok(), "clean bytes must decode: {:?}", state);
        let state = state.unwrap();
        prop_assert_eq!(
            format!("{:?}", state.snapshot.entries),
            format!("{:?}", snapshot.entries),
            "history payloads must round-trip bit-exactly"
        );
        prop_assert_eq!(&state.snapshot, &snapshot);
    }
}
