//! Totality of the agent's outside-facing surfaces on hostile input.
//!
//! Three ways in from outside the program: the conf file (text), gossip
//! deltas (values a peer chose), and `ss` output (text, every poll, read
//! as `riptided` reads it: the strict parse, then the tick inside
//! `Daemon::poll`, and a rejected snapshot ends the run). None may panic
//! the daemon — these tests run in the debug profile, where an
//! arithmetic overflow is a panic — none may take more than linear time,
//! and whatever they make the agent believe, no window outside
//! `[cwnd_min, cwnd_max]` may reach the route controller.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;
use riptide::daemon::{Daemon, SNAPSHOT_EVERY};
use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::ss::{SockEntry, SockState, SockTable};
use riptide_simnet::time::SimTime;

fn pick<T: Copy>(from: &[T], by: usize) -> T {
    from[by % from.len()]
}

/// Remembers every window the agent asked for.
#[derive(Default)]
struct Recorder {
    installs: Vec<(Ipv4Prefix, u32)>,
}

impl RouteController for Recorder {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.installs.push((key, window));
        Ok(())
    }

    fn clear_initcwnd(&mut self, _key: Ipv4Prefix) -> Result<(), ControlError> {
        Ok(())
    }
}

impl Recorder {
    fn stayed_inside(&self, config: &RiptideConfig) -> Result<(), String> {
        let clamp = config.cwnd_min..=config.cwnd_max;
        match self.installs.iter().find(|(_, w)| !clamp.contains(w)) {
            Some((key, window)) => Err(format!("installed {window} for {key}, outside {clamp:?}")),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// The conf file
// ---------------------------------------------------------------------

const VALID_CONF: &str = "\
# deployment defaults, spelled out
alpha = 0.7
interval = 1
ttl = 90
cmax = 100
cmin = 10
combine = traffic-weighted
granularity = /28
trend = 0.3:0.6
guard = 0.05
capacity = 5000
aggregate = /24:8:2
";

const CONF_VALUES: &[&str] = &[
    "",
    "-1",
    "0",
    "1e400",
    "nan",
    "inf",
    "-inf",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "/33",
    "/255",
    "/0:0:0",
    "/24:4294967295:0",
    "windowed:0",
    "windowed:18446744073709551615",
    "loss-utility:nan:inf:-1",
    "p0",
    "p101",
    "0.3:",
    ":0.6",
    "nan:nan",
    "on",
    "off",
    "=",
    "\u{0}",
    "\u{fffd}",
];

/// A conf text the parser accepted must be one the agent can run.
fn conf_is_total(text: &str) {
    if let Ok(config) = RiptideConfig::from_conf_str(text) {
        assert!(config.cwnd_min <= config.cwnd_max, "{text:?}");
        assert!(RiptideAgent::new(config).is_ok(), "{text:?}");
    }
}

proptest! {
    #[test]
    fn conf_from_arbitrary_bytes_never_panics(bytes in vec(any::<u8>(), 0..300)) {
        conf_is_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn conf_with_a_hostile_value_is_an_error_or_a_runnable_config(
        which in any::<usize>(),
        with in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let lines: Vec<&str> = VALID_CONF.lines().collect();
        let which = 1 + which % (lines.len() - 1);
        let key = lines[which].split('=').next().unwrap();
        let mutated: String = lines
            .iter()
            .enumerate()
            .map(|(i, line)| match i == which {
                true => format!("{key}= {}\n", pick(CONF_VALUES, with)),
                false => format!("{line}\n"),
            })
            .collect();
        conf_is_total(&mutated);
        conf_is_total(&mutated[..cut % mutated.len()]);
        conf_is_total(&VALID_CONF[..cut % VALID_CONF.len()]);
    }
}

#[test]
fn the_valid_conf_is_valid() {
    conf_is_total(VALID_CONF);
    assert!(RiptideConfig::from_conf_str(VALID_CONF).is_ok());
}

// ---------------------------------------------------------------------
// Gossip deltas
// ---------------------------------------------------------------------

/// An agent with aggregation and the guard on, eight sibling hosts of
/// `10.0.1.0/24` learned and folded into one covering route.
fn aggregated_agent() -> (RiptideAgent, Recorder) {
    let config = RiptideConfig::builder()
        .guard(GuardConfig::default())
        .aggregation(AggregationPolicy::default())
        .build()
        .unwrap();
    let mut agent = RiptideAgent::new(config).unwrap();
    let mut recorder = Recorder::default();
    let siblings: Vec<CwndObservation> = (1..=8)
        .map(|n| CwndObservation {
            dst: Ipv4Addr::new(10, 0, 1, n),
            cwnd: 60,
            bytes_acked: 1_000_000,
            retrans: 0,
            ecn_marks: 0,
        })
        .collect();
    for second in 1..=3 {
        let mut observer = FnObserver(|| siblings.clone());
        agent.tick(SimTime::from_secs(second), &mut observer, &mut recorder);
    }
    let live = agent.aggregator().expect("aggregation is on");
    assert!(!live.is_empty(), "the siblings aggregate");
    (agent, recorder)
}

proptest! {
    #[test]
    fn arbitrary_deltas_merge_without_panic_and_inside_the_clamp(
        entries in vec((any::<u32>(), 0u8..=32, any::<u32>(), any::<u64>()), 0..40),
    ) {
        let (mut agent, mut recorder) = aggregated_agent();
        let now = SimTime::from_secs(4);
        let covered = Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, 3));
        prop_assert!(agent.aggregator().unwrap().covering_of(&covered).is_some());
        let before = recorder.installs.len();
        let delta: Vec<SyncEntry> = entries
            .iter()
            .map(|&(addr, len, window, stamp)| SyncEntry {
                // A fifth of the keys land under the live aggregate.
                key: match addr % 5 {
                    0 => Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, len)),
                    _ => Ipv4Prefix::new(Ipv4Addr::from(addr), len),
                },
                window: pick(&[0, 1, 9, 10, 100, 101, u32::MAX, window], window as usize),
                // Before `now`, at it, ahead of it, and at the end of time.
                last_updated: SimTime::from_nanos(pick(
                    &[0, now.as_nanos() - 1, now.as_nanos(), now.as_nanos() + 1, u64::MAX, stamp],
                    stamp as usize,
                )),
            })
            .collect();
        let config = agent.config().clone();
        let clamp = config.cwnd_min..=config.cwnd_max;
        for (key, window) in agent.merge_remote(&delta, now, &mut recorder) {
            prop_assert!(clamp.contains(&window), "{} for {}", window, key);
        }
        for (key, _) in &recorder.installs[before..] {
            prop_assert!(
                agent.aggregator().unwrap().covering_of(key).is_none(),
                "{} rides a covering route and was installed on its own", key
            );
        }
        // What was merged must not trip the next cycles either.
        for second in 5..=7 {
            agent.tick(SimTime::from_secs(second), &mut FnObserver(Vec::new), &mut recorder);
        }
        agent.tick_degraded(SimTime::from_secs(8), &mut recorder);
        if let Err(why) = recorder.stayed_inside(&config) {
            prop_assert!(false, "{}", why);
        }
    }
}

// ---------------------------------------------------------------------
// `ss` text, end to end
// ---------------------------------------------------------------------

/// Values at the edges of what an `ss` row can say.
fn hostile_row(seed: u64) -> SockEntry {
    let edge = |n: u32, max: u64| match seed >> n & 3 {
        0 => 0,
        1 => max,
        2 => max - (seed >> 9) % 3,
        _ => (seed >> 11) % 5_000_000,
    };
    SockEntry {
        src: Ipv4Addr::new(10, 0, 0, 1),
        // A handful of destinations, so rows share groups and a group's
        // counters jump and regress from poll to poll.
        dst: Ipv4Addr::new(10, 0, 1, (seed >> 2) as u8 % 4),
        state: if seed & 3 == 0 {
            SockState::SynSent
        } else {
            SockState::Established
        },
        cc: "cubic".into(),
        cwnd: edge(13, u64::from(u32::MAX)) as u32,
        ssthresh: None,
        rtt_ms: None,
        bytes_acked: edge(15, u64::MAX),
        retrans: edge(17, u64::MAX),
        lost: edge(19, u64::MAX),
    }
}

/// Things to splice into rendered text: values `render` cannot produce
/// and damage a pipe can do.
const SPLICES: &[&str] = &[
    " rtt:nan",
    " rtt:-inf/1",
    " rtt:1e308",
    " cwnd:4294967295",
    " cwnd:0",
    " retrans:18446744073709551615/18446744073709551615",
    " bytes_acked:18446744073709551615",
    " bytes_acked:18446744073709551616",
    " lost:+7",
    "\nESTAB 10.0.0.1 10.0.1.1\n",
    "\n\t cubic cwnd:99999\n",
    "\u{a0}",
    "\r",
    "\x0b",
    "\u{fffd}",
    ":",
];

proptest! {
    // A rejected snapshot ends a run, and about two polls in three are
    // rejected: eight times the default cases tick about a thousand.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn hostile_ss_text_never_panics_the_tick_nor_escapes_the_clamp(
        polls in vec((vec(any::<u64>(), 0..7), vec((any::<usize>(), any::<usize>()), 0..4)), 1..8),
        policy in any::<usize>(),
    ) {
        let (_, policy) = pick(&registered_policies(), policy);
        let config = RiptideConfig::builder()
            .policy(policy)
            .guard(GuardConfig::default())
            .build()
            .unwrap();
        let agent = RiptideAgent::new(config.clone()).unwrap();
        let mut daemon = Daemon::<Vec<u8>>::new(agent, None, SNAPSHOT_EVERY);
        let mut recorder = Recorder::default();
        for (second, (rows, splices)) in (1..).zip(&polls) {
            let table: SockTable = rows.iter().map(|&seed| hostile_row(seed)).collect();
            let mut text = table.render();
            for &(at, what) in splices {
                // Anywhere, one time in four; else back at the nearest
                // field boundary (after a blank or a newline).
                let anywhere = at.is_multiple_of(4);
                let mut at = at % (text.len() + 1);
                let inside = |at: usize| !matches!(text.as_bytes()[at - 1], b' ' | b'\n');
                while at > 0 && (!text.is_char_boundary(at) || (!anywhere && inside(at))) {
                    at -= 1;
                }
                text.insert_str(at, pick(SPLICES, what));
            }
            // riptided's poll: a snapshot the parser rejects ends the run.
            let Ok(mut socks) = SockTable::parse(&text) else {
                break;
            };
            let now = SimTime::from_secs(second);
            daemon.poll(now, |agent| agent.tick(now, &mut socks, &mut recorder));
            if let Err(why) = recorder.stayed_inside(&config) {
                prop_assert!(false, "poll {}: {}", second, why);
            }
        }
    }
}

/// A megabyte of conf text in one line, in newlines, and in one-byte
/// lines; a megabyte of `ss` text through riptided's poll.
#[test]
fn a_megabyte_is_linear_work() {
    const MB: usize = 1 << 20;
    let started = Instant::now();
    for text in [
        "x".repeat(MB),
        "\n".repeat(MB),
        "#\n".repeat(MB / 2),
        "a = ".repeat(MB / 4),
    ] {
        assert!(RiptideConfig::from_conf_str(&text).is_err() || text.starts_with(['\n', '#']));
    }
    assert!(
        SockTable::parse(&" cwnd:1".repeat(MB / 7)).is_err(),
        "one orphan info line"
    );
    let mut blank = SockTable::parse(&"\n".repeat(MB)).expect("blank lines parse");
    let mut daemon = Daemon::<Vec<u8>>::new(
        RiptideAgent::new(RiptideConfig::deployment()).unwrap(),
        None,
        SNAPSHOT_EVERY,
    );
    let now = SimTime::from_secs(1);
    let report = daemon.poll(now, |agent| {
        agent.tick(now, &mut blank, &mut Recorder::default())
    });
    assert_eq!(report.observed_connections, 0, "blank lines are no sockets");
    // Generous for a debug build on a busy machine; a quadratic pass over
    // a megabyte takes hours.
    assert!(started.elapsed() < Duration::from_secs(20));
}
