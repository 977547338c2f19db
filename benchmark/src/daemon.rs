//! `daemon-poll`: the `riptided` path, text at both ends. Rendered `ss -i`
//! output for 20 000 sockets over 5 000 /32 destinations goes through
//! `SockTable::parse` into a tick with guard and telemetry on (EWMA, no
//! aggregation); the tick's decisions are rendered as `ip route` lines;
//! every 60th cycle the agent is snapshotted and the state file encoded.
//! A small table with every optional subsystem on — the layers
//! `megafleet-tick` bypasses. Closed loop, one client.
//!
//! A repetition is one block of 60 cycles, snapshot included;
//! `cycle_p50_ms` and `cycle_tail_ms` are over single cycles. After the
//! first three blocks the daemon crashes half-way into the fourth and
//! restarts five times from snapshot-plus-journal bytes, and peak memory
//! is read: that much work is the same on every machine, while the blocks
//! that follow go on until the window closes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use riptide::prelude::*;
use riptide_linuxnet::ip_cmd::IpRouteCmd;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_linuxnet::ss::{SockEntry, SockState, SockTable};
use riptide_simnet::rng::DetRng;
use riptide_simnet::time::SimTime;

use crate::agentkit::{self, PassTimes};
use crate::layers;
use crate::span::Tracer;
use crate::workload::{millis, setup_median, Outcome, RunArgs, Window, MIN_REPS, POLL_INTERVAL};

/// Polls between state-file snapshots, `riptided`'s default.
const SNAPSHOT_EVERY: u64 = 60;
/// Warm restarts per pass.
const RESTARTS: usize = 5;
/// Cycles every pass runs however slow the machine; more than enough to
/// leave ten beyond p90, the percentile `cycle_tail_ms` is taken at.
const MIN_CYCLES: usize = MIN_REPS * SNAPSHOT_EVERY as usize;
/// Share of sockets that retransmit in any one poll.
const RETRANSMIT_SHARE: f64 = 0.005;
/// Share of sockets not in `ESTAB`, which the agent must skip.
const HALF_OPEN_SHARE: f64 = 0.01;

/// The host's sockets, drifting from poll to poll.
struct Sockets {
    rng: DetRng,
    entries: Vec<SockEntry>,
}

impl Sockets {
    fn generate(seed: u64, sockets: usize, destinations: usize) -> Self {
        let mut rng = DetRng::for_stream(seed, 0x5353); // "SS"
        let base = u32::from(Ipv4Addr::new(10, 64, 0, 0));
        let entries = (0..sockets)
            .map(|i| {
                // The first `destinations` sockets cover every destination
                // once; the rest pick at random, so groups differ in size.
                let d = if i < destinations {
                    i
                } else {
                    rng.below(destinations)
                };
                SockEntry {
                    src: Ipv4Addr::new(10, 0, 0, 1),
                    dst: Ipv4Addr::from(base + d as u32),
                    state: if rng.chance(HALF_OPEN_SHARE) {
                        SockState::SynSent
                    } else {
                        SockState::Established
                    },
                    cc: "cubic".into(),
                    cwnd: 10 + rng.below(111) as u32,
                    ssthresh: rng.chance(0.5).then(|| 20 + rng.below(100) as u32),
                    rtt_ms: Some(rng.uniform(5.0, 250.0)),
                    bytes_acked: 100_000 + rng.below(10_000_000) as u64,
                    retrans: 0,
                    lost: 0,
                }
            })
            .collect();
        Sockets { rng, entries }
    }

    /// One poll interval passes: windows drift, bytes flow, a few sockets
    /// retransmit.
    fn drift(&mut self) {
        for e in &mut self.entries {
            e.cwnd = (e.cwnd + self.rng.below(7) as u32)
                .saturating_sub(3)
                .clamp(2, 200);
            e.bytes_acked += 10_000 + self.rng.below(500_000) as u64;
            if self.rng.chance(RETRANSMIT_SHARE) {
                e.retrans += 1 + self.rng.below(3) as u64;
            }
        }
    }

    fn render(&self, tracer: &mut Tracer, id: u64) -> String {
        let table: SockTable = self.entries.iter().cloned().collect();
        tracer.span("linuxnet.ss.render", id, || table.render())
    }

    fn established_destinations(&self) -> usize {
        let mut dsts: Vec<Ipv4Addr> = self
            .entries
            .iter()
            .filter(|e| e.state == SockState::Established)
            .map(|e| e.dst)
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts.len()
    }
}

/// The daemon after set-up.
struct Daemon {
    config: RiptideConfig,
    sockets: Sockets,
    agent: RiptideAgent,
    routes: RouteTable,
    /// The state file as of the last snapshot.
    snapshot_bytes: Vec<u8>,
    /// The installed view as of the last snapshot: the journal's base.
    snapshot_view: BTreeMap<Ipv4Prefix, u32>,
    /// `ip route` lines issued over polls 2–60, the first full block.
    first_block_commands: Option<usize>,
    /// Polls so far; simulated time is one poll interval per poll.
    polls: u64,
}

fn agent_config() -> RiptideConfig {
    RiptideConfig::builder()
        .guard(GuardConfig::default())
        .build()
        .expect("the workload's agent configuration is valid")
}

fn new_agent(config: &RiptideConfig, telemetry: bool) -> RiptideAgent {
    let mut agent = RiptideAgent::new(config.clone()).expect("validated by the builder");
    if telemetry {
        agent.attach_telemetry(AgentTelemetry::standalone(256));
    }
    agent
}

/// Set-up: generate the host's sockets and run one discarded warm-up
/// poll, which also learns every destination (5 000 first installs).
fn setup(args: &RunArgs, out: &mut Outcome) -> Daemon {
    let (sockets, destinations) = if args.smoke {
        (2_000, 500)
    } else {
        (20_000, 5_000)
    };
    let config = agent_config();
    let mut daemon = Daemon {
        agent: new_agent(&config, true),
        config,
        sockets: Sockets::generate(args.seed, sockets, destinations),
        routes: RouteTable::new(),
        snapshot_bytes: Vec::new(),
        snapshot_view: BTreeMap::new(),
        first_block_commands: None,
        polls: 0,
    };
    let issued = daemon.cycle(&mut Tracer::off(), out).1;
    let expected = daemon.sockets.established_destinations();
    out.require(issued == expected, || {
        format!("the first poll should issue {expected} routes, one per destination; it issued {issued}")
    });
    daemon
}

/// Renders what `riptided` prints for one tick: an `ip route replace` per
/// update and an `ip route del` per withdrawal.
fn render_commands(report: &TickReport, lines: &mut String) -> usize {
    lines.clear();
    let mut count = 0;
    for &(key, window) in report.updates.iter().chain(&report.merged) {
        writeln!(lines, "{}", IpRouteCmd::set_initcwnd(key, window)).expect("String writes");
        count += 1;
    }
    for &key in report
        .expired
        .iter()
        .chain(&report.evicted)
        .chain(&report.disaggregated)
    {
        writeln!(lines, "{}", IpRouteCmd::del(key)).expect("String writes");
        count += 1;
    }
    count
}

impl Daemon {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.polls)
    }

    /// One poll as the operator pays it: `ss` text in → `ip route` lines
    /// out (and, every 60th, the state file's bytes). Returns wall-clock
    /// milliseconds and the number of command lines.
    fn cycle(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> (f64, usize) {
        self.polls += 1;
        self.sockets.drift();
        let text = self.sockets.render(tracer, self.polls);
        let mut lines = String::new();

        let now = self.now();
        let started = Instant::now();
        let open = tracer.open("bench.cycle", self.polls);
        let parsed = tracer.span("linuxnet.ss.parse", self.polls, || SockTable::parse(&text));
        let mut failed = parsed.is_err();
        let mut commands = 0;
        if let Ok(mut table) = parsed {
            let report = agentkit::tick(
                &mut self.agent,
                now,
                &mut table,
                &mut self.routes,
                tracer,
                self.polls,
            );
            failed |= !report.errors.is_empty();
            commands = tracer.span("linuxnet.ip_cmd.render", self.polls, || {
                render_commands(&report, &mut lines)
            });
            if self.polls.is_multiple_of(SNAPSHOT_EVERY) {
                self.snapshot_bytes =
                    agentkit::checkpoint(&self.agent, now, &[], tracer, self.polls);
                self.snapshot_view = self.agent.installed_view().clone();
            }
            let bad = agentkit::windows_out_of_bounds(
                &self.config,
                report.updates.iter().map(|(_, w)| w),
            );
            out.require(bad == 0, || {
                format!(
                    "poll {}: {bad} issued window(s) outside the clamp",
                    self.polls
                )
            });
        }
        tracer.close(open);
        let wall = started.elapsed();
        black_box(&lines);

        out.attempted += 1;
        if failed || wall > POLL_INTERVAL {
            out.failed += 1;
        }
        (millis(wall), commands)
    }

    /// The journal `riptided` would have appended since the last snapshot.
    fn journal(&self) -> Vec<JournalRecord> {
        let current = self.agent.installed_view();
        let at = self.now();
        let withdrawn = self
            .snapshot_view
            .keys()
            .filter(|key| !current.contains_key(key))
            .map(|&key| JournalRecord {
                at,
                key,
                op: JournalOp::Withdraw,
            });
        let installed = current
            .iter()
            .filter(|(key, window)| self.snapshot_view.get(key) != Some(window))
            .map(|(&key, &window)| JournalRecord {
                at,
                key,
                op: JournalOp::Install { window },
            });
        withdrawn.chain(installed).collect()
    }

    /// Half a block of polls (so the journal is not empty), the warm
    /// restarts from what a crash then would leave on disk, and the rest
    /// of the block, so that the next one starts behind a snapshot again.
    /// Returns `(milliseconds per restart, state-file bytes)`.
    fn crash_and_restart(
        &mut self,
        cycles: &mut Vec<f64>,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> (Vec<f64>, usize) {
        for _ in 0..SNAPSHOT_EVERY / 2 {
            cycles.push(self.cycle(tracer, out).0);
        }
        // The last snapshot with the journal appended behind it.
        let journal = self.journal();
        let mut bytes = self.snapshot_bytes.clone();
        for record in &journal {
            record.encode_into(&mut bytes);
        }
        let mut restarts = Vec::new();
        for i in 0..RESTARTS {
            match agentkit::restart(
                &self.config,
                true,
                &bytes,
                self.now(),
                tracer,
                self.polls + i as u64,
            ) {
                Ok(restarted) => {
                    restarts.push(millis(restarted.wall));
                    out.require(
                        restarted.agent.installed_view() == self.agent.installed_view(),
                        || {
                            "the view after the restart differs from the view before the crash"
                                .into()
                        },
                    );
                }
                Err(why) => out.problems.push(why),
            }
        }
        out.notes.push(format!(
            "restarts replay a journal of {} records over a snapshot of {} routes",
            journal.len(),
            self.snapshot_view.len()
        ));
        while !self.polls.is_multiple_of(SNAPSHOT_EVERY) {
            cycles.push(self.cycle(tracer, out).0);
        }
        (restarts, bytes.len())
    }

    /// One pass: blocks of 60 polls until the window closes. The first
    /// [`MIN_REPS`] blocks and the crash behind them are the fixed part,
    /// after which peak memory is read.
    fn pass(&mut self, window: Window, tracer: &mut Tracer, out: &mut Outcome) -> PassTimes {
        let (mut reps, mut cycles) = (Vec::new(), Vec::new());
        let (mut restarts, mut state_bytes) = (Vec::new(), 0);
        while window.wants_more(reps.len()) {
            // A block's time is the time inside its cycles: generating
            // the next poll's `ss` text is the harness, not the daemon.
            let first = cycles.len();
            let mut commands = 0;
            loop {
                let (wall, issued) = self.cycle(tracer, out);
                cycles.push(wall);
                commands += issued;
                if self.polls.is_multiple_of(SNAPSHOT_EVERY) {
                    break;
                }
            }
            self.first_block_commands.get_or_insert(commands);
            reps.push(cycles[first..].iter().sum::<f64>() / 1e3);
            if reps.len() == MIN_REPS {
                (restarts, state_bytes) = self.crash_and_restart(&mut cycles, tracer, out);
                out.read_peak_rss();
            }
        }
        PassTimes {
            reps_s: reps,
            cycles_ms: cycles,
            restarts_ms: restarts,
            state_bytes,
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_out = Outcome::default();
    let (mut daemon, setup_s) = setup_median(|| setup(args, &mut setup_out));
    out.problems.append(&mut setup_out.problems);
    out.set("setup_s", setup_s);
    out.fact(
        "routes_after_first_poll",
        daemon.agent.installed_view().len() as f64,
    );
    out.fact("table_after_first_poll", daemon.agent.table().len() as f64);

    let untraced = daemon.pass(
        Window::open(args.pass_budget()),
        &mut Tracer::off(),
        &mut out,
    );
    out.fact(
        "commands_in_first_block",
        daemon.first_block_commands.unwrap_or(0) as f64,
    );
    let wall_s = untraced.report("blocks of 60 polls", MIN_CYCLES, &mut out);

    if args.trace {
        let mut tracer = Tracer::on();
        let before = daemon.agent.stats().observations;
        let traced = daemon.pass(Window::open(args.pass_budget()), &mut tracer, &mut out);
        let observations = daemon.agent.stats().observations - before;
        traced.report_layers(&tracer, observations, wall_s, &mut out);
        let sockets =
            (tracer.calls("linuxnet.ss.parse") * daemon.sockets.entries.len() as u64).max(1) as f64;
        out.set(
            "linuxnet.ss.parse_ns_per_sock",
            tracer.busy_ns("linuxnet.ss.parse") as f64 / sockets,
        );
        out.set(
            "linuxnet.ss.render_ns_per_sock",
            tracer.busy_ns("linuxnet.ss.render") as f64 / sockets,
        );

        // Telemetry's price: the same polls through an agent without it.
        let with = tracer.busy_ns("core.agent.tick") as f64
            / tracer.calls("core.agent.tick").max(1) as f64;
        let without = bare_tick_ns(&mut daemon, tracer.calls("core.agent.tick").min(120));
        out.set(
            "core.telemetry.tick_overhead_pct",
            100.0 * (with - without) / without,
        );
        let telemetry = daemon.agent.telemetry().expect("attached at set-up");
        let started = Instant::now();
        black_box(telemetry.registry().render_prometheus());
        out.set("core.telemetry.render_ms", millis(started.elapsed()));

        let dump = daemon.routes.clone();
        let started = Instant::now();
        let audit = tracer.span("core.reconcile", 0, || {
            daemon.agent.reconcile(&dump, &mut daemon.routes)
        });
        out.set("core.reconcile.ms", millis(started.elapsed()));
        out.require(audit.converged(), || {
            "the reconcile audit found drift in an undisturbed table".into()
        });
        layers::probe_daemon_units(args.seed, &mut out);
        out.trace = Some(tracer);
    }
    out
}

/// Mean tick time over `polls` polls of an agent that is the daemon's
/// twin but has no telemetry attached, timed like the traced ticks.
fn bare_tick_ns(daemon: &mut Daemon, polls: u64) -> f64 {
    let mut agent = new_agent(&daemon.config, false);
    let mut routes = RouteTable::new();
    let mut tracer = Tracer::off();
    for poll in 0..=polls {
        daemon.sockets.drift();
        let text = daemon.sockets.render(&mut Tracer::off(), 0);
        let mut table = SockTable::parse(&text).expect("rendered tables parse");
        agentkit::tick(
            &mut agent,
            SimTime::from_secs(daemon.polls + poll),
            &mut table,
            &mut routes,
            &mut tracer,
            poll,
        );
        // The first tick learned every destination: warm-up, not steady.
        if poll == 0 {
            tracer = Tracer::on();
        }
    }
    tracer.busy_ns("core.agent.tick") as f64 / tracer.calls("core.agent.tick").max(1) as f64
}
