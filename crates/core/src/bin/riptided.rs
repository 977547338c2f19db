//! `riptided` — the deployable face of the reproduction.
//!
//! The paper's tool is "a single Python script" that polls `ss` and runs
//! `ip route`. This binary is the same shape: it consumes `ss -i`-format
//! snapshots (files given on the command line, each treated as one poll
//! `i_u` apart) and prints the exact `ip route` commands the algorithm
//! decides on. Point it at real captures for a dry run of a deployment.
//!
//! ```text
//! riptided [options] <ss-snapshot>...
//!
//!   --alpha <a>          EWMA weight on history      (default 0.7)
//!   --policy <spec>      learning policy: ewma | ewma:<a> | none |
//!                        windowed:<n> | p25 | p50 | p75 |
//!                        percentile:<frac>:<cap> | loss-utility |
//!                        loss-utility:<gain>:<penalty>:<alpha>
//!                        (default ewma — the paper's estimator)
//!   --no-history         disable the history blend
//!   --cmax <w>           maximum window              (default 100)
//!   --cmin <w>           minimum window              (default 10)
//!   --ttl <secs>         entry time-to-live          (default 90)
//!   --interval <secs>    poll interval i_u           (default 1)
//!   --combine <s>        average|max|traffic-weighted
//!   --granularity <g>    host | /<len>               (default host)
//!   --trend              enable §V trend damping
//!   --config <file>      key = value config file (flags override)
//!   --recover            flush stale riptide routes first
//!   --follow             after the listed snapshots, keep re-polling the
//!                        last one every interval until SIGTERM/SIGINT
//!   --show-table         print the final learned table
//!   --metrics            print Prometheus counters to stderr at exit
//!   --metrics-file <p>   rewrite <p> with a Prometheus text-exposition
//!                        snapshot after every poll (and at shutdown)
//!   --state-file <p>     warm-restart persistence: restore the learned
//!                        table from <p> at start (reinstalling its
//!                        routes), append journal deltas after every
//!                        poll, and atomically rewrite the snapshot
//!                        every --snapshot-every polls and at shutdown
//!   --snapshot-every <n> polls between full snapshot rewrites
//!                        (default 60)
//! ```
//!
//! On SIGTERM or SIGINT the daemon withdraws every route it installed
//! before exiting, so a stopped agent leaves no stale windows behind;
//! the final metrics snapshot, the state-file snapshot and the decision
//! journal are flushed as part of the same sweep. SIGUSR1 dumps the
//! decision journal to stderr on demand at the next poll boundary.
//!
//! The state file is the `core::persist` snapshot+journal format: a
//! torn journal tail (a `kill -9` mid-append) truncates cleanly at the
//! next start, and a damaged snapshot block is ignored with a warning —
//! the daemon then starts empty, exactly as if the file were absent.
//! The TTL clock restarts with the daemon, so restored entries age from
//! the first poll, not from their original refresh instants.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set from the signal handler; the poll loops notice it and run the
/// shutdown sweep instead of exiting with routes still installed.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Set by SIGUSR1; the follow loop dumps the decision journal to stderr
/// at the next poll boundary and clears it.
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn note_shutdown(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" fn note_dump(_signum: i32) {
    DUMP_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // `signal(2)` straight from the platform C library: flipping an
    // atomic flag is all the handler does, and declaring the symbol
    // directly keeps the binary free of an FFI crate dependency.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    #[cfg(target_os = "linux")]
    const SIGUSR1: i32 = 10;
    #[cfg(not(target_os = "linux"))]
    const SIGUSR1: i32 = 30;
    unsafe {
        signal(SIGINT, note_shutdown);
        signal(SIGTERM, note_shutdown);
        signal(SIGUSR1, note_dump);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Sleeps for `interval`, waking early (and reporting `true`) if a
/// shutdown signal arrives mid-wait.
fn sleep_interruptibly(interval: std::time::Duration) -> bool {
    let slice = std::time::Duration::from_millis(25);
    let mut remaining = interval;
    while !remaining.is_zero() {
        if SHUTDOWN.load(Ordering::SeqCst) {
            return true;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining -= step;
    }
    SHUTDOWN.load(Ordering::SeqCst)
}

use riptide::persist::{decode_state, encode_state, JournalOp, JournalRecord};
use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_linuxnet::ss::SockTable;
use riptide_simnet::time::{SimDuration, SimTime};

fn fail(msg: &str) -> ExitCode {
    eprintln!("riptided: {msg}");
    ExitCode::FAILURE
}

/// The daemon's durability plumbing behind `--state-file`.
struct PersistState {
    /// The state-file path.
    path: String,
    /// Polls between full snapshot rewrites.
    snapshot_every: u64,
    /// The installed view as of the last snapshot or journal append —
    /// the diff base journal records are computed against.
    last_installed: std::collections::BTreeMap<Ipv4Prefix, u32>,
    /// Polls since the last full snapshot rewrite.
    polls_since_snapshot: u64,
}

impl PersistState {
    /// Rewrites the whole state file with a fresh snapshot. Same
    /// write-then-rename discipline as `--metrics-file`: the temp file
    /// is a pid-suffixed sibling so the rename stays on one filesystem
    /// and a reader (or a crash mid-write) never sees a half-written
    /// snapshot — the old, complete file survives until the rename.
    fn write_snapshot(&mut self, agent: &RiptideAgent, now: SimTime) {
        let bytes = encode_state(&agent.snapshot_state(now), &[]);
        let tmp = format!("{}.{}.tmp", self.path, std::process::id());
        let write = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("# state: cannot write {}: {e}", self.path);
            return;
        }
        self.last_installed = agent.installed_view().clone();
        self.polls_since_snapshot = 0;
    }

    /// Appends journal records for whatever the poll changed in the
    /// installed view: a withdraw per vanished route, an install per
    /// new or re-windowed one. Appending to the file the snapshot
    /// header already anchors keeps the write tiny; a crash mid-append
    /// leaves a torn tail the decoder truncates cleanly.
    fn append_journal(&mut self, agent: &RiptideAgent, now: SimTime) {
        let cur = agent.installed_view();
        let mut records = Vec::new();
        for &key in self.last_installed.keys() {
            if !cur.contains_key(&key) {
                records.push(JournalRecord {
                    at: now,
                    key,
                    op: JournalOp::Withdraw,
                });
            }
        }
        for (&key, &window) in cur {
            if self.last_installed.get(&key) != Some(&window) {
                records.push(JournalRecord {
                    at: now,
                    key,
                    op: JournalOp::Install { window },
                });
            }
        }
        if records.is_empty() {
            return;
        }
        let mut bytes = Vec::with_capacity(records.len() * riptide::persist::JOURNAL_RECORD_BYTES);
        for r in &records {
            r.encode_into(&mut bytes);
        }
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(&bytes));
        match appended {
            Ok(()) => self.last_installed = cur.clone(),
            Err(e) => eprintln!("# state: cannot append to {}: {e}", self.path),
        }
    }

    /// Post-poll hook: a full rewrite every `snapshot_every` polls,
    /// journal deltas in between.
    fn after_poll(&mut self, agent: &RiptideAgent, now: SimTime) {
        self.polls_since_snapshot += 1;
        if self.polls_since_snapshot >= self.snapshot_every {
            self.write_snapshot(agent, now);
        } else {
            self.append_journal(agent, now);
        }
    }
}

fn main() -> ExitCode {
    // First pass: a `--config <file>` seeds the builder; flags given on
    // the command line override it.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut builder = RiptideConfig::builder();
    if let Some(pos) = raw.iter().position(|a| a == "--config") {
        if pos + 1 >= raw.len() {
            return fail("--config requires a path");
        }
        let path = raw.remove(pos + 1);
        raw.remove(pos);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        match RiptideConfig::from_conf_str(&text) {
            Ok(cfg) => {
                builder = RiptideConfig::builder()
                    .update_interval(cfg.update_interval)
                    .ttl(cfg.ttl)
                    .cwnd_max(cfg.cwnd_max)
                    .cwnd_min(cfg.cwnd_min)
                    .combine(cfg.combine)
                    .policy(cfg.policy)
                    .granularity(cfg.granularity);
                if let Some(t) = cfg.trend {
                    builder = builder.trend(t);
                }
                if let Some(a) = cfg.aggregation {
                    builder = builder.aggregation(a);
                }
            }
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    let mut snapshots: Vec<String> = Vec::new();
    let mut recover = false;
    let mut follow = false;
    let mut show_table = false;
    let mut show_metrics = false;
    let mut metrics_file: Option<String> = None;
    let mut state_file: Option<String> = None;
    let mut snapshot_every = 60u64;
    let mut trend = false;
    let mut interval = SimDuration::from_secs(1);

    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--alpha" => match value("--alpha")
                .and_then(|v| v.parse::<f64>().map_err(|e| format!("bad --alpha: {e}")))
            {
                Ok(a) => builder = builder.alpha(a),
                Err(e) => return fail(&e),
            },
            "--no-history" => builder = builder.policy(LearningPolicy::None),
            "--policy" => match value("--policy").and_then(|v| {
                LearningPolicy::from_spec(&v).map_err(|e| format!("bad --policy: {e}"))
            }) {
                Ok(p) => builder = builder.policy(p),
                Err(e) => return fail(&e),
            },
            "--cmax" => match value("--cmax")
                .and_then(|v| v.parse::<u32>().map_err(|e| format!("bad --cmax: {e}")))
            {
                Ok(w) => builder = builder.cwnd_max(w),
                Err(e) => return fail(&e),
            },
            "--cmin" => match value("--cmin")
                .and_then(|v| v.parse::<u32>().map_err(|e| format!("bad --cmin: {e}")))
            {
                Ok(w) => builder = builder.cwnd_min(w),
                Err(e) => return fail(&e),
            },
            "--ttl" => match value("--ttl")
                .and_then(|v| v.parse::<u64>().map_err(|e| format!("bad --ttl: {e}")))
            {
                Ok(s) => builder = builder.ttl(SimDuration::from_secs(s)),
                Err(e) => return fail(&e),
            },
            "--interval" => match value("--interval")
                .and_then(|v| v.parse::<u64>().map_err(|e| format!("bad --interval: {e}")))
            {
                Ok(s) => {
                    interval = SimDuration::from_secs(s);
                    builder = builder.update_interval(interval);
                }
                Err(e) => return fail(&e),
            },
            "--combine" => match value("--combine") {
                Ok(v) => {
                    let strategy = match v.as_str() {
                        "average" => CombineStrategy::Average,
                        "max" => CombineStrategy::Max,
                        "traffic-weighted" => CombineStrategy::TrafficWeighted,
                        other => return fail(&format!("unknown combine strategy {other:?}")),
                    };
                    builder = builder.combine(strategy);
                }
                Err(e) => return fail(&e),
            },
            "--granularity" => match value("--granularity") {
                Ok(v) => {
                    let g = if v == "host" {
                        Granularity::Host
                    } else if let Some(len) = v.strip_prefix('/') {
                        match len.parse::<u8>() {
                            Ok(l) if l <= 32 => Granularity::Prefix(l),
                            _ => return fail(&format!("bad prefix length {v:?}")),
                        }
                    } else {
                        return fail(&format!(
                            "granularity must be `host` or `/<len>`, got {v:?}"
                        ));
                    };
                    builder = builder.granularity(g);
                }
                Err(e) => return fail(&e),
            },
            "--trend" => trend = true,
            "--recover" => recover = true,
            "--follow" => follow = true,
            "--show-table" => show_table = true,
            "--metrics" => show_metrics = true,
            "--metrics-file" => match value("--metrics-file") {
                Ok(p) => metrics_file = Some(p),
                Err(e) => return fail(&e),
            },
            "--state-file" => match value("--state-file") {
                Ok(p) => state_file = Some(p),
                Err(e) => return fail(&e),
            },
            "--snapshot-every" => match value("--snapshot-every").and_then(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("bad --snapshot-every: {e}"))
            }) {
                Ok(n) if n >= 1 => snapshot_every = n,
                Ok(_) => return fail("--snapshot-every must be at least 1"),
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                println!(
                    "usage: riptided [options] <ss-snapshot>...  (see --help header in source)"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown option {other:?}"));
            }
            path => snapshots.push(path.to_string()),
        }
    }
    if trend {
        builder = builder.trend(TrendPolicy::default());
    }
    if snapshots.is_empty() {
        return fail("no ss snapshots given (each file is one poll)");
    }

    let config = match builder.build() {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let mut agent = match RiptideAgent::new(config) {
        Ok(a) => a,
        Err(e) => return fail(&e.to_string()),
    };
    // Telemetry is always on in the daemon: the registry is a handful of
    // atomics and the journal a small ring buffer, and both feed
    // `--metrics`, `--metrics-file` and the SIGUSR1 journal dump.
    let telemetry = AgentTelemetry::standalone(256);
    agent.attach_telemetry(telemetry.clone());

    // Write-then-rename so a scraper racing a flush always reads a
    // complete exposition, never a truncated one: `std::fs::write`
    // truncates in place, and node_exporter-style textfile collectors
    // poll on their own clock. The temp file is a sibling (same
    // directory, pid-suffixed) so the rename stays on one filesystem
    // and therefore atomic.
    let flush_metrics = |telemetry: &AgentTelemetry| {
        if let Some(path) = &metrics_file {
            let tmp = format!("{path}.{}.tmp", std::process::id());
            let write = std::fs::write(&tmp, telemetry.registry().render_prometheus())
                .and_then(|()| std::fs::rename(&tmp, path));
            if let Err(e) = write {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("# cannot write metrics file {path}: {e}");
            }
        }
    };

    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut controller = SharedRouteController::new(Rc::clone(&table));
    if recover {
        let removed = riptide::control::recover_stale_routes(&mut table.borrow_mut());
        eprintln!("# recovered: flushed {removed} stale route(s)");
    }

    install_signal_handlers();

    // Prints what the last restore, poll or shutdown sweep issued, and
    // forgets it: a daemon must not hold every command of its lifetime.
    let print_commands = |controller: &mut SharedRouteController| {
        for cmd in controller.drain_commands() {
            println!("{cmd}");
        }
    };

    // Warm restart: decode the state file (if any), replay its journal
    // onto the snapshot, and hand the merged table to the agent, which
    // clamps every window and reinstalls the routes through the
    // controller — the jump-start windows are live before the first
    // poll instead of after a full relearn cycle. A damaged snapshot
    // block (or a missing file) means starting empty, never a panic.
    let mut persist = state_file.map(|path| {
        match std::fs::read(&path) {
            Ok(bytes) if !bytes.is_empty() => match decode_state(&bytes) {
                Ok(state) => {
                    if state.torn_tail {
                        eprintln!("# state: dropped a torn journal tail in {path}");
                    }
                    let merged = riptide::persist::replay(&state.snapshot, &state.journal);
                    let restored = agent.restore_state(&merged, SimTime::ZERO, &mut controller);
                    print_commands(&mut controller);
                    eprintln!("# state: restored {} route(s) from {path}", restored.len());
                }
                Err(e) => eprintln!("# state: ignoring {path}: {e}"),
            },
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!("# state: cannot read {path}: {e}"),
        }
        let mut p = PersistState {
            path,
            snapshot_every,
            last_installed: std::collections::BTreeMap::new(),
            polls_since_snapshot: 0,
        };
        // Anchor the file with a fresh snapshot right away: journal
        // appends need a valid header to land behind, and a prior run's
        // already-replayed journal should not be replayed again.
        p.write_snapshot(&agent, SimTime::ZERO);
        p
    });

    // One poll: read a snapshot, tick the agent, print the commands the
    // tick produced. Used for the listed snapshots and then, under
    // `--follow`, for every re-poll of the last one.
    let poll_once = |agent: &mut RiptideAgent,
                     controller: &mut SharedRouteController,
                     path: &str,
                     now: SimTime|
     -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut sock_table = SockTable::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let report = agent.tick(now, &mut sock_table, controller);
        for e in &report.errors {
            eprintln!("# {path}: {e}");
        }
        print_commands(controller);
        Ok(())
    };

    let mut polls = 0u64;
    for path in &snapshots {
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        polls += 1;
        let now = SimTime::ZERO + interval * polls;
        if let Err(e) = poll_once(&mut agent, &mut controller, path, now) {
            return fail(&e);
        }
        flush_metrics(&telemetry);
        if let Some(p) = persist.as_mut() {
            p.after_poll(&agent, now);
        }
    }

    if follow {
        // Daemon mode: the last snapshot path is the live feed (a cron
        // job or collector rewrites it in place); re-poll it every
        // interval until a shutdown signal arrives.
        let path = snapshots.last().expect("checked non-empty above");
        let wait = std::time::Duration::from_secs_f64(interval.as_secs_f64());
        while !sleep_interruptibly(wait) {
            if DUMP_REQUESTED.swap(false, Ordering::SeqCst) {
                eprint!("{}", telemetry.journal().render());
            }
            polls += 1;
            let now = SimTime::ZERO + interval * polls;
            if let Err(e) = poll_once(&mut agent, &mut controller, path, now) {
                return fail(&e);
            }
            flush_metrics(&telemetry);
            if let Some(p) = persist.as_mut() {
                p.after_poll(&agent, now);
            }
        }
    }

    if SHUTDOWN.load(Ordering::SeqCst) {
        // Graceful exit: persist the learned table as of the last poll
        // *before* the withdrawal sweep empties the installed view, so
        // the next start jump-starts from everything this run learned.
        if let Some(p) = persist.as_mut() {
            p.write_snapshot(&agent, SimTime::ZERO + interval * polls);
            eprintln!("# state: final snapshot written to {}", p.path);
        }
        // Then withdraw everything we installed so the host reverts to
        // kernel defaults the moment the daemon is gone, and flush the
        // final metrics snapshot (withdrawals included) and the
        // decision journal.
        let withdrawn = agent.shutdown(&mut controller);
        print_commands(&mut controller);
        eprintln!("# shutdown: withdrew {} route(s)", withdrawn.len());
        flush_metrics(&telemetry);
        eprint!("{}", telemetry.journal().render());
    }

    if show_table {
        eprintln!("# learned table:");
        eprint!("{}", table.borrow().render());
    }
    if show_metrics {
        eprint!("{}", telemetry.registry().render_prometheus());
    }
    ExitCode::SUCCESS
}
