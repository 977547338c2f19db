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
//!   --config <file>      key = value config file (the grammar of
//!                        RiptideConfig::from_conf_str)
//!   --alpha <a>          alpha = <a>: EWMA weight on history (default 0.7)
//!   --policy <spec>      policy = <spec>: ewma | ewma:<a> | none |
//!                        windowed:<n> | p25 | p50 | p75 |
//!                        percentile:<frac>:<cap> | loss-utility |
//!                        loss-utility:<gain>:<penalty>:<alpha>
//!                        (default ewma — the paper's estimator)
//!   --no-history         policy = none
//!   --cmax <w>           cmax = <w>: maximum window (default 100)
//!   --cmin <w>           cmin = <w>: minimum window (default 10)
//!   --ttl <secs>         ttl = <secs>: entry time-to-live (default 90)
//!   --interval <secs>    interval = <secs>: poll interval i_u (default 1)
//!   --combine <s>        combine = <s>: average | max | traffic-weighted
//!   --granularity <g>    granularity = <g>: host | /<len> (default host)
//!   --trend              trend = on: enable §V trend damping
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
//! Each agent flag is the conf line shown beside it. The `--config`
//! file's lines are applied first and the flags after them, in order, so
//! a flag overrides the file; both go through the library's one
//! `key = value` grammar, and the result is validated once. `guard =`,
//! `capacity =` and `aggregate =` have no flag: they are file-only.
//!
//! On SIGTERM or SIGINT the daemon withdraws every route it installed
//! before exiting, so a stopped agent leaves no stale windows behind;
//! the final metrics snapshot, the state-file snapshot and the decision
//! journal are flushed as part of the same sweep. SIGUSR1 dumps the
//! decision journal to stderr on demand at the next poll boundary.
//!
//! The lifecycle — restore and anchor, journal or snapshot after each
//! poll, snapshot before the withdrawal sweep — is `riptide::daemon`'s,
//! the loop the simulator's hosts run too; this binary parses arguments,
//! does the file I/O and handles signals. The state file is the
//! `core::persist` snapshot+journal format. A torn journal tail (a
//! `kill -9` mid-append) truncates cleanly at the next start, and a
//! damaged snapshot block is ignored with a warning — the daemon then
//! starts empty, exactly as if the file were absent. The TTL clock
//! restarts with the daemon, so restored entries age from the first
//! poll, not from their original refresh instants.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set from the signal handler; the poll loop notices it and runs the
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

use riptide::daemon::{Daemon, Storage, SNAPSHOT_EVERY};
use riptide::prelude::*;
use riptide_linuxnet::route::RouteTable;
use riptide_linuxnet::ss::SockTable;
use riptide_simnet::time::SimTime;

/// Replaces `path` with `bytes` by writing a pid-suffixed sibling and
/// renaming it over the target: the rename stays on one filesystem, so
/// a reader (or a crash mid-write) sees the old file or the new one,
/// never a truncated one. `std::fs::write` alone truncates in place.
fn write_atomically(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.{}.tmp", std::process::id());
    let write = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// The `--state-file` on disk, as the library's daemon writes it.
struct StatePath(String);

impl Storage for StatePath {
    fn replace(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let path = &self.0;
        write_atomically(path, bytes)
            .inspect_err(|e| eprintln!("# state: cannot write {path}: {e}"))
    }

    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = &self.0;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path);
        let appended = file.and_then(|mut f| f.write_all(bytes));
        appended.inspect_err(|e| eprintln!("# state: cannot append to {path}: {e}"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("riptided: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut conf_file: Option<String> = None;
    // The agent flags as the `(flag, key, value)` conf settings they are.
    let mut settings: Vec<(String, String, String)> = Vec::new();
    let mut snapshots: Vec<String> = Vec::new();
    let (mut recover, mut follow, mut show_table, mut show_metrics) = (false, false, false, false);
    let mut metrics_file: Option<String> = None;
    let mut state_file: Option<String> = None;
    let mut snapshot_every = SNAPSHOT_EVERY;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let mut setting = |key: &str, value: String| {
            settings.push((flag.to_string(), key.to_string(), value));
        };
        match flag {
            "--alpha" | "--policy" | "--cmax" | "--cmin" | "--ttl" | "--interval" | "--combine"
            | "--granularity" => setting(&flag[2..], value()?),
            "--no-history" => setting("policy", "none".into()),
            "--trend" => setting("trend", "on".into()),
            "--config" => conf_file = Some(value()?),
            "--recover" => recover = true,
            "--follow" => follow = true,
            "--show-table" => show_table = true,
            "--metrics" => show_metrics = true,
            "--metrics-file" => metrics_file = Some(value()?),
            "--state-file" => state_file = Some(value()?),
            "--snapshot-every" => {
                let v = value()?;
                snapshot_every = v
                    .parse()
                    .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                if snapshot_every == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: riptided [options] <ss-snapshot>...  (see --help header in source)"
                );
                return Ok(());
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            path => snapshots.push(path.to_string()),
        }
    }

    // The file's lines first, then the flags: a flag overrides the file.
    let mut conf = RiptideConfig::builder();
    if let Some(path) = &conf_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        conf = conf.conf_lines(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    for (flag, key, value) in &settings {
        conf = conf
            .set(key, value)
            .map_err(|e| format!("bad {flag}: {e}"))?;
    }
    if snapshots.is_empty() {
        return Err("no ss snapshots given (each file is one poll)".into());
    }
    let config = conf.build().map_err(|e| e.to_string())?;
    let interval = config.update_interval;
    let mut agent = RiptideAgent::new(config).map_err(|e| e.to_string())?;
    // Telemetry is always on in the daemon: the registry is a handful of
    // atomics and the journal a small ring buffer, and both feed
    // `--metrics`, `--metrics-file` and the SIGUSR1 journal dump.
    let telemetry = AgentTelemetry::standalone(256);
    agent.attach_telemetry(telemetry.clone());

    // Atomically, so a scraper racing a flush (node_exporter-style
    // textfile collectors poll on their own clock) never reads a
    // truncated exposition.
    let flush_metrics = |telemetry: &AgentTelemetry| {
        if let Some(path) = &metrics_file {
            let text = telemetry.registry().render_prometheus();
            if let Err(e) = write_atomically(path, text.as_bytes()) {
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

    // Warm restart: the jump-start windows are live before the first
    // poll. A missing or damaged file means starting empty.
    let storage = state_file.clone().map(StatePath);
    let mut daemon = Daemon::new(agent, storage, snapshot_every);
    if let Some(path) = &state_file {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("# state: cannot read {path}: {e}");
            }
            Vec::new()
        });
        match daemon.start(&bytes, SimTime::ZERO, &mut controller) {
            Ok((routes, torn_tail)) => {
                if torn_tail {
                    eprintln!("# state: dropped a torn journal tail in {path}");
                }
                print_commands(&mut controller);
                eprintln!("# state: restored {routes} route(s) from {path}");
            }
            Err(_) if bytes.is_empty() => {}
            Err(e) => eprintln!("# state: ignoring {path}: {e}"),
        }
    }

    // One poll per listed snapshot, then — under `--follow` — a re-poll
    // of the last one every interval until a shutdown signal arrives
    // (a cron job or collector rewrites it in place: the live feed).
    let wait = std::time::Duration::from_secs_f64(interval.as_secs_f64());
    let mut listed = snapshots.iter();
    let mut now = SimTime::ZERO;
    loop {
        let path = match listed.next() {
            Some(_) if SHUTDOWN.load(Ordering::SeqCst) => break,
            Some(path) => path,
            None if follow && !sleep_interruptibly(wait) => {
                if DUMP_REQUESTED.swap(false, Ordering::SeqCst) {
                    eprint!("{}", telemetry.journal().render());
                }
                snapshots.last().expect("checked non-empty above")
            }
            None => break,
        };
        now += interval;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut socks = SockTable::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let report = daemon.poll(now, |a| a.tick(now, &mut socks, &mut controller));
        for e in &report.errors {
            eprintln!("# {path}: {e}");
        }
        print_commands(&mut controller);
        flush_metrics(&telemetry);
    }

    if SHUTDOWN.load(Ordering::SeqCst) {
        // Graceful exit: the last snapshot, then withdraw every route so
        // the host reverts to kernel defaults the moment the daemon is
        // gone; then the final metrics and the decision journal.
        let withdrawn = daemon.shutdown(now, &mut controller);
        if let Some(path) = &state_file {
            eprintln!("# state: final snapshot written to {path}");
        }
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
    Ok(())
}
