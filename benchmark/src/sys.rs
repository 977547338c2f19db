//! What the benchmark reads from the machine it runs on: peak memory,
//! and the fingerprint that says which machine and build produced a
//! number, so two recordings are only ever compared like for like.

use std::path::Path;

use crate::json::Json;

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set in MB (10^6 bytes; `VmHWM` is in KiB).
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or has no
/// `VmHWM` line — the benchmark then stops rather than report a zero.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// Extracts the first `model name` from `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
        .filter(|m| !m.is_empty())
}

/// Resolves `HEAD` of the repository at `root` from its `.git` files, or
/// `None` when `root` is not a git checkout (an exported tree).
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

/// Hardware threads the process may run on.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The machine and build identity attached to every output.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(|| "unknown".into());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj([
        ("cpu_model", Json::str(cpu)),
        ("hardware_threads", Json::Num(hardware_threads() as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC"))),
        ("rustflags", Json::str(env!("BENCH_RUSTFLAGS"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        (
            "git_commit",
            Json::str(git_commit(&root).unwrap_or_else(|| "none (not a git checkout)".into())),
        ),
    ])
}

/// Nanoseconds per iteration of a fixed integer loop (an xorshift chain
/// the optimiser cannot shorten). It measures the machine, not the
/// program: two recordings whose `bench.calib_ns` differ were not taken
/// under the same conditions, whatever else they say.
pub fn calib_ns() -> f64 {
    const ITERATIONS: u64 = 50_000_000;
    let started = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64 / ITERATIONS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tcat\nVmPeak:\t    5788 kB\nVmSize:\t    5788 kB\n\
                          VmHWM:\t    1234 kB\nVmRSS:\t     980 kB\nThreads:\t1\n";

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(1234));
        assert_eq!(parse_vm_hwm_kb("VmHWM: 77 kB"), Some(77));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t980 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.1 && mb < 1e6, "implausible peak RSS {mb} MB");
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let text = "processor\t: 0\nmodel name\t: Fast CPU @ 3GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(text).as_deref(), Some("Fast CPU @ 3GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn fingerprint_names_every_identity_field() {
        let fp = fingerprint();
        for key in [
            "cpu_model",
            "hardware_threads",
            "rustc",
            "rustflags",
            "profile",
            "git_commit",
        ] {
            assert!(fp.get(key).is_some(), "fingerprint lacks {key}");
        }
        assert!(fp.get("rustc").unwrap().to_string().contains("rustc"));
    }

    #[test]
    fn git_commit_is_none_outside_a_checkout() {
        assert_eq!(git_commit(Path::new("/proc")), None);
    }
}
