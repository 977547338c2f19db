//! Captures the build identity the machine fingerprint reports: the
//! compiler, the flags and the profile are properties of the build, not
//! of the process that later runs it.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!(
        "cargo:rustc-env=BENCH_RUSTC={}",
        capture(&rustc, &["--version"])
    );
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={flags}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
