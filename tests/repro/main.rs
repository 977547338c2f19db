//! The root package's integration-test subjects, one module per
//! subject, linked into one test binary. Run one subject with
//! `cargo test --release --test repro <module>::`. The property suite
//! `invariants` (29 tests) is still a `tests/invariants.rs` binary of
//! its own.

mod agent_accounting;
mod chaos;
mod digest_encoding;
mod digest_golden;
mod end_to_end;
mod event_queue_differential;
mod everything_on;
mod first_flight;
mod golden_exposition;
mod paper_claims;
mod parallel_engine;
mod policy_arena;
mod scheduler;
mod ss_scanner_differential;
mod tick_differential;

use riptide_repro::cdn::experiment::ExperimentScale;
use riptide_repro::simnet::time::SimDuration;

/// Test scale run for 300 simulated seconds: the arena, golden-digest,
/// chaos, parallel-engine and scheduler tests share it.
fn small_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::test();
    scale.duration = SimDuration::from_secs(300);
    scale
}
