//! The root package's smaller integration-test subjects, one module per
//! subject, linked into one test binary. Run one subject with
//! `cargo test --release --test repro <module>::`. The six larger
//! suites (`chaos`, `digest_encoding`, `end_to_end`, `invariants`,
//! `paper_claims`, `parallel_engine`) are still one `tests/<name>.rs`
//! binary each.

mod agent_accounting;
mod digest_golden;
mod event_queue_differential;
mod everything_on;
mod golden_exposition;
mod policy_arena;
mod scheduler;
mod ss_scanner_differential;
mod tick_differential;

use riptide_repro::cdn::experiment::ExperimentScale;
use riptide_repro::simnet::time::SimDuration;

/// Test scale run for 300 simulated seconds: the arena and golden-digest
/// tests share it.
fn small_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::test();
    scale.duration = SimDuration::from_secs(300);
    scale
}
