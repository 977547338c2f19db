//! The `riptide` crate's integration tests, one module per subject,
//! linked into one test binary. Run one subject with
//! `cargo test -p riptide --test riptide <module>::`.

mod degraded_mode;
mod hostile_text;
mod persist_props;
mod riptided_cli;
mod swarm;
