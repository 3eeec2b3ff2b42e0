//! # Benchmark harnesses for the BlackJack reproduction
//!
//! One binary for the paper's evaluation, plus extension/ablation
//! harnesses and tools:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig_all` | Table 1 + Figures 4a/4b, 5, 6 and 7, and the EXPERIMENTS.md body |
//! | `ext_detection` | detection-rate sweep under injected faults |
//! | `ext_diagnosis` | active-probe online diagnosis of a faulty FU instance |
//! | `ext_ablation` | slack sweep + design-choice ablation |
//! | `bj-lint` | static-analysis report over the kernels and examples |
//! | `bj-trace` | renders `BJ_TRACE` telemetry streams |
//!
//! Run with `cargo run --release -p blackjack-bench --bin <name>`. The
//! harnesses fan out over a worker pool ([`blackjack::Campaign`]); set
//! `BJ_THREADS` to pick the worker count and `BJ_SCALE` to scale the
//! workloads. Simulator and campaign speed is measured by the
//! `benchmark/` package (workloads declared in `BENCHMARK.json`);
//! self-timed microbenchmarks of the simulator's machinery live in
//! `benches/`.

use blackjack::envcfg::SCALE;
use blackjack::Experiment;

pub mod detection;

/// Field lookups over parsed JSON objects, for readers of the
/// repository's JSON documents (the `benchmark/` package reads
/// `BENCHMARK.json` and its run records through these).
pub mod benchfmt {
    pub use blackjack::telemetry::{num, obj_get};
}

/// Builds the standard experiment at the scale used by the harnesses
/// (`BJ_SCALE`, default 1), exiting with a clear message when the
/// override is malformed. Every run goes through the snapshot-fork path
/// ([`Experiment::with_snapshot`]'s default).
pub fn standard_experiment() -> Experiment {
    let scale = SCALE.positive().expect("BJ_SCALE has a default") as u32;
    Experiment::new().scale(scale)
}
