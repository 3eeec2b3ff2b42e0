//! # BlackJack — hard error detection with redundant threads on SMT
//!
//! Facade crate of the BlackJack reproduction (Schuchman & Vijaykumar,
//! DSN 2007). Re-exports the component crates and provides the
//! [`Experiment`] runner used by the examples, integration tests, and the
//! figure-regeneration harnesses.

pub use blackjack_faults as faults;
pub use blackjack_isa as isa;
pub use blackjack_mem as mem;
pub use blackjack_sim as sim;
pub use blackjack_workloads as workloads;

mod campaign;
pub mod earlyexit;
pub mod envcfg;
mod experiment;
pub mod metrics;
pub mod snapshot;
pub mod telemetry;

pub use campaign::{
    Campaign, CampaignTrace, Group, JobTiming, Observed, ObserveOpts, ProgressHook, ProgressTick,
};
pub use earlyexit::{EarlyExit, EarlyExitKind, Exit};
pub use envcfg::EnvError;
pub use experiment::{BenchmarkResult, Experiment, ExperimentResult, ModeResult};
pub use metrics::{Counter, Gauge, Metrics, MetricsRegistry};
pub use snapshot::{arming_schedule, ChainStats, SnapshotChain};

/// `println!` that stops printing, instead of panicking, once the reader
/// has closed stdout: a reader that quits early (`bjsim … | grep -q
/// DETECTED`, `bj-trace top t.jsonl | head`) has already seen what it
/// wanted, and the exit status must not depend on when it quit. Any
/// other write error still panics.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// [`outln!`] without the trailing newline.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// Writes to stdout for [`out!`] and [`outln!`], ignoring a closed pipe.
///
/// # Panics
///
/// Panics on any write error other than a broken pipe.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
    }
}
