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
    Campaign, CampaignTrace, JobTiming, Observed, ObserveOpts, ProgressHook, ProgressTick,
};
pub use earlyexit::{EarlyExit, EarlyExitKind, Exit};
pub use envcfg::EnvError;
pub use experiment::{BenchmarkResult, Experiment, ExperimentResult, ModeResult};
pub use metrics::{Counter, Gauge, Metrics, MetricsRegistry};
pub use snapshot::{arming_schedule, ChainStats, SnapshotChain};
