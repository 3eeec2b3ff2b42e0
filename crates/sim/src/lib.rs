//! # The BlackJack SMT pipeline simulator
//!
//! A cycle-level, execution-driven, out-of-order SMT core implementing the
//! machine of *BlackJack: Hard Error Detection with Redundant Threads on
//! SMT* (DSN 2007), with four operating modes:
//!
//! * [`Mode::Single`] — the non-fault-tolerant baseline,
//! * [`Mode::Srt`] — SRT redundant threading (store checking, BOQ, LVQ),
//! * [`Mode::BlackJackNoShuffle`] — DTQ-based trailing fetch without the
//!   shuffle (the paper's BlackJack-NS ablation),
//! * [`Mode::BlackJack`] — the full design: safe-shuffle, packet-per-cycle
//!   trailing fetch, double rename, commit-time dependence and
//!   program-order checks.
//!
//! The top-level entry point is [`Core`]:
//!
//! ```
//! use blackjack_isa::asm::assemble;
//! use blackjack_sim::{Core, CoreConfig, Mode};
//! use blackjack_faults::FaultPlan;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble(".text\n li x5, 21\n add x5, x5, x5\n halt\n")?;
//! let mut core = Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, FaultPlan::new());
//! let outcome = core.run(100_000);
//! assert!(outcome.completed());
//! assert_eq!(core.arch_reg(5), 42);
//! # Ok(())
//! # }
//! ```

mod commit;
mod config;
mod core;
mod detect;
mod dtq;
mod fu;
mod iq;
mod lsq;
mod predictor;
mod regfile;
mod rob;
pub mod shuffle;
mod srt;
mod stats;
pub mod trace;
mod uop;

pub use crate::core::{Core, CoreSnapshot, FLIGHT_CAPACITY, LEADING, TRAILING};
pub use commit::{replay_commit_log, CommitRecord, Divergence, MemEffect};
pub use config::{table1, CoreConfig, FuCounts, FuLatencies, Mode, ShuffleAlgo};
pub use detect::{DetectionEvent, DetectionKind, RunOutcome};
pub use dtq::{Dtq, DtqPayload};
pub use fu::FuPool;
pub use iq::{IssueQueue, Resident};
pub use lsq::Lsq;
pub use predictor::{Btb, Gshare, Ras};
pub use regfile::{CommitRat, LeadIndexedRat, RegFile};
pub use rob::ActiveList;
pub use srt::{Boq, BoqEntry, Lvq, LvqEntry, WayLog, WayRecord};
pub use stats::{ExitReason, SimStats};
pub use trace::{FlightEvent, FlightKind, FlightRecorder, Histogram, TraceState, Tracer, WayHeat};
pub use uop::{MaybeSeq, PhysReg, Stage, Uop, UopId, UopSlab};
