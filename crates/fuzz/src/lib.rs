//! Differential fuzzing of the BlackJack out-of-order SMT core against
//! the golden BJ-ISA interpreter.
//!
//! The crate closes the loop the hand-written differential tests can't:
//! it *generates* programs the test authors never thought of, runs each
//! one through every redundancy mode, and compares the committed
//! instruction stream — not just final state — against the interpreter.
//! Three layers:
//!
//! * [`gen`] — a deterministic random program generator constrained to
//!   lint-clean programs (every generated case passes
//!   `blackjack_analysis::lint_program` by construction), so a fuzz
//!   failure is always a simulator bug, never a degenerate input.
//! * [`diff`] — the lockstep differential driver: commit-log replay
//!   against the interpreter plus final register-file and memory
//!   equivalence, in all four [`blackjack_sim::Mode`]s.
//! * [`oracle`] — fault-soundness checks: fault-free runs must raise
//!   zero detections, and injected hard faults at sites where
//!   [`blackjack_analysis::SiteAnalysis`] guarantees detection must be
//!   detected or provably masked (memory identical to golden).
//!
//! Failures are shrunk by [`minimize()`] (delta debugging with NOP
//! replacement, so PCs and branch offsets stay valid) and persisted as
//! replayable [`corpus`] cases under `tests/corpus/`.

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use corpus::{Case, CaseKind};
pub use diff::{check_fault_free, DiffFailure, DiffFailureKind, DiffStats};
pub use gen::{generate, GenConfig};
pub use minimize::minimize;
pub use oracle::{
    check_fault, check_fault_universe, classify_sites, classify_sites_ecc, run_taxonomy,
    FaultVerdict, SiteClass, Soundness,
};
