//! Static analysis of BJ-ISA programs.
//!
//! Everything downstream of the assembler in this workspace — the
//! interpreter, the timing simulator, the fault-injection campaigns —
//! executes programs *dynamically*. This crate is the static
//! counterpart: it decodes an assembled [`blackjack_isa::Program`] back
//! into instructions, builds a control-flow graph, runs classic
//! dataflow analyses over it, and exposes these consumers:
//!
//! * [`lint`] — program sanity checks (unreachable code, reads of
//!   never-written registers, dead definitions, unbounded loops,
//!   running off the end of the text segment). The workload suite is
//!   lint-clean by test.
//! * [`callgraph`] / [`radiscipline`] / [`interproc`] — the
//!   interprocedural layer: function partitioning from `jal`-with-link
//!   call sites, a return-address-discipline proof per function, and —
//!   when every function passes — resolution of `jalr` returns into
//!   real CFG edges plus summary-based interprocedural dataflow, so
//!   the lints stay precise across call boundaries.
//! * [`reach`] — static fault-site pruning: which backend ways a
//!   program can possibly exercise, judged by the FU mix of every
//!   decoded text word (no reachability or interprocedural pass), so
//!   injection campaigns can prove the remaining sites benign without
//!   simulating them.
//! * [`shuffle_check`] — a verifier that drives the real safe-shuffle
//!   implementation over every possible leading placement and proves
//!   the spatial-diversity property the paper's detection argument
//!   rests on.
//!
//! The `bj-lint` binary in `blackjack-bench` runs them all over the
//! workload suite and emits a machine-readable report.

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod interproc;
pub mod lint;
pub mod radiscipline;
pub mod reach;
pub mod shuffle_check;

pub use callgraph::{CallGraph, CallSite, CgIssue, Function};
pub use cfg::{BasicBlock, Cfg, CfgError, Terminator};
pub use dataflow::{dead_defs, DefiniteAssign, Liveness, RegSet};
pub use interproc::{FnSummary, Interproc, Resolution};
pub use lint::{lint_interproc, lint_program, Lint, LintReport};
pub use radiscipline::{prove_function, RaProof, RaReject};
pub use reach::{FuMix, SiteAnalysis};
pub use shuffle_check::{verify_default, verify_shuffle, ShuffleCheckError, ShuffleProof};
