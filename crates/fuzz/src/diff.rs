//! Lockstep differential driver: the OOO core versus the golden
//! interpreter, in every redundancy mode.
//!
//! The comparison surface is deliberately wider than the hand-written
//! differential tests': besides final register-file and memory
//! equivalence, the core's *commit log* is replayed against the
//! interpreter instruction by instruction
//! ([`blackjack_sim::replay_commit_log`]) — PC, next PC, destination
//! value, load address, and store address/size/data must all agree at
//! every committed instruction, in program order. A divergence
//! therefore names the exact sequence number where the pipeline first
//! went wrong, which is what makes minimized cases actionable.
//!
//! Every failure path returns a [`DiffFailure`] instead of panicking, so
//! the driver doubles as the minimizer's oracle: delta-debugged mutants
//! that hang or diverge *differently* are classified, not crashed on.

use blackjack_faults::FaultPlan;
use blackjack_isa::{Interp, Program};
use blackjack_sim::{replay_commit_log, Core, CoreConfig, Mode, RunOutcome};

/// Interpreter step budget per run.
pub const MAX_STEPS: u64 = 1_000_000;
/// Core cycle budget per run (the internal watchdog fires far earlier
/// on deadlock).
pub const MAX_CYCLES: u64 = 20_000_000;

/// What went wrong, without the details — the minimizer matches on this
/// to ensure a shrunk case still fails *the same way*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffFailureKind {
    /// The interpreter itself did not halt within [`MAX_STEPS`] (only
    /// reachable on minimizer mutants; generated programs always halt).
    InterpTimeout,
    /// The core did not complete: cycle limit or watchdog deadlock.
    CoreStuck,
    /// A redundancy check fired on a fault-free run — a false positive.
    FalseDetection,
    /// The commit log diverged from the interpreter's execution.
    CommitDivergence,
    /// Final architectural register state differs.
    RegisterMismatch,
    /// Final memory image differs.
    MemoryMismatch,
    /// Commit counts differ from the interpreter's instruction count,
    /// or the two redundant threads did not commit in lockstep.
    CommitCount,
}

/// A differential failure: which mode, which kind, and a human-readable
/// account of the first divergence.
#[derive(Debug, Clone)]
pub struct DiffFailure {
    /// The mode that diverged.
    pub mode: Mode,
    /// The failure class.
    pub kind: DiffFailureKind,
    /// Details of the first divergence.
    pub detail: String,
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} mode] {:?}: {}", self.mode, self.kind, self.detail)
    }
}

/// Aggregate statistics from one clean differential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffStats {
    /// Instructions the interpreter executed.
    pub icount: u64,
    /// Core cycles, summed over all modes.
    pub cycles: u64,
}

/// Runs `prog` through the interpreter and through the core in all four
/// modes, comparing the committed instruction stream and the final
/// architectural state. Fault-free: any detection is a failure.
///
/// # Errors
///
/// Returns the first [`DiffFailure`] encountered, in `Mode::ALL` order.
pub fn check_fault_free(prog: &Program) -> Result<DiffStats, DiffFailure> {
    // Golden run first; a non-halting program is reported against the
    // first mode for determinism.
    let mut golden = Interp::new(prog);
    let _ = golden.run(MAX_STEPS);
    if !golden.halted() {
        return Err(DiffFailure {
            mode: Mode::ALL[0],
            kind: DiffFailureKind::InterpTimeout,
            detail: format!("interpreter still running after {MAX_STEPS} steps"),
        });
    }

    let mut stats = DiffStats { icount: golden.icount(), cycles: 0 };
    for mode in Mode::ALL {
        let mut core = Core::new(CoreConfig::with_mode(mode), prog, FaultPlan::new());
        core.enable_commit_log();
        let outcome = core.run(MAX_CYCLES);
        let fail = |kind, detail| Err(DiffFailure { mode, kind, detail });
        match outcome {
            RunOutcome::Completed => {}
            RunOutcome::Detected(ev) => {
                return fail(DiffFailureKind::FalseDetection, format!("{ev}"));
            }
            RunOutcome::CycleLimit => {
                return fail(
                    DiffFailureKind::CoreStuck,
                    format!(
                        "no completion after {} cycles (deadlocked: {})",
                        core.stats().cycles,
                        core.stats().deadlocked
                    ),
                );
            }
        }

        let log = core.take_commit_log().expect("commit log was enabled");
        if let Err(d) = replay_commit_log(prog, &log) {
            return fail(DiffFailureKind::CommitDivergence, d.to_string());
        }

        for r in 0..32 {
            if core.arch_reg(r) != golden.reg(r) {
                return fail(
                    DiffFailureKind::RegisterMismatch,
                    format!("x{r}: core {:#x}, golden {:#x}", core.arch_reg(r), golden.reg(r)),
                );
            }
            if core.arch_freg_bits(r) != golden.freg_bits(r) {
                return fail(
                    DiffFailureKind::RegisterMismatch,
                    format!(
                        "f{r}: core {:#x}, golden {:#x}",
                        core.arch_freg_bits(r),
                        golden.freg_bits(r)
                    ),
                );
            }
        }
        if let Some(addr) = core.mem().first_difference(golden.mem()) {
            return fail(
                DiffFailureKind::MemoryMismatch,
                format!(
                    "at {addr:#x}: core {:#x}, golden {:#x}",
                    core.mem().read_u64(addr & !7),
                    golden.mem().read_u64(addr & !7)
                ),
            );
        }

        let s = core.stats();
        if s.committed[0] != golden.icount() {
            return fail(
                DiffFailureKind::CommitCount,
                format!("core committed {}, interpreter executed {}", s.committed[0], golden.icount()),
            );
        }
        if mode.is_redundant() && s.committed[0] != s.committed[1] {
            return fail(
                DiffFailureKind::CommitCount,
                format!("threads out of lockstep: {} vs {}", s.committed[0], s.committed[1]),
            );
        }
        stats.cycles += s.cycles;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use blackjack_isa::asm::assemble;

    #[test]
    fn generated_programs_pass_all_modes() {
        for seed in 0..8 {
            let prog = generate(seed, GenConfig::default());
            check_fault_free(&prog).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn non_halting_program_reports_timeout_not_panic() {
        let prog = assemble(".text\nloop:\n j loop\n halt\n").unwrap();
        let err = check_fault_free(&prog).unwrap_err();
        assert_eq!(err.kind, DiffFailureKind::InterpTimeout);
    }
}
