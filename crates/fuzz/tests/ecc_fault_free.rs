//! The LVQ SEC-DED layer is invisible to a fault-free run: with
//! `lvq_ecc` on, a run without faults ends with the same outcome, the
//! same statistics (wall-clock time aside) and the same memory as with
//! it off, in every mode, on the 18 kernels and on generated programs.
//!
//! The fuzz oracle's transient seal rests on this. A transient that has
//! not activated once its upset's cycle is simulated leaves the rest of
//! its ECC-on run fault-free, and the oracle reads that run's verdict
//! from the ECC-off run `check_fault_free` validates.

use blackjack::workloads::{build, Benchmark};
use blackjack_faults::FaultPlan;
use blackjack_fuzz::diff::MAX_CYCLES;
use blackjack_fuzz::gen::{generate, GenConfig};
use blackjack_isa::Program;
use blackjack_sim::{Core, CoreConfig, Mode, RunOutcome};

/// Runs `prog` fault-free in `mode` with the LVQ ECC layer `ecc`.
fn fault_free(prog: &Program, mode: Mode, ecc: bool) -> (RunOutcome, Core) {
    let mut cfg = CoreConfig::with_mode(mode);
    cfg.lvq_ecc = ecc;
    let mut core = Core::new(cfg, prog, FaultPlan::new());
    let out = core.run(MAX_CYCLES);
    (out, core)
}

/// Everything a run reports but wall-clock time.
fn arch_stats(core: &Core) -> String {
    let mut stats = core.stats().clone();
    stats.wall_nanos = 0;
    stats.agg_wall_nanos = 0;
    format!("{stats:?}")
}

/// Asserts `prog` runs identically with ECC off and on in every mode.
fn assert_ecc_invisible(name: &str, prog: &Program) {
    for mode in Mode::ALL {
        let (off_out, off) = fault_free(prog, mode, false);
        let (on_out, on) = fault_free(prog, mode, true);
        assert_eq!(off_out, RunOutcome::Completed, "{name} {mode}: fault-free run");
        assert_eq!(on_out, off_out, "{name} {mode}: outcome");
        assert_eq!(arch_stats(&on), arch_stats(&off), "{name} {mode}: statistics");
        assert_eq!(on.mem().first_difference(off.mem()), None, "{name} {mode}: memory");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn ecc_is_invisible_to_fault_free_kernels() {
    for bench in Benchmark::ALL.into_iter().chain(Benchmark::CALL_KERNELS) {
        assert_ecc_invisible(bench.name(), &build(bench, 1));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn ecc_is_invisible_to_fault_free_generated_programs() {
    for i in 0..300u64 {
        let seed = 0xECC0_0000 + i;
        let segments = 4 + (i % 13) as usize;
        let prog = generate(seed, GenConfig { segments, ..GenConfig::default() });
        assert_ecc_invisible(&format!("program {seed:#x}"), &prog);
    }
}
