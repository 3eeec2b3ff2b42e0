//! Fault-soundness oracles: injected hard faults must be detected,
//! provably masked, or sit on a site the static analysis already
//! excludes from the guarantee.
//!
//! Site classification comes from `blackjack-analysis`:
//!
//! * [`SiteClass::Pruned`] — the fault can never fire
//!   ([`SiteAnalysis::prunable`]); the run must be indistinguishable
//!   from fault-free (completed, zero detections, golden memory).
//! * [`SiteClass::Guaranteed`] — BlackJack's checks guarantee
//!   detection-or-masking ([`SiteAnalysis::detection_guaranteed`]); a
//!   completed run with memory differing from golden is silent data
//!   corruption and fails the fuzzer. A frontend guarantee additionally
//!   requires that safe-shuffle never *forced* a same-way placement,
//!   which the oracle checks on the observed run.
//! * [`SiteClass::BestEffort`] — known escape paths (`MemPort` backend
//!   ways and payload RAM corrupt leading load values before LVQ
//!   capture, so both threads can agree on a wrong value). Escapes are
//!   tallied, not failed — but the run must still terminate cleanly.
//!
//! A watchdog-triggered cycle-limit on a faulty run counts as detection:
//! the fault wedged the pipeline and the deadlock detector flagged it,
//! which is containment, not silence.
//!
//! **Transients end one cycle past their upset.** Every fault run goes
//! through the campaign's driver, [`EarlyExit`], sealed by
//! [`EarlyExit::for_kind`]. A transient is present on its arming cycle
//! alone, so a transient run that has not activated once that cycle is
//! simulated never activates: the rest of it is the fault-free ECC-on run,
//! which ends exactly as the fault-free ECC-off run does, completed with
//! golden memory. The driver stops it there, and the oracle reads the
//! verdict that run would reach: masked, and benign in the taxonomy (zero
//! activations mean no ECC correction). This rests on one precondition:
//! the program passes [`crate::diff::check_fault_free`], as every program
//! `bj-fuzz` samples does before it is injected into. Hard and
//! intermittent faults recur, so their runs go to the end.

use blackjack::{EarlyExit, Exit, Metrics};
use blackjack_analysis::SiteAnalysis;
use blackjack_faults::{FaultKind, FaultPlan, FaultSite, HardFault, Taxonomy};
use blackjack_isa::{Interp, PagedMem, Program};
use blackjack_sim::{Core, CoreConfig, Mode, RunOutcome};

use crate::diff::{MAX_CYCLES, MAX_STEPS};

/// What the static analysis promises for a fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Statically dead: the fault can never corrupt an executing uop.
    Pruned,
    /// Detection (or architectural masking) is guaranteed.
    Guaranteed,
    /// Known escape path; detection is best-effort.
    BestEffort,
}

/// How one faulty run ended, relative to the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// A redundancy check fired.
    Detected,
    /// The pipeline wedged and the deadlock watchdog contained it.
    Watchdog,
    /// The run completed with memory identical to golden: the fault was
    /// architecturally masked (or never fired).
    Masked,
    /// The run completed with memory differing from golden — silent
    /// data corruption. Only tolerable on [`SiteClass::BestEffort`]
    /// sites.
    Escaped,
}

/// A soundness violation: the verdict contradicts the site's class.
#[derive(Debug, Clone)]
pub struct Soundness {
    /// The injected fault.
    pub fault: HardFault,
    /// The site's static classification.
    pub class: SiteClass,
    /// The observed verdict.
    pub verdict: FaultVerdict,
    /// Explanation of the violation.
    pub detail: String,
}

impl std::fmt::Display for Soundness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({:?} site, {:?}): {}", self.fault, self.class, self.verdict, self.detail)
    }
}

/// Classifies `site` for `prog` under the default backend (ECC off).
pub fn classify_sites(analysis: &SiteAnalysis, site: FaultSite) -> SiteClass {
    classify_sites_ecc(analysis, site, false)
}

/// [`classify_sites`] with the LVQ SEC-DED layer's state threaded in:
/// with `ecc` on, the load-value escape paths (`MemPort` backend ways,
/// payload RAM, cache data arrays) are corrected or flagged at the
/// trailing LVQ read, promoting those sites to [`SiteClass::Guaranteed`].
pub fn classify_sites_ecc(analysis: &SiteAnalysis, site: FaultSite, ecc: bool) -> SiteClass {
    if analysis.prunable(site) {
        SiteClass::Pruned
    } else if analysis.detection_guaranteed_with(site, ecc) {
        SiteClass::Guaranteed
    } else {
        SiteClass::BestEffort
    }
}

/// Runs `prog` in BlackJack mode with `fault` injected and judges the
/// outcome against `golden_mem` (the fault-free interpreter's final
/// memory) and the site's static class.
///
/// # Errors
///
/// Returns [`Soundness`] when the verdict violates the class contract:
/// an SDC on a guaranteed site, any deviation at all on a pruned site,
/// or a wedge the watchdog failed to contain.
pub fn check_fault(
    prog: &Program,
    analysis: &SiteAnalysis,
    fault: HardFault,
    golden_mem: &PagedMem,
) -> Result<FaultVerdict, Soundness> {
    check_fault_universe(prog, analysis, fault, FaultKind::Hard, 0, false, golden_mem)
}

/// [`check_fault`] over the full fault universe: `kind` and `arm` pick
/// the temporal model (permanent from `arm`, single-cycle at `arm`, or
/// duty-cycled burst), `ecc` turns the LVQ SEC-DED layer on. The site
/// contract is judged against the ECC-aware classification
/// ([`classify_sites_ecc`]) — with ECC on, an escape on a promoted site
/// (payload RAM, `MemPort` way, cache data) is a soundness failure.
///
/// A transient that has not activated by the cycle after its upset is
/// masked without simulating further (the module doc has the argument);
/// `prog` must pass [`crate::diff::check_fault_free`].
///
/// # Errors
///
/// Returns [`Soundness`] exactly as [`check_fault`] does.
pub fn check_fault_universe(
    prog: &Program,
    analysis: &SiteAnalysis,
    fault: HardFault,
    kind: FaultKind,
    arm: u64,
    ecc: bool,
    golden_mem: &PagedMem,
) -> Result<FaultVerdict, Soundness> {
    let class = classify_sites_ecc(analysis, fault.site, ecc);
    let plan = FaultPlan::single(fault).arm_at(arm).with_kind(kind);
    let (exit, core) = run_blackjack(prog, plan, ecc);
    let stats = core.stats();
    let verdict = match exit {
        // Sealed with zero activations: the rest is the fault-free run.
        Exit::Converged => FaultVerdict::Masked,
        Exit::Ran(RunOutcome::Detected(_)) => FaultVerdict::Detected,
        Exit::Ran(RunOutcome::CycleLimit) => {
            if stats.deadlocked {
                FaultVerdict::Watchdog
            } else {
                // The fault made the program run longer than the budget
                // without a detected deadlock — treat as a wedge.
                return Err(Soundness {
                    fault,
                    class,
                    verdict: FaultVerdict::Watchdog,
                    detail: format!("cycle budget exhausted at {} without deadlock", stats.cycles),
                });
            }
        }
        Exit::Ran(RunOutcome::Completed) => {
            if core.mem().first_difference(golden_mem).is_none() {
                FaultVerdict::Masked
            } else {
                FaultVerdict::Escaped
            }
        }
    };

    // Forced same-way shuffle placements void the frontend guarantee for
    // this particular run (the paper's Section on safe-shuffle forced
    // placements); downgrade to best-effort.
    let effective_class = if class == SiteClass::Guaranteed
        && matches!(fault.site, FaultSite::Frontend { .. })
        && stats.shuffle_forced > 0
    {
        SiteClass::BestEffort
    } else {
        class
    };

    match (effective_class, verdict) {
        (SiteClass::Pruned, FaultVerdict::Masked) => Ok(verdict),
        (SiteClass::Pruned, v) => Err(Soundness {
            fault,
            class,
            verdict: v,
            detail: "statically-benign site deviated from the fault-free run".into(),
        }),
        (SiteClass::Guaranteed, FaultVerdict::Escaped) => Err(Soundness {
            fault,
            class,
            verdict,
            detail: "silent data corruption on a detection-guaranteed site".into(),
        }),
        (_, v) => Ok(v),
    }
}

/// Convenience: the golden memory for `prog` (interpreter, fault-free).
///
/// # Panics
///
/// Panics if the program does not halt within [`MAX_STEPS`]; callers
/// run [`crate::diff::check_fault_free`] first, which screens that out.
pub fn golden_memory(prog: &Program) -> PagedMem {
    let mut it = Interp::new(prog);
    let _ = it.run(MAX_STEPS);
    assert!(it.halted(), "golden run must halt before fault injection");
    it.mem().clone()
}

/// Replays `prog` in BlackJack mode with `plan` injected and maps the
/// run into the CE/DUE/SDC/benign taxonomy against `golden_mem` — the
/// verdict the corpus taxonomy goldens pin down. Any detection
/// (pair-check, ECC double-bit flag, watchdog) is a DUE; a clean
/// completion is a CE exactly when an ECC correction fired.
///
/// A transient plan that has not activated by the cycle after its upset
/// is benign without simulating further, as in
/// [`check_fault_universe`]; `prog` must pass
/// [`crate::diff::check_fault_free`].
pub fn run_taxonomy(
    prog: &Program,
    plan: FaultPlan,
    ecc: bool,
    golden_mem: &PagedMem,
) -> Taxonomy {
    let (exit, core) = run_blackjack(prog, plan, ecc);
    match exit {
        Exit::Converged => Taxonomy::Benign,
        Exit::Ran(RunOutcome::Detected(_) | RunOutcome::CycleLimit) => Taxonomy::Due,
        Exit::Ran(RunOutcome::Completed) => {
            if core.mem().first_difference(golden_mem).is_some() {
                Taxonomy::Sdc
            } else if core.stats().ecc_corrected > 0 {
                Taxonomy::Ce
            } else {
                Taxonomy::Benign
            }
        }
    }
}

/// Runs `prog` in BlackJack mode under `plan` to its end, or to the
/// [`EarlyExit::for_kind`] seal of the plan's kind and arm.
fn run_blackjack(prog: &Program, plan: FaultPlan, ecc: bool) -> (Exit, Core) {
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    cfg.lvq_ecc = ecc;
    let seal = EarlyExit::for_kind(plan.kind(), plan.arm_cycle());
    let mut core = Core::new(cfg, prog, plan);
    let exit = seal.run(&mut core, MAX_CYCLES, &mut Metrics::Off);
    (exit, core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use blackjack_sim::FuCounts;

    #[test]
    fn frontend_faults_on_generated_programs_are_sound() {
        let prog = generate(7, GenConfig { segments: 6, ..GenConfig::default() });
        let analysis = SiteAnalysis::analyze(&prog, &FuCounts::default()).unwrap();
        let golden = golden_memory(&prog);
        for way in 0..2 {
            for bit in [0u8, 3, 17] {
                let fault = HardFault::stuck_bit(FaultSite::Frontend { way }, bit);
                let v = check_fault(&prog, &analysis, fault, &golden)
                    .unwrap_or_else(|s| panic!("unsound: {s}"));
                assert_ne!(v, FaultVerdict::Escaped, "frontend fault escaped");
            }
        }
    }

    #[test]
    fn pruned_sites_are_invisible() {
        // An integer-only program: all FP/mul/div backend ways are dead.
        let prog = blackjack_isa::asm::assemble(
            ".text\n li x1, 3\n sd x1, 0(x2)\n halt\n",
        )
        .unwrap();
        let analysis = SiteAnalysis::analyze(&prog, &FuCounts::default()).unwrap();
        let golden = golden_memory(&prog);
        for way in analysis.prunable_backend_ways() {
            let fault = HardFault::stuck_bit(FaultSite::Backend { way }, 5);
            let v = check_fault(&prog, &analysis, fault, &golden).expect("sound");
            assert_eq!(v, FaultVerdict::Masked);
        }
    }
}
