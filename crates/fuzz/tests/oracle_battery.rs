//! Soundness battery over the full fault universe: every
//! (site-class, fault-kind) cell is exercised with the ECC layer off and
//! on, and every injection must satisfy its site contract — in
//! particular, zero `Escaped` verdicts on `Guaranteed` sites. This is
//! the deterministic, checked-in counterpart of the `bj-fuzz` sampling
//! loop: ≥200 injections across three generated programs, all eight
//! fault-site families, and all three temporal models.
//!
//! The oracle ends a transient run one cycle past its upset when it has
//! not activated. `transient_verdicts_match_the_run_to_the_end` pins
//! that seal against the same plans driven to their end, including
//! upsets armed where they must activate.

use blackjack_analysis::SiteAnalysis;
use blackjack_faults::{FaultKind, FaultPlan, FaultSite, HardFault, Taxonomy};
use blackjack_fuzz::diff::{check_fault_free, MAX_CYCLES};
use blackjack_fuzz::gen::{generate, GenConfig};
use blackjack_fuzz::oracle::{
    check_fault_universe, classify_sites_ecc, golden_memory, run_taxonomy, FaultVerdict,
    SiteClass,
};
use blackjack_isa::{PagedMem, Program};
use blackjack_sim::{Core, CoreConfig, FuCounts, Mode, RunOutcome};

/// The site sample: every `FaultSite` family, physical indices chosen so
/// the circular-RAM keying (`seq % capacity`) and the L1D set mapping
/// both land on exercised slots for small generated programs.
fn sites() -> Vec<FaultSite> {
    vec![
        FaultSite::Frontend { way: 0 },
        FaultSite::Frontend { way: 3 },
        FaultSite::Backend { way: 0 },
        FaultSite::Backend { way: 7 },
        FaultSite::Backend { way: 15 },
        FaultSite::PayloadRam { entry: 0 },
        FaultSite::PayloadRam { entry: 5 },
        FaultSite::CacheData { index: 0 },
        FaultSite::CacheTag { index: 0 },
        FaultSite::StoreBuffer { entry: 0 },
        FaultSite::DtqPayload { entry: 0 },
        FaultSite::LvqPayload { entry: 0 },
        FaultSite::LvqPayload { entry: 1 },
    ]
}

/// A fault bit inside the corrupted structure's width.
fn bit_for(site: FaultSite, salt: u8) -> u8 {
    let width = match site {
        // Instruction words and payload-RAM slots are 32 bits wide.
        FaultSite::Frontend { .. } | FaultSite::PayloadRam { .. } | FaultSite::DtqPayload { .. } => {
            32
        }
        _ => 64,
    };
    (salt * 13 + 3) % width
}

/// Fault-free BlackJack cycle count, used to place transient and
/// intermittent arm cycles inside the program's active window.
fn fault_free_cycles(prog: &blackjack_isa::Program) -> u64 {
    let mut core = Core::new(CoreConfig::with_mode(Mode::BlackJack), prog, Default::default());
    let _ = core.run(MAX_CYCLES);
    core.stats().cycles
}

#[test]
fn fault_universe_battery_has_no_guaranteed_escapes() {
    let fu = FuCounts::default();
    let mut total = 0u64;
    let mut guaranteed_checked = 0u64;
    let mut best_effort_escapes = 0u64;

    for (seed, segments) in [(0xBA7u64, 4usize), (0xBA8, 5), (0xBA9, 6)] {
        let prog = generate(seed, GenConfig { segments, ..GenConfig::default() });
        let analysis = SiteAnalysis::analyze(&prog, &fu).expect("generated programs have a CFG");
        let golden = golden_memory(&prog);
        let cycles = fault_free_cycles(&prog);
        let kinds = [
            (FaultKind::Hard, 0),
            (FaultKind::Transient, cycles / 2),
            (FaultKind::Intermittent { period: 32, on: 4 }, cycles / 3),
        ];

        for (i, site) in sites().into_iter().enumerate() {
            let fault = HardFault::stuck_bit(site, bit_for(site, i as u8));
            for &(kind, arm) in &kinds {
                for ecc in [false, true] {
                    total += 1;
                    // check_fault_universe fails internally on any
                    // contract violation (guaranteed-site SDC, pruned-site
                    // deviation, uncontained wedge).
                    let verdict =
                        check_fault_universe(&prog, &analysis, fault, kind, arm, ecc, &golden)
                            .unwrap_or_else(|s| {
                                panic!("seed {seed:#x} {kind:?} ecc={ecc}: unsound: {s}")
                            });
                    match classify_sites_ecc(&analysis, site, ecc) {
                        SiteClass::Guaranteed => {
                            guaranteed_checked += 1;
                            assert_ne!(
                                verdict,
                                FaultVerdict::Escaped,
                                "guaranteed site {site:?} escaped under {kind:?} (ecc={ecc})"
                            );
                        }
                        SiteClass::BestEffort if verdict == FaultVerdict::Escaped => {
                            best_effort_escapes += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    assert!(total >= 200, "battery too small: {total} injections");
    assert!(
        guaranteed_checked >= 100,
        "guaranteed cells under-covered: {guaranteed_checked} of {total}"
    );
    // Escapes on best-effort sites are tolerated by the contract, but at
    // these exercised slots with ECC in the sweep they should stay rare;
    // a jump here means a promoted site regressed to its escape path.
    assert!(
        best_effort_escapes <= total / 10,
        "unexpected escape volume on best-effort sites: {best_effort_escapes} of {total}"
    );
}

#[test]
fn ecc_promotes_every_load_value_site_to_guaranteed() {
    let prog = generate(0xBA7, GenConfig { segments: 4, ..GenConfig::default() });
    let analysis = SiteAnalysis::analyze(&prog, &FuCounts::default()).unwrap();
    for site in [
        FaultSite::PayloadRam { entry: 0 },
        FaultSite::CacheData { index: 0 },
        FaultSite::LvqPayload { entry: 0 },
    ] {
        assert_eq!(
            classify_sites_ecc(&analysis, site, true),
            SiteClass::Guaranteed,
            "{site:?} must be guaranteed with ECC on"
        );
    }
    // And the LVQ payload RAM is guaranteed even without ECC: the
    // corruption strikes only the trailing thread's copy, which can
    // diverge-and-detect or match, never silently reach memory.
    assert_eq!(
        classify_sites_ecc(&analysis, FaultSite::LvqPayload { entry: 0 }, false),
        SiteClass::Guaranteed
    );
}

/// The oracle's verdict and taxonomy for `plan`, read from the run driven
/// to its end as the oracle read every run before it sealed transients;
/// and the run's activation count. A cycle-limit exit is a watchdog
/// verdict, which the oracle reports as such whether or not it also
/// calls the run unsound.
fn run_to_the_end(
    prog: &Program,
    plan: FaultPlan,
    ecc: bool,
    golden: &PagedMem,
) -> (FaultVerdict, Taxonomy, u64) {
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    cfg.lvq_ecc = ecc;
    let mut core = Core::new(cfg, prog, plan);
    let (verdict, taxonomy) = match core.run(MAX_CYCLES) {
        RunOutcome::Detected(_) => (FaultVerdict::Detected, Taxonomy::Due),
        RunOutcome::CycleLimit => (FaultVerdict::Watchdog, Taxonomy::Due),
        RunOutcome::Completed if core.mem().first_difference(golden).is_some() => {
            (FaultVerdict::Escaped, Taxonomy::Sdc)
        }
        RunOutcome::Completed if core.stats().ecc_corrected > 0 => {
            (FaultVerdict::Masked, Taxonomy::Ce)
        }
        RunOutcome::Completed => (FaultVerdict::Masked, Taxonomy::Benign),
    };
    (verdict, taxonomy, core.plan().activations())
}

/// The first cycle at or after `from` on which the fault-free run passes
/// a value through `fault`'s site that the fault changes: a transient
/// armed there activates. Found by stepping the hard fault armed at
/// `from` to its first activation, before which its run is the
/// fault-free run; `None` if it never activates.
fn activating_cycle(prog: &Program, fault: HardFault, from: u64) -> Option<u64> {
    let plan = FaultPlan::single(fault).arm_at(from);
    let mut probe = Core::new(CoreConfig::with_mode(Mode::BlackJack), prog, plan);
    while probe.plan().activations() == 0 {
        if probe.run(probe.cycle() + 1) != RunOutcome::CycleLimit {
            return None;
        }
    }
    Some(probe.cycle())
}

/// Transient injections the oracle seals one cycle past their upset get
/// exactly the verdict and taxonomy of the run driven to its end: arms
/// spread over the run on every site family, ECC off and on, and upsets
/// armed on cycles where frontend and backend ways carry a value they
/// change, most of which the full run detects.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn transient_verdicts_match_the_run_to_the_end() {
    let fu = FuCounts::default();
    let mut checked = 0u64;
    let mut activated = 0u64;
    let mut activated_detected = 0u64;
    for (seed, segments) in [(0xBA7u64, 4usize), (0xBA8, 5), (0xBA9, 6)] {
        let prog = generate(seed, GenConfig { segments, ..GenConfig::default() });
        check_fault_free(&prog).expect("the oracle's precondition");
        let analysis = SiteAnalysis::analyze(&prog, &fu).expect("generated programs have a CFG");
        let golden = golden_memory(&prog);
        let cycles = fault_free_cycles(&prog);
        let spread: Vec<u64> = (0..8).map(|k| 1 + k * cycles / 8).collect();

        let mut cases: Vec<(HardFault, u64)> = Vec::new();
        for (i, site) in sites().into_iter().enumerate() {
            let fault = HardFault::stuck_bit(site, bit_for(site, i as u8));
            cases.extend(spread.iter().map(|&arm| (fault, arm)));
        }
        let aimed = (0..4)
            .map(|way| FaultSite::Frontend { way })
            .chain([0, 1, 4].map(|way| FaultSite::Backend { way }));
        for (i, site) in aimed.enumerate() {
            for bit in [2, 9, 20] {
                let fault = HardFault::stuck_bit(site, bit + i as u8);
                let arms = spread.iter().filter_map(|&from| activating_cycle(&prog, fault, from));
                cases.extend(arms.map(|arm| (fault, arm)));
            }
        }

        for (fault, arm) in cases {
            for ecc in [false, true] {
                let plan = FaultPlan::single(fault).arm_at(arm).with_kind(FaultKind::Transient);
                let (verdict, taxonomy, activations) =
                    run_to_the_end(&prog, plan.clone(), ecc, &golden);
                let what = format!("seed {seed:#x} {fault} armed at {arm}, ecc={ecc}");
                let sealed = check_fault_universe(
                    &prog,
                    &analysis,
                    fault,
                    FaultKind::Transient,
                    arm,
                    ecc,
                    &golden,
                )
                .unwrap_or_else(|unsound| unsound.verdict);
                assert_eq!(sealed, verdict, "{what}: verdict");
                assert_eq!(run_taxonomy(&prog, plan, ecc, &golden), taxonomy, "{what}: taxonomy");
                checked += 1;
                if activations > 0 {
                    activated += 1;
                    activated_detected += u64::from(verdict == FaultVerdict::Detected);
                }
            }
        }
    }
    assert!(checked >= 1_000, "sweep too small: {checked} transients");
    // The aimed upsets are what a seal placed too early, or one that
    // ignored the activation count, would get wrong.
    assert!(
        activated >= 500 && activated_detected >= 300,
        "{activated_detected} of {activated} activated upsets detected"
    );
}
