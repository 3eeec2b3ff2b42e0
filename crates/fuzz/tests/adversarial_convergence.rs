//! The adversarial convergence case: a fault that *activates* early
//! (corrupting a value that turns out to be architecturally dead), goes
//! quiet for thousands of cycles, and decides its real verdict only
//! when the site is re-exercised late in the run.
//!
//! This is the case the early-exit layer's golden-lockstep seal (M2)
//! must refuse: past the quiesce cycle the machine *looks* converged —
//! no activations for a long stretch, architectural state identical to
//! the fault-free run — but the nonzero activation count means the run
//! has already diverged microarchitecturally once, and the reference
//! exercise schedule no longer bounds its future. A "quiet means
//! converged" heuristic would seal Benign here and miss the detection.
//! The implemented seal requires `activations == 0`, so it must ride
//! the run to its true verdict. The same holds for a transient upset
//! that lands on phase 1's product: its seal is armed on the cycle after
//! the upset, where the run already looks converged.
//!
//! The program is checked in as `tests/corpus/adversarial-convergence.
//! bjcase` (regenerate with `BJ_BLESS=1 cargo test -p blackjack-fuzz
//! --test adversarial_convergence`), so the standard corpus replay
//! (differential surface + fault-soundness oracle) covers it too.

use std::path::PathBuf;

use blackjack::{EarlyExit, Exit, Metrics};
use blackjack_faults::{FaultKind, FaultPlan, FaultSite, HardFault};
use blackjack_fuzz::{Case, CaseKind};
use blackjack_isa::asm::assemble_named;
use blackjack_isa::FuType;
use blackjack_sim::{Core, CoreConfig, FuCounts, Mode, RunOutcome};

const MAX_CYCLES: u64 = 1_000_000;

/// The hypothetical seal point: mid-quiet-phase, after the phase-1
/// activation and well before the phase-3 verdict (both margins are
/// asserted, not assumed).
const QUIESCE: u64 = 1_200;

/// Early exit with the convergence seal (M2) armed at [`QUIESCE`].
fn seal() -> EarlyExit {
    EarlyExit { quiesce: Some(QUIESCE) }
}

/// Scratch memory above the data segment (same convention as the
/// workload kernels).
const HEAP: u64 = 0x40_0000;

fn case_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus/adversarial-convergence.bjcase")
}

/// The injected fault: stuck-at-1 on bit 4 of integer-multiplier
/// instance 0's result path. `3 * 5 = 15` has bit 4 clear, so every
/// pass of that product through the faulty way is an activation.
fn mul_fault() -> HardFault {
    let way = FuCounts::default().global_way(FuType::IntMul, 0);
    HardFault::stuck_bit(FaultSite::Backend { way }, 4)
}

fn adversarial_case() -> Case {
    // Phase 1 corrupts a product and immediately kills it: the
    // activation is counted but the run reconverges with the fault-free
    // run. Phase 2 never touches a multiplier, so the fault stays
    // silent across the whole loop. Phase 3 re-exercises the site and
    // commits the product to memory, deciding the verdict.
    let src = format!(
        r#"
        .text
            # Phase 1 (early activation): the corrupted product is
            # overwritten before it can reach memory or control flow.
            li   x5, 3
            li   x6, 5
            mul  x7, x5, x6        # 15: bit 4 clear, fault activates
            li   x7, 0             # corruption is dead on arrival
            # Phase 2 (quiet): ALU-only loop, zero multiplier traffic.
            li   x10, 3000
            li   x11, 0
        loop:
            addi x11, x11, 1
            blt  x11, x10, loop
            # Phase 3 (late verdict): the same product, committed.
            mul  x12, x5, x6
            li   x13, {HEAP}
            sd   x12, 0(x13)
            halt
        "#
    );
    let program = assemble_named(&src, "adversarial-convergence")
        .expect("adversarial program assembles");
    Case::new(
        "adversarial-convergence".into(),
        CaseKind::Interesting,
        None,
        program,
        Some(mul_fault()),
    )
}

#[test]
fn checked_in_case_matches_source() {
    let want = adversarial_case().to_text();
    let path = case_path();
    if std::env::var_os("BJ_BLESS").is_some() {
        std::fs::write(&path, &want).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let got = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{}: {e} (regenerate with BJ_BLESS=1)", path.display())
    });
    assert_eq!(got, want, "checked-in case is stale; regenerate with BJ_BLESS=1");
}

#[test]
fn activation_blocks_the_convergence_seal() {
    let case = adversarial_case();
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let fault = case.fault.expect("case carries a fault");

    // Full run: the verdict lands late, long after the quiesce point.
    let mut full = Core::new(cfg.clone(), &case.program, FaultPlan::single(fault));
    let full_out = full.run(MAX_CYCLES);
    assert!(
        matches!(full_out, RunOutcome::Detected(_)),
        "adversarial case must end in a detection, got {full_out:?}"
    );
    assert!(
        full.cycle() > 2 * QUIESCE,
        "verdict at cycle {} is not meaningfully past the quiesce point",
        full.cycle()
    );

    // The activation lands before the quiesce point: by cycle QUIESCE
    // the fault has already fired, yet nothing architectural happened.
    let mut probe = Core::new(cfg.clone(), &case.program, FaultPlan::single(fault));
    probe.run(QUIESCE);
    assert!(
        probe.plan().activations() > 0,
        "fault must activate before the quiesce point for the case to be adversarial"
    );

    // M2 armed mid-quiet: the nonzero activation count blocks the seal,
    // and the run is indistinguishable from the full one.
    let mut armed = Core::new(cfg, &case.program, FaultPlan::single(fault));
    let armed_out = seal().run(&mut armed, MAX_CYCLES, &mut Metrics::Off);
    assert_eq!(
        armed_out,
        Exit::Ran(full_out),
        "an armed quiesce check must not change the verdict of an activated run"
    );
    assert_eq!(armed.cycle(), full.cycle());
}

#[test]
fn quiesce_seals_only_inactive_sites() {
    // The positive side of the same contract: on a site the program
    // never exercises (an FP divider here — the program is integer-
    // only), the seal fires at the quiesce point and the sealed verdict
    // (Benign) matches the full run's.
    let case = adversarial_case();
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let way = FuCounts::default().global_way(FuType::FpDiv, 0);
    let idle = HardFault::stuck_bit(FaultSite::Backend { way }, 4);

    let mut golden = Core::new(cfg.clone(), &case.program, FaultPlan::new());
    assert_eq!(golden.run(MAX_CYCLES), RunOutcome::Completed);

    let mut full = Core::new(cfg.clone(), &case.program, FaultPlan::single(idle));
    assert_eq!(full.run(MAX_CYCLES), RunOutcome::Completed);
    assert_eq!(full.plan().activations(), 0, "the FP divider must never be exercised");
    assert!(
        full.mem().first_difference(golden.mem()).is_none(),
        "the full run must be Benign for the seal to be checkable against it"
    );

    let mut armed = Core::new(cfg, &case.program, FaultPlan::single(idle));
    assert_eq!(
        seal().run(&mut armed, MAX_CYCLES, &mut Metrics::Off),
        Exit::Converged
    );
    assert_eq!(armed.cycle(), QUIESCE, "the seal fires exactly at the quiesce point");
    assert!(
        armed.cycle() < full.cycle(),
        "the seal must actually save cycles over the full run"
    );
}

#[test]
fn a_transient_upset_that_lands_is_never_sealed() {
    // The single-cycle form of the case: an upset on the multiplier way
    // armed on the cycle that way carries phase 1's product. It
    // activates once, on a value that dies, so from the next cycle on
    // the run looks converged, and that is where the campaign arms a
    // transient's seal. The nonzero count must refuse it.
    let case = adversarial_case();
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let fault = case.fault.expect("case carries a fault");

    // Phase 1's product passes the faulty way on the cycle the hard
    // fault first activates.
    let mut probe = Core::new(cfg.clone(), &case.program, FaultPlan::single(fault));
    while probe.plan().activations() == 0 {
        assert_eq!(probe.run(probe.cycle() + 1), RunOutcome::CycleLimit, "no activation");
    }
    let arm = probe.cycle();
    assert!(arm < QUIESCE, "the upset lands in phase 1, at cycle {arm}");
    let upset = || FaultPlan::single(fault).arm_at(arm).with_kind(FaultKind::Transient);

    let mut plain = Core::new(cfg.clone(), &case.program, upset());
    let plain_out = plain.run(MAX_CYCLES);
    assert_eq!(plain.plan().activations(), 1, "the upset lands exactly once");

    // The campaign's seal, from a fault-free recording pass: phase 3
    // exercises the way again, so M1 does not decide the run, and the
    // transient's seal falls on the cycle after its upset.
    let recording = FaultPlan::new().record_usage(cfg.site_family_sizes());
    let mut reference = Core::new(cfg.clone(), &case.program, recording);
    assert_eq!(reference.run(MAX_CYCLES), RunOutcome::Completed);
    let usage = reference.plan().site_usage().expect("the reference pass records usage");
    let early = EarlyExit::for_site(usage, fault.site, arm, FaultKind::Transient)
        .expect("phase 3 exercises the multiplier way after the upset");
    assert_eq!(early.quiesce, Some(arm + 1));

    let mut driven = Core::new(cfg, &case.program, upset());
    let driven_out = early.run(&mut driven, MAX_CYCLES, &mut Metrics::Off);
    assert_eq!(driven_out, Exit::Ran(plain_out), "a landed upset must not seal");
    assert_eq!(driven.cycle(), plain.cycle());
    assert!(driven.cycle() > arm + 1, "the run ends past the seal point");
}
