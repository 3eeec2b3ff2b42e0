//! Exit-cycle exactness of `EarlyExit::run`: driving a run with at most
//! two `Core::run` calls — to the quiesce cycle, then on to the budget —
//! must end it with the same outcome on the same cycle as checking the
//! convergence seal (M2) after every single step.
//!
//! Every injection of one kernel's campaign sites, in both campaign modes,
//! runs both ways, sealed where the campaign seals it
//! (`EarlyExit::for_site` with the campaign's fault kind), one test per
//! kind. The per-step reference below is written out here on purpose,
//! from the core's public counters only. Each test also pins the cycle
//! its kind seals on: a transient the cycle after its upset, the other
//! kinds the cycle after the site's last fault-free exercise.

use blackjack::faults::{FaultKind, FaultPlan};
use blackjack::sim::{Core, RunOutcome};
use blackjack::workloads::{build, Benchmark};
use blackjack::{arming_schedule, EarlyExit, Exit, Metrics, SnapshotChain};
use blackjack_bench::detection::{armed_plan_kind, sites, DetectionConfig, MAX_CYCLES, MODES};

/// M2 checked after every step, with the built-in watchdog and the
/// natural end taking precedence on the same cycle.
fn per_step(core: &mut Core, early: &EarlyExit) -> Exit {
    loop {
        let out = core.run(core.cycle() + 1);
        if out != RunOutcome::CycleLimit || core.stats().deadlocked {
            return Exit::Ran(out);
        }
        let cycle = core.cycle();
        if early.quiesce.is_some_and(|q| cycle >= q) && core.plan().activations() == 0 {
            return Exit::Converged;
        }
        if cycle >= MAX_CYCLES {
            return Exit::Ran(out);
        }
    }
}

/// How the runs of one kind ended: converged, ran to their end, and
/// converged under a seal [`EarlyExit::for_site`] armed.
struct Tally {
    converged: usize,
    ran: usize,
    sealed: usize,
}

/// Runs every gzip campaign site of `kind` in both modes through the
/// driver and through [`per_step`], and checks each sealed run's cycle.
fn check_kind(kind: FaultKind) -> Tally {
    let prog = build(Benchmark::Gzip, 1);
    let cfg = DetectionConfig { kind, ..DetectionConfig::default() };
    let mut tally = Tally { converged: 0, ran: 0, sealed: 0 };
    for mode in MODES {
        let core_cfg = cfg.core_config(mode);
        let plan = FaultPlan::new().record_usage(core_cfg.site_family_sizes());
        let reference = Core::new(core_cfg, &prog, plan);
        let (chain, done) = SnapshotChain::build_periodic(reference, 512, MAX_CYCLES, None);
        let usage = done.plan().site_usage().expect("reference pass records usage");
        let all = sites();
        for (&site, arm) in all.iter().zip(arming_schedule(done.cycle(), all.len())) {
            // Every site runs both ways. An M1-prunable one is sealed one
            // cycle past its last exercise, which lies at or before the
            // arm, so the driver seals it on the first cycle after the
            // fork.
            let last_use = usage.last_use(site);
            let sealed = EarlyExit::for_site(usage, site, arm, kind).ok();
            let early = sealed.unwrap_or(EarlyExit { quiesce: last_use.map(|l| l + 1) });
            let plan = || armed_plan_kind(site, arm, kind);
            let mut driven = chain.fork_catchup(arm, plan());
            let mut stepped = chain.fork_catchup(arm, plan());
            let got = early.run(&mut driven, MAX_CYCLES, &mut Metrics::Off);
            let want = per_step(&mut stepped, &early);
            let which = format!("{kind} {mode} {} armed at {arm}", site.label());
            assert_eq!(got, want, "{which}: outcome");
            assert_eq!(driven.cycle(), stepped.cycle(), "{which}: exit cycle");
            match got {
                Exit::Converged => tally.converged += 1,
                Exit::Ran(_) => tally.ran += 1,
            }
            if got == Exit::Converged && sealed.is_some() {
                let seal = match kind {
                    FaultKind::Transient => arm + 1,
                    _ => last_use.expect("a sealed site is exercised") + 1,
                };
                assert_eq!(driven.cycle(), seal, "{which}: seal cycle");
                tally.sealed += 1;
            }
        }
    }
    assert!(tally.ran > 0, "{kind}: no run reached its natural end in the sample");
    tally
}

#[test]
fn hard_exits_match_per_step_checks() {
    // The campaign's hard fault flips its bit on every pass, so an
    // exercised site activates and no seal from `for_site` fires; the
    // M1-prunable sites converge.
    let tally = check_kind(FaultKind::Hard);
    assert!(tally.converged > 0, "no convergence exit in the sample");
}

#[test]
fn transient_exits_match_per_step_checks_and_seal_after_the_upset() {
    // A transient mostly misses its site and so converges, on the cycle
    // after its upset.
    let tally = check_kind(FaultKind::Transient);
    assert!(tally.sealed > 0, "no transient was sealed after its upset");
}

#[test]
fn intermittent_exits_match_per_step_checks_and_seal_after_the_last_use() {
    // A 64:8 fault is present one cycle in eight, so some sites are
    // exercised only while it is dormant: those runs converge on the cycle
    // after the site's last exercise.
    let tally = check_kind(FaultKind::Intermittent { period: 64, on: 8 });
    assert!(tally.sealed > 0, "no intermittent fault was sealed after its site's last use");
}
