//! Exit-cycle exactness of `EarlyExit::run`: driving a run with at most
//! two `Core::run` calls — to the quiesce cycle, then on to the budget —
//! must end it with the same outcome on the same cycle as checking the
//! convergence seal (M2) after every single step.
//!
//! Every injection of one kernel's campaign sites, in both campaign modes,
//! runs both ways. The per-step reference below is written out here on
//! purpose, from the core's public counters only. Transient faults mostly
//! miss their site and so converge.

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

#[test]
fn checkpointed_exits_match_per_step_checks() {
    let prog = build(Benchmark::Gzip, 1);
    let mut tally = [0usize; 2];
    for kind in [FaultKind::Hard, FaultKind::Transient] {
        let cfg = DetectionConfig { kind, ..DetectionConfig::default() };
        for mode in MODES {
            let core_cfg = cfg.core_config(mode);
            let plan = FaultPlan::new().record_usage(core_cfg.site_family_sizes());
            let reference = Core::new(core_cfg, &prog, plan);
            let (chain, done) = SnapshotChain::build_periodic(reference, 512, MAX_CYCLES, None);
            let usage = done.plan().site_usage().expect("reference pass records usage");
            let all = sites();
            for (&site, arm) in all.iter().zip(arming_schedule(done.cycle(), all.len())) {
                // Every site runs both ways, M1-prunable ones included:
                // their seal point lies at or before the arm.
                let early = EarlyExit { quiesce: usage.last_use(site).map(|l| l + 1) };
                let plan = || armed_plan_kind(site, arm, kind);
                let mut driven = chain.fork_catchup(arm, plan());
                let mut stepped = chain.fork_catchup(arm, plan());
                let got = early.run(&mut driven, MAX_CYCLES, &mut Metrics::Off);
                let want = per_step(&mut stepped, &early);
                let which = format!("{kind} {mode} {} armed at {arm}", site.label());
                assert_eq!(got, want, "{which}: outcome");
                assert_eq!(driven.cycle(), stepped.cycle(), "{which}: exit cycle");
                match got {
                    Exit::Converged => tally[0] += 1,
                    Exit::Ran(_) => tally[1] += 1,
                }
            }
        }
    }
    let [converged, ran] = tally;
    assert!(converged > 0, "no convergence exit in the sample: {tally:?}");
    assert!(ran > 0, "no run reached its natural end in the sample: {tally:?}");
}
