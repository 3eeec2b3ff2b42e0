//! Exit-cycle exactness of the early-exit driver: driving a run to
//! checkpoints with `Core::run(target)` must end it with the same outcome
//! on the same cycle as checking the convergence seal (M2) and the stall
//! watchdog (M3) after every single step.
//!
//! Every injection of one kernel's campaign sites, in both campaign modes,
//! runs both ways. The per-step reference below is written out here on
//! purpose, from the core's public counters only: it tracks the last
//! activation by watching the activation count change, instead of
//! trusting the plan's stamp the driver reads. Transient faults mostly
//! miss their site and so converge; a stall window shorter than a
//! main-memory access (350 cycles) makes the watchdog fire whenever a run
//! waits out a miss with nothing to commit.

use blackjack::faults::{FaultKind, FaultPlan};
use blackjack::sim::{Core, RunOutcome};
use blackjack::workloads::{build, Benchmark};
use blackjack::{arming_schedule, EarlyExit, EarlyExitKind, Exit, Metrics, SnapshotChain};
use blackjack_bench::detection::{armed_plan_kind, sites, DetectionConfig, MAX_CYCLES, MODES};

/// Small enough that a run waiting out a main-memory access trips M3.
const STALL_WINDOW: u64 = 200;

/// M2 and M3 checked after every step, with the built-in watchdog and the
/// natural end taking precedence on the same cycle.
fn per_step(core: &mut Core, early: &EarlyExit) -> Exit {
    let mut seen = core.plan().activations();
    let mut last_activity = core.cycle();
    loop {
        let out = core.run(core.cycle() + 1);
        if out != RunOutcome::CycleLimit || core.stats().deadlocked {
            return Exit::Ran(out);
        }
        let cycle = core.cycle();
        let plan = core.plan();
        if plan.activations() != seen {
            seen = plan.activations();
            last_activity = cycle;
        }
        if early.quiesce.is_some_and(|q| cycle >= q) && seen == 0 {
            return Exit::Early(EarlyExitKind::Convergence);
        }
        if let Some(w) = early.stall_window {
            let base = core.last_commit_cycle().max(last_activity).max(plan.arm_cycle());
            if cycle.saturating_sub(base) > w {
                return Exit::Early(EarlyExitKind::Watchdog);
            }
        }
        if cycle >= MAX_CYCLES {
            return Exit::Ran(out);
        }
    }
}

#[test]
fn checkpointed_exits_match_per_step_checks() {
    let prog = build(Benchmark::Gzip, 1);
    let mut tally = [0usize; 3];
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
                let early = EarlyExit {
                    quiesce: usage.last_use(site).map(|l| l + 1),
                    stall_window: Some(STALL_WINDOW),
                };
                let plan = || armed_plan_kind(site, arm, kind);
                let mut driven = chain.fork_catchup(arm, plan());
                let mut stepped = chain.fork_catchup(arm, plan());
                let got = early.run(&mut driven, MAX_CYCLES, &mut Metrics::Off);
                let want = per_step(&mut stepped, &early);
                let which = format!("{kind} {mode} {} armed at {arm}", site.label());
                assert_eq!(got, want, "{which}: outcome");
                assert_eq!(driven.cycle(), stepped.cycle(), "{which}: exit cycle");
                match got {
                    Exit::Early(EarlyExitKind::Convergence) => tally[0] += 1,
                    Exit::Early(EarlyExitKind::Watchdog) => tally[1] += 1,
                    _ => tally[2] += 1,
                }
            }
        }
    }
    let [converged, stalled, ran] = tally;
    assert!(converged > 0, "no convergence exit in the sample: {tally:?}");
    assert!(stalled > 0, "no watchdog exit in the sample: {tally:?}");
    assert!(ran > 0, "no run reached its natural end in the sample: {tally:?}");
}
