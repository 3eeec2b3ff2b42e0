//! # Early exit: ending an injection run once its verdict is known
//!
//! Most injection runs have their verdict decided long before their
//! natural end. The campaign ends them early by two mechanisms
//! ([`EarlyExitKind`]), both decided here and neither inside the core,
//! and both forms of one lockstep invariant: while a fault has zero
//! activations its run is bit-identical to the fault-free run, so it
//! follows the fault-free run's exercise schedule (the reference pass's
//! [`SiteUsage`]).
//!
//! * **M1, activation pruning** ([`EarlyExit::for_site`]). If that
//!   schedule never touches the site at or after the arming cycle, the
//!   fault can never activate: the verdict is benign and nothing is
//!   simulated.
//! * **M2, convergence seal.** Past the site's last fault-free exercise
//!   with zero activations, the run has been bit-identical to the
//!   fault-free run so far, so its future is the fault-free future — in
//!   which the site is never exercised again. The benign verdict (clean
//!   completion, golden memory) is sealed.
//!
//! A run that wedges ends on the core's own no-commit watchdog, as it
//! does on the replay path, so every early exit is exact by proof alone.
//!
//! **Two calls, not per-cycle checks.** [`EarlyExit::run`] drives the
//! core with at most two `Core::run` calls. M2 can only fire at the
//! quiesce cycle, and only if the activation count is still zero —
//! counts only grow, so a nonzero count now means never. So `run` goes
//! to the quiesce cycle while the count is zero, seals the run there if
//! it still is, and otherwise runs on to the budget. A run ends on
//! exactly the cycle a check after every single step would end it.

use blackjack_faults::{FaultSite, SiteUsage};
use blackjack_sim::{Core, RunOutcome};

use crate::metrics::{Counter, Metrics};

/// Which early-exit mechanism decided a run before its natural end.
/// Campaigns keep it apart from the verdict tallies, which are identical
/// with early exit on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyExitKind {
    /// M1: the reference pass never exercises the site at or after the
    /// arming cycle, so the fault can never activate: benign with zero
    /// simulation (the run is never even forked).
    Activation,
    /// M2: the run reconverged — fault site quiescent, zero activations —
    /// and the benign verdict was sealed mid-run.
    Convergence,
}

/// How a run driven by [`EarlyExit::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The run reached its natural end, the cycle budget, or the core's
    /// built-in watchdog.
    Ran(RunOutcome),
    /// M2 sealed the run benign at the core's current cycle.
    Converged,
}

/// The early-exit mechanism armed for one run. The default arms none,
/// and [`EarlyExit::run`] is then a single `Core::run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyExit {
    /// M2: seal the run benign at this cycle if it still has zero
    /// activations. Sound only at or past the site's last exercise in the
    /// fault-free run.
    pub quiesce: Option<u64>,
}

impl EarlyExit {
    /// Arms M2 one cycle past the site's last fault-free exercise for a
    /// fault on `site` armed at `arm`, given the reference pass's `usage`.
    ///
    /// # Errors
    ///
    /// [`EarlyExitKind::Activation`] when M1 decides the run: the
    /// reference pass never exercises `site` at or after `arm`.
    pub fn for_site(
        usage: &SiteUsage,
        site: FaultSite,
        arm: u64,
    ) -> Result<EarlyExit, EarlyExitKind> {
        match usage.last_use(site) {
            Some(last) if last >= arm => Ok(EarlyExit { quiesce: Some(last + 1) }),
            _ => Err(EarlyExitKind::Activation),
        }
    }

    /// Drives `core` to the end of its run or cycle `max_cycles`,
    /// stopping early when M2 decides it, and counts the way it ended in
    /// `metrics` (the core's exit reason, or `exit_converged`).
    pub fn run(&self, core: &mut Core, max_cycles: u64, metrics: &mut Metrics) -> Exit {
        let exit = self.drive(core, max_cycles);
        match exit {
            Exit::Ran(_) => metrics.record_exit(core.stats().exit_reason),
            Exit::Converged => metrics.inc(Counter::ExitConverged),
        }
        exit
    }

    fn drive(&self, core: &mut Core, max_cycles: u64) -> Exit {
        if let Some(quiesce) = self.quiesce.filter(|_| core.plan().activations() == 0) {
            // The first cycle a check after a step could seal the run.
            let seal = quiesce.max(core.cycle() + 1);
            if seal <= max_cycles {
                let out = core.run(seal);
                // Completion, detection and the built-in watchdog take
                // precedence on the same cycle.
                if out != RunOutcome::CycleLimit || core.stats().deadlocked {
                    return Exit::Ran(out);
                }
                if core.plan().activations() == 0 {
                    return Exit::Converged;
                }
            }
        }
        Exit::Ran(core.run(max_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_faults::{FaultPlan, HardFault};
    use blackjack_sim::{CoreConfig, Mode, SimStats};
    use blackjack_workloads::{build, Benchmark};

    const MAX_CYCLES: u64 = 100_000_000;

    /// `SimStats` with the wall-clock telemetry zeroed.
    fn arch_stats(stats: &SimStats) -> String {
        let mut s = stats.clone();
        s.wall_nanos = 0;
        s.agg_wall_nanos = 0;
        format!("{s:?}")
    }

    #[test]
    fn activation_pruning_needs_an_exercise_at_or_after_the_arm() {
        let used = FaultSite::Backend { way: 1 };
        let sizes = CoreConfig::default().site_family_sizes();
        let mut reference = FaultPlan::new().record_usage(sizes);
        reference.observe_cycle(100);
        reference.apply(used, 0);
        let usage = reference.site_usage().expect("recording");

        let armed = EarlyExit::for_site(usage, used, 100);
        assert_eq!(armed, Ok(EarlyExit { quiesce: Some(101) }));
        assert_eq!(EarlyExit::for_site(usage, used, 101), Err(EarlyExitKind::Activation));
        let idle = FaultSite::Backend { way: 2 };
        assert_eq!(EarlyExit::for_site(usage, idle, 1), Err(EarlyExitKind::Activation));
    }

    #[test]
    fn early_exit_state_survives_snapshot_restore() {
        // The activation count early exit reads lives in the plan,
        // which is simulation state like any other: a run driven
        // with early exit and split across a snapshot/restore boundary
        // must end exactly like the uninterrupted run — same exit, same
        // cycle, same stats.
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);
        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 5);
        let plan = FaultPlan::single(fault).arm_at(6_000);
        let early = EarlyExit { quiesce: Some(1_000_000) };

        let mut straight = Core::new(cfg.clone(), &prog, plan.clone());
        let straight_out = early.run(&mut straight, MAX_CYCLES, &mut Metrics::Off);

        let mut first = Core::new(cfg, &prog, plan);
        first.run(10_000);
        let mut resumed = first.snapshot().restore();
        let resumed_out = early.run(&mut resumed, MAX_CYCLES, &mut Metrics::Off);

        assert_eq!(resumed_out, straight_out);
        assert_eq!(resumed.cycle(), straight.cycle());
        assert_eq!(arch_stats(resumed.stats()), arch_stats(straight.stats()));
    }

    #[test]
    fn the_driver_counts_its_own_exits() {
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);
        let mut metrics = Metrics::enabled();

        let mut plain = Core::new(cfg.clone(), &prog, FaultPlan::new());
        let out = EarlyExit::default().run(&mut plain, MAX_CYCLES, &mut metrics);
        assert_eq!(out, Exit::Ran(RunOutcome::Completed));

        let idle = HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 5);
        let mut sealed = Core::new(cfg, &prog, FaultPlan::single(idle).arm_at(1_000_000));
        let seal = EarlyExit { quiesce: Some(500) };
        let out = seal.run(&mut sealed, MAX_CYCLES, &mut metrics);
        assert_eq!(out, Exit::Converged);
        assert_eq!(sealed.cycle(), 500);

        let r = metrics.registry().expect("metrics on");
        assert_eq!(r.get(Counter::ExitCompleted), 1);
        assert_eq!(r.get(Counter::ExitConverged), 1);
        assert_eq!(r.get(Counter::ExitCycleLimit), 0, "a sealed run is not a cycle-limit exit");
    }
}
