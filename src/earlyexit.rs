//! # Early exit: ending an injection run once its verdict is known
//!
//! Most injection runs have their verdict decided long before their
//! natural end. The campaign ends them early by three mechanisms
//! ([`EarlyExitKind`]), all decided here and none inside the core:
//!
//! * **M1, activation pruning** ([`EarlyExit::for_site`]). While a fault
//!   has zero activations its run is bit-identical to the fault-free
//!   run, so it follows the fault-free run's exercise schedule (the
//!   reference pass's [`SiteUsage`]). If that schedule never touches the
//!   site at or after the arming cycle, the fault can never activate: the
//!   verdict is benign and nothing is simulated.
//! * **M2, convergence seal.** Past the site's last fault-free exercise
//!   with zero activations, the run has been bit-identical to the
//!   fault-free run so far, so its future is the fault-free future — in
//!   which the site is never exercised again. The benign verdict (clean
//!   completion, golden memory) is sealed.
//! * **M3, stall watchdog.** No commit and no activation for the stall
//!   window, counted from the arming cycle at the earliest: the run is
//!   declared stuck without burning the rest of its cycle budget. An
//!   activation counts as progress, so a periodically re-activating
//!   fault cannot trip it.
//!
//! **Checkpoints, not per-cycle checks.** [`EarlyExit::run`] drives the
//! core with `Core::run(target)` to the earliest cycle at which M2 or M3
//! could fire and decides there. M2 can only fire at the quiesce cycle,
//! and only if the activation count is still zero — counts only grow, so
//! a nonzero count now means never. M3 fires at the first cycle past
//! `base + window`, where `base = max(last commit, last activation,
//! arm)`; `base` only moves forward, so nothing fires before
//! `base + window + 1` as computed now, and if `base` has not moved by
//! then, that is the cycle. So a run ends on exactly the cycle a check
//! after every single step would end it — with a plain `Core::run` loop
//! in between.

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
    /// M3: no commit progress for the stall window: declared stuck
    /// without burning the remaining cycle budget.
    Watchdog,
}

/// How a run driven by [`EarlyExit::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The run reached its natural end, the cycle budget, or the core's
    /// built-in watchdog.
    Ran(RunOutcome),
    /// A mechanism sealed the verdict at the core's current cycle.
    Early(EarlyExitKind),
}

/// M3's no-progress window in cycles for campaign runs: generous
/// against the longest natural commit gaps in the campaign workloads
/// (hundreds of cycles) while still orders of magnitude below the
/// campaign cycle budget. It is a constant, not a knob: a window short
/// enough to cut a run that would still have finished changes its
/// verdict (at 200 or 300 cycles, gzip injection runs that end silent or
/// benign are declared stuck; DESIGN §2.12).
pub const STALL_WINDOW: u64 = 25_000;

/// The early-exit mechanisms armed for one run. The default arms none,
/// and [`EarlyExit::run`] is then a single `Core::run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyExit {
    /// M2: seal the run benign at this cycle if it still has zero
    /// activations. Sound only at or past the site's last exercise in the
    /// fault-free run.
    pub quiesce: Option<u64>,
    /// M3: declare the run stuck once this many cycles pass with no
    /// commit and no activation after the later of the two and the
    /// arming cycle.
    pub stall_window: Option<u64>,
}

impl EarlyExit {
    /// Arms M2 (one cycle past the site's last fault-free exercise) and
    /// M3 (over [`STALL_WINDOW`]) for a fault on `site` armed at `arm`,
    /// given the reference pass's `usage`.
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
            Some(last) if last >= arm => {
                Ok(EarlyExit { quiesce: Some(last + 1), stall_window: Some(STALL_WINDOW) })
            }
            _ => Err(EarlyExitKind::Activation),
        }
    }

    /// Drives `core` to the end of its run or cycle `max_cycles`,
    /// stopping early when M2 or M3 decides it, and counts the way it
    /// ended in `metrics` (the core's exit reason, or `exit_converged` /
    /// `exit_stalled`).
    pub fn run(&self, core: &mut Core, max_cycles: u64, metrics: &mut Metrics) -> Exit {
        let exit = self.drive(core, max_cycles);
        match exit {
            Exit::Ran(_) => metrics.record_exit(core.stats().exit_reason),
            Exit::Early(EarlyExitKind::Convergence) => metrics.inc(Counter::ExitConverged),
            Exit::Early(EarlyExitKind::Watchdog) => metrics.inc(Counter::ExitStalled),
            Exit::Early(EarlyExitKind::Activation) => unreachable!("M1 never simulates"),
        }
        exit
    }

    fn drive(&self, core: &mut Core, max_cycles: u64) -> Exit {
        loop {
            let from = core.cycle();
            let target = self.checkpoint(core).max(from + 1).min(max_cycles);
            let out = core.run(target);
            // Only a plain stop at a checkpoint the core actually stepped
            // to is ours to decide; completion, detection and the built-in
            // watchdog take precedence on the same cycle.
            if out != RunOutcome::CycleLimit || core.stats().deadlocked || target <= from {
                return Exit::Ran(out);
            }
            if let Some(kind) = self.decided(core) {
                return Exit::Early(kind);
            }
            if target == max_cycles {
                return Exit::Ran(out);
            }
        }
    }

    /// The earliest cycle at which M2 or M3 could fire, given the core's
    /// state now (see the module docs).
    fn checkpoint(&self, core: &Core) -> u64 {
        let seal = self.quiesce.filter(|_| core.plan().activations() == 0);
        let stall = self.stall_window.map(|w| stall_base(core).saturating_add(w).saturating_add(1));
        seal.unwrap_or(u64::MAX).min(stall.unwrap_or(u64::MAX))
    }

    /// The mechanism that decides the run at the core's current cycle,
    /// M2 before M3.
    fn decided(&self, core: &Core) -> Option<EarlyExitKind> {
        let cycle = core.cycle();
        if self.quiesce.is_some_and(|q| cycle >= q) && core.plan().activations() == 0 {
            return Some(EarlyExitKind::Convergence);
        }
        if self.stall_window.is_some_and(|w| cycle.saturating_sub(stall_base(core)) > w) {
            return Some(EarlyExitKind::Watchdog);
        }
        None
    }
}

/// The last sign of progress M3 measures its window from.
fn stall_base(core: &Core) -> u64 {
    let plan = core.plan();
    core.last_commit_cycle().max(plan.last_activation()).max(plan.arm_cycle())
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
        assert_eq!(armed, Ok(EarlyExit { quiesce: Some(101), stall_window: Some(STALL_WINDOW) }));
        assert_eq!(EarlyExit::for_site(usage, used, 101), Err(EarlyExitKind::Activation));
        let idle = FaultSite::Backend { way: 2 };
        assert_eq!(EarlyExit::for_site(usage, idle, 1), Err(EarlyExitKind::Activation));
    }

    #[test]
    fn early_exit_state_survives_snapshot_restore() {
        // The activation count and stamp the driver reads live in the
        // plan, which is simulation state like any other: a run driven
        // with early exit and split across a snapshot/restore boundary
        // must end exactly like the uninterrupted run — same exit, same
        // cycle, same stats.
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);
        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 5);
        let plan = FaultPlan::single(fault).arm_at(6_000);
        let early = EarlyExit { quiesce: Some(1_000_000), stall_window: Some(20_000) };

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
        let seal = EarlyExit { quiesce: Some(500), ..EarlyExit::default() };
        let out = seal.run(&mut sealed, MAX_CYCLES, &mut metrics);
        assert_eq!(out, Exit::Early(EarlyExitKind::Convergence));
        assert_eq!(sealed.cycle(), 500);

        let r = metrics.registry().expect("metrics on");
        assert_eq!(r.get(Counter::ExitCompleted), 1);
        assert_eq!(r.get(Counter::ExitConverged), 1);
        assert_eq!(r.get(Counter::ExitCycleLimit), 0, "a sealed run is not a cycle-limit exit");
    }
}
