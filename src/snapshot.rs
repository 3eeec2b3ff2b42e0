//! # Fork-at-injection: sharing the fault-free prefix of injection runs
//!
//! Every injection run in a campaign sharing a (benchmark, config, mode)
//! triple is identical up to its fault's arming cycle — the hardware is
//! healthy until the wear-out defect develops. Replaying that common
//! prefix from cycle 0 for every fault site dominates campaign wall time.
//! This module simulates the prefix *once*:
//! [`SnapshotChain::build_periodic`] drives a fault-free core to
//! completion, taking a [`CoreSnapshot`] every `interval` cycles, and each
//! injection job is handed a cheap [`SnapshotChain::fork_catchup`] instead
//! of a cold `Core::new` — a fork of the nearest snapshot at or before
//! `arm - 1`, caught up the few fault-free cycles in between.
//!
//! **Why the fork is exact.** Every fault hook in the core is inert
//! before the plan's arming cycle, so a faulted run's state at cycle
//! `arm - 1` equals the fault-free state at `arm - 1` — which is exactly
//! what the caught-up fork holds. `Core::run` compares against absolute
//! cycle numbers, so the continuation simulates the same cycles the cold
//! run would. The only difference is wall-clock telemetry
//! (`SimStats::wall_nanos`), which no report includes.
//!
//! The chain is *incremental*: snapshots are taken from one continuously
//! advancing core, so building `k` snapshots costs one fault-free run,
//! not `k`. It needs no advance knowledge of the arms, so the reference
//! pass that fixes the arming schedule builds it too.
//!
//! **What a chain holds.** Only what a fork reads. Each snapshot leaves
//! the reference pass's fault plan behind ([`Core::snapshot_without_plan`]),
//! since a fork installs its own plan, and once the schedule is known,
//! [`SnapshotChain::retain_donors`] drops every snapshot that is not the
//! nearest donor of an arm that will fork.

use blackjack_faults::FaultPlan;
use blackjack_sim::{Core, CoreSnapshot};

/// Arming cycles for `sites` injection runs over a workload whose
/// fault-free run lasts `fault_free_cycles` cycles: evenly spaced across
/// the *late half* of the run, `arm_i = N/2 + i·N/(2·sites)`.
///
/// The late-half bias models wear-out (a defect present from power-on is
/// what manufacturing test catches; the paper's target is faults that
/// develop in the field) and maximizes the shared prefix. Arms are
/// strictly within `[N/2, N)`, ascending, never 0 — site `i` keeps the
/// `i`-th slot, so a site list and its schedule index identically.
pub fn arming_schedule(fault_free_cycles: u64, sites: usize) -> Vec<u64> {
    let n = fault_free_cycles;
    (0..sites as u64).map(|i| (n / 2 + i * n / (2 * sites.max(1) as u64)).max(1)).collect()
}

/// Periodic snapshots of one fault-free run, ready to mint per-site
/// injection cores.
pub struct SnapshotChain {
    /// `(cycle, snapshot at cycle)`, ascending by cycle. Boxed: `Core` is
    /// 2,496 bytes inline, and the builder's sliding retention compacts
    /// this vector every snapshot — through a `Box` that's a 16-byte move
    /// per element instead of a deep memmove.
    snaps: Vec<(u64, Box<CoreSnapshot>)>,
    stats: ChainStats,
}

/// Lifetime accounting of a [`SnapshotChain`]'s build. Always on — the
/// counters tick once per *snapshot*, not per cycle, so the cost is
/// unmeasurable — and copied into the campaign's metrics registry when
/// the campaign is observed (`BJ_TRACE` set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Snapshots taken.
    pub taken: u64,
    /// Snapshots retired behind the sliding horizon, thinned when the
    /// interval doubled, or trimmed as no forking arm's donor
    /// ([`SnapshotChain::retain_donors`]).
    pub retired: u64,
    /// High-water mark of simultaneously retained snapshots.
    pub peak_retained: u64,
}

impl SnapshotChain {
    /// Builds a chain in one fault-free pass to *completion*, snapshotting
    /// every `interval` cycles, with no advance knowledge of the arming
    /// points — pair with [`SnapshotChain::fork_catchup`]. Returns the
    /// chain and the completed core (whose cycle count is the arming
    /// schedule's denominator, and whose plan — if the caller built it
    /// with `FaultPlan::record_usage` — holds the early-exit activation
    /// schedule). The snapshots hold no fault plan, so none copies the
    /// usage record.
    ///
    /// Because arms always land in the late half of the run
    /// ([`arming_schedule`]), snapshots that fall behind the advancing
    /// `cycle/2 - interval` horizon are dropped as the build progresses,
    /// and the interval doubles (thinning the chain) if the retained set
    /// grows past an internal bound — memory stays bounded for any run
    /// length while every possible arm keeps a donor snapshot at most
    /// `interval` cycles behind it.
    ///
    /// `expected_insts` — the run's final architectural instruction
    /// count, when the caller knows it (campaigns learn it from the
    /// golden functional run, whose `icount` is bit-equal to the lead
    /// thread's final commit count) — lets the builder skip pauses that
    /// provably cannot serve any arm. At most `width` instructions
    /// commit per cycle, so at every pause
    /// `N >= cycle + (expected_insts - committed) / width`; arms land in
    /// `[N/2, N)`, so a pause at cycle `c` with `c + interval < lb/2` is
    /// more than `interval` behind every possible arm and the *next*
    /// pause is still at or before `arm - 1`. Skipping it loses no
    /// donor — it only trims the dead early-run snapshots the sliding
    /// horizon would have retired anyway.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero, the core does not complete within
    /// `max_cycles` (reference passes must be fault-free and halting),
    /// or the completed pass commits a different instruction count than
    /// `expected_insts` claims (a wrong bound could have skipped a
    /// needed donor, so it fails loudly here instead).
    pub fn build_periodic(
        mut core: Core,
        interval: u64,
        max_cycles: u64,
        expected_insts: Option<u64>,
    ) -> (SnapshotChain, Core) {
        assert!(interval > 0, "snapshot interval must be positive");
        const MAX_RETAINED: usize = 96;
        let mut interval = interval;
        let mut stats = ChainStats { taken: 1, peak_retained: 1, ..ChainStats::default() };
        let mut snaps: Vec<(u64, Box<CoreSnapshot>)> =
            vec![(core.cycle(), Box::new(core.snapshot_without_plan()))];
        while !core.finished() {
            let target = core.cycle() + interval;
            assert!(
                core.run(target.min(max_cycles)).completed() || core.cycle() < max_cycles,
                "reference pass must complete within {max_cycles} cycles"
            );
            if let Some(insts) = expected_insts {
                let remaining = insts.saturating_sub(core.stats().committed[0]);
                let lower_bound = core.cycle() + remaining / core.config().width as u64;
                if core.cycle() + interval < lower_bound / 2 {
                    continue;
                }
            }
            stats.taken += 1;
            snaps.push((core.cycle(), Box::new(core.snapshot_without_plan())));
            // The run so far is a lower bound on its final length N, and
            // arms are >= N/2, so anything behind cycle/2 - interval can
            // no longer be the nearest donor for any arm.
            let horizon = (core.cycle() / 2).saturating_sub(interval);
            let cut = snaps.partition_point(|&(c, _)| c < horizon);
            stats.retired += cut as u64;
            snaps.drain(..cut);
            if snaps.len() > MAX_RETAINED {
                interval *= 2;
                let before = snaps.len();
                snaps.retain(|&(c, _)| c % interval == 0);
                stats.retired += (before - snaps.len()) as u64;
            }
            stats.peak_retained = stats.peak_retained.max(snaps.len() as u64);
        }
        if let Some(insts) = expected_insts {
            assert_eq!(
                core.stats().committed[0],
                insts,
                "expected instruction count must match the reference pass \
                 (a wrong bound could have skipped a needed donor snapshot)"
            );
        }
        (SnapshotChain { snaps, stats }, core)
    }

    /// A core at cycle `arm - 1` under `plan` — the per-site injection
    /// fork: forks the nearest snapshot at or before `arm - 1` under
    /// `plan` and catches up the remaining fault-free cycles. Exact
    /// because every caught-up cycle precedes the arming point, where the
    /// hooks are inert.
    ///
    /// # Panics
    ///
    /// Panics if `plan.arm_cycle() != arm` or no snapshot exists at or
    /// before `arm - 1` (the build only drops snapshots that no
    /// *scheduled* arm can need, and [`SnapshotChain::retain_donors`]
    /// those no listed arm needs; any other arm can trip this, or fork
    /// exactly from an earlier donor with a longer catch-up).
    pub fn fork_catchup(&self, arm: u64, plan: FaultPlan) -> Core {
        assert_eq!(plan.arm_cycle(), arm, "plan must be armed at the requested fork point");
        // The plan goes in before the catch-up: its hooks are inert until
        // `arm`.
        let mut core = self.snaps[self.donor(arm)].1.fork(plan);
        core.run(arm.saturating_sub(1));
        core
    }

    /// Keeps only the snapshots [`SnapshotChain::fork_catchup`] picks for
    /// `arms` — each arm's nearest snapshot at or before `arm - 1` — and
    /// counts the rest as retired. Every one of `arms` then forks from
    /// the same donor and catches up the same cycles as before; once a
    /// campaign knows which arms will fork, the rest of the chain is dead
    /// weight.
    ///
    /// # Panics
    ///
    /// Panics under the same condition as `fork_catchup`: an arm with no
    /// snapshot at or before `arm - 1`.
    pub fn retain_donors(&mut self, arms: impl IntoIterator<Item = u64>) {
        let mut keep = vec![false; self.snaps.len()];
        for arm in arms {
            keep[self.donor(arm)] = true;
        }
        let before = self.snaps.len();
        let mut keep = keep.into_iter();
        // `retain` visits every element once, in order.
        self.snaps.retain(|_| keep.next() == Some(true));
        self.stats.retired += (before - self.snaps.len()) as u64;
    }

    /// Index of `arm`'s donor: the nearest snapshot at or before
    /// `arm - 1`.
    fn donor(&self, arm: u64) -> usize {
        let target = arm.saturating_sub(1);
        let i = self.snaps.partition_point(|&(c, _)| c <= target);
        assert!(i > 0, "no snapshot at or before cycle {target} for arming cycle {arm}");
        i - 1
    }

    /// The chain's build-time accounting.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// Fault-free cycles a [`SnapshotChain::fork_catchup`] of `arm` will
    /// replay: the gap between `arm - 1` and its donor snapshot. Lets
    /// callers record catch-up cost without changing the fork signature.
    ///
    /// # Panics
    ///
    /// Panics under the same condition as `fork_catchup`: no snapshot at
    /// or before `arm - 1`.
    pub fn catchup_cycles(&self, arm: u64) -> u64 {
        arm.saturating_sub(1) - self.snaps[self.donor(arm)].0
    }

    /// Number of distinct snapshots held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True if the chain holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// The snapshot cycles, ascending.
    pub fn cycles(&self) -> Vec<u64> {
        self.snaps.iter().map(|&(c, _)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_faults::{FaultSite, HardFault};
    use blackjack_sim::{CoreConfig, Mode};
    use blackjack_workloads::{build, Benchmark};

    #[test]
    fn schedule_is_late_ascending_and_indexable() {
        let arms = arming_schedule(10_000, 8);
        assert_eq!(arms.len(), 8);
        assert_eq!(arms[0], 5_000);
        for w in arms.windows(2) {
            assert!(w[0] <= w[1], "schedule must ascend");
        }
        assert!(*arms.last().unwrap() < 10_000, "arms stay inside the run");
        // Degenerate inputs stay usable.
        assert_eq!(arming_schedule(10, 0), Vec::<u64>::new());
        assert!(arming_schedule(0, 3).iter().all(|&a| a == 1), "arms never hit cycle 0");
    }

    #[test]
    fn periodic_chain_forks_exactly_from_any_arm() {
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);

        let (chain, reference) = SnapshotChain::build_periodic(
            Core::new(cfg.clone(), &prog, FaultPlan::new()),
            1024,
            10_000_000,
            None,
        );
        assert!(reference.finished(), "reference pass runs to completion");
        let n = reference.cycle();
        assert!(!chain.is_empty());
        // Sliding retention: nothing older than the final horizon
        // survives, so memory does not scale with the full run length.
        for &c in &chain.cycles() {
            assert!(c + 1024 >= n / 2 || c + 2048 >= n / 2, "snapshot at {c} is behind the horizon");
        }

        // Arms the schedule would actually produce — including ones no
        // chain pause landed on — fork exactly.
        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
        for &arm in &[n / 2, n / 2 + 777, n * 3 / 4 + 1, n - 1] {
            let plan = FaultPlan::single(fault).arm_at(arm);
            let mut forked = chain.fork_catchup(arm, plan.clone());
            let forked_out = forked.run(10_000_000);
            let mut cold = Core::new(cfg.clone(), &prog, plan);
            let cold_out = cold.run(10_000_000);
            assert_eq!(forked_out, cold_out, "arm {arm}: outcome must match cold run");
            assert_eq!(forked.cycle(), cold.cycle(), "arm {arm}: cycle count must match");
            assert_eq!(
                forked.mem().first_difference(cold.mem()),
                None,
                "arm {arm}: memory must match"
            );
        }
    }

    #[test]
    fn hinted_periodic_chain_skips_dead_prefix_and_forks_exactly() {
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);
        let mut golden = blackjack_isa::Interp::new(&prog);
        golden.run(50_000_000).expect("golden run completes");

        let (chain, reference) = SnapshotChain::build_periodic(
            Core::new(cfg.clone(), &prog, FaultPlan::new()),
            1024,
            10_000_000,
            Some(golden.icount()),
        );
        let n = reference.cycle();
        // Every take the bound skips is one the sliding horizon would
        // have retired anyway (skipped means c < lb/2 - interval <=
        // N/2 - interval, which is behind the final horizon), so the
        // finished chain is identical to the unhinted build's.
        let (plain, _) = SnapshotChain::build_periodic(
            Core::new(cfg.clone(), &prog, FaultPlan::new()),
            1024,
            10_000_000,
            None,
        );
        assert_eq!(chain.cycles(), plain.cycles(), "hint must not change the finished chain");

        // Every schedulable arm still forks exactly.
        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
        for &arm in &[n / 2, n / 2 + 777, n * 3 / 4 + 1, n - 1] {
            let plan = FaultPlan::single(fault).arm_at(arm);
            let mut forked = chain.fork_catchup(arm, plan.clone());
            let forked_out = forked.run(10_000_000);
            let mut cold = Core::new(cfg.clone(), &prog, plan);
            let cold_out = cold.run(10_000_000);
            assert_eq!(forked_out, cold_out, "arm {arm}: outcome must match cold run");
            assert_eq!(forked.cycle(), cold.cycle(), "arm {arm}: cycle count must match");
        }
    }

    #[test]
    fn a_campaign_chain_trimmed_to_forking_arms_keeps_one_plan_free_donor_each() {
        // Built the campaign's way: the reference pass records site
        // usage, and the chain is trimmed to the arms that will fork.
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::BlackJack);
        let plan = FaultPlan::new().record_usage(cfg.site_family_sizes());
        let (mut chain, reference) = SnapshotChain::build_periodic(
            Core::new(cfg.clone(), &prog, plan),
            512,
            10_000_000,
            None,
        );
        assert!(reference.plan().site_usage().is_some(), "the reference pass keeps its record");
        let arms = arming_schedule(reference.cycle(), 25);
        // A subset of the schedule forks; the rest stand for pruned sites.
        let forking: Vec<u64> = arms.iter().copied().step_by(4).collect();
        let catchup: Vec<u64> = forking.iter().map(|&a| chain.catchup_cycles(a)).collect();
        let donors: std::collections::BTreeSet<u64> =
            forking.iter().map(|&a| chain.snaps[chain.donor(a)].0).collect();
        let (before, retired) = (chain.len(), chain.stats().retired);

        chain.retain_donors(forking.iter().copied());
        assert_eq!(chain.cycles(), donors.into_iter().collect::<Vec<_>>(), "one snapshot per donor");
        assert!(chain.len() < before, "trimming dropped nothing");
        assert_eq!(chain.stats().retired, retired + (before - chain.len()) as u64);
        for (&arm, &c) in forking.iter().zip(&catchup) {
            assert_eq!(chain.catchup_cycles(arm), c, "arm {arm}: catch-up changed");
        }
        for (c, snap) in &chain.snaps {
            assert!(snap.restore().plan().site_usage().is_none(), "donor at {c} holds a usage record");
        }

        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
        for &arm in &forking {
            let plan = FaultPlan::single(fault).arm_at(arm);
            let mut forked = chain.fork_catchup(arm, plan.clone());
            let forked_out = forked.run(10_000_000);
            let mut cold = Core::new(cfg.clone(), &prog, plan);
            let cold_out = cold.run(10_000_000);
            assert_eq!(forked_out, cold_out, "arm {arm}: outcome must match cold run");
            assert_eq!(forked.cycle(), cold.cycle(), "arm {arm}: cycle count must match");
            assert_eq!(forked.stats().committed, cold.stats().committed, "arm {arm}: commits");
            assert_eq!(forked.mem().first_difference(cold.mem()), None, "arm {arm}: memory");
        }
    }

    #[test]
    #[should_panic(expected = "expected instruction count must match")]
    fn wrong_instruction_hint_fails_loudly() {
        let prog = build(Benchmark::Gzip, 1);
        let core = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, FaultPlan::new());
        let _ = SnapshotChain::build_periodic(core, 1024, 10_000_000, Some(7));
    }
}
