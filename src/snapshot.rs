//! # Fork-at-injection: sharing the fault-free prefix of injection runs
//!
//! Every injection run in a campaign sharing a (benchmark, config, mode)
//! triple is identical up to its fault's arming cycle — the hardware is
//! healthy until the wear-out defect develops. Replaying that common
//! prefix from cycle 0 for every fault site dominates campaign wall time.
//! This module simulates the prefix *once*: a fault-free core is driven
//! forward, pausing one cycle before each distinct arming point to take a
//! [`CoreSnapshot`], and each injection job is handed a cheap
//! [`SnapshotChain::fork`] instead of a cold `Core::new`.
//!
//! **Why the fork is exact.** Every fault hook in the core is inert
//! before the plan's arming cycle, so a faulted run's state at cycle
//! `arm - 1` equals the fault-free state at `arm - 1` — which is exactly
//! what the snapshot holds. `Core::run` compares against absolute cycle
//! numbers, so the continuation simulates the same cycles the cold run
//! would. The only difference is wall-clock telemetry
//! (`SimStats::wall_nanos`), which no report includes.
//!
//! The chain is *incremental*: snapshots are taken in ascending arm order
//! from one continuously advancing core, so building `k` snapshots costs
//! one fault-free prefix, not `k`.

//! Two chain-building strategies exist. [`SnapshotChain::build`] pauses
//! exactly one cycle before each known arming point (the *exact* chain:
//! forks resume with zero catch-up). [`SnapshotChain::build_periodic`]
//! snapshots every `interval` cycles in a single pass to completion
//! without knowing the arms in advance — the early-exit campaign path
//! uses it to make one instrumented reference run do triple duty (cycle
//! count, site-usage schedule, snapshots); forks then catch up at most
//! `interval - 1` fault-free cycles via [`SnapshotChain::fork_catchup`],
//! which is exact for the same reason the fork itself is.

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

/// Snapshots of one fault-free run, taken one cycle before each distinct
/// arming point, ready to mint per-site injection cores.
pub struct SnapshotChain {
    /// `(arm_cycle, snapshot at arm_cycle - 1)`, ascending by arm.
    /// Boxed: `Core` is ~3 KB inline, and the periodic builder's sliding
    /// retention compacts this vector every snapshot — through a `Box`
    /// that's a 16-byte move per element instead of a deep memmove.
    snaps: Vec<(u64, Box<CoreSnapshot>)>,
    stats: ChainStats,
}

/// Lifetime accounting of a [`SnapshotChain`]'s build. Always on — the
/// counters tick once per *snapshot*, not per cycle, so the cost is
/// unmeasurable — and read by the campaign metrics registry when
/// `BJ_METRICS` is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Snapshots taken from a fresh allocation.
    pub taken: u64,
    /// Snapshots taken by refilling a retired spare in place, reusing its
    /// machine buffers (the periodic builder's steady state).
    pub refilled: u64,
    /// Snapshots retired behind the sliding horizon (or thinned when the
    /// interval doubled).
    pub retired: u64,
    /// High-water mark of simultaneously retained snapshots.
    pub peak_retained: u64,
}

impl SnapshotChain {
    /// Builds the chain by driving `core` (which must be fault-free)
    /// forward once, pausing at `arm - 1` for every distinct cycle in
    /// `arms`. Duplicate and unsorted arms are fine — the chain stores
    /// each distinct arm once, in ascending order.
    ///
    /// An arm past the run's completion still gets a snapshot (of the
    /// completed state): forking it reproduces the cold run in which the
    /// fault never fires.
    pub fn build(mut core: Core, arms: &[u64]) -> SnapshotChain {
        let mut distinct: Vec<u64> = arms.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut snaps = Vec::with_capacity(distinct.len());
        for arm in distinct {
            // Incremental: continues from the previous pause, never from
            // cycle 0. `run` is a no-op once the core is done.
            core.run(arm.saturating_sub(1));
            snaps.push((arm, Box::new(core.snapshot())));
        }
        let stats = ChainStats { taken: snaps.len() as u64, peak_retained: snaps.len() as u64, ..ChainStats::default() };
        SnapshotChain { snaps, stats }
    }

    /// Builds a chain in one fault-free pass to *completion*, snapshotting
    /// every `interval` cycles, with no advance knowledge of the arming
    /// points — pair with [`SnapshotChain::fork_catchup`]. Returns the
    /// chain and the completed core (whose cycle count is the arming
    /// schedule's denominator, and whose plan — if the caller built it
    /// with `FaultPlan::record_usage` — holds the early-exit activation
    /// schedule).
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
        // Snapshots the sliding horizon retires go here and are refreshed
        // in place ([`CoreSnapshot::refill_from`]) for the next pause.
        // A refill goes through `Core::clone_from`, which refills only the
        // top-level vectors in place and clones every other field afresh,
        // so the uop slab (up to its last live slot), the active-list
        // windows and the plan's usage record are no larger than in a new
        // snapshot. Cache chunks, memory pages and the BTB table stay
        // shared with the advancing core until it accesses the chunk or
        // changes the page or table.
        let mut spare: Vec<Box<CoreSnapshot>> = Vec::new();
        let mut stats = ChainStats { taken: 1, peak_retained: 1, ..ChainStats::default() };
        let mut snaps: Vec<(u64, Box<CoreSnapshot>)> =
            vec![(core.cycle(), Box::new(core.snapshot()))];
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
            let snap = match spare.pop() {
                Some(mut s) => {
                    s.refill_from(&core);
                    stats.refilled += 1;
                    s
                }
                None => {
                    stats.taken += 1;
                    Box::new(core.snapshot())
                }
            };
            snaps.push((core.cycle(), snap));
            // The run so far is a lower bound on its final length N, and
            // arms are >= N/2, so anything behind cycle/2 - interval can
            // no longer be the nearest donor for any arm.
            let horizon = (core.cycle() / 2).saturating_sub(interval);
            let cut = snaps.partition_point(|&(c, _)| c < horizon);
            stats.retired += cut as u64;
            spare.extend(snaps.drain(..cut).map(|(_, s)| s));
            if snaps.len() > MAX_RETAINED {
                interval *= 2;
                let iv = interval;
                let kept = std::mem::take(&mut snaps);
                for (c, s) in kept {
                    if c % iv == 0 {
                        snaps.push((c, s));
                    } else {
                        stats.retired += 1;
                        spare.push(s);
                    }
                }
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

    /// A core continuing from the snapshot for `arm` under `plan` — the
    /// per-site injection fork. `plan` must be armed at `arm`.
    ///
    /// # Panics
    ///
    /// Panics if `arm` was not in the arms the chain was built with, or
    /// if `plan.arm_cycle() != arm`.
    pub fn fork(&self, arm: u64, plan: FaultPlan) -> Core {
        assert_eq!(plan.arm_cycle(), arm, "plan must be armed at the requested snapshot");
        let i = self
            .snaps
            .binary_search_by_key(&arm, |&(a, _)| a)
            .unwrap_or_else(|_| panic!("no snapshot for arming cycle {arm}"));
        self.snaps[i].1.fork(plan)
    }

    /// Like [`SnapshotChain::fork`], but tolerant of arms the chain never
    /// paused at: forks the nearest snapshot at or before `arm - 1` under
    /// `plan` and catches up the remaining cycles to `arm - 1`. Exact for
    /// the same reason the plain fork is — every caught-up cycle precedes
    /// the arming point, where the hooks are inert.
    ///
    /// # Panics
    ///
    /// Panics if `plan.arm_cycle() != arm` or no snapshot exists at or
    /// before `arm - 1` (retention only ever drops snapshots that no
    /// *scheduled* arm can need; an out-of-schedule arm can trip this).
    pub fn fork_catchup(&self, arm: u64, plan: FaultPlan) -> Core {
        assert_eq!(plan.arm_cycle(), arm, "plan must be armed at the requested fork point");
        let target = arm.saturating_sub(1);
        let i = self.snaps.partition_point(|(_, s)| s.cycle() <= target);
        assert!(i > 0, "no snapshot at or before cycle {target} for arming cycle {arm}");
        // The plan goes in before the catch-up: its hooks are inert until
        // `arm`, and the donor's plan (with an early-exit chain, the
        // reference pass's usage recorder) is gone before it costs a
        // cycle of recording.
        let mut core = self.snaps[i - 1].1.fork(plan);
        core.run(target);
        core
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
        let target = arm.saturating_sub(1);
        let i = self.snaps.partition_point(|(_, s)| s.cycle() <= target);
        assert!(i > 0, "no snapshot at or before cycle {target} for arming cycle {arm}");
        target - self.snaps[i - 1].1.cycle()
    }

    /// Number of distinct snapshots held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True if the chain holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// The distinct arming cycles, ascending.
    pub fn arms(&self) -> Vec<u64> {
        self.snaps.iter().map(|&(a, _)| a).collect()
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
    fn chain_dedups_and_forks_exactly() {
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);

        // Fault-free length for a meaningful schedule.
        let mut probe = Core::new(cfg.clone(), &prog, FaultPlan::new());
        assert!(probe.run(10_000_000).completed());
        let n = probe.cycle();

        let arms = vec![n / 2, n / 2, n * 3 / 4];
        let chain = SnapshotChain::build(Core::new(cfg.clone(), &prog, FaultPlan::new()), &arms);
        assert_eq!(chain.len(), 2, "duplicate arms collapse");
        assert_eq!(chain.arms(), vec![n / 2, n * 3 / 4]);

        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
        for &arm in &[n / 2, n * 3 / 4] {
            let plan = FaultPlan::single(fault).arm_at(arm);
            let mut forked = chain.fork(arm, plan.clone());
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
        for &c in &chain.arms() {
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
        assert_eq!(chain.arms(), plain.arms(), "hint must not change the finished chain");

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
    #[should_panic(expected = "expected instruction count must match")]
    fn wrong_instruction_hint_fails_loudly() {
        let prog = build(Benchmark::Gzip, 1);
        let core = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, FaultPlan::new());
        let _ = SnapshotChain::build_periodic(core, 1024, 10_000_000, Some(7));
    }

    #[test]
    fn catchup_fork_works_on_exact_chains_too() {
        // The exact chain stores (arm, snapshot at arm-1); fork_catchup
        // must find the donor by snapshot cycle and replay the one
        // missing cycle.
        let prog = build(Benchmark::Gzip, 1);
        let cfg = CoreConfig::with_mode(Mode::Srt);
        let mut probe = Core::new(cfg.clone(), &prog, FaultPlan::new());
        assert!(probe.run(10_000_000).completed());
        let n = probe.cycle();

        let chain = SnapshotChain::build(Core::new(cfg.clone(), &prog, FaultPlan::new()), &[n / 2]);
        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
        let plan = FaultPlan::single(fault).arm_at(n / 2);
        let mut a = chain.fork(n / 2, plan.clone());
        let mut b = chain.fork_catchup(n / 2, plan);
        assert_eq!(a.run(10_000_000), b.run(10_000_000));
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.mem().first_difference(b.mem()), None);
    }

    #[test]
    #[should_panic(expected = "no snapshot for arming cycle")]
    fn fork_of_unknown_arm_panics() {
        let prog = build(Benchmark::Gzip, 1);
        let chain = SnapshotChain::build(
            Core::new(CoreConfig::with_mode(Mode::Single), &prog, FaultPlan::new()),
            &[100],
        );
        let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
        chain.fork(200, FaultPlan::single(fault).arm_at(200));
    }
}
