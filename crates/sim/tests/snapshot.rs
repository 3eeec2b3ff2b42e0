//! Snapshot fidelity: a run split across a snapshot/restore boundary must
//! be byte-identical to an uninterrupted run — statistics, detection
//! outcome, commit log, and architectural state — in every mode, for
//! fault-free and faulted plans alike. This is the restore-exactness
//! contract the fork-at-injection campaign path is built on.

use blackjack_faults::{FaultPlan, FaultSite, HardFault};
use blackjack_isa::{asm::assemble, FuType};
use blackjack_sim::{Core, CoreConfig, Mode, RunOutcome, SimStats};
use blackjack_workloads::{build, Benchmark};

const MAX_CYCLES: u64 = 100_000_000;

/// `SimStats` as a comparable string with the wall-clock telemetry
/// zeroed: `wall_nanos`/`agg_wall_nanos` measure host time, not simulated
/// state, and legitimately differ between two identical simulations.
fn arch_stats(stats: &SimStats) -> String {
    let mut s = stats.clone();
    s.wall_nanos = 0;
    s.agg_wall_nanos = 0;
    format!("{s:?}")
}

/// The memory hierarchy's counters as a comparable string. `SimStats`
/// carries no cache counters, so cache state after a restore or fork is
/// compared through these.
fn cache_stats(core: &Core) -> String {
    let m = core.mem_sys();
    format!("{:?} {:?} {:?} {}", m.l1i_stats(), m.l1d_stats(), m.l2_stats(), m.mem_accesses())
}

/// Runs `bench` in `mode` under `plan` uninterrupted, and again split at
/// `pause` cycles via snapshot/restore; asserts both end states match
/// byte for byte.
fn assert_split_run_identical(bench: Benchmark, mode: Mode, plan: FaultPlan, pause: u64) {
    let prog = build(bench, 1);
    let cfg = CoreConfig::with_mode(mode);

    let mut straight = Core::new(cfg.clone(), &prog, plan.clone());
    straight.enable_commit_log();
    let straight_out = straight.run(MAX_CYCLES);

    let mut prefix = Core::new(cfg, &prog, plan);
    prefix.enable_commit_log();
    prefix.run(pause);
    assert_eq!(prefix.cycle(), pause, "fault-free prefix must reach the pause cycle");
    let snap = prefix.snapshot();
    assert_eq!(snap.cycle(), pause);
    let mut resumed = snap.restore();
    let resumed_out = resumed.run(MAX_CYCLES);

    assert_eq!(resumed_out, straight_out, "{bench}/{mode}: outcome");
    assert_eq!(resumed.cycle(), straight.cycle(), "{bench}/{mode}: cycle count");
    assert_eq!(
        arch_stats(resumed.stats()),
        arch_stats(straight.stats()),
        "{bench}/{mode}: statistics"
    );
    assert_eq!(
        resumed.commit_log(),
        straight.commit_log(),
        "{bench}/{mode}: commit log"
    );
    for r in 0..32 {
        assert_eq!(resumed.arch_reg(r), straight.arch_reg(r), "{bench}/{mode}: x{r}");
    }
    assert_eq!(
        resumed.mem().first_difference(straight.mem()),
        None,
        "{bench}/{mode}: memory"
    );
    assert_eq!(cache_stats(&resumed), cache_stats(&straight), "{bench}/{mode}: caches");

    // The donor core is untouched by the snapshot: finishing it from the
    // pause point reproduces the same run a third time, though it and the
    // restored core started from the same shared cache chunks.
    let donor_out = prefix.run(MAX_CYCLES);
    assert_eq!(donor_out, straight_out, "{bench}/{mode}: donor outcome");
    assert_eq!(arch_stats(prefix.stats()), arch_stats(straight.stats()), "{bench}/{mode}: donor");
    assert_eq!(cache_stats(&prefix), cache_stats(&straight), "{bench}/{mode}: donor caches");
}

#[test]
fn fault_free_split_is_exact_in_all_modes() {
    for mode in [Mode::Single, Mode::Srt, Mode::BlackJackNoShuffle, Mode::BlackJack] {
        // Pause mid-run: gzip at scale 1 runs tens of thousands of cycles.
        assert_split_run_identical(Benchmark::Gzip, mode, FaultPlan::new(), 5_000);
    }
}

#[test]
fn faulted_split_is_exact() {
    // A wear-out fault arming after the pause point: the snapshot is
    // taken while the hardware is still healthy, exactly the fork-at-
    // injection shape. The run must end in the same detection either way.
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    for mode in [Mode::Srt, Mode::BlackJack] {
        let plan = FaultPlan::single(fault).arm_at(6_000);
        assert_split_run_identical(Benchmark::Gzip, mode, plan, 5_000);
    }
}

#[test]
fn fork_substitutes_the_plan_exactly() {
    // Fork at cycle C with a plan armed at C+1 == cold run with the same
    // armed plan: the fidelity claim the campaign path relies on.
    let prog = build(Benchmark::Vortex, 1);
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let fault = HardFault::stuck_bit(FaultSite::Frontend { way: 1 }, 1);
    let arm = 4_000;

    let mut prefix = Core::new(cfg.clone(), &prog, FaultPlan::new());
    prefix.run(arm - 1);
    let mut forked = prefix.snapshot().fork(FaultPlan::single(fault).arm_at(arm));
    let forked_out = forked.run(MAX_CYCLES);

    let mut cold = Core::new(cfg, &prog, FaultPlan::single(fault).arm_at(arm));
    let cold_out = cold.run(MAX_CYCLES);

    assert_eq!(forked_out, cold_out);
    assert_eq!(forked.cycle(), cold.cycle());
    assert_eq!(arch_stats(forked.stats()), arch_stats(cold.stats()));
}

#[test]
fn pre_arm_cycles_are_fault_free() {
    // Before the arming cycle the faulty hardware is healthy: a plan
    // armed beyond the run's completion is architecturally invisible.
    let prog = build(Benchmark::Gzip, 1);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);

    let mut clean = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, FaultPlan::new());
    let clean_out = clean.run(MAX_CYCLES);
    assert!(clean_out.completed());

    let plan = FaultPlan::single(fault).arm_at(clean.cycle() + 1);
    let mut dormant = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, plan);
    let dormant_out = dormant.run(MAX_CYCLES);
    assert_eq!(dormant_out, clean_out);
    assert_eq!(dormant.cycle(), clean.cycle());
    assert_eq!(dormant.mem().first_difference(clean.mem()), None);

    // Armed at 0 (the default), the same fault is live from power-on and
    // must be caught.
    let mut live =
        Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, FaultPlan::single(fault));
    assert!(live.run(MAX_CYCLES).detection().is_some(), "power-on fault must be detected");
}

#[test]
#[should_panic(expected = "fault-free cycles")]
fn fork_rejects_plans_armed_inside_the_prefix() {
    let prog = build(Benchmark::Gzip, 1);
    let mut core = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, FaultPlan::new());
    core.run(1_000);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    // Armed at cycle 500 but the snapshot already simulated 1000 cycles
    // fault-free — the fork can't be equivalent to any cold run.
    core.snapshot().fork(FaultPlan::single(fault).arm_at(500));
}

#[test]
fn site_usage_tracker_survives_snapshot_restore() {
    // The reference pass's per-site last-exercise schedule must come
    // through a snapshot/restore split unchanged — it is what the
    // activation early-exit mechanism proves runs benign with.
    let prog = build(Benchmark::Gzip, 1);
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let sizes = cfg.site_family_sizes();

    let mut straight = Core::new(cfg.clone(), &prog, FaultPlan::new().record_usage(sizes));
    assert!(straight.run(MAX_CYCLES).completed());

    let mut first = Core::new(cfg, &prog, FaultPlan::new().record_usage(sizes));
    first.run(10_000);
    let mut resumed = first.snapshot().restore();
    assert!(resumed.run(MAX_CYCLES).completed());

    let a = straight.plan().site_usage().expect("tracking stays enabled");
    let b = resumed.plan().site_usage().expect("tracking survives the split");
    for way in 0..8 {
        assert_eq!(
            a.last_use(FaultSite::Frontend { way }),
            b.last_use(FaultSite::Frontend { way }),
            "frontend way {way}"
        );
        assert_eq!(
            a.last_use(FaultSite::Backend { way }),
            b.last_use(FaultSite::Backend { way }),
            "backend way {way}"
        );
    }
    for entry in 0..32 {
        assert_eq!(
            a.last_use(FaultSite::PayloadRam { entry }),
            b.last_use(FaultSite::PayloadRam { entry }),
            "payload entry {entry}"
        );
    }
}

#[test]
fn usage_record_covers_every_site_in_every_mode() {
    // A hook consulting a site past the record's sizes panics, so a
    // completed reference pass shows the configuration's sizes cover
    // every site the machine consults.
    let prog = build(Benchmark::Gzip, 1);
    for mode in Mode::ALL {
        let cfg = CoreConfig::with_mode(mode);
        let plan = FaultPlan::new().record_usage(cfg.site_family_sizes());
        assert!(Core::new(cfg, &prog, plan).run(MAX_CYCLES).completed(), "{mode}");
    }
}

#[test]
fn fork_replaces_the_donor_plan() {
    // A fork installs a fresh plan, and with it fresh activation counts:
    // the donor's plan — here a reference pass recording site usage —
    // must not leak into the fork, or a forked run could differ from the
    // equivalent cold run.
    let prog = build(Benchmark::Gzip, 1);
    let cfg = CoreConfig::with_mode(Mode::Srt);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    let arm = 8_000;

    let plan = FaultPlan::new().record_usage(cfg.site_family_sizes());
    let mut donor = Core::new(cfg.clone(), &prog, plan);
    assert_eq!(donor.run(arm - 1), RunOutcome::CycleLimit, "donor pauses before the arm");

    let mut forked = donor.snapshot().fork(FaultPlan::single(fault).arm_at(arm));
    assert!(forked.plan().site_usage().is_none(), "fork must drop the usage recorder");
    let forked_out = forked.run(MAX_CYCLES);

    let mut cold = Core::new(cfg, &prog, FaultPlan::single(fault).arm_at(arm));
    let cold_out = cold.run(MAX_CYCLES);
    assert_eq!(forked_out, cold_out, "the donor plan must not leak into the fork");
    assert_eq!(forked.cycle(), cold.cycle());
    assert_eq!(arch_stats(forked.stats()), arch_stats(cold.stats()));
}

#[test]
fn forks_of_a_many_page_image_stay_isolated() {
    // Forks share the snapshot's memory pages until they write them, and
    // its cache chunks until they access them. A program that rewrites 96
    // pages on every pass makes each fork write through pages and L2
    // chunks the snapshot still holds; one fork's corrupted stores and
    // addresses must not reach the snapshot or a later fork of it.
    const PAGES: u64 = 96;
    const BASE: u64 = 0x40_0000;
    let prog = assemble(&format!(
        r#"
        .text
            li  x20, {BASE}
            li  x24, 4096
            li  x22, 4
        pass:
            li  x21, {PAGES}
            mv  x23, x20
        page:
            sd  x21, 0(x23)
            sd  x22, 2048(x23)
            add x23, x23, x24
            addi x21, x21, -1
            bnez x21, page
            addi x22, x22, -1
            bnez x22, pass
            halt
        "#
    ))
    .unwrap();
    let pass_stamp = |core: &Core, p: u64| core.mem().read_u64(BASE + p * 4096 + 2048);

    for mode in [Mode::Single, Mode::BlackJack] {
        let cfg = CoreConfig::with_mode(mode);
        let mut cold = Core::new(cfg.clone(), &prog, FaultPlan::new());
        assert!(cold.run(MAX_CYCLES).completed(), "{mode}: cold run");

        let mut prefix = Core::new(cfg.clone(), &prog, FaultPlan::new());
        prefix.run(cold.cycle() / 2);
        let snap = prefix.snapshot();
        assert!(prefix.mem().page_count() as u64 >= PAGES, "{mode}: image at the snapshot");
        let rewritten =
            (0..PAGES).filter(|&p| pass_stamp(&prefix, p) != pass_stamp(&cold, p)).count();
        assert!(rewritten >= 64, "{mode}: only {rewritten} pages written after the snapshot");

        // A stuck bit on every cache port corrupts store data (and
        // addresses) on their way to memory.
        let arm = snap.cycle() + 1;
        let mut faulty = FaultPlan::new();
        for i in 0..cfg.fu_counts.of(FuType::MemPort) {
            let way = cfg.fu_counts.global_way(FuType::MemPort, i);
            faulty.add(HardFault::stuck_bit(FaultSite::Backend { way }, 3));
        }
        let mut clean = snap.fork(FaultPlan::new().arm_at(arm));
        let mut corrupt = snap.fork(faulty.arm_at(arm));
        clean.run(MAX_CYCLES);
        corrupt.run(MAX_CYCLES);
        assert_eq!(clean.mem().first_difference(cold.mem()), None, "{mode}: first clean fork");
        assert!(corrupt.mem().first_difference(cold.mem()).is_some(), "{mode}: faulted fork");

        let mut third = snap.fork(FaultPlan::new().arm_at(arm));
        assert!(third.run(MAX_CYCLES).completed(), "{mode}: third fork");
        assert_eq!(third.mem().first_difference(cold.mem()), None, "{mode}: memory");
        assert_eq!(third.cycle(), cold.cycle(), "{mode}: cycles");
        assert_eq!(third.stats().committed, cold.stats().committed, "{mode}: commits");
        assert_eq!(cache_stats(&third), cache_stats(&cold), "{mode}: caches");
    }
}

#[test]
fn a_snapshot_copies_only_the_live_slab_prefix() {
    // gcc in BlackJack mode fills its uop slab to ~960 slots early and
    // then runs with a few dozen uops in flight. A mid-run snapshot must
    // copy the slab only up to its last live slot, keep every slot's
    // generation, and still restore and fork exactly.
    const PAUSE: u64 = 20_000;
    assert_split_run_identical(Benchmark::Gcc, Mode::BlackJack, FaultPlan::new(), PAUSE);

    let prog = build(Benchmark::Gcc, 1);
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let mut donor = Core::new(cfg.clone(), &prog, FaultPlan::new());
    assert_eq!(donor.run(PAUSE), RunOutcome::CycleLimit);
    let slab = donor.uop_slab();
    assert!(
        slab.high_water() >= 10 * slab.slot_count(),
        "{} live uops in {} slots, high water {}",
        slab.len(),
        slab.slot_count(),
        slab.high_water()
    );
    let snap = donor.snapshot();
    let restored = snap.restore();
    let copy = restored.uop_slab();
    assert_eq!(copy.len(), slab.len());
    assert_eq!(copy.slot_count(), slab.slot_count(), "a clone copies the live prefix");
    assert_eq!(copy.high_water(), slab.high_water(), "generations stay whole");

    // Forks of the small snapshot run exactly like the cold run with the
    // same armed plan, clean and faulted.
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    for plan in [FaultPlan::new(), FaultPlan::single(fault)] {
        let plan = plan.arm_at(PAUSE + 1);
        let mut forked = snap.fork(plan.clone());
        let mut cold = Core::new(cfg.clone(), &prog, plan);
        assert_eq!(forked.run(MAX_CYCLES), cold.run(MAX_CYCLES));
        assert_eq!(forked.cycle(), cold.cycle());
        assert_eq!(arch_stats(forked.stats()), arch_stats(cold.stats()));
        assert_eq!(cache_stats(&forked), cache_stats(&cold));
        assert_eq!(forked.mem().first_difference(cold.mem()), None);
    }
}
