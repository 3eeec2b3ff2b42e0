//! `Core::run`'s quiet stretches against `Core::step`, the one-cycle
//! full-pipeline reference.
//!
//! After a cycle that changed nothing outside fetch, `run` simulates the
//! following cycles with the shared prologue and fetch alone until a
//! timer fires. Each case drives one core with `run` and a twin with one
//! `step` per cycle through the same checkpoints, and requires the two to
//! agree on everything observable at each: statistics, cache statistics,
//! memory, the fault plan's counters and usage record, and the
//! stuck-state dump. Each case also requires the quiet path to have
//! engaged.

use blackjack::faults::{Corruption, FaultKind, FaultPlan, FaultSite, HardFault, Trigger};
use blackjack::sim::{Core, CoreConfig, Mode, RunOutcome};
use blackjack::workloads::{build, Benchmark};
use blackjack::{Counter, EarlyExit, Exit, Metrics};
use blackjack_fuzz::diff::MAX_CYCLES;
use blackjack_fuzz::gen::{generate, GenConfig};
use blackjack_isa::Program;
use blackjack_rng::Rng;

/// `Core::run`'s no-commit watchdog.
const WATCHDOG_CYCLES: u64 = 200_000;

/// Everything observable about a core but wall-clock time and how `run`
/// last stopped (the stepped twin is never run).
fn state(core: &Core) -> String {
    let mut stats = core.stats().clone();
    stats.wall_nanos = 0;
    stats.agg_wall_nanos = 0;
    stats.exit_reason = None;
    stats.deadlocked = false;
    let m = core.mem_sys();
    format!(
        "{stats:?}\n{:?}\n{:?}\n{:?}\n{}\n{:?}\n{}",
        m.l1i_stats(),
        m.l1d_stats(),
        m.l2_stats(),
        m.mem_accesses(),
        core.plan(),
        core.debug_state()
    )
}

/// Steps `core` to cycle `target` one full cycle at a time, stopping
/// where `Core::run(target)` would: at completion, detection, or the
/// watchdog.
fn step_to(core: &mut Core, target: u64) {
    while core.cycle() < target {
        let before = core.cycle();
        core.step();
        if core.cycle() == before || core.cycle() - core.last_commit_cycle() > WATCHDOG_CYCLES {
            break;
        }
    }
}

/// Drives `plan` on `prog` through `checkpoints` with `run` and with
/// `step`, asserting the two agree at each; returns the run core.
fn assert_matches_step(name: &str, cfg: CoreConfig, prog: &Program, plan: FaultPlan, checkpoints: &[u64]) -> Core {
    let mut run = Core::new(cfg.clone(), prog, plan.clone());
    let mut stepped = Core::new(cfg, prog, plan);
    for &t in checkpoints {
        run.run(t);
        step_to(&mut stepped, t);
        assert_eq!(run.cycle(), stepped.cycle(), "{name}: stopped at different cycles for {t}");
        assert!(state(&run) == state(&stepped), "{name}: state differs at cycle {}", run.cycle());
        assert_eq!(run.mem().first_difference(stepped.mem()), None, "{name}: memory at {t}");
    }
    assert!(run.quiet_cycles() > 0, "{name}: the quiet path never engaged");
    assert_eq!(stepped.quiet_cycles(), 0, "{name}: step is never quiet");
    run
}

#[test]
fn every_mode_matches_step_on_a_cold_start_kernel() {
    // eon at scale 1 spends 12-61% of its cycles quiet, by mode, mostly
    // behind its cold misses.
    let prog = build(Benchmark::Eon, 1);
    for mode in Mode::ALL {
        let run = assert_matches_step(
            mode.name(),
            CoreConfig::with_mode(mode),
            &prog,
            FaultPlan::new(),
            &[1_000, 3_500, 7_000, MAX_CYCLES],
        );
        assert!(run.finished(), "{mode}: {}", run.debug_state());
    }
}

#[test]
fn loads_parked_on_an_older_store_match_step() {
    // From cycle 748 on, facerec's leading loads overlap older stores
    // whose data is not there yet: a load is parked at 11,283 of its
    // 12,045 Single-mode cycles. Each parks on the oldest such store
    // until that store captures its data.
    let prog = build(Benchmark::Facerec, 1);
    for mode in [Mode::Single, Mode::BlackJack] {
        let cfg = CoreConfig::with_mode(mode);
        let mut probe = Core::new(cfg.clone(), &prog, FaultPlan::new());
        probe.run(748);
        let dump = probe.debug_state();
        assert!(dump.contains("parked: ctx=0") && dump.contains("store_seq="), "{mode}: {dump}");
        let run = assert_matches_step(mode.name(), cfg, &prog, FaultPlan::new(), &[748, 4_000, MAX_CYCLES]);
        assert!(run.finished(), "{mode}: {}", run.debug_state());
    }
}

#[test]
fn a_watchdog_ended_fuzz_run_matches_step() {
    // `bj-fuzz --seed 0xB1AC` with all fault kinds, iteration 283: its
    // hard frontend fault on way 2 wedges BlackJack mode, and the
    // built-in watchdog ends the run after 200,000 quiet cycles — on the
    // plain path and under the campaign's `EarlyExit::run` alike. The
    // draws below replay bj-fuzz's per-iteration sequence.
    let mut rng = Rng::seed_from_u64(0xB1AC);
    let mut draw = None;
    for iter in 0..=283u64 {
        let sub_seed = rng.next_u64();
        let segments = rng.random_range(4usize..=16);
        let _uncore_site = match iter % 5 {
            0 | 1 => rng.random_range(0usize..256),
            2 => rng.random_range(0usize..64),
            3 => rng.random_range(0usize..1024),
            _ => rng.random_range(0usize..128),
        };
        let _uncore_bit = rng.random_range(0u8..if iter % 5 == 3 { 32 } else { 64 });
        let way = rng.random_range(0usize..4);
        let bit = rng.random_range(0u8..32);
        let _backend = (rng.random_range(0usize..16), rng.random_range(0u8..64));
        let _payload = (rng.random_range(0usize..64), rng.random_range(0u8..32));
        // Transient and intermittent arming cycles for the four sites.
        for _ in 0..8 {
            rng.random_range(0u64..600);
        }
        draw = Some((sub_seed, segments, way, bit));
    }
    let (sub_seed, segments, way, bit) = draw.unwrap();
    assert_eq!(way, 2, "iteration 283 draws frontend way 2");
    let prog = generate(sub_seed, GenConfig { segments, call_depth: 2 });
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    cfg.lvq_ecc = true;
    let site = FaultSite::Frontend { way };
    let plan = FaultPlan::single(HardFault::stuck_bit(site, bit)).with_kind(FaultKind::Hard);
    let mut run = assert_matches_step(
        "fuzz iteration 283",
        cfg.clone(),
        &prog,
        plan.clone(),
        &[1_000, 50_000, 150_000, MAX_CYCLES],
    );
    assert!(run.stats().deadlocked, "{}", run.debug_state());
    let wedged_at = run.cycle();
    assert_eq!(wedged_at, 201_975);
    // A watchdog-stopped core returns its outcome again without stepping.
    let wedged = state(&run);
    assert_eq!(run.run(MAX_CYCLES), RunOutcome::CycleLimit);
    assert_eq!(run.cycle(), wedged_at, "a second run stepped the wedged core");
    assert!(state(&run) == wedged, "a second run changed the wedged core's state");
    assert!(run.quiet_cycles() > WATCHDOG_CYCLES / 2, "{} quiet cycles", run.quiet_cycles());

    // `EarlyExit::for_site` arms the convergence seal from a fault-free
    // recording pass; the fault activates long before the seal point, so
    // `EarlyExit::run` runs on, and the core's watchdog ends the run where
    // it ends the plain one.
    let recording = FaultPlan::new().record_usage(cfg.site_family_sizes());
    let mut reference = Core::new(cfg.clone(), &prog, recording);
    assert_eq!(reference.run(MAX_CYCLES), RunOutcome::Completed);
    let usage = reference.plan().site_usage().expect("the reference pass records usage");
    let early = EarlyExit::for_site(usage, site, plan.arm_cycle(), plan.kind())
        .expect("the fault-free run fetches through way 2");
    assert_eq!(early.quiesce, Some(1_949));
    let mut metrics = Metrics::enabled();
    let mut driven = Core::new(cfg, &prog, plan);
    assert_eq!(early.run(&mut driven, MAX_CYCLES, &mut metrics), Exit::Ran(RunOutcome::CycleLimit));
    assert!(driven.stats().deadlocked, "{}", driven.debug_state());
    assert_eq!(driven.cycle(), wedged_at, "early exit stops on the core's watchdog");
    let registry = metrics.registry().expect("metrics on");
    assert_eq!(registry.get(Counter::ExitCycleLimit), 1);
}

#[test]
fn a_transient_frontend_fault_under_a_blocked_srt_trailing_fetch_matches_step() {
    // SRT on eon: from about cycle 470 to 735 the leading thread waits
    // on a cold miss and the trailing fetch sits on a branch at 0x1003c
    // (frontend way 3) with an empty BOQ, consulting the frontend fault
    // hook every cycle. A transient bit flip on that way strikes at cycle
    // 600, in the middle of the quiet stretch, with usage recording on.
    let prog = build(Benchmark::Eon, 1);
    let cfg = CoreConfig::with_mode(Mode::Srt);
    let sizes = cfg.site_family_sizes();
    let site = FaultSite::Frontend { way: 3 };
    let flip = HardFault { site, corruption: Corruption::FlipBit { bit: 0 }, trigger: Trigger::Always };
    let plan = FaultPlan::single(flip)
        .arm_at(600)
        .with_kind(FaultKind::Transient)
        .record_usage(sizes);

    let mut probe = Core::new(cfg.clone(), &prog, plan.clone());
    probe.run(550);
    let dump = probe.debug_state();
    let wake: u64 = dump
        .split_whitespace()
        .find_map(|w| w.strip_prefix("quiet_until="))
        .unwrap_or_else(|| panic!("not in a quiet stretch at 550: {dump}"))
        .parse()
        .unwrap();
    assert!(wake > 600, "{dump}");
    let quiet = probe.quiet_cycles();
    probe.run(700);
    assert!(probe.quiet_cycles() - quiet >= 50, "cycles 551..=600 all ran quiet");
    let usage = probe.plan().site_usage().unwrap();
    assert!(usage.last_use(site) >= Some(600), "the blocked fetch consulted way 3");
    assert_eq!(probe.plan().activations(), 1, "the transient struck the blocked fetch");

    assert_matches_step("srt transient", cfg, &prog, plan, &[550, 700, 2_000, MAX_CYCLES]);
}
