//! Select's wait marks when a register becomes unwritten again under a
//! live reader.
//!
//! Issue-queue residents carry a wait mark per unwritten source, which
//! writeback clears. The BlackJack trailing thread frees registers
//! through its program-order table by the trailing decode, so a frontend
//! fault that corrupts a destination can free a register a younger
//! resident still reads; reallocating it must make that reader wait
//! again. Debug builds check every mark against the register file as
//! select reads it; the pinned outcome catches a missed re-mark in any
//! build (without it this run detects six cycles early, at 2,266).

use blackjack::faults::{FaultPlan, FaultSite, HardFault};
use blackjack::sim::{Core, CoreConfig, DetectionKind, Mode, RunOutcome};
use blackjack_fuzz::diff::MAX_CYCLES;
use blackjack_fuzz::gen::{generate, GenConfig};

#[test]
fn a_register_freed_under_a_live_trailing_reader_keeps_it_waiting() {
    // Iteration 178 of `bj-fuzz --seed 0xB1AC` with all fault kinds and
    // ECC on: its hard frontend fault on way 3 (bit 19) reallocates a
    // trailing register twice while a resident still reads it.
    let prog = generate(0x9a30_f0f2_a8cd_a318, GenConfig { segments: 7, call_depth: 2 });
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    cfg.lvq_ecc = true;
    let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::Frontend { way: 3 }, 19));
    let mut core = Core::new(cfg, &prog, plan);
    let RunOutcome::Detected(ev) = core.run(MAX_CYCLES) else {
        panic!("the corrupted decode is detected: {}", core.debug_state());
    };
    assert_eq!((ev.kind, ev.cycle, ev.seq), (DetectionKind::DependenceCheckMismatch, 2_272, 10));
    assert_eq!(core.stats().committed, [184, 10]);
    assert_eq!(core.stats().issued, [201, 37]);
}
