//! Full-matrix smoke run: every benchmark through every mode, with the
//! commit log replayed against the interpreter and memory equivalence
//! checked — a quick health sweep of the whole simulator
//! (`cargo run --release -p blackjack-sim --example smoke`).

use blackjack_faults::{AreaModel, FaultPlan};
use blackjack_isa::Interp;
use blackjack_sim::{replay_commit_log, Core, CoreConfig, Mode};
use blackjack_workloads::{build, Benchmark};

fn main() {
    let area = AreaModel::default();
    for b in Benchmark::ALL {
        let prog = build(b, 1);
        let mut it = Interp::new(&prog);
        it.run(10_000_000).unwrap();
        let mut line = format!("{:9}", b.name());
        let mut single_cycles = 0.0;
        for mode in Mode::ALL {
            let mut core = Core::new(CoreConfig::with_mode(mode), &prog, FaultPlan::new());
            core.enable_commit_log();
            let out = core.run(50_000_000);
            assert!(out.completed(), "{b} {mode}: {out:?}");
            let log = core.take_commit_log().expect("commit log enabled");
            if let Err(d) = replay_commit_log(&prog, &log) {
                panic!("{b} {mode}: commit log diverges: {d}");
            }
            assert_eq!(core.mem().first_difference(it.mem()), None, "{b} {mode} memory mismatch");
            let s = core.stats();
            if mode == Mode::Single { single_cycles = s.cycles as f64; }
            let rel = single_cycles / s.cycles as f64;
            match mode {
                Mode::Single => line += &format!(" | ipc={:.2}", s.ipc()),
                Mode::Srt => line += &format!(" | srt {:.2} cov={:.2}", rel, s.total_coverage(&area)),
                Mode::BlackJackNoShuffle => line += &format!(" | ns {:.2}", rel),
                Mode::BlackJack => line += &format!(" | bj {:.2} cov={:.2} f={:.2} b={:.2} lt={:.3} tt={:.3} burst={:.2}",
                    rel, s.total_coverage(&area), s.frontend_coverage(), s.backend_coverage(),
                    s.lt_interference(), s.tt_interference(), s.burstiness()),
            }
        }
        println!("{line}");
    }
}
