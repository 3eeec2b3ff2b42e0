//! `bjsim` — run a BJ-ISA assembly file on the BlackJack simulator.
//!
//! ```text
//! bjsim [options] <program.s>
//!
//! options:
//!   --mode single|srt|blackjack-ns|blackjack    (default: blackjack)
//!   --shuffle greedy|exhaustive                 (default: greedy)
//!   --slack N                                   (default: 256)
//!   --fault SITE:WAY[:BIT]  inject a stuck-at-1 hard fault on bit BIT
//!                           (default 0); SITE is one of `frontend`,
//!                           `backend`, `payload`, `cachedata`,
//!                           `cachetag`, `sbuf`, `dtq`, `lvq`
//!   --max-cycles N                              (default: 1 billion)
//!   --oracle        replay every leading commit against the interpreter
//!                   and print the match count or the first divergence
//!                   (any mode; under --fault the divergence names the
//!                   first corrupted commit)
//!   --quiet         print only the outcome (and oracle) line
//! ```
//!
//! Exit status: 0 on a completed or detected run, 1 when the program
//! cannot be read or assembled, 2 on bad options, 3 at the cycle limit,
//! and 4 when a fault-free run's commits diverge from the interpreter.
//!
//! Example:
//!
//! ```text
//! cargo run --release --bin bjsim -- --mode blackjack --fault backend:4:5 prog.s
//! ```
//!
//! When `BJ_TRACE=<path>` is set the run is traced: occupancy
//! histograms, the `(class, way)` issue heatmap, the flight recorder's
//! final window, and any detection event are written to `<path>` as
//! JSONL (render with `bj-trace`). The file is created before the run —
//! empty or unwritable values exit with status 2.

use std::process::exit;

use blackjack::faults::{AreaModel, FaultPlan, HardFault};
use blackjack::isa::asm::assemble_named;
use blackjack::sim::{replay_commit_log, Core, CoreConfig, Mode, RunOutcome, ShuffleAlgo};
use blackjack::outln;
use blackjack::telemetry::TraceWriter;

fn usage() -> ! {
    eprintln!("usage: bjsim [--mode M] [--shuffle S] [--slack N] [--fault SITE:WAY[:BIT]] [--max-cycles N] [--oracle] [--quiet] <program.s>");
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    let mut plan = FaultPlan::new();
    let mut path: Option<String> = None;
    let mut max_cycles: u64 = 1_000_000_000;
    let mut oracle = false;
    let mut quiet = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => {
                let m = args.next().unwrap_or_else(|| usage());
                cfg.mode = match m.as_str() {
                    "single" => Mode::Single,
                    "srt" => Mode::Srt,
                    "blackjack-ns" => Mode::BlackJackNoShuffle,
                    "blackjack" => Mode::BlackJack,
                    other => {
                        eprintln!("unknown mode `{other}`");
                        usage()
                    }
                };
            }
            "--shuffle" => {
                let m = args.next().unwrap_or_else(|| usage());
                cfg.shuffle_algo = match m.as_str() {
                    "greedy" => ShuffleAlgo::Greedy,
                    "exhaustive" => ShuffleAlgo::Exhaustive,
                    other => {
                        eprintln!("unknown shuffle algorithm `{other}`");
                        usage()
                    }
                };
            }
            "--slack" => {
                cfg.slack = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-cycles" => {
                max_cycles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fault" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let fault = HardFault::parse_stuck_bit(&spec).unwrap_or_else(|e| {
                    eprintln!("bad fault spec `{spec}`: {e}");
                    usage()
                });
                plan.add(fault);
            }
            "--oracle" => oracle = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown option `{other}`");
                usage()
            }
        }
    }

    let Some(path) = path else { usage() };
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let prog = assemble_named(&src, &path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    });

    let mut writer = TraceWriter::from_env_or_exit("bjsim");
    let mut core = Core::new(cfg.clone(), &prog, plan);
    if oracle {
        core.enable_commit_log();
    }
    if writer.is_some() {
        core.enable_trace();
    }
    let outcome = core.run(max_cycles);

    if let Some(w) = writer.as_mut() {
        let state = core.take_trace().expect("tracing was enabled");
        w.emit_run(&path, core.stats(), Some(&state));
        w.emit_heatmap(&path, &state.heat);
        w.emit_flight(&state.flight.events());
        if let RunOutcome::Detected(ev) = &outcome {
            w.emit_detection(ev);
        }
    }

    let replay = core.take_commit_log().map(|log| replay_commit_log(&prog, &log));
    let s = core.stats();
    match outcome {
        RunOutcome::Completed => outln!("completed: {} instructions, {} cycles (IPC {:.3})",
            s.committed[0], s.cycles, s.ipc()),
        RunOutcome::Detected(ev) => outln!("DETECTED: {ev}"),
        RunOutcome::CycleLimit => {
            outln!("cycle limit reached at {}", s.cycles);
            if !quiet {
                eprintln!("{}", core.debug_state());
            }
        }
    }
    // Under a fault the divergence is the expected, informational part:
    // it names the first corrupted commit, which precedes any detection.
    let diverged = match &replay {
        Some(Ok(n)) => {
            outln!("oracle: all {n} commits match the interpreter");
            false
        }
        Some(Err(d)) => {
            outln!("oracle: first divergence at {d}");
            core.plan().is_empty()
        }
        None => false,
    };
    if outcome == RunOutcome::CycleLimit {
        exit(3);
    }
    if diverged {
        exit(4);
    }
    if quiet {
        return;
    }
    if cfg.mode.is_redundant() {
        let area = AreaModel::default();
        outln!(
            "coverage: {:.1}% total ({:.1}% frontend, {:.1}% backend) over {} pairs",
            100.0 * s.total_coverage(&area),
            100.0 * s.frontend_coverage(),
            100.0 * s.backend_coverage(),
            s.coverage.pairs
        );
        outln!(
            "interference: {:.2}% leading-trailing, {:.2}% trailing-trailing; burstiness {:.1}%",
            100.0 * s.lt_interference(),
            100.0 * s.tt_interference(),
            100.0 * s.burstiness()
        );
        if cfg.mode.uses_dtq() {
            outln!(
                "shuffle: {} packets, {} splits, {} filler NOPs, {} forced",
                s.shuffle_packets, s.shuffle_splits, s.shuffle_nops, s.shuffle_forced
            );
        }
        outln!("checks: {} stores compared", s.store_checks);
    }
    outln!(
        "branches: {} committed, {} mispredicted; squashed {} wrong-path instructions",
        s.branches, s.mispredicts, s.squashed
    );
    let m = core.mem_sys();
    outln!(
        "caches: L1D {:.2}% miss, L1I {:.2}% miss, L2 {:.2}% miss, {} memory accesses",
        100.0 * m.l1d_stats().miss_rate(),
        100.0 * m.l1i_stats().miss_rate(),
        100.0 * m.l2_stats().miss_rate(),
        m.mem_accesses()
    );
}
