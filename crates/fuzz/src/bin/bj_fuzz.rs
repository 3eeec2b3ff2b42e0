//! `bj-fuzz` — differential fuzzing of the OOO SMT core against the
//! golden interpreter.
//!
//! ```text
//! bj-fuzz [options]
//!
//! options:
//!   --seed S          master seed, decimal or 0x-hex (default: 0xB1AC)
//!   --iters N         iterations (default: 200)
//!   --out DIR         where minimized failure cases are written
//!                     (default: fuzz-failures)
//!   --mine-corpus DIR additionally keep the 10 most microarchitecturally
//!                     interesting cases (deepest IQ/DTQ occupancy,
//!                     largest slack excursion) as .bjcase files
//!   --quiet           print only the summary
//! ```
//!
//! `--seed` and `--iters` parse by the knob table's seed and
//! positive-integer grammars (`--iters 0` is an error). Environment:
//! `BJ_CALL_DEPTH` sets the generator's function-nesting depth (1 to 3,
//! default 2: `main` plus one helper, `1` disables calls);
//! `BJ_FAULT_KINDS` picks the temporal fault models the soundness sample
//! sweeps (default `hard`); `BJ_ECC` replays the sample with the LVQ
//! SEC-DED layer on, which promotes the load-value escape sites to
//! guaranteed. Invalid flag or knob values exit with status 2.
//!
//! Each iteration generates a lint-clean program, checks it
//! differentially against the interpreter in all four modes, and
//! injects a sample of faults — core sites every iteration plus one
//! rotating uncore site (cache data/tag, store buffer, DTQ/LVQ payload
//! RAM), across every configured temporal kind — whose outcome is
//! judged against the static site classification. Output is fully
//! deterministic for a given seed — no timestamps, no wall-clock. Exit
//! status: 0 when every check passed, 1 when any failure was found
//! (failures are minimized and saved for replay), 2 on usage errors.

use std::path::PathBuf;
use std::process::exit;

use blackjack::{envcfg, outln};
use blackjack_analysis::SiteAnalysis;
use blackjack_faults::{FaultKind, FaultSite, HardFault};
use blackjack_fuzz::diff::MAX_STEPS;
use blackjack_fuzz::gen::{generate, GenConfig};
use blackjack_fuzz::minimize::{live_instructions, minimize};
use blackjack_fuzz::oracle::{
    check_fault_universe, classify_sites_ecc, FaultVerdict, SiteClass, Soundness,
};
use blackjack_fuzz::{check_fault_free, Case, CaseKind};
use blackjack_isa::{Interp, Program};
use blackjack_rng::Rng;
use blackjack_sim::{Core, CoreConfig, FuCounts, Mode};

fn usage() -> ! {
    eprintln!("usage: bj-fuzz [--seed S] [--iters N] [--out DIR] [--mine-corpus DIR] [--quiet]");
    exit(2);
}

#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    detected: u64,
    watchdog: u64,
    masked: u64,
    escaped: u64,
}

/// The injection sample's verdict counts.
#[derive(Debug, Default)]
struct Tallies {
    /// Pruned sites that stayed masked, as their class promises.
    pruned_clean: u64,
    guaranteed: Tally,
    best_effort: Tally,
    /// Injections whose verdict broke their site's contract.
    unsound: u64,
}

impl Tallies {
    /// Counts one injection on a site of static class `class`: its
    /// verdict, or for a soundness failure the class and verdict the
    /// failure carries, so a guaranteed-site escape counts as `escaped`.
    /// A pruned site that deviated counts only as unsound.
    fn count(&mut self, class: SiteClass, result: &Result<FaultVerdict, Soundness>) {
        let (class, verdict) = match result {
            Ok(verdict) => (class, *verdict),
            Err(unsound) => {
                self.unsound += 1;
                (unsound.class, unsound.verdict)
            }
        };
        let tally = match class {
            SiteClass::Pruned => {
                self.pruned_clean += u64::from(verdict == FaultVerdict::Masked);
                return;
            }
            SiteClass::Guaranteed => &mut self.guaranteed,
            SiteClass::BestEffort => &mut self.best_effort,
        };
        match verdict {
            FaultVerdict::Detected => tally.detected += 1,
            FaultVerdict::Watchdog => tally.watchdog += 1,
            FaultVerdict::Masked => tally.masked += 1,
            FaultVerdict::Escaped => tally.escaped += 1,
        }
    }
}

fn main() {
    let mut seed: u64 = 0xB1AC;
    let mut iters: u64 = 200;
    let call_depth = envcfg::CALL_DEPTH.positive().expect("BJ_CALL_DEPTH has a default") as usize;
    let kinds: Vec<FaultKind> = envcfg::FAULT_KINDS.fault_kinds();
    let ecc = envcfg::ECC.flag();
    let mut out_dir = PathBuf::from("fuzz-failures");
    let mut mine: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                seed = envcfg::or_exit(envcfg::parse_seed("--seed", &v));
            }
            "--iters" => {
                let v = args.next().unwrap_or_else(|| usage());
                iters = envcfg::or_exit(envcfg::parse_positive("--iters", &v, u64::MAX));
            }
            "--out" => out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--mine-corpus" => mine = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option `{other}`");
                usage()
            }
        }
    }

    let mut rng = Rng::seed_from_u64(seed);
    let fu = FuCounts::default();
    // Differential and CFG failures; fault-soundness failures count in
    // `tallies.unsound`.
    let mut failures: u64 = 0;
    let mut diff_runs: u64 = 0;
    let mut fault_runs: u64 = 0;
    let mut tallies = Tallies::default();
    // (score, iteration, seed, segments) of the most interesting cases.
    let mut interesting: Vec<(u64, u64, u64, usize)> = Vec::new();

    for iter in 0..iters {
        let sub_seed = rng.next_u64();
        let segments = rng.random_range(4usize..=16);
        let prog = generate(sub_seed, GenConfig { segments, call_depth });

        diff_runs += 1;
        if let Err(fail) = check_fault_free(&prog) {
            failures += 1;
            outln!("iter {iter}: DIFFERENTIAL FAILURE seed={sub_seed:#x} segments={segments}");
            outln!("  {fail}");
            let kind = fail.kind;
            let shrunk = minimize(&prog, |p| {
                check_fault_free(p).err().is_some_and(|e| e.kind == kind)
            });
            outln!(
                "  minimized {} -> {} live instructions",
                live_instructions(&prog),
                live_instructions(&shrunk)
            );
            let case = Case::new(
                format!("diff-{sub_seed:#x}"),
                CaseKind::Failure,
                Some(sub_seed),
                shrunk,
                None,
            );
            match case.save(&out_dir) {
                Ok(p) => outln!("  saved {}", p.display()),
                Err(e) => eprintln!("  could not save case: {e}"),
            }
            continue; // fault soundness on a diverging program is noise
        }

        // Fault-soundness sample: one frontend way, one backend way, one
        // payload entry, and one rotating uncore site per iteration, with
        // fault bits drawn from the corrupted structure's width. Every
        // site is replayed under each configured temporal kind.
        let analysis = match SiteAnalysis::analyze(&prog, &fu) {
            Ok(a) => a,
            Err(e) => {
                // Generated programs always build a CFG; treat anything
                // else as a generator bug worth failing loudly on.
                failures += 1;
                outln!("iter {iter}: CFG FAILURE seed={sub_seed:#x}: {e}");
                continue;
            }
        };
        let golden = {
            let mut it = Interp::new(&prog);
            let _ = it.run(MAX_STEPS);
            it
        };
        let uncore = match iter % 5 {
            0 => (FaultSite::CacheData { index: rng.random_range(0usize..256) },
                  rng.random_range(0u8..64)),
            1 => (FaultSite::CacheTag { index: rng.random_range(0usize..256) },
                  rng.random_range(0u8..64)),
            2 => (FaultSite::StoreBuffer { entry: rng.random_range(0usize..64) },
                  rng.random_range(0u8..64)),
            3 => (FaultSite::DtqPayload { entry: rng.random_range(0usize..1024) },
                  rng.random_range(0u8..32)),
            _ => (FaultSite::LvqPayload { entry: rng.random_range(0usize..128) },
                  rng.random_range(0u8..64)),
        };
        let sites = [
            (FaultSite::Frontend { way: rng.random_range(0usize..4) },
             rng.random_range(0u8..32)),
            (FaultSite::Backend { way: rng.random_range(0usize..fu.total()) },
             rng.random_range(0u8..64)),
            (FaultSite::PayloadRam { entry: rng.random_range(0usize..64) },
             rng.random_range(0u8..32)),
            uncore,
        ];
        for (site, bit) in sites {
            let fault = HardFault::stuck_bit(site, bit);
            // Transient and intermittent plans draw a fresh arm cycle per
            // site so the sample walks the program's whole timeline over
            // the course of a campaign; hard faults stay armed from 0.
            for &kind in &kinds {
                let arm = match kind {
                    FaultKind::Hard => 0,
                    _ => rng.random_range(0u64..600),
                };
                fault_runs += 1;
                let result =
                    check_fault_universe(&prog, &analysis, fault, kind, arm, ecc, golden.mem());
                tallies.count(classify_sites_ecc(&analysis, site, ecc), &result);
                if let Err(unsound) = result {
                    outln!("iter {iter}: FAULT-SOUNDNESS FAILURE seed={sub_seed:#x}");
                    outln!("  {unsound}");
                    let shrunk =
                        minimize(&prog, |p| fault_still_unsound(p, fault, kind, arm, ecc, &fu));
                    outln!(
                        "  minimized {} -> {} live instructions",
                        live_instructions(&prog),
                        live_instructions(&shrunk)
                    );
                    let mut case = Case::new(
                        format!("fault-{sub_seed:#x}-{bit}"),
                        CaseKind::Failure,
                        Some(sub_seed),
                        shrunk,
                        Some(fault),
                    );
                    case.temporal = kind;
                    case.arm = arm;
                    case.ecc = ecc;
                    match case.save(&out_dir) {
                        Ok(p) => outln!("  saved {}", p.display()),
                        Err(e) => eprintln!("  could not save case: {e}"),
                    }
                }
            }
        }

        // Corpus mining: score by peak queue occupancy and slack excursion.
        if mine.is_some() {
            let mut core =
                Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, Default::default());
            core.enable_trace();
            let _ = core.run(blackjack_fuzz::diff::MAX_CYCLES);
            if let Some(state) = core.take_trace() {
                let score = state.occ_iq.percentile(100)
                    + state.occ_dtq.percentile(100)
                    + state.slack.percentile(100);
                interesting.push((score, iter, sub_seed, segments));
            }
        }

        if !quiet && (iter + 1) % 50 == 0 {
            outln!("... {} iterations, {} failures", iter + 1, failures + tallies.unsound);
        }
    }

    if let Some(dir) = mine {
        interesting.sort_by(|a, b| b.cmp(a)); // highest score first, then latest
        for (rank, &(score, _iter, sub_seed, segments)) in interesting.iter().take(10).enumerate() {
            let prog = generate(sub_seed, GenConfig { segments, call_depth });
            let case = Case::new(
                format!("interesting-{:02}-{sub_seed:#x}", rank),
                CaseKind::Interesting,
                Some(sub_seed),
                prog,
                None,
            );
            match case.save(&dir) {
                Ok(p) => {
                    if !quiet {
                        outln!("mined {} (score {score})", p.display());
                    }
                }
                Err(e) => eprintln!("could not save mined case: {e}"),
            }
        }
    }

    let kinds_label = kinds
        .iter()
        .map(|k| match k {
            FaultKind::Hard => "hard".to_string(),
            FaultKind::Transient => "transient".to_string(),
            FaultKind::Intermittent { period, on } => format!("intermittent:{period}:{on}"),
        })
        .collect::<Vec<_>>()
        .join(",");
    outln!(
        "bj-fuzz: seed={seed:#x} iters={iters} kinds={kinds_label} ecc={}",
        if ecc { "on" } else { "off" }
    );
    outln!("  differential: {diff_runs} programs x 4 modes, {failures} failures");
    let Tallies { pruned_clean, guaranteed, best_effort, unsound } = tallies;
    outln!(
        "  faults: {fault_runs} injected; pruned-clean {pruned_clean}; guaranteed \
         [detected {} watchdog {} masked {} escaped {}]; best-effort \
         [detected {} watchdog {} masked {} escaped {}]",
        guaranteed.detected,
        guaranteed.watchdog,
        guaranteed.masked,
        guaranteed.escaped,
        best_effort.detected,
        best_effort.watchdog,
        best_effort.masked,
        best_effort.escaped,
    );
    if failures + unsound > 0 {
        outln!(
            "  FAILURES: {} ({unsound} fault-soundness; cases under {})",
            failures + unsound,
            out_dir.display()
        );
        exit(1);
    }
    outln!("  all checks passed");
}

/// Minimizer oracle for fault-soundness failures: does `fault` under the
/// same temporal plan still violate its site contract on this mutant?
fn fault_still_unsound(
    p: &Program,
    fault: HardFault,
    kind: FaultKind,
    arm: u64,
    ecc: bool,
    fu: &FuCounts,
) -> bool {
    let mut it = Interp::new(p);
    let _ = it.run(MAX_STEPS);
    if !it.halted() {
        return false;
    }
    let Ok(analysis) = SiteAnalysis::analyze(p, fu) else {
        return false;
    };
    check_fault_universe(p, &analysis, fault, kind, arm, ecc, it.mem()).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsound(class: SiteClass, verdict: FaultVerdict) -> Result<FaultVerdict, Soundness> {
        Err(Soundness {
            fault: HardFault::stuck_bit(FaultSite::Backend { way: 12 }, 37),
            class,
            verdict,
            detail: "synthetic".into(),
        })
    }

    #[test]
    fn a_soundness_failure_counts_under_its_class_and_verdict() {
        let mut t = Tallies::default();
        t.count(SiteClass::Guaranteed, &Ok(FaultVerdict::Detected));
        t.count(SiteClass::BestEffort, &Ok(FaultVerdict::Escaped));
        t.count(SiteClass::Pruned, &Ok(FaultVerdict::Masked));
        assert_eq!(t.unsound, 0);
        // A guaranteed-site escape is an escape, and a failure.
        t.count(SiteClass::Guaranteed, &unsound(SiteClass::Guaranteed, FaultVerdict::Escaped));
        assert_eq!(t.guaranteed, Tally { detected: 1, watchdog: 0, masked: 0, escaped: 1 });
        assert_eq!(t.best_effort, Tally { detected: 0, watchdog: 0, masked: 0, escaped: 1 });
        assert_eq!(t.unsound, 1);
        // A wedge past the cycle budget keeps the watchdog verdict it
        // carries; a pruned site that deviated is not clean.
        t.count(SiteClass::BestEffort, &unsound(SiteClass::BestEffort, FaultVerdict::Watchdog));
        t.count(SiteClass::Pruned, &unsound(SiteClass::Pruned, FaultVerdict::Detected));
        assert_eq!(t.best_effort.watchdog, 1);
        assert_eq!(t.pruned_clean, 1);
        assert_eq!(t.unsound, 3);
    }
}
