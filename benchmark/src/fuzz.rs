//! `fuzz`: 300 generated programs, each checked differentially against
//! the interpreter in all four modes and then injected with 12 faults
//! whose verdicts the soundness oracle judges.
//!
//! Thousands of short cold runs (≈3,900 `Core::run` calls per rep) on
//! L1-resident programs with no shared prefix: snapshots, early exit and
//! the campaign are bypassed, so the fixed cost of every run shows here.
//! The differential half runs empty fault plans; the injection half runs
//! armed plans of all three temporal kinds with the LVQ ECC layer on.
//!
//! The programs and faults are `bj-fuzz --seed 0xB1AC` with
//! `BJ_FAULT_KINDS=hard,transient,intermittent BJ_ECC=1`: setup draws
//! from the seeded RNG exactly as `bj-fuzz` does. The seed is pinned
//! because `bj-fuzz` finds soundness failures at many other seeds (and at
//! iteration 385 of this one), and a failing op would fail the workload;
//! the first 300 iterations of 0xB1AC are sound.

use blackjack::faults::{FaultKind, FaultSite, HardFault};
use blackjack::isa::{Interp, Program};
use blackjack::sim::FuCounts;
use blackjack_analysis::SiteAnalysis;
use blackjack_fuzz::diff::MAX_STEPS;
use blackjack_fuzz::{
    check_fault_free, check_fault_universe, classify_sites_ecc, generate, FaultVerdict, GenConfig,
    SiteClass, Soundness,
};
use blackjack_rng::Rng;

use crate::trace::Tracer;
use crate::{Layers, RepOut};

/// The master seed the programs and faults are drawn from.
pub const SEED: u64 = 0xB1AC;

/// Programs per rep.
pub const PROGRAMS: usize = 300;

/// Programs per timed chunk: ≈0.4 s.
const CHUNK: usize = 25;

/// The temporal fault models every sampled site is replayed under.
const KINDS: [FaultKind; 3] = [
    FaultKind::Hard,
    FaultKind::Transient,
    FaultKind::Intermittent { period: 64, on: 8 },
];

/// Injections run with the LVQ SEC-DED layer on.
const ECC: bool = true;

/// `bj-fuzz`'s default function-nesting depth.
const CALL_DEPTH: usize = 2;

/// One generated program, its golden interpretation, and the fault
/// sample `bj-fuzz` injects into it.
struct Case {
    prog: Program,
    golden: Interp,
    faults: Vec<(HardFault, FaultKind, u64)>,
}

/// The generated inputs.
pub struct Fuzz {
    cases: Vec<Case>,
}

/// `bj-fuzz`'s summary of one pass: injections, those on statically
/// pruned sites, and `[detected, watchdog, masked, escaped]` on
/// guaranteed and on best-effort sites; plus the checks that failed.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Summary {
    pub injected: u64,
    pub pruned: u64,
    pub guaranteed: [u64; 4],
    pub best_effort: [u64; 4],
    pub failed: u64,
}

impl Summary {
    /// Tallies one injection's oracle result under its site's class.
    fn record(
        &mut self,
        analysis: &SiteAnalysis,
        site: FaultSite,
        verdict: Result<FaultVerdict, Soundness>,
    ) {
        let Ok(verdict) = verdict else {
            self.failed += 1;
            return;
        };
        let slot = match classify_sites_ecc(analysis, site, ECC) {
            SiteClass::Pruned => {
                self.pruned += 1;
                return;
            }
            SiteClass::Guaranteed => &mut self.guaranteed,
            SiteClass::BestEffort => &mut self.best_effort,
        };
        slot[match verdict {
            FaultVerdict::Detected => 0,
            FaultVerdict::Watchdog => 1,
            FaultVerdict::Masked => 2,
            FaultVerdict::Escaped => 3,
        }] += 1;
    }
}

/// Generates `programs` programs from `seed`, runs their golden
/// interpretations, and draws each program's fault sample — the draws
/// `bj-fuzz` makes between programs, in its order, so the stream stays
/// `bj-fuzz`'s.
///
/// `bj-fuzz` draws a program's faults only after its differential check
/// passes; drawing them up front gives the same stream whenever every
/// check passes (a failing check fails its ops either way).
pub fn setup(seed: u64, programs: usize, tr: &mut Tracer) -> Fuzz {
    let fu = FuCounts::default();
    let mut rng = Rng::seed_from_u64(seed);
    let cases = (0..programs)
        .map(|iter| {
            let sub_seed = rng.next_u64();
            let segments = rng.random_range(4usize..=16);
            let prog = tr.span("fuzz.gen", |_| {
                generate(
                    sub_seed,
                    GenConfig {
                        segments,
                        call_depth: CALL_DEPTH,
                    },
                )
            });
            let golden = tr.span("isa.golden", |_| {
                let mut it = Interp::new(&prog);
                let _ = it.run(MAX_STEPS);
                it
            });
            let uncore = match iter % 5 {
                0 => (
                    FaultSite::CacheData {
                        index: rng.random_range(0usize..256),
                    },
                    rng.random_range(0u8..64),
                ),
                1 => (
                    FaultSite::CacheTag {
                        index: rng.random_range(0usize..256),
                    },
                    rng.random_range(0u8..64),
                ),
                2 => (
                    FaultSite::StoreBuffer {
                        entry: rng.random_range(0usize..64),
                    },
                    rng.random_range(0u8..64),
                ),
                3 => (
                    FaultSite::DtqPayload {
                        entry: rng.random_range(0usize..1024),
                    },
                    rng.random_range(0u8..32),
                ),
                _ => (
                    FaultSite::LvqPayload {
                        entry: rng.random_range(0usize..128),
                    },
                    rng.random_range(0u8..64),
                ),
            };
            let sites = [
                (
                    FaultSite::Frontend {
                        way: rng.random_range(0usize..4),
                    },
                    rng.random_range(0u8..32),
                ),
                (
                    FaultSite::Backend {
                        way: rng.random_range(0usize..fu.total()),
                    },
                    rng.random_range(0u8..64),
                ),
                (
                    FaultSite::PayloadRam {
                        entry: rng.random_range(0usize..64),
                    },
                    rng.random_range(0u8..32),
                ),
                uncore,
            ];
            let mut faults = Vec::with_capacity(sites.len() * KINDS.len());
            for (site, bit) in sites {
                for kind in KINDS {
                    let arm = match kind {
                        FaultKind::Hard => 0,
                        _ => rng.random_range(0u64..600),
                    };
                    faults.push((HardFault::stuck_bit(site, bit), kind, arm));
                }
            }
            Case {
                prog,
                golden,
                faults,
            }
        })
        .collect();
    Fuzz { cases }
}

impl Fuzz {
    /// Checks per rep: one differential check and one injection per
    /// sampled fault, for every program.
    fn checks(&self) -> u64 {
        self.cases.iter().map(|c| 1 + c.faults.len() as u64).sum()
    }

    /// One pass over every program, as `bj-fuzz` makes it. A check fails
    /// on a differential mismatch (including an instruction count that
    /// differs from setup's golden run) or a soundness violation; a
    /// program that fails its differential check, or cannot be analyzed,
    /// fails all its injections unrun. Failures are counted, never
    /// minimized. `lap` ends a chunk after every [`CHUNK`] programs.
    pub fn summary(&self, tr: &mut Tracer, lap: &mut dyn FnMut()) -> Summary {
        let fu = FuCounts::default();
        let mut s = Summary::default();
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 && i % CHUNK == 0 {
                lap();
            }
            let diff = tr.op("fuzz.diff", |_| check_fault_free(&case.prog));
            if !tr.span("check", |_| {
                diff.is_ok_and(|d| d.icount == case.golden.icount())
            }) {
                s.failed += 1 + case.faults.len() as u64;
                continue;
            }
            let Ok(analysis) = tr.span("analysis.analyze", |_| {
                SiteAnalysis::analyze(&case.prog, &fu)
            }) else {
                s.failed += case.faults.len() as u64;
                continue;
            };
            for &(fault, kind, arm) in &case.faults {
                s.injected += 1;
                let verdict = tr.op("fuzz.inject", |_| {
                    check_fault_universe(
                        &case.prog,
                        &analysis,
                        fault,
                        kind,
                        arm,
                        ECC,
                        case.golden.mem(),
                    )
                });
                tr.span("check", |_| s.record(&analysis, fault.site, verdict));
            }
        }
        s
    }

    /// One rep: [`Fuzz::summary`], every check counted as an op.
    pub fn rep(&self, tr: &mut Tracer, layers: &mut Layers, lap: &mut dyn FnMut()) -> RepOut {
        let s = self.summary(tr, lap);
        let sim_s = tr.self_s("fuzz.diff") + tr.self_s("fuzz.inject");
        if tr.is_on() {
            let verdicts = ["detected", "watchdog", "masked", "escaped"];
            for (i, name) in verdicts.iter().enumerate() {
                let n = s.guaranteed[i] + s.best_effort[i];
                layers.insert(format!("fuzz.verdict.{name}"), n as f64);
            }
            layers.insert(
                "analysis.pruned_frac".into(),
                s.pruned as f64 / s.injected as f64,
            );
            layers.insert("fuzz.inject_frac".into(), tr.self_s("fuzz.inject") / sim_s);
        }
        RepOut {
            ops: self.checks(),
            failed: s.failed,
            sim_s,
            attributed_s: sim_s + tr.self_s("analysis.analyze"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Setup draws exactly like `bj-fuzz`: a pass over seed 0xB1AC's
    /// first 200 programs reproduces the `bj-fuzz` summary recorded in
    /// EXPERIMENTS.md for that seed, kinds hard/transient/intermittent,
    /// ECC on.
    #[test]
    fn draws_match_bj_fuzz() {
        let fuzz = setup(SEED, 200, &mut Tracer::off());
        assert_eq!(
            fuzz.summary(&mut Tracer::off(), &mut || {}),
            Summary {
                injected: 2400,
                pruned: 27,
                guaranteed: [769, 1, 1603, 0],
                best_effort: [0; 4],
                failed: 0,
            }
        );
    }

    #[test]
    fn a_rep_counts_every_check_and_chunk() {
        let fuzz = setup(SEED, 2 * CHUNK + 1, &mut Tracer::off());
        let mut laps = 0;
        let out = fuzz.rep(&mut Tracer::off(), &mut Layers::new(), &mut || laps += 1);
        assert_eq!((out.ops, out.failed), (51 * 13, 0));
        assert_eq!(laps, 2, "a lap after each full chunk, none at the end");
    }
}
