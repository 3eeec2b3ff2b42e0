//! The experiment runner: drives benchmarks through the simulator modes
//! and extracts the paper's figures.

use blackjack_faults::{AreaModel, FaultPlan};
use blackjack_sim::{Core, CoreConfig, Mode, RunOutcome, SimStats, TraceState};
use blackjack_workloads::{build, Benchmark};

use crate::campaign::{Campaign, CampaignTrace, ObserveOpts};
use crate::metrics::Metrics;

/// Cycle budget per run — far above anything the kernels need.
const MAX_CYCLES: u64 = 200_000_000;

/// Configures and runs the paper's evaluation.
///
/// # Example
///
/// ```no_run
/// use blackjack::{Campaign, Experiment};
///
/// let result = Experiment::new().run_all_on(&Campaign::from_env_or_exit());
/// println!("{}", result.fig4_table());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    scale: u32,
    base: CoreConfig,
    trace: bool,
    snapshot: bool,
}

impl Default for Experiment {
    fn default() -> Experiment {
        Experiment::new()
    }
}

impl Experiment {
    /// An experiment with the paper's Table 1 configuration at workload
    /// scale 1 (tens of thousands of dynamic instructions per benchmark).
    pub fn new() -> Experiment {
        Experiment {
            scale: 1,
            base: CoreConfig::default(),
            trace: false,
            snapshot: true,
        }
    }

    /// Multiplies every benchmark's iteration count.
    pub fn scale(mut self, scale: u32) -> Experiment {
        self.scale = scale;
        self
    }

    /// Overrides the slack target.
    pub fn slack(mut self, slack: u64) -> Experiment {
        self.base.slack = slack;
        self
    }

    /// Enables per-run tracing: each [`ModeResult`] carries the run's
    /// occupancy histograms, heatmap, and flight dump. Off by default.
    /// Untraced, the Single and SRT hot loops allocate only to unshare a
    /// copy-on-write cache chunk, page or BTB table (once each after
    /// construction or a clone), to create a page the program writes for
    /// the first time, and to grow a buffer to the run's high-water mark.
    /// The BlackJack modes also allocate per trailing packet:
    /// `Dtq::pop_packet` returns a `Vec`, and `safe_shuffle` builds its
    /// slot and outcome vectors (DESIGN §2.11).
    pub fn with_trace(mut self, trace: bool) -> Experiment {
        self.trace = trace;
        self
    }

    /// Routes every run through the snapshot-fork machinery
    /// ([`Core::snapshot`] at cycle 0, then a fork) instead of driving
    /// the constructed core directly. On by default: the figure runs are
    /// fault-free, so there is no prefix to share and no speed to gain
    /// here, but the figures then *prove* restore-exactness on every
    /// benchmark × mode — the tables must be byte-identical either way.
    /// Off is the direct path `tests/determinism.rs` and the benchmark's
    /// expected figures compare against.
    pub fn with_snapshot(mut self, snapshot: bool) -> Experiment {
        self.snapshot = snapshot;
        self
    }

    /// Runs one benchmark in one mode.
    ///
    /// # Panics
    ///
    /// Panics if the run does not complete (fault-free runs must finish).
    pub fn run_one(&self, bench: Benchmark, mode: Mode) -> ModeResult {
        let prog = build(bench, self.scale);
        let mut cfg = self.base.clone();
        cfg.mode = mode;
        let mut core = Core::new(cfg, &prog, FaultPlan::new());
        if self.snapshot {
            // Fork-at-cycle-0: the run goes through the same snapshot
            // machinery the injection campaigns use, so the figure tables
            // continuously re-verify restore-exactness.
            core = core.snapshot().fork(FaultPlan::new());
        }
        if self.trace {
            core.enable_trace();
        }
        let outcome = core.run(MAX_CYCLES);
        assert!(
            outcome.completed(),
            "{bench} in {mode} mode did not complete: {outcome:?}\n{}",
            core.debug_state()
        );
        let trace = core.take_trace();
        ModeResult { bench, mode, stats: core.stats().clone(), outcome, trace }
    }

    /// Runs one benchmark in all four modes.
    pub fn run_benchmark(&self, bench: Benchmark) -> BenchmarkResult {
        let single = self.run_one(bench, Mode::Single);
        let srt = self.run_one(bench, Mode::Srt);
        let ns = self.run_one(bench, Mode::BlackJackNoShuffle);
        let bj = self.run_one(bench, Mode::BlackJack);
        BenchmarkResult { bench, single, srt, ns, bj }
    }

    /// Runs the whole evaluation (16 benchmarks × 4 modes) on
    /// `campaign`. Every (benchmark, mode) pair is one job, so the worker
    /// pool levels load at mode granularity; results reassemble in
    /// benchmark order and are identical for any worker count.
    pub fn run_all_on(&self, campaign: &Campaign) -> ExperimentResult {
        self.assemble(campaign.run(self.jobs()))
    }

    /// [`Experiment::run_all_on`] plus the campaign's per-job scheduling
    /// telemetry (for the `BJ_TRACE` JSONL stream). The experiment
    /// tables are identical to [`Experiment::run_all_on`]'s — only the
    /// timing side-channel is added.
    pub fn run_all_traced_on(&self, campaign: &Campaign) -> (ExperimentResult, CampaignTrace) {
        let jobs = self.jobs().into_iter().map(|j| move |_: &mut Metrics| j()).collect();
        let obs =
            campaign.run_observed(jobs, ObserveOpts { timings: true, ..ObserveOpts::default() });
        (self.assemble(obs.results), obs.trace.expect("timings were requested"))
    }

    /// `"bench/mode"` labels for the flat job list, in job order —
    /// matches [`CampaignTrace::timings`] indices.
    pub fn job_labels() -> Vec<String> {
        Benchmark::ALL
            .iter()
            .flat_map(|&b| Mode::ALL.iter().map(move |&m| format!("{}/{m}", b.name())))
            .collect()
    }

    fn jobs(&self) -> Vec<impl FnOnce() -> ModeResult + Send + use<'_>> {
        Benchmark::ALL
            .iter()
            .flat_map(|&b| Mode::ALL.iter().map(move |&m| (b, m)))
            .map(|(b, m)| move || self.run_one(b, m))
            .collect()
    }

    fn assemble(&self, runs: Vec<ModeResult>) -> ExperimentResult {
        let mut runs = runs.into_iter();
        let rows = Benchmark::ALL
            .iter()
            .map(|&bench| {
                let mut next = |mode: Mode| {
                    let r = runs.next().expect("one run per (benchmark, mode)");
                    assert_eq!((r.bench, r.mode), (bench, mode), "job order");
                    r
                };
                BenchmarkResult {
                    bench,
                    single: next(Mode::Single),
                    srt: next(Mode::Srt),
                    ns: next(Mode::BlackJackNoShuffle),
                    bj: next(Mode::BlackJack),
                }
            })
            .collect();
        ExperimentResult { rows, area: AreaModel::default() }
    }
}

/// One (benchmark, mode) run.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// The benchmark.
    pub bench: Benchmark,
    /// The mode.
    pub mode: Mode,
    /// Full statistics.
    pub stats: SimStats,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The run's observability record, when the experiment was built
    /// [`Experiment::with_trace`].
    pub trace: Option<Box<TraceState>>,
}

/// One benchmark across all four modes.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// The benchmark.
    pub bench: Benchmark,
    /// Non-fault-tolerant baseline.
    pub single: ModeResult,
    /// SRT.
    pub srt: ModeResult,
    /// BlackJack-NS (no shuffle).
    pub ns: ModeResult,
    /// Full BlackJack.
    pub bj: ModeResult,
}

impl BenchmarkResult {
    /// Performance of `mode` normalized to the single-thread baseline
    /// (1.0 = no slowdown), the Figure 7 metric.
    pub fn normalized_perf(&self, mode: Mode) -> f64 {
        let cycles = match mode {
            Mode::Single => self.single.stats.cycles,
            Mode::Srt => self.srt.stats.cycles,
            Mode::BlackJackNoShuffle => self.ns.stats.cycles,
            Mode::BlackJack => self.bj.stats.cycles,
        };
        self.single.stats.cycles as f64 / cycles as f64
    }
}

/// The full 16-benchmark evaluation with figure extractors.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-benchmark rows, in the paper's plotting order.
    pub rows: Vec<BenchmarkResult>,
    /// The area model used for coverage weighting.
    pub area: AreaModel,
}

fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = vals.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

impl ExperimentResult {
    /// Figure 4a series: per-benchmark whole-pipeline coverage for SRT and
    /// BlackJack, in percent.
    pub fn fig4a(&self) -> Vec<(String, f64, f64)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r.bench.name().to_string(),
                    100.0 * r.srt.stats.total_coverage(&self.area),
                    100.0 * r.bj.stats.total_coverage(&self.area),
                )
            })
            .collect()
    }

    /// Figure 4b series: backend-only coverage, in percent.
    pub fn fig4b(&self) -> Vec<(String, f64, f64)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r.bench.name().to_string(),
                    100.0 * r.srt.stats.backend_coverage(),
                    100.0 * r.bj.stats.backend_coverage(),
                )
            })
            .collect()
    }

    /// Figure 5 series: % of issue cycles with trailing-trailing and
    /// leading-trailing diversity-violating interference (BlackJack mode).
    pub fn fig5(&self) -> Vec<(String, f64, f64)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r.bench.name().to_string(),
                    100.0 * r.bj.stats.tt_interference(),
                    100.0 * r.bj.stats.lt_interference(),
                )
            })
            .collect()
    }

    /// Figure 6 series: % of issue cycles issuing from one context
    /// (BlackJack mode).
    pub fn fig6(&self) -> Vec<(String, f64)> {
        self.rows
            .iter()
            .map(|r| (r.bench.name().to_string(), 100.0 * r.bj.stats.burstiness()))
            .collect()
    }

    /// Figure 7 series: performance of SRT, BlackJack-NS, and BlackJack
    /// normalized to single-thread, in percent.
    pub fn fig7(&self) -> Vec<(String, f64, f64, f64)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r.bench.name().to_string(),
                    100.0 * r.normalized_perf(Mode::Srt),
                    100.0 * r.normalized_perf(Mode::BlackJackNoShuffle),
                    100.0 * r.normalized_perf(Mode::BlackJack),
                )
            })
            .collect()
    }

    /// Renders Figure 4 (a and b) as text.
    pub fn fig4_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Figure 4: hard-error instruction coverage (%)\n");
        s.push_str(&format!(
            "{:10} | {:>8} {:>10} | {:>8} {:>10}\n",
            "benchmark", "SRT(4a)", "BJack(4a)", "SRT(4b)", "BJack(4b)"
        ));
        for ((name, s4a, b4a), (_, s4b, b4b)) in self.fig4a().into_iter().zip(self.fig4b()) {
            s.push_str(&format!(
                "{name:10} | {s4a:8.1} {b4a:10.1} | {s4b:8.1} {b4b:10.1}\n"
            ));
        }
        let a = self.fig4a();
        let b = self.fig4b();
        s.push_str(&format!(
            "{:10} | {:8.1} {:10.1} | {:8.1} {:10.1}\n",
            "average",
            mean(a.iter().map(|r| r.1)),
            mean(a.iter().map(|r| r.2)),
            mean(b.iter().map(|r| r.1)),
            mean(b.iter().map(|r| r.2)),
        ));
        s
    }

    /// Renders Figure 5 as text.
    pub fn fig5_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Figure 5: issue cycles with diversity-violating interference (%)\n");
        s.push_str(&format!(
            "{:10} | {:>16} {:>16}\n",
            "benchmark", "trailing-trailing", "leading-trailing"
        ));
        for (name, tt, lt) in self.fig5() {
            s.push_str(&format!("{name:10} | {tt:16.2} {lt:16.2}\n"));
        }
        let f = self.fig5();
        s.push_str(&format!(
            "{:10} | {:16.2} {:16.2}\n",
            "average",
            mean(f.iter().map(|r| r.1)),
            mean(f.iter().map(|r| r.2)),
        ));
        s
    }

    /// Renders Figure 6 as text.
    pub fn fig6_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Figure 6: issue cycles with all instructions from one context (%)\n");
        for (name, burst) in self.fig6() {
            s.push_str(&format!("{name:10} | {burst:6.1}\n"));
        }
        s.push_str(&format!(
            "{:10} | {:6.1}\n",
            "average",
            mean(self.fig6().iter().map(|r| r.1))
        ));
        s
    }

    /// Renders Figure 7 as text.
    pub fn fig7_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Figure 7: performance normalized to single thread (%)\n");
        s.push_str(&format!(
            "{:10} | {:>6} {:>12} {:>10}\n",
            "benchmark", "SRT", "BlackJack-NS", "BlackJack"
        ));
        for (name, srt, ns, bj) in self.fig7() {
            s.push_str(&format!("{name:10} | {srt:6.1} {ns:12.1} {bj:10.1}\n"));
        }
        let f = self.fig7();
        s.push_str(&format!(
            "{:10} | {:6.1} {:12.1} {:10.1}\n",
            "average",
            mean(f.iter().map(|r| r.1)),
            mean(f.iter().map(|r| r.2)),
            mean(f.iter().map(|r| r.3)),
        ));
        s
    }

    /// Aggregate simulator throughput over every run in the evaluation:
    /// `(simulated cycles, in-core wall seconds, cycles per second)`.
    /// Wall time is summed across runs, so this measures the core's own
    /// speed independent of how many campaign workers ran the jobs.
    pub fn throughput(&self) -> (u64, f64, f64) {
        let mut cycles = 0u64;
        let mut nanos = 0u64;
        for r in &self.rows {
            for m in [&r.single, &r.srt, &r.ns, &r.bj] {
                cycles += m.stats.cycles;
                nanos += m.stats.wall_nanos;
            }
        }
        let cps = if nanos == 0 { 0.0 } else { cycles as f64 * 1e9 / nanos as f64 };
        (cycles, nanos as f64 / 1e9, cps)
    }

    /// Headline numbers in the abstract's terms: (SRT coverage %, BlackJack
    /// coverage %, BlackJack slowdown vs SRT %).
    pub fn headline(&self) -> (f64, f64, f64) {
        let srt_cov = mean(self.fig4a().iter().map(|r| r.1));
        let bj_cov = mean(self.fig4a().iter().map(|r| r.2));
        let srt_perf = mean(self.fig7().iter().map(|r| r.1));
        let bj_perf = mean(self.fig7().iter().map(|r| r.3));
        (srt_cov, bj_cov, 100.0 * (1.0 - bj_perf / srt_perf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_benchmark_all_modes() {
        let r = Experiment::new().run_benchmark(Benchmark::Gzip);
        assert!(r.single.outcome.completed());
        assert!(r.srt.outcome.completed());
        assert!(r.ns.outcome.completed());
        assert!(r.bj.outcome.completed());
        // All redundant modes commit the same leading instruction count.
        assert_eq!(r.single.stats.committed[0], r.srt.stats.committed[0]);
        assert_eq!(r.single.stats.committed[0], r.bj.stats.committed[0]);
        // Redundant modes pair every instruction.
        assert_eq!(r.bj.stats.committed[0], r.bj.stats.committed[1]);
        // Performance ordering: single >= srt >= bj.
        assert!(r.normalized_perf(Mode::Srt) <= 1.0);
        assert!(r.normalized_perf(Mode::BlackJack) <= r.normalized_perf(Mode::Srt) + 0.02);
    }

    #[test]
    fn coverage_gap_on_one_benchmark() {
        let r = Experiment::new().run_benchmark(Benchmark::Vortex);
        let area = AreaModel::default();
        let srt = r.srt.stats.total_coverage(&area);
        let bj = r.bj.stats.total_coverage(&area);
        assert!(bj > 0.9, "BlackJack coverage {bj}");
        assert!(srt < 0.6, "SRT coverage {srt}");
        assert_eq!(r.bj.stats.frontend_coverage(), 1.0, "shuffle guarantees the frontend");
        assert_eq!(r.srt.stats.frontend_coverage(), 0.0, "SRT has no frontend diversity");
    }
}
