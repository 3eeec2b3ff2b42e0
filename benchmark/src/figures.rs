//! `figures`: the paper's whole evaluation — 16 kernels × 4 modes at
//! scale 2, fault-free, on one thread.
//!
//! Nearly all host time is `Core::run` with an empty fault plan, so a
//! hot-loop or fault-hook change shows here while snapshot chains, early
//! exit, pruning and campaign staging are bypassed. Two kernels (equake,
//! swim) walk footprints larger than the 2 MB L2.

use blackjack::faults::AreaModel;
use blackjack::isa::Interp;
use blackjack::sim::{Mode, SimStats};
use blackjack::workloads::{build, Benchmark};
use blackjack::{BenchmarkResult, Campaign, Experiment, ExperimentResult};

use crate::expected::{self, Expected};
use crate::trace::Tracer;
use crate::{Layers, RepOut};

/// Workload scale: twice the harness default, ≈5.3M simulated cycles.
pub const SCALE: u32 = 2;

/// Per-mode metric suffixes, in `Mode::ALL` order.
const MODE_KEYS: [&str; 4] = ["single", "srt", "bjns", "bj"];

/// Checked-against state built before the timed reps.
pub struct Figures {
    /// Golden instruction count per kernel, in `Benchmark::ALL` order:
    /// every mode must commit exactly this many leading instructions.
    golden_icount: Vec<u64>,
    runs: Expected,
}

/// Builds every kernel, runs its golden interpretation, and loads the
/// reference outputs.
pub fn setup(tr: &mut Tracer) -> Figures {
    let golden_icount = Benchmark::ALL
        .iter()
        .map(|&b| {
            let prog = tr.span("workloads.build", |_| build(b, SCALE));
            tr.span("isa.golden", |_| {
                let mut it = Interp::new(&prog);
                it.run(u64::MAX).expect("kernels run fault-free");
                it.icount()
            })
        })
        .collect();
    Figures {
        golden_icount,
        runs: Expected::parse(expected::FIGURES_RUNS),
    }
}

impl Figures {
    /// One rep: the 64 `Experiment::run_one` calls that `run_all_on`
    /// makes on one worker, in its order, made here directly so that
    /// `lap` can end a chunk between kernels; outputs checked. Each run
    /// is an op, and its own `Core::run` stamp (`SimStats::wall_nanos`)
    /// gives the per-mode simulator speed.
    pub fn rep(&self, tr: &mut Tracer, layers: &mut Layers, lap: &mut dyn FnMut()) -> RepOut {
        let exp = Experiment::new().scale(SCALE);
        let mut rows = Vec::with_capacity(Benchmark::ALL.len());
        for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
            if i > 0 {
                lap();
            }
            let [single, srt, ns, bj] =
                Mode::ALL.map(|m| tr.op("experiment.run_one", |_| exp.run_one(bench, m)));
            rows.push(BenchmarkResult {
                bench,
                single,
                srt,
                ns,
                bj,
            });
        }
        let result = ExperimentResult {
            rows,
            area: AreaModel::default(),
        };
        let sim_s = mode_layers(&result, layers);
        tr.span("check", |_| {
            let labelled = run_lines(&result);
            let mut failed = self
                .runs
                .mismatches(labelled.iter().map(|(l, o)| (l.as_str(), o.as_str())));
            for (row, &icount) in result.rows.iter().zip(&self.golden_icount) {
                for r in [&row.single, &row.srt, &row.ns, &row.bj] {
                    failed += u64::from(r.stats.committed[0] != icount);
                }
            }
            if failed == 0 && figure_text(&result) != expected::FIGURES_TEXT {
                failed = 1;
            }
            RepOut {
                ops: labelled.len() as u64,
                failed,
                sim_s,
                attributed_s: sim_s,
            }
        })
    }
}

/// Per-mode simulator speed (simulated cycles per second of `Core::run`)
/// and simulated IPC; returns the summed `Core::run` time in seconds.
fn mode_layers(result: &ExperimentResult, layers: &mut Layers) -> f64 {
    let mut total = 0;
    for (mode, key) in Mode::ALL.iter().zip(MODE_KEYS) {
        let runs: Vec<&SimStats> = result
            .rows
            .iter()
            .flat_map(|row| [&row.single, &row.srt, &row.ns, &row.bj])
            .filter(|r| r.mode == *mode)
            .map(|r| &r.stats)
            .collect();
        let cycles: u64 = runs.iter().map(|s| s.cycles).sum();
        let committed: u64 = runs.iter().map(|s| s.committed[0]).sum();
        let nanos: u64 = runs.iter().map(|s| s.wall_nanos).sum();
        total += nanos;
        layers.insert(
            format!("sim.cycles_per_s.{key}"),
            cycles as f64 * 1e9 / nanos as f64,
        );
        layers.insert(format!("sim.ipc.{key}"), committed as f64 / cycles as f64);
    }
    total as f64 / 1e9
}

/// Per-run reference lines: `bench/mode` and the run's statistics with
/// the host-time fields zeroed.
fn run_lines(result: &ExperimentResult) -> Vec<(String, String)> {
    result
        .rows
        .iter()
        .flat_map(|row| [&row.single, &row.srt, &row.ns, &row.bj])
        .map(|r| {
            (
                format!("{}/{}", r.bench.name(), r.mode),
                stats_line(&r.stats),
            )
        })
        .collect()
}

fn stats_line(stats: &SimStats) -> String {
    let mut s = stats.clone();
    s.wall_nanos = 0;
    s.agg_wall_nanos = 0;
    s.to_json()
}

/// Figures 4–7 and the headline numbers, as `fig_all` prints them.
fn figure_text(r: &ExperimentResult) -> String {
    let (srt_cov, bj_cov, slowdown) = r.headline();
    format!(
        "{}\n{}\n{}\n{}\nheadline: SRT coverage {srt_cov:.1}%, BlackJack coverage {bj_cov:.1}%, \
         BlackJack slowdown vs SRT {slowdown:.1}%\n",
        r.fig4_table(),
        r.fig5_table(),
        r.fig6_table(),
        r.fig7_table()
    )
}

/// Writes the reference outputs from the plain (snapshot-free) path.
pub fn write_expected() -> std::io::Result<()> {
    let result = Experiment::new()
        .scale(SCALE)
        .with_snapshot(false)
        .run_all_on(&Campaign::with_workers(1));
    let lines = run_lines(&result);
    expected::write(
        "figures.tsv",
        &expected::render(lines.iter().map(|(l, o)| (l.as_str(), o.as_str()))),
    )?;
    expected::write("figures.txt", &figure_text(&result))
}
