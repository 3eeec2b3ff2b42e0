//! `inject-hard` and `inject-transient`: the detection campaign over 17
//! kernels × 2 modes × 25 fault sites = 850 injection jobs.
//!
//! * `inject-hard` — hard faults, ECC off, on one worker: the
//!   depth-first path. Most jobs detect within cycles of their fork, so
//!   about half the time is the per-group reference pass and snapshot
//!   chain; it exercises fork, static pruning and activation pruning.
//! * `inject-transient` — transient faults, ECC on, on two workers: the
//!   staged breadth-first path that holds every group's snapshot chain at
//!   once. Most jobs run to completion and the golden-memory compare.
//!
//! `art` is left out: its `srt/art/backend:0` job keeps committing until
//! the 100M-cycle budget (≈70 s), about 20× the rest of the workload.

use blackjack::faults::{DetectionTally, FaultKind, TaxonomyTally};
use blackjack::workloads::{build, Benchmark};
use blackjack::{Campaign, Counter, Gauge, MetricsRegistry};
use blackjack_bench::detection::{
    golden_run, run_detection, run_detection_observed, DetectionConfig, DetectionReport, ObserveCtl,
};

use crate::expected::{self, Expected};
use crate::trace::Tracer;
use crate::{Layers, RepOut};

/// Which of the two campaign workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Hard,
    Transient,
}

impl Variant {
    fn cfg(self) -> DetectionConfig {
        match self {
            Variant::Hard => DetectionConfig::default(),
            Variant::Transient => DetectionConfig {
                kind: FaultKind::Transient,
                ecc: true,
                ..DetectionConfig::default()
            },
        }
    }

    /// Campaign workers a rep runs on.
    pub fn workers(self) -> usize {
        match self {
            Variant::Hard => 1,
            Variant::Transient => 2,
        }
    }

    fn reference(self) -> &'static str {
        match self {
            Variant::Hard => expected::INJECT_HARD,
            Variant::Transient => expected::INJECT_TRANSIENT,
        }
    }

    fn file(self) -> &'static str {
        match self {
            Variant::Hard => "inject-hard.tsv",
            Variant::Transient => "inject-transient.tsv",
        }
    }
}

/// The injected kernels: the paper's 16 minus `art`, plus the two
/// call-bearing kernels.
pub fn kernels() -> Vec<Benchmark> {
    Benchmark::ALL
        .iter()
        .chain(&Benchmark::CALL_KERNELS)
        .copied()
        .filter(|&b| b != Benchmark::Art)
        .collect()
}

/// Checked-against state built before the timed reps.
pub struct Inject {
    variant: Variant,
    kernels: Vec<Benchmark>,
    jobs: Expected,
}

/// Loads the reference verdicts, and builds every kernel and its golden
/// run. `run_detection` takes no prebuilt inputs and builds these again
/// inside every rep, so here they are a standalone measure of the
/// campaign's input-building cost for `setup_s`, not inputs the reps use.
pub fn setup(variant: Variant, tr: &mut Tracer) -> Inject {
    let kernels = kernels();
    for &b in &kernels {
        let prog = tr.span("workloads.build", |_| build(b, 1));
        tr.span("isa.golden", |_| golden_run(&prog));
    }
    Inject {
        variant,
        kernels,
        jobs: Expected::parse(variant.reference()),
    }
}

impl Inject {
    /// One rep: the whole campaign, every job's verdict checked.
    ///
    /// Untraced, `inject-hard` makes one `run_detection` call per kernel,
    /// with `lap` ending a chunk between them: the depth-first path runs
    /// one group at a time anyway, so the calls do the campaign's work.
    /// `inject-transient` is one call, since its staged path holds every
    /// group's snapshot chain at once.
    ///
    /// Traced, the campaign is one call that also returns its per-job
    /// timings (the op latencies) and its metrics registry, whose phase
    /// stamps and event counts are the per-layer numbers. The observed
    /// campaign always stages breadth-first, so on `inject-hard` the
    /// traced rep holds every group's snapshot chain at once where the
    /// untraced reps hold one.
    pub fn rep(&self, tr: &mut Tracer, layers: &mut Layers, lap: &mut dyn FnMut()) -> RepOut {
        let cfg = self.variant.cfg();
        let campaign = Campaign::with_workers(self.variant.workers());
        if !tr.is_on() {
            let per_call = match self.variant {
                Variant::Hard => 1,
                Variant::Transient => self.kernels.len(),
            };
            let mut out = RepOut {
                ops: 0,
                failed: 0,
                sim_s: 0.0,
                attributed_s: 0.0,
            };
            for (i, kernels) in self.kernels.chunks(per_call).enumerate() {
                if i > 0 {
                    lap();
                }
                let (ops, failed) = self.check(&run_detection(&campaign, cfg, kernels, false));
                out.ops += ops;
                out.failed += failed;
            }
            return out;
        }
        let ctl = ObserveCtl {
            traced: true,
            metrics: true,
            ..ObserveCtl::default()
        };
        let report = tr.span("detection.run", |_| {
            run_detection_observed(&campaign, cfg, &self.kernels, ctl)
        });
        for t in &report.trace.as_ref().expect("traced campaign").timings {
            tr.op_sample(t.run);
        }
        let registry = report.metrics.as_ref().expect("observed campaign");
        let worker_s = self.variant.workers() as f64 * tr.total_s("detection.run");
        let (sim_s, attributed_s) = registry_layers(&report, registry, worker_s, layers);
        let (ops, failed) = tr.span("check", |_| self.check(&report));
        RepOut {
            ops,
            failed,
            sim_s: sim_s / self.variant.workers() as f64,
            attributed_s,
        }
    }

    /// `(jobs, jobs whose verdict differs from the reference)`.
    fn check(&self, report: &DetectionReport) -> (u64, u64) {
        let lines = report_lines(report);
        let failed = self
            .jobs
            .mismatches(lines.iter().map(|(l, o)| (l.as_str(), o.as_str())));
        (lines.len() as u64, failed)
    }
}

/// The registry's event counts, phase shares of `worker_s` and verdict
/// counts into `layers`; returns `(simulate, attributed)` worker-seconds.
fn registry_layers(
    report: &DetectionReport,
    r: &MetricsRegistry,
    worker_s: f64,
    layers: &mut Layers,
) -> (f64, f64) {
    let jobs = report.tallies.len() as f64;
    let secs = |c: Counter| r.get(c) as f64 / 1e9;
    let counts = [
        ("snapshot.taken", r.get(Counter::SnapshotsTaken)),
        ("snapshot.refilled", r.get(Counter::SnapshotsRefilled)),
        ("snapshot.retired", r.get(Counter::SnapshotsRetired)),
        (
            "snapshot.peak_retained",
            r.gauge(Gauge::PeakRetainedSnapshots),
        ),
        ("snapshot.forks", r.get(Counter::SnapshotForks)),
        ("snapshot.catchup_cycles", r.get(Counter::ForkCatchupCycles)),
        (
            "detection.early_exit.activation",
            r.get(Counter::PrunedActivation),
        ),
        (
            "detection.early_exit.convergence",
            r.get(Counter::ExitConverged),
        ),
        ("detection.early_exit.watchdog", r.get(Counter::ExitStalled)),
    ];
    for (name, n) in counts {
        layers.insert(name.into(), n as f64);
    }
    let fracs = [
        (
            "analysis.pruned_frac",
            r.get(Counter::PrunedStatic) as f64 / jobs,
        ),
        (
            "detection.simulated_frac",
            r.get(Counter::RunsSimulated) as f64 / jobs,
        ),
        ("detection.setup_frac", secs(Counter::SetupNanos) / worker_s),
        (
            "snapshot.build_frac",
            secs(Counter::SnapshotBuildNanos) / worker_s,
        ),
        (
            "snapshot.fork_frac",
            secs(Counter::SnapshotForkNanos) / worker_s,
        ),
        (
            "detection.oracle_frac",
            secs(Counter::OracleNanos) / worker_s,
        ),
    ];
    for (name, x) in fracs {
        layers.insert(name.into(), x);
    }
    let mut all = DetectionTally::default();
    for (_, t) in &report.tallies {
        all.merge(t);
    }
    let verdicts = [
        ("detected", all.detected),
        ("sdc", all.corrupted),
        ("benign", all.benign),
        ("stuck", all.stuck),
    ];
    for (name, n) in verdicts {
        layers.insert(format!("detection.verdict.{name}"), f64::from(n));
    }
    let attributed = [
        Counter::SetupNanos,
        Counter::SnapshotBuildNanos,
        Counter::SnapshotForkNanos,
        Counter::SimulateNanos,
        Counter::OracleNanos,
        Counter::ReassemblyNanos,
    ]
    .into_iter()
    .map(secs)
    .sum();
    (secs(Counter::SimulateNanos), attributed)
}

/// Every job's `label` and `outcome<TAB>taxonomy`, in job order.
fn report_lines(report: &DetectionReport) -> Vec<(String, String)> {
    report
        .labels
        .iter()
        .zip(report.tallies.iter().zip(&report.taxonomies))
        .map(|(label, ((_, t), (_, x)))| (label.clone(), verdict(t, x)))
        .collect()
}

/// A single job's `outcome<TAB>taxonomy`.
fn verdict(t: &DetectionTally, x: &TaxonomyTally) -> String {
    let outcome = [
        (t.detected, "detected"),
        (t.corrupted, "sdc"),
        (t.benign, "benign"),
        (t.stuck, "stuck"),
    ];
    let taxonomy = [
        (x.ce, "ce"),
        (x.due, "due"),
        (x.sdc, "sdc"),
        (x.benign, "benign"),
    ];
    let pick =
        |xs: &[(u32, &'static str)]| xs.iter().find(|(n, _)| *n > 0).map_or("none", |&(_, s)| s);
    format!("{}\t{}", pick(&outcome), pick(&taxonomy))
}

/// Writes the reference verdicts from the plain replay path: no
/// pruning, no snapshots, no early exit, one worker.
pub fn write_expected(variant: Variant) -> std::io::Result<()> {
    let cfg = DetectionConfig {
        prune: false,
        snapshot: false,
        early_exit: false,
        ..variant.cfg()
    };
    let report = run_detection(&Campaign::with_workers(1), cfg, &kernels(), false);
    let lines = report_lines(&report);
    expected::write(
        variant.file(),
        &expected::render(lines.iter().map(|(l, o)| (l.as_str(), o.as_str()))),
    )
}
