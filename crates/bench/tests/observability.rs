//! Observability-layer invariants: the metrics registry's merge algebra
//! must make the deterministic prefix worker-count-invariant, metrics
//! must be invisible in the report, and the progress hook must tick with
//! the registry's live counts.
//!
//! These are the campaign-level complements of the unit tests in
//! `blackjack::metrics` (algebra on one registry) and
//! `blackjack::telemetry` (record shapes and the nondet-strip contract).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use blackjack::workloads::Benchmark;
use blackjack::{
    Campaign, Counter, Metrics, MetricsRegistry, ObserveOpts, ProgressHook, ProgressTick,
};
use blackjack_bench::detection::{
    run_detection, run_detection_observed, sites, DetectionConfig, ObserveCtl, MODES,
};

/// Runs the same synthetic job set at the given worker count and returns
/// its registry's deterministic JSON.
fn engine_metrics_at(workers: usize) -> String {
    let jobs: Vec<_> = (0..24u64)
        .map(|i| {
            move |m: &mut Metrics| {
                // Schedule-dependent work split, schedule-invariant facts:
                // counters and histograms sum, so the order jobs retire
                // in cannot change the registry.
                m.inc(Counter::RunsSimulated);
                m.add(Counter::SnapshotForks, i % 3);
                m.record_catchup(i * 1000);
                i
            }
        })
        .collect();
    let registry = Mutex::new(MetricsRegistry::new());
    let obs = Campaign::with_workers(workers).run_observed(
        jobs,
        ObserveOpts { timings: false, metrics: Some(&registry), progress: None },
    );
    assert_eq!(obs.results, (0..24).collect::<Vec<_>>());
    registry.into_inner().unwrap().deterministic_json()
}

#[test]
fn registry_is_byte_identical_across_worker_counts() {
    let one = engine_metrics_at(1);
    let eight = engine_metrics_at(8);
    assert_eq!(one, eight, "metrics merge must not see the schedule");
    // And the registry saw the work: 24 runs, sum(i % 3) forks.
    assert!(one.contains("\"runs_simulated\":24"), "{one}");
}

#[test]
fn detection_metrics_deterministic_prefix_is_worker_count_invariant() {
    let benches = [Benchmark::Gzip];
    let cfg = DetectionConfig::default();
    let at = |workers: usize| {
        let r = run_detection_observed(
            &Campaign::with_workers(workers),
            cfg,
            &benches,
            ObserveCtl { metrics: true, ..Default::default() },
        );
        let registry = r.metrics.expect("metrics were requested");
        // Only injection jobs are engine jobs; group setups count apart.
        let groups = MODES.len() * benches.len();
        let which = format!("{workers} workers");
        assert_eq!(registry.get(Counter::Jobs), (groups * sites().len()) as u64, "{which}");
        assert_eq!(registry.get(Counter::Setups), groups as u64, "{which}");
        registry.deterministic_json()
    };
    // The one config fact that legitimately differs — the workers gauge,
    // recorded post-merge — is normalized away; everything else must
    // match byte for byte.
    let normalize = |json: String, workers: usize| {
        json.replace(&format!("\"workers\":{workers}"), "\"workers\":N")
    };
    assert_eq!(normalize(at(1), 1), normalize(at(8), 8));
}

#[test]
fn metrics_and_progress_do_not_change_the_report() {
    let benches = [Benchmark::Gzip];
    let cfg = DetectionConfig::default();
    let emit = |_: &ProgressTick| {};
    let hook = ProgressHook::new(Duration::ZERO, &emit);
    for workers in [8, 1] {
        let c = Campaign::with_workers(workers);
        let plain = run_detection(&c, cfg, &benches, false);
        let observed = run_detection_observed(
            &c,
            cfg,
            &benches,
            ObserveCtl { traced: true, metrics: true, progress: Some(&hook) },
        );
        let which = format!("{workers} workers");
        assert_eq!(plain.text, observed.text, "{which}: observation must be report-invisible");
        assert_eq!(plain.tallies, observed.tallies, "{which}");
        assert_eq!(plain.early_exits, observed.early_exits, "{which}");
        assert!(plain.metrics.is_none());
        assert!(observed.metrics.is_some());
        let trace = observed.trace.expect("trace was requested");
        assert_eq!(trace.timings.len(), observed.tallies.len(), "{which}: one timing per job");
    }
}

#[test]
fn progress_hook_ticks_and_finishes_with_done() {
    // More jobs than workers, fewer jobs than workers, and no jobs: the
    // final tick always carries one busy slot per configured worker.
    for n in [16, 2, 0] {
        let ticks: Mutex<Vec<ProgressTick>> = Mutex::new(Vec::new());
        let emit = |t: &ProgressTick| ticks.lock().unwrap().push(t.clone());
        // Zero cadence: every job completion is past the deadline, so any
        // job makes the engine tick before the guaranteed final tick.
        let hook = ProgressHook::new(Duration::ZERO, &emit);
        let spun = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..n)
            .map(|_| {
                |_: &mut Metrics| {
                    spun.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        Campaign::with_workers(4).run_observed(
            jobs,
            ObserveOpts { timings: false, metrics: None, progress: Some(&hook) },
        );
        let ticks = ticks.into_inner().unwrap();
        assert_eq!(spun.load(Ordering::Relaxed), n);
        assert!(ticks.len() >= if n > 0 { 2 } else { 1 }, "{n} jobs: {ticks:?}");
        let last = ticks.last().unwrap();
        assert!(last.done, "the final tick must carry done=true");
        assert_eq!((last.jobs_done, last.jobs_total), (n, n));
        assert_eq!(last.workers, 4);
        assert_eq!(last.busy.len(), 4, "{n} jobs: one busy slot per configured worker");
        // Monotone progress: jobs_done never decreases across ticks.
        assert!(ticks.windows(2).all(|w| w[0].jobs_done <= w[1].jobs_done));
        // Exactly one done-tick, and it is the last.
        assert_eq!(ticks.iter().filter(|t| t.done).count(), 1);
        assert!(ticks.iter().all(|t| t.metrics.is_none()), "no registry, no copy");
    }
}

/// The five counters a `progress` record carries, in its field order:
/// runs, forked runs, early exits (activation, convergence), snapshots
/// taken.
const PROGRESS_COUNTERS: [Counter; 5] = [
    Counter::RunsSimulated,
    Counter::SnapshotForks,
    Counter::PrunedActivation,
    Counter::ExitConverged,
    Counter::SnapshotsTaken,
];

fn progress_counts(r: &MetricsRegistry) -> [u64; 5] {
    PROGRESS_COUNTERS.map(|c| r.get(c))
}

#[test]
fn live_ticks_read_the_registry() {
    let benches = [Benchmark::Gzip];
    let mut finals = Vec::new();
    for workers in [1, 8] {
        let which = format!("{workers} workers");
        let ticks: Mutex<Vec<ProgressTick>> = Mutex::new(Vec::new());
        let emit = |t: &ProgressTick| ticks.lock().unwrap().push(t.clone());
        // Zero cadence: a tick at every job boundary.
        let hook = ProgressHook::new(Duration::ZERO, &emit);
        let report = run_detection_observed(
            &Campaign::with_workers(workers),
            DetectionConfig::default(),
            &benches,
            ObserveCtl { metrics: true, progress: Some(&hook), ..Default::default() },
        );
        let ticks = ticks.into_inner().unwrap();
        assert!(ticks.len() > 1, "{which}: {} ticks", ticks.len());
        let counts: Vec<[u64; 5]> = ticks
            .iter()
            .map(|t| progress_counts(t.metrics.as_ref().expect("every tick carries a registry")))
            .collect();
        for w in counts.windows(2) {
            let rising = w[0].iter().zip(&w[1]).all(|(a, b)| a <= b);
            assert!(rising, "{which}: {:?} -> {:?}", w[0], w[1]);
        }
        // The final tick is the registry the report returns.
        let last = ticks.last().unwrap();
        assert!(last.done, "{which}");
        let registry = report.metrics.expect("metrics were requested");
        assert_eq!(counts.last(), Some(&progress_counts(&registry)), "{which}");
        let det = |r: &MetricsRegistry| -> Vec<u64> {
            Counter::ALL.iter().filter(|c| !c.nondet()).map(|&c| r.get(c)).collect()
        };
        assert_eq!(det(last.metrics.as_ref().unwrap()), det(&registry), "{which}");
        assert!(registry.get(Counter::SnapshotsTaken) > 0, "{which}: the chains were counted");
        finals.push(det(&registry));
    }
    // Setup work counts on any number of workers: each group's setup
    // merges into the registry as it retires, whichever worker built it
    // and whatever ran beside it, and both tally the same.
    assert_eq!(finals[0], finals[1], "1 vs 8 workers");
}

/// The gzip counts of the `bj-trace top` capture in EXPERIMENTS.md
/// ("Campaign observability", generated by `fig_all`), taken with
/// `BJ_THREADS=1 BJ_TRACE=t.jsonl ext_detection --bench gzip`. A change
/// that moves any of them must retake that capture.
#[test]
fn gzip_counts_match_the_experiments_capture() {
    let report = run_detection_observed(
        &Campaign::with_workers(1),
        DetectionConfig::default(),
        &[Benchmark::Gzip],
        ObserveCtl { metrics: true, ..Default::default() },
    );
    let r = report.metrics.as_ref().expect("metrics were requested");
    let got = |c: Counter| r.get(c);
    // 50/50 jobs, runs 27, forked 27/27, early exits 3/0.
    assert_eq!(report.tallies.len(), 50);
    assert_eq!(got(Counter::Jobs), 50);
    assert_eq!(progress_counts(r), [27, 27, 3, 0, 88], "runs, forks, exits, snapshots");
    assert_eq!(got(Counter::SnapshotsRefilled), 0, "every snapshot is taken fresh");
    assert_eq!(got(Counter::ExitStalled), 0, "early exit has no stall exit");
    // The chains keep only the donors of the 27 forked arms (25
    // snapshots: some arms share one); every other snapshot retires.
    assert_eq!(got(Counter::SnapshotsTaken) - got(Counter::SnapshotsRetired), 25, "donors held");
    // Pruned 23: static 20, activation 3.
    assert_eq!((got(Counter::PrunedStatic), got(Counter::PrunedActivation)), (20, 3));
    // Exit reasons: completed 5, detected 22, nothing else.
    let exits = [
        Counter::ExitCompleted,
        Counter::ExitDetected,
        Counter::ExitCycleLimit,
        Counter::ExitConverged,
    ]
    .map(got);
    assert_eq!(exits, [5, 22, 0, 0]);
    assert_eq!(report.early_exits.iter().filter(|e| e.is_some()).count(), 3);
}

/// The campaign wall the `campaign` record and `bj-trace top` show spans
/// the whole call, group setups included, not only the injection jobs:
/// on eight workers gzip's two groups build in parallel, each before its
/// jobs run, so the wall is at least half their summed setup and
/// chain-building time.
#[test]
fn campaign_wall_covers_the_setup_pass() {
    let report = run_detection_observed(
        &Campaign::with_workers(8),
        DetectionConfig::default(),
        &[Benchmark::Gzip],
        ObserveCtl { traced: true, metrics: true, ..Default::default() },
    );
    let r = report.metrics.as_ref().expect("metrics were requested");
    let setup = Duration::from_nanos(
        r.get(Counter::SetupNanos) + r.get(Counter::SnapshotBuildNanos),
    );
    let wall = report.trace.as_ref().expect("trace was requested").wall;
    assert_eq!(r.get(Counter::Setups), 2);
    assert!(wall >= setup / 2, "campaign wall {wall:?} below half of {setup:?} of setup");
}
