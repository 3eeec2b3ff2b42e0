//! Observability-layer invariants: the metrics registry's merge algebra
//! must make the deterministic prefix worker-count-invariant, metrics
//! must be invisible in the report, and the progress hook must tick.
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

fn merged(shards: &[MetricsRegistry]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for s in shards {
        m.merge(s);
    }
    m
}

/// Runs the same synthetic job set at the given worker count and returns
/// the merged shards' deterministic JSON.
fn engine_metrics_at(workers: usize) -> String {
    let jobs: Vec<_> = (0..24u64)
        .map(|i| {
            move |m: &mut Metrics| {
                // Schedule-dependent work split, schedule-invariant facts:
                // counters and histograms sum, so any partition of the
                // jobs over shards merges to the same registry.
                m.inc(Counter::RunsSimulated);
                m.add(Counter::SnapshotForks, i % 3);
                m.record_catchup(i * 1000);
                i
            }
        })
        .collect();
    let obs = Campaign::with_workers(workers)
        .run_observed(jobs, ObserveOpts { timings: false, metrics: true, progress: None });
    assert_eq!(obs.results, (0..24).collect::<Vec<_>>());
    merged(&obs.shards).deterministic_json()
}

#[test]
fn merged_shards_are_byte_identical_across_worker_counts() {
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
        // Only injection jobs are engine jobs; group setups count apart,
        // whichever schedule the worker count picked.
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
    for workers in [8, 1] {
        let c = Campaign::with_workers(workers);
        let plain = run_detection(&c, cfg, &benches, false);
        let observed = run_detection_observed(
            &c,
            cfg,
            &benches,
            ObserveCtl { traced: true, metrics: true, ..Default::default() },
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
            ObserveOpts { timings: false, metrics: false, progress: Some(&hook) },
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
    }
}
