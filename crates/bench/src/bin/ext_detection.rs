//! Extension experiment (not a paper figure): empirical detection rate
//! under injected wear-out faults, per fault site, for SRT and BlackJack.
//!
//! Thin shell over [`blackjack_bench::detection`]: each (mode, benchmark)
//! group runs its fault-free prefix once to fix the wear-out arming
//! schedule, then fans one injection job per fault site over the campaign
//! pool. The jobs fork from snapshots of the shared prefix, skip sites
//! static analysis proves never exercised, and stop the moment their
//! verdict is decided; the report is byte-identical to the library's plain
//! replay path (every run from cycle 0 to its natural end), and for any
//! `BJ_THREADS`. The sweep runs at workload scale 1 whatever `BJ_SCALE`
//! says.
//!
//! `--bench <name>` restricts the sweep to one benchmark (used by
//! EXPERIMENTS.md's `bj-trace top` capture). `BJ_FAULT_KINDS` (comma list: `hard`, `transient`,
//! `intermittent[:PERIOD:ON]`) runs one campaign per temporal fault
//! model — the default is the byte-stable hard-fault sweep alone.
//! `BJ_ECC=1` turns on the LVQ SEC-DED layer in every run; each report
//! carries the CE/DUE/SDC taxonomy beneath the legacy table.
//! With `BJ_TRACE=<path>` set, `<path>` receives per-job scheduling
//! telemetry, a live `progress` record every second, the campaign's
//! metrics registry (which `bj-trace top` also reads the per-phase
//! wall-time attribution from), and a flight-recorder pipetrace of the
//! first detected injection (render with `bj-trace` and `bj-trace
//! top`); stdout stays byte-identical. Without it nothing is recorded.
//! Wall-clock goes to stderr so stdout is fully deterministic.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use blackjack::sim::{Core, RunOutcome};
use blackjack::telemetry::TraceWriter;
use blackjack::workloads::build;
use blackjack::{envcfg, out, outln, Campaign, ProgressHook, ProgressTick};
use blackjack_bench::detection::{
    armed_plan_kind, benchmarks_from_args, run_detection_observed, DetectionConfig, ObserveCtl,
    MAX_CYCLES,
};

/// Wall-clock between live `progress` records on the `BJ_TRACE` stream.
const PROGRESS_EVERY: Duration = Duration::from_secs(1);

fn main() {
    let writer = TraceWriter::from_env_or_exit("ext_detection");
    let campaign = Campaign::from_env_or_exit();
    let kinds = envcfg::FAULT_KINDS.fault_kinds();
    let mut cfg = DetectionConfig::from_env_or_exit();
    cfg.kind = kinds[0];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let benchmarks = benchmarks_from_args(&args);

    let t0 = Instant::now();
    // The stream is the one telemetry switch: with it, the campaign
    // records its metrics and ticks progress onto it, the workers sharing
    // the writer for the campaign's duration.
    let traced = writer.is_some();
    let writer = writer.map(Mutex::new);
    let emit = |t: &ProgressTick| {
        if let Some(w) = &writer {
            w.lock().expect("trace writer poisoned").emit_progress(t);
        }
    };
    let hook = ProgressHook::new(PROGRESS_EVERY, &emit);
    let report = run_detection_observed(
        &campaign,
        cfg,
        &benchmarks,
        ObserveCtl { traced, metrics: traced, progress: traced.then_some(&hook) },
    );
    let wall = t0.elapsed();
    let mut writer = writer.map(|w| w.into_inner().expect("trace writer poisoned"));
    out!("{}", report.text);

    // Any further BJ_FAULT_KINDS entries run their own campaign; the
    // first kind keeps the full observability surface (telemetry,
    // metrics, the flight re-run below), the rest report plain.
    for &kind in &kinds[1..] {
        let extra = run_detection_observed(
            &campaign,
            DetectionConfig { kind, ..cfg },
            &benchmarks,
            ObserveCtl::default(),
        );
        outln!();
        out!("{}", extra.text);
    }

    if let (Some(w), Some(sched)) = (writer.as_mut(), report.trace.as_ref()) {
        w.emit_campaign(sched, &report.labels);
        // Re-run the first detected injection with the flight recorder
        // on — one extra cheap run buys a full pipetrace of the
        // detection without perturbing any campaign job.
        if let Some(i) = report.tallies.iter().position(|(_, t)| t.detected > 0) {
            let m = report.meta[i];
            let prog = build(m.bench, 1);
            let mut core = Core::new(
                cfg.core_config(m.mode),
                &prog,
                armed_plan_kind(m.site, m.arm, cfg.kind),
            );
            core.enable_trace();
            let outcome = core.run(MAX_CYCLES);
            let state = core.take_trace().expect("tracing was enabled");
            w.emit_run(&report.labels[i], core.stats(), Some(&state));
            w.emit_heatmap(&report.labels[i], &state.heat);
            w.emit_flight(&state.flight.events());
            if let RunOutcome::Detected(ev) = &outcome {
                w.emit_detection(ev);
            }
        }
    }
    if let (Some(w), Some(r)) = (writer.as_mut(), report.metrics.as_ref()) {
        w.emit_metrics(r);
    }

    outln!(
        "\nExpected shape: BlackJack converts SRT's silent corruptions into\n\
         detections. `benign` counts faults the program never exercised —\n\
         the same reason manufacturing test misses them. A `stuck` run is a\n\
         fault that wedged a thread; the watchdog reported it (in hardware,\n\
         a timeout is itself a detection)."
    );
    let early: usize = report.early_exits.iter().filter(|e| e.is_some()).count();
    eprintln!(
        "[{} injection runs in {:.1?}; {} workers; {early} runs cut short by early exit]",
        report.tallies.len(),
        wall,
        campaign.workers(),
    );
}
