//! Early-exit speedup benchmark: runs the full `ext_detection` campaign
//! under the PR-6-era snapshot baseline (`BJ_EARLYEXIT=0` semantics:
//! fork-at-injection, every run simulated to its natural end) and under
//! the early-exit path (`BJ_EARLYEXIT=1`, the default), verifies the
//! reports are byte-identical, and records the wall-time ratio in
//! `BENCH_earlyexit.json` (unified bj-bench schema; see
//! [`blackjack_bench::benchfmt`]) together with the per-mechanism
//! attribution (how many runs each of activation / convergence /
//! watchdog cut short). The attribution counts are deterministic for a
//! given config, so the document's `tolerance.exact` gate pins them.
//!
//! The two legs are *interleaved* and each leg's wall time is the
//! minimum over the repetitions: on a thermally-throttling single-CPU
//! host, back-to-back legs can differ 20% on clock drift alone, and the
//! min-of-interleaved estimator is what makes the recorded ratio
//! reproducible rather than an artifact of which leg drew the hot
//! interval.
//!
//! Usage: `cargo run --release -p blackjack-bench --bin bench_earlyexit`
//! (optionally under `BJ_THREADS=n`).

use std::path::Path;
use std::time::Instant;

use blackjack::{envcfg, Campaign, EarlyExitKind};
use blackjack_bench::benchfmt::{self, field, str_field, RunRecord};
use blackjack_bench::detection::{default_benchmarks, run_detection, DetectionConfig};

const REPS: usize = 5;

fn main() {
    let campaign = Campaign::from_env_or_exit();
    let prune =
        envcfg::flag_from_env("BJ_PRUNE", true).unwrap_or_else(|e| envcfg::exit_invalid(&e));
    let benchmarks = default_benchmarks();
    let base = DetectionConfig { prune, snapshot: true, ..DetectionConfig::default() };
    let baseline_cfg = DetectionConfig { early_exit: false, ..base };
    let earlyexit_cfg = DetectionConfig { early_exit: true, ..base };

    let mut baseline_wall = f64::MAX;
    let mut earlyexit_wall = f64::MAX;
    let mut baseline_text = String::new();
    let mut report = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = run_detection(&campaign, baseline_cfg, &benchmarks, false);
        baseline_wall = baseline_wall.min(t.elapsed().as_secs_f64());
        baseline_text = r.text;

        let t = Instant::now();
        let r = run_detection(&campaign, earlyexit_cfg, &benchmarks, false);
        earlyexit_wall = earlyexit_wall.min(t.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one repetition ran");

    assert_eq!(
        baseline_text, report.text,
        "the early-exit path must reproduce the baseline report byte for byte"
    );

    let count = |k: EarlyExitKind| {
        report.early_exits.iter().filter(|e| **e == Some(k)).count()
    };
    let activation = count(EarlyExitKind::Activation);
    let convergence = count(EarlyExitKind::Convergence);
    let watchdog = count(EarlyExitKind::Watchdog);

    let speedup = baseline_wall / earlyexit_wall.max(1e-9);
    let run = RunRecord {
        bench: "earlyexit",
        config: vec![
            str_field("campaign", "ext_detection"),
            field("scale", 1),
            field("workers", campaign.workers()),
            field("jobs", report.tallies.len()),
            field("reps", REPS),
        ],
        checks: vec![field("reports_identical", true)],
        metrics: vec![
            field("baseline_wall_seconds", format!("{baseline_wall:.3}")),
            field("earlyexit_wall_seconds", format!("{earlyexit_wall:.3}")),
            field("speedup", format!("{speedup:.2}")),
            field("early_exits_activation", activation),
            field("early_exits_convergence", convergence),
            field("early_exits_watchdog", watchdog),
            field("early_exits_total", activation + convergence + watchdog),
        ],
        default_tolerance: benchfmt::default_tolerance("earlyexit"),
    };
    let path = Path::new("BENCH_earlyexit.json");
    benchfmt::record(path, run).expect("write BENCH_earlyexit.json");
    print!("{}", std::fs::read_to_string(path).expect("just wrote it"));
    eprintln!("wrote BENCH_earlyexit.json");
}
