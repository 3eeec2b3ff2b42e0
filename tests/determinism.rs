//! Campaign determinism: the evaluation's output must be bit-identical
//! regardless of how many workers execute it, because results are
//! reassembled in job order (`BJ_THREADS` only changes wall-clock).
//!
//! Uses `Campaign::with_workers` rather than the `BJ_THREADS` environment
//! variable so parallel test binaries never race on the process
//! environment.

use blackjack::{Campaign, Experiment, ExperimentResult};

fn tables(r: &ExperimentResult) -> String {
    let (srt_cov, bj_cov, slowdown) = r.headline();
    format!(
        "{}{}{}{}headline: {srt_cov:.6} {bj_cov:.6} {slowdown:.6}\n",
        r.fig4_table(),
        r.fig5_table(),
        r.fig6_table(),
        r.fig7_table(),
    )
}

#[test]
fn experiment_tables_identical_across_worker_counts() {
    let exp = Experiment::new();
    let serial = tables(&exp.run_all_on(&Campaign::with_workers(1)));
    let parallel = tables(&exp.run_all_on(&Campaign::with_workers(8)));
    assert_eq!(serial, parallel, "worker count changed the evaluation's output");
}

#[test]
fn experiment_tables_identical_across_snapshot_paths() {
    // The snapshot-fork machinery (`Experiment::with_snapshot`) must be
    // invisible in every report: tables from forked cores match direct
    // cores. One cross-pair (direct @ 1 worker vs forked @ 8) suffices —
    // combined with the worker-count test above (which runs the default,
    // forked, path at 1 and 8 workers), every (path, workers)
    // combination is pinned by transitivity.
    let direct =
        tables(&Experiment::new().with_snapshot(false).run_all_on(&Campaign::with_workers(1)));
    let forked =
        tables(&Experiment::new().with_snapshot(true).run_all_on(&Campaign::with_workers(8)));
    assert_eq!(forked, direct, "snapshot path changed the evaluation's output");
}
