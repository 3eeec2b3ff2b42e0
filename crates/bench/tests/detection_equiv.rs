//! Detection-campaign equivalence: the `ext_detection` report must be
//! byte-identical with the snapshot-fork path on or off, with the
//! early-exit layer on or off, and for any worker count — the hard
//! requirement on both campaign optimizations. One benchmark keeps the
//! test fast; the full sweep's equivalence is re-checked by `verify.sh`,
//! `bench_snapshot` and `bench_earlyexit`.

use blackjack::faults::FaultKind;
use blackjack::workloads::Benchmark;
use blackjack::{Campaign, EarlyExitKind};
use blackjack_bench::detection::{run_detection, DetectionConfig};

fn cfg(snapshot: bool, early_exit: bool) -> DetectionConfig {
    DetectionConfig { prune: true, snapshot, early_exit, ..DetectionConfig::default() }
}

#[test]
fn report_identical_across_paths_and_worker_counts() {
    let benches = [Benchmark::Gzip];
    // Baseline: the slowest, most literal path — replay from cycle 0,
    // every run to its natural end, one worker.
    let base = run_detection(&Campaign::with_workers(1), cfg(false, false), &benches, false);
    assert!(!base.text.is_empty());
    assert!(base.early_exits.iter().all(|e| e.is_none()), "early exit off means none attributed");
    for (snapshot, early_exit, workers) in [
        (false, false, 8),
        (true, false, 1),
        (true, false, 8),
        (false, true, 1),
        (true, true, 1),
        (true, true, 8),
    ] {
        let got =
            run_detection(&Campaign::with_workers(workers), cfg(snapshot, early_exit), &benches, false);
        let which = format!("snapshot={snapshot} early_exit={early_exit} workers={workers}");
        assert_eq!(got.text, base.text, "{which} changed the report");
        assert_eq!(got.tallies, base.tallies, "{which}");
        assert_eq!(got.taxonomies, base.taxonomies, "{which} changed the CE/DUE/SDC split");
        assert_eq!(got.meta, base.meta, "arming schedules must not depend on the path");
    }
}

#[test]
fn transient_and_intermittent_reports_are_worker_deterministic() {
    // The temporal fault models ride the same campaign machinery, with
    // the ECC layer on so the CE column is live; the report (legacy
    // table and taxonomy both) must not depend on the worker count or
    // on the snapshot/early-exit path.
    let benches = [Benchmark::Gzip];
    for kind in [FaultKind::Transient, FaultKind::Intermittent { period: 64, on: 8 }] {
        let mk = |snapshot, early_exit| DetectionConfig {
            kind,
            ecc: true,
            ..cfg(snapshot, early_exit)
        };
        let base = run_detection(&Campaign::with_workers(1), mk(true, true), &benches, false);
        assert!(!base.text.is_empty());
        // Worker-count determinism on the fast path for both kinds; the
        // expensive replay-from-zero cross-check once, on the transient
        // campaign (the hard-fault slow path is covered above).
        let mut others = vec![(true, true, 8)];
        if kind == FaultKind::Transient {
            others.push((false, false, 1));
        }
        for (snapshot, early_exit, workers) in others {
            let got =
                run_detection(&Campaign::with_workers(workers), mk(snapshot, early_exit), &benches, false);
            let which =
                format!("{kind:?} snapshot={snapshot} early_exit={early_exit} workers={workers}");
            assert_eq!(got.text, base.text, "{which} changed the report");
            assert_eq!(got.taxonomies, base.taxonomies, "{which} changed the CE/DUE/SDC split");
        }
    }
}

#[test]
fn early_exit_attributes_runs_without_touching_the_tallies() {
    let benches = [Benchmark::Gzip];
    let c = Campaign::with_workers(8);
    let fast =
        run_detection(&c, DetectionConfig { prune: false, ..cfg(true, true) }, &benches, false);
    // Attribution rides beside the tallies, one entry per job.
    assert_eq!(fast.early_exits.len(), fast.tallies.len());
    // An activation-pruned run is benign by construction, and never
    // carries the static-prune marker (pruning was off).
    let mut activations: u32 = 0;
    for (e, (_, t)) in fast.early_exits.iter().zip(&fast.tallies) {
        if *e == Some(EarlyExitKind::Activation) {
            activations += 1;
            assert_eq!((t.benign, t.pruned, t.total()), (1, 0, 1));
        }
    }
    // With static pruning off, every statically dead site is still dead
    // dynamically, so mechanism 1 must claim at least those runs with
    // zero simulation.
    let statically_dead: u32 = run_detection(&c, cfg(true, true), &benches, false)
        .tallies
        .iter()
        .map(|(_, t)| t.pruned)
        .sum();
    assert!(statically_dead > 0, "gzip should have statically dead ways");
    assert!(
        activations >= statically_dead,
        "activation pruning claimed {activations} runs, fewer than the {statically_dead} \
         statically dead sites"
    );
}

#[test]
fn pruning_does_not_change_the_tally_table() {
    // Pruned sites are tallied benign without simulating; the per-mode
    // table must match the fully simulated sweep on both paths.
    let benches = [Benchmark::Gzip];
    let c = Campaign::with_workers(8);
    let full = run_detection(&c, DetectionConfig { prune: false, ..cfg(true, true) }, &benches, false);
    let pruned = run_detection(&c, cfg(true, true), &benches, false);
    for ((fm, f), (pm, p)) in full.tallies.iter().zip(&pruned.tallies) {
        assert_eq!(fm, pm);
        // The `pruned` marker legitimately differs; the outcome must not.
        assert_eq!(
            (f.detected, f.corrupted, f.benign, f.stuck),
            (p.detected, p.corrupted, p.benign, p.stuck),
            "a pruned site's outcome diverged from its simulated run"
        );
    }
}
