//! The equivalence matrix: every campaign acceleration must leave the
//! `ext_detection` report byte-identical to the plain replay path.
//!
//! The reference, per kernel, is the most literal path: snapshots off
//! (every run replays from cycle 0), early exit off (every run goes to
//! its natural end), one worker, hard faults, static pruning on. Each
//! cell runs the kernel's campaign again and compares the report text,
//! the per-job tallies and CE/DUE/SDC taxonomies, and the per-job
//! metadata (the arming schedule) with it:
//!
//! * snapshot × early exit × workers ∈ {(on, off, 8), (off, on, 1),
//!   (on, on, 1), (on, on, 8)};
//! * static pruning off, where only the `pruned_sites` block and the
//!   per-job pruned marker may differ;
//! * transient and intermittent faults with ECC on, on gzip and equake:
//!   8 workers against 1, plus a replay cross-check of the transient
//!   campaign;
//! * the whole default sweep in one campaign (8 groups) on 2 and 3
//!   workers against 1, registry included. One kernel is 2 groups, which
//!   any worker count builds before its jobs run; 8 groups on fewer
//!   workers build some groups while other groups' jobs run.
//!
//! The kernels are the default sweep (gzip, fma3d, vortex, apsi) and
//! every other kernel the benchmark's `inject-*` workloads inject into,
//! among them three that stress the fork path: equake touches 1,192
//! memory pages and many L2 sets, gcc's uop slab is cut deepest by a
//! snapshot, and perlbmk and parser call and return. Art is left out:
//! its `srt/art/backend:0` replay runs to the 100M-cycle budget (about
//! 70 s in release).
//!
//! Equal reports cannot tell a working optimisation from a silently
//! disabled one, so the cells run with the metrics registry on (which
//! also checks that observing a campaign leaves its report alone) and
//! the matrix pins counts only a working one produces: every simulated
//! run of a snapshot cell is a fork, and early exit cuts exactly the
//! runs listed in [`CELLS`] on the default sweep.
//!
//! The harness has no switch for any of these paths, so the matrix is the
//! only check of the replay path. It takes about a minute in release and
//! far longer in debug, so the debug suite skips it; `scripts/verify.sh` runs it with
//! `cargo test --release --offline -p blackjack-bench --test detection_equiv`.

use blackjack::faults::FaultKind;
use blackjack::workloads::Benchmark;
use blackjack::{Campaign, Counter, EarlyExitKind};
use blackjack_bench::detection::{
    default_benchmarks, run_detection, run_detection_observed, DetectionConfig, DetectionReport,
    ObserveCtl,
};

/// The kernels outside the default sweep the matrix also covers.
const EXTRA_KERNELS: [Benchmark; 13] = [
    Benchmark::Equake,
    Benchmark::Gcc,
    Benchmark::Perlbmk,
    Benchmark::Swim,
    Benchmark::Mgrid,
    Benchmark::Applu,
    Benchmark::Facerec,
    Benchmark::Wupwise,
    Benchmark::Bzip,
    Benchmark::Crafty,
    Benchmark::Eon,
    Benchmark::Sixtrack,
    Benchmark::Parser,
];

/// Each cell's (snapshot, early exit, workers), and the counts it must
/// reach summed over the default sweep: runs cut short by activation
/// pruning and by the convergence seal, snapshot forks, and runs
/// simulated. Of the sweep's 200 jobs, 68 are statically pruned.
const CELLS: [((bool, bool, usize), [u64; 4]); 4] = [
    ((true, false, 8), [0, 0, 132, 132]),
    ((false, true, 1), [24, 0, 0, 108]),
    ((true, true, 1), [24, 0, 108, 108]),
    ((true, true, 8), [24, 0, 108, 108]),
];

fn cfg(snapshot: bool, early_exit: bool) -> DetectionConfig {
    DetectionConfig { snapshot, early_exit, ..DetectionConfig::default() }
}

/// The registry's deterministic prefix, with the one config fact that
/// legitimately differs — the workers gauge, recorded post-merge —
/// normalized away.
fn registry_prefix(report: &DetectionReport, workers: usize) -> String {
    let json = report.metrics.as_ref().expect("the cell ran with metrics on").deterministic_json();
    json.replace(&format!("\"workers\":{workers}"), "\"workers\":N")
}

/// The plain replay path on one worker, metrics off.
fn replay(bench: Benchmark, cfg: DetectionConfig) -> DetectionReport {
    let cfg = DetectionConfig { snapshot: false, early_exit: false, ..cfg };
    run_detection(&Campaign::with_workers(1), cfg, &[bench], false)
}

/// One cell's campaign, metrics on.
fn observed(bench: Benchmark, cfg: DetectionConfig, workers: usize) -> DetectionReport {
    let ctl = ObserveCtl { metrics: true, ..ObserveCtl::default() };
    run_detection_observed(&Campaign::with_workers(workers), cfg, &[bench], ctl)
}

fn count(report: &DetectionReport, c: Counter) -> u64 {
    report.metrics.as_ref().expect("the cell ran with metrics on").get(c)
}

fn assert_same(got: &DetectionReport, want: &DetectionReport, which: &str) {
    assert_eq!(got.text, want.text, "{which}: report text");
    assert_eq!(got.tallies, want.tallies, "{which}: tallies");
    assert_eq!(got.taxonomies, want.taxonomies, "{which}: CE/DUE/SDC taxonomies");
    assert_eq!(got.meta, want.meta, "{which}: arming schedule");
}

/// Runs every hard-fault cell on `bench` against the kernel's reference
/// and returns each [`CELLS`] entry's counts, in order.
fn check_hard_fault_cells(bench: Benchmark) -> [[u64; 4]; CELLS.len()] {
    let reference = replay(bench, DetectionConfig::default());
    assert!(reference.early_exits.iter().all(Option::is_none), "{bench}: early exit was off");
    let cell_counts = CELLS.map(|((snapshot, early_exit, workers), _)| {
        let which =
            format!("{bench} snapshot={snapshot} early_exit={early_exit} workers={workers}");
        let got = observed(bench, cfg(snapshot, early_exit), workers);
        assert_same(&got, &reference, &which);
        let exits = |k| got.early_exits.iter().filter(|e| **e == Some(k)).count() as u64;
        let forks = count(&got, Counter::SnapshotForks);
        let runs = count(&got, Counter::RunsSimulated);
        assert_eq!(forks, if snapshot { runs } else { 0 }, "{which}: forks");
        [exits(EarlyExitKind::Activation), exits(EarlyExitKind::Convergence), forks, runs]
    });

    // Static pruning off: the simulated sites reach the verdicts the
    // pruned ones were tallied with, and early exit's activation pruning
    // claims at least every statically dead site.
    let which = format!("{bench} prune=false");
    let unpruned = observed(bench, DetectionConfig { prune: false, ..cfg(true, true) }, 8);
    let rows = |r: &DetectionReport| {
        let end = r.text.find("\npruned_sites").expect("the report ends with pruned_sites");
        r.text[..end].to_string()
    };
    assert_eq!(rows(&unpruned), rows(&reference), "{which}: report rows");
    let outcomes = |r: &DetectionReport| -> Vec<_> {
        r.tallies.iter().map(|(m, t)| (*m, t.detected, t.corrupted, t.benign, t.stuck)).collect()
    };
    assert_eq!(outcomes(&unpruned), outcomes(&reference), "{which}: tallies");
    assert_eq!(unpruned.taxonomies, reference.taxonomies, "{which}: CE/DUE/SDC taxonomies");
    assert_eq!(unpruned.meta, reference.meta, "{which}: arming schedule");
    let mut activations = 0;
    for (e, (_, t)) in unpruned.early_exits.iter().zip(&unpruned.tallies) {
        assert_eq!(t.pruned, 0, "{which}: a site was statically pruned");
        if *e == Some(EarlyExitKind::Activation) {
            activations += 1;
            assert_eq!((t.benign, t.total()), (1, 1), "{which}: an activation-pruned run");
        }
    }
    let statically_dead: u32 = reference.tallies.iter().map(|(_, t)| t.pruned).sum();
    assert!(
        activations >= statically_dead,
        "{which}: activation pruning claimed {activations} runs, fewer than the \
         {statically_dead} statically dead sites"
    );
    cell_counts
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn default_sweep_matches_the_replay_path_with_pinned_counts() {
    let mut sums = [[0u64; 4]; CELLS.len()];
    for bench in default_benchmarks() {
        for (sum, counts) in sums.iter_mut().zip(check_hard_fault_cells(bench)) {
            for (s, c) in sum.iter_mut().zip(counts) {
                *s += c;
            }
        }
    }
    for (((snapshot, early_exit, workers), want), got) in CELLS.iter().zip(sums) {
        assert_eq!(
            got, *want,
            "default sweep, snapshot={snapshot} early_exit={early_exit} workers={workers}: \
             [activation, convergence, forks, runs simulated]"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn extra_kernels_match_the_replay_path() {
    for bench in EXTRA_KERNELS {
        check_hard_fault_cells(bench);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn transient_and_intermittent_reports_match_across_workers_and_the_replay_path() {
    for kind in [FaultKind::Transient, FaultKind::Intermittent { period: 64, on: 8 }] {
        for bench in [Benchmark::Gzip, Benchmark::Equake] {
            let cfg = DetectionConfig { kind, ecc: true, ..DetectionConfig::default() };
            let which = format!("{kind} {bench}");
            let one = run_detection(&Campaign::with_workers(1), cfg, &[bench], false);
            assert!(one.text.contains("taxonomy (ECC on):"), "{which}: taxonomy");
            assert_same(&observed(bench, cfg, 8), &one, &format!("{which} workers=8"));
            if kind == FaultKind::Transient {
                assert_same(&replay(bench, cfg), &one, &format!("{which} replay"));
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/verify.sh runs it")]
fn interleaved_groups_match_one_worker() {
    let benches = default_benchmarks();
    let ctl = ObserveCtl { metrics: true, ..ObserveCtl::default() };
    let at = |workers| {
        run_detection_observed(&Campaign::with_workers(workers), cfg(true, true), &benches, ctl)
    };
    let one = at(1);
    for workers in [2, 3] {
        let which = format!("default sweep, {workers} workers");
        let got = at(workers);
        assert_same(&got, &one, &which);
        assert_eq!(registry_prefix(&got, workers), registry_prefix(&one, 1), "{which}: registry");
    }
}
