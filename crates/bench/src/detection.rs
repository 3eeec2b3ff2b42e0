//! The detection-rate campaign as a library: empirical detection outcomes
//! under injected wear-out faults, per fault site, for SRT and BlackJack.
//!
//! Extracted from the `ext_detection` binary so the harness, the
//! `bench_snapshot` / `bench_earlyexit` measurements, and the equivalence
//! tests all drive one implementation. The report text is fully
//! deterministic — byte-identical for any worker count and for either
//! value of `BJ_SNAPSHOT` and `BJ_EARLYEXIT` — which is the campaign's
//! testable contract.
//!
//! **Fault model.** Each site gets a stuck-at-style bit flip that *arms*
//! partway through the run ([`blackjack::arming_schedule`]): the hardware
//! is healthy for the first half of the benchmark and the defect develops
//! in the field, exactly the wear-out scenario the paper argues escapes
//! manufacturing test. Arming cycles are derived from the (benchmark,
//! mode) pair's fault-free cycle count, so every injection run sharing a
//! (benchmark, mode) is identical up to its arming point.
//!
//! **Execution paths.** With `snapshot` off, every injection run replays
//! from cycle 0. With it on (the default), each (mode, benchmark) group
//! simulates the fault-free prefix once and every injection job forks
//! from a snapshot ([`blackjack::SnapshotChain`]). Independently,
//! `early_exit` (default on) stops each run the moment its verdict is
//! decided, by three mechanisms ([`blackjack::EarlyExit`]); with it on,
//! the group's fault-free pass records site usage ([`SiteUsage`]) and —
//! fork path — doubles as the periodic snapshot builder, so one reference
//! pass does triple duty. All four path combinations compute the same
//! arming schedule and the same verdicts, so their reports match byte
//! for byte (`detection_equiv` tests enforce this).
//!
//! **Schedule.** On every path the injection jobs are one
//! [`Campaign::run_observed`] fan-out. Each job takes its group from a
//! per-group cell, filled by a parallel setup pass when the campaign has
//! several workers and by the group's first job when it has one; the
//! group's last job to finish frees its snapshot chain. Observation —
//! timings, metrics, progress — never changes the schedule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use blackjack::envcfg::DEFAULT_STALL_CYCLES;
use blackjack::faults::{
    Corruption, DetectionOutcome, DetectionTally, FaultKind, FaultPlan, FaultSite, HardFault,
    SiteUsage, Taxonomy, TaxonomyTally, Trigger,
};
use blackjack::isa::{Interp, Program};
use blackjack::sim::{Core, CoreConfig, FuCounts, Mode, RunOutcome};
use blackjack::telemetry::ProgressMeter;
use blackjack::workloads::{build, Benchmark};
use blackjack::{
    arming_schedule, Campaign, CampaignTrace, Counter, EarlyExit, EarlyExitKind, Exit, Gauge,
    Metrics, MetricsRegistry, ObserveOpts, ProgressHook, ProgressTick, SnapshotChain,
};
use blackjack_analysis::SiteAnalysis;

/// Cycle budget per injection run — far above anything the kernels need.
pub const MAX_CYCLES: u64 = 100_000_000;

/// Snapshot spacing for the early-exit path's periodic chain: forks catch
/// up at most this many fault-free cycles, while the chain stays a few
/// dozen snapshots deep for the campaign kernels.
pub const SNAPSHOT_INTERVAL: u64 = 512;

/// The modes under test, in report order.
pub const MODES: [Mode; 2] = [Mode::Srt, Mode::BlackJack];

/// The benchmarks the detection sweep injects into, in report order.
pub fn default_benchmarks() -> Vec<Benchmark> {
    vec![Benchmark::Gzip, Benchmark::Fma3d, Benchmark::Vortex, Benchmark::Apsi]
}

/// Every injected fault site: one per backend way, the four frontend
/// ways, then one representative entry of each uncore structure — L1D
/// data and tag arrays (set 0, where the campaign kernels' data bases
/// land), a store-buffer entry, and the DTQ/LVQ payload RAMs. The
/// uncore entries are index 0 because physical-entry slots are keyed by
/// sequence number modulo capacity, so entry 0 is exercised by every
/// workload that touches the structure at all.
pub fn sites() -> Vec<FaultSite> {
    let counts = FuCounts::default();
    let mut sites: Vec<FaultSite> =
        (0..counts.total()).map(|w| FaultSite::Backend { way: w }).collect();
    sites.extend((0..4).map(|w| FaultSite::Frontend { way: w }));
    sites.push(FaultSite::CacheData { index: 0 });
    sites.push(FaultSite::CacheTag { index: 0 });
    sites.push(FaultSite::StoreBuffer { entry: 0 });
    sites.push(FaultSite::DtqPayload { entry: 0 });
    sites.push(FaultSite::LvqPayload { entry: 0 });
    sites
}

/// The campaign's standard hard fault for `site`, armed at cycle `arm`:
/// a bit flip in the immediate field for frontend sites (so the
/// corrupted word still decodes) and in a low value bit for everything
/// else.
pub fn armed_plan(site: FaultSite, arm: u64) -> FaultPlan {
    armed_plan_kind(site, arm, FaultKind::Hard)
}

/// [`armed_plan`] with the temporal model threaded in: the same flipped
/// bit, present permanently, for one cycle, or in duty-cycled bursts.
pub fn armed_plan_kind(site: FaultSite, arm: u64, kind: FaultKind) -> FaultPlan {
    let bit = match site {
        FaultSite::Frontend { .. } => 1, // immediate-field bit
        _ => 5,
    };
    let fault = HardFault { site, corruption: Corruption::FlipBit { bit }, trigger: Trigger::Always };
    FaultPlan::single(fault).arm_at(arm).with_kind(kind)
}

/// The campaign's switches, normally read from the environment
/// ([`DetectionConfig::from_env_or_exit`]). All four combinations of
/// `snapshot` × `early_exit` produce byte-identical reports; the flags
/// exist so the equivalence is checkable and each optimization
/// benchmarkable in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionConfig {
    /// Skip simulating sites statically proven unexercisable
    /// (`BJ_PRUNE`, default on).
    pub prune: bool,
    /// Fork injection runs from fault-free-prefix snapshots instead of
    /// replaying from cycle 0 (`BJ_SNAPSHOT`, default on).
    pub snapshot: bool,
    /// Stop each injection run the moment its verdict is decided
    /// (`BJ_EARLYEXIT`, default on).
    pub early_exit: bool,
    /// The early-exit stall watchdog's no-progress window in cycles
    /// (`BJ_STALL_CYCLES`).
    pub stall_cycles: u64,
    /// The temporal fault model every injection in the campaign uses
    /// (one entry of `BJ_FAULT_KINDS`; the harness runs one campaign per
    /// listed kind). [`FaultKind::Hard`] is the byte-stable legacy sweep.
    pub kind: FaultKind,
    /// Run every core with the LVQ SEC-DED layer on (`BJ_ECC`,
    /// default off).
    pub ecc: bool,
}

impl Default for DetectionConfig {
    fn default() -> DetectionConfig {
        DetectionConfig {
            prune: true,
            snapshot: true,
            early_exit: true,
            stall_cycles: DEFAULT_STALL_CYCLES,
            kind: FaultKind::Hard,
            ecc: false,
        }
    }
}

impl DetectionConfig {
    /// Reads `BJ_PRUNE`, `BJ_SNAPSHOT`, `BJ_EARLYEXIT`,
    /// `BJ_STALL_CYCLES` and `BJ_ECC`, exiting with status 2 (the
    /// harness convention) on a malformed value. `kind` stays
    /// [`FaultKind::Hard`]; the harness overrides it per `BJ_FAULT_KINDS`
    /// entry.
    pub fn from_env_or_exit() -> DetectionConfig {
        use blackjack::envcfg;
        let or_exit = |r: Result<bool, envcfg::EnvError>| {
            r.unwrap_or_else(|e| envcfg::exit_invalid(&e))
        };
        DetectionConfig {
            prune: or_exit(envcfg::flag_from_env("BJ_PRUNE", true)),
            snapshot: or_exit(envcfg::snapshot_from_env()),
            early_exit: or_exit(envcfg::earlyexit_from_env()),
            stall_cycles: envcfg::stall_cycles_from_env()
                .unwrap_or_else(|e| envcfg::exit_invalid(&e)),
            kind: FaultKind::Hard,
            ecc: or_exit(envcfg::ecc_from_env()),
        }
    }

    /// The core configuration every run in a campaign under this config
    /// uses: `mode`, plus the ECC switch.
    pub fn core_config(&self, mode: Mode) -> CoreConfig {
        let mut c = CoreConfig::with_mode(mode);
        c.lvq_ecc = self.ecc;
        c
    }
}

/// One (mode, benchmark) group's shared read-only state, built once per
/// campaign and borrowed by every one of the group's injection jobs.
pub struct DetectionGroup {
    /// The campaign switches the group was built under.
    pub cfg: DetectionConfig,
    /// The mode every job in the group runs in.
    pub mode: Mode,
    /// The benchmark program.
    pub prog: Program,
    /// The completed golden (fault-free, functional) reference run.
    /// Shared: the interpreter is mode-independent, so both modes'
    /// groups for a benchmark hold the same run.
    pub golden: Arc<Interp>,
    /// Static instruction-mix analysis, for pruning.
    pub analysis: SiteAnalysis,
    /// Cycles of the fault-free run in this mode — the arming-schedule
    /// denominator.
    pub fault_free_cycles: u64,
    /// Per-site arming cycles, indexed like [`sites`].
    pub arms: Vec<u64>,
    /// Snapshots of the fault-free prefix, when the fork path is
    /// enabled: exact per-arm pauses normally, periodic
    /// ([`SNAPSHOT_INTERVAL`]) with early exit on. Behind a lock only so
    /// the group's last job can drop it
    /// ([`DetectionGroup::release_fork_state`]); every other job only
    /// reads it.
    pub chain: RwLock<Option<SnapshotChain>>,
    /// Per-site last-exercise cycles from the recording reference pass —
    /// the early-exit activation schedule (`None` with early exit off).
    pub site_usage: Option<SiteUsage>,
}

impl DetectionGroup {
    /// Drops the snapshot chain once every job in the group has run. The
    /// report only reads the light fields (analysis, arms, cycle count),
    /// and freeing the chain lets the next group's snapshots reuse the
    /// warm memory.
    pub fn release_fork_state(&self) {
        *self.chain.write().expect("chain lock poisoned") = None;
    }

    /// Builds the group: program + analysis, then the fault-free pass
    /// that fixes the arming schedule. `golden` is the benchmark's
    /// completed functional run ([`golden_run`]) — mode-independent, so
    /// the caller builds it once per benchmark and shares it between the
    /// modes' groups. With early exit on, the fault-free pass records
    /// site usage and (fork path) doubles as the periodic snapshot
    /// builder; otherwise the fork path builds its exact chain in a
    /// second pass over the non-pruned sites' arms.
    ///
    /// Setup/snapshot wall time, the chain's build accounting and the
    /// snapshot-reuse tally go to `metrics` and `meter` (either may be
    /// off/absent).
    pub fn build(
        mode: Mode,
        bench: Benchmark,
        cfg: DetectionConfig,
        golden: Arc<Interp>,
        metrics: &mut Metrics,
        meter: Option<&ProgressMeter>,
    ) -> DetectionGroup {
        let t0 = Instant::now();
        let prog = build(bench, 1);
        let analysis = SiteAnalysis::analyze(&prog, &FuCounts::default())
            .expect("workload programs are analyzable");

        // Every path runs the fault-free pass: the arming schedule is
        // derived from its cycle count, and identical arms are what make
        // all the paths' reports byte-identical.
        let core_cfg = cfg.core_config(mode);
        let plan = if cfg.early_exit {
            FaultPlan::new().record_usage(core_cfg.site_family_sizes())
        } else {
            FaultPlan::new()
        };
        let mut ff = Core::new(core_cfg, &prog, plan);
        // Wall time attribution: a reference pass that builds snapshots
        // counts as snapshot time; one that only fixes the arming
        // schedule counts as setup.
        let mut snap_nanos = 0u64;
        let (fault_free_cycles, site_usage, periodic) = if cfg.early_exit && cfg.snapshot {
            let ts = Instant::now();
            let (chain, done) = SnapshotChain::build_periodic(
                ff,
                SNAPSHOT_INTERVAL,
                MAX_CYCLES,
                Some(golden.icount()),
            );
            snap_nanos += ts.elapsed().as_nanos() as u64;
            (done.cycle(), done.plan().site_usage().cloned(), Some(chain))
        } else {
            assert!(ff.run(MAX_CYCLES).completed(), "fault-free runs must complete");
            (ff.cycle(), ff.plan().site_usage().cloned(), None)
        };

        let all = sites();
        let arms = arming_schedule(fault_free_cycles, all.len());
        let chain = if cfg.early_exit {
            periodic
        } else {
            cfg.snapshot.then(|| {
                // Pruned sites never simulate, so they contribute no
                // snapshot; the chain pauses only at live arming points.
                let live: Vec<u64> = all
                    .iter()
                    .zip(&arms)
                    .filter(|&(&s, _)| !(cfg.prune && analysis.prunable(s)))
                    .map(|(_, &a)| a)
                    .collect();
                let ts = Instant::now();
                let chain = SnapshotChain::build(
                    Core::new(cfg.core_config(mode), &prog, FaultPlan::new()),
                    &live,
                );
                snap_nanos += ts.elapsed().as_nanos() as u64;
                chain
            })
        };
        if let Some(chain) = &chain {
            let s = chain.stats();
            metrics.add(Counter::SnapshotsTaken, s.taken);
            metrics.add(Counter::SnapshotsRefilled, s.refilled);
            metrics.add(Counter::SnapshotsRetired, s.retired);
            metrics.gauge_max(Gauge::PeakRetainedSnapshots, s.peak_retained);
            if let Some(m) = meter {
                m.note_snapshots(s.taken, s.refilled);
            }
        }
        metrics.inc(Counter::Setups);
        metrics.add(Counter::SnapshotBuildNanos, snap_nanos);
        metrics
            .add(Counter::SetupNanos, (t0.elapsed().as_nanos() as u64).saturating_sub(snap_nanos));
        DetectionGroup {
            cfg,
            mode,
            prog,
            golden,
            analysis,
            fault_free_cycles,
            arms,
            chain: RwLock::new(chain),
            site_usage,
        }
    }

    /// One injection run: site `site_idx` of [`sites`], tallied both in
    /// the legacy detect/escape table and the CE/DUE/SDC taxonomy, with
    /// the early-exit mechanism that decided it (if any). A pruned site
    /// is tallied benign without simulating; an activation-pruned site
    /// likewise (M1); otherwise the core forks from the group's chain (or
    /// replays from cycle 0) and runs under M2 and M3 when early exit is
    /// on.
    ///
    /// Run accounting — prune attribution, fork count/latency/catch-up
    /// distance, simulate and oracle wall time, exit reason — goes to
    /// `metrics` and the live `meter` (either may be off/absent).
    pub fn injection_tally(
        &self,
        site_idx: usize,
        metrics: &mut Metrics,
        meter: Option<&ProgressMeter>,
    ) -> (DetectionTally, TaxonomyTally, Option<EarlyExitKind>) {
        let site = sites()[site_idx];
        if self.cfg.prune && self.analysis.prunable(site) {
            metrics.inc(Counter::PrunedStatic);
            return (
                DetectionTally::pruned_site(),
                TaxonomyTally::of(Taxonomy::Benign),
                None,
            );
        }
        let arm = self.arms[site_idx];
        let early = match &self.site_usage {
            Some(usage) => match EarlyExit::for_site(usage, site, arm, self.cfg.stall_cycles) {
                Ok(early) => early,
                Err(kind) => {
                    metrics.inc(Counter::PrunedActivation);
                    if let Some(m) = meter {
                        m.note_early_activation();
                    }
                    return (
                        DetectionTally::of(DetectionOutcome::Benign),
                        TaxonomyTally::of(Taxonomy::Benign),
                        Some(kind),
                    );
                }
            },
            None => EarlyExit::default(),
        };
        let plan = armed_plan_kind(site, arm, self.cfg.kind);
        let chain = self.chain.read().expect("chain lock poisoned");
        let forked = chain.is_some();
        let tf = Instant::now();
        let mut core = match chain.as_ref() {
            // The periodic chain rarely paused exactly at arm - 1; catch
            // up the few fault-free cycles in between.
            Some(chain) if self.cfg.early_exit => {
                if metrics.is_on() {
                    metrics.record_catchup(chain.catchup_cycles(arm));
                }
                chain.fork_catchup(arm, plan)
            }
            Some(chain) => chain.fork(arm, plan),
            None => Core::new(self.cfg.core_config(self.mode), &self.prog, plan),
        };
        drop(chain);
        if forked {
            metrics.inc(Counter::SnapshotForks);
            metrics.add(Counter::SnapshotForkNanos, tf.elapsed().as_nanos() as u64);
        }
        let (outcome, kind) = outcome_of(&mut core, &early, &self.golden, metrics);
        if let Some(m) = meter {
            m.note_run(forked);
            match kind {
                Some(EarlyExitKind::Convergence) => m.note_early_convergence(),
                Some(EarlyExitKind::Watchdog) => m.note_early_watchdog(),
                _ => {}
            }
        }
        // Zero activations imply zero corrections, so the early-exit
        // paths (which never see a correction by construction) agree
        // with the natural-end runs on the CE/benign split.
        let corrected = core.stats().ecc_corrected > 0;
        (
            DetectionTally::of(outcome),
            TaxonomyTally::of(Taxonomy::of(outcome, corrected)),
            kind,
        )
    }
}

/// The benchmark's golden reference: a completed fault-free run of the
/// functional interpreter. Mode-independent — one per benchmark serves
/// every mode's group.
pub fn golden_run(prog: &Program) -> Interp {
    let mut golden = Interp::new(prog);
    golden.run(50_000_000).expect("golden runs are fault-free");
    golden
}

/// Drives `core` to its end under `early` and classifies the run against
/// the golden memory image, attributing any early exit to its mechanism.
/// The run's simulate-phase wall stamp, its exit, and the oracle (golden
/// memory compare) wall time go to `metrics`.
pub fn outcome_of(
    core: &mut Core,
    early: &EarlyExit,
    golden: &Interp,
    metrics: &mut Metrics,
) -> (DetectionOutcome, Option<EarlyExitKind>) {
    // A forked core inherits the reference pass's accumulated
    // `wall_nanos` from its snapshot; only the delta across this run is
    // simulate time (the prefix is already attributed to the snapshot
    // phase).
    let wall_before = core.stats().wall_nanos;
    let out = early.run(core, MAX_CYCLES, metrics);
    metrics.inc(Counter::RunsSimulated);
    metrics.add(Counter::SimulateNanos, core.stats().wall_nanos - wall_before);
    match out {
        Exit::Ran(RunOutcome::Detected(_)) => (DetectionOutcome::Detected, None),
        Exit::Ran(RunOutcome::Completed) => {
            let to = Instant::now();
            let corrupted = core.mem().first_difference(golden.mem()).is_some();
            metrics.add(Counter::OracleNanos, to.elapsed().as_nanos() as u64);
            if corrupted {
                (DetectionOutcome::SilentCorruption, None)
            } else {
                (DetectionOutcome::Benign, None)
            }
        }
        Exit::Ran(RunOutcome::CycleLimit) => (DetectionOutcome::Stuck, None),
        // Benign by construction — the run stopped mid-flight, so no
        // memory compare is possible (or needed).
        Exit::Early(kind @ EarlyExitKind::Convergence) => (DetectionOutcome::Benign, Some(kind)),
        Exit::Early(kind) => (DetectionOutcome::Stuck, Some(kind)),
    }
}

/// Where one injection job pointed — enough to reproduce it standalone
/// (the telemetry flight re-run rebuilds the program and replays cold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Mode of the run.
    pub mode: Mode,
    /// Benchmark injected into.
    pub bench: Benchmark,
    /// The injected site.
    pub site: FaultSite,
    /// The fault's arming cycle.
    pub arm: u64,
}

/// The campaign's complete result: per-job tallies (in job order), the
/// deterministic report text, and reproduction metadata.
pub struct DetectionReport {
    /// `(mode, tally)` per job, in job order.
    pub tallies: Vec<(Mode, DetectionTally)>,
    /// `(mode, CE/DUE/SDC taxonomy)` per job, in job order — the same
    /// runs as `tallies`, classified on the reliability axis.
    pub taxonomies: Vec<(Mode, TaxonomyTally)>,
    /// Which early-exit mechanism decided each job, in job order (`None`
    /// when the run went to its natural end — always, with early exit
    /// off). Kept apart from `tallies` so the report text and the
    /// equivalence tests see identical tallies on every path.
    pub early_exits: Vec<Option<EarlyExitKind>>,
    /// `mode/bench/site` label per job, in job order.
    pub labels: Vec<String>,
    /// Reproduction metadata per job, in job order.
    pub meta: Vec<JobMeta>,
    /// The full report text (everything the harness prints to stdout).
    /// Byte-identical for any worker count and every execution path.
    pub text: String,
    /// Per-job scheduling telemetry, when requested.
    pub trace: Option<CampaignTrace>,
    /// The merged campaign metrics registry, when `BJ_METRICS` was on.
    /// Its deterministic prefix is byte-identical for any worker count.
    pub metrics: Option<MetricsRegistry>,
}

/// Observability switches for [`run_detection_observed`] — the
/// campaign-level analog of the per-fan-out [`ObserveOpts`]. Default is
/// everything off, which is exactly [`run_detection`]'s untraced path.
#[derive(Default, Clone, Copy)]
pub struct ObserveCtl<'a> {
    /// Collect per-job scheduling telemetry ([`DetectionReport::trace`]).
    pub traced: bool,
    /// Record the metrics registry ([`DetectionReport::metrics`]).
    pub metrics: bool,
    /// Live-progress sink; required for `progress_every` to take effect.
    pub meter: Option<&'a ProgressMeter>,
    /// Progress cadence for the injection fan-out (the campaign's long
    /// phase); `None` disables mid-campaign ticks.
    pub progress_every: Option<Duration>,
}

/// Compact job label for the telemetry stream: `mode/bench/site`, with
/// the site in its [`FaultSite::label`] spelling — the one the corpus
/// format and `bjsim --fault` parse.
pub fn site_label(mode: Mode, bench: &str, site: FaultSite) -> String {
    format!("{mode}/{bench}/{}", site.label())
}

/// Runs the whole detection campaign: one setup per (mode, benchmark)
/// group, then one job per (mode, benchmark, site), all through
/// `campaign` so the report is identical for any worker count. With
/// `traced`, per-job scheduling telemetry rides along (stdout-identical).
pub fn run_detection(
    campaign: &Campaign,
    cfg: DetectionConfig,
    benchmarks: &[Benchmark],
    traced: bool,
) -> DetectionReport {
    run_detection_observed(campaign, cfg, benchmarks, ObserveCtl { traced, ..Default::default() })
}

/// [`run_detection`] with the full observability surface: scheduling
/// telemetry, the metrics registry, and live progress streaming, each
/// opt-in through `ctl`. Observation never changes the schedule: the
/// injection jobs are one [`Campaign::run_observed`] fan-out on every
/// path, and group setups are never engine jobs (the registry counts
/// them as `setups`, not `jobs`).
pub fn run_detection_observed(
    campaign: &Campaign,
    cfg: DetectionConfig,
    benchmarks: &[Benchmark],
    ctl: ObserveCtl<'_>,
) -> DetectionReport {
    let all_sites = sites();
    let nb = benchmarks.len();
    let ns = all_sites.len();
    let meter = ctl.meter;

    // One golden run per benchmark, shared by both modes' groups (the
    // functional interpreter knows nothing of pipeline mode).
    let goldens: Vec<Arc<Interp>> =
        benchmarks.iter().map(|&b| Arc::new(golden_run(&build(b, 1)))).collect();

    // One cell per (mode, benchmark) group — group index
    // g = mode_idx * nb + bench_idx, matching job order — holding the
    // group once built and a countdown of its unfinished jobs.
    let cells: Vec<(OnceLock<DetectionGroup>, AtomicUsize)> =
        (0..MODES.len() * nb).map(|_| (OnceLock::new(), AtomicUsize::new(ns))).collect();
    let cells_ref = &cells;
    let group = |g: usize, m: &mut Metrics| {
        cells_ref[g].0.get_or_init(|| {
            let golden = Arc::clone(&goldens[g % nb]);
            DetectionGroup::build(MODES[g / nb], benchmarks[g % nb], cfg, golden, m, meter)
        })
    };

    // The one schedule choice. Several workers first fill every cell in
    // a parallel setup pass, so no worker waits on another's reference
    // pass — at the price of every group's snapshot chain being live at
    // once (211 MiB peak for 850 jobs over 34 groups on two workers,
    // the benchmark's `inject-transient`). One worker gains nothing from
    // that, so each group's first job fills its cell and its last job
    // frees the chain: one chain live at a time (41 MiB for the same
    // jobs, `inject-hard`).
    let setup_shards: Vec<Option<Box<MetricsRegistry>>> = if campaign.workers() > 1 {
        campaign.run(
            (0..cells.len())
                .map(|g| {
                    move || {
                        let mut m = Metrics::when(ctl.metrics);
                        group(g, &mut m);
                        m.into_registry()
                    }
                })
                .collect(),
        )
    } else {
        Vec::new()
    };

    let jobs: Vec<_> = (0..cells.len() * ns)
        .map(|i| {
            move |m: &mut Metrics| {
                let g = i / ns;
                let grp = group(g, m);
                let (tally, tax, early) = grp.injection_tally(i % ns, m, meter);
                // Release: this job is done with the chain. Acquire: the
                // job that counts the group down to zero sees every other
                // job done with it before dropping it.
                if cells_ref[g].1.fetch_sub(1, Ordering::AcqRel) == 1 {
                    grp.release_fork_state();
                }
                (grp.mode, tally, tax, early)
            }
        })
        .collect();
    let emit = move |t: &ProgressTick| {
        if let Some(m) = meter {
            m.emit_tick(t);
        }
    };
    let hook = ctl
        .progress_every
        .filter(|_| meter.is_some())
        .map(|every| ProgressHook::new(every, &emit));
    let obs = campaign.run_observed(
        jobs,
        ObserveOpts { timings: ctl.traced, metrics: ctl.metrics, progress: hook.as_ref() },
    );
    let registry = ctl.metrics.then(|| {
        let mut merged = MetricsRegistry::new();
        for shard in setup_shards.iter().flatten().map(|r| &**r).chain(&obs.shards) {
            merged.merge(shard);
        }
        // Config facts enter after the merge: the shards themselves
        // stay byte-identical for any worker count.
        merged.gauge_max(Gauge::Workers, campaign.workers() as u64);
        merged
    });
    let groups: Vec<DetectionGroup> = cells
        .into_iter()
        .map(|(cell, _)| cell.into_inner().expect("every group ran its jobs"))
        .collect();

    let t_reassembly = Instant::now();
    let results = &obs.results;
    let tallies: Vec<(Mode, DetectionTally)> =
        results.iter().map(|&(m, t, _, _)| (m, t)).collect();
    let taxonomies: Vec<(Mode, TaxonomyTally)> =
        results.iter().map(|&(m, _, x, _)| (m, x)).collect();
    let early_exits: Vec<Option<EarlyExitKind>> =
        results.iter().map(|&(_, _, _, e)| e).collect();

    let labels: Vec<String> = MODES
        .iter()
        .flat_map(|&mode| {
            benchmarks.iter().flat_map(move |&b| {
                let sites = sites();
                sites.into_iter().map(move |site| site_label(mode, b.name(), site))
            })
        })
        .collect();
    let meta: Vec<JobMeta> = (0..MODES.len() * nb * ns)
        .map(|i| {
            let g = i / ns;
            JobMeta {
                mode: MODES[g / nb],
                bench: benchmarks[g % nb],
                site: all_sites[i % ns],
                arm: groups[g].arms[i % ns],
            }
        })
        .collect();

    let text = report_text(cfg, benchmarks, &groups[..nb], &tallies, &taxonomies);
    let metrics = registry.map(|mut r| {
        r.add(Counter::ReassemblyNanos, t_reassembly.elapsed().as_nanos() as u64);
        r
    });
    let trace = obs.trace;
    DetectionReport { tallies, taxonomies, early_exits, labels, meta, text, trace, metrics }
}

/// Renders the deterministic report. `bench_groups` must be the per-
/// benchmark groups of one mode (the analysis and pruning facts are
/// mode-independent), in benchmark order. Worker counts and wall-clock
/// are deliberately absent — the report is byte-identical for any
/// `BJ_THREADS` and every `BJ_SNAPSHOT` / `BJ_EARLYEXIT` path.
fn report_text(
    cfg: DetectionConfig,
    benchmarks: &[Benchmark],
    bench_groups: &[DetectionGroup],
    tallies: &[(Mode, DetectionTally)],
    taxonomies: &[(Mode, TaxonomyTally)],
) -> String {
    let prune = cfg.prune;
    let counts = FuCounts::default();
    let n_sites = sites().len();
    let mut s = String::new();
    let kind_label = match cfg.kind {
        FaultKind::Hard => "hard".to_string(),
        FaultKind::Transient => "transient".to_string(),
        FaultKind::Intermittent { period, on } => {
            format!("intermittent {on}-of-{period}")
        }
    };
    s.push_str(&format!("extension: detection outcomes per injected {kind_label} fault\n"));
    s.push_str(&format!(
        "(one wear-out bit flip per run, arming in the late half of the \
         fault-free run;\n {} sites x {} benchmarks per mode)\n\n",
        n_sites,
        benchmarks.len(),
    ));
    let per_mode: Vec<(Mode, DetectionTally)> = MODES
        .iter()
        .map(|&mode| {
            let mut t = DetectionTally::default();
            for (m, tally) in tallies {
                if *m == mode {
                    t.merge(tally);
                }
            }
            (mode, t)
        })
        .collect();
    s.push_str(&format!(
        "{:12} | {:>9} {:>18} {:>8} {:>6}\n",
        "mode", "detected", "silent corruption", "benign", "stuck"
    ));
    for &(mode, t) in &per_mode {
        s.push_str(&format!(
            "{:12} | {:>9} {:>18} {:>8} {:>6}\n",
            mode.to_string(),
            t.detected,
            t.corrupted,
            t.benign,
            t.stuck
        ));
    }
    s.push('\n');
    for &(mode, t) in &per_mode {
        s.push_str(&format!("{:12} | {}\n", format!("{mode} rates"), t.summary()));
    }

    // The CE/DUE/SDC taxonomy rides below the legacy table: the rows
    // above stay byte-identical to the pre-taxonomy report for hard
    // faults, and the reliability classification is additive.
    s.push_str(&format!(
        "\ntaxonomy (ECC {}):\n",
        if cfg.ecc { "on" } else { "off" }
    ));
    for &mode in &MODES {
        let mut t = TaxonomyTally::default();
        for (m, tax) in taxonomies {
            if *m == mode {
                t.merge(tax);
            }
        }
        s.push_str(&format!("{:12} | {}\n", mode.to_string(), t.summary()));
    }

    if prune {
        let per_mode: u32 =
            bench_groups.iter().map(|g| g.analysis.prunable_backend_ways().len() as u32).sum();
        s.push_str(&format!(
            "\npruned_sites: {} of {} runs per mode statically proven benign \
             (BJ_PRUNE=0 to disable)\n",
            per_mode,
            benchmarks.len() * n_sites,
        ));
        for g in bench_groups {
            let dead: Vec<String> =
                g.analysis.dead_classes().iter().map(|t| format!("{t} x{}", counts.of(*t))).collect();
            s.push_str(&format!(
                "  {:8} {:2} ways pruned  [{}]\n",
                g.analysis.program,
                g.analysis.prunable_backend_ways().len(),
                dead.join(", ")
            ));
        }
    } else {
        s.push_str("\npruned_sites: static pruning disabled (BJ_PRUNE=0)\n");
    }
    s
}

/// Parses harness arguments: `--bench <name>` restricts the sweep to one
/// benchmark (the `verify.sh` equivalence smokes use this). Any kernel
/// [`Benchmark::from_name`] knows is accepted — including the
/// call-bearing kernels outside the default sweep, so the
/// flag-equivalence checks can cover call/return machinery. Unknown
/// arguments or benchmarks exit with status 2.
pub fn benchmarks_from_args(args: &[String]) -> Vec<Benchmark> {
    let mut benchmarks = default_benchmarks();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => {
                let name = it.next().unwrap_or_else(|| {
                    eprintln!("error: --bench needs a benchmark name");
                    std::process::exit(2);
                });
                benchmarks = vec![Benchmark::from_name(name).unwrap_or_else(|| {
                    eprintln!(
                        "error: unknown benchmark `{name}` (expected one of: {})",
                        Benchmark::ALL
                            .iter()
                            .chain(Benchmark::CALL_KERNELS.iter())
                            .map(|b| b.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                })];
            }
            other => {
                eprintln!("error: unknown argument `{other}` (supported: --bench <name>)");
                std::process::exit(2);
            }
        }
    }
    benchmarks
}
