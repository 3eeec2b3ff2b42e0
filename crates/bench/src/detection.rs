//! The detection-rate campaign as a library: empirical detection outcomes
//! under injected wear-out faults, per fault site, for SRT and BlackJack.
//!
//! Extracted from the `ext_detection` binary so the harness, the
//! benchmark's `inject-*` workloads, and the equivalence matrix
//! (`tests/detection_equiv.rs`) all drive one implementation. The report
//! text is fully deterministic — byte-identical for any worker count and
//! for every combination of [`DetectionConfig`]'s `snapshot`, `early_exit`
//! and `prune` switches (bar the `pruned_sites` block with pruning off) —
//! which is the campaign's testable contract.
//!
//! **Fault model.** Each site gets a stuck-at-style bit flip that *arms*
//! partway through the run ([`blackjack::arming_schedule`]): the hardware
//! is healthy for the first half of the benchmark and the defect develops
//! in the field, exactly the wear-out scenario the paper argues escapes
//! manufacturing test. Arming cycles are derived from the (benchmark,
//! mode) pair's fault-free cycle count, so every injection run sharing a
//! (benchmark, mode) is identical up to its arming point.
//!
//! **Execution paths.** Every (mode, benchmark) group runs one fault-free
//! reference pass, whose cycle count fixes the arming schedule. On the
//! harness path (the default config) the reference pass also builds a
//! periodic snapshot chain ([`blackjack::SnapshotChain`]) and every
//! injection job forks from it, and each run stops the moment its verdict
//! is decided, by activation pruning or the convergence seal
//! ([`blackjack::EarlyExit`]), for which the reference pass also records
//! site usage ([`SiteUsage`]); a run that wedges ends on the core's
//! no-commit watchdog, as on the replay path. The group decides once, per
//! site, whether its job simulates ([`SiteRun`]), and trims the chain to
//! the donors of the jobs that do. The library keeps the plain
//! replay path — `snapshot` and `early_exit` off, every run replayed from
//! cycle 0 to its natural end — as the reference the equivalence matrix
//! (`tests/detection_equiv.rs`) and the benchmark's expected verdicts are
//! computed on. All four path combinations compute the same arming
//! schedule and the same verdicts, so their reports match byte for byte.
//!
//! **Schedule.** On every path the campaign is one
//! [`Campaign::run_groups`] call with one group per (mode, benchmark):
//! the group's setup is its reference pass ([`DetectionGroup::build`]),
//! and its jobs are its injection runs. The engine builds a group only
//! when no built group has a job left, and drops the group, snapshot
//! chain included, with its last job: at most twice as many chains as
//! workers are live at once, and one worker runs the groups depth-first,
//! one chain at a time. What outlives a group is built once per
//! benchmark before the fan-out ([`BenchInputs`]: the program, the golden
//! run and the site analysis), and each job returns its arming cycle
//! with its verdict, so the report reads nothing from a group after its
//! last job. Observation — timings, metrics, progress — never changes the
//! schedule. An observed campaign counts into one [`MetricsRegistry`]:
//! each setup and job merges its counts into it as it retires, and every
//! progress tick reads a copy of it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use blackjack::faults::{
    Corruption, DetectionOutcome, DetectionTally, FaultKind, FaultPlan, FaultSite, HardFault,
    SiteUsage, Taxonomy, TaxonomyTally, Trigger,
};
use blackjack::isa::{Interp, Program};
use blackjack::sim::{Core, CoreConfig, FuCounts, Mode, RunOutcome};
use blackjack::workloads::{build, Benchmark};
use blackjack::{
    arming_schedule, Campaign, CampaignTrace, Counter, EarlyExit, EarlyExitKind, Exit, Gauge,
    Group, Metrics, MetricsRegistry, ObserveOpts, ProgressHook, SnapshotChain,
};
use blackjack_analysis::SiteAnalysis;

/// Cycle budget per injection run — far above anything the kernels need.
pub const MAX_CYCLES: u64 = 100_000_000;

/// Snapshot spacing for the fork path's periodic chain: forks catch up
/// at most this many fault-free cycles, while the chain stays a few
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

/// The campaign's standard fault for `site`, armed at cycle `arm`: a bit
/// flip in the immediate field for frontend sites (so the corrupted word
/// still decodes) and in a low value bit for everything else, present
/// permanently, for one cycle, or in duty-cycled bursts as `kind` says.
pub fn armed_plan_kind(site: FaultSite, arm: u64, kind: FaultKind) -> FaultPlan {
    let bit = match site {
        FaultSite::Frontend { .. } => 1, // immediate-field bit
        _ => 5,
    };
    let fault = HardFault { site, corruption: Corruption::FlipBit { bit }, trigger: Trigger::Always };
    FaultPlan::single(fault).arm_at(arm).with_kind(kind)
}

/// The campaign's switches. The harness reads `ecc` from the environment
/// ([`DetectionConfig::from_env_or_exit`]) and runs every acceleration;
/// `prune`, `snapshot` and `early_exit` are library-only switches, so the
/// equivalence matrix (`tests/detection_equiv.rs`) and the benchmark's
/// expected verdicts can run the plain replay path. All four
/// combinations of `snapshot` × `early_exit` produce byte-identical
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionConfig {
    /// Skip simulating sites statically proven unexercisable (default
    /// on).
    pub prune: bool,
    /// Fork injection runs from fault-free-prefix snapshots instead of
    /// replaying from cycle 0 (default on).
    pub snapshot: bool,
    /// Stop each injection run the moment its verdict is decided (default
    /// on).
    pub early_exit: bool,
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
            kind: FaultKind::Hard,
            ecc: false,
        }
    }
}

impl DetectionConfig {
    /// The default config with `ecc` read from `BJ_ECC`, exiting with
    /// status 2 (the harness convention) on a malformed value. `kind`
    /// stays [`FaultKind::Hard`]; the harness overrides it per
    /// `BJ_FAULT_KINDS` entry.
    pub fn from_env_or_exit() -> DetectionConfig {
        DetectionConfig { ecc: blackjack::envcfg::ECC.flag(), ..DetectionConfig::default() }
    }

    /// The core configuration every run in a campaign under this config
    /// uses: `mode`, plus the ECC switch.
    pub fn core_config(&self, mode: Mode) -> CoreConfig {
        let mut c = CoreConfig::with_mode(mode);
        c.lvq_ecc = self.ecc;
        c
    }
}

/// How a group's injection job for one site runs, decided once when the
/// group is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteRun {
    /// Statically proven unexercisable (`prune` on): benign, not
    /// simulated.
    PrunedStatic,
    /// M1: the reference pass never exercises the site at or after its
    /// arm: benign, not simulated.
    PrunedActivation,
    /// Simulated — forked from the group's chain, or replayed from cycle
    /// 0 — under these early-exit mechanisms (none with early exit off).
    Simulate(EarlyExit),
}

/// One benchmark's campaign inputs, built once before the fan-out and
/// shared by both modes' groups: none of them depends on the mode, and
/// the report still reads the analysis after every group has dropped.
pub struct BenchInputs {
    /// The benchmark program.
    pub prog: Program,
    /// The completed golden (fault-free, functional) reference run.
    pub golden: Interp,
    /// Static instruction-mix analysis, for pruning.
    pub analysis: SiteAnalysis,
}

impl BenchInputs {
    /// Builds `bench` at scale 1, runs its golden run ([`golden_run`])
    /// and analyzes it.
    pub fn build(bench: Benchmark) -> BenchInputs {
        let prog = build(bench, 1);
        let golden = golden_run(&prog);
        let analysis = SiteAnalysis::analyze(&prog, &FuCounts::default())
            .expect("workload programs are analyzable");
        BenchInputs { prog, golden, analysis }
    }
}

/// One (mode, benchmark) group's shared read-only state: the value of
/// the group's setup in the campaign, built once and borrowed by every
/// one of the group's injection jobs. The campaign drops it, snapshot
/// chain included, with the group's last job.
pub struct DetectionGroup {
    /// The campaign switches the group was built under.
    pub cfg: DetectionConfig,
    /// The mode every job in the group runs in.
    pub mode: Mode,
    /// The benchmark's inputs, shared with the other mode's group.
    pub inputs: Arc<BenchInputs>,
    /// Per-site arming cycles, indexed like [`sites`].
    pub arms: Vec<u64>,
    /// Per-site run decisions, indexed like [`sites`].
    pub runs: Vec<SiteRun>,
    /// Periodic ([`SNAPSHOT_INTERVAL`]) snapshots of the fault-free run,
    /// trimmed to the donors of the sites that simulate, when the fork
    /// path is enabled.
    pub chain: Option<SnapshotChain>,
}

impl DetectionGroup {
    /// Builds the group: the fault-free pass that fixes the arming
    /// schedule. The fault-free pass doubles as the periodic snapshot
    /// builder on the fork path, and records site usage with early exit
    /// on, from which each site's [`SiteRun`] is decided; the chain then
    /// keeps only the donors of the sites that simulate.
    ///
    /// Setup/snapshot wall time and the chain's build accounting go to
    /// `metrics` (which may be off).
    pub fn build(
        mode: Mode,
        cfg: DetectionConfig,
        inputs: Arc<BenchInputs>,
        metrics: &mut Metrics,
    ) -> DetectionGroup {
        let t0 = Instant::now();
        // Every path runs the fault-free pass: the arming schedule is
        // derived from its cycle count, and identical arms are what make
        // all the paths' reports byte-identical.
        let core_cfg = cfg.core_config(mode);
        let plan = if cfg.early_exit {
            FaultPlan::new().record_usage(core_cfg.site_family_sizes())
        } else {
            FaultPlan::new()
        };
        let mut ff = Core::new(core_cfg, &inputs.prog, plan);
        // Wall time attribution: a reference pass that builds snapshots
        // counts as snapshot time; one that only fixes the arming
        // schedule counts as setup.
        let ts = Instant::now();
        let (done, mut chain) = if cfg.snapshot {
            let (chain, done) = SnapshotChain::build_periodic(
                ff,
                SNAPSHOT_INTERVAL,
                MAX_CYCLES,
                Some(inputs.golden.icount()),
            );
            (done, Some(chain))
        } else {
            assert!(ff.run(MAX_CYCLES).completed(), "fault-free runs must complete");
            (ff, None)
        };
        let arms = arming_schedule(done.cycle(), sites().len());
        let runs = site_runs(cfg, &inputs.analysis, done.plan().site_usage(), &arms);
        let mut snap_nanos = 0u64;
        if let Some(chain) = &mut chain {
            let simulated = arms.iter().zip(&runs).filter(|(_, r)| matches!(r, SiteRun::Simulate(_)));
            chain.retain_donors(simulated.map(|(&arm, _)| arm));
            snap_nanos = ts.elapsed().as_nanos() as u64;
            let s = chain.stats();
            metrics.add(Counter::SnapshotsTaken, s.taken);
            metrics.add(Counter::SnapshotsRetired, s.retired);
            metrics.gauge_max(Gauge::PeakRetainedSnapshots, s.peak_retained);
        }
        metrics.inc(Counter::Setups);
        metrics.add(Counter::SnapshotBuildNanos, snap_nanos);
        metrics
            .add(Counter::SetupNanos, (t0.elapsed().as_nanos() as u64).saturating_sub(snap_nanos));
        DetectionGroup { cfg, mode, inputs, arms, runs, chain }
    }

    /// One injection run: site `site_idx` of [`sites`], tallied both in
    /// the legacy detect/escape table and the CE/DUE/SDC taxonomy, with
    /// the early-exit mechanism that decided it (if any), as the site's
    /// [`SiteRun`] says: a pruned site is tallied benign without
    /// simulating, an activation-pruned site likewise (M1), and otherwise
    /// the core forks from the group's chain (or replays from cycle 0)
    /// and runs under M2 when early exit is on.
    ///
    /// Run accounting — prune attribution, fork count/latency/catch-up
    /// distance, simulate and oracle wall time, exit reason — goes to
    /// `metrics` (which may be off).
    pub fn injection_tally(
        &self,
        site_idx: usize,
        metrics: &mut Metrics,
    ) -> (DetectionTally, TaxonomyTally, Option<EarlyExitKind>) {
        let early = match self.runs[site_idx] {
            SiteRun::PrunedStatic => {
                metrics.inc(Counter::PrunedStatic);
                return (
                    DetectionTally::pruned_site(),
                    TaxonomyTally::of(Taxonomy::Benign),
                    None,
                );
            }
            SiteRun::PrunedActivation => {
                metrics.inc(Counter::PrunedActivation);
                return (
                    DetectionTally::of(DetectionOutcome::Benign),
                    TaxonomyTally::of(Taxonomy::Benign),
                    Some(EarlyExitKind::Activation),
                );
            }
            SiteRun::Simulate(early) => early,
        };
        let arm = self.arms[site_idx];
        let plan = armed_plan_kind(sites()[site_idx], arm, self.cfg.kind);
        let tf = Instant::now();
        let mut core = match &self.chain {
            // The periodic chain rarely paused exactly at arm - 1; catch
            // up the few fault-free cycles in between.
            Some(chain) => {
                if metrics.is_on() {
                    metrics.record_catchup(chain.catchup_cycles(arm));
                }
                chain.fork_catchup(arm, plan)
            }
            None => Core::new(self.cfg.core_config(self.mode), &self.inputs.prog, plan),
        };
        if self.chain.is_some() {
            metrics.inc(Counter::SnapshotForks);
            metrics.add(Counter::SnapshotForkNanos, tf.elapsed().as_nanos() as u64);
        }
        let (outcome, kind) = outcome_of(&mut core, &early, &self.inputs.golden, metrics);
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

/// Each site's [`SiteRun`] (indexed like [`sites`] and `arms`): static
/// pruning first, when `cfg.prune` is on, then M1 against the reference
/// pass's `usage`, when it recorded one, and otherwise the M2 seal for
/// the campaign's fault kind.
fn site_runs(
    cfg: DetectionConfig,
    analysis: &SiteAnalysis,
    usage: Option<&SiteUsage>,
    arms: &[u64],
) -> Vec<SiteRun> {
    sites()
        .into_iter()
        .zip(arms)
        .map(|(site, &arm)| {
            if cfg.prune && analysis.prunable(site) {
                return SiteRun::PrunedStatic;
            }
            match usage {
                Some(usage) => EarlyExit::for_site(usage, site, arm, cfg.kind)
                    .map_or(SiteRun::PrunedActivation, SiteRun::Simulate),
                None => SiteRun::Simulate(EarlyExit::default()),
            }
        })
        .collect()
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
        Exit::Converged => (DetectionOutcome::Benign, Some(EarlyExitKind::Convergence)),
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
    /// Per-job scheduling telemetry, when requested. Its `wall` spans the
    /// whole campaign call — the benchmarks' inputs, then the group
    /// setups and injection jobs — while the job timings are the
    /// injection jobs' own.
    pub trace: Option<CampaignTrace>,
    /// The campaign's metrics registry, when requested
    /// ([`ObserveCtl::metrics`]). Its deterministic prefix is
    /// byte-identical for any worker count.
    pub metrics: Option<MetricsRegistry>,
}

/// Observability switches for [`run_detection_observed`] — the
/// campaign-level analog of the per-fan-out [`ObserveOpts`]. Default is
/// everything off, which is exactly [`run_detection`]'s untraced path:
/// no registry, no lock.
#[derive(Default, Clone, Copy)]
pub struct ObserveCtl<'a> {
    /// Collect per-job scheduling telemetry ([`DetectionReport::trace`]).
    pub traced: bool,
    /// Record the metrics registry ([`DetectionReport::metrics`]).
    pub metrics: bool,
    /// Live-progress hook for the campaign's fan-out of group setups and
    /// injection jobs. With `metrics` on, each tick carries the registry
    /// as it stands, the setups retired so far included.
    pub progress: Option<&'a ProgressHook<'a>>,
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
/// campaign is one [`Campaign::run_groups`] call on every path. The
/// registry counts injection jobs as `jobs` and group setups as
/// `setups`.
pub fn run_detection_observed(
    campaign: &Campaign,
    cfg: DetectionConfig,
    benchmarks: &[Benchmark],
    ctl: ObserveCtl<'_>,
) -> DetectionReport {
    let t0 = Instant::now();
    let all_sites = sites();
    let nb = benchmarks.len();
    let ns = all_sites.len();
    let registry = ctl.metrics.then(|| Mutex::new(MetricsRegistry::new()));

    let inputs: Vec<Arc<BenchInputs>> =
        benchmarks.iter().map(|&b| Arc::new(BenchInputs::build(b))).collect();
    // One group per (mode, benchmark), in job order: group index
    // g = mode_idx * nb + bench_idx.
    let groups: Vec<_> = MODES
        .iter()
        .flat_map(|&mode| {
            inputs.iter().map(move |inputs| {
                let inputs = Arc::clone(inputs);
                Group {
                    setup: move |m: &mut Metrics| DetectionGroup::build(mode, cfg, inputs, m),
                    jobs: (0..ns)
                        .map(|site| {
                            move |grp: &DetectionGroup, m: &mut Metrics| {
                                m.inc(Counter::Jobs);
                                (grp.arms[site], grp.injection_tally(site, m))
                            }
                        })
                        .collect(),
                }
            })
        })
        .collect();
    let obs = campaign.run_groups(
        groups,
        ObserveOpts { timings: ctl.traced, metrics: registry.as_ref(), progress: ctl.progress },
    );

    let t_reassembly = Instant::now();
    let results = &obs.results;
    let mode_of = |i: usize| MODES[i / (nb * ns)];
    let tallies: Vec<(Mode, DetectionTally)> =
        results.iter().enumerate().map(|(i, &(_, (t, _, _)))| (mode_of(i), t)).collect();
    let taxonomies: Vec<(Mode, TaxonomyTally)> =
        results.iter().enumerate().map(|(i, &(_, (_, x, _)))| (mode_of(i), x)).collect();
    let early_exits: Vec<Option<EarlyExitKind>> =
        results.iter().map(|&(_, (_, _, e))| e).collect();

    let labels: Vec<String> = MODES
        .iter()
        .flat_map(|&mode| {
            benchmarks.iter().flat_map(move |&b| {
                let sites = sites();
                sites.into_iter().map(move |site| site_label(mode, b.name(), site))
            })
        })
        .collect();
    let meta: Vec<JobMeta> = results
        .iter()
        .enumerate()
        .map(|(i, &(arm, _))| JobMeta {
            mode: mode_of(i),
            bench: benchmarks[i / ns % nb],
            site: all_sites[i % ns],
            arm,
        })
        .collect();

    let text = report_text(cfg, &inputs, &tallies, &taxonomies);
    let metrics = registry.map(|r| {
        let mut r = r.into_inner().expect("metrics registry poisoned");
        // Config facts enter once the jobs are done: what the jobs
        // recorded stays byte-identical for any worker count.
        r.gauge_max(Gauge::Workers, campaign.workers() as u64);
        r.add(Counter::ReassemblyNanos, t_reassembly.elapsed().as_nanos() as u64);
        r
    });
    let trace = obs.trace.map(|t| CampaignTrace { wall: t0.elapsed(), ..t });
    DetectionReport { tallies, taxonomies, early_exits, labels, meta, text, trace, metrics }
}

/// Renders the deterministic report. `inputs` are the benchmarks', in
/// benchmark order (the analysis and pruning facts are mode-independent).
/// Worker counts and wall-clock are deliberately absent — the report is
/// byte-identical for any `BJ_THREADS` and every `snapshot` /
/// `early_exit` path.
fn report_text(
    cfg: DetectionConfig,
    inputs: &[Arc<BenchInputs>],
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
        inputs.len(),
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
            inputs.iter().map(|b| b.analysis.prunable_backend_ways().len() as u32).sum();
        s.push_str(&format!(
            "\npruned_sites: {} of {} runs per mode statically proven benign\n",
            per_mode,
            inputs.len() * n_sites,
        ));
        for b in inputs {
            let dead: Vec<String> =
                b.analysis.dead_classes().iter().map(|t| format!("{t} x{}", counts.of(*t))).collect();
            s.push_str(&format!(
                "  {:8} {:2} ways pruned  [{}]\n",
                b.analysis.program,
                b.analysis.prunable_backend_ways().len(),
                dead.join(", ")
            ));
        }
    } else {
        s.push_str("\npruned_sites: static pruning disabled\n");
    }
    s
}

/// Parses harness arguments: `--bench <name>` restricts the sweep to one
/// benchmark (EXPERIMENTS.md's `bj-trace top` capture uses this). Any kernel
/// [`Benchmark::from_name`] knows is accepted — including the
/// call-bearing kernels outside the default sweep. Unknown
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
