//! # Campaign-scale metrics: a typed, mergeable, zero-overhead registry
//!
//! Counters, gauges, and a fixed-bucket histogram for everything a
//! campaign does — jobs run, snapshots taken/retired, forks and
//! their catch-up cycles, per-`exit_reason` verdict counts, pruning
//! tallies — plus wall-clock phase attribution (setup / snapshot
//! build and fork / simulate / oracle / reassembly).
//!
//! One registry is a campaign's only counter store: the `metrics` record
//! on the `BJ_TRACE` stream inlines it, and every live `progress` record
//! reads its counters from a copy of it. The design borrows both
//! disciplines that made `sim::trace` safe to leave in the hot path:
//!
//! * **Zero overhead when off.** [`Metrics`] is an enum —
//!   [`Metrics::Off`] or [`Metrics::On`]`(Box<MetricsRegistry>)` — the
//!   same dispatch trick as `Tracer::Off`. Every recording method is a
//!   single discriminant test on the off path; a registry is only ever
//!   allocated for an observed campaign (`BJ_TRACE` set).
//! * **Deterministic merge algebra.** Counters and histograms merge by
//!   element-wise sum, gauges by max — associative and commutative with
//!   the empty registry as identity. The campaign engine records each job
//!   into a worker-local handle and merges it into the campaign's one
//!   registry when the job retires, so the order jobs retire in cannot
//!   change the totals: the deterministic prefix is byte-identical for 1
//!   and 8 workers (pinned by `crates/bench/tests/observability.rs`).
//!
//! **Deterministic vs. nondeterministic metrics.** Counts of *events*
//! (jobs, forks, exit reasons, snapshot takes) are identical run to run;
//! *timing* metrics (the `*_nanos` counters) are not. Every counter is
//! statically tagged ([`Counter::nondet`]), the JSON emitter segregates
//! the two ([`MetricsRegistry::to_json`] puts every nondeterministic
//! field after the `"nondet"` marker), and
//! [`MetricsRegistry::deterministic_json`] drops the timing side entirely
//! — that string is the determinism test's byte-comparison artifact.

use blackjack_sim::{ExitReason, Histogram};

/// Bucket width of the fork catch-up histogram: 32-cycle buckets cover
/// the periodic chain's `0..SNAPSHOT_INTERVAL` catch-up range across the
/// histogram's 33 buckets.
pub const CATCHUP_BUCKET_CYCLES: u64 = 32;

/// Every counter the registry holds. Deterministic counters count
/// campaign *events*; the `*Nanos` counters accumulate wall-clock and are
/// tagged nondeterministic ([`Counter::nondet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Injection jobs executed. Group setups are not jobs: they count
    /// under [`Counter::Setups`].
    Jobs,
    /// Group setups executed (fault-free reference passes).
    Setups,
    /// Injection runs actually simulated (not pruned away).
    RunsSimulated,
    /// Snapshots taken by the periodic chain builders.
    SnapshotsTaken,
    /// Always 0: the chain builder takes every snapshot fresh (it counts
    /// under [`Counter::SnapshotsTaken`]) since copy-on-write cache
    /// chunks, pages and BTB made a spare pool of retired snapshots
    /// reuse almost nothing. Kept for readers of the `snapshots_refilled`
    /// key, such as the benchmark's `snapshot.refilled` metric.
    SnapshotsRefilled,
    /// Snapshots retired by the sliding horizon / thinning.
    SnapshotsRetired,
    /// Injection cores minted by forking a snapshot.
    SnapshotForks,
    /// Fault-free cycles replayed by `fork_catchup` (sum).
    ForkCatchupCycles,
    /// Runs that ended with `ExitReason::Completed`.
    ExitCompleted,
    /// Runs that ended with `ExitReason::Detected`.
    ExitDetected,
    /// Runs that ended with `ExitReason::CycleLimit`.
    ExitCycleLimit,
    /// Runs the early-exit driver sealed benign (M2, convergence).
    ExitConverged,
    /// Always 0: early exit has no stall watchdog (a wedged run ends on
    /// the core's no-commit watchdog and counts under
    /// [`Counter::ExitCycleLimit`]). Kept for readers of the
    /// `exit_stalled` key, such as the benchmark's
    /// `detection.early_exit.watchdog` metric.
    ExitStalled,
    /// Sites statically proven benign — no simulation at all.
    PrunedStatic,
    /// Sites activation-pruned by the reference usage schedule — benign
    /// with no simulation (early-exit mechanism 1).
    PrunedActivation,
    /// Wall nanos in group setups (reference passes), excluding
    /// snapshot-chain building.
    SetupNanos,
    /// Wall nanos building snapshot chains.
    SnapshotBuildNanos,
    /// Wall nanos forking injection cores from snapshots.
    SnapshotForkNanos,
    /// Wall nanos inside `Core::run` for injection runs.
    SimulateNanos,
    /// Wall nanos comparing final memory against the golden image.
    OracleNanos,
    /// Wall nanos assembling tallies, labels, and report text.
    ReassemblyNanos,
}

impl Counter {
    /// All counters, in declaration (= JSON emission) order.
    pub const ALL: [Counter; 21] = [
        Counter::Jobs,
        Counter::Setups,
        Counter::RunsSimulated,
        Counter::SnapshotsTaken,
        Counter::SnapshotsRefilled,
        Counter::SnapshotsRetired,
        Counter::SnapshotForks,
        Counter::ForkCatchupCycles,
        Counter::ExitCompleted,
        Counter::ExitDetected,
        Counter::ExitCycleLimit,
        Counter::ExitConverged,
        Counter::ExitStalled,
        Counter::PrunedStatic,
        Counter::PrunedActivation,
        Counter::SetupNanos,
        Counter::SnapshotBuildNanos,
        Counter::SnapshotForkNanos,
        Counter::SimulateNanos,
        Counter::OracleNanos,
        Counter::ReassemblyNanos,
    ];

    /// Stable snake_case JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Jobs => "jobs",
            Counter::Setups => "setups",
            Counter::RunsSimulated => "runs_simulated",
            Counter::SnapshotsTaken => "snapshots_taken",
            Counter::SnapshotsRefilled => "snapshots_refilled",
            Counter::SnapshotsRetired => "snapshots_retired",
            Counter::SnapshotForks => "snapshot_forks",
            Counter::ForkCatchupCycles => "fork_catchup_cycles",
            Counter::ExitCompleted => "exit_completed",
            Counter::ExitDetected => "exit_detected",
            Counter::ExitCycleLimit => "exit_cycle_limit",
            Counter::ExitConverged => "exit_converged",
            Counter::ExitStalled => "exit_stalled",
            Counter::PrunedStatic => "pruned_static",
            Counter::PrunedActivation => "pruned_activation",
            Counter::SetupNanos => "setup_nanos",
            Counter::SnapshotBuildNanos => "snapshot_build_nanos",
            Counter::SnapshotForkNanos => "snapshot_fork_nanos",
            Counter::SimulateNanos => "simulate_nanos",
            Counter::OracleNanos => "oracle_nanos",
            Counter::ReassemblyNanos => "reassembly_nanos",
        }
    }

    /// True for wall-clock counters, which vary run to run and are
    /// excluded from [`MetricsRegistry::deterministic_json`].
    pub fn nondet(self) -> bool {
        matches!(
            self,
            Counter::SetupNanos
                | Counter::SnapshotBuildNanos
                | Counter::SnapshotForkNanos
                | Counter::SimulateNanos
                | Counter::OracleNanos
                | Counter::ReassemblyNanos
        )
    }

    /// The per-`exit_reason` counter for `reason`.
    pub fn of_exit(reason: ExitReason) -> Counter {
        match reason {
            ExitReason::Completed => Counter::ExitCompleted,
            ExitReason::Detected => Counter::ExitDetected,
            ExitReason::CycleLimit => Counter::ExitCycleLimit,
        }
    }
}

/// Gauges: merged by **max**, not sum — high-water marks survive the
/// per-job merge without double counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Campaign worker count.
    Workers,
    /// Peak snapshots retained by any one chain build.
    PeakRetainedSnapshots,
}

impl Gauge {
    /// All gauges, in declaration (= JSON emission) order.
    pub const ALL: [Gauge; 2] = [Gauge::Workers, Gauge::PeakRetainedSnapshots];

    /// Stable snake_case JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Workers => "workers",
            Gauge::PeakRetainedSnapshots => "peak_retained_snapshots",
        }
    }
}

/// The metric store: fixed arrays indexed by [`Counter`]/[`Gauge`]
/// discriminants plus one fixed-bucket histogram. Plain data of about
/// 450 bytes, cheap to merge per job and to copy into a progress tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: [u64; Counter::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
    /// Fork catch-up cycles per fork (deterministic).
    catchup_cycles: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            counters: [0; Counter::ALL.len()],
            gauges: [0; Gauge::ALL.len()],
            catchup_cycles: Histogram::with_width(CATCHUP_BUCKET_CYCLES),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry (the merge identity).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Increments `c` by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Reads counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Raises gauge `g` to at least `v` (high-water mark).
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g as usize];
        *slot = (*slot).max(v);
    }

    /// Reads gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Records one fork's catch-up distance (cycles).
    #[inline]
    pub fn record_catchup(&mut self, cycles: u64) {
        self.catchup_cycles.record(cycles);
        self.add(Counter::ForkCatchupCycles, cycles);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self == &MetricsRegistry::default()
    }

    /// Merges `other` into `self`: counters and histograms sum, gauges
    /// take the max. Associative and commutative, so the order jobs
    /// retire in cannot change the total.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        self.catchup_cycles.merge(&other.catchup_cycles);
    }

    /// Deterministic counters, gauges, and the catch-up histogram as one
    /// JSON object — identical for any worker count. This is the string
    /// the 1-vs-8-worker determinism test compares byte for byte.
    pub fn deterministic_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        let mut first = true;
        for c in Counter::ALL {
            if c.nondet() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\"{}\":{}", c.name(), self.get(c)));
        }
        s.push_str("},\"gauges\":{");
        for (i, g) in Gauge::ALL.into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", g.name(), self.gauge(g)));
        }
        s.push_str(&format!(
            "}},\"catchup_cycles\":{}}}",
            self.catchup_cycles.to_json()
        ));
        s
    }

    /// The full registry as one JSON object: the deterministic fields
    /// first, then a `"nondet"` array naming every field that follows it
    /// — the contract consumers use to strip timing noise (`sed
    /// 's/,"nondet":.*/}/'` leaves exactly the deterministic prefix).
    pub fn to_json(&self) -> String {
        let det = self.deterministic_json();
        let nondet_names: Vec<String> =
            Counter::ALL.iter().filter(|c| c.nondet()).map(|c| format!("\"{}\"", c.name())).collect();
        let mut s = det;
        s.pop(); // reopen the deterministic object
        s.push_str(&format!(",\"nondet\":[{}]", nondet_names.join(",")));
        for c in Counter::ALL {
            if c.nondet() {
                s.push_str(&format!(",\"{}\":{}", c.name(), self.get(c)));
            }
        }
        s.push('}');
        s
    }
}

/// The recording handle: [`Metrics::Off`] is a unit — every method is an
/// inlined discriminant test and nothing allocates — mirroring
/// `Tracer::Off`.
#[derive(Debug, Default)]
pub enum Metrics {
    /// Recording disabled; all methods are no-ops.
    #[default]
    Off,
    /// Recording into the boxed registry.
    On(Box<MetricsRegistry>),
}

impl Metrics {
    /// A live registry.
    pub fn enabled() -> Metrics {
        Metrics::On(Box::default())
    }

    /// `enabled()` or `Off` by flag — the campaign engine gives each
    /// worker a live handle only when the campaign has a registry.
    pub fn when(on: bool) -> Metrics {
        if on {
            Metrics::enabled()
        } else {
            Metrics::Off
        }
    }

    /// True when recording.
    pub fn is_on(&self) -> bool {
        matches!(self, Metrics::On(_))
    }

    /// The registry, when recording.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        match self {
            Metrics::Off => None,
            Metrics::On(r) => Some(r),
        }
    }

    /// Adds `n` to `c` when recording.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if let Metrics::On(r) = self {
            r.add(c, n);
        }
    }

    /// Increments `c` when recording.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Raises gauge `g` to at least `v` when recording.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        if let Metrics::On(r) = self {
            r.gauge_max(g, v);
        }
    }

    /// Records a fork catch-up distance when recording.
    #[inline]
    pub fn record_catchup(&mut self, cycles: u64) {
        if let Metrics::On(r) = self {
            r.record_catchup(cycles);
        }
    }

    /// Counts a run's exit reason when recording.
    #[inline]
    pub fn record_exit(&mut self, reason: Option<ExitReason>) {
        if let (Metrics::On(r), Some(reason)) = (self, reason) {
            r.inc(Counter::of_exit(reason));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_and_read_back() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.inc(Counter::Jobs);
        r.add(Counter::Jobs, 2);
        r.add(Counter::SnapshotForks, 5);
        r.gauge_max(Gauge::Workers, 4);
        r.gauge_max(Gauge::Workers, 2); // lower: must not regress
        assert_eq!(r.get(Counter::Jobs), 3);
        assert_eq!(r.get(Counter::SnapshotForks), 5);
        assert_eq!(r.gauge(Gauge::Workers), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_is_commutative_and_has_identity() {
        let mut a = MetricsRegistry::new();
        a.add(Counter::Jobs, 7);
        a.gauge_max(Gauge::Workers, 2);
        a.record_catchup(100);
        let mut b = MetricsRegistry::new();
        b.add(Counter::Jobs, 4);
        b.add(Counter::PrunedStatic, 1);
        b.gauge_max(Gauge::Workers, 8);
        b.record_catchup(400);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.get(Counter::Jobs), 11);
        assert_eq!(ab.gauge(Gauge::Workers), 8, "gauges merge by max");
        assert_eq!(ab.catchup_cycles.total(), 2);

        let mut with_identity = a.clone();
        with_identity.merge(&MetricsRegistry::new());
        assert_eq!(with_identity, a, "empty registry is the merge identity");
    }

    #[test]
    fn off_handle_is_inert() {
        let mut m = Metrics::Off;
        m.inc(Counter::Jobs);
        m.record_catchup(10);
        m.gauge_max(Gauge::Workers, 9);
        m.record_exit(Some(ExitReason::Detected));
        assert!(!m.is_on());
        assert!(m.registry().is_none());
    }

    #[test]
    fn on_handle_records_exits_per_reason() {
        let mut m = Metrics::enabled();
        m.record_exit(Some(ExitReason::Completed));
        m.record_exit(Some(ExitReason::Completed));
        m.record_exit(Some(ExitReason::CycleLimit));
        m.record_exit(None); // pre-run / unknown: not counted
        let r = m.registry().unwrap();
        assert_eq!(r.get(Counter::ExitCompleted), 2);
        assert_eq!(r.get(Counter::ExitCycleLimit), 1);
        assert_eq!(r.get(Counter::ExitDetected), 0);
    }

    #[test]
    fn every_exit_reason_has_its_own_counter() {
        let mut seen = Vec::new();
        for reason in ExitReason::ALL {
            let c = Counter::of_exit(reason);
            assert!(!c.nondet(), "exit counters are deterministic");
            assert!(!seen.contains(&c), "{reason:?} shares a counter");
            seen.push(c);
        }
        // Early exit's own exit reason never aliases a core reason.
        assert!(!seen.contains(&Counter::ExitConverged));
    }

    #[test]
    fn deterministic_json_excludes_every_nondet_field() {
        let mut r = MetricsRegistry::new();
        r.add(Counter::Jobs, 3);
        r.add(Counter::SimulateNanos, 123_456);
        let det = r.deterministic_json();
        for c in Counter::ALL {
            if c.nondet() {
                assert!(!det.contains(c.name()), "{} leaked into deterministic json", c.name());
            } else {
                assert!(det.contains(c.name()), "{} missing from deterministic json", c.name());
            }
        }
        assert!(det.contains("\"catchup_cycles\""));
    }

    #[test]
    fn full_json_puts_nondet_fields_after_the_marker() {
        let mut r = MetricsRegistry::new();
        r.add(Counter::Jobs, 1);
        r.add(Counter::OracleNanos, 55);
        let full = r.to_json();
        let marker = full.find("\"nondet\":[").expect("marker present");
        for c in Counter::ALL {
            let pos = full.find(&format!("\"{}\":", c.name())).unwrap_or_else(|| panic!("{}", c.name()));
            if c.nondet() {
                assert!(pos > marker, "{} must follow the nondet marker", c.name());
            } else {
                assert!(pos < marker, "{} must precede the nondet marker", c.name());
            }
        }
        // Stripping at the marker leaves the deterministic prefix, and
        // it is exactly `deterministic_json`.
        let stripped = format!("{}}}", &full[..marker - 1]);
        assert_eq!(stripped, r.deterministic_json());
    }

    #[test]
    fn when_and_from_env_shape() {
        assert!(Metrics::when(true).is_on());
        assert!(!Metrics::when(false).is_on());
        // A harness records metrics exactly when `BJ_TRACE` names a
        // stream; the variable is unset or valid when the suite runs.
        let _ = Metrics::when(crate::envcfg::TRACE.create(|_| Ok(())).is_some());
    }
}
