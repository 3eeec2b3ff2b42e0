//! Simulation statistics: performance, interference, burstiness, coverage.

use blackjack_faults::{AreaModel, CoverageAccum};

use crate::detect::DetectionEvent;

/// Per-pair way-usage record (captured only when
/// [`SimStats::trace_pairs`] is set; used by tests and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairTrace {
    /// Program-order sequence number.
    pub seq: u64,
    /// FU class index.
    pub fu: usize,
    /// Leading (frontend, backend) ways.
    pub lead: (usize, usize),
    /// Trailing (frontend, backend) ways.
    pub trail: (usize, usize),
    /// Cycle the trailing copy issued.
    pub trail_issue: u64,
    /// Trailing packet id.
    pub packet: u64,
}

/// How the most recent [`Core::run`](crate::Core::run) call ended, as
/// recorded in [`SimStats::exit_reason`] for the telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// Clean completion (both threads halted, stores checked).
    Completed,
    /// A redundancy check fired.
    Detected,
    /// The cycle budget (or the built-in no-progress watchdog) cut the
    /// run off.
    CycleLimit,
}

impl ExitReason {
    /// Every reason, in stable (telemetry/metrics) order — campaign
    /// metrics key per-reason counters off this enumeration.
    pub const ALL: [ExitReason; 3] =
        [ExitReason::Completed, ExitReason::Detected, ExitReason::CycleLimit];

    /// Stable telemetry token for the reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExitReason::Completed => "completed",
            ExitReason::Detected => "detected",
            ExitReason::CycleLimit => "cycle_limit",
        }
    }
}

/// Everything a run measures; the figure harnesses read these fields.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Wall-clock nanoseconds spent inside [`Core::run`](crate::Core::run)
    /// for **this run** — campaign observability reads it as the run's
    /// *simulate*-phase stamp when attributing wall time to phases.
    /// [`SimStats::merge`] leaves it untouched: summing
    /// the wall-clock of runs that executed in parallel on different
    /// campaign workers would not measure any real elapsed interval.
    /// Campaign-level wall-clock throughput divides by the campaign's own
    /// elapsed time instead (`CampaignTrace::wall`).
    pub wall_nanos: u64,
    /// *Aggregate* compute nanoseconds: the sum of `wall_nanos` over every
    /// run merged into this record (equal to `wall_nanos` for a single
    /// un-merged run). This is CPU-time, not elapsed time — the
    /// denominator of [`SimStats::cycles_per_sec`], making that metric
    /// "simulated cycles per worker-second" and therefore comparable
    /// across worker counts.
    pub agg_wall_nanos: u64,
    /// Architectural instructions committed, per context.
    pub committed: [u64; 2],
    /// Instructions fetched (including wrong-path), per context.
    pub fetched: [u64; 2],
    /// Instructions issued (including wrong-path and filler NOPs), per
    /// context.
    pub issued: [u64; 2],
    /// Safe-shuffle filler NOPs issued.
    pub filler_issued: u64,
    /// Wrong-path instructions squashed.
    pub squashed: u64,
    /// Leading-thread branch mispredictions.
    pub mispredicts: u64,
    /// Committed conditional branches (leading).
    pub branches: u64,

    // --- issue-cycle classification (Figures 5 and 6) ---
    /// Cycles in which at least one instruction issued.
    pub issue_cycles: u64,
    /// Issue cycles whose instructions all came from one context (Fig. 6).
    pub single_ctx_issue_cycles: u64,
    /// Issue cycles where leading and trailing instructions co-issued.
    pub lt_coissue_cycles: u64,
    /// Issue cycles where two or more trailing packets co-issued.
    pub tt_coissue_cycles: u64,
    /// Leading-trailing co-issue cycles that *violated* spatial diversity
    /// (Fig. 5, black bars).
    pub lt_interference_cycles: u64,
    /// Trailing-trailing co-issue cycles that violated spatial diversity
    /// (Fig. 5, white bars).
    pub tt_interference_cycles: u64,

    // --- coverage (Figure 4) ---
    /// Spatial-diversity observations over committed pairs.
    pub coverage: CoverageAccum,
    /// Backend-diversity outcome per FU class: `[class][0]` = pairs that
    /// shared a way, `[class][1]` = pairs on different ways.
    pub back_div_by_fu: [[u64; 2]; 7],

    // --- safe-shuffle ---
    /// Input packets split by the shuffle.
    pub shuffle_splits: u64,
    /// Filler NOPs emitted by the shuffle.
    pub shuffle_nops: u64,
    /// Forced (non-diverse) placements by the shuffle.
    pub shuffle_forced: u64,
    /// Packets shuffled.
    pub shuffle_packets: u64,

    // --- redundancy machinery ---
    /// Trailing stores checked against the store buffer.
    pub store_checks: u64,
    /// Single-bit upsets corrected by the LVQ payload SEC-DED decoder
    /// (`CoreConfig::lvq_ecc`) — the CE count of the reliability
    /// taxonomy. Always zero when ECC is off.
    pub ecc_corrected: u64,
    /// Detection events (at most one — the run stops on detection).
    pub detections: Vec<DetectionEvent>,
    /// True if the run was cut off by the no-progress watchdog (possible
    /// under injected faults that stall a thread forever).
    pub deadlocked: bool,
    /// How the last `run()` call ended; `None` before the first call, and
    /// poisoned back to `None` by [`SimStats::merge`] when the merged
    /// runs ended differently (a pooled record has no single reason).
    pub exit_reason: Option<ExitReason>,
    /// Enables [`SimStats::pair_trace`] capture.
    pub trace_pairs: bool,
    /// Per-pair way usage, when tracing is enabled.
    pub pair_trace: Vec<PairTrace>,
}

impl SimStats {
    /// Committed instructions per cycle for the leading (or single)
    /// thread — the paper's performance metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed[0] as f64 / self.cycles as f64
        }
    }

    /// Fraction of issue cycles drawing from a single context (Fig. 6).
    pub fn burstiness(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.single_ctx_issue_cycles as f64 / self.issue_cycles as f64
        }
    }

    /// Fraction of issue cycles with diversity-violating leading-trailing
    /// interference (Fig. 5, black bars).
    pub fn lt_interference(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.lt_interference_cycles as f64 / self.issue_cycles as f64
        }
    }

    /// Fraction of issue cycles with diversity-violating trailing-trailing
    /// interference (Fig. 5, white bars).
    pub fn tt_interference(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.tt_interference_cycles as f64 / self.issue_cycles as f64
        }
    }

    /// Whole-pipeline hard-error instruction coverage (Fig. 4a).
    pub fn total_coverage(&self, area: &AreaModel) -> f64 {
        self.coverage.total_coverage(area)
    }

    /// Backend-only coverage (Fig. 4b).
    pub fn backend_coverage(&self) -> f64 {
        self.coverage.backend_coverage()
    }

    /// Frontend-only coverage.
    pub fn frontend_coverage(&self) -> f64 {
        self.coverage.frontend_coverage()
    }

    /// Simulated cycles per *worker*-second — the simulator's own
    /// throughput, the number the benchmark's `figures` workload reports
    /// per mode as `sim.cycles_per_s.*`.
    ///
    /// The denominator is [`SimStats::agg_wall_nanos`], the summed
    /// compute time of every merged run — **not** campaign elapsed time.
    /// For a single run the two coincide; after a merge this metric stays
    /// a per-worker efficiency number instead of silently conflating
    /// parallel jobs' wall time (the pre-`agg_wall_nanos` bug).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.agg_wall_nanos == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.agg_wall_nanos as f64
        }
    }

    /// Merges another run's statistics into this one. All counters sum,
    /// coverage observations pool, and event traces append, so campaign
    /// workers can measure runs independently and combine afterwards;
    /// merging is order-insensitive for every derived ratio. Compute time
    /// sums into [`SimStats::agg_wall_nanos`]; the per-run
    /// [`SimStats::wall_nanos`] is deliberately left alone (see its doc).
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.agg_wall_nanos += other.agg_wall_nanos;
        for i in 0..2 {
            self.committed[i] += other.committed[i];
            self.fetched[i] += other.fetched[i];
            self.issued[i] += other.issued[i];
        }
        self.filler_issued += other.filler_issued;
        self.squashed += other.squashed;
        self.mispredicts += other.mispredicts;
        self.branches += other.branches;
        self.issue_cycles += other.issue_cycles;
        self.single_ctx_issue_cycles += other.single_ctx_issue_cycles;
        self.lt_coissue_cycles += other.lt_coissue_cycles;
        self.tt_coissue_cycles += other.tt_coissue_cycles;
        self.lt_interference_cycles += other.lt_interference_cycles;
        self.tt_interference_cycles += other.tt_interference_cycles;
        self.coverage.merge(&other.coverage);
        for (mine, theirs) in self.back_div_by_fu.iter_mut().zip(&other.back_div_by_fu) {
            mine[0] += theirs[0];
            mine[1] += theirs[1];
        }
        self.shuffle_splits += other.shuffle_splits;
        self.shuffle_nops += other.shuffle_nops;
        self.shuffle_forced += other.shuffle_forced;
        self.shuffle_packets += other.shuffle_packets;
        self.store_checks += other.store_checks;
        self.ecc_corrected += other.ecc_corrected;
        self.detections.extend(other.detections.iter().copied());
        self.deadlocked |= other.deadlocked;
        if self.exit_reason != other.exit_reason {
            // Differing reasons poison to None either merge order.
            self.exit_reason = None;
        }
        self.trace_pairs |= other.trace_pairs;
        self.pair_trace.extend(other.pair_trace.iter().copied());
    }

    /// One-line JSON object with the run's headline counters, for the
    /// `BJ_TRACE` telemetry stream. Same counter names as the fields.
    pub fn to_json(&self) -> String {
        // Additive, schema-v1-compatible tail: exit_reason absent when no
        // run() ended, ECC corrections absent unless one actually fired.
        let mut extras = self
            .exit_reason
            .map(|r| format!(",\"exit_reason\":\"{}\"", r.as_str()))
            .unwrap_or_default();
        if self.ecc_corrected > 0 {
            extras.push_str(&format!(",\"ecc_corrected\":{}", self.ecc_corrected));
        }
        format!(
            "{{\"cycles\":{},\"wall_nanos\":{},\"agg_wall_nanos\":{},\
             \"committed\":[{},{}],\"fetched\":[{},{}],\"issued\":[{},{}],\
             \"filler_issued\":{},\"squashed\":{},\"mispredicts\":{},\
             \"branches\":{},\"issue_cycles\":{},\"single_ctx_issue_cycles\":{},\
             \"lt_interference_cycles\":{},\"tt_interference_cycles\":{},\
             \"shuffle_nops\":{},\"store_checks\":{},\"detections\":{},\
             \"deadlocked\":{}{},\"ipc\":{:.6}}}",
            self.cycles,
            self.wall_nanos,
            self.agg_wall_nanos,
            self.committed[0],
            self.committed[1],
            self.fetched[0],
            self.fetched[1],
            self.issued[0],
            self.issued[1],
            self.filler_issued,
            self.squashed,
            self.mispredicts,
            self.branches,
            self.issue_cycles,
            self.single_ctx_issue_cycles,
            self.lt_interference_cycles,
            self.tt_interference_cycles,
            self.shuffle_nops,
            self.store_checks,
            self.detections.len(),
            self.deadlocked,
            extras,
            self.ipc(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.burstiness(), 0.0);
        assert_eq!(s.lt_interference(), 0.0);
        assert_eq!(s.tt_interference(), 0.0);
    }

    #[test]
    fn ipc_uses_leading_commits() {
        let s = SimStats { cycles: 100, committed: [250, 240], ..SimStats::default() };
        assert_eq!(s.ipc(), 2.5);
    }

    #[test]
    fn interference_fractions() {
        let s = SimStats {
            issue_cycles: 200,
            single_ctx_issue_cycles: 140,
            lt_interference_cycles: 5,
            tt_interference_cycles: 1,
            ..SimStats::default()
        };
        assert_eq!(s.burstiness(), 0.7);
        assert_eq!(s.lt_interference(), 0.025);
        assert_eq!(s.tt_interference(), 0.005);
    }

    #[test]
    fn cycles_per_sec_accounting() {
        let s = SimStats::default();
        assert_eq!(s.cycles_per_sec(), 0.0, "no wall time yet");
        let s = SimStats {
            cycles: 3_000_000,
            wall_nanos: 1_500_000_000,
            agg_wall_nanos: 1_500_000_000,
            ..SimStats::default()
        };
        assert_eq!(s.cycles_per_sec(), 2_000_000.0);
    }

    #[test]
    fn wall_nanos_is_per_run_and_agg_wall_nanos_pools() {
        // Two runs of 100ns compute that executed *in parallel*: after a
        // merge, per-run wall stays a single run's interval, aggregate
        // compute sums, and cycles_per_sec divides by the aggregate — a
        // per-worker number, not a bogus "parallel walls added" one.
        let mk = |cycles| SimStats {
            cycles,
            wall_nanos: 100,
            agg_wall_nanos: 100,
            ..SimStats::default()
        };
        let mut a = mk(400);
        a.merge(&mk(600));
        assert_eq!(a.wall_nanos, 100, "merge must not sum per-run wall-clock");
        assert_eq!(a.agg_wall_nanos, 200, "merge sums compute time");
        assert_eq!(a.cycles_per_sec(), 1000.0 * 1e9 / 200.0);
    }

    #[test]
    fn merge_sums_counters_and_pools_coverage() {
        let mut a = SimStats {
            cycles: 100,
            wall_nanos: 50,
            agg_wall_nanos: 50,
            committed: [10, 9],
            issue_cycles: 40,
            single_ctx_issue_cycles: 30,
            mispredicts: 2,
            shuffle_nops: 5,
            ..SimStats::default()
        };
        a.coverage.record_pair(true, true);
        a.back_div_by_fu[0][1] += 1;

        let mut b = SimStats {
            cycles: 300,
            wall_nanos: 150,
            agg_wall_nanos: 150,
            committed: [20, 21],
            issue_cycles: 60,
            single_ctx_issue_cycles: 40,
            mispredicts: 1,
            shuffle_nops: 7,
            deadlocked: true,
            ..SimStats::default()
        };
        b.coverage.record_pair(false, false);
        b.back_div_by_fu[0][0] += 1;

        a.merge(&b);
        assert_eq!(a.cycles, 400);
        assert_eq!(a.wall_nanos, 50, "per-run wall is not summed");
        assert_eq!(a.agg_wall_nanos, 200);
        assert_eq!(a.committed, [30, 30]);
        assert_eq!(a.issue_cycles, 100);
        assert_eq!(a.single_ctx_issue_cycles, 70);
        assert_eq!(a.mispredicts, 3);
        assert_eq!(a.shuffle_nops, 12);
        assert!(a.deadlocked);
        assert_eq!(a.coverage.pairs, 2);
        assert_eq!(a.back_div_by_fu[0], [1, 1]);
        // Derived ratios come out pooled, not averaged.
        assert_eq!(a.burstiness(), 0.7);
        assert_eq!(a.backend_coverage(), 0.5);
        assert_eq!(a.cycles_per_sec(), 2e9);
    }

    #[test]
    fn exit_reason_merge_and_json() {
        // Absent reason: the field stays out of the JSON entirely.
        let s = SimStats::default();
        assert!(!s.to_json().contains("exit_reason"));

        let done = SimStats { exit_reason: Some(ExitReason::Completed), ..SimStats::default() };
        assert!(done.to_json().contains("\"exit_reason\":\"completed\""));

        // Same reason survives a merge; differing reasons poison to None
        // in either order.
        let mut a = done.clone();
        a.merge(&done);
        assert_eq!(a.exit_reason, Some(ExitReason::Completed));
        let limited = SimStats { exit_reason: Some(ExitReason::CycleLimit), ..SimStats::default() };
        let mut x = done.clone();
        x.merge(&limited);
        let mut y = limited.clone();
        y.merge(&done);
        assert_eq!(x.exit_reason, None);
        assert_eq!(y.exit_reason, None);
        assert!(!x.to_json().contains("exit_reason"));
    }

    #[test]
    fn coverage_passthrough() {
        let mut s = SimStats::default();
        s.coverage.record_pair(true, true);
        s.coverage.record_pair(false, false);
        assert_eq!(s.frontend_coverage(), 0.5);
        assert_eq!(s.backend_coverage(), 0.5);
        assert_eq!(s.total_coverage(&AreaModel::default()), 0.5);
    }
}
