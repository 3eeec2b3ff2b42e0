//! Error-detection events — the output of BlackJack's checks.

use std::fmt;

/// Which check fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionKind {
    /// Trailing store disagreed with the buffered leading store in address
    /// or data (the SRT output comparison, §3).
    StoreMismatch,
    /// The trailing thread committed a store the leading thread never
    /// produced (program-order corruption).
    UnpairedStore,
    /// A trailing load's computed address disagreed with the LVQ entry
    /// recorded by the leading load.
    LoadAddrMismatch,
    /// A trailing branch's computed outcome disagreed with the outcome
    /// borrowed from the leading thread (BOQ in SRT; committed next-PC in
    /// BlackJack) — the §4.4 verification of borrowed control flow.
    BranchOutcomeMismatch,
    /// The second (program-order) rename table's lookup disagreed with the
    /// physical sources the trailing instruction actually used — the §4.4
    /// dependence check on borrowed rename/issue-order information.
    DependenceCheckMismatch,
    /// The committed PC chain broke: an instruction's PC was not its
    /// predecessor's computed next PC (§4.4 program-counter check).
    ProgramOrderMismatch,
    /// Both threads halted with leading stores still unchecked in the
    /// store buffer — a corrupted trailing stream reached `halt` without
    /// consuming the leading thread's full output.
    UncheckedStores,
    /// The LVQ payload RAM's SEC-DED decoder flagged a multi-bit upset
    /// at the trailing read port — a detected uncorrectable error (DUE).
    EccUncorrectable,
}

impl fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectionKind::StoreMismatch => "store address/data mismatch",
            DetectionKind::UnpairedStore => "unpaired trailing store",
            DetectionKind::LoadAddrMismatch => "load address mismatch at LVQ",
            DetectionKind::BranchOutcomeMismatch => "branch outcome mismatch",
            DetectionKind::DependenceCheckMismatch => "dependence check mismatch",
            DetectionKind::ProgramOrderMismatch => "program-order (PC) check mismatch",
            DetectionKind::UncheckedStores => "unchecked leading stores at completion",
            DetectionKind::EccUncorrectable => "uncorrectable ECC error at LVQ read",
        };
        f.write_str(s)
    }
}

/// A detected hard (or soft) error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionEvent {
    /// Which check fired.
    pub kind: DetectionKind,
    /// Cycle of detection.
    pub cycle: u64,
    /// Program-order sequence number of the instruction at the check.
    pub seq: u64,
    /// PC of the instruction at the check.
    pub pc: u64,
    /// Backend way the leading copy of the implicated instruction used,
    /// when known — the input to online diagnosis.
    pub lead_back_way: Option<usize>,
    /// Backend way the trailing copy used, when known.
    pub trail_back_way: Option<usize>,
    /// Frontend ways of the two copies, when known.
    pub front_ways: Option<(usize, usize)>,
    /// For store mismatches: the two copies' (address, data) pairs —
    /// leading first. A recomputation layer (firmware re-executing the
    /// store in software) can arbitrate which copy was wrong and turn the
    /// symmetric detection into a one-sided diagnosis.
    pub store_compared: Option<((u64, u64), (u64, u64))>,
}

impl fmt::Display for DetectionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {:#x} (seq {}, cycle {})", self.kind, self.pc, self.seq, self.cycle)
    }
}

/// How a simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Both threads committed `halt` and every store was checked.
    Completed,
    /// A check fired; the error was contained before corrupting memory.
    Detected(DetectionEvent),
    /// The cycle budget ran out first (or the built-in no-commit
    /// watchdog fired).
    CycleLimit,
}

impl RunOutcome {
    /// True if the run finished cleanly.
    pub fn completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// The detection event, if any.
    pub fn detection(&self) -> Option<DetectionEvent> {
        match self {
            RunOutcome::Detected(e) => Some(*e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DetectionEvent {
            kind: DetectionKind::StoreMismatch,
            cycle: 100,
            seq: 5,
            pc: 0x1000,
            lead_back_way: Some(4),
            trail_back_way: Some(5),
            front_ways: None,
            store_compared: None,
        };
        let s = e.to_string();
        assert!(s.contains("store"));
        assert!(s.contains("0x1000"));
    }

    #[test]
    fn outcome_predicates() {
        assert!(RunOutcome::Completed.completed());
        assert!(!RunOutcome::CycleLimit.completed());
        let e = DetectionEvent {
            kind: DetectionKind::UnpairedStore,
            cycle: 0,
            seq: 0,
            pc: 0,
            lead_back_way: None,
            trail_back_way: None,
            front_ways: None,
            store_compared: None,
        };
        assert_eq!(RunOutcome::Detected(e).detection(), Some(e));
        assert_eq!(RunOutcome::Completed.detection(), None);
    }
}
