//! Core configuration (Table 1 of the paper) and redundancy modes.

use blackjack_isa::FuType;
use blackjack_mem::MemConfig;

use crate::uop::{PhysReg, Uop};

/// Which redundancy scheme the core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Non-fault-tolerant single thread (the Figure 7 baseline).
    Single,
    /// Simultaneous and Redundantly Threaded processor: leading + trailing
    /// threads, store checking, BOQ/LVQ, no spatial-diversity steering.
    Srt,
    /// BlackJack with safe-shuffle disabled: the trailing thread fetches
    /// leading-issue-order packets from the DTQ (one packet per cycle) but
    /// packets are not reordered and never split.
    BlackJackNoShuffle,
    /// Full BlackJack: DTQ + safe-shuffle + packet-per-cycle fetch +
    /// dependence/program-order checks.
    BlackJack,
}

impl Mode {
    /// All modes in canonical order.
    pub const ALL: [Mode; 4] = [Mode::Single, Mode::Srt, Mode::BlackJackNoShuffle, Mode::BlackJack];

    /// True for any mode that runs a trailing thread.
    pub fn is_redundant(self) -> bool {
        self != Mode::Single
    }

    /// True for the DTQ-based modes (trailing fetched from leading commits).
    pub fn uses_dtq(self) -> bool {
        matches!(self, Mode::BlackJackNoShuffle | Mode::BlackJack)
    }

    /// True when safe-shuffle reorders packets.
    pub fn shuffles(self) -> bool {
        self == Mode::BlackJack
    }

    /// Short display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Single => "single",
            Mode::Srt => "srt",
            Mode::BlackJackNoShuffle => "blackjack-ns",
            Mode::BlackJack => "blackjack",
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which safe-shuffle implementation produces trailing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShuffleAlgo {
    /// The paper's simple greedy algorithm (§4.2.2): first acceptable
    /// slot, pass-over NOPs, split on failure.
    #[default]
    Greedy,
    /// Exhaustive search over slot assignments and bump-NOP placements:
    /// splits only when no single-packet placement exists and uses the
    /// fewest filler NOPs — the "better shuffle algorithm" the paper's
    /// §6.2 projects could approach a 10% slowdown.
    Exhaustive,
}

/// Number of functional-unit instances (backend ways) per class.
///
/// The paper uses two of every non-ALU type "because without two of each
/// type of resource, spatial diversity is not possible".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuCounts {
    /// Integer ALUs.
    pub int_alu: usize,
    /// Integer multipliers (pipelined).
    pub int_mul: usize,
    /// Integer dividers (unpipelined).
    pub int_div: usize,
    /// FP adders.
    pub fp_alu: usize,
    /// FP multipliers (pipelined).
    pub fp_mul: usize,
    /// FP dividers (unpipelined).
    pub fp_div: usize,
    /// Cache ports.
    pub mem_port: usize,
}

impl Default for FuCounts {
    fn default() -> FuCounts {
        FuCounts { int_alu: 4, int_mul: 2, int_div: 2, fp_alu: 2, fp_mul: 2, fp_div: 2, mem_port: 2 }
    }
}

impl FuCounts {
    /// Instances of one class.
    pub fn of(&self, t: FuType) -> usize {
        match t {
            FuType::IntAlu => self.int_alu,
            FuType::IntMul => self.int_mul,
            FuType::IntDiv => self.int_div,
            FuType::FpAlu => self.fp_alu,
            FuType::FpMul => self.fp_mul,
            FuType::FpDiv => self.fp_div,
            FuType::MemPort => self.mem_port,
        }
    }

    /// Total backend ways.
    pub fn total(&self) -> usize {
        FuType::ALL.iter().map(|t| self.of(*t)).sum()
    }

    /// Global way index of instance `idx` of class `t`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` exceeds the class's instance count.
    pub fn global_way(&self, t: FuType, idx: usize) -> usize {
        assert!(idx < self.of(t), "{t} instance {idx} out of range");
        let mut base = 0;
        for u in FuType::ALL {
            if u == t {
                return base + idx;
            }
            base += self.of(u);
        }
        unreachable!()
    }

    /// Inverse of [`FuCounts::global_way`].
    ///
    /// # Panics
    ///
    /// Panics if `way` exceeds the total way count.
    pub fn way_type(&self, way: usize) -> (FuType, usize) {
        let mut base = 0;
        for t in FuType::ALL {
            let n = self.of(t);
            if way < base + n {
                return (t, way - base);
            }
            base += n;
        }
        panic!("backend way {way} out of range");
    }
}

/// Execution latencies per FU class, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    /// Integer ALU (and branch resolution).
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide (unit busy for the whole latency).
    pub int_div: u64,
    /// FP add/compare/convert.
    pub fp_alu: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide/sqrt (unit busy for the whole latency).
    pub fp_div: u64,
    /// Address generation before the cache access.
    pub agen: u64,
}

impl Default for FuLatencies {
    fn default() -> FuLatencies {
        FuLatencies { int_alu: 1, int_mul: 3, int_div: 20, fp_alu: 2, fp_mul: 4, fp_div: 12, agen: 1 }
    }
}

impl FuLatencies {
    /// Latency of one class (memory ops add the cache latency on top of
    /// `agen`).
    pub fn of(&self, t: FuType) -> u64 {
        match t {
            FuType::IntAlu => self.int_alu,
            FuType::IntMul => self.int_mul,
            FuType::IntDiv => self.int_div,
            FuType::FpAlu => self.fp_alu,
            FuType::FpMul => self.fp_mul,
            FuType::FpDiv => self.fp_div,
            FuType::MemPort => self.agen,
        }
    }

    /// True for classes whose unit stays busy for the whole operation.
    pub fn unpipelined(t: FuType) -> bool {
        matches!(t, FuType::IntDiv | FuType::FpDiv)
    }
}

/// Full core configuration. Defaults reproduce Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Redundancy mode.
    pub mode: Mode,
    /// Fetch/decode/issue/commit width.
    pub width: usize,
    /// Active-list (ROB) entries per context.
    pub active_list: usize,
    /// Load/store-queue entries per context.
    pub lsq: usize,
    /// Shared issue-queue entries.
    pub issue_queue: usize,
    /// Physical registers per context (unified int+FP file).
    pub phys_regs: usize,
    /// Store-buffer entries.
    pub store_buffer: usize,
    /// Load Value Queue entries.
    pub lvq: usize,
    /// Branch Outcome Queue entries.
    pub boq: usize,
    /// Target slack (instructions) between leading and trailing.
    pub slack: u64,
    /// Dependence Trace Queue entries.
    pub dtq: usize,
    /// Fetch-queue (frontend buffer) entries per context.
    pub fetch_queue: usize,
    /// FU instance counts.
    pub fu_counts: FuCounts,
    /// FU latencies.
    pub fu_lat: FuLatencies,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// gshare history bits.
    pub gshare_bits: u32,
    /// Branch target buffer entries (for `jalr`).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Split the issue-queue payload RAM per thread (the paper's fix for
    /// the payload-RAM vulnerability, §4.5). On by default.
    pub split_payload_ram: bool,
    /// Safe-shuffle implementation (greedy per the paper, or the
    /// exhaustive-search improvement its §6.2 anticipates).
    pub shuffle_algo: ShuffleAlgo,
    /// Issue trailing packets atomically (whole packet or nothing). The
    /// paper leaves the issue queue unmodified and relies on packets
    /// naturally co-issuing whole and alone; in this simulator's tighter
    /// trailing-fetch dynamics, partial packet issue would otherwise break
    /// the safe-shuffle backend mapping far more often than the paper
    /// observes. On by default; the ablation benches flip it.
    pub trailing_packet_atomic: bool,
    /// Protect the LVQ payload RAM with SEC-DED ECC: check bits are
    /// generated over the clean load value at the protected end of the
    /// load path and syndrome-decoded at the trailing read port. Closes
    /// the known LVQ escape (a load value corrupted *before* capture is
    /// shared by both threads) — single-bit upsets are corrected (CE),
    /// multi-bit ones raise
    /// [`DetectionKind::EccUncorrectable`](crate::DetectionKind::EccUncorrectable).
    /// Off by default to preserve the paper's unprotected baseline;
    /// `BJ_ECC=1` turns it on in the harnesses.
    pub lvq_ecc: bool,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            mode: Mode::Single,
            width: 4,
            active_list: 512,
            lsq: 64,
            issue_queue: 32,
            phys_regs: 640,
            store_buffer: 64,
            lvq: 128,
            boq: 96,
            slack: 256,
            dtq: 1024,
            fetch_queue: 16,
            fu_counts: FuCounts::default(),
            fu_lat: FuLatencies::default(),
            mem: MemConfig::default(),
            gshare_bits: 12,
            btb_entries: 1024,
            ras_depth: 16,
            split_payload_ram: true,
            shuffle_algo: ShuffleAlgo::default(),
            trailing_packet_atomic: true,
            lvq_ecc: false,
        }
    }
}

impl CoreConfig {
    /// The default configuration in the given mode.
    pub fn with_mode(mode: Mode) -> CoreConfig {
        CoreConfig { mode, ..CoreConfig::default() }
    }

    /// Entries per fault-site family, in `FaultSite` declaration order:
    /// the sizes of a usage record (`FaultPlan::record_usage`) covering
    /// every site this machine's hooks consult.
    pub fn site_family_sizes(&self) -> [usize; 8] {
        let (fus, sets) = (self.fu_counts.total(), self.mem.l1d.num_sets());
        [self.width, fus, self.issue_queue, sets, sets, self.store_buffer, self.dtq, self.lvq]
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot support correct execution (e.g.,
    /// too few physical registers to cover the architectural state, a zero
    /// width, or an LSQ larger than the active list).
    pub fn validate(&self) {
        assert!(self.width > 0, "width must be positive");
        assert!(
            self.phys_regs >= blackjack_isa::NUM_LOG_REGS + self.width,
            "need at least {} physical registers",
            blackjack_isa::NUM_LOG_REGS + self.width
        );
        // Register numbers are `PhysReg`s, and the issue queue keeps the
        // largest one free to mark an absent operand.
        assert!(self.phys_regs <= PhysReg::MAX as usize, "at most {} physical registers", PhysReg::MAX);
        assert!(self.lsq <= self.active_list, "LSQ cannot exceed the active list");
        assert!(self.issue_queue >= self.width, "issue queue smaller than machine width");
        if self.mode.uses_dtq() {
            assert!(
                self.dtq >= self.active_list + self.width,
                "the DTQ must exceed the active list by at least one machine width, or a \
                 deferred store could find every entry held by in-flight instructions"
            );
        }
        assert!(self.fetch_queue >= self.width, "fetch queue smaller than machine width");
        for t in FuType::ALL {
            assert!(self.fu_counts.of(t) >= 1, "need at least one {t} way");
        }
        // Uops store frontend (slot) and backend way numbers as bytes,
        // keeping the largest one free to mark no way.
        let ways = self.width.max(self.fu_counts.total());
        assert!(ways <= Uop::NO_WAY as usize, "at most {} ways of either kind", Uop::NO_WAY);
    }
}

/// Renders the configuration as the paper's Table 1.
pub fn table1(cfg: &CoreConfig) -> String {
    let mut s = String::new();
    s.push_str("Table 1: Processor Parameters\n");
    s.push_str(&format!("  Out-of-order issue   {} instructions/cycle\n", cfg.width));
    s.push_str(&format!(
        "  Active list          {} entries ({}-entry LSQ)\n",
        cfg.active_list, cfg.lsq
    ));
    s.push_str(&format!("  Issue queue          {}-entries\n", cfg.issue_queue));
    s.push_str(&format!(
        "  Caches               {}KB {}-way {}-cycle L1s ({} ports); {}M {}-way unified L2\n",
        cfg.mem.l1d.size_bytes / 1024,
        cfg.mem.l1d.assoc,
        cfg.mem.l1d.hit_latency,
        cfg.fu_counts.mem_port,
        cfg.mem.l2.size_bytes / (1024 * 1024),
        cfg.mem.l2.assoc
    ));
    s.push_str(&format!("  Memory               {} cycles\n", cfg.mem.mem_latency));
    s.push_str(&format!(
        "  Int ALUs             {} int ALUs, {} int multipliers, {} int dividers\n",
        cfg.fu_counts.int_alu, cfg.fu_counts.int_mul, cfg.fu_counts.int_div
    ));
    s.push_str(&format!(
        "  FP ALUs              {} FP ALUs, {} FP multipliers, {} FP dividers\n",
        cfg.fu_counts.fp_alu, cfg.fu_counts.fp_mul, cfg.fu_counts.fp_div
    ));
    s.push_str(&format!("  Store Buffer         {} entries\n", cfg.store_buffer));
    s.push_str(&format!("  LVQ                  {} entries\n", cfg.lvq));
    s.push_str(&format!("  BOQ                  {} entries\n", cfg.boq));
    s.push_str(&format!("  Slack                {} instructions\n", cfg.slack));
    s.push_str(&format!("  DTQ                  {} instructions\n", cfg.dtq));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CoreConfig::default().validate();
    }

    #[test]
    fn global_way_roundtrip() {
        let f = FuCounts::default();
        assert_eq!(f.total(), 16);
        for way in 0..f.total() {
            let (t, i) = f.way_type(way);
            assert_eq!(f.global_way(t, i), way);
        }
        assert_eq!(f.global_way(FuType::IntAlu, 0), 0);
        assert_eq!(f.global_way(FuType::IntMul, 0), 4);
        assert_eq!(f.global_way(FuType::MemPort, 1), 15);
    }

    #[test]
    #[should_panic]
    fn way_out_of_range_panics() {
        FuCounts::default().way_type(16);
    }

    #[test]
    fn mode_predicates() {
        assert!(!Mode::Single.is_redundant());
        assert!(Mode::Srt.is_redundant() && !Mode::Srt.uses_dtq());
        assert!(Mode::BlackJackNoShuffle.uses_dtq() && !Mode::BlackJackNoShuffle.shuffles());
        assert!(Mode::BlackJack.uses_dtq() && Mode::BlackJack.shuffles());
    }

    #[test]
    fn table1_mentions_parameters() {
        let t = table1(&CoreConfig::default());
        assert!(t.contains("512 entries"));
        assert!(t.contains("64KB"));
        assert!(t.contains("350 cycles"));
        assert!(t.contains("256 instructions"));
        assert!(t.contains("1024 instructions"));
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let c = CoreConfig { phys_regs: 10, ..Default::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 65535 physical registers")]
    fn more_registers_than_register_numbers_panics() {
        let c = CoreConfig { phys_regs: 1 << 16, ..Default::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 255 ways of either kind")]
    fn more_backend_ways_than_way_numbers_panics() {
        let mut c = CoreConfig::default();
        c.fu_counts.int_alu += 256 - c.fu_counts.total();
        c.validate();
    }

    #[test]
    fn unpipelined_classes() {
        assert!(FuLatencies::unpipelined(FuType::IntDiv));
        assert!(FuLatencies::unpipelined(FuType::FpDiv));
        assert!(!FuLatencies::unpipelined(FuType::IntMul));
    }
}
