//! Classic dataflow analyses over a [`Cfg`]: register liveness (backward
//! may) and definite assignment (forward must).
//!
//! The unified BJ-ISA register space has exactly 64 logical registers
//! (32 integer + 32 FP), so a register set is a single `u64` bitmask and
//! every transfer function is a handful of bitwise ops.

use blackjack_isa::{Inst, LogReg};

use crate::cfg::{Cfg, Terminator};

/// A set of logical registers, one bit per [`LogReg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(pub u64);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// All 64 logical registers.
    pub const ALL: RegSet = RegSet(u64::MAX);

    /// Set with the single register `r`.
    pub fn single(r: LogReg) -> RegSet {
        RegSet(1 << r.index())
    }

    /// Membership test.
    pub fn contains(self, r: LogReg) -> bool {
        self.0 >> r.index() & 1 == 1
    }

    /// Inserts `r`.
    pub fn insert(&mut self, r: LogReg) {
        self.0 |= 1 << r.index();
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: LogReg) {
        self.0 &= !(1 << r.index());
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Members of `self` not in `other`.
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Number of registers in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no register is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in ascending [`LogReg::index`] order.
    pub fn iter(self) -> impl Iterator<Item = LogReg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let idx = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(LogReg::new(idx))
        })
    }
}

/// Source registers of `inst` that are true dependencies (`x0` filtered).
fn real_srcs(inst: &Inst) -> impl Iterator<Item = LogReg> + '_ {
    inst.srcs().filter(|r| !r.is_zero())
}

/// Registers the architecture guarantees are defined before the first
/// instruction: `x0` (hardwired zero) and `x2` (the stack pointer, set by
/// [`blackjack_isa::initial_int_regs`]).
///
/// FP registers power on as `0.0` in the simulator, but a program that
/// *relies* on that is almost certainly buggy, so they are deliberately
/// not listed here — the `UninitRead` lint treats them as undefined.
pub fn entry_defined() -> RegSet {
    let mut s = RegSet::EMPTY;
    s.insert(LogReg::new(0));
    s.insert(LogReg::new(2));
    s
}

/// Register liveness, computed to a fixed point over the CFG.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<RegSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<RegSet>,
}

impl Liveness {
    /// Backward may-analysis: a register is live if some path from here
    /// reads it before writing it.
    ///
    /// Blocks ending in an indirect jump ([`Terminator::Indirect`]) get
    /// `live_out = ALL`: the continuation is statically unknown, so no
    /// register can be proven dead across one.
    pub fn compute(cfg: &Cfg) -> Liveness {
        let n = cfg.blocks().len();
        let mut gen = vec![RegSet::EMPTY; n];
        let mut kill = vec![RegSet::EMPTY; n];
        for (b, blk) in cfg.blocks().iter().enumerate() {
            for i in blk.start..blk.end {
                let inst = &cfg.insts()[i];
                for s in real_srcs(inst) {
                    if !kill[b].contains(s) {
                        gen[b].insert(s);
                    }
                }
                if let Some(d) = inst.dst() {
                    kill[b].insert(d);
                }
            }
        }

        let indirect_out = |term: Terminator| {
            if term == Terminator::Indirect {
                RegSet::ALL
            } else {
                RegSet::EMPTY
            }
        };

        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out: Vec<RegSet> = cfg
            .blocks()
            .iter()
            .map(|blk| indirect_out(blk.term))
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse block order converges fast for reducible CFGs.
            for b in (0..n).rev() {
                let blk = &cfg.blocks()[b];
                let mut out = indirect_out(blk.term);
                for &s in &blk.succs {
                    out = out.union(live_in[s]);
                }
                let inn = gen[b].union(out.minus(kill[b]));
                if out != live_out[b] || inn != live_in[b] {
                    live_out[b] = out;
                    live_in[b] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }
}

/// Definite assignment: which registers are written on *every* path.
#[derive(Debug, Clone)]
pub struct DefiniteAssign {
    /// Registers definitely assigned on entry to each block.
    pub defined_in: Vec<RegSet>,
    /// Registers definitely assigned on exit from each block.
    pub defined_out: Vec<RegSet>,
}

impl DefiniteAssign {
    /// Forward must-analysis seeded with [`entry_defined`] at the entry
    /// block. Unreachable blocks converge to `ALL` (vacuously defined).
    pub fn compute(cfg: &Cfg) -> DefiniteAssign {
        let n = cfg.blocks().len();
        let mut block_defs = vec![RegSet::EMPTY; n];
        for (b, blk) in cfg.blocks().iter().enumerate() {
            for i in blk.start..blk.end {
                if let Some(d) = cfg.insts()[i].dst() {
                    block_defs[b].insert(d);
                }
            }
        }

        let mut defined_in = vec![RegSet::ALL; n];
        defined_in[0] = entry_defined();
        let mut defined_out: Vec<RegSet> =
            (0..n).map(|b| defined_in[b].union(block_defs[b])).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                let mut inn = if b == 0 { entry_defined() } else { RegSet::ALL };
                if b != 0 {
                    for &p in &cfg.blocks()[b].preds {
                        inn = inn.intersect(defined_out[p]);
                    }
                }
                let out = inn.union(block_defs[b]);
                if inn != defined_in[b] || out != defined_out[b] {
                    defined_in[b] = inn;
                    defined_out[b] = out;
                    changed = true;
                }
            }
        }
        DefiniteAssign { defined_in, defined_out }
    }

    /// Instruction-level reads of possibly-undefined registers:
    /// `(instruction index, register)` pairs where the register is read
    /// on some path before any write reaches it. Only reachable blocks
    /// are inspected.
    pub fn uninit_reads(cfg: &Cfg) -> Vec<(usize, LogReg)> {
        let da = DefiniteAssign::compute(cfg);
        let reachable = cfg.reachable();
        let mut out = Vec::new();
        for (b, blk) in cfg.blocks().iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut defined = da.defined_in[b];
            for i in blk.start..blk.end {
                let inst = &cfg.insts()[i];
                for s in real_srcs(inst) {
                    if !defined.contains(s) {
                        out.push((i, s));
                    }
                }
                if let Some(d) = inst.dst() {
                    defined.insert(d);
                }
            }
        }
        out
    }
}

/// Instruction-level dead definitions: `(instruction index, register)`
/// pairs where the written value can never be read afterwards. Memory
/// stores are not definitions (their effect is always observable), and
/// nothing is reported in or across blocks ending in an indirect jump.
pub fn dead_defs(cfg: &Cfg) -> Vec<(usize, LogReg)> {
    let live = Liveness::compute(cfg);
    let reachable = cfg.reachable();
    let mut out = Vec::new();
    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            continue; // unreachable code is reported by its own lint
        }
        let mut live_now = live.live_out[b];
        for i in (blk.start..blk.end).rev() {
            let inst = &cfg.insts()[i];
            if let Some(d) = inst.dst() {
                if !live_now.contains(d) {
                    out.push((i, d));
                }
                live_now.remove(d);
            }
            for s in real_srcs(inst) {
                live_now.insert(s);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_isa::asm::assemble;

    fn cfg(src: &str) -> Cfg {
        Cfg::build(&assemble(src).unwrap()).unwrap()
    }

    fn x(n: u8) -> LogReg {
        LogReg::new(n)
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(x(5));
        s.insert(x(33));
        assert!(s.contains(x(5)) && s.contains(x(33)) && !s.contains(x(6)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![x(5), x(33)]);
        s.remove(x(5));
        assert_eq!(s.len(), 1);
        assert_eq!(RegSet::single(x(63)).0, 1 << 63);
    }

    #[test]
    fn liveness_around_loop() {
        // x1 (bound) and x2 (counter) are live around the loop; x3 is
        // written in the loop but read only inside the same iteration.
        let c = cfg(
            ".text
                li   x1, 4
                li   x2, 0
            loop:
                slli x3, x2, 3
                addi x2, x2, 1
                blt  x2, x1, loop
                halt
            ",
        );
        let lv = Liveness::compute(&c);
        let body = 1;
        assert!(lv.live_in[body].contains(x(1)));
        assert!(lv.live_in[body].contains(x(2)));
        assert!(!lv.live_in[body].contains(x(3)), "x3 is not live into the loop");
        assert!(lv.live_out[body].contains(x(2)), "counter live around backedge");
    }

    #[test]
    fn definite_assignment_diamond() {
        // x3 is written on only one arm of a diamond: not definitely
        // assigned at the join, so the read there is flagged.
        let c = cfg(
            ".text
                li   x1, 1
                beqz x1, join
                addi x3, x0, 7
            join:
                add  x4, x3, x1
                halt
            ",
        );
        let reads = DefiniteAssign::uninit_reads(&c);
        assert_eq!(reads.len(), 1);
        let (i, r) = reads[0];
        assert_eq!(r, x(3));
        assert!(matches!(c.insts()[i], Inst::Alu { .. }));
    }

    #[test]
    fn entry_defined_covers_sp() {
        // Reading the stack pointer before writing it is fine.
        let c = cfg(".text\n ld x1, 0(x2)\n halt\n");
        assert!(DefiniteAssign::uninit_reads(&c).is_empty());
    }

    #[test]
    fn fp_read_before_write_flagged() {
        let c = cfg(".text\n fadd f1, f0, f2\n halt\n");
        let reads = DefiniteAssign::uninit_reads(&c);
        let regs: Vec<LogReg> = reads.iter().map(|&(_, r)| r).collect();
        assert!(regs.contains(&LogReg::new(32)), "f0 is unified reg 32");
        assert!(regs.contains(&LogReg::new(34)), "f2 is unified reg 34");
    }

    #[test]
    fn dead_def_found_and_live_def_not() {
        let c = cfg(
            ".text
                addi x1, x0, 1    # dead: overwritten before any read
                addi x1, x0, 2
                sd   x1, 0(x2)
                halt
            ",
        );
        let dead = dead_defs(&c);
        assert_eq!(dead, vec![(0, x(1))]);
    }

    #[test]
    fn loop_carried_value_is_not_dead() {
        let c = cfg(
            ".text
                li   x1, 4
                li   x2, 0
            loop:
                addi x2, x2, 1
                blt  x2, x1, loop
                sd   x2, 0(x2)
                halt
            ",
        );
        assert!(dead_defs(&c).is_empty());
    }
}
