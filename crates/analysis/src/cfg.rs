//! Control-flow graph construction over assembled BJ-ISA programs.
//!
//! The CFG is built from the *encoded* text segment — the same bytes the
//! simulator fetches — so the analysis sees exactly what executes, not
//! what the assembler's pseudo-ops looked like. Basic blocks are split at
//! branch targets, after every control instruction, and after `halt`.
//!
//! Direct `jal`s that write a link register end their block with
//! [`Terminator::Call`]: the CFG edge goes to the callee entry, and the
//! interprocedural layer ([`crate::callgraph`] / [`crate::interproc`])
//! pairs it with the continuation at the next instruction.
//!
//! Indirect jumps (`jalr`) have statically unknown successors; blocks
//! ending in one are marked [`Terminator::Indirect`] and every analysis
//! in this crate treats them conservatively (they may go anywhere that is
//! in the text segment, and may reach `halt`) — *unless* the
//! return-address-discipline proof in [`crate::interproc`] upgrades them
//! to [`Terminator::Return`] with real successor edges.

use std::fmt;

use blackjack_isa::{decode, DecodeError, Inst, Program, INST_BYTES};

/// Why a program could not be turned into a CFG.
///
/// Every variant that has an offending instruction carries its PC and
/// the decoded (or raw) form, so a failure on a generated program is
/// actionable without a hexdump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// The text segment is empty.
    Empty,
    /// An instruction word failed to decode.
    Decode {
        /// PC of the undecodable word.
        pc: u64,
        /// The raw word that failed to decode (no decoded form exists).
        word: u32,
        /// The decoder's error.
        err: DecodeError,
    },
    /// A branch or jump targets a PC outside the text segment (or a
    /// misaligned one).
    WildTarget {
        /// PC of the control instruction.
        pc: u64,
        /// The decoded control instruction, rendered as assembly.
        inst: String,
        /// The impossible target.
        target: u64,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::Empty => write!(f, "program has no instructions"),
            CfgError::Decode { pc, word, err } => {
                write!(f, "undecodable word {word:#010x} at {pc:#x}: {err}")
            }
            CfgError::WildTarget { pc, inst, target } => {
                write!(
                    f,
                    "`{inst}` at {pc:#x} targets {target:#x}, outside the text segment"
                )
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional branch: taken successor + fall-through.
    Branch,
    /// Unconditional direct jump (`jal x0`, no link register written).
    Jump,
    /// Direct call (`jal` writing a link register). The successor edge
    /// goes to the callee entry; the continuation (next instruction) is
    /// reached only through the callee's return, which the
    /// interprocedural layer wires up when the return-address proof
    /// holds.
    Call,
    /// Indirect jump (`jalr`) — successors statically unknown.
    Indirect,
    /// An indirect jump *proven* to be a function return by the
    /// return-address-discipline proof. Successors are the continuation
    /// blocks of every call site of the enclosing function. Never
    /// produced by [`Cfg::build`]; only by
    /// [`crate::interproc::Interproc`]'s resolution.
    Return,
    /// `halt` — the program stops here.
    Halt,
    /// Plain fall-through into the next block (the block ended only
    /// because the next instruction is a branch target).
    FallThrough,
    /// Execution runs past the end of the text segment (a bug: the
    /// simulator reports a bad fetch).
    FallsOffEnd,
}

/// A maximal straight-line instruction sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first instruction (into [`Cfg::insts`]).
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block ids. Empty for `Halt`, `Indirect`, and
    /// `FallsOffEnd` terminators.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// How the block ends.
    pub term: Terminator,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the block holds no instructions (never produced by
    /// [`Cfg::build`]; exists for API completeness).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A program's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    insts: Vec<Inst>,
    text_base: u64,
    blocks: Vec<BasicBlock>,
    block_of: Vec<usize>,
}

impl Cfg {
    /// Decodes `prog`'s text segment and builds its CFG.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] if the text is empty, a word does not decode,
    /// or a direct branch/jump targets a PC outside the text segment.
    pub fn build(prog: &Program) -> Result<Cfg, CfgError> {
        let n = prog.len();
        if n == 0 {
            return Err(CfgError::Empty);
        }
        let base = prog.text_base();
        let mut insts = Vec::with_capacity(n);
        for (i, &word) in prog.text().iter().enumerate() {
            let pc = base + i as u64 * INST_BYTES;
            insts.push(decode(word).map_err(|err| CfgError::Decode { pc, word, err })?);
        }

        // Target of a direct control instruction at index `i`, as an
        // instruction index.
        let insts_ref = &insts;
        let target_idx = move |i: usize, offset: i32| -> Result<usize, CfgError> {
            let pc = base + i as u64 * INST_BYTES;
            let wild = |target| CfgError::WildTarget {
                pc,
                inst: insts_ref[i].to_string(),
                target,
            };
            let target = pc.wrapping_add(offset as i64 as u64);
            if target < base || !(target - base).is_multiple_of(INST_BYTES) {
                return Err(wild(target));
            }
            let idx = ((target - base) / INST_BYTES) as usize;
            if idx >= n {
                return Err(wild(target));
            }
            Ok(idx)
        };

        // Leaders: entry, every direct target, and the instruction after
        // any control transfer or halt.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (i, inst) in insts.iter().enumerate() {
            match inst {
                Inst::Branch { offset, .. } => {
                    leader[target_idx(i, *offset)?] = true;
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                Inst::Jal { offset, .. } => {
                    leader[target_idx(i, *offset)?] = true;
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                Inst::Jalr { .. } | Inst::Halt
                    if i + 1 < n => {
                        leader[i + 1] = true;
                    }
                _ => {}
            }
        }

        // Carve blocks and record the instruction → block map.
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0;
        for i in 0..n {
            block_of[i] = blocks.len();
            let last = i + 1 == n || leader[i + 1];
            if last {
                blocks.push(BasicBlock {
                    start,
                    end: i + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                    term: Terminator::FallThrough, // fixed up below
                });
                start = i + 1;
            }
        }

        // Terminators and successor edges.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (b, block) in blocks.iter_mut().enumerate() {
            let last = block.end - 1;
            let (term, succ_idxs): (Terminator, Vec<usize>) = match insts[last] {
                Inst::Branch { offset, .. } => {
                    let t = target_idx(last, offset)?;
                    if last + 1 < n {
                        (Terminator::Branch, vec![t, last + 1])
                    } else {
                        // Not-taken falls off the end of text.
                        (Terminator::FallsOffEnd, vec![t])
                    }
                }
                Inst::Jal { rd, offset } => {
                    let term = if rd.is_zero() { Terminator::Jump } else { Terminator::Call };
                    (term, vec![target_idx(last, offset)?])
                }
                Inst::Jalr { .. } => (Terminator::Indirect, Vec::new()),
                Inst::Halt => (Terminator::Halt, Vec::new()),
                _ => {
                    if last + 1 < n {
                        (Terminator::FallThrough, vec![last + 1])
                    } else {
                        (Terminator::FallsOffEnd, Vec::new())
                    }
                }
            };
            block.term = term;
            for idx in succ_idxs {
                let s = block_of[idx];
                if !block.succs.contains(&s) {
                    block.succs.push(s);
                    edges.push((b, s));
                }
            }
        }
        for (from, to) in edges {
            blocks[to].preds.push(from);
        }

        Ok(Cfg { insts, text_base: base, blocks, block_of })
    }

    /// Rewrites proven-return blocks: each `(block, continuations)` pair
    /// flips the block's [`Terminator::Indirect`] to
    /// [`Terminator::Return`] and wires successor/predecessor edges to
    /// the given continuation blocks. Only the interprocedural
    /// resolution pass ([`crate::interproc`]) may call this, and only
    /// after the return-address-discipline proof has held for every
    /// function.
    pub(crate) fn resolve_returns(&mut self, returns: &[(usize, Vec<usize>)]) {
        for (b, conts) in returns {
            debug_assert_eq!(self.blocks[*b].term, Terminator::Indirect);
            self.blocks[*b].term = Terminator::Return;
            for &c in conts {
                if !self.blocks[*b].succs.contains(&c) {
                    self.blocks[*b].succs.push(c);
                    self.blocks[c].preds.push(*b);
                }
            }
        }
    }

    /// The decoded instructions, in text order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The basic blocks. Block 0 is the entry block.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing instruction `idx`.
    pub fn block_of(&self, idx: usize) -> usize {
        self.block_of[idx]
    }

    /// The PC of instruction `idx`.
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.text_base + idx as u64 * INST_BYTES
    }

    /// Per-block flag: reachable from the entry block along CFG edges.
    ///
    /// Blocks after an [`Terminator::Indirect`] block are *not* assumed
    /// reachable through it (a `jalr` could go anywhere, but claiming it
    /// reaches everything would make the reachability lint vacuous);
    /// programs using `jalr` should expect conservative results.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Per-block flag: some path from this block reaches a `halt` (or an
    /// indirect jump, which is conservatively assumed able to reach one).
    pub fn can_reach_halt(&self) -> Vec<bool> {
        let n = self.blocks.len();
        let mut can = vec![false; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&b| {
                matches!(self.blocks[b].term, Terminator::Halt | Terminator::Indirect)
            })
            .collect();
        for &b in &stack {
            can[b] = true;
        }
        while let Some(b) = stack.pop() {
            for &p in &self.blocks[b].preds {
                if !can[p] {
                    can[p] = true;
                    stack.push(p);
                }
            }
        }
        can
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_isa::asm::assemble;

    fn cfg(src: &str) -> Cfg {
        Cfg::build(&assemble(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg(".text\n li x1, 1\n addi x1, x1, 1\n halt\n");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0].term, Terminator::Halt);
        assert!(c.blocks()[0].succs.is_empty());
    }

    #[test]
    fn loop_shape() {
        // entry -> loop (self edge + exit) -> exit
        let c = cfg(
            ".text
                li   x1, 4
                li   x2, 0
            loop:
                addi x2, x2, 1
                blt  x2, x1, loop
                halt
            ",
        );
        assert_eq!(c.blocks().len(), 3);
        let entry = &c.blocks()[0];
        let body = &c.blocks()[1];
        let exit = &c.blocks()[2];
        assert_eq!(entry.term, Terminator::FallThrough);
        assert_eq!(entry.succs, vec![1]);
        assert_eq!(body.term, Terminator::Branch);
        assert_eq!(body.succs, vec![1, 2], "taken edge then fall-through");
        assert!(body.preds.contains(&0) && body.preds.contains(&1));
        assert_eq!(exit.term, Terminator::Halt);
        assert!(c.reachable().iter().all(|&r| r));
    }

    #[test]
    fn diamond_joins_both_arms() {
        // entry branches to then/else, both jump to join.
        let c = cfg(
            ".text
                li   x1, 1
                beqz x1, other
                addi x2, x0, 1
                j    join
            other:
                addi x2, x0, 2
            join:
                halt
            ",
        );
        assert_eq!(c.blocks().len(), 4);
        assert_eq!(c.blocks()[3].preds, vec![1, 2], "join entered from both arms");
    }

    #[test]
    fn unreachable_block_detected() {
        let c = cfg(
            ".text
                j    end
                addi x1, x0, 1     # dead
            end:
                halt
            ",
        );
        let r = c.reachable();
        assert_eq!(r, vec![true, false, true]);
    }

    #[test]
    fn code_after_halt_is_its_own_block() {
        let c = cfg(".text\n halt\n addi x1, x0, 1\n halt\n");
        assert_eq!(c.blocks().len(), 2);
        assert_eq!(c.reachable(), vec![true, false]);
    }

    #[test]
    fn can_reach_halt_flags_infinite_loop() {
        let c = cfg(
            ".text
                li   x1, 1
                beqz x1, fine
            spin:
                j    spin
            fine:
                halt
            ",
        );
        let can = c.can_reach_halt();
        // entry can (via fine), spin cannot, fine can.
        assert!(can[0]);
        assert!(!can[1]);
        assert!(can[2]);
    }

    #[test]
    fn falls_off_end_terminator() {
        let c = cfg(".text\n addi x1, x0, 1\n");
        assert_eq!(c.blocks()[0].term, Terminator::FallsOffEnd);
    }

    #[test]
    fn empty_program_rejected() {
        use blackjack_isa::ProgramBuilder;
        let p = ProgramBuilder::new("empty").build();
        assert_eq!(Cfg::build(&p).unwrap_err(), CfgError::Empty);
    }

    #[test]
    fn call_terminator_distinguished_from_jump() {
        let c = cfg(
            ".text
                call fn
                halt
            fn:
                ret
            ",
        );
        // Blocks: [call] [halt] [ret].
        assert_eq!(c.blocks().len(), 3);
        assert_eq!(c.blocks()[0].term, Terminator::Call);
        assert_eq!(c.blocks()[0].succs, vec![2], "call edge goes to the callee, not the continuation");
        assert_eq!(c.blocks()[2].term, Terminator::Indirect, "ret is indirect until proven a return");
    }

    #[test]
    fn jal_as_final_instruction() {
        // The call's continuation would fall off the end of text; the
        // CFG itself still builds, with the call edge to the callee.
        let c = cfg(
            ".text
                j    start
            fn:
                ret
            start:
                call fn
            ",
        );
        assert_eq!(c.blocks().len(), 3);
        let call_block = &c.blocks()[2];
        assert_eq!(call_block.term, Terminator::Call);
        assert_eq!(call_block.succs, vec![1]);
    }

    #[test]
    fn jump_targeting_pc_zero_is_wild() {
        use blackjack_isa::{ProgramBuilder, Reg, TEXT_BASE};
        // A backward jump from TEXT_BASE to absolute pc 0: below the
        // text segment, so the CFG must reject it — with the pc and the
        // decoded instruction in the diagnostic.
        let mut b = ProgramBuilder::new("wild");
        b.push(Inst::Jal { rd: Reg::ZERO, offset: -(TEXT_BASE as i32) }).unwrap();
        let err = Cfg::build(&b.build()).unwrap_err();
        match err {
            CfgError::WildTarget { pc, ref inst, target } => {
                assert_eq!(pc, TEXT_BASE);
                assert_eq!(target, 0);
                assert!(inst.contains("jal"), "diagnostic names the instruction: {inst}");
            }
            other => panic!("expected WildTarget, got {other:?}"),
        }
        assert!(err.to_string().contains("jal"), "Display carries the instruction");
    }

    #[test]
    fn branch_targeting_entry_is_valid_backedge() {
        // Branching back to instruction 0 is legal: the entry block just
        // gains a predecessor.
        let c = cfg(
            ".text
            top:
                addi x1, x1, 1
                blt  x1, x2, top
                halt
            ",
        );
        assert_eq!(c.blocks().len(), 2);
        assert!(c.blocks()[0].succs.contains(&0), "self edge via the backedge to pc 0");
        assert!(c.blocks()[0].preds.contains(&0));
    }

    #[test]
    fn single_instruction_self_loop_block() {
        let c = cfg(
            ".text
                beqz x1, out
            spin:
                j    spin
            out:
                halt
            ",
        );
        let spin = &c.blocks()[1];
        assert_eq!(spin.len(), 1);
        assert_eq!(spin.term, Terminator::Jump);
        assert_eq!(spin.succs, vec![1], "self-loop: sole successor is itself");
        assert!(!c.can_reach_halt()[1]);
    }

    #[test]
    fn decode_error_carries_raw_word() {
        use blackjack_isa::ProgramBuilder;
        let mut b = ProgramBuilder::new("bad");
        b.push_raw(0xffff_ffff);
        let err = Cfg::build(&b.build()).unwrap_err();
        match err {
            CfgError::Decode { pc, word, .. } => {
                assert_eq!(pc, blackjack_isa::TEXT_BASE);
                assert_eq!(word, 0xffff_ffff);
            }
            other => panic!("expected Decode, got {other:?}"),
        }
        assert!(err.to_string().contains("0xffffffff"));
    }

    #[test]
    fn pc_mapping_roundtrip() {
        let c = cfg(".text\n nop\n nop\n halt\n");
        assert_eq!(c.pc_of(0), blackjack_isa::TEXT_BASE);
        assert_eq!(c.pc_of(2), blackjack_isa::TEXT_BASE + 8);
        assert_eq!(c.block_of(2), 0);
    }
}
