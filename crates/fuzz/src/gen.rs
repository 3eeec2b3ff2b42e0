//! Deterministic random BJ-ISA program generator, constrained to
//! lint-clean programs.
//!
//! The generator builds programs directly from [`Inst`] values via
//! [`ProgramBuilder`] under a register discipline that makes every lint
//! in `blackjack-analysis` pass *by construction*:
//!
//! * **Work registers** (`x5..=x12`, `f0..=f7`) are initialized in the
//!   prologue and only ever written in *accumulate form* (`d = op(d, s)`),
//!   so every definition is read by the instruction that replaces it —
//!   no dead defs, no uninitialized reads.
//! * **Clobbering producers** (loads, converts, compares, moves) target
//!   the scratch registers `x26`/`f9` and are immediately followed by a
//!   consumer that folds the scratch value into a work register, so the
//!   pair is self-contained and never straddles a branch.
//! * **Control** is structured: counted loops (a backward `bne` on a
//!   dedicated per-function counter) and forward skips (a placeholder
//!   branch patched once the body length is known, exercising
//!   [`ProgramBuilder::patch`]). The only indirect jumps are proven
//!   returns, so the interprocedural analysis fully resolves the CFG
//!   and every block is reachable.
//! * **Calls** form a bounded chain: `main` calls `helper1`, which may
//!   call `helper2` ([`GenConfig::call_depth`] levels total, no
//!   recursion). Non-leaf helpers save/restore `ra` through a 16-byte
//!   stack frame (`addi sp, sp, -16; sd ra, 8(sp)` … `ld ra, 8(sp);
//!   addi sp, sp, 16; ret`), exactly the shape the return-address
//!   discipline proof in `blackjack-analysis` accepts, so generated
//!   programs exercise call/return machinery (RAS push/pop, return
//!   resolution) while staying lint-clean. Each nesting level owns its
//!   loop counter (`x28`–`x30`) so a callee never corrupts a live trip
//!   count.
//! * **Memory traffic** stays inside a private data arena addressed off
//!   `x20`, width-aligned, initialized with deterministic bytes.
//!
//! The epilogue publishes every work register to memory (`sd`/`fsd`) and
//! halts, so the final value of each register is architecturally
//! observable — a wrong value anywhere becomes a memory difference the
//! differential driver can see.

use blackjack_isa::{
    AluOp, BranchCond, CmpOp, DivOp, FpAluOp, FpDivOp, FReg, Inst, MemWidth, MulOp, Program,
    ProgramBuilder, Reg, INST_BYTES,
};
use blackjack_rng::Rng;

/// Integer work registers (accumulate-only writes).
const WORK_X: [u8; 8] = [5, 6, 7, 8, 9, 10, 11, 12];
/// FP work registers (accumulate-only writes).
const WORK_F: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
/// Data-arena base pointer.
const BASE: u8 = 20;
/// Deepest supported call chain: `main` → `helper1` → `helper2`. The
/// `BJ_CALL_DEPTH` knob is bounded to it.
const MAX_CALL_DEPTH: usize = 3;
/// Per-nesting-level loop counters: a callee's loops must not clobber a
/// caller's live trip count.
const COUNTERS: [u8; MAX_CALL_DEPTH] = [28, 29, 30];
/// Return-address register (`ra` = x1).
const RA: u8 = 1;
/// Stack pointer (`sp` = x2, entry-defined by the loader).
const SP: u8 = 2;
/// Non-leaf helper frame: 16 bytes, `ra` spilled at `8(sp)`.
const FRAME_BYTES: i32 = 16;
/// `ra` spill slot offset within the frame.
const RA_SLOT: i32 = 8;
/// Integer scratch: written by clobbering producers, consumed immediately.
const TMP_X: u8 = 26;
/// FP scratch, same discipline.
const TMP_F: u8 = 9;
/// Bytes of random load/store traffic arena.
const ARENA_BYTES: usize = 4096;
/// `DATA_BASE >> 13`, the `lui` immediate that materializes the arena base.
const BASE_LUI_IMM: i32 = (blackjack_isa::DATA_BASE >> 13) as i32;

/// Tunable knobs for one generated program.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of code segments (straight-line runs, loops, skips) in
    /// `main`; helpers draw their own smaller counts.
    pub segments: usize,
    /// Function-nesting levels: `1` = `main` only (no calls), `2` adds
    /// a helper, `3` a helper-of-helper. Clamped to `1..=3`, the deepest
    /// chain the generator supports. Every non-leaf level is guaranteed
    /// at least one call site.
    pub call_depth: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { segments: 10, call_depth: 2 }
    }
}

fn x(n: u8) -> Reg {
    Reg::new(n)
}

fn f(n: u8) -> FReg {
    FReg::new(n)
}

/// Generates one lint-clean program from `seed`.
///
/// The same `(seed, cfg.segments)` always yields the same program, bit
/// for bit — the fuzzer's reproducibility contract.
///
/// # Panics
///
/// Panics if the generated program fails its own lint check — that is a
/// generator bug, and the panic message names the offending seed.
pub fn generate(seed: u64, cfg: GenConfig) -> Program {
    let depth = cfg.call_depth.clamp(1, MAX_CALL_DEPTH);
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("fuzz-{seed:#x}"));

    // Deterministic nonzero arena contents: loads see varied bit
    // patterns (including ones that reinterpret as NaNs and denormals
    // through fld — the shared exec helpers keep both engines honest).
    for _ in 0..ARENA_BYTES / 8 {
        b.push_data_u64(rng.next_u64() | 1);
    }

    // Prologue: arena base, then every work register.
    b.push(Inst::Lui { rd: x(BASE), imm: BASE_LUI_IMM }).unwrap();
    for (i, &w) in WORK_X.iter().enumerate() {
        let imm = rng.random_range(-512i32..=511) * (i as i32 + 1);
        b.push(Inst::AluImm { op: AluOp::Add, rd: x(w), rs1: Reg::ZERO, imm })
            .unwrap();
    }
    for (i, &wf) in WORK_F.iter().enumerate() {
        // fcvt.d.l from an initialized work register: small, varied doubles.
        b.push(Inst::CvtIf { fd: f(wf), rs1: x(WORK_X[i % WORK_X.len()]) })
            .unwrap();
    }

    // Main body. Calls carry placeholder offsets until the helper
    // entry PCs are known; each is recorded as (inst index, call pc,
    // callee level) for patching.
    let mut calls: Vec<(usize, u64, usize)> = Vec::new();
    let mut called = false;
    for _ in 0..cfg.segments.max(1) {
        emit_segment(&mut b, &mut rng, 0, depth, &mut calls, &mut called);
    }
    if depth > 1 && !called {
        // Every non-leaf level makes at least one call.
        emit_call(&mut b, 0, &mut calls);
    }

    // Epilogue: publish every work register, then halt.
    for (i, &w) in WORK_X.iter().enumerate() {
        let offset = (ARENA_BYTES - 16 * 16 + i * 8) as i32;
        b.push(Inst::Store { width: MemWidth::Double, rs1: x(BASE), rs2: x(w), offset })
            .unwrap();
    }
    for (i, &wf) in WORK_F.iter().enumerate() {
        let offset = (ARENA_BYTES - 8 * 16 + i * 8) as i32;
        b.push(Inst::FStore { rs1: x(BASE), fs2: f(wf), offset })
            .unwrap();
    }
    b.push(Inst::Halt).unwrap();

    // Helpers live after the halt so straight-line execution can never
    // fall into them; they are reachable only through their call edges.
    let mut entries = [0u64; MAX_CALL_DEPTH];
    for (level, entry) in entries.iter_mut().enumerate().take(depth).skip(1) {
        *entry = b.next_pc();
        emit_helper(&mut b, &mut rng, level, depth, &mut calls);
    }

    // Patch every recorded call now its callee's entry PC is known.
    for &(idx, call_pc, callee) in &calls {
        let offset = (entries[callee] as i64 - call_pc as i64) as i32;
        b.patch(idx, Inst::Jal { rd: x(RA), offset }).unwrap();
    }

    let prog = b.build();
    debug_assert!(
        blackjack_analysis::lint_program(&prog)
            .map(|r| r.is_clean())
            .unwrap_or(false),
        "generator produced a lint-dirty program for seed {seed:#x}"
    );
    prog
}

/// One code segment at nesting `level`: loop, skip, straight run, or
/// (in non-leaf functions) a call to the next level down.
fn emit_segment(
    b: &mut ProgramBuilder,
    rng: &mut Rng,
    level: usize,
    depth: usize,
    calls: &mut Vec<(usize, u64, usize)>,
    called: &mut bool,
) {
    let can_call = level + 1 < depth;
    match rng.random_range(0u32..5) {
        0 => emit_loop(b, rng, level),
        1 => emit_skip(b, rng),
        2 if can_call => {
            emit_call(b, level, calls);
            *called = true;
        }
        _ => emit_straight(b, rng),
    }
}

/// A call from `level` to the `level + 1` helper, with a placeholder
/// offset recorded for patching once helper entry PCs are known.
fn emit_call(b: &mut ProgramBuilder, level: usize, calls: &mut Vec<(usize, u64, usize)>) {
    let idx = b.len();
    let pc = b.next_pc();
    b.push(Inst::Jal { rd: x(RA), offset: INST_BYTES as i32 }).unwrap();
    calls.push((idx, pc, level + 1));
}

/// One helper function at nesting `level`: an optional `ra` frame (only
/// non-leaf helpers call onward, so only they need one), 2–4 body
/// segments, and a `ret`. The frame shape is exactly what the
/// return-address discipline proof accepts: `ra` spilled full-width,
/// sp-relative, strictly below the entry sp, reloaded from the same
/// slot, sp balanced at the return.
fn emit_helper(
    b: &mut ProgramBuilder,
    rng: &mut Rng,
    level: usize,
    depth: usize,
    calls: &mut Vec<(usize, u64, usize)>,
) {
    let leaf = level + 1 == depth;
    if !leaf {
        b.push(Inst::AluImm { op: AluOp::Add, rd: x(SP), rs1: x(SP), imm: -FRAME_BYTES })
            .unwrap();
        b.push(Inst::Store { width: MemWidth::Double, rs1: x(SP), rs2: x(RA), offset: RA_SLOT })
            .unwrap();
    }
    let mut called = false;
    let segments = rng.random_range(2usize..=4);
    for _ in 0..segments {
        emit_segment(b, rng, level, depth, calls, &mut called);
    }
    if !leaf && !called {
        emit_call(b, level, calls);
    }
    if !leaf {
        b.push(Inst::Load { width: MemWidth::Double, rd: x(RA), rs1: x(SP), offset: RA_SLOT })
            .unwrap();
        b.push(Inst::AluImm { op: AluOp::Add, rd: x(SP), rs1: x(SP), imm: FRAME_BYTES })
            .unwrap();
    }
    b.push(Inst::Jalr { rd: Reg::ZERO, rs1: x(RA), offset: 0 }).unwrap();
}

/// A straight-line run of 2–8 atoms.
fn emit_straight(b: &mut ProgramBuilder, rng: &mut Rng) {
    let n = rng.random_range(2usize..=8);
    for _ in 0..n {
        emit_atom(b, rng);
    }
}

/// A counted loop on this level's counter `c`:
/// `c = n; loop: body; c -= 1; bne c, x0, loop`.
fn emit_loop(b: &mut ProgramBuilder, rng: &mut Rng, level: usize) {
    let counter = COUNTERS[level];
    let trips = rng.random_range(1i32..=8);
    b.push(Inst::AluImm { op: AluOp::Add, rd: x(counter), rs1: Reg::ZERO, imm: trips })
        .unwrap();
    let top = b.next_pc();
    let body = rng.random_range(2usize..=6);
    for _ in 0..body {
        emit_atom(b, rng);
    }
    b.push(Inst::AluImm { op: AluOp::Add, rd: x(counter), rs1: x(counter), imm: -1 })
        .unwrap();
    let branch_pc = b.next_pc();
    let offset = (top as i64 - branch_pc as i64) as i32;
    b.push(Inst::Branch { cond: BranchCond::Ne, rs1: x(counter), rs2: Reg::ZERO, offset })
        .unwrap();
}

/// A forward skip: a data-dependent branch over 1–4 atoms, backpatched.
fn emit_skip(b: &mut ProgramBuilder, rng: &mut Rng) {
    let cond = match rng.random_range(0u32..6) {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Ltu,
        _ => BranchCond::Geu,
    };
    let rs1 = x(pick(rng, &WORK_X));
    let rs2 = if rng.random_bool(0.5) { Reg::ZERO } else { x(pick(rng, &WORK_X)) };
    let branch_pc = b.next_pc();
    let idx = b.len();
    // Placeholder offset: patched below once the body length is known.
    b.push(Inst::Branch { cond, rs1, rs2, offset: INST_BYTES as i32 }).unwrap();
    let body = rng.random_range(1usize..=4);
    for _ in 0..body {
        emit_atom(b, rng);
    }
    let offset = (b.next_pc() as i64 - branch_pc as i64) as i32;
    b.patch(idx, Inst::Branch { cond, rs1, rs2, offset }).unwrap();
}

fn pick(rng: &mut Rng, set: &[u8]) -> u8 {
    set[rng.random_range(0usize..set.len())]
}

fn arena_offset(rng: &mut Rng, width: MemWidth) -> i32 {
    // Stay clear of the publication area at the top of the arena.
    let bytes = match width {
        MemWidth::Byte => 1,
        MemWidth::Word => 4,
        MemWidth::Double => 8,
    };
    let slots = (ARENA_BYTES - 16 * 16) / bytes;
    (rng.random_range(0usize..slots) * bytes) as i32
}

fn alu_op(rng: &mut Rng) -> AluOp {
    match rng.random_range(0u32..10) {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Sll,
        6 => AluOp::Srl,
        7 => AluOp::Sra,
        8 => AluOp::Slt,
        _ => AluOp::Sltu,
    }
}

fn fp_op(rng: &mut Rng) -> FpAluOp {
    match rng.random_range(0u32..4) {
        0 => FpAluOp::Fadd,
        1 => FpAluOp::Fsub,
        2 => FpAluOp::Fmin,
        _ => FpAluOp::Fmax,
    }
}

fn mem_width(rng: &mut Rng) -> MemWidth {
    match rng.random_range(0u32..3) {
        0 => MemWidth::Byte,
        1 => MemWidth::Word,
        _ => MemWidth::Double,
    }
}

/// Emits one self-contained atom: 1–2 instructions that respect the
/// register discipline (accumulate-form work-register writes, scratch
/// producers paired with an immediate consumer).
fn emit_atom(b: &mut ProgramBuilder, rng: &mut Rng) {
    let w = x(pick(rng, &WORK_X));
    let w2 = x(pick(rng, &WORK_X));
    let wf = f(pick(rng, &WORK_F));
    let wf2 = f(pick(rng, &WORK_F));
    match rng.random_range(0u32..16) {
        0 => {
            b.push(Inst::Alu { op: alu_op(rng), rd: w, rs1: w, rs2: w2 }).unwrap();
        }
        1 => {
            let imm = rng.random_range(-2048i32..=2047);
            // `sub` has no immediate form; fold it onto `add`.
            let op = match alu_op(rng) {
                AluOp::Sub => AluOp::Add,
                op => op,
            };
            b.push(Inst::AluImm { op, rd: w, rs1: w, imm }).unwrap();
        }
        2 => {
            let op = if rng.random_bool(0.5) { MulOp::Mul } else { MulOp::Mulh };
            b.push(Inst::Mul { op, rd: w, rs1: w, rs2: w2 }).unwrap();
        }
        3 => {
            let op = if rng.random_bool(0.5) { DivOp::Div } else { DivOp::Rem };
            b.push(Inst::Div { op, rd: w, rs1: w, rs2: w2 }).unwrap();
        }
        4 => {
            // Load into scratch, fold into a work register.
            let width = mem_width(rng);
            let offset = arena_offset(rng, width);
            b.push(Inst::Load { width, rd: x(TMP_X), rs1: x(BASE), offset }).unwrap();
            b.push(Inst::Alu { op: AluOp::Xor, rd: w, rs1: w, rs2: x(TMP_X) }).unwrap();
        }
        5 => {
            let width = mem_width(rng);
            let offset = arena_offset(rng, width);
            b.push(Inst::Store { width, rs1: x(BASE), rs2: w, offset }).unwrap();
        }
        6 => {
            let offset = arena_offset(rng, MemWidth::Double);
            b.push(Inst::FLoad { fd: f(TMP_F), rs1: x(BASE), offset }).unwrap();
            b.push(Inst::FpAlu { op: fp_op(rng), fd: wf, fs1: wf, fs2: f(TMP_F) }).unwrap();
        }
        7 => {
            let offset = arena_offset(rng, MemWidth::Double);
            b.push(Inst::FStore { rs1: x(BASE), fs2: wf, offset }).unwrap();
        }
        8 => {
            b.push(Inst::FpAlu { op: fp_op(rng), fd: wf, fs1: wf, fs2: wf2 }).unwrap();
        }
        9 => {
            b.push(Inst::FpMul { fd: wf, fs1: wf, fs2: wf2 }).unwrap();
        }
        10 => {
            b.push(Inst::FpDiv { op: FpDivOp::Fdiv, fd: wf, fs1: wf, fs2: wf2 }).unwrap();
        }
        11 => {
            // fsqrt in self-form: reads the register it clobbers.
            b.push(Inst::FpDiv { op: FpDivOp::Fsqrt, fd: wf, fs1: wf, fs2: wf }).unwrap();
        }
        12 => {
            let op = match rng.random_range(0u32..3) {
                0 => CmpOp::Feq,
                1 => CmpOp::Flt,
                _ => CmpOp::Fle,
            };
            b.push(Inst::FpCmp { op, rd: x(TMP_X), fs1: wf, fs2: wf2 }).unwrap();
            b.push(Inst::Alu { op: AluOp::Add, rd: w, rs1: w, rs2: x(TMP_X) }).unwrap();
        }
        13 => {
            b.push(Inst::CvtIf { fd: f(TMP_F), rs1: w }).unwrap();
            b.push(Inst::FpAlu { op: FpAluOp::Fadd, fd: wf, fs1: wf, fs2: f(TMP_F) }).unwrap();
        }
        14 => {
            b.push(Inst::CvtFi { rd: x(TMP_X), fs1: wf }).unwrap();
            b.push(Inst::Alu { op: AluOp::Xor, rd: w, rs1: w, rs2: x(TMP_X) }).unwrap();
        }
        _ => {
            if rng.random_bool(0.5) {
                b.push(Inst::BitsToFp { fd: f(TMP_F), rs1: w }).unwrap();
                b.push(Inst::FpAlu { op: FpAluOp::Fmin, fd: wf, fs1: wf, fs2: f(TMP_F) })
                    .unwrap();
            } else {
                b.push(Inst::FMove { fd: f(TMP_F), fs1: wf }).unwrap();
                b.push(Inst::FpAlu { op: FpAluOp::Fmax, fd: wf2, fs1: wf2, fs2: f(TMP_F) })
                    .unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_analysis::lint_program;

    #[test]
    fn generated_programs_are_lint_clean() {
        for seed in 0..60 {
            let prog = generate(seed, GenConfig::default());
            let report = lint_program(&prog).expect("generated program has a CFG");
            assert!(report.is_clean(), "seed {seed}: {:?}", report);
        }
    }

    #[test]
    fn generated_programs_are_lint_clean_at_every_depth() {
        for depth in 1..=MAX_CALL_DEPTH {
            for seed in 0..20 {
                let prog = generate(seed, GenConfig { segments: 6, call_depth: depth });
                let report = lint_program(&prog).expect("generated program has a CFG");
                assert!(report.is_clean(), "depth {depth} seed {seed}: {:?}", report);
            }
        }
    }

    #[test]
    fn call_bearing_programs_fully_resolve() {
        use blackjack_analysis::Interproc;
        for seed in 0..20 {
            let prog = generate(seed, GenConfig { segments: 6, call_depth: 3 });
            let ip = Interproc::analyze(&prog).expect("generated program has a CFG");
            assert!(ip.is_resolved(), "seed {seed}: {:?}", ip.resolution());
            assert!(ip.fully_resolved(), "seed {seed}: unresolved jalr remains");
            assert!(
                ip.callgraph().functions.len() >= 2,
                "seed {seed}: expected a helper function"
            );
        }
    }

    #[test]
    fn the_call_depth_knob_is_bounded_by_the_generator() {
        use blackjack::envcfg::{Grammar, CALL_DEPTH};
        assert_eq!(CALL_DEPTH.grammar, Grammar::Positive { max: MAX_CALL_DEPTH as u64 });
    }

    #[test]
    fn depth_one_emits_no_calls() {
        use blackjack_isa::Inst;
        let prog = generate(11, GenConfig { segments: 8, call_depth: 1 });
        let cfg = blackjack_analysis::Cfg::build(&prog).unwrap();
        assert!(
            !cfg.insts().iter().any(|i| matches!(i, Inst::Jal { rd, .. } if !rd.is_zero())
                || matches!(i, Inst::Jalr { .. })),
            "depth 1 must be call-free"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0xB1AC, GenConfig { segments: 14, call_depth: 3 });
        let b = generate(0xB1AC, GenConfig { segments: 14, call_depth: 3 });
        assert_eq!(a.text(), b.text());
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(1, GenConfig::default());
        let b = generate(2, GenConfig::default());
        assert_ne!(a.text(), b.text());
    }

    #[test]
    fn generated_programs_halt_in_the_interpreter() {
        for seed in 0..20 {
            let prog = generate(seed, GenConfig::default());
            let mut it = blackjack_isa::Interp::new(&prog);
            it.run(1_000_000).expect("interprets cleanly");
            assert!(it.halted(), "seed {seed} must halt");
        }
    }

    #[test]
    fn call_bearing_programs_halt_in_the_interpreter() {
        for seed in 0..20 {
            let prog = generate(seed, GenConfig { segments: 6, call_depth: 3 });
            let mut it = blackjack_isa::Interp::new(&prog);
            it.run(1_000_000).expect("interprets cleanly");
            assert!(it.halted(), "seed {seed} must halt");
        }
    }
}
