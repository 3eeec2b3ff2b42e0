//! # BJ-ISA — the instruction set of the BlackJack reproduction
//!
//! A compact 64-bit RISC instruction set designed for the BlackJack SMT
//! simulator (`blackjack-sim`). The crate provides everything needed to
//! author, encode, and *functionally* execute programs:
//!
//! * [`Reg`]/[`FReg`]/[`LogReg`] — architectural register names, plus a
//!   unified 64-entry logical register space used by the renamer.
//! * [`Inst`] — the decoded instruction form, with helpers that report the
//!   functional-unit class ([`FuType`]), source/destination registers, and
//!   control-flow behaviour.
//! * [`encode`]/[`decode`] — a real 32-bit binary codec (round-trip tested).
//! * [`asm`] — a two-pass assembler with labels, sections, and pseudo-ops.
//! * [`Interp`] — the golden functional interpreter used for differential
//!   testing of the out-of-order pipeline.
//! * [`Program`] and [`PagedMem`] — program images and a sparse byte memory.
//!
//! # Example
//!
//! ```
//! use blackjack_isa::{asm::assemble, Interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble(
//!     r#"
//!     .text
//!         li   x1, 6
//!         li   x2, 7
//!         mul  x3, x1, x2
//!         halt
//!     "#,
//! )?;
//! let mut interp = Interp::new(&prog);
//! interp.run(1_000)?;
//! assert_eq!(interp.reg(3), 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
mod encode;
pub mod exec;
mod inst;
mod interp;
mod mem;
mod program;
mod reg;

pub use encode::{decode, encode, DecodeError, EncodeError};
pub use inst::{
    AluOp, BranchCond, CmpOp, CvtOp, DivOp, FpAluOp, FpDivOp, FuType, Inst, MemWidth, MulOp,
};
pub use interp::{initial_int_regs, ExecEvent, Interp, InterpError, InterpStats, StepOutcome};
pub use mem::{PagedMem, MEM_BLOCK_BYTES, MEM_PAGE_BYTES};
pub use program::{Program, ProgramBuilder, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::{FReg, LogReg, Reg};

/// Size of one encoded instruction in bytes.
pub const INST_BYTES: u64 = 4;

/// Number of architectural integer registers (`x0` is hardwired to zero).
pub const NUM_INT_REGS: usize = 32;

/// Number of architectural floating-point registers.
pub const NUM_FP_REGS: usize = 32;

/// Size of the unified logical register space seen by the renamer
/// (integer regs `0..32`, FP regs `32..64`).
pub const NUM_LOG_REGS: usize = NUM_INT_REGS + NUM_FP_REGS;
