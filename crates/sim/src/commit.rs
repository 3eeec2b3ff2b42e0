//! The core's architectural commit trace and its one replay against the
//! golden interpreter.
//!
//! [`Core::enable_commit_log`](crate::Core::enable_commit_log) records
//! every leading-context commit as a [`CommitRecord`];
//! [`replay_commit_log`] steps a fresh [`Interp`] alongside the records
//! and names the first one that disagrees. The differential fuzzer, the
//! differential tests, `bjsim --oracle` and the smoke example all check
//! the pipeline through this one function.

use std::fmt;

use blackjack_isa::exec::effective_addr;
use blackjack_isa::{decode, Inst, Interp, LogReg, Program};

/// An architectural memory effect observed at leading commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// A committed load.
    Load {
        /// Effective address.
        addr: u64,
        /// Loaded (extended) value.
        value: u64,
    },
    /// A committed store.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Stored value (width-truncated).
        data: u64,
    },
}

/// One committed leading-context instruction, as recorded by
/// [`Core::enable_commit_log`](crate::Core::enable_commit_log).
///
/// This is the core's externally visible architectural trace — compared
/// 1:1 against the golden interpreter's execution by
/// [`replay_commit_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Program-order sequence number.
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// Committed next PC.
    pub next_pc: u64,
    /// Conditional-branch outcome.
    pub taken: bool,
    /// Destination logical register and the value written, if any
    /// (writes to `x0` are architectural no-ops and appear as `None`).
    pub dst: Option<(LogReg, u64)>,
    /// Memory effect, for loads and stores.
    pub mem: Option<MemEffect>,
}

/// The first point where a commit log departs from the golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Sequence number of the offending record (the log's length when
    /// the log ends before the golden run halts).
    pub seq: u64,
    /// PC of the offending record (the golden PC when the log ends
    /// early).
    pub pc: u64,
    /// What differed.
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq {} (pc {:#x}): {}", self.seq, self.pc, self.what)
    }
}

/// Replays `log` against a fresh interpreter for `prog`, checking at
/// every sequence number the PC, next PC, destination write, store
/// address/size/data and load address. Returns the number of records
/// replayed when all of them agree and the golden run halts exactly
/// after the last one.
///
/// # Errors
///
/// The first [`Divergence`]: a sequence gap, a disagreeing record, a
/// golden fault, or a log that ends before the golden run halts (as a
/// detected run's log does).
pub fn replay_commit_log(prog: &Program, log: &[CommitRecord]) -> Result<usize, Divergence> {
    let mut it = Interp::new(prog);
    for (i, rec) in log.iter().enumerate() {
        let diverged = |what: String| Err(Divergence { seq: i as u64, pc: rec.pc, what });
        if rec.seq != i as u64 {
            return diverged(format!("sequence gap: record {i} has seq {}", rec.seq));
        }
        if rec.pc != it.pc() {
            return diverged(format!("committed pc {:#x}, golden pc {:#x}", rec.pc, it.pc()));
        }
        // Load addresses are recomputed from the interpreter's pre-step
        // register state — the text segment is never written, so the
        // static image is authoritative for the instruction itself.
        let expect_load_addr =
            prog.fetch(rec.pc).and_then(|w| decode(w).ok()).and_then(|inst| match inst {
                Inst::Load { rs1, .. } | Inst::FLoad { rs1, .. } => {
                    Some(effective_addr(&inst, it.reg(rs1.index() as usize)))
                }
                _ => None,
            });
        if it.step().is_err() {
            return diverged("golden faulted".to_string());
        }
        if rec.next_pc != it.pc() {
            return diverged(format!(
                "committed next_pc {:#x}, golden {:#x}",
                rec.next_pc,
                it.pc()
            ));
        }
        if let Some((log_reg, v)) = rec.dst {
            let idx = log_reg.index() as usize;
            let want = if log_reg.is_fp() { it.freg_bits(idx - 32) } else { it.reg(idx) };
            if v != want {
                return diverged(format!("dst {log_reg} committed {v:#x}, golden {want:#x}"));
            }
        }
        match rec.mem {
            Some(MemEffect::Store { addr, bytes, data }) => {
                let got = it.mem().read_sized(addr, bytes);
                if data != got {
                    return diverged(format!(
                        "store {bytes}B @ {addr:#x} committed {data:#x}, golden {got:#x}"
                    ));
                }
            }
            Some(MemEffect::Load { addr, .. }) => {
                if let Some(want) = expect_load_addr.filter(|&want| want != addr) {
                    return diverged(format!("load address {addr:#x}, golden {want:#x}"));
                }
            }
            None => {}
        }
    }
    if !it.halted() {
        return Err(Divergence {
            seq: log.len() as u64,
            pc: it.pc(),
            what: format!("log ends after {} records but the golden run has not halted", log.len()),
        });
    }
    Ok(log.len())
}
