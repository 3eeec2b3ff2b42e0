//! Static fault-site pruning: which backend ways can a program
//! possibly exercise?
//!
//! A hard fault on a backend way only manifests when a uop *computes on
//! that way* (the simulator corrupts results at execute, see
//! `fault_value` in `blackjack-sim`). A way of FU class `t` can
//! therefore never fire if no instruction of class `t` ever executes.
//!
//! The soundness argument has to cover more than the statically
//! reachable path: a faulted core fetches wrong-path and speculative
//! instructions, an already-fired fault can redirect control into
//! otherwise-dead code, and safe-shuffle plants filler NOPs. So the
//! pruning criterion is deliberately coarse: a class is *exercisable*
//! if **any** word of the text segment decodes to it. Everything the
//! core can conceivably execute — right path, wrong path, dead code —
//! is some decoded text word, and shuffle filler NOPs only ever take
//! the class of an instruction already present in the packet. A class
//! absent from the entire text segment can never appear in the
//! pipeline, so a fault on one of its ways is statically `Benign`.
//!
//! The argument extends unchanged to call-bearing programs. Calls and
//! returns add new *control edges* (including predicted ones: the
//! fetch-stage RAS can pop a stale return address, and the BTB can
//! redirect a `jalr` anywhere it was ever trained), but every such
//! redirection still lands the fetch unit inside the text segment —
//! the frontend raises a fetch fault for anything outside it, and a
//! faulted-run fetch fault is itself a detection, not an execution.
//! So the universe of executable uops is still exactly the set of
//! decoded text words, independent of how precisely the CFG resolves
//! `jalr` targets. The analysis therefore builds the [`Cfg`] only to
//! decode and validate the text (its [`CfgError`] is the analysis's
//! error) and runs no reachability or interprocedural pass.
//!
//! Frontend and payload-RAM sites are never pruned: every instruction
//! flows through them regardless of class.

use blackjack_faults::FaultSite;
use blackjack_isa::{FuType, Program};
use blackjack_sim::FuCounts;

use crate::cfg::{Cfg, CfgError};

/// Instruction counts per FU class (indexed by [`FuType::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuMix {
    /// One count per class, in [`FuType::ALL`] order.
    pub counts: [usize; FuType::ALL.len()],
}

impl FuMix {
    /// Count for one class.
    pub fn of(&self, t: FuType) -> usize {
        self.counts[t.index()]
    }

    /// True if any instruction of class `t` is present.
    pub fn exercises(&self, t: FuType) -> bool {
        self.of(t) > 0
    }

    /// Total instructions counted.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Static fault-site analysis of one program against one backend
/// configuration.
#[derive(Debug, Clone)]
pub struct SiteAnalysis {
    /// Program name.
    pub program: String,
    /// Mix over **every** decoded text word — the sound pruning basis
    /// (covers wrong-path and fault-redirected execution).
    pub static_mix: FuMix,
    fu: FuCounts,
}

impl SiteAnalysis {
    /// Analyzes `prog` against the backend described by `fu`.
    ///
    /// # Errors
    ///
    /// Returns the [`CfgError`] of [`Cfg::build`] if the program cannot
    /// be decoded into a CFG.
    pub fn analyze(prog: &Program, fu: &FuCounts) -> Result<SiteAnalysis, CfgError> {
        let cfg = Cfg::build(prog)?;
        let mut static_mix = FuMix::default();
        for inst in cfg.insts() {
            static_mix.counts[inst.fu_type().index()] += 1;
        }
        Ok(SiteAnalysis {
            program: prog.name.clone(),
            static_mix,
            fu: *fu,
        })
    }

    /// The backend configuration the analysis was run against.
    pub fn fu_counts(&self) -> &FuCounts {
        &self.fu
    }

    /// True if a fault at `site` is statically provably benign for this
    /// program: the fault can never corrupt an executing uop, so the run
    /// is guaranteed to match the golden run.
    ///
    /// Only backend sites are ever prunable; frontend ways and payload
    /// RAM entries process instructions of every class.
    pub fn prunable(&self, site: FaultSite) -> bool {
        match site {
            FaultSite::Backend { way } => {
                let (t, _) = self.fu.way_type(way);
                !self.static_mix.exercises(t)
            }
            // Frontend ways and payload RAMs process instructions of
            // every class; the uncore sites (cache arrays, store buffer,
            // DTQ/LVQ payload RAM) are exercised by any memory traffic
            // and depend on dynamic addresses/occupancy, which no static
            // argument covers.
            FaultSite::Frontend { .. }
            | FaultSite::PayloadRam { .. }
            | FaultSite::CacheData { .. }
            | FaultSite::CacheTag { .. }
            | FaultSite::StoreBuffer { .. }
            | FaultSite::DtqPayload { .. }
            | FaultSite::LvqPayload { .. } => false,
        }
    }

    /// True if BlackJack's checks *guarantee* detection (or architectural
    /// masking) of a fault at `site` for this program — the strict
    /// fault-soundness oracle used by the differential fuzzer.
    ///
    /// The guarantee holds for:
    ///
    /// * **Frontend ways** — the DTQ carries the pristine instruction
    ///   word, so the two copies fetch independently; safe-shuffle keeps
    ///   the copies on different frontend ways (forced placements are the
    ///   exception — callers should check `shuffle_forced == 0`).
    /// * **Backend ways of live, non-`MemPort` classes** — safe-shuffle
    ///   guarantees backend-way diversity, so only one copy computes on
    ///   the faulty unit and the commit-time checks compare the copies.
    ///
    /// Excluded, by construction of the microarchitecture:
    ///
    /// * **`MemPort` backend ways** — a corrupted leading load value
    ///   enters the LVQ and is *forwarded* to the trailing copy (the SRT
    ///   load-value replication the design inherits), so both copies can
    ///   agree on the wrong value.
    /// * **Payload-RAM entries** — payload corruption also reaches
    ///   leading load values before LVQ capture, the same escape path.
    /// * **Pruned (dead-class) backend ways** — never exercised at all.
    ///
    /// This is the ECC-off view; see
    /// [`SiteAnalysis::detection_guaranteed_with`].
    pub fn detection_guaranteed(&self, site: FaultSite) -> bool {
        self.detection_guaranteed_with(site, false)
    }

    /// [`SiteAnalysis::detection_guaranteed`], parameterized by whether
    /// the LVQ payload RAM carries SEC-DED ECC (`CoreConfig::lvq_ecc`).
    ///
    /// The ECC check bits are generated over the *clean* load value at
    /// the protected end of the load path, so every corruption striking
    /// between there and the trailing read port — `MemPort` backend
    /// ways, leading payload-RAM entries, the cache data array — is
    /// repaired (or flagged as a DUE) before the trailing copy consumes
    /// it. The trailing copy then diverges from the corrupt leading
    /// copy and the pair checks fire, which promotes exactly the
    /// escape-path sites to guaranteed.
    ///
    /// Sites guaranteed regardless of ECC:
    ///
    /// * **Cache tag array** — a tag defect only forces spurious misses
    ///   (latency), never wrong data.
    /// * **Store buffer entries** — corrupt buffered leading data can
    ///   only fail the trailing store check; memory is written on match
    ///   only.
    /// * **DTQ / LVQ payload entries** — both strike the trailing copy
    ///   only, and memory is driven by the leading thread.
    pub fn detection_guaranteed_with(&self, site: FaultSite, ecc: bool) -> bool {
        match site {
            FaultSite::Frontend { .. } => true,
            FaultSite::Backend { way } => {
                let (t, _) = self.fu.way_type(way);
                self.static_mix.exercises(t) && (t != FuType::MemPort || ecc)
            }
            FaultSite::PayloadRam { .. } | FaultSite::CacheData { .. } => ecc,
            FaultSite::CacheTag { .. }
            | FaultSite::StoreBuffer { .. }
            | FaultSite::DtqPayload { .. }
            | FaultSite::LvqPayload { .. } => true,
        }
    }

    /// All prunable backend ways, in ascending global-way order.
    pub fn prunable_backend_ways(&self) -> Vec<usize> {
        (0..self.fu.total())
            .filter(|&w| self.prunable(FaultSite::Backend { way: w }))
            .collect()
    }

    /// FU classes the program can never exercise.
    pub fn dead_classes(&self) -> Vec<FuType> {
        FuType::ALL
            .into_iter()
            .filter(|&t| !self.static_mix.exercises(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_isa::asm::assemble;

    fn analyze(src: &str) -> SiteAnalysis {
        let prog = assemble(src).unwrap();
        SiteAnalysis::analyze(&prog, &FuCounts::default()).unwrap()
    }

    #[test]
    fn integer_only_program_prunes_all_fp_and_muldiv_ways() {
        let a = analyze(
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
        assert!(a.static_mix.exercises(FuType::IntAlu));
        assert!(a.static_mix.exercises(FuType::MemPort));
        assert!(!a.static_mix.exercises(FuType::IntMul));
        assert!(!a.static_mix.exercises(FuType::FpDiv));
        // Default config: 4 IntAlu + 2 each of the rest = 16 ways; the
        // 10 mul/div/FP ways are prunable, the 4+2 IntAlu/MemPort not.
        assert_eq!(a.prunable_backend_ways().len(), 10);
        assert_eq!(a.dead_classes().len(), 5);
    }

    #[test]
    fn frontend_and_payload_never_prunable() {
        let a = analyze(".text\n nop\n halt\n");
        assert!(!a.prunable(FaultSite::Frontend { way: 0 }));
        assert!(!a.prunable(FaultSite::PayloadRam { entry: 0 }));
    }

    #[test]
    fn dead_code_still_counts_toward_static_mix() {
        // The fmul is unreachable, but wrong-path fetch could still
        // decode and execute it — the FpMul ways must not be pruned.
        let a = analyze(
            ".text
                j    end
                fmul f1, f2, f3    # statically dead
            end:
                halt
            ",
        );
        assert!(a.static_mix.exercises(FuType::FpMul));
        assert!(!a.prunable(FaultSite::Backend {
            way: FuCounts::default().global_way(FuType::FpMul, 0)
        }));
    }

    #[test]
    fn fp_program_keeps_fp_ways() {
        let a = analyze(
            ".text
                fcvt.d.l f1, x0
                fadd f2, f1, f1
                fmul f3, f2, f2
                fdiv f4, f3, f2
                fsd  f4, 0(x2)
                halt
            ",
        );
        for t in [FuType::FpAlu, FuType::FpMul, FuType::FpDiv, FuType::MemPort] {
            assert!(a.static_mix.exercises(t), "{t} should be exercised");
        }
        // Only the integer mul/div ways are prunable.
        assert_eq!(a.prunable_backend_ways().len(), 4);
    }

    #[test]
    fn detection_guarantee_partitions_sites() {
        let a = analyze(".text\n li x1, 3\n mul x1, x1, x1\n sd x1, 0(x2)\n halt\n");
        assert!(a.detection_guaranteed(FaultSite::Frontend { way: 0 }));
        assert!(!a.detection_guaranteed(FaultSite::PayloadRam { entry: 0 }));
        let fu = FuCounts::default();
        // Live non-MemPort class: guaranteed.
        assert!(a.detection_guaranteed(FaultSite::Backend {
            way: fu.global_way(FuType::IntMul, 0)
        }));
        // MemPort: excluded (LVQ forwards the corrupted load value).
        assert!(!a.detection_guaranteed(FaultSite::Backend {
            way: fu.global_way(FuType::MemPort, 0)
        }));
        // Dead class: excluded (never exercised).
        assert!(!a.detection_guaranteed(FaultSite::Backend {
            way: fu.global_way(FuType::FpDiv, 0)
        }));
    }

    #[test]
    fn ecc_promotes_exactly_the_load_escape_sites() {
        let a = analyze(".text\n li x1, 3\n ld x1, 0(x2)\n sd x1, 0(x2)\n halt\n");
        let fu = FuCounts::default();
        let mem_way = FaultSite::Backend { way: fu.global_way(FuType::MemPort, 0) };
        // The three escape-path site classes flip to guaranteed with ECC.
        for site in [mem_way, FaultSite::PayloadRam { entry: 0 }, FaultSite::CacheData { index: 3 }] {
            assert!(!a.detection_guaranteed_with(site, false), "{site}: best-effort without ECC");
            assert!(a.detection_guaranteed_with(site, true), "{site}: guaranteed with ECC");
        }
        // The trailing-only / latency-only uncore sites never needed it.
        for site in [
            FaultSite::CacheTag { index: 0 },
            FaultSite::StoreBuffer { entry: 1 },
            FaultSite::DtqPayload { entry: 2 },
            FaultSite::LvqPayload { entry: 3 },
        ] {
            assert!(a.detection_guaranteed_with(site, false), "{site}");
            assert!(a.detection_guaranteed_with(site, true), "{site}");
        }
        // ECC does not resurrect dead backend classes.
        let dead = FaultSite::Backend { way: fu.global_way(FuType::FpDiv, 0) };
        assert!(!a.detection_guaranteed_with(dead, true));
        // And uncore sites are never prunable.
        assert!(!a.prunable(FaultSite::CacheData { index: 0 }));
        assert!(!a.prunable(FaultSite::LvqPayload { entry: 0 }));
        assert!(!a.prunable(FaultSite::StoreBuffer { entry: 0 }));
    }

    #[test]
    fn call_bearing_program_counts_helper_and_continuation() {
        // The fmul lives in a called helper; the mul sits *after* the
        // call site, which the CFG reaches only through a resolved
        // return edge. Both must appear in the pruning basis.
        let a = analyze(
            ".text
                li   x5, 3
                call helper
                mul  x6, x5, x5
                sd   x6, 0(x6)
                halt
            helper:
                fcvt.d.l f1, x5
                fmul f2, f1, f1
                ret
            ",
        );
        for t in [FuType::FpMul, FuType::IntMul] {
            assert!(a.static_mix.exercises(t), "{t} missing from static mix");
        }
        assert!(!a.prunable(FaultSite::Backend {
            way: FuCounts::default().global_way(FuType::FpMul, 0)
        }));
    }

    #[test]
    fn pruning_basis_independent_of_return_resolution() {
        // A recursive helper fails the return-address discipline, so
        // returns stay unresolved — but pruning never depended on the
        // CFG, so the prunable set matches the resolvable variant's.
        let recursive = analyze(
            ".text
                li   x5, 2
                call helper
                halt
            helper:
                addi x5, x5, -1
                beqz x5, out
                call helper
            out:
                ret
            ",
        );
        let resolvable = analyze(
            ".text
                li   x5, 2
                call helper
                halt
            helper:
                addi x5, x5, -1
                ret
            ",
        );
        assert_eq!(
            recursive.prunable_backend_ways(),
            resolvable.prunable_backend_ways()
        );
        // All-integer programs: every non-IntAlu compute class is dead.
        assert!(recursive.static_mix.exercises(FuType::IntAlu));
        assert!(!recursive.static_mix.exercises(FuType::FpAlu));
    }

    #[test]
    fn mix_totals_match() {
        let a = analyze(".text\n nop\n mul x1, x2, x2\n halt\n");
        assert_eq!(a.static_mix.total(), 3);
        assert_eq!(a.static_mix.of(FuType::IntMul), 1);
    }

    #[test]
    fn an_unanalyzable_program_fails_with_the_cfg_error() {
        // `bj-fuzz` and the benchmark count every injection of a program
        // that cannot be analyzed as failed, so the analysis must refuse
        // exactly the programs `Cfg::build` refuses, with its error.
        use blackjack_isa::{Inst, ProgramBuilder, Reg, TEXT_BASE};
        let empty = ProgramBuilder::new("empty").build();
        let mut b = ProgramBuilder::new("undecodable");
        b.push_raw(0xffff_ffff);
        let undecodable = b.build();
        let mut b = ProgramBuilder::new("wild");
        b.push(Inst::Jal { rd: Reg::ZERO, offset: -(TEXT_BASE as i32) }).unwrap();
        let wild = b.build();
        let errs = [&empty, &undecodable, &wild].map(|prog| {
            let err = SiteAnalysis::analyze(prog, &FuCounts::default()).unwrap_err();
            assert_eq!(err, Cfg::build(prog).unwrap_err(), "{}", prog.name);
            err
        });
        assert_eq!(errs[0], CfgError::Empty);
        assert!(matches!(errs[1], CfgError::Decode { word: 0xffff_ffff, .. }), "{:?}", errs[1]);
        assert!(matches!(errs[2], CfgError::WildTarget { target: 0, .. }), "{:?}", errs[2]);
    }
}
