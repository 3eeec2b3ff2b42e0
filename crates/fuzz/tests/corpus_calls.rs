//! Call-bearing corpus cases, pinned to their assembly sources.
//!
//! Three hand-written programs exercise the call/return surface the
//! generator and the interprocedural analysis meet on:
//!
//! * `call-leaf-chain` — two call sites into one leaf helper: the RAS
//!   pushes and pops with distinct return addresses every iteration.
//! * `call-ra-spill` — a three-deep chain whose middle function spills
//!   and reloads `ra` through a stack frame, the save/restore shape the
//!   return-address discipline proof verifies.
//! * `call-recursive-bounded` — a bounded self-recursive function. It
//!   executes fine (and must replay clean differentially), but the
//!   discipline proof must *reject* it: recursion breaks the acyclic
//!   frame argument, so its returns stay unresolved.
//!
//! The `.bjcase` files under `tests/corpus/` (repo root) are replayed
//! by the generic corpus tests; this file pins them to the sources
//! below so they cannot drift. Set `BJ_BLESS=1` to rewrite the files
//! from the sources.

use std::path::PathBuf;

use blackjack_analysis::{lint_program, Interproc, Resolution};
use blackjack_fuzz::{Case, CaseKind};
use blackjack_isa::asm::assemble_named;

const LEAF_CHAIN: &str = r#"
.text
    li   x20, 0x400000     # scratch base
    li   x21, 40           # iterations
    li   x22, 0
    li   x23, 7            # accumulator
loop:
    call mix
    sd   x23, 0(x20)
    call mix
    sd   x23, 8(x20)
    addi x22, x22, 1
    blt  x22, x21, loop
    halt

mix:                       # leaf: fold the index into the accumulator
    xor  x23, x23, x22
    sll  x15, x23, 3
    add  x23, x23, x15
    ret
"#;

const RA_SPILL: &str = r#"
.text
    li   x20, 0x400000     # scratch base
    li   x21, 24           # iterations
    li   x22, 0
    li   x23, 1            # accumulator
loop:
    call outer
    addi x22, x22, 1
    blt  x22, x21, loop
    sd   x23, 0(x20)
    halt

outer:                     # non-leaf: spills ra around the inner call
    addi sp, sp, -16
    sd   ra, 8(sp)
    add  x23, x23, x22
    call inner
    xor  x23, x23, x15
    ld   ra, 8(sp)
    addi sp, sp, 16
    ret

inner:                     # leaf
    sll  x15, x23, 1
    add  x15, x15, x22
    ret
"#;

const RECURSIVE_BOUNDED: &str = r#"
.text
    li   x20, 0x400000     # scratch base
    li   x21, 6            # recursion depth
    li   x23, 0            # accumulator
    call rec
    sd   x23, 0(x20)
    halt

rec:                       # self-recursive, bounded by x21
    addi sp, sp, -16
    sd   ra, 8(sp)
    add  x23, x23, x21
    addi x21, x21, -1
    beqz x21, unwind
    call rec
unwind:
    ld   ra, 8(sp)
    addi sp, sp, 16
    ret
"#;

const CASES: [(&str, &str); 3] = [
    ("call-leaf-chain", LEAF_CHAIN),
    ("call-ra-spill", RA_SPILL),
    ("call-recursive-bounded", RECURSIVE_BOUNDED),
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn case_for(name: &str, src: &str) -> Case {
    Case::new(
        name.to_string(),
        CaseKind::Interesting,
        None,
        assemble_named(src, name).unwrap_or_else(|e| panic!("{name}: {e}")),
        None,
    )
}

#[test]
fn call_corpus_files_match_their_sources() {
    for (name, src) in CASES {
        let case = case_for(name, src);
        let path = corpus_dir().join(format!("{name}.bjcase"));
        if std::env::var_os("BJ_BLESS").is_some() {
            std::fs::write(&path, case.to_text())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} (set BJ_BLESS=1 to generate)", path.display())
        });
        assert_eq!(
            case.to_text(),
            on_disk,
            "{name}: corpus file does not match its source \
             (set BJ_BLESS=1 to regenerate)"
        );
    }
}

#[test]
fn disciplined_cases_fully_resolve_and_lint_clean() {
    for (name, src) in [CASES[0], CASES[1]] {
        let case = case_for(name, src);
        let ip = Interproc::analyze(&case.program).unwrap();
        assert!(ip.is_resolved(), "{name}: {:?}", ip.resolution());
        assert!(ip.fully_resolved(), "{name}: unresolved jalr remains");
        let report = lint_program(&case.program).unwrap();
        assert!(report.is_clean(), "{name}: {:?}", report.lints);
    }
    // The spill case is the one that needs the frame argument.
    let ip = Interproc::analyze(&case_for(CASES[1].0, CASES[1].1).program).unwrap();
    assert!(ip.callgraph().functions.len() == 3, "expected main + outer + inner");
}

#[test]
fn recursive_case_is_rejected_by_the_discipline_proof() {
    let case = case_for(CASES[2].0, CASES[2].1);
    let ip = Interproc::analyze(&case.program).unwrap();
    assert!(!ip.is_resolved(), "recursion must not resolve");
    let Resolution::Conservative { reasons } = ip.resolution() else {
        panic!("expected conservative resolution");
    };
    assert!(
        reasons.iter().any(|r| r.contains("recursive")),
        "expected a recursion reason, got {reasons:?}"
    );
    assert_eq!(ip.resolved_returns(), 0);

    // And yet the program is fine dynamically: it halts with the
    // expected accumulator (6+5+...+1 = 21).
    let mut it = blackjack_isa::Interp::new(&case.program);
    it.run(100_000).unwrap();
    assert!(it.halted());
    assert_eq!(it.mem().read_u64(0x400000), 21);
}
