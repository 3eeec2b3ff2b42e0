//! `bj-lint`: run the full static-analysis suite over the workload
//! kernels (and any extra assembly files) and emit a machine-readable
//! JSON report.
//!
//! ```text
//! bj-lint [--deny] [file.s ...]
//! ```
//!
//! Four checks, mirroring the consumers of `blackjack-analysis`:
//!
//! 1. **Lints** — every program must be free of unreachable code,
//!    uninitialized reads, dead definitions, unbounded loops, and
//!    falls-off-end paths, under the interprocedural analysis.
//! 2. **Call-graph stats** — per program: function count, maximum call
//!    depth, recursion, and whether every `jalr` was resolved into a
//!    proven return (`resolution: "resolved"`) or the analysis fell
//!    back to conservative mode (with the reasons).
//! 3. **Fault-site reachability** — each program's static FU mix and
//!    the backend ways an injection campaign may skip for it.
//! 4. **Safe-shuffle verification** — the default machine's shuffle
//!    schedule must prove full (class, way) pair coverage.
//!
//! The report covers the paper's 16 kernels, the call-bearing kernels
//! (`perlbmk`, `parser`), and any `.s` files given as arguments.
//!
//! Exit status: hard failures (a program with no analyzable CFG, an
//! unverifiable shuffle) always exit 1. Lint findings are reported in
//! the JSON and exit 1 only under `--deny` — the mode `verify.sh` runs,
//! making any finding anywhere in the suite a gate failure. Usage
//! errors (unreadable or unassemblable input files) exit 2. `BJ_SCALE`
//! selects the workload scale (CFG shape is scale-invariant; the lint
//! suite pins that separately).

use blackjack::sim::{CoreConfig, FuCounts};
use blackjack::workloads::{build, Benchmark};
use blackjack::{envcfg, isa::FuType};
use blackjack_analysis::{
    lint_interproc, verify_shuffle, Interproc, Resolution, SiteAnalysis,
};
use blackjack_isa::Program;

/// Minimal JSON string escaping (the report contains no exotic text,
/// but lint messages embed register names and hex PCs).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn usage() -> ! {
    eprintln!("usage: bj-lint [--deny] [file.s ...]");
    std::process::exit(2);
}

/// Loads and assembles one `.s` file, named after its stem.
fn load_source(path: &str) -> Program {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    blackjack::isa::asm::assemble_named(&src, name).unwrap_or_else(|e| {
        eprintln!("error: cannot assemble `{path}`: {e}");
        std::process::exit(2);
    })
}

/// The per-program `"callgraph"` JSON object.
fn callgraph_json(ip: &Interproc) -> String {
    let cg = ip.callgraph();
    let depth = match cg.max_call_depth {
        Some(d) => d.to_string(),
        None => "null".to_string(),
    };
    let (resolution, reasons) = match ip.resolution() {
        Resolution::Resolved => ("resolved", Vec::new()),
        Resolution::Conservative { reasons } => ("conservative", reasons.clone()),
    };
    let reasons: Vec<String> =
        reasons.iter().map(|r| format!("\"{}\"", esc(r))).collect();
    format!(
        "{{\"functions\": {}, \"max_call_depth\": {}, \"recursive\": {}, \
         \"resolved_returns\": {}, \"resolution\": \"{}\", \"reasons\": [{}]}}",
        cg.functions.len(),
        depth,
        cg.recursive(),
        ip.resolved_returns(),
        resolution,
        reasons.join(", "),
    )
}

fn main() {
    let mut deny = false;
    let mut files: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--deny" => deny = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                usage()
            }
            _ => files.push(a),
        }
    }

    let scale = envcfg::SCALE.positive().expect("BJ_SCALE has a default") as u32;
    let counts = FuCounts::default();
    let mut hard_failed = false;
    let mut findings = false;
    let mut out = String::new();

    let programs: Vec<Program> = Benchmark::ALL
        .into_iter()
        .chain(Benchmark::CALL_KERNELS)
        .map(|b| build(b, scale))
        .chain(files.iter().map(|p| load_source(p)))
        .collect();

    out.push_str("{\n  \"kernels\": [\n");
    for (i, prog) in programs.iter().enumerate() {
        let sep = if i + 1 < programs.len() { "," } else { "" };
        match (Interproc::analyze(prog), SiteAnalysis::analyze(prog, &counts)) {
            (Ok(ip), Ok(analysis)) => {
                let report = lint_interproc(&ip);
                if !report.is_clean() {
                    findings = true;
                }
                let lints: Vec<String> = report
                    .lints
                    .iter()
                    .map(|l| {
                        format!(
                            "{{\"kind\": \"{}\", \"pc\": {}, \"message\": \"{}\"}}",
                            l.kind(),
                            l.pc(),
                            esc(&l.to_string())
                        )
                    })
                    .collect();
                let mix: Vec<String> = FuType::ALL
                    .iter()
                    .map(|&t| format!("\"{t}\": {}", analysis.static_mix.of(t)))
                    .collect();
                let pruned: Vec<String> = analysis
                    .prunable_backend_ways()
                    .iter()
                    .map(|w| w.to_string())
                    .collect();
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"insts\": {}, \"blocks\": {}, \
                     \"clean\": {}, \"lints\": [{}], \"callgraph\": {}, \
                     \"static_mix\": {{{}}}, \"prunable_backend_ways\": [{}]}}{sep}\n",
                    esc(&report.program),
                    report.insts,
                    report.blocks,
                    report.is_clean(),
                    lints.join(", "),
                    callgraph_json(&ip),
                    mix.join(", "),
                    pruned.join(", "),
                ));
            }
            (Err(e), _) | (_, Err(e)) => {
                hard_failed = true;
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"error\": \"{}\"}}{sep}\n",
                    esc(&prog.name),
                    esc(&e.to_string())
                ));
            }
        }
    }
    out.push_str("  ],\n");

    let cfg = CoreConfig::default();
    match verify_shuffle(cfg.width, &cfg.fu_counts, cfg.shuffle_algo, 2) {
        Ok(proof) => {
            let pairs: Vec<String> = FuType::ALL
                .iter()
                .map(|&t| format!("\"{t}\": {}", proof.backend_pair_count(t)))
                .collect();
            out.push_str(&format!(
                "  \"shuffle\": {{\"verified\": true, \"probes\": {}, \
                 \"max_packets\": {}, \"complete\": {}, \"diverse_pairs\": {{{}}}}}\n",
                proof.probes,
                proof.max_packets,
                proof.is_complete(),
                pairs.join(", "),
            ));
            if !proof.is_complete() {
                hard_failed = true;
            }
        }
        Err(e) => {
            hard_failed = true;
            out.push_str(&format!(
                "  \"shuffle\": {{\"verified\": false, \"error\": \"{}\"}}\n",
                esc(&e.to_string())
            ));
        }
    }
    out.push('}');

    println!("{out}");
    if hard_failed {
        eprintln!("bj-lint: FAILED (see report above)");
        std::process::exit(1);
    }
    if findings {
        if deny {
            eprintln!("bj-lint: findings present and --deny set");
            std::process::exit(1);
        }
        eprintln!("bj-lint: findings present (pass --deny to make them fatal)");
    }
}
