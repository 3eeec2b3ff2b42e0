//! Runs the full evaluation and prints Table 1 plus every figure. With
//! `--write-experiments`, also rewrites `EXPERIMENTS.md` at the repo root
//! from the measured numbers.
//!
//! With `BJ_TRACE=<path>` set, the campaign's scheduling telemetry plus
//! one `run` line per simulation (with occupancy histograms) are written
//! to `<path>` as JSONL; stdout is unchanged. Render with `bj-trace`.

use blackjack::faults::{DetectionTally, FaultPlan, FaultSite, HardFault, TaxonomyTally};
use blackjack::isa::asm::assemble_named;
use blackjack::sim::{table1, Core, CoreConfig, Mode, RunOutcome};
use blackjack::telemetry::TraceWriter;
use blackjack::{Campaign, Experiment};

fn main() {
    let write = std::env::args().any(|a| a == "--write-experiments");
    let campaign = Campaign::from_env_or_exit();
    let mut writer = TraceWriter::from_env_or_exit("fig_all");
    let exp = blackjack_bench::standard_experiment().with_trace(writer.is_some());
    let t0 = std::time::Instant::now();
    let result = match writer.as_mut() {
        Some(w) => {
            let (result, sched) = exp.run_all_traced_on(&campaign);
            w.emit_campaign(&sched, &Experiment::job_labels());
            for row in &result.rows {
                for r in [&row.single, &row.srt, &row.ns, &row.bj] {
                    let label = format!("{}/{}", r.bench.name(), r.mode);
                    w.emit_run(&label, &r.stats, r.trace.as_deref());
                }
            }
            result
        }
        None => exp.run_all_on(&campaign),
    };
    let elapsed = t0.elapsed();

    println!("{}", table1(&CoreConfig::default()));
    println!("{}", result.fig4_table());
    println!("{}", result.fig5_table());
    println!("{}", result.fig6_table());
    println!("{}", result.fig7_table());

    let (srt_cov, bj_cov, slowdown) = result.headline();
    println!("headline (paper: SRT 34%, BlackJack 97%, 15% slowdown over SRT):");
    println!(
        "  SRT coverage {srt_cov:.0}%, BlackJack coverage {bj_cov:.0}%, \
         BlackJack slowdown over SRT {slowdown:.0}%"
    );
    println!(
        "\n[64 simulations on {} workers in {elapsed:.1?}]",
        campaign.workers()
    );

    if write {
        let md = experiments_md(&result);
        std::fs::write("EXPERIMENTS.md", md).expect("write EXPERIMENTS.md");
        eprintln!("wrote EXPERIMENTS.md");
    }
}

fn experiments_md(r: &blackjack::ExperimentResult) -> String {
    let (srt_cov, bj_cov, slowdown) = r.headline();
    let mut s = String::new();
    s.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    s.push_str(
        "Regenerate everything here with\n`cargo run --release -p blackjack-bench --bin fig_all -- --write-experiments`.\n\
         All numbers below are from this repository's simulator on the 16 synthetic\n\
         SPEC2000-like kernels (see DESIGN.md for the substitution rationale);\n\
         absolute values differ from the paper's SimpleScalar/SPEC testbed, the\n\
         *shape* claims are what is reproduced.\n\n",
    );
    s.push_str("## Headline\n\n");
    s.push_str("| metric | paper | measured |\n|---|---|---|\n");
    s.push_str(&format!("| SRT hard-error coverage (avg) | 34% | {srt_cov:.0}% |\n"));
    s.push_str(&format!("| BlackJack hard-error coverage (avg) | 97% | {bj_cov:.0}% |\n"));
    s.push_str(&format!(
        "| BlackJack slowdown over SRT | 15% | {slowdown:.0}% |\n\n"
    ));

    s.push_str("## Figure 4 — hard-error instruction coverage (%)\n\n");
    s.push_str("Paper: SRT averages 34% (25% sixtrack … 41% vortex); BlackJack averages\n97% (94% bzip … 99% vortex); BlackJack frontend coverage is 100% by\nconstruction.\n\n");
    s.push_str("| benchmark | SRT 4a | BlackJack 4a | SRT 4b (backend) | BlackJack 4b |\n|---|---|---|---|---|\n");
    for ((name, s4a, b4a), (_, s4b, b4b)) in r.fig4a().into_iter().zip(r.fig4b()) {
        s.push_str(&format!(
            "| {name} | {s4a:.1} | {b4a:.1} | {s4b:.1} | {b4b:.1} |\n"
        ));
    }
    let a4 = r.fig4a();
    let b4 = r.fig4b();
    let m = |it: &[(String, f64, f64)], i: usize| -> f64 {
        it.iter().map(|r| if i == 0 { r.1 } else { r.2 }).sum::<f64>() / it.len() as f64
    };
    s.push_str(&format!(
        "| **average** | **{:.1}** | **{:.1}** | **{:.1}** | **{:.1}** |\n\n",
        m(&a4, 0),
        m(&a4, 1),
        m(&b4, 0),
        m(&b4, 1)
    ));

    s.push_str("## Figure 5 — issue cycles with diversity-violating interference (%)\n\n");
    s.push_str("Paper: trailing-trailing averages 0.5%, leading-trailing 2.3%; gzip and\nbzip are the worst leading-trailing offenders (7.0% and 5.6%).\n\n");
    s.push_str("| benchmark | trailing-trailing | leading-trailing |\n|---|---|---|\n");
    for (name, tt, lt) in r.fig5() {
        s.push_str(&format!("| {name} | {tt:.2} | {lt:.2} |\n"));
    }
    let f5 = r.fig5();
    s.push_str(&format!(
        "| **average** | **{:.2}** | **{:.2}** |\n\n",
        f5.iter().map(|r| r.1).sum::<f64>() / f5.len() as f64,
        f5.iter().map(|r| r.2).sum::<f64>() / f5.len() as f64
    ));

    s.push_str("## Figure 6 — single-context issue cycles (%)\n\n");
    s.push_str("Paper: average 70%; gzip lowest at 54%.\n\n| benchmark | single-context issue cycles |\n|---|---|\n");
    for (name, v) in r.fig6() {
        s.push_str(&format!("| {name} | {v:.1} |\n"));
    }
    let f6 = r.fig6();
    s.push_str(&format!(
        "| **average** | **{:.1}** |\n\n",
        f6.iter().map(|r| r.1).sum::<f64>() / f6.len() as f64
    ));

    s.push_str("## Figure 7 — performance normalized to single thread (%)\n\n");
    s.push_str("Paper: SRT average 79% (21% slowdown), BlackJack 67% (33% slowdown),\nBlackJack-NS between them; higher-IPC benchmarks degrade more.\n\n");
    s.push_str("| benchmark | SRT | BlackJack-NS | BlackJack |\n|---|---|---|---|\n");
    for (name, srt, ns, bj) in r.fig7() {
        s.push_str(&format!("| {name} | {srt:.1} | {ns:.1} | {bj:.1} |\n"));
    }
    let f7 = r.fig7();
    let avg = |f: fn(&(String, f64, f64, f64)) -> f64| -> f64 {
        f7.iter().map(f).sum::<f64>() / f7.len() as f64
    };
    s.push_str(&format!(
        "| **average** | **{:.1}** | **{:.1}** | **{:.1}** |\n\n",
        avg(|r| r.1),
        avg(|r| r.2),
        avg(|r| r.3)
    ));

    s.push_str("## Throughput (simulator, not paper)\n\n");
    let (cycles, wall, cps) = r.throughput();
    s.push_str(&format!(
        "This run simulated {cycles} cycles in {wall:.2}s of in-core wall time ({cps:.0} cycles/sec).\n\n",
    ));
    s.push_str(
        "The benchmark (`benchmark/`, workloads declared in `BENCHMARK.json`)\n\
         measures the same hot loop per mode as `sim.cycles_per_s.*` on its\n\
         `figures` workload, and the injection campaign end to end on\n\
         `inject-hard` and `inject-transient`.\n\n\
         De-allocating the `Core::step` hot path \u{2014} reusable scratch buffers for\n\
         every per-cycle worklist plus a fixed-capacity packet-total table in\n\
         place of a per-cycle `HashMap` \u{2014} raised median core throughput from\n\
         601,409 to 751,339 cycles/sec on the same host and benchmark mix\n\
         (+25%, 9-run medians before/after).\n\n\
         The campaign engine fans simulations out over `BJ_THREADS` workers\n\
         and reassembles results in job order. Wall-clock of the full\n\
         `ext_detection` sweep on a 2-vCPU host, medians of 21 interleaved\n\
         runs each:\n\n\
         | workers | output | wall-clock |\n|---|---|---|\n\
         | 1 | reference | 0.73 s |\n\
         | 2 | byte-identical | 0.44 s (1.7\u{d7}) |\n\
         | 8 | byte-identical | not measured (more workers than vCPUs) |\n\n",
    );
    s.push_str(
        "### Fork-at-injection\n\n\
         Injection campaigns share a long fault-free prefix: a wear-out fault\n\
         armed at cycle *C* behaves identically to a fault-free core until *C*.\n\
         Each (mode, benchmark) group simulates that prefix once, snapshotting\n\
         the core every 512 cycles, and hands every injection job a fork of\n\
         the last snapshot before its arming cycle instead of replaying from\n\
         cycle 0. The library keeps the replay path as a `DetectionConfig`\n\
         switch, and the equivalence matrix\n\
         (`crates/bench/tests/detection_equiv.rs`) asserts the reports are\n\
         byte-identical either way. Measured on the full `ext_detection`\n\
         sweep when the path landed:\n\n\
         | path | wall-clock (160 jobs, 1 worker, `BJ_SCALE=1`) |\n|---|---|\n\
         | replay from cycle 0 (the library's replay path) | 3.59 s |\n\
         | fork from prefix snapshots (the harness) | 1.08 s |\n\
         | **speedup** | **3.3\u{d7}** |\n\n\
         Copy-on-write cache chunks, memory pages and BTB, and a uop slab\n\
         cloned only up to its last live slot, have since made each snapshot\n\
         copy little more than the machine's in-flight state. The\n\
         benchmark's `inject-*` workloads time the fork path today.\n\n",
    );
    s.push_str(
        "### Verdict-convergence early exit\n\n\
         Fork-at-injection removes the redundant prefix of every injection\n\
         run; the early-exit layer (DESIGN \u{a7}2.12) removes the redundant\n\
         suffix \u{2014} the cycles a run keeps simulating after its verdict is\n\
         already decided. Two report-identical mechanisms, both forms of one\n\
         lockstep invariant (while a fault has zero activations its run is\n\
         bit-identical to the fault-free run): *activation pruning* tallies a\n\
         site Benign with no simulation when the reference run never exercises\n\
         it at or after arming; the *convergence seal* stops a zero-activation\n\
         run one cycle past the site's last reference exercise. A run that\n\
         wedges ends on the core's no-commit watchdog, as on the replay path\n\
         (DESIGN \u{a7}2.12). The equivalence matrix asserts byte-identical\n\
         reports with the layer off (a library-only switch) and on. Measured\n\
         on the same sweep when the layer landed, both ways interleaved\n\
         (min-of-5 per leg):\n\n\
         | path | wall-clock (160 jobs, 1 worker, `BJ_SCALE=1`) |\n|---|---|\n\
         | full runs (the library's replay path, snapshots on) | 0.83 s |\n\
         | early exit (the harness) | 0.53 s |\n\
         | **speedup** | **1.57\u{d7}** |\n\n\
         Part of that gain was the reference pass doubling as the snapshot\n\
         builder, which the full-run path has since adopted too.\n\
         Attribution on today's default sweep, pinned by the equivalence\n\
         matrix: of the 132 injections left after static pruning (68 of 200\n\
         jobs), activation pruning cuts 24 before they start and the seal\n\
         none \u{2014} the sweep's always-firing stuck-bit faults on exercised\n\
         sites activate almost immediately. A transient fault is present for\n\
         one cycle only and mostly leaves its run untouched, so there the seal\n\
         does the cutting: it ends 71 of the 108 runs the default sweep\n\
         simulates under `BJ_FAULT_KINDS=transient` (with `BJ_ECC` 0 or 1),\n\
         and 365 of the 518 runs the benchmark's `inject-transient` workload\n\
         simulates.\n\n",
    );

    s.push_str("## Observability — flight recorder on an injected fault\n\n");
    s.push_str(
        "Every harness accepts `BJ_TRACE=<path>` and appends JSONL telemetry\n\
         (campaign scheduling, per-run stats + occupancy histograms, `(class,\n\
         way)` issue heatmaps, and a bounded flight recorder of per-uop\n\
         pipeline events); `bj-trace` renders the stream as text. Tracing is\n\
         off by default and costs one branch per hook when disabled \u{2014}\n\
         the benchmark's `figures` workload measures the trace-off hot loop.\n\n\
         The dump below is real: a stuck-at-1 fault on bit 2 of backend way 4\n\
         (`INT_MUL` instance 0) under BlackJack, captured by this\n\
         `--write-experiments` run. The trailing copy of the `mul` issues on a\n\
         different way than the leading copy (the safe shuffle guarantees the\n\
         pair diverges), the results disagree, and the core stops at the\n\
         detection stamp \u{2014} the corrupt value never reaches memory.\n\n",
    );
    s.push_str(&flight_dump_md());
    s.push_str(
        "### Campaign observability (`BJ_TRACE`, `bj-trace top`)\n\n\
         The flight recorder answers \"what did this core do\"; the campaign\n\
         layer answers \"what is the sweep doing\". `BJ_TRACE=<path>` is its\n\
         only switch: with it set, `ext_detection` counts the campaign into one\n\
         metrics registry, each job's counts merged in as the job retires\n\
         (counters/histograms sum, gauges max \u{2014} the deterministic prefix is\n\
         byte-identical for any `BJ_THREADS`). Every second a live `progress`\n\
         record reads its counters from a copy of that registry, and at the end\n\
         the registry itself is written as the `metrics` record, from which\n\
         `bj-trace top` derives the phase table (snapshot = chain building +\n\
         forking, under the `campaign` record's wall time, which spans the\n\
         whole campaign: golden runs, group setup and injection). Unset, nothing is\n\
         recorded and nothing is locked (the benchmark's traced mode reports\n\
         what turning it on costs as `trace.overhead_frac`), and stdout stays\n\
         byte-identical either way.\n\
         A real capture \u{2014} `BJ_THREADS=1 BJ_TRACE=t.jsonl ext_detection --bench\n\
         gzip`, rendered by `bj-trace top t.jsonl` on a 2-vCPU host:\n\n\
         ```text\n\
         campaign: finished  [########################] 50/50 jobs  elapsed 0.2s  eta 0.0s  runs 27  early-exits 3\n\
         \x20 workers: 1  forked runs: 27/27\n\
         \x20 early exits: activation 3  convergence 0\n\
         \x20 snapshots: 88 taken\n\
         \x20 worker busy: w0 100%\n\n\
         phase attribution (cpu time; campaign wall 0.2s):\n\
         \x20 setup              0.0s    0.2%\n\
         \x20 snapshot           0.2s   85.4%  ###########################\n\
         \x20 simulate           0.0s   14.3%  #####\n\
         \x20 oracle             0.0s    0.0%\n\
         \x20 reassembly         0.0s    0.1%\n\n\
         metrics registry:\n\
         \x20 jobs 50  setups 2  runs simulated 27  forks 27  pruned 23 (static 20 / activation 3)\n\
         \x20 exit reasons: completed 5  detected 22  cycle_limit 0  converged 0\n\
         \x20 fork catch-up: 27 forks measured (histogram in stream)\n\
         ```\n\n\
         Reading the phase table: the fault-free reference pass that builds\n\
         the snapshot chain dominates. Of the 50 jobs, 23 never simulate (20\n\
         sites statically pruned, 3 activation-pruned), and the other 27 fork\n\
         from the chain: 22 detect within cycles of their arming point and 5\n\
         run to completion and the golden-memory compare \u{2014} exactly the\n\
         prefix-sharing + early-exit story of the two sections above.\n\
         `crates/bench/tests/observability.rs` pins these counts, so a change\n\
         that moves them must retake this capture. In tier-1 the equivalence\n\
         matrix pins the exact early-exit attribution and fork counts of the\n\
         default sweep, and `BENCHMARK.json` bounds every change's end-to-end\n\
         throughput, setup time and peak memory against its parent.\n\n",
    );
    s.push_str("## Differential fuzzing — the core vs. the golden interpreter\n\n");
    s.push_str(
        "`bj-fuzz` closes the loop on the differential test suite: generated\n\
         lint-clean programs (register-disciplined, structured control, private\n\
         memory arena \u{2014} see DESIGN \u{a7}2.10) run through all four modes with the\n\
         commit log enabled, and every committed instruction is replayed against\n\
         the interpreter (PC, next PC, destination value, load address, store\n\
         address/size/data), then final registers, memory, and commit counts.\n\
         Fault injections are judged against the static site classification from\n\
         `blackjack-analysis`.\n\n\
         The acceptance runs \u{2014} `bj-fuzz --seed 0xB1AC --iters 200`, byte-identical\n\
         across invocations, ~3 s release each:\n\n\
         ```text\n\
         bj-fuzz: seed=0xb1ac iters=200 kinds=hard ecc=off\n\
         \x20 differential: 200 programs x 4 modes, 0 failures\n\
         \x20 faults: 800 injected; pruned-clean 5; guaranteed [detected 367 watchdog 5 masked 161 escaped 0]; best-effort [detected 80 watchdog 0 masked 182 escaped 0]\n\
         \x20 all checks passed\n\n\
         bj-fuzz: seed=0xb1ac iters=200 kinds=hard,transient,intermittent:64:8 ecc=on\n\
         \x20 differential: 200 programs x 4 modes, 0 failures\n\
         \x20 faults: 2400 injected; pruned-clean 27; guaranteed [detected 769 watchdog 1 masked 1603 escaped 0]; best-effort [detected 0 watchdog 0 masked 0 escaped 0]\n\
         \x20 all checks passed\n\
         ```\n\n\
         Reading: zero differential mismatches and zero fault-free false\n\
         detections in 800 mode-runs; on detection-guaranteed sites every\n\
         injection was detected, watchdog-contained, or architecturally masked\n\
         \u{2014} **escaped 0** is the paper's hard-error guarantee, checked\n\
         mechanically across all eight site families (frontend/backend ways,\n\
         payload RAM, cache data/tag arrays, store buffer, DTQ/LVQ payload\n\
         RAM) and all three temporal models. The best-effort bucket (MemPort\n\
         backend ways, payload RAM, cache data \u{2014} the paths that corrupt a\n\
         leading load value before LVQ capture) is where escapes are tolerated;\n\
         the second run shows that turning the LVQ SEC-DED layer on (`BJ_ECC=1`)\n\
         empties that bucket entirely \u{2014} every load-value site is promoted to\n\
         guaranteed, over 2400 injections spanning hard, transient, and\n\
         duty-cycled intermittent plans. Failures, if ever found, are\n\
         ddmin-minimized (NOP replacement, layout-preserving) and saved as\n\
         `.bjcase` files; ten generator-mined high-occupancy cases (plus the\n\
         hand-written adversarial-convergence case of DESIGN \u{a7}2.12 and the\n\
         three taxonomy goldens of \u{a7}2.15) live in `tests/corpus/` and replay\n\
         in `cargo test --workspace`.\n\n",
    );
    s.push_str("## Extensions (beyond the paper's figures)\n\n");
    // The `BJ_SCALE=1` sweep's per-mode tallies, formatted by the same
    // `DetectionTally::summary` the `ext_detection` report uses.
    let srt_tally =
        DetectionTally { detected: 45, corrupted: 2, benign: 53, stuck: 0, pruned: 34 };
    let bj_tally =
        DetectionTally { detected: 52, corrupted: 1, benign: 47, stuck: 0, pruned: 34 };
    s.push_str(&format!(
        "* **Detection-rate sweep** (`ext_detection`): one wear-out bit flip per\n\
         \x20 site per run \u{2014} backend/frontend ways plus the uncore sites (cache\n\
         \x20 data/tag arrays, store buffer, DTQ/LVQ payload RAM) \u{2014} armed in the\n\
         \x20 late half of the fault-free run; BlackJack converts SRT's silent\n\
         \x20 corruptions into detections before any corrupt store reaches\n\
         \x20 memory. Measured at `BJ_SCALE=1`: SRT {}; BlackJack {}.\n\
"
    , srt_tally.summary(), bj_tally.summary()));
    // The same sweep's CE/DUE/SDC split, per temporal model, with the
    // LVQ SEC-DED layer on (`BJ_ECC=1 BJ_FAULT_KINDS=hard,transient,intermittent`).
    let tax = [
        ("hard", TaxonomyTally { ce: 2, due: 45, sdc: 1, benign: 52 },
         TaxonomyTally { ce: 2, due: 52, sdc: 0, benign: 46 }),
        ("transient", TaxonomyTally { ce: 1, due: 14, sdc: 0, benign: 85 },
         TaxonomyTally { ce: 0, due: 14, sdc: 0, benign: 86 }),
        ("intermittent 8-of-64", TaxonomyTally { ce: 1, due: 42, sdc: 0, benign: 57 },
         TaxonomyTally { ce: 1, due: 47, sdc: 0, benign: 52 }),
    ];
    s.push_str(
        "* **CE/DUE/SDC taxonomy** (`BJ_ECC=1`, same sweep): every injection\n\
         \x20 lands in exactly one bucket \u{2014} corrected (ECC repaired the read and\n\
         \x20 the run stayed clean), detected-unrecoverable (a pair check or the\n\
         \x20 watchdog fired), silent corruption, or benign. With the SEC-DED\n\
         \x20 layer on, BlackJack's SDC column is zero for all three temporal\n\
         \x20 models \u{2014} the surviving SDC without ECC is the cache-data/LVQ\n\
         \x20 escape the layer closes. Measured at `BJ_SCALE=1`:\n\n\
         \x20 | fault model | SRT | BlackJack |\n\
         \x20 |---|---|---|\n",
    );
    for (kind, srt, bj) in tax {
        s.push_str(&format!("  | {kind} | {} | {} |\n", srt.summary(), bj.summary()));
    }
    s.push('\n');
    s.push_str(
        "\
         * **Active-probe online diagnosis** (`ext_diagnosis`): per-class serial\n\
         \x20 self-tests under BlackJack plus software recomputation localize an\n\
         \x20 injected backend fault; measured 11 of 14 instance-0/1 faults\n\
         \x20 diagnosed to the exact FU instance, the other 3 to the correct class.\n\
         * **The \u{a7}6.2 'better shuffle'** (`ShuffleAlgo::Exhaustive`,\n\
         \x20 `ext_ablation`): an exhaustive-search shuffle that only splits when\n\
         \x20 no placement exists recovers most of the greedy shuffle's split cost\n\
         \x20 (gzip: 36.4% \u{2192} 41.0% normalized performance vs 41.4% for\n\
         \x20 BlackJack-NS) at equal coverage \u{2014} confirming the paper's\n\
         \x20 projection that better shuffle algorithms approach the no-split bound.\n\n",
    );
    s.push_str("## Shape claims verified\n\n");
    s.push_str(
        "1. **Coverage gap** — BlackJack's coverage is ~100% in the frontend (the\n\
         \x20  shuffle guarantees it) and far above SRT overall; SRT's frontend\n\
         \x20  coverage is exactly 0 (both copies share cache-block alignment).\n\
         2. **Interference shape** — leading-trailing interference is largest for\n\
         \x20  the high-IPC integer codes (gzip/bzip/crafty), trailing-trailing is\n\
         \x20  rare, and both are single-digit percentages of issue cycles.\n\
         3. **Performance ordering** — single ≥ SRT ≥ BlackJack-NS ≥ BlackJack per\n\
         \x20  benchmark, with degradation growing with baseline IPC.\n\
         4. **Burstiness** — most issue cycles draw from one context; the high-IPC\n\
         \x20  integer codes mix contexts the most.\n",
    );
    s
}

/// Runs a small mul-heavy kernel under BlackJack with a stuck-at fault
/// on `INT_MUL` instance 0 (global backend way 4) and formats the tail
/// of the flight recorder as a markdown table — the "real dump" embedded
/// in EXPERIMENTS.md.
fn flight_dump_md() -> String {
    // Detection happens when a corrupt value reaches a store (the
    // trailing copy's store comparison), so the kernel must publish
    // each product — a mul feeding a `sd` every iteration.
    let src = "\
.data
buf:    .dword 0, 0, 0, 0, 0, 0, 0, 0
.text
        la   x20, buf
        li   x5, 0
        li   x21, 64
loop:
        mul  x6, x21, x21
        add  x5, x5, x6
        and  x7, x21, 7
        sll  x7, x7, 3
        add  x8, x20, x7
        sd   x5, 0(x8)
        addi x21, x21, -1
        bnez x21, loop
        halt
";
    let prog = assemble_named(src, "mul_loop").expect("embedded kernel assembles");
    let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::Backend { way: 4 }, 2));
    let mut core = Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, plan);
    core.enable_trace();
    let outcome = core.run(20_000_000);
    let RunOutcome::Detected(ev) = &outcome else {
        panic!("stuck-at on INT_MUL_0 must be detected, got {outcome:?}");
    };
    let state = core.take_trace().expect("tracing was enabled");
    let events = state.flight.events();
    let tail = &events[events.len().saturating_sub(14)..];

    let mut s = String::new();
    s.push_str("| cycle | event | uid | ctx | seq | pc | way |\n|---|---|---|---|---|---|---|\n");
    for e in tail {
        let opt_u = |v: u64| if v == u64::MAX { "—".to_string() } else { v.to_string() };
        let opt_w = |v: usize| if v == usize::MAX { "—".to_string() } else { v.to_string() };
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | 0x{:x} | {} |\n",
            e.cycle,
            e.kind.name(),
            opt_u(e.uid),
            e.ctx,
            opt_u(e.seq),
            e.pc,
            opt_w(e.way),
        ));
    }
    s.push_str(&format!(
        "\nDetection: {:?} at cycle {} (seq {}, pc 0x{:x}); \
         `bj-trace` renders the same window as a pipeline timeline.\n\n",
        ev.kind,
        ev.cycle,
        ev.seq,
        ev.pc,
    ));
    s
}
