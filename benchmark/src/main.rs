//! The BlackJack simulator's benchmark: four workloads through the
//! simulator's public entry points, end-to-end metrics from untraced
//! reps, per-layer metrics from traced ones. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//! benchmark --compare BASE.jsonl NEW.jsonl
//! benchmark --write-expected
//! ```
//!
//! A run sets its workload up eleven times, then repeats whole reps for
//! `--seconds`. Times are rescaled to the idle reference host by probes
//! between chunks of work (see `host.rs`). Every end-to-end metric is a
//! lower quartile, because the host's load and the interleaving of two
//! workers only ever add to it: `setup_s` of the rescaled set-ups,
//! `peak_rss_mb` of the reps' peak resident sets, and `ops_per_s` is a
//! rep's ops over the sum, across its chunks, of each chunk's lower
//! quartile across reps. Every op's output is checked; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod compare;
mod expected;
mod figures;
mod fuzz;
mod host;
mod inject;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::exit;
use std::time::Instant;

use blackjack::telemetry::json_string;
use host::{Laps, Probe};
use inject::Variant;
use trace::Tracer;

/// Per-layer values one traced rep gathered, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// What one rep did.
pub struct RepOut {
    pub ops: u64,
    pub failed: u64,
    /// Traced reps only: seconds inside `Core::run`, per worker.
    pub sim_s: f64,
    /// Traced reps only: worker-seconds a layer's own stamp or span
    /// accounts for, the benchmark's check aside.
    pub attributed_s: f64,
}

/// A metric the benchmark prints.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
    }
}

/// Printed by untraced runs.
pub const END_TO_END: &[Metric] = &[
    higher("ops_per_s", "ops/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// Printed by traced runs. Every workload prints every metric: the times
/// are ones every workload has, and the counts, shares and per-mode rates
/// of a layer a workload bypasses read 0.
pub const PER_LAYER: &[Metric] = &[
    lower("setup.build_s", "s"),
    lower("setup.golden_s", "s"),
    lower("rep.wall_s", "s"),
    lower("rep.sim_s", "s"),
    lower("rep.prep_s", "s"),
    lower("rep.check_s", "s"),
    lower("op_ms.p50", "ms"),
    lower("op_ms.ptail", "ms"),
    lower("op_ms.max", "ms"),
    higher("op.n", "count"),
    higher("op.ptail_pct", "pct"),
    lower("trace.overhead_frac", "frac"),
    higher("trace.cover_frac", "frac"),
    higher("campaign.workers", "count"),
    higher("campaign.busy_frac", "frac"),
    higher("sim.cycles_per_s.single", "cycles/s"),
    higher("sim.cycles_per_s.srt", "cycles/s"),
    higher("sim.cycles_per_s.bjns", "cycles/s"),
    higher("sim.cycles_per_s.bj", "cycles/s"),
    higher("sim.ipc.single", "inst/cycle"),
    higher("sim.ipc.srt", "inst/cycle"),
    higher("sim.ipc.bjns", "inst/cycle"),
    higher("sim.ipc.bj", "inst/cycle"),
    lower("snapshot.taken", "count"),
    higher("snapshot.refilled", "count"),
    lower("snapshot.retired", "count"),
    lower("snapshot.peak_retained", "count"),
    lower("snapshot.forks", "count"),
    lower("snapshot.catchup_cycles", "count"),
    lower("snapshot.build_frac", "frac"),
    lower("snapshot.fork_frac", "frac"),
    lower("detection.setup_frac", "frac"),
    lower("detection.oracle_frac", "frac"),
    lower("detection.simulated_frac", "frac"),
    higher("analysis.pruned_frac", "frac"),
    higher("detection.early_exit.activation", "count"),
    higher("detection.early_exit.convergence", "count"),
    higher("detection.early_exit.watchdog", "count"),
    higher("detection.verdict.detected", "count"),
    lower("detection.verdict.sdc", "count"),
    higher("detection.verdict.benign", "count"),
    lower("detection.verdict.stuck", "count"),
    lower("fuzz.inject_frac", "frac"),
    higher("fuzz.verdict.detected", "count"),
    higher("fuzz.verdict.watchdog", "count"),
    higher("fuzz.verdict.masked", "count"),
    lower("fuzz.verdict.escaped", "count"),
];

/// Setup is repeated this many times per run.
const SETUP_REPS: usize = 11;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Figures,
    InjectHard,
    InjectTransient,
    Fuzz,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::InjectHard,
        Workload::InjectTransient,
        Workload::Fuzz,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::InjectHard => "inject-hard",
            Workload::InjectTransient => "inject-transient",
            Workload::Fuzz => "fuzz",
        }
    }

    /// Campaign workers a rep runs on.
    fn workers(self) -> usize {
        match self {
            Workload::InjectHard => Variant::Hard.workers(),
            Workload::InjectTransient => Variant::Transient.workers(),
            Workload::Figures | Workload::Fuzz => 1,
        }
    }
}

/// A workload's inputs, set up and ready for reps.
enum Ready {
    Figures(figures::Figures),
    Inject(inject::Inject),
    Fuzz(fuzz::Fuzz),
}

impl Ready {
    /// Every workload's inputs are fixed: the generated `fuzz` programs
    /// come from a pinned seed (see `fuzz.rs`), so `--seed` selects
    /// nothing and only labels the run.
    fn setup(w: Workload, tr: &mut Tracer) -> Ready {
        match w {
            Workload::Figures => Ready::Figures(figures::setup(tr)),
            Workload::InjectHard => Ready::Inject(inject::setup(Variant::Hard, tr)),
            Workload::InjectTransient => Ready::Inject(inject::setup(Variant::Transient, tr)),
            Workload::Fuzz => Ready::Fuzz(fuzz::setup(fuzz::SEED, fuzz::PROGRAMS, tr)),
        }
    }

    /// One rep; `lap` is called between the rep's chunks of work.
    fn rep(&self, tr: &mut Tracer, layers: &mut Layers, lap: &mut dyn FnMut()) -> RepOut {
        tr.span("rep", |tr| match self {
            Ready::Figures(f) => f.rep(tr, layers, lap),
            Ready::Inject(i) => i.rep(tr, layers, lap),
            Ready::Fuzz(f) => f.rep(tr, layers, lap),
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n       \
         benchmark --compare BASE.jsonl NEW.jsonl\n       benchmark --write-expected\n\
         workloads: figures, inject-hard, inject-transient, fuzz"
    );
    exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut json) =
        (None, 0xB1AC, 25, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || parse_u64(value).ok_or_else(|| format!("bad {flag} `{value}`"));
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                }
            }
            "--json" => json = Some(value.clone()),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        json,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--compare") => {
            let [_, base, new] = argv.as_slice() else {
                usage()
            };
            exit(compare::run(base, new));
        }
        Some("--write-expected") => {
            write_expected();
            return;
        }
        _ => {}
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let line = run(&args);
    println!("{line}");
    if let Some(path) = &args.json {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}\n",
            json_string(args.workload.name()),
            args.seed,
            u8::from(args.trace),
            &line[1..]
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("could not append to {path}: {e}");
            exit(1);
        }
    }
}

/// One benchmark run; returns the result line.
fn run(args: &Args) -> String {
    let w = args.workload;
    let budget = args.seconds as f64;
    let mut setup_tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    // Made first and kept to the end, so its tables are never freed
    // among the workload's allocations and sit in every peak as a
    // constant, subtracted below.
    let mut probe = Probe::new(w.workers());
    let probe_mib = probe.resident_mib();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(ready.take()); // free the previous inputs before building the next
        let mut laps = Laps::start(&mut probe);
        ready = Some(Ready::setup(w, &mut setup_tr));
        laps.lap();
        setup_s.extend(laps.ref_s);
    }
    let ready = ready.expect("at least one setup");

    // No separate warm-up rep: the first rep's cold caches and
    // allocator growth make its chunks slow samples, which the lower
    // quartile across reps passes over, and the rep it would cost is one
    // more sample.
    let start = Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    let mut ops_per_rep;
    // Per rep: its measured work seconds, its length with the probes,
    // its chunks rescaled to the reference host, and its peak RSS.
    let (mut walls, mut lengths, mut chunks, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced: Vec<(Tracer, Layers, RepOut)> = Vec::new();
    loop {
        reset_peak_rss();
        let t = Instant::now();
        let mut laps = Laps::start(&mut probe);
        let out = ready.rep(&mut Tracer::off(), &mut Layers::new(), &mut || laps.lap());
        laps.lap();
        lengths.push(t.elapsed().as_secs_f64());
        let peak = peak_rss_mib() - probe_mib;
        peaks.push(peak);
        let wall: f64 = laps.raw_s.iter().sum();
        eprintln!(
            "rep {}: {} ops, {} failed, {wall:.3} s, {:.3} s on the reference host, {peak:.0} MiB peak",
            walls.len() + 1,
            out.ops,
            out.failed,
            laps.ref_s.iter().sum::<f64>()
        );
        walls.push(wall);
        chunks.push(laps.ref_s);
        ops_per_rep = out.ops;
        attempted += out.ops;
        failed += out.failed;
        let mut next = stats::median(&lengths);
        if args.trace {
            let (mut tr, mut layers) = (Tracer::on(), Layers::new());
            let out = ready.rep(&mut tr, &mut layers, &mut || {});
            eprintln!(
                "traced rep {}: {:.3} s",
                traced.len() + 1,
                tr.total_s("rep")
            );
            attempted += out.ops;
            failed += out.failed;
            traced.push((tr, layers, out));
            next += stats::median(&traced_walls(&traced));
        }
        // Stop where the run's length lands nearest `--seconds`.
        if start.elapsed().as_secs_f64() + next / 2.0 >= budget {
            break;
        }
    }

    let metrics: Vec<(&Metric, f64)> = if args.trace {
        let overhead = stats::median(&traced_walls(&traced)) / stats::median(&walls) - 1.0;
        let per_rep: Vec<Layers> = traced
            .iter()
            .map(|(tr, layers, out)| {
                layer_metrics(w.workers(), &setup_tr, tr, out, layers.clone(), overhead)
            })
            .collect();
        PER_LAYER
            .iter()
            .map(|m| {
                let xs: Vec<f64> = per_rep.iter().map(|l| l[m.name]).collect();
                (m, stats::median(&xs))
            })
            .collect()
    } else {
        let values = [
            ops_per_rep as f64 / reference_rep_s(&chunks),
            stats::lower_quartile(&setup_s),
            stats::lower_quartile(&peaks),
        ];
        END_TO_END.iter().zip(values).collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                finite(*v),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// A rep's length on the idle reference host: each chunk's lower
/// quartile across `reps`, summed. Every rep cuts the same work into the
/// same chunks.
fn reference_rep_s(reps: &[Vec<f64>]) -> f64 {
    let chunks = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..chunks)
        .map(|j| stats::lower_quartile(&reps.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .sum()
}

fn traced_walls(traced: &[(Tracer, Layers, RepOut)]) -> Vec<f64> {
    traced.iter().map(|(tr, _, _)| tr.total_s("rep")).collect()
}

/// Every per-layer metric of one traced rep: the universal ones from its
/// spans and stamps, the workload's own from `layers`, and 0 for the
/// counts and shares of layers this workload bypasses.
fn layer_metrics(
    workers: usize,
    setup: &Tracer,
    tr: &Tracer,
    out: &RepOut,
    mut layers: Layers,
    overhead: f64,
) -> Layers {
    let wall = tr.total_s("rep");
    let check = tr.self_s("check");
    let op_ms = tr.op_ms();
    let p = stats::tail_percentile(op_ms.len());
    let universal = [
        (
            "setup.build_s",
            setup.self_s("workloads.build") + setup.self_s("fuzz.gen"),
        ),
        ("setup.golden_s", setup.self_s("isa.golden")),
        ("rep.wall_s", wall),
        ("rep.sim_s", out.sim_s),
        ("rep.prep_s", (wall - out.sim_s - check).max(0.0)),
        ("rep.check_s", check),
        ("op_ms.p50", stats::percentile(&op_ms, 50)),
        ("op_ms.ptail", stats::percentile(&op_ms, p)),
        ("op_ms.max", stats::percentile(&op_ms, 100)),
        ("op.n", op_ms.len() as f64),
        ("op.ptail_pct", f64::from(p)),
        ("trace.overhead_frac", overhead),
        (
            "trace.cover_frac",
            (out.attributed_s / workers as f64 + check) / wall,
        ),
        ("campaign.workers", workers as f64),
        (
            "campaign.busy_frac",
            op_ms.iter().sum::<f64>() / 1e3 / (workers as f64 * wall),
        ),
    ];
    for (k, v) in universal {
        layers.insert(k.to_string(), v);
    }
    for m in PER_LAYER {
        layers.entry(m.name.to_string()).or_insert(0.0);
    }
    layers
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Restarts the kernel's peak-resident-set record at the current
/// resident set, so the next [`peak_rss_mib`] is the peak since now.
/// Where `/proc/self/clear_refs` is unavailable the record is left alone
/// and [`peak_rss_mib`] reads the process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Regenerates every reference file from the plain reference paths.
fn write_expected() {
    let t = Instant::now();
    let written = figures::write_expected()
        .and_then(|()| inject::write_expected(Variant::Hard))
        .and_then(|()| inject::write_expected(Variant::Transient));
    if let Err(e) = written {
        eprintln!("writing the references failed: {e}");
        exit(1);
    }
    eprintln!("wrote the references in {:.1} s", t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_u64("45484"), Some(0xB1AC));
        assert_eq!(parse_u64("0xB1AC"), Some(0xB1AC));
        assert_eq!(parse_u64("0xzz"), None);
        assert_eq!(parse_u64("-1"), None);
    }

    #[test]
    fn reference_rep_sums_each_chunks_lower_quartile() {
        let reps = [vec![1.0, 2.0], vec![3.0, 1.0]];
        assert_eq!(reference_rep_s(&reps), 1.5 + 1.25);
        assert_eq!(reference_rep_s(&[]), 0.0);
    }

    #[test]
    fn metric_lists_fit_the_contract() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(names.iter().all(|n| spec::valid_name(n)));
        assert!(END_TO_END
            .iter()
            .chain(PER_LAYER)
            .all(|m| spec::valid_unit(m.unit)));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names are unique");
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }
}
