//! `bj-trace`: render a `BJ_TRACE` JSONL stream as human-readable text.
//!
//! Reads the telemetry file produced by the harnesses (`bjsim`,
//! `fig_all`, `ext_detection`) — or stdin when invoked with `-` or no
//! argument — and prints, for whichever line types are present:
//!
//! * **campaign** — job-latency percentiles (p50/p95/max, nearest-rank),
//!   the slowest job's label, the largest queue wait, and each worker's
//!   busy fraction.
//! * **run** — one table row per simulator run: cycles, committed, IPC.
//! * **heatmap** — per-`(class, way)` issue counts for the leading and
//!   trailing contexts, with proportional bars.
//! * **flight_event** — a gem5-pipeview-style ASCII timeline of the
//!   flight recorder's final window: one row per uop, one column per
//!   cycle, stage letters `F D I X C` (fetch, dispatch, issue,
//!   complete, commit) and `!` for the detection stamp.
//! * **detection** — the detection event's kind, cycle, seq, pc, ways.
//!
//! The `top` subcommand (`bj-trace top [trace.jsonl] [--follow]`)
//! renders the schema-v2 observability records instead: the latest
//! live-progress tick (progress bar, ETA, per-worker busy, runs cut by
//! each early-exit mechanism — activation pruning and the convergence
//! seal — and snapshots taken), then from the `metrics` record the
//! campaign phase-time attribution and the registry headline, whose exit
//! reasons are the core's three and the seal's. With
//! `--follow` it polls the file until the campaign's final tick lands —
//! a one-file `top` for a running campaign.
//!
//! Exits 0 on success — including on empty or unrecognized input, which
//! prints a note and renders nothing (an empty trace is not an error:
//! a harness may legitimately produce no telemetry). Exits 1 when the
//! input is unreadable, 2 on bad usage.

use std::io::Read as _;

use blackjack::outln;
use blackjack::telemetry::{
    get_bool, get_obj, get_str, get_strs, get_u64, get_u64s, parse_line, summarize_campaign,
    JsonValue, SCHEMA_VERSION,
};

/// One parsed telemetry line: its fields in source order.
type Record = Vec<(String, JsonValue)>;

/// Cycle columns shown in the pipeline timeline (the tail of the
/// recorded window).
const TIMELINE_CYCLES: u64 = 64;

/// `--follow` poll cadence.
const FOLLOW_POLL_MS: u64 = 300;

fn usage() -> ! {
    eprintln!("usage: bj-trace [trace.jsonl | -]");
    eprintln!("       bj-trace top [trace.jsonl | -] [--follow]");
    std::process::exit(2);
}

fn read_input(path: Option<&str>) -> String {
    match path {
        None | Some("-") => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("bj-trace: reading stdin: {e}");
                std::process::exit(1);
            }
            buf
        }
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bj-trace: {p}: {e}");
            std::process::exit(1);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("top") {
        top_main(&args[1..]);
        return;
    }
    if args.len() > 1 {
        usage();
    }
    let path = args.first().map(String::as_str);
    if path == Some("--help") || path == Some("-h") {
        usage();
    }
    let text = read_input(path);
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        outln!("bj-trace: no telemetry lines in input (nothing to render)");
        return;
    }
    let records = parse_records(&text);

    let mut rendered = 0usize;
    rendered += render_meta(&records);
    rendered += render_campaign(&lines);
    rendered += render_runs(&records);
    rendered += render_heatmaps(&records);
    rendered += render_flight(&records);
    rendered += render_detections(&records);
    if rendered == 0 {
        outln!("bj-trace: no recognized telemetry lines in input (nothing to render)");
    }
}

/// Every well-formed line of `text`, parsed; anything else (a blank or
/// half-written line) is skipped.
fn parse_records(text: &str) -> Vec<Record> {
    text.lines().filter_map(parse_line).collect()
}

fn of_type<'a>(records: &'a [Record], ty: &str) -> Vec<&'a Record> {
    records.iter().filter(|r| get_str(r, "type") == Some(ty)).collect()
}

// ------------------------------------------------------------------- top

fn top_main(args: &[String]) {
    let mut path: Option<&str> = None;
    let mut follow = false;
    for a in args {
        match a.as_str() {
            "--follow" | "-f" => follow = true,
            "--help" | "-h" => usage(),
            p if path.is_none() && (p == "-" || !p.starts_with('-')) => path = Some(p),
            _ => usage(),
        }
    }
    if !follow {
        if render_top(&parse_records(&read_input(path))) == 0 {
            outln!("bj-trace top: no observability records in input (nothing to render)");
        }
        return;
    }
    let Some(p) = path.filter(|p| *p != "-") else {
        eprintln!("bj-trace top: --follow needs a file path (cannot follow stdin)");
        std::process::exit(2);
    };
    // Follow mode: one compact line per fresh tick, a full render once
    // the campaign's final tick lands. The file may not exist yet — a
    // follower is typically started before the campaign.
    let mut last: Option<Record> = None;
    loop {
        let records = parse_records(&std::fs::read_to_string(p).unwrap_or_default());
        if let Some(tick) = latest_progress(&records) {
            if last.as_ref() != Some(tick) {
                outln!("{}", progress_line(tick));
                last = Some(tick.clone());
            }
            if get_bool(tick, "done") == Some(true) {
                outln!();
                render_top(&records);
                return;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(FOLLOW_POLL_MS));
    }
}

fn latest_progress(records: &[Record]) -> Option<&Record> {
    of_type(records, "progress").into_iter().last()
}

fn secs(nanos: u64) -> String {
    format!("{:.1}s", nanos as f64 / 1e9)
}

/// The compact one-line progress view (`--follow`'s per-tick output).
fn progress_line(p: &Record) -> String {
    let done = get_u64(p, "jobs_done").unwrap_or(0);
    let total = get_u64(p, "jobs_total").unwrap_or(0).max(1);
    let filled = (done * 24 / total) as usize;
    let eta = get_u64(p, "eta_nanos").map_or("-".to_string(), secs);
    let exits = get_obj(p, "early_exits").and_then(|e| get_u64(e, "total")).unwrap_or(0);
    format!(
        "[{}{}] {done}/{total} jobs  elapsed {}  eta {eta}  runs {}  early-exits {exits}",
        "#".repeat(filled),
        ".".repeat(24usize.saturating_sub(filled)),
        get_u64(p, "elapsed_nanos").map_or("-".to_string(), secs),
        get_u64(p, "runs").unwrap_or(0),
    )
}

/// Campaign phases in render order, each with the `metrics` record's
/// wall-nanos counters it sums: snapshot = chain building + forking.
const PHASES: [(&str, &[&str]); 5] = [
    ("setup", &["setup_nanos"]),
    ("snapshot", &["snapshot_build_nanos", "snapshot_fork_nanos"]),
    ("simulate", &["simulate_nanos"]),
    ("oracle", &["oracle_nanos"]),
    ("reassembly", &["reassembly_nanos"]),
];

/// The full `top` view: latest progress tick, then the metrics record's
/// phase attribution and headline. Returns the number of records
/// rendered.
fn render_top(records: &[Record]) -> usize {
    let mut rendered = 0usize;
    if let Some(p) = latest_progress(records) {
        rendered += 1;
        let state = if get_bool(p, "done") == Some(true) { "finished" } else { "running" };
        outln!("campaign: {state}  {}", progress_line(p));
        outln!(
            "  workers: {}  forked runs: {}/{}",
            get_u64(p, "workers").unwrap_or(0),
            get_u64(p, "forked_runs").unwrap_or(0),
            get_u64(p, "runs").unwrap_or(0),
        );
        if let Some(e) = get_obj(p, "early_exits") {
            outln!(
                "  early exits: activation {}  convergence {}",
                get_u64(e, "activation").unwrap_or(0),
                get_u64(e, "convergence").unwrap_or(0),
            );
        }
        if let Some(s) = get_obj(p, "snapshots") {
            // Older streams split the takes into fresh and `refilled`.
            let taken: u64 = ["taken", "refilled"].iter().filter_map(|k| get_u64(s, k)).sum();
            outln!("  snapshots: {taken} taken");
        }
        if let (Some(busy), Some(elapsed)) =
            (get_u64s(p, "busy_nanos"), get_u64(p, "elapsed_nanos"))
        {
            let view: Vec<String> = busy
                .iter()
                .enumerate()
                .map(|(w, &b)| {
                    format!("w{w} {:.0}%", 100.0 * b as f64 / elapsed.max(1) as f64)
                })
                .collect();
            outln!("  worker busy: {}", view.join("  "));
        }
    }
    if let Some(m) = of_type(records, "metrics").into_iter().last() {
        rendered += 1;
        let wall = of_type(records, "campaign").last().and_then(|c| get_u64(c, "wall_nanos"));
        outln!();
        outln!("phase attribution (cpu time; campaign wall {}):", wall.map_or("-".into(), secs));
        let phases: [(&str, u64); 5] =
            PHASES.map(|(name, keys)| (name, keys.iter().filter_map(|k| get_u64(m, k)).sum()));
        let total: u64 = phases.iter().map(|&(_, v)| v).sum();
        for (name, v) in phases {
            let share = v as f64 / total.max(1) as f64;
            let bar = "#".repeat((share * 32.0).round() as usize);
            outln!("  {name:<12} {:>10}  {:>5.1}%  {bar}", secs(v), share * 100.0);
        }
        outln!();
        outln!("metrics registry:");
        if let Some(c) = get_obj(m, "counters") {
            outln!(
                "  jobs {}  setups {}  runs simulated {}  forks {}  pruned {} (static {} / activation {})",
                get_u64(c, "jobs").unwrap_or(0),
                get_u64(c, "setups").unwrap_or(0),
                get_u64(c, "runs_simulated").unwrap_or(0),
                get_u64(c, "snapshot_forks").unwrap_or(0),
                get_u64(c, "pruned_static").unwrap_or(0) + get_u64(c, "pruned_activation").unwrap_or(0),
                get_u64(c, "pruned_static").unwrap_or(0),
                get_u64(c, "pruned_activation").unwrap_or(0),
            );
            let exits = ["exit_completed", "exit_detected", "exit_cycle_limit", "exit_converged"];
            let view: Vec<String> = exits
                .iter()
                .map(|k| format!("{} {}", k.trim_start_matches("exit_"), get_u64(c, k).unwrap_or(0)))
                .collect();
            outln!("  exit reasons: {}", view.join("  "));
        }
        if let Some(h) = get_obj(m, "catchup_cycles") {
            let total = get_u64(h, "total").unwrap_or(0);
            if total > 0 {
                outln!("  fork catch-up: {total} forks measured (histogram in stream)");
            }
        }
    }
    rendered
}

fn render_meta(records: &[Record]) -> usize {
    let metas = of_type(records, "meta");
    for m in &metas {
        let tool = get_str(m, "tool").unwrap_or_default();
        let schema = get_u64(m, "schema").unwrap_or(0);
        outln!("trace: tool={tool} schema={schema}");
        // Older schemas are a strict subset of the current one (v2 only
        // added record types), so only a *newer* stream merits a warning.
        if schema > SCHEMA_VERSION {
            eprintln!(
                "bj-trace: warning: schema {schema} is newer than supported \
                 {SCHEMA_VERSION}; rendering best-effort"
            );
        }
    }
    metas.len()
}

fn ms(nanos: u64) -> String {
    format!("{:.3} ms", nanos as f64 / 1e6)
}

fn render_campaign(lines: &[&str]) -> usize {
    let Some(s) = summarize_campaign(lines) else { return 0 };
    outln!();
    outln!("campaign: {} jobs on {} workers, wall {}", s.jobs, s.workers, ms(s.wall_nanos));
    outln!("  job latency: p50 {}  p95 {}  max {}", ms(s.p50_nanos), ms(s.p95_nanos), ms(s.max_nanos));
    if !s.max_label.is_empty() {
        outln!("  slowest job: {}", s.max_label);
    }
    outln!("  max queue wait: {}", ms(s.max_queue_wait_nanos));
    let busy: Vec<String> =
        s.busy.iter().enumerate().map(|(w, b)| format!("w{w} {:.0}%", b * 100.0)).collect();
    outln!("  worker busy: {}", busy.join("  "));
    1
}

fn render_runs(records: &[Record]) -> usize {
    let runs = of_type(records, "run");
    if runs.is_empty() {
        return 0;
    }
    outln!();
    outln!("{:<28} {:>12} {:>12} {:>8} {:>10}", "run", "cycles", "committed", "ipc", "exit");
    for r in &runs {
        let label = get_str(r, "label").unwrap_or_default();
        let stats = get_obj(r, "stats").unwrap_or_default();
        let cycles = get_u64(stats, "cycles").unwrap_or(0);
        let committed = get_u64s(stats, "committed").map_or(0, |v| v.iter().sum::<u64>());
        let ipc = if cycles == 0 { 0.0 } else { committed as f64 / cycles as f64 };
        // Additive field: streams from before the early-exit layer
        // simply show "-".
        let exit = get_str(stats, "exit_reason").unwrap_or("-");
        outln!("{label:<28} {cycles:>12} {committed:>12} {ipc:>8.3} {exit:>10}");
    }
    runs.len()
}

fn render_heatmaps(records: &[Record]) -> usize {
    let maps = of_type(records, "heatmap");
    for m in &maps {
        let label = get_str(m, "label").unwrap_or_default();
        let ways = get_strs(m, "ways").unwrap_or_default();
        let lead = get_u64s(m, "lead").unwrap_or_default();
        let trail = get_u64s(m, "trail").unwrap_or_default();
        let max = lead.iter().chain(trail.iter()).copied().max().unwrap_or(0).max(1);
        outln!();
        outln!("way utilization: {label}");
        outln!("  {:<12} {:>4} {:>10} {:>10}  lead+trail", "class", "way", "lead", "trail");
        for (w, name) in ways.iter().enumerate() {
            let l = lead.get(w).copied().unwrap_or(0);
            let t = trail.get(w).copied().unwrap_or(0);
            let bar_len = (((l + t) as f64 / (2 * max) as f64) * 40.0).round() as usize;
            outln!(
                "  {:<12} {:>4} {:>10} {:>10}  {}",
                name,
                w,
                l,
                t,
                "#".repeat(bar_len)
            );
        }
    }
    maps.len()
}

/// One uop's row in the timeline, keyed by uid.
struct UopRow {
    uid: u64,
    ctx: u64,
    seq: Option<u64>,
    pc: u64,
    way: Option<u64>,
    filler: bool,
    /// `(cycle, stage char)` stamps.
    stamps: Vec<(u64, char)>,
}

fn stage_char(kind: &str) -> char {
    match kind {
        "fetch" => 'F',
        "dispatch" => 'D',
        "issue" => 'I',
        "complete" => 'X',
        "commit" => 'C',
        "detect" => '!',
        _ => '?',
    }
}

fn render_flight(records: &[Record]) -> usize {
    let events = of_type(records, "flight_event");
    if events.is_empty() {
        return 0;
    }
    let mut rows: Vec<UopRow> = Vec::new();
    let mut detect_stamps: Vec<(u64, u64)> = Vec::new(); // (cycle, pc)
    let mut last_cycle = 0u64;
    for e in &events {
        let cycle = get_u64(e, "cycle").unwrap_or(0);
        last_cycle = last_cycle.max(cycle);
        let kind = get_str(e, "kind").unwrap_or_default();
        let Some(uid) = get_u64(e, "uid") else {
            // A `detect` stamp carries no uid; mark the cycle itself.
            detect_stamps.push((cycle, get_u64(e, "pc").unwrap_or(0)));
            continue;
        };
        let row = match rows.iter_mut().find(|r| r.uid == uid) {
            Some(r) => r,
            None => {
                rows.push(UopRow {
                    uid,
                    ctx: get_u64(e, "ctx").unwrap_or(0),
                    seq: None,
                    pc: get_u64(e, "pc").unwrap_or(0),
                    way: None,
                    filler: get_bool(e, "filler") == Some(true),
                    stamps: Vec::new(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        if let Some(seq) = get_u64(e, "seq") {
            row.seq = Some(seq);
        }
        if kind == "issue" {
            row.way = get_u64(e, "way");
        }
        row.stamps.push((cycle, stage_char(kind)));
    }
    let start = last_cycle.saturating_sub(TIMELINE_CYCLES.saturating_sub(1));
    let width = (last_cycle - start + 1) as usize;

    outln!();
    outln!(
        "flight recorder: {} events, {} uops, cycles {start}..{last_cycle}",
        events.len(),
        rows.len()
    );
    outln!("  stages: F fetch  D dispatch  I issue  X complete  C commit  ! detect");
    let header = format!("  {:<6} {:>3} {:>6} {:>6} {:>4} {:>3}", "uid", "ctx", "seq", "pc", "way", "fil");
    outln!("{header}  |cycle {start}");
    for r in &rows {
        // Skip uops whose every stamp predates the rendered window.
        if r.stamps.iter().all(|&(c, _)| c < start) {
            continue;
        }
        let mut lane = vec!['.'; width];
        for &(c, ch) in &r.stamps {
            if c >= start {
                lane[(c - start) as usize] = ch;
            }
        }
        let seq = r.seq.map_or("-".to_string(), |s| s.to_string());
        let way = r.way.map_or("-".to_string(), |w| w.to_string());
        outln!(
            "  {:<6} {:>3} {:>6} {:>6} {:>4} {:>3}  |{}|",
            r.uid,
            r.ctx,
            seq,
            format!("0x{:x}", r.pc),
            way,
            if r.filler { "f" } else { "-" },
            lane.iter().collect::<String>()
        );
    }
    for &(cycle, pc) in &detect_stamps {
        if cycle < start {
            continue;
        }
        let mut lane = vec![' '; width];
        lane[(cycle - start) as usize] = '!';
        outln!(
            "  {:<6} {:>3} {:>6} {:>6} {:>4} {:>3}  |{}|",
            "detect",
            "-",
            "-",
            format!("0x{pc:x}"),
            "-",
            "-",
            lane.iter().collect::<String>()
        );
    }
    events.len()
}

fn render_detections(records: &[Record]) -> usize {
    let dets = of_type(records, "detection");
    for d in &dets {
        let opt = |key: &str| get_u64(d, key).map_or("-".to_string(), |v| v.to_string());
        outln!();
        outln!(
            "detection: {} at cycle {} (seq {}, pc 0x{:x})",
            get_str(d, "kind").unwrap_or_default(),
            get_u64(d, "cycle").unwrap_or(0),
            opt("seq"),
            get_u64(d, "pc").unwrap_or(0)
        );
        let fronts = get_u64s(d, "front_ways").map_or("-".to_string(), |v| format!("{v:?}"));
        outln!(
            "  back ways: lead {} / trail {}   front ways [lead, trail]: {}",
            opt("lead_back_way"),
            opt("trail_back_way"),
            fronts
        );
    }
    dets.len()
}
