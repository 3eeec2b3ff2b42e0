//! Structured campaign telemetry: the `BJ_TRACE` JSONL stream.
//!
//! When `BJ_TRACE=<path>` is set, the harnesses append one JSON object
//! per line to `<path>`. Each line carries a `"type"` discriminator:
//!
//! | type           | one per            | payload                                     |
//! |----------------|--------------------|---------------------------------------------|
//! | `meta`         | file               | schema version, emitting tool               |
//! | `campaign`     | campaign           | worker count, wall nanos, job count         |
//! | `job`          | job                | worker, queue-wait nanos, run nanos, label  |
//! | `run`          | simulator run      | [`SimStats::to_json`] + occupancy histograms|
//! | `heatmap`      | traced run         | per-`(class, way)` issue counts, both ctxs  |
//! | `flight_event` | flight-recorder ev | cycle, kind, uid, ctx, seq, pc, way, packet |
//! | `detection`    | detection event    | kind, cycle, seq, pc, ways                  |
//! | `progress`     | cadence tick (v2)  | jobs done/total, busy, ETA, exit tallies    |
//! | `metrics`      | campaign (v2)      | the campaign's [`MetricsRegistry`], inlined |
//!
//! Everything is hand-emitted and hand-parsed: the repo builds offline
//! with no serde. One parser ([`parse_line`]) reads every line back into
//! a field list, and typed lookups ([`get_u64`], [`get_str`],
//! [`get_obj`], ...) pick fields out of it for `bj-trace`. The emit path
//! buffers through [`std::io::BufWriter`] and is only ever constructed
//! when `BJ_TRACE` is set, so the default (untraced) harness path
//! allocates nothing and writes nothing.
//!
//! **Schema v2 and the `nondet` contract.** Version 2 added the
//! observability records (`progress`, `metrics`, and a `phase` record
//! that is no longer written: `bj-trace top` derives phase attribution
//! from `metrics`); every v1 record is emitted unchanged, and the
//! per-line parser is schema-agnostic, so v1 files still parse. Any
//! record carrying wall-clock values places them *after* a
//! `"nondet":[...]` marker listing their names — everything before the
//! marker is deterministic for a given workload and config, so
//! `sed 's/,"nondet":.*/}/'` (or [`strip_nondet`]) reduces a line to its
//! reproducible prefix. Verification scripts diff those prefixes across
//! runs with different worker counts.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use blackjack_sim::{DetectionEvent, FlightEvent, SimStats, TraceState, WayHeat};

use crate::campaign::{CampaignTrace, ProgressTick};
use crate::envcfg;
use crate::metrics::{Counter, MetricsRegistry};

/// Telemetry schema version emitted in the `meta` line.
pub const SCHEMA_VERSION: u64 = 2;

/// A JSONL telemetry sink.
pub struct TraceWriter {
    out: std::io::BufWriter<std::fs::File>,
}

impl TraceWriter {
    /// Creates (truncating) the sink at `path` and writes the `meta`
    /// line identifying `tool`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &Path, tool: &str) -> std::io::Result<TraceWriter> {
        let file = std::fs::File::create(path)?;
        let mut w = TraceWriter { out: std::io::BufWriter::new(file) };
        w.line(&format!(
            "{{\"type\":\"meta\",\"schema\":{SCHEMA_VERSION},\"tool\":{}}}",
            json_string(tool)
        ));
        Ok(w)
    }

    /// Builds the sink from `BJ_TRACE` for a harness binary: `None` when
    /// unset; a set-but-empty or uncreatable path prints the error and
    /// exits with status 2 (same contract as `BJ_THREADS`).
    pub fn from_env_or_exit(tool: &str) -> Option<TraceWriter> {
        envcfg::TRACE.create(|path| TraceWriter::create(path, tool))
    }

    fn line(&mut self, s: &str) {
        // Telemetry must never take the harness down mid-campaign; the
        // final flush in `drop`/`flush` reports persistent disk trouble.
        let _ = writeln!(self.out, "{s}");
    }

    /// One `campaign` line plus one `job` line per job.
    pub fn emit_campaign(&mut self, trace: &CampaignTrace, labels: &[String]) {
        self.line(&format!(
            "{{\"type\":\"campaign\",\"workers\":{},\"wall_nanos\":{},\"jobs\":{}}}",
            trace.workers,
            trace.wall.as_nanos(),
            trace.timings.len()
        ));
        for t in &trace.timings {
            let label = labels.get(t.job).map(String::as_str).unwrap_or("");
            self.line(&format!(
                "{{\"type\":\"job\",\"job\":{},\"worker\":{},\"queue_wait_nanos\":{},\
                 \"run_nanos\":{},\"label\":{}}}",
                t.job,
                t.worker,
                t.queue_wait.as_nanos(),
                t.run.as_nanos(),
                json_string(label)
            ));
        }
    }

    /// One `run` line: headline counters plus (when traced) the
    /// occupancy histograms.
    pub fn emit_run(&mut self, label: &str, stats: &SimStats, trace: Option<&TraceState>) {
        let occ = trace
            .map(|t| format!(",\"occupancy\":{}", t.occupancy_json()))
            .unwrap_or_default();
        self.line(&format!(
            "{{\"type\":\"run\",\"label\":{},\"stats\":{}{occ}}}",
            json_string(label),
            stats.to_json()
        ));
    }

    /// One `heatmap` line: per-way issue counts for both contexts, with
    /// each way annotated by its FU class and instance.
    pub fn emit_heatmap(&mut self, label: &str, heat: &WayHeat) {
        let fu = heat.fu_counts();
        let mut classes = String::new();
        for way in 0..fu.total() {
            if way > 0 {
                classes.push(',');
            }
            let (t, idx) = fu.way_type(way);
            let _ = write!(classes, "{}", json_string(&format!("{t}{idx}")));
        }
        let fmt_counts = |c: &[u64]| {
            c.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        };
        self.line(&format!(
            "{{\"type\":\"heatmap\",\"label\":{},\"ways\":[{classes}],\
             \"lead\":[{}],\"trail\":[{}]}}",
            json_string(label),
            fmt_counts(heat.of_ctx(0)),
            fmt_counts(heat.of_ctx(1)),
        ));
    }

    /// One `flight_event` line per recorder event, oldest first.
    pub fn emit_flight(&mut self, events: &[FlightEvent]) {
        for e in events {
            let way =
                if e.way == usize::MAX { "null".to_string() } else { e.way.to_string() };
            let packet =
                if e.packet == u64::MAX { "null".to_string() } else { e.packet.to_string() };
            let seq = if e.seq == u64::MAX { "null".to_string() } else { e.seq.to_string() };
            let uid = if e.uid == u64::MAX { "null".to_string() } else { e.uid.to_string() };
            self.line(&format!(
                "{{\"type\":\"flight_event\",\"cycle\":{},\"kind\":\"{}\",\"uid\":{uid},\
                 \"ctx\":{},\"seq\":{seq},\"pc\":{},\"way\":{way},\"packet\":{packet},\
                 \"filler\":{}}}",
                e.cycle,
                e.kind.name(),
                e.ctx,
                e.pc,
                e.filler
            ));
        }
    }

    /// One `detection` line.
    pub fn emit_detection(&mut self, ev: &DetectionEvent) {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |w| w.to_string());
        let fronts = ev
            .front_ways
            .map_or("null".to_string(), |(l, t)| format!("[{l},{t}]"));
        self.line(&format!(
            "{{\"type\":\"detection\",\"kind\":{},\"cycle\":{},\"seq\":{},\"pc\":{},\
             \"lead_back_way\":{},\"trail_back_way\":{},\"front_ways\":{fronts}}}",
            json_string(&format!("{:?}", ev.kind)),
            ev.cycle,
            ev.seq,
            ev.pc,
            opt(ev.lead_back_way),
            opt(ev.trail_back_way),
        ));
    }

    /// One `progress` line for `t`, its counts read from the registry the
    /// tick carries (zero without one), flushed at once so `bj-trace top
    /// --follow` sees it live. Deterministic fields first, wall-clock
    /// fields behind the `nondet` marker.
    ///
    /// Mid-campaign ticks are inherently racy (which jobs have retired
    /// when is scheduling-dependent); the final tick — `"done":true`,
    /// emitted unconditionally after the last job — is deterministic up
    /// to its `nondet` suffix, and is what verification compares across
    /// runs.
    pub fn emit_progress(&mut self, t: &ProgressTick) {
        let empty = MetricsRegistry::new();
        let r = t.metrics.as_ref().unwrap_or(&empty);
        let (a, c) = (r.get(Counter::PrunedActivation), r.get(Counter::ExitConverged));
        let eta = t.eta.map_or("null".to_string(), |d| d.as_nanos().to_string());
        let busy: Vec<String> = t.busy.iter().map(|d| d.as_nanos().to_string()).collect();
        self.line(&format!(
            "{{\"type\":\"progress\",\"jobs_done\":{},\"jobs_total\":{},\"workers\":{},\
             \"done\":{},\"runs\":{},\"forked_runs\":{},\
             \"early_exits\":{{\"activation\":{a},\"convergence\":{c},\"total\":{}}},\
             \"snapshots\":{{\"taken\":{}}},\
             \"nondet\":[\"elapsed_nanos\",\"eta_nanos\",\"busy_nanos\"],\
             \"elapsed_nanos\":{},\"eta_nanos\":{eta},\"busy_nanos\":[{}]}}",
            t.jobs_done,
            t.jobs_total,
            t.workers,
            t.done,
            r.get(Counter::RunsSimulated),
            r.get(Counter::SnapshotForks),
            a + c,
            r.get(Counter::SnapshotsTaken),
            t.elapsed.as_nanos(),
            busy.join(","),
        ));
        // A follower tailing the file must see the tick now, not at the
        // next BufWriter spill.
        let _ = self.flush();
    }

    /// One `metrics` line: the registry's fields inlined at top level
    /// (not nested), so the registry's own `nondet` marker keeps the
    /// whole line brace-balanced after stripping.
    pub fn emit_metrics(&mut self, registry: &MetricsRegistry) {
        let body = registry.to_json();
        self.line(&format!("{{\"type\":\"metrics\",{}", &body[1..]));
    }

    /// Flushes buffered lines to disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Reduces a telemetry line to its deterministic prefix: everything from
/// the `,"nondet":` marker on is replaced by the closing brace — the
/// programmatic twin of the `sed 's/,"nondet":.*/}/'` used in shell.
pub fn strip_nondet(line: &str) -> String {
    match line.find(",\"nondet\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------------------ round-trip

/// A parsed JSON value from a telemetry line.
///
/// Number, boolean, and `null` tokens keep their raw text
/// ([`JsonValue::Raw`]) so [`emit_value`] reproduces them byte-for-byte
/// — the round-trip property the fuzzer's telemetry tests pin down.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A number, boolean, or `null`, as raw token text.
    Raw(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

/// Parses one telemetry JSONL line into its field list, or `None` when
/// the line is not a single well-formed flat-ish JSON object (the only
/// shape the emitters produce). Field order is preserved.
pub fn parse_line(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut p = JsonParser { s: line.as_bytes(), i: 0 };
    p.skip_ws();
    let JsonValue::Obj(fields) = p.value()? else { return None };
    p.skip_ws();
    if p.i != p.s.len() {
        return None; // trailing garbage
    }
    Some(fields)
}

/// Re-emits a parsed line ([`parse_line`]'s output) as JSON text.
/// `emit_line(&parse_line(l)?) == l` for every line this module emits.
pub fn emit_line(fields: &[(String, JsonValue)]) -> String {
    emit_value(&JsonValue::Obj(fields.to_vec()))
}

/// Re-emits one parsed value as JSON text.
pub fn emit_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Raw(t) => t.clone(),
        JsonValue::Str(s) => json_string(s),
        JsonValue::Array(items) => {
            let body: Vec<String> = items.iter().map(emit_value).collect();
            format!("[{}]", body.join(","))
        }
        JsonValue::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), emit_value(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Some(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let JsonValue::Str(key) = self.string()? else { return None };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.s.get(self.i)? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Some(JsonValue::Obj(fields));
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Some(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.s.get(self.i)? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Some(JsonValue::Array(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => self.string(),
            _ => {
                // Raw scalar: number, true/false, null — everything up to
                // a structural delimiter, kept verbatim.
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| !matches!(c, b',' | b'}' | b']') && !c.is_ascii_whitespace())
                {
                    self.i += 1;
                }
                if self.i == start {
                    return None;
                }
                Some(JsonValue::Raw(
                    String::from_utf8_lossy(&self.s[start..self.i]).into_owned(),
                ))
            }
        }
    }

    fn string(&mut self) -> Option<JsonValue> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.s.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(JsonValue::Str(out));
                }
                b'\\' => {
                    self.i += 1;
                    match self.s.get(self.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                &c => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self.s.get(self.i..self.i + ch_len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.i += ch_len;
                }
            }
        }
    }
}

// --------------------------------------------------------------- lookups
//
// Typed field lookups over a parsed object: a [`parse_line`] result or a
// nested [`JsonValue::Obj`]. Each is `None` when the field is absent or
// holds another type; `null` counts as absent.

/// Looks a field up in an object's field list.
pub fn obj_get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A numeric field as `f64` (metrics are raw number tokens).
pub fn num(fields: &[(String, JsonValue)], key: &str) -> Option<f64> {
    raw_as(obj_get(fields, key)?)
}

/// An unsigned-integer field.
pub fn get_u64(fields: &[(String, JsonValue)], key: &str) -> Option<u64> {
    raw_as(obj_get(fields, key)?)
}

/// A `true`/`false` field.
pub fn get_bool(fields: &[(String, JsonValue)], key: &str) -> Option<bool> {
    raw_as(obj_get(fields, key)?)
}

/// A string field.
pub fn get_str<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a str> {
    str_of(obj_get(fields, key)?)
}

/// A nested-object field.
pub fn get_obj<'a>(
    fields: &'a [(String, JsonValue)],
    key: &str,
) -> Option<&'a [(String, JsonValue)]> {
    match obj_get(fields, key)? {
        JsonValue::Obj(inner) => Some(inner),
        _ => None,
    }
}

/// An array field whose items are all unsigned integers.
pub fn get_u64s(fields: &[(String, JsonValue)], key: &str) -> Option<Vec<u64>> {
    match obj_get(fields, key)? {
        JsonValue::Array(items) => items.iter().map(raw_as).collect(),
        _ => None,
    }
}

/// An array field whose items are all strings.
pub fn get_strs<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<Vec<&'a str>> {
    match obj_get(fields, key)? {
        JsonValue::Array(items) => items.iter().map(str_of).collect(),
        _ => None,
    }
}

/// A raw token (number, boolean) parsed as `T`.
fn raw_as<T: std::str::FromStr>(v: &JsonValue) -> Option<T> {
    match v {
        JsonValue::Raw(t) => t.parse().ok(),
        _ => None,
    }
}

fn str_of(v: &JsonValue) -> Option<&str> {
    match v {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

// --------------------------------------------------------------- summary

/// Aggregated job-latency and worker-utilization numbers from a
/// campaign's `job` lines — what `bj-trace` prints for a campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignSummary {
    /// Jobs observed.
    pub jobs: u64,
    /// Campaign workers (from the `campaign` line).
    pub workers: u64,
    /// Campaign wall-clock nanoseconds.
    pub wall_nanos: u64,
    /// p50 of per-job run nanoseconds (nearest-rank).
    pub p50_nanos: u64,
    /// p95 of per-job run nanoseconds (nearest-rank).
    pub p95_nanos: u64,
    /// Slowest job's run nanoseconds.
    pub max_nanos: u64,
    /// Slowest job's label.
    pub max_label: String,
    /// Per-worker busy fraction (run time / campaign wall).
    pub busy: Vec<f64>,
    /// Largest observed queue wait in nanoseconds.
    pub max_queue_wait_nanos: u64,
}

/// Nearest-rank percentile (p in 0..=100) of an already-sorted sample —
/// callers taking several percentiles of one sample sort once and index
/// repeatedly.
pub fn sorted_percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as u64 * p).div_ceil(100)).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Builds the summary from raw JSONL lines (any non-`campaign`/`job`
/// lines are ignored).
pub fn summarize_campaign(lines: &[&str]) -> Option<CampaignSummary> {
    let mut s = CampaignSummary::default();
    let mut runs: Vec<u64> = Vec::new();
    let mut per_worker: Vec<u64> = Vec::new();
    let mut seen_campaign = false;
    for rec in lines.iter().filter_map(|l| parse_line(l)) {
        match get_str(&rec, "type") {
            Some("campaign") => {
                seen_campaign = true;
                s.workers = get_u64(&rec, "workers").unwrap_or(0);
                s.wall_nanos = get_u64(&rec, "wall_nanos").unwrap_or(0);
            }
            Some("job") => {
                let run = get_u64(&rec, "run_nanos").unwrap_or(0);
                let worker = get_u64(&rec, "worker").unwrap_or(0) as usize;
                let wait = get_u64(&rec, "queue_wait_nanos").unwrap_or(0);
                s.jobs += 1;
                runs.push(run);
                if per_worker.len() <= worker {
                    per_worker.resize(worker + 1, 0);
                }
                per_worker[worker] += run;
                s.max_queue_wait_nanos = s.max_queue_wait_nanos.max(wait);
                if run >= s.max_nanos {
                    s.max_nanos = run;
                    s.max_label = get_str(&rec, "label").unwrap_or_default().to_string();
                }
            }
            _ => {}
        }
    }
    if !seen_campaign && runs.is_empty() {
        return None;
    }
    runs.sort_unstable();
    s.p50_nanos = sorted_percentile(&runs, 50);
    s.p95_nanos = sorted_percentile(&runs, 95);
    s.busy = per_worker
        .iter()
        .map(|&b| if s.wall_nanos == 0 { 0.0 } else { b as f64 / s.wall_nanos as f64 })
        .collect();
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, Metrics, ObserveOpts};

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        for (p, want) in [(0, 1), (1, 1), (50, 50), (95, 95), (100, 100)] {
            assert_eq!(sorted_percentile(&sorted, p), want, "p{p}");
        }
        assert_eq!(sorted_percentile(&[], 50), 0);
        assert_eq!(sorted_percentile(&[7], 50), 7);
    }

    #[test]
    fn summarize_campaign_from_lines() {
        let lines = vec![
            "{\"type\":\"meta\",\"schema\":1,\"tool\":\"t\"}",
            "{\"type\":\"campaign\",\"workers\":2,\"wall_nanos\":1000,\"jobs\":3}",
            "{\"type\":\"job\",\"job\":0,\"worker\":0,\"queue_wait_nanos\":10,\"run_nanos\":400,\"label\":\"a\"}",
            "{\"type\":\"job\",\"job\":1,\"worker\":1,\"queue_wait_nanos\":20,\"run_nanos\":600,\"label\":\"b\"}",
            "{\"type\":\"job\",\"job\":2,\"worker\":0,\"queue_wait_nanos\":410,\"run_nanos\":500,\"label\":\"c\"}",
        ];
        let s = summarize_campaign(&lines).unwrap();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.workers, 2);
        assert_eq!(s.p50_nanos, 500);
        assert_eq!(s.p95_nanos, 600);
        assert_eq!(s.max_nanos, 600);
        assert_eq!(s.max_label, "b");
        assert_eq!(s.max_queue_wait_nanos, 410);
        assert_eq!(s.busy, vec![0.9, 0.6]);
        assert_eq!(summarize_campaign(&["{\"type\":\"meta\"}"]), None);
    }

    #[test]
    fn progress_record_roundtrips_and_strips_to_deterministic_prefix() {
        let path = std::env::temp_dir().join("bj_telemetry_progress_test.jsonl");
        let mut w = TraceWriter::create(&path, "unit-test").unwrap();
        let mut r = MetricsRegistry::new();
        r.add(Counter::RunsSimulated, 2);
        r.inc(Counter::SnapshotForks);
        r.inc(Counter::PrunedActivation);
        r.inc(Counter::ExitConverged);
        r.add(Counter::SnapshotsTaken, 3);
        w.emit_progress(&ProgressTick {
            jobs_done: 2,
            jobs_total: 8,
            workers: 4,
            done: false,
            elapsed: std::time::Duration::from_nanos(5_000),
            eta: Some(std::time::Duration::from_nanos(15_000)),
            busy: vec![
                std::time::Duration::from_nanos(4_000),
                std::time::Duration::from_nanos(3_000),
            ],
            metrics: Some(r),
        });
        // Flushed on emit: a follower sees the tick while the writer lives.
        let text = std::fs::read_to_string(&path).unwrap();
        drop(w);
        let line = text.lines().nth(1).unwrap();
        // Byte-exact round-trip through the generic parser.
        assert_eq!(emit_line(&parse_line(line).unwrap()), line);
        // Typed lookups over both halves.
        let rec = parse_line(line).unwrap();
        assert_eq!(get_str(&rec, "type"), Some("progress"));
        assert_eq!(get_u64(&rec, "jobs_done"), Some(2));
        assert_eq!(get_u64(&rec, "runs"), Some(2));
        assert_eq!(get_u64(&rec, "forked_runs"), Some(1));
        assert_eq!(get_bool(&rec, "done"), Some(false));
        let exits = get_obj(&rec, "early_exits").unwrap();
        assert_eq!(get_u64(exits, "activation"), Some(1));
        assert_eq!(get_u64(exits, "convergence"), Some(1));
        assert_eq!(get_u64(exits, "total"), Some(2));
        let snaps = get_obj(&rec, "snapshots").unwrap();
        assert_eq!(get_u64(snaps, "taken"), Some(3));
        assert_eq!(get_u64(&rec, "elapsed_nanos"), Some(5_000));
        assert_eq!(get_u64(&rec, "eta_nanos"), Some(15_000));
        assert_eq!(get_u64s(&rec, "busy_nanos"), Some(vec![4_000, 3_000]));
        assert_eq!(get_strs(&rec, "nondet").map(|n| n.len()), Some(3));
        assert_eq!(get_u64(&rec, "missing"), None);
        // The strip contract: deterministic prefix, balanced, no timing.
        let stripped = strip_nondet(line);
        assert!(stripped.ends_with("\"taken\":3}}"), "{stripped}");
        assert!(parse_line(&stripped).is_some(), "stripped line stays well-formed");
        assert!(!stripped.contains("elapsed_nanos"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn metrics_record_strips_balanced() {
        let path = std::env::temp_dir().join("bj_telemetry_metrics_test.jsonl");
        {
            let mut w = TraceWriter::create(&path, "unit-test").unwrap();
            let mut r = MetricsRegistry::new();
            r.inc(Counter::Jobs);
            r.add(Counter::SimulateNanos, 1234);
            w.emit_metrics(&r);
            w.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let metrics = text.lines().nth(1).unwrap();
        assert_eq!(emit_line(&parse_line(metrics).unwrap()), metrics);
        // The wall-clock counters follow the marker, readable by name.
        let full = parse_line(metrics).unwrap();
        assert_eq!(get_u64(&full, "simulate_nanos"), Some(1234));
        // Metrics strip to the registry's deterministic prefix, inlined.
        let stripped = strip_nondet(metrics);
        let rec = parse_line(&stripped).unwrap_or_else(|| panic!("{stripped}"));
        assert_eq!(get_obj(&rec, "counters").map(|c| get_u64(c, "jobs")), Some(Some(1)));
        assert!(!stripped.contains("simulate_nanos"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn v1_lines_still_parse_under_v2() {
        // Pinned verbatim from a schema-1 capture: the parser is
        // per-line and schema-agnostic, so a v2 reader must take these
        // byte-for-byte.
        let v1 = [
            "{\"type\":\"meta\",\"schema\":1,\"tool\":\"ext_detection\"}",
            "{\"type\":\"campaign\",\"workers\":2,\"wall_nanos\":1000,\"jobs\":3}",
            "{\"type\":\"job\",\"job\":0,\"worker\":0,\"queue_wait_nanos\":10,\"run_nanos\":400,\"label\":\"gzip/BlackJack\"}",
            "{\"type\":\"detection\",\"kind\":\"BackendMismatch\",\"cycle\":70,\"seq\":9,\"pc\":40,\"lead_back_way\":4,\"trail_back_way\":0,\"front_ways\":null}",
        ];
        for line in v1 {
            assert_eq!(emit_line(&parse_line(line).unwrap()), line);
            // No nondet marker → stripping is the identity.
            assert_eq!(strip_nondet(line), line);
        }
        assert!(summarize_campaign(v1.as_ref()).is_some());
    }

    #[test]
    fn writer_emits_schema_valid_lines() {
        let path = std::env::temp_dir().join("bj_telemetry_writer_test.jsonl");
        {
            let mut w = TraceWriter::create(&path, "unit-test").unwrap();
            let jobs = (0..3u64).map(|i| move |_: &mut Metrics| i).collect();
            let obs = Campaign::with_workers(1)
                .run_observed(jobs, ObserveOpts { timings: true, ..ObserveOpts::default() });
            let trace = obs.trace.expect("timings were requested");
            w.emit_campaign(&trace, &["a".into(), "b".into(), "c".into()]);
            let stats = blackjack_sim::SimStats {
                cycles: 10,
                wall_nanos: 5,
                agg_wall_nanos: 5,
                ..Default::default()
            };
            w.emit_run("a", &stats, None);
            w.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let recs: Vec<_> = lines.iter().map(|l| parse_line(l).expect("well-formed")).collect();
        assert_eq!(get_str(&recs[0], "type"), Some("meta"));
        assert_eq!(get_u64(&recs[0], "schema"), Some(SCHEMA_VERSION));
        assert_eq!(get_str(&recs[1], "type"), Some("campaign"));
        assert_eq!(get_u64(&recs[1], "jobs"), Some(3));
        // 1 meta + 1 campaign + 3 jobs + 1 run.
        assert_eq!(lines.len(), 6);
        assert_eq!(get_str(&recs[2], "label"), Some("a"));
        assert_eq!(get_str(&recs[5], "type"), Some("run"));
        let stats_obj = get_obj(&recs[5], "stats").unwrap();
        assert_eq!(get_u64(stats_obj, "cycles"), Some(10));
        assert_eq!(get_u64s(stats_obj, "committed"), Some(vec![0, 0]));
        // Every line is a balanced object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
        let _ = std::fs::remove_file(path);
    }
}
