//! `--compare BASE NEW`: for each workload × end-to-end metric, both
//! sides' medians and quartiles and a verdict against the metric's bound
//! in `BENCHMARK.json`. Inputs are the JSONL files `--json` appends to.
//!
//! The verdict follows the no-regression rule: `worse` when the new
//! median is worse than the base median by more than the bound;
//! `unresolved` when either side's run-to-run spread is wider than the
//! bound, unless every new run beats every base run; `better` when the
//! new median beats the base by more than the base's own spread; else
//! `within`. `setup_s` is judged against its bound or 20 ms, whichever
//! is larger.

use std::collections::BTreeMap;

use blackjack::telemetry::{parse_line, JsonValue};
use blackjack_bench::benchfmt::num;

use crate::spec::{self, obj_of, str_of, MetricSpec};
use crate::stats;

/// One side's runs of one workload.
#[derive(Default)]
struct Side {
    runs: u64,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, Vec<f64>>,
}

/// Runs the comparison; returns the process exit status (1 when any
/// pairing is worse or the failure counts differ).
pub fn run(base: &str, new: &str) -> i32 {
    let loaded = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| spec::parse(&t))
        .and_then(|spec| Ok((spec, load(base)?, load(new)?)));
    let (spec, base, new) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut status = 0;
    println!(
        "{:18} {:12} {:>14} {:>24} {:>14} {:>24}  verdict",
        "workload", "metric", "base median", "base q1..q3", "new median", "new q1..q3"
    );
    for w in &spec.workloads {
        let (Some(a), Some(b)) = (base.get(w), new.get(w)) else {
            println!(
                "{w:18} (no runs on {})",
                if base.contains_key(w) { "new" } else { "base" }
            );
            continue;
        };
        for m in &spec.end_to_end {
            let (xa, xb) = (a.values.get(&m.name), b.values.get(&m.name));
            let (Some(xa), Some(xb)) = (xa, xb) else {
                continue;
            };
            let [a1, a2, a3] = stats::quartiles(xa);
            let [b1, b2, b3] = stats::quartiles(xb);
            let v = verdict(m, xa, xb);
            if v == "worse" {
                status = 1;
            }
            println!(
                "{w:18} {:12} {a2:>14.6} {:>24} {b2:>14.6} {:>24}  {v}",
                m.name,
                format!("{a1:.6}..{a3:.6}"),
                format!("{b1:.6}..{b3:.6}")
            );
        }
        let frac = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
        let differ = frac(a) != frac(b);
        if differ {
            status = 1;
        }
        println!(
            "{w:18} fail_frac    base {}/{} over {} runs, new {}/{} over {} runs{}",
            a.failed,
            a.attempted,
            a.runs,
            b.failed,
            b.attempted,
            b.runs,
            if differ { "  DIFFERENT" } else { "" }
        );
    }
    status
}

/// The least worsening of `setup_s`, in seconds, that can count: a
/// set-up of tens of milliseconds moves by more than its relative bound
/// with host noise alone.
const SETUP_FLOOR_S: f64 = 0.02;

/// The verdict for one metric, `base` against `new`.
pub fn verdict(m: &MetricSpec, base: &[f64], new: &[f64]) -> &'static str {
    let (ma, mb) = (stats::median(base), stats::median(new));
    let mut bound = m.bound.unwrap_or(0.0);
    if m.name == "setup_s" {
        bound = bound.max(SETUP_FLOOR_S / ma);
    }
    // Positive when `new` is worse.
    let worse_by = |a: f64, b: f64| {
        if m.lower_is_better {
            (b - a) / a
        } else {
            (a - b) / a
        }
    };
    let beats = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let all_better = new.iter().all(|&y| base.iter().all(|&x| beats(y, x)));
    if worse_by(ma, mb) > bound {
        "worse"
    } else if stats::spread(base).max(stats::spread(new)) > bound && !all_better {
        "unresolved"
    } else if -worse_by(ma, mb) > stats::spread(base) {
        "better"
    } else {
        "within"
    }
}

/// Reads a `--json` file into per-workload sides; traced runs are
/// skipped.
fn load(path: &str) -> Result<BTreeMap<String, Side>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let rec = parse_line(line).ok_or_else(|| bad("not a JSON object"))?;
        if num(&rec, "trace") == Some(1.0) {
            continue;
        }
        let count = |k: &str| num(&rec, k).ok_or_else(|| bad(&format!("no number `{k}`")));
        let w = str_of(&rec, "workload").ok_or_else(|| bad("no `workload`"))?;
        let side = sides.entry(w.to_string()).or_default();
        side.runs += 1;
        side.attempted += count("attempted")? as u64;
        side.failed += count("failed")? as u64;
        for (name, v) in obj_of(&rec, "metrics").ok_or_else(|| bad("no `metrics`"))? {
            let value = match v {
                JsonValue::Obj(m) => num(m, "value"),
                _ => None,
            };
            if let Some(x) = value {
                side.values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(sides)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool) -> MetricSpec {
        named("m", lower)
    }

    fn named(name: &str, lower: bool) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let m = metric(false);
        assert_eq!(
            verdict(&m, &base, &[100.2, 99.8, 100.1, 100.0, 99.9]),
            "within"
        );
        assert_eq!(verdict(&m, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]), "worse");
        assert_eq!(
            verdict(&m, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            "better"
        );
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert_eq!(verdict(&m, &base, &noisy), "unresolved");
        // Lower is better: a 20% rise is worse, a 20% drop better.
        let lo = metric(true);
        assert_eq!(
            verdict(&lo, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            "worse"
        );
        assert_eq!(
            verdict(&lo, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            "better"
        );
    }

    #[test]
    fn setup_s_worsens_by_at_least_the_floor() {
        let setup = named("setup_s", true);
        let base = [0.050, 0.051, 0.049, 0.0505, 0.0495];
        // 30% but 15 ms worse: inside the 20 ms floor.
        let near = [0.065, 0.066, 0.064, 0.0655, 0.0645];
        assert_eq!(verdict(&setup, &base, &near), "within");
        // 30% worse on another metric is a regression.
        assert_eq!(verdict(&named("other_s", true), &base, &near), "worse");
        // 30 ms worse clears the floor.
        let far = [0.080, 0.081, 0.079, 0.0805, 0.0795];
        assert_eq!(verdict(&setup, &base, &far), "worse");
    }
}
