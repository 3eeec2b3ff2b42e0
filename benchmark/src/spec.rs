//! `BENCHMARK.json`: the benchmark's declared workloads and metrics,
//! read for `--compare` and checked against what the benchmark prints.

use blackjack::telemetry::{parse_line, JsonValue};
use blackjack_bench::benchfmt::{num, obj_get};

/// A JSON object's fields, in source order.
pub type Obj = [(String, JsonValue)];

/// The string field `key` of `obj`.
pub fn str_of<'a>(obj: &'a Obj, key: &str) -> Option<&'a str> {
    match obj_get(obj, key)? {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

/// The object field `key` of `obj`.
pub fn obj_of<'a>(obj: &'a Obj, key: &str) -> Option<&'a Obj> {
    match obj_get(obj, key)? {
        JsonValue::Obj(fields) => Some(fields),
        _ => None,
    }
}

/// The array field `key` of `obj`, every element an object.
fn objs_of<'a>(obj: &'a Obj, key: &str) -> Result<Vec<&'a Obj>, String> {
    let Some(JsonValue::Array(items)) = obj_get(obj, key) else {
        return Err(format!("missing array `{key}`"));
    };
    items
        .iter()
        .map(|v| match v {
            JsonValue::Obj(fields) => Ok(fields.as_slice()),
            _ => Err(format!("`{key}` holds a non-object")),
        })
        .collect()
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed, validated declaration.
#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    /// Validated with the rest; only the test against the printed metrics reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub per_layer: Vec<MetricSpec>,
}

/// A workload or metric name: a letter or digit, then up to 63 letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Parses and validates `BENCHMARK.json`.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = parse_line(text).ok_or("not a JSON object")?;
    let workloads = objs_of(&doc, "workloads")?
        .into_iter()
        .map(|w| {
            str_of(w, "name")
                .map(str::to_string)
                .ok_or("workload without a name")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let end_to_end = metrics(&objs_of(&doc, "end_to_end")?, true)?;
    let per_layer = metrics(&objs_of(&doc, "per_layer")?, false)?;
    let counts = [
        ("workloads", workloads.len(), 2..=8),
        ("end_to_end", end_to_end.len(), 1..=16),
        ("per_layer", per_layer.len(), 1..=128),
    ];
    for (what, n, range) in counts {
        if !range.contains(&n) {
            return Err(format!(
                "{n} {what}, expected {}..={}",
                range.start(),
                range.end()
            ));
        }
    }
    let mut names: Vec<&str> = workloads
        .iter()
        .map(String::as_str)
        .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()))
        .collect();
    if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
        return Err(format!("invalid name `{bad}`"));
    }
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name `{}` used twice", w[0]));
    }
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
    })
}

fn metrics(items: &[&Obj], bounded: bool) -> Result<Vec<MetricSpec>, String> {
    items
        .iter()
        .map(|m| {
            let s = |key: &str| str_of(m, key).ok_or_else(|| format!("metric without `{key}`"));
            let unit = s("unit")?.to_string();
            if !valid_unit(&unit) {
                return Err(format!("invalid unit `{unit}`"));
            }
            let lower_is_better = match s("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("`better` must be lower or higher, not `{other}`")),
            };
            let bound = num(m, "bound");
            if bounded && !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
                return Err(format!(
                    "metric `{}` needs a bound in [0, 0.25]",
                    s("name")?
                ));
            }
            Ok(MetricSpec {
                name: s("name")?.to_string(),
                unit,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHIPPED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn name_charset() {
        for good in [
            "figures",
            "inject-hard",
            "op_ms.p50",
            "sim.cycles_per_s.bj",
            "9a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "slash/ed",
            "ümlaut",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("ops/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    fn doc(workloads: usize, e2e: usize, layers: usize) -> String {
        let w: Vec<String> = (0..workloads)
            .map(|i| format!(r#"{{"name": "w{i}", "why": "x"}}"#))
            .collect();
        let e: Vec<String> = (0..e2e)
            .map(|i| format!(r#"{{"name": "e{i}", "unit": "s", "better": "lower", "bound": 0.1}}"#))
            .collect();
        let l: Vec<String> = (0..layers)
            .map(|i| format!(r#"{{"name": "l{i}", "unit": "s", "better": "lower"}}"#))
            .collect();
        format!(
            r#"{{"workloads": [{}], "end_to_end": [{}], "per_layer": [{}]}}"#,
            w.join(","),
            e.join(","),
            l.join(",")
        )
    }

    #[test]
    fn count_limits() {
        assert!(parse(&doc(2, 1, 1)).is_ok());
        assert!(parse(&doc(8, 16, 128)).is_ok());
        assert!(parse(&doc(1, 1, 1)).is_err());
        assert!(parse(&doc(9, 1, 1)).is_err());
        assert!(parse(&doc(2, 0, 1)).is_err());
        assert!(parse(&doc(2, 17, 1)).is_err());
        assert!(parse(&doc(2, 1, 0)).is_err());
        assert!(parse(&doc(2, 1, 129)).is_err());
    }

    #[test]
    fn rejects_duplicates_and_missing_bounds() {
        assert!(parse(&doc(2, 1, 1).replace("\"l0\"", "\"e0\"")).is_err());
        assert!(parse(&doc(2, 1, 1).replace(", \"bound\": 0.1", "")).is_err());
        assert!(parse(&doc(2, 1, 1).replace("0.1", "0.3")).is_err());
    }

    #[test]
    fn shipped_spec_matches_the_printed_metrics() {
        let spec = parse(SHIPPED).expect("BENCHMARK.json is valid");
        let names: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let declared = |ms: &[MetricSpec]| -> Vec<(String, String, bool)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone(), m.lower_is_better))
                .collect()
        };
        let printed = |ms: &[crate::Metric]| -> Vec<(String, String, bool)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.lower_is_better))
                .collect()
        };
        assert_eq!(declared(&spec.end_to_end), printed(crate::END_TO_END));
        assert_eq!(declared(&spec.per_layer), printed(crate::PER_LAYER));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }
}
