//! Field lookups over parsed JSON objects, for readers of the
//! repository's JSON documents (the `benchmark/` package reads
//! `BENCHMARK.json` and its run records through these).

use blackjack::telemetry::JsonValue;

/// Looks a field up in an object's field list.
pub fn obj_get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A numeric field as `f64` (metrics are raw number tokens).
pub fn num(fields: &[(String, JsonValue)], key: &str) -> Option<f64> {
    match obj_get(fields, key)? {
        JsonValue::Raw(t) => t.parse().ok(),
        _ => None,
    }
}
