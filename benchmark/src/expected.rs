//! Reference outputs the benchmark checks every op against.
//!
//! Each file holds one `label<TAB>output` line per op, written by
//! `--write-expected` from the simulator's plain reference paths (no
//! snapshots, no pruning, no early exit), so a checked op proves the
//! optimized path the benchmark times still computes the reference
//! result. The files are compiled in: `--write-expected` rewrites them
//! and the next build picks them up.

use std::collections::HashMap;
use std::path::Path;

pub const FIGURES_RUNS: &str = include_str!("../expected/figures.tsv");
pub const FIGURES_TEXT: &str = include_str!("../expected/figures.txt");
pub const INJECT_HARD: &str = include_str!("../expected/inject-hard.tsv");
pub const INJECT_TRANSIENT: &str = include_str!("../expected/inject-transient.tsv");

/// The reference outputs of one workload, keyed by op label.
pub struct Expected(HashMap<String, String>);

impl Expected {
    /// Parses `label<TAB>output` lines; blank lines are skipped.
    pub fn parse(text: &str) -> Expected {
        Expected(
            text.lines()
                .filter(|l| !l.is_empty())
                .map(|l| {
                    let (k, v) = l.split_once('\t').unwrap_or((l, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
        )
    }

    /// Number of ops whose output differs from the reference, or that
    /// the reference does not know.
    pub fn mismatches<'a>(&self, ops: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
        ops.into_iter()
            .filter(|(label, out)| self.0.get(*label).map(String::as_str) != Some(*out))
            .count() as u64
    }
}

/// Renders `label<TAB>output` lines.
pub fn render<'a>(ops: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    ops.into_iter()
        .map(|(l, o)| format!("{l}\t{o}\n"))
        .collect()
}

/// Writes the reference file `name` into the benchmark's source tree.
pub fn write(name: &str, contents: &str) -> std::io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(name);
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doctored_reference_fails_exactly_the_doctored_ops() {
        let ops = [
            ("srt/gzip/backend:0", "detected\tdue"),
            ("srt/gzip/backend:1", "benign\tbenign"),
        ];
        let good = render(ops);
        assert_eq!(Expected::parse(&good).mismatches(ops), 0);
        let doctored = good.replace("detected\tdue", "sdc\tsdc");
        assert_eq!(Expected::parse(&doctored).mismatches(ops), 1);
        let truncated: String = good.lines().take(1).map(|l| format!("{l}\n")).collect();
        assert_eq!(Expected::parse(&truncated).mismatches(ops), 1);
    }

    #[test]
    fn shipped_references_cover_every_op() {
        assert_eq!(FIGURES_RUNS.lines().count(), 64);
        assert!(FIGURES_TEXT.contains("Figure 7"));
        assert_eq!(INJECT_HARD.lines().count(), 850);
        assert_eq!(INJECT_TRANSIENT.lines().count(), 850);
    }
}
