//! The harness knob table: every `BJ_*` environment variable a harness
//! binary reads, declared once in [`KNOBS`].
//!
//! A row names its variable, the [`Grammar`] its value parses by, the
//! value an unset variable stands for, and what it does. Each grammar
//! has one parser (`parse_positive`, `parse_flag`, `parse_path`,
//! `parse_fault_kinds`, plus `parse_seed` for `bj-fuzz --seed`) that
//! returns an [`EnvError`] naming the variable and the offending value.
//! Its harness form — a [`Knob`] method, or [`or_exit`] for a
//! command-line value — prints that error and exits with status 2, so a
//! call site reads a knob in one call, and a typo such as
//! `BJ_THREADS=eight` or `BJ_SCALE=0` stops the harness before it
//! simulates anything instead of falling back to a default.

use std::fmt;
use std::path::Path;

use crate::faults::FaultKind;

/// How a knob's value parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grammar {
    /// A positive integer no larger than `max` ([`parse_positive`]).
    Positive {
        /// The largest accepted value.
        max: u64,
    },
    /// `0`/`1`, `false`/`true`, `off`/`on`, `no`/`yes` ([`parse_flag`]).
    Flag,
    /// A file path the harness can create ([`parse_path`]); set but
    /// empty is an error, not "unset".
    Path,
    /// A comma-separated fault-kind list ([`parse_fault_kinds`]).
    FaultKinds,
}

/// One harness knob: a row of [`KNOBS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// How its value parses.
    pub grammar: Grammar,
    /// The value an unset or blank variable stands for, in the grammar's
    /// own syntax; `None` when unset means off, or that the host decides.
    pub default: Option<&'static str>,
    /// What the knob does, in one line.
    pub doc: &'static str,
}

// The rows of `KNOBS`, one per variable; each row's `doc` says what it
// steers.

pub const THREADS: Knob = Knob {
    name: "BJ_THREADS",
    grammar: Grammar::Positive { max: usize::MAX as u64 },
    default: None,
    doc: "campaign workers for `fig_all`, `ext_detection` and `ext_ablation`; \
          unset uses every available core",
};

pub const SCALE: Knob = Knob {
    name: "BJ_SCALE",
    grammar: Grammar::Positive { max: u32::MAX as u64 },
    default: Some("1"),
    doc: "workload iteration multiplier for `fig_all` and `bj-lint`",
};

pub const ECC: Knob = Knob {
    name: "BJ_ECC",
    grammar: Grammar::Flag,
    default: Some("0"),
    doc: "run every core with the SEC-DED layer over the LVQ payload RAM",
};

pub const FAULT_KINDS: Knob = Knob {
    name: "BJ_FAULT_KINDS",
    grammar: Grammar::FaultKinds,
    default: Some("hard"),
    doc: "temporal fault models swept by `ext_detection` and `bj-fuzz`",
};

pub const TRACE: Knob = Knob {
    name: "BJ_TRACE",
    grammar: Grammar::Path,
    default: None,
    doc: "file the harness writes JSONL telemetry to; `ext_detection` adds its \
          metrics registry and a live `progress` record every second",
};

pub const CALL_DEPTH: Knob = Knob {
    name: "BJ_CALL_DEPTH",
    grammar: Grammar::Positive { max: 3 },
    default: Some("2"),
    doc: "function levels in `bj-fuzz` programs (`1` = no calls)",
};

/// Every harness knob, in README order.
pub const KNOBS: [Knob; 6] = [SCALE, THREADS, FAULT_KINDS, ECC, TRACE, CALL_DEPTH];

impl Knob {
    /// The variable's setting, or the row's default when it is unset or
    /// blank.
    fn value(&self) -> Option<String> {
        match std::env::var(self.name) {
            Ok(raw) if !raw.trim().is_empty() => Some(raw),
            _ => self.default.map(str::to_string),
        }
    }

    /// Reads a [`Grammar::Positive`] knob: `None` only when it is unset
    /// and has no default. Exits 2 on a malformed value.
    pub fn positive(&self) -> Option<u64> {
        let Grammar::Positive { max } = self.grammar else {
            panic!("{} is not a positive-integer knob", self.name)
        };
        self.value().map(|raw| or_exit(parse_positive(self.name, &raw, max)))
    }

    /// Reads a [`Grammar::Flag`] knob. Exits 2 on a malformed value.
    pub fn flag(&self) -> bool {
        assert_eq!(self.grammar, Grammar::Flag, "{} is not a flag", self.name);
        or_exit(parse_flag(self.name, &self.value().expect("every flag has a default")))
    }

    /// Reads a [`Grammar::FaultKinds`] knob. Exits 2 on a malformed list.
    pub fn fault_kinds(&self) -> Vec<FaultKind> {
        assert_eq!(self.grammar, Grammar::FaultKinds, "{} is not a fault-kind list", self.name);
        or_exit(parse_fault_kinds(self.name, &self.value().expect("the kind list has a default")))
    }

    /// Reads a [`Grammar::Path`] knob and creates its file with
    /// `create`: `None` when unset. Exits 2 when it is set but empty or
    /// when `create` fails.
    pub fn create<T>(&self, create: impl FnOnce(&Path) -> std::io::Result<T>) -> Option<T> {
        assert_eq!(self.grammar, Grammar::Path, "{} is not a path", self.name);
        let raw = std::env::var(self.name).ok()?;
        Some(or_exit(parse_path(self.name, &raw, create)))
    }
}

/// A malformed knob or command-line value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The value does not parse as a number of the expected type.
    NotANumber {
        /// Variable name.
        var: &'static str,
        /// The raw value found.
        value: String,
    },
    /// The value does not parse as a seed.
    NotASeed {
        /// Variable name.
        var: &'static str,
        /// The raw value found.
        value: String,
    },
    /// The value parsed but is zero where a positive number is required.
    Zero {
        /// Variable name.
        var: &'static str,
    },
    /// The value parsed but exceeds the knob's bound.
    TooLarge {
        /// Variable name.
        var: &'static str,
        /// The value found.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// The value is not a recognized boolean flag.
    NotAFlag {
        /// Variable name.
        var: &'static str,
        /// The raw value found.
        value: String,
    },
    /// A path variable was set to an empty (or all-whitespace) value.
    EmptyPath {
        /// Variable name.
        var: &'static str,
    },
    /// A path variable points somewhere that cannot be opened for
    /// writing.
    Unwritable {
        /// Variable name.
        var: &'static str,
        /// The offending path.
        path: String,
        /// The OS error that rejected it.
        reason: String,
    },
    /// A fault-kind list entry is not part of the fault-universe grammar.
    UnknownKind {
        /// Variable name.
        var: &'static str,
        /// The offending entry (not the whole list).
        value: String,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::NotANumber { var, value } => {
                write!(f, "{var}={value:?} is not a valid positive integer")
            }
            EnvError::NotASeed { var, value } => write!(
                f,
                "{var}={value:?} is not a valid seed (use a decimal or 0x-prefixed hex integer)"
            ),
            EnvError::Zero { var } => {
                write!(f, "{var}=0 is invalid: the value must be at least 1")
            }
            EnvError::TooLarge { var, value, max } => {
                write!(f, "{var}={value} is invalid: the value must be at most {max}")
            }
            EnvError::NotAFlag { var, value } => write!(
                f,
                "{var}={value:?} is not a valid flag (use 0/1, true/false, on/off)"
            ),
            EnvError::EmptyPath { var } => {
                write!(f, "{var} is set but empty: provide a writable file path or unset it")
            }
            EnvError::Unwritable { var, path, reason } => {
                write!(f, "{var}={path:?} is not writable: {reason}")
            }
            EnvError::UnknownKind { var, value } => write!(
                f,
                "{var}: {value:?} is not a fault kind (use hard, transient, or \
                 intermittent[:PERIOD:ON])"
            ),
        }
    }
}

impl std::error::Error for EnvError {}

/// The harness form of every parser: the parsed value, or — on a
/// malformed setting — the error on stderr and exit status 2. Harness
/// binaries have no caller to hand the error to.
pub fn or_exit<T>(parsed: Result<T, EnvError>) -> T {
    parsed.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    })
}

/// Parses `raw` as a positive integer no larger than `max`, for
/// variable (or flag) `var`.
///
/// # Errors
///
/// [`EnvError::NotANumber`] when `raw` does not parse,
/// [`EnvError::Zero`] when it parses to zero, [`EnvError::TooLarge`]
/// above `max`.
pub fn parse_positive(var: &'static str, raw: &str, max: u64) -> Result<u64, EnvError> {
    let v: u64 = raw.trim().parse().map_err(|_| EnvError::NotANumber {
        var,
        value: raw.to_string(),
    })?;
    match v {
        0 => Err(EnvError::Zero { var }),
        v if v > max => Err(EnvError::TooLarge { var, value: v, max }),
        v => Ok(v),
    }
}

/// Parses `raw` as a `u64` seed, accepting decimal or `0x`-prefixed hex
/// (case-insensitive prefix and digits). Unlike [`parse_positive`], zero
/// is a valid seed.
///
/// # Errors
///
/// [`EnvError::NotASeed`] when `raw` parses as neither form.
pub fn parse_seed(var: &'static str, raw: &str) -> Result<u64, EnvError> {
    let s = raw.trim();
    let parsed = if let Some(hex) =
        s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| EnvError::NotASeed { var, value: raw.to_string() })
}

/// Parses `raw` as a boolean flag: `1`/`true`/`on`/`yes` or
/// `0`/`false`/`off`/`no` (case-insensitive).
///
/// # Errors
///
/// [`EnvError::NotAFlag`] for anything else.
pub fn parse_flag(var: &'static str, raw: &str) -> Result<bool, EnvError> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        _ => Err(EnvError::NotAFlag { var, value: raw.to_string() }),
    }
}

/// Parses `raw` as a file path and creates the file with `create`.
///
/// A blank value is an error rather than "unset": an empty `BJ_TRACE` is
/// almost always a broken shell expansion, and silently dropping the
/// telemetry the user asked for is worse than stopping. The create is
/// the writability check, so a bad directory or permission surfaces
/// before any simulation work is done.
///
/// # Errors
///
/// [`EnvError::EmptyPath`] for a blank value, [`EnvError::Unwritable`]
/// when `create` fails.
pub fn parse_path<T>(
    var: &'static str,
    raw: &str,
    create: impl FnOnce(&Path) -> std::io::Result<T>,
) -> Result<T, EnvError> {
    if raw.trim().is_empty() {
        return Err(EnvError::EmptyPath { var });
    }
    create(Path::new(raw)).map_err(|e| EnvError::Unwritable {
        var,
        path: raw.to_string(),
        reason: e.to_string(),
    })
}

/// Default duty-cycle window for an `intermittent` fault kind given
/// without explicit parameters: broken for the first
/// [`DEFAULT_INTERMITTENT_ON`] cycles of every 64-cycle window —
/// bursty enough to dodge a single check yet dense enough that every
/// campaign workload crosses many active windows.
pub const DEFAULT_INTERMITTENT_PERIOD: u64 = 64;

/// Active cycles per default intermittent window.
pub const DEFAULT_INTERMITTENT_ON: u64 = 8;

/// Parses one fault-kind entry: `hard`, `transient`, `intermittent`
/// (default 8-of-64 duty cycle), or `intermittent:PERIOD:ON` with
/// `1 <= ON <= PERIOD`.
///
/// # Errors
///
/// [`EnvError::UnknownKind`] for anything else.
pub fn parse_fault_kind(var: &'static str, raw: &str) -> Result<FaultKind, EnvError> {
    let bad = || EnvError::UnknownKind { var, value: raw.trim().to_string() };
    let parts: Vec<&str> = raw.trim().split(':').collect();
    match (parts[0], parts.len()) {
        ("hard", 1) => Ok(FaultKind::Hard),
        ("transient", 1) => Ok(FaultKind::Transient),
        ("intermittent", 1) => Ok(FaultKind::Intermittent {
            period: DEFAULT_INTERMITTENT_PERIOD,
            on: DEFAULT_INTERMITTENT_ON,
        }),
        ("intermittent", 3) => {
            let period: u64 = parts[1].parse().map_err(|_| bad())?;
            let on: u64 = parts[2].parse().map_err(|_| bad())?;
            if period >= 1 && (1..=period).contains(&on) {
                Ok(FaultKind::Intermittent { period, on })
            } else {
                Err(bad())
            }
        }
        _ => Err(bad()),
    }
}

/// Parses `raw` as a comma-separated fault-kind list (the `BJ_FAULT_KINDS`
/// grammar). Entries may repeat; an empty list is rejected.
///
/// # Errors
///
/// [`EnvError::UnknownKind`] naming the first bad entry.
pub fn parse_fault_kinds(var: &'static str, raw: &str) -> Result<Vec<FaultKind>, EnvError> {
    let kinds: Vec<_> = raw
        .split(',')
        .map(|e| parse_fault_kind(var, e))
        .collect::<Result<_, _>>()?;
    if kinds.is_empty() {
        return Err(EnvError::UnknownKind { var, value: raw.to_string() });
    }
    Ok(kinds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_accepts_normal_values() {
        assert_eq!(parse_positive("BJ_THREADS", "8", u64::MAX), Ok(8));
        assert_eq!(parse_positive("BJ_SCALE", " 3 ", u64::MAX), Ok(3));
        assert_eq!(parse_positive("BJ_SCALE", "1", u64::MAX), Ok(1));
        assert_eq!(parse_positive("BJ_CALL_DEPTH", "3", 3), Ok(3));
    }

    #[test]
    fn zero_rejected_with_named_variable() {
        let err = parse_positive("BJ_SCALE", "0", u64::MAX).unwrap_err();
        assert_eq!(err, EnvError::Zero { var: "BJ_SCALE" });
        assert!(err.to_string().contains("BJ_SCALE=0"));
    }

    #[test]
    fn non_numeric_rejected_with_value_echoed() {
        for bad in ["eight", "-1", "3.5", "1e3", "0x10", "18446744073709551616"] {
            let err = parse_positive("BJ_THREADS", bad, u64::MAX).unwrap_err();
            assert_eq!(
                err,
                EnvError::NotANumber { var: "BJ_THREADS", value: bad.to_string() },
                "{bad}"
            );
            assert!(err.to_string().contains(bad), "{bad}");
        }
    }

    #[test]
    fn seeds_accept_decimal_and_hex_including_zero() {
        assert_eq!(parse_seed("--seed", "12345"), Ok(12345));
        assert_eq!(parse_seed("--seed", "0"), Ok(0));
        assert_eq!(parse_seed("--seed", " 0xB1AC "), Ok(0xB1AC));
        assert_eq!(parse_seed("--seed", "0Xdeadbeef"), Ok(0xdead_beef));
        for bad in ["", "seed", "0x", "0xZZ", "-1", "1.5"] {
            let err = parse_seed("--seed", bad).unwrap_err();
            assert_eq!(
                err,
                EnvError::NotASeed { var: "--seed", value: bad.to_string() },
                "{bad:?}"
            );
            // Zero is a valid seed, so the message names the seed grammar.
            assert!(!err.to_string().contains("positive"), "{err}");
        }
    }

    #[test]
    fn flags_parse_both_polarities() {
        for yes in ["1", "true", "ON", "Yes"] {
            assert_eq!(parse_flag("BJ_ECC", yes), Ok(true), "{yes}");
        }
        for no in ["0", "false", "off", "NO"] {
            assert_eq!(parse_flag("BJ_ECC", no), Ok(false), "{no}");
        }
        assert_eq!(
            parse_flag("BJ_ECC", "maybe"),
            Err(EnvError::NotAFlag { var: "BJ_ECC", value: "maybe".to_string() })
        );
    }

    #[test]
    fn path_validation_rejects_unwritable_and_accepts_tempfile() {
        // Unwritable: a path under a directory that does not exist.
        let bad = "/nonexistent-dir-bj/trace.jsonl";
        let err = parse_path("BJ_TRACE", bad, |p| std::fs::File::create(p)).unwrap_err();
        match &err {
            EnvError::Unwritable { var, path, .. } => {
                assert_eq!(*var, "BJ_TRACE");
                assert_eq!(path, bad);
            }
            other => panic!("expected Unwritable, got {other:?}"),
        }
        assert!(err.to_string().contains("not writable"));

        // Writable: a file in the temp dir, created by the one open.
        let ok = std::env::temp_dir().join("bj_envcfg_test_trace.jsonl");
        let created = parse_path("BJ_TRACE", ok.to_str().unwrap(), |p| {
            std::fs::File::create(p).map(|_| p.to_path_buf())
        });
        assert_eq!(created, Ok(ok.clone()));
        assert!(ok.exists());
        let _ = std::fs::remove_file(ok);
    }

    #[test]
    fn empty_path_is_an_error_not_unset() {
        let err = parse_path("BJ_TRACE", "  ", |_| -> std::io::Result<()> {
            panic!("a blank path is never created")
        })
        .unwrap_err();
        assert_eq!(err, EnvError::EmptyPath { var: "BJ_TRACE" });
        assert!(err.to_string().contains("set but empty"));
    }

    #[test]
    fn unset_variables_are_none_or_default() {
        // Readers only consult the real variables, so each assertion
        // holds only when the suite's environment leaves its knob unset.
        for knob in KNOBS {
            if std::env::var_os(knob.name).is_some() {
                continue;
            }
            match knob.grammar {
                Grammar::Positive { .. } => assert_eq!(
                    knob.positive(),
                    knob.default.map(|d| d.parse().unwrap()),
                    "{}",
                    knob.name
                ),
                Grammar::Flag => {
                    assert_eq!(knob.flag(), knob.default == Some("1"), "{}", knob.name)
                }
                Grammar::Path => assert!(knob.create(|_| Ok(())).is_none(), "{}", knob.name),
                Grammar::FaultKinds => {
                    assert_eq!(knob.fault_kinds(), vec![FaultKind::Hard], "{}", knob.name)
                }
            }
        }
    }

    /// One pass over the table: names are unique `BJ_*` variables, every
    /// default parses under its row's grammar, and a malformed value is
    /// rejected with an error that names the variable.
    #[test]
    fn every_knob_parses_its_default_and_names_itself_when_malformed() {
        for (i, knob) in KNOBS.iter().enumerate() {
            let name = knob.name;
            assert!(name.starts_with("BJ_"), "{name}");
            assert!(KNOBS[..i].iter().all(|k| k.name != name), "{name} declared twice");
            assert!(!knob.doc.is_empty(), "{name} has no doc");
            let rejected = match knob.grammar {
                Grammar::Positive { max } => {
                    if let Some(d) = knob.default {
                        assert!(parse_positive(name, d, max).is_ok(), "{name} default {d}");
                    }
                    assert_eq!(parse_positive(name, "0", max), Err(EnvError::Zero { var: name }));
                    if max < u64::MAX {
                        assert_eq!(
                            parse_positive(name, &(max + 1).to_string(), max),
                            Err(EnvError::TooLarge { var: name, value: max + 1, max })
                        );
                    }
                    parse_positive(name, "soon", max).unwrap_err()
                }
                Grammar::Flag => {
                    let d = knob.default.unwrap_or_else(|| panic!("{name} needs a default"));
                    assert!(parse_flag(name, d).is_ok(), "{name} default {d}");
                    parse_flag(name, "maybe").unwrap_err()
                }
                Grammar::Path => {
                    assert_eq!(knob.default, None, "{name}: a path is opt-in");
                    parse_path(name, "", |_| Ok(())).unwrap_err()
                }
                Grammar::FaultKinds => {
                    let d = knob.default.unwrap_or_else(|| panic!("{name} needs a default"));
                    assert!(parse_fault_kinds(name, d).is_ok(), "{name} default {d}");
                    parse_fault_kinds(name, "soft").unwrap_err()
                }
            };
            assert!(rejected.to_string().contains(name), "{name}: {rejected}");
        }
    }

    // The per-knob tests below pin each knob's grammar and, when the
    // suite's environment leaves the variable unset, the value its
    // reader returns.

    #[test]
    fn call_depth_rejects_zero_and_defaults_when_unset() {
        let Grammar::Positive { max } = CALL_DEPTH.grammar else {
            panic!("BJ_CALL_DEPTH is a positive integer")
        };
        assert_eq!(parse_positive("BJ_CALL_DEPTH", "3", max), Ok(3));
        assert_eq!(parse_positive("BJ_CALL_DEPTH", "1", max), Ok(1));
        assert_eq!(
            parse_positive("BJ_CALL_DEPTH", "0", max),
            Err(EnvError::Zero { var: "BJ_CALL_DEPTH" })
        );
        assert_eq!(
            parse_positive("BJ_CALL_DEPTH", "deep", max),
            Err(EnvError::NotANumber { var: "BJ_CALL_DEPTH", value: "deep".to_string() })
        );
        if std::env::var_os(CALL_DEPTH.name).is_none() {
            assert_eq!(CALL_DEPTH.positive(), Some(2));
        }
    }

    #[test]
    fn ecc_flag_accepts_and_rejects_both_polarities() {
        assert_eq!(ECC.grammar, Grammar::Flag);
        assert_eq!(parse_flag("BJ_ECC", "1"), Ok(true));
        assert_eq!(parse_flag("BJ_ECC", "off"), Ok(false));
        let err = parse_flag("BJ_ECC", "secded").unwrap_err();
        assert_eq!(err, EnvError::NotAFlag { var: "BJ_ECC", value: "secded".to_string() });
        // Unset defaults to off: the unprotected datapath is the
        // byte-stable legacy configuration.
        if std::env::var_os(ECC.name).is_none() {
            assert!(!ECC.flag());
        }
    }

    /// README's knob list names exactly the table's knobs, with the
    /// table's defaults, in table order.
    #[test]
    fn readme_knob_list_matches_the_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));
        let listed: Vec<(String, Option<&str>)> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("* `"))
            .filter(|rest| rest.starts_with("BJ_"))
            .map(|rest| {
                let name = rest.chars().take_while(|c| c.is_ascii_uppercase() || *c == '_');
                let default = rest
                    .split_once("(default `")
                    .map(|(_, d)| &d[..d.find('`').expect("a closing backtick")]);
                (name.collect(), default)
            })
            .collect();
        let table: Vec<(String, Option<&str>)> =
            KNOBS.iter().map(|k| (k.name.to_string(), k.default)).collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn fault_kinds_parse_the_universe() {
        assert_eq!(parse_fault_kinds("BJ_FAULT_KINDS", "hard"), Ok(vec![FaultKind::Hard]));
        assert_eq!(
            parse_fault_kinds("BJ_FAULT_KINDS", "hard,transient,intermittent"),
            Ok(vec![
                FaultKind::Hard,
                FaultKind::Transient,
                FaultKind::Intermittent {
                    period: DEFAULT_INTERMITTENT_PERIOD,
                    on: DEFAULT_INTERMITTENT_ON,
                },
            ])
        );
        assert_eq!(
            parse_fault_kinds("BJ_FAULT_KINDS", " transient , intermittent:100:25 "),
            Ok(vec![FaultKind::Transient, FaultKind::Intermittent { period: 100, on: 25 }])
        );
    }

    #[test]
    fn fault_kinds_reject_malformed_entries() {
        for bad in [
            "soft",
            "",
            "hard,,transient",
            "intermittent:0:0",
            "intermittent:8:9",
            "intermittent:8",
            "intermittent:8:2:1",
            "transient:5",
            "HARD",
        ] {
            let err = parse_fault_kinds("BJ_FAULT_KINDS", bad).unwrap_err();
            assert!(
                matches!(err, EnvError::UnknownKind { var: "BJ_FAULT_KINDS", .. }),
                "{bad:?} gave {err:?}"
            );
            assert!(err.to_string().contains("BJ_FAULT_KINDS"), "{bad:?}");
        }
        // The error names the offending entry, not the whole list.
        let err = parse_fault_kinds("BJ_FAULT_KINDS", "hard,soft").unwrap_err();
        assert_eq!(
            err,
            EnvError::UnknownKind { var: "BJ_FAULT_KINDS", value: "soft".to_string() }
        );
    }
}
