//! CLI behavior of `bj-trace`: graceful handling of empty and
//! truncated traces (exit 0 with a note — an empty trace is not an
//! error), unreadable input (exit 1), bad usage (exit 2), a reader that
//! closes stdout early (exit 0), and the phase table `top` derives from
//! the `metrics` record.

use std::process::{Command, Stdio};

fn bj_trace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bj-trace"))
}

#[test]
fn empty_input_is_graceful() {
    let dir = std::env::temp_dir().join("bj-trace-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.jsonl");
    std::fs::write(&path, "").unwrap();
    let out = bj_trace().arg(&path).output().unwrap();
    assert!(out.status.success(), "empty trace must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no telemetry lines"), "must explain itself: {stdout}");
}

#[test]
fn truncated_trace_with_no_recognized_lines_is_graceful() {
    // Whitespace and a half-written (unrecognizable) line: the writer
    // died mid-emit. Still exit 0 with a note.
    let dir = std::env::temp_dir().join("bj-trace-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.jsonl");
    std::fs::write(&path, "\n  \n{\"type\":\"ru").unwrap();
    let out = bj_trace().arg(&path).output().unwrap();
    assert!(out.status.success(), "truncated trace must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no recognized telemetry lines"), "{stdout}");
}

#[test]
fn unreadable_file_fails_with_status_1() {
    let out = bj_trace().arg("/nonexistent/definitely/missing.jsonl").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn bad_usage_fails_with_status_2() {
    let out = bj_trace().args(["a", "b"]).stdin(Stdio::null()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bj_trace().arg("--help").stdin(Stdio::null()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn valid_meta_line_renders() {
    let dir = std::env::temp_dir().join("bj-trace-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("meta.jsonl");
    std::fs::write(&path, "{\"type\":\"meta\",\"schema\":1,\"tool\":\"test\"}\n").unwrap();
    let out = bj_trace().arg(&path).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tool=test"), "{stdout}");
}

#[test]
fn a_reader_that_closes_stdout_early_leaves_the_exit_status_alone() {
    // `bj-trace top t.jsonl | head -12` closes the pipe after a few
    // lines. Here the read end is closed before bj-trace prints
    // anything, so every line it writes hits the closed pipe; the render
    // must still exit 0.
    let dir = std::env::temp_dir().join("bj-trace-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("closed-stdout.jsonl");
    let lines = [
        "{\"type\":\"campaign\",\"workers\":1,\"wall_nanos\":4000000000,\"jobs\":0}",
        "{\"type\":\"metrics\",\"counters\":{\"jobs\":0},\"nondet\":[\"setup_nanos\"],\
         \"setup_nanos\":1000000000}",
    ];
    std::fs::write(&path, lines.join("\n")).unwrap();
    let mut child = bj_trace()
        .arg("top")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("bj-trace runs");
    drop(child.stdout.take());
    assert_eq!(child.wait().expect("bj-trace exits").code(), Some(0));
}

#[test]
fn top_attributes_phases_from_the_metrics_record() {
    // A trace saved before the `phase` record retired still carries one;
    // `top` ignores it and sums the `metrics` record's counters, with
    // snapshot = chain building + forking, under the campaign's wall.
    let dir = std::env::temp_dir().join("bj-trace-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("phases.jsonl");
    let lines = [
        "{\"type\":\"campaign\",\"workers\":1,\"wall_nanos\":4000000000,\"jobs\":0}",
        "{\"type\":\"phase\",\"nondet\":[\"setup_nanos\"],\"setup_nanos\":7000000000}",
        "{\"type\":\"metrics\",\"counters\":{\"jobs\":0},\"nondet\":[\"setup_nanos\",\
         \"snapshot_build_nanos\",\"snapshot_fork_nanos\",\"simulate_nanos\",\"oracle_nanos\",\
         \"reassembly_nanos\"],\"setup_nanos\":1000000000,\"snapshot_build_nanos\":2000000000,\
         \"snapshot_fork_nanos\":500000000,\"simulate_nanos\":6000000000,\"oracle_nanos\":0,\
         \"reassembly_nanos\":100000000}",
    ];
    std::fs::write(&path, lines.join("\n")).unwrap();
    let out = bj_trace().arg("top").arg(&path).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase attribution (cpu time; campaign wall 4.0s):"), "{stdout}");
    let row = |name: &str| -> Vec<&str> {
        let line = stdout.lines().find(|l| l.trim_start().starts_with(name));
        line.unwrap_or_else(|| panic!("no {name} row: {stdout}")).split_whitespace().take(3).collect()
    };
    // 9.6 s in all: 1.0 + (2.0 + 0.5) + 6.0 + 0.0 + 0.1.
    assert_eq!(row("setup"), ["setup", "1.0s", "10.4%"]);
    assert_eq!(row("snapshot"), ["snapshot", "2.5s", "26.0%"]);
    assert_eq!(row("simulate"), ["simulate", "6.0s", "62.5%"]);
    assert_eq!(row("oracle"), ["oracle", "0.0s", "0.0%"]);
    assert_eq!(row("reassembly"), ["reassembly", "0.1s", "1.0%"]);
}
