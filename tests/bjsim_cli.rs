//! `bjsim` on the command line: the `--oracle` commit-log replay, with
//! and without a fault, the `--fault` site spellings, and a malformed
//! `BJ_TRACE`.

use std::process::{Command, Stdio};

/// Runs `bjsim` on the checksum example; returns (exit code, stdout).
fn bjsim(args: &[&str]) -> (i32, String) {
    let program = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/checksum.s");
    let out = Command::new(env!("CARGO_BIN_EXE_bjsim"))
        .args(args)
        .arg(program)
        .output()
        .expect("bjsim runs");
    (out.status.code().expect("bjsim exits"), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The number after `key` in `line`, e.g. `seq 8` → 8.
fn number_after(line: &str, key: &str) -> u64 {
    let rest =
        &line[line.find(key).unwrap_or_else(|| panic!("no `{key}` in {line}")) + key.len()..];
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("a number")
}

#[test]
fn oracle_reports_a_full_match_in_every_mode() {
    for mode in ["single", "srt", "blackjack-ns", "blackjack"] {
        let (code, out) = bjsim(&["--quiet", "--oracle", "--mode", mode]);
        assert_eq!(code, 0, "{mode}: {out}");
        assert!(out.starts_with("completed: "), "{mode}: {out}");
        let matched = out.lines().find(|l| l.starts_with("oracle: ")).expect("an oracle line");
        let committed = number_after(&out, "completed: ");
        assert_eq!(matched, format!("oracle: all {committed} commits match the interpreter"));
    }
}

#[test]
fn oracle_under_a_fault_names_the_first_corrupted_commit() {
    // Informational under --fault: the run still exits 0, and the first
    // divergent commit precedes the detection that contains it.
    let (code, out) = bjsim(&["--quiet", "--oracle", "--fault", "backend:4:2"]);
    assert_eq!(code, 0, "{out}");
    let detected = out.lines().find(|l| l.starts_with("DETECTED: ")).expect("a detection");
    let diverged = out
        .lines()
        .find(|l| l.starts_with("oracle: first divergence at seq "))
        .expect("a divergence");
    assert!(diverged.contains("committed"), "names what differed: {diverged}");
    assert!(
        number_after(diverged, "at seq ") < number_after(detected, "(seq "),
        "the corrupted commit comes before the detection: {out}"
    );
}

#[test]
fn a_reader_that_closes_stdout_early_leaves_the_exit_status_alone() {
    // `bjsim … | grep -q DETECTED` closes the pipe at the first match,
    // before bjsim prints its oracle line. Here the read end is closed
    // before bjsim prints anything, so every line it writes hits the
    // closed pipe; the detected run must still exit 0.
    let program = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/checksum.s");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bjsim"))
        .args(["--quiet", "--oracle", "--fault", "backend:4:2", program])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("bjsim runs");
    drop(child.stdout.take());
    assert_eq!(child.wait().expect("bjsim exits").code(), Some(0));
}

#[test]
fn every_fault_site_family_is_accepted_and_unknown_ones_exit_2() {
    for family in ["frontend", "backend", "payload", "cachedata", "cachetag", "sbuf", "dtq", "lvq"]
    {
        let spec = format!("{family}:0:5");
        let (code, out) = bjsim(&["--quiet", "--fault", &spec]);
        assert_eq!(code, 0, "--fault {spec}: {out}");
    }
    for bad in ["tlb:0:1", "lvq", "backend:x", "backend:0:64"] {
        assert_eq!(bjsim(&["--quiet", "--fault", bad]).0, 2, "--fault {bad}");
    }
}

#[test]
fn an_empty_bj_trace_exits_2_before_simulating() {
    let program = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/checksum.s");
    let out = Command::new(env!("CARGO_BIN_EXE_bjsim"))
        .env("BJ_TRACE", "")
        .arg(program)
        .output()
        .expect("bjsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: BJ_TRACE is set but empty"), "{stderr}");
    assert!(out.stdout.is_empty(), "bjsim ran before exiting");
}
