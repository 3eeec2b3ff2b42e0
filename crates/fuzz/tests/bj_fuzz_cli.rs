//! Bad configuration exits 2: `bj-fuzz` given a malformed flag or knob
//! stops with status 2 before it generates a program, and its error
//! names the flag or knob. A reader that closes stdout early leaves the
//! exit status alone.

use std::process::{Command, Stdio};

use blackjack::envcfg::KNOBS;

/// Arguments, the knob set on the child (if any), and the name the
/// error must carry.
type Case = (&'static [&'static str], Option<(&'static str, &'static str)>, &'static str);

#[test]
fn a_malformed_flag_or_knob_exits_2_before_fuzzing() {
    let cases: [Case; 3] = [
        (&["--iters", "0"], None, "--iters"),
        (&["--seed", "xyz"], None, "--seed"),
        (&["--iters", "1"], Some(("BJ_CALL_DEPTH", "4")), "BJ_CALL_DEPTH"),
    ];
    for (args, knob, named) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bj-fuzz"));
        for k in KNOBS {
            cmd.env_remove(k.name);
        }
        if let Some((var, value)) = knob {
            cmd.env(var, value);
        }
        let out = cmd.args(args).arg("--quiet").output().expect("bj-fuzz runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {knob:?}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(named), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} {knob:?} fuzzed before exiting");
        if named == "--seed" {
            // Zero is a valid seed: the seed grammar has its own message.
            assert!(!stderr.contains("positive"), "{stderr}");
        }
    }
}

#[test]
fn a_reader_that_closes_stdout_early_leaves_the_exit_status_alone() {
    // `bj-fuzz … | head -1` closes the pipe after the first line. Here
    // the read end is closed before bj-fuzz prints anything, so its
    // summary hits the closed pipe; the passing run must still exit 0.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bj-fuzz"));
    for k in KNOBS {
        cmd.env_remove(k.name);
    }
    let mut child = cmd
        .args(["--seed", "1", "--iters", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("bj-fuzz runs");
    drop(child.stdout.take());
    assert_eq!(child.wait().expect("bj-fuzz exits").code(), Some(0));
}
