//! Bad configuration exits 2: each harness, given one malformed knob,
//! stops with status 2 before it simulates anything, and its error names
//! the knob.

use std::process::Command;

use blackjack::envcfg::KNOBS;

#[test]
fn a_malformed_knob_exits_2_before_simulating() {
    let cases = [
        (env!("CARGO_BIN_EXE_ext_detection"), "BJ_THREADS", "eight"),
        (env!("CARGO_BIN_EXE_fig_all"), "BJ_THREADS", "eight"),
        (env!("CARGO_BIN_EXE_ext_ablation"), "BJ_THREADS", "eight"),
        (env!("CARGO_BIN_EXE_fig_all"), "BJ_SCALE", "0"),
        (env!("CARGO_BIN_EXE_bj-lint"), "BJ_SCALE", "0"),
        (env!("CARGO_BIN_EXE_ext_detection"), "BJ_FAULT_KINDS", "soft"),
        (env!("CARGO_BIN_EXE_ext_detection"), "BJ_ECC", "maybe"),
    ];
    for (bin, var, value) in cases {
        let mut cmd = Command::new(bin);
        // Only the knob under test is set, and only on the child.
        for knob in KNOBS {
            cmd.env_remove(knob.name);
        }
        let out = cmd.env(var, value).output().expect("harness runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{bin} with {var}={value}");
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(var), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case} printed a report before exiting");
    }
}
