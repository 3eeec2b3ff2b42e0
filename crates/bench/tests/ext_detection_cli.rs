//! CLI behavior of `ext_detection`: a reader that closes stdout early
//! leaves the exit status alone.

use std::process::{Command, Stdio};

use blackjack::envcfg::KNOBS;

#[test]
fn a_reader_that_closes_stdout_early_leaves_the_exit_status_alone() {
    // `ext_detection --bench gzip | head -4` closes the pipe after the
    // table header. Here the read end is closed before the report is
    // printed, so all of it hits the closed pipe; the campaign must
    // still exit 0.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ext_detection"));
    for k in KNOBS {
        cmd.env_remove(k.name);
    }
    let mut child = cmd
        .args(["--bench", "gzip"])
        .env("BJ_THREADS", "2")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ext_detection runs");
    drop(child.stdout.take());
    assert_eq!(child.wait().expect("ext_detection exits").code(), Some(0));
}
