//! A reader that closes stdout before the output arrives (`| head`,
//! `| true`) ends the output; it is not an internal failure.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_end_of_output() {
    // The fleet runs for a while before its first line, so the read
    // end is long closed by the time the binary writes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_turbulence"))
        .args(["fleet", "--sessions", "2000", "--seed", "42"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn turbulence");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for turbulence");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains("internal failure"), "stderr: {stderr}");
    assert!(
        output.status.success(),
        "status {:?}, stderr: {stderr}",
        output.status
    );
}
