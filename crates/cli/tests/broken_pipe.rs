//! A reader that closes stdout early (`ftbar-cli gen ... | head -c 100`)
//! must not make the CLI panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closing_stdout_early_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftbar-cli"))
        .args(["gen", "--n", "2000", "--procs", "6", "--ccr", "5"])
        .args(["--npf", "1", "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ftbar-cli starts");
    // The spec is megabytes long, far more than a pipe buffers, so the
    // CLI is still writing when the read end closes.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("the spec starts");
    drop(stdout);

    let out = child.wait_with_output().expect("ftbar-cli exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
}
