//! Bench binaries reject a malformed numeric flag instead of silently
//! running the default.

use std::process::Command;

#[test]
fn a_malformed_numeric_flag_exits_2_and_names_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_simcore"))
        .args(["--smoke", "--devices", "x"])
        .output()
        .expect("bench_simcore runs");
    assert_eq!(out.status.code(), Some(2), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--devices"), "stderr: {stderr}");
}
