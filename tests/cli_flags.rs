//! Hostile-flag tests for the `liger-sim` binary: malformed numeric flags
//! must exit with code 2 and the usage text, never panic, and integer
//! flags must keep every bit of their value.

use std::process::{Command, Output};

fn liger_sim(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_liger-sim"))
        .args(["--model", "tiny", "--world", "2", "--requests", "8"])
        .args(extra)
        .output()
        .expect("liger-sim runs")
}

#[test]
fn hostile_numeric_flags_exit_2_with_usage() {
    let cases: [&[&str]; 7] = [
        &["--rate", "0"],
        &["--rate", "-3"],
        &["--rate", "nan"],
        &["--rate", "inf"],
        &["--rate", "2000", "--seed", "1e3"],
        &["--rate", "2000", "--batch", "2.5"],
        &["--rate", "2000", "--slo", "-5"],
    ];
    for args in cases {
        let out = liger_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?} printed no usage: {stderr}");
    }
}

#[test]
fn seeds_above_2_pow_53_keep_every_bit() {
    // Both seeds round to the same f64; parsed as integers they name
    // different traces, so the served latencies differ.
    let run = |seed: &str| {
        let out = liger_sim(&["--rate", "2000", "--seed", seed]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    assert_ne!(run("9007199254740993"), run("9007199254740992"));
}
