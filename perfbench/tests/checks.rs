//! Each workload's output check must fail the whole run: with the fault
//! hook spoiling one output, the benchmark exits nonzero, names the
//! mismatch, and prints no result line.

use std::process::Command;

fn run_corrupted(workload: &str, at: u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--corrupt-at", &at.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{workload}: a spoiled output passed");
    assert!(stderr.contains("output mismatch"), "{workload}: {stderr}");
    assert!(
        !stdout.contains("\"correct\""),
        "{workload}: printed a result: {stdout}"
    );
}

#[test]
fn chain_fails_on_a_replay_that_does_not_reproduce() {
    run_corrupted("chain", 1);
}

#[test]
fn archive_fails_on_a_get_that_is_not_byte_identical() {
    run_corrupted("archive", 0);
}

#[test]
fn service_fails_on_a_get_that_is_not_byte_identical() {
    run_corrupted("service", 5);
}
