//! Both binaries reject a malformed command line with exit status 2 and a
//! one-line message naming the binary, never with a panic (exit 101).

use std::process::Command;

fn assert_usage_error(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {err}");
    assert!(
        err.starts_with(&format!("{name}: ")) && !err.contains("panicked"),
        "{name} {args:?}: {err}"
    );
}

#[test]
fn experiments_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    for args in [
        &["--sizes"][..],
        &["probe"],
        &["probe", "LU"],
        &["probe", "no-such-testbed", "10"],
        &["probe", "LU", "ten"],
        &["--threads", "x", "fig1"],
        &["--sizes", "12,x", "fig8"],
        &["no-such-command"],
        &["bench-compare", "a.json", "b.json"],
        // a flag after the command is not a flag of the command
        &[
            "--out",
            concat!(env!("CARGO_TARGET_TMPDIR"), "/trailing"),
            "fig1",
            "--sizze",
            "12",
        ],
        &["probe", "LU", "12", "extra"],
    ] {
        assert_usage_error(bin, "experiments", args);
    }
}

/// An I/O failure or a job the daemon's intake refuses also exits 2 with a
/// message naming the path or the limit, never with a panic.
#[test]
fn experiments_reports_io_failures_and_refused_jobs() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    // a directory cannot be created below a regular file
    let below_file = format!("{bin}/x");
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/refused");
    for args in [
        &["--out", below_file.as_str(), "fig1"][..],
        &["--out", out, "--sizes", "100000", "fig8"],
        &["--out", out, "--tasks", "5000000", "stress"],
    ] {
        assert_usage_error(bin, "experiments", args);
    }
}

#[test]
fn onesched_svc_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_onesched-svc");
    for args in [
        &["gen", "--seed"][..],
        &["gen", "--n", "x"],
        &["gen", "--scheduler", "ilha(b="],
        &["serve", "--workers", "-1"],
    ] {
        assert_usage_error(bin, "onesched-svc", args);
    }
}
