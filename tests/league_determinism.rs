//! Same-seed determinism of `experiments league`: two runs with identical
//! seeds — one on the default thread count, one serial — must emit
//! byte-identical `league.csv` and `league_rank.csv` files (the CI
//! league-smoke job enforces the same diff on release builds), and a
//! different seed must actually move the numbers — a constant output would
//! pass the diff while measuring nothing.

use std::path::PathBuf;
use std::process::Command;

fn run_league(tag: &str, seed: u64, extra: &[&str]) -> (String, String) {
    let mut out = std::env::temp_dir();
    out.push(format!("onesched-league-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--out",
            out.to_str().expect("utf-8 temp path"),
            "--sizes",
            "8",
            "--seed",
            &seed.to_string(),
        ])
        .args(extra)
        .arg("league")
        .status()
        .expect("spawn experiments league");
    assert!(status.success(), "league run failed");
    let read = |name: &str| -> String {
        let mut p = PathBuf::from(&out);
        p.push(name);
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let result = (read("league.csv"), read("league_rank.csv"));
    let _ = std::fs::remove_dir_all(&out);
    result
}

#[test]
fn same_seed_league_runs_are_byte_identical() {
    let (csv_a, rank_a) = run_league("a", 42, &[]);
    let (csv_b, rank_b) = run_league("b", 42, &["--threads", "1"]);
    assert_eq!(
        csv_a, csv_b,
        "league.csv must be seed-deterministic at any thread count"
    );
    assert_eq!(
        rank_a, rank_b,
        "league_rank.csv must be seed-deterministic at any thread count"
    );

    // sanity on the table shape: a header plus one row per
    // scheduler × testbed × model cell, every scheduler ranked
    let rows = csv_a.lines().count() - 1;
    let ranked = rank_a.lines().count() - 1;
    assert_eq!(rows % ranked, 0, "cells cover every scheduler evenly");
    assert!(ranked >= 11, "the full catalog is ranked (got {ranked})");

    let (csv_c, _) = run_league("c", 7, &[]);
    assert_ne!(csv_a, csv_c, "a different seed must move the measurements");
}
