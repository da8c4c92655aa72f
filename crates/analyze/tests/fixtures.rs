//! Fixture tests: each fixture is a small Rust source scanned through the
//! full lexer → mask → check → suppress pipeline, asserted against the
//! exact `(lint, line)` pairs it must produce. Lines are 1-based and count
//! from the first line of the string literal (the leading `\n` of a raw
//! string spanning multiple lines is line 1's terminator, so code starts
//! on line 2 — every fixture below therefore starts with its first code
//! line immediately after the opening quote).

use onesched_analyze::scan::scan_source;

/// Scan a fixture as library code of crate `krate` and return the
/// `(lint, line)` pairs in sorted order.
fn pairs(krate: &str, src: &str) -> Vec<(&'static str, u32)> {
    let scan = scan_source("fixture.rs", krate, src);
    scan.findings.iter().map(|f| (f.lint, f.line)).collect()
}

fn warnings(krate: &str, src: &str) -> Vec<String> {
    scan_source("fixture.rs", krate, src).warnings
}

#[test]
fn panic_family_exact_lines() {
    let src = "fn f(o: Option<u32>) -> u32 {\n\
               let a = o.unwrap();\n\
               let b = o.expect(\"msg\");\n\
               if a > b { panic!(\"boom\"); }\n\
               unreachable!()\n\
               }\n";
    assert_eq!(
        pairs("dag", src),
        vec![("P201", 2), ("P202", 3), ("P203", 4), ("P204", 5)]
    );
}

#[test]
fn indexing_is_p205_but_types_and_macros_are_not() {
    let src = "fn f(v: Vec<u32>, m: [u32; 4]) -> u32 {\n\
               let x: [u32; 2] = [0, 1];\n\
               let w = vec![1, 2, 3];\n\
               v[0] + m[1] + x[0] + w[2]\n\
               }\n";
    // Line 2 is an array type + literal, line 3 a macro: no findings.
    // Line 4 has four index expressions.
    assert_eq!(
        pairs("dag", src),
        vec![("P205", 4), ("P205", 4), ("P205", 4), ("P205", 4)]
    );
}

#[test]
fn determinism_lints_are_crate_scoped() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
               let m: HashMap<u32, u32> = HashMap::new();\n\
               let t = std::time::Instant::now();\n\
               }\n";
    // `sim` is in both the D101 (hot-path) and D102 (pure-construction)
    // scopes; every HashMap/Instant mention fires, and the literal
    // `Instant::now()` call additionally fires the workspace-wide D104.
    assert_eq!(
        pairs("sim", src),
        vec![
            ("D101", 1),
            ("D101", 3),
            ("D101", 3),
            ("D102", 4),
            ("D104", 4)
        ]
    );
    // `analyze` is in neither D101/D102 scope, but D104 still fires on
    // the literal clock read.
    assert_eq!(pairs("analyze", src), vec![("D104", 4)]);
}

#[test]
fn baselines_is_pure_construction_but_not_hot_path() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
               let m: HashMap<u32, u32> = HashMap::new();\n\
               let t = std::time::Instant::now();\n\
               let d = m.len() + v[0];\n\
               }\n";
    // `baselines` is in the D102 (pure-construction) scope — wall clocks
    // fire — but not in D101 (hot-path), so HashMap is tolerated. The
    // panic family applies like in every scanned crate.
    assert_eq!(
        pairs("baselines", src),
        vec![("D102", 4), ("D104", 4), ("P205", 5)]
    );
}

#[test]
fn unseeded_rng_fires_everywhere() {
    let src = "fn f() {\n\
               let mut rng = rand::rngs::SmallRng::from_entropy();\n\
               let r = rand::thread_rng();\n\
               }\n";
    assert_eq!(pairs("analyze", src), vec![("D103", 2), ("D103", 3)]);
}

#[test]
fn hand_rolled_fan_outs_are_d105_outside_par_map_and_the_daemon() {
    let src = "fn f(items: &[u32]) {\n\
               std::thread::scope(|s| {\n\
               s.spawn(|| items.len());\n\
               });\n\
               let h = thread::spawn(|| 1);\n\
               }\n";
    let at = |rel: &str| -> Vec<(&'static str, u32)> {
        scan_source(rel, "x", src)
            .findings
            .iter()
            .map(|f| (f.lint, f.line))
            .collect()
    };
    // a scoped pool and a bare spawn in a member crate both fire; the
    // scope's own `s.spawn` is part of the flagged pool, not a second site
    assert_eq!(
        at("crates/service/src/cache.rs"),
        vec![("D105", 2), ("D105", 5)]
    );
    // the one fan-out and the daemon's worker pool are the sanctioned sites
    assert!(at("crates/heuristics/src/par.rs").is_empty());
    assert!(at("crates/service/src/service.rs").is_empty());
    // binaries and the facade are outside the lint's scope
    assert!(at("src/regress.rs").is_empty());
}

#[test]
fn test_code_is_exempt() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               fn helper(o: Option<u32>) -> u32 {\n\
               o.unwrap()\n\
               }\n\
               }\n\
               #[test]\n\
               fn check() {\n\
               Some(1).expect(\"fine in tests\");\n\
               }\n\
               fn library(o: Option<u32>) -> u32 {\n\
               o.unwrap()\n\
               }\n";
    // Only the library fn outside any test gating fires.
    assert_eq!(pairs("dag", src), vec![("P201", 12)]);
}

#[test]
fn cfg_not_test_is_production() {
    let src = "#[cfg(not(test))]\n\
               fn f(o: Option<u32>) -> u32 {\n\
               o.unwrap()\n\
               }\n";
    assert_eq!(pairs("dag", src), vec![("P201", 3)]);
}

#[test]
fn allow_suppresses_same_and_next_line() {
    let src = "fn f(o: Option<u32>) -> u32 {\n\
               // analyze:allow(P201): fixture shows next-line suppression\n\
               o.unwrap()\n\
               }\n\
               fn g(o: Option<u32>) -> u32 {\n\
               o.unwrap() // analyze:allow(P201): same-line suppression\n\
               }\n";
    assert_eq!(pairs("dag", src), vec![]);
    assert_eq!(warnings("dag", src), Vec::<String>::new());
}

#[test]
fn unused_and_unknown_allows_warn() {
    let src = "// analyze:allow(P201): nothing to suppress here\n\
               // analyze:allow(Z999): no such lint\n\
               fn f() {}\n";
    assert_eq!(pairs("dag", src), vec![]);
    let w = warnings("dag", src);
    assert_eq!(w.len(), 2);
    assert!(w.iter().any(|m| m.contains("unused allow")), "{w:?}");
    assert!(w.iter().any(|m| m.contains("unknown lint")), "{w:?}");
}

#[test]
fn txn_without_resolution_is_t301() {
    let src = "fn bad(pool: &mut ResourcePool) {\n\
               let txn = pool.begin();\n\
               txn.stage(1.0);\n\
               }\n\
               fn good(pool: &mut ResourcePool) {\n\
               let txn = pool.begin();\n\
               txn.commit();\n\
               }\n\
               fn handed_off(pool: &mut ResourcePool) {\n\
               evaluate(pool.begin());\n\
               }\n\
               fn tail(pool: &mut ResourcePool) -> Txn {\n\
               pool.begin()\n\
               }\n";
    assert_eq!(pairs("heuristics", src), vec![("T301", 2)]);
}

#[test]
fn occupy_without_commit_is_t302() {
    let src = "fn bad(pool: &mut ResourcePool) {\n\
               pool.occupy_batch(&claims);\n\
               }\n\
               fn good(pool: &mut ResourcePool) {\n\
               pool.occupy_batch(&claims);\n\
               pool.commit_batch();\n\
               }\n";
    assert_eq!(pairs("heuristics", src), vec![("T302", 2)]);
}
