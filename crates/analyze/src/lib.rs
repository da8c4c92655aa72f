//! `onesched-analyze`: a workspace determinism & panic-safety auditor.
//!
//! The reproduction's promises — bit-identical schedules, same-seed
//! perturbation replays, cache-served repeats — rest on invariants no
//! compiler checks: construction/execution code must be deterministic and
//! library crates must not panic on user-supplied specs. This crate makes
//! those invariants machine-checked: a hand-rolled lexer ([`lexer`]), eleven
//! token-level lints in three families ([`lints`], [`scan`]), and a
//! committed burn-down baseline ([`baseline`]) that ratchets existing
//! violations downward while blocking new ones.
//!
//! See `ANALYSIS.md` at the workspace root for the lint table, the inline
//! `analyze:allow` syntax, and the burn-down workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod lints;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use baseline::{Baseline, Gate};
use scan::Finding;

/// Schema tag for the JSON report (`--report`).
pub const REPORT_SCHEMA: &str = "onesched-analyze-report/v1";

/// Result of auditing a workspace tree.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings after inline suppression, sorted by `(file, line)`.
    pub findings: Vec<Finding>,
    /// Non-gating warnings (malformed/unknown/unused allows).
    pub warnings: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Per-lint count in the report summary.
#[derive(Debug, Serialize)]
pub struct LintTotal {
    /// Lint id.
    pub lint: String,
    /// Findings of that lint (after suppression) in this scan.
    pub count: usize,
}

/// The JSON report uploaded as a CI artifact.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Total findings after suppression.
    pub total_findings: usize,
    /// Per-lint totals, report order.
    pub totals: Vec<LintTotal>,
    /// Gate outcome against the committed baseline.
    pub gate: Gate,
    /// Non-gating warnings.
    pub warnings: Vec<String>,
}

/// Build the report for a finished analysis and gate.
pub fn report(analysis: &Analysis, gate: Gate) -> Report {
    let totals = lints::LINTS
        .iter()
        .map(|l| LintTotal {
            lint: l.id.to_string(),
            count: analysis.findings.iter().filter(|f| f.lint == l.id).count(),
        })
        .collect();
    Report {
        schema: REPORT_SCHEMA.to_string(),
        files_scanned: analysis.files_scanned,
        total_findings: analysis.findings.len(),
        totals,
        gate,
        warnings: analysis.warnings.clone(),
    }
}

/// Scan scope: library sources only. `crates/*/src/**` plus the root
/// facade `src/**` minus `src/bin` (binaries may print-and-exit), and
/// never `tests/`, `benches/`, `examples/`, `vendor/`, or `target/`.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files, &[])?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut files, &["bin"])?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>, skip_dirs: &[&str]) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !skip_dirs.contains(&name.as_str()) {
                walk_rs(&path, out, &[])?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path for reports and the baseline.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Crate name a workspace-relative path belongs to (`crates/<name>/src/…`
/// → `<name>`; the root facade's `src/…` → `onesched`).
fn crate_of(rel: &str) -> &str {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("onesched"),
        None => "onesched",
    }
}

/// Audit the workspace rooted at `root`: collect in-scope files, scan each,
/// and return merged findings and warnings.
pub fn analyze_root(root: &Path) -> io::Result<Analysis> {
    let files = collect_files(root)?;
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };
    for path in &files {
        let src = fs::read_to_string(path)?;
        let rel = rel_path(root, path);
        let scan = scan::scan_source(&rel, crate_of(&rel), &src);
        analysis.findings.extend(scan.findings);
        analysis.warnings.extend(scan.warnings);
    }
    analysis.findings.sort();
    analysis.warnings.sort();
    Ok(analysis)
}

/// Load a baseline file; a missing file is an empty baseline (first run).
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Baseline::default()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let base: Baseline =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    if base.schema != baseline::SCHEMA {
        return Err(format!(
            "{}: unsupported schema `{}` (expected `{}`)",
            path.display(),
            base.schema,
            baseline::SCHEMA
        ));
    }
    Ok(base)
}

/// Locate the workspace root: walk up from `start` looking for a
/// `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/sim/src/resources.rs"), "sim");
        assert_eq!(crate_of("src/lib.rs"), "onesched");
        assert_eq!(crate_of("src/regress.rs"), "onesched");
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn scope_skips_bins_tests_and_vendor() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = collect_files(&root).expect("collect");
        assert!(!files.is_empty());
        for f in &files {
            let rel = rel_path(&root, f);
            assert!(
                !rel.contains("vendor/")
                    && !rel.contains("/tests/")
                    && !rel.starts_with("src/bin/")
                    && !rel.contains("/benches/")
                    && !rel.contains("/examples/"),
                "out of scope: {rel}"
            );
        }
        assert!(files
            .iter()
            .any(|f| rel_path(&root, f).starts_with("crates/sim/")));
    }
}
