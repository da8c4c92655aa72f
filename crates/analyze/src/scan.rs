//! Token-level lint checks over one lexed file.
//!
//! The scanner runs in four steps: lex, mask out test-only code
//! (`#[cfg(test)]` / `#[test]` items), run the per-token and per-function
//! checks, then apply inline `analyze:allow` suppressions. Everything is
//! heuristic but deliberately conservative: the lints fire on token
//! patterns that are unambiguous in this workspace's style, and anything
//! the heuristics get wrong is suppressible inline with a reason.

use crate::lexer::{self, TokKind, Token};
use crate::lints::{lint_by_id, D101_CRATES, D102_CRATES, D104_EXEMPT_FILES, D105_EXEMPT_FILES};

/// One lint violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable lint id (e.g. `P201`).
    pub lint: &'static str,
}

/// Result of scanning one file: findings plus non-gating warnings
/// (malformed, unknown-lint, or unused allow directives).
#[derive(Debug, Default)]
pub struct FileScan {
    /// Violations that survived suppression.
    pub findings: Vec<Finding>,
    /// Human-readable `file:line: message` warnings.
    pub warnings: Vec<String>,
}

/// Scan `src` (at workspace-relative path `rel`, belonging to crate
/// `krate`) and return surviving findings and warnings.
pub fn scan_source(rel: &str, krate: &str, src: &str) -> FileScan {
    let lexed = lexer::lex(src);
    let mask = test_mask(&lexed.tokens);
    let mut raw = check_tokens(rel, krate, &lexed.tokens, &mask);
    raw.extend(check_functions(rel, &lexed.tokens, &mask));
    raw.sort();

    let mut out = FileScan::default();
    for (line, text) in &lexed.malformed_allows {
        out.warnings.push(format!(
            "{rel}:{line}: malformed allow directive (expected \
             `analyze:allow(LINT-ID): reason`): {text}"
        ));
    }
    let mut used = vec![false; lexed.allows.len()];
    for f in raw {
        let suppressed = lexed.allows.iter().enumerate().any(|(k, a)| {
            let hit = a.lint == f.lint && (a.line == f.line || a.line + 1 == f.line);
            if hit {
                if let Some(u) = used.get_mut(k) {
                    *u = true;
                }
            }
            hit
        });
        if !suppressed {
            out.findings.push(f);
        }
    }
    for (k, a) in lexed.allows.iter().enumerate() {
        if lint_by_id(&a.lint).is_none() {
            out.warnings.push(format!(
                "{rel}:{}: allow names unknown lint `{}`",
                a.line, a.lint
            ));
        } else if !used.get(k).copied().unwrap_or(true) {
            out.warnings.push(format!(
                "{rel}:{}: unused allow for `{}` (no matching finding on this \
                 or the next line)",
                a.line, a.lint
            ));
        }
    }
    out
}

fn is_punct(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

fn ident_text(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn line_of(toks: &[Token], i: usize) -> u32 {
    toks.get(i).map(|t| t.line).unwrap_or(0)
}

/// Index of the token matching the opener at `open` (same bracket pair),
/// or the last token if unbalanced.
fn match_pair(toks: &[Token], open: usize, l: &str, r: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks, i, l) {
            depth += 1;
        } else if is_punct(toks, i, r) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Mark every token that belongs to test-only code: an item (fn, mod,
/// impl, …) preceded by an attribute containing the ident `test` (and not
/// `not`, so `#[cfg(not(test))]` stays production code), including the
/// attribute tokens themselves and any further stacked attributes.
fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(is_punct(toks, i, "#") && is_punct(toks, i + 1, "[")) {
            i += 1;
            continue;
        }
        let close = match_pair(toks, i + 1, "[", "]");
        let mut gated = false;
        let mut negated = false;
        for k in (i + 2)..close {
            match ident_text(toks, k) {
                Some("test") => gated = true,
                Some("not") => negated = true,
                _ => {}
            }
        }
        if !gated || negated {
            i = close + 1;
            continue;
        }
        // Mark this attribute, any stacked attributes after it, and the
        // item they decorate.
        for m in mask.iter_mut().take(close + 1).skip(i) {
            *m = true;
        }
        let mut j = close + 1;
        while is_punct(toks, j, "#") && is_punct(toks, j + 1, "[") {
            let e = match_pair(toks, j + 1, "[", "]");
            for m in mask.iter_mut().take(e + 1).skip(j) {
                *m = true;
            }
            j = e + 1;
        }
        let end = item_end(toks, j);
        for m in mask.iter_mut().take(end + 1).skip(j) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Last token of the item starting at `j`: either the matching `}` of the
/// first body brace encountered at paren/bracket depth 0, or the first
/// `;` at depth 0 (braceless items like `use`/`struct S;`).
fn item_end(toks: &[Token], j: usize) -> usize {
    let mut depth = 0i64;
    let mut k = j;
    while k < toks.len() {
        if is_punct(toks, k, "(") || is_punct(toks, k, "[") {
            depth += 1;
        } else if is_punct(toks, k, ")") || is_punct(toks, k, "]") {
            depth -= 1;
        } else if depth == 0 && is_punct(toks, k, "{") {
            return match_pair(toks, k, "{", "}");
        } else if depth == 0 && is_punct(toks, k, ";") {
            return k;
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// Identifiers that may legitimately precede `[` without it being an
/// index expression (keywords introducing array types, patterns, …).
const NON_INDEX_PREFIX: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

fn check_tokens(rel: &str, krate: &str, toks: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |lint: &'static str, line: u32| {
        out.push(Finding {
            file: rel.to_string(),
            line,
            lint,
        });
    };
    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let line = line_of(toks, i);
        match ident_text(toks, i) {
            Some("unwrap")
                if is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(") =>
            {
                push("P201", line);
            }
            Some("expect")
                if is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(") =>
            {
                push("P202", line);
            }
            Some("panic") if is_punct(toks, i + 1, "!") => push("P203", line),
            Some("unreachable" | "todo" | "unimplemented") if is_punct(toks, i + 1, "!") => {
                push("P204", line);
            }
            Some("HashMap" | "HashSet") if D101_CRATES.contains(&krate) => push("D101", line),
            Some("Instant" | "SystemTime") if D102_CRATES.contains(&krate) => push("D102", line),
            Some("from_entropy" | "thread_rng" | "OsRng" | "from_os_rng") => push("D103", line),
            _ => {}
        }
        // D104: a literal `Instant::now()` call anywhere in the
        // workspace. Wall-clock reads must go through the trace crate's
        // `Clock` trait so traced runs replay deterministically; the one
        // sanctioned direct read is `WallClock` itself. Fires alongside
        // D102 in pure-model crates (both hazards are real there).
        if ident_text(toks, i) == Some("Instant")
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && ident_text(toks, i + 3) == Some("now")
            && !D104_EXEMPT_FILES.contains(&rel)
        {
            push("D104", line);
        }
        // D105: `thread::scope` / `thread::spawn` in a member crate's
        // sources. Parallel work goes through `par_map`, the one ordered
        // fan-out; the daemon's worker pool is the other sanctioned site.
        if ident_text(toks, i) == Some("thread")
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && matches!(ident_text(toks, i + 3), Some("scope" | "spawn"))
            && rel.starts_with("crates/")
            && !D105_EXEMPT_FILES.contains(&rel)
        {
            push("D105", line);
        }
        // P205: `[` preceded by an expression (identifier that is not a
        // keyword, `self`, a closing `)`/`]`). Macro brackets (`vec![`)
        // are excluded because `!` precedes the `[`.
        if is_punct(toks, i, "[") && i > 0 {
            let indexes = match toks.get(i - 1) {
                Some(t) if t.kind == TokKind::Ident => !NON_INDEX_PREFIX.contains(&t.text.as_str()),
                Some(t) if t.kind == TokKind::Punct => t.text == ")" || t.text == "]",
                _ => false,
            };
            if indexes {
                push("P205", line);
            }
        }
    }
    out
}

/// Identifiers that resolve a staged `Txn` (consume or roll it back).
const TXN_RESOLVERS: &[&str] = &[
    "commit",
    "commit_batch",
    "finish",
    "into_buffers",
    "rollback",
    "abandon",
];

/// T-lints: per-function discipline checks. Walks `fn` items (skipping
/// masked test code), segments each body by brace matching, and checks
/// transaction call sites inside.
fn check_functions(rel: &str, toks: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_fn = ident_text(toks, i) == Some("fn") && !mask.get(i).copied().unwrap_or(false);
        if !is_fn || ident_text(toks, i + 1).is_none() {
            i += 1; // `fn` pointer types (`fn(u32)`) have no name ident
            continue;
        }
        // Find the body `{` at paren/bracket depth 0; stop at `;` (trait
        // method declarations have no body).
        let mut depth = 0i64;
        let mut k = i + 2;
        let mut body: Option<(usize, usize)> = None;
        while k < toks.len() {
            if is_punct(toks, k, "(") || is_punct(toks, k, "[") {
                depth += 1;
            } else if is_punct(toks, k, ")") || is_punct(toks, k, "]") {
                depth -= 1;
            } else if depth == 0 && is_punct(toks, k, "{") {
                body = Some((k, match_pair(toks, k, "{", "}")));
                break;
            } else if depth == 0 && is_punct(toks, k, ";") {
                break;
            }
            k += 1;
        }
        let Some((b0, b1)) = body else {
            i += 2;
            continue;
        };
        check_txn_body(rel, toks, i, b0, b1, &mut out);
        // Continue *inside* the body so nested fns are still discovered
        // (the outer check already saw their tokens; that is conservative
        // in the safe direction for resolver detection).
        i = b0 + 1;
    }
    out
}

/// Check one function body (`b0..=b1` are the brace token indices; `f0`
/// is the `fn` keyword index) for T301 and T302.
fn check_txn_body(
    rel: &str,
    toks: &[Token],
    f0: usize,
    b0: usize,
    b1: usize,
    out: &mut Vec<Finding>,
) {
    let has_ident = |lo: usize, hi: usize, names: &[&str]| {
        (lo..=hi).any(|k| ident_text(toks, k).is_some_and(|t| names.contains(&t)))
    };
    let mut depth = 0i64;
    for k in (b0 + 1)..b1 {
        if is_punct(toks, k, "(") || is_punct(toks, k, "[") {
            depth += 1;
        } else if is_punct(toks, k, ")") || is_punct(toks, k, "]") {
            depth -= 1;
        }
        let called = |name: &str| {
            ident_text(toks, k) == Some(name)
                && is_punct(toks, k.wrapping_sub(1), ".")
                && is_punct(toks, k + 1, "(")
        };
        if called("begin") || called("begin_with") {
            // A txn created inside another call's argument list is handed
            // off — the callee owns resolution.
            if depth > 0 {
                continue;
            }
            let call_end = match_pair(toks, k + 1, "(", ")");
            // Tail expression: the txn is returned to the caller.
            if is_punct(toks, call_end + 1, "}") {
                continue;
            }
            if !has_ident(b0, b1, TXN_RESOLVERS) {
                out.push(Finding {
                    file: rel.to_string(),
                    line: line_of(toks, k),
                    lint: "T301",
                });
            }
        }
        if called("occupy_batch") && !has_ident(f0, b1, &["commit", "commit_batch"]) {
            out.push(Finding {
                file: rel.to_string(),
                line: line_of(toks, k),
                lint: "T302",
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_at(rel: &str, krate: &str, src: &str) -> Vec<(&'static str, u32)> {
        scan_source(rel, krate, src)
            .findings
            .into_iter()
            .map(|f| (f.lint, f.line))
            .collect()
    }

    #[test]
    fn test_code_is_masked() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { y.unwrap(); z[0]; }\n}\n";
        assert_eq!(lints_at("a.rs", "dag", src), vec![("P201", 1)]);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }\n";
        assert_eq!(lints_at("a.rs", "dag", src), vec![("P201", 2)]);
    }

    #[test]
    fn allows_suppress_and_unused_allows_warn() {
        let src = "fn f() {\n\
                   a.unwrap(); // analyze:allow(P201): checked above\n\
                   // analyze:allow(P201): next-line form\n\
                   b.unwrap();\n\
                   c.unwrap();\n\
                   }\n\
                   // analyze:allow(P203): nothing here\n";
        let scan = scan_source("a.rs", "dag", src);
        assert_eq!(
            scan.findings
                .iter()
                .map(|f| (f.lint, f.line))
                .collect::<Vec<_>>(),
            vec![("P201", 5)]
        );
        assert_eq!(scan.warnings.len(), 1, "{:?}", scan.warnings);
        assert!(scan.warnings.iter().any(|w| w.contains("unused allow")));
    }

    #[test]
    fn indexing_vs_non_indexing_brackets() {
        let good = "fn f(xs: &[u8]) -> Vec<[u8; 2]> { let [a, b] = ys; vec![0u8] }";
        assert_eq!(lints_at("a.rs", "dag", good), vec![]);
        let bad = "fn f() { xs[0]; self.ys[i + 1]; g()[2]; m[k][j]; }";
        assert_eq!(
            lints_at("a.rs", "dag", bad),
            vec![
                ("P205", 1),
                ("P205", 1),
                ("P205", 1),
                ("P205", 1),
                ("P205", 1)
            ]
        );
    }

    #[test]
    fn d_lints_respect_crate_scope() {
        let src = "use std::collections::HashMap;\nfn f(t: Instant) {}\n";
        assert_eq!(lints_at("a.rs", "sim", src), vec![("D101", 1), ("D102", 2)]);
        // exec measures wall time legitimately; service uses it for stats.
        assert_eq!(lints_at("a.rs", "exec", src), vec![("D101", 1)]);
        assert_eq!(lints_at("a.rs", "dag", src), vec![("D102", 2)]);
        assert_eq!(
            lints_at("a.rs", "dag", "fn f() { let r = StdRng::from_entropy(); }"),
            vec![("D103", 1)]
        );
    }

    #[test]
    fn instant_now_fires_everywhere_but_the_clock_impl() {
        let src = "fn f() { let t = Instant::now(); }\n";
        // fires in any crate, including ones D102 does not scan
        assert_eq!(
            lints_at("crates/service/src/a.rs", "service", src),
            vec![("D104", 1)]
        );
        assert_eq!(
            lints_at("crates/exec/src/a.rs", "exec", src),
            vec![("D104", 1)]
        );
        // in a D102 crate both wall-clock lints fire: the type and the call
        assert_eq!(
            lints_at("crates/sim/src/a.rs", "sim", src),
            vec![("D102", 1), ("D104", 1)]
        );
        // the Clock implementation itself is the sanctioned site
        assert_eq!(lints_at("crates/trace/src/clock.rs", "trace", src), vec![]);
        // a bare Instant type mention (no ::now) is not a D104
        assert_eq!(
            lints_at("crates/service/src/a.rs", "service", "fn f(d: Instant) {}"),
            vec![]
        );
    }

    #[test]
    fn txn_unresolved_fires_and_resolution_silences() {
        let bad = "fn f(pool: &mut ResourcePool) { let txn = pool.begin(); txn.stage(x); }";
        assert_eq!(lints_at("a.rs", "sim", bad), vec![("T301", 1)]);
        for good in [
            "fn f(p: &mut P) { let t = p.begin(); let s = t.finish(); p.commit(s); }",
            "fn f(p: &mut P) { let t = p.begin(); t.rollback(); }",
            // tail-returned txn is the caller's responsibility
            "fn f(p: &mut P) -> Txn { p.begin() }",
            // handed off inside another call's arguments
            "fn f(p: &mut P) { evaluate(p.begin(), x) }",
        ] {
            assert_eq!(lints_at("a.rs", "sim", good), vec![], "{good}");
        }
    }

    #[test]
    fn occupy_batch_needs_commit_pairing() {
        let bad = "fn stage(&mut self) { self.timeline.occupy_batch(&mut v); }";
        assert_eq!(lints_at("a.rs", "sim", bad), vec![("T302", 1)]);
        let good = "fn commit_batch(&mut self, v: &mut Vec<T>) { self.timeline.occupy_batch(v); }";
        assert_eq!(lints_at("a.rs", "sim", good), vec![]);
    }
}
