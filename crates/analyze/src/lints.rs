//! The lint table: three families, eleven lints.
//!
//! - **D-lints** guard determinism: the reproduction promises bit-identical
//!   schedules and same-seed replays, so construction/execution code must
//!   not iterate hashed collections, read wall clocks, seed RNGs from
//!   the environment, or fan work out over hand-rolled thread pools.
//! - **P-lints** guard panic-safety: library crates must return errors on
//!   malformed input instead of killing the caller (the service daemon's
//!   worker pool in particular).
//! - **T-lints** guard transaction discipline in the simulator's resource
//!   pool: a staged `Txn` must be resolved on every lexical path, and
//!   `occupy_batch` reservations must be paired with `commit_batch`.

/// Lint family, for grouping in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// D-lints: nondeterminism hazards.
    Determinism,
    /// P-lints: panic hazards in library code.
    PanicSafety,
    /// T-lints: resource-transaction discipline.
    Transaction,
}

impl Family {
    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::PanicSafety => "panic-safety",
            Family::Transaction => "transaction",
        }
    }
}

/// One lint: stable id, family, and a one-line description.
#[derive(Debug, Clone, Copy)]
pub struct Lint {
    /// Stable id used in reports, allows, and the baseline (e.g. `P201`).
    pub id: &'static str,
    /// Which family the lint belongs to.
    pub family: Family,
    /// One-line description shown in reports and `--list-lints`.
    pub summary: &'static str,
}

/// All lints, in report order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "D101",
        family: Family::Determinism,
        summary: "HashMap/HashSet in a hot-path crate (sim, heuristics, exec, service): \
                  iteration order is nondeterministic; use BTreeMap/BTreeSet or a Vec",
    },
    Lint {
        id: "D102",
        family: Family::Determinism,
        summary: "Instant/SystemTime in pure construction code (dag, platform, sim, \
                  heuristics, testbeds, exact, baselines): wall clocks break replayability",
    },
    Lint {
        id: "D103",
        family: Family::Determinism,
        summary: "unseeded RNG construction (from_entropy, thread_rng, OsRng, from_os_rng): \
                  seeds must come from the spec so runs are reproducible",
    },
    Lint {
        id: "D104",
        family: Family::Determinism,
        summary: "literal Instant::now() call: wall-clock reads must go through the \
                  onesched-trace Clock trait so traced runs replay deterministically \
                  (the sole sanctioned site is WallClock in crates/trace/src/clock.rs)",
    },
    Lint {
        id: "D105",
        family: Family::Determinism,
        summary: "a std::thread scope or spawn in crates/*/src outside par_map and the \
                  service worker pool: fan out through onesched_heuristics::par_map, which \
                  returns results in input order whatever the thread count",
    },
    Lint {
        id: "P201",
        family: Family::PanicSafety,
        summary: ".unwrap() in library code outside tests",
    },
    Lint {
        id: "P202",
        family: Family::PanicSafety,
        summary: ".expect(..) in library code outside tests",
    },
    Lint {
        id: "P203",
        family: Family::PanicSafety,
        summary: "panic!(..) in library code outside tests",
    },
    Lint {
        id: "P204",
        family: Family::PanicSafety,
        summary: "unreachable!/todo!/unimplemented! in library code outside tests",
    },
    Lint {
        id: "P205",
        family: Family::PanicSafety,
        summary: "slice/collection indexing `x[i]` in library code outside tests: \
                  prefer .get() with an error path",
    },
    Lint {
        id: "T301",
        family: Family::Transaction,
        summary: "Txn staged via begin()/begin_with() but never resolved (commit, \
                  commit_batch, finish, into_buffers, rollback) in the same function",
    },
    Lint {
        id: "T302",
        family: Family::Transaction,
        summary: "occupy_batch(..) reservation without a paired commit/commit_batch \
                  in the same function",
    },
];

/// Look up a lint by id.
pub fn lint_by_id(id: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.id == id)
}

/// Crates whose non-test code is scanned for D101 (hashed-collection use on
/// schedule-construction / execution / service hot paths).
pub const D101_CRATES: &[&str] = &["sim", "heuristics", "exec", "service"];

/// Files exempt from D104: the one place allowed to read the wall clock
/// directly, because it *implements* the `Clock` abstraction everything
/// else is required to use.
pub const D104_EXEMPT_FILES: &[&str] = &["crates/trace/src/clock.rs"];

/// Files exempt from D105: the one fan-out (`par_map`) and the daemon,
/// whose long-lived worker pool and per-connection intake threads are not
/// fan-outs over a fixed item list.
pub const D105_EXEMPT_FILES: &[&str] = &[
    "crates/heuristics/src/par.rs",
    "crates/service/src/service.rs",
];

/// Crates whose non-test code is scanned for D102 (wall-clock reads in pure
/// construction code). The service and exec-engine crates legitimately
/// measure wall time for latency stats; pure model crates must not.
pub const D102_CRATES: &[&str] = &[
    "dag",
    "platform",
    "sim",
    "heuristics",
    "testbeds",
    "exact",
    "baselines",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_resolvable() {
        for (i, l) in LINTS.iter().enumerate() {
            assert!(lint_by_id(l.id).is_some());
            assert!(
                LINTS.iter().skip(i + 1).all(|m| m.id != l.id),
                "duplicate id {}",
                l.id
            );
        }
        assert!(lint_by_id("Z999").is_none());
    }
}
