//! # onesched-testbeds — the six classical task-graph kernels of §5
//!
//! Generators for the testbeds used in the paper's evaluation —
//! LU, LAPLACE, STENCIL, FORK-JOIN, DOOLITTLE, LDMt — plus the worked
//! examples (the Figure 1 fork, the §4.4 toy graph) and random layered DAGs
//! for property-based testing.
//!
//! ## Weight and communication rules (§5.2)
//!
//! * LAPLACE, STENCIL, FORK-JOIN: all task weights are 1.
//! * LU: a task at elimination step `k` (0-based) has weight `n − k`.
//! * DOOLITTLE and LDMt: a task at step `k` (1-based) has weight `k`.
//! * Every edge carries `data(u, v) = c × w(u)` — "we always communicate the
//!   data that has just been updated" — where `c` is the
//!   communication-to-computation ratio of the platform (the paper uses
//!   `c = 10`, "representative of workstations linked with a slow (Ethernet)
//!   network").
//!
//! The paper shows the graph shapes only as miniature raster figures; the
//! shapes here are reconstructed from the standard elimination-DAG
//! literature the paper cites; each generator's documentation states the
//! task and edge structure it builds.

#![warn(missing_docs)]
// Burn-down: pre-existing unwrap/expect/panic sites are grandfathered
// here and tracked per (file, lint) by `onesched-analyze` via the committed
// analyze-baseline.json; new code must use typed errors instead. Remove
// this allow once the crate's P-lint counts reach zero. See ANALYSIS.md.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

mod elimination;
mod forkjoin;
mod grids;
mod random;
mod toy;

pub use elimination::{doolittle, ldmt, lu};
pub use forkjoin::{fork, fork_join};
pub use grids::{laplace, stencil};
pub use random::{random_layered, RandomDagConfig};
pub use toy::{toy, toy_ids};

use onesched_dag::TaskGraph;

/// The paper's default communication-to-computation ratio (§5.2).
pub const PAPER_C: f64 = 10.0;

/// The six testbeds of the evaluation section, as an enumerable set for
/// experiment harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Testbed {
    /// LU decomposition (Figure 8).
    Lu,
    /// Laplace equation solver — 2-D wavefront (Figure 9).
    Laplace,
    /// Iterated 1-D stencil (Figure 12).
    Stencil,
    /// Fork-join graph (Figure 7).
    ForkJoin,
    /// Doolittle reduction (Figure 11).
    Doolittle,
    /// LDMt decomposition (Figure 10).
    Ldmt,
}

impl Testbed {
    /// All six testbeds, in the paper's presentation order.
    pub const ALL: [Testbed; 6] = [
        Testbed::Lu,
        Testbed::Laplace,
        Testbed::Stencil,
        Testbed::ForkJoin,
        Testbed::Doolittle,
        Testbed::Ldmt,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Testbed::Lu => "LU",
            Testbed::Laplace => "LAPLACE",
            Testbed::Stencil => "STENCIL",
            Testbed::ForkJoin => "FORK-JOIN",
            Testbed::Doolittle => "DOOLITTLE",
            Testbed::Ldmt => "LDMt",
        }
    }

    /// Generate the testbed at problem size `n` with
    /// communication-to-computation ratio `c`.
    pub fn generate(self, n: usize, c: f64) -> TaskGraph {
        match self {
            Testbed::Lu => lu(n, c),
            Testbed::Laplace => laplace(n, c),
            Testbed::Stencil => stencil(n, c),
            Testbed::ForkJoin => fork_join(n, c),
            Testbed::Doolittle => doolittle(n, c),
            Testbed::Ldmt => ldmt(n, c),
        }
    }

    /// The experimentally best ILHA chunk size `B` reported in §5.3 for the
    /// 10-processor paper platform.
    pub fn paper_best_b(self) -> usize {
        match self {
            Testbed::Lu => 4,
            Testbed::Laplace => 38,
            Testbed::Stencil => 38,
            Testbed::ForkJoin => 38,
            Testbed::Doolittle => 20,
            Testbed::Ldmt => 20,
        }
    }

    /// The figure of the paper this testbed's size sweep reproduces.
    pub fn figure(self) -> u32 {
        match self {
            Testbed::ForkJoin => 7,
            Testbed::Lu => 8,
            Testbed::Laplace => 9,
            Testbed::Ldmt => 10,
            Testbed::Doolittle => 11,
            Testbed::Stencil => 12,
        }
    }
}

impl std::fmt::Display for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_testbeds_generate_valid_dags() {
        for tb in Testbed::ALL {
            let g = tb.generate(8, PAPER_C);
            assert!(g.num_tasks() > 0, "{tb}");
            assert!(g.num_edges() > 0, "{tb}");
        }
    }

    #[test]
    fn figures_and_bs_match_paper() {
        assert_eq!(Testbed::Lu.paper_best_b(), 4);
        assert_eq!(Testbed::Laplace.figure(), 9);
        let figs: std::collections::HashSet<u32> =
            Testbed::ALL.iter().map(|t| t.figure()).collect();
        assert_eq!(figs, (7..=12).collect());
    }

    #[test]
    fn comm_rule_data_is_c_times_source_weight() {
        for tb in Testbed::ALL {
            let g = tb.generate(6, PAPER_C);
            for e in g.edges() {
                let w = g.weight(e.src);
                assert!(
                    (e.data - PAPER_C * w).abs() < 1e-12,
                    "{tb}: edge data {} != c * w(src) = {}",
                    e.data,
                    PAPER_C * w
                );
            }
        }
    }
}
