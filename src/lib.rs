//! # onesched — one-port task-graph scheduling for heterogeneous processors
//!
//! A full reproduction of *“A Realistic Model and an Efficient Heuristic for
//! Scheduling with Heterogeneous Processors”* (Beaumont, Boudet, Robert,
//! IPDPS 2002): the bi-directional one-port communication model, the
//! one-port adaptations of HEFT and ILHA, the six classical testbeds of the
//! evaluation, exact solvers for the paper's NP-completeness gadgets, and a
//! benchmark harness regenerating every figure.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`dag`] — task graphs (`TaskGraph`, iso-levels, bottom levels);
//! * [`platform`] — processors, link matrices, routing, speedup bounds;
//! * [`sim`] — communication models, schedules, resource timelines, the
//!   validator, ASCII Gantt charts;
//! * [`heuristics`] — HEFT and ILHA under the one-port model (the paper's
//!   contribution), placement machinery, B-sweeps;
//! * [`registry`] — canonical `SchedulerSpec` addressing, discovery and
//!   construction for every scheduler in the workspace, plus the
//!   best-of-all-members portfolio;
//! * [`baselines`] — CPOP, GDL, BIL, PCT, min-min, … for comparisons;
//! * [`testbeds`] — LU, LAPLACE, STENCIL, FORK-JOIN, DOOLITTLE, LDMt;
//! * [`exact`] — 2-PARTITION, FORK-SCHED and COMM-SCHED exact solvers;
//! * [`exec`] — the discrete-event execution engine: replay a constructed
//!   schedule forward in virtual time under seeded runtime perturbation
//!   (task-duration noise, bandwidth degradation, link outages) and report
//!   predicted-vs-executed makespan degradation;
//! * [`prof`] — the counting global allocator behind the `profiling`
//!   feature: phase-scoped allocation accounting for spans and benches,
//!   observation-only by construction;
//! * [`service`] — the long-running batch scheduling service behind the
//!   `onesched-svc` daemon: NDJSON job protocol, priority queue, schedule
//!   cache, worker pool, and workload generators;
//! * [`regress`] — schedule fingerprints backing the schedule-equivalence
//!   regression tests.
//!
//! ## Quickstart
//!
//! ```
//! use onesched::prelude::*;
//!
//! // The paper's experimental setup: LU at size 20, c = 10, 10 processors.
//! let graph = Testbed::Lu.generate(20, PAPER_C);
//! let platform = Platform::paper();
//!
//! let heft = Heft::new().schedule(&graph, &platform, CommModel::OnePortBidir);
//! let ilha = Ilha::new(4).schedule(&graph, &platform, CommModel::OnePortBidir);
//!
//! // Both schedules satisfy every one-port constraint...
//! assert!(onesched::sim::validate(&graph, &platform, CommModel::OnePortBidir, &heft).is_empty());
//! assert!(onesched::sim::validate(&graph, &platform, CommModel::OnePortBidir, &ilha).is_empty());
//! // ...and neither beats the model-independent lower bound.
//! let lb = onesched::sim::stats::makespan_lower_bound(&graph, &platform);
//! assert!(heft.makespan() >= lb && ilha.makespan() >= lb);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use onesched_baselines as baselines;
pub use onesched_dag as dag;
pub use onesched_exact as exact;
pub use onesched_exec as exec;
pub use onesched_heuristics as heuristics;
pub use onesched_platform as platform;
pub use onesched_prof as prof;
pub use onesched_service as service;
pub use onesched_sim as sim;
pub use onesched_testbeds as testbeds;
pub use onesched_trace as trace;

/// The scheduler registry: canonical `SchedulerSpec` addressing for every
/// scheduler in the workspace. `build`, `list` and `concrete_specs` all
/// read the one composed catalog, baseline kinds included.
pub mod registry {
    pub use onesched_baselines::registry::{build, catalog, concrete_specs};
    pub use onesched_heuristics::registry::{
        Catalog, KindInfo, ParseError, Portfolio, SchedulerSpec, UnknownScheduler,
    };

    /// Every kind in the full workspace catalog.
    pub fn list() -> Vec<KindInfo> {
        catalog().list()
    }
}

pub mod regress;

/// The most common imports in one line.
pub mod prelude {
    pub use onesched_dag::{TaskGraph, TaskGraphBuilder, TaskId};
    pub use onesched_heuristics::{Heft, Ilha, PlacementPolicy, Scheduler};
    pub use onesched_platform::{Platform, ProcId};
    pub use onesched_sim::{CommModel, Schedule};
    pub use onesched_testbeds::{Testbed, PAPER_C};
}
