//! # onesched-heuristics — HEFT and ILHA under the one-port model
//!
//! The primary contribution of the reproduced paper (Beaumont, Boudet,
//! Robert, IPDPS 2002): list-scheduling heuristics for heterogeneous
//! processors that serialize communications according to the bi-directional
//! one-port model.
//!
//! * [`Heft`] — the Heterogeneous Earliest Finish Time heuristic of
//!   Topcuoglu/Hariri/Wu, adapted to the one-port model (§4.3): when the
//!   highest-priority ready task is placed, its incoming messages are
//!   greedily scheduled on the senders' send ports and the candidate's
//!   receive port.
//! * [`Ilha`] — the Iso-Level Heterogeneous Allocation heuristic (§4.4):
//!   schedules a chunk of `B` ready tasks at once; first places tasks that
//!   incur *no* communication under a load-balancing cap, then falls back to
//!   HEFT-style earliest-finish placement for the rest.
//! * [`distribution`] — the optimal integer load-balancing distribution of
//!   §4.2.
//! * [`avg_weights`] — the heterogeneous cost averaging used for bottom
//!   levels (§4.1).
//! * [`resched`] — the §4.4 "second variation": keep only the allocation and
//!   greedily re-schedule all communications in a third step.
//! * [`bsweep`] — experimental search for the chunk size `B` (the paper
//!   found the best `B` by trying several values; §5.3).
//! * [`registry`] — the scheduler registry: canonical
//!   [`registry::SchedulerSpec`] addressing for every scheduler in the
//!   workspace, plus the best-of-all-members [`registry::Portfolio`].
//! * [`par_map`] — the one ordered, bounded, panic-tolerant fan-out that
//!   portfolios, sweeps and the experiment tables share.
//!
//! Every scheduler works under all four [`CommModel`]s through the same
//! transactional resource machinery — the macro-dataflow variants of HEFT
//! and ILHA are the same code with free communication ports.
//!
//! One placement engine ([`best_placement`], [`place_on`], [`stage_on`])
//! serves every heuristic. It walks each message's static route hop by
//! hop, so every scheduler also runs on networks without a direct link
//! between every pair (the §4.3 extension); on a fully connected platform
//! every route is the direct link. The platform owns its route table
//! ([`onesched_platform::Platform::routes`]), so callers never build or
//! pass one. Every scheduler refuses a disconnected platform with
//! [`RoutedError`] through [`Scheduler::try_schedule`].

#![warn(missing_docs)]
// Burn-down: pre-existing unwrap/expect/panic sites are grandfathered
// here and tracked per (file, lint) by `onesched-analyze` via the committed
// analyze-baseline.json; new code must use typed errors instead. Remove
// this allow once the crate's P-lint counts reach zero. See ANALYSIS.md.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod avg_weights;
pub mod bsweep;
pub mod distribution;
mod heft;
mod ilha;
mod par;
mod placement;
pub mod probe;
pub mod registry;
pub mod resched;
mod scheduler;

pub use heft::Heft;
pub use ilha::{Ilha, ScanDepth};
pub use par::{default_threads, par_map};
pub use placement::{
    best_placement, best_placement_with, commit_placement, place_on, stage_on, CommOrder,
    EftScratch, PlacementPolicy, TentativePlacement,
};
pub use probe::{NoProbe, Phase, Probe, ScanStats};
pub use scheduler::{RoutedError, Scheduler};

// Re-export the model enum so downstream users need one import.
pub use onesched_sim::CommModel;
