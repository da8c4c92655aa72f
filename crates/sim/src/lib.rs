//! # onesched-sim — schedules, resource timelines, and the validator
//!
//! This crate is the execution-model substrate of the reproduction: it knows
//! what a *valid* schedule is under each communication model of the paper and
//! provides the resource bookkeeping the heuristics use to build one.
//!
//! * [`CommModel`] — the four communication models (macro-dataflow and the
//!   one-port family, paper §2), and the timelines ([`Claim`]s) each model
//!   makes a transfer or a task occupy — the one table schedule
//!   construction and replay both read.
//! * [`Timeline`] / [`TimeInterval`] — sorted busy-interval sets with
//!   earliest-gap queries.
//! * [`ResourcePool`] / [`Txn`] — per-processor compute/send/receive port
//!   state with *transactional* tentative placement, so a scheduler can
//!   evaluate every candidate processor (including the communications it
//!   would trigger) and commit only the winner (paper §4.3).
//! * [`Schedule`] — the produced mapping: task placements plus explicit
//!   communication placements.
//! * [`ExecutionTrace`] / [`trace_fingerprint`] — the *executed* counterpart
//!   of a schedule, produced by the `onesched-exec` discrete-event engine;
//!   the fingerprint covers communication times too, so replays can be
//!   checked bit-exact and perturbed runs checked deterministic.
//! * [`validate()`] — an independent checker that verifies *every* constraint
//!   of the chosen model; all heuristics in the workspace are tested against
//!   it.
//! * [`gantt`] — ASCII Gantt rendering for debugging and the examples.

#![warn(missing_docs)]
// Burn-down: pre-existing unwrap/expect/panic sites are grandfathered
// here and tracked per (file, lint) by `onesched-analyze` via the committed
// analyze-baseline.json; new code must use typed errors instead. Remove
// this allow once the crate's P-lint counts reach zero. See ANALYSIS.md.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod gantt;
mod interval;
mod model;
mod resources;
mod schedule;
pub mod stats;
mod trace;
pub mod validate;

pub use interval::{TimeInterval, Timeline, EPS};
pub use model::{Claim, Claims, CommModel, Port};
pub use resources::{ResourcePool, StagedPlacements, Txn, TxnBuffers};
pub use schedule::{placement_fingerprint, CommPlacement, Schedule, TaskPlacement};
pub use trace::{trace_fingerprint, ExecutionTrace};
pub use validate::{validate, ScheduleViolation};
