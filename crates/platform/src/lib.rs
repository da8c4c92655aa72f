//! # onesched-platform — heterogeneous computing-resource model
//!
//! Implements the resource side of the scheduling model (paper §2.1):
//! `P = (P, t, link)` — a set of processors `P_i`, each with a cycle-time
//! `t_i` (the inverse of its relative speed), and a communication matrix
//! `link(q, r)` giving the time to transfer one data item from `P_q` to
//! `P_r` (zero on the diagonal).
//!
//! Executing a task of weight `w` on `P_i` takes `w × t_i` time units;
//! sending `d` data items from `P_q` to `P_r` takes `d × link(q, r)`.
//!
//! The crate also provides:
//! * the paper's experimental platform (§5.2): ten processors — five with
//!   cycle-time 6, three with cycle-time 10, two with cycle-time 15 — over a
//!   fully homogeneous unit-latency network ([`Platform::paper`]);
//! * speedup upper bounds and the perfect-load-balance chunk size `B`
//!   ([`bounds`]);
//! * static shortest-path routing for non-fully-connected topologies
//!   (paper §4.3 extension: "if there is no direct link from P2 to P1, we
//!   redo the previous step for all intermediate messages between adjacent
//!   processors") in [`routing`]; each platform builds its table once, on
//!   first use ([`Platform::routes`]).

#![warn(missing_docs)]
// Burn-down: pre-existing unwrap/expect/panic sites are grandfathered
// here and tracked per (file, lint) by `onesched-analyze` via the committed
// analyze-baseline.json; new code must use typed errors instead. Remove
// this allow once the crate's P-lint counts reach zero. See ANALYSIS.md.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

pub mod bounds;
mod ids;
mod platform;
pub mod routing;
pub mod topology;

pub use ids::ProcId;
pub use platform::{Platform, PlatformError};
pub use routing::RoutingTable;
