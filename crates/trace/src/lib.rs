//! `onesched-trace`: zero-dependency structured tracing and metrics.
//!
//! The observability layer for the scheduling daemon, built in the same
//! spirit as the workspace's vendored shims — no external crates, just
//! four small pieces that compose:
//!
//! - [`Clock`] ([`clock`]): the only sanctioned wall-clock read-point.
//!   Pure construction crates stay deterministic (lints D102/D104);
//!   [`WallClock`] lives here, [`ManualClock`]/[`DisabledClock`] serve
//!   tests and replays.
//! - [`TraceEvent`] ([`record`]): the flat `onesched-trace/v1` NDJSON
//!   record — completed spans and counter samples — with the same
//!   torn-tail-tolerant parser contract as the job ledger
//!   ([`parse_trace`]).
//! - [`Tracer`] / [`MetricsHub`] ([`recorder`]): lock-sharded bounded
//!   recorders. Spans ring-buffer in memory and stream to an NDJSON
//!   sink; counters and fixed-bucket histograms merge into deterministic
//!   snapshots.
//! - [`Scope`] / [`SpanGuard`] ([`scope`]): one job attempt's handle on
//!   a tracer. Spans are recorded where the work happens, by guards that
//!   read their real end on drop; an untraced scope does nothing.
//! - [`chrome_trace_json`] / [`prometheus_text`] ([`export`]): render a
//!   captured stream for Perfetto, or a snapshot as Prometheus text
//!   exposition.
//! - [`build_report`] / [`render_report`] ([`report`]): rebuild the
//!   per-job span trees, split self- vs child-time, aggregate by span
//!   name across jobs, and walk each job's critical path.
//! - [`fold_jobs`] / [`flamegraph_svg`] ([`flame`]): folded stacks over
//!   the same trees, rendered as a deterministic self-contained SVG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod flame;
pub mod record;
pub mod recorder;
pub mod report;
pub mod scope;

pub use clock::{Clock, DisabledClock, ManualClock, WallClock};
pub use export::{chrome_trace_json, prometheus_text, Gauge};
pub use flame::{flamegraph_svg, fold_jobs, folded_text, report_flamegraph_svg, FoldedLine};
pub use record::{parse_trace, Field, TraceEvent, TraceReplay, TRACE_SCHEMA};
pub use recorder::{Hist, MetricsHub, MetricsSnapshot, Tracer, HIST_BOUNDS_MS};
pub use report::{build_report, render_report, JobProfile, NameAgg, Report, SpanNode};
pub use scope::{Scope, SpanGuard};
