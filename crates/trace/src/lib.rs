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
//!   record — completed spans and counter samples — and
//!   [`read_ndjson_prefix`], the torn-tail-tolerant NDJSON reader behind
//!   both [`parse_trace`] and the service's job ledger parser.
//! - [`Tracer`] / [`MetricsHub`] ([`recorder`]): the recorders, one mutex
//!   each. Spans ring-buffer in memory (bounded) and stream to an NDJSON
//!   sink; counters and fixed-bucket histograms copy out as
//!   deterministic snapshots.
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
pub use flame::{flamegraph_svg, fold_jobs, folded_text, FoldedLine};
pub use record::{parse_trace, read_ndjson_prefix, Field, TraceEvent, TraceReplay, TRACE_SCHEMA};
pub use recorder::{Hist, MetricsHub, MetricsSnapshot, Tracer, HIST_BOUNDS_MS};
pub use report::{build_report, render_report, JobProfile, NameAgg, Report, SpanNode};
pub use scope::{Scope, SpanGuard};
