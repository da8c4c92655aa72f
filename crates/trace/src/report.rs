//! The trace analyzer: span trees, self-time, cross-job aggregation,
//! and critical paths over a recorded `onesched-trace/v1` stream.
//!
//! Raw span logs answer "what happened"; this module answers "where did
//! the time and memory go". It rebuilds the per-job span trees that the
//! daemon emitted flat (parent links are by name within a `(seq,
//! attempt)` scope), splits every span's duration into *self* time (not
//! covered by any child's interval) and child time, aggregates by span
//! name across jobs, and walks the heaviest root-to-leaf chain of each tree — the
//! critical path an optimizer should look at first.
//!
//! Everything is a pure function over parsed events, so the analysis
//! runs identically in `onesched-svc trace report` over a file and in
//! tests over synthetic streams. Torn traces are fine: the parser
//! already confined us to the valid prefix, and orphaned spans (a parent
//! name that never made it into the stream) become roots of their own
//! subtree instead of vanishing.

use crate::record::{TraceEvent, TraceReplay};
use std::collections::BTreeMap;

/// One reconstructed span inside a job scope.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name (`"construct.scan"`, …).
    pub name: String,
    /// Index of the parent node in [`JobProfile::spans`], when the named
    /// parent was present in the same scope.
    pub parent: Option<usize>,
    /// Children indices, in emit order.
    pub children: Vec<usize>,
    /// Span start, microseconds on the emitting clock.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
    /// Duration not covered by the union of this span's child intervals.
    pub self_us: u64,
    /// The span's `allocs` field, when attached (profiling runs).
    pub allocs: u64,
    /// The span's `alloc_bytes` field, when attached.
    pub alloc_bytes: u64,
}

impl SpanNode {
    /// Span end, microseconds on the emitting clock.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// The reconstructed tree of one `(seq, attempt)` job scope.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// The daemon's submission sequence number.
    pub seq: u64,
    /// The client-chosen job id (from the first span carrying one).
    pub id: String,
    /// The construction attempt this scope belongs to.
    pub attempt: u64,
    /// Every span of the scope, in emit order.
    pub spans: Vec<SpanNode>,
    /// Indices of spans with no resolvable parent (the `job` root plus
    /// any orphans from torn or non-terminal-attempt streams).
    pub roots: Vec<usize>,
}

impl JobProfile {
    /// Index of the root `job` span, when this scope has one.
    pub fn job_root(&self) -> Option<usize> {
        self.roots
            .iter()
            .copied()
            .find(|&i| self.spans.get(i).is_some_and(|s| s.name == "job"))
    }

    /// Sum of `self_us` over every span. In a job that reconciles it
    /// equals the summed root durations unless siblings ran at once:
    /// concurrent children
    /// (portfolio members) each claim the time they share.
    pub fn self_total_us(&self) -> u64 {
        self.spans.iter().map(|s| s.self_us).sum()
    }

    /// The reconciliation invariant `trace report` prints and the tests
    /// pin: every child's interval lies within its parent's, so each
    /// span's duration is exactly its self-time plus its children's union.
    pub fn reconciles(&self) -> bool {
        self.spans
            .iter()
            .all(|s| match s.parent.and_then(|p| self.spans.get(p)) {
                Some(p) => p.start_us <= s.start_us && s.end_us() <= p.end_us(),
                None => true,
            })
    }

    /// Sum of root-span durations (one `job` span in the common case).
    pub fn root_total_us(&self) -> u64 {
        self.roots
            .iter()
            .filter_map(|&i| self.spans.get(i))
            .map(|s| s.dur_us)
            .sum()
    }

    /// The heaviest root-to-leaf chain: starting from the longest root,
    /// repeatedly descend into the longest child. Returns indices into
    /// [`JobProfile::spans`].
    pub fn critical_path(&self) -> Vec<usize> {
        let longest = |candidates: &[usize]| -> Option<usize> {
            candidates
                .iter()
                .copied()
                .max_by_key(|&i| self.spans.get(i).map(|s| (s.dur_us, usize::MAX - i)))
        };
        let mut path = Vec::new();
        let mut cursor = longest(&self.roots);
        while let Some(i) = cursor {
            path.push(i);
            cursor = self.spans.get(i).and_then(|s| longest(&s.children));
        }
        path
    }
}

/// Cross-job aggregate for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameAgg {
    /// Span name.
    pub name: String,
    /// Spans aggregated.
    pub count: u64,
    /// Summed durations, microseconds.
    pub total_us: u64,
    /// Summed self-times, microseconds.
    pub self_us: u64,
    /// Nearest-rank median of the span durations, microseconds.
    pub p50_us: u64,
    /// Nearest-rank 99th percentile of the span durations, microseconds.
    pub p99_us: u64,
    /// Summed `allocs` fields.
    pub allocs: u64,
    /// Summed `alloc_bytes` fields.
    pub alloc_bytes: u64,
}

/// The full analysis of one trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One profile per `(seq, attempt)` scope, ordered by `(seq,
    /// attempt)`.
    pub jobs: Vec<JobProfile>,
    /// Per-name aggregates, heaviest self-time first (ties by name).
    pub aggregates: Vec<NameAgg>,
    /// Span events that carried no `seq` and were left out of the trees.
    pub unscoped_spans: usize,
    /// Counter events in the stream (not part of span accounting).
    pub counters: usize,
    /// Whether the stream had a torn tail (carried over from parsing).
    pub torn: bool,
}

/// Nearest-rank percentile of a *sorted* sample (`q` in `[0, 1]`): the
/// value at 1-based rank `⌈q·n⌉`, clamped to `[1, n]` — the same rule the
/// service's latency table uses.
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied().unwrap_or(0)
}

/// Rebuild span trees and aggregates from a parsed trace.
pub fn build_report(replay: &TraceReplay) -> Report {
    let mut scopes: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    let mut unscoped_spans = 0usize;
    let mut counters = 0usize;
    for ev in &replay.events {
        if ev.kind != "span" {
            if ev.kind == "counter" {
                counters += 1;
            }
            continue;
        }
        match ev.seq {
            Some(seq) => scopes
                .entry((seq, ev.attempt.unwrap_or(1)))
                .or_default()
                .push(ev),
            None => unscoped_spans += 1,
        }
    }
    let jobs: Vec<JobProfile> = scopes
        .into_iter()
        .map(|((seq, attempt), events)| build_job(seq, attempt, &events))
        .collect();
    let mut agg: BTreeMap<&str, (NameAgg, Vec<u64>)> = BTreeMap::new();
    for span in jobs.iter().flat_map(|j| j.spans.iter()) {
        let (a, durs) = agg.entry(&span.name).or_insert_with(|| {
            (
                NameAgg {
                    name: span.name.clone(),
                    count: 0,
                    total_us: 0,
                    self_us: 0,
                    p50_us: 0,
                    p99_us: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                },
                Vec::new(),
            )
        });
        a.count += 1;
        a.total_us = a.total_us.saturating_add(span.dur_us);
        a.self_us = a.self_us.saturating_add(span.self_us);
        a.allocs = a.allocs.saturating_add(span.allocs);
        a.alloc_bytes = a.alloc_bytes.saturating_add(span.alloc_bytes);
        durs.push(span.dur_us);
    }
    let mut aggregates: Vec<NameAgg> = agg
        .into_values()
        .map(|(mut a, mut durs)| {
            durs.sort_unstable();
            a.p50_us = percentile_us(&durs, 0.50);
            a.p99_us = percentile_us(&durs, 0.99);
            a
        })
        .collect();
    aggregates.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    Report {
        jobs,
        aggregates,
        unscoped_spans,
        counters,
        torn: replay.torn,
    }
}

/// Total length of the union of `intervals` (`[start, end)` pairs), each
/// clipped to `[lo, hi)`. Sorts `intervals` in place.
fn union_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reached = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reached), end.min(hi));
        if end > start {
            total += end - start;
            reached = end;
        }
    }
    total
}

/// Build one scope's tree: spans in emit order, parents resolved by
/// name (last emitted span of that name wins, matching the recorder's
/// names-unique-per-scope contract), then each span's self-time is its
/// duration minus the union of its children's intervals.
fn build_job(seq: u64, attempt: u64, events: &[&TraceEvent]) -> JobProfile {
    let mut spans: Vec<SpanNode> = events
        .iter()
        .map(|ev| SpanNode {
            name: ev.name.clone(),
            parent: None,
            children: Vec::new(),
            start_us: ev.start_us.unwrap_or(0),
            dur_us: ev.dur_us.unwrap_or(0),
            self_us: 0,
            allocs: ev.field_value("allocs").unwrap_or(0.0) as u64,
            alloc_bytes: ev.field_value("alloc_bytes").unwrap_or(0.0) as u64,
        })
        .collect();
    let by_name: BTreeMap<&str, usize> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| (ev.name.as_str(), i))
        .collect();
    let id = events
        .iter()
        .find_map(|ev| ev.id.clone())
        .unwrap_or_default();
    let mut roots = Vec::new();
    let links: Vec<Option<usize>> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            ev.parent
                .as_deref()
                .and_then(|p| by_name.get(p).copied())
                .filter(|&pi| pi != i)
        })
        .collect();
    for (i, link) in links.iter().enumerate() {
        match link {
            Some(pi) => {
                if let Some(parent) = spans.get_mut(*pi) {
                    parent.children.push(i);
                }
                if let Some(child) = spans.get_mut(i) {
                    child.parent = Some(*pi);
                }
            }
            None => roots.push(i),
        }
    }
    let intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_us, s.end_us())).collect();
    for (span, &(lo, hi)) in spans.iter_mut().zip(&intervals) {
        let mut kids: Vec<(u64, u64)> = span
            .children
            .iter()
            .filter_map(|&c| intervals.get(c).copied())
            .collect();
        span.self_us = span.dur_us.saturating_sub(union_us(&mut kids, lo, hi));
    }
    JobProfile {
        seq,
        id,
        attempt,
        spans,
        roots,
    }
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1e3)
}

/// Render the report as the aligned text tables `onesched-svc trace
/// report` prints: a per-name aggregate table (heaviest self-time
/// first), per-job critical paths (the `max_jobs` longest jobs), and a
/// reconciliation summary. Deterministic for a given stream.
pub fn render_report(report: &Report, max_jobs: usize) -> String {
    let mut out = String::new();
    out.push_str(
        "span                 count  total_ms   self_ms    p50_ms    p99_ms      allocs   alloc_bytes\n",
    );
    for a in &report.aggregates {
        out.push_str(&format!(
            "{:<20} {:>5} {:>9} {:>9} {:>9} {:>9} {:>11} {:>13}\n",
            a.name,
            a.count,
            fmt_ms(a.total_us),
            fmt_ms(a.self_us),
            fmt_ms(a.p50_us),
            fmt_ms(a.p99_us),
            a.allocs,
            a.alloc_bytes,
        ));
    }
    let mut order: Vec<&JobProfile> = report.jobs.iter().collect();
    order.sort_by(|a, b| {
        b.root_total_us()
            .cmp(&a.root_total_us())
            .then(a.seq.cmp(&b.seq))
            .then(a.attempt.cmp(&b.attempt))
    });
    out.push_str("\ncritical paths (longest jobs first):\n");
    for job in order.iter().take(max_jobs) {
        let path: Vec<String> = job
            .critical_path()
            .iter()
            .filter_map(|&i| job.spans.get(i))
            .map(|s| format!("{} {}ms", s.name, fmt_ms(s.dur_us)))
            .collect();
        let delta = job.root_total_us().abs_diff(job.self_total_us());
        out.push_str(&format!(
            "  seq {} id {} attempt {}: {} [spans {}, self-sum delta {}us]\n",
            job.seq,
            job.id,
            job.attempt,
            path.join(" > "),
            job.spans.len(),
            delta,
        ));
    }
    if report.jobs.len() > max_jobs {
        out.push_str(&format!(
            "  … and {} more jobs\n",
            report.jobs.len() - max_jobs
        ));
    }
    let reconciled = report.jobs.iter().filter(|j| j.reconciles()).count();
    out.push_str(&format!(
        "\njobs {} (reconciled {}), spans {}, counters {}, unscoped spans {}, torn tail: {}\n",
        report.jobs.len(),
        reconciled,
        report.jobs.iter().map(|j| j.spans.len()).sum::<usize>(),
        report.counters,
        report.unscoped_spans,
        if report.torn { "yes" } else { "no" },
    ));
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::record::parse_trace;

    fn scoped(name: &str, start: u64, dur: u64, parent: Option<&str>) -> TraceEvent {
        let ev = TraceEvent::span(name, start, dur).job(3, "j-3", 1);
        match parent {
            Some(p) => ev.parent(p),
            None => ev,
        }
    }

    fn one_job() -> Vec<TraceEvent> {
        vec![
            scoped("queue.wait", 0, 10, Some("job")),
            scoped("construct", 12, 40, Some("job.attempt"))
                .field("allocs", 100.0)
                .field("alloc_bytes", 4096.0),
            scoped("construct.rank", 12, 15, Some("construct")),
            scoped("construct.scan", 27, 25, Some("construct")),
            scoped("job.attempt", 10, 60, Some("job")),
            scoped("job", 0, 70, None),
            TraceEvent::counter("queue_depth", 1.0),
        ]
    }

    fn replay_of(events: &[TraceEvent]) -> TraceReplay {
        let ndjson: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        parse_trace(ndjson.as_bytes())
    }

    #[test]
    fn tree_self_time_and_reconciliation() {
        let report = build_report(&replay_of(&one_job()));
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.counters, 1);
        let job = &report.jobs[0];
        assert_eq!(job.id, "j-3");
        assert_eq!(job.roots.len(), 1);
        assert_eq!(job.job_root(), Some(5));
        // job self = 70 - (10 + 60); attempt self = 60 - 40; construct
        // self = 40 - (15 + 25)
        let by_name = |n: &str| job.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("job").self_us, 0);
        assert_eq!(by_name("job.attempt").self_us, 20);
        assert_eq!(by_name("construct").self_us, 0);
        assert_eq!(by_name("construct.rank").self_us, 15);
        assert_eq!(by_name("construct").allocs, 100);
        assert_eq!(by_name("construct").alloc_bytes, 4096);
        assert_eq!(job.self_total_us(), job.root_total_us());
        assert_eq!(job.root_total_us(), 70);
    }

    #[test]
    fn concurrent_children_subtract_their_union_and_reconcile() {
        // two portfolio members constructed at once, overlapping by 30us,
        // under a race that spans them with 10us to spare
        let events = vec![
            scoped(
                "construct.portfolio.heft",
                12,
                50,
                Some("construct.portfolio"),
            ),
            scoped(
                "construct.portfolio.ilha",
                32,
                40,
                Some("construct.portfolio"),
            ),
            scoped("construct.portfolio", 10, 70, Some("job.attempt")),
            scoped("job.attempt", 5, 80, Some("job")),
            scoped("job", 0, 90, None),
        ];
        let report = build_report(&replay_of(&events));
        let job = &report.jobs[0];
        let by_name = |n: &str| job.spans.iter().find(|s| s.name == n).unwrap();
        let race = by_name("construct.portfolio");
        // the union of [12, 62) and [32, 72) is [12, 72): 60us
        assert_eq!(race.self_us, 70 - 60);
        assert_eq!(by_name("job.attempt").self_us, 10);
        // both members claim the 30us they share
        assert_eq!(job.self_total_us(), 90 + 30);
        assert!(job.reconciles());
        let text = render_report(&report, 10);
        assert!(text.contains("jobs 1 (reconciled 1)"), "{text}");
        assert!(text.contains("self-sum delta 30us"), "{text}");
    }

    #[test]
    fn a_child_outside_its_parent_does_not_reconcile() {
        let events = vec![
            scoped("construct", 40, 30, Some("job")), // ends 10us after job
            scoped("job", 0, 60, None),
        ];
        let job = &build_report(&replay_of(&events)).jobs[0];
        assert_eq!(job.spans[1].self_us, 60 - 20, "only the inside counts");
        assert!(!job.reconciles());
    }

    #[test]
    fn critical_path_follows_longest_children() {
        let report = build_report(&replay_of(&one_job()));
        let job = &report.jobs[0];
        let names: Vec<&str> = job
            .critical_path()
            .iter()
            .map(|&i| job.spans[i].name.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["job", "job.attempt", "construct", "construct.scan"]
        );
    }

    #[test]
    fn aggregates_sorted_by_self_time_with_percentiles() {
        let mut events = one_job();
        // a second, slower job
        for ev in one_job() {
            let mut ev = ev;
            if ev.kind == "span" {
                ev.seq = Some(4);
                ev.dur_us = ev.dur_us.map(|d| d * 3);
                events.push(ev);
            }
        }
        let report = build_report(&replay_of(&events));
        assert_eq!(report.jobs.len(), 2);
        let scan = report
            .aggregates
            .iter()
            .find(|a| a.name == "construct.scan")
            .unwrap();
        assert_eq!(scan.count, 2);
        assert_eq!(scan.total_us, 25 + 75);
        assert_eq!(scan.p50_us, 25);
        assert_eq!(scan.p99_us, 75);
        let construct = report
            .aggregates
            .iter()
            .find(|a| a.name == "construct")
            .unwrap();
        assert_eq!(construct.allocs, 200, "alloc totals sum across jobs");
        // heaviest self-time first
        let selfs: Vec<u64> = report.aggregates.iter().map(|a| a.self_us).collect();
        let mut sorted = selfs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(selfs, sorted);
    }

    #[test]
    fn orphans_become_roots_and_unscoped_spans_counted() {
        let events = vec![
            scoped("queue.wait", 0, 10, Some("job")), // parent never emitted
            TraceEvent::span("loose", 0, 5),          // no seq
        ];
        let report = build_report(&replay_of(&events));
        assert_eq!(report.unscoped_spans, 1);
        let job = &report.jobs[0];
        assert_eq!(job.roots, vec![0], "orphan is a root");
        assert_eq!(job.self_total_us(), job.root_total_us());
    }

    #[test]
    fn render_is_deterministic_and_caps_jobs() {
        let report = build_report(&replay_of(&one_job()));
        let a = render_report(&report, 10);
        let b = render_report(&report, 10);
        assert_eq!(a, b);
        assert!(a.contains("construct.scan"));
        assert!(a.contains("critical paths"));
        assert!(a.contains("torn tail: no"));
        let capped = render_report(&report, 0);
        assert!(capped.contains("… and 1 more jobs"));
    }

    #[test]
    fn self_cycle_parent_is_treated_as_root() {
        // a span naming itself as parent must not recurse or vanish
        let events = vec![scoped("job", 0, 10, Some("job"))];
        let report = build_report(&replay_of(&events));
        assert_eq!(report.jobs[0].roots.len(), 1);
    }
}
