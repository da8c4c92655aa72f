//! End-to-end tracing integration: a daemon run with `--trace` produces a
//! span tree that accounts for every job, bit-identical results to an
//! untraced run, and a metrics exposition that reconciles with `stats`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use onesched_service::protocol::{DagSpec, JobSpec, OpProbe, Request, SchedulerSpec, SimSpec};
use onesched_service::service::SharedWriter;
use onesched_service::{Service, ServiceConfig, Testbed};
use onesched_trace::{parse_trace, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};

/// A `Write` sink whose bytes the test can read back after the batch.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn job(tb: Testbed, n: usize, scheduler: Option<SchedulerSpec>) -> JobSpec {
    JobSpec {
        dag: DagSpec::testbed(tb, n),
        platform: None,
        scheduler,
        model: None,
        validate: false,
    }
}

/// A small mixed workload: plain submits under both schedulers, a
/// cache-hit duplicate, and a simulation (which adds an `execute` span).
fn workload() -> Vec<Request> {
    vec![
        Request::submit(Some("trace-lu".into()), 0, job(Testbed::Lu, 12, None)),
        Request::submit(
            Some("trace-lap".into()),
            0,
            job(Testbed::Laplace, 12, Some(SchedulerSpec::ilha(4))),
        ),
        Request::submit(Some("trace-st".into()), 0, job(Testbed::Stencil, 12, None)),
        // duplicate of the first job: a cache hit (no construct span)
        Request::submit(Some("trace-dup".into()), 0, job(Testbed::Lu, 12, None)),
        Request::simulate(
            Some("trace-sim".into()),
            0,
            job(Testbed::Lu, 10, None),
            SimSpec {
                seed: Some(7),
                ..SimSpec::default()
            },
        ),
    ]
}

/// Run one batch session over `requests`, optionally traced. Returns the
/// service (quiescent, for follow-up control requests) and the response
/// lines minus the `ready` announcement.
fn run_batch(requests: &[Request], trace: Option<&std::path::Path>) -> (Service, Vec<String>) {
    let cfg = ServiceConfig {
        // one worker: the duplicate job must dequeue strictly after its
        // original finishes, so the cache hit/miss accounting these tests
        // pin is deterministic (two workers may legitimately race the
        // same key and both construct — see the README's cache semantics)
        workers: 1,
        trace: trace.map(|p| p.to_path_buf()),
        ..ServiceConfig::default()
    };
    let svc = Service::new(cfg);
    let input = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("serialize request"))
        .collect::<Vec<_>>()
        .join("\n");
    let sink = Capture::default();
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
    svc.serve_batch(Cursor::new(input), &out, "test");
    let bytes = sink.0.lock().unwrap().clone();
    let lines = String::from_utf8(bytes)
        .expect("utf8 responses")
        .lines()
        .filter(|l| serde_json::from_str::<OpProbe>(l).is_ok_and(|p| p.op != "ready"))
        .map(str::to_string)
        .collect();
    (svc, lines)
}

/// Answer one control request on a quiescent service.
fn control(svc: &Service, req: &Request) -> serde::Value {
    let sink = Capture::default();
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
    svc.handle_line(&serde_json::to_string(req).unwrap(), &out);
    let bytes = sink.0.lock().unwrap().clone();
    serde_json::from_str(String::from_utf8(bytes).unwrap().trim()).unwrap()
}

/// Fingerprints of every result line, keyed by job id.
fn fingerprints(lines: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for l in lines {
        let v: serde::Value = serde_json::from_str(l).unwrap();
        if let (Some(id), Some(fp)) = (
            v.get_field("id").ok().and_then(|x| x.as_str().ok()),
            v.get_field("fingerprint")
                .ok()
                .and_then(|x| x.as_str().ok()),
        ) {
            out.insert(id.to_string(), fp.to_string());
        }
    }
    out
}

#[test]
fn traced_run_is_bit_identical_and_accounts_every_job() {
    let trace_path =
        std::env::temp_dir().join(format!("onesched-trace-test-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);

    let reqs = workload();
    let (_, plain) = run_batch(&reqs, None);
    let (_, traced) = run_batch(&reqs, Some(&trace_path));

    // Tracing never changes results: same responses, bit-identical
    // fingerprints, job by job.
    let fp_plain = fingerprints(&plain);
    let fp_traced = fingerprints(&traced);
    assert_eq!(fp_plain.len(), reqs.len(), "every job answered");
    assert_eq!(fp_plain, fp_traced, "tracing must not perturb schedules");

    let bytes = std::fs::read(&trace_path).expect("trace file written");
    let replay = parse_trace(&bytes);
    assert!(!replay.torn, "clean shutdown flushes whole lines");
    assert!(!replay.events.is_empty());
    for ev in &replay.events {
        ev.validate().expect("every emitted event validates");
    }

    // Every answered job has exactly one root `job` span with ok=1.
    let roots: Vec<&TraceEvent> = replay.events.iter().filter(|e| e.name == "job").collect();
    assert_eq!(roots.len(), reqs.len(), "one root span per job");
    let root_ids: BTreeSet<&str> = roots.iter().filter_map(|e| e.id.as_deref()).collect();
    for r in &reqs {
        let id = r.id.as_deref().unwrap();
        assert!(root_ids.contains(id), "job {id} missing a root span");
    }
    for root in &roots {
        assert_eq!(root.field_value("ok"), Some(1.0));
    }

    // Parent links resolve by name within each (seq, attempt) scope, and
    // children lie within their parent's [start, start+dur] window.
    let mut by_scope: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    for ev in &replay.events {
        if ev.kind == "span" {
            by_scope
                .entry((ev.seq.unwrap(), ev.attempt.unwrap()))
                .or_default()
                .push(ev);
        }
    }
    for (scope, spans) in &by_scope {
        let names: BTreeSet<&str> = spans.iter().map(|e| e.name.as_str()).collect();
        for ev in spans {
            let Some(parent) = ev.parent.as_deref() else {
                assert_eq!(ev.name, "job", "only the root span has no parent");
                continue;
            };
            assert!(
                names.contains(parent),
                "span {} in scope {scope:?} links to missing parent {parent}",
                ev.name
            );
            let p = spans.iter().find(|e| e.name == parent).unwrap();
            let (ps, pd) = (p.start_us.unwrap(), p.dur_us.unwrap());
            let (cs, cd) = (ev.start_us.unwrap(), ev.dur_us.unwrap());
            assert!(
                cs >= ps && cs + cd <= ps + pd,
                "span {} [{cs}, {}] escapes parent {parent} [{ps}, {}]",
                ev.name,
                cs + cd,
                ps + pd
            );
        }
    }

    // The cache-hit duplicate has no construct span; cache misses do,
    // with all four phase children present.
    let constructs: Vec<&TraceEvent> = replay
        .events
        .iter()
        .filter(|e| e.name == "construct")
        .collect();
    assert_eq!(constructs.len(), 4, "4 misses (3 plain + 1 sim), 1 hit");
    assert!(!constructs
        .iter()
        .any(|e| e.id.as_deref() == Some("trace-dup")));
    for phase in ["rank", "step1", "scan", "commit"] {
        assert_eq!(
            replay
                .events
                .iter()
                .filter(|e| e.name == format!("construct.{phase}"))
                .count(),
            4,
            "phase {phase} under every construct"
        );
    }

    // The scan spans carry live prune counters: candidates dominate
    // prunes, and the bounds actually prune something on these testbeds.
    let scans: Vec<&TraceEvent> = replay
        .events
        .iter()
        .filter(|e| e.name == "construct.scan")
        .collect();
    let candidates: f64 = scans
        .iter()
        .filter_map(|e| e.field_value("candidates"))
        .sum();
    let pruned: f64 = scans
        .iter()
        .filter_map(|e| Some(e.field_value("pruned_bound")? + e.field_value("pruned_contention")?))
        .sum();
    assert!(candidates > pruned, "candidates dominate prunes");
    assert!(pruned > 0.0, "bounds prune something on these testbeds");

    // The simulation has an execute span with a positive events field.
    let execs: Vec<&TraceEvent> = replay
        .events
        .iter()
        .filter(|e| e.name == "execute")
        .collect();
    assert_eq!(execs.len(), 1);
    assert_eq!(execs[0].id.as_deref(), Some("trace-sim"));
    assert!(execs[0].field_value("events").unwrap() > 0.0);
    // It covers the engine run alone: the cache insert, stats and ledger
    // append that follow it are not part of it, so it ends before the
    // answer starts.
    let respond = replay
        .events
        .iter()
        .find(|e| e.name == "respond" && e.seq == execs[0].seq)
        .expect("the simulation was answered");
    assert!(
        execs[0].start_us.unwrap() + execs[0].dur_us.unwrap() <= respond.start_us.unwrap(),
        "execute must end before respond starts"
    );

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn trace_report_reconciles_with_job_roots_on_a_real_run() {
    let trace_path = std::env::temp_dir().join(format!(
        "onesched-trace-report-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);
    let reqs = workload();
    let (_, lines) = run_batch(&reqs, Some(&trace_path));
    assert_eq!(lines.len(), reqs.len());

    let bytes = std::fs::read(&trace_path).expect("trace file written");
    let replay = parse_trace(&bytes);
    let report = onesched_trace::build_report(&replay);
    assert!(!report.torn);
    assert_eq!(report.jobs.len(), reqs.len(), "one profile per job");
    assert_eq!(report.unscoped_spans, 0, "every span is job-scoped");

    // Per-job reconciliation: the span tree's self-times sum back to the
    // `job` root span exactly — no time invented, none dropped.
    for job in &report.jobs {
        let root = job.job_root().expect("every job has a root span");
        let root_dur = job.spans.get(root).map(|s| s.dur_us).unwrap_or(0);
        assert_eq!(
            job.self_total_us(),
            root_dur,
            "seq {} ({}): self-times must sum to the job root",
            job.seq,
            job.id
        );
        let path = job.critical_path();
        assert!(!path.is_empty());
        assert_eq!(path.first().copied(), Some(root), "path starts at the root");
    }

    // Aggregates carry the alloc fields on every construct phase (zero
    // without the profiling allocator, but always present), and the
    // phases the paper names all appear.
    for phase in [
        "construct.rank",
        "construct.step1",
        "construct.scan",
        "construct.commit",
    ] {
        let agg = report
            .aggregates
            .iter()
            .find(|a| a.name == phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from aggregates"));
        assert_eq!(agg.count, 4, "{phase}: one per cache miss");
    }

    // The rendered report and flamegraph both cover the run: every phase
    // name appears, and the SVG has one frame per folded path plus "all".
    let rendered = onesched_trace::render_report(&report, 10);
    assert!(rendered.contains("construct.scan"));
    assert!(rendered.contains(&format!("jobs {} (reconciled {})", reqs.len(), reqs.len())));
    let folded = onesched_trace::fold_jobs(&report.jobs);
    assert!(!folded.is_empty());
    let svg = onesched_trace::flamegraph_svg(&folded);
    assert!(svg.matches("<g>").count() > folded.len(), "frames rendered");

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn metrics_endpoint_reconciles_with_stats() {
    let (svc, lines) = run_batch(&workload(), None);
    assert_eq!(lines.len(), workload().len());

    // Both control requests hit the same quiescent ServiceStats, so the
    // exposition's counters must agree with the stats op exactly.
    let stats = control(&svc, &Request::stats());
    let metrics = control(&svc, &Request::metrics());
    assert_eq!(
        metrics.get_field("op").ok().and_then(|v| v.as_str().ok()),
        Some("metrics")
    );
    assert_eq!(
        metrics
            .get_field("content_type")
            .ok()
            .and_then(|v| v.as_str().ok()),
        Some("text/plain; version=0.0.4")
    );
    let text = metrics.get_field("text").unwrap().as_str().unwrap();

    let sample = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.split_whitespace().count() == 2)
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("sample {name} missing from:\n{text}"))
    };
    let stat = |key: &str| -> f64 { stats.get_field(key).unwrap().as_num().unwrap() };
    assert_eq!(
        sample("onesched_jobs_total{outcome=\"done\"}"),
        stat("jobs_done")
    );
    assert_eq!(sample("onesched_sims_total"), stat("sims_done"));
    assert_eq!(sample("onesched_cache_hits_total"), stat("cache_hits"));
    assert_eq!(
        sample("onesched_jobs_total{outcome=\"error\"}"),
        stat("errors")
    );
    assert_eq!(sample("onesched_cache_size"), stat("cache_size"));
    assert_eq!(sample("onesched_queue_depth"), stat("queue_depth"));
    assert_eq!(stat("jobs_done"), 5.0);
    assert_eq!(stat("cache_hits"), 1.0);

    // Histograms observed one sample per queue wait / construct, and the
    // scan-disposition counters saw real placement work.
    assert_eq!(sample("onesched_queue_wait_ms_count"), 5.0);
    assert_eq!(sample("onesched_construct_ms_count"), 4.0);
    let considered = sample("onesched_placement_candidates_total{disposition=\"considered\"}");
    assert!(considered > 0.0, "placement scans were counted");
}

#[test]
fn portfolio_member_spans_lie_within_the_race() {
    let trace_path = std::env::temp_dir().join(format!(
        "onesched-trace-portfolio-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);
    let portfolio = |members| Some(SchedulerSpec::portfolio(members));
    let reqs = vec![
        Request::submit(
            Some("heft".into()),
            0,
            job(Testbed::Lu, 12, Some(SchedulerSpec::heft())),
        ),
        Request::submit(
            Some("ilha".into()),
            0,
            job(Testbed::Lu, 12, Some(SchedulerSpec::ilha(4))),
        ),
        // both members were constructed above: served from the cache
        Request::submit(
            Some("all-cached".into()),
            0,
            job(
                Testbed::Lu,
                12,
                portfolio(vec![SchedulerSpec::heft(), SchedulerSpec::ilha(4)]),
            ),
        ),
        // one cached member, one constructed in the race
        Request::submit(
            Some("mixed".into()),
            0,
            job(
                Testbed::Lu,
                12,
                portfolio(vec![SchedulerSpec::heft(), SchedulerSpec::ilha(8)]),
            ),
        ),
        // both members constructed in the race, at once when threads allow
        Request::submit(
            Some("fresh".into()),
            0,
            job(
                Testbed::Lu,
                12,
                portfolio(vec![SchedulerSpec::ilha(2), SchedulerSpec::ilha(3)]),
            ),
        ),
    ];
    let (_, lines) = run_batch(&reqs, Some(&trace_path));
    assert_eq!(lines.len(), reqs.len());
    assert!(lines.iter().all(|l| l.contains("\"op\":\"result\"")));
    let replay = parse_trace(&std::fs::read(&trace_path).expect("trace file written"));
    let report = onesched_trace::build_report(&replay);

    for id in ["all-cached", "mixed", "fresh"] {
        let spans: Vec<&TraceEvent> = replay
            .events
            .iter()
            .filter(|e| e.id.as_deref() == Some(id))
            .collect();
        let race = spans
            .iter()
            .find(|e| e.name == "construct.portfolio")
            .expect("the race span");
        let (rs, re) = (
            race.start_us.unwrap(),
            race.start_us.unwrap() + race.dur_us.unwrap(),
        );
        let members: Vec<&&TraceEvent> = spans
            .iter()
            .filter(|e| e.name.starts_with("construct.portfolio."))
            .collect();
        assert_eq!(members.len(), 2, "{id}: one span per member");
        for m in &members {
            assert_eq!(m.parent.as_deref(), Some("construct.portfolio"));
            let (ms, me) = (m.start_us.unwrap(), m.start_us.unwrap() + m.dur_us.unwrap());
            assert!(
                ms >= rs && me <= re,
                "{id}: member {} [{ms}, {me}] escapes the race [{rs}, {re}]",
                m.name
            );
            if m.field_value("cached") == Some(1.0) {
                assert_eq!(m.dur_us, Some(0), "{id}: a cached member is zero-length");
            }
        }
        let cached = members
            .iter()
            .filter(|m| m.field_value("cached") == Some(1.0))
            .count();
        let want = match id {
            "all-cached" => 2,
            "mixed" => 1,
            _ => 0,
        };
        assert_eq!(cached, want, "{id}");
        assert_eq!(
            members
                .iter()
                .filter(|m| m.field_value("win") == Some(1.0))
                .count(),
            1,
            "{id}: exactly one winner"
        );
    }

    // Every job reconciles, concurrent members included: each member lies
    // within the race, whose self-time is its duration minus the union of
    // the member intervals.
    for job in &report.jobs {
        assert!(job.reconciles(), "{}: span tree does not reconcile", job.id);
    }
    // With no concurrent children left, the all-cached job's self-times
    // sum back to its root exactly.
    let all_cached = report
        .jobs
        .iter()
        .find(|j| j.id == "all-cached")
        .expect("profiled");
    let root = all_cached.job_root().expect("root span");
    assert_eq!(
        all_cached.self_total_us(),
        all_cached.spans[root].dur_us,
        "all-cached portfolio reconciles exactly"
    );
    let fresh = report
        .jobs
        .iter()
        .find(|j| j.id == "fresh")
        .expect("profiled");
    let race = fresh
        .spans
        .iter()
        .find(|s| s.name == "construct.portfolio")
        .expect("the race span");
    let mut members: Vec<(u64, u64)> = race
        .children
        .iter()
        .map(|&c| {
            (
                fresh.spans[c].start_us,
                fresh.spans[c].start_us + fresh.spans[c].dur_us,
            )
        })
        .collect();
    members.sort_unstable();
    let [(a0, a1), (b0, b1)] = members[..] else {
        panic!("two member spans");
    };
    let union = if b0 >= a1 {
        (a1 - a0) + (b1 - b0)
    } else {
        a1.max(b1) - a0
    };
    assert_eq!(race.self_us, race.dur_us - union, "race self-time is exact");

    let _ = std::fs::remove_file(&trace_path);
}
