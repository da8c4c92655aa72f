//! The sweep runner: the experiment harness is embarrassingly parallel
//! over `(testbed, size, scheduler)`, so full-size figure regeneration
//! fans out over [`onesched_heuristics::par_map`], the workspace's one
//! ordered, bounded fan-out (no external dependencies).
//!
//! Each job regenerates its task graph, builds one schedule, and reports the
//! quality numbers plus the *schedule-construction time* — the quantity the
//! perf baseline (`BENCH_2.json`) tracks. Results come back in job order
//! whatever the thread count, so CSV output is deterministic; one thread
//! runs the jobs inline on the caller's thread, one at a time.
//!
//! The long-running scheduling service ([`crate::Service`]) builds on the
//! same job-isolation discipline: one job = one graph + one scheduler + one
//! timed construction ([`schedule_timed`]), with nothing shared between
//! jobs but the immutable platform.

use crate::protocol::parse_testbed;
use onesched_dag::TaskGraph;
use onesched_heuristics::registry::{SchedulerSpec, UnknownScheduler};
use onesched_heuristics::{par_map, NoProbe, Probe, Scheduler};
use onesched_platform::Platform;
use onesched_sim::{CommModel, Schedule};
use onesched_testbeds::{Testbed, PAPER_C};
use onesched_trace::{Clock, WallClock};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Build one schedule, timing the construction alone (graph generation
/// and statistics excluded). The shared execution step of the sweep runner
/// and the scheduling service: both isolate a job to exactly this call.
/// The probe sees phase boundaries and placement-scan counters but cannot
/// influence the schedule, so timing and fingerprints match an unprobed
/// call ([`onesched_heuristics::NoProbe`]).
///
/// `platform` must be connected — the service's intake and the sweeps'
/// fixed topologies guarantee it — so the construction runs without the
/// trait wrappers' connectivity check.
pub fn schedule_timed(
    g: &TaskGraph,
    platform: &Platform,
    scheduler: &dyn Scheduler,
    model: CommModel,
    probe: &dyn Probe,
) -> (Schedule, Duration) {
    // Wall time through the trace crate's Clock (the D104 discipline:
    // no direct Instant reads outside WallClock). Microsecond
    // resolution, which is what every consumer reports anyway.
    let clock = WallClock::new();
    let t0 = clock.now_micros();
    let sched = scheduler.schedule_with_probe(g, platform, model, probe);
    let construct = Duration::from_micros(clock.now_micros().saturating_sub(t0));
    (sched, construct)
}

/// One unit of sweep work: schedule one testbed instance with one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// Which testbed to generate.
    pub testbed: Testbed,
    /// Problem size `n`.
    pub size: usize,
    /// Which scheduler to run, built through the workspace catalog.
    pub sched: SchedulerSpec,
}

/// The outcome of one [`SweepJob`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The job this result answers.
    pub job: SweepJob,
    /// Number of tasks in the generated graph.
    pub tasks: usize,
    /// Schedule makespan.
    pub makespan: f64,
    /// Speedup over the fastest-single-processor sequential time.
    pub speedup: f64,
    /// Number of effective (non-zero duration) communications.
    pub effective_comms: usize,
    /// Wall-clock time of the `schedule()` call alone (graph generation and
    /// statistics excluded).
    pub construct: Duration,
    /// Allocation activity of the first `schedule()` call (zero without
    /// the `profiling` allocator registered).
    pub alloc: onesched_prof::AllocSnapshot,
    /// Placement-scan counters of the first `schedule()` call.
    pub scan: onesched_heuristics::ScanStats,
}

/// The standard figure-sweep job list: for each testbed and size, one HEFT
/// job and one ILHA job (with the testbed's paper-best chunk size).
pub fn paper_jobs(testbeds: &[Testbed], sizes: &[usize]) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(testbeds.len() * sizes.len() * 2);
    for &tb in testbeds {
        for &n in sizes {
            for sched in [
                SchedulerSpec::heft(),
                SchedulerSpec::ilha(tb.paper_best_b()),
            ] {
                jobs.push(SweepJob {
                    testbed: tb,
                    size: n,
                    sched,
                });
            }
        }
    }
    jobs
}

/// Run every job over [`par_map`] with at most `threads` workers and
/// return the results in job order, each job's construction time the
/// minimum over `repeats` runs — the robust estimator for perf gating on
/// noisy (shared) hardware. Schedules are deterministic, so quality numbers
/// are unaffected. `threads == 1` runs the jobs serially on the caller's
/// thread (clean construction-time and allocation measurements). Every
/// job's scheduler is built before any runs, so a spec the catalog cannot
/// build fails the sweep up front.
pub fn run_sweep_repeated(
    jobs: &[SweepJob],
    threads: usize,
    model: CommModel,
    repeats: usize,
) -> Result<Vec<SweepResult>, UnknownScheduler> {
    let platform = Platform::paper();
    let work = jobs
        .iter()
        .map(|job| Ok((job, onesched_baselines::registry::build(&job.sched)?)))
        .collect::<Result<Vec<_>, UnknownScheduler>>()?;
    Ok(par_map(&work, threads, |(job, scheduler)| {
        run_job(job, scheduler.as_ref(), &platform, model, repeats.max(1))
    }))
}

/// A minimal write-only probe for sweeps: placement-scan counters only
/// (phase timing stays the service probe's job).
#[derive(Default)]
struct ScanProbe(std::cell::Cell<onesched_heuristics::ScanStats>);

impl Probe for ScanProbe {
    fn placement_scan(&self, scan: &onesched_heuristics::ScanStats) {
        let mut acc = self.0.get();
        acc.add(scan);
        self.0.set(acc);
    }
}

fn run_job(
    job: &SweepJob,
    scheduler: &dyn Scheduler,
    platform: &Platform,
    model: CommModel,
    repeats: usize,
) -> SweepResult {
    let g = job.testbed.generate(job.size, PAPER_C);
    let probe = ScanProbe::default();
    let a0 = onesched_prof::snapshot();
    let (sched, mut construct) = schedule_timed(&g, platform, scheduler, model, &probe);
    let alloc = onesched_prof::snapshot().delta_since(a0);
    // alloc and scan counters come from the first run only: repeats are
    // bit-identical, so accumulating them would just multiply the totals
    let scan = probe.0.get();
    for _ in 1..repeats {
        let (again, t) = schedule_timed(&g, platform, scheduler, model, &NoProbe);
        construct = construct.min(t);
        debug_assert!(again.makespan() == sched.makespan());
    }
    SweepResult {
        job: job.clone(),
        tasks: g.num_tasks(),
        makespan: sched.makespan(),
        speedup: sched.speedup(&g, platform),
        effective_comms: sched.num_effective_comms(),
        construct,
        alloc,
        scan,
    }
}

/// One record of the machine-readable perf trajectory (`BENCH_2.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Testbed display name.
    pub testbed: String,
    /// Problem size `n`.
    pub size: usize,
    /// Canonical scheduler spec (`heft`, `ilha(b=38)`). Files written
    /// before sweeps were keyed by spec say `"HEFT"` / `"ILHA"`; see
    /// [`BenchEntry::same_job`].
    pub scheduler: String,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Schedule-construction wall-clock time, milliseconds.
    pub construct_ms: f64,
    /// Construction time of the recorded previous implementation (the seed
    /// at PR 2), carried over via `--bench-baseline`; `null` when unknown.
    pub seed_construct_ms: Option<f64>,
    /// Schedule makespan (quality cross-check).
    pub makespan: f64,
    /// Schedule speedup (quality cross-check).
    pub speedup: f64,
    /// Allocation count of the construction (v2 column; present only when
    /// the run registered the profiling allocator).
    #[serde(default)]
    pub allocs: Option<u64>,
    /// Bytes requested by the construction (v2 column, same gating).
    #[serde(default)]
    pub alloc_bytes: Option<u64>,
    /// Fraction of placement-scan candidates pruned before full evaluation
    /// (v2 column; deterministic, so always present in v2 files).
    #[serde(default)]
    pub prune_rate: Option<f64>,
}

/// The bench JSON file: schema tag, run configuration, entries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchFile {
    /// Format tag (`onesched-bench/v1` or `onesched-bench/v2`).
    pub schema: String,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Entries in job order.
    pub entries: Vec<BenchEntry>,
}

/// Legacy schema tag (no alloc/prune columns); still readable because the
/// v2 columns are optional and default to absent.
pub const BENCH_SCHEMA: &str = "onesched-bench/v1";

/// Schema tag written into bench JSON files produced by this build.
pub const BENCH_SCHEMA_V2: &str = "onesched-bench/v2";

impl BenchEntry {
    /// Whether `self` and `other` time the same job: same testbed, size
    /// and scheduler. A legacy `"HEFT"` label reads as `heft`, and a legacy
    /// `"ILHA"` as ILHA with the testbed's paper-best chunk size, the only
    /// ILHA the sweeps ran before they were keyed by spec.
    pub fn same_job(&self, other: &BenchEntry) -> bool {
        self.testbed == other.testbed
            && self.size == other.size
            && self.canonical_scheduler() == other.canonical_scheduler()
    }

    fn canonical_scheduler(&self) -> String {
        match (self.scheduler.as_str(), parse_testbed(&self.testbed)) {
            ("HEFT", _) => SchedulerSpec::heft().canonical(),
            ("ILHA", Ok(tb)) => SchedulerSpec::ilha(tb.paper_best_b()).canonical(),
            (other, _) => other.to_string(),
        }
    }
}

impl BenchFile {
    /// Package sweep results as a bench file, optionally carrying over the
    /// matching construction times of `baseline` as `seed_construct_ms`.
    pub fn from_results(
        results: &[SweepResult],
        threads: usize,
        baseline: Option<&BenchFile>,
    ) -> BenchFile {
        // alloc columns mean something only when the counting allocator
        // actually observed the run; prune_rate is deterministic and
        // always recorded
        let profiled = onesched_prof::enabled();
        let entries = results
            .iter()
            .map(|r| {
                let mut entry = BenchEntry {
                    testbed: r.job.testbed.name().to_string(),
                    size: r.job.size,
                    scheduler: r.job.sched.canonical(),
                    tasks: r.tasks,
                    construct_ms: r.construct.as_secs_f64() * 1e3,
                    seed_construct_ms: None,
                    makespan: r.makespan,
                    speedup: r.speedup,
                    allocs: profiled.then_some(r.alloc.allocs),
                    alloc_bytes: profiled.then_some(r.alloc.bytes),
                    prune_rate: Some(if r.scan.candidates == 0 {
                        0.0
                    } else {
                        r.scan.pruned() as f64 / r.scan.candidates as f64
                    }),
                };
                entry.seed_construct_ms = baseline.and_then(|b| {
                    b.entries
                        .iter()
                        .find(|e| e.same_job(&entry))
                        .map(|e| e.seed_construct_ms.unwrap_or(e.construct_ms))
                });
                entry
            })
            .collect();
        BenchFile {
            schema: BENCH_SCHEMA_V2.to_string(),
            threads,
            entries,
        }
    }
}

/// One dated datapoint of the committed perf trajectory
/// (`BENCH_HISTORY.json`): a full bench file plus when and where it was
/// recorded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchHistoryEntry {
    /// ISO date (`YYYY-MM-DD`) the datapoint was recorded.
    pub date: String,
    /// Free-form provenance label (`seed`, `pr9`, `ci`, hostname, ...).
    pub label: String,
    /// The recorded bench run.
    pub bench: BenchFile,
}

/// The committed perf-trajectory file: an append-only, date-ordered list
/// of bench runs. The CI `bench-compare` step validates this schema and
/// appends the run's datapoint as an artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchHistory {
    /// Format tag (`onesched-bench-history/v1`).
    pub schema: String,
    /// Datapoints, oldest first.
    pub entries: Vec<BenchHistoryEntry>,
}

/// Schema tag of [`BenchHistory`] files.
pub const BENCH_HISTORY_SCHEMA: &str = "onesched-bench-history/v1";

impl BenchHistory {
    /// An empty history with the current schema tag.
    pub fn new() -> BenchHistory {
        BenchHistory {
            schema: BENCH_HISTORY_SCHEMA.to_string(),
            entries: Vec::new(),
        }
    }

    /// Validate the schema invariants: the format tag, ISO dates in
    /// non-decreasing order, known per-entry bench schema tags, and
    /// non-empty entry lists. Returns every violation (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.schema != BENCH_HISTORY_SCHEMA {
            bad.push(format!(
                "schema {:?}, expected {BENCH_HISTORY_SCHEMA:?}",
                self.schema
            ));
        }
        let mut prev = String::new();
        for (i, e) in self.entries.iter().enumerate() {
            let iso = e.date.len() == 10
                && e.date.chars().enumerate().all(|(j, c)| match j {
                    4 | 7 => c == '-',
                    _ => c.is_ascii_digit(),
                });
            if !iso {
                bad.push(format!("entry {i}: date {:?} is not YYYY-MM-DD", e.date));
            } else if e.date < prev {
                bad.push(format!("entry {i}: date {} before {prev}", e.date));
            } else {
                prev = e.date.clone();
            }
            if e.label.is_empty() {
                bad.push(format!("entry {i}: empty label"));
            }
            if e.bench.schema != BENCH_SCHEMA && e.bench.schema != BENCH_SCHEMA_V2 {
                bad.push(format!(
                    "entry {i}: unknown bench schema {:?}",
                    e.bench.schema
                ));
            }
            if e.bench.entries.is_empty() {
                bad.push(format!("entry {i}: empty bench entry list"));
            }
        }
        bad
    }
}

impl Default for BenchHistory {
    fn default() -> Self {
        BenchHistory::new()
    }
}

/// Compare a fresh bench run against a committed baseline: every entry
/// timing the same job ([`BenchEntry::same_job`]) whose baseline
/// construction time is at least `floor_ms` must not exceed `max_ratio ×`
/// the baseline. Returns the offending descriptions (empty = pass).
pub fn bench_regressions(
    current: &BenchFile,
    baseline: &BenchFile,
    max_ratio: f64,
    floor_ms: f64,
) -> Vec<String> {
    let mut bad = Vec::new();
    for cur in &current.entries {
        let Some(base) = baseline.entries.iter().find(|e| e.same_job(cur)) else {
            continue;
        };
        if base.construct_ms < floor_ms {
            continue; // sub-floor timings are scheduler-start noise
        }
        if cur.construct_ms > base.construct_ms * max_ratio {
            bad.push(format!(
                "{} n={} {}: {:.2} ms vs baseline {:.2} ms (> {max_ratio:.1}x)",
                cur.testbed, cur.size, cur.scheduler, cur.construct_ms, base.construct_ms
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_results_deterministic_and_in_job_order() {
        let jobs = paper_jobs(&[Testbed::Lu, Testbed::ForkJoin], &[10, 20]);
        assert_eq!(jobs.len(), 8);
        let serial = run_sweep_repeated(&jobs, 1, CommModel::OnePortBidir, 1).unwrap();
        let parallel = run_sweep_repeated(&jobs, 4, CommModel::OnePortBidir, 1).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.job.testbed, p.job.testbed);
            assert_eq!(s.job.size, p.job.size);
            assert_eq!(s.job.sched, p.job.sched);
            assert_eq!(
                s.makespan, p.makespan,
                "parallelism must not change schedules"
            );
            assert_eq!(s.effective_comms, p.effective_comms);
        }
    }

    #[test]
    fn bench_file_roundtrip_and_compare() {
        let jobs = paper_jobs(&[Testbed::ForkJoin], &[10]);
        let results = run_sweep_repeated(&jobs, 2, CommModel::OnePortBidir, 1).unwrap();
        let file = BenchFile::from_results(&results, 2, None);
        let json = serde_json::to_string(&file).unwrap();
        let back: BenchFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries.len(), file.entries.len());
        assert_eq!(back.schema, BENCH_SCHEMA_V2);
        // prune_rate is always recorded; alloc columns only under profiling
        assert!(back.entries.iter().all(|e| e.prune_rate.is_some()));
        if !onesched_prof::enabled() {
            assert!(back.entries.iter().all(|e| e.allocs.is_none()));
        }
        // identical files never regress against each other
        assert!(bench_regressions(&back, &file, 2.0, 0.0).is_empty());
        // a 3x slowdown is flagged
        let mut slow = file.clone();
        for e in &mut slow.entries {
            e.construct_ms *= 3.0;
        }
        assert!(!bench_regressions(&slow, &file, 2.0, 0.0).is_empty());
    }

    #[test]
    fn sweeps_name_schedulers_by_canonical_spec() {
        let jobs = paper_jobs(&[Testbed::Lu], &[10]);
        let results = run_sweep_repeated(&jobs, 1, CommModel::OnePortBidir, 1).unwrap();
        let file = BenchFile::from_results(&results, 1, None);
        let labels: Vec<&str> = file.entries.iter().map(|e| e.scheduler.as_str()).collect();
        let ilha = SchedulerSpec::ilha(Testbed::Lu.paper_best_b()).canonical();
        assert_eq!(labels, ["heft", ilha.as_str()]);
        // a spec the catalog cannot build fails the sweep before any runs
        let mut bad = jobs;
        bad[1].sched = SchedulerSpec::named("nope");
        assert!(run_sweep_repeated(&bad, 1, CommModel::OnePortBidir, 1).is_err());
    }

    #[test]
    fn legacy_labels_match_canonical_specs_of_the_same_job() {
        let entry = |testbed: &str, size: usize, scheduler: &str| BenchEntry {
            testbed: testbed.into(),
            size,
            scheduler: scheduler.into(),
            tasks: 0,
            construct_ms: 1.0,
            seed_construct_ms: None,
            makespan: 1.0,
            speedup: 1.0,
            allocs: None,
            alloc_bytes: None,
            prune_rate: None,
        };
        let lu_b = format!("ilha(b={})", Testbed::Lu.paper_best_b());
        let stencil_b = format!("ilha(b={})", Testbed::Stencil.paper_best_b());
        assert!(entry("LU", 60, "HEFT").same_job(&entry("LU", 60, "heft")));
        assert!(entry("LU", 60, "ILHA").same_job(&entry("LU", 60, &lu_b)));
        assert!(entry("LU", 60, &lu_b).same_job(&entry("LU", 60, "ILHA")));
        assert!(entry("LU", 60, "ILHA").same_job(&entry("LU", 60, "ILHA")));
        // a different testbed, size, kind or chunk size is another job
        assert!(!entry("LU", 60, "HEFT").same_job(&entry("STENCIL", 60, "heft")));
        assert!(!entry("LU", 60, "HEFT").same_job(&entry("LU", 120, "heft")));
        assert!(!entry("LU", 60, "HEFT").same_job(&entry("LU", 60, &lu_b)));
        assert!(!entry("STENCIL", 60, "ILHA").same_job(&entry("LU", 60, &lu_b)));
        assert!(!entry("LU", 60, "ILHA").same_job(&entry("LU", 60, "ilha(b=1)")));
        assert!(entry("STENCIL", 60, "ILHA").same_job(&entry("STENCIL", 60, &stencil_b)));
        // the matcher is what bench_regressions and the carry-over pair by
        let legacy = BenchFile {
            schema: BENCH_SCHEMA_V2.into(),
            threads: 1,
            entries: vec![entry("LU", 60, "ILHA")],
        };
        let mut slow = legacy.clone();
        slow.entries[0].scheduler = lu_b;
        slow.entries[0].construct_ms = 3.0;
        assert_eq!(bench_regressions(&slow, &legacy, 2.0, 0.0).len(), 1);
        slow.entries[0].size = 120;
        assert!(bench_regressions(&slow, &legacy, 2.0, 0.0).is_empty());
    }

    #[test]
    fn bench_history_validation_catches_malformed_files() {
        let jobs = paper_jobs(&[Testbed::ForkJoin], &[10]);
        let bench = BenchFile::from_results(
            &run_sweep_repeated(&jobs, 1, CommModel::OnePortBidir, 1).unwrap(),
            1,
            None,
        );
        let mut hist = BenchHistory::new();
        assert!(hist.validate().is_empty(), "empty history is valid");
        hist.entries.push(BenchHistoryEntry {
            date: "2026-07-30".into(),
            label: "seed".into(),
            bench: bench.clone(),
        });
        hist.entries.push(BenchHistoryEntry {
            date: "2026-08-08".into(),
            label: "pr9".into(),
            bench: bench.clone(),
        });
        assert!(hist.validate().is_empty(), "{:?}", hist.validate());
        // round-trips through JSON
        let back: BenchHistory =
            serde_json::from_str(&serde_json::to_string(&hist).unwrap()).unwrap();
        assert!(back.validate().is_empty());
        // each invariant is enforced
        let mut bad = hist.clone();
        bad.schema = "nope/v0".into();
        assert!(!bad.validate().is_empty());
        let mut bad = hist.clone();
        bad.entries[1].date = "08-08-2026".into();
        assert!(!bad.validate().is_empty());
        let mut bad = hist.clone();
        bad.entries[0].date = "2026-12-31".into();
        assert!(!bad.validate().is_empty(), "out-of-order dates rejected");
        let mut bad = hist.clone();
        bad.entries[0].label.clear();
        assert!(!bad.validate().is_empty());
        let mut bad = hist.clone();
        bad.entries[0].bench.schema = "onesched-bench/v9".into();
        assert!(!bad.validate().is_empty());
        let mut bad = hist;
        bad.entries[0].bench.entries.clear();
        assert!(!bad.validate().is_empty());
    }

    #[test]
    fn v1_bench_files_still_parse() {
        let v1 = format!(
            r#"{{"schema":"{BENCH_SCHEMA}","threads":1,"entries":[{{"testbed":"LU","size":10,"scheduler":"HEFT","tasks":55,"construct_ms":1.5,"seed_construct_ms":null,"makespan":10.0,"speedup":3.0}}]}}"#
        );
        let back: BenchFile = serde_json::from_str(&v1).unwrap();
        assert_eq!(back.schema, BENCH_SCHEMA);
        let e = back.entries.first().unwrap();
        assert_eq!(e.allocs, None);
        assert_eq!(e.alloc_bytes, None);
        assert_eq!(e.prune_rate, None);
    }

    #[test]
    fn baseline_times_carry_over() {
        let jobs = paper_jobs(&[Testbed::ForkJoin], &[10]);
        let results = run_sweep_repeated(&jobs, 1, CommModel::OnePortBidir, 1).unwrap();
        let mut seed = BenchFile::from_results(&results, 1, None);
        for e in &mut seed.entries {
            e.construct_ms = 42.0;
        }
        let merged = BenchFile::from_results(&results, 1, Some(&seed));
        assert!(merged
            .entries
            .iter()
            .all(|e| e.seed_construct_ms == Some(42.0)));
    }
}
