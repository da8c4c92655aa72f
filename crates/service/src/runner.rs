//! The sweep runner: the experiment harness is embarrassingly parallel
//! over `(testbed, size, scheduler)`, so full-size figure regeneration
//! fans out over [`onesched_heuristics::par_map`], the workspace's one
//! ordered, bounded fan-out (no external dependencies).
//!
//! A sweep job is a [`ResolvedJob`], the daemon's own job description, and
//! runs through the daemon's construction step ([`cache::construct`]): it
//! regenerates its task graph, builds one schedule, and reports the quality
//! numbers plus the *schedule-construction time* — the quantity the perf
//! baseline (`BENCH_2.json`) tracks. Results come back in job order
//! whatever the thread count, so CSV output is deterministic; one thread
//! runs the jobs inline on the caller's thread, one at a time.

use crate::cache::{self, ConstructProbe, JobOutcome};
use crate::protocol::{parse_testbed, DagSpec, JobSpec, PlatformSpec, ResolveError, ResolvedJob};
use onesched_heuristics::registry::SchedulerSpec;
use onesched_heuristics::{par_map, ScanStats};
use onesched_platform::Platform;
use onesched_prof::AllocSnapshot;
use onesched_testbeds::Testbed;
use onesched_trace::{Scope, WallClock};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The outcome of one sweep job.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The job this result answers.
    pub job: ResolvedJob,
    /// The first run's outcome, its `construct` time the minimum over all
    /// repeats.
    pub outcome: JobOutcome,
    /// Allocation activity of the first `schedule()` call (zero without
    /// the `profiling` allocator registered).
    pub alloc: AllocSnapshot,
    /// Placement-scan counters of the first `schedule()` call.
    pub scan: ScanStats,
}

/// The standard figure-sweep job list: for each testbed and size, one HEFT
/// job and one ILHA job (with the testbed's paper-best chunk size), on the
/// paper platform under the one-port-bidir model. Fails, before any run,
/// on a size intake would refuse ([`crate::protocol::MAX_TASKS_PER_JOB`]).
pub fn paper_jobs(testbeds: &[Testbed], sizes: &[usize]) -> Result<Vec<ResolvedJob>, ResolveError> {
    let mut jobs = Vec::with_capacity(testbeds.len() * sizes.len() * 2);
    for &tb in testbeds {
        for &n in sizes {
            for sched in [
                SchedulerSpec::heft(),
                SchedulerSpec::ilha(tb.paper_best_b()),
            ] {
                let spec = JobSpec {
                    dag: DagSpec::testbed(tb, n),
                    platform: None,
                    scheduler: Some(sched),
                    model: None,
                    validate: false,
                };
                jobs.push(spec.resolve()?);
            }
        }
    }
    Ok(jobs)
}

/// Run every job over [`par_map`] with at most `threads` workers and
/// return the results in job order, each job's construction time the
/// minimum over `repeats` runs — the robust estimator for perf gating on
/// noisy (shared) hardware. The first run is probed (scan and allocation
/// counters), the repeats are not, and every repeat must reproduce the
/// first run's placements. `threads == 1` runs the jobs serially on the
/// caller's thread (clean construction-time and allocation measurements).
///
/// Jobs with equal platform specs share one built platform, so its lazily
/// built route table is built once per sweep, inside the first such job's
/// construction, and counted there.
pub fn run_sweep_repeated(
    jobs: &[ResolvedJob],
    threads: usize,
    repeats: usize,
) -> Vec<SweepResult> {
    let mut platforms: Vec<(&Option<PlatformSpec>, Platform)> = Vec::new();
    for job in jobs {
        if !platforms
            .iter()
            .any(|(spec, _)| **spec == job.spec.platform)
        {
            platforms.push((&job.spec.platform, job.build_platform()));
        }
    }
    par_map(jobs, threads, |job| {
        let g = job.build_graph();
        let platform = platforms
            .iter()
            .find(|(spec, _)| **spec == job.spec.platform)
            .map_or_else(
                || Cow::Owned(job.build_platform()),
                |(_, p)| Cow::Borrowed(p),
            );
        let clock = WallClock::new();
        let probe = ConstructProbe::new(&clock);
        let (mut outcome, _) = cache::construct(job, &g, &platform, Some(&probe), &Scope::off());
        for _ in 1..repeats {
            let (again, _) = cache::construct(job, &g, &platform, None, &Scope::off());
            assert_eq!(
                again.fingerprint, outcome.fingerprint,
                "{}: a repeat changed the schedule",
                job.key
            );
            outcome.construct = outcome.construct.min(again.construct);
        }
        SweepResult {
            job: job.clone(),
            outcome,
            alloc: probe.construct_allocs(),
            scan: probe.scan(),
        }
    })
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
    /// Entries are keyed by the job's testbed and size (empty and 0 for a
    /// job whose DAG is not a testbed).
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
                let dag = &r.job.spec.dag;
                let mut entry = BenchEntry {
                    testbed: dag.testbed.clone().unwrap_or_default(),
                    size: dag.n.unwrap_or_default(),
                    scheduler: r.job.scheduler_spec().canonical(),
                    tasks: r.outcome.tasks,
                    construct_ms: r.outcome.construct.as_secs_f64() * 1e3,
                    seed_construct_ms: None,
                    makespan: r.outcome.makespan,
                    speedup: r.outcome.speedup,
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
        let jobs = paper_jobs(&[Testbed::Lu, Testbed::ForkJoin], &[10, 20]).unwrap();
        assert_eq!(jobs.len(), 8);
        let serial = run_sweep_repeated(&jobs, 1, 1);
        let parallel = run_sweep_repeated(&jobs, 4, 2);
        assert_eq!(serial.len(), parallel.len());
        for ((s, p), job) in serial.iter().zip(&parallel).zip(&jobs) {
            assert_eq!(s.job.key, job.key, "results come back in job order");
            assert_eq!(p.job.key, job.key);
            let (mut s, mut p) = (s.outcome.clone(), p.outcome.clone());
            (s.construct, p.construct) = Default::default();
            assert_eq!(s, p, "parallelism and repeats must not change schedules");
        }
    }

    #[test]
    fn bench_file_roundtrip_and_compare() {
        let jobs = paper_jobs(&[Testbed::ForkJoin], &[10]).unwrap();
        let results = run_sweep_repeated(&jobs, 2, 1);
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
        let jobs = paper_jobs(&[Testbed::Lu], &[10]).unwrap();
        let file = BenchFile::from_results(&run_sweep_repeated(&jobs, 1, 1), 1, None);
        let labels: Vec<&str> = file.entries.iter().map(|e| e.scheduler.as_str()).collect();
        let ilha = SchedulerSpec::ilha(Testbed::Lu.paper_best_b()).canonical();
        assert_eq!(labels, ["heft", ilha.as_str()]);
        assert!(file
            .entries
            .iter()
            .all(|e| e.testbed == "LU" && e.size == 10));
        // a size intake would refuse fails the whole job list up front
        assert!(paper_jobs(&[Testbed::Lu], &[10, 1_000_000]).is_err());
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
        let jobs = paper_jobs(&[Testbed::ForkJoin], &[10]).unwrap();
        let bench = BenchFile::from_results(&run_sweep_repeated(&jobs, 1, 1), 1, None);
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
        let jobs = paper_jobs(&[Testbed::ForkJoin], &[10]).unwrap();
        let results = run_sweep_repeated(&jobs, 1, 1);
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
