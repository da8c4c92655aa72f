//! The request/platform/DAG registry: a schedule cache keyed by resolved
//! job, the job executor it guards, and the service's statistics.
//!
//! Every job the service runs is deterministic (generators are seeded,
//! schedulers are pure, the execution engine derives all noise from the
//! request's seed), so a repeated workload — the same platform + DAG +
//! scheduler + model, or the same simulate spec on top — can be answered
//! from a cache of recorded outcomes without re-running construction or
//! execution. The caches store *outcomes* (makespan, fingerprints,
//! counts), not schedules: the service streams result summaries, and an
//! outcome is a few hundred bytes regardless of task count.

use crate::protocol::{LatencyEntry, PortfolioWinEntry, ResolvedJob, ResolvedSim, StatsResponse};
use onesched_dag::TaskGraph;
use onesched_heuristics::{default_threads, par_map, NoProbe, Phase, Probe, ScanStats};
use onesched_platform::Platform;
use onesched_prof::AllocSnapshot;
use onesched_sim::Schedule;
use onesched_trace::{Clock, Scope, WallClock};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;
use std::time::Duration;

/// A write-only [`Probe`] that accumulates per-phase wall time,
/// allocation deltas, and placement-scan counters over one (or several)
/// constructions, timed by a [`Clock`]. Single-threaded by
/// design (`Cell` state): one worker owns one probe for the duration of a
/// job, then reads the totals out.
///
/// Allocation attribution reads the process-global `onesched-prof`
/// counters at each phase edge; without the `profiling` allocator
/// registered the counters stay zero and every delta is zero.
///
/// The probe only observes — a probed construction takes decisions
/// bit-identical to a bare one (the fingerprint-pinned tests hold it to
/// that).
pub struct ConstructProbe<'a> {
    clock: &'a dyn Clock,
    begin_us: [Cell<u64>; 4],
    total_us: [Cell<u64>; 4],
    alloc_begin: [Cell<AllocSnapshot>; 4],
    alloc_total: [Cell<AllocSnapshot>; 4],
    scan: Cell<ScanStats>,
}

/// The fixed phase order of the accumulator arrays, and of the
/// `construct.*` child spans. Those four are the only spans the daemon
/// does not measure: each is a phase's accumulated total over the whole
/// construction, laid end to end from the start of the measured
/// `construct` span by [`construct`].
pub const PHASES: [Phase; 4] = [Phase::Rank, Phase::Step1, Phase::Scan, Phase::Commit];

fn phase_slot(phase: Phase) -> usize {
    match phase {
        Phase::Rank => 0,
        Phase::Step1 => 1,
        Phase::Scan => 2,
        Phase::Commit => 3,
    }
}

impl<'a> ConstructProbe<'a> {
    /// A zeroed probe reading time from `clock`.
    pub fn new(clock: &'a dyn Clock) -> ConstructProbe<'a> {
        ConstructProbe {
            clock,
            begin_us: Default::default(),
            total_us: Default::default(),
            alloc_begin: Default::default(),
            alloc_total: Default::default(),
            scan: Cell::new(ScanStats::default()),
        }
    }

    /// Accumulated wall time of `phase`, microseconds.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.total_us
            .get(phase_slot(phase))
            .map(Cell::get)
            .unwrap_or(0)
    }

    /// Accumulated allocation activity of `phase` (zero without the
    /// `profiling` allocator registered).
    pub fn phase_allocs(&self, phase: Phase) -> AllocSnapshot {
        self.alloc_total
            .get(phase_slot(phase))
            .map(Cell::get)
            .unwrap_or_default()
    }

    /// Cumulative placement-scan counters reported by the scheduler.
    pub fn scan(&self) -> ScanStats {
        self.scan.get()
    }

    /// Record the `construct.{rank,step1,scan,commit}` children of the
    /// `construct` span that started at `start_us`. Phases run one after
    /// another, so their totals laid end to end from the span's start
    /// stay inside it; they are aggregates, not per-task intervals (which
    /// would multiply trace volume by the task count).
    fn record_phases(&self, scope: &Scope<'_>, start_us: u64) {
        let scan = self.scan();
        let mut at = start_us;
        for phase in PHASES {
            let us = self.phase_us(phase);
            let alloc = self.phase_allocs(phase);
            let mut span = scope.record(
                format_args!("construct.{}", phase.name()),
                "construct",
                at,
                us,
            );
            span.field("allocs", alloc.allocs as f64)
                .field("alloc_bytes", alloc.bytes as f64);
            if phase == Phase::Scan {
                span.field("candidates", scan.candidates as f64)
                    .field("evaluated", scan.evaluated as f64)
                    .field("pruned_bound", scan.pruned_bound as f64)
                    .field("pruned_contention", scan.pruned_contention as f64)
                    .field("aborted", scan.aborted as f64);
            }
            at = at.saturating_add(us);
        }
    }
}

/// Add `d` to the allocation total in `acc` (saturating).
fn add_allocs(acc: &Cell<AllocSnapshot>, d: AllocSnapshot) {
    let a = acc.get();
    acc.set(AllocSnapshot {
        allocs: a.allocs.saturating_add(d.allocs),
        bytes: a.bytes.saturating_add(d.bytes),
    });
}

impl Probe for ConstructProbe<'_> {
    fn phase_begin(&self, phase: Phase) {
        let slot = phase_slot(phase);
        if let Some(b) = self.begin_us.get(slot) {
            b.set(self.clock.now_micros());
        }
        if let Some(a) = self.alloc_begin.get(slot) {
            a.set(onesched_prof::snapshot());
        }
    }

    fn phase_end(&self, phase: Phase) {
        let slot = phase_slot(phase);
        if let (Some(b), Some(t)) = (self.begin_us.get(slot), self.total_us.get(slot)) {
            let d = self.clock.now_micros().saturating_sub(b.get());
            t.set(t.get().saturating_add(d));
        }
        if let (Some(b), Some(t)) = (self.alloc_begin.get(slot), self.alloc_total.get(slot)) {
            add_allocs(t, onesched_prof::snapshot().delta_since(b.get()));
        }
    }

    fn placement_scan(&self, scan: &ScanStats) {
        let mut acc = self.scan.get();
        acc.add(scan);
        self.scan.set(acc);
    }
}

/// The recorded outcome of one schedule construction.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Scheduler display name (e.g. `ILHA(B=4)`).
    pub scheduler: String,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Schedule makespan.
    pub makespan: f64,
    /// Speedup over the fastest-single-processor sequential time.
    pub speedup: f64,
    /// Number of effective communications.
    pub effective_comms: usize,
    /// Placement fingerprint (`onesched_sim::placement_fingerprint`).
    pub fingerprint: u64,
    /// Wall-clock time of the `schedule()` call alone.
    pub construct: Duration,
    /// Validator violations (only counted when the job requested
    /// validation; always 0 for a correct scheduler).
    pub violations: usize,
}

/// The one construction step, shared by [`run_job`], [`run_sim_job`],
/// [`run_portfolio_members`] and the offline sweeps: schedule the
/// already-built problem (`g` and `platform` from `job`) with the job's
/// scheduler and record the outcome next to the schedule. The `schedule()`
/// call alone is timed, and is the `construct` span of `scope`; `probe`
/// (when given) observes it and adds the phase children, and cannot
/// influence the schedule.
pub fn construct(
    job: &ResolvedJob,
    g: &TaskGraph,
    platform: &Platform,
    probe: Option<&ConstructProbe<'_>>,
    scope: &Scope<'_>,
) -> (JobOutcome, Schedule) {
    let scheduler = job.build_scheduler();
    // Wall time through the trace crate's Clock (the D104 discipline: no
    // direct Instant reads outside WallClock), at microsecond resolution.
    let clock = WallClock::new();
    let (sched, construct) = {
        let span = scope.open("construct", "job.attempt");
        let observer = probe.map_or(&NoProbe as &dyn Probe, |p| p);
        let t0 = clock.now_micros();
        // `platform` is connected (intake checked it), so the construction
        // runs without the trait wrappers' connectivity check
        let sched = scheduler.schedule_with_probe(g, platform, job.model(), observer);
        let construct = Duration::from_micros(clock.now_micros().saturating_sub(t0));
        if let Some(p) = probe {
            p.record_phases(scope, span.start_us());
        }
        (sched, construct)
    };
    let violations = if job.spec.validate {
        onesched_sim::validate(g, platform, job.model(), &sched).len()
    } else {
        0
    };
    let outcome = JobOutcome {
        scheduler: scheduler.name(),
        tasks: g.num_tasks(),
        makespan: sched.makespan(),
        speedup: sched.speedup(g, platform),
        effective_comms: sched.num_effective_comms(),
        fingerprint: onesched_sim::placement_fingerprint(&sched),
        construct,
        violations,
    };
    (outcome, sched)
}

/// Execute a resolved job: generate the graph and platform, run the
/// scheduler through [`construct`], and record the outcome. `probe` sees
/// phase boundaries and placement-scan counters, and `scope` gets the
/// `construct` span; neither can influence the outcome (`None` and
/// [`Scope::off`] when nobody listens). Deterministic: equal
/// [`ResolvedJob::key`]s produce equal outcomes up to the `construct`
/// timing.
pub fn run_job(
    job: &ResolvedJob,
    probe: Option<&ConstructProbe<'_>>,
    scope: &Scope<'_>,
) -> JobOutcome {
    construct(job, &job.build_graph(), &job.build_platform(), probe, scope).0
}

/// One member's slot in a portfolio fan-out: the member's canonical spec
/// label, its own schedule-cache key, the recorded outcome, whether that
/// outcome was served from the cache instead of constructed, and when.
#[derive(Debug, Clone)]
pub struct PortfolioMember {
    /// Canonical member spec string (e.g. `ilha(b=4)`), the win-count key.
    pub label: String,
    /// The member's own job cache key ([`ResolvedJob::key`]).
    pub key: String,
    /// The member's construction outcome.
    pub outcome: JobOutcome,
    /// Served from the schedule cache — no construction ran for it.
    pub cached: bool,
    /// Lookup time on the scope's clock, microseconds (0 when off).
    pub start_us: u64,
    /// Construction time after the lookup, microseconds (0 when cached).
    pub dur_us: u64,
}

/// Run a portfolio's members over [`par_map`] (at most
/// [`default_threads`] at once) and return every member's outcome in
/// member order. Input is `(canonical label, resolved member job)`; each
/// member is looked up with `cached` (by its cache key) and constructed
/// only on a miss, the graph and the platform built once by the first
/// member that needs them. Each member's interval is measured on its own
/// worker with `scope`'s clock; the caller records the member spans once
/// the winner is known.
///
/// Deterministic: each member's construction is the same pure computation
/// [`run_job`] performs, and the caller picks the winner with the
/// registry's label tie-break — thread timing never influences the result.
pub fn run_portfolio_members(
    members: &[(String, ResolvedJob)],
    cached: impl Fn(&str) -> Option<JobOutcome> + Sync,
    scope: &Scope<'_>,
) -> Vec<PortfolioMember> {
    let problem = OnceLock::new();
    par_map(members, default_threads(), |(label, job)| {
        let start_us = scope.now();
        let (outcome, cached, dur_us) = match cached(&job.key) {
            Some(outcome) => (outcome, true, 0),
            None => {
                let (g, platform) =
                    problem.get_or_init(|| (job.build_graph(), job.build_platform()));
                let outcome = construct(job, g, platform, None, &Scope::off()).0;
                (outcome, false, scope.now().saturating_sub(start_us))
            }
        };
        PortfolioMember {
            label: label.clone(),
            key: job.key.clone(),
            outcome,
            cached,
            start_us,
            dur_us,
        }
    })
}

/// The outcome of one construct-then-execute simulation: the construction
/// outcome plus the executed trace's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The construction half (scheduler name, static makespan, placement
    /// fingerprint, …).
    pub job: JobOutcome,
    /// Dispatch policy name.
    pub policy: String,
    /// Perturbation seed.
    pub seed: u64,
    /// Executed makespan under the requested perturbation.
    pub executed_makespan: f64,
    /// `executed / static` makespan ratio.
    pub degradation: f64,
    /// Trace fingerprint of the executed trace.
    pub trace_fingerprint: u64,
    /// Events drained by the execution engine during the replay.
    pub events_processed: u64,
    /// Wall-clock time of the engine run alone.
    pub exec: Duration,
}

/// Why [`run_sim_job`] did not produce a simulation outcome.
#[derive(Debug)]
pub enum SimRunError {
    /// The job's wall-clock deadline passed after construction, before
    /// the engine ran. Carries the construction outcome so the schedule
    /// cache still benefits from the work already done.
    DeadlineExceeded(Box<JobOutcome>),
    /// The engine refused the schedule (the daemon turns this into an
    /// `error` response instead of losing a worker).
    Exec(onesched_exec::ExecError),
}

impl std::fmt::Display for SimRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimRunError::DeadlineExceeded(_) => write!(f, "deadline exceeded"),
            SimRunError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

/// Execute a resolved simulate job: construct the schedule exactly as
/// [`run_job`] would (`probe` observes the construction half), then replay
/// it through the `onesched-exec` engine under the resolved perturbation,
/// the `execute` span of `scope`. Deterministic: equal `(job key, sim
/// key)` pairs produce equal outcomes up to the timings.
///
/// Construction from a resolved job cannot fail, but two things can stop
/// the simulation half: the caller's `deadline_us` (a [`Clock`] timestamp
/// checked between the construction and execution stages — the per-job
/// timeout's only preemption point inside a run) and the engine's own
/// validation, both reported as a typed [`SimRunError`].
pub fn run_sim_job(
    job: &ResolvedJob,
    sim: &ResolvedSim,
    deadline_us: Option<u64>,
    clock: &dyn Clock,
    probe: Option<&ConstructProbe<'_>>,
    scope: &Scope<'_>,
) -> Result<SimOutcome, SimRunError> {
    let g = job.build_graph();
    let platform = job.build_platform();
    let (outcome, sched) = construct(job, &g, &platform, probe, scope);
    if deadline_us.is_some_and(|d| clock.now_micros() > d) {
        return Err(SimRunError::DeadlineExceeded(Box::new(outcome)));
    }
    let t0 = clock.now_micros();
    let report = {
        let mut span = scope.open("execute", "job.attempt");
        let report = onesched_exec::execute(&g, &platform, job.model(), &sched, &sim.exec_config())
            .map_err(SimRunError::Exec)?;
        span.field("events", report.events_processed as f64);
        report
    };
    let exec = Duration::from_micros(clock.now_micros().saturating_sub(t0));
    Ok(SimOutcome {
        job: outcome,
        policy: sim.policy().name().to_string(),
        seed: sim.seed(),
        executed_makespan: report.executed_makespan,
        degradation: report.degradation(),
        trace_fingerprint: report.trace_fingerprint,
        events_processed: report.events_processed,
        exec,
    })
}

/// An outcome cache: canonical key → recorded outcome, with FIFO eviction
/// at a fixed capacity. One instance holds schedule outcomes, another the
/// simulate outcomes.
///
/// Backed by a `BTreeMap` so that any iteration over the cache (now or in
/// a future `dump`/shard operation) is in key order — the daemon's
/// observable behavior must never depend on hash iteration order.
#[derive(Debug)]
pub struct Registry<V = JobOutcome> {
    capacity: usize,
    map: BTreeMap<String, V>,
    order: VecDeque<String>,
    /// Number of constructions actually run through this registry (cache
    /// hits excluded) — the counter the no-recompute tests pin.
    pub executions: u64,
    /// Number of entries evicted since creation (the `stats` gauge that
    /// tells an operator the cache is thrashing).
    pub evictions: u64,
}

impl<V> Registry<V> {
    /// Empty registry holding at most `capacity` outcomes.
    pub fn new(capacity: usize) -> Registry<V> {
        Registry {
            capacity: capacity.max(1),
            map: BTreeMap::new(),
            order: VecDeque::new(),
            executions: 0,
            evictions: 0,
        }
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The cached outcome for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.map.get(key)
    }

    /// Record an outcome, evicting the oldest entry when over capacity.
    /// Counts one execution.
    pub fn insert(&mut self, key: String, outcome: V) {
        self.executions += 1;
        if self.map.insert(key.clone(), outcome).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                    self.evictions += 1;
                }
            }
        }
    }
}

/// Per-scheduler latency accounting: a sliding window of recent
/// construction times (percentiles) plus all-time count and maximum, so a
/// daemon serving millions of jobs holds bounded memory and `stats`
/// snapshots stay O(window).
#[derive(Debug, Default)]
struct LatencySample {
    /// Most recent construction times in ms (at most [`LATENCY_WINDOW`]).
    recent: VecDeque<f64>,
    /// All-time construction count.
    count: u64,
    /// All-time worst construction time, ms.
    max_ms: f64,
}

/// How many recent constructions per scheduler feed the latency
/// percentiles.
pub const LATENCY_WINDOW: usize = 4096;

/// Running service counters and per-scheduler construction latencies.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Jobs answered (cache hits and misses alike, simulations included).
    pub jobs_done: u64,
    /// Simulations answered (a subset of `jobs_done`).
    pub sims_done: u64,
    /// Jobs answered from a cache (schedule or simulation).
    pub cache_hits: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Jobs replayed from the ledger at startup (re-queued unacknowledged
    /// work plus rehydrated acknowledged outcomes).
    pub jobs_recovered: u64,
    /// Construction attempts re-queued after a worker panic.
    pub jobs_retried: u64,
    /// Jobs answered with a `timeout` error.
    pub jobs_timed_out: u64,
    /// Queued jobs evicted by admission control or the shutdown drain.
    pub jobs_shed: u64,
    /// Latency samples keyed by scheduler display name. Ordered so the
    /// `stats` latency table is stable run to run.
    latencies: BTreeMap<String, LatencySample>,
    /// Portfolio win tallies keyed by the winning member's canonical spec
    /// string. Ordered so the `stats` portfolio table is stable; the
    /// `metrics` win counters derive from it too.
    pub(crate) portfolio_wins: BTreeMap<String, u64>,
}

/// Point-in-time gauges the service owns (the stats mutex does not), fed
/// into [`ServiceStats::snapshot`] alongside the counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatsGauges {
    /// Jobs waiting in the priority queue.
    pub queue_depth: usize,
    /// Entries in the schedule cache.
    pub cache_size: usize,
    /// Entries in the simulation cache.
    pub sim_cache_size: usize,
    /// Evictions from either cache since startup.
    pub cache_evictions: u64,
    /// Current ledger size in bytes (0 without a ledger).
    pub ledger_bytes: u64,
    /// Ledger events appended since the daemon started.
    pub uptime_events: u64,
    /// Trace events dropped by the tracer's ring buffers since startup
    /// (0 without a tracer). Nonzero means span accounting in the trace
    /// file under-reports — the `trace report` reconciliation caveat.
    pub trace_events_dropped: u64,
}

/// Nearest-rank percentile of a *sorted* sample (`q` in `[0, 1]`): the
/// value at 1-based rank `⌈q·n⌉` (clamped to `[1, n]`), per the standard
/// nearest-rank definition. Guarantees at least `q` of the samples are
/// `<=` the returned value — the previous rounding rule could report a
/// p50 that a minority of samples sat below.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied().unwrap_or(0.0)
}

impl ServiceStats {
    /// Record one construction latency (windowed: only the most recent
    /// [`LATENCY_WINDOW`] samples per scheduler feed the percentiles).
    pub fn record_latency(&mut self, scheduler: &str, construct: Duration) {
        let ms = construct.as_secs_f64() * 1e3;
        let sample = self.latencies.entry(scheduler.to_string()).or_default();
        sample.recent.push_back(ms);
        if sample.recent.len() > LATENCY_WINDOW {
            sample.recent.pop_front();
        }
        sample.count += 1;
        sample.max_ms = sample.max_ms.max(ms);
    }

    /// Count one portfolio construction won by the member with canonical
    /// spec string `label`.
    pub fn record_portfolio_win(&mut self, label: &str) {
        *self.portfolio_wins.entry(label.to_string()).or_insert(0) += 1;
    }

    /// Mean of the recent construction latencies across all schedulers,
    /// in milliseconds — the per-job cost estimate behind the
    /// `retry_after_ms` backoff hint. `fallback_ms` answers for a cold
    /// daemon with no samples yet.
    pub fn mean_recent_ms(&self, fallback_ms: f64) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for sample in self.latencies.values() {
            sum += sample.recent.iter().sum::<f64>();
            n += sample.recent.len();
        }
        if n == 0 {
            fallback_ms
        } else {
            sum / n as f64
        }
    }

    /// Package the counters plus caller-supplied gauges as a response.
    /// Percentiles cover the most recent [`LATENCY_WINDOW`] constructions
    /// per scheduler; `count` and `max_ms` are all-time.
    pub fn snapshot(&self, gauges: StatsGauges, uptime: Duration) -> StatsResponse {
        // BTreeMap iteration is already in scheduler-name order, so the
        // latency table is deterministic without a sort.
        let latency: Vec<LatencyEntry> = self
            .latencies
            .iter()
            .map(|(scheduler, sample)| {
                let mut sorted: Vec<f64> = sample.recent.iter().copied().collect();
                sorted.sort_by(f64::total_cmp);
                LatencyEntry {
                    scheduler: scheduler.clone(),
                    count: sample.count,
                    window: sorted.len() as u64,
                    p50_ms: percentile(&sorted, 0.50),
                    p90_ms: percentile(&sorted, 0.90),
                    p99_ms: percentile(&sorted, 0.99),
                    max_ms: sample.max_ms,
                }
            })
            .collect();
        let portfolio: Vec<PortfolioWinEntry> = self
            .portfolio_wins
            .iter()
            .map(|(scheduler, &wins)| PortfolioWinEntry {
                scheduler: scheduler.clone(),
                wins,
            })
            .collect();
        StatsResponse {
            op: "stats".into(),
            queue_depth: gauges.queue_depth,
            jobs_done: self.jobs_done,
            sims_done: self.sims_done,
            cache_hits: self.cache_hits,
            errors: self.errors,
            cache_size: gauges.cache_size,
            sim_cache_size: gauges.sim_cache_size,
            cache_evictions: gauges.cache_evictions,
            jobs_recovered: self.jobs_recovered,
            jobs_retried: self.jobs_retried,
            jobs_timed_out: self.jobs_timed_out,
            jobs_shed: self.jobs_shed,
            ledger_bytes: gauges.ledger_bytes,
            uptime_events: gauges.uptime_events,
            trace_events_dropped: gauges.trace_events_dropped,
            uptime_ms: uptime.as_secs_f64() * 1e3,
            latency,
            portfolio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DagSpec, JobSpec};
    use onesched_testbeds::Testbed;

    fn lu_job() -> ResolvedJob {
        JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 10),
            platform: None,
            scheduler: None,
            model: None,
            validate: true,
        }
        .resolve()
        .unwrap()
    }

    #[test]
    fn run_job_is_deterministic_and_valid() {
        let job = lu_job();
        let a = run_job(&job, None, &Scope::off());
        let b = run_job(&job, None, &Scope::off());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.violations, 0, "validator must accept the schedule");
        assert_eq!(a.tasks, 55);
    }

    #[test]
    fn registry_serves_repeats_without_recomputing() {
        let job = lu_job();
        let mut reg = Registry::new(16);
        // miss: run and record
        assert!(reg.get(&job.key).is_none());
        let outcome = run_job(&job, None, &Scope::off());
        reg.insert(job.key.clone(), outcome.clone());
        assert_eq!(reg.executions, 1);
        // hit: the stored outcome answers without another run
        let hit = reg.get(&job.key).expect("cached").clone();
        assert_eq!(hit, outcome);
        assert_eq!(reg.executions, 1, "a cache hit must not count a run");
    }

    #[test]
    fn registry_evicts_fifo_at_capacity() {
        let mut reg = Registry::new(2);
        let out = run_job(&lu_job(), None, &Scope::off());
        reg.insert("a".into(), out.clone());
        reg.insert("b".into(), out.clone());
        assert_eq!(reg.evictions, 0);
        reg.insert("c".into(), out.clone());
        assert_eq!(reg.len(), 2);
        assert!(reg.get("a").is_none(), "oldest entry evicted");
        assert!(reg.get("b").is_some() && reg.get("c").is_some());
        assert_eq!(reg.evictions, 1, "the eviction is counted");
    }

    #[test]
    fn sim_job_executes_and_zero_noise_matches_static() {
        let job = lu_job();
        let clock = onesched_trace::WallClock::new();
        let sim = crate::protocol::SimSpec::default().resolve().unwrap();
        let a = run_sim_job(&job, &sim, None, &clock, None, &Scope::off()).expect("executes");
        assert_eq!(a.degradation, 1.0, "zero noise replays exactly");
        assert_eq!(a.executed_makespan, a.job.makespan);
        assert_eq!(a.job.violations, 0);
        // deterministic, including the executed trace
        let b = run_sim_job(&job, &sim, None, &clock, None, &Scope::off()).expect("executes");
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.job.fingerprint, b.job.fingerprint);
        // noise moves the executed makespan but stays seed-deterministic
        let noisy = crate::protocol::SimSpec::noise("list-dynamic", 0.3, 9)
            .resolve()
            .unwrap();
        let x = run_sim_job(&job, &noisy, None, &clock, None, &Scope::off()).expect("executes");
        let y = run_sim_job(&job, &noisy, None, &clock, None, &Scope::off()).expect("executes");
        assert_eq!(x.trace_fingerprint, y.trace_fingerprint);
        assert_ne!(x.trace_fingerprint, a.trace_fingerprint);
        assert_eq!(
            x.job.fingerprint, a.job.fingerprint,
            "construction is untouched"
        );
    }

    #[test]
    fn sim_deadline_checked_between_construct_and_execute() {
        let job = lu_job();
        let sim = crate::protocol::SimSpec::default().resolve().unwrap();
        // a manual clock past the deadline: expired before the engine runs
        let clock = onesched_trace::ManualClock::new();
        clock.set(10);
        match run_sim_job(&job, &sim, Some(5), &clock, None, &Scope::off()) {
            Err(SimRunError::DeadlineExceeded(outcome)) => {
                // the construction half completed and is cacheable
                assert_eq!(
                    outcome.fingerprint,
                    run_job(&job, None, &Scope::off()).fingerprint
                );
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        // a generous deadline lets the run finish
        let ok = run_sim_job(&job, &sim, Some(u64::MAX), &clock, None, &Scope::off());
        assert!(ok.is_ok());
    }

    #[test]
    fn percentiles_on_small_samples() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        // nearest rank ⌈0.5·4⌉ = 2 → second sample; exactly half the
        // samples are <= the reported p50
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 0.75), 3.0);
        assert_eq!(percentile(&sorted, 0.76), 4.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let mut stats = ServiceStats::default();
        stats.record_latency("HEFT", Duration::from_millis(2));
        stats.record_latency("HEFT", Duration::from_millis(8));
        let snap = stats.snapshot(
            StatsGauges {
                queue_depth: 3,
                cache_size: 1,
                sim_cache_size: 2,
                cache_evictions: 5,
                ledger_bytes: 0,
                uptime_events: 0,
                trace_events_dropped: 0,
            },
            Duration::from_secs(1),
        );
        assert_eq!(snap.latency.len(), 1);
        assert_eq!(snap.latency[0].count, 2);
        assert_eq!(snap.latency[0].window, 2);
        assert_eq!(snap.latency[0].max_ms, 8.0);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.sim_cache_size, 2);
        assert_eq!(snap.cache_evictions, 5);
    }

    #[test]
    fn latency_sample_is_windowed_but_counts_all_time() {
        let mut stats = ServiceStats::default();
        // one huge early outlier, then a window-full of 1 ms samples
        stats.record_latency("HEFT", Duration::from_secs(100));
        for _ in 0..LATENCY_WINDOW {
            stats.record_latency("HEFT", Duration::from_millis(1));
        }
        let snap = stats.snapshot(StatsGauges::default(), Duration::from_secs(1));
        let l = &snap.latency[0];
        assert_eq!(l.count, LATENCY_WINDOW as u64 + 1, "count is all-time");
        assert_eq!(l.window, LATENCY_WINDOW as u64, "window is bounded");
        assert_eq!(l.max_ms, 100_000.0, "max is all-time");
        assert_eq!(l.p99_ms, 1.0, "percentiles cover the recent window only");
    }
}
