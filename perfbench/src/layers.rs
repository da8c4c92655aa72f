//! The traced pass's per-layer clock: one request line walked through the
//! same public functions the daemon calls, each call timed on its own.
//!
//! The order mirrors a daemon job — parse, resolve, ledger `submitted`,
//! graph and platform build, ledger `started`, construction, validation,
//! fingerprint, execution, response serialization, ledger `done` — so the
//! totals attribute a job's in-process cost layer by layer. Construction
//! of the paper's heuristics runs under [`ConstructProbe`]; other registry
//! kinds (baselines, portfolios) are timed as one call.

use crate::Outcome;
use onesched_exec::ExecConfig;
use onesched_heuristics::{NoProbe, ScanStats};
use onesched_service::cache::{ConstructProbe, JobOutcome, SimOutcome, PHASES};
use onesched_service::ledger::{Ledger, LedgerOutcome, LedgerRecord};
use onesched_service::protocol::{ResultResponse, SimResultResponse};
use onesched_service::Request;
use onesched_trace::WallClock;
use std::path::Path;
use std::time::{Duration, Instant};

/// Registry kinds whose construction reports phases to a probe.
const HEURISTIC_KINDS: [&str; 4] = ["heft", "ilha", "routed-heft", "routed-ilha"];

/// Appends between ledger syncs, as the daemon batches them.
const SYNC_EVERY: u64 = 64;

/// Accumulated per-layer totals over one traced pass.
#[derive(Debug, Default)]
struct Totals {
    phases_us: [u64; 4],
    heuristics_wall: Duration,
    scan: ScanStats,
    allocs: u64,
    alloc_bytes: u64,
    graph: Duration,
    platform: Duration,
    baselines: Duration,
    validate: Duration,
    fingerprint: Duration,
    execute: Duration,
    events: u64,
    parse: Duration,
    resolve: Duration,
    append: Duration,
    sync: Duration,
    respond: Duration,
}

/// What the in-process run of one request produced: the values a daemon
/// answer must match.
#[derive(Debug, Clone)]
pub struct InProc {
    /// Placement fingerprint of the constructed schedule.
    pub fingerprint: u64,
    /// Executed-trace fingerprint (simulate requests, and zero-noise
    /// replays).
    pub trace_fingerprint: Option<u64>,
    /// Validator violations.
    pub violations: usize,
    /// Executed over static makespan, when executed.
    pub degradation: Option<f64>,
}

/// The traced pass's walker: a scratch ledger plus the running totals.
pub struct LayerClock {
    ledger: Ledger,
    seq: u64,
    clock: WallClock,
    totals: Totals,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

impl LayerClock {
    /// A walker appending to a fresh ledger at `path`.
    pub fn new(path: &Path) -> Result<LayerClock, String> {
        let _ = std::fs::remove_file(path);
        // Sync is timed on its own, so the ledger never syncs by itself.
        let (ledger, _) = Ledger::open_with(path, u64::MAX).map_err(|e| e.to_string())?;
        Ok(LayerClock {
            ledger,
            seq: 0,
            clock: WallClock::new(),
            totals: Totals::default(),
        })
    }

    fn append(&mut self, record: &LedgerRecord) -> Result<(), String> {
        let t = &mut self.totals;
        timed(&mut t.append, || self.ledger.append(record)).map_err(|e| e.to_string())?;
        if self.ledger.appended().is_multiple_of(SYNC_EVERY) {
            timed(&mut t.sync, || self.ledger.sync()).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Walk one request line through every layer. A plain submission whose
    /// graph has at most `replay_max_tasks` tasks is also executed at zero
    /// noise (the offline workloads' exec layer); the replay must
    /// reproduce the static makespan exactly.
    pub fn run(&mut self, line: &str, replay_max_tasks: usize) -> Result<InProc, String> {
        self.seq += 1;
        let seq = self.seq;
        let t = &mut self.totals;
        let req: Request = timed(&mut t.parse, || serde_json::from_str(line))
            .map_err(|e| format!("parse: {e}"))?;
        let spec = req.job.clone().ok_or("request without a job")?;
        let (job, sim) = timed(&mut t.resolve, || {
            let job = spec.resolve().map_err(|e| e.message)?;
            let sim = req.sim.as_ref().map(|s| s.resolve()).transpose()?;
            Ok::<_, String>((job, sim))
        })
        .map_err(|e| format!("resolve: {e}"))?;
        let id = req.id.clone().unwrap_or_default();
        self.append(&LedgerRecord::submitted(
            seq,
            &id,
            &job.key,
            0,
            spec,
            req.sim.clone(),
        ))?;
        let t = &mut self.totals;
        let g = timed(&mut t.graph, || job.build_graph());
        let platform = timed(&mut t.platform, || job.build_platform());
        self.append(&LedgerRecord::started(seq, &id, &job.key))?;

        let t = &mut self.totals;
        let scheduler = job.build_scheduler();
        let model = job.model();
        let kind = job.scheduler_spec().kind.as_str();
        let alloc0 = onesched_prof::snapshot();
        let t0 = Instant::now();
        let sched = if HEURISTIC_KINDS.contains(&kind) {
            let probe = ConstructProbe::new(&self.clock);
            let sched = scheduler.try_schedule_probed(&g, &platform, model, &probe);
            t.heuristics_wall += t0.elapsed();
            for (slot, phase) in PHASES.into_iter().enumerate() {
                t.phases_us[slot] += probe.phase_us(phase);
            }
            t.scan.add(&probe.scan());
            sched
        } else {
            let sched = scheduler.try_schedule_probed(&g, &platform, model, &NoProbe);
            t.baselines += t0.elapsed();
            sched
        }
        .map_err(|e| format!("construct: {e}"))?;
        let construct = t0.elapsed();
        let allocs = onesched_prof::snapshot().delta_since(alloc0);
        t.allocs += allocs.allocs;
        t.alloc_bytes += allocs.bytes;

        let violations = timed(&mut t.validate, || {
            onesched_sim::validate(&g, &platform, model, &sched).len()
        });
        let fingerprint = timed(&mut t.fingerprint, || {
            onesched_sim::placement_fingerprint(&sched)
        });
        let outcome = JobOutcome {
            scheduler: scheduler.name(),
            tasks: g.num_tasks(),
            makespan: sched.makespan(),
            speedup: sched.speedup(&g, &platform),
            effective_comms: sched.num_effective_comms(),
            fingerprint,
            construct,
            violations,
        };
        let exec_cfg = match &sim {
            Some(s) => Some(s.exec_config()),
            None => (g.num_tasks() <= replay_max_tasks).then(ExecConfig::replay),
        };
        let report = match exec_cfg {
            Some(cfg) => {
                let t0 = Instant::now();
                let r = onesched_exec::execute(&g, &platform, model, &sched, &cfg)
                    .map_err(|e| format!("execute: {e}"))?;
                let exec = t0.elapsed();
                t.execute += exec;
                t.events += r.events_processed;
                Some((r, exec))
            }
            None => None,
        };
        let model_name = model.name().to_string();
        let done = match (&sim, &report) {
            (Some(sim), Some((r, exec))) => {
                let sim_outcome = SimOutcome {
                    job: outcome.clone(),
                    policy: sim.policy().name().to_string(),
                    seed: sim.seed(),
                    executed_makespan: r.executed_makespan,
                    degradation: r.degradation(),
                    trace_fingerprint: r.trace_fingerprint,
                    events_processed: r.events_processed,
                    exec: *exec,
                };
                timed(&mut t.respond, || {
                    serde_json::to_string(&SimResultResponse {
                        op: "sim-result".into(),
                        id: id.clone(),
                        scheduler: outcome.scheduler.clone(),
                        model: model_name,
                        policy: sim_outcome.policy.clone(),
                        seed: sim_outcome.seed,
                        tasks: outcome.tasks,
                        static_makespan: outcome.makespan,
                        executed_makespan: r.executed_makespan,
                        degradation: r.degradation(),
                        fingerprint: format!("{fingerprint:016x}"),
                        trace_fingerprint: format!("{:016x}", r.trace_fingerprint),
                        construct_ms: construct.as_secs_f64() * 1e3,
                        exec_ms: exec.as_secs_f64() * 1e3,
                        cache_hit: false,
                        violations,
                    })
                })
                .map_err(|e| e.to_string())?;
                LedgerOutcome::from_sim(&sim_outcome)
            }
            _ => {
                timed(&mut t.respond, || {
                    serde_json::to_string(&ResultResponse {
                        op: "result".into(),
                        id: id.clone(),
                        scheduler: outcome.scheduler.clone(),
                        model: model_name,
                        tasks: outcome.tasks,
                        makespan: outcome.makespan,
                        speedup: outcome.speedup,
                        effective_comms: outcome.effective_comms,
                        fingerprint: format!("{fingerprint:016x}"),
                        construct_ms: construct.as_secs_f64() * 1e3,
                        cache_hit: false,
                        violations,
                    })
                })
                .map_err(|e| e.to_string())?;
                LedgerOutcome::from_job(&outcome)
            }
        };
        self.append(&LedgerRecord::done(seq, &id, &job.key, Some(done), None))?;
        Ok(InProc {
            fingerprint,
            trace_fingerprint: report.as_ref().map(|(r, _)| r.trace_fingerprint),
            violations,
            degradation: report.as_ref().map(|(r, _)| r.degradation()),
        })
    }

    /// Sync the ledger (as a graceful daemon shutdown does) and report
    /// every in-process layer metric.
    pub fn report(&mut self, out: &mut Outcome) -> Result<(), String> {
        let t = &mut self.totals;
        timed(&mut t.sync, || self.ledger.sync()).map_err(|e| e.to_string())?;
        let t = &self.totals;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let phase_ms = |slot: usize| t.phases_us[slot] as f64 / 1e3;
        let phases_ms: f64 = (0..4).map(phase_ms).sum();
        out.metric("heuristics.rank_ms", phase_ms(0), "ms");
        out.metric("heuristics.step1_ms", phase_ms(1), "ms");
        out.metric("heuristics.scan_ms", phase_ms(2), "ms");
        out.metric("heuristics.commit_ms", phase_ms(3), "ms");
        out.metric(
            "heuristics.unattributed_ms",
            ms(t.heuristics_wall) - phases_ms,
            "ms",
        );
        out.metric(
            "heuristics.scan_candidates",
            t.scan.candidates as f64,
            "count",
        );
        out.metric(
            "heuristics.scan_evaluated",
            t.scan.evaluated as f64,
            "count",
        );
        out.metric(
            "heuristics.scan_pruned_bound",
            t.scan.pruned_bound as f64,
            "count",
        );
        out.metric(
            "heuristics.scan_pruned_contention",
            t.scan.pruned_contention as f64,
            "count",
        );
        out.metric("heuristics.scan_aborted", t.scan.aborted as f64, "count");
        out.metric(
            "heuristics.scan_evaluated_ratio",
            t.scan.evaluated as f64 / (t.scan.candidates.max(1)) as f64,
            "ratio",
        );
        out.metric("prof.construct_allocs", t.allocs as f64, "count");
        out.metric("prof.construct_alloc_bytes", t.alloc_bytes as f64, "bytes");
        out.metric("platform.build_ms", ms(t.platform), "ms");
        out.metric("testbeds.build_graph_ms", ms(t.graph), "ms");
        out.metric("baselines.construct_ms", ms(t.baselines), "ms");
        out.metric("sim.validate_ms", ms(t.validate), "ms");
        out.metric("sim.fingerprint_ms", ms(t.fingerprint), "ms");
        out.metric("exec.execute_ms", ms(t.execute), "ms");
        out.metric("exec.events", t.events as f64, "count");
        out.metric("service.parse_us", us(t.parse), "us");
        out.metric("service.resolve_us", us(t.resolve), "us");
        out.metric("service.ledger_append_us", us(t.append), "us");
        out.metric("service.ledger_sync_us", us(t.sync), "us");
        out.metric("service.respond_us", us(t.respond), "us");
        Ok(())
    }
}
