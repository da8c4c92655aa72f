//! The offline workloads: in-process construction of seeded inputs.
//!
//! `offline-direct` runs HEFT and ILHA on large random layered DAGs and
//! three paper testbeds on the paper platform; the placement scan does
//! most of that work. `offline-routed` runs routed HEFT/ILHA on many small
//! random DAGs and three small testbeds over the paper platform and three
//! routed topologies; it is the only workload that exercises
//! `heuristics::routed` and `platform::routing`.

use crate::layers::LayerClock;
use crate::stats::{geomean, lowest, median, percentile, Rng};
use crate::{Args, Outcome, Workload};
use onesched_dag::TaskGraph;
use onesched_heuristics::Scheduler;
use onesched_platform::Platform;
use onesched_service::protocol::{DagSpec, JobSpec, PlatformSpec, SchedulerSpec};
use onesched_service::workloads::stress_config;
use onesched_service::{Request, Testbed};
use onesched_sim::CommModel;
use std::sync::Arc;
use std::time::Instant;

/// Random DAGs per `offline-direct` run, and their target task count.
const DIRECT_DAGS: usize = 3;
const DIRECT_TASKS: usize = 30_000;
/// Problem size of the paper testbeds in `offline-direct`.
const TESTBED_N: usize = 120;
/// Random DAGs per `offline-routed` run, and their target task count:
/// many small ones, because routed construction time and quality vary
/// more with a DAG's structure than direct construction does.
const ROUTED_DAGS: usize = 24;
const ROUTED_TASKS: usize = 400;
/// Problem size of the paper testbeds in `offline-routed`.
const ROUTED_TESTBED_N: usize = 40;
/// Processors of the routed topologies.
const ROUTED_PROCS: usize = 10;
/// Largest graph the traced pass replays through the execution engine:
/// replaying the 30k-task random DAGs takes seconds each, far longer than
/// constructing them.
const REPLAY_MAX_TASKS: usize = 20_000;
/// Times the inputs are generated; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// The workload's job specs, in run order. The random DAGs' seeds derive
/// from the workload seed.
fn specs(workload: Workload, seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 1);
    let random_dag = |rng: &mut Rng, tasks: usize| {
        let cfg = stress_config(tasks);
        DagSpec::random(
            cfg.layers,
            cfg.max_width,
            cfg.edge_prob,
            rng.next_u64() >> 12,
        )
    };
    let job = |dag: &DagSpec, platform: &PlatformSpec, scheduler: &SchedulerSpec| JobSpec {
        dag: dag.clone(),
        platform: Some(platform.clone()),
        scheduler: Some(scheduler.clone()),
        model: Some("one-port-bidir".into()),
        validate: false,
    };
    match workload {
        Workload::OfflineDirect => {
            let mut dags: Vec<DagSpec> = (0..DIRECT_DAGS)
                .map(|_| random_dag(&mut rng, DIRECT_TASKS))
                .collect();
            dags.extend(
                [Testbed::Lu, Testbed::Laplace, Testbed::Stencil]
                    .map(|tb| DagSpec::testbed(tb, TESTBED_N)),
            );
            let paper = PlatformSpec::paper();
            // `ilha` without `b`: resolution pins the testbed's paper-best
            // chunk, else the platform's perfect-balance chunk.
            let schedulers = [SchedulerSpec::heft(), SchedulerSpec::named("ilha")];
            dags.iter()
                .flat_map(|d| schedulers.iter().map(|s| job(d, &paper, s)))
                .collect()
        }
        Workload::OfflineRouted => {
            let mut dags: Vec<DagSpec> = (0..ROUTED_DAGS)
                .map(|_| random_dag(&mut rng, ROUTED_TASKS))
                .collect();
            dags.extend(
                [Testbed::Lu, Testbed::Laplace, Testbed::Stencil]
                    .map(|tb| DagSpec::testbed(tb, ROUTED_TESTBED_N)),
            );
            let platforms = [
                PlatformSpec::paper(),
                PlatformSpec::routed("ring", ROUTED_PROCS, 1.0),
                PlatformSpec::routed("star", ROUTED_PROCS, 1.0),
                // one fixed topology: a seeded one moves routing cost by
                // more than the seed's DAGs do
                PlatformSpec::random_connected(ROUTED_PROCS, 1.0, 0.3, 1),
            ];
            let schedulers = [
                SchedulerSpec::routed_heft(),
                SchedulerSpec::named("routed-ilha"),
            ];
            let mut jobs = Vec::new();
            for d in &dags {
                for p in &platforms {
                    jobs.extend(schedulers.iter().map(|s| job(d, p, s)));
                }
            }
            jobs
        }
        Workload::DaemonOpen => Vec::new(),
    }
}

/// One materialized construction job.
struct Job {
    graph: Arc<TaskGraph>,
    platform: Platform,
    scheduler: Box<dyn Scheduler>,
    model: CommModel,
}

/// Resolve every spec and build its graph, platform and scheduler, sharing
/// one graph among the jobs of the same DAG.
fn materialize(specs: &[JobSpec]) -> Result<Vec<Job>, String> {
    let mut graphs: Vec<(DagSpec, Arc<TaskGraph>)> = Vec::new();
    specs
        .iter()
        .map(|spec| {
            let job = spec.resolve().map_err(|e| e.message)?;
            let graph = match graphs.iter().find(|(d, _)| *d == spec.dag) {
                Some((_, g)) => Arc::clone(g),
                None => {
                    let g = Arc::new(job.build_graph());
                    graphs.push((spec.dag.clone(), Arc::clone(&g)));
                    g
                }
            };
            Ok(Job {
                graph,
                platform: job.build_platform(),
                scheduler: job.build_scheduler(),
                model: job.model(),
            })
        })
        .collect()
}

/// The timed pass: construct every job repeatedly for `args.seconds`.
/// Only the construction call is timed; validation and fingerprints run
/// outside it.
pub fn timed(args: &Args) -> Result<Outcome, String> {
    let specs = specs(args.workload, args.seed);
    let mut setup = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(jobs);
        let t0 = Instant::now();
        jobs = materialize(&specs)?;
        setup.push(t0.elapsed().as_secs_f64());
    }

    let mut out = Outcome::default();
    let mut first: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut speedups = Vec::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let start = Instant::now();
    let mut repetitions = 0;
    while repetitions == 0 || start.elapsed().as_secs_f64() < args.seconds {
        repetitions += 1;
        for (i, job) in jobs.iter().enumerate() {
            let g = job.graph.as_ref();
            out.attempted += 1;
            let t0 = Instant::now();
            let sched = job.scheduler.try_schedule(g, &job.platform, job.model);
            let dt = t0.elapsed().as_secs_f64();
            let sched = match sched {
                Ok(s) => s,
                Err(e) => {
                    out.fail(format!("job {i}: {e}"));
                    continue;
                }
            };
            times[i].push(dt);
            let fp = onesched_sim::placement_fingerprint(&sched);
            match first[i] {
                Some(f) if f != fp => {
                    out.fail(format!("job {i}: fingerprint changed between repetitions"))
                }
                Some(_) => {}
                None => {
                    let violations = onesched_sim::validate(g, &job.platform, job.model, &sched);
                    if !violations.is_empty() {
                        out.fail(format!(
                            "job {i}: {} validator violations",
                            violations.len()
                        ));
                    }
                    speedups.push(sched.speedup(g, &job.platform));
                    first[i] = Some(fp);
                }
            }
        }
    }
    // Each job's best repetition: other load on the host only ever slows
    // one down. Latency is per 1000 tasks, so the seed's graph sizes do
    // not move it.
    let best: Vec<f64> = times.iter().map(|t| lowest(t)).collect();
    let tasks: usize = jobs.iter().map(|j| j.graph.num_tasks()).sum();
    let per_1k_ms: Vec<f64> = best
        .iter()
        .zip(&jobs)
        .map(|(s, job)| s * 1e6 / job.graph.num_tasks() as f64)
        .collect();
    let best_s: f64 = best.iter().sum();
    out.metric("construct_tasks_per_s", tasks as f64 / best_s, "1/s");
    out.metric("jobs_per_s", jobs.len() as f64 / best_s, "1/s");
    out.metric("latency_ms_p50", percentile(&per_1k_ms, 0.50), "ms");
    out.metric("latency_ms_p99", percentile(&per_1k_ms, 0.99), "ms");
    out.metric("speedup_geomean", geomean(&speedups), "ratio");
    out.metric("peak_rss_mb", crate::peak_rss_mb("self"), "MB");
    out.metric("setup_s", median(&setup), "s");
    eprintln!(
        "perfbench: {} jobs x {repetitions} repetitions, {tasks} tasks per repetition",
        jobs.len()
    );
    out.fingerprints = first.into_iter().flatten().collect();
    Ok(out)
}

/// The traced pass: walk every job once through the layer clock, with a
/// zero-noise replay (graphs up to [`REPLAY_MAX_TASKS`]) that must
/// reproduce the static makespan exactly.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut clock = LayerClock::new(&args.work.join("layers-ledger.ndjson"))?;
    let mut out = Outcome::default();
    for (i, spec) in specs(args.workload, args.seed).into_iter().enumerate() {
        let line = serde_json::to_string(&Request::submit(Some(format!("job-{i}")), 0, spec))
            .map_err(|e| e.to_string())?;
        out.attempted += 1;
        match clock.run(&line, REPLAY_MAX_TASKS) {
            Ok(r) => {
                if r.violations > 0 {
                    out.fail(format!("job {i}: {} validator violations", r.violations));
                }
                if r.degradation.is_some_and(|d| d != 1.0) {
                    out.fail(format!(
                        "job {i}: zero-noise replay degradation {:?}",
                        r.degradation
                    ));
                }
                out.fingerprints.push(r.fingerprint);
            }
            Err(e) => out.fail(format!("job {i}: {e}")),
        }
    }
    clock.report(&mut out)?;
    crate::daemon::report_absent(&mut out);
    Ok(out)
}
