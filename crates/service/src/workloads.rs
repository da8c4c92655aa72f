//! Workload generators for service-scale scenarios beyond the paper's six
//! testbeds: random layered DAGs targeted at a task count (100k+ tasks),
//! and routed workloads over non-fully-connected topologies.
//!
//! Everything here produces [`Request`] batches, so the same generators
//! drive the daemon (`onesched-svc gen ... | onesched-svc submit ...`), the
//! `experiments stress`/`routed` sweeps, and the integration tests.

use crate::protocol::{
    DagSpec, JobSpec, PlatformSpec, Request, SchedulerSpec, SimSpec, MAX_TASKS_PER_JOB,
};
use onesched_testbeds::{RandomDagConfig, Testbed};

/// Average in-degree targeted by [`stress_config`]: enough fan-in for real
/// communication pressure without making edge count (and schedule
/// construction) quadratic in layer width.
pub const STRESS_FAN_IN: f64 = 3.0;

/// A [`RandomDagConfig`] whose *expected* task count is `tasks`: roughly
/// square-root-many layers of square-root-wide layers, with the edge
/// probability tuned so each task has about [`STRESS_FAN_IN`] parents.
/// Actual counts vary a few percent around the target per seed (layer
/// widths are drawn uniformly).
pub fn stress_config(tasks: usize) -> RandomDagConfig {
    let tasks = tasks.clamp(4, MAX_TASKS_PER_JOB) as f64;
    // layers ~ 0.7 sqrt(n) keeps graphs deeper than wide: scheduling work
    // then stresses the ready-queue/commit machinery, not just one huge
    // independent antichain.
    let layers = (0.7 * tasks.sqrt()).ceil().max(2.0);
    let mean_width = (tasks / layers).max(1.0);
    RandomDagConfig {
        layers: layers as usize,
        max_width: (2.0 * mean_width - 1.0).max(1.0) as usize,
        edge_prob: (STRESS_FAN_IN / mean_width).min(1.0),
        ..RandomDagConfig::default()
    }
}

/// A stress submission: one random layered DAG of about `tasks` tasks on
/// the paper platform, under the given scheduler.
pub fn stress_request(tasks: usize, seed: u64, scheduler: SchedulerSpec) -> Request {
    let cfg = stress_config(tasks);
    let sched_tag = scheduler.kind.clone();
    Request::submit(
        Some(format!("stress-{tasks}-{sched_tag}-{seed}")),
        0,
        JobSpec {
            dag: DagSpec::random(cfg.layers, cfg.max_width, cfg.edge_prob, seed),
            platform: None,
            scheduler: Some(scheduler),
            model: None,
            validate: false,
        },
    )
}

/// Noise levels of the [`simulate_requests`] batch (σ task noise with
/// matching bandwidth degradation).
pub const SIM_NOISE_LEVELS: [f64; 3] = [0.0, 0.1, 0.3];

/// A perturbation-sweep batch of `simulate` submissions: one testbed at
/// size `n`, HEFT and ILHA, both dispatch policies, at each
/// [`SIM_NOISE_LEVELS`] entry under the given `seed` — same seed, same
/// executed traces, which is what the CI determinism gate diffs.
pub fn simulate_requests(tb: Testbed, n: usize, seed: u64) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (skind, sched) in [
        ("heft", SchedulerSpec::heft()),
        ("ilha", SchedulerSpec::ilha(tb.paper_best_b())),
    ] {
        for policy in ["static-order", "list-dynamic"] {
            for (i, &sigma) in SIM_NOISE_LEVELS.iter().enumerate() {
                reqs.push(Request::simulate(
                    Some(format!("sim-{}-{skind}-{policy}-{i}", tb.name())),
                    0,
                    JobSpec {
                        dag: DagSpec::testbed(tb, n),
                        platform: None,
                        scheduler: Some(sched.clone()),
                        model: None,
                        validate: true,
                    },
                    SimSpec::noise(policy, sigma, seed),
                ));
            }
        }
    }
    reqs
}

/// The routed topology kinds the service understands.
pub const ROUTED_KINDS: [&str; 3] = ["star", "ring", "line"];

/// A batch of routed submissions over `procs` heterogeneous processors:
/// every topology kind × every testbed at size `n`, scheduled by both
/// routed HEFT and routed ILHA, plus one default-membership portfolio per
/// topology (LU at size `n`), which runs every catalog kind there.
/// Exercises the §4.3 store-and-forward extension at scale.
pub fn routed_requests(procs: usize, n: usize, priority: i64) -> Vec<Request> {
    let mut reqs = Vec::new();
    for kind in ROUTED_KINDS {
        reqs.push(Request::submit(
            Some(format!("routed-{kind}-portfolio-LU-{n}")),
            priority,
            JobSpec {
                dag: DagSpec::testbed(Testbed::Lu, n),
                platform: Some(PlatformSpec::routed(kind, procs, 1.0)),
                scheduler: Some(SchedulerSpec::named("portfolio")),
                model: None,
                validate: true,
            },
        ));
        for tb in Testbed::ALL {
            for (tag, sched) in [
                ("heft", SchedulerSpec::routed_heft()),
                ("ilha", SchedulerSpec::routed_ilha()),
            ] {
                reqs.push(Request::submit(
                    Some(format!("routed-{kind}-{tag}-{}-{n}", tb.name())),
                    priority,
                    JobSpec {
                        dag: DagSpec::testbed(tb, n),
                        platform: Some(PlatformSpec::routed(kind, procs, 1.0)),
                        scheduler: Some(sched),
                        model: None,
                        validate: true,
                    },
                ));
            }
        }
    }
    reqs
}

/// The CI smoke batch: small, fast, validated, and covering every
/// scheduler kind plus the cache path (the LU job appears twice), a
/// routed zero-noise simulate (its degradation must report exactly 1),
/// and a portfolio race whose ILHA member shares a cache key with the
/// duplicated LU job.
pub fn smoke_requests() -> Vec<Request> {
    let lu = JobSpec {
        dag: DagSpec::testbed(Testbed::Lu, 20),
        platform: None,
        scheduler: Some(SchedulerSpec::ilha(4)),
        model: None,
        validate: true,
    };
    vec![
        Request::submit(
            Some("smoke-toy".into()),
            1,
            JobSpec {
                dag: DagSpec::toy(),
                platform: Some(PlatformSpec {
                    kind: "homogeneous".into(),
                    procs: Some(2),
                    cycle_times: None,
                    link_time: None,
                    links: None,
                    extra_prob: None,
                    seed: None,
                }),
                scheduler: None,
                model: None,
                validate: true,
            },
        ),
        Request::submit(Some("smoke-lu".into()), 0, lu.clone()),
        Request::submit(Some("smoke-lu-again".into()), 0, lu),
        Request::submit(
            Some("smoke-routed".into()),
            0,
            JobSpec {
                dag: DagSpec::testbed(Testbed::ForkJoin, 12),
                platform: Some(PlatformSpec::routed("star", 5, 1.0)),
                scheduler: Some(SchedulerSpec::routed_heft()),
                model: None,
                validate: true,
            },
        ),
        Request::submit(
            Some("smoke-routed-ilha".into()),
            0,
            JobSpec {
                dag: DagSpec::testbed(Testbed::Laplace, 6),
                platform: Some(PlatformSpec::random_connected(6, 1.0, 0.3, 5)),
                scheduler: Some(SchedulerSpec::routed_ilha()),
                model: None,
                validate: true,
            },
        ),
        // zero-noise routed simulate: the static-order replay of a routed
        // multi-hop schedule must be bit-exact (degradation 1)
        Request::simulate(
            Some("smoke-routed-sim-static-order-0".into()),
            0,
            JobSpec {
                dag: DagSpec::testbed(Testbed::Stencil, 8),
                platform: Some(PlatformSpec::routed("ring", 5, 1.0)),
                scheduler: Some(SchedulerSpec::routed_ilha()),
                model: None,
                validate: true,
            },
            SimSpec::default(),
        ),
        // a portfolio race over both paper heuristics: the ILHA member
        // resolves to the same cache key as the smoke-lu pair above, so
        // this also exercises member-level cache reuse
        Request::submit(
            Some("smoke-portfolio".into()),
            0,
            JobSpec {
                dag: DagSpec::testbed(Testbed::Lu, 20),
                platform: None,
                scheduler: Some(SchedulerSpec::portfolio(vec![
                    SchedulerSpec::heft(),
                    SchedulerSpec::ilha(4),
                ])),
                model: None,
                validate: true,
            },
        ),
        Request::stats(),
    ]
}

/// The chaos batch for the fault-injection harness: a mixed spread of
/// small submits and simulates at varied priorities, every job seeded by
/// `seed` so two runs of the same batch are bit-identical end to end. The
/// harness SIGKILLs the daemon partway through this batch and diffs the
/// post-recovery results against an uninterrupted run — every request here
/// must be deterministic and answerable (no `stats` lines, whose counters
/// legitimately differ across a crash).
pub fn chaos_requests(seed: u64) -> Vec<Request> {
    let mut reqs = Vec::new();
    // a rotation of testbeds at small n: cheap enough to run many, varied
    // enough that cache hits don't collapse the batch into one job
    for (i, tb) in Testbed::ALL.iter().cycle().take(18).enumerate() {
        let n = 6 + (i % 5) * 3;
        let priority = (i as i64 % 5) - 2;
        let job = JobSpec {
            dag: DagSpec::testbed(*tb, n),
            platform: None,
            scheduler: Some(if i % 2 == 0 {
                SchedulerSpec::heft()
            } else {
                SchedulerSpec::ilha(tb.paper_best_b())
            }),
            model: None,
            validate: true,
        };
        if i % 3 == 2 {
            reqs.push(Request::simulate(
                Some(format!("chaos-sim-{i}-{}-{n}", tb.name())),
                priority,
                job,
                SimSpec::noise("static-order", 0.1, seed + i as u64),
            ));
        } else {
            reqs.push(Request::submit(
                Some(format!("chaos-{i}-{}-{n}", tb.name())),
                priority,
                job,
            ));
        }
    }
    // a couple of routed jobs so recovery covers the §4.3 path too
    reqs.push(Request::submit(
        Some("chaos-routed-ring".into()),
        1,
        JobSpec {
            dag: DagSpec::testbed(Testbed::Stencil, 8),
            platform: Some(PlatformSpec::routed("ring", 5, 1.0)),
            scheduler: Some(SchedulerSpec::routed_ilha()),
            model: None,
            validate: true,
        },
    ));
    reqs.push(Request::submit(
        Some("chaos-routed-star".into()),
        -1,
        JobSpec {
            dag: DagSpec::testbed(Testbed::ForkJoin, 12),
            platform: Some(PlatformSpec::routed("star", 5, 1.0)),
            scheduler: Some(SchedulerSpec::routed_heft()),
            model: None,
            validate: true,
        },
    ));
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_testbeds::random_layered;

    #[test]
    fn stress_config_hits_task_target() {
        for target in [1_000usize, 20_000] {
            let cfg = stress_config(target);
            let g = random_layered(&cfg, 7);
            let n = g.num_tasks() as f64;
            assert!(
                (n - target as f64).abs() / (target as f64) < 0.25,
                "target {target}: got {n} tasks with {cfg:?}"
            );
            // fan-in stays bounded: edges ≈ STRESS_FAN_IN × tasks
            let per_task = g.num_edges() as f64 / n;
            assert!(
                per_task < 2.0 * STRESS_FAN_IN,
                "avg in-degree {per_task} too high"
            );
        }
    }

    #[test]
    fn stress_request_resolves() {
        let r = stress_request(50_000, 3, SchedulerSpec::heft());
        let job = r.job.unwrap().resolve().unwrap();
        assert_eq!(job.spec.dag.kind, "random");
        assert_eq!(job.spec.dag.seed, Some(3));
    }

    #[test]
    fn routed_and_smoke_batches_resolve() {
        let routed = routed_requests(8, 8, 2);
        let portfolios = routed
            .iter()
            .filter(|r| {
                r.job
                    .as_ref()
                    .and_then(|j| j.scheduler.as_ref())
                    .unwrap()
                    .kind
                    == "portfolio"
            })
            .count();
        assert_eq!(portfolios, ROUTED_KINDS.len(), "one portfolio per topology");
        for r in routed.into_iter().chain(smoke_requests()) {
            if r.op == "submit" {
                r.job
                    .expect("submit has a job")
                    .resolve()
                    .expect("generated specs are valid");
            }
        }
    }

    #[test]
    fn chaos_batch_is_deterministic_and_resolves() {
        let reqs = chaos_requests(7);
        assert_eq!(reqs, chaos_requests(7), "same seed, same batch");
        assert_ne!(reqs, chaos_requests(8), "seed varies the sims");
        assert!(reqs.len() >= 20);
        let mut ids = std::collections::HashSet::new();
        for r in &reqs {
            assert!(r.op == "submit" || r.op == "simulate", "no stats lines");
            r.job
                .clone()
                .expect("job present")
                .resolve()
                .expect("valid");
            if let Some(sim) = r.sim.clone() {
                sim.resolve().expect("valid sim");
            }
            assert!(ids.insert(r.id.clone()), "ids unique: {:?}", r.id);
        }
    }

    #[test]
    fn simulate_batch_resolves_and_is_seeded() {
        let reqs = simulate_requests(Testbed::Lu, 10, 42);
        assert_eq!(reqs.len(), 2 * 2 * SIM_NOISE_LEVELS.len());
        for r in &reqs {
            assert_eq!(r.op, "simulate");
            r.job.clone().unwrap().resolve().expect("valid job");
            let sim = r.sim.clone().unwrap().resolve().expect("valid sim");
            assert_eq!(sim.seed(), 42, "the explicit seed is threaded through");
        }
        // distinct seeds produce distinct request batches (reproducibility
        // is a function of the seed alone)
        assert_ne!(simulate_requests(Testbed::Lu, 10, 1), reqs);
    }
}
