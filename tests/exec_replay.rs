//! Execution-engine acceptance tests: zero-perturbation replay is
//! bit-exact against every schedule-equivalence fixture instance, random
//! valid schedules replay within tolerance and execute validly under both
//! dispatch policies, same-seed perturbed runs are deterministic, and
//! deliberately corrupted schedules make the runtime checks fire.

use onesched::exec::{
    check_replay, execute, DispatchPolicy, ExecConfig, Perturbation, ReplayViolation,
};
use onesched::prelude::*;
use onesched::registry::{self, SchedulerSpec};
use onesched::regress::{
    baseline_platform, BaselineFile, BASELINE_TOPOLOGIES, BASELINE_VARIANT_MODELS,
};
use onesched_sim::{trace_fingerprint, validate, ExecutionTrace, Schedule};
use onesched_testbeds::{random_layered, RandomDagConfig};
use proptest::prelude::*;

const FIXTURE: &str = include_str!("fixtures/schedule_baseline.json");

/// Every fixture schedule — 6 testbeds × 2 sizes × 2 schedulers on the
/// paper platform, plus the routed star/ring/line entries, plus the
/// entries under the other three communication models — replays under
/// its own model
/// bit-exactly: executed start/finish equals the static placement for every
/// task, the executed makespan equals the static makespan, and the trace
/// fingerprint — which also covers every communication hop's times
/// (multi-hop store-and-forward chains included) — is pinned to the
/// schedule's own trace fingerprint.
#[test]
fn zero_perturbation_replay_is_bit_exact_on_every_fixture() {
    let fixture: BaselineFile = serde_json::from_str(FIXTURE).expect("parse fixture");
    assert_eq!(
        fixture.entries.len(),
        24 + BASELINE_TOPOLOGIES.len() * 6 * 2 + BASELINE_VARIANT_MODELS.len() * 2 * 6 * 2
    );
    for e in &fixture.entries {
        let model = e.comm_model().expect("fixture models parse");
        let tb = Testbed::ALL
            .iter()
            .copied()
            .find(|t| t.name() == e.testbed)
            .expect("fixture testbed");
        let g = tb.generate(e.n, PAPER_C);
        let platform = baseline_platform(&e.topology).expect("fixture topology resolves");
        let spec = SchedulerSpec::parse(&e.scheduler).expect("fixture labels are specs");
        let sched = registry::build(&spec)
            .expect("fixture specs build")
            .schedule(&g, &platform, model);
        let ctx = format!(
            "{} n={} {} on {} under {model}",
            e.testbed, e.n, e.scheduler, e.topology
        );

        let rep = execute(&g, &platform, model, &sched, &ExecConfig::replay())
            .unwrap_or_else(|err| panic!("{ctx}: {err}"));
        assert_eq!(rep.executed_makespan, e.makespan, "{ctx}: makespan");
        assert_eq!(rep.degradation(), 1.0, "{ctx}: degradation");
        for v in g.tasks() {
            let stat = sched.task(v).expect("complete schedule");
            let exec = rep.trace.task(v).expect("complete trace");
            assert_eq!(exec.start, stat.start, "{ctx}: task {v} start");
            assert_eq!(exec.finish, stat.finish, "{ctx}: task {v} finish");
            assert_eq!(exec.proc, stat.proc, "{ctx}: task {v} proc");
        }
        assert_eq!(
            rep.trace_fingerprint,
            trace_fingerprint(&ExecutionTrace::from_schedule(&sched)),
            "{ctx}: trace fingerprint (comm times included)"
        );
        assert!(
            check_replay(&g, &platform, model, &sched, 0.0).is_empty(),
            "{ctx}: runtime checks must accept a valid schedule"
        );
    }
}

fn small_dag(layers: usize, width: usize, edge_prob: f64, seed: u64) -> onesched::dag::TaskGraph {
    random_layered(
        &RandomDagConfig {
            layers,
            max_width: width,
            edge_prob,
            ..RandomDagConfig::default()
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Routed schedules of every catalog kind on random connected
    /// topologies replay cleanly at zero noise, and the executed trace
    /// never uses a link absent from the routing table: every executed hop
    /// rides a finite direct link of the platform (relays never teleport),
    /// under every model.
    #[test]
    fn routed_replays_use_only_existing_links(
        layers in 2usize..6,
        width in 1usize..5,
        edge_prob in 0.2f64..0.9,
        seed in 0u64..1_000,
        topo_seed in 0u64..1_000,
        procs in 3usize..8,
        extra_prob in 0.0f64..0.5,
        model_ix in 0usize..4,
    ) {
        use onesched::platform::topology::random_connected;
        use onesched::registry::{build, list};

        let g = small_dag(layers, width, edge_prob, seed);
        let cts: Vec<f64> = (0..procs).map(|i| [1.0, 2.0, 3.0][i % 3]).collect();
        let p = random_connected(cts, 1.0, extra_prob, topo_seed).unwrap();
        let model = CommModel::ALL[model_ix];
        for info in list() {
            let spec = SchedulerSpec {
                b: Some(4),
                seed: Some(seed),
                ..SchedulerSpec::named(info.kind)
            };
            let sched = build(&spec).unwrap().try_schedule(&g, &p, model).unwrap();
            prop_assert!(validate(&g, &p, model, &sched).is_empty(), "{}", info.kind);
            let tol = onesched_sim::EPS * (g.num_tasks() + sched.comms().len()) as f64;
            let v = check_replay(&g, &p, model, &sched, tol);
            prop_assert!(v.is_empty(), "unexpected runtime violations: {v:?}");
            let rep = execute(&g, &p, model, &sched, &ExecConfig::replay()).unwrap();
            prop_assert!(rep.trace.is_complete());
            for hop in rep.trace.comms() {
                prop_assert!(
                    hop.from == hop.to || p.link(hop.from, hop.to).is_finite(),
                    "executed hop {:?} -> {:?} uses a link absent from the \
                     routing table", hop.from, hop.to
                );
            }
            // ... and under perturbation too: noise shifts hops in time but
            // must never reroute them onto non-existent links
            let cfg = ExecConfig {
                policy: DispatchPolicy::StaticOrder,
                perturb: Perturbation { task_sigma: 0.3, bw_degradation: 0.3, outage_prob: 0.3, outage_frac: 0.1 },
                seed: topo_seed ^ seed,
            };
            let noisy = execute(&g, &p, model, &sched, &cfg).unwrap();
            for hop in noisy.trace.comms() {
                prop_assert!(hop.from == hop.to || p.link(hop.from, hop.to).is_finite());
            }
        }
    }

    /// Random DAG × scheduler × model: the zero-noise replay reproduces
    /// the static schedule (within the schedulers' EPS packing tolerance,
    /// scaled by activity count) and never reports runtime violations.
    #[test]
    fn random_valid_schedules_replay_cleanly(
        layers in 2usize..7,
        width in 1usize..6,
        edge_prob in 0.2f64..0.9,
        seed in 0u64..1_000,
        model_ix in 0usize..4,
        use_ilha in 0u8..2,
    ) {
        let g = small_dag(layers, width, edge_prob, seed);
        let p = Platform::paper();
        let model = CommModel::ALL[model_ix];
        let sched = if use_ilha == 1 {
            Ilha::new(4).schedule(&g, &p, model)
        } else {
            Heft::new().schedule(&g, &p, model)
        };
        prop_assert!(validate(&g, &p, model, &sched).is_empty());
        let tol = onesched_sim::EPS * (g.num_tasks() + sched.comms().len()) as f64;
        let v = check_replay(&g, &p, model, &sched, tol);
        prop_assert!(v.is_empty(), "unexpected runtime violations: {v:?}");
        // the executed makespan can undercut the static one only by slack
        let rep = execute(&g, &p, model, &sched, &ExecConfig::replay()).unwrap();
        prop_assert!(rep.executed_makespan <= sched.makespan() + tol);
    }

    /// Same seed, same executed trace — for both policies, under real
    /// noise with outages; and the dynamic policy's execution still
    /// satisfies the communication model it ran under.
    #[test]
    fn perturbed_execution_is_deterministic_and_model_conforming(
        layers in 2usize..6,
        width in 1usize..5,
        edge_prob in 0.2f64..0.9,
        seed in 0u64..1_000,
        exec_seed in 0u64..1_000,
        policy_ix in 0usize..2,
    ) {
        let g = small_dag(layers, width, edge_prob, seed);
        let p = Platform::paper();
        let model = CommModel::OnePortBidir;
        let sched = Heft::new().schedule(&g, &p, model);
        let cfg = ExecConfig {
            policy: [DispatchPolicy::StaticOrder, DispatchPolicy::ListDynamic][policy_ix],
            perturb: Perturbation {
                task_sigma: 0.25,
                bw_degradation: 0.3,
                outage_prob: 0.3,
                outage_frac: 0.1,
            },
            seed: exec_seed,
        };
        let a = execute(&g, &p, model, &sched, &cfg).unwrap();
        let b = execute(&g, &p, model, &sched, &cfg).unwrap();
        prop_assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        prop_assert!(a.trace.is_complete());
        // port exclusivity held at runtime: the executed trace has no
        // overlapping sends/receives (durations are perturbed, so only the
        // port constraints of the validator are meaningful here)
        let as_sched = a.trace.to_schedule();
        let port_violations: Vec<_> = validate(&g, &p, model, &as_sched)
            .into_iter()
            .filter(|v| matches!(
                v,
                onesched_sim::ScheduleViolation::SendOverlap { .. }
                    | onesched_sim::ScheduleViolation::RecvOverlap { .. }
                    | onesched_sim::ScheduleViolation::ComputeOverlap { .. }
            ))
            .collect();
        prop_assert!(port_violations.is_empty(), "{port_violations:?}");
    }

    /// Corrupting a valid schedule makes the runtime checks fire: an
    /// understated duration drifts its activity's finish, and forcing two
    /// port-sharing transfers to overlap forces the later one off its
    /// recorded times.
    #[test]
    fn corrupted_schedules_fire_runtime_checks(
        layers in 2usize..6,
        width in 2usize..6,
        edge_prob in 0.4f64..1.0,
        seed in 0u64..1_000,
        victim in 0usize..1_000,
    ) {
        let g = small_dag(layers, width, edge_prob, seed);
        let p = Platform::paper();
        let model = CommModel::OnePortBidir;
        let sched = Heft::new().schedule(&g, &p, model);

        // corruption 1: understate one task's duration by half
        let v_task = victim % g.num_tasks();
        let mut bad = Schedule::with_tasks(g.num_tasks());
        for tp in sched.task_placements() {
            let mut tp = *tp;
            if tp.task.index() == v_task {
                tp.finish = tp.start + (tp.finish - tp.start) * 0.5;
            }
            bad.place_task(tp);
        }
        for c in sched.comms() {
            bad.place_comm(*c);
        }
        let v = check_replay(&g, &p, model, &bad, 1e-9);
        prop_assert!(
            v.iter().any(|x| matches!(x, ReplayViolation::TaskDrift { .. })),
            "understated duration must drift: {v:?}"
        );

        // corruption 2: pull one effective transfer to time zero so it
        // claims the port before its data exists (and overlaps whatever
        // else the port carries) — the replay must push it later
        let effective: Vec<usize> = sched
            .comms()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.finish - c.start > onesched_sim::EPS && c.start > 0.0)
            .map(|(i, _)| i)
            .collect();
        if let Some(&ci) = effective.get(victim % effective.len().max(1)) {
            let mut bad = Schedule::with_tasks(g.num_tasks());
            for tp in sched.task_placements() {
                bad.place_task(*tp);
            }
            for (i, c) in sched.comms().iter().enumerate() {
                let mut c = *c;
                if i == ci {
                    let dur = c.finish - c.start;
                    c.start = 0.0;
                    c.finish = dur;
                }
                bad.place_comm(c);
            }
            let v = check_replay(&g, &p, model, &bad, 1e-9);
            prop_assert!(
                v.iter().any(|x| matches!(
                    x,
                    ReplayViolation::CommDrift { .. } | ReplayViolation::Infeasible(_)
                )),
                "a transfer scheduled before its data exists must drift: {v:?}"
            );
        }
    }
}
