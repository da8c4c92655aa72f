//! Property-based tests: every scheduler in the workspace must produce
//! valid schedules on arbitrary layered DAGs under every communication
//! model, never beat the model-independent lower bound, and behave
//! monotonically with respect to the model hierarchy.

use onesched::prelude::*;
use onesched::sim::stats::makespan_lower_bound;
use onesched::sim::validate;
use onesched::testbeds::{random_layered, RandomDagConfig};
use proptest::prelude::*;

fn small_dag_strategy() -> impl Strategy<Value = (u64, usize, usize, f64)> {
    (0u64..1000, 2usize..6, 1usize..6, 0.1f64..0.9)
}

/// Every concrete catalog kind (ILHA with `B = 4`, `random` with seed
/// 99), plus ILHA with the platform's own chunk size and §4.4's
/// rescheduling wrapper, which the catalog does not name.
fn schedulers(platform: &Platform) -> Vec<Box<dyn Scheduler>> {
    use onesched::registry::{build, concrete_specs};
    let mut v: Vec<Box<dyn Scheduler>> = concrete_specs(4, 99)
        .iter()
        .map(|spec| build(spec).unwrap())
        .collect();
    v.push(Box::new(Ilha::auto(platform)));
    v.push(Box::new(onesched_heuristics::resched::WithResched::new(
        Heft::new(),
    )));
    v
}

/// The platform a property runs on: the paper platform (`topology` 0),
/// or a `procs`-processor star (1), ring (2) or seeded random connected
/// topology (3) over the paper's three processor speeds.
fn test_platform(topology: usize, procs: usize, topo_seed: u64) -> Platform {
    use onesched::platform::topology::{random_connected, ring, star};
    let cts: Vec<f64> = (0..procs).map(|i| [6.0, 10.0, 15.0][i % 3]).collect();
    match topology {
        0 => Platform::paper(),
        1 => star(cts, 1.0).unwrap(),
        2 => ring(cts, 1.0).unwrap(),
        _ => random_connected(cts, 1.0, 0.3, topo_seed).unwrap(),
    }
}

/// Builds a schedule of `g` on `p` task by task in topological order, under
/// every communication model and every message order, and checks at each
/// step that the pruned `best_placement` picks what the exhaustive scan
/// picks: every processor evaluated in id order, strict EFT improvements
/// only (ties fall to the lowest processor id).
fn check_pruned_matches_exhaustive(g: &TaskGraph, p: &Platform) {
    use onesched::dag::TopoOrder;
    use onesched::heuristics::{
        best_placement, commit_placement, place_on, CommOrder, TentativePlacement,
    };
    use onesched::sim::{ResourcePool, Schedule, EPS};

    prop_assert!(p.first_unreachable().is_none());
    for comm_order in [
        CommOrder::ByParentFinish,
        CommOrder::ByDataDesc,
        CommOrder::ByDataAsc,
        CommOrder::ByParentId,
    ] {
        let policy = PlacementPolicy {
            insertion: true,
            comm_order,
        };
        for m in CommModel::ALL {
            let mut pool = ResourcePool::new(p.num_procs(), m);
            let mut sched = Schedule::with_tasks(g.num_tasks());
            for &task in TopoOrder::new(g).order() {
                let mut want: Option<TentativePlacement> = None;
                for proc in p.procs() {
                    let tp = place_on(g, p, &sched, pool.begin(), task, proc, policy);
                    let better = match &want {
                        None => true,
                        Some(b) => tp.finish < b.finish - EPS,
                    };
                    if better {
                        want = Some(tp);
                    }
                }
                let want = want.unwrap();
                let got = best_placement(g, p, &pool, &sched, task, policy);
                prop_assert_eq!(
                    got.proc,
                    want.proc,
                    "task {} under {} ({:?}, {} procs): pruned chose {:?}, exhaustive {:?}",
                    task,
                    m,
                    comm_order,
                    p.num_procs(),
                    got.proc,
                    want.proc
                );
                prop_assert_eq!(got.finish, want.finish);
                prop_assert_eq!(got.start, want.start);
                prop_assert_eq!(got.comms.len(), want.comms.len());
                commit_placement(&mut pool, &mut sched, got);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Validity of every scheduler (every catalog kind, the default
    /// portfolio included), every model, on random layered DAGs over the
    /// paper platform and random star, ring and connected topologies,
    /// where messages relay hop by hop.
    #[test]
    fn all_schedulers_valid_on_random_dags(
        (seed, layers, width, prob) in small_dag_strategy(),
        topology in 0usize..4,
        procs in 2usize..9,
        topo_seed in 0u64..1_000,
    ) {
        use onesched::registry::{build, SchedulerSpec};

        let cfg = RandomDagConfig {
            layers,
            max_width: width,
            edge_prob: prob,
            ..Default::default()
        };
        let g = random_layered(&cfg, seed);
        let p = test_platform(topology, procs, topo_seed);
        let mut all = schedulers(&p);
        let portfolio = SchedulerSpec {
            b: Some(4),
            ..SchedulerSpec::named("portfolio")
        };
        all.push(build(&portfolio).unwrap());
        for s in all {
            for m in CommModel::ALL {
                let sched = s.schedule(&g, &p, m);
                let v = validate(&g, &p, m, &sched);
                prop_assert!(v.is_empty(), "{} under {m}: {v:?}", s.name());
                prop_assert!(sched.is_complete());
            }
        }
    }

    /// No scheduler beats the critical-path/area lower bound.
    #[test]
    fn makespans_respect_lower_bound(
        (seed, layers, width, prob) in small_dag_strategy()
    ) {
        let cfg = RandomDagConfig {
            layers,
            max_width: width,
            edge_prob: prob,
            ..Default::default()
        };
        let g = random_layered(&cfg, seed);
        let p = Platform::paper();
        let lb = makespan_lower_bound(&g, &p);
        for s in schedulers(&p) {
            let sched = s.schedule(&g, &p, CommModel::OnePortBidir);
            prop_assert!(
                sched.makespan() >= lb - 1e-6,
                "{} makespan {} below lower bound {lb}",
                s.name(),
                sched.makespan()
            );
        }
    }

    /// HEFT under macro-dataflow is never worse than HEFT under the
    /// stricter one-port models *for the same heuristic decisions' lower
    /// bound*: the macro-dataflow makespan is a lower bound on what the
    /// one-port schedule of the same heuristic achieves... not in general
    /// (heuristics are not monotone), but the *validator* relationship
    /// holds: a valid bidir schedule with no port overlaps is also valid
    /// under macro-dataflow.
    #[test]
    fn one_port_schedules_are_macro_valid(
        (seed, layers, width, prob) in small_dag_strategy()
    ) {
        let cfg = RandomDagConfig {
            layers,
            max_width: width,
            edge_prob: prob,
            ..Default::default()
        };
        let g = random_layered(&cfg, seed);
        let p = Platform::paper();
        let sched = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        prop_assert!(validate(&g, &p, CommModel::MacroDataflow, &sched).is_empty());
        // ... and the unidirectional schedule is valid under bidir:
        let sched = Heft::new().schedule(&g, &p, CommModel::OnePortUnidir);
        prop_assert!(validate(&g, &p, CommModel::OnePortBidir, &sched).is_empty());
        prop_assert!(validate(&g, &p, CommModel::MacroDataflow, &sched).is_empty());
    }

    /// The pruned candidate scan of `best_placement` (bound ordering,
    /// committed-state disqualification, mid-evaluation abort) returns the
    /// exact placement the seed's exhaustive scan would have picked —
    /// including the lowest-processor-id tie-break — on random layered
    /// DAGs on the paper platform, under every communication model and
    /// every message order, as the schedule is built task by task in
    /// priority order.
    #[test]
    fn pruned_best_placement_matches_exhaustive_scan(
        (seed, layers, width, prob) in small_dag_strategy()
    ) {
        let cfg = RandomDagConfig {
            layers,
            max_width: width,
            edge_prob: prob,
            ..Default::default()
        };
        let g = random_layered(&cfg, seed);
        check_pruned_matches_exhaustive(&g, &Platform::paper());
    }

    /// The same pruned scan on random connected topologies, where
    /// messages follow multi-hop routes (per-hop no-contention bound
    /// ordering, committed send-gap / receive-serialization
    /// disqualification): it returns the exact placement of the
    /// exhaustive id-order scan under every communication model and
    /// every message order.
    #[test]
    fn pruned_routed_placement_matches_exhaustive_scan(
        (seed, layers, width, prob) in small_dag_strategy(),
        topo_seed in 0u64..1_000,
        procs in 2usize..9,
        extra_prob in 0.0f64..0.6,
    ) {
        use onesched::platform::topology::random_connected;

        let cfg = RandomDagConfig {
            layers,
            max_width: width,
            edge_prob: prob,
            ..Default::default()
        };
        let g = random_layered(&cfg, seed);
        let cts: Vec<f64> = (0..procs).map(|i| [6.0, 10.0, 15.0][i % 3]).collect();
        let p = random_connected(cts, 1.0, extra_prob, topo_seed).unwrap();
        check_pruned_matches_exhaustive(&g, &p);
    }

    /// Schedulers are deterministic: same input, same schedule.
    #[test]
    fn schedulers_are_deterministic(
        (seed, layers, width, prob) in small_dag_strategy()
    ) {
        let cfg = RandomDagConfig {
            layers,
            max_width: width,
            edge_prob: prob,
            ..Default::default()
        };
        let g = random_layered(&cfg, seed);
        let p = Platform::paper();
        for s in [&Heft::new() as &dyn Scheduler, &Ilha::new(7)] {
            let a = s.schedule(&g, &p, CommModel::OnePortBidir);
            let b = s.schedule(&g, &p, CommModel::OnePortBidir);
            prop_assert_eq!(a.makespan(), b.makespan());
            for t in g.tasks() {
                prop_assert_eq!(a.alloc(t), b.alloc(t));
            }
        }
    }
}

/// Six testbeds × four models × {HEFT, ILHA(best B)} — the full validity
/// matrix at a small size (48 schedules through the independent validator).
#[test]
fn testbed_model_validity_matrix() {
    let p = Platform::paper();
    for tb in Testbed::ALL {
        let g = tb.generate(6, PAPER_C);
        for m in CommModel::ALL {
            for s in [
                &Heft::new() as &dyn Scheduler,
                &Ilha::new(tb.paper_best_b()),
            ] {
                let sched = s.schedule(&g, &p, m);
                let v = validate(&g, &p, m, &sched);
                assert!(v.is_empty(), "{} on {tb} under {m}: {v:?}", s.name());
            }
        }
    }
}

/// The stricter the model, the larger (or equal) the best-found makespan,
/// statistically: check macro <= bidir <= unidir for HEFT across testbeds
/// (HEFT re-plans per model, so each schedule is tailored to its model).
#[test]
fn model_strictness_ordering_for_heft() {
    let p = Platform::paper();
    for tb in Testbed::ALL {
        let g = tb.generate(8, PAPER_C);
        let mk = |m| Heft::new().schedule(&g, &p, m).makespan();
        let macro_mk = mk(CommModel::MacroDataflow);
        let bidir = mk(CommModel::OnePortBidir);
        let unidir = mk(CommModel::OnePortUnidir);
        // Greedy heuristics are not monotone in the constraint set — a
        // stricter model can steer EFT to a luckier allocation — so this is
        // a sanity band, not a theorem: the strict models must not *win* by
        // a large margin.
        assert!(
            macro_mk <= bidir * 1.10,
            "{tb}: macro {macro_mk} vs bidir {bidir}"
        );
        assert!(
            bidir <= unidir * 1.10,
            "{tb}: bidir {bidir} vs unidir {unidir}"
        );
    }
}
