//! GDL — Generalized Dynamic Level (Sih & Lee).

use onesched_dag::{TaskGraph, TaskId, TopoOrder};
use onesched_heuristics::avg_weights::paper_bottom_levels;
use onesched_heuristics::{
    commit_placement, place_on, PlacementPolicy, Probe, Scheduler, TentativePlacement,
};
use onesched_platform::Platform;
use onesched_sim::{CommModel, ResourcePool, Schedule, EPS};

/// The GDL scheduler.
///
/// At each step, GDL evaluates the *dynamic level* of every (ready task,
/// processor) pair:
///
/// ```text
/// DL(v, p) = SL(v) − EST(v, p) + Δ(v, p)
/// ```
///
/// where `SL` is the static level (bottom level under the heterogeneous
/// averages), `EST(v, p)` the earliest start time of `v` on `p` including
/// one-port communication serialization, and `Δ(v, p) = E*(v) − E(v, p)`
/// adjusts for processor speed (`E*` = execution time under the average
/// cycle-time, `E(v, p) = w(v) × t_p`). The pair with the *largest* dynamic
/// level is scheduled.
///
/// This is quadratic in the ready-set size, so GDL is noticeably slower than
/// HEFT on wide graphs — faithful to the original formulation.
#[derive(Debug, Clone, Default)]
pub struct Gdl {
    /// Placement policy used for the tentative evaluations.
    pub policy: PlacementPolicy,
}

impl Gdl {
    /// GDL adapted to the one-port machinery.
    pub fn new() -> Gdl {
        Gdl {
            policy: PlacementPolicy::paper(),
        }
    }
}

impl Scheduler for Gdl {
    fn name(&self) -> String {
        "GDL".into()
    }

    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let topo = TopoOrder::new(g);
        let sl = paper_bottom_levels(g, &topo, platform);
        let avg_ct = platform.avg_cycle_time();

        let mut pool = ResourcePool::new(platform.num_procs(), model);
        let mut sched = Schedule::with_tasks(g.num_tasks());
        let mut pending: Vec<u32> = g.tasks().map(|v| g.in_degree(v) as u32).collect();
        let mut ready: Vec<TaskId> = g.tasks().filter(|&v| pending[v.index()] == 0).collect();

        while !ready.is_empty() {
            let mut best: Option<(f64, usize, TentativePlacement)> = None;
            for (ri, &task) in ready.iter().enumerate() {
                let e_star = g.weight(task) * avg_ct;
                for proc in platform.procs() {
                    let tp = place_on(g, platform, &sched, pool.begin(), task, proc, self.policy);
                    let delta = e_star - platform.exec_time(g.weight(task), proc);
                    let dl = sl[task.index()] - tp.start + delta;
                    let better = match &best {
                        None => true,
                        Some((b_dl, _, b_tp)) => {
                            dl > *b_dl + EPS
                                || ((dl - *b_dl).abs() <= EPS
                                    && (tp.task, tp.proc) < (b_tp.task, b_tp.proc))
                        }
                    };
                    if better {
                        best = Some((dl, ri, tp));
                    }
                }
            }
            let (_, ri, tp) = best.expect("ready set is non-empty");
            let task = tp.task;
            commit_placement(&mut pool, &mut sched, tp);
            ready.swap_remove(ri);
            for (succ, _) in g.successors(task) {
                pending[succ.index()] -= 1;
                if pending[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_sim::validate;
    use onesched_testbeds::{toy, Testbed, PAPER_C};

    #[test]
    fn gdl_valid_on_toy_all_models() {
        let g = toy();
        let p = Platform::homogeneous(2);
        for m in CommModel::ALL {
            let s = Gdl::new().schedule(&g, &p, m);
            assert!(validate(&g, &p, m, &s).is_empty(), "{m}");
        }
    }

    #[test]
    fn gdl_valid_on_lu_paper_platform() {
        let g = Testbed::Lu.generate(4, PAPER_C);
        let p = Platform::paper();
        let s = Gdl::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
        assert!(s.is_complete());
    }

    #[test]
    fn speed_adjustment_prefers_fast_proc_for_single_task() {
        let mut b = onesched_dag::TaskGraphBuilder::new();
        b.add_task(4.0);
        let g = b.build().unwrap();
        let p = Platform::uniform_links(vec![4.0, 1.0], 1.0).unwrap();
        let s = Gdl::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(s.makespan(), 4.0, "runs on the cycle-time-1 processor");
    }
}
