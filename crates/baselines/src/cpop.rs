//! CPOP — Critical Path On a Processor (Topcuoglu, Hariri, Wu).

use onesched_dag::{TaskGraph, TopoOrder};
use onesched_heuristics::avg_weights::{paper_bottom_levels, paper_top_levels};
use onesched_heuristics::{PlacementPolicy, Probe, Scheduler};
use onesched_platform::{Platform, ProcId};
use onesched_sim::{CommModel, ResourcePool, Schedule, EPS};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The CPOP scheduler.
///
/// Priorities are `rank_u + rank_d` (bottom level + top level under the
/// heterogeneous averages). The tasks achieving the maximal priority form
/// the critical path; they are all assigned to the *critical-path processor*
/// — the one minimizing the path's total execution time. Non-critical tasks
/// are placed by earliest finish time like HEFT.
#[derive(Debug, Clone, Default)]
pub struct Cpop {
    /// Placement policy for the EFT step.
    pub policy: PlacementPolicy,
}

impl Cpop {
    /// Paper-faithful CPOP adapted to the one-port machinery.
    pub fn new() -> Cpop {
        Cpop {
            policy: PlacementPolicy::paper(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    prio: f64,
    task: onesched_dag::TaskId,
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prio
            .total_cmp(&other.prio)
            .then_with(|| other.task.cmp(&self.task))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Scheduler for Cpop {
    fn name(&self) -> String {
        "CPOP".into()
    }

    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let topo = TopoOrder::new(g);
        let bl = paper_bottom_levels(g, &topo, platform);
        let tl = paper_top_levels(g, &topo, platform);
        let prio: Vec<f64> = (0..g.num_tasks()).map(|i| bl[i] + tl[i]).collect();
        let cp_len = prio.iter().copied().fold(0.0, f64::max);

        // Critical-path tasks and the processor minimizing their total time.
        let on_cp: Vec<bool> = prio.iter().map(|&p| (p - cp_len).abs() <= 1e-9).collect();
        let cp_work: f64 = g
            .tasks()
            .filter(|v| on_cp[v.index()])
            .map(|v| g.weight(v))
            .sum();
        let mut cp_proc = ProcId(0);
        for p in platform.procs() {
            if cp_work * platform.cycle_time(p) < cp_work * platform.cycle_time(cp_proc) - EPS {
                cp_proc = p;
            }
        }

        let mut pool = ResourcePool::new(platform.num_procs(), model);
        let mut sched = Schedule::with_tasks(g.num_tasks());
        let mut pending: Vec<u32> = g.tasks().map(|v| g.in_degree(v) as u32).collect();
        let mut ready: BinaryHeap<Entry> = g
            .tasks()
            .filter(|&v| pending[v.index()] == 0)
            .map(|task| Entry {
                prio: prio[task.index()],
                task,
            })
            .collect();

        while let Some(Entry { task, .. }) = ready.pop() {
            let tp = if on_cp[task.index()] {
                onesched_heuristics::place_on(
                    g,
                    platform,
                    &sched,
                    pool.begin(),
                    task,
                    cp_proc,
                    self.policy,
                )
            } else {
                onesched_heuristics::best_placement(g, platform, &pool, &sched, task, self.policy)
            };
            onesched_heuristics::commit_placement(&mut pool, &mut sched, tp);
            for (succ, _) in g.successors(task) {
                pending[succ.index()] -= 1;
                if pending[succ.index()] == 0 {
                    ready.push(Entry {
                        prio: prio[succ.index()],
                        task: succ,
                    });
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
    fn cpop_valid_on_toy() {
        let g = toy();
        let p = Platform::homogeneous(2);
        for m in CommModel::ALL {
            let s = Cpop::new().schedule(&g, &p, m);
            assert!(validate(&g, &p, m, &s).is_empty(), "{m}");
        }
    }

    #[test]
    fn critical_path_tasks_share_a_processor() {
        // A pure chain is entirely critical: CPOP must keep it on one proc.
        let g = Testbed::Lu.generate(3, PAPER_C);
        let p = Platform::paper();
        let s = Cpop::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    #[test]
    fn chain_runs_on_fastest_proc() {
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let t: Vec<_> = (0..4).map(|_| b.add_task(1.0)).collect();
        for w in t.windows(2) {
            b.add_edge(w[0], w[1], 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = Platform::uniform_links(vec![3.0, 1.0], 1.0).unwrap();
        let s = Cpop::new().schedule(&g, &p, CommModel::OnePortBidir);
        for t in g.tasks() {
            assert_eq!(s.alloc(t), Some(ProcId(1)), "whole chain on the fast proc");
        }
        assert_eq!(s.makespan(), 4.0);
    }
}
