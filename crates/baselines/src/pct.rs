//! PCT — minimum Partial Completion Time static priority
//! (Maheswaran & Siegel).

use onesched_dag::{TaskGraph, TopoOrder};
use onesched_heuristics::avg_weights::{paper_rank_weights, paper_top_levels};
use onesched_heuristics::{best_placement, commit_placement, PlacementPolicy, Probe, Scheduler};
use onesched_platform::Platform;
use onesched_sim::{CommModel, ResourcePool, Schedule};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The PCT scheduler.
///
/// Static priority: the task's *partial completion time* — the estimated
/// earliest moment it could complete, i.e. its top level plus its averaged
/// execution time. Ready tasks with the **smallest** partial completion time
/// go first (the original heuristic drains tasks in the order they could
/// finish), and each is placed on the processor minimizing its actual
/// completion time on the one-port timelines.
#[derive(Debug, Clone, Default)]
pub struct Pct {
    /// Placement policy for the EFT step.
    pub policy: PlacementPolicy,
}

impl Pct {
    /// PCT adapted to the one-port machinery.
    pub fn new() -> Pct {
        Pct {
            policy: PlacementPolicy::paper(),
        }
    }
}

/// Min-heap entry: smallest partial completion time first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    pct: f64,
    task: onesched_dag::TaskId,
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want min-pct first
        other
            .pct
            .total_cmp(&self.pct)
            .then_with(|| other.task.cmp(&self.task))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Scheduler for Pct {
    fn name(&self) -> String {
        "PCT".into()
    }

    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let topo = TopoOrder::new(g);
        let tl = paper_top_levels(g, &topo, platform);
        let unit = paper_rank_weights(platform).unit_comp;
        let pct: Vec<f64> = g
            .tasks()
            .map(|v| tl[v.index()] + g.weight(v) * unit)
            .collect();

        let mut pool = ResourcePool::new(platform.num_procs(), model);

        let mut sched = Schedule::with_tasks(g.num_tasks());
        let mut pending: Vec<u32> = g.tasks().map(|v| g.in_degree(v) as u32).collect();
        let mut ready: BinaryHeap<Entry> = g
            .tasks()
            .filter(|&v| pending[v.index()] == 0)
            .map(|task| Entry {
                pct: pct[task.index()],
                task,
            })
            .collect();

        while let Some(Entry { task, .. }) = ready.pop() {
            let tp = best_placement(g, platform, &pool, &sched, task, self.policy);
            commit_placement(&mut pool, &mut sched, tp);
            for (succ, _) in g.successors(task) {
                pending[succ.index()] -= 1;
                if pending[succ.index()] == 0 {
                    ready.push(Entry {
                        pct: pct[succ.index()],
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
    fn pct_orders_by_earliest_completion() {
        let a = Entry {
            pct: 3.0,
            task: onesched_dag::TaskId(5),
        };
        let b = Entry {
            pct: 1.0,
            task: onesched_dag::TaskId(9),
        };
        assert!(b > a, "smaller pct pops first from the max-heap");
    }

    #[test]
    fn pct_valid_everywhere() {
        let g = toy();
        let p = Platform::homogeneous(2);
        for m in CommModel::ALL {
            let s = Pct::new().schedule(&g, &p, m);
            assert!(validate(&g, &p, m, &s).is_empty(), "{m}");
        }
        let g = Testbed::Doolittle.generate(4, PAPER_C);
        let p = Platform::paper();
        let s = Pct::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }
}
