//! Min-min and max-min batch heuristics.

use onesched_dag::{TaskGraph, TaskId};
use onesched_heuristics::{
    best_placement_with, EftScratch, PlacementPolicy, Probe, Scheduler, TentativePlacement,
};
use onesched_platform::Platform;
use onesched_sim::{CommModel, ResourcePool, Schedule, EPS};

/// Min-min: repeatedly compute, for every ready task, its minimum completion
/// time over all processors; schedule the task whose minimum is smallest.
/// Favors short tasks and tends to finish the easy work first.
#[derive(Debug, Clone, Default)]
pub struct MinMin {
    /// Placement policy for the tentative evaluations.
    pub policy: PlacementPolicy,
}

/// Max-min: like [`MinMin`], but schedules the task whose minimum completion
/// time is *largest* — giving long tasks a head start.
#[derive(Debug, Clone, Default)]
pub struct MaxMin {
    /// Placement policy for the tentative evaluations.
    pub policy: PlacementPolicy,
}

impl MinMin {
    /// Min-min adapted to the one-port machinery.
    pub fn new() -> MinMin {
        MinMin {
            policy: PlacementPolicy::paper(),
        }
    }
}

impl MaxMin {
    /// Max-min adapted to the one-port machinery.
    pub fn new() -> MaxMin {
        MaxMin {
            policy: PlacementPolicy::paper(),
        }
    }
}

fn batch_schedule(
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    policy: PlacementPolicy,
    pick_max: bool,
) -> Schedule {
    let mut pool = ResourcePool::new(platform.num_procs(), model);
    let mut sched = Schedule::with_tasks(g.num_tasks());
    let mut pending: Vec<u32> = g.tasks().map(|v| g.in_degree(v) as u32).collect();
    let mut ready: Vec<TaskId> = g
        .tasks()
        .filter(|&v| pending.get(v.index()).is_some_and(|&d| d == 0))
        .collect();

    let mut scratch = EftScratch::default();
    while !ready.is_empty() {
        let mut chosen: Option<(usize, TentativePlacement)> = None;
        for (ri, &task) in ready.iter().enumerate() {
            // the task's own best processor: earliest finish, ties to the
            // lowest processor id
            let tp = best_placement_with(g, platform, &pool, &sched, task, policy, &mut scratch);
            let replace = match &chosen {
                None => true,
                Some((_, c)) => {
                    if pick_max {
                        tp.finish > c.finish + EPS
                    } else {
                        tp.finish < c.finish - EPS
                    }
                }
            };
            let loser = if replace {
                chosen.replace((ri, tp)).map(|(_, old)| old)
            } else {
                Some(tp)
            };
            if let Some(loser) = loser {
                scratch.discard(loser);
            }
        }
        // the ready set is non-empty, so something was chosen; bail out
        // instead of spinning if the invariant ever breaks
        let Some((ri, tp)) = chosen else { break };
        let task = tp.task;
        scratch.commit(&mut pool, &mut sched, tp);
        ready.swap_remove(ri);
        for (succ, _) in g.successors(task) {
            if let Some(d) = pending.get_mut(succ.index()) {
                *d = d.saturating_sub(1);
                if *d == 0 {
                    ready.push(succ);
                }
            }
        }
    }
    sched
}

impl Scheduler for MinMin {
    fn name(&self) -> String {
        "min-min".into()
    }
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        batch_schedule(g, platform, model, self.policy, false)
    }
}

impl Scheduler for MaxMin {
    fn name(&self) -> String {
        "max-min".into()
    }
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        batch_schedule(g, platform, model, self.policy, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_sim::validate;
    use onesched_testbeds::toy;

    #[test]
    fn minmin_maxmin_valid() {
        let g = toy();
        let p = Platform::homogeneous(2);
        for m in CommModel::ALL {
            for s in [&MinMin::new() as &dyn Scheduler, &MaxMin::new()] {
                let sched = s.schedule(&g, &p, m);
                assert!(validate(&g, &p, m, &sched).is_empty(), "{} {m}", s.name());
            }
        }
    }

    #[test]
    fn minmin_picks_short_task_first() {
        // two independent tasks, one short one long, single processor:
        // min-min runs the short one first, max-min the long one.
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let short = b.add_task(1.0);
        let long = b.add_task(5.0);
        let g = b.build().unwrap();
        let p = Platform::homogeneous(1);
        let s = MinMin::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(s.task(short).unwrap().start < s.task(long).unwrap().start);
        let s = MaxMin::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(s.task(long).unwrap().start < s.task(short).unwrap().start);
    }
}
