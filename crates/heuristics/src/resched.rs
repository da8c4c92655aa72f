//! Post-allocation communication rescheduling (§4.4, second variation).
//!
//! "We could limit the use of HEFT at Step 2 to a pre-allocation of tasks to
//! processors, and re-schedule all communications in a third step. … we can
//! forget about the schedule times … and keep only the allocation function."
//!
//! The fixed-allocation scheduling problem remains NP-complete (the paper's
//! appendix, COMM-SCHED), so this module implements the greedy third step:
//! tasks are re-scheduled in priority order on their *fixed* processors with
//! all communications re-serialized from scratch. A wrapper scheduler
//! applies it on top of any inner scheduler and keeps the better makespan.

use crate::heft::ReadyList;
use crate::placement::{commit_placement, place_on, PlacementPolicy};
use crate::{NoProbe, Probe, Scheduler};
use onesched_dag::TaskGraph;
use onesched_platform::{Platform, ProcId};
use onesched_sim::{CommModel, ResourcePool, Schedule};

/// Rebuild a schedule keeping a fixed task-to-processor allocation:
/// tasks are processed by decreasing bottom level (among ready tasks) and
/// placed on `alloc[task]`, their incoming messages greedily serialized.
pub fn reschedule_with_allocation(
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    alloc: &[ProcId],
    policy: PlacementPolicy,
) -> Schedule {
    assert_eq!(
        alloc.len(),
        g.num_tasks(),
        "one processor per task required"
    );
    let mut ready = ReadyList::new(g, platform, &NoProbe);
    let mut pool = ResourcePool::new(platform.num_procs(), model);
    let mut sched = Schedule::with_tasks(g.num_tasks());
    while let Some(task) = ready.pop() {
        if let Some(&proc) = alloc.get(task.index()) {
            let tp = place_on(g, platform, &sched, pool.begin(), task, proc, policy);
            commit_placement(&mut pool, &mut sched, tp);
        }
        ready.release(g, task);
    }
    sched
}

/// Extract the allocation function `alloc(v)` of a complete schedule.
pub fn allocation_of(s: &Schedule) -> Vec<ProcId> {
    (0..s.num_tasks())
        .map(|i| {
            s.task(onesched_dag::TaskId(i as u32))
                .expect("schedule must be complete")
                .proc
        })
        .collect()
}

/// Wrapper: run `inner`, then re-schedule its allocation greedily, keeping
/// whichever schedule has the smaller makespan.
#[derive(Debug, Clone)]
pub struct WithResched<S> {
    /// The scheduler producing the initial allocation.
    pub inner: S,
    /// Policy for the rescheduling pass.
    pub policy: PlacementPolicy,
}

impl<S: Scheduler> WithResched<S> {
    /// Wrap `inner` with a paper-faithful rescheduling pass.
    pub fn new(inner: S) -> Self {
        WithResched {
            inner,
            policy: PlacementPolicy::paper(),
        }
    }
}

impl<S: Scheduler> Scheduler for WithResched<S> {
    fn name(&self) -> String {
        format!("{}+resched", self.inner.name())
    }

    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        probe: &dyn Probe,
    ) -> Schedule {
        let first = self.inner.schedule_with_probe(g, platform, model, probe);
        let alloc = allocation_of(&first);
        let second = reschedule_with_allocation(g, platform, model, &alloc, self.policy);
        if second.makespan() < first.makespan() {
            second
        } else {
            first
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heft, Ilha};
    use onesched_dag::TaskGraphBuilder;
    use onesched_sim::validate;

    fn fork(n: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(1.0);
        for _ in 0..n {
            let c = b.add_task(1.0);
            b.add_edge(root, c, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn resched_preserves_allocation_and_validity() {
        let g = fork(6);
        let p = Platform::homogeneous(5);
        let m = CommModel::OnePortBidir;
        let first = Heft::new().schedule(&g, &p, m);
        let alloc = allocation_of(&first);
        let second = reschedule_with_allocation(&g, &p, m, &alloc, PlacementPolicy::paper());
        assert!(validate(&g, &p, m, &second).is_empty());
        assert_eq!(allocation_of(&second), alloc);
    }

    #[test]
    fn wrapper_never_worse() {
        let g = fork(8);
        let p = Platform::paper();
        for m in CommModel::ALL {
            let base = Ilha::new(10).schedule(&g, &p, m).makespan();
            let s = WithResched::new(Ilha::new(10)).schedule(&g, &p, m);
            assert!(s.makespan() <= base + 1e-9, "model {m}");
            assert!(validate(&g, &p, m, &s).is_empty(), "model {m}");
        }
    }

    #[test]
    fn wrapper_name() {
        assert_eq!(WithResched::new(Heft::new()).name(), "HEFT+resched");
    }

    #[test]
    #[should_panic(expected = "one processor per task")]
    fn wrong_alloc_len_panics() {
        let g = fork(2);
        let p = Platform::homogeneous(2);
        reschedule_with_allocation(
            &g,
            &p,
            CommModel::OnePortBidir,
            &[ProcId(0)],
            PlacementPolicy::paper(),
        );
    }
}
