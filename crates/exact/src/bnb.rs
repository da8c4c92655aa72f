//! Branch-and-bound reference scheduler for small general task graphs.
//!
//! Branches over (ready task, processor) decisions; each placement schedules
//! its incoming messages greedily in parent-finish order (the same
//! serialization rule the heuristics use, §4.3). The search is exact over
//! task allocation *and* task ordering for that message-serialization rule —
//! and fully exact for graphs where every task has at most one remote
//! parent message (forks, chains, trees), since then no message-order
//! freedom exists.
//!
//! Intended for reference optima on graphs of ≤ ~10 tasks; the node limit
//! makes larger calls safe (the result degrades to an upper bound and
//! `optimal == false`).

use onesched_dag::{TaskGraph, TaskId};
use onesched_heuristics::{commit_placement, place_on, PlacementPolicy};
use onesched_platform::Platform;
use onesched_sim::{CommModel, ResourcePool, Schedule};

/// Result of a branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BnbResult {
    /// Best makespan found.
    pub makespan: f64,
    /// A schedule achieving it.
    pub schedule: Schedule,
    /// Nodes expanded.
    pub nodes: u64,
    /// Whether the search ran to completion (true = `makespan` is optimal
    /// under the greedy message-serialization rule).
    pub optimal: bool,
}

struct Search<'a> {
    g: &'a TaskGraph,
    platform: &'a Platform,
    policy: PlacementPolicy,
    best: f64,
    best_sched: Option<Schedule>,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
    /// min-cycle-time bottom levels (no comm): admissible remaining-path bound
    bl_fast: Vec<f64>,
}

impl Search<'_> {
    fn dfs(
        &mut self,
        pool: &ResourcePool,
        sched: &Schedule,
        pending: &[u32],
        remaining: usize,
        current_max: f64,
    ) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.exhausted = false;
            return;
        }
        if remaining == 0 {
            if current_max < self.best {
                self.best = current_max;
                self.best_sched = Some(sched.clone());
            }
            return;
        }
        // Lower bound: any unscheduled task still needs its fast-path time,
        // starting no earlier than its placed parents' finishes.
        let mut lb = current_max;
        for v in self.g.tasks() {
            if sched.task(v).is_none() {
                let mut ready_at = 0.0f64;
                for (p, _) in self.g.predecessors(v) {
                    if let Some(tp) = sched.task(p) {
                        ready_at = ready_at.max(tp.finish);
                    }
                }
                lb = lb.max(ready_at + self.bl_fast[v.index()]);
            }
        }
        if lb >= self.best - onesched_sim::EPS {
            return;
        }

        let ready: Vec<TaskId> = self
            .g
            .tasks()
            .filter(|&v| sched.task(v).is_none() && pending[v.index()] == 0)
            .collect();
        for task in ready {
            for proc in self.platform.procs() {
                let tp = place_on(
                    self.g,
                    self.platform,
                    sched,
                    pool.begin(),
                    task,
                    proc,
                    self.policy,
                );
                let mut pool2 = pool.clone();
                let mut sched2 = sched.clone();
                let finish = tp.finish;
                commit_placement(&mut pool2, &mut sched2, tp);
                let mut pending2 = pending.to_vec();
                for (succ, _) in self.g.successors(task) {
                    pending2[succ.index()] -= 1;
                }
                self.dfs(
                    &pool2,
                    &sched2,
                    &pending2,
                    remaining - 1,
                    current_max.max(finish),
                );
            }
        }
    }
}

/// Exhaustive branch-and-bound (see module docs for the exactness scope).
pub fn branch_and_bound(
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    node_limit: u64,
) -> BnbResult {
    use onesched_dag::{bottom_levels, RankWeights, TopoOrder};
    let topo = TopoOrder::new(g);
    let bl_fast = bottom_levels(
        g,
        &topo,
        RankWeights {
            unit_comp: platform.min_cycle_time(),
            unit_comm: 0.0,
        },
    );
    let mut s = Search {
        g,
        platform,
        policy: PlacementPolicy::paper(),
        best: f64::INFINITY,
        best_sched: None,
        nodes: 0,
        node_limit,
        exhausted: true,
        bl_fast,
    };
    let pool = ResourcePool::new(platform.num_procs(), model);
    let sched = Schedule::with_tasks(g.num_tasks());
    let pending: Vec<u32> = g.tasks().map(|v| g.in_degree(v) as u32).collect();
    s.dfs(&pool, &sched, &pending, g.num_tasks(), 0.0);
    BnbResult {
        makespan: s.best,
        schedule: s.best_sched.expect("search visits at least one leaf"),
        nodes: s.nodes,
        optimal: s.exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_sim::validate;
    use onesched_testbeds::fork;

    #[test]
    fn figure1_bnb_matches_fork_solver() {
        // fork with 4 children (small enough for full search on 5 procs)
        let g = fork(1.0, &[(1.0, 1.0); 4]);
        let p = Platform::homogeneous(5);
        let r = branch_and_bound(&g, &p, CommModel::OnePortBidir, 5_000_000);
        assert!(r.optimal);
        let exact = crate::fork::ForkInstance::from_graph(&g).optimal_makespan();
        assert_eq!(r.makespan, exact);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &r.schedule).is_empty());
    }

    #[test]
    fn macro_vs_one_port_gap() {
        let g = fork(1.0, &[(1.0, 1.0); 4]);
        let p = Platform::homogeneous(5);
        let macro_r = branch_and_bound(&g, &p, CommModel::MacroDataflow, 5_000_000);
        let oneport_r = branch_and_bound(&g, &p, CommModel::OnePortBidir, 5_000_000);
        assert!(macro_r.optimal && oneport_r.optimal);
        assert!(macro_r.makespan < oneport_r.makespan);
        assert_eq!(macro_r.makespan, 3.0);
    }

    #[test]
    fn chain_optimum() {
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let t: Vec<_> = (0..4).map(|_| b.add_task(1.0)).collect();
        for w in t.windows(2) {
            b.add_edge(w[0], w[1], 5.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2);
        let r = branch_and_bound(&g, &p, CommModel::OnePortBidir, 1_000_000);
        assert!(r.optimal);
        assert_eq!(r.makespan, 4.0, "chain stays on one processor");
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let g = fork(1.0, &[(1.0, 1.0); 5]);
        let p = Platform::homogeneous(4);
        let r = branch_and_bound(&g, &p, CommModel::OnePortBidir, 50);
        assert!(!r.optimal);
        assert!(r.makespan.is_finite(), "still returns a feasible schedule");
        assert!(validate(&g, &p, CommModel::OnePortBidir, &r.schedule).is_empty());
    }

    #[test]
    fn heuristics_within_optimal_bound() {
        use onesched_heuristics::{Heft, Ilha, Scheduler};
        let g = fork(1.0, &[(2.0, 1.0), (1.0, 2.0), (3.0, 1.0)]);
        let p = Platform::uniform_links(vec![1.0, 2.0], 1.0).unwrap();
        let r = branch_and_bound(&g, &p, CommModel::OnePortBidir, 2_000_000);
        assert!(r.optimal);
        for s in [&Heft::new() as &dyn Scheduler, &Ilha::new(4)] {
            let h = s.schedule(&g, &p, CommModel::OnePortBidir);
            assert!(
                h.makespan() >= r.makespan - 1e-9,
                "{} beat the exact optimum?!",
                s.name()
            );
        }
    }
}
