//! BIL — Best Imaginary Level (Oh & Ha).

use onesched_dag::{TaskGraph, TopoOrder};
use onesched_heuristics::{best_placement, commit_placement, PlacementPolicy, Scheduler};
use onesched_platform::Platform;
use onesched_sim::{CommModel, ResourcePool, Schedule};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The BIL scheduler.
///
/// The *basic imaginary level* of task `v` on processor `p` is
///
/// ```text
/// BIL(v, p) = w(v)·t_p + max_{children u} min( BIL(u, p),
///                                              min_{q ≠ p} BIL(u, q) + data(v,u)·link(p,q) )
/// ```
///
/// — the length of the best imaginable completion of `v`'s subtree when `v`
/// runs on `p` (each child either stays on `p` for free or pays one
/// communication to its own best processor). Tasks are prioritized by their
/// *best* imaginary level `min_p BIL(v, p)` (larger = more urgent) and placed
/// by earliest finish time on the one-port timelines.
///
/// The original BIM/BIL machinery also revises priorities as processors
/// saturate; this implementation keeps the static priority (the dominant
/// term) — a simplification documented here and shared by the paper's own
/// experimental setup, which treats BIL as a static-priority competitor.
#[derive(Debug, Clone, Default)]
pub struct Bil {
    /// Placement policy for the EFT step.
    pub policy: PlacementPolicy,
}

impl Bil {
    /// BIL adapted to the one-port machinery.
    pub fn new() -> Bil {
        Bil {
            policy: PlacementPolicy::paper(),
        }
    }
}

/// Compute `BIL(v, p)` for all tasks and processors; row-major `[task][proc]`.
pub fn imaginary_levels(g: &TaskGraph, platform: &Platform) -> Vec<Vec<f64>> {
    let p = platform.num_procs();
    let topo = TopoOrder::new(g);
    let mut bil = vec![vec![0.0f64; p]; g.num_tasks()];
    for v in topo.reversed() {
        for pi in 0..p {
            let proc = onesched_platform::ProcId(pi as u32);
            let own = platform.exec_time(g.weight(v), proc);
            let mut worst_child = 0.0f64;
            for (u, e) in g.successors(v) {
                let stay = bil[u.index()][pi];
                let mut best_move = f64::INFINITY;
                #[allow(clippy::needless_range_loop)] // qi pairs with `pi` symmetrically
                for qi in 0..p {
                    if qi == pi {
                        continue;
                    }
                    let q = onesched_platform::ProcId(qi as u32);
                    let cost = bil[u.index()][qi] + platform.comm_time(g.data(e), proc, q);
                    best_move = best_move.min(cost);
                }
                worst_child = worst_child.max(stay.min(best_move));
            }
            bil[v.index()][pi] = own + worst_child;
        }
    }
    bil
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

impl Scheduler for Bil {
    fn name(&self) -> String {
        "BIL".into()
    }

    fn schedule(&self, g: &TaskGraph, platform: &Platform, model: CommModel) -> Schedule {
        let bil = imaginary_levels(g, platform);
        let prio: Vec<f64> = bil
            .iter()
            .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();

        let mut pool = ResourcePool::new(platform.num_procs(), model);
        let routes = onesched_platform::RoutingTable::new(platform);
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
            let tp = best_placement(g, platform, &routes, &pool, &sched, task, self.policy);
            commit_placement(&mut pool, &mut sched, tp);
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
    fn bil_of_single_task() {
        let mut b = onesched_dag::TaskGraphBuilder::new();
        b.add_task(2.0);
        let g = b.build().unwrap();
        let p = Platform::uniform_links(vec![1.0, 3.0], 1.0).unwrap();
        let bil = imaginary_levels(&g, &p);
        assert_eq!(bil[0], vec![2.0, 6.0]);
    }

    #[test]
    fn bil_chain_accounts_for_comm_or_stay() {
        // a(1) -> b(1), data 10; homogeneous 2 procs, link 1.
        // BIL(b, p) = 1. BIL(a, p) = 1 + min(stay = 1, move = 1 + 10) = 2.
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 10.0).unwrap();
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2);
        let bil = imaginary_levels(&g, &p);
        assert_eq!(bil[a.index()], vec![2.0, 2.0]);
    }

    #[test]
    fn bil_valid_on_testbeds() {
        let p = Platform::paper();
        for tb in [Testbed::Lu, Testbed::ForkJoin] {
            let g = tb.generate(4, PAPER_C);
            for m in [CommModel::MacroDataflow, CommModel::OnePortBidir] {
                let s = Bil::new().schedule(&g, &p, m);
                assert!(validate(&g, &p, m, &s).is_empty(), "{tb} {m}");
            }
        }
    }

    #[test]
    fn bil_valid_on_toy() {
        let g = toy();
        let p = Platform::homogeneous(2);
        let s = Bil::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }
}
