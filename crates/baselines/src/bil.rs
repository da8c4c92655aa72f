//! BIL — Best Imaginary Level (Oh & Ha).

use onesched_dag::{TaskGraph, TopoOrder};
use onesched_heuristics::{best_placement, commit_placement, PlacementPolicy, Probe, Scheduler};
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
///                                              min_{q ≠ p} BIL(u, q) + data(v,u)·route(p,q) )
/// ```
///
/// — the length of the best imaginable completion of `v`'s subtree when `v`
/// runs on `p` (each child either stays on `p` for free or pays one
/// communication to its own best processor). `route(p, q)` is the static
/// route's latency ([`Platform::routes`]): the direct link on a fully
/// connected platform, the relay chain where the link is missing. Tasks are prioritized by their
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
    let routes = platform.routes();
    let topo = TopoOrder::new(g);
    let mut bil = vec![Vec::new(); g.num_tasks()];
    for v in topo.reversed() {
        // children come first in reversed topological order
        let levels: Vec<f64> = platform
            .procs()
            .map(|proc| {
                let own = platform.exec_time(g.weight(v), proc);
                let mut worst_child = 0.0f64;
                for (u, e) in g.successors(v) {
                    let child = bil.get(u.index()).map_or(&[][..], Vec::as_slice);
                    let mut stay = f64::INFINITY;
                    let mut best_move = f64::INFINITY;
                    for (q, &level) in platform.procs().zip(child) {
                        if q == proc {
                            stay = level;
                        } else {
                            let cost = level + g.data(e) * routes.route_latency(proc, q);
                            best_move = best_move.min(cost);
                        }
                    }
                    worst_child = worst_child.max(stay.min(best_move));
                }
                own + worst_child
            })
            .collect();
        if let Some(row) = bil.get_mut(v.index()) {
            *row = levels;
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

    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let bil = imaginary_levels(g, platform);
        let prio: Vec<f64> = bil
            .iter()
            .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();

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
            let tp = best_placement(g, platform, &pool, &sched, task, self.policy);
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
    fn bil_prices_a_missing_link_by_its_route() {
        // line P0 - P1 - P2: a child moved from P0 to P2 pays the two-hop
        // route (2 per item), not an infinite direct link
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 3.0).unwrap();
        let g = b.build().unwrap();
        let p = onesched_platform::topology::line(vec![1.0, 1.0, 0.5], 1.0).unwrap();
        let bil = imaginary_levels(&g, &p);
        assert_eq!(bil[c.index()], vec![1.0, 1.0, 0.5]);
        // on P0: stay (1) beats moving to P1 (1 + 3) or P2 (0.5 + 6)
        assert_eq!(bil[a.index()][0], 2.0);
        assert!(bil.iter().flatten().all(|l| l.is_finite()));
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
