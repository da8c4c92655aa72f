//! HEFT for the one-port model (paper §4.1 / §4.3).
//!
//! Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu) extended to
//! serialize communications: tasks are prioritized by bottom level (computed
//! with the §4.1 heterogeneous averages); at each step the highest-priority
//! ready task is placed on the processor minimizing its finish time, where
//! the evaluation of a candidate processor greedily schedules the incoming
//! messages on the one-port send/receive timelines. On a platform that
//! lacks some direct links, each message is relayed hop by hop along its
//! static route (the §4.3 extension, see the placement engine).
//!
//! With [`CommModel::MacroDataflow`] the same code is the classical HEFT
//! (ports never contend), which serves as the macro-dataflow baseline.

use crate::avg_weights::paper_bottom_levels;
use crate::placement::{best_placement_with, EftScratch, PlacementPolicy};
use crate::probe::{Phase, Probe};
use crate::Scheduler;
use onesched_dag::{TaskGraph, TaskId, TopoOrder};
use onesched_platform::Platform;
use onesched_sim::{CommModel, ResourcePool, Schedule};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The HEFT scheduler, parameterized by placement policy.
#[derive(Debug, Clone, Default)]
pub struct Heft {
    /// Compute-slot and communication-ordering policy.
    pub policy: PlacementPolicy,
}

impl Heft {
    /// Paper-faithful HEFT: insertion-based, messages ordered by parent
    /// finish time.
    pub fn new() -> Heft {
        Heft {
            policy: PlacementPolicy::paper(),
        }
    }

    /// HEFT with a custom placement policy (used by `experiments ablations`).
    pub fn with_policy(policy: PlacementPolicy) -> Heft {
        Heft { policy }
    }
}

/// Heap entry: max bottom level first, then min task id (deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReadyEntry {
    bl: f64,
    task: TaskId,
}

impl Eq for ReadyEntry {}

impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bl
            .total_cmp(&other.bl)
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The ready list HEFT and ILHA share: tasks whose parents are all
/// scheduled, highest bottom level first (ties: lowest task id).
pub(crate) struct ReadyList {
    bl: Vec<f64>,
    pending_preds: Vec<u32>,
    heap: BinaryHeap<ReadyEntry>,
}

impl ReadyList {
    /// Rank `g` by the §4.1 bottom levels (reported to `probe` as
    /// [`Phase::Rank`]) and queue its entry tasks.
    pub(crate) fn new(g: &TaskGraph, platform: &Platform, probe: &dyn Probe) -> ReadyList {
        probe.phase_begin(Phase::Rank);
        let topo = TopoOrder::new(g);
        let bl = paper_bottom_levels(g, &topo, platform);
        probe.phase_end(Phase::Rank);
        let mut ready = ReadyList {
            bl,
            pending_preds: g.tasks().map(|v| g.in_degree(v) as u32).collect(),
            heap: BinaryHeap::new(),
        };
        for task in g.tasks().filter(|&v| g.in_degree(v) == 0) {
            ready.push(task);
        }
        ready
    }

    fn push(&mut self, task: TaskId) {
        let bl = self.bl.get(task.index()).copied().unwrap_or_default();
        self.heap.push(ReadyEntry { bl, task });
    }

    /// Take the highest-priority ready task.
    pub(crate) fn pop(&mut self) -> Option<TaskId> {
        self.heap.pop().map(|entry| entry.task)
    }

    /// Record `task` as scheduled: queue every successor whose parents are
    /// now all scheduled.
    pub(crate) fn release(&mut self, g: &TaskGraph, task: TaskId) {
        for (succ, _) in g.successors(task) {
            let Some(pending) = self.pending_preds.get_mut(succ.index()) else {
                continue;
            };
            *pending -= 1;
            if *pending == 0 {
                self.push(succ);
            }
        }
    }
}

impl Scheduler for Heft {
    fn name(&self) -> String {
        let mut n = String::from("HEFT");
        if !self.policy.insertion {
            n.push_str("-append");
        }
        n
    }

    /// The scheduling loop, reporting phases and scan counters to `probe`
    /// (write-only: every decision is identical to an unprobed run).
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        probe: &dyn Probe,
    ) -> Schedule {
        let mut ready = ReadyList::new(g, platform, probe);
        let mut pool = ResourcePool::new(platform.num_procs(), model);
        let mut sched = Schedule::with_tasks(g.num_tasks());
        let mut scratch = EftScratch::default();
        while let Some(task) = ready.pop() {
            probe.phase_begin(Phase::Scan);
            let tp =
                best_placement_with(g, platform, &pool, &sched, task, self.policy, &mut scratch);
            probe.phase_end(Phase::Scan);
            probe.phase_begin(Phase::Commit);
            scratch.commit(&mut pool, &mut sched, tp);
            probe.phase_end(Phase::Commit);
            ready.release(g, task);
        }
        probe.placement_scan(scratch.scan());
        debug_assert!(sched.is_complete());
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_dag::TaskGraphBuilder;
    use onesched_sim::validate;

    /// A root with `n` unit children, each edge carrying `data`.
    fn fork(n: usize, data: f64) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(1.0);
        for _ in 0..n {
            let c = b.add_task(1.0);
            b.add_edge(root, c, data).unwrap();
        }
        b.build().unwrap()
    }

    /// Paper Figure 1: fork with six unit children, unit comms.
    fn fig1_fork() -> TaskGraph {
        fork(6, 1.0)
    }

    #[test]
    fn heft_valid_on_fig1_all_models() {
        let g = fig1_fork();
        let p = Platform::homogeneous(5);
        for m in CommModel::ALL {
            let s = Heft::new().schedule(&g, &p, m);
            assert!(validate(&g, &p, m, &s).is_empty(), "model {m}");
            assert!(s.is_complete());
        }
    }

    #[test]
    fn macro_dataflow_fig1_makespan_3() {
        // §2.3: in the macro-dataflow model the fork of Figure 1 can finish
        // at time 3 (all four remote messages in parallel). HEFT achieves it.
        let g = fig1_fork();
        let p = Platform::homogeneous(5);
        let s = Heft::new().schedule(&g, &p, CommModel::MacroDataflow);
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn one_port_fig1_worse_than_macro() {
        // §2.3: serializing the sends makes the same graph strictly slower;
        // the one-port optimum is 5.
        let g = fig1_fork();
        let p = Platform::homogeneous(5);
        let s = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(s.makespan() >= 5.0 - 1e-9, "makespan {}", s.makespan());
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    #[test]
    fn chain_stays_on_one_proc() {
        // a chain should never pay a communication under HEFT
        let mut b = TaskGraphBuilder::new();
        let t: Vec<TaskId> = (0..5).map(|_| b.add_task(1.0)).collect();
        for w in t.windows(2) {
            b.add_edge(w[0], w[1], 10.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = Platform::homogeneous(4);
        let s = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(s.makespan(), 5.0);
        assert_eq!(s.num_effective_comms(), 0);
        assert_eq!(s.procs_used(), 1);
    }

    #[test]
    fn heterogeneous_prefers_fast_proc() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(10.0);
        let g = b.build().unwrap();
        let p = Platform::uniform_links(vec![5.0, 1.0, 2.0], 1.0).unwrap();
        let s = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(s.alloc(TaskId(0)), Some(onesched_platform::ProcId(1)));
        assert_eq!(s.makespan(), 10.0);
    }

    #[test]
    fn independent_tasks_load_balance() {
        let mut b = TaskGraphBuilder::new();
        b.add_tasks(38, 1.0);
        let g = b.build().unwrap();
        let p = Platform::paper();
        let s = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        // §5.2: perfect balance finishes 38 unit tasks at exactly 30.
        assert_eq!(s.makespan(), 30.0);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    #[test]
    fn append_policy_also_valid() {
        let g = fig1_fork();
        let p = Platform::paper();
        let pol = PlacementPolicy {
            insertion: false,
            ..PlacementPolicy::paper()
        };
        let s = Heft::with_policy(pol).schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    use onesched_dag::TaskId;

    #[test]
    fn ready_entry_ordering() {
        let a = ReadyEntry {
            bl: 5.0,
            task: TaskId(3),
        };
        let b = ReadyEntry {
            bl: 7.0,
            task: TaskId(9),
        };
        let c = ReadyEntry {
            bl: 5.0,
            task: TaskId(1),
        };
        assert!(b > a, "higher bottom level wins");
        assert!(c > a, "equal level: smaller id wins");
    }

    #[test]
    fn valid_on_star_topology() {
        let g = fig1_fork();
        let p = onesched_platform::topology::star(vec![1.0; 4], 1.0).unwrap();
        for m in [CommModel::OnePortBidir, CommModel::OnePortUnidir] {
            let s = Heft::new().schedule(&g, &p, m);
            let v = validate(&g, &p, m, &s);
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }

    #[test]
    fn valid_on_line_topology_with_relays() {
        // enough cheap children that HEFT spreads to the far end of a
        // 4-node line, so some message has to be forwarded through a relay.
        let g = fork(8, 0.5);
        let p = onesched_platform::topology::line(vec![1.0; 4], 1.0).unwrap();
        let s = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        let v = validate(&g, &p, CommModel::OnePortBidir, &s);
        assert!(v.is_empty(), "{v:?}");
        assert!(s.is_complete());
        let relayed = s.comms().iter().any(|c| {
            let e = g.edge(c.edge);
            s.alloc(e.src) != Some(c.from) || s.alloc(e.dst) != Some(c.to)
        });
        assert!(relayed, "no hop was relayed: {:?}", s.comms());
    }

    #[test]
    fn larger_graph_on_ring() {
        let g = onesched_testbeds::laplace(6, 2.0);
        let p = onesched_platform::topology::ring(vec![1.0, 2.0, 1.0, 2.0, 1.0], 1.0).unwrap();
        let s = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        let v = validate(&g, &p, CommModel::OnePortBidir, &s);
        assert!(v.is_empty(), "{v:?}");
        assert!(s.is_complete());
    }

    #[test]
    fn disconnected_platform_is_a_typed_error() {
        use crate::RoutedError;
        let inf = f64::INFINITY;
        let p = Platform::new(vec![1.0, 1.0], vec![0.0, inf, inf, 0.0]).unwrap();
        let g = fig1_fork();
        let err = Heft::new()
            .try_schedule(&g, &p, CommModel::OnePortBidir)
            .unwrap_err();
        assert_eq!(
            err,
            RoutedError::Disconnected {
                from: onesched_platform::ProcId(0),
                to: onesched_platform::ProcId(1)
            }
        );
        assert!(err.to_string().contains("no route"), "{err}");
        let err2 = crate::Ilha::new(4)
            .try_schedule(&g, &p, CommModel::OnePortBidir)
            .unwrap_err();
        assert_eq!(err, err2);
    }
}
