//! ILHA — Iso-Level Heterogeneous Allocation — for the one-port model
//! (paper §4.2 / §4.4).
//!
//! ILHA considers a *chunk* of `B` ready tasks at once (sorted by bottom
//! level) and proceeds in two steps:
//!
//! 1. **Zero-communication scan.** A task whose parents were all allocated
//!    to the same processor `P_i` is assigned to `P_i` — generating no
//!    communication — provided `P_i` is not yet saturated by its
//!    load-balancing share of the chunk (the §4.2 *optimal distribution* of
//!    the chunk's task count; cf. the §4.4 toy example where each of the two
//!    processors "could receive up to 4 tasks in this allocation step").
//! 2. **Earliest-finish fallback.** Remaining tasks are placed like HEFT:
//!    on the processor minimizing their completion time, with incoming
//!    messages serialized on the one-port timelines.
//!
//! Both steps route messages hop by hop on platforms that lack some direct
//! links (the §4.3 extension, see the placement engine).
//!
//! The chunk size `B` trades off load-balancing quality (large `B`) against
//! fast progress along the critical path (small `B`); the paper found the
//! best `B` experimentally per testbed (LU: 4, DOOLITTLE/LDMt: 20,
//! LAPLACE/STENCIL/FORK-JOIN: 38).

use crate::distribution::optimal_distribution;
use crate::heft::ReadyList;
use crate::placement::{best_placement_with, stage_on, EftScratch, PlacementPolicy};
use crate::probe::{Phase, Probe};
use crate::Scheduler;
use onesched_dag::{TaskGraph, TaskId};
use onesched_platform::{Platform, ProcId};
use onesched_sim::{CommModel, CommPlacement, ResourcePool, Schedule, TaskPlacement, TxnBuffers};

/// How far the zero-communication scan of step 1 goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanDepth {
    /// Paper's step 1: only tasks whose parents share a single processor.
    #[default]
    ZeroComm,
    /// §4.4 first variation: additionally pre-place tasks whose parents span
    /// exactly two processors (one message), on the parent processor holding
    /// the larger incoming volume, still under the load cap.
    UpToOneComm,
}

/// The ILHA scheduler.
#[derive(Debug, Clone)]
pub struct Ilha {
    /// Chunk size `B` (must be at least 1; the paper recommends `B ≥ p`).
    pub b: usize,
    /// Compute-slot and communication-ordering policy for step 2.
    pub policy: PlacementPolicy,
    /// Scan depth of step 1.
    pub scan: ScanDepth,
}

impl Ilha {
    /// ILHA with chunk size `b` and the paper-faithful policy.
    pub fn new(b: usize) -> Ilha {
        assert!(b >= 1, "chunk size B must be at least 1");
        Ilha {
            b,
            policy: PlacementPolicy::paper(),
            scan: ScanDepth::ZeroComm,
        }
    }

    /// ILHA with the perfect-load-balance chunk of §5.2 (`B = 38` on the
    /// paper platform), falling back to the processor count if the platform
    /// has non-integer cycle-times.
    pub fn auto(platform: &Platform) -> Ilha {
        let b = onesched_platform::bounds::perfect_balance_chunk(platform)
            .map(|b| b as usize)
            .unwrap_or(platform.num_procs())
            .max(platform.num_procs());
        Ilha::new(b)
    }
}

impl Scheduler for Ilha {
    fn name(&self) -> String {
        match self.scan {
            ScanDepth::ZeroComm => format!("ILHA(B={})", self.b),
            ScanDepth::UpToOneComm => format!("ILHA1(B={})", self.b),
        }
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

        let mut chunk: Vec<TaskId> = Vec::with_capacity(self.b);
        let mut deferred: Vec<TaskId> = Vec::with_capacity(self.b);
        let mut staged_tasks: Vec<TaskPlacement> = Vec::with_capacity(self.b);
        let mut staged_comms: Vec<CommPlacement> = Vec::new();
        let mut used: Vec<usize> = Vec::with_capacity(platform.num_procs());
        let mut counts: Vec<usize> = Vec::new();
        let mut step1_bufs = TxnBuffers::default();
        let mut scratch = EftScratch::default();

        loop {
            // Take the B highest-priority ready tasks.
            chunk.clear();
            chunk.extend(std::iter::from_fn(|| ready.pop()).take(self.b));
            if chunk.is_empty() {
                break;
            }

            // Load-balancing caps for this round: the §4.2 "optimal
            // distribution" of the chunk's task count over the processors
            // (the ILHA listing's line 5, "Compute the optimal distribution
            // with B tasks"). A processor saturated by its count receives no
            // further zero-communication task this round — cf. the §4.4 toy
            // example where "each processor could receive up to 4 tasks in
            // this allocation step" (c_1 = c_2 = 0.5, chunk of 8).
            // It depends only on the chunk's size (counts sum to it): `B`
            // in every round but the last few, so it is rarely recomputed.
            if counts.iter().sum::<usize>() != chunk.len() {
                counts = optimal_distribution(platform, chunk.len());
            }
            used.clear();
            used.resize(platform.num_procs(), 0);

            // Step 1: place communication-free tasks under the caps. The
            // whole scan stages into ONE transaction (tasks of a chunk are
            // never dependent on each other, so staged-state queries see
            // exactly what per-task commits would have) and the chunk's
            // placements are committed in a single batch, amortizing the
            // per-placement `occupy` cost.
            probe.phase_begin(Phase::Step1);
            deferred.clear();
            let mut txn = pool.begin_with(std::mem::take(&mut step1_bufs));
            for &task in &chunk {
                let cap_ok = |proc: ProcId| {
                    used.get(proc.index()).copied().unwrap_or(usize::MAX)
                        < counts.get(proc.index()).copied().unwrap_or(0)
                };
                match step1_target(g, &sched, task, self.scan) {
                    Some(proc) if cap_ok(proc) => {
                        if let Some(u) = used.get_mut(proc.index()) {
                            *u += 1;
                        }
                        staged_tasks.push(stage_on(
                            g,
                            platform,
                            &sched,
                            &mut txn,
                            task,
                            proc,
                            self.policy,
                            &mut scratch,
                            &mut staged_comms,
                        ));
                    }
                    _ => deferred.push(task),
                }
            }
            step1_bufs = pool.commit_batch(txn.finish());
            for c in staged_comms.drain(..) {
                sched.place_comm(c);
            }
            for tp in staged_tasks.drain(..) {
                sched.place_task(tp);
            }
            probe.phase_end(Phase::Step1);

            // Step 2: HEFT-style earliest finish time for the rest (§4.4:
            // "we select the processor that allows for the earliest
            // completion time").
            for &task in &deferred {
                probe.phase_begin(Phase::Scan);
                let tp = best_placement_with(
                    g,
                    platform,
                    &pool,
                    &sched,
                    task,
                    self.policy,
                    &mut scratch,
                );
                probe.phase_end(Phase::Scan);
                probe.phase_begin(Phase::Commit);
                scratch.commit(&mut pool, &mut sched, tp);
                probe.phase_end(Phase::Commit);
            }

            for &task in &chunk {
                ready.release(g, task);
            }
        }
        probe.placement_scan(scratch.scan());
        debug_assert!(sched.is_complete());
        sched
    }
}

/// The processor that lets `task` run without communication (step 1), if
/// any: all parents on one processor. Under [`ScanDepth::UpToOneComm`], a
/// task whose parents span exactly two processors is directed to the parent
/// processor receiving the larger incoming volume (one message).
fn step1_target(g: &TaskGraph, sched: &Schedule, task: TaskId, scan: ScanDepth) -> Option<ProcId> {
    let mut iter = g.predecessors(task);
    let (first, first_edge) = iter.next()?; // entry tasks -> step 2
    let first_proc = sched.task(first).expect("parents scheduled").proc;
    // Track at most two distinct parent processors and their incoming
    // volumes (allocation-free: three or more distinct always means step 2).
    let mut a = (first_proc, g.data(first_edge));
    let mut b: Option<(ProcId, f64)> = None;
    for (parent, e) in iter {
        let proc = sched.task(parent).expect("parents scheduled").proc;
        if proc == a.0 {
            a.1 += g.data(e);
        } else {
            match &mut b {
                Some(second) if second.0 == proc => second.1 += g.data(e),
                Some(_) => return None,
                None => b = Some((proc, g.data(e))),
            }
        }
    }
    match (b, scan) {
        (None, _) => Some(a.0),
        (Some(second), ScanDepth::UpToOneComm) => {
            // Put the task where more data already lives.
            Some(if a.1 >= second.1 { a.0 } else { second.0 })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_dag::TaskGraphBuilder;
    use onesched_sim::validate;

    /// The toy example of §4.4 (Figure 3): two fork roots a0, b0; children
    /// a1-a3 of a0, b1-b3 of b0, and ab1, ab2 depending on both roots. All
    /// weights and communication costs are 1.
    pub(crate) fn toy_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a0 = b.add_task(1.0); // v0
        let b0 = b.add_task(1.0); // v1
        let mut children = Vec::new();
        for _ in 0..3 {
            let c = b.add_task(1.0);
            b.add_edge(a0, c, 1.0).unwrap();
            children.push(c);
        }
        for _ in 0..3 {
            let c = b.add_task(1.0);
            b.add_edge(b0, c, 1.0).unwrap();
            children.push(c);
        }
        for _ in 0..2 {
            let c = b.add_task(1.0);
            b.add_edge(a0, c, 1.0).unwrap();
            b.add_edge(b0, c, 1.0).unwrap();
            children.push(c);
        }
        b.build().unwrap()
    }

    #[test]
    fn ilha_valid_all_models() {
        let g = toy_graph();
        let p = Platform::homogeneous(2);
        for m in CommModel::ALL {
            let s = Ilha::new(8).schedule(&g, &p, m);
            assert!(validate(&g, &p, m, &s).is_empty(), "model {m}");
        }
    }

    #[test]
    fn ilha_reduces_communications_on_toy() {
        // §4.4: with B >= 8 ILHA assigns a1..a3 to a0's processor and
        // b1..b3 to b0's, so only the ab tasks may communicate. HEFT's
        // eager earliest-finish rule generates more messages.
        let g = toy_graph();
        let p = Platform::homogeneous(2);
        let ilha = Ilha::new(8).schedule(&g, &p, CommModel::OnePortBidir);
        let heft = crate::Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(
            ilha.num_effective_comms() <= heft.num_effective_comms(),
            "ILHA comms {} > HEFT comms {}",
            ilha.num_effective_comms(),
            heft.num_effective_comms()
        );
        assert!(ilha.makespan() <= heft.makespan() + 1e-9);
        // ILHA's schedule avoids almost all communication: at most the two
        // shared children need one message each.
        assert!(ilha.num_effective_comms() <= 2);
    }

    #[test]
    fn ilha_b1_still_valid() {
        let g = toy_graph();
        let p = Platform::homogeneous(2);
        let s = Ilha::new(1).schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    #[test]
    fn auto_chunk_matches_paper_platform() {
        let p = Platform::paper();
        assert_eq!(Ilha::auto(&p).b, 38);
        let ph = Platform::homogeneous(4);
        assert_eq!(Ilha::auto(&ph).b, 4);
    }

    #[test]
    fn independent_tasks_perfectly_balanced() {
        // 38 unit tasks on the paper platform with B = 38: ILHA's
        // load-balancing should achieve the ideal 30-unit makespan.
        let mut b = TaskGraphBuilder::new();
        b.add_tasks(38, 1.0);
        let g = b.build().unwrap();
        let p = Platform::paper();
        let s = Ilha::new(38).schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(s.makespan(), 30.0);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    #[test]
    fn one_comm_scan_valid() {
        let g = toy_graph();
        let p = Platform::homogeneous(2);
        let mut ilha = Ilha::new(8);
        ilha.scan = ScanDepth::UpToOneComm;
        let s = ilha.schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
        assert_eq!(ilha.name(), "ILHA1(B=8)");
    }

    #[test]
    fn caps_prevent_overload_of_one_proc() {
        // Wide fork from one root: without caps, step 1 would put every
        // child on the root's processor. The cap forces spreading.
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(1.0);
        for _ in 0..10 {
            let c = b.add_task(1.0);
            // tiny messages so remote placement is cheap
            b.add_edge(root, c, 0.01).unwrap();
        }
        let g = b.build().unwrap();
        let p = Platform::homogeneous(5);
        let s = Ilha::new(10).schedule(&g, &p, CommModel::OnePortBidir);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
        assert!(s.procs_used() > 1, "cap must force remote placements");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn b_zero_rejected() {
        let _ = Ilha::new(0);
    }

    #[test]
    fn valid_on_routed_topologies_all_models() {
        use onesched_platform::topology;
        let g = onesched_testbeds::laplace(5, 2.0);
        for p in [
            topology::star(vec![1.0; 5], 1.0).unwrap(),
            topology::ring(vec![1.0, 2.0, 1.0, 2.0], 1.0).unwrap(),
            topology::line(vec![1.0; 4], 1.0).unwrap(),
            topology::random_connected(vec![1.0; 6], 1.0, 0.3, 11).unwrap(),
        ] {
            for m in CommModel::ALL {
                let s = Ilha::new(4).schedule(&g, &p, m);
                let v = validate(&g, &p, m, &s);
                assert!(v.is_empty(), "{m}: {v:?}");
                assert!(s.is_complete());
            }
        }
    }

    #[test]
    fn step1_reduces_communications_on_a_routed_line() {
        // the §4.4 toy on a 2-proc line: step 1 keeps each fork's
        // children local, as on the complete platform
        let g = toy_graph();
        let p = onesched_platform::topology::line(vec![1.0, 1.0], 1.0).unwrap();
        let ilha = Ilha::new(8).schedule(&g, &p, CommModel::OnePortBidir);
        let heft = crate::Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        assert!(ilha.num_effective_comms() <= heft.num_effective_comms());
        assert!(ilha.num_effective_comms() <= 2);
    }
}
