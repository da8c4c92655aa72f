//! Trivial baselines: serial, round-robin, random allocation.

use onesched_dag::{TaskGraph, TopoOrder};
use onesched_heuristics::{commit_placement, place_on, PlacementPolicy, Probe, Scheduler};
use onesched_platform::{Platform, ProcId};
use onesched_sim::{CommModel, ResourcePool, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything on the fastest processor, in topological order. Zero
/// communications; its makespan is the `sequential time` used as the
/// speedup denominator in the paper's figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

/// Tasks assigned `proc = position mod p` in topological order — a
/// deliberately communication-oblivious baseline showing what ignoring
/// locality costs under the one-port model.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

/// Uniformly random processor per task (seeded, deterministic), topological
/// order. The weakest sensible baseline.
#[derive(Debug, Clone)]
pub struct RandomAlloc {
    seed: u64,
}

impl RandomAlloc {
    /// Random allocation with the given RNG seed.
    pub fn new(seed: u64) -> RandomAlloc {
        RandomAlloc { seed }
    }
}

fn schedule_with_alloc(
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    mut alloc: impl FnMut(usize, onesched_dag::TaskId) -> ProcId,
) -> Schedule {
    let topo = TopoOrder::new(g);
    let mut pool = ResourcePool::new(platform.num_procs(), model);
    let mut sched = Schedule::with_tasks(g.num_tasks());
    for (pos, &task) in topo.order().iter().enumerate() {
        let proc = alloc(pos, task);
        let tp = place_on(
            g,
            platform,
            &sched,
            pool.begin(),
            task,
            proc,
            PlacementPolicy::paper(),
        );
        commit_placement(&mut pool, &mut sched, tp);
    }
    sched
}

impl Scheduler for Serial {
    fn name(&self) -> String {
        "serial".into()
    }
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let fastest = platform.fastest_proc();
        schedule_with_alloc(g, platform, model, |_, _| fastest)
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let p = platform.num_procs() as u32;
        schedule_with_alloc(g, platform, model, |pos, _| ProcId(pos as u32 % p))
    }
}

impl Scheduler for RandomAlloc {
    fn name(&self) -> String {
        "random".into()
    }
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = platform.num_procs() as u32;
        schedule_with_alloc(g, platform, model, |_, _| ProcId(rng.gen_range(0..p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_sim::validate;
    use onesched_testbeds::{toy, Testbed, PAPER_C};

    #[test]
    fn serial_makespan_is_sequential_time() {
        let g = Testbed::Lu.generate(4, PAPER_C);
        let p = Platform::paper();
        let s = Serial.schedule(&g, &p, CommModel::OnePortBidir);
        assert!((s.makespan() - g.total_work() * 6.0).abs() < 1e-9);
        assert_eq!(s.num_effective_comms(), 0);
        assert!((s.speedup(&g, &p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_robin_uses_all_procs() {
        let g = Testbed::Laplace.generate(5, PAPER_C);
        let p = Platform::paper();
        let s = RoundRobin.schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(s.procs_used(), 10);
        assert!(validate(&g, &p, CommModel::OnePortBidir, &s).is_empty());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = toy();
        let p = Platform::homogeneous(3);
        let a = RandomAlloc::new(1).schedule(&g, &p, CommModel::OnePortBidir);
        let b = RandomAlloc::new(1).schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(a.makespan(), b.makespan());
        for m in CommModel::ALL {
            let s = RandomAlloc::new(5).schedule(&g, &p, m);
            assert!(validate(&g, &p, m, &s).is_empty(), "{m}");
        }
    }
}
