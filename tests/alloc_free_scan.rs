//! Schedule construction allocates almost nothing per task: the placement
//! scan recycles every candidate's message list and transaction buffers
//! through the scheduler's scratch, ILHA's step 1 reuses its staging
//! buffers, and the pool's timelines grow in whole chunks. What remains is
//! setup (ranks, pool, schedule) and a few allocations per chunk split:
//! 0.1 to 0.3 per task on this test's graph. One allocation per evaluated
//! candidate would be several per task.
//!
//! This binary registers the counting allocator and holds a single test,
//! so no concurrent test moves the process-wide counters.

use onesched::platform::topology;
use onesched::prelude::*;

#[global_allocator]
static COUNTING_ALLOC: onesched::prof::CountingAlloc = onesched::prof::CountingAlloc::new();

#[test]
fn construction_allocates_less_than_once_per_two_tasks() {
    let g = Testbed::Laplace.generate(60, PAPER_C);
    let tasks = g.num_tasks() as u64;
    let ring = topology::ring(vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 1.0).expect("ring");
    let paper = Platform::paper();
    let runs: [(&str, Box<dyn Scheduler>, &Platform); 5] = [
        ("heft", Box::new(Heft::new()), &paper),
        ("ilha b=38", Box::new(Ilha::new(38)), &paper),
        ("ilha b=4", Box::new(Ilha::new(4)), &paper),
        ("heft ring", Box::new(Heft::new()), &ring),
        ("ilha ring", Box::new(Ilha::new(6)), &ring),
    ];
    for (name, scheduler, platform) in runs {
        let before = onesched::prof::snapshot();
        let sched = scheduler.schedule(&g, platform, CommModel::OnePortBidir);
        let allocs = onesched::prof::snapshot().delta_since(before).allocs;
        assert!(sched.is_complete(), "{name}");
        assert!(
            2 * allocs < tasks,
            "{name}: {allocs} allocations for {tasks} tasks"
        );
    }
}
