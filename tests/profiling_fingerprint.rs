//! Profiling is observation-only: this test binary registers the counting
//! global allocator *unconditionally* (no feature flag — integration tests
//! are their own binaries), then re-derives schedules and executions and
//! compares them bit-exactly against artifacts recorded WITHOUT the
//! allocator:
//!
//! * every paper-platform schedule in `tests/fixtures/schedule_baseline.json`
//!   (recorded by `experiments record-baseline`, a non-profiled build) must
//!   match makespan + placement fingerprint exactly;
//! * a discrete-event execution replay must reproduce the static schedule's
//!   trace fingerprint, exactly as the engine promises in non-profiled runs.
//!
//! Together these pin the `profiling` feature's contract: counting
//! allocations never changes an allocation decision, a placement, or a
//! simulated event.

use onesched::exec::{execute, DispatchPolicy, ExecConfig, Perturbation};
use onesched::prelude::*;
use onesched::registry::{self, SchedulerSpec};
use onesched::regress::{baseline_platform, placement_fingerprint, BaselineFile};
use onesched::sim::{trace_fingerprint, ExecutionTrace};

#[global_allocator]
static COUNTING_ALLOC: onesched::prof::CountingAlloc = onesched::prof::CountingAlloc::new();

const FIXTURE: &str = include_str!("fixtures/schedule_baseline.json");

#[test]
fn counting_allocator_is_live_in_this_binary() {
    let before = onesched::prof::snapshot();
    let g = Testbed::Lu.generate(20, PAPER_C);
    let delta = onesched::prof::snapshot().delta_since(before);
    assert!(onesched::prof::enabled(), "allocator must be registered");
    assert!(delta.allocs > 0, "graph generation allocates");
    assert!(delta.bytes > 0);
    drop(g);
}

#[test]
fn schedules_bit_identical_with_profiling_allocator() {
    let fixture: BaselineFile = serde_json::from_str(FIXTURE).expect("parse fixture");
    let mut checked = 0;
    for e in &fixture.entries {
        let model = e.comm_model().expect("fixture models parse");
        let tb = Testbed::ALL
            .iter()
            .copied()
            .find(|t| t.name() == e.testbed)
            .unwrap_or_else(|| panic!("unknown testbed {:?}", e.testbed));
        let g = tb.generate(e.n, PAPER_C);
        let platform = baseline_platform(&e.topology).expect("fixture topology resolves");
        let spec = SchedulerSpec::parse(&e.scheduler).expect("fixture labels are specs");
        let sched = registry::build(&spec)
            .expect("fixture specs build")
            .schedule(&g, &platform, model);
        let ctx = format!(
            "{} n={} {} on {} under {model}",
            e.testbed, e.n, e.scheduler, e.topology
        );
        assert_eq!(sched.makespan(), e.makespan, "{ctx}: makespan drifted");
        assert_eq!(
            format!("{:016x}", placement_fingerprint(&sched)),
            e.fingerprint,
            "{ctx}: placements drifted under the counting allocator"
        );
        checked += 1;
    }
    assert!(checked >= 24, "fixture unexpectedly small ({checked})");
}

#[test]
fn sim_fingerprints_bit_identical_with_profiling_allocator() {
    let p = Platform::paper();
    let m = CommModel::OnePortBidir;
    for tb in [Testbed::Lu, Testbed::Laplace, Testbed::Stencil] {
        let g = tb.generate(20, PAPER_C);
        let sched = Heft::new().schedule(&g, &p, m);
        let static_fp = trace_fingerprint(&ExecutionTrace::from_schedule(&sched));
        // noiseless static-order replay: the engine promises bit-exact
        // agreement with the schedule, profiled or not
        let cfg = ExecConfig {
            policy: DispatchPolicy::StaticOrder,
            perturb: Perturbation::noise(0.0),
            seed: 7,
        };
        let rep = execute(&g, &p, m, &sched, &cfg).expect("executable");
        assert_eq!(rep.trace_fingerprint, static_fp, "{tb}: trace drifted");
        assert_eq!(rep.executed_makespan, sched.makespan());
        // seeded noisy replay: deterministic per seed, so two in-process
        // runs agree bit-exactly even while counters tick underneath
        let noisy = ExecConfig {
            policy: DispatchPolicy::ListDynamic,
            perturb: Perturbation::noise(0.2),
            seed: 7,
        };
        let r1 = execute(&g, &p, m, &sched, &noisy).expect("executable");
        let r2 = execute(&g, &p, m, &sched, &noisy).expect("executable");
        assert_eq!(r1.trace_fingerprint, r2.trace_fingerprint, "{tb}");
        assert_eq!(r1.executed_makespan, r2.executed_makespan, "{tb}");
    }
}
