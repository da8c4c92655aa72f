//! Schedule-equivalence regression: HEFT and ILHA must produce bit-identical
//! schedules to the recorded seed fixture on every testbed at n ∈ {30, 60}
//! (`heft`, `ilha(b=<paper-best B>)`), and HEFT and ILHA (`heft`,
//! `ilha(b=8)`) on every testbed at n = 12 over each star/ring/line
//! baseline topology, all under one-port-bidir; then under each of the
//! other three communication models on the paper platform at n = 30 and
//! on `star` at n = 12. Every fixture label is a canonical
//! `SchedulerSpec` string, built through the workspace catalog.
//!
//! The placement hot path is under active performance work (indexed
//! timelines, the pruned candidate scan over one-hop and multi-hop
//! routes); this test guarantees that such work can never *silently*
//! change a schedule. If a
//! change is intentional, regenerate the fixture with
//! `cargo run --release --bin experiments -- record-baseline`
//! and say so in the PR (CI's fixture-drift gate enforces the same).

use onesched::prelude::*;
use onesched::registry::{self, SchedulerSpec};
use onesched::regress::{
    baseline_platform, placement_fingerprint, BaselineFile, BASELINE_SCHEMA, BASELINE_TOPOLOGIES,
    BASELINE_VARIANT_MODELS, MODEL_BASELINE_N, ROUTED_BASELINE_N, ROUTED_BASELINE_PROCS,
};

const FIXTURE: &str = include_str!("fixtures/schedule_baseline.json");

#[test]
fn schedules_match_recorded_seed_fixture() {
    let fixture: BaselineFile = serde_json::from_str(FIXTURE).expect("parse fixture");
    assert_eq!(fixture.schema, BASELINE_SCHEMA);
    // 6 testbeds × 2 sizes × 2 schedulers on the paper platform, plus
    // 3 topologies × 6 testbeds × 2 routed schedulers at n = 12, all
    // one-port-bidir; plus 3 other models × 2 platforms × 6 testbeds ×
    // 2 schedulers
    assert_eq!(
        fixture.entries.len(),
        24 + BASELINE_TOPOLOGIES.len() * 6 * 2 + BASELINE_VARIANT_MODELS.len() * 2 * 6 * 2,
        "fixture must cover every instance"
    );
    assert!(
        BASELINE_TOPOLOGIES
            .iter()
            .all(|t| fixture.entries.iter().any(|e| e.topology == *t)),
        "every routed topology must appear"
    );
    assert!(
        CommModel::ALL
            .iter()
            .all(|&m| fixture.entries.iter().any(|e| e.comm_model() == Ok(m))),
        "every communication model must appear"
    );

    for e in &fixture.entries {
        let model = e
            .comm_model()
            .unwrap_or_else(|err| panic!("bad model in fixture: {err}"));
        let tb = Testbed::ALL
            .iter()
            .copied()
            .find(|t| t.name() == e.testbed)
            .unwrap_or_else(|| panic!("unknown testbed {:?} in fixture", e.testbed));
        let g = tb.generate(e.n, PAPER_C);
        assert_eq!(
            g.num_tasks(),
            e.tasks,
            "{} n={} graph shape",
            e.testbed,
            e.n
        );
        let ctx = format!(
            "{} n={} {} on {} under {model}",
            e.testbed, e.n, e.scheduler, e.topology
        );
        if model != CommModel::OnePortBidir {
            let n = if e.topology == "paper" {
                MODEL_BASELINE_N
            } else {
                assert_eq!(e.topology, "star", "{ctx}: variant models pin star");
                ROUTED_BASELINE_N
            };
            assert_eq!(e.n, n, "{ctx}: variant models pin one size");
        }
        // every label is a canonical spec: it round-trips exactly, and
        // ILHA's chunk size is the testbed's paper-best B on the paper
        // platform, B = 8 on the routed topologies
        let spec = SchedulerSpec::parse(&e.scheduler)
            .unwrap_or_else(|err| panic!("{ctx}: label is not a spec: {err}"));
        assert_eq!(spec.canonical(), e.scheduler, "{ctx}: label not canonical");
        let ilha_b = if e.topology == "paper" {
            tb.paper_best_b()
        } else {
            assert_eq!(e.n, ROUTED_BASELINE_N, "routed entries pin one size");
            ROUTED_BASELINE_PROCS
        };
        assert!(
            [SchedulerSpec::heft(), SchedulerSpec::ilha(ilha_b)].contains(&spec),
            "{ctx}: unexpected scheduler"
        );
        let platform = baseline_platform(&e.topology).expect("fixture topology resolves");
        let sched = registry::build(&spec)
            .unwrap_or_else(|err| panic!("{ctx}: {err}"))
            .schedule(&g, &platform, model);
        // Exact comparisons throughout: the fixture pins bit-identical
        // schedules, not approximately-equal makespans.
        assert_eq!(sched.makespan(), e.makespan, "{ctx}: makespan drifted");
        assert_eq!(
            format!("{:016x}", placement_fingerprint(&sched)),
            e.fingerprint,
            "{ctx}: per-task placements drifted"
        );
        assert_eq!(
            sched.num_effective_comms(),
            e.effective_comms,
            "{ctx}: communication count drifted"
        );
    }
}
