//! Portfolio-equals-best-member regression: a `portfolio[heft,ilha(b=B)]`
//! schedule must be bit-identical to whichever member the recorded seed
//! fixture says is better — smaller makespan, ties (within the sim's EPS)
//! to the lexicographically smaller canonical member label. This pins the
//! portfolio's winner selection against the same fixture schedules the
//! schedule-equivalence gate pins, so a tie-break change can never slip
//! through as "still a valid best member".

use onesched::prelude::*;
use onesched::registry::{self, SchedulerSpec};
use onesched::regress::{placement_fingerprint, BaselineFile, BASELINE_VARIANT_MODELS};
use onesched::sim::EPS;

const FIXTURE: &str = include_str!("fixtures/schedule_baseline.json");

#[test]
fn portfolio_schedule_is_the_fixtures_best_member_bit_exactly() {
    let fixture: BaselineFile = serde_json::from_str(FIXTURE).expect("parse fixture");
    let platform = Platform::paper();
    // The paper-platform entries pair up (HEFT, ILHA) per (testbed, n,
    // model).
    let paper: Vec<_> = fixture
        .entries
        .iter()
        .filter(|e| e.topology == "paper")
        .collect();
    assert_eq!(
        paper.len(),
        24 + BASELINE_VARIANT_MODELS.len() * 6 * 2,
        "fixture covers every paper instance"
    );
    for pair in paper.chunks(2) {
        let (heft_e, ilha_e) = (pair[0], pair[1]);
        assert_eq!(
            (heft_e.n, &heft_e.testbed, &heft_e.model),
            (ilha_e.n, &ilha_e.testbed, &ilha_e.model)
        );
        let model = heft_e.comm_model().expect("fixture models parse");
        let tb = Testbed::ALL
            .iter()
            .copied()
            .find(|t| t.name() == heft_e.testbed)
            .unwrap_or_else(|| panic!("unknown testbed {:?}", heft_e.testbed));
        let g = tb.generate(heft_e.n, PAPER_C);

        // the members are the fixture's own labels, canonical specs
        let members: Vec<SchedulerSpec> = pair
            .iter()
            .map(|e| SchedulerSpec::parse(&e.scheduler).expect("fixture labels are specs"))
            .collect();
        assert_eq!(members[0], SchedulerSpec::heft());
        assert_eq!(members[1].kind, "ilha");
        let spec = SchedulerSpec::portfolio(members);
        let portfolio = registry::build(&spec).expect("portfolio builds");
        let sched = portfolio.schedule(&g, &platform, model);

        // The winner the fixture predicts, by the registry's own rule:
        // smaller makespan; within EPS, "heft" < "ilha(b=N)" wins.
        let best = if ilha_e.makespan < heft_e.makespan - EPS {
            ilha_e
        } else {
            heft_e
        };
        let ctx = format!("{} n={} under {model}", heft_e.testbed, heft_e.n);
        assert_eq!(
            sched.makespan(),
            best.makespan,
            "{ctx}: portfolio did not return the best member's makespan"
        );
        assert_eq!(
            format!("{:016x}", placement_fingerprint(&sched)),
            best.fingerprint,
            "{ctx}: portfolio schedule is not the best member's bit-exactly"
        );
    }
}

#[test]
fn default_full_catalog_portfolio_never_loses_to_heft_or_ilha() {
    let fixture: BaselineFile = serde_json::from_str(FIXTURE).expect("parse fixture");
    let model = CommModel::OnePortBidir;
    let platform = Platform::paper();
    // One representative instance per testbed: the default portfolio
    // (every concrete catalog member, chunk size inherited from the
    // outer spec) is best-of-all, so it can never lose to either paper
    // heuristic alone.
    for tb in Testbed::ALL {
        let n = 30;
        let g = tb.generate(n, PAPER_C);
        let spec = SchedulerSpec {
            b: Some(tb.paper_best_b()),
            seed: Some(0),
            ..SchedulerSpec::named("portfolio")
        };
        let portfolio = registry::build(&spec).expect("default portfolio builds");
        let sched = portfolio.schedule(&g, &platform, model);
        assert!(
            onesched::sim::validate(&g, &platform, model, &sched).is_empty(),
            "{tb}: portfolio winner must validate"
        );
        for e in fixture
            .entries
            .iter()
            .filter(|e| e.topology == "paper" && e.n == n && e.testbed == tb.name())
            .filter(|e| e.comm_model() == Ok(model))
        {
            assert!(
                sched.makespan() <= e.makespan + EPS,
                "{tb}: portfolio ({}) lost to {} ({})",
                sched.makespan(),
                e.scheduler,
                e.makespan
            );
        }
    }
}
