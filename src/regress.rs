//! Schedule fingerprints and the recorded-baseline format backing the
//! schedule-equivalence regression tests.
//!
//! Performance work on the placement hot path must never silently change the
//! schedules the heuristics produce. This module pins them down: a
//! [`placement_fingerprint`] hashes every task placement bit-exactly, and a
//! [`BaselineFile`] records makespan + fingerprint + communication count for
//! HEFT and ILHA on every testbed at reference sizes, under every
//! communication model. Each entry names its
//! scheduler by canonical [`SchedulerSpec`] string (`heft`, `ilha(b=4)`),
//! and readers build it through the workspace catalog
//! (`onesched_baselines::registry::build`). The fixture under
//! `tests/fixtures/` was recorded from the seed implementation; the
//! `schedule_equivalence` integration test regenerates all schedules and
//! compares. Regenerate the fixture (only after an *intentional* schedule
//! change) with `experiments record-baseline`.

use onesched_heuristics::registry::SchedulerSpec;
use onesched_platform::Platform;
use onesched_service::cache;
use onesched_service::protocol::{parse_model, DagSpec, JobSpec, PlatformSpec, ResolveError};
use onesched_sim::CommModel;
use onesched_testbeds::Testbed;
use onesched_trace::Scope;
use serde::{Deserialize, Serialize};

// The fingerprint lives in `onesched-sim` (the scheduling service reports it
// too); re-exported here so the regression tests keep their import path.
pub use onesched_sim::placement_fingerprint;

/// One recorded schedule: which instance, and the exact outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Testbed display name (`Testbed::name`).
    pub testbed: String,
    /// Problem size `n` passed to the generator.
    pub n: usize,
    /// Platform key: `"paper"`, or a routed topology (`"star"`, `"ring"`,
    /// `"line"` — see [`baseline_platform`]).
    pub topology: String,
    /// Canonical [`SchedulerSpec`] string: `heft`, and `ilha(b=..)` with
    /// the testbed's paper-best chunk size on the paper platform or a
    /// fixed `B = 8` ([`ROUTED_BASELINE_PROCS`]) on the routed topologies.
    pub scheduler: String,
    /// Communication model by kebab-case name ([`CommModel::name`]).
    pub model: String,
    /// Number of tasks in the generated graph.
    pub tasks: usize,
    /// Exact makespan (round-trips through JSON bit-exactly).
    pub makespan: f64,
    /// [`placement_fingerprint`] as 16 hex digits (u64 exceeds the JSON
    /// shim's exact-integer range).
    pub fingerprint: String,
    /// Number of effective (non-zero duration) communications.
    pub effective_comms: usize,
}

/// The on-disk fixture: a schema tag plus the recorded entries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Format tag ([`BASELINE_SCHEMA`]).
    pub schema: String,
    /// Recorded schedules, in generation order.
    pub entries: Vec<BaselineEntry>,
}

impl BaselineEntry {
    /// The entry's communication model, parsed from [`BaselineEntry::model`].
    pub fn comm_model(&self) -> Result<CommModel, String> {
        parse_model(&self.model)
    }
}

/// Schema tag written by [`record_baseline`].
pub const BASELINE_SCHEMA: &str = "onesched-baseline/v4";

/// The routed topology keys recorded in the baseline fixture.
pub const BASELINE_TOPOLOGIES: [&str; 3] = ["star", "ring", "line"];

/// The problem size of the routed baseline entries (kept small: the routed
/// fixture exists to pin multi-hop placements bit-exactly, not to stress).
pub const ROUTED_BASELINE_N: usize = 12;

/// Processor count of the routed baseline topologies.
pub const ROUTED_BASELINE_PROCS: usize = 8;

/// The models besides one-port-bidir the fixture pins, each on the paper
/// platform at [`MODEL_BASELINE_N`] and on `star` at [`ROUTED_BASELINE_N`].
pub const BASELINE_VARIANT_MODELS: [CommModel; 3] = [
    CommModel::OnePortUnidir,
    CommModel::OnePortNoOverlap,
    CommModel::MacroDataflow,
];

/// The paper-platform problem size of the [`BASELINE_VARIANT_MODELS`]
/// entries.
pub const MODEL_BASELINE_N: usize = 30;

/// The job a baseline entry records: `dag` under `model` on the platform
/// its `topology` key names — the paper's complete 10-processor machine,
/// or an 8-processor routed topology of that kind with unit links and the
/// service's default heterogeneous cycle-times.
fn baseline_job(
    topology: &str,
    model: CommModel,
    dag: DagSpec,
    scheduler: Option<SchedulerSpec>,
) -> JobSpec {
    let platform = match topology {
        "paper" => PlatformSpec::paper(),
        kind => PlatformSpec::routed(kind, ROUTED_BASELINE_PROCS, 1.0),
    };
    JobSpec {
        dag,
        platform: Some(platform),
        scheduler,
        model: Some(model.name().to_string()),
        validate: false,
    }
}

/// The platform a baseline entry's `topology` key names, resolved by the
/// service's intake (a platform resolves as part of a job; the toy DAG is
/// the cheapest carrier). An unknown key is intake's `unknown platform
/// kind` error.
pub fn baseline_platform(topology: &str) -> Result<Platform, ResolveError> {
    Ok(
        baseline_job(topology, CommModel::OnePortBidir, DagSpec::toy(), None)
            .resolve()?
            .build_platform(),
    )
}

/// Schedule HEFT and ILHA on every testbed at each size (paper platform,
/// bi-directional one-port model), then HEFT and ILHA (`B = 8`) on
/// every testbed at [`ROUTED_BASELINE_N`] over each
/// [`BASELINE_TOPOLOGIES`] entry, then the same HEFT and ILHA under each
/// of [`BASELINE_VARIANT_MODELS`] on the paper platform at
/// [`MODEL_BASELINE_N`] and on `star` at [`ROUTED_BASELINE_N`], and
/// record the outcomes. Every entry is a [`JobSpec`] resolved by the
/// service's intake and built by its construction step
/// ([`cache::run_job`]); a size intake refuses fails the recording.
pub fn record_baseline(sizes: &[usize]) -> Result<BaselineFile, ResolveError> {
    let mut entries = Vec::new();
    let mut record = |topology: &str, model: CommModel, tb: Testbed, n: usize| {
        let b = if topology == "paper" {
            tb.paper_best_b()
        } else {
            ROUTED_BASELINE_PROCS
        };
        for spec in [SchedulerSpec::heft(), SchedulerSpec::ilha(b)] {
            let dag = DagSpec::testbed(tb, n);
            let job = baseline_job(topology, model, dag, Some(spec)).resolve()?;
            let r = cache::run_job(&job, None, &Scope::off());
            entries.push(BaselineEntry {
                testbed: tb.name().to_string(),
                n,
                topology: topology.to_string(),
                scheduler: job.scheduler_spec().canonical(),
                model: model.name().to_string(),
                tasks: r.tasks,
                makespan: r.makespan,
                fingerprint: format!("{:016x}", r.fingerprint),
                effective_comms: r.effective_comms,
            });
        }
        Ok::<(), ResolveError>(())
    };
    let bidir = CommModel::OnePortBidir;
    for tb in Testbed::ALL {
        for &n in sizes {
            record("paper", bidir, tb, n)?;
        }
    }
    for topology in BASELINE_TOPOLOGIES {
        for tb in Testbed::ALL {
            record(topology, bidir, tb, ROUTED_BASELINE_N)?;
        }
    }
    for (topology, n) in [("paper", MODEL_BASELINE_N), ("star", ROUTED_BASELINE_N)] {
        for model in BASELINE_VARIANT_MODELS {
            for tb in Testbed::ALL {
                record(topology, model, tb, n)?;
            }
        }
    }
    Ok(BaselineFile {
        schema: BASELINE_SCHEMA.to_string(),
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_dag::TaskId;
    use onesched_sim::{Schedule, TaskPlacement};

    #[test]
    fn fingerprint_sensitive_to_every_field() {
        let mut s1 = Schedule::with_tasks(2);
        let mut s2 = Schedule::with_tasks(2);
        for (s, start) in [(&mut s1, 0.0f64), (&mut s2, 1.0)] {
            s.place_task(TaskPlacement {
                task: TaskId(0),
                proc: onesched_platform::ProcId(0),
                start,
                finish: start + 1.0,
            });
            s.place_task(TaskPlacement {
                task: TaskId(1),
                proc: onesched_platform::ProcId(1),
                start: 5.0,
                finish: 6.0,
            });
        }
        assert_ne!(placement_fingerprint(&s1), placement_fingerprint(&s2));
        // identical schedules agree
        assert_eq!(
            placement_fingerprint(&s1),
            placement_fingerprint(&s1.clone())
        );
    }

    #[test]
    fn baseline_platforms_and_schedulers_resolve() {
        for t in BASELINE_TOPOLOGIES {
            let p = baseline_platform(t).unwrap();
            assert_eq!(p.num_procs(), ROUTED_BASELINE_PROCS);
            assert!(!p.is_fully_connected(), "{t} must need routing");
            assert!(p.first_unreachable().is_none(), "{t} must be connected");
            // the paper's three speeds, cycled, as the fixture was recorded
            assert_eq!(
                p.cycle_times(),
                [6.0, 10.0, 15.0, 6.0, 10.0, 15.0, 6.0, 10.0]
            );
        }
        assert_eq!(baseline_platform("paper").unwrap().num_procs(), 10);
        let err = baseline_platform("mesh").unwrap_err();
        assert!(err.message.contains("unknown platform kind"), "{err}");
        let build = |label: &str| {
            let spec = SchedulerSpec::parse(label).unwrap();
            assert_eq!(spec.canonical(), label);
            onesched_baselines::registry::build(&spec).unwrap().name()
        };
        assert_eq!(build("ilha(b=8)"), "ILHA(B=8)");
        assert_eq!(build("heft"), "HEFT");
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let file = BaselineFile {
            schema: BASELINE_SCHEMA.to_string(),
            entries: vec![BaselineEntry {
                testbed: "LU".into(),
                n: 30,
                topology: "paper".into(),
                scheduler: "heft".into(),
                model: "one-port-unidir".into(),
                tasks: 465,
                makespan: 3690.0,
                fingerprint: "00ff00ff00ff00ff".into(),
                effective_comms: 12,
            }],
        };
        let json = serde_json::to_string(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries[0].testbed, "LU");
        assert_eq!(back.entries[0].makespan, 3690.0);
        assert_eq!(back.entries[0].fingerprint, "00ff00ff00ff00ff");
        assert_eq!(back.entries[0].comm_model(), Ok(CommModel::OnePortUnidir));
    }
}
