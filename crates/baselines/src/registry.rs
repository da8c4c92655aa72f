//! The composed workspace scheduler catalog: the core heuristics kinds
//! plus every baseline this crate ships. This is the catalog the
//! scheduling service resolves [`SchedulerSpec`]s against.

use crate::{Bil, Cpop, Gdl, MaxMin, MinMin, Pct, RandomAlloc, RoundRobin, Serial};
use onesched_heuristics::registry::{Catalog, KindInfo, SchedulerSpec};
use std::sync::OnceLock;

/// The full workspace catalog: `heft` and `ilha` (from
/// `onesched-heuristics`), the nine baseline kinds registered here, and
/// `portfolio` over all of them. Every kind runs on every connected
/// platform. Built once, deterministic registration order.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut c = Catalog::core();
        c.register(
            KindInfo {
                kind: "cpop",
                params: "-",
                summary: "Critical-Path-on-a-Processor (Topcuoglu/Hariri/Wu)",
            },
            |_| Ok(Box::new(Cpop::new())),
        );
        c.register(
            KindInfo {
                kind: "gdl",
                params: "-",
                summary: "Generalized Dynamic Level (Sih & Lee)",
            },
            |_| Ok(Box::new(Gdl::new())),
        );
        c.register(
            KindInfo {
                kind: "bil",
                params: "-",
                summary: "Best Imaginary Level (Oh & Ha)",
            },
            |_| Ok(Box::new(Bil::new())),
        );
        c.register(
            KindInfo {
                kind: "pct",
                params: "-",
                summary: "Partial Completion Time (Maheswaran & Siegel)",
            },
            |_| Ok(Box::new(Pct::new())),
        );
        c.register(
            KindInfo {
                kind: "min-min",
                params: "-",
                summary: "min-min batch allocation",
            },
            |_| Ok(Box::new(MinMin::new())),
        );
        c.register(
            KindInfo {
                kind: "max-min",
                params: "-",
                summary: "max-min batch allocation",
            },
            |_| Ok(Box::new(MaxMin::new())),
        );
        c.register(
            KindInfo {
                kind: "round-robin",
                params: "-",
                summary: "cyclic allocation in topological order",
            },
            |_| Ok(Box::new(RoundRobin)),
        );
        c.register(
            KindInfo {
                kind: "random",
                params: "seed (default 0)",
                summary: "seeded random allocation",
            },
            |spec| Ok(Box::new(RandomAlloc::new(spec.seed.unwrap_or(0)))),
        );
        c.register(
            KindInfo {
                kind: "serial",
                params: "-",
                summary: "everything on the fastest processor",
            },
            |_| Ok(Box::new(Serial)),
        );
        c
    })
}

/// Every concrete kind of the workspace catalog as a buildable spec, in
/// catalog order: `ilha` with chunk size `b`, `random` with `seed`, every
/// other kind bare (so each canonical string names only what the kind
/// takes).
pub fn concrete_specs(b: usize, seed: u64) -> Vec<SchedulerSpec> {
    let mut specs = catalog().default_members();
    for spec in &mut specs {
        match spec.kind.as_str() {
            "ilha" => spec.b = Some(b),
            "random" => spec.seed = Some(seed),
            _ => {}
        }
    }
    specs
}

/// [`Catalog::build`] against the full workspace catalog.
pub fn build(
    spec: &SchedulerSpec,
) -> Result<Box<dyn onesched_heuristics::Scheduler>, onesched_heuristics::registry::UnknownScheduler>
{
    catalog().build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_heuristics::CommModel;
    use onesched_platform::Platform;

    #[test]
    fn full_catalog_covers_every_workspace_scheduler() {
        assert_eq!(
            catalog().kinds(),
            vec![
                "heft",
                "ilha",
                "cpop",
                "gdl",
                "bil",
                "pct",
                "min-min",
                "max-min",
                "round-robin",
                "random",
                "serial",
                "portfolio",
            ]
        );
    }

    #[test]
    fn every_kind_builds_and_schedules() {
        let g = onesched_testbeds::toy();
        let star = onesched_platform::topology::star(vec![1.0, 2.0, 3.0], 1.0).unwrap();
        for p in [Platform::homogeneous(3), star] {
            for info in catalog().list() {
                let spec = SchedulerSpec {
                    b: Some(2),
                    ..SchedulerSpec::named(info.kind)
                };
                let s = build(&spec).unwrap_or_else(|e| panic!("{}: {e}", info.kind));
                let sched = s
                    .try_schedule(&g, &p, CommModel::OnePortBidir)
                    .unwrap_or_else(|e| panic!("{}: {e}", info.kind));
                let v = onesched_sim::validate(&g, &p, CommModel::OnePortBidir, &sched);
                assert!(v.is_empty(), "{}: {v:?}", info.kind);
            }
        }
        // P0 - P1 linked, P2 isolated: every kind refuses with the typed
        // error instead of panicking mid-route
        let inf = f64::INFINITY;
        let link = vec![
            0.0, 1.0, inf, //
            1.0, 0.0, inf, //
            inf, inf, 0.0,
        ];
        let p = Platform::new(vec![1.0; 3], link).unwrap();
        let want = onesched_heuristics::RoutedError::Disconnected {
            from: onesched_platform::ProcId(0),
            to: onesched_platform::ProcId(2),
        };
        for info in catalog().list() {
            let spec = SchedulerSpec {
                b: Some(2),
                ..SchedulerSpec::named(info.kind)
            };
            let err = build(&spec)
                .unwrap()
                .try_schedule(&g, &p, CommModel::OnePortBidir)
                .err();
            assert_eq!(err, Some(want), "{}", info.kind);
        }
    }

    #[test]
    fn every_kind_schedule_panics_with_the_typed_refusal() {
        // P0 - P1 linked, P2 isolated: the infallible `schedule` of every
        // kind panics with the same typed refusal `try_schedule` returns,
        // never mid-placement and never with a schedule
        let inf = f64::INFINITY;
        let link = vec![
            0.0, 1.0, inf, //
            1.0, 0.0, inf, //
            inf, inf, 0.0,
        ];
        let p = Platform::new(vec![1.0; 3], link).unwrap();
        let g = onesched_testbeds::toy();
        let want = onesched_heuristics::RoutedError::Disconnected {
            from: onesched_platform::ProcId(0),
            to: onesched_platform::ProcId(2),
        }
        .to_string();
        for info in catalog().list() {
            let spec = SchedulerSpec {
                b: Some(2),
                ..SchedulerSpec::named(info.kind)
            };
            let s = build(&spec).unwrap();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.schedule(&g, &p, CommModel::OnePortBidir)
            }))
            .err()
            .unwrap_or_else(|| panic!("{}: scheduled a disconnected platform", info.kind));
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(&want), "{}: {msg}", info.kind);
        }
    }

    #[test]
    fn default_portfolio_members_are_all_non_routed_kinds() {
        // the name predates the routed aliases' fold into heft/ilha: every
        // concrete kind now runs on routed platforms, so the default
        // membership is the whole catalog but `portfolio` itself
        let members = catalog().default_members();
        let kinds: Vec<&str> = members.iter().map(|m| m.kind.as_str()).collect();
        let mut concrete = catalog().kinds();
        concrete.retain(|&k| k != "portfolio");
        assert_eq!(kinds, concrete);
        assert_eq!(
            kinds,
            vec![
                "heft",
                "ilha",
                "cpop",
                "gdl",
                "bil",
                "pct",
                "min-min",
                "max-min",
                "round-robin",
                "random",
                "serial",
            ]
        );
    }

    #[test]
    fn random_kind_is_seed_deterministic() {
        let g = onesched_testbeds::toy();
        let p = Platform::homogeneous(3);
        let spec = SchedulerSpec {
            seed: Some(42),
            ..SchedulerSpec::named("random")
        };
        let a = build(&spec)
            .unwrap()
            .schedule(&g, &p, CommModel::OnePortBidir);
        let b = build(&spec)
            .unwrap()
            .schedule(&g, &p, CommModel::OnePortBidir);
        assert_eq!(
            onesched_sim::placement_fingerprint(&a),
            onesched_sim::placement_fingerprint(&b)
        );
    }
}
