//! The scheduler registry: one canonical, serde-round-trippable spec for
//! every scheduler the workspace ships, plus discovery and construction.
//!
//! * [`SchedulerSpec`] — `kind` plus optional parameters (`b`, `seed`,
//!   `members`). Its JSON form is the wire format of the scheduling
//!   service's `scheduler` field, and [`SchedulerSpec::canonical`] renders
//!   a stable one-line string (`ilha(b=4)`, `portfolio[heft,min-min]`)
//!   used for CSV columns, bench labels, and cache keys.
//!   [`SchedulerSpec::parse`] inverts it.
//! * [`Catalog`] — the kind table: metadata ([`KindInfo`]) plus a builder
//!   per kind. [`Catalog::core`] registers the two kinds this crate owns
//!   (`heft`, `ilha`); downstream crates extend it with
//!   [`Catalog::register`] — `onesched-baselines`
//!   adds its nine comparison schedulers and exposes the composed
//!   workspace catalog as `onesched_baselines::registry::catalog()`.
//! * [`Portfolio`] — the `portfolio` meta-kind, handled by the catalog
//!   itself: construct every member's schedule (fanned out by
//!   [`par_map`]) and keep the best makespan, tie-breaking deterministically
//!   on the canonical member string.
//!
//! Construction always goes through a [`Catalog`]. Outside this crate's
//! own tests that is the composed workspace catalog
//! (`onesched_baselines::registry::build`), which knows every kind.

use crate::par::{default_threads, par_map};
use crate::probe::{NoProbe, Probe};
use crate::{Heft, Ilha, Scheduler};
use onesched_dag::TaskGraph;
use onesched_platform::Platform;
use onesched_sim::{CommModel, Schedule, EPS};
use serde::{Deserialize, Serialize, Value};

/// Which scheduler to run: a kind name plus optional parameters.
///
/// The JSON encoding is stable and backward-compatible: `kind` and `b`
/// are always emitted (`b` as `null` when unset — the historical wire
/// format of the service protocol, which cache keys depend on), while
/// `seed` and `members` appear only when set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerSpec {
    /// Registry kind name (`"heft"`, `"ilha"`, `"min-min"`,
    /// `"portfolio"`, ... — see [`Catalog::list`]). Empty means the
    /// default (`"heft"`).
    pub kind: String,
    /// ILHA chunk size `B` (`ilha` only). The service's intake defaults it
    /// to the testbed's paper-best value, or to the platform's
    /// perfect-balance chunk for non-testbed DAGs and for the wire-only
    /// `routed-ilha` alias, which it rewrites to `ilha`.
    pub b: Option<usize>,
    /// RNG seed (`random` only; default 0).
    pub seed: Option<u64>,
    /// Portfolio member specs (`portfolio` only; default: every concrete
    /// kind in the catalog).
    pub members: Option<Vec<SchedulerSpec>>,
}

impl Serialize for SchedulerSpec {
    fn to_value(&self) -> Value {
        // `kind` and `b` unconditionally, in this order: the service's
        // canonical cache keys serialized exactly this shape before the
        // registry existed, and cached/ledgered results must keep
        // resolving bit-identically.
        let mut fields = vec![
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("b".to_string(), self.b.to_value()),
        ];
        if let Some(seed) = self.seed {
            fields.push(("seed".to_string(), seed.to_value()));
        }
        if let Some(members) = &self.members {
            fields.push(("members".to_string(), members.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for SchedulerSpec {
    fn from_value(v: &Value) -> Result<SchedulerSpec, serde::Error> {
        let kind = String::from_value(v.get_field("kind")?)?;
        let opt = |name: &str| v.get_field(name).ok().cloned().unwrap_or(Value::Null);
        Ok(SchedulerSpec {
            kind,
            b: Option::from_value(&opt("b"))?,
            seed: Option::from_value(&opt("seed"))?,
            members: Option::from_value(&opt("members"))?,
        })
    }
}

impl SchedulerSpec {
    /// A bare spec of the given kind, parameters unset.
    pub fn named(kind: &str) -> SchedulerSpec {
        SchedulerSpec {
            kind: kind.to_string(),
            ..SchedulerSpec::default()
        }
    }

    /// One-port HEFT.
    pub fn heft() -> SchedulerSpec {
        SchedulerSpec::named("heft")
    }

    /// ILHA with an explicit chunk size.
    pub fn ilha(b: usize) -> SchedulerSpec {
        SchedulerSpec {
            b: Some(b),
            ..SchedulerSpec::named("ilha")
        }
    }

    /// The wire-only alias `routed-heft`: the service's intake rewrites
    /// it to [`SchedulerSpec::heft`] (every kind routes around missing
    /// links). The catalog itself does not know the name.
    pub fn routed_heft() -> SchedulerSpec {
        SchedulerSpec::named("routed-heft")
    }

    /// The wire-only alias `routed-ilha`: the service's intake rewrites it
    /// to `ilha`, with the chunk size defaulting to the platform's
    /// perfect-balance chunk.
    pub fn routed_ilha() -> SchedulerSpec {
        SchedulerSpec::named("routed-ilha")
    }

    /// A portfolio over explicit member specs.
    pub fn portfolio(members: Vec<SchedulerSpec>) -> SchedulerSpec {
        SchedulerSpec {
            members: Some(members),
            ..SchedulerSpec::named("portfolio")
        }
    }

    /// The stable canonical string: the kind, then any set parameters in
    /// `(b=..,seed=..)` form, then portfolio members in `[..]` — e.g.
    /// `heft`, `ilha(b=4)`, `random(seed=7)`,
    /// `portfolio[heft,ilha(b=4)]`. Used for CSV columns, bench labels,
    /// per-member cache keys, and stats attribution;
    /// [`SchedulerSpec::parse`] inverts it exactly.
    pub fn canonical(&self) -> String {
        let mut out = self.kind.clone();
        let mut params = Vec::new();
        if let Some(b) = self.b {
            params.push(format!("b={b}"));
        }
        if let Some(seed) = self.seed {
            params.push(format!("seed={seed}"));
        }
        if !params.is_empty() {
            out.push('(');
            out.push_str(&params.join(","));
            out.push(')');
        }
        if let Some(members) = &self.members {
            out.push('[');
            let inner: Vec<String> = members.iter().map(SchedulerSpec::canonical).collect();
            out.push_str(&inner.join(","));
            out.push(']');
        }
        out
    }

    /// Parse a [`SchedulerSpec::canonical`] string back into a spec.
    /// Syntax errors (not unknown kinds — parsing is catalog-independent)
    /// are reported with the offending input.
    pub fn parse(s: &str) -> Result<SchedulerSpec, ParseError> {
        let (spec, rest) = parse_one(s.trim())?;
        if !rest.is_empty() {
            return Err(ParseError::new(s, "trailing input after the spec"));
        }
        Ok(spec)
    }
}

/// A canonical scheduler string that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The offending input.
    pub input: String,
    /// What went wrong.
    pub reason: String,
}

impl ParseError {
    fn new(input: &str, reason: &str) -> ParseError {
        ParseError {
            input: input.to_string(),
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid scheduler spec {:?}: {} \
             (expected e.g. \"heft\", \"ilha(b=4)\", \"portfolio[heft,min-min]\")",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one spec from the front of `s`; return it and the unconsumed rest.
fn parse_one(s: &str) -> Result<(SchedulerSpec, &str), ParseError> {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    let (kind, mut rest) = s.split_at(end);
    if kind.is_empty() {
        return Err(ParseError::new(s, "expected a kind name"));
    }
    let mut spec = SchedulerSpec::named(kind);
    if let Some(inner) = rest.strip_prefix('(') {
        let close = inner
            .find(')')
            .ok_or_else(|| ParseError::new(s, "unclosed parameter list"))?;
        let (params, after) = inner.split_at(close);
        for param in params.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = param
                .split_once('=')
                .ok_or_else(|| ParseError::new(s, "parameter is not key=value"))?;
            match key.trim() {
                "b" => {
                    let b = value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ParseError::new(s, "b is not an integer"))?;
                    spec.b = Some(b);
                }
                "seed" => {
                    let seed = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| ParseError::new(s, "seed is not an integer"))?;
                    spec.seed = Some(seed);
                }
                _ => return Err(ParseError::new(s, "unknown parameter (expected b or seed)")),
            }
        }
        rest = after.get(1..).unwrap_or("");
    }
    if let Some(mut inner) = rest.strip_prefix('[') {
        let mut members = Vec::new();
        loop {
            if let Some(after) = inner.strip_prefix(']') {
                rest = after;
                break;
            }
            inner = inner.strip_prefix(',').unwrap_or(inner);
            if inner.is_empty() {
                return Err(ParseError::new(s, "unclosed member list"));
            }
            let (member, after) = parse_one(inner)?;
            members.push(member);
            inner = after;
        }
        spec.members = Some(members);
    }
    Ok((spec, rest))
}

/// A spec the catalog cannot build: an unknown kind, or parameters that
/// do not fit the kind. Carries the valid kind names for discoverable
/// error messages end to end (the service forwards them to clients).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler {
    /// The offending spec's kind.
    pub kind: String,
    /// What was wrong (empty for a plain unknown kind).
    pub reason: String,
    /// Every kind the catalog can build.
    pub valid: Vec<&'static str>,
}

impl UnknownScheduler {
    /// An unknown kind name.
    pub fn unknown_kind(kind: &str, valid: Vec<&'static str>) -> UnknownScheduler {
        UnknownScheduler {
            kind: kind.to_string(),
            reason: String::new(),
            valid,
        }
    }

    /// A known kind with unusable parameters.
    pub fn bad_params(kind: &str, reason: &str) -> UnknownScheduler {
        UnknownScheduler {
            kind: kind.to_string(),
            reason: reason.to_string(),
            valid: Vec::new(),
        }
    }
}

impl std::fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.reason.is_empty() {
            write!(
                f,
                "unknown scheduler kind {:?} (expected one of: {})",
                self.kind,
                self.valid.join(", ")
            )
        } else {
            write!(f, "scheduler kind {:?}: {}", self.kind, self.reason)
        }
    }
}

impl std::error::Error for UnknownScheduler {}

/// Descriptive metadata for one registry kind (drives [`Catalog::list`]
/// and the service README's generated kinds table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindInfo {
    /// The kind name ([`SchedulerSpec::kind`]).
    pub kind: &'static str,
    /// Parameter summary for docs (`"b (chunk size)"`, `"-"`, ...).
    pub params: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// A kind's builder: construct the scheduler from a spec whose `kind`
/// already matched. Parameter problems come back as
/// [`UnknownScheduler::bad_params`].
pub type KindBuilder = fn(&SchedulerSpec) -> Result<Box<dyn Scheduler>, UnknownScheduler>;

/// The kind table: every scheduler spec the workspace can address, with
/// metadata and builders. Deterministic by construction — entries live in
/// registration order in a `Vec`, never a hash table.
#[derive(Default)]
pub struct Catalog {
    entries: Vec<(KindInfo, KindBuilder)>,
}

/// The `portfolio` meta-kind's catalog row (the catalog itself builds
/// portfolios, recursively over its member kinds).
pub const PORTFOLIO_INFO: KindInfo = KindInfo {
    kind: "portfolio",
    params: "members (default: all concrete kinds)",
    summary: "construct every member, keep the best makespan",
};

impl Catalog {
    /// An empty catalog (compose your own kind set).
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The two kinds this crate owns: `heft` and `ilha`.
    pub fn core() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            KindInfo {
                kind: "heft",
                params: "-",
                summary: "one-port HEFT (default)",
            },
            |_| Ok(Box::new(Heft::new())),
        );
        c.register(
            KindInfo {
                kind: "ilha",
                params: "b (chunk size)",
                summary: "one-port ILHA, chunks of B ready tasks",
            },
            |spec| {
                let b = spec
                    .b
                    .ok_or_else(|| UnknownScheduler::bad_params("ilha", "chunk size b required"))?;
                if b == 0 {
                    return Err(UnknownScheduler::bad_params(
                        "ilha",
                        "chunk size b must be at least 1",
                    ));
                }
                Ok(Box::new(Ilha::new(b)))
            },
        );
        c
    }

    /// Add a kind. First registration of a name wins; later duplicates are
    /// ignored (so composing catalogs is idempotent).
    pub fn register(&mut self, info: KindInfo, build: KindBuilder) {
        if self.find(info.kind).is_none() {
            self.entries.push((info, build));
        }
    }

    fn find(&self, kind: &str) -> Option<&(KindInfo, KindBuilder)> {
        self.entries.iter().find(|(info, _)| info.kind == kind)
    }

    /// Every kind, in registration order, `portfolio` last.
    pub fn list(&self) -> Vec<KindInfo> {
        let mut infos: Vec<KindInfo> = self.entries.iter().map(|(info, _)| *info).collect();
        infos.push(PORTFOLIO_INFO);
        infos
    }

    /// Every kind name, in [`Catalog::list`] order.
    pub fn kinds(&self) -> Vec<&'static str> {
        self.list().iter().map(|info| info.kind).collect()
    }

    /// The default portfolio membership: every concrete kind, parameters
    /// unset (callers normalize `b`/`seed` against the job).
    pub fn default_members(&self) -> Vec<SchedulerSpec> {
        self.entries
            .iter()
            .map(|(info, _)| SchedulerSpec::named(info.kind))
            .collect()
    }

    /// Construct the scheduler a spec names. `portfolio` builds every
    /// member through this same catalog (one level deep — portfolios of
    /// portfolios are rejected). Unknown kinds report the full valid-kind
    /// list.
    pub fn build(&self, spec: &SchedulerSpec) -> Result<Box<dyn Scheduler>, UnknownScheduler> {
        if spec.kind == "portfolio" {
            let members = match &spec.members {
                Some(m) => m.clone(),
                None => self.default_members(),
            };
            let mut built = Vec::with_capacity(members.len());
            for member in &members {
                if member.kind == "portfolio" {
                    return Err(UnknownScheduler::bad_params(
                        "portfolio",
                        "portfolio members must be concrete kinds, not portfolios",
                    ));
                }
                // members inherit the portfolio's own parameters where
                // they leave them unset (`portfolio(b=4)` = chunk size 4
                // for every chunked member)
                let member = SchedulerSpec {
                    b: member.b.or(spec.b),
                    seed: member.seed.or(spec.seed),
                    ..member.clone()
                };
                built.push((member.canonical(), self.build(&member)?));
            }
            let portfolio = Portfolio::new(built)
                .ok_or_else(|| UnknownScheduler::bad_params("portfolio", "needs members"))?;
            return Ok(Box::new(portfolio));
        }
        match self.find(&spec.kind) {
            Some((_, build)) => build(spec),
            None => Err(UnknownScheduler::unknown_kind(&spec.kind, self.kinds())),
        }
    }
}

/// Pick the winner among `(canonical label, makespan)` candidates: the
/// smallest makespan, ties within [`EPS`] broken by the lexicographically
/// smaller label. The single tie-break rule shared by
/// [`Portfolio::select`] and the service's portfolio fan-out, so the two
/// paths can never disagree on the winner. Returns the winning index.
pub fn select_best(candidates: &[(&str, f64)]) -> Option<usize> {
    let mut best: Option<(usize, &str, f64)> = None;
    for (i, &(label, ms)) in candidates.iter().enumerate() {
        let better = match best {
            None => true,
            Some((_, blabel, bms)) => ms < bms - EPS || (ms <= bms + EPS && label < blabel),
        };
        if better {
            best = Some((i, label, ms));
        }
    }
    best.map(|(i, _, _)| i)
}

/// The `portfolio` meta-scheduler: construct every member's schedule and
/// return the one with the smallest makespan. Members fan out over
/// [`par_map`]; ties (within [`EPS`]) break deterministically on the smaller
/// canonical member string, so the winner never depends on thread timing.
pub struct Portfolio {
    members: Vec<(String, Box<dyn Scheduler>)>,
}

impl Portfolio {
    /// A portfolio over `(canonical label, scheduler)` members; `None`
    /// when `members` is empty.
    pub fn new(members: Vec<(String, Box<dyn Scheduler>)>) -> Option<Portfolio> {
        if members.is_empty() {
            None
        } else {
            Some(Portfolio { members })
        }
    }

    /// Construct every member's schedule over [`par_map`] (bounded by
    /// [`default_threads`]) and return them in member order. The caller has
    /// checked that `platform` is connected — [`Scheduler`]'s wrappers do,
    /// once for the whole portfolio — so no member can refuse it.
    pub fn schedule_members(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
    ) -> Vec<Schedule> {
        par_map(&self.members, default_threads(), |(_, member)| {
            member.schedule_with_probe(g, platform, model, &NoProbe)
        })
    }

    /// Pick the winner among member schedules (in member order): smallest
    /// makespan, ties within [`EPS`] broken by the smaller canonical member
    /// string. Returns `(member index, schedule)`.
    pub fn select<'a>(&self, schedules: &'a [Schedule]) -> Option<(usize, &'a Schedule)> {
        let candidates: Vec<(&str, f64)> = self
            .members
            .iter()
            .zip(schedules)
            .map(|((label, _), sched)| (label.as_str(), sched.makespan()))
            .collect();
        let winner = select_best(&candidates)?;
        schedules.get(winner).map(|sched| (winner, sched))
    }
}

impl Scheduler for Portfolio {
    fn name(&self) -> String {
        format!("portfolio({})", self.members.len())
    }

    /// Members run with their own (silent) probes — a shared probe would
    /// interleave phases from concurrent constructions meaninglessly. The
    /// service's portfolio path emits real per-member spans instead.
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        _probe: &dyn Probe,
    ) -> Schedule {
        let mut schedules = self.schedule_members(g, platform, model);
        // a portfolio has at least one member, so there is always a winner
        let winner = self.select(&schedules).map_or(0, |(winner, _)| winner);
        schedules.swap_remove(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutedError;

    #[test]
    fn canonical_round_trips() {
        for spec in [
            SchedulerSpec::heft(),
            SchedulerSpec::ilha(4),
            SchedulerSpec::routed_heft(),
            SchedulerSpec::routed_ilha(),
            SchedulerSpec {
                seed: Some(42),
                ..SchedulerSpec::named("random")
            },
            SchedulerSpec::portfolio(vec![
                SchedulerSpec::heft(),
                SchedulerSpec::ilha(8),
                SchedulerSpec {
                    seed: Some(7),
                    ..SchedulerSpec::named("random")
                },
            ]),
            SchedulerSpec::portfolio(vec![]),
        ] {
            let canon = spec.canonical();
            let parsed = SchedulerSpec::parse(&canon).expect(&canon);
            assert_eq!(parsed, spec, "{canon}");
            assert_eq!(parsed.canonical(), canon);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "ilha(b=4",
            "ilha(b=x)",
            "ilha(q=4)",
            "heft extra",
            "portfolio[heft",
            "ilha(b=4)trailing",
        ] {
            assert!(SchedulerSpec::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn legacy_wire_format_is_stable() {
        // the service's cache keys depend on exactly this rendering
        let v = SchedulerSpec::heft().to_value();
        assert_eq!(
            v,
            Value::Map(vec![
                ("kind".into(), Value::Str("heft".into())),
                ("b".into(), Value::Null),
            ])
        );
        let v = SchedulerSpec::ilha(4).to_value();
        assert_eq!(
            v,
            Value::Map(vec![
                ("kind".into(), Value::Str("ilha".into())),
                ("b".into(), Value::Num(4.0)),
            ])
        );
        // and new parameters round-trip through the Value tree
        let spec = SchedulerSpec::portfolio(vec![SchedulerSpec::ilha(2)]);
        assert_eq!(SchedulerSpec::from_value(&spec.to_value()), Ok(spec));
    }

    #[test]
    fn core_catalog_builds_and_lists() {
        let c = Catalog::core();
        assert_eq!(c.kinds(), vec!["heft", "ilha", "portfolio"]);
        // the routed aliases are wire-only: the service folds them into
        // heft/ilha at intake, so the catalog refuses them by name
        for alias in [SchedulerSpec::routed_heft(), SchedulerSpec::routed_ilha()] {
            let err = c.build(&alias).err().unwrap();
            assert!(err.to_string().contains("expected one of"), "{err}");
        }
        assert_eq!(c.build(&SchedulerSpec::heft()).unwrap().name(), "HEFT");
        assert_eq!(
            c.build(&SchedulerSpec::ilha(4)).unwrap().name(),
            "ILHA(B=4)"
        );
        let err = c.build(&SchedulerSpec::named("nope")).err().unwrap();
        assert!(err.to_string().contains("expected one of"), "{err}");
        assert!(err.valid.contains(&"ilha"), "{err}");
        let err = c.build(&SchedulerSpec::ilha(0)).err().unwrap();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn portfolio_picks_the_best_member() {
        let g = onesched_testbeds::toy();
        let p = Platform::homogeneous(2);
        let m = CommModel::OnePortBidir;
        let c = Catalog::core();
        let members = vec![SchedulerSpec::heft(), SchedulerSpec::ilha(8)];
        let portfolio = c.build(&SchedulerSpec::portfolio(members.clone())).unwrap();
        let best = members
            .iter()
            .map(|s| c.build(s).unwrap().schedule(&g, &p, m).makespan())
            .fold(f64::INFINITY, f64::min);
        let sched = portfolio.schedule(&g, &p, m);
        assert_eq!(sched.makespan(), best);
        assert!(onesched_sim::validate(&g, &p, m, &sched).is_empty());
    }

    #[test]
    fn portfolio_tie_breaks_on_canonical_string() {
        // two copies of the same scheduler under different labels: equal
        // makespans, so the lexicographically smaller label must win
        let members = vec![
            (
                "z-heft".to_string(),
                Box::new(Heft::new()) as Box<dyn Scheduler>,
            ),
            (
                "a-heft".to_string(),
                Box::new(Heft::new()) as Box<dyn Scheduler>,
            ),
        ];
        let p = Portfolio::new(members).unwrap();
        let g = onesched_testbeds::toy();
        let schedules = p.schedule_members(&g, &Platform::homogeneous(2), CommModel::OnePortBidir);
        let (winner, _) = p.select(&schedules).unwrap();
        assert_eq!(winner, 1, "a-heft sorts before z-heft");
    }

    #[test]
    fn portfolio_reports_its_first_members_refusal() {
        // two processors with no link at all: the portfolio refuses once,
        // before any member runs, naming the real unroutable pair
        let inf = f64::INFINITY;
        let p = Platform::new(vec![1.0, 1.0], vec![0.0, inf, inf, 0.0]).unwrap();
        let g = onesched_testbeds::toy();
        let spec = SchedulerSpec::parse("portfolio[heft,ilha(b=2)]").unwrap();
        let portfolio = Catalog::core().build(&spec).unwrap();
        let err = portfolio
            .try_schedule(&g, &p, CommModel::OnePortBidir)
            .unwrap_err();
        assert_eq!(
            err,
            RoutedError::Disconnected {
                from: onesched_platform::ProcId(0),
                to: onesched_platform::ProcId(1),
            }
        );
    }

    #[test]
    fn heft_keeps_direct_links_that_a_detour_would_undercut() {
        // fully connected, but the direct 0 <-> 2 link (10 per item) costs
        // more than the detour through P1 (1 + 1): every message still
        // takes its direct link, as the paper's one-port model places it
        let link = vec![
            0.0, 1.0, 10.0, //
            1.0, 0.0, 1.0, //
            10.0, 1.0, 0.0,
        ];
        let p = Platform::new(vec![1.0; 3], link).unwrap();
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let root = b.add_task(1.0);
        for _ in 0..6 {
            let child = b.add_task(1.0);
            b.add_edge(root, child, 0.1).unwrap();
        }
        let g = b.build().unwrap();
        let m = CommModel::OnePortBidir;
        let heft = Catalog::core()
            .build(&SchedulerSpec::heft())
            .unwrap()
            .schedule(&g, &p, m);
        assert!(heft.comms().iter().any(|c| c.to.index() == 2), "uses P2");
        for comm in heft.comms() {
            let edge = g.edge(comm.edge);
            assert_eq!(Some(comm.from), heft.alloc(edge.src), "relayed hop");
            assert_eq!(Some(comm.to), heft.alloc(edge.dst), "relayed hop");
        }
        assert!(onesched_sim::validate(&g, &p, m, &heft).is_empty());
    }
}
