//! The service's newline-delimited JSON protocol: request and response
//! types, job specifications, and their resolution into runnable jobs.
//!
//! Every line sent to the daemon is one [`Request`] object; every line it
//! writes back is one response object tagged by its `op` field (`"result"`,
//! `"sim-result"`, `"stats"`, `"metrics"`, `"error"`, `"ok"`, `"ready"`).
//! A request line
//! always produces exactly one response line, so clients can pipeline
//! submissions and count replies. See `crates/service/README.md` for the
//! full schema reference and example sessions.
//!
//! Job specifications are *declarative*: a [`JobSpec`] names a DAG
//! generator, a platform, a scheduler, and a communication model, all by
//! small JSON-friendly descriptors. [`JobSpec::resolve`] validates the
//! combination, fills every default, and produces a [`ResolvedJob`] whose
//! canonical [`ResolvedJob::key`] doubles as the schedule-cache key: two
//! submissions that resolve identically are by construction the same
//! deterministic scheduling problem.

use onesched_dag::TaskGraph;
use onesched_heuristics::{Ilha, Scheduler};
use onesched_platform::{topology, Platform};
use onesched_sim::CommModel;
use onesched_testbeds::{random_layered, RandomDagConfig, Testbed, PAPER_C};
use serde::{Deserialize, Serialize};

/// Protocol schema tag, reported by the daemon's `ready` line.
pub const PROTOCOL_VERSION: &str = "onesched-svc/v1";

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// `"submit"`, `"simulate"`, `"stats"`, `"metrics"`, or `"shutdown"`.
    pub op: String,
    /// Client-chosen job id echoed in the result (submit/simulate only);
    /// the daemon assigns `job-N` when absent.
    #[serde(default)]
    pub id: Option<String>,
    /// Scheduling priority: higher runs first; equal priorities run in
    /// submission order. Defaults to 0.
    #[serde(default)]
    pub priority: Option<i64>,
    /// The job to schedule (submit/simulate only).
    #[serde(default)]
    pub job: Option<JobSpec>,
    /// Execution parameters (simulate only; every field defaulted).
    #[serde(default)]
    pub sim: Option<SimSpec>,
}

impl Request {
    /// A `submit` request.
    pub fn submit(id: Option<String>, priority: i64, job: JobSpec) -> Request {
        Request {
            op: "submit".into(),
            id,
            priority: Some(priority),
            job: Some(job),
            sim: None,
        }
    }

    /// A `simulate` request: construct the job's schedule, then execute it
    /// under `sim`'s dispatch policy and perturbation.
    pub fn simulate(id: Option<String>, priority: i64, job: JobSpec, sim: SimSpec) -> Request {
        Request {
            op: "simulate".into(),
            id,
            priority: Some(priority),
            job: Some(job),
            sim: Some(sim),
        }
    }

    /// A `stats` request.
    pub fn stats() -> Request {
        Request {
            op: "stats".into(),
            id: None,
            priority: None,
            job: None,
            sim: None,
        }
    }

    /// A `metrics` request (Prometheus text exposition wrapped in one
    /// response line).
    pub fn metrics() -> Request {
        Request {
            op: "metrics".into(),
            id: None,
            priority: None,
            job: None,
            sim: None,
        }
    }

    /// A `shutdown` request.
    pub fn shutdown() -> Request {
        Request {
            op: "shutdown".into(),
            id: None,
            priority: None,
            job: None,
            sim: None,
        }
    }
}

/// Execution parameters of a `simulate` request: how the constructed
/// schedule is replayed by the `onesched-exec` engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SimSpec {
    /// Dispatch policy: `"static-order"` (default) or `"list-dynamic"`.
    #[serde(default)]
    pub policy: Option<String>,
    /// Perturbation seed (default 0; same seed, same executed trace).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Lognormal σ of the task-duration noise (default 0).
    #[serde(default)]
    pub task_sigma: Option<f64>,
    /// Maximum relative bandwidth degradation β (default 0).
    #[serde(default)]
    pub bw_degradation: Option<f64>,
    /// Probability of a transient outage per directed link (default 0).
    #[serde(default)]
    pub outage_prob: Option<f64>,
    /// Outage window length as a fraction of the static makespan
    /// (default 0).
    #[serde(default)]
    pub outage_frac: Option<f64>,
}

impl SimSpec {
    /// A noise-only spec: σ task noise and β = σ bandwidth degradation
    /// under the given policy and seed (the `perturb` sweep axis).
    pub fn noise(policy: &str, sigma: f64, seed: u64) -> SimSpec {
        SimSpec {
            policy: Some(policy.into()),
            seed: Some(seed),
            task_sigma: Some(sigma),
            bw_degradation: Some(sigma),
            outage_prob: None,
            outage_frac: None,
        }
    }

    /// Validate the spec, fill every default, and derive the canonical
    /// sim-cache key suffix.
    ///
    /// Resolution *stores* the typed [`onesched_exec::ExecConfig`] it
    /// validated, so the accessors below are infallible: nothing after
    /// intake re-reads the optional spec fields.
    pub fn resolve(&self) -> Result<ResolvedSim, String> {
        let mut spec = self.clone();
        let policy =
            onesched_exec::DispatchPolicy::parse(spec.policy.as_deref().unwrap_or("static-order"))?;
        spec.policy = Some(policy.name().to_string());
        let seed = spec.seed.unwrap_or(0);
        spec.seed = Some(seed);
        let mut checked = [0.0f64; 3];
        for ((what, v), out) in [
            ("task_sigma", &mut spec.task_sigma),
            ("bw_degradation", &mut spec.bw_degradation),
            ("outage_frac", &mut spec.outage_frac),
        ]
        .into_iter()
        .zip(checked.iter_mut())
        {
            let x = v.unwrap_or(0.0);
            if !x.is_finite() || x < 0.0 {
                return Err(format!("{what} must be finite and non-negative, got {x}"));
            }
            *v = Some(x);
            *out = x;
        }
        let [task_sigma, bw_degradation, outage_frac] = checked;
        let prob = spec.outage_prob.unwrap_or(0.0);
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!("outage_prob {prob} outside [0, 1]"));
        }
        spec.outage_prob = Some(prob);
        let config = onesched_exec::ExecConfig {
            policy,
            perturb: onesched_exec::Perturbation {
                task_sigma,
                bw_degradation,
                outage_prob: prob,
                outage_frac,
            },
            seed,
        };
        let key = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        Ok(ResolvedSim { spec, key, config })
    }
}

/// A validated, fully-defaulted simulation spec.
#[derive(Debug, Clone)]
pub struct ResolvedSim {
    /// The normalized spec (every optional field filled).
    pub spec: SimSpec,
    /// Canonical key suffix: combined with [`ResolvedJob::key`] it
    /// identifies one deterministic construct-then-execute problem.
    pub key: String,
    config: onesched_exec::ExecConfig,
}

impl ResolvedSim {
    /// The dispatch policy.
    pub fn policy(&self) -> onesched_exec::DispatchPolicy {
        self.config.policy
    }

    /// The perturbation seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The engine configuration this spec describes.
    pub fn exec_config(&self) -> onesched_exec::ExecConfig {
        self.config
    }
}

/// A declarative scheduling job: DAG × platform × scheduler × model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The task graph to schedule.
    pub dag: DagSpec,
    /// The platform (default: the paper's 10-processor machine).
    #[serde(default)]
    pub platform: Option<PlatformSpec>,
    /// The scheduler (default: HEFT; ILHA's `b` defaults per testbed).
    #[serde(default)]
    pub scheduler: Option<SchedulerSpec>,
    /// Communication model by kebab-case name (default `one-port-bidir`).
    #[serde(default)]
    pub model: Option<String>,
    /// Run the independent validator on the produced schedule and report
    /// the violation count (costs one extra pass; default off).
    #[serde(default)]
    pub validate: bool,
}

/// Which task graph to generate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagSpec {
    /// `"testbed"`, `"random"`, or `"toy"`.
    pub kind: String,
    /// Testbed name (`LU`, `LAPLACE`, `STENCIL`, `FORK-JOIN`, `DOOLITTLE`,
    /// `LDMt`; case-insensitive) — `testbed` kind only.
    #[serde(default)]
    pub testbed: Option<String>,
    /// Problem size `n` — `testbed` kind only.
    #[serde(default)]
    pub n: Option<usize>,
    /// Communication-to-computation ratio (default: the paper's 10).
    #[serde(default)]
    pub c: Option<f64>,
    /// Number of layers — `random` kind only.
    #[serde(default)]
    pub layers: Option<usize>,
    /// Maximum layer width — `random` kind only.
    #[serde(default)]
    pub max_width: Option<usize>,
    /// Edge probability towards the previous layer — `random` kind only.
    #[serde(default)]
    pub edge_prob: Option<f64>,
    /// RNG seed — `random` kind only (default 0; generation is
    /// deterministic per seed).
    #[serde(default)]
    pub seed: Option<u64>,
}

impl DagSpec {
    /// A paper testbed instance.
    pub fn testbed(tb: Testbed, n: usize) -> DagSpec {
        DagSpec {
            kind: "testbed".into(),
            testbed: Some(tb.name().to_string()),
            n: Some(n),
            c: None,
            layers: None,
            max_width: None,
            edge_prob: None,
            seed: None,
        }
    }

    /// A random layered DAG.
    pub fn random(layers: usize, max_width: usize, edge_prob: f64, seed: u64) -> DagSpec {
        DagSpec {
            kind: "random".into(),
            testbed: None,
            n: None,
            c: None,
            layers: Some(layers),
            max_width: Some(max_width),
            edge_prob: Some(edge_prob),
            seed: Some(seed),
        }
    }

    /// The §4.4 toy graph.
    pub fn toy() -> DagSpec {
        DagSpec {
            kind: "toy".into(),
            testbed: None,
            n: None,
            c: None,
            layers: None,
            max_width: None,
            edge_prob: None,
            seed: None,
        }
    }
}

/// Which platform to build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// `"paper"`, `"homogeneous"`, `"star"`, `"ring"`, `"line"`,
    /// `"random-connected"`, or `"custom"`.
    pub kind: String,
    /// Processor count (`homogeneous`/`star`/`ring`/`line`/
    /// `random-connected`; default 8 for the routed topologies).
    #[serde(default)]
    pub procs: Option<usize>,
    /// Explicit per-processor cycle-times; overrides `procs` (required for
    /// `custom`). The routed topologies default to a heterogeneous pattern
    /// cycling through the paper's speeds.
    #[serde(default)]
    pub cycle_times: Option<Vec<f64>>,
    /// Per-item link latency (`star`/`ring`/`line`/`random-connected`;
    /// default 1).
    #[serde(default)]
    pub link_time: Option<f64>,
    /// Directed links as `[from, to, latency]` triples — `custom` kind
    /// only. Pairs without an entry have **no** direct link; messages
    /// between them are routed (the spec is rejected if some pair has no
    /// route at all).
    #[serde(default)]
    pub links: Option<Vec<Vec<f64>>>,
    /// Probability of each extra (non-spanning-tree) link —
    /// `random-connected` kind only (default 0.3).
    #[serde(default)]
    pub extra_prob: Option<f64>,
    /// Topology seed — `random-connected` kind only (default 0;
    /// generation is deterministic per seed).
    #[serde(default)]
    pub seed: Option<u64>,
}

impl PlatformSpec {
    /// The paper's 10-processor fully-connected platform.
    pub fn paper() -> PlatformSpec {
        PlatformSpec {
            kind: "paper".into(),
            procs: None,
            cycle_times: None,
            link_time: None,
            links: None,
            extra_prob: None,
            seed: None,
        }
    }

    /// A routed (non-fully-connected) topology: `"star"`, `"ring"`, or
    /// `"line"` over `procs` processors.
    pub fn routed(kind: &str, procs: usize, link_time: f64) -> PlatformSpec {
        PlatformSpec {
            kind: kind.into(),
            procs: Some(procs),
            cycle_times: None,
            link_time: Some(link_time),
            links: None,
            extra_prob: None,
            seed: None,
        }
    }

    /// A seeded random connected topology over `procs` processors.
    pub fn random_connected(
        procs: usize,
        link_time: f64,
        extra_prob: f64,
        seed: u64,
    ) -> PlatformSpec {
        PlatformSpec {
            kind: "random-connected".into(),
            procs: Some(procs),
            cycle_times: None,
            link_time: Some(link_time),
            links: None,
            extra_prob: Some(extra_prob),
            seed: Some(seed),
        }
    }

    /// An explicit topology: cycle-times plus directed
    /// `[from, to, latency]` links.
    pub fn custom(cycle_times: Vec<f64>, links: Vec<Vec<f64>>) -> PlatformSpec {
        PlatformSpec {
            kind: "custom".into(),
            procs: None,
            cycle_times: Some(cycle_times),
            link_time: None,
            links: Some(links),
            extra_prob: None,
            seed: None,
        }
    }
}

// `SchedulerSpec` is the registry's canonical spec type (kind + optional
// `b`/`seed`/`members`), re-exported so protocol users keep one import
// path. Its wire format is bit-compatible with the pre-registry protocol
// struct — `kind` and `b` always serialize (in that order, `b` as `null`
// when unset), new parameters only when set — so legacy cache keys and
// ledger records resolve unchanged.
pub use onesched_heuristics::registry::{SchedulerSpec, UnknownScheduler};

/// A rejected job spec: human-readable message plus a machine-readable
/// `kind` mirrored into [`ErrorResponse::kind`]: `"unknown-scheduler"`,
/// `"platform-disconnected"`, or `"invalid-spec"` for every other
/// validation failure (the kind plain-string errors convert to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveError {
    /// What was wrong, for humans.
    pub message: String,
    /// Machine-readable category.
    pub kind: &'static str,
}

impl ResolveError {
    fn kinded(kind: &'static str, message: String) -> ResolveError {
        ResolveError { message, kind }
    }
}

impl From<String> for ResolveError {
    fn from(message: String) -> ResolveError {
        ResolveError::kinded("invalid-spec", message)
    }
}

impl From<&str> for ResolveError {
    fn from(message: &str) -> ResolveError {
        ResolveError::from(message.to_string())
    }
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ResolveError {}

/// A validated, fully-defaulted job, ready to run and to key the cache.
///
/// Resolution stores the *typed* configuration it validated — the parsed
/// generator parameters, the materialized platform, the scheduler choice —
/// so the `build_*` methods are infallible. A worker thread never re-reads
/// an optional spec field and can never panic on a malformed job: every
/// rejection happens at intake, as an `error` response.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The normalized spec (every optional field filled).
    pub spec: JobSpec,
    /// Canonical cache key: two jobs with equal keys are the same
    /// deterministic scheduling problem.
    pub key: String,
    model: CommModel,
    dag: ResolvedDag,
    platform: Platform,
    scheduler: SchedulerSpec,
}

/// The validated DAG generator choice inside a [`ResolvedJob`].
#[derive(Debug, Clone)]
enum ResolvedDag {
    /// A paper testbed at size `n` with CCR `c`.
    Testbed { tb: Testbed, n: usize, c: f64 },
    /// A seeded random layered DAG.
    Random {
        layers: usize,
        max_width: usize,
        edge_prob: f64,
        seed: u64,
    },
    /// The §4.4 toy graph.
    Toy,
}

/// Parse a kebab-case communication-model name (`CommModel::name`).
pub fn parse_model(name: &str) -> Result<CommModel, String> {
    CommModel::ALL
        .iter()
        .copied()
        .find(|m| m.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown model {name:?} (expected one of: {})",
                CommModel::ALL.map(|m| m.name()).join(", ")
            )
        })
}

/// Parse a testbed display name, case-insensitively.
pub fn parse_testbed(name: &str) -> Result<Testbed, String> {
    Testbed::ALL
        .iter()
        .copied()
        .find(|t| t.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown testbed {name:?} (expected one of: {})",
                Testbed::ALL.map(|t| t.name()).join(", ")
            )
        })
}

/// Ceiling on generated task counts: a typo'd size must not wedge a worker
/// for hours. Large enough for the 100k+-task stress sweeps.
pub const MAX_TASKS_PER_JOB: usize = 2_000_000;

/// Ceiling on platform sizes (link matrices are `procs²`).
pub const MAX_PROCS: usize = 512;

/// Heterogeneous default cycle-times for the routed topologies: cycle
/// through the paper's three processor speeds.
fn default_cycle_times(procs: usize) -> Vec<f64> {
    const PATTERN: [f64; 3] = [6.0, 10.0, 15.0];
    PATTERN.iter().copied().cycle().take(procs).collect()
}

impl JobSpec {
    /// Validate the spec, fill every default, and derive the canonical
    /// cache key. Errors carry a human-readable message (and, where
    /// useful, a machine-readable kind) back to the client in an `error`
    /// response.
    pub fn resolve(&self) -> Result<ResolvedJob, ResolveError> {
        let mut spec = self.clone();

        // -- dag --------------------------------------------------------
        let d = &mut spec.dag;
        let dag = match d.kind.as_str() {
            "testbed" => {
                let name = d
                    .testbed
                    .as_deref()
                    .ok_or("testbed dag requires `testbed`")?;
                let tb = parse_testbed(name)?;
                d.testbed = Some(tb.name().to_string());
                let n = d.n.ok_or("testbed dag requires `n`")?;
                if n == 0 {
                    return Err("testbed size n must be at least 1".into());
                }
                // conservative task-count bound: the elimination/grid
                // testbeds grow quadratically in n, fork-join linearly
                let est = match tb {
                    Testbed::ForkJoin => 2 * n + 2,
                    _ => n.saturating_mul(n),
                };
                if est > MAX_TASKS_PER_JOB {
                    return Err(format!(
                        "{} at n={n} may reach {est} tasks (limit {MAX_TASKS_PER_JOB})",
                        tb.name()
                    )
                    .into());
                }
                let c = d.c.unwrap_or(PAPER_C);
                d.c = Some(c);
                d.layers = None;
                d.max_width = None;
                d.edge_prob = None;
                d.seed = None;
                ResolvedDag::Testbed { tb, n, c }
            }
            "random" => {
                if d.c.is_some() {
                    // the random generator has no CCR knob (data volumes
                    // come from its data_range); silently ignoring `c`
                    // would accept a parameter that never takes effect
                    return Err("random dag does not take `c` (testbed kind only)".into());
                }
                let layers = d.layers.ok_or("random dag requires `layers`")?;
                let width = d.max_width.ok_or("random dag requires `max_width`")?;
                if layers == 0 || width == 0 {
                    return Err("random dag needs layers >= 1 and max_width >= 1".into());
                }
                if layers.saturating_mul(width) > MAX_TASKS_PER_JOB {
                    return Err(format!(
                        "random dag may reach {} tasks (limit {MAX_TASKS_PER_JOB})",
                        layers.saturating_mul(width)
                    )
                    .into());
                }
                let prob = d.edge_prob.unwrap_or(0.3);
                if !(0.0..=1.0).contains(&prob) {
                    return Err(format!("edge_prob {prob} outside [0, 1]").into());
                }
                let seed = d.seed.unwrap_or(0);
                d.edge_prob = Some(prob);
                d.seed = Some(seed);
                d.testbed = None;
                d.n = None;
                d.c = None;
                ResolvedDag::Random {
                    layers,
                    max_width: width,
                    edge_prob: prob,
                    seed,
                }
            }
            "toy" => {
                *d = DagSpec::toy();
                ResolvedDag::Toy
            }
            other => return Err(format!("unknown dag kind {other:?}").into()),
        };

        // -- platform ---------------------------------------------------
        // Each arm both normalizes the spec (for the canonical cache key)
        // and materializes the Platform: the single materialization serves
        // the connectivity check, ILHA's auto chunk, and — stored in the
        // ResolvedJob — every later `build_platform()` call, so workers
        // never re-derive it from optional fields.
        let mut p = spec.platform.take().unwrap_or_else(PlatformSpec::paper);
        let platform = match p.kind.as_str() {
            "paper" => {
                p.procs = None;
                p.cycle_times = None;
                p.link_time = None;
                p.links = None;
                p.extra_prob = None;
                p.seed = None;
                Platform::paper()
            }
            "homogeneous" => {
                let procs = p.procs.unwrap_or(10);
                if procs == 0 {
                    return Err("platform needs at least one processor".into());
                }
                if procs > MAX_PROCS {
                    return Err(format!("{procs} processors exceeds the {MAX_PROCS} limit").into());
                }
                p.procs = Some(procs);
                p.cycle_times = None;
                p.link_time = None; // homogeneous platforms have unit links
                p.links = None;
                p.extra_prob = None;
                p.seed = None;
                Platform::homogeneous(procs)
            }
            "star" | "ring" | "line" | "random-connected" => {
                let ct = match p.cycle_times.take() {
                    Some(ct) if !ct.is_empty() => ct,
                    Some(_) => return Err("platform needs at least one processor".into()),
                    None => default_cycle_times(p.procs.unwrap_or(8)),
                };
                if ct.len() > MAX_PROCS {
                    return Err(
                        format!("{} processors exceeds the {MAX_PROCS} limit", ct.len()).into(),
                    );
                }
                if ct.iter().any(|&t| t <= 0.0 || !t.is_finite()) {
                    return Err("cycle_times must be positive and finite".into());
                }
                let lt = p.link_time.unwrap_or(1.0);
                p.procs = Some(ct.len());
                p.cycle_times = Some(ct.clone());
                p.link_time = Some(lt);
                p.links = None;
                let built = if p.kind == "random-connected" {
                    let prob = p.extra_prob.unwrap_or(0.3);
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("extra_prob {prob} outside [0, 1]").into());
                    }
                    let seed = p.seed.unwrap_or(0);
                    p.extra_prob = Some(prob);
                    p.seed = Some(seed);
                    topology::random_connected(ct, lt, prob, seed)
                } else {
                    p.extra_prob = None;
                    p.seed = None;
                    match p.kind.as_str() {
                        "star" => topology::star(ct, lt),
                        "ring" => topology::ring(ct, lt),
                        _ => topology::line(ct, lt),
                    }
                };
                built.map_err(|e| format!("invalid {} platform: {e}", p.kind))?
            }
            "custom" => {
                let ct = match p.cycle_times.take() {
                    Some(ct) if !ct.is_empty() => ct,
                    _ => return Err("custom platform requires non-empty `cycle_times`".into()),
                };
                if ct.len() > MAX_PROCS {
                    return Err(
                        format!("{} processors exceeds the {MAX_PROCS} limit", ct.len()).into(),
                    );
                }
                if ct.iter().any(|&t| t <= 0.0 || !t.is_finite()) {
                    return Err("cycle_times must be positive and finite".into());
                }
                let procs = ct.len();
                let raw = p
                    .links
                    .take()
                    .ok_or("custom platform requires `links` ([from, to, latency] triples)")?;
                let mut triples: Vec<(usize, usize, f64)> = Vec::with_capacity(raw.len());
                for l in &raw {
                    let [from, to, lat] = l.as_slice() else {
                        return Err(format!(
                            "custom link {l:?} must be a [from, to, latency] triple"
                        )
                        .into());
                    };
                    for (what, v) in [("from", *from), ("to", *to)] {
                        if v.fract() != 0.0 || v < 0.0 || v >= procs as f64 {
                            return Err(format!(
                                "custom link {what} {v} is not a processor index < {procs}"
                            )
                            .into());
                        }
                    }
                    if from == to {
                        return Err(format!("custom link {from} -> {to} is a self-link").into());
                    }
                    if !lat.is_finite() || *lat < 0.0 {
                        return Err(format!(
                            "custom link latency {lat} must be finite and non-negative"
                        )
                        .into());
                    }
                    triples.push((*from as usize, *to as usize, *lat));
                }
                // canonical: sorted by (from, to), duplicates rejected
                triples.sort_by_key(|&(from, to, _)| (from, to));
                let duplicate = triples
                    .windows(2)
                    .any(|w| matches!(w, [a, b] if (a.0, a.1) == (b.0, b.1)));
                if duplicate {
                    return Err("custom links contain a duplicate (from, to) pair".into());
                }
                let mut link = vec![f64::INFINITY; procs * procs];
                for cell in link.iter_mut().step_by(procs + 1) {
                    *cell = 0.0; // diagonal: a processor reaches itself freely
                }
                for &(from, to, lat) in &triples {
                    if let Some(cell) = link.get_mut(from * procs + to) {
                        *cell = lat;
                    }
                }
                p.procs = Some(procs);
                p.cycle_times = Some(ct.clone());
                p.links = Some(
                    triples
                        .iter()
                        .map(|&(from, to, lat)| vec![from as f64, to as f64, lat])
                        .collect(),
                );
                p.link_time = None;
                p.extra_prob = None;
                p.seed = None;
                Platform::new(ct, link).map_err(|e| format!("invalid custom platform: {e}"))?
            }
            other => return Err(format!("unknown platform kind {other:?}").into()),
        };

        // -- scheduler --------------------------------------------------
        // Normalization pins every kind-relevant parameter (so the cache
        // key states exactly what ran), then the full workspace catalog
        // validates buildability once, here at intake:
        // `build_scheduler` can never fail on a worker thread.
        let mut s = spec.scheduler.take().unwrap_or_else(SchedulerSpec::heft);
        let catalog = onesched_baselines::registry::catalog();
        if s.kind == "portfolio" {
            let mut members = match s.members.take() {
                Some(m) => m,
                // default membership: every concrete kind in the catalog
                None => catalog.default_members(),
            };
            if members.is_empty() {
                return Err("portfolio needs at least one member".into());
            }
            for m in &mut members {
                if m.kind == "portfolio" {
                    return Err("portfolio members must be concrete kinds, not portfolios".into());
                }
                // members inherit the portfolio's own parameters where
                // they leave them unset, then normalize like any job
                m.b = m.b.or(s.b);
                m.seed = m.seed.or(s.seed);
                normalize_member(m, &dag, &platform)?;
            }
            s.b = None;
            s.seed = None;
            s.members = Some(members);
        } else {
            normalize_member(&mut s, &dag, &platform)?;
        }
        catalog
            .build(&s)
            .map_err(|e| ResolveError::kinded("unknown-scheduler", e.to_string()))?;
        // Every kind routes around missing links, but none can deliver
        // between processors with no route at all. The check is O(p²) and
        // never builds the route table: intake is single-threaded and
        // specs may name MAX_PROCS, where Floyd–Warshall is O(p³).
        if let Some((from, to)) = platform.first_unreachable() {
            return Err(ResolveError::kinded(
                "platform-disconnected",
                format!(
                    "platform kind {:?} is disconnected: no route from {from} to {to} \
                     (every scheduler needs a connected topology)",
                    p.kind
                ),
            ));
        }

        // -- model ------------------------------------------------------
        let model = parse_model(spec.model.as_deref().unwrap_or("one-port-bidir"))?;
        spec.model = Some(model.name().to_string());
        spec.platform = Some(p);
        spec.scheduler = Some(s.clone());

        // Canonical key: the normalized spec serialized with the daemon's
        // own (deterministic, insertion-ordered) serializer. `validate`
        // participates so a validated result is never served for an
        // unvalidated submission or vice versa.
        let key = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        Ok(ResolvedJob {
            spec,
            key,
            model,
            dag,
            platform,
            scheduler: s,
        })
    }
}

/// Normalize one concrete (non-portfolio) scheduler spec in place: pin
/// kind-relevant parameter defaults so the cache key states exactly what
/// ran, and clear parameters the kind does not take (mirroring how the
/// platform arms canonicalize their specs).
fn normalize_member(
    s: &mut SchedulerSpec,
    dag: &ResolvedDag,
    platform: &Platform,
) -> Result<(), ResolveError> {
    s.members = None;
    // The routed aliases are wire-only: every kind routes, so they fold
    // into the kind that runs and the cache key names it.
    match s.kind.as_str() {
        "routed-heft" => s.kind = "heft".into(),
        "routed-ilha" => {
            // routed platforms have no paper-tuned B; the platform's
            // perfect-balance chunk is the alias's deterministic default
            s.kind = "ilha".into();
            s.b = Some(s.b.unwrap_or_else(|| Ilha::auto(platform).b));
        }
        _ => {}
    }
    match s.kind.as_str() {
        "ilha" => {
            let b = match (s.b, dag) {
                (Some(b), _) => b,
                (None, ResolvedDag::Testbed { tb, .. }) => tb.paper_best_b(),
                // auto chunk: fix the value now so the cache key is
                // explicit about what ran
                (None, _) => Ilha::auto(platform).b,
            };
            if b == 0 {
                return Err("ilha chunk size b must be at least 1".into());
            }
            s.b = Some(b);
            s.seed = None;
        }
        "random" => {
            s.b = None;
            s.seed = Some(s.seed.unwrap_or(0));
        }
        _ => {
            s.b = None;
            s.seed = None;
        }
    }
    Ok(())
}

impl ResolvedJob {
    /// The communication model this job runs under.
    pub fn model(&self) -> CommModel {
        self.model
    }

    /// Generate the job's task graph (deterministic, infallible: every
    /// parameter was validated and stored typed at resolution).
    pub fn build_graph(&self) -> TaskGraph {
        match &self.dag {
            ResolvedDag::Testbed { tb, n, c } => tb.generate(*n, *c),
            ResolvedDag::Random {
                layers,
                max_width,
                edge_prob,
                seed,
            } => {
                let cfg = RandomDagConfig {
                    layers: *layers,
                    max_width: *max_width,
                    edge_prob: *edge_prob,
                    ..RandomDagConfig::default()
                };
                random_layered(&cfg, *seed)
            }
            ResolvedDag::Toy => onesched_testbeds::toy(),
        }
    }

    /// The job's platform (deterministic, infallible: materialized once at
    /// resolution and cloned per run).
    pub fn build_platform(&self) -> Platform {
        self.platform.clone()
    }

    /// Instantiate the job's scheduler through the workspace catalog
    /// (infallible: resolution already validated the normalized spec
    /// against the same catalog).
    #[allow(clippy::panic)]
    pub fn build_scheduler(&self) -> Box<dyn Scheduler> {
        onesched_baselines::registry::build(&self.scheduler)
            // analyze:allow(P203): resolution validated this spec against the same catalog
            .unwrap_or_else(|e| panic!("resolved scheduler failed to build: {e}"))
    }

    /// The normalized scheduler spec this job resolved to (every
    /// kind-relevant parameter pinned; portfolio members enumerated).
    pub fn scheduler_spec(&self) -> &SchedulerSpec {
        &self.scheduler
    }

    /// Re-resolve this job with a different scheduler: the portfolio path
    /// uses this to cache each member's schedule under the member's own
    /// canonical job key. Fails only if `scheduler` itself is invalid for
    /// the job (e.g. an `ilha` member with `b = 0`).
    pub fn with_scheduler(&self, scheduler: &SchedulerSpec) -> Result<ResolvedJob, ResolveError> {
        let mut spec = self.spec.clone();
        spec.scheduler = Some(scheduler.clone());
        spec.resolve()
    }
}

/// Successful scheduling outcome (op `"result"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultResponse {
    /// Always `"result"`.
    pub op: String,
    /// The submitted (or daemon-assigned) job id.
    pub id: String,
    /// Scheduler display name (e.g. `ILHA(B=4)`).
    pub scheduler: String,
    /// Communication model (kebab-case name).
    pub model: String,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Schedule makespan.
    pub makespan: f64,
    /// Speedup over the fastest-single-processor sequential time.
    pub speedup: f64,
    /// Number of effective (non-zero duration) communications.
    pub effective_comms: usize,
    /// Placement fingerprint as 16 hex digits
    /// (`onesched_sim::placement_fingerprint`); bit-identical to the direct
    /// runner path for the same resolved job.
    pub fingerprint: String,
    /// Schedule-construction wall-clock time in milliseconds. For a cache
    /// hit, the construction time of the original run.
    pub construct_ms: f64,
    /// Whether this result was served from the schedule cache.
    pub cache_hit: bool,
    /// Validator violation count (0 unless `validate` was requested —
    /// and always 0 then, or the daemon has a bug).
    pub violations: usize,
}

/// Outcome of a `simulate` request (op `"sim-result"`): the construction
/// outcome plus the executed trace's summary — both fingerprints and the
/// predicted-vs-executed degradation ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResultResponse {
    /// Always `"sim-result"`.
    pub op: String,
    /// The submitted (or daemon-assigned) job id.
    pub id: String,
    /// Scheduler display name (e.g. `ILHA(B=4)`).
    pub scheduler: String,
    /// Communication model (kebab-case name).
    pub model: String,
    /// Dispatch policy (kebab-case name).
    pub policy: String,
    /// Perturbation seed the execution ran under.
    pub seed: u64,
    /// Number of tasks scheduled and executed.
    pub tasks: usize,
    /// The schedule's predicted makespan.
    pub static_makespan: f64,
    /// The executed makespan under the requested perturbation.
    pub executed_makespan: f64,
    /// `executed_makespan / static_makespan` (1.0 = the schedule held up).
    pub degradation: f64,
    /// Placement fingerprint of the constructed schedule (16 hex digits) —
    /// bit-identical to what a plain `submit` of the same job reports.
    pub fingerprint: String,
    /// Trace fingerprint of the executed trace (16 hex digits,
    /// `onesched_sim::trace_fingerprint`): covers communication times, so
    /// same-seed runs compare bit-exactly.
    pub trace_fingerprint: String,
    /// Schedule-construction wall-clock time in milliseconds.
    pub construct_ms: f64,
    /// Execution (replay) wall-clock time in milliseconds.
    pub exec_ms: f64,
    /// Whether this result was served from the simulation cache.
    pub cache_hit: bool,
    /// Validator violation count on the *constructed* schedule (0 unless
    /// the job requested validation).
    pub violations: usize,
}

/// Queue/cache/latency statistics (op `"stats"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Always `"stats"`.
    pub op: String,
    /// Jobs waiting in the priority queue.
    pub queue_depth: usize,
    /// Jobs answered (including simulations, cache hits and failures).
    pub jobs_done: u64,
    /// Simulations answered (included in `jobs_done`).
    pub sims_done: u64,
    /// Jobs answered from a cache (schedule or simulation).
    pub cache_hits: u64,
    /// Requests answered with an `error` response.
    pub errors: u64,
    /// Entries currently in the schedule cache.
    pub cache_size: usize,
    /// Entries currently in the simulation cache.
    pub sim_cache_size: usize,
    /// Entries evicted from either cache since startup.
    pub cache_evictions: u64,
    /// Jobs replayed from the ledger at startup (unacknowledged work
    /// re-queued plus acknowledged outcomes rehydrated into the caches).
    #[serde(default)]
    pub jobs_recovered: u64,
    /// Construction attempts re-queued after a worker panic (bounded by
    /// `--max-retries`).
    #[serde(default)]
    pub jobs_retried: u64,
    /// Jobs answered with a `timeout` error because their wall-clock
    /// deadline (`--timeout-ms`) passed.
    #[serde(default)]
    pub jobs_timed_out: u64,
    /// Queued jobs evicted by admission control (answered `overloaded`)
    /// or drained at shutdown (answered `shutting-down`).
    #[serde(default)]
    pub jobs_shed: u64,
    /// Current ledger file size in bytes (0 when running without
    /// `--ledger`).
    #[serde(default)]
    pub ledger_bytes: u64,
    /// Ledger events appended since this daemon started (recovery
    /// tombstones included; the replayed prefix is not).
    #[serde(default)]
    pub uptime_events: u64,
    /// Trace events dropped by the tracer's ring buffers since startup
    /// (0 without `--trace`). Nonzero means the trace file under-counts:
    /// `trace report` totals will not fully reconcile.
    #[serde(default)]
    pub trace_events_dropped: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: f64,
    /// Per-scheduler construction-latency percentiles (cache hits are
    /// excluded — they did not construct anything).
    pub latency: Vec<LatencyEntry>,
    /// Portfolio win tallies: how often each member (by canonical spec
    /// string) produced the winning schedule across all portfolio jobs
    /// answered by this daemon. Empty until a portfolio job runs.
    #[serde(default)]
    pub portfolio: Vec<PortfolioWinEntry>,
}

/// One member's running win count across every portfolio construction the
/// daemon has answered (cache hits excluded — they did not re-run the
/// race).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioWinEntry {
    /// The winning member's canonical spec string (e.g. `ilha(b=4)`).
    pub scheduler: String,
    /// Number of portfolio constructions this member won.
    pub wins: u64,
}

/// Construction-latency percentiles for one scheduler kind. Percentiles
/// are nearest-rank over a sliding window of the most recent constructions
/// (`cache::LATENCY_WINDOW`); `count` and `max_ms` are all-time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyEntry {
    /// Scheduler display name.
    pub scheduler: String,
    /// All-time number of constructions measured.
    pub count: u64,
    /// Samples currently in the sliding window — the population the
    /// percentiles below are computed over (`min(count, LATENCY_WINDOW)`).
    #[serde(default)]
    pub window: u64,
    /// Median construction time over the window, ms.
    pub p50_ms: f64,
    /// 90th-percentile construction time over the window, ms.
    pub p90_ms: f64,
    /// 99th-percentile construction time over the window, ms.
    pub p99_ms: f64,
    /// All-time worst construction time, ms.
    pub max_ms: f64,
}

/// Request failure (op `"error"`): unparseable line, invalid spec, unknown
/// op, or a robustness rejection (overload, timeout, poison, shutdown).
/// The offending submission's id is echoed when known.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Always `"error"`.
    pub op: String,
    /// The submission id, when the request carried one.
    #[serde(default)]
    pub id: Option<String>,
    /// Human-readable reason.
    pub message: String,
    /// Machine-readable error class for clients that branch on failures.
    /// The daemon sets it on every error: `"bad-request"` (unparseable
    /// line), `"unknown-op"`, `"missing-job"`, `"invalid-spec"`,
    /// `"unknown-scheduler"`, `"platform-disconnected"`, `"queue-full"`,
    /// `"overloaded"`, `"timeout"`, `"shutting-down"`, `"poisoned"`, or
    /// `"internal"` (a failure inside an accepted job). Optional on the
    /// wire so older answers still parse.
    #[serde(default)]
    pub kind: Option<String>,
    /// For `"overloaded"`/`"queue-full"`: a backoff hint in milliseconds,
    /// estimated from the current queue depth, the worker count, and
    /// recent construction latency.
    #[serde(default)]
    pub retry_after_ms: Option<f64>,
}

/// Plain acknowledgement (op `"ok"`), e.g. for `shutdown`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AckResponse {
    /// Always `"ok"`.
    pub op: String,
    /// What was acknowledged.
    pub message: String,
}

/// Daemon startup announcement (op `"ready"`), written before any request
/// is read. TCP clients parse `addr` to learn the bound port (`--tcp
/// 127.0.0.1:0` binds an ephemeral one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadyResponse {
    /// Always `"ready"`.
    pub op: String,
    /// Protocol tag ([`PROTOCOL_VERSION`]).
    pub protocol: String,
    /// Bound listen address (TCP mode) or `"stdio"`.
    pub addr: String,
    /// Worker threads serving the queue.
    pub workers: usize,
}

/// Prometheus-style metrics snapshot (op `"metrics"`): the full text
/// exposition as one string, newlines included, wrapped in a single
/// response line so it composes with the NDJSON protocol. Pipe `text`
/// through `onesched-svc metrics` (or any JSON tool) to recover the
/// scrape body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Always `"metrics"`.
    pub op: String,
    /// The exposition MIME type (`text/plain; version=0.0.4`).
    pub content_type: String,
    /// The metrics body in Prometheus text exposition format.
    pub text: String,
}

/// Minimal probe to dispatch a response line on its `op` tag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpProbe {
    /// The line's `op` field.
    pub op: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_spec_resolves_with_defaults() {
        let job = JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 30),
            platform: None,
            scheduler: None,
            model: None,
            validate: false,
        };
        let r = job.resolve().unwrap();
        assert_eq!(r.model(), CommModel::OnePortBidir);
        assert_eq!(r.spec.dag.c, Some(PAPER_C));
        assert_eq!(r.spec.scheduler.as_ref().unwrap().kind, "heft");
        assert_eq!(r.spec.platform.as_ref().unwrap().kind, "paper");
        assert_eq!(r.build_graph().num_tasks(), 465);
        assert_eq!(r.build_platform().num_procs(), 10);
    }

    #[test]
    fn ilha_b_defaults_to_paper_best() {
        let mut job = JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 10),
            platform: None,
            scheduler: Some(SchedulerSpec::named("ilha")),
            model: None,
            validate: false,
        };
        let r = job.resolve().unwrap();
        assert_eq!(r.spec.scheduler.as_ref().unwrap().b, Some(4));
        assert_eq!(r.build_scheduler().name(), "ILHA(B=4)");
        // non-testbed DAG: auto chunk against the platform
        job.dag = DagSpec::random(4, 4, 0.5, 1);
        let r = job.resolve().unwrap();
        assert_eq!(r.spec.scheduler.as_ref().unwrap().b, Some(38));
    }

    #[test]
    fn resolution_is_canonical() {
        // the same logical job spelled with and without defaults gets the
        // same cache key
        let explicit = JobSpec {
            dag: DagSpec {
                kind: "testbed".into(),
                testbed: Some("lu".into()), // case-insensitive
                n: Some(30),
                c: Some(10.0),
                layers: None,
                max_width: None,
                edge_prob: None,
                seed: None,
            },
            platform: Some(PlatformSpec::paper()),
            scheduler: Some(SchedulerSpec::heft()),
            model: Some("one-port-bidir".into()),
            validate: false,
        };
        let bare = JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 30),
            platform: None,
            scheduler: None,
            model: None,
            validate: false,
        };
        assert_eq!(explicit.resolve().unwrap().key, bare.resolve().unwrap().key);
    }

    #[test]
    fn routed_platform_requires_routed_scheduler() {
        // The name predates the fold: a routed platform no longer requires
        // a routed alias. Every kind resolves there, and the aliases
        // canonicalise to the kind that runs.
        let job = JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 10),
            platform: Some(PlatformSpec::routed("star", 6, 1.0)),
            scheduler: None,
            model: None,
            validate: false,
        };
        let heft = job.resolve().unwrap();
        assert_eq!(heft.build_platform().num_procs(), 6);
        assert!(!heft.build_platform().is_fully_connected());
        let alias = JobSpec {
            scheduler: Some(SchedulerSpec::routed_heft()),
            ..job.clone()
        };
        let alias = alias.resolve().unwrap();
        assert_eq!(alias.scheduler_spec(), &SchedulerSpec::heft());
        assert_eq!(alias.key, heft.key);
        // routed ILHA becomes ilha with the platform's chunk filled in
        // (not the testbed's paper-best B, which plain `ilha` would take)
        let alias = JobSpec {
            scheduler: Some(SchedulerSpec::routed_ilha()),
            ..job.clone()
        };
        let r = alias.resolve().unwrap();
        let b = r.scheduler_spec().b.expect("b filled");
        assert!(b >= 6, "chunk at least the processor count, got {b}");
        assert_eq!(r.scheduler_spec(), &SchedulerSpec::ilha(b));
        assert_eq!(r.build_scheduler().name(), format!("ILHA(B={b})"));
        let explicit = JobSpec {
            scheduler: Some(SchedulerSpec::ilha(b)),
            ..job.clone()
        };
        assert_eq!(r.key, explicit.resolve().unwrap().key);
        // baselines and the default portfolio resolve there too
        for kind in ["cpop", "bil", "min-min", "serial", "portfolio"] {
            let other = JobSpec {
                scheduler: Some(SchedulerSpec::named(kind)),
                ..job.clone()
            };
            assert!(other.resolve().is_ok(), "{kind}");
        }
    }

    #[test]
    fn random_connected_platform_resolves_deterministically() {
        let job = JobSpec {
            dag: DagSpec::testbed(Testbed::Stencil, 8),
            platform: Some(PlatformSpec::random_connected(7, 2.0, 0.4, 11)),
            scheduler: Some(SchedulerSpec::routed_heft()),
            model: None,
            validate: false,
        };
        let r = job.resolve().unwrap();
        assert_eq!(r.spec.platform.as_ref().unwrap().seed, Some(11));
        let p1 = r.build_platform();
        let p2 = r.build_platform();
        for q in p1.procs() {
            for s in p1.procs() {
                assert_eq!(p1.link(q, s), p2.link(q, s));
            }
        }
        assert!(p1.first_unreachable().is_none());
    }

    #[test]
    fn custom_platform_resolves_and_canonicalizes() {
        // a 3-proc line spelled as explicit directed links, out of order
        let links = vec![
            vec![1.0, 2.0, 1.0],
            vec![0.0, 1.0, 1.0],
            vec![2.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
        ];
        let job = JobSpec {
            dag: DagSpec::toy(),
            platform: Some(PlatformSpec::custom(vec![1.0, 2.0, 1.0], links)),
            scheduler: Some(SchedulerSpec::routed_heft()),
            model: None,
            validate: true,
        };
        let r = job.resolve().unwrap();
        let p = r.build_platform();
        assert!(!p.is_fully_connected());
        assert_eq!(
            p.link(onesched_platform::ProcId(0), onesched_platform::ProcId(1)),
            1.0
        );
        assert!(!p
            .link(onesched_platform::ProcId(0), onesched_platform::ProcId(2))
            .is_finite());
        // canonical: links sorted, so two spellings share a cache key
        let sorted = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 2.0, 1.0],
            vec![2.0, 1.0, 1.0],
        ];
        let again = JobSpec {
            dag: DagSpec::toy(),
            platform: Some(PlatformSpec::custom(vec![1.0, 2.0, 1.0], sorted)),
            scheduler: Some(SchedulerSpec::routed_heft()),
            model: None,
            validate: true,
        };
        assert_eq!(r.key, again.resolve().unwrap().key);
        // the job actually runs and validates
        let out = crate::cache::run_job(&r, None, &onesched_trace::Scope::off());
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn disconnected_custom_platform_is_rejected_at_intake() {
        // two components: {0, 1} linked, {2} isolated; every kind gets the
        // same machine-readable refusal
        for scheduler in [SchedulerSpec::routed_heft(), SchedulerSpec::named("cpop")] {
            let job = JobSpec {
                dag: DagSpec::toy(),
                platform: Some(PlatformSpec::custom(
                    vec![1.0; 3],
                    vec![vec![0.0, 1.0, 1.0], vec![1.0, 0.0, 1.0]],
                )),
                scheduler: Some(scheduler.clone()),
                model: None,
                validate: false,
            };
            let err = job.resolve().unwrap_err();
            assert_eq!(err.kind, "platform-disconnected", "{scheduler:?}");
            assert!(err.message.contains("disconnected"), "{err}");
            assert!(err.message.contains("no route"), "{err}");
        }
    }

    #[test]
    fn invalid_custom_links_are_rejected() {
        for (label, links) in [
            ("not a triple", vec![vec![0.0, 1.0]]),
            ("self link", vec![vec![1.0, 1.0, 1.0]]),
            ("out of range", vec![vec![0.0, 9.0, 1.0]]),
            ("fractional index", vec![vec![0.5, 1.0, 1.0]]),
            ("negative latency", vec![vec![0.0, 1.0, -2.0]]),
            (
                "duplicate pair",
                vec![vec![0.0, 1.0, 1.0], vec![0.0, 1.0, 2.0]],
            ),
        ] {
            let job = JobSpec {
                dag: DagSpec::toy(),
                platform: Some(PlatformSpec::custom(vec![1.0; 3], links)),
                scheduler: Some(SchedulerSpec::routed_heft()),
                model: None,
                validate: false,
            };
            assert!(job.resolve().is_err(), "{label} must be rejected");
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let base = JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 10),
            platform: None,
            scheduler: None,
            model: None,
            validate: false,
        };
        for (label, job) in [
            (
                "bad dag kind",
                JobSpec {
                    dag: DagSpec {
                        kind: "nope".into(),
                        ..DagSpec::toy()
                    },
                    ..base.clone()
                },
            ),
            (
                "bad model",
                JobSpec {
                    model: Some("two-port".into()),
                    ..base.clone()
                },
            ),
            (
                "bad scheduler",
                JobSpec {
                    // "cpop" resolves now (registry kind) — this one doesn't
                    scheduler: Some(SchedulerSpec::named("two-phase-heft")),
                    ..base.clone()
                },
            ),
            (
                "portfolio of portfolios",
                JobSpec {
                    scheduler: Some(SchedulerSpec::portfolio(vec![SchedulerSpec::portfolio(
                        vec![SchedulerSpec::heft()],
                    )])),
                    ..base.clone()
                },
            ),
            (
                "empty portfolio",
                JobSpec {
                    scheduler: Some(SchedulerSpec::portfolio(vec![])),
                    ..base.clone()
                },
            ),
            (
                "oversized random",
                JobSpec {
                    dag: DagSpec::random(10_000, 10_000, 0.1, 0),
                    ..base.clone()
                },
            ),
            (
                "bad edge_prob",
                JobSpec {
                    dag: DagSpec::random(3, 3, 1.5, 0),
                    ..base.clone()
                },
            ),
            (
                "c on random dag",
                JobSpec {
                    dag: DagSpec {
                        c: Some(5.0),
                        ..DagSpec::random(3, 3, 0.5, 0)
                    },
                    ..base.clone()
                },
            ),
        ] {
            assert!(job.resolve().is_err(), "{label} must be rejected");
        }
    }

    #[test]
    fn sim_spec_resolution_is_canonical_and_validated() {
        // full defaults: the zero-perturbation static-order replay
        let r = SimSpec::default().resolve().unwrap();
        assert_eq!(r.policy().name(), "static-order");
        assert_eq!(r.seed(), 0);
        assert!(r.exec_config().perturb.is_none());
        // the same spec spelled explicitly keys identically
        let explicit = SimSpec {
            policy: Some("static-order".into()),
            seed: Some(0),
            task_sigma: Some(0.0),
            bw_degradation: Some(0.0),
            outage_prob: Some(0.0),
            outage_frac: Some(0.0),
        };
        assert_eq!(explicit.resolve().unwrap().key, r.key);
        // distinct noise, seed, or policy keys differently
        let noisy = SimSpec::noise("list-dynamic", 0.2, 3).resolve().unwrap();
        assert_ne!(noisy.key, r.key);
        assert_eq!(noisy.policy().name(), "list-dynamic");
        assert_eq!(noisy.exec_config().perturb.task_sigma, 0.2);
        // invalid specs rejected
        for bad in [
            SimSpec {
                policy: Some("eager".into()),
                ..SimSpec::default()
            },
            SimSpec {
                task_sigma: Some(-0.1),
                ..SimSpec::default()
            },
            SimSpec {
                outage_prob: Some(1.5),
                ..SimSpec::default()
            },
            SimSpec {
                bw_degradation: Some(f64::INFINITY),
                ..SimSpec::default()
            },
        ] {
            assert!(bad.resolve().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn simulate_request_line_parses_with_defaults() {
        let line = r#"{"op":"simulate","id":"x","job":{"dag":{"kind":"toy"}},"sim":{"task_sigma":0.25,"seed":9}}"#;
        let r: Request = serde_json::from_str(line).unwrap();
        assert_eq!(r.op, "simulate");
        let sim = r.sim.unwrap().resolve().unwrap();
        assert_eq!(sim.seed(), 9);
        assert_eq!(sim.exec_config().perturb.task_sigma, 0.25);
        assert_eq!(sim.exec_config().perturb.bw_degradation, 0.0);
        // a simulate line without `sim` at all gets the faithful replay
        let bare: Request =
            serde_json::from_str(r#"{"op":"simulate","job":{"dag":{"kind":"toy"}}}"#).unwrap();
        assert!(bare.sim.is_none());
    }

    #[test]
    fn request_line_with_missing_optionals_parses() {
        // `#[serde(default)]` at work: bare stats/shutdown lines carry no
        // id/priority/job fields at all
        let r: Request = serde_json::from_str("{\"op\":\"stats\"}").unwrap();
        assert_eq!(r, Request::stats());
        let r: Request =
            serde_json::from_str("{\"op\":\"submit\",\"job\":{\"dag\":{\"kind\":\"toy\"}}}")
                .unwrap();
        assert_eq!(r.op, "submit");
        assert_eq!(r.priority, None);
        assert_eq!(r.job.as_ref().unwrap().dag.kind, "toy");
        assert!(!r.job.as_ref().unwrap().validate);
    }
}
