//! The discrete-event executor: replay a constructed [`Schedule`] forward
//! in virtual time.
//!
//! Execution is *operational*, not declarative: tasks become ready when
//! their in-edges complete, communications acquire the one-port resources
//! at runtime, and every acquisition is checked against the §2 exclusivity
//! constraints the static validator enforces (one transfer per send port,
//! one per receive port, shared port under the uni-directional model,
//! compute/communication exclusion under the no-overlap model). What each
//! activity claims comes from [`CommModel::comm_claims`] and
//! [`CommModel::task_claims`], the table schedule construction reads too.
//! Durations
//! come from the *platform* (`w × t_alloc`, `data × link`), optionally
//! scaled by seeded [`Perturbation`] factors — the recorded times in the
//! schedule only supply the dispatch order, so a schedule that lies about
//! its times is caught by [`check_replay`] as drift.
//!
//! Two dispatch policies:
//!
//! * [`DispatchPolicy::StaticOrder`] — every resource serves its
//!   activities in the schedule's start-time order (shifting in time as
//!   perturbation demands). A zero-perturbation replay of a valid schedule
//!   is **bit-exact**: every executed start/finish equals the static one,
//!   because each static start is the maximum of its binding constraints
//!   (input readiness, predecessor-on-resource finish) and the engine
//!   reproduces exactly those maxima.
//! * [`DispatchPolicy::ListDynamic`] — when a resource frees, the engine
//!   re-picks among *ready* activities: tasks by descending bottom level
//!   (the paper's §4.1 priority), communications by static start. This is
//!   the classic online list scheduler, which can beat or lose to the
//!   static order once noise moves the critical path.

use crate::event::{EventKind, EventQueue};
use crate::perturb::{Outage, PerturbSampler, Perturbation};
use onesched_dag::{EdgeId, TaskGraph, TaskId, TopoOrder};
use onesched_heuristics::avg_weights::paper_bottom_levels;
use onesched_platform::{Platform, ProcId};
use onesched_sim::{trace_fingerprint, Claim, CommModel, ExecutionTrace, Schedule, EPS};
use onesched_sim::{CommPlacement, TaskPlacement};

/// How the engine picks the next activity when a resource frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Keep the static schedule's per-resource start order, shifting in
    /// time (faithful replay; bit-exact at zero perturbation).
    #[default]
    StaticOrder,
    /// Re-pick ready tasks by descending bottom level whenever a resource
    /// frees (online list scheduling).
    ListDynamic,
}

impl DispatchPolicy {
    /// Stable kebab-case name (protocol and CSV tag).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::StaticOrder => "static-order",
            DispatchPolicy::ListDynamic => "list-dynamic",
        }
    }

    /// Parse a kebab-case policy name.
    pub fn parse(name: &str) -> Result<DispatchPolicy, String> {
        match name {
            "static-order" => Ok(DispatchPolicy::StaticOrder),
            "list-dynamic" => Ok(DispatchPolicy::ListDynamic),
            other => Err(format!(
                "unknown dispatch policy {other:?} (expected \"static-order\" or \"list-dynamic\")"
            )),
        }
    }
}

/// Execution configuration: dispatch policy plus seeded perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecConfig {
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Runtime perturbation (default: none — the faithful replay).
    pub perturb: Perturbation,
    /// Seed of the perturbation streams.
    pub seed: u64,
}

impl ExecConfig {
    /// The faithful replay: static order, no perturbation.
    pub fn replay() -> ExecConfig {
        ExecConfig::default()
    }
}

/// Why a schedule could not be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A task has no placement.
    UnplacedTask(TaskId),
    /// A cross-processor edge with positive data has no communication
    /// placement under a one-port model (nothing can deliver the data).
    MissingCommunication(EdgeId),
    /// An edge's hops do not chain `alloc(src) → … → alloc(dst)`.
    BrokenCommChain(EdgeId),
    /// A transfer (or macro-dataflow implicit delay) needs a link that does
    /// not exist.
    MissingLink {
        /// The edge needing the link.
        edge: EdgeId,
        /// Sending processor.
        from: ProcId,
        /// Receiving processor.
        to: ProcId,
    },
    /// The replay deadlocked: the event queue drained with activities still
    /// unexecuted (the static order is cyclic across resources — possible
    /// only for schedules no static validator would accept).
    Stalled {
        /// Activities that did execute.
        executed: usize,
        /// Total activities.
        total: usize,
    },
    /// An internal engine invariant failed. This indicates a bug in the
    /// engine itself, never a property of the submitted schedule; it is an
    /// error variant (rather than a panic) so a daemon embedding the engine
    /// survives it.
    Internal(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnplacedTask(t) => write!(f, "task {t} has no placement"),
            ExecError::MissingCommunication(e) => {
                write!(f, "edge {e} has no communication placement")
            }
            ExecError::BrokenCommChain(e) => write!(f, "edge {e} hops do not form a chain"),
            ExecError::MissingLink { edge, from, to } => {
                write!(f, "edge {edge} uses missing link {from} -> {to}")
            }
            ExecError::Stalled { executed, total } => {
                write!(f, "replay stalled after {executed}/{total} activities")
            }
            ExecError::Internal(what) => {
                write!(f, "internal engine invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The outcome of one execution.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// The executed trace (canonical order).
    pub trace: ExecutionTrace,
    /// The schedule's predicted makespan.
    pub static_makespan: f64,
    /// The observed makespan.
    pub executed_makespan: f64,
    /// [`trace_fingerprint`] of the executed trace — the determinism and
    /// bit-exactness gate.
    pub trace_fingerprint: u64,
    /// Events drained from the event queue during the replay — the
    /// engine-loop work counter surfaced on `execute` trace spans.
    pub events_processed: u64,
}

impl ExecReport {
    /// `executed / static` makespan ratio (1.0 = the schedule held up;
    /// >1 = it degraded under the perturbation).
    pub fn degradation(&self) -> f64 {
        self.executed_makespan / self.static_makespan
    }
}

/// One divergence between a zero-noise replay and the schedule's claims,
/// found by [`check_replay`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayViolation {
    /// The schedule is structurally unexecutable.
    Infeasible(ExecError),
    /// A task executed *later* than the schedule recorded (an understated
    /// duration, or a one-port resource forced a shift).
    TaskDrift {
        /// The task.
        task: TaskId,
        /// Recorded `(start, finish)`.
        recorded: (f64, f64),
        /// Executed `(start, finish)`.
        executed: (f64, f64),
    },
    /// A communication hop executed *later* than recorded.
    CommDrift {
        /// The edge.
        edge: EdgeId,
        /// Recorded `(start, finish)`.
        recorded: (f64, f64),
        /// Executed `(start, finish)`.
        executed: (f64, f64),
    },
}

/// What one activity is.
#[derive(Debug, Clone, Copy)]
enum ActKind {
    Task(TaskId),
    Comm {
        edge: EdgeId,
        from: ProcId,
        to: ProcId,
    },
}

/// A dependent of an activity: the waiting activity plus an extra delivery
/// delay (non-zero only for macro-dataflow implicit transfers). Such an
/// implicit transfer honors its link's outage window like an explicit hop
/// would: it cannot *start* inside the window, so delivery counts from the
/// window's end.
#[derive(Debug, Clone, Copy)]
struct Dependent {
    act: usize,
    delay: f64,
    outage: Option<Outage>,
}

struct Activity {
    kind: ActKind,
    /// The schedule's recorded start (dispatch order and drift reference).
    static_start: f64,
    /// True runtime duration (platform × perturbation).
    duration: f64,
    /// Resources this activity occupies while running.
    claims: Vec<u32>,
    /// Unfinished prerequisites.
    deps: u32,
    dependents: Vec<Dependent>,
    /// Outage window delaying this activity's start, if any (comms only).
    outage: Option<Outage>,
    /// Whether a retry event for the outage is already queued.
    retry_queued: bool,
    /// Sort key for the dynamic ready order (lower runs first).
    priority: (u8, f64, u32),
    started: bool,
    start: f64,
    done: bool,
}

/// Per-resource state: the static service order (StaticOrder) and the
/// current holder (the runtime exclusivity check, both policies).
struct Resource {
    /// Activity ids in static start order.
    order: Vec<u32>,
    /// Index of the next activity to serve (StaticOrder head).
    next: usize,
    /// The running activity currently holding the resource.
    holder: Option<u32>,
}

/// Execute `schedule` on `platform` under `model`.
///
/// Fails fast on structurally unexecutable schedules (unplaced tasks,
/// missing transfers or links, broken hop chains) and on replays whose
/// static order deadlocks across resources; both only happen for schedules
/// the static validator would reject.
pub fn execute(
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    schedule: &Schedule,
    cfg: &ExecConfig,
) -> Result<ExecReport, ExecError> {
    let static_makespan = schedule.makespan();
    let sampler = PerturbSampler::new(cfg.perturb, cfg.seed, static_makespan);
    let n_procs = platform.num_procs();
    let n_tasks = g.num_tasks();

    // -- activity table: tasks first, then comm hops ---------------------
    let mut acts: Vec<Activity> = Vec::with_capacity(n_tasks + schedule.comms().len());
    for v in g.tasks() {
        let p = schedule.task(v).ok_or(ExecError::UnplacedTask(v))?;
        let duration = platform.exec_time(g.weight(v), p.proc) * sampler.task_factor(v.index());
        acts.push(Activity {
            kind: ActKind::Task(v),
            static_start: p.start,
            duration,
            claims: claim_ids(&model.task_claims(p.proc), n_procs),
            deps: 0,
            dependents: Vec::new(),
            outage: None,
            retry_queued: false,
            priority: (1, 0.0, v.0),
            started: false,
            start: 0.0,
            done: false,
        });
    }

    // Dynamic task priority: descending bottom level (paper §4.1), ties by
    // task id. StaticOrder ignores it.
    if cfg.policy == DispatchPolicy::ListDynamic {
        let topo = TopoOrder::new(g);
        let bl = paper_bottom_levels(g, &topo, platform);
        for v in g.tasks() {
            acts[v.index()].priority = (1, -bl[v.index()], v.0);
        }
    }

    // -- wire edges: dependencies and comm-hop activities ----------------
    let add_dep = |acts: &mut Vec<Activity>, from: usize, to: usize, delay: f64| {
        acts[from].dependents.push(Dependent {
            act: to,
            delay,
            outage: None,
        });
        acts[to].deps += 1;
    };
    let mut hops: Vec<CommPlacement> = Vec::new();
    for (ei, edge) in g.edges().iter().enumerate() {
        let e = EdgeId(ei as u32);
        let src_p = *schedule
            .task(edge.src)
            .ok_or(ExecError::UnplacedTask(edge.src))?;
        let dst_p = *schedule
            .task(edge.dst)
            .ok_or(ExecError::UnplacedTask(edge.dst))?;
        if src_p.proc == dst_p.proc || edge.data <= EPS {
            // Local or free edge: plain precedence (recorded hops, if any,
            // are meaningless — the validator ignores them too).
            add_dep(&mut acts, edge.src.index(), edge.dst.index(), 0.0);
            continue;
        }
        hops.clear();
        hops.extend(schedule.comms_for_edge(e).copied());
        hops.sort_by(|a, b| a.start.total_cmp(&b.start));
        if hops.is_empty() {
            if model.is_one_port() {
                return Err(ExecError::MissingCommunication(e));
            }
            // Macro-dataflow implicit transfer: a pure delayed dependency.
            let link = platform.link(src_p.proc, dst_p.proc);
            if !link.is_finite() {
                return Err(ExecError::MissingLink {
                    edge: e,
                    from: src_p.proc,
                    to: dst_p.proc,
                });
            }
            let delay = platform.comm_time(edge.data, src_p.proc, dst_p.proc)
                * sampler.link_factor(src_p.proc, dst_p.proc);
            acts[edge.src.index()].dependents.push(Dependent {
                act: edge.dst.index(),
                delay,
                outage: sampler.outage(src_p.proc, dst_p.proc),
            });
            acts[edge.dst.index()].deps += 1;
            continue;
        }
        let chained = hops.first().map(|h| h.from) == Some(src_p.proc)
            && hops.last().map(|h| h.to) == Some(dst_p.proc)
            && hops.windows(2).all(|w| w[0].to == w[1].from);
        if !chained {
            return Err(ExecError::BrokenCommChain(e));
        }
        let mut prev = edge.src.index();
        for h in &hops {
            let link = platform.link(h.from, h.to);
            if !link.is_finite() {
                return Err(ExecError::MissingLink {
                    edge: e,
                    from: h.from,
                    to: h.to,
                });
            }
            let duration =
                platform.comm_time(edge.data, h.from, h.to) * sampler.link_factor(h.from, h.to);
            let id = acts.len();
            acts.push(Activity {
                kind: ActKind::Comm {
                    edge: e,
                    from: h.from,
                    to: h.to,
                },
                static_start: h.start,
                duration,
                // zero-duration hops (zero-latency links) occupy nothing;
                // the validator skips them too
                claims: if duration <= EPS {
                    Vec::new()
                } else {
                    claim_ids(&model.comm_claims(h.from, h.to), n_procs)
                },
                deps: 0,
                dependents: Vec::new(),
                outage: sampler.outage(h.from, h.to),
                retry_queued: false,
                priority: (0, h.start, id as u32),
                started: false,
                start: 0.0,
                done: false,
            });
            add_dep(&mut acts, prev, id, 0.0);
            prev = id;
        }
        add_dep(&mut acts, prev, edge.dst.index(), 0.0);
    }

    // -- resources: static service order per claimed resource ------------
    let mut resources: Vec<Resource> = (0..3 * n_procs)
        .map(|_| Resource {
            order: Vec::new(),
            next: 0,
            holder: None,
        })
        .collect();
    for (i, a) in acts.iter().enumerate() {
        for &r in &a.claims {
            resources[r as usize].order.push(i as u32);
        }
    }
    for r in &mut resources {
        r.order.sort_by(|&a, &b| {
            acts[a as usize]
                .static_start
                .total_cmp(&acts[b as usize].static_start)
                .then(a.cmp(&b))
        });
    }
    // Per-activity position within each claimed resource's order (aligned
    // with `claims`), for O(1) head checks.
    let mut positions: Vec<Vec<u32>> = vec![Vec::new(); acts.len()];
    for (ri, r) in resources.iter().enumerate() {
        for (idx, &a) in r.order.iter().enumerate() {
            let a = a as usize;
            let slot = acts[a].claims.iter().position(|&c| c as usize == ri);
            // `r.order` was filled by iterating each activity's claims, so
            // the reverse lookup must succeed.
            let Some(slot) = slot else {
                return Err(ExecError::Internal("claims and orders agree"));
            };
            let pos = &mut positions[a];
            pos.resize(acts[a].claims.len(), 0);
            pos[slot] = idx as u32;
        }
    }

    // -- the event loop ---------------------------------------------------
    let mut queue = EventQueue::new();
    let total = acts.len();
    let mut executed = 0usize;
    // Ready-but-unstarted activities, kept sorted by `priority` (only the
    // dynamic policy consults the order; StaticOrder gates on heads).
    let mut ready: Vec<u32> = Vec::new();
    for i in 0..acts.len() {
        if acts[i].deps == 0 {
            push_ready(&mut ready, &acts, i as u32);
        }
    }

    let mut now = 0.0f64;
    let mut events_processed: u64 = 0;
    loop {
        // Start everything startable at the current time, in ready order.
        let mut i = 0;
        while i < ready.len() {
            let a = ready[i] as usize;
            if can_start(a, &acts, &resources, &positions, cfg.policy) {
                if let Some(o) = acts[a].outage {
                    if now >= o.start && now < o.end {
                        // Link down: hold the transfer until the window ends.
                        if !acts[a].retry_queued {
                            acts[a].retry_queued = true;
                            queue.push(o.end, EventKind::Retry(a));
                        }
                        i += 1;
                        continue;
                    }
                }
                // Runtime acquisition check: the §2 exclusivity constraints
                // (one transfer per port, compute exclusivity) must hold at
                // every acquisition, exactly as the static validator
                // demands. Both policies guarantee it by construction, so a
                // violation here is an engine bug, never bad input.
                for &r in &acts[a].claims {
                    let res = &mut resources[r as usize];
                    assert!(
                        res.holder.is_none(),
                        "resource {r} acquired while held (engine invariant broken)"
                    );
                    res.holder = Some(a as u32);
                }
                acts[a].started = true;
                acts[a].start = now;
                queue.push(now + acts[a].duration, EventKind::Finish(a));
                ready.remove(i);
            } else {
                i += 1;
            }
        }

        // Advance the clock: drain every event at the next time point, so
        // the start pass above sees the complete state of that instant
        // (ListDynamic then picks among *all* activities ready at t).
        let Some((t, first)) = queue.pop() else { break };
        now = t;
        let mut next = Some(first);
        while let Some(kind) = next {
            events_processed += 1;
            match kind {
                EventKind::Finish(a) => {
                    acts[a].done = true;
                    executed += 1;
                    for &r in &acts[a].claims {
                        let res = &mut resources[r as usize];
                        assert_eq!(res.holder, Some(a as u32), "release by non-holder");
                        res.holder = None;
                        if res.order.get(res.next).copied() == Some(a as u32) {
                            res.next += 1;
                        }
                    }
                    let dependents = std::mem::take(&mut acts[a].dependents);
                    for d in &dependents {
                        if d.delay > 0.0 {
                            // an implicit transfer cannot start inside its
                            // link's outage window
                            let depart = match d.outage {
                                Some(o) if t >= o.start && t < o.end => o.end,
                                _ => t,
                            };
                            queue.push(depart + d.delay, EventKind::DepReady(d.act));
                        } else {
                            acts[d.act].deps -= 1;
                            if acts[d.act].deps == 0 {
                                push_ready(&mut ready, &acts, d.act as u32);
                            }
                        }
                    }
                    acts[a].dependents = dependents;
                }
                EventKind::DepReady(b) => {
                    acts[b].deps -= 1;
                    if acts[b].deps == 0 {
                        push_ready(&mut ready, &acts, b as u32);
                    }
                }
                EventKind::Retry(a) => {
                    acts[a].retry_queued = false;
                    // back into the ready pass above (it never left `ready`)
                }
            }
            next = if queue.peek_time() == Some(t) {
                queue.pop().map(|(_, k)| k)
            } else {
                None
            };
        }
    }

    if executed < total {
        return Err(ExecError::Stalled { executed, total });
    }

    // -- seal the trace ---------------------------------------------------
    let mut trace = ExecutionTrace::with_tasks(n_tasks);
    for a in &acts {
        let (start, finish) = (a.start, a.start + a.duration);
        match a.kind {
            ActKind::Task(task) => trace.record_task(TaskPlacement {
                task,
                proc: schedule
                    .task(task)
                    .ok_or(ExecError::UnplacedTask(task))?
                    .proc,
                start,
                finish,
            }),
            ActKind::Comm { edge, from, to } => trace.record_comm(CommPlacement {
                edge,
                from,
                to,
                start,
                finish,
            }),
        }
    }
    trace.canonicalize();
    let executed_makespan = trace.makespan();
    let trace_fingerprint = trace_fingerprint(&trace);
    Ok(ExecReport {
        trace,
        static_makespan,
        executed_makespan,
        trace_fingerprint,
        events_processed,
    })
}

/// The dense resource ids ([`Claim::index`]) of the timelines `claims`
/// names — the table schedule construction reads too, so a replay
/// excludes exactly what the pool excluded.
fn claim_ids(claims: &[Claim], n_procs: usize) -> Vec<u32> {
    claims.iter().map(|c| c.index(n_procs) as u32).collect()
}

/// Insert `a` into the ready list at its `priority` position (ties cannot
/// happen — the third key component is the unique activity id).
fn push_ready(ready: &mut Vec<u32>, acts: &[Activity], a: u32) {
    let lt = |x: &(u8, f64, u32), y: &(u8, f64, u32)| {
        x.0.cmp(&y.0)
            .then(x.1.total_cmp(&y.1))
            .then(x.2.cmp(&y.2))
            .is_lt()
    };
    let key = acts[a as usize].priority;
    let at = ready.partition_point(|&b| lt(&acts[b as usize].priority, &key));
    ready.insert(at, a);
}

/// Whether activity `a` may start now: prerequisites done, plus the
/// policy's resource discipline — StaticOrder demands `a` be the next in
/// every claimed resource's static order; ListDynamic only demands the
/// resources be free.
fn can_start(
    a: usize,
    acts: &[Activity],
    resources: &[Resource],
    positions: &[Vec<u32>],
    policy: DispatchPolicy,
) -> bool {
    debug_assert_eq!(acts[a].deps, 0);
    if acts[a].started {
        return false;
    }
    match policy {
        DispatchPolicy::StaticOrder => acts[a]
            .claims
            .iter()
            .zip(&positions[a])
            .all(|(&r, &pos)| resources[r as usize].next == pos as usize),
        DispatchPolicy::ListDynamic => acts[a]
            .claims
            .iter()
            .all(|&r| resources[r as usize].holder.is_none()),
    }
}

/// Replay `schedule` with zero perturbation under [`DispatchPolicy::StaticOrder`]
/// and report every activity that executed *later* than recorded (beyond
/// `tol`) — the runtime counterpart of `onesched_sim::validate`.
///
/// A schedule that satisfies every §2 constraint replays within its
/// recorded times (greedy schedulers replay bit-exactly; pass `tol = 0.0`
/// for integral-time instances like the paper testbeds); a schedule that
/// overlaps a port, understates a duration, or starts a transfer before
/// its data exists is *forced past its recorded times* by the engine's
/// runtime resource acquisition — which is how the violation surfaces
/// here. Executing *earlier* than recorded is not a violation: a valid
/// schedule may simply contain idle slack an eager replay reclaims.
pub fn check_replay(
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    schedule: &Schedule,
    tol: f64,
) -> Vec<ReplayViolation> {
    let report = match execute(g, platform, model, schedule, &ExecConfig::replay()) {
        Ok(r) => r,
        Err(e) => return vec![ReplayViolation::Infeasible(e)],
    };
    let mut out = Vec::new();
    for v in g.tasks() {
        // `execute` succeeded, so every task has both a recorded placement
        // and an executed one; a gap means the engine itself misbehaved.
        let (Some(rec), Some(ex)) = (schedule.task(v), report.trace.task(v)) else {
            out.push(ReplayViolation::Infeasible(ExecError::Internal(
                "replayed trace covers every placed task",
            )));
            continue;
        };
        if ex.start > rec.start + tol || ex.finish > rec.finish + tol {
            out.push(ReplayViolation::TaskDrift {
                task: v,
                recorded: (rec.start, rec.finish),
                executed: (ex.start, ex.finish),
            });
        }
    }
    // Executed hops are canonical; compare against the schedule's hops in
    // the same canonical order.
    let recorded = ExecutionTrace::from_schedule(schedule);
    let mut executed: Vec<&CommPlacement> = report.trace.comms().iter().collect();
    // Local/zero edges drop their (meaningless) recorded hops at execution;
    // compare only hops of edges the engine transferred.
    let transferred: std::collections::BTreeSet<u32> = executed.iter().map(|c| c.edge.0).collect();
    let rec_hops: Vec<&CommPlacement> = recorded
        .comms()
        .iter()
        .filter(|c| transferred.contains(&c.edge.0))
        .collect();
    debug_assert_eq!(rec_hops.len(), executed.len());
    // The canonical sort is by executed start; re-pair by (edge, route) so
    // drifted hops still line up with their recorded counterpart.
    let key = |c: &CommPlacement| (c.edge.0, c.from.0, c.to.0);
    executed.sort_by_key(|c| key(c));
    let mut rec_hops = rec_hops;
    rec_hops.sort_by_key(|c| key(c));
    for (rec, ex) in rec_hops.iter().zip(&executed) {
        if ex.start > rec.start + tol || ex.finish > rec.finish + tol {
            out.push(ReplayViolation::CommDrift {
                edge: rec.edge,
                recorded: (rec.start, rec.finish),
                executed: (ex.start, ex.finish),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_heuristics::{Heft, Ilha, Scheduler};
    use onesched_sim::validate;

    fn toy() -> (TaskGraph, Platform) {
        (onesched_testbeds::toy(), Platform::homogeneous(2))
    }

    #[test]
    fn zero_noise_replay_is_bit_exact_under_all_models() {
        let (g, p) = toy();
        for model in CommModel::ALL {
            for sched in [
                Heft::new().schedule(&g, &p, model),
                Ilha::new(8).schedule(&g, &p, model),
            ] {
                let rep = execute(&g, &p, model, &sched, &ExecConfig::replay()).unwrap();
                assert_eq!(rep.executed_makespan, sched.makespan(), "model {model}");
                assert_eq!(
                    rep.trace_fingerprint,
                    trace_fingerprint(&ExecutionTrace::from_schedule(&sched)),
                    "model {model}: replay must be bit-exact"
                );
                assert_eq!(rep.degradation(), 1.0);
                assert!(check_replay(&g, &p, model, &sched, 0.0).is_empty());
            }
        }
    }

    #[test]
    fn list_dynamic_executes_valid_traces() {
        let (g, p) = toy();
        for model in CommModel::ALL {
            let sched = Heft::new().schedule(&g, &p, model);
            let cfg = ExecConfig {
                policy: DispatchPolicy::ListDynamic,
                ..ExecConfig::replay()
            };
            let rep = execute(&g, &p, model, &sched, &cfg).unwrap();
            assert!(rep.trace.is_complete());
            // the executed trace is itself a valid schedule of the model
            // (durations are exact at zero noise)
            let as_sched = rep.trace.to_schedule();
            assert!(
                validate(&g, &p, model, &as_sched).is_empty(),
                "model {model}: dynamic execution violated the model"
            );
        }
    }

    #[test]
    fn perturbed_runs_are_seed_deterministic() {
        let (g, p) = toy();
        let sched = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        let cfg = ExecConfig {
            policy: DispatchPolicy::StaticOrder,
            perturb: Perturbation {
                task_sigma: 0.3,
                bw_degradation: 0.4,
                outage_prob: 0.5,
                outage_frac: 0.1,
            },
            seed: 42,
        };
        let a = execute(&g, &p, CommModel::OnePortBidir, &sched, &cfg).unwrap();
        let b = execute(&g, &p, CommModel::OnePortBidir, &sched, &cfg).unwrap();
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        let c = execute(
            &g,
            &p,
            CommModel::OnePortBidir,
            &sched,
            &ExecConfig { seed: 43, ..cfg },
        )
        .unwrap();
        assert_ne!(
            a.trace_fingerprint, c.trace_fingerprint,
            "a different seed must perturb differently"
        );
        // perturbed executions still satisfy the runtime port exclusivity:
        // the executed trace has no overlapping port usage
        let as_sched = a.trace.to_schedule();
        let port_violations: Vec<_> = validate(&g, &p, CommModel::OnePortBidir, &as_sched)
            .into_iter()
            .filter(|v| {
                matches!(
                    v,
                    onesched_sim::ScheduleViolation::SendOverlap { .. }
                        | onesched_sim::ScheduleViolation::RecvOverlap { .. }
                )
            })
            .collect();
        assert!(port_violations.is_empty(), "{port_violations:?}");
    }

    #[test]
    fn degradation_grows_with_noise() {
        let (g, p) = toy();
        let sched = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        let run = |sigma: f64| {
            let cfg = ExecConfig {
                policy: DispatchPolicy::StaticOrder,
                perturb: Perturbation::noise(sigma),
                seed: 5,
            };
            execute(&g, &p, CommModel::OnePortBidir, &sched, &cfg)
                .unwrap()
                .degradation()
        };
        assert_eq!(run(0.0), 1.0);
        assert!(run(0.5) != 1.0, "noise must move the makespan");
    }

    #[test]
    fn outage_delays_transfers() {
        // a(1) on P0 -> b(1) on P1, data 2: transfer occupies [1, 3).
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2);
        let sched = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
        let base = execute(
            &g,
            &p,
            CommModel::OnePortBidir,
            &sched,
            &ExecConfig::replay(),
        )
        .unwrap()
        .executed_makespan;
        // An outage covering the transfer's start must push everything out.
        let cfg = ExecConfig {
            policy: DispatchPolicy::StaticOrder,
            perturb: Perturbation {
                outage_prob: 1.0,
                outage_frac: 0.5,
                ..Perturbation::none()
            },
            seed: 0,
        };
        let hit = execute(&g, &p, CommModel::OnePortBidir, &sched, &cfg).unwrap();
        // With prob 1 every link has an outage; the transfer start can only
        // move later, never earlier.
        assert!(hit.executed_makespan >= base);
        assert!(hit.trace.is_complete());
    }

    #[test]
    fn macro_implicit_transfers_honor_outages() {
        // a(1) on P0 -> c(1) on P1, data 2, no explicit hop: macro-dataflow
        // delivers implicitly. The implicit transfer cannot depart inside
        // the link's outage window, just like an explicit hop.
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2);
        let mut s = Schedule::with_tasks(2);
        s.place_task(TaskPlacement {
            task: a,
            proc: ProcId(0),
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: c,
            proc: ProcId(1),
            start: 3.0,
            finish: 4.0,
        });
        let perturb = Perturbation {
            outage_prob: 1.0,
            outage_frac: 0.4,
            ..Perturbation::none()
        };
        let seed = 5;
        let cfg = ExecConfig {
            policy: DispatchPolicy::StaticOrder,
            perturb,
            seed,
        };
        let rep = execute(&g, &p, CommModel::MacroDataflow, &s, &cfg).unwrap();
        // reproduce the engine's own draw to compute the exact expectation
        let sampler = PerturbSampler::new(perturb, seed, s.makespan());
        let o = sampler.outage(ProcId(0), ProcId(1)).expect("prob 1");
        let depart = if (o.start..o.end).contains(&1.0) {
            o.end
        } else {
            1.0
        };
        let sink = rep.trace.task(c).unwrap();
        assert_eq!(sink.start, depart + 2.0, "delivery counts from departure");
    }

    #[test]
    fn corrupted_durations_are_caught() {
        let (g, p) = toy();
        let m = CommModel::OnePortBidir;
        let sched = Heft::new().schedule(&g, &p, m);
        // understate one task's duration: the engine uses the platform's
        // true duration, so the finish drifts off the recorded value
        let mut bad = Schedule::with_tasks(g.num_tasks());
        for (i, tp) in sched.task_placements().enumerate() {
            let mut tp = *tp;
            if i == 0 {
                tp.finish = tp.start + (tp.finish - tp.start) * 0.5;
            }
            bad.place_task(tp);
        }
        for c in sched.comms() {
            bad.place_comm(*c);
        }
        let v = check_replay(&g, &p, m, &bad, 1e-9);
        assert!(
            v.iter()
                .any(|x| matches!(x, ReplayViolation::TaskDrift { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn missing_comm_is_infeasible_under_one_port() {
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        let g = b.build().unwrap();
        let p = Platform::homogeneous(2);
        let mut s = Schedule::with_tasks(2);
        s.place_task(TaskPlacement {
            task: a,
            proc: ProcId(0),
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: c,
            proc: ProcId(1),
            start: 3.0,
            finish: 4.0,
        });
        assert_eq!(
            execute(&g, &p, CommModel::OnePortBidir, &s, &ExecConfig::replay()).unwrap_err(),
            ExecError::MissingCommunication(EdgeId(0))
        );
        // ...but macro-dataflow delivers implicitly and replays bit-exact
        let rep = execute(&g, &p, CommModel::MacroDataflow, &s, &ExecConfig::replay()).unwrap();
        assert_eq!(rep.executed_makespan, 4.0);
        assert!(check_replay(&g, &p, CommModel::MacroDataflow, &s, 0.0).is_empty());
    }

    #[test]
    fn unplaced_task_is_infeasible() {
        let (g, p) = toy();
        let s = Schedule::with_tasks(g.num_tasks());
        let v = check_replay(&g, &p, CommModel::OnePortBidir, &s, 0.0);
        assert!(matches!(
            v[0],
            ReplayViolation::Infeasible(ExecError::UnplacedTask(_))
        ));
    }

    #[test]
    fn port_overlap_forces_drift() {
        // one source fans out to two remote children; the (corrupt)
        // schedule claims both sends run concurrently on P0's send port.
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let d = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        b.add_edge(a, d, 2.0).unwrap();
        let g = b.build().unwrap();
        let p = Platform::homogeneous(3);
        let mut s = Schedule::with_tasks(3);
        s.place_task(TaskPlacement {
            task: a,
            proc: ProcId(0),
            start: 0.0,
            finish: 1.0,
        });
        for (e, to, task) in [(EdgeId(0), ProcId(1), c), (EdgeId(1), ProcId(2), d)] {
            s.place_comm(CommPlacement {
                edge: e,
                from: ProcId(0),
                to,
                start: 1.0,
                finish: 3.0,
            });
            s.place_task(TaskPlacement {
                task,
                proc: to,
                start: 3.0,
                finish: 4.0,
            });
        }
        // macro-dataflow: no port, replays bit-exact
        assert!(check_replay(&g, &p, CommModel::MacroDataflow, &s, 0.0).is_empty());
        // one-port: the second send must wait for the port -> drift
        let v = check_replay(&g, &p, CommModel::OnePortBidir, &s, 1e-9);
        assert!(
            v.iter()
                .any(|x| matches!(x, ReplayViolation::CommDrift { .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, ReplayViolation::TaskDrift { .. })),
            "the delayed delivery must drag its sink task along: {v:?}"
        );
    }

    #[test]
    fn unidir_shared_port_serializes_send_and_recv() {
        // P1 receives [1,3) and (claims to) send [2,4): legal bidir,
        // serialized unidir.
        let mut b = onesched_dag::TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let d = b.add_task(1.0);
        let e2 = b.add_task(1.0);
        b.add_edge(a, e2, 2.0).unwrap();
        b.add_edge(c, d, 2.0).unwrap();
        let g = b.build().unwrap();
        let p = Platform::homogeneous(3);
        let mut s = Schedule::with_tasks(4);
        s.place_task(TaskPlacement {
            task: a,
            proc: ProcId(0),
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: c,
            proc: ProcId(1),
            start: 0.0,
            finish: 1.0,
        });
        s.place_comm(CommPlacement {
            edge: EdgeId(0),
            from: ProcId(0),
            to: ProcId(1),
            start: 1.0,
            finish: 3.0,
        });
        s.place_comm(CommPlacement {
            edge: EdgeId(1),
            from: ProcId(1),
            to: ProcId(2),
            start: 2.0,
            finish: 4.0,
        });
        s.place_task(TaskPlacement {
            task: e2,
            proc: ProcId(1),
            start: 3.0,
            finish: 4.0,
        });
        s.place_task(TaskPlacement {
            task: d,
            proc: ProcId(2),
            start: 4.0,
            finish: 5.0,
        });
        assert!(check_replay(&g, &p, CommModel::OnePortBidir, &s, 0.0).is_empty());
        let v = check_replay(&g, &p, CommModel::OnePortUnidir, &s, 1e-9);
        assert!(!v.is_empty(), "shared port must force a shift");
    }

    #[test]
    fn policy_names_roundtrip() {
        for pol in [DispatchPolicy::StaticOrder, DispatchPolicy::ListDynamic] {
            assert_eq!(DispatchPolicy::parse(pol.name()), Ok(pol));
        }
        assert!(DispatchPolicy::parse("eager").is_err());
    }
}
