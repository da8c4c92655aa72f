//! The placement engine: tentatively place one task, plus its incoming
//! communications, on a candidate processor, and pick the candidate with
//! the earliest finish.
//!
//! This implements the §4.3 evaluation step: "in addition to scheduling the
//! selected task we must also schedule eventual incoming communications …
//! we can assign the new communications as early as possible, in a greedy
//! fashion", together with its extension to networks where some processor
//! pairs lack a direct link: "if there is no direct link from P2 to P1, we
//! redo the previous step for all intermediate messages between adjacent
//! processors". Every message walks its static route from the platform's
//! [`RoutingTable`] hop by hop, store-and-forward, each hop as early as
//! possible on its own send and receive ports. A direct link is a one-hop
//! route, so on a fully connected platform this is exactly the paper's
//! one-port placement. Relays use their communication ports only, not
//! their compute core (under [`onesched_sim::CommModel::OnePortNoOverlap`]
//! the relay hops do exclude computation on the relay processors, which
//! the resource pool enforces).
//!
//! HEFT, both steps of ILHA, and every baseline heuristic in
//! `onesched-baselines` place through this module. The platform owns the
//! routing table ([`Platform::routes`]); each public call reads it once
//! and hands the reference to the scan's helpers.

use crate::probe::ScanStats;
use onesched_dag::{EdgeId, TaskGraph, TaskId};
use onesched_platform::{Platform, ProcId, RoutingTable};
use onesched_sim::{
    CommPlacement, ResourcePool, Schedule, StagedPlacements, TaskPlacement, Txn, TxnBuffers, EPS,
};

/// How a task's incoming messages are ordered when they are greedily
/// serialized on the ports. The paper leaves the order unspecified; the
/// choice matters under one-port contention, so it is an ablation knob
/// (`experiments ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommOrder {
    /// Earliest parent finish time first (default: data available first is
    /// sent first).
    #[default]
    ByParentFinish,
    /// Largest message first.
    ByDataDesc,
    /// Smallest message first.
    ByDataAsc,
    /// Parent task id order (insertion order of the graph).
    ByParentId,
}

/// Compute-slot and communication-ordering policy for a placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementPolicy {
    /// Allow the task to fill idle gaps between already placed tasks
    /// (insertion-based list scheduling). When `false`, tasks are appended
    /// after the processor's current horizon.
    pub insertion: bool,
    /// Ordering of the incoming messages.
    pub comm_order: CommOrder,
}

impl PlacementPolicy {
    /// The default paper-faithful policy: insertion-based, messages in
    /// parent-finish order.
    pub fn paper() -> PlacementPolicy {
        PlacementPolicy {
            insertion: true,
            comm_order: CommOrder::ByParentFinish,
        }
    }
}

/// The outcome of tentatively placing a task on one candidate processor.
#[derive(Debug, Clone)]
pub struct TentativePlacement {
    /// The placed task.
    pub task: TaskId,
    /// The candidate processor.
    pub proc: ProcId,
    /// Task start time on the candidate.
    pub start: f64,
    /// Task finish time on the candidate (the EFT criterion).
    pub finish: f64,
    /// The incoming communications that the placement would schedule, one
    /// per hop of each routed message.
    pub comms: Vec<CommPlacement>,
    /// The staged resource occupancy, ready to commit if this candidate wins.
    pub staged: StagedPlacements,
}

impl TentativePlacement {
    /// Drop the placement, keeping its storage for another candidate.
    fn into_buffers(self) -> CandidateBufs {
        CandidateBufs {
            comms: self.comms,
            txn: self.staged.into_buffers(),
        }
    }
}

/// One incoming transfer of the task under placement:
/// `(parent finish, parent proc, data, edge id)`.
type Incoming = (f64, ProcId, f64, EdgeId);

/// Gather `task`'s incoming transfers and order them per `comm_order`.
/// The order depends only on the parents' placements, not on the candidate
/// processor, so [`best_placement`] computes it once for all candidates.
fn gather_incoming_into(
    incoming: &mut Vec<Incoming>,
    g: &TaskGraph,
    sched: &Schedule,
    task: TaskId,
    comm_order: CommOrder,
) {
    incoming.clear();
    incoming.extend(g.predecessors(task).map(|(parent, e)| {
        let p = sched
            .task(parent)
            .expect("all predecessors must be scheduled before placing a task");
        (p.finish, p.proc, g.data(e), e)
    }));
    match comm_order {
        CommOrder::ByParentFinish => {
            incoming.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.3.cmp(&b.3)));
        }
        CommOrder::ByDataDesc => incoming.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.3.cmp(&b.3))),
        CommOrder::ByDataAsc => incoming.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.3.cmp(&b.3))),
        CommOrder::ByParentId => incoming.sort_by_key(|x| x.3),
    }
}

/// The heap storage one candidate evaluation fills: its message list and
/// its transaction's buffers.
#[derive(Debug, Default)]
struct CandidateBufs {
    comms: Vec<CommPlacement>,
    txn: TxnBuffers,
}

impl CandidateBufs {
    /// The storage of a candidate abandoned mid-evaluation.
    fn abandon(txn: Txn<'_>, comms: Vec<CommPlacement>) -> CandidateBufs {
        CandidateBufs {
            comms,
            txn: txn.into_buffers(),
        }
    }
}

/// Candidate storage an [`EftScratch`] keeps. A scan holds at most two
/// candidates at once (the incumbent and the one under evaluation), and
/// the winner's storage comes back through [`EftScratch::commit`]; two
/// spares therefore serve every scan after the first.
const SPARE_CANDIDATES: usize = 2;

/// Keep `bufs` for a later candidate, unless enough are kept already.
fn recycle(spare: &mut Vec<CandidateBufs>, bufs: CandidateBufs) {
    if spare.len() < SPARE_CANDIDATES {
        spare.push(bufs);
    }
}

/// Reusable buffers for [`best_placement_with`] and [`stage_on`]: the
/// placement loop runs once per task, and per-task allocations were a
/// measurable slice of schedule construction. The schedulers carry one
/// scratch across their whole run and commit through
/// [`EftScratch::commit`], so every candidate's message list and
/// transaction reuse the storage of earlier ones and a warmed-up scan
/// allocates nothing. [`best_placement`] makes a fresh one for ad-hoc
/// callers.
#[derive(Debug, Default)]
pub struct EftScratch {
    incoming: Vec<Incoming>,
    order: Vec<(f64, ProcId)>,
    send_cache: Vec<(f64, f64)>,
    spare: Vec<CandidateBufs>,
    scan: ScanStats,
}

impl EftScratch {
    /// Cumulative scan counters over every [`best_placement_with`] call
    /// made with this scratch (pure bookkeeping: counting never alters
    /// which candidate wins). Schedulers report this to their
    /// [`crate::probe::Probe`] when construction ends.
    pub fn scan(&self) -> &ScanStats {
        &self.scan
    }

    /// [`commit_placement`], keeping the placement's storage for the next
    /// scan made with this scratch.
    pub fn commit(
        &mut self,
        pool: &mut ResourcePool,
        sched: &mut Schedule,
        tp: TentativePlacement,
    ) {
        let bufs = commit_into(pool, sched, tp);
        recycle(&mut self.spare, bufs);
    }

    /// Drop a placement that will not be committed, keeping its storage
    /// for the next scan made with this scratch.
    pub fn discard(&mut self, tp: TentativePlacement) {
        recycle(&mut self.spare, tp.into_buffers());
    }
}

/// Whether a candidate that can finish no earlier than `bound` could still
/// displace an incumbent finishing at `finish` on processor `best_proc`:
/// either a strictly better finish, or an exact tie won by the lower
/// processor id (the paper's tie-break).
#[inline]
fn can_still_win(bound: f64, proc: ProcId, finish: f64, best_proc: ProcId) -> bool {
    bound < finish - EPS || (bound <= finish + EPS && proc < best_proc)
}

/// Stage one message of `data` items from `src` to `dst`, available at
/// `src` from `available`, hop by hop along its static route: each hop as
/// early as possible on its ports and no earlier than the previous hop's
/// arrival. Records the hops in `comms` and returns the arrival at `dst`.
///
/// `send_memo` seeds the first hop's search with the committed send-port
/// gap of `src`, memoized across candidates (see
/// [`contention_disqualifies`]): the committed send port alone already
/// forbids anything earlier, so the search may start there instead of
/// walking up from `available`, and when it starts exactly there the send
/// view is pre-verified. The memo holds `(hop duration, gap end)`; the gap
/// depends on the candidate only through the first hop's duration.
///
/// # Panics
/// Panics if `dst` is unreachable from `src`: HEFT and ILHA reject such
/// platforms upfront with [`crate::RoutedError::Disconnected`].
#[allow(clippy::too_many_arguments)]
fn route_message(
    txn: &mut Txn<'_>,
    platform: &Platform,
    routes: &RoutingTable,
    comms: &mut Vec<CommPlacement>,
    edge: EdgeId,
    (src, dst): (ProcId, ProcId),
    data: f64,
    mut available: f64,
    mut send_memo: Option<&mut (f64, f64)>,
) -> f64 {
    let mut cur = src;
    while cur != dst {
        let to = routes
            .first_hop(cur, dst)
            .expect("no route between two processors: reject disconnected platforms first");
        let dur = platform.comm_time(data, cur, to);
        let start = match send_memo.take() {
            Some(memo) => {
                let send_free = if memo.0 == dur {
                    memo.1 - dur
                } else {
                    let gap = txn.pool().send_timeline(cur).earliest_gap(available, dur);
                    *memo = (dur, gap + dur);
                    gap
                };
                txn.earliest_comm_slot_seeded(cur, to, available, dur, send_free)
            }
            None => txn.earliest_comm_slot(cur, to, available, dur),
        };
        txn.add_comm(cur, to, start, dur);
        comms.push(CommPlacement {
            edge,
            from: cur,
            to,
            start,
            finish: start + dur,
        });
        available = start + dur;
        cur = to;
    }
    available
}

/// The candidate evaluation proper, with the incoming transfers already
/// gathered and ordered.
///
/// With `incumbent = Some((finish, proc))`, the evaluation is
/// branch-and-bound: the task's ready time only grows as messages are
/// scheduled, so as soon as `ready + exec` proves the candidate cannot
/// displace the incumbent the remaining messages are abandoned and the
/// transaction's buffers are handed back for reuse (`Err`). This is what
/// makes [`best_placement`] cheap — losing candidates pay for one or two
/// message placements instead of all of them. The hops are recorded in
/// `comms` (cleared first), so a recycled list allocates nothing.
#[allow(clippy::too_many_arguments, clippy::result_large_err)]
fn place_on_ordered(
    g: &TaskGraph,
    platform: &Platform,
    routes: &RoutingTable,
    mut txn: Txn<'_>,
    mut comms: Vec<CommPlacement>,
    task: TaskId,
    proc: ProcId,
    policy: PlacementPolicy,
    incoming: &[Incoming],
    send_cache: &mut [(f64, f64)],
    incumbent: Option<(f64, ProcId)>,
) -> Result<TentativePlacement, CandidateBufs> {
    let exec = platform.exec_time(g.weight(task), proc);
    let beaten = |ready: f64| {
        incumbent.is_some_and(|(finish, best_proc)| {
            !can_still_win(ready + exec, proc, finish, best_proc)
        })
    };
    let mut ready = 0.0f64;
    comms.clear();
    for (j, &(src_finish, src_proc, data, edge)) in incoming.iter().enumerate() {
        if src_proc == proc || data <= EPS {
            // Local or free edge: data is available when the parent finishes.
            ready = ready.max(src_finish);
            continue;
        }
        let arrival = route_message(
            &mut txn,
            platform,
            routes,
            &mut comms,
            edge,
            (src_proc, proc),
            data,
            src_finish,
            send_cache.get_mut(j),
        );
        ready = ready.max(arrival);
        if beaten(ready) {
            return Err(CandidateBufs::abandon(txn, comms));
        }
    }
    if beaten(ready) {
        // all-local candidate whose data-ready already loses
        return Err(CandidateBufs::abandon(txn, comms));
    }

    let start = txn.earliest_compute_slot(proc, ready, exec, policy.insertion);
    if beaten(start) {
        return Err(CandidateBufs::abandon(txn, comms));
    }
    txn.add_compute(proc, start, exec);
    Ok(TentativePlacement {
        task,
        proc,
        start,
        finish: start + exec,
        comms,
        staged: txn.finish(),
    })
}

/// Tentatively place `task` on `proc`, routing each incoming message along
/// its static route and scheduling every hop greedily (earliest possible
/// slot under the pool's communication model), then finding the earliest
/// compute slot.
///
/// Every predecessor of `task` must already be placed in `sched`.
/// The transaction is consumed; nothing is committed.
///
/// # Panics
/// Panics if some predecessor's processor cannot reach `proc`.
pub fn place_on(
    g: &TaskGraph,
    platform: &Platform,
    sched: &Schedule,
    txn: Txn<'_>,
    task: TaskId,
    proc: ProcId,
    policy: PlacementPolicy,
) -> TentativePlacement {
    let mut incoming = Vec::new();
    gather_incoming_into(&mut incoming, g, sched, task, policy.comm_order);
    let mut send_cache = vec![(f64::NAN, 0.0f64); incoming.len()];
    place_on_ordered(
        g,
        platform,
        platform.routes(),
        txn,
        Vec::new(),
        task,
        proc,
        policy,
        &incoming,
        &mut send_cache,
        None,
    )
    .unwrap_or_else(|_| unreachable!("unbounded placement always succeeds"))
}

/// Stage `task` on `proc` inside an *ongoing* transaction without finishing
/// it. Semantically identical to [`place_on`] evaluated against the
/// transaction's combined committed + staged state, minus the per-candidate
/// seeding optimizations (which only matter when many candidates are
/// compared).
///
/// ILHA's step 1 uses this to stage a whole chunk of zero-communication
/// placements in one transaction and batch-commit them together
/// (`ResourcePool::commit_batch`), amortizing the former per-placement
/// `occupy` cost. Returns the task placement and appends the staged hops
/// to `comms`; the caller records both in the schedule after committing.
/// `scratch` lends its incoming-message buffer, so staging allocates
/// nothing once warmed up.
#[allow(clippy::too_many_arguments)]
pub fn stage_on(
    g: &TaskGraph,
    platform: &Platform,
    sched: &Schedule,
    txn: &mut Txn<'_>,
    task: TaskId,
    proc: ProcId,
    policy: PlacementPolicy,
    scratch: &mut EftScratch,
    comms: &mut Vec<CommPlacement>,
) -> TaskPlacement {
    let incoming = &mut scratch.incoming;
    gather_incoming_into(incoming, g, sched, task, policy.comm_order);
    let routes = platform.routes();
    let mut ready = 0.0f64;
    for &(src_finish, src_proc, data, edge) in incoming.iter() {
        let arrival = if src_proc == proc || data <= EPS {
            src_finish
        } else {
            let route = (src_proc, proc);
            route_message(
                txn, platform, routes, comms, edge, route, data, src_finish, None,
            )
        };
        ready = ready.max(arrival);
    }
    let exec = platform.exec_time(g.weight(task), proc);
    let start = txn.earliest_compute_slot(proc, ready, exec, policy.insertion);
    txn.add_compute(proc, start, exec);
    TaskPlacement {
        task,
        proc,
        start,
        finish: start + exec,
    }
}

/// A cheap lower bound on the finish time `task` could achieve on `proc`,
/// ignoring the committed port state (which can only delay the task):
///
/// * per-message data-ready: a store-and-forward chain cannot deliver
///   earlier than the parent's finish plus `data × route_latency`, the sum
///   of its raw per-hop transfer times;
/// * receive-port serialization (one-port models only): every remote
///   message's *final* hop passes through `proc`'s receive resource one at
///   a time, and none can start before the earliest remote parent finish;
///   each takes `data × last_hop_latency`.
///
/// On a one-hop route both terms are the message's raw transfer time.
/// Used to order candidates best-first; [`contention_disqualifies`]
/// tightens it against the committed timelines before a full evaluation is
/// paid for.
#[inline]
fn quick_lower_bound(
    platform: &Platform,
    routes: &RoutingTable,
    one_port: bool,
    incoming: &[Incoming],
    weight: f64,
    proc: ProcId,
) -> f64 {
    let mut ready = 0.0f64;
    let mut total_final = 0.0f64;
    let mut first_remote = f64::INFINITY;
    for &(src_finish, src_proc, data, _) in incoming {
        if src_proc == proc || data <= EPS {
            ready = ready.max(src_finish);
        } else {
            ready = ready.max(src_finish + data * routes.route_latency(src_proc, proc));
            total_final += data * routes.last_hop_latency(src_proc, proc);
            first_remote = first_remote.min(src_finish);
        }
    }
    if one_port && total_final > 0.0 {
        ready = ready.max(first_remote + total_final);
    }
    ready + platform.exec_time(weight, proc)
}

/// A tighter lower bound that charges each term against the *committed*
/// resource state through [`Timeline::earliest_finish_of_work`] free-time
/// accounting (`Timeline` = `onesched_sim::Timeline`):
///
/// * each remote message's first hop needs a contiguous slot of its
///   duration on its sender's send port, none usable before the parent
///   finishes, and the rest of the route takes at least its raw
///   store-and-forward time;
/// * the remote messages' final hops together need their summed durations
///   on `proc`'s receive port, none usable before the earliest remote
///   parent finish;
/// * the task itself needs `exec` units of `proc`'s compute core after the
///   data is ready.
///
/// In the paper's communication-bound testbeds the committed ports are
/// nearly saturated, so these terms approach the true finish and prune most
/// candidates. A `(2 + messages × longest route)·EPS` slack absorbs the
/// scheduler's tolerance-based packing (each staged hop may overlap busy
/// intervals by up to `EPS`, so a candidate's true finish can undercut the
/// bound by roughly one `EPS` per staged hop).
///
/// Returns `true` as soon as any partial term already disqualifies the
/// candidate against the incumbent — the remaining (timeline-walking) terms
/// are then never computed.
#[allow(clippy::too_many_arguments)]
fn contention_disqualifies(
    platform: &Platform,
    routes: &RoutingTable,
    pool: &ResourcePool,
    one_port: bool,
    incoming: &[Incoming],
    send_cache: &mut [(f64, f64)],
    weight: f64,
    proc: ProcId,
    finish: f64,
    best_proc: ProcId,
) -> bool {
    let exec = platform.exec_time(weight, proc);
    let slack = (2 + incoming.len() * routes.max_hops()) as f64 * EPS;
    // `ready + exec - slack` is a finish lower bound throughout; check it
    // after every term so the first saturated resource ends the scan.
    let lost = |ready: f64| !can_still_win(ready + exec - slack, proc, finish, best_proc);

    let mut ready = 0.0f64;
    let mut total_final = 0.0f64;
    let mut first_remote = f64::INFINITY;
    for (j, &(src_finish, src_proc, data, _)) in incoming.iter().enumerate() {
        if src_proc == proc || data <= EPS {
            ready = ready.max(src_finish);
        } else {
            let chain = data * routes.route_latency(src_proc, proc);
            let arrival = if one_port {
                let Some(hop) = routes.first_hop(src_proc, proc) else {
                    return true; // unreachable: the message never arrives
                };
                // The first hop needs a *contiguous* `dur` on the sender's
                // send port. The term depends on the candidate only
                // through `dur`, so on uniform-link platforms one
                // computation serves every candidate (`send_cache` is
                // keyed by the message).
                let dur = platform.comm_time(data, src_proc, hop);
                let cached = send_cache.get(j).copied().unwrap_or((f64::NAN, 0.0));
                let sent = if cached.0 == dur {
                    cached.1
                } else {
                    let a = pool.send_timeline(src_proc).earliest_gap(src_finish, dur) + dur;
                    if let Some(c) = send_cache.get_mut(j) {
                        *c = (dur, a);
                    }
                    a
                };
                sent + (chain - dur)
            } else {
                src_finish + chain
            };
            ready = ready.max(arrival);
            total_final += data * routes.last_hop_latency(src_proc, proc);
            first_remote = first_remote.min(src_finish);
        }
        if lost(ready) {
            return true;
        }
    }
    if one_port && total_final > 0.0 {
        ready = ready.max(
            pool.recv_timeline(proc)
                .earliest_finish_of_work(first_remote, total_final),
        );
        if lost(ready) {
            return true;
        }
    }
    // the task itself needs a contiguous `exec` on the compute core
    let done = pool.compute_timeline(proc).earliest_gap(ready, exec) + exec;
    !can_still_win(done - slack, proc, finish, best_proc)
}

/// Commit a winning tentative placement: apply its staged occupancy to the
/// pool and record the task and communication placements in the schedule.
pub fn commit_placement(pool: &mut ResourcePool, sched: &mut Schedule, tp: TentativePlacement) {
    commit_into(pool, sched, tp);
}

/// [`commit_placement`], handing back the placement's emptied storage.
fn commit_into(
    pool: &mut ResourcePool,
    sched: &mut Schedule,
    tp: TentativePlacement,
) -> CandidateBufs {
    let TentativePlacement {
        task,
        proc,
        start,
        finish,
        mut comms,
        staged,
    } = tp;
    let txn = pool.commit(staged);
    for c in comms.drain(..) {
        sched.place_comm(c);
    }
    sched.place_task(TaskPlacement {
        task,
        proc,
        start,
        finish,
    });
    CandidateBufs { comms, txn }
}

/// Evaluate the processors for `task` and return the placement with the
/// earliest finish time (ties: lowest processor id, the paper's tie-break).
///
/// The scan is *pruned*: candidates are ordered by a quick lower bound
/// (best bound first, so the likely winner is evaluated early). Once an
/// incumbent exists, a candidate is skipped unless it could still (a)
/// strictly beat the incumbent or (b) tie it and win on the lower
/// processor id — first on its cheap bound, then on a contention bound
/// over the committed state. Survivors are evaluated message by message
/// and abort the moment they provably lose.
/// On the paper platform this skips most of the 10 candidates for most
/// tasks and returns the same placement as the exhaustive id-order scan
/// whenever distinct finish times differ by more than `EPS` — true of
/// every paper workload, where all times are integral (pinned by the
/// schedule-equivalence fixture and a pruned-vs-exhaustive proptest over
/// complete and routed platforms). Finish times packed inside a sub-`EPS`
/// band fall back to the same `EPS`-tolerant tie-break, which may resolve
/// an intransitive chain differently than the seed's fold order did.
pub fn best_placement(
    g: &TaskGraph,
    platform: &Platform,
    pool: &ResourcePool,
    sched: &Schedule,
    task: TaskId,
    policy: PlacementPolicy,
) -> TentativePlacement {
    best_placement_with(
        g,
        platform,
        pool,
        sched,
        task,
        policy,
        &mut EftScratch::default(),
    )
}

/// [`best_placement`] with caller-provided scratch buffers (reused across
/// tasks by the schedulers' main loops).
pub fn best_placement_with(
    g: &TaskGraph,
    platform: &Platform,
    pool: &ResourcePool,
    sched: &Schedule,
    task: TaskId,
    policy: PlacementPolicy,
    scratch: &mut EftScratch,
) -> TentativePlacement {
    let EftScratch {
        incoming,
        order,
        send_cache,
        spare,
        scan,
    } = scratch;
    gather_incoming_into(incoming, g, sched, task, policy.comm_order);
    let incoming = &*incoming;
    let routes = platform.routes();
    let weight = g.weight(task);
    let one_port = pool.model().is_one_port();
    order.clear();
    order.extend(platform.procs().map(|proc| {
        let bound = quick_lower_bound(platform, routes, one_port, incoming, weight, proc);
        (bound, proc)
    }));
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    send_cache.clear();
    send_cache.resize(incoming.len(), (f64::NAN, 0.0f64));

    let mut best: Option<TentativePlacement> = None;
    for &(bound, proc) in order.iter() {
        scan.candidates += 1;
        let incumbent = best.as_ref().map(|b| (b.finish, b.proc));
        if let Some((finish, best_proc)) = incumbent {
            if !can_still_win(bound, proc, finish, best_proc) {
                scan.pruned_bound += 1;
                continue;
            }
            if contention_disqualifies(
                platform, routes, pool, one_port, incoming, send_cache, weight, proc, finish,
                best_proc,
            ) {
                scan.pruned_contention += 1;
                continue;
            }
        }
        let bufs = spare.pop().unwrap_or_default();
        match place_on_ordered(
            g,
            platform,
            routes,
            pool.begin_with(bufs.txn),
            bufs.comms,
            task,
            proc,
            policy,
            incoming,
            send_cache,
            incumbent,
        ) {
            Err(bufs) => {
                // aborted mid-evaluation: provably cannot win
                recycle(spare, bufs);
                scan.aborted += 1;
            }
            Ok(tp) => {
                scan.evaluated += 1;
                let better = best
                    .as_ref()
                    .is_none_or(|b| can_still_win(tp.finish, tp.proc, b.finish, b.proc));
                let loser = if better { best.replace(tp) } else { Some(tp) };
                if let Some(loser) = loser {
                    recycle(spare, loser.into_buffers());
                }
            }
        }
    }
    best.expect("platform has at least one processor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesched_dag::TaskGraphBuilder;
    use onesched_sim::{CommModel, ResourcePool};

    /// fork: v0 -> v1, v2 with unit weights/data, 2 homogeneous procs.
    fn fork2() -> (TaskGraph, Platform) {
        let mut b = TaskGraphBuilder::new();
        let v0 = b.add_task(1.0);
        for _ in 0..2 {
            let c = b.add_task(1.0);
            b.add_edge(v0, c, 1.0).unwrap();
        }
        (b.build().unwrap(), Platform::homogeneous(2))
    }

    #[test]
    fn entry_task_placement() {
        let (g, p) = fork2();
        let pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let sched = Schedule::with_tasks(3);
        let tp = place_on(
            &g,
            &p,
            &sched,
            pool.begin(),
            TaskId(0),
            ProcId(0),
            PlacementPolicy::paper(),
        );
        assert_eq!(tp.start, 0.0);
        assert_eq!(tp.finish, 1.0);
        assert!(tp.comms.is_empty());
    }

    #[test]
    fn remote_child_pays_communication() {
        let (g, p) = fork2();
        let mut pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let mut sched = Schedule::with_tasks(3);
        let tp = place_on(
            &g,
            &p,
            &sched,
            pool.begin(),
            TaskId(0),
            ProcId(0),
            PlacementPolicy::paper(),
        );
        commit_placement(&mut pool, &mut sched, tp);
        // place child 1 on the other processor: 1 (parent) + 1 (comm) + 1 (exec)
        let tp = place_on(
            &g,
            &p,
            &sched,
            pool.begin(),
            TaskId(1),
            ProcId(1),
            PlacementPolicy::paper(),
        );
        assert_eq!(tp.comms.len(), 1);
        assert_eq!(tp.start, 2.0);
        assert_eq!(tp.finish, 3.0);
        // on the same processor: no comm, starts right after the parent
        let tp0 = place_on(
            &g,
            &p,
            &sched,
            pool.begin(),
            TaskId(1),
            ProcId(0),
            PlacementPolicy::paper(),
        );
        assert!(tp0.comms.is_empty());
        assert_eq!(tp0.start, 1.0);
    }

    #[test]
    fn best_placement_prefers_lower_id_on_tie() {
        let (g, p) = fork2();
        let pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let sched = Schedule::with_tasks(3);
        let tp = best_placement(&g, &p, &pool, &sched, TaskId(0), PlacementPolicy::paper());
        assert_eq!(tp.proc, ProcId(0));
    }

    #[test]
    fn one_port_serializes_sends_across_placements() {
        // both children remote: second child's message waits for the first
        let (g, p3) = {
            let mut b = TaskGraphBuilder::new();
            let v0 = b.add_task(1.0);
            for _ in 0..2 {
                let c = b.add_task(1.0);
                b.add_edge(v0, c, 2.0).unwrap();
            }
            (b.build().unwrap(), Platform::homogeneous(3))
        };
        let mut pool = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut sched = Schedule::with_tasks(3);
        let tp = place_on(
            &g,
            &p3,
            &sched,
            pool.begin(),
            TaskId(0),
            ProcId(0),
            PlacementPolicy::paper(),
        );
        commit_placement(&mut pool, &mut sched, tp);
        let tp1 = place_on(
            &g,
            &p3,
            &sched,
            pool.begin(),
            TaskId(1),
            ProcId(1),
            PlacementPolicy::paper(),
        );
        commit_placement(&mut pool, &mut sched, tp1);
        let tp2 = place_on(
            &g,
            &p3,
            &sched,
            pool.begin(),
            TaskId(2),
            ProcId(2),
            PlacementPolicy::paper(),
        );
        // send port of P0: [1,3) then [3,5); so task 2 starts at 5
        assert_eq!(tp2.start, 5.0);
        // under macro-dataflow both messages would go in parallel
        let mut mpool = ResourcePool::new(3, CommModel::MacroDataflow);
        let mut msched = Schedule::with_tasks(3);
        let tp = place_on(
            &g,
            &p3,
            &msched,
            mpool.begin(),
            TaskId(0),
            ProcId(0),
            PlacementPolicy::paper(),
        );
        commit_placement(&mut mpool, &mut msched, tp);
        let tp1 = place_on(
            &g,
            &p3,
            &msched,
            mpool.begin(),
            TaskId(1),
            ProcId(1),
            PlacementPolicy::paper(),
        );
        commit_placement(&mut mpool, &mut msched, tp1);
        let tp2m = place_on(
            &g,
            &p3,
            &msched,
            mpool.begin(),
            TaskId(2),
            ProcId(2),
            PlacementPolicy::paper(),
        );
        assert_eq!(tp2m.start, 3.0);
    }

    use onesched_dag::{TaskGraph, TaskId};

    #[test]
    fn comm_order_by_data_desc() {
        // join: two parents on different procs, different message sizes.
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let sink = b.add_task(1.0);
        b.add_edge(a, sink, 1.0).unwrap(); // small message
        b.add_edge(c, sink, 5.0).unwrap(); // large message
        let g = b.build().unwrap();
        let p = Platform::homogeneous(3);
        let mut pool = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut sched = Schedule::with_tasks(3);
        for (t, proc) in [(a, ProcId(0)), (c, ProcId(1))] {
            let tp = place_on(
                &g,
                &p,
                &sched,
                pool.begin(),
                t,
                proc,
                PlacementPolicy::paper(),
            );
            commit_placement(&mut pool, &mut sched, tp);
        }
        let pol = PlacementPolicy {
            insertion: true,
            comm_order: CommOrder::ByDataDesc,
        };
        let tp = place_on(&g, &p, &sched, pool.begin(), sink, ProcId(2), pol);
        // large message [1,6), small [1,2)?? both receive on P2: recv port
        // serializes: large [1,6), then small [6,7) -> ready 7.
        assert_eq!(tp.comms[0].finish - tp.comms[0].start, 5.0);
        assert_eq!(tp.start, 7.0);
        // small-first order: small [1,2), large [2,7) -> ready 7 as well
        let pol = PlacementPolicy {
            insertion: true,
            comm_order: CommOrder::ByDataAsc,
        };
        let tp2 = place_on(&g, &p, &sched, pool.begin(), sink, ProcId(2), pol);
        assert_eq!(tp2.start, 7.0);
        assert_eq!(tp2.comms[0].finish - tp2.comms[0].start, 1.0);
    }

    #[test]
    fn relay_chain_is_store_and_forward() {
        // Force a relay: two processors linked only through a hub; the
        // child must run on P2, so the message goes P1 -> P0 -> P2.
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 3.0).unwrap();
        let g = b.build().unwrap();
        let p = onesched_platform::topology::star(vec![1.0; 3], 1.0).unwrap();
        let pool = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut sched = Schedule::with_tasks(2);
        sched.place_task(TaskPlacement {
            task: a,
            proc: ProcId(1),
            start: 0.0,
            finish: 1.0,
        });
        let policy = PlacementPolicy::paper();
        let tp = place_on(&g, &p, &sched, pool.begin(), c, ProcId(2), policy);
        assert_eq!(tp.comms.len(), 2, "two hops through the hub");
        assert_eq!(tp.comms[0].from, ProcId(1));
        assert_eq!(tp.comms[0].to, ProcId(0));
        assert_eq!(tp.comms[1].from, ProcId(0));
        assert_eq!(tp.comms[1].to, ProcId(2));
        // store-and-forward: second hop starts after the first completes
        assert!(tp.comms[1].start >= tp.comms[0].finish - EPS);
        assert_eq!(tp.start, 7.0, "1 (task) + 3 + 3 (two hops of duration 3)");
    }

    #[test]
    fn pruned_scan_matches_exhaustive_on_star() {
        // hand-rolled equivalence check on one routed topology (the
        // proptest in tests/scheduler_properties.rs covers random ones)
        let g = onesched_testbeds::laplace(5, 3.0);
        let p = onesched_platform::topology::star(vec![1.0, 2.0, 1.0, 2.0, 1.0], 1.0).unwrap();
        let policy = PlacementPolicy::paper();
        for m in CommModel::ALL {
            let mut pool = ResourcePool::new(p.num_procs(), m);
            let mut sched = Schedule::with_tasks(g.num_tasks());
            for &task in onesched_dag::TopoOrder::new(&g).order() {
                let mut want: Option<TentativePlacement> = None;
                for proc in p.procs() {
                    let tp = place_on(&g, &p, &sched, pool.begin(), task, proc, policy);
                    if want.as_ref().is_none_or(|b| tp.finish < b.finish - EPS) {
                        want = Some(tp);
                    }
                }
                let want = want.unwrap();
                let got = best_placement(&g, &p, &pool, &sched, task, policy);
                assert_eq!(got.proc, want.proc, "{m}: task {task}");
                assert_eq!(got.start, want.start, "{m}: task {task}");
                assert_eq!(got.finish, want.finish, "{m}: task {task}");
                commit_placement(&mut pool, &mut sched, got);
            }
        }
    }
}
