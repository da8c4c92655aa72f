//! Per-processor resource state with transactional tentative placement.
//!
//! One-port HEFT must evaluate *every* candidate processor for the selected
//! task, and each evaluation schedules the task's incoming communications on
//! the senders' ports (paper §4.3). Candidate evaluations must not disturb
//! each other, so placements are staged in a [`Txn`] that overlays the base
//! [`ResourcePool`]; only the winning candidate is committed.
//!
//! Every activity occupies exactly the timelines it must find free — the
//! [`CommModel::comm_claims`] / [`CommModel::task_claims`] table — so each
//! slot search is a fixpoint over at most two timelines in every model.

use crate::interval::GapCursor;
use crate::{Claim, CommModel, Port, TimeInterval, Timeline, EPS};
use onesched_platform::ProcId;

/// The committed resource state: three timelines per processor (compute
/// core, send port, receive port, indexed by [`Claim::index`]), of which
/// each model uses the ones its claims name.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    model: CommModel,
    timelines: Vec<Timeline>,
    /// Per processor: end of the last committed computation (append-only
    /// placement starts no earlier).
    horizon: Vec<f64>,
}

impl ResourcePool {
    /// Empty pool for `p` processors under `model`.
    pub fn new(p: usize, model: CommModel) -> ResourcePool {
        ResourcePool {
            model,
            timelines: vec![Timeline::new(); 3 * p],
            horizon: vec![0.0; p],
        }
    }

    /// The communication model this pool enforces.
    #[inline]
    pub fn model(&self) -> CommModel {
        self.model
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.horizon.len()
    }

    /// The committed timeline a task on `p` claims first: `p`'s compute
    /// core, or under no-overlap its send port, which also holds its
    /// computations. A task needs a free slot there, so the timeline's
    /// gaps bound the task's start from below.
    pub fn compute_timeline(&self, p: ProcId) -> &Timeline {
        self.timeline(self.model.task_claims(p)[0])
    }

    /// The committed timeline a transfer from `p` claims at `p`: its send
    /// port (the shared port under uni-directional one-port).
    pub fn send_timeline(&self, p: ProcId) -> &Timeline {
        let port = self.model.comm_ports().map_or(Port::Send, |(send, _)| send);
        self.timeline(Claim::new(port, p))
    }

    /// The committed timeline a transfer into `p` claims at `p`: its
    /// receive port (the shared port under uni-directional one-port).
    pub fn recv_timeline(&self, p: ProcId) -> &Timeline {
        let port = self.model.comm_ports().map_or(Port::Recv, |(_, recv)| recv);
        self.timeline(Claim::new(port, p))
    }

    /// End of the last committed computation on `p`.
    pub fn compute_horizon(&self, p: ProcId) -> f64 {
        self.horizon[p.index()]
    }

    /// Begin staging placements on top of the committed state.
    pub fn begin(&self) -> Txn<'_> {
        self.begin_with(TxnBuffers::default())
    }

    /// [`ResourcePool::begin`] reusing the buffers of a previous
    /// transaction (see [`Txn::into_buffers`]) — the candidate-evaluation
    /// loop runs thousands of short-lived transactions, and recycling their
    /// allocations is a measurable win.
    pub fn begin_with(&self, bufs: TxnBuffers) -> Txn<'_> {
        let mut bufs = bufs;
        bufs.added.clear();
        bufs.next.clear();
        bufs.views.clear();
        bufs.horizons.clear();
        Txn { pool: self, bufs }
    }

    /// Apply placements staged in a [`Txn`] (via [`Txn::finish`]) to the
    /// committed state. Returns the transaction's buffers for
    /// [`ResourcePool::begin_with`].
    pub fn commit(&mut self, staged: StagedPlacements) -> TxnBuffers {
        let n = self.num_procs();
        for &(claim, iv) in &staged.bufs.added {
            self.timelines[claim.index(n)].occupy(iv.start, iv.duration());
        }
        self.raise_horizons(&staged.bufs.horizons);
        staged.bufs
    }

    /// Apply staged placements like [`ResourcePool::commit`], but grouped
    /// per resource and bulk-inserted through [`Timeline::occupy_batch`]:
    /// one chunk merge and metadata pass per touched timeline instead of one
    /// per interval. ILHA's step 1 stages a whole chunk of
    /// zero-communication placements in a single transaction and commits
    /// them here, amortizing the former per-placement `occupy` cost.
    pub fn commit_batch(&mut self, staged: StagedPlacements) -> TxnBuffers {
        let n = self.num_procs();
        let mut bufs = staged.bufs;
        let TxnBuffers {
            added,
            batch,
            horizons,
            ..
        } = &mut bufs;
        added.sort_by_key(|&(claim, _)| claim.index(n));
        let mut i = 0;
        while i < added.len() {
            let claim = added[i].0;
            batch.clear();
            while i < added.len() && added[i].0 == claim {
                batch.push(added[i].1);
                i += 1;
            }
            self.timelines[claim.index(n)].occupy_batch(batch);
        }
        self.raise_horizons(horizons);
        bufs
    }

    fn raise_horizons(&mut self, staged: &[(ProcId, f64)]) {
        for &(p, end) in staged {
            let h = &mut self.horizon[p.index()];
            *h = h.max(end);
        }
    }

    fn timeline(&self, claim: Claim) -> &Timeline {
        &self.timelines[claim.index(self.num_procs())]
    }
}

/// The placements staged by a finished [`Txn`], detached from the pool
/// borrow so they can be committed with [`ResourcePool::commit`].
#[derive(Debug, Clone)]
pub struct StagedPlacements {
    bufs: TxnBuffers,
}

impl StagedPlacements {
    /// Discard the placements, returning their storage for
    /// [`ResourcePool::begin_with`].
    pub fn into_buffers(self) -> TxnBuffers {
        self.bufs
    }
}

/// The backing storage of a [`Txn`], recycled through
/// [`ResourcePool::begin_with`].
///
/// Staged intervals are indexed by claimed timeline through intrusive
/// chains (`next`/`views`): a fixpoint pass of [`Txn::earliest_comm_slot`]
/// walks only the handful of intervals staged on the queried timeline
/// instead of rescanning every staged interval of the transaction. Each
/// timeline also keeps a gap cursor into its committed state, so
/// successive searches of one transaction — the fixpoint's repeated
/// rounds, then the next message and the compute slot — resume where the
/// last one stopped instead of searching the timeline again from the front.
#[derive(Debug, Clone, Default)]
pub struct TxnBuffers {
    /// Staged intervals in insertion (= commit) order.
    added: Vec<(Claim, TimeInterval)>,
    /// `next[i]`: index of the next staged interval on the same timeline,
    /// or [`NO_ENTRY`].
    next: Vec<u32>,
    /// One entry per distinct timeline the transaction staged on or
    /// searched (a handful: an activity claims one or two).
    views: Vec<ViewState>,
    /// Per processor computed on: end of the last staged computation.
    horizons: Vec<(ProcId, f64)>,
    /// [`ResourcePool::commit_batch`]'s per-timeline batch.
    batch: Vec<TimeInterval>,
}

/// Chain terminator for the staged-interval index.
const NO_ENTRY: u32 = u32::MAX;

/// What a transaction knows about one claimed timeline: the head and tail
/// of the chain of intervals staged on it ([`NO_ENTRY`] when none), and
/// where the last gap search stopped in its committed state.
#[derive(Debug, Clone, Copy)]
struct ViewState {
    claim: Claim,
    head: u32,
    tail: u32,
    cursor: GapCursor,
}

/// A staged set of placements overlaying a [`ResourcePool`].
///
/// All queries see both the committed state and the staged additions, so a
/// scheduler can serialize several incoming messages for one candidate task
/// correctly (two messages from the same sender contend for that sender's
/// send port even before commit). See [`TxnBuffers`] for how the staged
/// intervals and the searches of committed timelines are indexed.
#[derive(Debug, Clone)]
pub struct Txn<'a> {
    pool: &'a ResourcePool,
    bufs: TxnBuffers,
}

impl<'a> Txn<'a> {
    /// Number of staged intervals.
    pub fn num_staged(&self) -> usize {
        self.bufs.added.len()
    }

    /// The committed pool this transaction overlays.
    #[inline]
    pub fn pool(&self) -> &'a ResourcePool {
        self.pool
    }

    /// Consume the transaction, releasing its borrow of the pool and
    /// returning the staged placements for [`ResourcePool::commit`].
    pub fn finish(self) -> StagedPlacements {
        StagedPlacements { bufs: self.bufs }
    }

    /// Abandon the transaction, returning its backing storage for reuse
    /// with [`ResourcePool::begin_with`]. Nothing is committed.
    pub fn into_buffers(self) -> TxnBuffers {
        self.bufs
    }

    /// Index of the state of `claim` in `views`, created on first use.
    #[inline]
    fn view(&mut self, claim: Claim) -> usize {
        if let Some(i) = self.bufs.views.iter().position(|v| v.claim == claim) {
            return i;
        }
        self.bufs.views.push(ViewState {
            claim,
            head: NO_ENTRY,
            tail: NO_ENTRY,
            cursor: GapCursor::default(),
        });
        self.bufs.views.len() - 1
    }

    /// Record a staged interval under its timeline's chain.
    fn stage(&mut self, claim: Claim, iv: TimeInterval) {
        let idx = self.bufs.added.len() as u32;
        self.bufs.added.push((claim, iv));
        self.bufs.next.push(NO_ENTRY);
        let v = self.view(claim);
        let Some(view) = self.bufs.views.get_mut(v) else {
            return;
        };
        match self.bufs.next.get_mut(view.tail as usize) {
            Some(link) => *link = idx,
            None => view.head = idx,
        }
        view.tail = idx;
    }

    /// Whether any interval is staged on `claim`'s timeline.
    #[inline]
    fn has_staged(&self, claim: Claim) -> bool {
        self.bufs
            .views
            .iter()
            .any(|v| v.claim == claim && v.head != NO_ENTRY)
    }

    /// The staged intervals of the chain starting at `head`, in staging order.
    fn chain(&self, head: u32) -> impl Iterator<Item = TimeInterval> + '_ {
        let mut cursor = head;
        std::iter::from_fn(move || {
            let &(_, iv) = self.bufs.added.get(cursor as usize)?;
            cursor = self
                .bufs
                .next
                .get(cursor as usize)
                .copied()
                .unwrap_or(NO_ENTRY);
            Some(iv)
        })
    }

    /// Earliest `t >= after` such that `[t, t + dur)` is free on every
    /// claimed timeline (at most two).
    ///
    /// `pre_cleared`: claim index already known to admit a slot at exactly
    /// `after` (committed timeline *and* staged chain), letting the caller
    /// reuse a previously computed single-timeline gap as a verified start.
    fn earliest_in_views(
        &mut self,
        claims: &[Claim],
        after: f64,
        dur: f64,
        pre_cleared: Option<usize>,
    ) -> f64 {
        let mut t = after;
        if dur <= EPS {
            return t;
        }
        // Each timeline's state, looked up once for all rounds.
        let mut slots = [0usize; 2];
        debug_assert!(claims.len() <= slots.len());
        for (slot, &claim) in slots.iter_mut().zip(claims) {
            *slot = self.view(claim);
        }
        // `cleared[v]`: the timeline already admitted a free slot at
        // exactly the current `t`, so re-querying it would return `t`
        // again — the final confirmation round touches only timelines that
        // have not been queried since `t` last moved.
        let mut cleared = [f64::NAN; 2];
        if let Some(c) = pre_cleared.and_then(|v| cleared.get_mut(v)) {
            *c = t;
        }
        loop {
            let mut moved = false;
            for (&slot, clear) in slots.iter().zip(cleared.iter_mut()).take(claims.len()) {
                if *clear == t {
                    continue;
                }
                let Some(view) = self.bufs.views.get_mut(slot) else {
                    continue;
                };
                // earliest free slot in this timeline alone (chunk-skips
                // packed regions), resumed where its last search stopped;
                // alternating to a fixpoint yields the earliest slot free
                // in every claimed timeline simultaneously.
                let g = self
                    .pool
                    .timeline(view.claim)
                    .earliest_gap_from(&mut view.cursor, t, dur);
                let head = view.head;
                if g > t {
                    t = g;
                    moved = true;
                }
                let after_timeline = t;
                for iv in self.chain(head) {
                    let probe = TimeInterval::new(t, dur);
                    if iv.overlaps(&probe) && iv.end > t {
                        t = iv.end;
                        moved = true;
                    }
                }
                // The timeline query verifies its returned slot by
                // construction, so the timeline admits `t` unless the
                // *staged chain* moved it (a chain bump leaves the
                // committed part unverified at the new `t`).
                *clear = if t == after_timeline { t } else { f64::NAN };
            }
            if !moved {
                return t;
            }
        }
    }

    /// Earliest start `>= after` for a transfer of `dur` time units from
    /// `src` to `dst`, respecting the pool's communication model.
    ///
    /// Local transfers (`src == dst`) and zero-duration transfers start at
    /// `after` unconditionally.
    pub fn earliest_comm_slot(&mut self, src: ProcId, dst: ProcId, after: f64, dur: f64) -> f64 {
        if src == dst || dur <= EPS {
            return after;
        }
        let claims = self.pool.model.comm_claims(src, dst);
        self.earliest_in_views(&claims, after, dur, None)
    }

    /// [`Txn::earliest_comm_slot`] for a caller that already knows the
    /// committed `send_timeline(src)` is free for `dur` at `send_free`
    /// (typically from a memoized `Timeline::earliest_gap` on it). When
    /// the search starts exactly there and this transaction has nothing
    /// staged on that timeline, it is pre-verified and its first fixpoint
    /// query is skipped.
    pub fn earliest_comm_slot_seeded(
        &mut self,
        src: ProcId,
        dst: ProcId,
        after: f64,
        dur: f64,
        send_free: f64,
    ) -> f64 {
        if src == dst || dur <= EPS {
            return after.max(send_free);
        }
        let start = after.max(send_free);
        let claims = self.pool.model.comm_claims(src, dst);
        let send_clear = claims
            .first()
            .is_some_and(|&send| start == send_free && !self.has_staged(send))
            .then_some(0);
        self.earliest_in_views(&claims, start, dur, send_clear)
    }

    /// Stage a transfer `[start, start + dur)` from `src` to `dst` on the
    /// timelines it claims ([`CommModel::comm_claims`]). Local or
    /// zero-duration transfers stage nothing, and under
    /// [`CommModel::MacroDataflow`] nothing is staged at all (ports are
    /// unlimited, so transfers never occupy a resource).
    pub fn add_comm(&mut self, src: ProcId, dst: ProcId, start: f64, dur: f64) {
        if src == dst || dur <= EPS {
            return;
        }
        let iv = TimeInterval::new(start, dur);
        for &claim in self.pool.model.comm_claims(src, dst).iter() {
            self.stage(claim, iv);
        }
    }

    /// Earliest start `>= after` for a computation of `dur` on `p`.
    ///
    /// With `insertion = true` the task may fill an idle gap between already
    /// placed tasks (classical insertion-based HEFT); with `false` it can
    /// only start after every computation already placed on `p`
    /// (append-only).
    pub fn earliest_compute_slot(
        &mut self,
        p: ProcId,
        after: f64,
        dur: f64,
        insertion: bool,
    ) -> f64 {
        let claims = self.pool.model.task_claims(p);
        let mut t = after;
        if !insertion {
            t = t.max(self.pool.compute_horizon(p));
            if let Some(&(_, end)) = self.bufs.horizons.iter().find(|h| h.0 == p) {
                t = t.max(end);
            }
        }
        self.earliest_in_views(&claims, t, dur, None)
    }

    /// Stage a computation `[start, start + dur)` on `p`, on the timelines
    /// it claims ([`CommModel::task_claims`]).
    pub fn add_compute(&mut self, p: ProcId, start: f64, dur: f64) {
        if dur <= EPS {
            return;
        }
        let iv = TimeInterval::new(start, dur);
        for &claim in self.pool.model.task_claims(p).iter() {
            self.stage(claim, iv);
        }
        match self.bufs.horizons.iter_mut().find(|h| h.0 == p) {
            Some(h) => h.1 = h.1.max(iv.end),
            None => self.bufs.horizons.push((p, iv.end)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);
    const P2: ProcId = ProcId(2);

    #[test]
    fn macro_dataflow_ignores_ports() {
        let pool = ResourcePool::new(3, CommModel::MacroDataflow);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 10.0);
        // a second transfer from P0 can start immediately: unlimited ports
        assert_eq!(txn.earliest_comm_slot(P0, P2, 0.0, 10.0), 0.0);
    }

    #[test]
    fn bidir_serializes_sends() {
        let pool = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        let s = txn.earliest_comm_slot(P0, P1, 0.0, 4.0);
        assert_eq!(s, 0.0);
        txn.add_comm(P0, P1, s, 4.0);
        // same sender, different receiver: must wait for the send port
        assert_eq!(txn.earliest_comm_slot(P0, P2, 0.0, 4.0), 4.0);
        // different sender to different receiver: free
        assert_eq!(txn.earliest_comm_slot(P1, P2, 0.0, 4.0), 0.0);
    }

    #[test]
    fn bidir_serializes_receives() {
        let pool = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_comm(P0, P2, 0.0, 4.0);
        // different sender, same receiver: wait for the receive port
        assert_eq!(txn.earliest_comm_slot(P1, P2, 0.0, 4.0), 4.0);
    }

    #[test]
    fn bidir_allows_simultaneous_send_and_receive() {
        let pool = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 4.0);
        // P1 can send while receiving under the bidirectional model
        assert_eq!(txn.earliest_comm_slot(P1, P2, 0.0, 4.0), 0.0);
    }

    #[test]
    fn unidir_forbids_simultaneous_send_and_receive() {
        let pool = ResourcePool::new(3, CommModel::OnePortUnidir);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 4.0);
        // P1's single port is busy receiving
        assert_eq!(txn.earliest_comm_slot(P1, P2, 0.0, 4.0), 4.0);
    }

    #[test]
    fn no_overlap_blocks_compute_during_comm() {
        let pool = ResourcePool::new(2, CommModel::OnePortNoOverlap);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 4.0);
        assert_eq!(txn.earliest_compute_slot(P0, 0.0, 2.0, true), 4.0);
        assert_eq!(txn.earliest_compute_slot(P1, 0.0, 2.0, true), 4.0);
        // ... and compute blocks communication
        txn.add_compute(P0, 4.0, 2.0);
        assert_eq!(txn.earliest_comm_slot(P0, P1, 4.0, 1.0), 6.0);
    }

    #[test]
    fn overlap_models_compute_during_comm() {
        let pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 4.0);
        assert_eq!(txn.earliest_compute_slot(P0, 0.0, 2.0, true), 0.0);
    }

    #[test]
    fn local_and_zero_comms_are_free() {
        let pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 100.0);
        assert_eq!(txn.earliest_comm_slot(P0, P0, 3.0, 50.0), 3.0);
        assert_eq!(txn.earliest_comm_slot(P0, P1, 3.0, 0.0), 3.0);
        assert_eq!(txn.num_staged(), 2, "local/zero comms stage nothing");
    }

    #[test]
    fn insertion_vs_append_compute() {
        let mut pool = ResourcePool::new(1, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_compute(P0, 0.0, 2.0);
        txn.add_compute(P0, 10.0, 2.0);
        pool.commit(txn.finish());
        let mut txn = pool.begin();
        // insertion finds the [2, 10) gap
        assert_eq!(txn.earliest_compute_slot(P0, 0.0, 3.0, true), 2.0);
        // append-only goes after the horizon
        assert_eq!(txn.earliest_compute_slot(P0, 0.0, 3.0, false), 12.0);
    }

    #[test]
    fn append_sees_staged_compute() {
        let pool = ResourcePool::new(1, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_compute(P0, 0.0, 2.0);
        txn.add_compute(P0, 5.0, 2.0);
        // append-only must clear BOTH staged intervals, not just the pool's
        assert_eq!(txn.earliest_compute_slot(P0, 0.0, 1.0, false), 7.0);
    }

    #[test]
    fn commit_persists_staged_intervals() {
        let mut pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 5.0);
        txn.add_compute(P1, 5.0, 3.0);
        pool.commit(txn.finish());
        assert_eq!(pool.send_timeline(P0).busy_time(), 5.0);
        assert_eq!(pool.recv_timeline(P1).busy_time(), 5.0);
        assert_eq!(pool.compute_timeline(P1).busy_time(), 3.0);
        assert_eq!(pool.compute_horizon(P1), 8.0);
        // a fresh txn sees the committed state
        let mut txn = pool.begin();
        assert_eq!(txn.earliest_comm_slot(P0, P1, 0.0, 1.0), 5.0);
    }

    #[test]
    fn commit_batch_matches_commit() {
        // Stage an identical multi-proc, multi-port transaction twice and
        // commit one per-interval, one batched: the pools must agree.
        let stage_all = |pool: &ResourcePool| {
            let mut txn = pool.begin();
            for i in 0..40u32 {
                let proc = ProcId(i % 3);
                let ready = f64::from(i / 3) * 5.0;
                let s = txn.earliest_compute_slot(proc, ready, 2.0, true);
                txn.add_compute(proc, s, 2.0);
            }
            let c = txn.earliest_comm_slot(P0, P1, 0.0, 3.0);
            txn.add_comm(P0, P1, c, 3.0);
            txn.finish()
        };
        let mut one_by_one = ResourcePool::new(3, CommModel::OnePortBidir);
        let mut batched = ResourcePool::new(3, CommModel::OnePortBidir);
        let a = stage_all(&one_by_one);
        let b = stage_all(&batched);
        one_by_one.commit(a);
        batched.commit_batch(b);
        for p in [P0, P1, P2] {
            assert_eq!(
                one_by_one.compute_timeline(p).to_vec(),
                batched.compute_timeline(p).to_vec(),
                "{p} compute"
            );
            assert_eq!(
                one_by_one.send_timeline(p).to_vec(),
                batched.send_timeline(p).to_vec()
            );
            assert_eq!(
                one_by_one.recv_timeline(p).to_vec(),
                batched.recv_timeline(p).to_vec()
            );
        }
    }

    #[test]
    fn discarding_txn_leaves_pool_untouched() {
        let pool = ResourcePool::new(2, CommModel::OnePortBidir);
        {
            let mut txn = pool.begin();
            txn.add_comm(P0, P1, 0.0, 5.0);
            // dropped without commit
        }
        let mut txn = pool.begin();
        assert_eq!(txn.earliest_comm_slot(P0, P1, 0.0, 1.0), 0.0);
    }

    #[test]
    fn staged_intervals_interact_within_txn() {
        let pool = ResourcePool::new(4, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        // Three messages into P3 from different senders must serialize on
        // P3's receive port even before commit (paper Figure 1 phenomenon).
        for src in [0u32, 1, 2] {
            let s = txn.earliest_comm_slot(ProcId(src), ProcId(3), 0.0, 2.0);
            txn.add_comm(ProcId(src), ProcId(3), s, 2.0);
        }
        assert_eq!(txn.earliest_comm_slot(P0, ProcId(3), 0.0, 2.0), 6.0);
    }

    #[test]
    fn staged_chains_cover_many_keys() {
        // Exercise the (port, proc) index with interleaved staging across
        // several distinct resources within one transaction.
        let pool = ResourcePool::new(6, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        for round in 0..3 {
            for src in 0..5u32 {
                let s = txn.earliest_comm_slot(ProcId(src), ProcId(5), 0.0, 1.0);
                txn.add_comm(ProcId(src), ProcId(5), s, 1.0);
                assert_eq!(s, (round * 5 + src) as f64, "receive port serializes");
            }
        }
        assert_eq!(txn.num_staged(), 30);
        // every sender's send port carries its own three staged intervals
        for src in 0..5u32 {
            let dst = if src == 4 { ProcId(3) } else { ProcId(4) };
            let s = txn.earliest_comm_slot(ProcId(src), dst, 0.0, 15.0);
            assert_eq!(s, 11.0 + f64::from(src), "send chain consulted");
        }
    }

    #[test]
    fn searches_resume_and_restart_within_one_txn() {
        // both ports busy [0,2), [4,6), [8,10)
        let mut pool = ResourcePool::new(2, CommModel::OnePortBidir);
        let mut txn = pool.begin();
        for s in [0.0, 4.0, 8.0] {
            txn.add_comm(P0, P1, s, 2.0);
        }
        let bufs = pool.commit(txn.finish());
        let mut txn = pool.begin_with(bufs);
        // later searches resume past the gaps already passed ...
        assert_eq!(txn.earliest_comm_slot(P0, P1, 5.0, 2.0), 6.0);
        assert_eq!(txn.earliest_comm_slot(P0, P1, 7.0, 2.0), 10.0);
        // ... and an earlier one restarts and still finds them
        assert_eq!(txn.earliest_comm_slot(P0, P1, 0.0, 2.0), 2.0);
        assert_eq!(txn.earliest_comm_slot(P0, P1, 0.0, 3.0), 10.0);
    }

    #[test]
    fn fixpoint_search_handles_interleaved_conflicts() {
        let mut pool = ResourcePool::new(2, CommModel::OnePortBidir);
        // send port of P0 busy [0,2) and [3,5); recv port of P1 busy [2,3).
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 0.0, 2.0);
        pool.commit(txn.finish());
        let mut txn = pool.begin();
        txn.add_comm(P0, P1, 3.0, 2.0);
        // 1-unit transfer P0 -> P1: [2,3) blocked? send free [2,3), recv free
        // -> fits at 2.
        assert_eq!(txn.earliest_comm_slot(P0, P1, 0.0, 1.0), 2.0);
        // 2-unit transfer: [2,4) hits staged [3,5) on send; next free is 5.
        assert_eq!(txn.earliest_comm_slot(P0, P1, 0.0, 2.0), 5.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const PROCS: u32 = 4;

    /// One placed activity of the brute-force reference.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        Comm {
            src: u32,
            dst: u32,
            iv: TimeInterval,
        },
        Task {
            p: u32,
            iv: TimeInterval,
        },
    }

    impl Act {
        fn iv(&self) -> TimeInterval {
            match *self {
                Act::Comm { iv, .. } | Act::Task { iv, .. } => iv,
            }
        }
    }

    /// Whether two activities may not run at once under `model`, by the
    /// validator's per-model rules: computations on one processor are
    /// serialised; under every one-port model sends are serialised and
    /// receives are serialised; under uni-directional one-port a
    /// processor's sends and receives share one port; under no-overlap a
    /// computation excludes every transfer of its processor.
    fn exclusive(model: CommModel, a: Act, b: Act) -> bool {
        match (a, b) {
            (Act::Task { p, .. }, Act::Task { p: q, .. }) => p == q,
            (Act::Comm { src, dst, .. }, Act::Comm { src: s, dst: d, .. }) => {
                model.is_one_port()
                    && (src == s || dst == d || (model.shared_port() && (src == d || dst == s)))
            }
            (Act::Task { p, .. }, Act::Comm { src, dst, .. })
            | (Act::Comm { src, dst, .. }, Act::Task { p, .. }) => {
                model.excludes_compute() && (p == src || p == dst)
            }
        }
    }

    fn conflicts(model: CommModel, placed: &[Act], act: Act) -> bool {
        placed
            .iter()
            .any(|&b| exclusive(model, act, b) && act.iv().overlaps(&b.iv()))
    }

    /// Brute force: the earliest of `after` and every activity end past it
    /// at which `make(start)` conflicts with nothing placed. Every slot
    /// search answers with one of these candidates.
    fn reference(model: CommModel, placed: &[Act], after: f64, make: impl Fn(f64) -> Act) -> f64 {
        let mut starts: Vec<f64> = placed
            .iter()
            .map(|a| a.iv().end)
            .filter(|&end| end > after)
            .collect();
        starts.push(after);
        starts.sort_by(f64::total_cmp);
        starts
            .into_iter()
            .find(|&t| !conflicts(model, placed, make(t)))
            .expect("the latest end is always free")
    }

    /// `(comm?, a, b, start, dur)` drafts (a transfer `a → b` when the
    /// first field is 1 and `a != b`, else a task on `a`); each is kept
    /// only if it conflicts with none kept before it, so the set is a
    /// valid state.
    fn valid_state(model: CommModel, drafts: &[(u8, u32, u32, u32, u32)]) -> Vec<Act> {
        let mut placed = Vec::new();
        for &(comm, a, b, start, dur) in drafts {
            let iv = TimeInterval::new(f64::from(start), f64::from(dur));
            let act = if comm == 1 && a != b {
                Act::Comm { src: a, dst: b, iv }
            } else {
                Act::Task { p: a, iv }
            };
            if !conflicts(model, &placed, act) {
                placed.push(act);
            }
        }
        placed
    }

    fn stage(txn: &mut Txn<'_>, act: Act) {
        match act {
            Act::Comm { src, dst, iv } => {
                txn.add_comm(ProcId(src), ProcId(dst), iv.start, iv.duration())
            }
            Act::Task { p, iv } => txn.add_compute(ProcId(p), iv.start, iv.duration()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under every model, the comm and compute slot searches of a
        /// transaction over a committed pool return exactly the
        /// brute-force earliest start that breaks none of the validator's
        /// rules against the committed and the staged activities.
        #[test]
        fn slot_searches_match_brute_force(
            drafts in proptest::collection::vec((0u8..2, 0..PROCS, 0..PROCS, 0u32..60, 1u32..8), 0..60),
            split in 0.0f64..1.0,
            batched in 0u8..2,
            queries in proptest::collection::vec((0..PROCS, 0..PROCS, 0u32..70, 1u32..10, 0u8..2), 1..12),
        ) {
            for model in CommModel::ALL {
                check_slot_searches(model, &drafts, split, batched == 1, &queries);
            }
        }
    }

    fn check_slot_searches(
        model: CommModel,
        drafts: &[(u8, u32, u32, u32, u32)],
        split: f64,
        batched: bool,
        queries: &[(u32, u32, u32, u32, u8)],
    ) {
        let placed = valid_state(model, drafts);
        let (committed, staged) = placed.split_at((placed.len() as f64 * split) as usize);
        let mut pool = ResourcePool::new(PROCS as usize, model);
        let mut txn = pool.begin();
        for &act in committed {
            stage(&mut txn, act);
        }
        let done = txn.finish();
        if batched {
            pool.commit_batch(done);
        } else {
            pool.commit(done);
        }
        let mut txn = pool.begin();
        for &act in staged {
            stage(&mut txn, act);
        }
        for &(a, b, after, dur, insertion) in queries {
            let (after, dur, insertion) = (f64::from(after), f64::from(dur), insertion == 1);
            if a != b {
                let (src, dst) = (ProcId(a), ProcId(b));
                let want = reference(model, &placed, after, |t| Act::Comm {
                    src: a,
                    dst: b,
                    iv: TimeInterval::new(t, dur),
                });
                let ctx = format!("{model}: comm {a}->{b} after {after} dur {dur}");
                assert_eq!(txn.earliest_comm_slot(src, dst, after, dur), want, "{ctx}");
                let send_free = pool.send_timeline(src).earliest_gap(after, dur);
                let seeded = txn.earliest_comm_slot_seeded(src, dst, after, dur, send_free);
                assert_eq!(seeded, want, "{ctx}, seeded");
            }
            // append-only starts past every computation on the processor
            let floor = placed
                .iter()
                .filter_map(|act| match *act {
                    Act::Task { p, iv } if p == a && !insertion => Some(iv.end),
                    _ => None,
                })
                .fold(after, f64::max);
            let want = reference(model, &placed, floor, |t| Act::Task {
                p: a,
                iv: TimeInterval::new(t, dur),
            });
            assert_eq!(
                txn.earliest_compute_slot(ProcId(a), after, dur, insertion),
                want,
                "{model}: compute on {a} after {after} dur {dur} insertion {insertion}"
            );
        }
    }
}
