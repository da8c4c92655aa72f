//! Per-processor resource state with transactional tentative placement.
//!
//! One-port HEFT must evaluate *every* candidate processor for the selected
//! task, and each evaluation schedules the task's incoming communications on
//! the senders' ports (paper §4.3). Candidate evaluations must not disturb
//! each other, so placements are staged in a [`Txn`] that overlays the base
//! [`ResourcePool`]; only the winning candidate is committed.

use crate::interval::GapCursor;
use crate::{CommModel, TimeInterval, Timeline, EPS};
use onesched_platform::ProcId;

/// Which per-processor resource an interval occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    Compute,
    Send,
    Recv,
}

/// A fixed-capacity set of `(port, processor)` busy views.
///
/// Returned by value so the innermost placement loops
/// ([`Txn::earliest_comm_slot`] runs once per candidate × message) never
/// allocate — the former `Vec` return showed up as the dominant allocation
/// site of schedule construction.
#[derive(Debug, Clone, Copy)]
struct Views {
    views: [(Port, ProcId); 4],
    len: usize,
}

impl Views {
    const fn new(views: &[(Port, ProcId)]) -> Views {
        let mut buf = [(Port::Compute, ProcId(0)); 4];
        let mut i = 0;
        while i < views.len() {
            buf[i] = views[i];
            i += 1;
        }
        Views {
            views: buf,
            len: views.len(),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[(Port, ProcId)] {
        &self.views[..self.len]
    }
}

/// The committed resource state: three timelines per processor
/// (compute core, send port, receive port).
#[derive(Debug, Clone)]
pub struct ResourcePool {
    model: CommModel,
    compute: Vec<Timeline>,
    send: Vec<Timeline>,
    recv: Vec<Timeline>,
}

impl ResourcePool {
    /// Empty pool for `p` processors under `model`.
    pub fn new(p: usize, model: CommModel) -> ResourcePool {
        ResourcePool {
            model,
            compute: vec![Timeline::new(); p],
            send: vec![Timeline::new(); p],
            recv: vec![Timeline::new(); p],
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
        self.compute.len()
    }

    /// The committed compute timeline of `p`.
    pub fn compute_timeline(&self, p: ProcId) -> &Timeline {
        &self.compute[p.index()]
    }

    /// The committed send-port timeline of `p`.
    pub fn send_timeline(&self, p: ProcId) -> &Timeline {
        &self.send[p.index()]
    }

    /// The committed receive-port timeline of `p`.
    pub fn recv_timeline(&self, p: ProcId) -> &Timeline {
        &self.recv[p.index()]
    }

    /// End of the last committed compute interval on `p`.
    pub fn compute_horizon(&self, p: ProcId) -> f64 {
        self.compute[p.index()].horizon()
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
        Txn { pool: self, bufs }
    }

    /// Apply placements staged in a [`Txn`] (via [`Txn::finish`]) to the
    /// committed state. Returns the transaction's buffers for
    /// [`ResourcePool::begin_with`].
    pub fn commit(&mut self, staged: StagedPlacements) -> TxnBuffers {
        for &(port, proc, iv) in &staged.bufs.added {
            let tl = match port {
                Port::Compute => &mut self.compute[proc.index()],
                Port::Send => &mut self.send[proc.index()],
                Port::Recv => &mut self.recv[proc.index()],
            };
            tl.occupy(iv.start, iv.duration());
        }
        staged.bufs
    }

    /// Apply staged placements like [`ResourcePool::commit`], but grouped
    /// per resource and bulk-inserted through [`Timeline::occupy_batch`]:
    /// one chunk merge and metadata pass per touched timeline instead of one
    /// per interval. ILHA's step 1 stages a whole chunk of
    /// zero-communication placements in a single transaction and commits
    /// them here, amortizing the former per-placement `occupy` cost.
    pub fn commit_batch(&mut self, staged: StagedPlacements) -> TxnBuffers {
        let mut bufs = staged.bufs;
        let TxnBuffers { added, batch, .. } = &mut bufs;
        added.sort_by(|a, b| (a.0 as u8).cmp(&(b.0 as u8)).then(a.1.cmp(&b.1)));
        let mut i = 0;
        while i < added.len() {
            let (port, proc, _) = added[i];
            batch.clear();
            while i < added.len() && added[i].0 == port && added[i].1 == proc {
                batch.push(added[i].2);
                i += 1;
            }
            let tl = match port {
                Port::Compute => &mut self.compute[proc.index()],
                Port::Send => &mut self.send[proc.index()],
                Port::Recv => &mut self.recv[proc.index()],
            };
            tl.occupy_batch(batch);
        }
        bufs
    }

    fn timeline(&self, port: Port, proc: ProcId) -> &Timeline {
        match port {
            Port::Compute => &self.compute[proc.index()],
            Port::Send => &self.send[proc.index()],
            Port::Recv => &self.recv[proc.index()],
        }
    }

    /// The busy views constraining a transfer `src -> dst` under `model`.
    fn comm_views(&self, src: ProcId, dst: ProcId) -> Views {
        match self.model {
            CommModel::MacroDataflow => Views::new(&[]),
            CommModel::OnePortBidir => Views::new(&[(Port::Send, src), (Port::Recv, dst)]),
            CommModel::OnePortUnidir => Views::new(&[
                (Port::Send, src),
                (Port::Recv, src),
                (Port::Send, dst),
                (Port::Recv, dst),
            ]),
            CommModel::OnePortNoOverlap => Views::new(&[
                (Port::Send, src),
                (Port::Recv, dst),
                (Port::Compute, src),
                (Port::Compute, dst),
            ]),
        }
    }

    /// The busy views constraining a computation on `p` under `model`.
    fn compute_views(&self, p: ProcId) -> Views {
        if self.model.excludes_compute() {
            Views::new(&[(Port::Compute, p), (Port::Send, p), (Port::Recv, p)])
        } else {
            Views::new(&[(Port::Compute, p)])
        }
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
/// Staged intervals are indexed by `(port, proc)` through intrusive chains
/// (`next`/`views`): a fixpoint pass of [`Txn::earliest_comm_slot`] walks
/// only the handful of intervals staged on the queried resource instead of
/// rescanning every staged interval of the transaction. Each resource also
/// keeps a gap cursor into its committed timeline, so successive
/// searches of one transaction — the fixpoint's repeated rounds, then the
/// next message and the compute slot — resume where the last one stopped
/// instead of searching the timeline again from the front.
#[derive(Debug, Clone, Default)]
pub struct TxnBuffers {
    /// Staged intervals in insertion (= commit) order.
    added: Vec<(Port, ProcId, TimeInterval)>,
    /// `next[i]`: index of the next staged interval on the same
    /// `(port, proc)`, or [`NO_ENTRY`].
    next: Vec<u32>,
    /// One entry per distinct `(port, proc)` the transaction staged on or
    /// searched (a handful: a message touches two or four resources).
    views: Vec<ViewState>,
    /// [`ResourcePool::commit_batch`]'s per-timeline batch.
    batch: Vec<TimeInterval>,
}

/// Chain terminator for the staged-interval index.
const NO_ENTRY: u32 = u32::MAX;

/// What a transaction knows about one `(port, proc)` resource: the head
/// and tail of the chain of intervals staged on it ([`NO_ENTRY`] when
/// none), and where the last gap search stopped in its committed timeline.
#[derive(Debug, Clone, Copy)]
struct ViewState {
    port: Port,
    proc: ProcId,
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

    /// Index of the state of `(port, proc)` in `views`, created on first use.
    #[inline]
    fn view(&mut self, port: Port, proc: ProcId) -> usize {
        if let Some(i) = self
            .bufs
            .views
            .iter()
            .position(|v| v.port == port && v.proc == proc)
        {
            return i;
        }
        self.bufs.views.push(ViewState {
            port,
            proc,
            head: NO_ENTRY,
            tail: NO_ENTRY,
            cursor: GapCursor::default(),
        });
        self.bufs.views.len() - 1
    }

    /// Record a staged interval under its `(port, proc)` chain.
    fn stage(&mut self, port: Port, proc: ProcId, iv: TimeInterval) {
        let idx = self.bufs.added.len() as u32;
        self.bufs.added.push((port, proc, iv));
        self.bufs.next.push(NO_ENTRY);
        let v = self.view(port, proc);
        let Some(view) = self.bufs.views.get_mut(v) else {
            return;
        };
        match self.bufs.next.get_mut(view.tail as usize) {
            Some(link) => *link = idx,
            None => view.head = idx,
        }
        view.tail = idx;
    }

    /// Head of the staged chain for `(port, proc)`, if any interval is
    /// staged there.
    #[inline]
    fn chain_head(&self, port: Port, proc: ProcId) -> Option<u32> {
        self.bufs
            .views
            .iter()
            .find(|v| v.port == port && v.proc == proc)
            .map(|v| v.head)
            .filter(|&h| h != NO_ENTRY)
    }

    /// The staged intervals of the chain starting at `head`, in staging order.
    fn chain(&self, head: u32) -> impl Iterator<Item = TimeInterval> + '_ {
        let mut cursor = head;
        std::iter::from_fn(move || {
            let &(_, _, iv) = self.bufs.added.get(cursor as usize)?;
            cursor = self
                .bufs
                .next
                .get(cursor as usize)
                .copied()
                .unwrap_or(NO_ENTRY);
            Some(iv)
        })
    }

    /// Earliest `t >= after` such that `[t, t + dur)` is free on every view.
    ///
    /// `pre_cleared`: view index already known to admit a slot at exactly
    /// `after` (committed timeline *and* staged chain), letting the caller
    /// reuse a previously computed single-view gap as a verified start.
    fn earliest_in_views(
        &mut self,
        views: &[(Port, ProcId)],
        after: f64,
        dur: f64,
        pre_cleared: Option<usize>,
    ) -> f64 {
        let mut t = after;
        if dur <= EPS {
            return t;
        }
        // Each view's state, looked up once for all rounds.
        let mut slots = [0usize; 4];
        debug_assert!(views.len() <= slots.len());
        for (slot, &(port, proc)) in slots.iter_mut().zip(views) {
            *slot = self.view(port, proc);
        }
        // `cleared[v]`: the view already admitted a free slot at exactly the
        // current `t`, so re-querying it would return `t` again — the final
        // confirmation round touches only views that have not been queried
        // since `t` last moved.
        let mut cleared = [f64::NAN; 4];
        if let Some(c) = pre_cleared.and_then(|v| cleared.get_mut(v)) {
            *c = t;
        }
        loop {
            let mut moved = false;
            for (&slot, clear) in slots.iter().zip(cleared.iter_mut()).take(views.len()) {
                if *clear == t {
                    continue;
                }
                let Some(view) = self.bufs.views.get_mut(slot) else {
                    continue;
                };
                // earliest free slot in this view alone (chunk-skips packed
                // regions), resumed where this view's last search stopped;
                // alternating to a fixpoint yields the earliest slot free in
                // every view simultaneously.
                let g = self.pool.timeline(view.port, view.proc).earliest_gap_from(
                    &mut view.cursor,
                    t,
                    dur,
                );
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
                // construction, so the view admits `t` unless the *staged
                // chain* moved it (a chain bump leaves the timeline part
                // unverified at the new `t`).
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
        let views = self.pool.comm_views(src, dst);
        self.earliest_in_views(views.as_slice(), after, dur, None)
    }

    /// [`Txn::earliest_comm_slot`] for a caller that already knows the
    /// committed send port of `src` is free for `dur` at `send_free`
    /// (typically from a memoized `Timeline::earliest_gap` on
    /// `send_timeline(src)`). When the search starts exactly there and this
    /// transaction has nothing staged on that send port, the send view is
    /// pre-verified and its first fixpoint query is skipped.
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
        let views = self.pool.comm_views(src, dst);
        let send_clear = (start == send_free
            && !views.as_slice().is_empty()
            && self.chain_head(Port::Send, src).is_none())
        .then_some(0);
        self.earliest_in_views(views.as_slice(), start, dur, send_clear)
    }

    /// Stage a transfer `[start, start + dur)` from `src` to `dst`,
    /// occupying `src`'s send port and `dst`'s receive port.
    /// Local or zero-duration transfers stage nothing, and under
    /// [`CommModel::MacroDataflow`] nothing is staged at all (ports are
    /// unlimited, so transfers never occupy a resource).
    pub fn add_comm(&mut self, src: ProcId, dst: ProcId, start: f64, dur: f64) {
        if src == dst || dur <= EPS || !self.pool.model.is_one_port() {
            return;
        }
        let iv = TimeInterval::new(start, dur);
        self.stage(Port::Send, src, iv);
        self.stage(Port::Recv, dst, iv);
    }

    /// Earliest start `>= after` for a computation of `dur` on `p`.
    ///
    /// With `insertion = true` the task may fill an idle gap between already
    /// placed tasks (classical insertion-based HEFT); with `false` it can
    /// only start after everything already placed on `p` (append-only).
    pub fn earliest_compute_slot(
        &mut self,
        p: ProcId,
        after: f64,
        dur: f64,
        insertion: bool,
    ) -> f64 {
        let views = self.pool.compute_views(p);
        if insertion {
            self.earliest_in_views(views.as_slice(), after, dur, None)
        } else {
            // Start past the horizon of everything staged or committed on
            // the compute core, then respect no-overlap port views.
            let mut t = after.max(self.pool.compute_horizon(p));
            if let Some(head) = self.chain_head(Port::Compute, p) {
                t = self.chain(head).fold(t, |t, iv| t.max(iv.end));
            }
            self.earliest_in_views(views.as_slice(), t, dur, None)
        }
    }

    /// Stage a computation `[start, start + dur)` on `p`.
    pub fn add_compute(&mut self, p: ProcId, start: f64, dur: f64) {
        if dur <= EPS {
            return;
        }
        self.stage(Port::Compute, p, TimeInterval::new(start, dur));
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
