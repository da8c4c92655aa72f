//! Busy-interval timelines with earliest-gap queries.

use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::Ordering;

/// Numerical tolerance used throughout schedule construction and validation.
///
/// All paper workloads produce times that are exact in `f64` (integer weights
/// times integer cycle-times), but harmonic-mean rank estimates are not, so
/// comparisons tolerate `EPS`.
pub const EPS: f64 = 1e-6;

/// A half-open time interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeInterval {
    /// Inclusive start time.
    pub start: f64,
    /// Exclusive end time.
    pub end: f64,
}

impl TimeInterval {
    /// Create the interval `[start, start + duration)`.
    #[inline]
    pub fn new(start: f64, duration: f64) -> TimeInterval {
        debug_assert!(duration >= 0.0, "negative duration");
        TimeInterval {
            start,
            end: start + duration,
        }
    }

    /// Length of the interval.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Whether two intervals overlap by more than [`EPS`]
    /// (touching intervals do not overlap).
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end - EPS && other.start < self.end - EPS
    }

    /// Whether the interval has (essentially) zero duration.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.duration() <= EPS
    }
}

/// A chunk splits into two halves of this size when it outgrows
/// [`MAX_CHUNK`]; deserialized timelines are packed at this size too.
const TARGET_CHUNK: usize = 32;

/// Maximum intervals per chunk before it splits.
const MAX_CHUNK: usize = 2 * TARGET_CHUNK;

/// One run of consecutive busy intervals, with skip metadata.
#[derive(Debug, Clone)]
struct Chunk {
    /// Sorted, pairwise non-overlapping busy intervals (never empty).
    ivs: Vec<TimeInterval>,
    /// Largest idle gap `ivs[k].start − ivs[k−1].end` *inside* the chunk
    /// (`k ≥ 1`; the gap to the previous chunk is checked by the walk).
    max_gap: f64,
    /// Total busy duration of the chunk's intervals (lets
    /// [`Timeline::earliest_finish_of_work`] account whole chunks at once).
    busy: f64,
    /// Cached `ivs[0].start`: the walks and binary searches over chunks
    /// stay inside the contiguous chunk array instead of dereferencing
    /// each chunk's interval storage.
    start: f64,
    /// Cached `ivs[last].end`.
    end: f64,
}

impl Chunk {
    fn new(ivs: Vec<TimeInterval>) -> Chunk {
        debug_assert!(!ivs.is_empty());
        let mut c = Chunk {
            ivs,
            max_gap: 0.0,
            busy: 0.0,
            start: 0.0,
            end: 0.0,
        };
        c.recompute_meta();
        c
    }

    #[inline]
    fn start(&self) -> f64 {
        self.start
    }

    #[inline]
    fn end(&self) -> f64 {
        self.end
    }

    fn recompute_meta(&mut self) {
        self.max_gap = max_internal_gap(&self.ivs);
        self.busy = self.ivs.iter().map(TimeInterval::duration).sum();
        self.start = self.ivs[0].start;
        self.end = self.ivs[self.ivs.len() - 1].end;
    }
}

/// Largest idle gap between consecutive intervals of a sorted run.
fn max_internal_gap(ivs: &[TimeInterval]) -> f64 {
    let mut max_gap = 0.0f64;
    for w in ivs.windows(2) {
        let gap = w[1].start - w[0].end;
        if gap > max_gap {
            max_gap = gap;
        }
    }
    max_gap
}

/// One step of idle-time accounting: consume the gap before `iv` from
/// `(t, remaining)`, returning `Some(finish)` when the remaining work fits
/// in that gap. Shared by every walk of
/// [`Timeline::earliest_finish_of_work`] so the EPS semantics cannot drift
/// apart between them.
#[inline]
fn consume_idle(t: &mut f64, remaining: &mut f64, iv: &TimeInterval) -> Option<f64> {
    let gap = iv.start - *t;
    if *remaining <= gap {
        return Some(*t + *remaining);
    }
    if gap > 0.0 {
        *remaining -= gap;
    }
    *t = t.max(iv.end);
    None
}

/// A resumable position in one [`Timeline`]: the chunk and interval a gap
/// search stopped at, and the time it stopped at. Every interval before
/// the position ends by that time, so a later search from a time no
/// earlier can start there. Only valid while the timeline is unchanged —
/// a [`crate::Txn`] keeps one per view of the committed pool it borrows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapCursor {
    ci: usize,
    ii: usize,
    t: f64,
}

impl Default for GapCursor {
    /// The front of the timeline, valid for any time.
    fn default() -> GapCursor {
        GapCursor {
            ci: 0,
            ii: 0,
            t: f64::NEG_INFINITY,
        }
    }
}

/// A set of pairwise-disjoint busy intervals kept sorted by start time.
///
/// This is the workhorse of one-port scheduling: each processor owns one
/// timeline per resource (compute core, send port, receive port) and the
/// schedulers query for the earliest gap that fits a task or a message
/// (paper §4.3: "we look for the first available time-interval during which
/// P2 is not sending and P1 is not receiving").
///
/// Storage is *chunked*: intervals live in runs of at most 64 entries
/// (`MAX_CHUNK`), so [`Timeline::occupy`] shifts one small chunk instead of the
/// whole timeline (`O(log n + chunk)` instead of the former sorted-`Vec`
/// `O(n)` memmove plus `O(n)` metadata rebuild — which made schedule
/// construction quadratic in practice). Each chunk carries its largest
/// internal idle gap, so [`Timeline::earliest_gap`] skips densely packed
/// runs wholesale.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Non-empty chunks, globally sorted; empty vec = empty timeline.
    chunks: Vec<Chunk>,
    /// `ends[i] == chunks[i].end`, kept as a flat array so the binary
    /// search in `locate_ending_after` scans 8 densely packed keys per
    /// cache line instead of pointer-hopping across `Chunk` structs.
    ends: Vec<f64>,
    /// Total number of intervals across chunks.
    len: usize,
    /// Running total busy duration (kept incrementally; the former
    /// implementation re-summed every interval per `busy_time` call).
    total_busy: f64,
}

impl Timeline {
    /// New empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Build from already sorted, pairwise non-overlapping intervals.
    pub fn from_sorted(ivs: Vec<TimeInterval>) -> Timeline {
        debug_assert!(ivs.windows(2).all(|w| w[1].start >= w[0].end - EPS));
        let len = ivs.len();
        let total_busy = ivs.iter().map(TimeInterval::duration).sum();
        let chunks: Vec<Chunk> = ivs
            .chunks(TARGET_CHUNK)
            .map(|c| Chunk::new(c.to_vec()))
            .collect();
        let ends = chunks.iter().map(Chunk::end).collect();
        Timeline {
            chunks,
            ends,
            len,
            total_busy,
        }
    }

    /// Iterate over the busy intervals, sorted by start.
    pub fn iter(&self) -> impl Iterator<Item = &TimeInterval> {
        self.chunks.iter().flat_map(|c| c.ivs.iter())
    }

    /// The busy intervals as a flat vector, sorted by start.
    pub fn to_vec(&self) -> Vec<TimeInterval> {
        self.iter().copied().collect()
    }

    /// Number of busy intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the timeline has no busy intervals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// End of the last busy interval (0 when empty).
    pub fn horizon(&self) -> f64 {
        self.chunks.last().map_or(0.0, Chunk::end)
    }

    /// Total busy duration (maintained incrementally by [`Timeline::occupy`]).
    #[inline]
    pub fn busy_time(&self) -> f64 {
        self.total_busy
    }

    /// Index of the first chunk whose end is past `t`, plus the index of the
    /// first interval in it with `end > t + EPS`. `None` when every interval
    /// ends at or before `t`.
    #[inline]
    fn locate_ending_after(&self, t: f64) -> Option<(usize, usize)> {
        self.seek(&mut GapCursor::default(), t)
    }

    /// [`Timeline::locate_ending_after`] resumed from `cur`: when `t` is
    /// not earlier than the cursor's time, only the intervals that ended
    /// since are skipped — usually none or a few, checked before falling
    /// back to a binary search over the rest. An earlier `t` restarts from
    /// the front, so the answer never depends on the cursor.
    #[inline]
    fn seek(&self, cur: &mut GapCursor, t: f64) -> Option<(usize, usize)> {
        if t.partial_cmp(&cur.t).is_none_or(Ordering::is_lt) {
            *cur = GapCursor::default();
        }
        let lim = t + EPS;
        // Nothing ends after `t`: the common case, since list scheduling
        // mostly appends past the horizon.
        if self.ends.last().is_none_or(|&e| e <= lim) {
            return None;
        }
        let (mut ci, mut ii) = (cur.ci, cur.ii);
        if self.ends.get(ci).is_some_and(|&e| e <= lim) {
            ci += self
                .ends
                .get(ci..)
                .map_or(0, |rest| rest.partition_point(|&e| e <= lim));
            ii = 0;
        }
        let ivs = &self.chunks.get(ci)?.ivs;
        if ivs.get(ii).is_some_and(|iv| iv.end <= lim) {
            ii += ivs
                .get(ii..)
                .map_or(0, |rest| rest.partition_point(|iv| iv.end <= lim));
        }
        debug_assert!(ii < ivs.len());
        Some((ci, ii))
    }

    /// The first busy interval that conflicts with `[start, start + dur)`,
    /// if any. Zero-duration requests never conflict.
    pub fn first_conflict(&self, start: f64, dur: f64) -> Option<TimeInterval> {
        if dur <= EPS {
            return None;
        }
        let probe = TimeInterval::new(start, dur);
        let (ci, ii) = self.locate_ending_after(start)?;
        let iv = *self.chunks.get(ci)?.ivs.get(ii)?;
        iv.overlaps(&probe).then_some(iv)
    }

    /// Whether `[start, start + dur)` is entirely free.
    pub fn is_free(&self, start: f64, dur: f64) -> bool {
        self.first_conflict(start, dur).is_none()
    }

    /// Earliest `t >= after` such that `[t, t + dur)` is free.
    ///
    /// Runs in `O(log n + visited)`: binary search to the first relevant
    /// interval, then a walk that skips every chunk whose largest internal
    /// gap cannot fit `dur`.
    pub fn earliest_gap(&self, after: f64, dur: f64) -> f64 {
        self.earliest_gap_from(&mut GapCursor::default(), after, dur)
    }

    /// [`Timeline::earliest_gap`] resumed from `cur`, which is left at the
    /// interval where this search stopped. A fixpoint over several views
    /// asks each view again from a later time; resuming skips the binary
    /// search and the part of the timeline already walked. The answer is
    /// the same as [`Timeline::earliest_gap`]'s for any cursor.
    pub(crate) fn earliest_gap_from(&self, cur: &mut GapCursor, after: f64, dur: f64) -> f64 {
        if dur <= EPS {
            return after;
        }
        let mut t = after;
        let Some((mut ci, mut ii)) = self.seek(cur, t) else {
            return t;
        };
        // Every interval behind `(ci, ii)` ends by `t`, so wherever the walk
        // stops is a valid cursor for later searches from `t` on.
        'walk: while let Some(ch) = self.chunks.get(ci) {
            // Gap before the next relevant interval (covers both the slot at
            // `after` and the inter-chunk boundary once the walk advances).
            if ch.ivs.get(ii).is_some_and(|iv| iv.start >= t + dur - EPS) {
                break;
            }
            if ch.max_gap < dur - EPS {
                // No internal gap of this chunk can fit `dur`: the walk from
                // `ii` keeps `t >= ivs[k-1].end`, so every candidate slot is
                // bounded by an internal gap. Skip to the chunk's end.
                t = t.max(ch.end());
            } else {
                while let Some(iv) = ch.ivs.get(ii) {
                    if iv.start >= t + dur - EPS {
                        break 'walk;
                    }
                    t = t.max(iv.end);
                    ii += 1;
                }
            }
            ci += 1;
            ii = 0;
        }
        *cur = GapCursor { ci, ii, t };
        t
    }

    /// Earliest `τ >= after` such that the idle time within `[after, τ)`
    /// totals `work` — i.e. a lower bound on when `work` units of this
    /// resource's time, none usable before `after`, can all have elapsed.
    ///
    /// Unlike [`Timeline::earliest_gap`] the work need not be contiguous, so
    /// the result is a *bound*, not a slot: it is what the placement pruning
    /// uses to discard candidate processors whose ports are too busy to beat
    /// an incumbent (the idle time may be fragmented, in which case the real
    /// completion is even later). Runs in `O(log n + chunks)` via the
    /// per-chunk busy totals.
    pub fn earliest_finish_of_work(&self, after: f64, work: f64) -> f64 {
        if work <= 0.0 {
            return after;
        }
        let mut t = after;
        let mut remaining = work;
        let Some((ci, ii)) = self.locate_ending_after(t) else {
            return t + remaining;
        };
        // Partially covered first chunk: walk its intervals.
        for iv in &self.chunks[ci].ivs[ii..] {
            if let Some(done) = consume_idle(&mut t, &mut remaining, iv) {
                return done;
            }
        }
        // Whole chunks: idle inside `[t, chunk end)` is the span minus the
        // chunk's busy total.
        let mut ci = ci + 1;
        while ci < self.chunks.len() {
            let ch = &self.chunks[ci];
            let idle = (ch.end() - t) - ch.busy;
            if remaining <= idle {
                break; // finish lies inside this chunk: walk it
            }
            remaining -= idle.max(0.0);
            t = ch.end();
            ci += 1;
        }
        // Resolve the exact finish with an interval walk from `t`.
        for ch in &self.chunks[ci..] {
            for iv in &ch.ivs {
                if let Some(done) = consume_idle(&mut t, &mut remaining, iv) {
                    return done;
                }
            }
        }
        t + remaining
    }

    /// Mark `[start, start + dur)` busy. Zero-duration intervals are ignored.
    ///
    /// # Panics
    /// Panics (in debug builds) if the interval overlaps an existing one.
    pub fn occupy(&mut self, start: f64, dur: f64) {
        if dur <= EPS {
            return;
        }
        let iv = TimeInterval::new(start, dur);
        debug_assert!(
            self.is_free(start, dur),
            "occupy({start}, {dur}) overlaps an existing busy interval"
        );
        self.len += 1;
        self.total_busy += iv.duration();
        if self.chunks.is_empty() {
            let c = Chunk::new(vec![iv]);
            self.ends.push(c.end());
            self.chunks.push(c);
            return;
        }
        // The last chunk whose start precedes the new interval (the first
        // chunk when the interval goes before everything).
        let ci = self
            .chunks
            .partition_point(|c| c.start() <= iv.start)
            .saturating_sub(1);
        let ch = &mut self.chunks[ci];
        let pos = ch.ivs.partition_point(|b| b.start < iv.start);
        // Patch the chunk metadata incrementally: an insertion splits at
        // most one internal gap into two smaller ones, so a full rescan is
        // needed only when the split gap was the chunk's maximum (boundary
        // insertions instead *add* one internal gap).
        let mut rescan_max = false;
        if pos > 0 && pos < ch.ivs.len() {
            let split_gap = ch.ivs[pos].start - ch.ivs[pos - 1].end;
            rescan_max = split_gap >= ch.max_gap;
        } else if pos == 0 {
            ch.max_gap = ch.max_gap.max(ch.ivs[0].start - iv.end);
            ch.start = iv.start;
        } else {
            ch.max_gap = ch.max_gap.max(iv.start - ch.ivs[pos - 1].end);
            ch.end = iv.end;
            self.ends[ci] = iv.end;
        }
        ch.busy += iv.duration();
        ch.ivs.insert(pos, iv);
        if rescan_max {
            ch.max_gap = max_internal_gap(&ch.ivs);
        }
        if ch.ivs.len() > MAX_CHUNK {
            // The new chunk gets a full chunk's capacity up front, so
            // growing back to the split size never reallocates it.
            let mid = ch.ivs.len() / 2;
            let mut upper = Vec::with_capacity(MAX_CHUNK + 1);
            upper.extend(ch.ivs.drain(mid..));
            ch.recompute_meta();
            self.ends[ci] = ch.end();
            let upper = Chunk::new(upper);
            self.ends.insert(ci + 1, upper.end());
            self.chunks.insert(ci + 1, upper);
        }
    }

    /// Mark every interval of `batch` busy in one pass.
    ///
    /// Equivalent to calling [`Timeline::occupy`] once per interval, but the
    /// batch is grouped by target chunk and each touched chunk is merged and
    /// has its metadata recomputed *once* instead of once per interval —
    /// the amortization behind ILHA's batched step-1 commit
    /// (`ResourcePool::commit_batch`), where a whole chunk of
    /// zero-communication placements lands on a handful of compute
    /// timelines.
    ///
    /// `batch` is consumed as scratch: empty intervals are dropped, the rest
    /// sorted; the vector is left in an unspecified state.
    ///
    /// # Panics
    /// Panics (in debug builds) if any batch interval overlaps an existing
    /// busy interval or another batch member.
    pub fn occupy_batch(&mut self, batch: &mut Vec<TimeInterval>) {
        batch.retain(|iv| iv.duration() > EPS);
        if batch.is_empty() {
            return;
        }
        batch.sort_by(|a, b| a.start.total_cmp(&b.start));
        debug_assert!(
            batch.windows(2).all(|w| !w[0].overlaps(&w[1])),
            "occupy_batch: batch members overlap each other"
        );
        if self.chunks.is_empty() {
            *self = Timeline::from_sorted(std::mem::take(batch));
            return;
        }
        debug_assert!(
            batch.iter().all(|iv| self.is_free(iv.start, iv.duration())),
            "occupy_batch overlaps an existing busy interval"
        );
        self.len += batch.len();
        self.total_busy += batch.iter().map(TimeInterval::duration).sum::<f64>();
        // Apply the batch back to front, one target chunk at a time: the
        // last chunk whose start does not exceed the interval's start,
        // exactly the chunk `occupy` would pick (the first chunk for
        // intervals before everything). Going backwards, a merge or split
        // only touches chunks at or after the target, so the chunks still
        // to be targeted keep their indices and starts.
        let mut hi = batch.len();
        while let Some(last) = hi.checked_sub(1).and_then(|i| batch.get(i)) {
            let ci = self
                .chunks
                .partition_point(|c| c.start() <= last.start)
                .saturating_sub(1);
            let Some(ch) = self.chunks.get_mut(ci) else {
                break;
            };
            let lo = if ci == 0 {
                0
            } else {
                batch
                    .get(..hi)
                    .map_or(0, |b| b.partition_point(|iv| iv.start < ch.start()))
            };
            // Merge in place: the chunk's run and the group are each sorted,
            // and the stable sort keeps a chunk interval before a batch
            // interval with the same start.
            ch.ivs
                .extend_from_slice(batch.get(lo..hi).unwrap_or_default());
            ch.ivs
                .sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap_or(Ordering::Equal));
            if ch.ivs.len() > MAX_CHUNK {
                let parts: Vec<Chunk> = ch
                    .ivs
                    .chunks(TARGET_CHUNK)
                    .map(|run| Chunk::new(run.to_vec()))
                    .collect();
                self.chunks.splice(ci..=ci, parts);
            } else {
                ch.recompute_meta();
            }
            hi = lo;
        }
        self.ends.clear();
        self.ends.extend(self.chunks.iter().map(Chunk::end));
    }

    /// Idle time between `0` and `horizon` not covered by busy intervals.
    pub fn idle_before_horizon(&self) -> f64 {
        self.horizon() - self.busy_time()
    }
}

// The serde shim has no `#[serde(from/into)]`, so the chunked structure
// keeps the seed's wire format `{"busy": [...]}` through manual impls.
// (When swapping in registry serde, replace these with
// `#[serde(from = "...", into = "...")]` on a flat mirror struct.)
impl Serialize for Timeline {
    fn to_value(&self) -> Value {
        Value::Map(vec![(
            "busy".to_string(),
            Value::Seq(self.iter().map(Serialize::to_value).collect()),
        )])
    }
}

impl Deserialize for Timeline {
    fn from_value(v: &Value) -> Result<Timeline, Error> {
        let busy = Vec::<TimeInterval>::from_value(v.get_field("busy")?)?;
        if !busy.windows(2).all(|w| w[1].start >= w[0].end - EPS) {
            return Err(Error(
                "timeline intervals must be sorted and non-overlapping".to_string(),
            ));
        }
        Ok(Timeline::from_sorted(busy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let a = TimeInterval::new(1.0, 2.0);
        assert_eq!(a.duration(), 2.0);
        assert!(!a.is_empty());
        let b = TimeInterval::new(2.5, 1.0);
        assert!(a.overlaps(&b));
        let c = TimeInterval::new(3.0, 1.0);
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
    }

    #[test]
    fn occupy_keeps_sorted() {
        let mut t = Timeline::new();
        t.occupy(5.0, 1.0);
        t.occupy(1.0, 1.0);
        t.occupy(3.0, 1.0);
        let starts: Vec<f64> = t.iter().map(|iv| iv.start).collect();
        assert_eq!(starts, vec![1.0, 3.0, 5.0]);
        assert_eq!(t.horizon(), 6.0);
        assert_eq!(t.busy_time(), 3.0);
        assert_eq!(t.idle_before_horizon(), 3.0);
    }

    #[test]
    fn earliest_gap_empty_timeline() {
        let t = Timeline::new();
        assert_eq!(t.earliest_gap(3.0, 2.0), 3.0);
    }

    #[test]
    fn earliest_gap_fits_between() {
        let mut t = Timeline::new();
        t.occupy(0.0, 2.0);
        t.occupy(5.0, 2.0);
        // gap [2, 5) fits a 3-unit job exactly
        assert_eq!(t.earliest_gap(0.0, 3.0), 2.0);
        // a 4-unit job must go after everything
        assert_eq!(t.earliest_gap(0.0, 4.0), 7.0);
        // starting later inside the gap
        assert_eq!(t.earliest_gap(3.0, 1.0), 3.0);
        // request overlapping the second interval gets pushed past it
        assert_eq!(t.earliest_gap(4.5, 1.0), 7.0);
    }

    #[test]
    fn earliest_gap_zero_duration() {
        let mut t = Timeline::new();
        t.occupy(0.0, 10.0);
        assert_eq!(t.earliest_gap(5.0, 0.0), 5.0);
    }

    #[test]
    fn is_free_and_conflicts() {
        let mut t = Timeline::new();
        t.occupy(2.0, 2.0);
        assert!(t.is_free(0.0, 2.0));
        assert!(t.is_free(4.0, 100.0));
        assert!(!t.is_free(1.0, 2.0));
        assert_eq!(
            t.first_conflict(1.0, 2.0),
            Some(TimeInterval::new(2.0, 2.0))
        );
        assert_eq!(
            t.first_conflict(1.0, 0.0),
            None,
            "zero-length never conflicts"
        );
    }

    #[test]
    fn occupy_zero_is_noop() {
        let mut t = Timeline::new();
        t.occupy(1.0, 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn gap_search_skips_contiguous_blocks() {
        let mut t = Timeline::new();
        for i in 0..10 {
            t.occupy(i as f64, 1.0);
        }
        assert_eq!(t.earliest_gap(0.0, 1.0), 10.0);
    }

    #[test]
    fn touching_occupies_allowed() {
        let mut t = Timeline::new();
        t.occupy(0.0, 1.0);
        t.occupy(1.0, 1.0); // exactly adjacent: allowed
        assert_eq!(t.len(), 2);
        assert_eq!(t.horizon(), 2.0);
    }

    #[test]
    fn chunks_split_and_stay_sorted() {
        // enough intervals to force several chunk splits, inserted in a
        // front-loaded shuffle (worst case for the old flat Vec)
        let mut t = Timeline::new();
        let n = 5 * MAX_CHUNK;
        for i in (0..n).rev() {
            t.occupy(i as f64 * 2.0, 1.0);
        }
        assert_eq!(t.len(), n);
        let flat = t.to_vec();
        assert!(flat.windows(2).all(|w| w[1].start >= w[0].end - EPS));
        assert_eq!(t.busy_time(), n as f64);
        // every unit gap is still found
        assert_eq!(t.earliest_gap(0.0, 1.0), 1.0);
        assert_eq!(t.earliest_gap(10.4, 1.0), 11.0);
        // nothing larger fits before the horizon
        assert_eq!(t.earliest_gap(0.0, 1.5), t.horizon());
    }

    #[test]
    fn occupy_batch_matches_sequential() {
        // committed background: intervals at 0, 10, 20, ...
        let mut seq = Timeline::new();
        let mut bat = Timeline::new();
        for i in 0..100 {
            seq.occupy(i as f64 * 10.0, 2.0);
            bat.occupy(i as f64 * 10.0, 2.0);
        }
        // batch spread across many chunks, unsorted, with an empty interval
        let mut batch: Vec<TimeInterval> = (0..100)
            .rev()
            .map(|i| TimeInterval::new(i as f64 * 10.0 + 4.0, 3.0))
            .collect();
        batch.push(TimeInterval::new(500.0, 0.0));
        for iv in &batch {
            seq.occupy(iv.start, iv.duration());
        }
        bat.occupy_batch(&mut batch);
        assert_eq!(bat.to_vec(), seq.to_vec());
        assert_eq!(bat.len(), seq.len());
        assert_eq!(bat.busy_time(), seq.busy_time());
        assert_eq!(bat.horizon(), seq.horizon());
        for probe in [0.0, 3.0, 47.5, 999.0, 1200.0] {
            assert_eq!(bat.earliest_gap(probe, 1.5), seq.earliest_gap(probe, 1.5));
        }
    }

    #[test]
    fn occupy_batch_on_empty_timeline() {
        let mut t = Timeline::new();
        let mut batch = vec![TimeInterval::new(5.0, 1.0), TimeInterval::new(1.0, 2.0)];
        t.occupy_batch(&mut batch);
        assert_eq!(t.len(), 2);
        assert_eq!(t.horizon(), 6.0);
        assert_eq!(t.earliest_gap(0.0, 3.0), 6.0);
        let mut empty = Vec::new();
        t.occupy_batch(&mut empty); // no-op
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn occupy_batch_splits_oversized_chunks() {
        // fill one chunk nearly full, then batch enough intervals into it to
        // force a multi-way split
        let mut t = Timeline::new();
        for i in 0..MAX_CHUNK {
            t.occupy(i as f64 * 4.0, 1.0);
        }
        let mut batch: Vec<TimeInterval> = (0..MAX_CHUNK)
            .map(|i| TimeInterval::new(i as f64 * 4.0 + 2.0, 1.0))
            .collect();
        t.occupy_batch(&mut batch);
        assert_eq!(t.len(), 2 * MAX_CHUNK);
        let flat = t.to_vec();
        assert!(flat.windows(2).all(|w| w[1].start >= w[0].end - EPS));
        // every remaining unit gap is still discoverable
        assert_eq!(t.earliest_gap(0.0, 1.0), 1.0);
        assert_eq!(t.earliest_gap(6.5, 1.0), 7.0);
    }

    #[test]
    fn from_sorted_matches_incremental() {
        let ivs: Vec<TimeInterval> = (0..300)
            .map(|i| TimeInterval::new(i as f64 * 3.0, 2.0))
            .collect();
        let built = Timeline::from_sorted(ivs.clone());
        let mut inc = Timeline::new();
        for iv in &ivs {
            inc.occupy(iv.start, iv.duration());
        }
        assert_eq!(built.to_vec(), inc.to_vec());
        assert_eq!(built.len(), inc.len());
        assert_eq!(built.busy_time(), inc.busy_time());
        for probe in [0.0, 7.5, 450.0] {
            assert_eq!(built.earliest_gap(probe, 1.0), inc.earliest_gap(probe, 1.0));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation: linear scan, no block skipping.
    fn naive_earliest_gap(busy: &[TimeInterval], after: f64, dur: f64) -> f64 {
        if dur <= EPS {
            return after;
        }
        let mut t = after;
        for iv in busy {
            if iv.end <= t + EPS {
                continue;
            }
            if iv.start >= t + dur - EPS {
                return t;
            }
            t = t.max(iv.end);
        }
        t
    }

    /// The seed's flat-`Vec` timeline (sorted insert + block-free walk),
    /// kept verbatim as a second reference implementation: the chunked
    /// structure must agree with it on *every* operation.
    #[derive(Default)]
    struct SeedTimeline {
        busy: Vec<TimeInterval>,
    }

    impl SeedTimeline {
        fn occupy(&mut self, start: f64, dur: f64) {
            if dur <= EPS {
                return;
            }
            let iv = TimeInterval::new(start, dur);
            let pos = self.busy.partition_point(|b| b.start < iv.start);
            self.busy.insert(pos, iv);
        }

        fn earliest_gap(&self, after: f64, dur: f64) -> f64 {
            if dur <= EPS {
                return after;
            }
            let mut t = after;
            let mut i = self.busy.partition_point(|iv| iv.end <= t + EPS);
            while i < self.busy.len() {
                let iv = self.busy[i];
                if iv.start >= t + dur - EPS {
                    return t;
                }
                t = t.max(iv.end);
                i += 1;
            }
            t
        }

        fn busy_time(&self) -> f64 {
            self.busy.iter().map(TimeInterval::duration).sum()
        }

        fn horizon(&self) -> f64 {
            self.busy.last().map_or(0.0, |iv| iv.end)
        }
    }

    proptest! {
        /// The chunk-skipping gap search agrees with the naive scan on
        /// random dense timelines (hundreds of intervals, several chunks).
        #[test]
        fn earliest_gap_matches_naive(
            seed_gaps in proptest::collection::vec(0.0f64..3.0, 1..400),
            durs in proptest::collection::vec(0.01f64..8.0, 1..40),
            after_frac in 0.0f64..1.2,
        ) {
            let mut tl = Timeline::new();
            let mut t = 0.0;
            for (i, g) in seed_gaps.iter().enumerate() {
                t += g;
                let d = 0.5 + (i % 7) as f64 * 0.25;
                tl.occupy(t, d);
                t += d;
            }
            let flat = tl.to_vec();
            let horizon = tl.horizon();
            for (i, &dur) in durs.iter().enumerate() {
                let after = horizon * after_frac * (i as f64 / durs.len() as f64);
                let fast = tl.earliest_gap(after, dur);
                let slow = naive_earliest_gap(&flat, after, dur);
                prop_assert!((fast - slow).abs() < 1e-9,
                    "after={after} dur={dur}: fast={fast} naive={slow}");
                // and the returned slot really is free
                prop_assert!(tl.is_free(fast, dur));
            }
        }

        /// A search resumed from a cursor answers bit for bit like a fresh
        /// one: for rising start times (the fixpoint's use, including a
        /// restart from the slot just returned) and for falling ones, which
        /// must restart from the front.
        #[test]
        fn resumed_gap_search_matches_fresh(
            seed_gaps in proptest::collection::vec(0.0f64..3.0, 1..400),
            queries in proptest::collection::vec((0.0f64..1.0, 0.01f64..6.0, 0u8..4), 1..80),
        ) {
            let mut tl = Timeline::new();
            let mut t = 0.0;
            for (i, g) in seed_gaps.iter().enumerate() {
                t += g;
                let d = 0.5 + (i % 7) as f64 * 0.25;
                tl.occupy(t, d);
                t += d;
            }
            let horizon = tl.horizon();
            let mut cur = GapCursor::default();
            let (mut after, mut last) = (0.0, 0.0);
            for (frac, dur, step) in queries {
                after = match step {
                    0 => horizon * frac, // anywhere, often earlier
                    1 => last,           // from the slot just found
                    _ => after + frac * 3.0,
                };
                let fresh = tl.earliest_gap(after, dur);
                last = tl.earliest_gap_from(&mut cur, after, dur);
                prop_assert_eq!(last.to_bits(), fresh.to_bits(),
                    "after={} dur={}", after, dur);
            }
        }

        /// Occupying the slot returned by earliest_gap never panics
        /// (i.e. the slot is genuinely free), for arbitrary interleavings.
        #[test]
        fn occupy_at_earliest_gap_is_safe(
            reqs in proptest::collection::vec((0.0f64..50.0, 0.1f64..5.0), 1..200),
        ) {
            let mut tl = Timeline::new();
            for (after, dur) in reqs {
                let t = tl.earliest_gap(after, dur);
                prop_assert!(t >= after);
                tl.occupy(t, dur);
            }
            // invariant: sorted and non-overlapping
            let iv = tl.to_vec();
            for w in iv.windows(2) {
                prop_assert!(w[1].start >= w[0].end - EPS);
            }
        }

        /// Occupy-heavy adversarial workload: random interleaved
        /// occupy/earliest_gap sequences must keep the chunked structure in
        /// lockstep with BOTH references — the naive linear scan and the
        /// seed's flat-`Vec` implementation — on the gap answers, the stored
        /// interval sequence, the running busy total, and the horizon.
        #[test]
        fn interleaved_occupy_matches_seed_vec(
            ops in proptest::collection::vec(
                (0.0f64..400.0, 0.1f64..6.0, 0u8..2), 1..600),
        ) {
            let mut fast = Timeline::new();
            let mut seed = SeedTimeline::default();
            for (after, dur, place) in ops {
                let place = place == 1;
                let got = fast.earliest_gap(after, dur);
                let want = seed.earliest_gap(after, dur);
                prop_assert!((got - want).abs() < 1e-9,
                    "gap(after={after}, dur={dur}): chunked={got} seed={want}");
                let naive = naive_earliest_gap(&seed.busy, after, dur);
                prop_assert!((got - naive).abs() < 1e-9,
                    "gap(after={after}, dur={dur}): chunked={got} naive={naive}");
                if place {
                    fast.occupy(got, dur);
                    seed.occupy(want, dur);
                }
            }
            prop_assert_eq!(fast.to_vec(), seed.busy.clone());
            prop_assert_eq!(fast.len(), seed.busy.len());
            prop_assert!((fast.busy_time() - seed.busy_time()).abs() < 1e-6);
            prop_assert!((fast.horizon() - seed.horizon()).abs() == 0.0);
        }

        /// Batched occupation is indistinguishable from sequential occupies:
        /// same intervals, same metadata, same gap answers — for arbitrary
        /// mixes of committed background and batch placement.
        #[test]
        fn occupy_batch_matches_sequential_occupies(
            committed in proptest::collection::vec((0.0f64..500.0, 0.1f64..4.0), 0..150),
            batched in proptest::collection::vec((0.0f64..500.0, 0.1f64..4.0), 1..80),
            probes in proptest::collection::vec((0.0f64..600.0, 0.1f64..6.0), 1..20),
        ) {
            let mut seq = Timeline::new();
            let mut bat = Timeline::new();
            for (after, dur) in committed {
                let t = seq.earliest_gap(after, dur);
                seq.occupy(t, dur);
                bat.occupy(t, dur);
            }
            // resolve batch members against the committed state one by one
            // (as ILHA's staged transaction does), then apply them to `seq`
            // sequentially and to `bat` in one batch
            let mut batch = Vec::new();
            for (after, dur) in batched {
                let t = seq.earliest_gap(after, dur);
                seq.occupy(t, dur);
                batch.push(TimeInterval::new(t, dur));
            }
            bat.occupy_batch(&mut batch);
            prop_assert_eq!(bat.to_vec(), seq.to_vec());
            prop_assert_eq!(bat.len(), seq.len());
            prop_assert!((bat.busy_time() - seq.busy_time()).abs() < 1e-6);
            prop_assert!(bat.horizon() == seq.horizon());
            for (after, dur) in probes {
                prop_assert_eq!(bat.earliest_gap(after, dur), seq.earliest_gap(after, dur));
            }
        }

        /// The chunk-accelerated free-time accounting agrees with a naive
        /// interval walk, and it never exceeds the contiguous-slot answer
        /// (it must stay a valid lower bound for the placement pruning).
        #[test]
        fn earliest_finish_of_work_matches_naive(
            seed_gaps in proptest::collection::vec(0.0f64..4.0, 1..300),
            queries in proptest::collection::vec((0.0f64..900.0, 0.1f64..40.0), 1..30),
        ) {
            let mut tl = Timeline::new();
            let mut t = 0.0;
            for (i, g) in seed_gaps.iter().enumerate() {
                t += g;
                let d = 0.25 + (i % 5) as f64 * 0.5;
                tl.occupy(t, d);
                t += d;
            }
            let busy = tl.to_vec();
            for &(after, work) in &queries {
                // naive: walk every interval, accumulating idle time
                let naive = {
                    let mut t = after;
                    let mut remaining = work;
                    let mut done = f64::NAN;
                    for iv in &busy {
                        if iv.end <= t + EPS {
                            continue;
                        }
                        let gap = iv.start - t;
                        if remaining <= gap {
                            done = t + remaining;
                            break;
                        }
                        if gap > 0.0 {
                            remaining -= gap;
                        }
                        t = t.max(iv.end);
                    }
                    if done.is_nan() { t + remaining } else { done }
                };
                let fast = tl.earliest_finish_of_work(after, work);
                prop_assert!((fast - naive).abs() < 1e-9,
                    "after={after} work={work}: fast={fast} naive={naive}");
                // lower bound property vs the contiguous slot
                let slot_end = tl.earliest_gap(after, work) + work;
                prop_assert!(fast <= slot_end + 1e-9);
            }
        }
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    /// The chunked metadata is an implementation detail: the wire format is
    /// the seed's flat `{"busy": [...]}`, and a deserialized timeline must
    /// answer gap queries exactly and accept further occupies.
    #[test]
    fn deserialized_timeline_rebuilds_metadata() {
        let mut tl = Timeline::new();
        for i in 0..200 {
            tl.occupy(i as f64 * 2.0, 1.0); // gaps of 1.0 everywhere
        }
        let json = serde_json::to_string(&tl).unwrap();
        assert!(json.starts_with("{\"busy\":["), "wire format unchanged");
        let mut back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back.earliest_gap(0.0, 0.5), 1.0);
        assert_eq!(back.earliest_gap(0.0, 1.5), 399.0);
        assert_eq!(back.busy_time(), tl.busy_time());
        back.occupy(399.0, 0.25);
        assert_eq!(back.earliest_gap(0.0, 0.5), 1.0, "early gaps still found");
        assert!(back.is_free(1.0, 0.5));
    }

    #[test]
    fn unsorted_payload_rejected() {
        let err = serde_json::from_str::<Timeline>(
            "{\"busy\":[{\"start\":5.0,\"end\":6.0},{\"start\":0.0,\"end\":1.0}]}",
        );
        assert!(err.is_err());
    }
}
