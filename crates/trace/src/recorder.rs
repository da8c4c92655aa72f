//! The recorders: the span ring buffer / NDJSON emitter and the
//! counter/histogram hub, one mutex each.
//!
//! The span ring is bounded: when a sink is attached it drains to the
//! sink at the high-water mark, otherwise the oldest events are dropped
//! and counted, so tracing can never grow memory without bound or block
//! the data path on disk.

use crate::clock::Clock;
use crate::record::TraceEvent;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, recovering from poisoning (a panicking recorder thread
/// must not disable tracing for everyone else).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The buffered events and where they go.
#[derive(Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    sink: Option<Box<dyn Write + Send>>,
}

/// The span recorder: a clock, one bounded ring buffer, and an optional
/// NDJSON sink.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    ring: Mutex<Ring>,
    /// High-water mark: drain (or drop) beyond this.
    capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Default ring capacity in events.
    pub const DEFAULT_CAPACITY: usize = 8 * 1024;

    /// A sinkless tracer (events accumulate in memory, oldest dropped at
    /// capacity) with the default capacity.
    pub fn new(clock: Arc<dyn Clock>) -> Tracer {
        Tracer::with_capacity(clock, Tracer::DEFAULT_CAPACITY)
    }

    /// A sinkless tracer with an explicit ring capacity (clamped to at
    /// least 1).
    pub fn with_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Tracer {
        Tracer {
            clock,
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Attach an NDJSON sink: a full ring flushes to it instead of
    /// dropping, and [`Tracer::flush`] writes everything through.
    pub fn set_sink(&self, sink: Box<dyn Write + Send>) {
        lock(&self.ring).sink = Some(sink);
    }

    /// Current time on the tracer's clock, microseconds.
    pub fn now(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The clock this tracer stamps events with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Record one event. Never blocks on I/O unless the ring hit its
    /// high-water mark with a sink attached: then the ring drains to the
    /// sink; without one, the oldest events are dropped down to half
    /// capacity (keeping the newest, which are the ones a post-mortem
    /// wants).
    pub fn record(&self, event: TraceEvent) {
        let mut ring = lock(&self.ring);
        ring.events.push_back(event);
        if ring.events.len() < self.capacity {
            return;
        }
        let Ring { events, sink } = &mut *ring;
        match sink {
            Some(w) => {
                for ev in events.drain(..) {
                    write_event(w.as_mut(), &ev);
                }
            }
            None => {
                let excess = events.len() - self.capacity / 2;
                events.drain(..excess);
                self.dropped.fetch_add(excess as u64, Ordering::Relaxed);
            }
        }
    }

    /// Write every buffered event to the sink (if any) and flush it.
    /// Without a sink this is a no-op (events stay buffered for
    /// [`Tracer::drain`]).
    pub fn flush(&self) {
        let mut ring = lock(&self.ring);
        let Ring { events, sink } = &mut *ring;
        let Some(w) = sink else {
            return;
        };
        for ev in events.drain(..) {
            write_event(w.as_mut(), &ev);
        }
        let _ = w.flush();
    }

    /// Take every buffered event out of the ring, in emit order
    /// (in-memory mode; sink-attached events that already flushed are
    /// gone).
    pub fn drain(&self) -> Vec<TraceEvent> {
        lock(&self.ring).events.drain(..).collect()
    }

    /// Events dropped because a sinkless ring hit capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Serialize one event as an NDJSON line. Serialization of our own
/// record type cannot fail; I/O errors are swallowed by design — tracing
/// must never take down the traced system (drops surface in `dropped`
/// only for ring overflow; a dead sink simply loses the stream).
fn write_event(w: &mut dyn Write, ev: &TraceEvent) {
    if let Ok(mut line) = serde_json::to_string(ev) {
        line.push('\n');
        let _ = w.write_all(line.as_bytes());
    }
}

/// Histogram bucket upper bounds, milliseconds. Exponential-ish ladder
/// from 50µs to 10s; the final implicit bucket is `+Inf`.
pub const HIST_BOUNDS_MS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0, 10000.0,
];

/// One histogram: fixed [`HIST_BOUNDS_MS`] buckets plus count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Cumulative-style per-bound observation counts (non-cumulative in
    /// storage; the Prometheus exporter accumulates). `buckets.len() ==
    /// HIST_BOUNDS_MS.len() + 1`, the last being the `+Inf` bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values, milliseconds.
    pub sum_ms: f64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: vec![0; HIST_BOUNDS_MS.len() + 1],
            count: 0,
            sum_ms: 0.0,
        }
    }
}

impl Hist {
    fn observe(&mut self, ms: f64) {
        let ms = if ms.is_finite() { ms.max(0.0) } else { 0.0 };
        let idx = HIST_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(HIST_BOUNDS_MS.len());
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += 1;
        }
        self.count += 1;
        self.sum_ms += ms;
    }
}

/// A point-in-time copy of every counter and histogram. `BTreeMap` keeps
/// exposition order deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters by name (labels are encoded in the name, e.g.
    /// `jobs_total{outcome="result"}`).
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Hist>,
}

/// The counter/histogram recorder: one map of each behind one mutex.
#[derive(Debug, Default)]
pub struct MetricsHub {
    metrics: Mutex<MetricsSnapshot>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Add `by` to the counter `name` (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        *lock(&self.metrics)
            .counters
            .entry(name.to_string())
            .or_insert(0) += by;
    }

    /// Record one observation into the histogram `name`.
    pub fn observe_ms(&self, name: &str, ms: f64) {
        lock(&self.metrics)
            .hists
            .entry(name.to_string())
            .or_default()
            .observe(ms);
    }

    /// Copy every counter and histogram into one deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        lock(&self.metrics).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::record::parse_trace;
    use std::sync::mpsc;

    /// A `Write` that forwards bytes over a channel (the writer must be
    /// `Send + 'static` for the sink box, so `&mut Vec<u8>` won't do).
    struct ChanWriter(mpsc::Sender<Vec<u8>>);
    impl Write for ChanWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn collect(rx: &mpsc::Receiver<Vec<u8>>) -> Vec<u8> {
        let mut all = Vec::new();
        while let Ok(chunk) = rx.try_recv() {
            all.extend(chunk);
        }
        all
    }

    #[test]
    fn record_flush_parse_round_trip() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(clock.clone());
        let (tx, rx) = mpsc::channel();
        tracer.set_sink(Box::new(ChanWriter(tx)));
        clock.advance(10);
        let t0 = tracer.now();
        clock.advance(5);
        tracer.record(TraceEvent::span("work", t0, tracer.now() - t0).job(1, "a", 1));
        tracer.record(TraceEvent::counter("queue_depth", 2.0));
        tracer.flush();
        let replay = parse_trace(&collect(&rx));
        assert!(!replay.torn);
        assert_eq!(replay.events.len(), 2);
        assert!(replay.events.iter().all(|e| e.validate().is_ok()));
        let span = replay
            .events
            .iter()
            .find(|e| e.kind == "span")
            .expect("span");
        assert_eq!(span.start_us, Some(10));
        assert_eq!(span.dur_us, Some(5));
    }

    #[test]
    fn sinkless_ring_drops_oldest_and_counts() {
        let tracer = Tracer::with_capacity(Arc::new(ManualClock::new()), 4);
        for i in 0..10 {
            tracer.record(TraceEvent::counter("c", f64::from(i)));
        }
        assert!(tracer.dropped() > 0);
        let kept = tracer.drain();
        assert!(kept.len() <= 4);
        // the newest events survive
        assert_eq!(kept.last().and_then(|e| e.value), Some(9.0));
    }

    #[test]
    fn full_ring_drains_to_sink_without_dropping() {
        let tracer = Tracer::with_capacity(Arc::new(ManualClock::new()), 4);
        let (tx, rx) = mpsc::channel();
        tracer.set_sink(Box::new(ChanWriter(tx)));
        for i in 0..10 {
            tracer.record(TraceEvent::counter("c", f64::from(i)));
        }
        tracer.flush();
        assert_eq!(tracer.dropped(), 0);
        let replay = parse_trace(&collect(&rx));
        assert_eq!(replay.events.len(), 10);
    }

    #[test]
    fn metrics_hub_counts_and_snapshots() {
        let hub = MetricsHub::new();
        hub.incr("jobs_total", 1);
        hub.incr("jobs_total", 2);
        hub.incr("cache_hits", 1);
        hub.observe_ms("queue_wait_ms", 0.3);
        hub.observe_ms("queue_wait_ms", 40.0);
        hub.observe_ms("queue_wait_ms", 1e9); // lands in +Inf
        let snap = hub.snapshot();
        assert_eq!(snap.counters.get("jobs_total"), Some(&3));
        assert_eq!(snap.counters.get("cache_hits"), Some(&1));
        let h = snap.hists.get("queue_wait_ms").expect("hist");
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        assert_eq!(h.buckets.last(), Some(&1), "+Inf bucket");
        assert!(h.sum_ms > 1e9);
    }

    #[test]
    fn histogram_tolerates_non_finite_input() {
        let hub = MetricsHub::new();
        hub.observe_ms("h", f64::NAN);
        hub.observe_ms("h", -5.0);
        let snap = hub.snapshot();
        let h = snap.hists.get("h").expect("hist");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ms, 0.0);
    }
}
