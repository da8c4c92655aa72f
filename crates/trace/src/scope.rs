//! Spans recorded where the work happens: one job attempt's [`Scope`] and
//! the [`SpanGuard`]s it hands out.
//!
//! A scope stamps every span with the job's `(seq, id, attempt)` and the
//! worker, and reads time only through the [`Tracer`]'s
//! [`Clock`](crate::Clock). [`Scope::open`] starts a span now; the guard
//! records it, with its real end, when it drops — on every exit path,
//! unwinding included. [`Scope::record`] records a span whose interval is
//! already known (a queue wait, a run measured on another thread).
//! Parents stay explicit names, the links [`crate::build_report`]
//! resolves within a `(seq, attempt)` scope, so no parent stack is kept.
//!
//! A scope without a tracer ([`Scope::off`]) does nothing: no clock read,
//! no allocation, no event. Span names are taken as
//! [`Display`](fmt::Display) so that a composed name
//! (`format_args!("construct.{}", …)`) is only formatted when traced.

use crate::record::{Field, TraceEvent};
use crate::recorder::Tracer;
use std::fmt;

/// One job attempt's tracing handle. Cheap to copy and `Sync`, so the
/// threads of a fan-out can record into the same scope.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    seq: u64,
    id: &'a str,
    attempt: u64,
    worker: u64,
}

impl<'a> Scope<'a> {
    /// The scope of attempt `attempt` (1-based) of job `(seq, id)`, run by
    /// `worker`. With `tracer` = `None` every call is a no-op.
    pub const fn new(
        tracer: Option<&'a Tracer>,
        seq: u64,
        id: &'a str,
        attempt: u64,
        worker: u64,
    ) -> Scope<'a> {
        Scope {
            tracer,
            seq,
            id,
            attempt,
            worker,
        }
    }

    /// A scope that records nothing.
    pub const fn off() -> Scope<'static> {
        Scope::new(None, 0, "", 0, 0)
    }

    /// The tracer's clock, microseconds; 0 (and no read) without a tracer.
    pub fn now(&self) -> u64 {
        self.tracer.map_or(0, Tracer::now)
    }

    /// Start span `name` under `parent` (`None` for a root) now. It ends,
    /// and is recorded, when the returned guard drops.
    #[must_use = "the span ends when the guard drops"]
    pub fn open<'p>(
        &self,
        name: impl fmt::Display,
        parent: impl Into<Option<&'p str>>,
    ) -> SpanGuard<'a> {
        self.guard(name, parent.into(), self.now(), None)
    }

    /// A span over the known interval `[start_us, start_us + dur_us]`,
    /// recorded when the returned guard drops (at the end of the statement
    /// unless it is bound, e.g. to attach fields).
    pub fn record<'p>(
        &self,
        name: impl fmt::Display,
        parent: impl Into<Option<&'p str>>,
        start_us: u64,
        dur_us: u64,
    ) -> SpanGuard<'a> {
        self.guard(name, parent.into(), start_us, Some(dur_us))
    }

    fn guard(
        &self,
        name: impl fmt::Display,
        parent: Option<&str>,
        start_us: u64,
        dur_us: Option<u64>,
    ) -> SpanGuard<'a> {
        let live = self.tracer.map(|tracer| {
            let mut event = TraceEvent::span("", start_us, 0)
                .job(self.seq, self.id, self.attempt)
                .worker(self.worker);
            event.name = name.to_string();
            event.parent = parent.map(str::to_string);
            event.dur_us = dur_us;
            (tracer, event)
        });
        SpanGuard { live }
    }
}

/// An open span: recorded, with its fields, when dropped. A guard from
/// [`Scope::open`] reads its end on the clock at drop; one from
/// [`Scope::record`] keeps the interval it was given.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    /// The tracer and the pending event (`dur_us` unset while open);
    /// `None` when the scope is off.
    live: Option<(&'a Tracer, TraceEvent)>,
}

impl SpanGuard<'_> {
    /// Attach a `key: value` field.
    pub fn field(&mut self, k: &str, v: f64) -> &mut Self {
        if let Some((_, event)) = &mut self.live {
            event
                .fields
                .get_or_insert_with(Vec::new)
                .push(Field { k: k.into(), v });
        }
        self
    }

    /// The span's start, microseconds; 0 when the scope is off.
    pub fn start_us(&self) -> u64 {
        self.live
            .as_ref()
            .and_then(|(_, event)| event.start_us)
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((tracer, mut event)) = self.live.take() {
            if event.dur_us.is_none() {
                let start_us = event.start_us.unwrap_or(0);
                event.dur_us = Some(tracer.now().saturating_sub(start_us));
            }
            tracer.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::Arc;

    #[test]
    fn guards_record_real_intervals_with_scope_and_fields() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(clock.clone());
        let scope = Scope::new(Some(&tracer), 7, "job-7", 2, 3);
        clock.set(10);
        {
            let mut outer = scope.open("outer", None);
            clock.advance(5);
            scope
                .record(format_args!("inner.{}", 1), "outer", 11, 2)
                .field("k", 4.0);
            clock.advance(5);
            outer.field("ok", 1.0);
            assert_eq!(outer.start_us(), 10);
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 2, "inner records at once, outer at drop");
        let inner = &events[0];
        assert_eq!(inner.name, "inner.1");
        assert_eq!(inner.parent.as_deref(), Some("outer"));
        assert_eq!((inner.start_us, inner.dur_us), (Some(11), Some(2)));
        assert_eq!(inner.field_value("k"), Some(4.0));
        let outer = &events[1];
        assert_eq!(outer.parent, None);
        assert_eq!((outer.start_us, outer.dur_us), (Some(10), Some(10)));
        assert_eq!(outer.field_value("ok"), Some(1.0));
        for ev in &events {
            assert_eq!(
                (ev.seq, ev.id.as_deref(), ev.attempt, ev.worker),
                (Some(7), Some("job-7"), Some(2), Some(3))
            );
            assert!(ev.validate().is_ok());
        }
    }

    #[test]
    fn guard_records_while_unwinding() {
        let tracer = Tracer::new(Arc::new(ManualClock::new()));
        let scope = Scope::new(Some(&tracer), 1, "p", 1, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = scope.open("doomed", "job.attempt");
            panic!("injected");
        }));
        assert!(caught.is_err());
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "doomed");
    }

    #[test]
    fn off_scope_records_nothing_and_formats_no_name() {
        struct Loud;
        impl fmt::Display for Loud {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("an off scope formatted a span name");
            }
        }
        let scope = Scope::off();
        assert_eq!(scope.now(), 0);
        let mut g = scope.open(Loud, "job");
        g.field("k", 1.0);
        assert_eq!(g.start_us(), 0);
        assert!(g.live.is_none());
        drop(g);
        assert!(scope.record(Loud, None, 5, 5).live.is_none());
    }
}
