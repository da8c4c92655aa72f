//! The `onesched-trace/v1` event record and its NDJSON parser.
//!
//! Like the job ledger, the trace stream is newline-delimited JSON with
//! one flat record shape shared by every event kind — a `kind` tag
//! distinguishes spans from counters, and everything that does not apply
//! to a given kind is an absent `Option`. Flat records keep the stream
//! greppable, forward-compatible (unknown fields are rejected by the
//! strict shim parser, but unknown *kinds* parse fine and are skipped by
//! exporters), and torn-tail tolerant: a crash mid-write costs exactly
//! the last line, recovered by [`parse_trace`] through the reader it shares
//! with the job ledger, [`read_ndjson_prefix`].

use serde::{Deserialize, Serialize};

/// Trace schema tag, present on every record so a stream is
/// self-describing even when sliced by external tools.
pub const TRACE_SCHEMA: &str = "onesched-trace/v1";

/// One `key: value` attachment on a span or counter. Values are `f64`
/// because the vendored serde shim's number model is `f64` (exact for
/// integers up to 2^53, far beyond any count we record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Field {
    /// Attachment name (e.g. `"pruned_bound"`).
    pub k: String,
    /// Attachment value.
    pub v: f64,
}

/// One trace event: a completed span or a counter sample.
///
/// Spans are emitted *on completion* (start and duration together), so
/// the stream needs no begin/end pairing and a torn tail never strands a
/// half-open span. Parent/child links are by name within the same
/// `(seq, attempt)` job scope — span names are unique per scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Schema tag ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// `"span"` or `"counter"`. Unknown kinds parse fine (forward
    /// compatibility) and are ignored by exporters.
    pub kind: String,
    /// Span name (`"job"`, `"construct.scan"`, …) or counter name.
    pub name: String,
    /// The daemon's submission sequence number this event belongs to.
    #[serde(default)]
    pub seq: Option<u64>,
    /// The client-chosen job id (may repeat across submissions; `seq` is
    /// the unique key).
    #[serde(default)]
    pub id: Option<String>,
    /// 1-based construction attempt within the job (retries increment).
    #[serde(default)]
    pub attempt: Option<u64>,
    /// Name of the enclosing span in the same `(seq, attempt)` scope.
    #[serde(default)]
    pub parent: Option<String>,
    /// Span start, microseconds since the clock epoch — spans only.
    #[serde(default)]
    pub start_us: Option<u64>,
    /// Span duration in microseconds — spans only.
    #[serde(default)]
    pub dur_us: Option<u64>,
    /// Sampled value — counters only.
    #[serde(default)]
    pub value: Option<f64>,
    /// Worker thread index that recorded the event.
    #[serde(default)]
    pub worker: Option<u64>,
    /// Extra key/value attachments (prune counts, task counts, …).
    #[serde(default)]
    pub fields: Option<Vec<Field>>,
}

impl TraceEvent {
    /// A completed span.
    pub fn span(name: &str, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            schema: TRACE_SCHEMA.into(),
            kind: "span".into(),
            name: name.into(),
            seq: None,
            id: None,
            attempt: None,
            parent: None,
            start_us: Some(start_us),
            dur_us: Some(dur_us),
            value: None,
            worker: None,
            fields: None,
        }
    }

    /// A counter sample.
    pub fn counter(name: &str, value: f64) -> TraceEvent {
        TraceEvent {
            schema: TRACE_SCHEMA.into(),
            kind: "counter".into(),
            name: name.into(),
            seq: None,
            id: None,
            attempt: None,
            parent: None,
            start_us: None,
            dur_us: None,
            value: Some(value),
            worker: None,
            fields: None,
        }
    }

    /// Scope the event to a job: submission sequence, client id, attempt.
    pub fn job(mut self, seq: u64, id: &str, attempt: u64) -> TraceEvent {
        self.seq = Some(seq);
        self.id = Some(id.into());
        self.attempt = Some(attempt);
        self
    }

    /// Link to the enclosing span (by name, within the same job scope).
    pub fn parent(mut self, parent: &str) -> TraceEvent {
        self.parent = Some(parent.into());
        self
    }

    /// Record which worker thread emitted the event.
    pub fn worker(mut self, worker: u64) -> TraceEvent {
        self.worker = Some(worker);
        self
    }

    /// Attach a `key: value` field (appends; keys need not be unique).
    pub fn field(mut self, k: &str, v: f64) -> TraceEvent {
        self.fields
            .get_or_insert_with(Vec::new)
            .push(Field { k: k.into(), v });
        self
    }

    /// Look up the first field named `k`.
    pub fn field_value(&self, k: &str) -> Option<f64> {
        self.fields
            .as_deref()
            .and_then(|fs| fs.iter().find(|f| f.k == k))
            .map(|f| f.v)
    }

    /// Strict semantic validation on top of parsing, for `trace
    /// validate` in CI: the schema tag must match and each kind must
    /// carry the fields that define it.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != TRACE_SCHEMA {
            return Err(format!("schema `{}` is not `{TRACE_SCHEMA}`", self.schema));
        }
        match self.kind.as_str() {
            "span" => {
                if self.start_us.is_none() || self.dur_us.is_none() {
                    return Err(format!("span `{}` missing start_us/dur_us", self.name));
                }
            }
            "counter" => {
                if self.value.is_none() {
                    return Err(format!("counter `{}` missing value", self.name));
                }
                if let Some(v) = self.value {
                    if !v.is_finite() {
                        return Err(format!("counter `{}` value not finite", self.name));
                    }
                }
            }
            other => {
                return Err(format!("unknown event kind `{other}`"));
            }
        }
        if self.name.is_empty() {
            return Err("empty event name".into());
        }
        Ok(())
    }
}

/// The result of reading a trace file: the longest valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplay {
    /// Every event in the valid prefix, in emit order.
    pub events: Vec<TraceEvent>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// Whether anything followed the valid prefix (a torn write or
    /// corruption that was discarded).
    pub torn: bool,
}

/// Read the longest valid prefix of an NDJSON stream of `T` records: the
/// one torn-tail reader behind both [`parse_trace`] and the service's job
/// ledger parser. Complete, well-formed lines (one trailing `\r`
/// tolerated) are records; everything at and after the first malformed
/// or unterminated line is discarded. Never panics, never errors. Returns
/// the records, the byte length of the prefix they came from, and whether
/// anything followed it (a torn write or corruption).
pub fn read_ndjson_prefix<T: Deserialize>(bytes: &[u8]) -> (Vec<T>, u64, bool) {
    let mut records = Vec::new();
    let mut valid = 0;
    for chunk in bytes.split_inclusive(|&b| b == b'\n') {
        // An unterminated final chunk is a torn write: the record was cut
        // mid-line, so it is discarded even if its bytes happen to parse.
        let record = chunk
            .strip_suffix(b"\n")
            .and_then(|body| std::str::from_utf8(body).ok())
            .map(|text| text.strip_suffix('\r').unwrap_or(text))
            .and_then(|text| serde_json::from_str(text).ok());
        let Some(record) = record else { break };
        records.push(record);
        valid += chunk.len();
    }
    (records, valid as u64, valid < bytes.len())
}

/// Parse trace bytes tolerantly: the longest valid prefix of events
/// ([`read_ndjson_prefix`]), the same contract as the ledger parser.
pub fn parse_trace(bytes: &[u8]) -> TraceReplay {
    let (events, valid_bytes, torn) = read_ndjson_prefix(bytes);
    TraceReplay {
        events,
        valid_bytes,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_round_trips_through_ndjson() {
        let ev = TraceEvent::span("construct.scan", 120, 45)
            .job(7, "job-7", 1)
            .parent("construct")
            .worker(2)
            .field("candidates", 9.0)
            .field("pruned_bound", 4.0);
        let line = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.field_value("pruned_bound"), Some(4.0));
        assert_eq!(back.field_value("missing"), None);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn counter_round_trips_and_validates() {
        let ev = TraceEvent::counter("queue_depth", 3.0);
        let line = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validate_rejects_malformed_events() {
        let mut ev = TraceEvent::span("x", 0, 1);
        ev.schema = "other/v9".into();
        assert!(ev.validate().is_err());
        let mut ev = TraceEvent::span("x", 0, 1);
        ev.dur_us = None;
        assert!(ev.validate().is_err());
        let mut ev = TraceEvent::counter("c", 1.0);
        ev.value = None;
        assert!(ev.validate().is_err());
        let mut ev = TraceEvent::counter("c", 1.0);
        ev.kind = "gauge2".into();
        assert!(ev.validate().is_err());
    }

    #[test]
    fn parse_recovers_longest_valid_prefix() {
        let a = serde_json::to_string(&TraceEvent::span("a", 0, 1)).unwrap();
        let b = serde_json::to_string(&TraceEvent::counter("b", 2.0)).unwrap();
        let full = format!("{a}\n{b}\n");
        let clean = parse_trace(full.as_bytes());
        assert_eq!(clean.events.len(), 2);
        assert_eq!(clean.valid_bytes, full.len() as u64);
        assert!(!clean.torn);
        let torn = format!("{full}{{\"schema\":\"onesch");
        let r = parse_trace(torn.as_bytes());
        assert_eq!(r.events, clean.events);
        assert_eq!(r.valid_bytes, full.len() as u64);
        assert!(r.torn);
        let poisoned = format!("{a}\nnot json\n{b}\n");
        let r = parse_trace(poisoned.as_bytes());
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.valid_bytes, (a.len() + 1) as u64);
        assert!(r.torn);
    }
}
