//! The write-ahead job ledger: an append-only NDJSON event log that makes
//! the daemon crash-recoverable.
//!
//! Every accepted submission appends a `submitted` record *before* it
//! enters the queue; each construction attempt appends `started`; the
//! answer appends `done` (with the recorded outcome) or `failed` (with the
//! error) *before* the response line is written to the client. Because all
//! jobs are deterministic — generators are seeded, schedulers are pure,
//! the engine derives noise from the request seed — recovery is cheap:
//! [`parse_ledger`] replays the event log, [`fold_ledger`] joins each
//! submission to its lifecycle events, acknowledged outcomes rehydrate
//! the caches, and unacknowledged specs are simply re-run, producing
//! bit-identical fingerprints (see `Service::recover` in
//! [`crate::service`]).
//!
//! Durability model: each append is written to the kernel immediately
//! (`write_all` on the file, no userspace buffering), so records survive a
//! `SIGKILL` of the daemon; `sync_data` runs every
//! [`Ledger::DEFAULT_SYNC_EVERY`] appends and on graceful shutdown to
//! bound data loss on host power failure without paying an fsync per job.
//!
//! Torn tails are expected, not errors: a crash mid-`write` leaves a
//! partial last line, and [`parse_ledger`] recovers the longest valid
//! prefix — it stops at the first malformed record and never panics.
//! [`Ledger::open`] then truncates the file to that prefix before
//! appending, so one crash cannot corrupt the next session's log.

use crate::cache::{JobOutcome, SimOutcome};
use crate::protocol::{JobSpec, SimSpec};
use onesched_trace::read_ndjson_prefix;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Ledger schema tag, recorded in every `submitted` record. Recovery
/// rehydrates recorded outcomes only from submissions that carry this
/// tag; older acknowledged jobs are recomputed when resubmitted.
///
/// v2: the `routed-heft`/`routed-ilha` aliases canonicalise to `heft`/
/// `ilha`, so a v1 alias outcome (which could take detours a plain `heft`
/// never takes) must not answer the folded key.
pub const LEDGER_SCHEMA: &str = "onesched-ledger/v2";

/// FNV-1a 64-bit hash of a canonical spec key, as 16 hex digits. The
/// ledger stores this digest instead of the full canonical key (which can
/// be kilobytes for elaborate platform specs); the full spec travels in
/// the `submitted` record and the digest joins the lifecycle events to it.
pub fn key_hash(key: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One ledger event. A flat record (every lifecycle stage shares the
/// shape, distinguished by `event`) keyed by `seq`, the daemon's
/// monotone submission counter — ids are client-chosen and may repeat, so
/// `seq` is the join key between a submission and its lifecycle events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// `"submitted"`, `"started"`, `"done"`, or `"failed"`. Unknown events
    /// parse fine (forward compatibility) and are ignored by recovery.
    pub event: String,
    /// The daemon's submission sequence number this event belongs to.
    pub seq: u64,
    /// Schema tag ([`LEDGER_SCHEMA`]) — `submitted` records only.
    #[serde(default)]
    pub schema: Option<String>,
    /// The job id the response will carry.
    #[serde(default)]
    pub id: Option<String>,
    /// Canonical-spec digest ([`key_hash`]); for simulations, the digest
    /// of `"{job_key}|{sim_key}"`.
    #[serde(default)]
    pub key: Option<String>,
    /// Submission priority — `submitted` records only.
    #[serde(default)]
    pub priority: Option<i64>,
    /// The normalized job spec — `submitted` records only.
    #[serde(default)]
    pub job: Option<JobSpec>,
    /// The normalized sim spec — `submitted` records for `simulate` only.
    #[serde(default)]
    pub sim: Option<SimSpec>,
    /// The recorded outcome — `done` records for completed work.
    #[serde(default)]
    pub outcome: Option<LedgerOutcome>,
    /// Why the job failed (`failed`) or was tombstoned (`done` without an
    /// outcome, e.g. `"shutting-down"`).
    #[serde(default)]
    pub message: Option<String>,
}

impl LedgerRecord {
    /// A `submitted` record: the durable intent to run a job.
    pub fn submitted(
        seq: u64,
        id: &str,
        key: &str,
        priority: i64,
        job: JobSpec,
        sim: Option<SimSpec>,
    ) -> LedgerRecord {
        LedgerRecord {
            event: "submitted".into(),
            seq,
            schema: Some(LEDGER_SCHEMA.into()),
            id: Some(id.into()),
            key: Some(key.into()),
            priority: Some(priority),
            job: Some(job),
            sim,
            outcome: None,
            message: None,
        }
    }

    /// A `started` record: a worker began (another) construction attempt.
    pub fn started(seq: u64, id: &str, key: &str) -> LedgerRecord {
        LedgerRecord {
            event: "started".into(),
            seq,
            schema: None,
            id: Some(id.into()),
            key: Some(key.into()),
            priority: None,
            job: None,
            sim: None,
            outcome: None,
            message: None,
        }
    }

    /// A `done` record: the job was answered. Carries the outcome for real
    /// completions; tombstones (shed, shutting-down) carry a `message`
    /// instead.
    pub fn done(
        seq: u64,
        id: &str,
        key: &str,
        outcome: Option<LedgerOutcome>,
        message: Option<String>,
    ) -> LedgerRecord {
        LedgerRecord {
            event: "done".into(),
            seq,
            schema: None,
            id: Some(id.into()),
            key: Some(key.into()),
            priority: None,
            job: None,
            sim: None,
            outcome,
            message,
        }
    }

    /// A `failed` record: the job was answered with a protocol error
    /// (execution failure, timeout, poison).
    pub fn failed(seq: u64, id: &str, key: &str, message: String) -> LedgerRecord {
        LedgerRecord {
            event: "failed".into(),
            seq,
            schema: None,
            id: Some(id.into()),
            key: Some(key.into()),
            priority: None,
            job: None,
            sim: None,
            outcome: None,
            message: Some(message),
        }
    }
}

/// A recorded outcome as it appears in a `done` record: the
/// [`JobOutcome`] fields (fingerprint as 16 hex digits, duration as
/// milliseconds) plus the simulation half for `simulate` jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerOutcome {
    /// Scheduler display name.
    pub scheduler: String,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Schedule makespan.
    pub makespan: f64,
    /// Speedup over sequential.
    pub speedup: f64,
    /// Number of effective communications.
    pub effective_comms: usize,
    /// Placement fingerprint, 16 hex digits.
    pub fingerprint: String,
    /// Construction wall-clock, milliseconds.
    pub construct_ms: f64,
    /// Validator violations.
    pub violations: usize,
    /// Dispatch policy — simulations only.
    #[serde(default)]
    pub policy: Option<String>,
    /// Perturbation seed — simulations only.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Executed makespan — simulations only.
    #[serde(default)]
    pub executed_makespan: Option<f64>,
    /// Executed/static makespan ratio — simulations only.
    #[serde(default)]
    pub degradation: Option<f64>,
    /// Executed-trace fingerprint, 16 hex digits — simulations only.
    #[serde(default)]
    pub trace_fingerprint: Option<String>,
    /// Engine wall-clock, milliseconds — simulations only.
    #[serde(default)]
    pub exec_ms: Option<f64>,
    /// Events drained by the execution engine — simulations only; absent
    /// in records written before the field existed (rehydrates as 0).
    #[serde(default)]
    pub events: Option<u64>,
}

/// Parse 16 hex digits back to the u64 fingerprint.
fn parse_fingerprint(hex: &str) -> Option<u64> {
    u64::from_str_radix(hex, 16).ok()
}

/// Milliseconds back to a `Duration`, rejecting nothing: negative or
/// non-finite values (impossible from our own writer, but the ledger is
/// client-editable bytes on disk) degrade to zero instead of panicking.
fn duration_from_ms(ms: f64) -> Duration {
    Duration::try_from_secs_f64((ms / 1e3).max(0.0)).unwrap_or_default()
}

impl LedgerOutcome {
    /// Record a construction outcome.
    pub fn from_job(o: &JobOutcome) -> LedgerOutcome {
        LedgerOutcome {
            scheduler: o.scheduler.clone(),
            tasks: o.tasks,
            makespan: o.makespan,
            speedup: o.speedup,
            effective_comms: o.effective_comms,
            fingerprint: format!("{:016x}", o.fingerprint),
            construct_ms: o.construct.as_secs_f64() * 1e3,
            violations: o.violations,
            policy: None,
            seed: None,
            executed_makespan: None,
            degradation: None,
            trace_fingerprint: None,
            exec_ms: None,
            events: None,
        }
    }

    /// Record a construct-then-execute outcome.
    pub fn from_sim(o: &SimOutcome) -> LedgerOutcome {
        LedgerOutcome {
            policy: Some(o.policy.clone()),
            seed: Some(o.seed),
            executed_makespan: Some(o.executed_makespan),
            degradation: Some(o.degradation),
            trace_fingerprint: Some(format!("{:016x}", o.trace_fingerprint)),
            exec_ms: Some(o.exec.as_secs_f64() * 1e3),
            events: Some(o.events_processed),
            ..LedgerOutcome::from_job(&o.job)
        }
    }

    /// Rehydrate the construction outcome, if the record is well-formed.
    pub fn to_job(&self) -> Option<JobOutcome> {
        Some(JobOutcome {
            scheduler: self.scheduler.clone(),
            tasks: self.tasks,
            makespan: self.makespan,
            speedup: self.speedup,
            effective_comms: self.effective_comms,
            fingerprint: parse_fingerprint(&self.fingerprint)?,
            construct: duration_from_ms(self.construct_ms),
            violations: self.violations,
        })
    }

    /// Rehydrate the simulation outcome, if this record carries one.
    pub fn to_sim(&self) -> Option<SimOutcome> {
        Some(SimOutcome {
            job: self.to_job()?,
            policy: self.policy.clone()?,
            seed: self.seed?,
            executed_makespan: self.executed_makespan?,
            degradation: self.degradation?,
            trace_fingerprint: parse_fingerprint(self.trace_fingerprint.as_deref()?)?,
            events_processed: self.events.unwrap_or(0),
            exec: duration_from_ms(self.exec_ms?),
        })
    }
}

/// The result of reading a ledger file: the longest valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<LedgerRecord>,
    /// Byte length of the valid prefix ([`Ledger::open`] truncates the
    /// file to this before appending).
    pub valid_bytes: u64,
    /// Whether anything followed the valid prefix (a torn write or
    /// corruption that was discarded).
    pub torn: bool,
}

/// Parse ledger bytes tolerantly: the longest valid prefix of records
/// (the reader the trace parser shares, [`read_ndjson_prefix`]). Never
/// panics, never errors — a corrupt ledger yields the longest valid
/// prefix, possibly empty.
pub fn parse_ledger(bytes: &[u8]) -> Replay {
    let (records, valid_bytes, torn) = read_ndjson_prefix(bytes);
    Replay {
        records,
        valid_bytes,
        torn,
    }
}

/// The prefix of a `failed` record's message that tombstones its job as
/// poison: it crashed every attempt, and its spec stays rejected.
pub const POISON: &str = "poison:";

/// How a submission ended, as far as the ledger knows.
#[derive(Debug, Clone, PartialEq)]
pub enum Ending {
    /// No `done` or `failed` record: the work a recovery re-queues.
    Open,
    /// Answered by the first `done` or `failed` record: with its recorded
    /// outcome, or without one for a tombstone or a failure.
    Answered(Option<Box<LedgerOutcome>>),
    /// A `failed` record carrying the [`POISON`] marker. It wins over
    /// every other ending, as the daemon's poison set does at intake.
    Poisoned,
}

/// A `submitted` record folded together with its lifecycle events.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The job id the response carries.
    pub id: String,
    /// The recorded canonical-spec digest.
    pub key: String,
    /// Submission priority.
    pub priority: i64,
    /// The normalized job spec.
    pub job: JobSpec,
    /// The normalized sim spec, for `simulate` submissions.
    pub sim: Option<SimSpec>,
    /// Whether the submission carries the current [`LEDGER_SCHEMA`]: only
    /// then may its recorded outcome answer the re-resolved key.
    pub current: bool,
    /// `started` records: construction attempts, across restarts.
    pub starts: u32,
    /// How it ended.
    pub ending: Ending,
}

/// Fold lifecycle events onto their submissions by `seq` (ids are
/// client-chosen and may repeat across restarts) — the one fold behind
/// both recovery and [`summarize_ledger`]. Events of a seq with no
/// well-formed `submitted` record before them, and unknown events, are
/// skipped.
pub fn fold_ledger(records: &[LedgerRecord]) -> BTreeMap<u64, Submission> {
    let mut subs = BTreeMap::new();
    for rec in records {
        if rec.event == "submitted" {
            if let (Some(id), Some(job)) = (&rec.id, &rec.job) {
                let sub = Submission {
                    id: id.clone(),
                    key: rec.key.clone().unwrap_or_default(),
                    priority: rec.priority.unwrap_or(0),
                    job: job.clone(),
                    sim: rec.sim.clone(),
                    current: rec.schema.as_deref() == Some(LEDGER_SCHEMA),
                    starts: 0,
                    ending: Ending::Open,
                };
                subs.insert(rec.seq, sub);
            }
            continue;
        }
        let Some(sub) = subs.get_mut(&rec.seq) else {
            continue;
        };
        let poison = rec
            .message
            .as_deref()
            .is_some_and(|m| m.starts_with(POISON));
        match rec.event.as_str() {
            "started" => sub.starts = sub.starts.saturating_add(1),
            "failed" if poison => sub.ending = Ending::Poisoned,
            "done" | "failed" if sub.ending == Ending::Open => {
                sub.ending = Ending::Answered(rec.outcome.clone().map(Box::new));
            }
            _ => {}
        }
    }
    subs
}

/// An offline digest of a ledger file (`onesched-svc ledger inspect`):
/// event counts, the jobs still owed an answer, poison tombstones, and
/// where the valid prefix ends. Serializable so the inspector prints one
/// machine-readable JSON object.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// Records in the valid prefix.
    pub records: u64,
    /// Byte length of the valid prefix (where `Ledger::open` would
    /// truncate to).
    pub valid_bytes: u64,
    /// Whether a torn tail (or mid-file corruption) follows the prefix.
    pub torn: bool,
    /// `submitted` records.
    pub submitted: u64,
    /// `started` records (construction attempts, retries included).
    pub started: u64,
    /// `done` records (outcomes and tombstones).
    pub done: u64,
    /// `failed` records.
    pub failed: u64,
    /// Records with an event this version does not know.
    pub other: u64,
    /// `done` records carrying a recorded outcome.
    pub outcomes: u64,
    /// `done` records without one (shed / shutting-down tombstones).
    pub tombstones: u64,
    /// Submission seqs with no `done`/`failed` record — the work a
    /// recovery would re-queue.
    pub unacknowledged: Vec<u64>,
    /// Recorded canonical-spec digests of the submissions tombstoned as
    /// poison (crash-looping jobs), sorted.
    pub poisoned: Vec<String>,
    /// Highest seq seen (0 for an empty ledger).
    pub max_seq: u64,
}

/// Summarize a replayed ledger: a per-record tally plus [`fold_ledger`].
/// Pure accounting over [`parse_ledger`]'s output — reads nothing, never
/// fails.
pub fn summarize_ledger(replay: &Replay) -> LedgerSummary {
    let mut s = LedgerSummary {
        records: replay.records.len() as u64,
        valid_bytes: replay.valid_bytes,
        torn: replay.torn,
        ..LedgerSummary::default()
    };
    for rec in &replay.records {
        s.max_seq = s.max_seq.max(rec.seq);
        match rec.event.as_str() {
            "submitted" => s.submitted += 1,
            "started" => s.started += 1,
            "done" => {
                s.done += 1;
                if rec.outcome.is_some() {
                    s.outcomes += 1;
                } else {
                    s.tombstones += 1;
                }
            }
            "failed" => s.failed += 1,
            _ => s.other += 1,
        }
    }
    let mut poisoned = BTreeSet::new();
    for (seq, sub) in fold_ledger(&replay.records) {
        match sub.ending {
            Ending::Open => s.unacknowledged.push(seq),
            Ending::Poisoned => {
                poisoned.insert(sub.key);
            }
            Ending::Answered(_) => {}
        }
    }
    s.poisoned = poisoned.into_iter().collect();
    s
}

/// A ledger I/O failure, with the operation and path that failed. The
/// *reader* never produces one (corruption is tolerated, not reported);
/// only opening and appending touch the filesystem.
#[derive(Debug)]
pub struct LedgerError {
    op: &'static str,
    path: PathBuf,
    source: std::io::Error,
}

impl LedgerError {
    fn new(op: &'static str, path: &Path, source: std::io::Error) -> LedgerError {
        LedgerError {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ledger {} failed for {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for LedgerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The append half of the ledger: an open file positioned after the valid
/// prefix, with fsync batching.
#[derive(Debug)]
pub struct Ledger {
    file: File,
    path: PathBuf,
    sync_every: u64,
    unsynced: u64,
    bytes: u64,
    appended: u64,
}

impl Ledger {
    /// How many appends between `sync_data` calls by default. Every append
    /// still reaches the kernel immediately (SIGKILL-safe); the batch only
    /// amortizes the disk flush that guards against power loss.
    pub const DEFAULT_SYNC_EVERY: u64 = 64;

    /// Open (creating if absent) the ledger at `path`: read and return the
    /// valid prefix, truncate any torn tail, and position the writer at
    /// the end of the prefix.
    pub fn open(path: &Path) -> Result<(Ledger, Replay), LedgerError> {
        Ledger::open_with(path, Ledger::DEFAULT_SYNC_EVERY)
    }

    /// [`Ledger::open`] with an explicit fsync batch size (`0` behaves
    /// as `1`: sync on every append).
    pub fn open_with(path: &Path, sync_every: u64) -> Result<(Ledger, Replay), LedgerError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(LedgerError::new("read", path, e)),
        };
        let replay = parse_ledger(&bytes);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| LedgerError::new("open", path, e))?;
        file.set_len(replay.valid_bytes)
            .map_err(|e| LedgerError::new("truncate", path, e))?;
        file.seek(SeekFrom::Start(replay.valid_bytes))
            .map_err(|e| LedgerError::new("seek", path, e))?;
        Ok((
            Ledger {
                file,
                path: path.to_path_buf(),
                sync_every: sync_every.max(1),
                unsynced: 0,
                bytes: replay.valid_bytes,
                appended: 0,
            },
            replay,
        ))
    }

    /// Append one record as a complete NDJSON line, writing it through to
    /// the kernel before returning.
    pub fn append(&mut self, record: &LedgerRecord) -> Result<(), LedgerError> {
        let mut line = serde_json::to_string(record).map_err(|e| {
            LedgerError::new(
                "serialize",
                &self.path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
            )
        })?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| LedgerError::new("append", &self.path, e))?;
        self.bytes += line.len() as u64;
        self.appended += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush pending appends to stable storage (`sync_data`).
    pub fn sync(&mut self) -> Result<(), LedgerError> {
        self.file
            .sync_data()
            .map_err(|e| LedgerError::new("sync", &self.path, e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Current ledger size in bytes (valid prefix plus appends).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended through this handle (excludes the replayed
    /// prefix).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The ledger file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DagSpec;
    use onesched_testbeds::Testbed;

    fn spec() -> JobSpec {
        JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, 10),
            platform: None,
            scheduler: None,
            model: None,
            validate: false,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "onesched-ledger-test-{}-{tag}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn record_round_trips_through_ndjson() {
        let rec = LedgerRecord::submitted(7, "job-7", &key_hash("k"), 3, spec(), None);
        let line = serde_json::to_string(&rec).unwrap();
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.schema.as_deref(), Some(LEDGER_SCHEMA));
    }

    #[test]
    fn parse_recovers_longest_valid_prefix() {
        let a = serde_json::to_string(&LedgerRecord::started(0, "a", "k")).unwrap();
        let b = serde_json::to_string(&LedgerRecord::started(1, "b", "k")).unwrap();
        let full = format!("{a}\n{b}\n");
        let clean = parse_ledger(full.as_bytes());
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.valid_bytes, full.len() as u64);
        assert!(!clean.torn);
        // a torn third line: everything before it survives
        let torn = format!("{full}{{\"event\":\"sta");
        let r = parse_ledger(torn.as_bytes());
        assert_eq!(r.records, clean.records);
        assert_eq!(r.valid_bytes, full.len() as u64);
        assert!(r.torn);
        // garbage mid-file: the prefix before it survives, the valid
        // record after it is sacrificed (append-only logs cannot skip)
        let poisoned = format!("{a}\nnot json\n{b}\n");
        let r = parse_ledger(poisoned.as_bytes());
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.valid_bytes, (a.len() + 1) as u64);
        assert!(r.torn);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let path = temp_path("truncate");
        let rec = LedgerRecord::submitted(0, "x", "deadbeef", 0, spec(), None);
        {
            let (mut ledger, replay) = Ledger::open(&path).unwrap();
            assert!(replay.records.is_empty());
            ledger.append(&rec).unwrap();
            ledger.sync().unwrap();
        }
        // simulate a crash mid-append
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"done\",\"se").unwrap();
        }
        let (ledger, replay) = Ledger::open(&path).unwrap();
        assert_eq!(replay.records, vec![rec.clone()]);
        assert!(replay.torn);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(clean_len, replay.valid_bytes, "tail truncated on open");
        assert_eq!(ledger.bytes(), replay.valid_bytes);
        drop(ledger);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn outcome_round_trips_job_and_sim_halves() {
        let job = JobOutcome {
            scheduler: "HEFT".into(),
            tasks: 55,
            makespan: 123.5,
            speedup: 3.25,
            effective_comms: 40,
            fingerprint: 0xdead_beef_cafe_f00d,
            construct: Duration::from_millis(12),
            violations: 0,
        };
        let rec = LedgerOutcome::from_job(&job);
        assert_eq!(rec.to_job(), Some(job.clone()));
        assert_eq!(rec.to_sim(), None, "no sim half recorded");
        let sim = SimOutcome {
            job,
            policy: "static-order".into(),
            seed: 9,
            executed_makespan: 130.0,
            degradation: 1.05,
            trace_fingerprint: 0x0123_4567_89ab_cdef,
            events_processed: 77,
            exec: Duration::from_millis(3),
        };
        let rec = LedgerOutcome::from_sim(&sim);
        assert_eq!(rec.to_sim(), Some(sim));
        // a hand-edited fingerprint that is not hex refuses to rehydrate
        let mut bad = rec.clone();
        bad.fingerprint = "zz".into();
        assert_eq!(bad.to_job(), None);
    }

    #[test]
    fn old_sim_records_without_events_rehydrate_as_zero() {
        let job = JobOutcome {
            scheduler: "HEFT".into(),
            tasks: 1,
            makespan: 1.0,
            speedup: 1.0,
            effective_comms: 0,
            fingerprint: 1,
            construct: Duration::from_millis(1),
            violations: 0,
        };
        let sim = SimOutcome {
            job,
            policy: "static-order".into(),
            seed: 0,
            executed_makespan: 1.0,
            degradation: 1.0,
            trace_fingerprint: 2,
            events_processed: 9,
            exec: Duration::from_millis(1),
        };
        let mut rec = LedgerOutcome::from_sim(&sim);
        assert_eq!(rec.events, Some(9));
        // a pre-events ledger line simply lacks the field
        rec.events = None;
        let line = serde_json::to_string(&rec).unwrap();
        let back: LedgerOutcome = serde_json::from_str(&line).unwrap();
        assert_eq!(back.to_sim().unwrap().events_processed, 0);
    }

    #[test]
    fn fold_lets_poison_win_and_skips_orphan_events() {
        let hash = key_hash("k");
        let job = JobOutcome {
            scheduler: "HEFT".into(),
            tasks: 1,
            makespan: 1.0,
            speedup: 1.0,
            effective_comms: 0,
            fingerprint: 1,
            construct: Duration::from_millis(1),
            violations: 0,
        };
        let outcome = LedgerOutcome::from_job(&job);
        let records = [
            LedgerRecord::started(0, "orphan", &hash),
            LedgerRecord::submitted(0, "a", &hash, 4, spec(), None),
            LedgerRecord::started(0, "a", &hash),
            LedgerRecord::done(0, "a", &hash, Some(outcome.clone()), None),
            LedgerRecord::failed(0, "a", &hash, format!("{POISON} 3 attempts panicked")),
            LedgerRecord::submitted(1, "b", &hash, 0, spec(), None),
            LedgerRecord::failed(1, "b", &hash, "timeout".into()),
            LedgerRecord::done(1, "b", &hash, Some(outcome), None),
            LedgerRecord::failed(2, "never-submitted", &hash, format!("{POISON} x")),
            LedgerRecord::submitted(3, "c", &hash, 0, spec(), None),
        ];
        let subs = fold_ledger(&records);
        assert_eq!(subs.keys().copied().collect::<Vec<_>>(), vec![0, 1, 3]);
        let a = &subs[&0];
        assert_eq!((a.id.as_str(), a.priority, a.starts), ("a", 4, 1));
        assert!(a.current);
        assert_eq!(a.ending, Ending::Poisoned, "poison wins over the answer");
        assert_eq!(
            subs[&1].ending,
            Ending::Answered(None),
            "the first answer stands"
        );
        assert_eq!(subs[&3].ending, Ending::Open);
    }

    #[test]
    fn summary_accounts_every_lifecycle_shape() {
        let hash = key_hash("k");
        let mut lines = String::new();
        for rec in [
            LedgerRecord::submitted(1, "a", &hash, 0, spec(), None),
            LedgerRecord::started(1, "a", &hash),
            LedgerRecord::done(1, "a", &hash, None, Some("shutting-down".into())),
            LedgerRecord::submitted(2, "b", &hash, 0, spec(), None),
            LedgerRecord::started(2, "b", &hash),
            LedgerRecord::failed(2, "b", &hash, "poison: 3 attempts panicked".into()),
            LedgerRecord::submitted(3, "c", &hash, 0, spec(), None),
        ] {
            lines.push_str(&serde_json::to_string(&rec).unwrap());
            lines.push('\n');
        }
        lines.push_str("{\"event\":\"torn"); // unterminated tail
        let replay = parse_ledger(lines.as_bytes());
        let s = summarize_ledger(&replay);
        assert_eq!(s.records, 7);
        assert!(s.torn);
        assert_eq!((s.submitted, s.started, s.done, s.failed), (3, 2, 1, 1));
        assert_eq!((s.outcomes, s.tombstones), (0, 1));
        assert_eq!(s.unacknowledged, vec![3], "only seq 3 is owed an answer");
        assert_eq!(s.poisoned, vec![hash]);
        assert_eq!(s.max_seq, 3);
        // the summary is itself NDJSON-safe
        let json = serde_json::to_string(&s).unwrap();
        let back: LedgerSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
