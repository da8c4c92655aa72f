//! The long-running scheduling daemon: request intake, the priority queue,
//! the worker pool, result streaming — and the robustness layer that keeps
//! all of it alive across crashes and overload.
//!
//! Architecture (the scheduler/runner split of dslab, adapted to a
//! service): schedulers stay pure functions of `(graph, platform, model)`;
//! this module owns everything stateful — connections, the job queue, the
//! schedule cache, statistics. Workers are `std::thread::scope` threads
//! sharing the service by reference (no `Arc` of the service itself),
//! blocking on a condition variable because the queue is dynamic — a
//! long-lived pool, not a fan-out over a fixed item list, so it does not
//! go through `onesched_heuristics::par_map`.
//!
//! Each submission carries a handle to its connection's writer; whichever
//! worker finishes a job serializes the result and writes it under the
//! writer's lock as one complete line, so concurrent jobs never interleave
//! bytes within a line. Responses stream in *completion* order (priority
//! first), not submission order — clients match results by `id`.
//!
//! ## Durability and graceful degradation
//!
//! With `--ledger PATH` every accepted job is written ahead to an
//! append-only NDJSON event log ([`crate::ledger`]) *before* it enters the
//! queue, and its outcome is recorded *before* the response line goes out.
//! On startup [`Service::with_ledger`] replays the log: acknowledged
//! outcomes rehydrate the schedule/sim caches, unacknowledged jobs
//! re-enter the queue in their original priority/FIFO order, and jobs that
//! took the daemon down more than `max_retries` times are tombstoned as
//! poison instead of crash-looping. Because every job is deterministic,
//! recovery is just re-running specs — restarted results are bit-identical
//! to an uninterrupted run (the fault-injection harness in
//! `tests/service_recovery.rs` SIGKILLs the daemon mid-batch to prove it).
//!
//! Under load the daemon degrades in stages rather than falling over: past
//! the queue's high-water mark new work competes by priority (the
//! lowest-priority newest entry is shed with an `overloaded` error and a
//! `retry_after_ms` hint), at the hard cap submissions are rejected
//! outright, per-job wall-clock deadlines turn stragglers into `timeout`
//! errors, and a worker panic re-queues the job at reduced priority
//! (deterministic backoff by position, not wall-clock) up to `max_retries`
//! before the job is poisoned.

use crate::cache::{
    run_job, run_portfolio_members, run_sim_job, ConstructProbe, JobOutcome, Registry,
    ServiceStats, SimOutcome, SimRunError, StatsGauges, PHASES,
};
use crate::ledger::{
    fold_ledger, key_hash, Ending, Ledger, LedgerError, LedgerOutcome, LedgerRecord, Replay, POISON,
};
use crate::protocol::{
    AckResponse, ErrorResponse, MetricsResponse, ReadyResponse, Request, ResolvedJob, ResolvedSim,
    ResultResponse, SimResultResponse, PROTOCOL_VERSION,
};
use crate::queue::PriorityQueue;
use onesched_trace::{prometheus_text, Clock, Gauge, MetricsHub, Scope, Tracer, WallClock};
use serde::Serialize;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A line-oriented output shared between the intake thread and the workers.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Lock a mutex, recovering from poisoning. Everything the daemon guards —
/// counters, caches, the queue, a writer — is valid at every instruction
/// boundary, so a panicking thread elsewhere must not cascade into wedging
/// the rest of the worker pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serialize a response line, newline included, so it goes out in one
/// write. The response types cannot fail to serialize, but the answer path
/// must never panic a worker, so the impossible case degrades to a fixed
/// protocol error line.
fn to_line<T: Serialize>(value: &T) -> String {
    let mut line = serde_json::to_string(value).unwrap_or_else(|_| {
        r#"{"op":"error","message":"internal: response serialization failed"}"#.to_string()
    });
    line.push('\n');
    line
}

/// A writer that discards everything: where recovered (ownerless) jobs
/// stream their results — the outcomes land in the caches and the ledger,
/// which is what the original clients will be answered from.
fn sink_writer() -> SharedWriter {
    Arc::new(Mutex::new(Box::new(io::sink())))
}

/// Default bound on queued jobs (see [`ServiceConfig::queue_cap`]).
pub const DEFAULT_QUEUE_CAP: usize = 16_384;

/// Default bound on construction attempts per job (see
/// [`ServiceConfig::max_retries`]).
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads serving the job queue.
    pub workers: usize,
    /// Maximum schedule-cache entries (FIFO eviction). The simulation
    /// cache gets the same capacity.
    pub cache_capacity: usize,
    /// Maximum queued (accepted but unfinished) jobs. Submissions beyond
    /// the cap are answered with a protocol `error` instead of growing the
    /// queue unboundedly — backpressure a flooding client can see.
    pub queue_cap: usize,
    /// How many times a job that panicked a worker (or repeatedly took
    /// the daemon down, per the ledger's `started` count) is retried
    /// before being tombstoned as poison.
    pub max_retries: u32,
    /// Per-job wall-clock deadline, measured from acceptance. Checked at
    /// dequeue and between the construct/execute stages; an expired job is
    /// answered with a `timeout` protocol error. `None` disables it.
    pub timeout: Option<Duration>,
    /// Queue depth at which admission control starts shedding
    /// lowest-priority work (`None`: three quarters of `queue_cap`).
    /// Setting it to `queue_cap` disables shedding, leaving only the hard
    /// cap.
    pub high_water: Option<usize>,
    /// Structured-trace sink (`--trace PATH`): every job's span tree is
    /// appended as `onesched-trace/v1` NDJSON. `None` disables span
    /// recording entirely; the metrics hub is always on. A path that
    /// cannot be opened degrades to no tracing (with a stderr note), not
    /// a dead daemon.
    pub trace: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: onesched_heuristics::default_threads(),
            cache_capacity: 1024,
            queue_cap: DEFAULT_QUEUE_CAP,
            max_retries: DEFAULT_MAX_RETRIES,
            timeout: None,
            high_water: None,
            trace: None,
        }
    }
}

/// What a queued submission asks for.
enum Work {
    /// Construct a schedule (`submit`).
    Job(ResolvedJob),
    /// Construct, then execute under perturbation (`simulate`).
    Sim(ResolvedJob, ResolvedSim),
}

impl Work {
    /// The cache key: the job's canonical key, plus the resolved sim spec
    /// for a simulation (the same schedule under a different seed or
    /// policy is a different deterministic experiment).
    fn key(&self) -> Cow<'_, str> {
        match self {
            Work::Job(job) => Cow::Borrowed(&job.key),
            Work::Sim(job, sim) => Cow::Owned(format!("{}|{}", job.key, sim.key)),
        }
    }

    /// The canonical-spec digest joining this work's ledger events.
    fn hash(&self) -> String {
        key_hash(&self.key())
    }
}

/// One queued submission: the resolved work plus where its result goes and
/// the robustness bookkeeping (ledger seq, deadline, attempt count).
struct Ticket {
    /// The daemon's submission sequence number (the ledger join key).
    seq: u64,
    id: String,
    /// The priority the client asked for (retries re-queue below it).
    priority: i64,
    /// Construction attempts so far (in-process panics plus, for
    /// recovered jobs, the ledger's `started` count).
    attempts: u32,
    /// Wall-clock deadline on the service clock (microseconds), when the
    /// service has a timeout configured.
    deadline: Option<u64>,
    /// Acceptance time on the service clock, microseconds — the root
    /// `job` span's start and the queue-wait measurement origin.
    accepted_us: u64,
    /// Canonical-spec digest ([`Work::hash`], precomputed).
    key: String,
    work: Work,
    out: SharedWriter,
}

/// What [`Service::with_ledger`] found and did while replaying the ledger.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Records in the ledger's valid prefix.
    pub events_replayed: usize,
    /// Whether a torn tail (crash mid-append) was truncated.
    pub torn_tail: bool,
    /// Unacknowledged jobs re-queued for execution.
    pub jobs_requeued: usize,
    /// Acknowledged outcomes rehydrated into the schedule/sim caches.
    pub results_rehydrated: usize,
    /// Jobs tombstoned as poison: by an earlier session, or now, for
    /// being `started` more than `max_retries` times without completing.
    pub poisoned: usize,
    /// Submitted records whose spec no longer resolves (tombstoned).
    pub skipped: usize,
}

/// The scheduling service. Create one with [`Service::new`] (in-memory
/// only) or [`Service::with_ledger`] (durable, crash-recoverable), then
/// drive it with [`Service::serve_stdio`] or [`Service::serve_tcp`] (or
/// feed request lines directly through [`Service::serve_reader`] for
/// embedding/tests).
pub struct Service {
    cfg: ServiceConfig,
    queue: Mutex<PriorityQueue<Ticket>>,
    ready: Condvar,
    registry: Mutex<Registry>,
    sim_registry: Mutex<Registry<SimOutcome>>,
    stats: Mutex<ServiceStats>,
    ledger: Option<Mutex<Ledger>>,
    /// Canonical-spec digests tombstoned as poison: resubmissions are
    /// rejected at intake instead of crash-looping a worker.
    poisoned: Mutex<BTreeSet<String>>,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    next_seq: AtomicU64,
    /// Service start on the service clock (microseconds) — the uptime
    /// origin.
    started_us: u64,
    /// The service clock every span, deadline, queue-wait, and uptime
    /// measurement reads — the service's only wall-time source (the D104
    /// discipline: no direct `Instant` reads outside `WallClock`).
    clock: Arc<dyn Clock>,
    /// Span recorder streaming to `cfg.trace`; `None` when tracing is
    /// off. Spans are write-only observers — fingerprints and response
    /// bytes are bit-identical either way.
    tracer: Option<Tracer>,
    /// Always-on counters and histograms behind the `metrics` op.
    metrics: MetricsHub,
    /// Workers currently running a claimed ticket (the
    /// `onesched_workers_busy` gauge).
    busy: AtomicU64,
    /// Worker-thread index allocator (trace `worker` attribution).
    next_worker: AtomicU64,
}

/// Poll interval for blocking accept/read loops while checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(25);

impl Service {
    /// New idle service (no ledger: no durability, no recovery).
    pub fn new(cfg: ServiceConfig) -> Service {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let tracer = cfg.trace.as_ref().and_then(|path| {
            match std::fs::File::create(path) {
                Ok(file) => {
                    let t = Tracer::new(Arc::clone(&clock));
                    t.set_sink(Box::new(file));
                    Some(t)
                }
                Err(e) => {
                    // Tracing is an observer: an unopenable sink degrades
                    // observability, never availability.
                    eprintln!(
                        "onesched-svc: cannot open trace sink {} (tracing disabled): {e}",
                        path.display()
                    );
                    None
                }
            }
        });
        Service {
            registry: Mutex::new(Registry::new(cfg.cache_capacity)),
            sim_registry: Mutex::new(Registry::new(cfg.cache_capacity)),
            cfg,
            queue: Mutex::new(PriorityQueue::new()),
            ready: Condvar::new(),
            stats: Mutex::new(ServiceStats::default()),
            ledger: None,
            poisoned: Mutex::new(BTreeSet::new()),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            started_us: clock.now_micros(),
            clock,
            tracer,
            metrics: MetricsHub::new(),
            busy: AtomicU64::new(0),
            next_worker: AtomicU64::new(0),
        }
    }

    /// New durable service journaling to the ledger at `path`, recovering
    /// whatever a previous process left there: the torn tail (if any) is
    /// truncated, acknowledged outcomes rehydrate the caches,
    /// unacknowledged jobs re-enter the queue in original priority/FIFO
    /// order, and crash-looping jobs are tombstoned as poison.
    pub fn with_ledger(
        cfg: ServiceConfig,
        path: &Path,
    ) -> Result<(Service, RecoveryReport), LedgerError> {
        let (mut ledger, replay) = Ledger::open(path)?;
        let svc = Service::new(cfg);
        let report = svc.recover(&replay, &mut ledger);
        ledger.sync()?;
        Ok((
            Service {
                ledger: Some(Mutex::new(ledger)),
                ..svc
            },
            report,
        ))
    }

    /// Replay a parsed ledger into this (idle, pre-serve) service.
    fn recover(&self, replay: &Replay, ledger: &mut Ledger) -> RecoveryReport {
        let mut report = RecoveryReport {
            events_replayed: replay.records.len(),
            torn_tail: replay.torn,
            ..RecoveryReport::default()
        };
        let next_seq = replay.records.iter().map(|r| r.seq.saturating_add(1)).max();
        self.next_seq
            .store(next_seq.unwrap_or(0), Ordering::Relaxed);
        // BTreeMap iteration is in seq order, so re-queued jobs keep their
        // original FIFO order within each priority class.
        for (seq, sub) in fold_ledger(&replay.records) {
            let resolved = sub.job.resolve().map_err(|e| e.message).and_then(|job| {
                Ok(match &sub.sim {
                    Some(sim) => Work::Sim(job, sim.resolve()?),
                    None => Work::Job(job),
                })
            });
            let work = match resolved {
                Ok(work) => work,
                Err(e) => {
                    // Accepted by a previous (incompatible?) build: answer
                    // the ledger, not the long-gone client.
                    let msg = format!("unresolvable after restart: {e}");
                    let _ = ledger.append(&LedgerRecord::failed(seq, &sub.id, &sub.key, msg));
                    report.skipped += 1;
                    continue;
                }
            };
            let hash = work.hash();
            match sub.ending {
                // Acknowledged: rehydrate the recorded outcome so repeat
                // submissions are cache hits, bit-identical to pre-crash.
                // An older schema's outcome is dropped instead: its spec
                // may resolve to a key that now names different work.
                Ending::Answered(Some(outcome)) if sub.current => match &work {
                    Work::Job(job) => {
                        if let Some(o) = outcome.to_job() {
                            lock(&self.registry).insert(job.key.clone(), o);
                            report.results_rehydrated += 1;
                        }
                    }
                    Work::Sim(..) => {
                        if let Some(o) = outcome.to_sim() {
                            lock(&self.sim_registry).insert(work.key().into_owned(), o);
                            report.results_rehydrated += 1;
                        }
                    }
                },
                Ending::Answered(_) => {}
                // Tombstoned by an earlier session: keep rejecting it.
                Ending::Poisoned => {
                    lock(&self.poisoned).insert(hash);
                    report.poisoned += 1;
                }
                // This job took a previous daemon down on every attempt:
                // tombstone it instead of crash-looping forever.
                Ending::Open if sub.starts > self.cfg.max_retries => {
                    let msg = format!(
                        "{POISON} started {} times without completing (max-retries {})",
                        sub.starts, self.cfg.max_retries
                    );
                    let _ = ledger.append(&LedgerRecord::failed(seq, &sub.id, &hash, msg));
                    lock(&self.poisoned).insert(hash);
                    report.poisoned += 1;
                }
                // Unacknowledged: re-queue for execution. The original
                // client is gone, so results stream to a sink — the caches
                // and the ledger keep the outcome for when the client
                // resubmits.
                Ending::Open => {
                    let accepted_us = self.clock.now_micros();
                    let ticket = Ticket {
                        seq,
                        id: sub.id,
                        priority: sub.priority,
                        attempts: sub.starts,
                        deadline: self
                            .cfg
                            .timeout
                            .map(|t| accepted_us.saturating_add(duration_us(t))),
                        accepted_us,
                        key: hash,
                        work,
                        out: sink_writer(),
                    };
                    let effective = sub.priority.saturating_sub(i64::from(sub.starts));
                    lock(&self.queue).push(effective, ticket);
                    report.jobs_requeued += 1;
                }
            }
        }
        lock(&self.stats).jobs_recovered =
            (report.jobs_requeued + report.results_rehydrated) as u64;
        report
    }

    /// Append one record to the ledger, if the service has one. Append
    /// failures degrade durability, not availability: the daemon logs and
    /// keeps serving.
    fn ledger_append(&self, rec: &LedgerRecord) {
        if let Some(l) = &self.ledger {
            if let Err(e) = lock(l).append(rec) {
                eprintln!("onesched-svc: ledger append failed (durability degraded): {e}");
            }
        }
    }

    /// The queue depth at which admission control starts shedding.
    fn high_water(&self) -> usize {
        self.cfg
            .high_water
            .unwrap_or_else(|| (self.cfg.queue_cap / 4).saturating_mul(3))
            .clamp(1, self.cfg.queue_cap)
    }

    /// Backoff hint for overload rejections: roughly how long the queue
    /// needs to drain `depth` jobs across the worker pool at the recent
    /// mean construction latency.
    fn retry_after_ms(&self, depth: usize) -> f64 {
        let per_job_ms = lock(&self.stats).mean_recent_ms(50.0);
        (depth.max(1) as f64 / self.cfg.workers.max(1) as f64) * per_job_ms
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Request shutdown: intake stops, every still-queued job is answered
    /// with a `shutting-down` protocol error (and tombstoned in the
    /// ledger), in-flight jobs finish, workers exit.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Drain and notify while holding the queue mutex: a worker is
        // either before its lock acquisition (it will see the flag and the
        // empty queue) or parked in `ready.wait` (it will get this
        // notification) — never in between, which would lose the wakeup
        // and hang the scoped join forever.
        let drained: Vec<Ticket> = {
            let mut q = lock(&self.queue);
            let mut v = Vec::new();
            while let Some(t) = q.pop() {
                v.push(t);
            }
            self.ready.notify_all();
            v
        };
        for t in drained {
            // `done` tombstone: the job is concluded (shed), not
            // unacknowledged — a restart must not replay it.
            self.ledger_append(&LedgerRecord::done(
                t.seq,
                &t.id,
                &t.key,
                None,
                Some("shutting-down".into()),
            ));
            lock(&self.stats).jobs_shed += 1;
            self.respond_error(
                &t.out,
                Some(t.id),
                "shutting down: job accepted but not run".into(),
                "shutting-down",
                None,
            );
        }
        if let Some(l) = &self.ledger {
            let _ = lock(l).sync();
        }
        if let Some(t) = &self.tracer {
            t.flush();
        }
    }

    /// Block until the queue is empty (in-flight jobs may still be
    /// running) or shutdown is requested. Batch sessions call this before
    /// [`Service::begin_shutdown`] so every accepted job is *answered*
    /// rather than shed.
    pub fn drain_queue(&self) {
        loop {
            if self.is_shutdown() || lock(&self.queue).is_empty() {
                return;
            }
            std::thread::sleep(POLL);
        }
    }

    /// Serve newline-delimited requests from stdin, streaming responses to
    /// stdout, until EOF or a `shutdown` request; at EOF queued jobs are
    /// drained (run, not shed) before returning. One process = one batch
    /// session, which is what the CI smoke test and shell pipelines use.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
        let stdin = io::stdin().lock();
        self.serve_batch(stdin, &out, "stdio");
        Ok(())
    }

    /// One complete batch session over any reader/writer pair: announce
    /// `ready` (with `label` as the address), spawn the worker pool,
    /// accept requests until EOF or shutdown, drain the queue, shut down.
    /// `serve_stdio` is this over stdin/stdout; integration tests drive it
    /// with in-memory buffers.
    pub fn serve_batch<R: BufRead>(&self, reader: R, out: &SharedWriter, label: &str) {
        write_line(out, &to_line(&self.ready_response(label)));
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.worker());
            }
            if let Err(e) = self.serve_reader(reader, out) {
                eprintln!("onesched-svc: {label} read error: {e}");
            }
            self.drain_queue();
            self.begin_shutdown();
        });
    }

    /// Bind `addr` and serve concurrent TCP connections until a `shutdown`
    /// request, announcing the bound address as a `ready` line on
    /// `announce` (stdout in the binary; `--tcp 127.0.0.1:0` binds an
    /// ephemeral port, so clients need the announcement).
    pub fn serve_tcp(&self, addr: &str, announce: &SharedWriter) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        write_line(announce, &to_line(&self.ready_response(&bound.to_string())));
        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.worker());
            }
            loop {
                if self.is_shutdown() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(move || {
                            if let Err(e) = self.handle_conn(stream) {
                                eprintln!("onesched-svc: connection error: {e}");
                            }
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(e) => {
                        self.begin_shutdown();
                        return Err(e);
                    }
                }
            }
            self.begin_shutdown();
            Ok(())
        })
    }

    /// Feed request lines from any reader, writing each response to `out`:
    /// the one intake loop, for stdio and TCP alike. Lines split at `\n`
    /// (one trailing `\r` trimmed) and decode lossily, so bytes that are
    /// not UTF-8 get a `bad-request` answer and intake carries on; blank
    /// lines are skipped; EOF ends an unterminated last line. A read that
    /// times out is a shutdown poll that keeps the partial line. Returns
    /// at EOF, once shutdown has begun (checked after every line and every
    /// poll, so nothing after the line that starts it is read), or with
    /// any other read error. Queued jobs may still be in flight — callers
    /// own the worker lifecycle, as [`Service::serve_batch`] does.
    pub fn serve_reader<R: BufRead>(&self, mut reader: R, out: &SharedWriter) -> io::Result<()> {
        let mut line = Vec::new();
        loop {
            match reader.read_until(b'\n', &mut line) {
                Ok(_) if line.is_empty() => return Ok(()), // EOF
                Ok(_) => {
                    let text = String::from_utf8_lossy(&line);
                    let text = text.strip_suffix('\n').unwrap_or(&text);
                    let text = text.strip_suffix('\r').unwrap_or(text);
                    if !text.trim().is_empty() {
                        self.handle_line(text, out);
                    }
                    line.clear();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
            if self.is_shutdown() {
                return Ok(());
            }
        }
    }

    /// The daemon's `ready` announcement.
    fn ready_response(&self, addr: &str) -> ReadyResponse {
        ReadyResponse {
            op: "ready".into(),
            protocol: PROTOCOL_VERSION.into(),
            addr: addr.into(),
            workers: self.cfg.workers,
        }
    }

    /// One TCP connection: request lines in through [`Service::serve_reader`]
    /// (its read timeout is the shutdown poll), answers out on a clone of
    /// the same stream.
    fn handle_conn(&self, stream: TcpStream) -> io::Result<()> {
        setup_stream(&stream)?;
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(stream.try_clone()?)));
        self.serve_reader(BufReader::new(stream), &out)
    }

    /// Parse and dispatch one request line; every line gets exactly one
    /// response line (possibly later, for submissions).
    pub fn handle_line(&self, line: &str, out: &SharedWriter) {
        let req: Request = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                let msg = format!("unparseable request: {e}");
                self.respond_error(out, None, msg, "bad-request", None);
                return;
            }
        };
        match req.op.as_str() {
            "submit" | "simulate" => self.handle_submission(req, out),
            "stats" => {
                let (gauges, uptime) = (self.gauges(), self.uptime());
                let mut w = lock(out); // see `Service::write_counted`
                let snap = lock(&self.stats).snapshot(gauges, uptime);
                write_locked(&mut **w, &to_line(&snap));
            }
            "metrics" => {
                let resp = MetricsResponse {
                    op: "metrics".into(),
                    content_type: "text/plain; version=0.0.4".into(),
                    text: self.metrics_text(),
                };
                write_line(out, &to_line(&resp));
            }
            "shutdown" => {
                let ack = AckResponse {
                    op: "ok".into(),
                    message: "shutting down; queued jobs answered shutting-down".into(),
                };
                write_line(out, &to_line(&ack));
                self.begin_shutdown();
            }
            other => {
                let msg = format!("unknown op {other:?}");
                self.respond_error(out, req.id, msg, "unknown-op", None);
            }
        }
    }

    /// Intake for `submit`/`simulate`: resolve, check poison, admission-
    /// control the queue (hard cap, then high-water shedding), journal the
    /// acceptance, enqueue.
    fn handle_submission(&self, req: Request, out: &SharedWriter) {
        let op = req.op.as_str();
        let Some(spec) = req.job else {
            let msg = format!("{op} requires a `job`");
            self.respond_error(out, req.id, msg, "missing-job", None);
            return;
        };
        let job = match spec.resolve() {
            Ok(j) => j,
            Err(e) => {
                self.respond_error(out, req.id, e.message, e.kind, None);
                return;
            }
        };
        let work = if op == "simulate" {
            match req.sim.unwrap_or_default().resolve() {
                Ok(sim) => Work::Sim(job, sim),
                Err(e) => {
                    self.respond_error(out, req.id, e, "invalid-spec", None);
                    return;
                }
            }
        } else {
            Work::Job(job)
        };
        let id = req
            .id
            .unwrap_or_else(|| format!("job-{}", self.next_job.fetch_add(1, Ordering::Relaxed)));
        let hash = work.hash();
        if lock(&self.poisoned).contains(&hash) {
            self.respond_error(
                out,
                Some(id),
                "job is poisoned: repeated attempts crashed without completing".into(),
                "poisoned",
                None,
            );
            return;
        }
        let priority = req.priority.unwrap_or(0);
        let accepted_us = self.clock.now_micros();
        let ticket = Ticket {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            id,
            priority,
            attempts: 0,
            deadline: self
                .cfg
                .timeout
                .map(|t| accepted_us.saturating_add(duration_us(t))),
            accepted_us,
            key: hash,
            work,
            out: Arc::clone(out),
        };
        // Admission control under the queue lock, so the depth checks,
        // the write-ahead journal entry, and the push are atomic. Stages:
        // reject at the hard cap; past the high-water mark admit only work
        // that outranks the queue's bottom (shedding that bottom entry).
        let shed: Option<Ticket> = {
            let mut q = lock(&self.queue);
            if self.is_shutdown() {
                drop(q);
                self.respond_error(
                    out,
                    Some(ticket.id),
                    "shutting down: no longer accepting jobs".into(),
                    "shutting-down",
                    None,
                );
                return;
            }
            let depth = q.len();
            if depth >= self.cfg.queue_cap {
                drop(q);
                let hint = self.retry_after_ms(depth);
                self.respond_error(
                    out,
                    Some(ticket.id),
                    format!(
                        "queue full ({depth} jobs queued, cap {})",
                        self.cfg.queue_cap
                    ),
                    "queue-full",
                    Some(hint),
                );
                return;
            }
            let mut shed = None;
            if depth >= self.high_water() {
                let floor = q.min_priority().unwrap_or(i64::MIN);
                if ticket.priority <= floor {
                    // The newcomer would be the shedding victim anyway
                    // (lowest priority, newest): reject it directly.
                    drop(q);
                    let hint = self.retry_after_ms(depth);
                    self.respond_error(
                        out,
                        Some(ticket.id),
                        format!(
                            "overloaded ({depth} jobs queued, high-water {}): \
                             priority {} does not outrank queued work",
                            self.high_water(),
                            ticket.priority
                        ),
                        "overloaded",
                        Some(hint),
                    );
                    return;
                }
                shed = q.shed_lowest().map(|(_, t)| t);
            }
            // Write-ahead: journal the acceptance before it is queued, so
            // a crash between the two replays the job instead of losing
            // it. (Journaling under the queue lock keeps the ledger's
            // submitted order consistent with seq order.)
            let (job_spec, sim_spec) = match &ticket.work {
                Work::Job(j) => (j.spec.clone(), None),
                Work::Sim(j, s) => (j.spec.clone(), Some(s.spec.clone())),
            };
            self.ledger_append(&LedgerRecord::submitted(
                ticket.seq,
                &ticket.id,
                &ticket.key,
                ticket.priority,
                job_spec,
                sim_spec,
            ));
            q.push(ticket.priority, ticket);
            shed
        };
        if let Some(victim) = shed {
            let depth = lock(&self.queue).len();
            let hint = self.retry_after_ms(depth);
            self.ledger_append(&LedgerRecord::done(
                victim.seq,
                &victim.id,
                &victim.key,
                None,
                Some("overloaded: shed by higher-priority work".into()),
            ));
            lock(&self.stats).jobs_shed += 1;
            self.respond_error(
                &victim.out,
                Some(victim.id),
                "overloaded: shed by higher-priority work".into(),
                "overloaded",
                Some(hint),
            );
        }
        self.ready.notify_one();
    }

    /// Sample the point-in-time gauges shared by `stats` and `metrics`.
    fn gauges(&self) -> StatsGauges {
        let queue_depth = lock(&self.queue).len();
        let (cache_size, evictions) = {
            let r = lock(&self.registry);
            (r.len(), r.evictions)
        };
        let (sim_cache_size, sim_evictions) = {
            let r = lock(&self.sim_registry);
            (r.len(), r.evictions)
        };
        let (ledger_bytes, uptime_events) = match &self.ledger {
            Some(l) => {
                let l = lock(l);
                (l.bytes(), l.appended())
            }
            None => (0, 0),
        };
        StatsGauges {
            queue_depth,
            cache_size,
            sim_cache_size,
            cache_evictions: evictions + sim_evictions,
            ledger_bytes,
            uptime_events,
            trace_events_dropped: self.tracer.as_ref().map(Tracer::dropped).unwrap_or(0),
        }
    }

    /// Time since service construction, on the service clock.
    fn uptime(&self) -> Duration {
        Duration::from_micros(self.clock.now_micros().saturating_sub(self.started_us))
    }

    /// The Prometheus text exposition behind the `metrics` op: the hub's
    /// own counters/histograms, plus counters derived from the same
    /// [`ServiceStats`] that answers `stats` (the job counters and the
    /// portfolio wins, so the two views reconcile by construction), plus
    /// scrape-time gauges.
    fn metrics_text(&self) -> String {
        let mut snap = self.metrics.snapshot();
        let gauges = self.gauges();
        let misses = lock(&self.registry).executions + lock(&self.sim_registry).executions;
        {
            let s = lock(&self.stats);
            let derived: [(&str, u64); 10] = [
                ("onesched_jobs_total{outcome=\"done\"}", s.jobs_done),
                ("onesched_jobs_total{outcome=\"error\"}", s.errors),
                ("onesched_jobs_total{outcome=\"retried\"}", s.jobs_retried),
                ("onesched_jobs_total{outcome=\"shed\"}", s.jobs_shed),
                ("onesched_jobs_total{outcome=\"timeout\"}", s.jobs_timed_out),
                ("onesched_sims_total", s.sims_done),
                ("onesched_cache_hits_total", s.cache_hits),
                ("onesched_cache_misses_total", misses),
                ("onesched_cache_evictions_total", gauges.cache_evictions),
                ("onesched_jobs_recovered_total", s.jobs_recovered),
            ];
            for (name, v) in derived {
                snap.counters.insert(name.to_string(), v);
            }
            for (member, &wins) in &s.portfolio_wins {
                let name = format!("onesched_portfolio_wins_total{{member=\"{member}\"}}");
                snap.counters.insert(name, wins);
            }
        }
        snap.counters
            .insert("onesched_ledger_appends_total".into(), gauges.uptime_events);
        snap.counters.insert(
            "onesched_trace_dropped_total".into(),
            gauges.trace_events_dropped,
        );
        let gauge_samples = [
            Gauge::new("onesched_queue_depth", gauges.queue_depth as f64),
            Gauge::new(
                "onesched_workers_busy",
                self.busy.load(Ordering::Relaxed) as f64,
            ),
            Gauge::new("onesched_cache_size", gauges.cache_size as f64),
            Gauge::new("onesched_sim_cache_size", gauges.sim_cache_size as f64),
            Gauge::new("onesched_ledger_bytes", gauges.ledger_bytes as f64),
            Gauge::new("onesched_uptime_seconds", self.uptime().as_secs_f64()),
        ];
        prometheus_text(&snap, &gauge_samples)
    }

    /// Fold a finished construction into the hub: total and per-phase
    /// histograms plus the placement-scan disposition counters.
    fn note_construct(&self, construct: Duration, probe: &ConstructProbe<'_>) {
        self.metrics
            .observe_ms("onesched_construct_ms", construct.as_secs_f64() * 1e3);
        for phase in PHASES {
            self.metrics.observe_ms(
                &format!("onesched_construct_phase_ms{{phase=\"{}\"}}", phase.name()),
                probe.phase_us(phase) as f64 / 1e3,
            );
        }
        let scan = probe.scan();
        let dispositions: [(&str, u64); 5] = [
            ("considered", scan.candidates),
            ("evaluated", scan.evaluated),
            ("pruned_bound", scan.pruned_bound),
            ("pruned_contention", scan.pruned_contention),
            ("aborted", scan.aborted),
        ];
        for (label, n) in dispositions {
            if n > 0 {
                self.metrics.incr(
                    &format!("onesched_placement_candidates_total{{disposition=\"{label}\"}}"),
                    n,
                );
            }
        }
    }

    /// Answer with an `error` line. Every error carries a machine-readable
    /// `kind` (see [`ErrorResponse::kind`]).
    fn respond_error(
        &self,
        out: &SharedWriter,
        id: Option<String>,
        message: String,
        kind: &str,
        retry_after_ms: Option<f64>,
    ) {
        let resp = ErrorResponse {
            op: "error".into(),
            id,
            message,
            kind: Some(kind.to_string()),
            retry_after_ms,
        };
        self.write_counted(out, &to_line(&resp), |stats| {
            stats.errors += 1;
            stats.jobs_timed_out += u64::from(kind == "timeout");
        });
    }

    /// [`write_line`], then `count` the answer on the stats before the
    /// writer's lock is released. An attempt whose write panics counts
    /// nothing, so its retry counts once, and a `stats` answer, read
    /// under the same lock, counts every line its client has read.
    fn write_counted(&self, out: &SharedWriter, line: &str, count: impl FnOnce(&mut ServiceStats)) {
        let mut w = lock(out);
        write_locked(&mut **w, line);
        count(&mut lock(&self.stats));
    }

    /// Worker loop: claim the highest-priority job, serve it from the cache
    /// or run it, stream the result. Exits once shutdown is requested *and*
    /// the queue is drained.
    fn worker(&self) {
        let worker = self.next_worker.fetch_add(1, Ordering::Relaxed);
        loop {
            let ticket = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(t) = q.pop() {
                        break t;
                    }
                    if self.is_shutdown() {
                        return;
                    }
                    q = match self.ready.wait(q) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };
            self.busy.fetch_add(1, Ordering::Relaxed);
            self.run_ticket(ticket, worker);
            self.busy.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Run one claimed ticket as one traced attempt: the `queue.wait`
    /// span, then the `job.attempt` span around the deadline gate, the
    /// `started` journal entry, and the work itself behind a panic
    /// barrier. A panicking job is re-queued at reduced priority up to
    /// `max_retries`, then poisoned; every other ending is terminal and
    /// closes the job's root `job` span here, the one place it is
    /// recorded.
    fn run_ticket(&self, ticket: Ticket, worker: u64) {
        let dequeued_us = self.clock.now_micros();
        let waited_us = dequeued_us.saturating_sub(ticket.accepted_us);
        self.metrics
            .observe_ms("onesched_queue_wait_ms", waited_us as f64 / 1e3);
        let scope = Scope::new(
            self.tracer.as_ref(),
            ticket.seq,
            &ticket.id,
            u64::from(ticket.attempts) + 1,
            worker,
        );
        scope.record("queue.wait", "job", ticket.accepted_us, waited_us);
        let ended = {
            let _attempt = scope.open("job.attempt", "job");
            if ticket.deadline.is_some_and(|d| dequeued_us > d) {
                self.answer_timeout(&ticket)
            } else {
                self.ledger_append(&LedgerRecord::started(ticket.seq, &ticket.id, &ticket.key));
                // The panic barrier: schedulers are pure and total, but
                // "never takes the worker pool down" must not depend on
                // that. The shared state (locks, counters, caches) is
                // valid at every instruction boundary and `lock` recovers
                // poisoned mutexes, so unwinding cannot leave it
                // inconsistent.
                catch_unwind(AssertUnwindSafe(|| self.execute(&ticket, &scope)))
                    .unwrap_or(Ended::Panicked)
            }
        };
        let retry = ended == Ended::Panicked
            && ticket.attempts < self.cfg.max_retries
            && !self.is_shutdown();
        if !retry {
            if ended == Ended::Panicked {
                self.poison(&ticket);
            }
            let mut root = scope.record(
                "job",
                None,
                ticket.accepted_us,
                scope.now().saturating_sub(ticket.accepted_us),
            );
            match ended {
                Ended::Answered { cache_hit } => {
                    root.field("ok", 1.0)
                        .field("cache_hit", f64::from(u8::from(cache_hit)));
                }
                Ended::Failed | Ended::Panicked => {
                    root.field("ok", 0.0);
                }
            }
        }
        // Flushed per attempt, so a SIGKILL right after an answer loses
        // none of its spans.
        if let Some(tracer) = &self.tracer {
            tracer.flush();
        }
        if retry {
            self.retry(ticket);
        }
    }

    /// Re-queue a ticket whose attempt panicked.
    fn retry(&self, mut ticket: Ticket) {
        ticket.attempts += 1;
        lock(&self.stats).jobs_retried += 1;
        // Deterministic backoff by *position*, not wall-clock: each
        // attempt re-queues one priority level lower, so the retry runs
        // after the work that was queued alongside it, in an order that
        // depends only on the queue contents.
        let backoff = ticket.priority.saturating_sub(i64::from(ticket.attempts));
        lock(&self.queue).push(backoff, ticket);
        self.ready.notify_one();
    }

    /// Tombstone a ticket whose every attempt panicked, and answer it.
    fn poison(&self, ticket: &Ticket) {
        let attempts = ticket.attempts + 1;
        let max = self.cfg.max_retries;
        lock(&self.poisoned).insert(ticket.key.clone());
        // The poison answer may be going to the very writer whose panics
        // exhausted the retries — guard it too, or the failure path for a
        // broken client takes the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            self.fail(
                ticket,
                format!("{POISON} {attempts} attempts panicked (max-retries {max})"),
                format!("job failed: {attempts} attempts panicked; poisoned"),
                "poisoned",
            )
        }));
    }

    /// Answer an accepted job that failed inside the daemon (kind
    /// `internal`).
    fn answer_internal(&self, ticket: &Ticket, msg: String) -> Ended {
        self.fail(ticket, msg.clone(), msg, "internal")
    }

    /// Answer a job whose wall-clock deadline passed.
    fn answer_timeout(&self, ticket: &Ticket) -> Ended {
        let budget_ms = self.cfg.timeout.map_or(0.0, |t| t.as_secs_f64() * 1e3);
        let answer = format!("timeout: job exceeded its {budget_ms} ms deadline");
        self.fail(ticket, "timeout".into(), answer, "timeout")
    }

    /// Journal an accepted job's failure as `journal` and answer it with
    /// an error of `kind`.
    fn fail(&self, ticket: &Ticket, journal: String, answer: String, kind: &str) -> Ended {
        let failed = LedgerRecord::failed(ticket.seq, &ticket.id, &ticket.key, journal);
        self.ledger_append(&failed);
        self.respond_error(&ticket.out, Some(ticket.id.clone()), answer, kind, None);
        Ended::Failed
    }

    /// The work of one attempt: serve from the cache or construct (and,
    /// for a simulation, execute), then [`Service::answer`].
    fn execute(&self, ticket: &Ticket, scope: &Scope<'_>) -> Ended {
        match &ticket.work {
            Work::Job(job) => self.execute_schedule(ticket, job, scope),
            Work::Sim(job, sim) => self.execute_sim(ticket, job, sim, scope),
        }
    }

    fn execute_schedule(&self, ticket: &Ticket, job: &ResolvedJob, scope: &Scope<'_>) -> Ended {
        let cached = lock(&self.registry).get(&job.key).cloned();
        let (outcome, cache_hit) = match cached {
            Some(outcome) => (outcome, true),
            // The portfolio meta-kind gets its own fan-out path: each
            // member is cached under its own canonical key, and traced as
            // its own child span instead of per-phase ones.
            None if job.scheduler_spec().kind == "portfolio" => {
                match self.construct_portfolio(job, scope) {
                    Ok(outcome) => (outcome, false),
                    Err(msg) => return self.answer_internal(ticket, msg),
                }
            }
            None => {
                // run WITHOUT holding any lock: construction is the slow part
                let probe = ConstructProbe::new(self.clock.as_ref());
                let outcome = run_job(job, Some(&probe), scope);
                self.note_construct(outcome.construct, &probe);
                lock(&self.registry).insert(job.key.clone(), outcome.clone());
                (outcome, false)
            }
        };
        let resp = ResultResponse {
            op: "result".into(),
            id: ticket.id.clone(),
            scheduler: outcome.scheduler.clone(),
            model: job.model().name().into(),
            tasks: outcome.tasks,
            makespan: outcome.makespan,
            speedup: outcome.speedup,
            effective_comms: outcome.effective_comms,
            fingerprint: format!("{:016x}", outcome.fingerprint),
            construct_ms: outcome.construct.as_secs_f64() * 1e3,
            cache_hit,
            violations: outcome.violations,
        };
        let ledger = LedgerOutcome::from_job(&outcome);
        self.answer(ticket, scope, cache_hit, &outcome, ledger, &resp)
    }

    /// The portfolio fan-out: resolve each member as its own job, reuse
    /// any member outcome the schedule cache already holds, construct the
    /// rest in parallel, cache every constructed member under its own
    /// canonical key, and pick the winner with the registry's shared
    /// `(makespan, canonical label)` tie-break. The portfolio's own
    /// outcome — the winner's schedule summary under the portfolio job
    /// key, with `construct` covering the whole race — is cached too, so
    /// a repeat of the portfolio job is a plain cache hit. The race is the
    /// `construct.portfolio` span; each member is a child over the
    /// interval measured on its worker (zero-length at its lookup when
    /// cached).
    fn construct_portfolio(
        &self,
        job: &ResolvedJob,
        scope: &Scope<'_>,
    ) -> Result<JobOutcome, String> {
        let mut race = scope.open("construct.portfolio", "job.attempt");
        let member_specs = job.scheduler_spec().members.clone().unwrap_or_default();
        let t0 = self.clock.now_micros();
        let mut members = Vec::with_capacity(member_specs.len());
        for m in &member_specs {
            // Cannot fail: intake normalized every member against the
            // same catalog and platform. Surfaced as an error response
            // rather than a worker panic if that invariant ever breaks.
            let mj = job.with_scheduler(m).map_err(|e| {
                format!(
                    "portfolio member {:?} failed to re-resolve: {}",
                    m.canonical(),
                    e.message
                )
            })?;
            members.push((m.canonical(), mj));
        }
        // Fan out WITHOUT holding any lock: construction is the slow part,
        // and each member holds the registry only for its own lookup.
        let members = run_portfolio_members(
            &members,
            |key| lock(&self.registry).get(key).cloned(),
            scope,
        );
        {
            let mut reg = lock(&self.registry);
            for m in &members {
                if !m.cached {
                    reg.insert(m.key.clone(), m.outcome.clone());
                }
            }
        }
        let candidates: Vec<(&str, f64)> = members
            .iter()
            .map(|m| (m.label.as_str(), m.outcome.makespan))
            .collect();
        let winner = onesched_heuristics::registry::select_best(&candidates)
            .ok_or_else(|| "portfolio has no members".to_string())?;
        let won = members
            .get(winner)
            .ok_or_else(|| "portfolio winner out of range".to_string())?;
        let construct = Duration::from_micros(self.clock.now_micros().saturating_sub(t0));
        let outcome = JobOutcome {
            scheduler: format!("portfolio({})", members.len()),
            tasks: won.outcome.tasks,
            makespan: won.outcome.makespan,
            speedup: won.outcome.speedup,
            effective_comms: won.outcome.effective_comms,
            fingerprint: won.outcome.fingerprint,
            construct,
            violations: won.outcome.violations,
        };
        lock(&self.registry).insert(job.key.clone(), outcome.clone());
        {
            // Member latencies land under each member's display name (the
            // same key a direct submit of that member uses); the caller
            // records the portfolio's own total under `portfolio(N)`.
            let mut stats = lock(&self.stats);
            for m in &members {
                if !m.cached {
                    stats.record_latency(&m.outcome.scheduler, m.outcome.construct);
                }
            }
            stats.record_portfolio_win(&won.label);
        }
        self.metrics
            .observe_ms("onesched_construct_ms", construct.as_secs_f64() * 1e3);
        race.field("members", members.len() as f64);
        for (i, m) in members.iter().enumerate() {
            scope
                .record(
                    format_args!("construct.portfolio.{}", m.label),
                    "construct.portfolio",
                    m.start_us,
                    m.dur_us,
                )
                .field("makespan", m.outcome.makespan)
                .field("win", f64::from(u8::from(i == winner)))
                .field("cached", f64::from(u8::from(m.cached)));
        }
        Ok(outcome)
    }

    fn execute_sim(
        &self,
        ticket: &Ticket,
        job: &ResolvedJob,
        sim: &ResolvedSim,
        scope: &Scope<'_>,
    ) -> Ended {
        let key = ticket.work.key().into_owned();
        let cached = lock(&self.sim_registry).get(&key).cloned();
        let (outcome, cache_hit) = match cached {
            Some(outcome) => (outcome, true),
            None => {
                let probe = ConstructProbe::new(self.clock.as_ref());
                let clock = self.clock.as_ref();
                match run_sim_job(job, sim, ticket.deadline, clock, Some(&probe), scope) {
                    Ok(outcome) => {
                        self.note_construct(outcome.job.construct, &probe);
                        self.metrics
                            .observe_ms("onesched_exec_ms", outcome.exec.as_secs_f64() * 1e3);
                        lock(&self.sim_registry).insert(key, outcome.clone());
                        (outcome, false)
                    }
                    // The deadline passed between construction and execution:
                    // keep the constructed half (a future plain submit of the
                    // same job is a cache hit), answer the timeout.
                    Err(SimRunError::DeadlineExceeded(constructed)) => {
                        lock(&self.registry).insert(job.key.clone(), *constructed);
                        return self.answer_timeout(ticket);
                    }
                    // The engine refused the schedule: answer with a protocol
                    // error instead of panicking the worker. No outcome is
                    // cached (the job stays retryable after a fix).
                    Err(SimRunError::Exec(e)) => {
                        return self.answer_internal(ticket, format!("execution failed: {e}"));
                    }
                }
            }
        };
        let resp = SimResultResponse {
            op: "sim-result".into(),
            id: ticket.id.clone(),
            scheduler: outcome.job.scheduler.clone(),
            model: job.model().name().into(),
            policy: outcome.policy.clone(),
            seed: outcome.seed,
            tasks: outcome.job.tasks,
            static_makespan: outcome.job.makespan,
            executed_makespan: outcome.executed_makespan,
            degradation: outcome.degradation,
            fingerprint: format!("{:016x}", outcome.job.fingerprint),
            trace_fingerprint: format!("{:016x}", outcome.trace_fingerprint),
            construct_ms: outcome.job.construct.as_secs_f64() * 1e3,
            exec_ms: outcome.exec.as_secs_f64() * 1e3,
            cache_hit,
            violations: outcome.job.violations,
        };
        let ledger = LedgerOutcome::from_sim(&outcome);
        self.answer(ticket, scope, cache_hit, &outcome.job, ledger, &resp)
    }

    /// The answer tail shared by plain and simulate jobs: deadline
    /// re-check, the write-ahead ledger `done` record, the response line
    /// (the `respond` span), then the stats. `outcome` is the
    /// construction behind the answer, sampled for latency unless it was a
    /// cache hit.
    fn answer(
        &self,
        ticket: &Ticket,
        scope: &Scope<'_>,
        cache_hit: bool,
        outcome: &JobOutcome,
        ledger: LedgerOutcome,
        resp: &impl Serialize,
    ) -> Ended {
        // Deadline re-check between the work and the answer: the outcome
        // stays cached (the work is done and deterministic), but the
        // client asked for a bounded wait.
        if ticket.deadline.is_some_and(|d| self.clock.now_micros() > d) {
            return self.answer_timeout(ticket);
        }
        self.ledger_append(&LedgerRecord::done(
            ticket.seq,
            &ticket.id,
            &ticket.key,
            Some(ledger),
            None,
        ));
        let _respond = scope.open("respond", "job.attempt");
        self.write_counted(&ticket.out, &to_line(resp), |stats| {
            stats.jobs_done += 1;
            stats.sims_done += u64::from(matches!(ticket.work, Work::Sim(..)));
            if cache_hit {
                stats.cache_hits += 1;
            } else {
                stats.record_latency(&outcome.scheduler, outcome.construct);
            }
        });
        Ended::Answered { cache_hit }
    }
}

/// How one attempt at a ticket ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ended {
    /// Answered with a result line.
    Answered {
        /// Served from a cache.
        cache_hit: bool,
    },
    /// Answered with an error line (timeout, execution or internal
    /// failure).
    Failed,
    /// A panic escaped the work: retried or poisoned by the caller.
    Panicked,
}

/// Set up an accepted connection: Nagle off, so an answer line leaves the
/// moment it is written instead of waiting for the client to acknowledge
/// the previous one, and the read timeout that lets the reader poll for
/// shutdown. Both are socket options, so they cover every clone of the
/// stream, the answer writer included.
fn setup_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))
}

/// A `Duration` as saturating whole microseconds.
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Write one complete response line (a [`to_line`] result) under the
/// writer's lock (the no-interleaving guarantee) and flush it so clients
/// see results as they complete.
fn write_line(out: &SharedWriter, line: &str) {
    write_locked(&mut **lock(out), line);
}

/// [`write_line`] for a caller already holding the writer's lock: one
/// write per line, then a flush. Write errors are swallowed: a vanished
/// client must not take a worker down.
fn write_locked(w: &mut dyn Write, line: &str) {
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DagSpec, JobSpec, OpProbe, SchedulerSpec, SimSpec, StatsResponse};
    use onesched_testbeds::Testbed;
    use onesched_trace::TraceEvent;
    use std::collections::HashMap;

    /// A writer that appends into shared memory, for driving the service
    /// without sockets.
    #[derive(Clone, Default)]
    struct MemWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for MemWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl MemWriter {
        fn lines(&self) -> Vec<String> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    fn drive_svc(svc: &Service, requests: &[Request], workers: usize) -> Vec<String> {
        let sink = MemWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        let input: String = requests
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| svc.worker());
            }
            svc.serve_reader(input.as_bytes(), &out).unwrap();
            svc.drain_queue();
            svc.begin_shutdown();
        });
        sink.lines()
    }

    fn drive(requests: &[Request], workers: usize) -> Vec<String> {
        let svc = Service::new(ServiceConfig {
            workers,
            cache_capacity: 64,
            ..ServiceConfig::default()
        });
        drive_svc(&svc, requests, workers)
    }

    fn submit(id: &str, priority: i64, job: JobSpec) -> Request {
        Request::submit(Some(id.into()), priority, job)
    }

    fn lu_spec(n: usize) -> JobSpec {
        JobSpec {
            dag: DagSpec::testbed(Testbed::Lu, n),
            platform: None,
            scheduler: None,
            model: None,
            validate: true,
        }
    }

    fn temp_ledger(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "onesched-svc-test-{}-{tag}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn dropped_trace_events_surface_in_stats_and_metrics() {
        let mut svc = Service::new(ServiceConfig::default());
        // A tiny sinkless ring of capacity 4, so a handful of records
        // forces the drop-oldest overflow path.
        let tracer = Tracer::with_capacity(Arc::new(onesched_trace::ManualClock::new()), 4);
        for i in 0..32 {
            tracer.record(TraceEvent::counter("spill", f64::from(i)));
        }
        assert!(tracer.dropped() > 0, "the tiny ring must have dropped");
        let expected = tracer.dropped();
        svc.tracer = Some(tracer);
        let lines = drive_svc(&svc, &[Request::stats()], 1);
        let snap: StatsResponse = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(snap.trace_events_dropped, expected, "stats gauge");
        let metrics = svc.metrics_text();
        assert!(
            metrics.contains(&format!("onesched_trace_dropped_total {expected}")),
            "scrape carries the drop counter:\n{metrics}"
        );
    }

    /// A writer that keeps the bytes of each `write` call as one chunk.
    #[derive(Clone, Default)]
    struct ChunkWriter(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for ChunkWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_answer_line_leaves_in_one_write() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 64,
            ..ServiceConfig::default()
        });
        let chunks = ChunkWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(chunks.clone())));
        let mut input: String = [
            submit("a", 0, lu_spec(8)),
            submit("b", 0, lu_spec(8)),
            Request::stats(),
        ]
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
        // an error answer, an unknown op and a metrics scrape
        input.push_str("not json\n{\"op\":\"frobnicate\"}\n{\"op\":\"metrics\"}\n");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| svc.worker());
            }
            svc.serve_reader(input.as_bytes(), &out).unwrap();
            svc.drain_queue();
            svc.begin_shutdown();
        });
        let chunks = chunks.0.lock().unwrap();
        assert_eq!(chunks.len(), 6, "one write per answer");
        for chunk in chunks.iter() {
            let text = String::from_utf8_lossy(chunk);
            assert!(text.ends_with('\n'), "a whole line per write: {text}");
            assert_eq!(text.matches('\n').count(), 1, "one line per write: {text}");
        }
    }

    #[test]
    fn accepted_streams_send_without_nagle_and_poll_for_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "Nagle is the socket default");
        setup_stream(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        let timeout = accepted.read_timeout().unwrap().expect("a read timeout");
        // the kernel rounds the timeout up to its clock tick
        assert!(timeout >= POLL && timeout < 2 * POLL, "{timeout:?}");
        // a socket option, so the answer writer's clone shares it
        let writer = accepted.try_clone().unwrap();
        assert!(writer.nodelay().unwrap());
        drop(client);
    }

    #[test]
    fn invalid_utf8_line_is_answered_and_intake_carries_on() {
        let svc = Service::new(ServiceConfig::default());
        let sink = MemWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        let input: &[u8] = b"{\"op\":\"stats\"}\n\xff\xfe{\"op\":\"stats\"}\r\n{\"op\":\"stats\"}";
        svc.serve_reader(input, &out).unwrap();
        let lines = sink.lines();
        let ops: Vec<String> = lines
            .iter()
            .map(|l| serde_json::from_str::<OpProbe>(l).unwrap().op)
            .collect();
        assert_eq!(ops, ["stats", "error", "stats"], "{lines:?}");
        let e: ErrorResponse = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(e.kind.as_deref(), Some("bad-request"));
    }

    #[test]
    fn tcp_line_torn_by_a_closing_client_is_answered() {
        let svc = Service::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // two writes without a newline, the second after a read timeout
        // has polled, then the client closes its half
        client.write_all(b"{\"op\":").unwrap();
        std::thread::scope(|scope| {
            let conn = scope.spawn(|| svc.handle_conn(accepted));
            std::thread::sleep(2 * POLL);
            client.write_all(b"\"stats\"}").unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            conn.join().unwrap().unwrap();
        });
        let mut answers = String::new();
        io::Read::read_to_string(&mut client, &mut answers).unwrap();
        let ops: Vec<String> = answers
            .lines()
            .map(|l| serde_json::from_str::<OpProbe>(l).unwrap().op)
            .collect();
        assert_eq!(ops, ["stats"], "{answers}");
    }

    #[test]
    fn batch_of_jobs_all_answered_without_interleaving() {
        let reqs: Vec<Request> = (0..12)
            .map(|i| submit(&format!("j{i}"), i % 3, lu_spec(8 + i as usize)))
            .collect();
        let lines = drive(&reqs, 4);
        assert_eq!(lines.len(), 12);
        let mut seen: Vec<String> = Vec::new();
        for line in &lines {
            // every line parses cleanly as a result — interleaved bytes
            // would break the JSON
            let r: ResultResponse = serde_json::from_str(line).expect("clean result line");
            assert_eq!(r.op, "result");
            assert_eq!(r.violations, 0);
            seen.push(r.id);
        }
        seen.sort();
        let mut want: Vec<String> = (0..12).map(|i| format!("j{i}")).collect();
        want.sort();
        assert_eq!(seen, want, "every job answered exactly once");
    }

    #[test]
    fn cache_answers_repeats_and_stats_report_them() {
        let reqs = vec![
            submit("a", 0, lu_spec(10)),
            submit("b", 0, lu_spec(10)),
            submit("c", 0, lu_spec(10)),
            Request::stats(),
        ];
        // one worker: strictly sequential, so b and c must hit the cache
        let lines = drive(&reqs, 1);
        let mut hits = 0;
        let mut fingerprints = std::collections::HashSet::new();
        let mut stats: Option<StatsResponse> = None;
        for line in &lines {
            let probe: OpProbe = serde_json::from_str(line).unwrap();
            match probe.op.as_str() {
                "result" => {
                    let r: ResultResponse = serde_json::from_str(line).unwrap();
                    hits += usize::from(r.cache_hit);
                    fingerprints.insert(r.fingerprint.clone());
                }
                "stats" => stats = Some(serde_json::from_str(line).unwrap()),
                other => panic!("unexpected op {other}"),
            }
        }
        assert_eq!(hits, 2, "second and third submissions served from cache");
        assert_eq!(fingerprints.len(), 1, "cached results are identical");
        // the stats line was answered inline (before the queue drained) or
        // after — either way the final counters are consistent
        let s = stats.expect("stats response");
        assert!(s.cache_hits <= 2);
        assert_eq!(s.op, "stats");
        assert_eq!(s.ledger_bytes, 0, "no ledger configured");
    }

    #[test]
    fn portfolio_job_races_members_caches_them_and_reports_wins() {
        let mut portfolio = lu_spec(10);
        portfolio.scheduler = Some(SchedulerSpec::portfolio(vec![
            SchedulerSpec::heft(),
            SchedulerSpec::ilha(4),
        ]));
        let mut heft = lu_spec(10);
        heft.scheduler = Some(SchedulerSpec::heft());
        let mut ilha = lu_spec(10);
        ilha.scheduler = Some(SchedulerSpec::ilha(4));
        let reqs = vec![
            submit("p1", 0, portfolio.clone()),
            submit("p2", 0, portfolio),
            submit("h", 0, heft),
            submit("i", 0, ilha),
        ];
        // one worker: the portfolio race runs first, so every later
        // submission must be answered from the caches it populated
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 64,
            ..ServiceConfig::default()
        });
        let lines = drive_svc(&svc, &reqs, 1);
        let mut results: HashMap<String, ResultResponse> = HashMap::new();
        for line in &lines {
            let r: ResultResponse = serde_json::from_str(line).unwrap();
            results.insert(r.id.clone(), r);
        }
        // stats asked *after* the batch drained, so the counters are final
        let stats_lines = drive_svc(&svc, &[Request::stats()], 1);
        let stats: Option<StatsResponse> = serde_json::from_str(&stats_lines[0]).ok();
        let p1 = &results["p1"];
        assert_eq!(p1.scheduler, "portfolio(2)");
        assert!(!p1.cache_hit, "first portfolio run constructs");
        assert_eq!(p1.violations, 0);
        let p2 = &results["p2"];
        assert!(p2.cache_hit, "portfolio repeat is a plain cache hit");
        assert_eq!(p2.fingerprint, p1.fingerprint);
        let (h, i) = (&results["h"], &results["i"]);
        assert!(
            h.cache_hit && i.cache_hit,
            "the race cached both members under their own keys"
        );
        // the portfolio answered with the best member's schedule
        let best = if h.makespan <= i.makespan { h } else { i };
        assert_eq!(p1.makespan, best.makespan);
        assert_eq!(p1.fingerprint, best.fingerprint);
        let s = stats.expect("stats response");
        assert_eq!(s.portfolio.len(), 1, "one member won the one race");
        assert_eq!(s.portfolio[0].wins, 1);
        let winner_label = if best.scheduler == "HEFT" {
            "heft"
        } else {
            "ilha(b=4)"
        };
        assert_eq!(s.portfolio[0].scheduler, winner_label);
        // the metrics win counters are the stats portfolio table
        let metrics_lines = drive_svc(&svc, &[Request::metrics()], 1);
        let metrics: MetricsResponse = serde_json::from_str(&metrics_lines[0]).unwrap();
        let wins: Vec<String> = metrics
            .text
            .lines()
            .filter(|l| l.starts_with("onesched_portfolio_wins_total{"))
            .map(str::to_string)
            .collect();
        let table: Vec<String> = s
            .portfolio
            .iter()
            .map(|p| {
                format!(
                    "onesched_portfolio_wins_total{{member=\"{}\"}} {}",
                    p.scheduler, p.wins
                )
            })
            .collect();
        assert_eq!(wins, table);
        // member constructions landed in the latency table under their
        // display names, the race total under the portfolio's
        let latency_keys: Vec<&str> = s.latency.iter().map(|l| l.scheduler.as_str()).collect();
        for want in ["HEFT", "ILHA(B=4)", "portfolio(2)"] {
            assert!(
                latency_keys.contains(&want),
                "missing {want:?} in {latency_keys:?}"
            );
        }
    }

    #[test]
    fn bad_requests_get_error_responses() {
        let mut bad_model = lu_spec(10);
        bad_model.model = Some("telepathy".into());
        let reqs = vec![
            Request {
                op: "dance".into(),
                id: Some("x".into()),
                priority: None,
                job: None,
                sim: None,
            },
            submit("y", 0, bad_model),
            Request {
                op: "submit".into(),
                id: Some("z".into()),
                priority: None,
                job: None,
                sim: None,
            },
        ];
        let lines = drive(&reqs, 2);
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let e: ErrorResponse = serde_json::from_str(line).expect("error response");
            assert_eq!(e.op, "error");
        }
        let ids: std::collections::HashSet<Option<String>> = lines
            .iter()
            .map(|l| serde_json::from_str::<ErrorResponse>(l).unwrap().id)
            .collect();
        assert!(ids.contains(&Some("y".into())) && ids.contains(&Some("z".into())));
    }

    #[test]
    fn every_error_answer_carries_a_kind() {
        let svc = Service::new(ServiceConfig::default());
        let sink = MemWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        let cases = [
            ("not json at all", "bad-request"),
            (r#"{"op":"dance","id":"a"}"#, "unknown-op"),
            (r#"{"op":"submit","id":"b"}"#, "missing-job"),
            (
                r#"{"op":"submit","id":"c","job":{"dag":{"kind":"nope"}}}"#,
                "invalid-spec",
            ),
            (
                r#"{"op":"simulate","id":"d","job":{"dag":{"kind":"toy"}},"sim":{"outage_prob":2}}"#,
                "invalid-spec",
            ),
            (
                r#"{"op":"submit","id":"e","job":{"dag":{"kind":"toy"},"scheduler":{"kind":"nope"}}}"#,
                "unknown-scheduler",
            ),
        ];
        // every case is refused at intake, so no worker is needed
        for (line, _) in &cases {
            svc.handle_line(line, &out);
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), cases.len());
        for (answer, (line, want)) in lines.iter().zip(&cases) {
            let e: ErrorResponse = serde_json::from_str(answer).expect("error response");
            assert_eq!(e.kind.as_deref(), Some(*want), "{line} -> {answer}");
        }
    }

    #[test]
    fn service_results_match_direct_runner_path() {
        // the acceptance criterion in miniature: schedule through the
        // service machinery, compare bit-exact against a direct run
        let spec = JobSpec {
            scheduler: Some(SchedulerSpec::ilha(4)),
            ..lu_spec(20)
        };
        let lines = drive(&[submit("direct", 5, spec.clone())], 2);
        let r: ResultResponse = serde_json::from_str(&lines[0]).unwrap();
        let job = spec.resolve().unwrap();
        let g = job.build_graph();
        let p = job.build_platform();
        let direct = job.build_scheduler().schedule(&g, &p, job.model());
        assert_eq!(
            r.fingerprint,
            format!("{:016x}", onesched_sim::placement_fingerprint(&direct))
        );
        assert_eq!(r.makespan, direct.makespan());
        assert_eq!(r.effective_comms, direct.num_effective_comms());
    }

    #[test]
    fn bounded_queue_rejects_overflow_with_protocol_error() {
        // No workers drain the queue: handle_line fills it synchronously,
        // so the bound is deterministic. high_water == queue_cap disables
        // shedding, leaving the hard cap alone.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            queue_cap: 3,
            high_water: Some(3),
            ..ServiceConfig::default()
        });
        let sink = MemWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        for i in 0..5 {
            let req = submit(&format!("q{i}"), 0, lu_spec(8));
            svc.handle_line(&serde_json::to_string(&req).unwrap(), &out);
        }
        assert_eq!(svc.queue.lock().unwrap().len(), 3, "cap holds");
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "two rejections answered inline");
        for (line, id) in lines.iter().zip(["q3", "q4"]) {
            let e: ErrorResponse = serde_json::from_str(line).expect("error response");
            assert_eq!(e.id.as_deref(), Some(id));
            assert!(e.message.contains("queue full"), "{}", e.message);
            assert!(
                e.message.contains("3 jobs queued, cap 3"),
                "depth and cap in message: {}",
                e.message
            );
            assert_eq!(e.kind.as_deref(), Some("queue-full"));
            assert!(e.retry_after_ms.is_some(), "backoff hint present");
        }
        assert_eq!(svc.stats.lock().unwrap().errors, 2);
        // draining the queue reopens intake
        std::thread::scope(|scope| {
            scope.spawn(|| svc.worker());
            // wait for the workers to drain, then submit again
            loop {
                if svc.queue.lock().unwrap().is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            svc.handle_line(
                &serde_json::to_string(&submit("after", 0, lu_spec(8))).unwrap(),
                &out,
            );
            svc.drain_queue();
            svc.begin_shutdown();
        });
        let text = sink.lines().join("\n");
        assert!(
            text.lines()
                .any(|l| l.contains("\"after\"") && l.contains("\"result\"")),
            "post-drain submission accepted: {text}"
        );
    }

    #[test]
    fn high_water_sheds_lowest_priority_work() {
        // No workers: depths are deterministic. high_water 1 means the
        // second submission onward competes by priority.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            queue_cap: 8,
            high_water: Some(1),
            ..ServiceConfig::default()
        });
        let sink = MemWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        let send = |id: &str, prio: i64| {
            let req = submit(id, prio, lu_spec(8));
            svc.handle_line(&serde_json::to_string(&req).unwrap(), &out);
        };
        send("low", 0); // depth 0 < high water: admitted normally
        send("low2", 0); // at high water, does not outrank "low": rejected
        send("high", 5); // outranks "low": admitted, "low" shed
        let mut by_id: HashMap<String, ErrorResponse> = HashMap::new();
        for line in sink.lines() {
            let e: ErrorResponse = serde_json::from_str(&line).expect("error response");
            by_id.insert(e.id.clone().unwrap_or_default(), e);
        }
        assert_eq!(by_id.len(), 2, "low2 rejected, low shed");
        let rejected = &by_id["low2"];
        assert_eq!(rejected.kind.as_deref(), Some("overloaded"));
        assert!(rejected.message.contains("does not outrank"));
        assert!(rejected.retry_after_ms.is_some());
        let shed = &by_id["low"];
        assert_eq!(shed.kind.as_deref(), Some("overloaded"));
        assert!(shed.message.contains("shed by higher-priority work"));
        assert_eq!(svc.stats.lock().unwrap().jobs_shed, 1, "one victim shed");
        assert_eq!(svc.queue.lock().unwrap().len(), 1, "only `high` queued");
        svc.begin_shutdown(); // sheds "high" too — answered shutting-down
        let lines = sink.lines();
        let last: ErrorResponse = serde_json::from_str(&lines[lines.len() - 1]).unwrap();
        assert_eq!(last.id.as_deref(), Some("high"));
        assert_eq!(last.kind.as_deref(), Some("shutting-down"));
    }

    #[test]
    fn expired_deadline_answers_timeout() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            timeout: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        let lines = drive_svc(&svc, &[submit("t0", 0, lu_spec(8))], 1);
        assert_eq!(lines.len(), 1);
        let e: ErrorResponse = serde_json::from_str(&lines[0]).expect("error response");
        assert_eq!(e.id.as_deref(), Some("t0"));
        assert_eq!(e.kind.as_deref(), Some("timeout"));
        assert!(e.message.contains("timeout"), "{}", e.message);
        assert_eq!(svc.stats.lock().unwrap().jobs_timed_out, 1);
    }

    /// A writer whose first `panics` write calls panic — injected faults on
    /// the answer path, which the worker's panic barrier must absorb.
    #[derive(Clone)]
    struct PanicWriter {
        inner: MemWriter,
        panics_left: Arc<Mutex<u32>>,
    }

    impl Write for PanicWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut left = self.panics_left.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                drop(left);
                panic!("injected write fault");
            }
            drop(left);
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn panicking_job_is_retried_then_answered() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            max_retries: 2,
            ..ServiceConfig::default()
        });
        let sink = MemWriter::default();
        let writer = PanicWriter {
            inner: sink.clone(),
            panics_left: Arc::new(Mutex::new(2)),
        };
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
        svc.handle_line(
            &serde_json::to_string(&submit("flaky", 3, lu_spec(8))).unwrap(),
            &out,
        );
        std::thread::scope(|scope| {
            scope.spawn(|| svc.worker());
            // wait until the (eventually successful) result line lands
            for _ in 0..400 {
                if sink.lines().iter().any(|l| l.contains("\"result\"")) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            svc.begin_shutdown();
        });
        let lines = sink.lines();
        let r: ResultResponse = serde_json::from_str(
            lines
                .iter()
                .find(|l| l.contains("\"result\""))
                .expect("third attempt answered"),
        )
        .unwrap();
        assert_eq!(r.id, "flaky");
        let stats = svc.stats.lock().unwrap();
        assert_eq!(stats.jobs_retried, 2);
        // one answer line, counted once: the attempts whose write panicked
        // (the first constructed, the second hit the cache) count nothing
        assert_eq!(stats.jobs_done, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn panicking_job_poisons_after_max_retries() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            max_retries: 1,
            ..ServiceConfig::default()
        });
        let sink = MemWriter::default();
        let writer = PanicWriter {
            inner: sink.clone(),
            panics_left: Arc::new(Mutex::new(u32::MAX)), // never stops panicking
        };
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
        svc.handle_line(
            &serde_json::to_string(&submit("cursed", 0, lu_spec(8))).unwrap(),
            &out,
        );
        std::thread::scope(|scope| {
            scope.spawn(|| svc.worker());
            for _ in 0..400 {
                if !svc.poisoned.lock().unwrap().is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            svc.begin_shutdown();
        });
        assert_eq!(svc.poisoned.lock().unwrap().len(), 1, "job poisoned");
        // resubmission of the same spec is rejected at intake
        let clean = MemWriter::default();
        let out2: SharedWriter = Arc::new(Mutex::new(Box::new(clean.clone())));
        // shutdown already requested; poison check runs first, so reset
        svc.shutdown.store(false, Ordering::Release);
        svc.handle_line(
            &serde_json::to_string(&submit("cursed-again", 0, lu_spec(8))).unwrap(),
            &out2,
        );
        let lines = clean.lines();
        assert_eq!(lines.len(), 1);
        let e: ErrorResponse = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(e.kind.as_deref(), Some("poisoned"));
    }

    /// Assert the span trees of the one job in `events`, which took
    /// `attempts` attempts: one `queue.wait` and one `job.attempt` per
    /// attempt, exactly one `job` root (on the last attempt, with `ok`),
    /// and every child inside its parent's window.
    fn assert_attempt_trees(events: &[TraceEvent], attempts: u64, ok: f64) {
        let spans: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "span").collect();
        for a in 1..=attempts {
            for name in ["queue.wait", "job.attempt"] {
                let n = spans
                    .iter()
                    .filter(|e| e.attempt == Some(a) && e.name == name)
                    .count();
                assert_eq!(n, 1, "attempt {a}: one {name} span");
            }
        }
        assert!(spans
            .iter()
            .all(|e| e.attempt.is_some_and(|a| a <= attempts)));
        let roots: Vec<&TraceEvent> = spans.iter().copied().filter(|e| e.name == "job").collect();
        assert_eq!(roots.len(), 1, "exactly one root");
        let root = roots[0];
        assert_eq!(
            root.attempt,
            Some(attempts),
            "the root closes the last attempt"
        );
        assert_eq!(root.field_value("ok"), Some(ok));
        let window = |e: &TraceEvent| {
            let start = e.start_us.unwrap();
            (start, start + e.dur_us.unwrap())
        };
        for ev in &spans {
            let Some(parent) = ev.parent.as_deref() else {
                continue;
            };
            // Every attempt hangs off the job's one root; deeper spans
            // resolve within their own attempt.
            let p = if parent == "job" {
                root
            } else {
                spans
                    .iter()
                    .find(|p| p.name == parent && p.attempt == ev.attempt)
                    .unwrap_or_else(|| panic!("{} links to missing {parent}", ev.name))
            };
            let ((cs, ce), (ps, pe)) = (window(ev), window(p));
            assert!(
                cs >= ps && ce <= pe,
                "attempt {:?}: {} [{cs}, {ce}] escapes {parent} [{ps}, {pe}]",
                ev.attempt,
                ev.name
            );
        }
    }

    /// A service with an in-memory tracer on the service's own clock.
    fn traced_service(cfg: ServiceConfig) -> Service {
        let mut svc = Service::new(cfg);
        svc.tracer = Some(Tracer::new(Arc::clone(&svc.clock)));
        svc
    }

    fn drain_spans(svc: &Service) -> Vec<TraceEvent> {
        svc.tracer.as_ref().map(Tracer::drain).unwrap_or_default()
    }

    /// Drive one submission written to a writer that panics on its first
    /// `panics` writes, until `done` holds.
    fn drive_panicking(svc: &Service, panics: u32, done: impl Fn(&Service, &MemWriter) -> bool) {
        let sink = MemWriter::default();
        let writer = PanicWriter {
            inner: sink.clone(),
            panics_left: Arc::new(Mutex::new(panics)),
        };
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
        svc.handle_line(
            &serde_json::to_string(&submit("flaky", 3, lu_spec(8))).unwrap(),
            &out,
        );
        std::thread::scope(|scope| {
            scope.spawn(|| svc.worker());
            for _ in 0..400 {
                if done(svc, &sink) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            svc.begin_shutdown();
        });
    }

    #[test]
    fn failed_attempts_emit_complete_span_trees() {
        // A deadline that has passed at dequeue: one attempt, answered
        // with a timeout.
        let svc = traced_service(ServiceConfig {
            workers: 1,
            timeout: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        drive_svc(&svc, &[submit("t0", 0, lu_spec(8))], 1);
        assert_attempt_trees(&drain_spans(&svc), 1, 0.0);

        // Two panics on the answer path, then an answer: three attempts,
        // and only the last one closes the root.
        let svc = traced_service(ServiceConfig {
            workers: 1,
            max_retries: 2,
            ..ServiceConfig::default()
        });
        drive_panicking(&svc, 2, |_, sink| {
            sink.lines().iter().any(|l| l.contains("\"result\""))
        });
        let events = drain_spans(&svc);
        assert_attempt_trees(&events, 3, 1.0);
        // The panicked answers were cut short inside their `respond`
        // spans, which the guards still recorded while unwinding.
        let responds = events.iter().filter(|e| e.name == "respond").count();
        assert_eq!(responds, 3, "one respond span per attempt");

        // A job that panics on every attempt: poisoned after its retry.
        let svc = traced_service(ServiceConfig {
            workers: 1,
            max_retries: 1,
            ..ServiceConfig::default()
        });
        drive_panicking(&svc, u32::MAX, |svc, _| {
            !svc.poisoned.lock().unwrap().is_empty()
        });
        assert_attempt_trees(&drain_spans(&svc), 2, 0.0);
    }

    #[test]
    fn simulate_requests_report_degradation_and_cache() {
        let sim = SimSpec::noise("static-order", 0.2, 7);
        let reqs = vec![
            Request::simulate(Some("s0".into()), 0, lu_spec(10), SimSpec::default()),
            Request::simulate(Some("s1".into()), 0, lu_spec(10), sim.clone()),
            Request::simulate(Some("s1-again".into()), 0, lu_spec(10), sim),
            Request::stats(),
        ];
        let lines = drive(&reqs, 1);
        let mut sims: HashMap<String, SimResultResponse> = HashMap::new();
        let mut stats = None;
        for line in &lines {
            let probe: OpProbe = serde_json::from_str(line).unwrap();
            match probe.op.as_str() {
                "sim-result" => {
                    let r: SimResultResponse = serde_json::from_str(line).unwrap();
                    sims.insert(r.id.clone(), r);
                }
                "stats" => stats = Some(serde_json::from_str::<StatsResponse>(line).unwrap()),
                other => panic!("unexpected op {other} in {line}"),
            }
        }
        let zero = &sims["s0"];
        assert_eq!(zero.degradation, 1.0, "zero noise replays exactly");
        assert_eq!(zero.executed_makespan, zero.static_makespan);
        assert_eq!(zero.policy, "static-order");
        let noisy = &sims["s1"];
        assert_ne!(noisy.trace_fingerprint, zero.trace_fingerprint);
        assert_eq!(
            noisy.fingerprint, zero.fingerprint,
            "construction is the same schedule"
        );
        let again = &sims["s1-again"];
        assert!(again.cache_hit, "repeat simulate served from the sim cache");
        assert_eq!(again.trace_fingerprint, noisy.trace_fingerprint);
        // the stats line was answered inline (possibly before the queue
        // drained) — the counters are consistent, not necessarily final
        let s = stats.expect("stats line");
        assert!(s.sims_done <= 3);
        assert!(s.sims_done <= s.jobs_done);
        assert!(s.sim_cache_size <= 2);
    }

    #[test]
    fn shutdown_request_stops_intake() {
        let reqs = vec![
            submit("before", 0, lu_spec(8)),
            Request::shutdown(),
            submit("after", 0, lu_spec(8)), // never read: intake stopped
        ];
        let lines = drive(&reqs, 1);
        let ops: Vec<String> = lines
            .iter()
            .map(|l| serde_json::from_str::<OpProbe>(l).unwrap().op)
            .collect();
        assert!(ops.contains(&"ok".to_string()), "shutdown acked: {ops:?}");
        // "before" is answered exactly once: either the worker ran it
        // (result) or the shutdown drain shed it (shutting-down error)
        let answers: Vec<&String> = lines.iter().filter(|l| l.contains("\"before\"")).collect();
        assert_eq!(answers.len(), 1, "answered exactly once: {lines:?}");
        let probe: OpProbe = serde_json::from_str(answers[0]).unwrap();
        match probe.op.as_str() {
            "result" => {}
            "error" => {
                let e: ErrorResponse = serde_json::from_str(answers[0]).unwrap();
                assert_eq!(e.kind.as_deref(), Some("shutting-down"));
            }
            other => panic!("unexpected op {other}"),
        }
        assert!(
            !lines.iter().any(|l| l.contains("\"after\"")),
            "line after shutdown unread"
        );
    }

    #[test]
    fn ledger_recovery_requeues_and_rehydrates() {
        let path = temp_ledger("recovery");
        let spec_a = lu_spec(9);
        let spec_b = JobSpec {
            scheduler: Some(SchedulerSpec::ilha(4)),
            ..lu_spec(11)
        };
        let cfg = ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        };
        // Session 1: accept two jobs, crash before any worker runs them.
        {
            let (svc, report) = Service::with_ledger(cfg.clone(), &path).unwrap();
            assert_eq!(report, RecoveryReport::default(), "fresh ledger");
            let out: SharedWriter = Arc::new(Mutex::new(Box::new(MemWriter::default())));
            svc.handle_line(
                &serde_json::to_string(&submit("a", 0, spec_a.clone())).unwrap(),
                &out,
            );
            svc.handle_line(
                &serde_json::to_string(&submit("b", 2, spec_b.clone())).unwrap(),
                &out,
            );
            assert_eq!(svc.queue.lock().unwrap().len(), 2);
            // dropped here without shutdown: the "crash"
        }
        // Session 2: recovery re-queues both, a worker drains them to the
        // ledger (their clients are gone).
        {
            let (svc, report) = Service::with_ledger(cfg.clone(), &path).unwrap();
            assert_eq!(report.jobs_requeued, 2);
            assert_eq!(report.results_rehydrated, 0);
            assert_eq!(report.events_replayed, 2);
            assert!(!report.torn_tail);
            assert_eq!(svc.stats.lock().unwrap().jobs_recovered, 2);
            std::thread::scope(|scope| {
                scope.spawn(|| svc.worker());
                for _ in 0..400 {
                    if svc.stats.lock().unwrap().jobs_done == 2 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                svc.begin_shutdown();
            });
            assert_eq!(svc.stats.lock().unwrap().jobs_done, 2);
        }
        // Session 3: the recorded outcomes rehydrate the cache, so the
        // original client's resubmission is a bit-identical cache hit.
        let (svc, report) = Service::with_ledger(cfg, &path).unwrap();
        assert_eq!(report.jobs_requeued, 0);
        assert_eq!(report.results_rehydrated, 2);
        let lines = drive_svc(&svc, &[submit("a-again", 0, spec_a.clone())], 1);
        let r: ResultResponse = serde_json::from_str(&lines[0]).unwrap();
        assert!(r.cache_hit, "rehydrated cache answers the resubmission");
        let direct = crate::cache::run_job(&spec_a.resolve().unwrap(), None, &Scope::off());
        assert_eq!(
            r.fingerprint,
            format!("{:016x}", direct.fingerprint),
            "recovered result is bit-identical to a direct run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn older_schema_outcomes_are_recomputed_not_served() {
        // A v1 daemon acknowledged a `routed-heft` job on a star. v2 folds
        // the alias into `heft`, so that outcome would answer every
        // `heft` request on the star: recovery must not rehydrate it. The
        // recorded fingerprint is bogus so that serving it would show.
        let path = temp_ledger("schema");
        let routed = JobSpec {
            platform: Some(crate::protocol::PlatformSpec::routed("star", 5, 1.0)),
            scheduler: Some(SchedulerSpec::routed_heft()),
            ..lu_spec(8)
        };
        let resolved = routed.resolve().unwrap();
        let truth = crate::cache::run_job(&resolved, None, &Scope::off());
        let key = key_hash(&resolved.key);
        {
            let (mut ledger, _) = Ledger::open(&path).unwrap();
            let mut submitted = LedgerRecord::submitted(0, "old", &key, 0, routed.clone(), None);
            submitted.schema = Some("onesched-ledger/v1".into());
            let mut outcome = LedgerOutcome::from_job(&truth);
            outcome.fingerprint = "deadbeefdeadbeef".into();
            ledger.append(&submitted).unwrap();
            ledger
                .append(&LedgerRecord::started(0, "old", &key))
                .unwrap();
            ledger
                .append(&LedgerRecord::done(0, "old", &key, Some(outcome), None))
                .unwrap();
            ledger.sync().unwrap();
        }
        let cfg = ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        };
        let (svc, report) = Service::with_ledger(cfg, &path).unwrap();
        assert_eq!(report.results_rehydrated, 0, "v1 outcome dropped");
        assert_eq!(report.jobs_requeued, 0, "acknowledged jobs stay answered");
        let lines = drive_svc(&svc, &[submit("again", 0, routed)], 1);
        let r: ResultResponse = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(r.fingerprint, format!("{:016x}", truth.fingerprint));
        assert!(!r.cache_hit, "recomputed, not served from the old ledger");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_looping_job_is_poisoned_on_recovery() {
        let path = temp_ledger("poison");
        let spec = lu_spec(13);
        let resolved_key = key_hash(&spec.resolve().unwrap().key);
        {
            // Synthesize the ledger of a job that took three daemons down:
            // submitted once, started three times, never done.
            let (mut ledger, _) = Ledger::open(&path).unwrap();
            ledger
                .append(&LedgerRecord::submitted(
                    0,
                    "looper",
                    &resolved_key,
                    0,
                    spec.clone(),
                    None,
                ))
                .unwrap();
            for _ in 0..3 {
                ledger
                    .append(&LedgerRecord::started(0, "looper", &resolved_key))
                    .unwrap();
            }
            ledger.sync().unwrap();
        }
        let cfg = ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            max_retries: 2,
            ..ServiceConfig::default()
        };
        let (svc, report) = Service::with_ledger(cfg.clone(), &path).unwrap();
        assert_eq!(report.poisoned, 1, "3 starts > max-retries 2");
        assert_eq!(report.jobs_requeued, 0);
        assert!(svc.poisoned.lock().unwrap().contains(&resolved_key));
        // resubmission of the poisoned spec is rejected at intake
        let sink = MemWriter::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        svc.handle_line(
            &serde_json::to_string(&submit("looper-again", 0, spec.clone())).unwrap(),
            &out,
        );
        let e: ErrorResponse = serde_json::from_str(&sink.lines()[0]).unwrap();
        assert_eq!(e.kind.as_deref(), Some("poisoned"));
        drop(svc);
        // the tombstone is durable: the next session poisons it again,
        // without journaling it twice, and the offline summary agrees
        let (svc, report) = Service::with_ledger(cfg, &path).unwrap();
        assert_eq!(report.poisoned, 1, "the tombstone survives a restart");
        assert_eq!(report.events_replayed, 5);
        assert!(svc.poisoned.lock().unwrap().contains(&resolved_key));
        let lines = drive_svc(&svc, &[submit("looper-third", 0, spec)], 1);
        let e: ErrorResponse = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(e.kind.as_deref(), Some("poisoned"));
        drop(svc);
        let bytes = std::fs::read(&path).unwrap();
        let summary = crate::ledger::summarize_ledger(&crate::ledger::parse_ledger(&bytes));
        assert_eq!(summary.poisoned, vec![resolved_key]);
        assert_eq!(summary.failed, 1, "one poison record, not one per session");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovered_job_below_retry_budget_is_requeued_with_backoff() {
        let path = temp_ledger("backoff");
        let spec = lu_spec(7);
        let resolved_key = key_hash(&spec.resolve().unwrap().key);
        {
            let (mut ledger, _) = Ledger::open(&path).unwrap();
            ledger
                .append(&LedgerRecord::submitted(
                    5,
                    "once",
                    &resolved_key,
                    10,
                    spec,
                    None,
                ))
                .unwrap();
            ledger
                .append(&LedgerRecord::started(5, "once", &resolved_key))
                .unwrap();
            ledger.sync().unwrap();
        }
        let cfg = ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            max_retries: 2,
            ..ServiceConfig::default()
        };
        let (svc, report) = Service::with_ledger(cfg, &path).unwrap();
        assert_eq!(report.jobs_requeued, 1, "1 start <= max-retries: retried");
        assert_eq!(report.poisoned, 0);
        // seq resumes after the replayed prefix
        assert_eq!(svc.next_seq.load(Ordering::Relaxed), 6);
        let _ = std::fs::remove_file(&path);
    }
}
