//! The `daemon-open` workload: a fresh `onesched-svc serve --tcp` child
//! per pass, fed by one client connection with one sender and one reader
//! thread.
//!
//! After a warm-up batch the run is a sequence of rounds, so that every
//! metric samples the whole run and a disturbed stretch moves its median
//! little. Each round has two phases:
//!
//! 1. an open loop of [`WINDOW`] requests with seeded Poisson arrivals at
//!    [`OPEN_RATE`], each timed from its due time (not its send time) to
//!    its answer line;
//! 2. a pipelined burst of [`BURST`] fresh requests from the same mix,
//!    which measures throughput.

use crate::layers::{InProc, LayerClock};
use crate::stats::{geomean, highest, lowest, median, percentile, Rng};
use crate::{mix, Args, Outcome};
use onesched_service::Request;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Burst throughput of one worker on this mix, jobs per second, as
/// measured when the benchmark was defined; it sizes the rounds.
const BURST_RATE: f64 = 1800.0;
/// Open-loop arrival rate, requests per second: a quarter of
/// [`BURST_RATE`]. At 40% a few seconds of other load on a two-core host
/// pushed the single worker into backlog, and p99 latency then measured
/// the host more than the daemon.
pub const OPEN_RATE: f64 = 450.0;
/// Requests per open-loop window: enough for ten beyond its p99.
const WINDOW: usize = 1000;
/// Requests per burst.
const BURST: usize = 2000;
/// Seconds one round takes, roughly.
const ROUND_S: f64 = WINDOW as f64 / OPEN_RATE + BURST as f64 / BURST_RATE;
/// Warm-up requests before the first round.
const WARMUP: usize = 60;
/// Daemon spawns per timed run; `setup_s` is the median.
const SPAWN_REPEATS: usize = 15;
/// An open-loop window whose queue is deeper than this when its last
/// request goes out has a growing backlog, and the run is rejected.
const MAX_BACKLOG: f64 = 50.0;
/// How long the reader waits for any one answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// One running daemon child.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawn and wait for the `ready` line; also returns the seconds from
    /// spawn to ready.
    fn spawn(args: &Args, tag: &str, trace: Option<&Path>) -> Result<(Daemon, f64), String> {
        let ledger = args.work.join(format!("{tag}-ledger.ndjson"));
        let _ = std::fs::remove_file(&ledger);
        let mut cmd = Command::new(&args.svc);
        cmd.args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--ledger",
        ])
        .arg(&ledger)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        if let Some(path) = trace {
            let _ = std::fs::remove_file(path);
            cmd.arg("--trace").arg(path);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.svc.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|s| BufReader::new(s).read_line(&mut line));
        let setup = t0.elapsed().as_secs_f64();
        let ready: Option<Value> = serde_json::from_str(line.trim()).ok();
        let addr = ready
            .as_ref()
            .filter(|v| str_field(v, "op") == Some("ready"))
            .and_then(|v| str_field(v, "addr"))
            .map(str::to_string);
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok((Daemon { child, addr }, setup)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce ready (got {line:?})"))
            }
        }
    }

    /// Send one control request on its own connection; return the answer.
    fn control(&self, req: &Request) -> Result<Value, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(ANSWER_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        writeln!(s, "{line}").map_err(|e| e.to_string())?;
        let mut answer = String::new();
        BufReader::new(s)
            .read_line(&mut answer)
            .map_err(|e| e.to_string())?;
        serde_json::from_str(answer.trim()).map_err(|e| format!("control answer: {e}"))
    }

    /// Peak resident set of the child, megabytes.
    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful shutdown; the child must exit 0 within the answer timeout.
    fn shutdown(mut self) -> Result<(), String> {
        self.control(&Request::shutdown())?;
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn str_field<'a>(v: &'a Value, name: &str) -> Option<&'a str> {
    v.get_field(name).ok().and_then(|f| f.as_str().ok())
}

fn num_field(v: &Value, name: &str) -> Option<f64> {
    v.get_field(name).ok().and_then(|f| f.as_num().ok())
}

fn hex_field(v: &Value, name: &str) -> Option<u64> {
    str_field(v, name).and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// One batch of requests as sent: the request, its line, and its due
/// offset from the batch start (zero for a burst).
struct Batch {
    prefix: String,
    requests: Vec<Request>,
    lines: Vec<String>,
    due: Vec<Duration>,
}

impl Batch {
    /// Requests of the mix from seeded `stream`, one per due offset, with
    /// ids `{prefix}-{i}`.
    fn new(args: &Args, stream: u64, prefix: String, due: Vec<Duration>) -> Result<Batch, String> {
        let requests = mix::requests(args.seed, stream, due.len(), &prefix);
        let lines = requests
            .iter()
            .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Batch {
            prefix,
            requests,
            lines,
            due,
        })
    }
}

/// One round: an open-loop window (ids `p1.{r}-{i}`), then a burst (ids
/// `p2.{r}-{i}`).
struct Round {
    open: Batch,
    burst: Batch,
}

/// The batches of a pass, all derived from the workload seed: the warm-up
/// and as many rounds as fit in the run's seconds.
struct Plan {
    warmup: Batch,
    rounds: Vec<Round>,
}

fn plan(args: &Args) -> Result<Plan, String> {
    let rounds = ((args.seconds / ROUND_S) as usize).max(1);
    let round = |r: usize| -> Result<Round, String> {
        let r64 = r as u64;
        let mut arrivals = Rng::new(args.seed, 1000 + r64);
        let mut t = 0.0;
        let due = (0..WINDOW)
            .map(|_| {
                t += arrivals.exp(OPEN_RATE);
                Duration::from_secs_f64(t)
            })
            .collect();
        Ok(Round {
            open: Batch::new(args, 100 + 2 * r64, format!("p1.{r}"), due)?,
            burst: Batch::new(
                args,
                101 + 2 * r64,
                format!("p2.{r}"),
                vec![Duration::ZERO; BURST],
            )?,
        })
    };
    Ok(Plan {
        warmup: Batch::new(args, 21, "w".into(), vec![Duration::ZERO; WARMUP])?,
        rounds: (0..rounds).map(round).collect::<Result<_, _>>()?,
    })
}

/// What the client saw for one batch.
struct Sent {
    start: Instant,
    /// Actual send instants.
    sent: Vec<Option<Instant>>,
    /// Answer line and its arrival instant, per request.
    answers: Vec<Option<(Value, Instant)>>,
    /// Answers that matched no outstanding request (duplicates, bad ids).
    stray: usize,
    /// `stats.queue_depth` read right after the last send, when asked.
    queue_depth: Option<f64>,
}

impl Sent {
    fn due(&self, batch: &Batch, i: usize) -> Instant {
        self.start + batch.due[i]
    }

    /// Milliseconds from due time to answer, answered requests only.
    fn latencies_ms(&self, batch: &Batch) -> Vec<f64> {
        self.answers
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                a.as_ref()
                    .map(|(_, at)| (*at - self.due(batch, i)).as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Milliseconds the generator sent each request after its due time.
    fn lags_ms(&self, batch: &Batch) -> Vec<f64> {
        self.sent
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.map(|at| {
                    at.saturating_duration_since(self.due(batch, i))
                        .as_secs_f64()
                        * 1e3
                })
            })
            .collect()
    }

    /// Seconds from the batch start to its last answer.
    fn span_s(&self) -> f64 {
        self.answers
            .iter()
            .flatten()
            .map(|(_, at)| (*at - self.start).as_secs_f64())
            .fold(0.0, f64::max)
    }
}

/// The client connection: one socket, written by a sender thread and read
/// by a reader thread during each batch.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(daemon: &Daemon) -> Result<Client, String> {
        let s = TcpStream::connect(&daemon.addr).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(ANSWER_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer: s, reader })
    }

    /// Send `batch` on its schedule while reading its answers; optionally
    /// read the queue depth once the last request is out.
    fn run(&mut self, daemon: &Daemon, batch: &Batch, probe_backlog: bool) -> Sent {
        let n = batch.lines.len();
        let start = Instant::now();
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let mut sent = vec![None; n];
                for (i, line) in batch.lines.iter().enumerate() {
                    let due = start + batch.due[i];
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let mut buf = Vec::with_capacity(line.len() + 1);
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                    if writer.write_all(&buf).is_err() {
                        break;
                    }
                    sent[i] = Some(Instant::now());
                }
                let depth = probe_backlog
                    .then(|| daemon.control(&Request::stats()).ok())
                    .flatten()
                    .and_then(|v| num_field(&v, "queue_depth"));
                (sent, depth)
            });
            let mut answers: Vec<Option<(Value, Instant)>> = vec![None; n];
            let (mut got, mut stray) = (0usize, 0usize);
            let mut line = String::new();
            while got < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let v: Option<Value> = serde_json::from_str(line.trim()).ok();
                let slot = v
                    .as_ref()
                    .and_then(|v| str_field(v, "id"))
                    .and_then(|id| {
                        id.strip_prefix(batch.prefix.as_str())?
                            .strip_prefix('-')?
                            .parse::<usize>()
                            .ok()
                    })
                    .filter(|&i| i < n && answers[i].is_none());
                match (slot, v) {
                    (Some(i), Some(v)) => {
                        answers[i] = Some((v, at));
                        got += 1;
                    }
                    _ => stray += 1,
                }
            }
            let (sent, queue_depth) = sender.join().unwrap_or_else(|_| (vec![None; n], None));
            Sent {
                start,
                sent,
                answers,
                stray,
                queue_depth,
            }
        })
    }
}

/// Check every answer of a batch: exactly one per request, a result (not
/// an error), zero validator violations, and a bit-exact zero-noise
/// static-order replay. Counts each request as one attempted operation.
fn check(out: &mut Outcome, batch: &Batch, sent: &Sent) {
    out.attempted += batch.lines.len() as u64;
    if sent.stray > 0 {
        out.fail(format!(
            "{}: {} answers matched no request",
            batch.prefix, sent.stray
        ));
    }
    for (i, answer) in sent.answers.iter().enumerate() {
        let Some((v, _)) = answer else {
            out.fail(format!("{}-{i}: no answer", batch.prefix));
            continue;
        };
        let op = str_field(v, "op").unwrap_or("");
        if op != "result" && op != "sim-result" {
            let msg = str_field(v, "message").unwrap_or("");
            out.fail(format!("{}-{i}: {op}: {msg}", batch.prefix));
            continue;
        }
        if num_field(v, "violations") != Some(0.0) {
            out.fail(format!("{}-{i}: validator violations", batch.prefix));
        }
        let sim = &batch.requests[i].sim;
        let zero_noise_replay = sim.as_ref().is_some_and(|s| {
            s.policy.as_deref() == Some("static-order") && s.task_sigma == Some(0.0)
        });
        if zero_noise_replay && num_field(v, "degradation") != Some(1.0) {
            out.fail(format!(
                "{}-{i}: zero-noise replay is not bit-exact",
                batch.prefix
            ));
        }
    }
}

/// Placement fingerprints of every answer, in request order.
fn fingerprints(sent: &Sent) -> Vec<u64> {
    sent.answers
        .iter()
        .map(|a| {
            a.as_ref()
                .and_then(|(v, _)| hex_field(v, "fingerprint"))
                .unwrap_or(0)
        })
        .collect()
}

/// What the client saw in one round; no burst when only the open loop
/// ran.
struct RoundSent {
    open: Sent,
    burst: Option<Sent>,
}

/// Run the warm-up, then every round (with or without its burst),
/// checking every answer and every window's backlog.
fn run_rounds(
    out: &mut Outcome,
    daemon: &Daemon,
    plan: &Plan,
    bursts: bool,
) -> Result<Vec<RoundSent>, String> {
    let mut client = Client::connect(daemon)?;
    let warm = client.run(daemon, &plan.warmup, false);
    check(out, &plan.warmup, &warm);
    let mut sent = Vec::new();
    for round in &plan.rounds {
        let open = client.run(daemon, &round.open, true);
        check(out, &round.open, &open);
        match open.queue_depth {
            Some(d) if d <= MAX_BACKLOG => {}
            Some(d) => out.fail(format!(
                "{}: backlog grew, queue depth {d} after the last arrival",
                round.open.prefix
            )),
            None => out.fail(format!(
                "{}: could not read the queue depth",
                round.open.prefix
            )),
        }
        let burst = bursts.then(|| {
            let s = client.run(daemon, &round.burst, false);
            check(out, &round.burst, &s);
            s
        });
        sent.push(RoundSent { open, burst });
    }
    Ok(sent)
}

/// Each round's open-loop p50 and p99 latency, milliseconds.
fn window_latency(plan: &Plan, sent: &[RoundSent]) -> (Vec<f64>, Vec<f64>) {
    plan.rounds
        .iter()
        .zip(sent)
        .map(|(round, s)| {
            let latencies = s.open.latencies_ms(&round.open);
            (percentile(&latencies, 0.50), percentile(&latencies, 0.99))
        })
        .unzip()
}

/// Every answered batch of the run after the warm-up, in order.
fn answered<'a>(
    plan: &'a Plan,
    sent: &'a [RoundSent],
) -> impl Iterator<Item = (&'a Batch, &'a Sent)> {
    plan.rounds.iter().zip(sent).flat_map(|(round, s)| {
        std::iter::once((&round.open, &s.open)).chain(s.burst.as_ref().map(|b| (&round.burst, b)))
    })
}

/// The timed pass: end-to-end metrics with daemon tracing off.
pub fn timed(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args)?;
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SPAWN_REPEATS {
        let (d, s) = Daemon::spawn(args, &format!("timed-{i}"), None)?;
        setup.push(s);
        if let Some(previous) = daemon.replace(d) {
            previous.shutdown()?;
        }
    }
    let daemon = daemon.ok_or("no daemon")?;
    let mut out = Outcome::default();
    let sent = run_rounds(&mut out, &daemon, &plan, true)?;
    let rss = daemon.peak_rss_mb();
    daemon.shutdown()?;

    let (p50, p99) = window_latency(&plan, &sent);
    let mut speedups = Vec::new();
    for (_, s) in answered(&plan, &sent) {
        speedups.extend(
            s.answers
                .iter()
                .flatten()
                .filter_map(|(v, _)| num_field(v, "speedup")),
        );
        out.fingerprints.extend(fingerprints(s));
    }
    let (mut tasks_per_s, mut jobs_per_s) = (Vec::new(), Vec::new());
    for burst in sent.iter().filter_map(|s| s.burst.as_ref()) {
        // tasks placed: cache hits place none
        let tasks: f64 = burst
            .answers
            .iter()
            .flatten()
            .filter(|(v, _)| !matches!(v.get_field("cache_hit"), Ok(Value::Bool(true))))
            .filter_map(|(v, _)| num_field(v, "tasks"))
            .sum();
        tasks_per_s.push(tasks / burst.span_s());
        jobs_per_s.push(burst.answers.len() as f64 / burst.span_s());
    }
    let lags: Vec<f64> = plan
        .rounds
        .iter()
        .zip(&sent)
        .flat_map(|(r, s)| s.open.lags_ms(&r.open))
        .collect();
    // The best burst and the best window: other load on the host only ever
    // slows a round down, and the stratified mix gives every window the
    // same composition.
    out.metric("construct_tasks_per_s", highest(&tasks_per_s), "1/s");
    out.metric("jobs_per_s", highest(&jobs_per_s), "1/s");
    out.metric("latency_ms_p50", lowest(&p50), "ms");
    out.metric("latency_ms_p99", lowest(&p99), "ms");
    out.metric("speedup_geomean", geomean(&speedups), "ratio");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("setup_s", median(&setup), "s");
    eprintln!(
        "perfbench: {} rounds of {WINDOW} requests at {OPEN_RATE}/s (lag p99 {:.3} ms, p50 {:.2?} ms, p99 {:.1?} ms) and {BURST}-request bursts at {:.0?} jobs/s",
        plan.rounds.len(),
        percentile(&lags, 0.99),
        p50,
        p99,
        jobs_per_s,
    );
    Ok(out)
}

/// Per-layer metrics that only the daemon workload exercises, reported
/// as zero by the offline workloads, which have no daemon on their path.
pub fn report_absent(out: &mut Outcome) {
    out.metric("service.queue_wait_ms_p50", 0.0, "ms");
    out.metric("service.queue_wait_ms_p99", 0.0, "ms");
    out.metric("service.cache_hit_ratio", 0.0, "ratio");
    out.metric("service.attempt_unattributed_ms", 0.0, "ms");
    out.metric("trace.overhead_share", 0.0, "ratio");
    out.metric("loadgen.lag_ms_p99", 0.0, "ms");
}

/// From the daemon's span log: the queue waits of open-loop jobs (whose
/// latency they explain) and the summed unattributed `job.attempt`
/// self-time of every open-loop and burst job, milliseconds.
fn trace_layers(path: &Path) -> Result<(Vec<f64>, f64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let report = onesched_trace::build_report(&onesched_trace::parse_trace(&bytes));
    let (mut waits, mut unattributed_us) = (Vec::new(), 0u64);
    for job in &report.jobs {
        let open = job.id.starts_with("p1.");
        if !open && !job.id.starts_with("p2.") {
            continue;
        }
        for span in &job.spans {
            match span.name.as_str() {
                "queue.wait" if open => waits.push(span.dur_us as f64 / 1e3),
                "job.attempt" => unattributed_us += span.self_us,
                _ => {}
            }
        }
    }
    Ok((waits, unattributed_us as f64 / 1e3))
}

/// The traced pass: an untraced daemon over the open-loop windows only
/// (the tracing-overhead baseline and the generator's lag), a traced
/// daemon over every round, and an in-process walk of every distinct
/// request, whose fingerprints every answer must match.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args)?;
    let mut out = Outcome::default();

    let (daemon, _) = Daemon::spawn(args, "untraced", None)?;
    let base = run_rounds(&mut out, &daemon, &plan, false)?;
    daemon.shutdown()?;

    let trace_path = args.work.join("daemon-trace.ndjson");
    let (daemon, _) = Daemon::spawn(args, "traced", Some(&trace_path))?;
    let sent = run_rounds(&mut out, &daemon, &plan, true)?;
    let stats = daemon.control(&Request::stats())?;
    daemon.shutdown()?;
    let (waits, attempt_unattributed_ms) = trace_layers(&trace_path)?;

    // In-process reference: each distinct request once, every answer
    // compared against it.
    let mut clock = LayerClock::new(&args.work.join("layers-ledger.ndjson"))?;
    let mut reference: BTreeMap<String, InProc> = BTreeMap::new();
    for (batch, s) in answered(&plan, &sent) {
        for (i, req) in batch.requests.iter().enumerate() {
            let mut anonymous = req.clone();
            anonymous.id = None;
            let key = serde_json::to_string(&anonymous).map_err(|e| e.to_string())?;
            if !reference.contains_key(&key) {
                match clock.run(&batch.lines[i], 0) {
                    Ok(r) => {
                        reference.insert(key.clone(), r);
                    }
                    Err(e) => {
                        out.fail(format!("{}-{i}: in-process run: {e}", batch.prefix));
                        continue;
                    }
                }
            }
            let (Some(r), Some((v, _))) = (reference.get(&key), &s.answers[i]) else {
                continue;
            };
            let same = hex_field(v, "fingerprint") == Some(r.fingerprint)
                && (req.sim.is_none() || hex_field(v, "trace_fingerprint") == r.trace_fingerprint)
                && r.violations == 0;
            if !same {
                out.fail(format!(
                    "{}-{i}: answer differs from the in-process run",
                    batch.prefix
                ));
            }
        }
        out.fingerprints.extend(fingerprints(s));
    }
    clock.report(&mut out)?;

    let jobs_done = num_field(&stats, "jobs_done").unwrap_or(0.0);
    let cache_hits = num_field(&stats, "cache_hits").unwrap_or(0.0);
    let lags: Vec<f64> = plan
        .rounds
        .iter()
        .zip(&base)
        .flat_map(|(r, s)| s.open.lags_ms(&r.open))
        .collect();
    out.metric("service.queue_wait_ms_p50", percentile(&waits, 0.50), "ms");
    out.metric("service.queue_wait_ms_p99", percentile(&waits, 0.99), "ms");
    out.metric(
        "service.cache_hit_ratio",
        cache_hits / jobs_done.max(1.0),
        "ratio",
    );
    out.metric(
        "service.attempt_unattributed_ms",
        attempt_unattributed_ms,
        "ms",
    );
    out.metric(
        "trace.overhead_share",
        lowest(&window_latency(&plan, &sent).0) / lowest(&window_latency(&plan, &base).0) - 1.0,
        "ratio",
    );
    out.metric("loadgen.lag_ms_p99", percentile(&lags, 0.99), "ms");
    Ok(out)
}
