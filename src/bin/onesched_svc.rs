//! `onesched-svc` — the scheduling daemon and its client mode.
//!
//! ```text
//! onesched-svc serve [--stdio | --tcp ADDR] [--workers N] [--cache N]
//!                    [--queue-cap N] [--ledger PATH] [--max-retries N]
//!                    [--timeout-ms N] [--high-water N] [--trace PATH]
//! onesched-svc submit --tcp ADDR [FILE|-]
//! onesched-svc stats --tcp ADDR
//! onesched-svc metrics --tcp ADDR
//! onesched-svc shutdown --tcp ADDR
//! onesched-svc trace <export IN [--out OUT] | validate PATH |
//!                     report IN [--max-jobs N] |
//!                     flamegraph IN [--out SVG] [--folded PATH]>
//! onesched-svc ledger inspect PATH
//! onesched-svc gen <smoke | stress | routed | sim | chaos> [--tasks N]
//!                  [--seed S] [--count K] [--procs P] [--n N]
//!                  [--testbed NAME] [--scheduler SPEC]
//! ```
//!
//! * `serve` runs the daemon. In `--stdio` mode (default) it reads request
//!   lines from stdin and exits after draining the queue at EOF — one
//!   process per batch, ideal for pipelines. In `--tcp` mode it serves
//!   concurrent connections until a `shutdown` request; `--tcp
//!   127.0.0.1:0` binds an ephemeral port announced by the `ready` line on
//!   stdout. With `--ledger PATH` the daemon journals every job to an
//!   append-only write-ahead log and recovers it on restart: acknowledged
//!   results rehydrate the caches, unacknowledged jobs re-run (producing
//!   bit-identical results — everything is deterministic), and jobs that
//!   repeatedly crashed the daemon are tombstoned as poison.
//!   With `--trace PATH` every job emits an NDJSON span tree
//!   (`onesched-trace/v1`) covering intake → queue wait → attempt →
//!   construct phases → execute → respond; tracing never changes results.
//! * `submit` sends request lines from a file (or stdin with `-`) to a
//!   running daemon and prints one response line per request. Like `gen`,
//!   it exits 1 at the first failed write to stdout, so a reader that
//!   closes early (`| head -n 1`) ends it.
//! * `metrics` scrapes the daemon's Prometheus text exposition.
//! * `trace export` converts a span log to Chrome/Perfetto trace JSON;
//!   `trace validate` checks schema conformance and reports torn tails;
//!   `trace report` prints per-span-name self-time/alloc aggregates and
//!   each job's critical path; `trace flamegraph` renders the same span
//!   trees as a deterministic flamegraph SVG (optionally also writing
//!   the folded-stack text).
//! * `ledger inspect` summarizes a write-ahead ledger without replaying it.
//! * `gen` prints workload request batches (`onesched-svc gen smoke |
//!   onesched-svc serve` is the self-contained smoke test). `--scheduler`
//!   takes any registry kind by canonical string — `min-min`,
//!   `ilha(b=4)`, `portfolio[heft,cpop]` — and pins the stress workload
//!   to it instead of the default HEFT+ILHA pair.
//!
//! Protocol reference: `crates/service/README.md`.

mod cli;

use cli::{take_flag, take_parsed};
use onesched::service::protocol::{MetricsResponse, OpProbe, Request};
use onesched::service::{workloads, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

/// With `--features profiling`, count every allocation so `construct.*`
/// spans carry `allocs`/`alloc_bytes` attribution. Counting changes no
/// allocation decisions — fingerprints stay bit-identical (pinned by
/// `tests/profiling_fingerprint.rs`).
#[cfg(feature = "profiling")]
#[global_allocator]
static COUNTING_ALLOC: onesched_prof::CountingAlloc = onesched_prof::CountingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("serve");
    let rest = if args.is_empty() {
        &args[..]
    } else {
        &args[1..]
    };
    let code = match cmd {
        "serve" => serve(rest),
        "submit" => submit(rest),
        "stats" => send_one(rest, Request::stats()),
        "metrics" => metrics(rest),
        "shutdown" => send_one(rest, Request::shutdown()),
        "trace" => trace_cmd(rest),
        "ledger" => ledger_cmd(rest),
        "gen" => gen(rest),
        "--help" | "-h" | "help" => {
            eprint!("{}", USAGE);
            0
        }
        other => {
            eprintln!("onesched-svc: unknown command {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "usage:\n  onesched-svc serve [--stdio | --tcp ADDR] [--workers N] [--cache N] [--queue-cap N]\n                     [--ledger PATH] [--max-retries N] [--timeout-ms N] [--high-water N]\n                     [--trace PATH]\n  onesched-svc submit --tcp ADDR [FILE|-]\n  onesched-svc stats --tcp ADDR\n  onesched-svc metrics --tcp ADDR\n  onesched-svc shutdown --tcp ADDR\n  onesched-svc trace export IN [--out OUT]\n  onesched-svc trace validate PATH\n  onesched-svc trace report IN [--max-jobs N]\n  onesched-svc trace flamegraph IN [--out SVG] [--folded PATH]\n  onesched-svc ledger inspect PATH\n  onesched-svc gen <smoke|stress|routed|sim|chaos> [--tasks N] [--seed S] [--count K] [--procs P] [--n N] [--testbed NAME] [--scheduler SPEC]\n";

fn serve(args: &[String]) -> i32 {
    let mut args = args.to_vec();
    let tcp = take_flag(&mut args, "--tcp");
    let workers = take_parsed::<usize>(&mut args, "--workers")
        .unwrap_or_else(onesched::heuristics::default_threads);
    let cache = take_parsed::<usize>(&mut args, "--cache").unwrap_or(1024);
    let queue_cap = take_parsed::<usize>(&mut args, "--queue-cap")
        .unwrap_or(onesched::service::service::DEFAULT_QUEUE_CAP);
    let ledger = take_flag(&mut args, "--ledger");
    let max_retries = take_parsed::<u32>(&mut args, "--max-retries")
        .unwrap_or(onesched::service::service::DEFAULT_MAX_RETRIES);
    let timeout = take_parsed(&mut args, "--timeout-ms").map(std::time::Duration::from_millis);
    let high_water = take_parsed::<usize>(&mut args, "--high-water");
    let trace = take_flag(&mut args, "--trace").map(std::path::PathBuf::from);
    args.retain(|a| a != "--stdio");
    if !args.is_empty() {
        eprintln!("onesched-svc: unexpected arguments {args:?}\n{USAGE}");
        return 2;
    }
    let cfg = ServiceConfig {
        workers,
        cache_capacity: cache,
        queue_cap,
        max_retries,
        timeout,
        high_water,
        trace,
    };
    let svc = match ledger {
        Some(path) => {
            match Service::with_ledger(cfg, std::path::Path::new(&path)) {
                Ok((svc, report)) => {
                    // stderr, not stdout: the protocol stream stays clean
                    eprintln!(
                        "onesched-svc: ledger {path}: replayed {} events{}, \
                         requeued {}, rehydrated {}, poisoned {}, skipped {}",
                        report.events_replayed,
                        if report.torn_tail {
                            " (torn tail truncated)"
                        } else {
                            ""
                        },
                        report.jobs_requeued,
                        report.results_rehydrated,
                        report.poisoned,
                        report.skipped,
                    );
                    svc
                }
                Err(e) => {
                    eprintln!("onesched-svc: {e}");
                    return 1;
                }
            }
        }
        None => Service::new(cfg),
    };
    let result = match tcp {
        Some(addr) => {
            let announce: onesched::service::service::SharedWriter =
                Arc::new(Mutex::new(Box::new(std::io::stdout())));
            svc.serve_tcp(&addr, &announce)
        }
        None => svc.serve_stdio(),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("onesched-svc: {e}");
            1
        }
    }
}

/// Send request lines to a daemon and print one response line per request.
fn submit(args: &[String]) -> i32 {
    let mut args = args.to_vec();
    let Some(addr) = take_flag(&mut args, "--tcp") else {
        eprintln!("onesched-svc: submit needs --tcp ADDR\n{USAGE}");
        return 2;
    };
    let source = args.first().map(String::as_str).unwrap_or("-");
    let input: Box<dyn BufRead> = if source == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        match std::fs::File::open(source) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("onesched-svc: open {source}: {e}");
                return 1;
            }
        }
    };
    let stream = match connect(&addr) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let requests: Vec<String> = match input
        .lines()
        .collect::<Result<Vec<_>, _>>()
        .map(|ls| ls.into_iter().filter(|l| !l.trim().is_empty()).collect())
    {
        Ok(ls) => ls,
        Err(e) => {
            eprintln!("onesched-svc: read requests: {e}");
            return 1;
        }
    };
    let expected = requests.len();
    // Send on a separate thread while reading responses here: the daemon
    // answers stats/errors (and cached results) inline while we are still
    // writing, so a one-thread write-all-then-read-all client would
    // deadlock on large batches once both socket buffers fill.
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("onesched-svc: clone stream: {e}");
            return 1;
        }
    };
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        requests
            .iter()
            .try_for_each(|line| send_line(&mut writer, line))
    });
    // every request line yields exactly one response line
    let (received, failures) = match relay_answers(
        BufReader::new(stream),
        &mut std::io::stdout().lock(),
        expected,
    ) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("onesched-svc: {e}");
            return 1;
        }
    };
    if received < expected {
        // connection EOF before every request was answered (daemon died?)
        eprintln!("onesched-svc: connection closed after {received}/{expected} responses");
        return 1;
    }
    match sender.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("onesched-svc: send: {e}");
            return 1;
        }
        Err(_) => {
            eprintln!("onesched-svc: sender thread panicked");
            return 1;
        }
    }
    i32::from(failures > 0)
}

/// Copy up to `expected` answer lines from `answers` to `out`, and return
/// how many were copied and how many of those were error answers. The
/// first failed read or write ends the copy with an error, so a reader
/// that has gone away (`submit … | head -n 1`) stops the client instead of
/// leaving it to wait for every answer.
fn relay_answers(
    answers: impl BufRead,
    out: &mut impl Write,
    expected: usize,
) -> Result<(usize, usize), String> {
    let (mut received, mut failures) = (0, 0);
    for line in answers.lines().take(expected) {
        let line = line.map_err(|e| format!("receive: {e}"))?;
        received += 1;
        if serde_json::from_str::<OpProbe>(&line).is_ok_and(|p| p.op == "error") {
            failures += 1;
        }
        writeln!(out, "{line}").map_err(|e| format!("write: {e}"))?;
    }
    Ok((received, failures))
}

/// Connect to the daemon at `addr` with Nagle off, so each request line
/// leaves at once instead of waiting for the previous one's ACK. Prints
/// the failure and returns the exit code on error.
fn connect(addr: &str) -> Result<TcpStream, i32> {
    TcpStream::connect(addr)
        .and_then(|s| s.set_nodelay(true).map(|()| s))
        .map_err(|e| {
            eprintln!("onesched-svc: connect {addr}: {e}");
            1
        })
}

/// Send one request line, newline included, in a single write, as the
/// daemon sends its answers: no lone `\n` trails the line.
fn send_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    w.write_all(buf.as_bytes())
}

/// Send one control request to the daemon at `--tcp ADDR` and return its
/// one answer line: the connect/send/read of `stats`, `shutdown` and
/// `metrics`. Prints the failure and returns the exit code on error.
fn request_one(args: &[String], req: &Request) -> Result<String, i32> {
    let mut args = args.to_vec();
    let Some(addr) = take_flag(&mut args, "--tcp") else {
        eprintln!("onesched-svc: this command needs --tcp ADDR\n{USAGE}");
        return Err(2);
    };
    let mut stream = connect(&addr)?;
    let line = serde_json::to_string(req).expect("serialize request");
    if send_line(&mut stream, &line).is_err() {
        eprintln!("onesched-svc: send failed");
        return Err(1);
    }
    let mut resp = String::new();
    match BufReader::new(stream).read_line(&mut resp) {
        Ok(_) => Ok(resp),
        Err(e) => {
            eprintln!("onesched-svc: receive: {e}");
            Err(1)
        }
    }
}

/// Send a single control request and print the one response.
fn send_one(args: &[String], req: Request) -> i32 {
    match request_one(args, &req) {
        Ok(resp) => {
            print!("{resp}");
            0
        }
        Err(code) => code,
    }
}

/// Scrape the daemon's metrics endpoint and print the Prometheus text
/// exposition (not the NDJSON envelope it travels in).
fn metrics(args: &[String]) -> i32 {
    let resp = match request_one(args, &Request::metrics()) {
        Ok(resp) => resp,
        Err(code) => return code,
    };
    match serde_json::from_str::<MetricsResponse>(&resp) {
        Ok(m) => {
            print!("{}", m.text);
            0
        }
        Err(_) => {
            // an error response or schema drift: show the raw line
            print!("{resp}");
            1
        }
    }
}

/// Read and parse the span log that `trace <sub>` names first in `args`,
/// warning on stderr about a torn tail (`validate` reports it in its JSON
/// line instead). Prints the failure and returns the exit code on error.
fn read_trace(sub: &str, args: &[String]) -> Result<onesched::trace::TraceReplay, i32> {
    let validate = sub == "validate";
    let Some(input) = args.first() else {
        let what = if validate { "a file" } else { "an input file" };
        eprintln!("onesched-svc: trace {sub} needs {what}\n{USAGE}");
        return Err(2);
    };
    let bytes = std::fs::read(input).map_err(|e| {
        eprintln!("onesched-svc: read {input}: {e}");
        1
    })?;
    let replay = onesched::trace::parse_trace(&bytes);
    if replay.torn && !validate {
        eprintln!(
            "onesched-svc: {input}: torn tail after {} valid bytes (truncated)",
            replay.valid_bytes
        );
    }
    Ok(replay)
}

/// `trace export IN [--out OUT]` / `trace validate PATH`.
fn trace_cmd(args: &[String]) -> i32 {
    let mut args = args.to_vec();
    let sub = if args.is_empty() {
        String::new()
    } else {
        args.remove(0)
    };
    match sub.as_str() {
        "export" => {
            let out = take_flag(&mut args, "--out");
            let replay = match read_trace(&sub, &args) {
                Ok(replay) => replay,
                Err(code) => return code,
            };
            let json = onesched::trace::chrome_trace_json(&replay.events);
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, json) {
                        eprintln!("onesched-svc: write {path}: {e}");
                        return 1;
                    }
                    eprintln!(
                        "onesched-svc: exported {} events to {path}",
                        replay.events.len()
                    );
                }
                None => println!("{json}"),
            }
            0
        }
        "validate" => {
            let replay = match read_trace(&sub, &args) {
                Ok(replay) => replay,
                Err(code) => return code,
            };
            let mut invalid = 0usize;
            for ev in &replay.events {
                if let Err(msg) = ev.validate() {
                    invalid += 1;
                    eprintln!("onesched-svc: invalid event (seq {:?}): {msg}", ev.seq);
                }
            }
            println!(
                "{{\"events\":{},\"valid_bytes\":{},\"torn\":{},\"invalid\":{}}}",
                replay.events.len(),
                replay.valid_bytes,
                replay.torn,
                invalid
            );
            i32::from(invalid > 0)
        }
        "report" => {
            let max_jobs = take_parsed(&mut args, "--max-jobs").unwrap_or(10);
            let replay = match read_trace(&sub, &args) {
                Ok(replay) => replay,
                Err(code) => return code,
            };
            let report = onesched::trace::build_report(&replay);
            print!("{}", onesched::trace::render_report(&report, max_jobs));
            0
        }
        "flamegraph" => {
            let out = take_flag(&mut args, "--out");
            let folded_out = take_flag(&mut args, "--folded");
            let replay = match read_trace(&sub, &args) {
                Ok(replay) => replay,
                Err(code) => return code,
            };
            let report = onesched::trace::build_report(&replay);
            let folded = onesched::trace::fold_jobs(&report.jobs);
            if let Some(path) = folded_out {
                if let Err(e) = std::fs::write(&path, onesched::trace::folded_text(&folded)) {
                    eprintln!("onesched-svc: write {path}: {e}");
                    return 1;
                }
                eprintln!(
                    "onesched-svc: wrote {} folded stacks to {path}",
                    folded.len()
                );
            }
            let svg = onesched::trace::flamegraph_svg(&folded);
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, svg) {
                        eprintln!("onesched-svc: write {path}: {e}");
                        return 1;
                    }
                    eprintln!(
                        "onesched-svc: rendered {} folded stacks to {path}",
                        folded.len()
                    );
                }
                None => print!("{svg}"),
            }
            0
        }
        other => {
            eprintln!("onesched-svc: unknown trace subcommand {other:?}\n{USAGE}");
            2
        }
    }
}

/// `ledger inspect PATH`: parse a write-ahead ledger offline and print a
/// JSON summary (lifecycle counts, unacknowledged jobs, poison suspects).
fn ledger_cmd(args: &[String]) -> i32 {
    let sub = args.first().map(String::as_str).unwrap_or("");
    if sub != "inspect" {
        eprintln!("onesched-svc: unknown ledger subcommand {sub:?}\n{USAGE}");
        return 2;
    }
    let Some(path) = args.get(1) else {
        eprintln!("onesched-svc: ledger inspect needs a file\n{USAGE}");
        return 2;
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("onesched-svc: read {path}: {e}");
            return 1;
        }
    };
    let replay = onesched::service::ledger::parse_ledger(&bytes);
    let summary = onesched::service::ledger::summarize_ledger(&replay);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("serialize summary")
    );
    0
}

/// Print a generated workload batch as request lines.
fn gen(args: &[String]) -> i32 {
    let mut args = args.to_vec();
    let tasks = take_parsed::<usize>(&mut args, "--tasks").unwrap_or(100_000);
    let seed = take_parsed::<u64>(&mut args, "--seed").unwrap_or(0);
    let count = take_parsed::<usize>(&mut args, "--count").unwrap_or(1);
    let procs = take_parsed::<usize>(&mut args, "--procs").unwrap_or(8);
    let n = take_parsed::<usize>(&mut args, "--n").unwrap_or(20);
    let testbed = take_flag(&mut args, "--testbed").unwrap_or_else(|| "LU".into());
    // any registry kind by canonical string, e.g. "min-min" or "ilha(b=4)"
    // or "portfolio[heft,cpop]" (stress workloads only; default heft+ilha)
    let scheduler = take_flag(&mut args, "--scheduler").map(|v| {
        onesched::heuristics::registry::SchedulerSpec::parse(&v).unwrap_or_else(|e| cli::die(e))
    });
    let kind = args.first().map(String::as_str).unwrap_or("smoke");
    let reqs: Vec<Request> = match kind {
        "smoke" => workloads::smoke_requests(),
        "sim" => {
            let tb = match onesched::service::protocol::parse_testbed(&testbed) {
                Ok(tb) => tb,
                Err(e) => {
                    eprintln!("onesched-svc: {e}");
                    return 2;
                }
            };
            workloads::simulate_requests(tb, n, seed)
        }
        "stress" => (0..count)
            .flat_map(|i| {
                use onesched::service::protocol::SchedulerSpec;
                match &scheduler {
                    Some(s) => vec![workloads::stress_request(tasks, seed + i as u64, s.clone())],
                    None => vec![
                        workloads::stress_request(tasks, seed + i as u64, SchedulerSpec::heft()),
                        // b unset — resolution fills the platform's auto chunk
                        workloads::stress_request(
                            tasks,
                            seed + i as u64,
                            SchedulerSpec::named("ilha"),
                        ),
                    ],
                }
            })
            .collect(),
        "routed" => workloads::routed_requests(procs, n, 0),
        "chaos" => workloads::chaos_requests(seed),
        other => {
            eprintln!("onesched-svc: unknown workload {other:?}\n{USAGE}");
            return 2;
        }
    };
    let mut out = std::io::stdout().lock();
    for r in reqs {
        // a reader that has gone away ends the run
        if let Err(e) = writeln!(out, "{}", serde_json::to_string(&r).expect("serialize")) {
            eprintln!("onesched-svc: write: {e}");
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that keeps the bytes of each `write` call as one chunk.
    #[derive(Default)]
    struct ChunkWriter(Vec<Vec<u8>>);

    impl Write for ChunkWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_request_line_leaves_in_one_write() {
        let mut w = ChunkWriter::default();
        let lines = [
            serde_json::to_string(&Request::stats()).unwrap(),
            serde_json::to_string(&Request::metrics()).unwrap(),
            serde_json::to_string(&Request::shutdown()).unwrap(),
        ];
        for line in &lines {
            send_line(&mut w, line).unwrap();
        }
        let sent: Vec<String> =
            w.0.iter()
                .map(|c| String::from_utf8(c.clone()).unwrap())
                .collect();
        let want: Vec<String> = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(sent, want, "one write per line, newline included");
    }

    /// A writer that takes one line and then fails every write, like a
    /// pipe whose reader (`head -n 1`) has exited.
    #[derive(Default)]
    struct ClosesAfterOneLine(Vec<u8>);

    impl Write for ClosesAfterOneLine {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.0.contains(&b'\n') {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn relaying_answers_stops_at_the_first_failed_write() {
        let mut answers: &[u8] = b"{\"op\":\"result\",\"id\":\"a\"}\n\
            {\"op\":\"result\",\"id\":\"b\"}\n\
            {\"op\":\"result\",\"id\":\"c\"}\n";
        let mut out = ClosesAfterOneLine::default();
        let err = relay_answers(&mut answers, &mut out, 3).unwrap_err();
        assert!(err.starts_with("write: "), "{err}");
        assert_eq!(out.0, b"{\"op\":\"result\",\"id\":\"a\"}\n");
        // the answer whose write failed was the last one read
        assert_eq!(answers, b"{\"op\":\"result\",\"id\":\"c\"}\n");
    }

    #[test]
    fn relaying_answers_counts_lines_and_error_answers() {
        let answers: &[u8] = b"{\"op\":\"result\",\"id\":\"a\"}\n\
            {\"op\":\"error\",\"id\":\"b\",\"kind\":\"bad-request\"}\n";
        let mut out = Vec::new();
        assert_eq!(relay_answers(answers, &mut out, 5), Ok((2, 1)));
        assert_eq!(out, answers);
    }

    #[test]
    fn client_connections_send_without_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stream = connect(&addr).unwrap();
        assert!(stream.nodelay().unwrap());
        // the submit sender's clone shares the socket option
        assert!(stream.try_clone().unwrap().nodelay().unwrap());
    }
}
