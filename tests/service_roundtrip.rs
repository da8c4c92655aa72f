//! End-to-end service test: spawn the real `onesched-svc` daemon, submit a
//! batch of mixed-priority jobs over its TCP socket, and require the
//! streamed results to be bit-identical to the direct runner path — pinned
//! both against the committed schedule-equivalence fixture
//! (`tests/fixtures/schedule_baseline.json`) and against schedules built
//! directly in this process. Also exercises the cache path, the stats
//! endpoint, error handling, and graceful shutdown.

use onesched::prelude::*;
use onesched::regress::{placement_fingerprint, BaselineFile};
use onesched::service::protocol::{
    AckResponse, DagSpec, ErrorResponse, JobSpec, OpProbe, PlatformSpec, ReadyResponse, Request,
    ResultResponse, SchedulerSpec, SimResultResponse, SimSpec, StatsResponse,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FIXTURE: &str = include_str!("fixtures/schedule_baseline.json");

/// Spawn the daemon on an ephemeral port and return it with the bound
/// address from its `ready` announcement.
fn spawn_daemon(workers: usize) -> (Child, String) {
    spawn_daemon_with(workers, &[])
}

fn spawn_daemon_with(workers: usize, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_onesched-svc"))
        .args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn onesched-svc");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read ready line");
    let ready: ReadyResponse = serde_json::from_str(line.trim()).expect("parse ready line");
    assert_eq!(ready.op, "ready");
    assert_eq!(ready.workers, workers);
    (child, ready.addr)
}

fn read_response(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    assert!(line.ends_with('\n'), "truncated response: {line:?}");
    line.trim().to_string()
}

fn send(stream: &mut TcpStream, req: &Request) {
    let line = serde_json::to_string(req).expect("serialize request");
    writeln!(stream, "{line}").expect("send request");
    stream.flush().expect("flush request");
}

#[test]
fn daemon_schedules_bit_identically_and_serves_cache_hits() {
    let fixture: BaselineFile = serde_json::from_str(FIXTURE).expect("parse fixture");
    let (mut child, addr) = spawn_daemon(8);

    let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // -- Phase A: a mixed-priority batch of every fixture instance at
    // n = 30 (12 jobs, ≥ 8 in flight at once on 8 workers) ------------
    let entries: Vec<_> = fixture
        .entries
        .iter()
        .filter(|e| e.n == 30 && e.comm_model() == Ok(CommModel::OnePortBidir))
        .collect();
    assert_eq!(
        entries.len(),
        12,
        "fixture covers 6 testbeds × 2 schedulers"
    );
    let spec_for = |testbed: &str, scheduler: &str| JobSpec {
        dag: DagSpec {
            kind: "testbed".into(),
            testbed: Some(testbed.to_string()),
            n: Some(30),
            c: None,
            layers: None,
            max_width: None,
            edge_prob: None,
            seed: None,
        },
        platform: None,
        scheduler: match SchedulerSpec::parse(scheduler).map(|s| s.kind) {
            Ok(kind) if kind == "heft" => None, // exercise the default
            // b unset: defaults to the testbed's paper-best B, the chunk
            // size the fixture label pins
            Ok(kind) if kind == "ilha" => Some(SchedulerSpec::named("ilha")),
            other => panic!("unexpected fixture scheduler {scheduler}: {other:?}"),
        },
        model: None,
        validate: true,
    };
    for (i, e) in entries.iter().enumerate() {
        let req = Request::submit(
            Some(format!("{}/{}", e.testbed, e.scheduler)),
            (i % 5) as i64, // mixed priorities
            spec_for(&e.testbed, &e.scheduler),
        );
        send(&mut stream, &req);
    }
    let mut results: HashMap<String, ResultResponse> = HashMap::new();
    for _ in 0..entries.len() {
        let line = read_response(&mut reader);
        let r: ResultResponse = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("malformed result line {line:?}: {e}"));
        assert_eq!(r.op, "result");
        assert!(results.insert(r.id.clone(), r).is_none(), "duplicate id");
    }
    for e in &entries {
        let id = format!("{}/{}", e.testbed, e.scheduler);
        let r = &results[&id];
        // bit-identical to the recorded seed fixture
        assert_eq!(r.makespan, e.makespan, "{id}: makespan drifted");
        assert_eq!(r.fingerprint, e.fingerprint, "{id}: placements drifted");
        assert_eq!(r.effective_comms, e.effective_comms, "{id}: comms drifted");
        assert_eq!(r.tasks, e.tasks, "{id}: graph shape drifted");
        assert!(!r.cache_hit, "{id}: first submission cannot hit the cache");
        assert_eq!(r.violations, 0, "{id}: validator rejected the schedule");
    }

    // -- Phase A': independently rebuild two schedules in-process and
    // compare against the service results (direct-runner equivalence,
    // not just fixture equivalence) -----------------------------------
    let platform = Platform::paper();
    let laplace_ilha = SchedulerSpec::ilha(Testbed::Laplace.paper_best_b()).canonical();
    for (testbed, scheduler) in [("LU", "heft"), ("LAPLACE", laplace_ilha.as_str())] {
        let tb = Testbed::ALL
            .iter()
            .copied()
            .find(|t| t.name() == testbed)
            .unwrap();
        let g = tb.generate(30, PAPER_C);
        let direct = onesched::registry::build(&SchedulerSpec::parse(scheduler).unwrap())
            .unwrap()
            .schedule(&g, &platform, CommModel::OnePortBidir);
        let r = &results[&format!("{testbed}/{scheduler}")];
        assert_eq!(
            r.fingerprint,
            format!("{:016x}", placement_fingerprint(&direct)),
            "{testbed}/{scheduler}: service and direct runner disagree"
        );
        assert_eq!(r.makespan, direct.makespan());
    }

    // -- Phase B: resubmitting an identical job hits the cache ---------
    send(
        &mut stream,
        &Request::submit(Some("repeat".into()), 9, spec_for("LU", "heft")),
    );
    let repeat: ResultResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert!(
        repeat.cache_hit,
        "identical resolved job must hit the cache"
    );
    assert_eq!(repeat.fingerprint, results["LU/heft"].fingerprint);
    assert_eq!(repeat.makespan, results["LU/heft"].makespan);

    // -- Phase B': simulate jobs run construct-then-execute ------------
    // zero perturbation: the executed trace is the schedule, bit-exactly
    send(
        &mut stream,
        &Request::simulate(
            Some("sim-exact".into()),
            9,
            spec_for("LU", "heft"),
            SimSpec::default(),
        ),
    );
    let exact: SimResultResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert_eq!(exact.op, "sim-result");
    assert_eq!(exact.degradation, 1.0, "zero noise replays bit-exactly");
    assert_eq!(exact.executed_makespan, exact.static_makespan);
    assert_eq!(
        exact.fingerprint, results["LU/heft"].fingerprint,
        "simulate constructs the same schedule submit does"
    );
    {
        // pin the daemon's executed trace against one rebuilt in-process
        let tb = Testbed::ALL
            .iter()
            .copied()
            .find(|t| t.name() == "LU")
            .unwrap();
        let g = tb.generate(30, PAPER_C);
        let sched = Heft::new().schedule(&g, &platform, CommModel::OnePortBidir);
        let expected =
            onesched_sim::trace_fingerprint(&onesched_sim::ExecutionTrace::from_schedule(&sched));
        assert_eq!(
            exact.trace_fingerprint,
            format!("{expected:016x}"),
            "daemon's executed trace differs from the in-process replay"
        );
    }
    // perturbed: same seed twice — identical trace, second from the cache
    // (submitted sequentially so the repeat cannot race the first run)
    let noisy = SimSpec::noise("list-dynamic", 0.2, 11);
    send(
        &mut stream,
        &Request::simulate(
            Some("sim-noisy".into()),
            9,
            spec_for("LU", "heft"),
            noisy.clone(),
        ),
    );
    let noisy1: SimResultResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    send(
        &mut stream,
        &Request::simulate(
            Some("sim-noisy-again".into()),
            9,
            spec_for("LU", "heft"),
            noisy,
        ),
    );
    let noisy2: SimResultResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert_eq!(noisy1.trace_fingerprint, noisy2.trace_fingerprint);
    assert_ne!(noisy1.trace_fingerprint, exact.trace_fingerprint);
    assert!(noisy1.degradation > 0.0);
    assert_eq!(noisy1.policy, "list-dynamic");
    assert_eq!(noisy1.seed, 11);
    assert!(
        !noisy1.cache_hit && noisy2.cache_hit,
        "repeat sim cache-served"
    );

    // -- Phase C: stats reflect the work -------------------------------
    send(&mut stream, &Request::stats());
    let stats: StatsResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert_eq!(stats.jobs_done, 16);
    assert_eq!(stats.sims_done, 3);
    assert_eq!(stats.cache_hits, 2, "one submit repeat + one sim repeat");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.cache_size, 12, "one cache entry per distinct job");
    assert_eq!(stats.sim_cache_size, 2, "one entry per distinct simulation");
    assert_eq!(stats.cache_evictions, 0);
    assert_eq!(stats.errors, 0);
    let latency_schedulers: Vec<&str> =
        stats.latency.iter().map(|l| l.scheduler.as_str()).collect();
    assert!(
        latency_schedulers.contains(&"HEFT"),
        "HEFT latencies tracked: {latency_schedulers:?}"
    );
    assert!(
        latency_schedulers.iter().any(|s| s.starts_with("ILHA(B=")),
        "ILHA latencies tracked: {latency_schedulers:?}"
    );
    let total: u64 = stats.latency.iter().map(|l| l.count).sum();
    assert_eq!(
        total, 14,
        "12 submits + 2 sim constructions; cache hits don't count"
    );
    for l in &stats.latency {
        assert!(l.p50_ms <= l.p90_ms && l.p90_ms <= l.p99_ms && l.p99_ms <= l.max_ms);
    }

    // -- Phase D: invalid submissions get error responses --------------
    let mut bad = spec_for("LU", "heft");
    bad.model = Some("quantum-entangled".into());
    send(
        &mut stream,
        &Request::submit(Some("bad-model".into()), 0, bad),
    );
    let err: ErrorResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert_eq!(err.op, "error");
    assert_eq!(err.id.as_deref(), Some("bad-model"));
    assert!(err.message.contains("unknown model"), "{}", err.message);

    // -- Phase E: graceful shutdown ------------------------------------
    send(&mut stream, &Request::shutdown());
    let line = read_response(&mut reader);
    let probe: OpProbe = serde_json::from_str(&line).unwrap();
    assert_eq!(probe.op, "ok", "shutdown acked: {line}");
    let _: AckResponse = serde_json::from_str(&line).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit within 30s of shutdown");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "daemon exited with {status}");
}

/// Daemon-level backpressure: with `--queue-cap 0` the queue accepts
/// nothing, so every submission is answered with a protocol `error` while
/// control requests keep working — the overflow path end to end, without
/// racing the workers.
#[test]
fn queue_cap_rejections_reach_the_client() {
    let (mut child, addr) = spawn_daemon_with(1, &["--queue-cap", "0"]);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..3 {
        send(
            &mut stream,
            &Request::submit(
                Some(format!("flood{i}")),
                0,
                JobSpec {
                    dag: DagSpec::testbed(Testbed::Lu, 10),
                    platform: None,
                    scheduler: None,
                    model: None,
                    validate: false,
                },
            ),
        );
    }
    for i in 0..3 {
        let line = read_response(&mut reader);
        let e: ErrorResponse =
            serde_json::from_str(&line).unwrap_or_else(|err| panic!("{line:?}: {err}"));
        assert_eq!(e.id.as_deref(), Some(format!("flood{i}").as_str()));
        assert!(e.message.contains("queue full"), "{}", e.message);
    }
    send(&mut stream, &Request::stats());
    let stats: StatsResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert_eq!(stats.errors, 3, "rejections are counted");
    assert_eq!(stats.jobs_done, 0);
    send(&mut stream, &Request::shutdown());
    let _ = read_response(&mut reader);
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll daemon").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Every kind the registry advertises constructs through the daemon, on
/// the paper platform and on a star topology (every kind routes around
/// missing links) — then a default-membership portfolio on the paper
/// platform races every member (each one already cached by its individual
/// submission) and its repeat is answered from the cache in a single hit.
#[test]
fn every_registry_kind_constructs_and_portfolio_repeat_is_cached() {
    let (mut child, addr) = spawn_daemon(4);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // One submission per concrete catalog kind and platform, parameters
    // pinned exactly as the default portfolio below will pin them for its
    // members, so the portfolio's member cache keys collide with the
    // paper-platform jobs.
    let job_for = |scheduler: SchedulerSpec, star: bool| JobSpec {
        dag: DagSpec::testbed(Testbed::Lu, 24),
        platform: star.then(|| PlatformSpec::routed("star", 5, 1.0)),
        scheduler: Some(scheduler),
        model: None,
        validate: true,
    };
    let kinds: Vec<_> = onesched::registry::list()
        .into_iter()
        .filter(|info| info.kind != "portfolio")
        .collect();
    assert!(kinds.len() >= 11, "full catalog advertised: {kinds:?}");
    for star in [false, true] {
        for info in &kinds {
            let mut spec = SchedulerSpec::named(info.kind);
            if info.kind == "ilha" {
                spec.b = Some(4);
            }
            if info.kind == "random" {
                spec.seed = Some(7);
            }
            let id = if star {
                format!("{}-star", info.kind)
            } else {
                info.kind.to_string()
            };
            send(
                &mut stream,
                &Request::submit(Some(id), 0, job_for(spec, star)),
            );
        }
    }
    let mut results: HashMap<String, ResultResponse> = HashMap::new();
    for _ in 0..2 * kinds.len() {
        let line = read_response(&mut reader);
        let r: ResultResponse = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("malformed result line {line:?}: {e}"));
        assert_eq!(r.op, "result", "{}", r.id);
        assert_eq!(r.violations, 0, "{}: validator rejected", r.id);
        assert!(!r.cache_hit, "{}: distinct specs cannot collide", r.id);
        assert!(results.insert(r.id.clone(), r).is_none(), "duplicate id");
    }

    // Default-membership portfolio, parameters matching the submissions
    // above (members inherit the outer b and seed where they need one).
    let portfolio_spec = SchedulerSpec {
        b: Some(4),
        seed: Some(7),
        ..SchedulerSpec::named("portfolio")
    };
    send(
        &mut stream,
        &Request::submit(
            Some("race".into()),
            0,
            job_for(portfolio_spec.clone(), false),
        ),
    );
    let race: ResultResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert!(!race.cache_hit, "first portfolio run constructs");
    assert_eq!(race.violations, 0);
    let members: Vec<&ResultResponse> = kinds.iter().map(|info| &results[info.kind]).collect();
    let best = members
        .iter()
        .map(|r| r.makespan)
        .fold(f64::INFINITY, f64::min);
    assert!(
        race.makespan <= best + onesched::sim::EPS,
        "portfolio ({}) lost to the best member ({best})",
        race.makespan
    );
    assert!(
        members
            .iter()
            .any(|r| r.fingerprint == race.fingerprint && r.makespan == race.makespan),
        "portfolio result is bit-identical to one of its members"
    );

    send(
        &mut stream,
        &Request::submit(Some("race-again".into()), 0, job_for(portfolio_spec, false)),
    );
    let again: ResultResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert!(again.cache_hit, "portfolio repeat is served from the cache");
    assert_eq!(again.fingerprint, race.fingerprint);
    assert_eq!(again.makespan, race.makespan);

    send(&mut stream, &Request::stats());
    let stats: StatsResponse = serde_json::from_str(&read_response(&mut reader)).unwrap();
    assert_eq!(stats.jobs_done, 2 * kinds.len() as u64 + 2);
    assert_eq!(
        stats.cache_hits, 1,
        "only the portfolio repeat hits: every member was already cached"
    );
    assert_eq!(
        stats.cache_size,
        2 * kinds.len() + 1,
        "one entry per kind and platform plus the portfolio's own key"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.portfolio.len(), 1, "one race, one winner");
    let win = &stats.portfolio[0];
    assert_eq!(win.wins, 1);
    assert!(
        results.contains_key(win.scheduler.split('(').next().unwrap_or("")),
        "winner {:?} is a catalog kind",
        win.scheduler
    );

    send(&mut stream, &Request::shutdown());
    let _ = read_response(&mut reader);
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll daemon").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A second daemon session covering the workload generators end to end:
/// the smoke batch (every scheduler kind — routed ILHA on a
/// random-connected topology included — a duplicate, and a zero-noise
/// routed simulate) submitted twice — the second round must be answered
/// entirely from the caches.
#[test]
fn smoke_workload_round_trips_and_second_round_is_cached() {
    let (mut child, addr) = spawn_daemon(4);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let batch: Vec<Request> = onesched::service::workloads::smoke_requests();
    let jobs = batch
        .iter()
        .filter(|r| r.op == "submit" || r.op == "simulate")
        .count();
    for round in 0..2 {
        for req in &batch {
            send(&mut stream, req);
        }
        let mut cached = 0;
        for _ in 0..batch.len() {
            let line = read_response(&mut reader);
            let probe: OpProbe = serde_json::from_str(&line).unwrap();
            match probe.op.as_str() {
                "result" => {
                    let r: ResultResponse = serde_json::from_str(&line).unwrap();
                    assert_eq!(r.violations, 0, "round {round}: {}", r.id);
                    cached += usize::from(r.cache_hit);
                }
                "sim-result" => {
                    let r: SimResultResponse = serde_json::from_str(&line).unwrap();
                    assert_eq!(r.violations, 0, "round {round}: {}", r.id);
                    // the smoke simulate is a zero-noise static-order
                    // replay of a routed multi-hop schedule: bit-exact
                    assert_eq!(r.degradation, 1.0, "round {round}: {}", r.id);
                    assert_eq!(r.executed_makespan, r.static_makespan);
                    cached += usize::from(r.cache_hit);
                }
                "stats" => {}
                other => panic!("round {round}: unexpected op {other} in {line}"),
            }
        }
        if round == 1 {
            assert_eq!(
                cached, jobs,
                "every second-round submission must be served from a cache"
            );
        }
    }
    send(&mut stream, &Request::shutdown());
    let _ = read_response(&mut reader);
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll daemon").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
