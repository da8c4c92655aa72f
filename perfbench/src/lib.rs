//! The repository benchmark.
//!
//! Three seeded workloads exercise the two ways onesched serves the
//! paper's heuristics:
//!
//! * `offline-direct` — in-process HEFT/ILHA construction of large random
//!   layered DAGs and paper testbeds on the paper platform;
//! * `offline-routed` — in-process routed HEFT/ILHA on the paper platform
//!   and on ring, star and random-connected topologies;
//! * `daemon-open` — a fresh `onesched-svc` child fed a seeded open-loop
//!   Poisson mix of small jobs (phase 1), then a pipelined burst (phase 2).
//!
//! The timed pass (`perfbench`) reports end-to-end metrics with the probe,
//! the counting allocator and daemon tracing all off. The traced pass
//! (`perfbench-traced`, same code plus the counting allocator) times calls
//! into each crate's public functions and reports per-layer metrics. See
//! `README.md` next to this crate for every metric and the layer map.

pub mod daemon;
pub mod layers;
pub mod mix;
pub mod offline;
pub mod stats;

use std::path::PathBuf;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process HEFT/ILHA on the paper platform.
    OfflineDirect,
    /// In-process routed HEFT/ILHA on four platforms.
    OfflineRouted,
    /// Open-loop mix through a daemon child.
    DaemonOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-direct" => Some(Workload::OfflineDirect),
            "offline-routed" => Some(Workload::OfflineRouted),
            "daemon-open" => Some(Workload::DaemonOpen),
            _ => None,
        }
    }

    /// The workload's name as the command line spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineDirect => "offline-direct",
            Workload::OfflineRouted => "offline-routed",
            Workload::DaemonOpen => "daemon-open",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured duration of the timed pass, seconds.
    pub seconds: f64,
    /// The `onesched-svc` binary (daemon workload).
    pub svc: PathBuf,
    /// Scratch directory for ledgers and traces.
    pub work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("bad --seconds")?,
        svc: PathBuf::from(get("--svc")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run found: the operation counts, the metrics, and the
/// fingerprint digest that shows schedule drift between two commits.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check (errors, missing
    /// answers, validator violations, fingerprint mismatches).
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Placement fingerprints of every distinct schedule, in job order.
    pub fingerprints: Vec<u64>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of a process (`VmHWM`), megabytes.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Entry point shared by both binaries: run the pass, print the digest
/// line and the result object (last line of stdout), return the exit code.
pub fn main_with(traced: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: create {}: {e}", args.work.display());
        return 2;
    }
    let result = match (args.workload, traced) {
        (Workload::DaemonOpen, false) => daemon::timed(&args),
        (Workload::DaemonOpen, true) => daemon::traced(&args),
        (_, false) => offline::timed(&args),
        (_, true) => offline::traced(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return 1;
        }
    };
    for why in &outcome.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    let bad: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !bad.is_empty() {
        eprintln!("perfbench: non-finite metrics {bad:?}");
        return 1;
    }
    println!(
        "digest {} seed={} schedules={} fingerprints={:016x}",
        args.workload.name(),
        args.seed,
        outcome.fingerprints.len(),
        stats::digest(outcome.fingerprints.iter().copied())
    );
    println!("{}", outcome.json());
    i32::from(outcome.failed > 0 || outcome.attempted == 0)
}
