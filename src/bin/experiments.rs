//! Experiment harness: regenerates every figure and worked example of the
//! paper, plus the §4.4 design-choice ablations (EXPERIMENTS.md indexes the
//! commands and records the results).
//!
//! ```text
//! experiments [--sizes 100,200,300,400,500] [--out results]
//!             [--threads N] <command>
//!
//! commands:
//!   fig1           the §2.3 fork example (macro-dataflow vs one-port)
//!   toy            the §4.4 toy example (HEFT vs ILHA, Gantt charts)
//!   fig7..fig12    one testbed's size sweep (speedup curves)
//!   figs           all six testbed sweeps (parallel over testbed×size×scheduler)
//!   bsweep         ILHA chunk-size sensitivity per testbed
//!   models         HEFT/ILHA under all four communication models
//!   ablations      the §4.4 design choices (insertion, message order,
//!                  ILHA scan depth, communication rescheduling), one
//!                  fixed instance each, every schedule validated
//!   baselines      every scheduler on every testbed at one size, every
//!                  schedule validated
//!   routed [--procs P]
//!                  HEFT + ILHA on star/ring/line topologies (§4.3
//!                  routing extension), plus a full-catalog portfolio per
//!                  topology, every schedule validated
//!   routed-figs [--procs P] [--seed S]
//!                  the routed sweeps: HEFT and ILHA over
//!                  star/ring/line/random-connected topologies × every
//!                  testbed × --sizes (capped at 24), fanned out over the
//!                  worker pool, every schedule validated, per-schedule
//!                  fingerprints in the CSV (seed-deterministic; CI diffs
//!                  two same-seed runs byte-identically)
//!   stress [--tasks N] [--seed S]
//!                  random-layered stress point beyond the paper sizes
//!                  (default ~100k tasks; intake's admission limit holds),
//!                  HEFT + ILHA construction times
//!   perturb [--seed S]
//!                  discrete-event noise sweep: replay HEFT/ILHA schedules
//!                  on every testbed under increasing runtime perturbation
//!                  and record predicted-vs-executed makespan degradation
//!                  (seed-deterministic; CI diffs two same-seed runs)
//!   league [--seed S]
//!                  the robustness league: every registry scheduler valid
//!                  on the paper platform × every testbed × every
//!                  communication model, executed through `onesched-exec`
//!                  under the same perturbation seeds; records mean/p95
//!                  degradation per cell plus an aggregate ranking
//!                  (seed-deterministic; CI diffs two same-seed runs)
//!   record-baseline [--fixture PATH]
//!                  refresh tests/fixtures/schedule_baseline.json (or write
//!                  to PATH — CI's fixture-drift gate records into a temp
//!                  file and diffs against the committed fixture)
//!   all            everything above
//! ```
//!
//! Every run of a catalog scheduler — the figure sweeps, `models`,
//! `baselines`, `routed`, `routed-figs`, `stress`, `probe` and
//! `record-baseline` — is a service `JobSpec`, resolved by the daemon's
//! intake and built by its construction step (`service::cache`), so the
//! harness and the daemon exercise the same code path. The sweeps and
//! `league` fan out over the workspace's one ordered fan-out,
//! `heuristics::par_map` (`--threads`, default: all cores); output never
//! depends on the thread count. An unknown command, an argument left after
//! the command (other than `probe`'s two), a failed write, or a job intake
//! refuses exits 2 with a message. Construction timing is the
//! benchmark's job (`perfbench/`); the sweeps print theirs for the log only.
//!
//! Run in release mode: `cargo run --release --bin experiments -- all`.

mod cli;

use cli::{die, parse_or_die, take_flag, take_parsed};
use onesched::heuristics::{default_threads, par_map};
use onesched::prelude::*;
use onesched::service::cache::{self, JobOutcome};
use onesched::service::protocol::{DagSpec, JobSpec, PlatformSpec, ResolvedJob, SchedulerSpec};
use onesched::trace::Scope;
use onesched_heuristics::bsweep;
use onesched_sim::stats::ScheduleStats;
use onesched_sim::{gantt, validate};
use std::fmt::Write as _;

#[derive(Clone)]
struct Opts {
    sizes: Vec<usize>,
    out: String,
    threads: usize,
    tasks: usize,
    seed: u64,
    procs: usize,
    fixture: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            sizes: vec![100, 200, 300, 400, 500],
            out: "results".into(),
            threads: default_threads(),
            tasks: 100_000,
            seed: 0,
            procs: 8,
            fixture: None,
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = Opts::default();
    let opts = Opts {
        sizes: take_flag(&mut args, "--sizes").map_or(defaults.sizes, |v| {
            v.split(',').map(|n| parse_or_die("--sizes", n)).collect()
        }),
        out: take_flag(&mut args, "--out").unwrap_or(defaults.out),
        threads: take_parsed(&mut args, "--threads").unwrap_or(defaults.threads),
        tasks: take_parsed(&mut args, "--tasks").unwrap_or(defaults.tasks),
        seed: take_parsed(&mut args, "--seed").unwrap_or(defaults.seed),
        procs: take_parsed(&mut args, "--procs").unwrap_or(defaults.procs),
        fixture: take_flag(&mut args, "--fixture"),
    };
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("all", &[][..]),
    };
    // the one command that writes no files, and the one that takes
    // positional arguments
    if cmd == "probe" {
        return probe(rest);
    }
    let run: fn(&Opts) = match cmd {
        "fig1" => fig1,
        "toy" => toy_example,
        "fig7" => |o| figure_sweeps(o, &[Testbed::ForkJoin]),
        "fig8" => |o| figure_sweeps(o, &[Testbed::Lu]),
        "fig9" => |o| figure_sweeps(o, &[Testbed::Laplace]),
        "fig10" => |o| figure_sweeps(o, &[Testbed::Ldmt]),
        "fig11" => |o| figure_sweeps(o, &[Testbed::Doolittle]),
        "fig12" => |o| figure_sweeps(o, &[Testbed::Stencil]),
        "figs" => |o| figure_sweeps(o, &Testbed::ALL),
        "bsweep" => b_sensitivity,
        "models" => model_ablation,
        "ablations" => ablations,
        "baselines" => baseline_comparison,
        "routed" => routed_sweep,
        "routed-figs" => routed_figs,
        "stress" => stress_sweep,
        "perturb" => perturb_sweep,
        "league" => league,
        "record-baseline" => record_baseline,
        "all" => |o| {
            fig1(o);
            toy_example(o);
            figure_sweeps(o, &Testbed::ALL);
            b_sensitivity(o);
            model_ablation(o);
            ablations(o);
            baseline_comparison(o);
            routed_sweep(o);
            routed_figs(o);
            perturb_sweep(o);
            league(o);
        },
        other => die(format_args!("unknown command: {other}")),
    };
    if let Some(extra) = rest.first() {
        die(format_args!("unexpected argument after {cmd}: {extra}"));
    }
    // only a known command creates the output directory
    create_dir(&opts.out);
    run(&opts);
}

/// `record-baseline`: regenerate the schedule-equivalence fixture (direct
/// paper-platform entries plus the routed star/ring/line entries, under
/// every communication model). Only run
/// this after an *intentional* schedule change (see src/regress.rs) —
/// `--fixture PATH` writes elsewhere, which is how CI's fixture-drift gate
/// records a fresh baseline and diffs it against the committed one.
fn record_baseline(opts: &Opts) {
    let sizes = if opts.sizes == Opts::default().sizes {
        vec![30, 60]
    } else {
        opts.sizes.clone()
    };
    let file = onesched::regress::record_baseline(&sizes).unwrap_or_else(|e| die(e));
    let path = opts
        .fixture
        .as_deref()
        .unwrap_or("tests/fixtures/schedule_baseline.json");
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            create_dir(dir);
        }
    }
    let json = serde_json::to_string(&file).expect("serialize baseline");
    write_file(path, &pretty_json(&json));
    println!("recorded {} schedules -> {path}", file.entries.len());
}

/// Diagnostic: `probe <testbed> <n>` prints detailed stats for HEFT/ILHA.
fn probe(args: &[String]) {
    let [tb, n] = args else {
        die("usage: experiments probe <testbed> <n>");
    };
    let tb = onesched::service::protocol::parse_testbed(tb).unwrap_or_else(|e| die(e));
    let n: usize = parse_or_die("size", n);
    let jobs = resolve_all(paper_jobs(&[tb], &[n]));
    let (g, p) = (jobs[0].build_graph(), jobs[0].build_platform());
    println!(
        "{tb} n={n}: {} tasks, {} edges, work {}, data {}",
        g.num_tasks(),
        g.num_edges(),
        g.total_work(),
        g.total_data()
    );
    for job in &jobs {
        let (outcome, sched) = cache::construct(job, &g, &p, None, &Scope::off());
        let st = ScheduleStats::of(&g, &p, &sched);
        let busy = sched.proc_busy_times(&p);
        println!(
            "{:<12} speedup {:.3} makespan {:.0} comms {} commtime {:.0} util {:.3} imb {:.3}",
            outcome.scheduler,
            st.speedup,
            st.makespan,
            st.effective_comms,
            st.total_comm_time,
            st.mean_utilization,
            st.imbalance
        );
        println!(
            "  busy: {:?}",
            busy.iter().map(|b| *b as i64).collect::<Vec<_>>()
        );
    }
}

fn write_csv(opts: &Opts, name: &str, content: &str) {
    let path = format!("{}/{}", opts.out, name);
    write_file(&path, content);
    println!("  -> {path}");
}

/// Create `dir` and its parents, or exit 2 naming it.
fn create_dir(dir: impl AsRef<std::path::Path>) {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(format_args!("create {}: {e}", dir.display())));
}

/// Write `content` to `path`, or exit 2 naming it.
fn write_file(path: &str, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| die(format_args!("write {path}: {e}")));
}

/// A validated job: testbed `tb` at size `n` under `scheduler` and `model`,
/// on `platform` (default: the paper's).
fn validated_job(
    tb: Testbed,
    n: usize,
    platform: Option<PlatformSpec>,
    scheduler: SchedulerSpec,
    model: CommModel,
) -> JobSpec {
    JobSpec {
        dag: DagSpec::testbed(tb, n),
        platform,
        scheduler: Some(scheduler),
        model: Some(model.name().to_string()),
        validate: true,
    }
}

/// Resolve every spec through the daemon's intake, or exit 2 with intake's
/// message before any job runs.
fn resolve_all(specs: impl IntoIterator<Item = JobSpec>) -> Vec<ResolvedJob> {
    specs
        .into_iter()
        .map(|spec| spec.resolve().unwrap_or_else(|e| die(e)))
        .collect()
}

/// Resolve every spec ([`resolve_all`]), then build the jobs through the
/// daemon's construction step over `par_map`; outcomes come back in job
/// order, next to their jobs.
fn run_specs(
    specs: impl IntoIterator<Item = JobSpec>,
    threads: usize,
) -> Vec<(ResolvedJob, JobOutcome)> {
    let jobs = resolve_all(specs);
    let outcomes = par_map(&jobs, threads, |job| {
        cache::run_job(job, None, &Scope::off())
    });
    jobs.into_iter().zip(outcomes).collect()
}

/// The standard figure-sweep job list: for each testbed and size, one HEFT
/// job and one ILHA job (with the testbed's paper-best chunk size), on the
/// paper platform under the one-port-bidir model.
fn paper_jobs(testbeds: &[Testbed], sizes: &[usize]) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(testbeds.len() * sizes.len() * 2);
    for &tb in testbeds {
        for &n in sizes {
            for sched in [
                SchedulerSpec::heft(),
                SchedulerSpec::ilha(tb.paper_best_b()),
            ] {
                jobs.push(JobSpec {
                    dag: DagSpec::testbed(tb, n),
                    platform: None,
                    scheduler: Some(sched),
                    model: None,
                    validate: false,
                });
            }
        }
    }
    jobs
}

/// The platform kind, testbed and size a testbed job names, for CSV rows.
fn job_cell(job: &ResolvedJob) -> (&str, &str, usize) {
    let (dag, platform) = (&job.spec.dag, job.spec.platform.as_ref());
    let testbed = dag.testbed.as_deref().unwrap_or_default();
    (
        platform.map_or("paper", |p| &p.kind),
        testbed,
        dag.n.unwrap_or_default(),
    )
}

/// §2.3 / Figure 1: fork with six unit children on five unit processors.
fn fig1(opts: &Opts) {
    println!("== fig1: the fork example of §2.3 ==");
    let g = onesched_testbeds::fork(1.0, &[(1.0, 1.0); 6]);
    let p = Platform::homogeneous(5);

    let exact = onesched::exact::fork::ForkInstance::from_graph(&g).optimal_makespan();
    let heft_macro = Heft::new().schedule(&g, &p, CommModel::MacroDataflow);
    let heft_oneport = Heft::new().schedule(&g, &p, CommModel::OnePortBidir);
    let bnb_oneport =
        onesched::exact::bnb::branch_and_bound(&g, &p, CommModel::OnePortBidir, 10_000_000);

    let mut csv = String::from("schedule,model,makespan\n");
    let _ = writeln!(csv, "macro-optimal(paper),macro-dataflow,3");
    let _ = writeln!(csv, "HEFT,macro-dataflow,{}", heft_macro.makespan());
    let _ = writeln!(csv, "one-port-optimal(paper),one-port-bidir,5");
    let _ = writeln!(csv, "exact-fork,one-port-bidir,{exact}");
    let _ = writeln!(csv, "exact-bnb,one-port-bidir,{}", bnb_oneport.makespan);
    let _ = writeln!(csv, "HEFT,one-port-bidir,{}", heft_oneport.makespan());
    print!("{csv}");
    write_csv(opts, "fig1_fork_example.csv", &csv);
}

/// §4.4 / Figures 3–4: the toy example contrasting HEFT and ILHA.
fn toy_example(opts: &Opts) {
    println!("== toy: the §4.4 example (Figures 3-4) ==");
    let g = onesched_testbeds::toy();
    let p = Platform::homogeneous(2);
    let m = CommModel::OnePortBidir;

    let mut csv = String::from("scheduler,makespan,effective_comms\n");
    for s in [
        &Heft::new() as &dyn Scheduler,
        &Ilha::new(8) as &dyn Scheduler,
    ] {
        let sched = s.schedule(&g, &p, m);
        assert!(validate(&g, &p, m, &sched).is_empty());
        let _ = writeln!(
            csv,
            "{},{},{}",
            s.name(),
            sched.makespan(),
            sched.num_effective_comms()
        );
        println!("--- {} ---", s.name());
        print!(
            "{}",
            gantt::render(
                &p,
                &sched,
                &gantt::GanttOptions {
                    width: 60,
                    show_ports: true
                }
            )
        );
    }
    print!("{csv}");
    write_csv(opts, "toy_heft_vs_ilha.csv", &csv);
}

/// The testbed size sweeps (Figures 7–12): speedup of HEFT and ILHA under
/// the one-port model, with the paper's per-testbed best B. All
/// (testbed, size, scheduler) jobs fan out over the worker pool at once;
/// results come back in job order (testbed × size × HEFT, ILHA), so CSVs
/// are identical to the serial harness's.
fn figure_sweeps(opts: &Opts, testbeds: &[Testbed]) {
    let t0 = std::time::Instant::now();
    let results = run_specs(paper_jobs(testbeds, &opts.sizes), opts.threads);
    let wall = t0.elapsed();

    let mut pairs = results.chunks_exact(2);
    for &tb in testbeds {
        println!(
            "== fig{}: {} sweep (B = {}, c = {}, one-port-bidir) ==",
            tb.figure(),
            tb,
            tb.paper_best_b(),
            PAPER_C
        );
        let mut csv = String::from(
            "size,tasks,heft_makespan,heft_speedup,ilha_makespan,ilha_speedup,ilha_comms,heft_comms\n",
        );
        println!(
            "{:>6} {:>9} {:>14} {:>14} {:>9}",
            "size", "tasks", "HEFT speedup", "ILHA speedup", "gain"
        );
        for (&n, pair) in opts.sizes.iter().zip(pairs.by_ref()) {
            let (heft, ilha) = (&pair[0].1, &pair[1].1);
            let (hs, is) = (heft.speedup, ilha.speedup);
            let _ = writeln!(
                csv,
                "{n},{},{},{hs},{},{is},{},{}",
                heft.tasks,
                heft.makespan,
                ilha.makespan,
                ilha.effective_comms,
                heft.effective_comms
            );
            println!(
                "{n:>6} {:>9} {hs:>14.3} {is:>14.3} {:>8.1}%  (HEFT {:.1?}, ILHA {:.1?})",
                heft.tasks,
                (is / hs - 1.0) * 100.0,
                heft.construct,
                ilha.construct
            );
        }
        write_csv(
            opts,
            &format!(
                "fig{:02}_{}.csv",
                tb.figure(),
                tb.name().to_lowercase().replace('-', "_")
            ),
            &csv,
        );
    }
    let total_construct: std::time::Duration = results.iter().map(|(_, o)| o.construct).sum();
    println!(
        "[sweep] {} jobs on {} threads: {:.1?} wall, {:.1?} total construction",
        results.len(),
        opts.threads,
        wall,
        total_construct
    );
}

/// Line-break a one-line JSON document at the entry level so the committed
/// fixture diffs readably. (The serde_json shim has no pretty-printer; this
/// keeps one object per line.)
fn pretty_json(json: &str) -> String {
    let mut out = String::with_capacity(json.len() + 64);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for ch in json.chars() {
        if in_str {
            out.push(ch);
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                out.push(ch);
            }
            '{' | '[' => {
                depth += 1;
                out.push(ch);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push(ch);
            }
            ',' if depth <= 2 => {
                out.push(ch);
                out.push('\n');
            }
            _ => out.push(ch),
        }
    }
    out.push('\n');
    out
}

/// ILHA chunk-size sensitivity (the §5.3 discussion of B).
fn b_sensitivity(opts: &Opts) {
    println!("== bsweep: ILHA chunk-size sensitivity ==");
    let p = Platform::paper();
    let m = CommModel::OnePortBidir;
    let n = *opts.sizes.iter().min().unwrap_or(&100);
    let bs = bsweep::candidate_bs(&p);
    let mut csv = String::from("testbed,b,makespan,speedup\n");
    for tb in Testbed::ALL {
        let g = tb.generate(n, PAPER_C);
        let seq = g.total_work() * p.min_cycle_time();
        let sweep = bsweep::sweep_b(&g, &p, m, &bs);
        let (best_b, best_mk) = sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("non-empty sweep");
        for (b, mk) in &sweep {
            let _ = writeln!(csv, "{tb},{b},{mk},{}", seq / mk);
        }
        println!(
            "{tb:>10} (n = {n}): best B = {best_b} (speedup {:.3}); paper's best B = {}",
            seq / best_mk,
            tb.paper_best_b()
        );
    }
    write_csv(opts, "bsweep.csv", &csv);
}

/// HEFT and ILHA under all four communication models, every schedule
/// validated; jobs fan out over `par_map`, rows come back in job order.
fn model_ablation(opts: &Opts) {
    println!("== models: communication-model ablation ==");
    let n = *opts.sizes.iter().min().unwrap_or(&100);
    let mut specs = Vec::new();
    for tb in Testbed::ALL {
        for m in CommModel::ALL {
            for sched in [
                SchedulerSpec::heft(),
                SchedulerSpec::ilha(tb.paper_best_b()),
            ] {
                specs.push(validated_job(tb, n, None, sched, m));
            }
        }
    }
    let mut csv = String::from("testbed,model,scheduler,makespan,speedup\n");
    let results = run_specs(specs, opts.threads);
    let mut rows = results.iter();
    for tb in Testbed::ALL {
        for (job, o) in rows.by_ref().take(CommModel::ALL.len() * 2) {
            let m = job.model();
            assert_eq!(o.violations, 0, "{tb}/{m}/{}", o.scheduler);
            let _ = writeln!(csv, "{tb},{m},{},{},{}", o.scheduler, o.makespan, o.speedup);
        }
        println!("{tb:>10} done");
    }
    write_csv(opts, "model_ablation.csv", &csv);
}

/// The §4.4 design choices, each varied alone on one fixed instance on the
/// paper platform under one-port-bidir: HEFT's insertion vs append
/// placement and its four incoming-message orders, ILHA's zero- vs
/// one-message step-1 scan, and ILHA with and without the third-step
/// communication rescheduling (`resched::WithResched`). ILHA takes the
/// testbed's paper-best B. Every schedule is validated.
fn ablations(opts: &Opts) {
    use onesched_heuristics::resched::WithResched;
    use onesched_heuristics::CommOrder::{ByDataAsc, ByDataDesc, ByParentFinish, ByParentId};
    use onesched_heuristics::ScanDepth::{UpToOneComm, ZeroComm};

    println!("== ablations: the §4.4 design choices (paper platform, one-port-bidir) ==");
    let p = Platform::paper();
    let m = CommModel::OnePortBidir;
    let paper = PlacementPolicy::paper();
    let heft = |policy| -> Box<dyn Scheduler> { Box::new(Heft::with_policy(policy)) };
    let insertion = |insertion| heft(PlacementPolicy { insertion, ..paper });
    let order = |comm_order| {
        heft(PlacementPolicy {
            comm_order,
            ..paper
        })
    };
    let scan = |scan| -> Box<dyn Scheduler> {
        Box::new(Ilha {
            scan,
            ..Ilha::new(Testbed::Laplace.paper_best_b())
        })
    };
    let plain = Ilha::new(Testbed::Doolittle.paper_best_b());
    let (lu, ldmt) = ((Testbed::Lu, 40), (Testbed::Ldmt, 30));
    let (laplace, doolittle) = ((Testbed::Laplace, 40), (Testbed::Doolittle, 30));
    /// Ablation, variant, instance, scheduler.
    type Row = (
        &'static str,
        &'static str,
        (Testbed, usize),
        Box<dyn Scheduler>,
    );
    let rows: [Row; 10] = [
        ("insertion", "insertion", lu, insertion(true)),
        ("insertion", "append", lu, insertion(false)),
        ("comm-order", "parent-finish", ldmt, order(ByParentFinish)),
        ("comm-order", "data-desc", ldmt, order(ByDataDesc)),
        ("comm-order", "data-asc", ldmt, order(ByDataAsc)),
        ("comm-order", "parent-id", ldmt, order(ByParentId)),
        ("scan-depth", "zero-comm", laplace, scan(ZeroComm)),
        ("scan-depth", "one-comm", laplace, scan(UpToOneComm)),
        ("resched", "plain", doolittle, Box::new(plain.clone())),
        (
            "resched",
            "resched",
            doolittle,
            Box::new(WithResched::new(plain)),
        ),
    ];
    let mut csv =
        String::from("ablation,variant,testbed,n,scheduler,makespan,speedup,violations\n");
    for (ablation, variant, (tb, n), s) in &rows {
        let g = tb.generate(*n, PAPER_C);
        let sched = s.schedule(&g, &p, m);
        let v = validate(&g, &p, m, &sched);
        assert!(
            v.is_empty(),
            "{ablation}/{variant}: invalid schedule: {v:?}"
        );
        let (makespan, speedup) = (sched.makespan(), sched.speedup(&g, &p));
        let _ = writeln!(
            csv,
            "{ablation},{variant},{tb},{n},{},{makespan},{speedup},{}",
            s.name(),
            v.len()
        );
        println!(
            "{ablation:>10} {variant:<13} {:>9} n={n:<3} {:<20} makespan {makespan:>8.0}  speedup {speedup:.3}",
            tb.name(),
            s.name()
        );
    }
    write_csv(opts, "ablations.csv", &csv);
}

/// Routed scheduling (the §4.3 store-and-forward extension) on every
/// non-fully-connected topology the service knows, driven by the
/// service's own workload generator. Jobs fan out over `par_map`; every
/// schedule is validated.
fn routed_sweep(opts: &Opts) {
    use onesched::service::workloads;
    let n = (*opts.sizes.iter().min().unwrap_or(&100)).min(24);
    println!(
        "== routed: HEFT/ILHA and the full portfolio on star/ring/line ({} heterogeneous procs, n = {n}) ==",
        opts.procs
    );
    let specs = workloads::routed_requests(opts.procs, n, 0)
        .into_iter()
        .filter_map(|req| req.job);
    let mut csv =
        String::from("topology,testbed,n,scheduler,tasks,makespan,speedup,comms,violations\n");
    for (job, r) in run_specs(specs, opts.threads) {
        let (topology, testbed, _) = job_cell(&job);
        assert_eq!(r.violations, 0, "{topology}/{testbed}: invalid schedule");
        let _ = writeln!(
            csv,
            "{topology},{testbed},{n},{},{},{},{},{},{}",
            r.scheduler, r.tasks, r.makespan, r.speedup, r.effective_comms, r.violations
        );
        println!(
            "{topology:>6} {testbed:>10} {:<16} tasks {:>5}  speedup {:>7.3}  comms {:>5}  ({:.1?})",
            r.scheduler, r.tasks, r.speedup, r.effective_comms, r.construct
        );
    }
    write_csv(opts, "routed.csv", &csv);
}

/// The routed figure sweeps: HEFT and ILHA over every
/// non-fully-connected topology (star, ring, line, and a seeded
/// random-connected graph) × every testbed × `--sizes` (capped at 24 —
/// routed placement pays per-hop evaluation, and the §4.3 story needs
/// relays, not scale). ILHA is the `routed-ilha` alias, whose chunk size
/// is the platform's perfect-balance chunk. Jobs fan out over `par_map`
/// exactly like `figs`; results are emitted in job order, so two same-seed
/// runs produce byte-identical CSVs at any `--threads` — the CI routed
/// determinism gate. Every schedule passes the independent validator, and
/// the CSV records each schedule's placement fingerprint.
fn routed_figs(opts: &Opts) {
    let mut sizes: Vec<usize> = opts.sizes.iter().map(|&n| n.min(24)).collect();
    sizes.sort_unstable();
    sizes.dedup();
    println!(
        "== routed-figs: routed HEFT/ILHA sweeps ({} heterogeneous procs, sizes {:?}, seed {}) ==",
        opts.procs, sizes, opts.seed
    );
    // job list in deterministic order: topology × testbed × size × scheduler
    let (m, procs) = (CommModel::OnePortBidir, opts.procs);
    let platforms = ["star", "ring", "line"].map(|kind| PlatformSpec::routed(kind, procs, 1.0));
    let random = PlatformSpec::random_connected(procs, 1.0, 0.3, opts.seed);
    let mut specs = Vec::new();
    for platform in platforms.iter().chain([&random]) {
        for tb in Testbed::ALL {
            for &n in &sizes {
                for sched in [SchedulerSpec::heft(), SchedulerSpec::routed_ilha()] {
                    specs.push(validated_job(tb, n, Some(platform.clone()), sched, m));
                }
            }
        }
    }
    let mut csv = String::from("topology,testbed,n,scheduler,tasks,makespan,speedup,fingerprint\n");
    for (job, r) in run_specs(specs, opts.threads) {
        let (topology, tb, n) = job_cell(&job);
        assert_eq!(
            r.violations, 0,
            "{topology}/{tb} n={n} {}: invalid schedule",
            r.scheduler
        );
        let _ = writeln!(
            csv,
            "{topology},{tb},{n},{},{},{},{},{:016x}",
            r.scheduler, r.tasks, r.makespan, r.speedup, r.fingerprint
        );
        println!(
            "{topology:>16} {tb:>10} n={n:<3} {:<16} speedup {:>7.3}  comms {:>5}  ({:.1?})",
            r.scheduler, r.speedup, r.effective_comms, r.construct
        );
    }
    write_csv(opts, "routed_figs.csv", &csv);
}

/// One random-layered stress point beyond the paper sizes (default target
/// ~100k tasks): schedule-construction time for HEFT and ILHA on the paper
/// platform, as `onesched-svc gen stress` jobs — so above about 1M target
/// tasks intake's admission limit refuses the run. The datapoints recorded
/// in EXPERIMENTS.md come from here.
fn stress_sweep(opts: &Opts) {
    use onesched::service::workloads;
    println!(
        "== stress: random layered DAG, target {} tasks (seed {}) ==",
        opts.tasks, opts.seed
    );
    let jobs = resolve_all(
        [SchedulerSpec::heft(), SchedulerSpec::named("ilha")]
            .into_iter()
            .filter_map(|sched| workloads::stress_request(opts.tasks, opts.seed, sched).job),
    );
    // both jobs name the same DAG and platform: build them once
    let (g, p) = (jobs[0].build_graph(), jobs[0].build_platform());
    let d = &jobs[0].spec.dag;
    println!(
        "generated {} tasks, {} edges ({} layers, max width {}, edge prob {:.4})",
        g.num_tasks(),
        g.num_edges(),
        d.layers.unwrap_or_default(),
        d.max_width.unwrap_or_default(),
        d.edge_prob.unwrap_or_default()
    );
    let mut csv = String::from("scheduler,tasks,edges,construct_ms,makespan,speedup,comms\n");
    for job in &jobs {
        let (r, sched) = cache::construct(job, &g, &p, None, &Scope::off());
        assert!(sched.is_complete());
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{}",
            r.scheduler,
            r.tasks,
            g.num_edges(),
            r.construct.as_secs_f64() * 1e3,
            r.makespan,
            r.speedup,
            r.effective_comms
        );
        println!(
            "{:<12} construct {:>8.1?}  makespan {:>12.0}  speedup {:>7.3}  comms {}",
            r.scheduler, r.construct, r.makespan, r.speedup, r.effective_comms
        );
    }
    write_csv(opts, &format!("stress_{}.csv", g.num_tasks()), &csv);
}

/// The perturbation sweep: execute HEFT and ILHA schedules on every
/// testbed through the `onesched-exec` discrete-event engine under
/// increasing runtime noise (σ task-duration noise with matching bandwidth
/// degradation, plus one level with link outages), under both dispatch
/// policies, and record how far the executed makespan degrades from the
/// static prediction. Everything is derived from `--seed`, so two runs
/// with the same seed emit byte-identical CSVs — the CI determinism gate.
fn perturb_sweep(opts: &Opts) {
    use onesched::exec::{execute, DispatchPolicy, ExecConfig, Perturbation};
    use onesched_sim::{trace_fingerprint, ExecutionTrace};

    let n = (*opts.sizes.iter().min().unwrap_or(&100)).min(40);
    let sigmas = [0.0, 0.05, 0.1, 0.2, 0.4];
    println!(
        "== perturb: runtime noise sweep (n = {n}, seed {}, one-port-bidir) ==",
        opts.seed
    );
    let p = Platform::paper();
    let m = CommModel::OnePortBidir;
    let mut csv = String::from(
        "testbed,n,scheduler,policy,sigma,outages,seed,static_makespan,executed_makespan,degradation,trace_fingerprint\n",
    );
    for tb in Testbed::ALL {
        let g = tb.generate(n, PAPER_C);
        // degradation at σ = 0.2, static order — captured during the sweep
        // for the per-testbed console summary
        let mut headline = [0.0f64; 2];
        for (si, s) in [
            &Heft::new() as &dyn Scheduler,
            &Ilha::new(tb.paper_best_b()) as &dyn Scheduler,
        ]
        .into_iter()
        .enumerate()
        {
            let sched = s.schedule(&g, &p, m);
            let static_fp = trace_fingerprint(&ExecutionTrace::from_schedule(&sched));
            for policy in [DispatchPolicy::StaticOrder, DispatchPolicy::ListDynamic] {
                for (with_outages, sigma) in sigmas
                    .iter()
                    .map(|&s| (false, s))
                    .chain(std::iter::once((true, 0.2)))
                {
                    let mut perturb = Perturbation::noise(sigma);
                    if with_outages {
                        perturb.outage_prob = 0.2;
                        perturb.outage_frac = 0.05;
                    }
                    let cfg = ExecConfig {
                        policy,
                        perturb,
                        seed: opts.seed,
                    };
                    let rep = execute(&g, &p, m, &sched, &cfg)
                        .expect("constructed schedules are executable");
                    if sigma == 0.0 && !with_outages && policy == DispatchPolicy::StaticOrder {
                        // the bit-exactness self-check the engine promises
                        assert_eq!(rep.trace_fingerprint, static_fp, "{tb}/{}", s.name());
                        assert_eq!(rep.executed_makespan, sched.makespan());
                    }
                    if sigma == 0.2 && !with_outages && policy == DispatchPolicy::StaticOrder {
                        headline[si] = rep.degradation();
                    }
                    let _ = writeln!(
                        csv,
                        "{tb},{n},{},{},{sigma},{},{},{},{},{:.6},{:016x}",
                        s.name(),
                        policy.name(),
                        with_outages,
                        opts.seed,
                        rep.static_makespan,
                        rep.executed_makespan,
                        rep.degradation(),
                        rep.trace_fingerprint
                    );
                }
            }
        }
        println!(
            "{tb:>10}  degradation at sigma 0.2: HEFT {:.3}, ILHA {:.3}",
            headline[0], headline[1]
        );
    }
    write_csv(opts, "perturb.csv", &csv);
}

/// The robustness league: every registry scheduler on the paper platform,
/// on every testbed × every
/// communication model, each schedule executed through the `onesched-exec`
/// engine under the same perturbation seeds, ranked by how little the
/// executed makespan degrades from the static prediction. Schedulers are
/// labeled by canonical registry spec string (the same syntax the daemon's
/// cache keys use). Cells fan out over `par_map` exactly like `figs`; rows
/// are emitted in job order, so two same-seed runs produce byte-identical
/// CSVs at any `--threads` — the CI league determinism gate.
fn league(opts: &Opts) {
    use onesched::exec::{execute, DispatchPolicy, ExecConfig, Perturbation};
    use onesched::registry::{catalog, concrete_specs};
    use std::collections::BTreeMap;

    /// Perturbation seeds per league cell (mean/p95 population).
    const SEEDS: u64 = 8;
    /// Task-duration noise (with matching bandwidth degradation) applied
    /// to every run — the σ = 0.2 headline level of `perturb`.
    const SIGMA: f64 = 0.2;

    let n = (*opts.sizes.iter().min().unwrap_or(&100)).min(20);
    let p = Platform::paper();
    let kinds = catalog().default_members().len();
    println!(
        "== league: robustness table ({kinds} schedulers, n = {n}, sigma {SIGMA}, {SEEDS} seeds from {}) ==",
        opts.seed
    );

    struct Job {
        tb: Testbed,
        model: CommModel,
        spec: SchedulerSpec,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for tb in Testbed::ALL {
        // parameters pinned the same way the daemon's intake normalizes
        // them: ILHA takes the testbed's paper-best chunk size, `random`
        // the sweep seed
        let specs = concrete_specs(tb.paper_best_b(), opts.seed);
        for model in CommModel::ALL {
            for spec in &specs {
                jobs.push(Job {
                    tb,
                    model,
                    spec: spec.clone(),
                });
            }
        }
    }

    struct Row {
        label: String,
        mean: f64,
        p95: f64,
        line: String,
    }
    let rows: Vec<Row> = par_map(&jobs, opts.threads, |j| {
        let g = j.tb.generate(n, PAPER_C);
        let sched = onesched::registry::build(&j.spec)
            .unwrap_or_else(|e| panic!("league spec must build: {e}"));
        let s = sched.schedule(&g, &p, j.model);
        let v = validate(&g, &p, j.model, &s);
        assert!(
            v.is_empty(),
            "{}/{}/{}: invalid schedule: {v:?}",
            j.tb,
            j.model.name(),
            j.spec.canonical()
        );
        let mut degradations: Vec<f64> = (0..SEEDS)
            .map(|k| {
                let cfg = ExecConfig {
                    policy: DispatchPolicy::ListDynamic,
                    perturb: Perturbation::noise(SIGMA),
                    seed: opts.seed.wrapping_add(k),
                };
                execute(&g, &p, j.model, &s, &cfg)
                    .expect("constructed schedules are executable")
                    .degradation()
            })
            .collect();
        let mean = degradations.iter().sum::<f64>() / degradations.len() as f64;
        degradations.sort_by(f64::total_cmp);
        let rank =
            ((0.95 * degradations.len() as f64).ceil() as usize).clamp(1, degradations.len());
        let p95 = degradations.get(rank - 1).copied().unwrap_or(mean);
        let label = j.spec.canonical();
        let line = format!(
            "{},{n},{},{label},{SIGMA},{SEEDS},{},{mean:.6},{p95:.6}\n",
            j.tb,
            j.model.name(),
            s.makespan(),
        );
        Row {
            label,
            mean,
            p95,
            line,
        }
    });
    let mut csv = String::from(
        "testbed,n,model,scheduler,sigma,seeds,static_makespan,mean_degradation,p95_degradation\n",
    );
    for row in &rows {
        csv.push_str(&row.line);
    }
    write_csv(opts, "league.csv", &csv);

    // Aggregate ranking by *kind* (the canonical label pins per-testbed
    // parameters like ILHA's chunk size, so kinds — not labels — are the
    // comparable unit across cells): mean of cell means, worst cell p95,
    // and cell wins (smallest mean, ties to the smaller label).
    let mut agg: BTreeMap<String, (f64, f64, u64)> = BTreeMap::new();
    for (job, row) in jobs.iter().zip(&rows) {
        let e = agg.entry(job.spec.kind.clone()).or_insert((0.0, 0.0, 0));
        e.0 += row.mean;
        e.1 = e.1.max(row.p95);
        e.2 += 1;
    }
    let mut wins: BTreeMap<String, u64> = BTreeMap::new();
    for (cell_jobs, cell_rows) in jobs.chunks(kinds).zip(rows.chunks(kinds)) {
        let winner = cell_rows.iter().zip(cell_jobs).reduce(|best, cand| {
            let (brow, _) = best;
            let (crow, _) = cand;
            if crow.mean < brow.mean - 1e-9
                || (crow.mean <= brow.mean + 1e-9 && crow.label < brow.label)
            {
                cand
            } else {
                best
            }
        });
        if let Some((_, job)) = winner {
            *wins.entry(job.spec.kind.clone()).or_insert(0) += 1;
        }
    }
    let mut ranking: Vec<(String, f64, f64, u64, u64)> = agg
        .into_iter()
        .map(|(kind, (sum_mean, worst_p95, cells))| {
            let wins = wins.get(&kind).copied().unwrap_or(0);
            (kind, sum_mean / cells as f64, worst_p95, cells, wins)
        })
        .collect();
    ranking.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let mut rank_csv = String::from("scheduler,cells,wins,mean_degradation,worst_p95\n");
    println!(
        "{:>14} {:>6} {:>5} {:>10} {:>10}",
        "scheduler", "cells", "wins", "mean-degr", "worst-p95"
    );
    for (kind, mean, worst, cells, w) in &ranking {
        let _ = writeln!(rank_csv, "{kind},{cells},{w},{mean:.6},{worst:.6}");
        println!("{kind:>14} {cells:>6} {w:>5} {mean:>10.4} {worst:>10.4}");
    }
    write_csv(opts, "league_rank.csv", &rank_csv);
}

/// Every concrete catalog kind (heuristics + baselines) on every testbed
/// at one size: ILHA with the testbed's paper-best chunk size, `random`
/// with seed 42. Jobs fan out over `par_map`; every schedule is validated.
fn baseline_comparison(opts: &Opts) {
    println!("== baselines: full scheduler comparison ==");
    let n = (*opts.sizes.iter().min().unwrap_or(&100)).min(30);
    let jobs = resolve_all(Testbed::ALL.into_iter().flat_map(|tb| {
        onesched::registry::concrete_specs(tb.paper_best_b(), 42)
            .into_iter()
            .map(move |sched| validated_job(tb, n, None, sched, CommModel::OnePortBidir))
    }));
    // the imbalance column needs the schedule itself, not just its outcome
    let rows = par_map(&jobs, opts.threads, |job| {
        let (g, p) = (job.build_graph(), job.build_platform());
        let (outcome, sched) = cache::construct(job, &g, &p, None, &Scope::off());
        (outcome, ScheduleStats::of(&g, &p, &sched).imbalance)
    });
    let mut csv = String::from("testbed,scheduler,makespan,speedup,comms,imbalance\n");
    for (tb, rows) in Testbed::ALL
        .iter()
        .zip(rows.chunks(rows.len() / Testbed::ALL.len()))
    {
        let tasks = rows.first().map_or(0, |(o, _)| o.tasks);
        println!("-- {tb} (n = {n}, {tasks} tasks) --");
        for (o, imbalance) in rows {
            assert_eq!(o.violations, 0, "{}", o.scheduler);
            let _ = writeln!(
                csv,
                "{tb},{},{},{},{},{imbalance}",
                o.scheduler, o.makespan, o.speedup, o.effective_comms
            );
            println!(
                "  {:<14} speedup {:>7.3}  comms {:>6}",
                o.scheduler, o.speedup, o.effective_comms
            );
        }
    }
    write_csv(opts, "baseline_comparison.csv", &csv);
}
