//! The `daemon-open` request mix: small seeded jobs of every kind the
//! daemon serves.
//!
//! Every request validates its schedule. Shares of fresh requests:
//! simulate jobs 12% (both dispatch policies, three noise levels),
//! portfolio races 5%, routed jobs 8%, other baselines 10%, and HEFT/ILHA
//! on the paper platform for the rest. Baselines and portfolios get the
//! smaller graphs, because they construct without the pruned scan. A fixed
//! 20% of requests repeat an earlier spec of the same batch, so cache
//! reads sit beside constructions.
//!
//! The mix is stratified: a batch's composition (kinds, graph sizes,
//! testbeds, models, policies) comes from a fixed low-discrepancy sequence,
//! so batches of the same size cost about the same. The seed draws what
//! varies within that composition: the order, the random DAGs and
//! topologies, the perturbation seeds, and which spec a repeat repeats.

use crate::stats::Rng;
use onesched_service::protocol::{DagSpec, JobSpec, PlatformSpec, SchedulerSpec, SimSpec};
use onesched_service::workloads::stress_config;
use onesched_service::{Request, Testbed};

/// Share of requests that repeat an earlier spec.
pub const REPEAT_SHARE: f64 = 0.2;
/// Largest graph of a HEFT/ILHA job, in tasks (approximate).
const MAX_TASKS: f64 = 400.0;
/// Largest graph of a baseline or portfolio job.
const MAX_TASKS_BASELINE: f64 = 60.0;
/// Smallest graph.
const MIN_TASKS: f64 = 30.0;

const BASELINES: [&str; 9] = [
    "cpop",
    "gdl",
    "bil",
    "pct",
    "min-min",
    "max-min",
    "round-robin",
    "random",
    "serial",
];
const PORTFOLIO_MEMBERS: [&str; 6] = ["heft", "ilha", "cpop", "pct", "min-min", "round-robin"];
const MODELS: [&str; 4] = [
    "one-port-bidir",
    "one-port-unidir",
    "one-port-no-overlap",
    "macro-dataflow",
];
const POLICIES: [&str; 2] = ["static-order", "list-dynamic"];
const SIGMAS: [f64; 3] = [0.0, 0.1, 0.3];
const ROUTED: [&str; 4] = ["ring", "star", "line", "random-connected"];

/// The coordinates of a request slot, one per independent choice.
#[derive(Clone, Copy)]
enum Coord {
    Kind,
    Size,
    Graph,
    Scheduler,
    Model,
    SimRouted,
    Topology,
    Procs,
    Policy,
    Repeat,
}

/// The stratified coordinates of one request slot, each in `[0, 1)`: the
/// additive recurrence `frac(i * alpha)` with the fractional part of a
/// distinct prime's square root per coordinate, so any run of slots
/// covers every coordinate, and every pair of coordinates, evenly.
struct Slot([f64; 10]);

impl Slot {
    fn new(i: usize) -> Slot {
        const PRIMES: [f64; 10] = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0];
        Slot(PRIMES.map(|p| (0.5 + i as f64 * p.sqrt().fract()).fract()))
    }

    fn unit(&self, c: Coord) -> f64 {
        self.0[c as usize]
    }

    /// Coordinate `c` as an index into `n` equally likely choices.
    fn pick(&self, c: Coord, n: usize) -> usize {
        ((self.unit(c) * n as f64) as usize).min(n - 1)
    }
}

/// A graph of about the slot's size: half the time a paper testbed sized
/// to it, otherwise a seeded random layered DAG.
fn small_dag(slot: &Slot, rng: &mut Rng, max_tasks: f64) -> DagSpec {
    // log-uniform size: mostly small graphs, a few near the cap
    let tasks = (MIN_TASKS.ln() + slot.unit(Coord::Size) * (max_tasks.ln() - MIN_TASKS.ln())).exp();
    let testbeds = Testbed::ALL.len();
    match slot.pick(Coord::Graph, 2 * testbeds).checked_sub(testbeds) {
        Some(t) => {
            let tb = Testbed::ALL[t];
            let n = match tb {
                Testbed::Lu | Testbed::Doolittle => (2.0 * tasks).sqrt(),
                Testbed::Laplace | Testbed::Stencil | Testbed::Ldmt => tasks.sqrt(),
                Testbed::ForkJoin => tasks - 2.0,
            };
            DagSpec::testbed(tb, (n as usize).max(3))
        }
        None => {
            let cfg = stress_config(tasks as usize);
            DagSpec::random(
                cfg.layers,
                cfg.max_width,
                cfg.edge_prob,
                rng.next_u64() >> 12,
            )
        }
    }
}

fn routed_platform(slot: &Slot, rng: &mut Rng) -> PlatformSpec {
    let procs = 5 + slot.pick(Coord::Procs, 6);
    match ROUTED[slot.pick(Coord::Topology, ROUTED.len())] {
        "random-connected" => PlatformSpec::random_connected(procs, 1.0, 0.3, rng.next_u64() >> 12),
        kind => PlatformSpec::routed(kind, procs, 1.0),
    }
}

fn heuristic(slot: &Slot, routed: bool) -> SchedulerSpec {
    match (routed, slot.pick(Coord::Scheduler, 2) == 0) {
        (false, true) => SchedulerSpec::heft(),
        (false, false) => SchedulerSpec::named("ilha"),
        (true, true) => SchedulerSpec::routed_heft(),
        (true, false) => SchedulerSpec::named("routed-ilha"),
    }
}

fn job(dag: DagSpec, platform: PlatformSpec, scheduler: SchedulerSpec, model: &str) -> JobSpec {
    JobSpec {
        dag,
        platform: Some(platform),
        scheduler: Some(scheduler),
        model: Some(model.into()),
        validate: true,
    }
}

/// One fresh request for `slot`, with the given id.
fn fresh(slot: &Slot, rng: &mut Rng, id: String) -> Request {
    let kind = slot.unit(Coord::Kind);
    if kind < 0.12 {
        let routed = slot.pick(Coord::SimRouted, 4) == 0;
        let platform = if routed {
            routed_platform(slot, rng)
        } else {
            PlatformSpec::paper()
        };
        let spec = job(
            small_dag(slot, rng, MAX_TASKS),
            platform,
            heuristic(slot, routed),
            MODELS[0],
        );
        let choice = slot.pick(Coord::Policy, POLICIES.len() * SIGMAS.len());
        let sim = SimSpec::noise(
            POLICIES[choice % POLICIES.len()],
            SIGMAS[choice / POLICIES.len()],
            rng.next_u64() >> 12,
        );
        return Request::simulate(Some(id), 0, spec, sim);
    }
    let spec = if kind < 0.17 {
        let first = slot.pick(Coord::Scheduler, PORTFOLIO_MEMBERS.len());
        let members = (0..2 + slot.pick(Coord::Model, 2))
            .map(|m| SchedulerSpec::named(PORTFOLIO_MEMBERS[(first + m) % PORTFOLIO_MEMBERS.len()]))
            .collect();
        let dag = small_dag(slot, rng, MAX_TASKS_BASELINE);
        job(
            dag,
            PlatformSpec::paper(),
            SchedulerSpec::portfolio(members),
            MODELS[0],
        )
    } else if kind < 0.25 {
        let platform = routed_platform(slot, rng);
        job(
            small_dag(slot, rng, MAX_TASKS),
            platform,
            heuristic(slot, true),
            MODELS[0],
        )
    } else if kind < 0.35 {
        let dag = small_dag(slot, rng, MAX_TASKS_BASELINE);
        let baseline =
            SchedulerSpec::named(BASELINES[slot.pick(Coord::Scheduler, BASELINES.len())]);
        job(dag, PlatformSpec::paper(), baseline, MODELS[0])
    } else {
        // mostly the paper's model, sometimes the other three
        let model = match slot.pick(Coord::Model, 10) {
            0..=6 => MODELS[0],
            m => MODELS[m - 6],
        };
        job(
            small_dag(slot, rng, MAX_TASKS),
            PlatformSpec::paper(),
            heuristic(slot, false),
            model,
        )
    };
    Request::submit(Some(id), 0, spec)
}

/// `n` requests with ids `{prefix}-{i}` from the seeded stream `stream`:
/// [`REPEAT_SHARE`] of them repeat an earlier spec of the same batch.
pub fn requests(seed: u64, stream: u64, n: usize, prefix: &str) -> Vec<Request> {
    let mut rng = Rng::new(seed, stream);
    // stratified slots in a seeded order (Fisher-Yates)
    let mut slots: Vec<Slot> = (0..n).map(Slot::new).collect();
    for i in (1..n).rev() {
        slots.swap(i, rng.range(0, i));
    }
    let mut out: Vec<Request> = Vec::with_capacity(n);
    for (i, slot) in slots.iter().enumerate() {
        let id = format!("{prefix}-{i}");
        // a repeat slot at the head of the batch has nothing to repeat yet
        let req = if slot.unit(Coord::Repeat) < REPEAT_SHARE && !out.is_empty() {
            let mut again = rng.pick(&out).clone();
            again.id = Some(id);
            again
        } else {
            fresh(slot, &mut rng, id)
        };
        out.push(req);
    }
    out
}
