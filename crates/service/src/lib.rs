//! # onesched-service — the long-running batch scheduling service
//!
//! Everything the `onesched-svc` daemon is made of, as a library:
//!
//! * [`protocol`] — the newline-delimited JSON request/response types, job
//!   specifications (DAG × platform × scheduler × model), and their
//!   validation/defaulting into canonical [`protocol::ResolvedJob`]s;
//! * [`queue`] — the priority job queue (higher priority first, FIFO
//!   within a priority);
//! * [`cache`] — the request/platform/DAG registry: a schedule cache keyed
//!   by resolved job, the deterministic job executor and its one
//!   construction step (shared with the offline sweeps), and service
//!   statistics (queue depth, cache hits, per-scheduler latency
//!   percentiles);
//! * [`ledger`] — the append-only write-ahead job ledger (NDJSON events
//!   with a torn-tail-tolerant reader) that makes the daemon
//!   crash-recoverable: restarts replay unacknowledged jobs and rehydrate
//!   the caches from acknowledged outcomes;
//! * [`service`] — the daemon core: a worker pool of scoped threads
//!   pulling from the priority queue over stdio or TCP intake, streaming
//!   one JSON result line per job (the only threads in the workspace
//!   besides `onesched_heuristics::par_map`, the one fan-out);
//! * [`workloads`] — generators for service-scale scenarios: random
//!   layered DAGs targeted at 100k+ tasks and routed workloads on
//!   non-fully-connected topologies.
//!
//! Schedulers stay pure (`onesched-heuristics`); this crate owns jobs,
//! queues, caches, and results — the scheduler/runner separation the dslab
//! simulators use, adapted to a long-running daemon.
//!
//! ## Quickstart
//!
//! ```
//! use onesched_service::protocol::{DagSpec, JobSpec, Request};
//! use onesched_service::cache::run_job;
//! use onesched_service::Testbed;
//! use onesched_trace::Scope;
//!
//! // A request as it would arrive on the wire...
//! let line = r#"{"op":"submit","id":"demo","job":{"dag":{"kind":"testbed","testbed":"LU","n":20}}}"#;
//! let req: Request = serde_json::from_str(line).unwrap();
//!
//! // ...resolves to a canonical, runnable job...
//! let job = req.job.unwrap().resolve().unwrap();
//!
//! // ...and runs bit-identically to the same spec built programmatically.
//! let same = JobSpec {
//!     dag: DagSpec::testbed(Testbed::Lu, 20),
//!     platform: None,
//!     scheduler: None,
//!     model: None,
//!     validate: false,
//! }
//! .resolve()
//! .unwrap();
//! assert_eq!(job.key, same.key);
//! let (a, b) = (run_job(&job, None, &Scope::off()), run_job(&same, None, &Scope::off()));
//! assert_eq!(a.fingerprint, b.fingerprint);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod ledger;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod workloads;

pub use protocol::{JobSpec, Request, ResolvedJob};
pub use service::{Service, ServiceConfig};

// Re-exported so workload call sites need one import.
pub use onesched_testbeds::Testbed;
