//! The common scheduler interface.

use crate::probe::{NoProbe, Probe};
use onesched_dag::TaskGraph;
use onesched_platform::{Platform, ProcId};
use onesched_sim::{CommModel, Schedule};

/// Why a scheduler refused a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedError {
    /// Some ordered processor pair has no route at all; store-and-forward
    /// scheduling cannot deliver messages between them.
    Disconnected {
        /// Source processor of the first unreachable pair.
        from: ProcId,
        /// Destination processor of the first unreachable pair.
        to: ProcId,
    },
}

impl std::fmt::Display for RoutedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutedError::Disconnected { from, to } => write!(
                f,
                "platform is disconnected: no route from {from} to {to} \
                 (every scheduler needs a connected topology)"
            ),
        }
    }
}

impl std::error::Error for RoutedError {}

impl RoutedError {
    /// `Ok` when every ordered processor pair of `platform` has a route
    /// ([`Platform::first_unreachable`]), else the first pair without one.
    pub(crate) fn check(platform: &Platform) -> Result<(), RoutedError> {
        match platform.first_unreachable() {
            Some((from, to)) => Err(RoutedError::Disconnected { from, to }),
            None => Ok(()),
        }
    }
}

/// [`Scheduler::try_schedule_probed`] for the infallible entry points of a
/// scheduler that can refuse a platform: they have no error path, so a
/// refusal panics with the typed error.
pub(crate) fn schedule_or_panic<S: Scheduler + ?Sized>(
    scheduler: &S,
    g: &TaskGraph,
    platform: &Platform,
    model: CommModel,
    probe: &dyn Probe,
) -> Schedule {
    scheduler
        .try_schedule_probed(g, platform, model, probe)
        // analyze:allow(P203): infallible-by-contract mirror of `try_schedule`
        .unwrap_or_else(|e| panic!("{}: {e}", scheduler.name()))
}

/// A static task-graph scheduler: maps every task to a processor and a start
/// time, emitting explicit communication placements, under a given
/// communication model.
///
/// Schedulers are immutable configuration (`Send + Sync`): one instance may
/// construct schedules from several threads at once — the portfolio fan-out
/// and the sweep runner both rely on that.
pub trait Scheduler: Send + Sync {
    /// Stable display name (used in experiment CSVs and bench labels).
    fn name(&self) -> String;

    /// Produce a complete schedule of `g` on `platform` under `model`.
    ///
    /// Implementations must return schedules that pass
    /// [`onesched_sim::validate()`] for the same `(g, platform, model)`.
    fn schedule(&self, g: &TaskGraph, platform: &Platform, model: CommModel) -> Schedule;

    /// [`Scheduler::schedule`] with an observability [`Probe`] receiving
    /// phase boundaries and placement-scan counters. The probe is
    /// write-only: instrumented construction MUST return the same
    /// schedule as [`Scheduler::schedule`] (fingerprint-pinned by the
    /// service's trace tests). The default ignores the probe — only
    /// schedulers with phases worth reporting override it.
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        probe: &dyn Probe,
    ) -> Schedule {
        let _ = probe;
        self.schedule(g, platform, model)
    }

    /// Fallible [`Scheduler::schedule`]: reject a disconnected platform
    /// with a typed error instead of panicking mid-route. This is the one
    /// call shape the registry and the service use for every scheduler.
    fn try_schedule(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
    ) -> Result<Schedule, RoutedError> {
        self.try_schedule_probed(g, platform, model, &NoProbe)
    }

    /// [`Scheduler::try_schedule`] reporting phases and scan counters to
    /// `probe`. Same write-only probe contract as
    /// [`Scheduler::schedule_with_probe`].
    fn try_schedule_probed(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        probe: &dyn Probe,
    ) -> Result<Schedule, RoutedError> {
        RoutedError::check(platform)?;
        Ok(self.schedule_with_probe(g, platform, model, probe))
    }
}

macro_rules! forward_scheduler {
    () => {
        fn name(&self) -> String {
            (**self).name()
        }
        fn schedule(&self, g: &TaskGraph, platform: &Platform, model: CommModel) -> Schedule {
            (**self).schedule(g, platform, model)
        }
        fn schedule_with_probe(
            &self,
            g: &TaskGraph,
            platform: &Platform,
            model: CommModel,
            probe: &dyn Probe,
        ) -> Schedule {
            (**self).schedule_with_probe(g, platform, model, probe)
        }
        fn try_schedule(
            &self,
            g: &TaskGraph,
            platform: &Platform,
            model: CommModel,
        ) -> Result<Schedule, RoutedError> {
            (**self).try_schedule(g, platform, model)
        }
        fn try_schedule_probed(
            &self,
            g: &TaskGraph,
            platform: &Platform,
            model: CommModel,
            probe: &dyn Probe,
        ) -> Result<Schedule, RoutedError> {
            (**self).try_schedule_probed(g, platform, model, probe)
        }
    };
}

impl<S: Scheduler + ?Sized> Scheduler for &S {
    forward_scheduler!();
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    forward_scheduler!();
}
