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

/// A static task-graph scheduler: maps every task to a processor and a start
/// time, emitting explicit communication placements, under a given
/// communication model.
///
/// # Implementing a scheduler
///
/// Implement two methods: [`Scheduler::name`] and the construction itself,
/// [`Scheduler::schedule_with_probe`]. The construction may assume a
/// connected platform — the wrappers below check connectivity before it
/// runs, and direct callers (portfolio members, the service's timed
/// construction) pass platforms already checked — and must return a
/// schedule that passes
/// [`onesched_sim::validate()`] for the same `(g, platform, model)`.
/// Schedulers with phases worth reporting tell the [`Probe`] about them;
/// the rest ignore it. The probe is write-only: a probed construction
/// takes decisions identical to an unprobed one (fingerprint-pinned by the
/// service's trace tests).
///
/// [`Scheduler::schedule`], [`Scheduler::try_schedule`] and
/// [`Scheduler::try_schedule_probed`] are provided wrappers over that one
/// method and are final: no implementation overrides them, so every
/// scheduler refuses a disconnected platform the same way, with
/// [`RoutedError::Disconnected`].
///
/// Schedulers are immutable configuration (`Send + Sync`): one instance may
/// construct schedules from several threads at once — the portfolio fan-out
/// relies on that.
pub trait Scheduler: Send + Sync {
    /// Stable display name (used in experiment CSVs and bench labels).
    fn name(&self) -> String;

    /// Construct a complete schedule of `g` on the connected `platform`
    /// under `model`, reporting phases and placement-scan counters to
    /// `probe`. The one required construction method; callers that have
    /// not checked the platform go through the wrappers below.
    fn schedule_with_probe(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
        probe: &dyn Probe,
    ) -> Schedule;

    /// [`Scheduler::try_schedule`] for callers without an error path: a
    /// disconnected platform panics with the typed [`RoutedError`].
    fn schedule(&self, g: &TaskGraph, platform: &Platform, model: CommModel) -> Schedule {
        self.try_schedule(g, platform, model)
            // analyze:allow(P203): infallible-by-contract mirror of `try_schedule`
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }

    /// Construct a schedule, or reject a disconnected platform with a typed
    /// error instead of panicking mid-route.
    fn try_schedule(
        &self,
        g: &TaskGraph,
        platform: &Platform,
        model: CommModel,
    ) -> Result<Schedule, RoutedError> {
        self.try_schedule_probed(g, platform, model, &NoProbe)
    }

    /// [`Scheduler::try_schedule`] reporting phases and scan counters to
    /// `probe`: the one connectivity check, then the construction.
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

impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> String {
        (**self).name()
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
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> String {
        (**self).name()
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
}
