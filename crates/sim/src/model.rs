//! The communication models of the paper (§2), and the timelines each
//! model makes an activity claim.

use onesched_platform::ProcId;
use serde::{Deserialize, Serialize};

/// How communication resources are constrained.
///
/// The paper argues the classical macro-dataflow model is unrealistic and
/// proposes the bi-directional one-port model; §2.3 also mentions the
/// stricter variants implemented here.
///
/// Each model is also a table of the per-processor timelines an activity
/// claims ([`CommModel::comm_claims`], [`CommModel::task_claims`]): a
/// message touches two timelines (none under macro-dataflow) and a task
/// one or two, and an activity occupies exactly the timelines it must
/// find free. [`crate::validate()`] checks the same rules independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommModel {
    /// Macro-dataflow (§2.1): unlimited communication resources. A processor
    /// may take part in any number of simultaneous transfers; only the
    /// `data × link` delay is paid.
    MacroDataflow,
    /// Bi-directional one-port (§2.3, the paper's model): at any time-step a
    /// processor sends to at most one processor *and* receives from at most
    /// one processor; a send and a receive may proceed simultaneously, and
    /// computation overlaps communication.
    OnePortBidir,
    /// Uni-directional one-port (§2.3 variant): a processor either sends or
    /// receives at a given time-step, never both.
    OnePortUnidir,
    /// Bi-directional one-port without communication/computation overlap
    /// (§2.3 variant): like [`CommModel::OnePortBidir`], but a processor
    /// cannot compute while one of its ports is busy.
    OnePortNoOverlap,
}

impl CommModel {
    /// All models, for exhaustive tests and ablation sweeps.
    pub const ALL: [CommModel; 4] = [
        CommModel::MacroDataflow,
        CommModel::OnePortBidir,
        CommModel::OnePortUnidir,
        CommModel::OnePortNoOverlap,
    ];

    /// Whether the model serializes each processor's communications at all.
    pub fn is_one_port(self) -> bool {
        !matches!(self, CommModel::MacroDataflow)
    }

    /// Whether a processor's send port and receive port are the *same*
    /// resource (uni-directional variant).
    pub fn shared_port(self) -> bool {
        matches!(self, CommModel::OnePortUnidir)
    }

    /// Whether communication excludes computation on the involved processor.
    pub fn excludes_compute(self) -> bool {
        matches!(self, CommModel::OnePortNoOverlap)
    }

    /// The ports a transfer claims at its source and at its destination,
    /// or `None` when transfers claim nothing (macro-dataflow). The
    /// uni-directional model's one shared port is the [`Port::Send`]
    /// timeline; under no-overlap the ports also carry the processor's
    /// computations (see [`CommModel::task_claims`]).
    pub(crate) fn comm_ports(self) -> Option<(Port, Port)> {
        match self {
            CommModel::MacroDataflow => None,
            CommModel::OnePortBidir | CommModel::OnePortNoOverlap => Some((Port::Send, Port::Recv)),
            CommModel::OnePortUnidir => Some((Port::Send, Port::Send)),
        }
    }

    /// The timelines a transfer `src → dst` occupies, which are exactly
    /// the timelines it must find free. Schedule construction
    /// ([`crate::ResourcePool`]) and the `onesched-exec` replay both read
    /// this table, so they cannot disagree on what a transfer excludes.
    /// Local (`src == dst`) transfers claim one timeline where both ends
    /// name the same one.
    pub fn comm_claims(self, src: ProcId, dst: ProcId) -> Claims {
        match self.comm_ports() {
            None => Claims::NONE,
            Some((send, recv)) => Claims::pair(Claim::new(send, src), Claim::new(recv, dst)),
        }
    }

    /// The timelines a task on `p` occupies, which are exactly the
    /// timelines it must find free (see [`CommModel::comm_claims`]): the
    /// compute core, or — under no-overlap — both communication ports, so
    /// a computation excludes every transfer of its processor and every
    /// other computation, while a send may still overlap a receive.
    pub fn task_claims(self, p: ProcId) -> Claims {
        match self {
            CommModel::OnePortNoOverlap => {
                Claims::pair(Claim::new(Port::Send, p), Claim::new(Port::Recv, p))
            }
            _ => Claims::one(Claim::new(Port::Compute, p)),
        }
    }

    /// Short stable name used in experiment CSVs.
    pub fn name(self) -> &'static str {
        match self {
            CommModel::MacroDataflow => "macro-dataflow",
            CommModel::OnePortBidir => "one-port-bidir",
            CommModel::OnePortUnidir => "one-port-unidir",
            CommModel::OnePortNoOverlap => "one-port-no-overlap",
        }
    }
}

/// One of a processor's three timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// The compute core.
    Compute,
    /// The send port (under [`CommModel::OnePortUnidir`], the processor's
    /// one shared port).
    Send,
    /// The receive port.
    Recv,
}

/// One timeline an activity claims: `port` of processor `proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// Which of the processor's timelines.
    pub port: Port,
    /// The processor.
    pub proc: ProcId,
}

impl Claim {
    /// The claim on `port` of `proc`.
    #[inline]
    pub const fn new(port: Port, proc: ProcId) -> Claim {
        Claim { port, proc }
    }

    /// Dense id in `0..3 * n_procs`: compute `p`, send `P + p`, receive
    /// `2P + p`.
    #[inline]
    pub fn index(self, n_procs: usize) -> usize {
        self.port as usize * n_procs + self.proc.index()
    }
}

/// The timelines one activity claims: at most two, held by value so the
/// innermost placement loops never allocate. Dereferences to `[Claim]`.
#[derive(Debug, Clone, Copy)]
pub struct Claims {
    buf: [Claim; 2],
    len: usize,
}

impl Claims {
    /// No timeline at all.
    const NONE: Claims = Claims {
        buf: [Claim::new(Port::Compute, ProcId(0)); 2],
        len: 0,
    };

    fn one(a: Claim) -> Claims {
        Claims {
            buf: [a, a],
            len: 1,
        }
    }

    /// Both claims, or one when they name the same timeline.
    fn pair(a: Claim, b: Claim) -> Claims {
        Claims {
            buf: [a, b],
            len: if a == b { 1 } else { 2 },
        }
    }
}

impl std::ops::Deref for Claims {
    type Target = [Claim];

    #[inline]
    fn deref(&self) -> &[Claim] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

impl std::fmt::Display for CommModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(!CommModel::MacroDataflow.is_one_port());
        assert!(CommModel::OnePortBidir.is_one_port());
        assert!(CommModel::OnePortUnidir.shared_port());
        assert!(!CommModel::OnePortBidir.shared_port());
        assert!(CommModel::OnePortNoOverlap.excludes_compute());
        assert!(!CommModel::OnePortBidir.excludes_compute());
    }

    #[test]
    fn claims_table() {
        let (p, q) = (ProcId(0), ProcId(1));
        let claims = |c: Claims| c.iter().map(|c| (c.port, c.proc)).collect::<Vec<_>>();
        let m = CommModel::MacroDataflow;
        assert!(m.comm_claims(p, q).is_empty());
        assert_eq!(claims(m.task_claims(p)), [(Port::Compute, p)]);
        let m = CommModel::OnePortBidir;
        assert_eq!(
            claims(m.comm_claims(p, q)),
            [(Port::Send, p), (Port::Recv, q)]
        );
        assert_eq!(claims(m.task_claims(p)), [(Port::Compute, p)]);
        let m = CommModel::OnePortUnidir;
        assert_eq!(
            claims(m.comm_claims(p, q)),
            [(Port::Send, p), (Port::Send, q)]
        );
        assert_eq!(claims(m.comm_claims(p, p)), [(Port::Send, p)]);
        assert_eq!(claims(m.task_claims(p)), [(Port::Compute, p)]);
        let m = CommModel::OnePortNoOverlap;
        assert_eq!(
            claims(m.comm_claims(p, q)),
            [(Port::Send, p), (Port::Recv, q)]
        );
        assert_eq!(claims(m.task_claims(p)), [(Port::Send, p), (Port::Recv, p)]);
        // dense ids: compute p, send P + p, receive 2P + p
        assert_eq!(Claim::new(Port::Recv, q).index(4), 9);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = CommModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), CommModel::ALL.len());
    }
}
