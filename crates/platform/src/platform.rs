//! The platform type: cycle-times plus a link matrix.

use crate::{ProcId, RoutingTable};
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

/// Errors raised while constructing a [`Platform`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// A cycle-time is zero, negative, or non-finite.
    InvalidCycleTime {
        /// Offending processor.
        proc: ProcId,
        /// Rejected value.
        value: f64,
    },
    /// An off-diagonal link entry is negative or NaN
    /// (`+∞` is allowed and means "no direct link").
    InvalidLink {
        /// Source processor.
        from: ProcId,
        /// Destination processor.
        to: ProcId,
        /// Rejected value.
        value: f64,
    },
    /// A diagonal link entry is non-zero.
    NonZeroDiagonal(ProcId),
    /// The link matrix does not have `p × p` entries.
    WrongLinkShape {
        /// Number of processors.
        procs: usize,
        /// Number of entries supplied.
        entries: usize,
    },
    /// The platform has no processors.
    Empty,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::InvalidCycleTime { proc, value } => {
                write!(f, "invalid cycle-time {value} for {proc}")
            }
            PlatformError::InvalidLink { from, to, value } => {
                write!(f, "invalid link({from}, {to}) = {value}")
            }
            PlatformError::NonZeroDiagonal(p) => {
                write!(f, "link({p}, {p}) must be zero (local memory access)")
            }
            PlatformError::WrongLinkShape { procs, entries } => {
                write!(
                    f,
                    "link matrix must have {procs}x{procs} entries, got {entries}"
                )
            }
            PlatformError::Empty => write!(f, "platform must have at least one processor"),
        }
    }
}

impl std::error::Error for PlatformError {}

/// A heterogeneous platform `P = (P, t, link)` (paper §2.1).
///
/// * `cycle_times[i]` = `t_i`, the inverse relative speed of `P_i`;
/// * `link` is a row-major `p × p` matrix; `link(q, r)` is the time to move
///   one data item from `P_q` to `P_r`. The diagonal is zero (local memory
///   accesses are neglected). An entry of `+∞` means there is no direct link
///   and messages must be routed (see [`Platform::routes`]).
#[derive(Debug, Clone, Serialize)]
pub struct Platform {
    cycle_times: Vec<f64>,
    link: Vec<f64>,
    /// The static route table, built on the first [`Platform::routes`]
    /// call: construction stays `O(p²)` even where routing needs
    /// Floyd–Warshall.
    #[serde(skip)]
    routes: OnceLock<RoutingTable>,
}

// Deserialization goes through `Platform::new`, so a parsed platform is
// validated like a constructed one (a short link matrix would otherwise
// index out of bounds on the first `link` call).
impl Deserialize for Platform {
    fn from_value(v: &Value) -> Result<Platform, Error> {
        let cycle_times = Vec::<f64>::from_value(v.get_field("cycle_times")?)?;
        let link = Vec::<f64>::from_value(v.get_field("link")?)?;
        Platform::new(cycle_times, link).map_err(|e| Error(e.to_string()))
    }
}

impl Platform {
    /// Build a platform from explicit cycle-times and a row-major link matrix.
    pub fn new(cycle_times: Vec<f64>, link: Vec<f64>) -> Result<Platform, PlatformError> {
        let p = cycle_times.len();
        if p == 0 {
            return Err(PlatformError::Empty);
        }
        if link.len() != p * p {
            return Err(PlatformError::WrongLinkShape {
                procs: p,
                entries: link.len(),
            });
        }
        for (i, &t) in cycle_times.iter().enumerate() {
            if !t.is_finite() || t <= 0.0 {
                return Err(PlatformError::InvalidCycleTime {
                    proc: ProcId(i as u32),
                    value: t,
                });
            }
        }
        for (q, row) in link.chunks(p).enumerate() {
            for (r, &v) in row.iter().enumerate() {
                if q == r {
                    if v != 0.0 {
                        return Err(PlatformError::NonZeroDiagonal(ProcId(q as u32)));
                    }
                } else if v.is_nan() || v < 0.0 {
                    return Err(PlatformError::InvalidLink {
                        from: ProcId(q as u32),
                        to: ProcId(r as u32),
                        value: v,
                    });
                }
            }
        }
        Ok(Platform {
            cycle_times,
            link,
            routes: OnceLock::new(),
        })
    }

    /// Fully homogeneous platform: `p` processors with `t_i = 1` and a
    /// complete unit-latency network (`link(q, r) = 1` for `q ≠ r`).
    pub fn homogeneous(p: usize) -> Platform {
        Self::uniform_links(vec![1.0; p], 1.0)
            .expect("homogeneous platform parameters are always valid")
    }

    /// Heterogeneous processors over a complete network where every
    /// off-diagonal link has the same latency `link_time`.
    pub fn uniform_links(cycle_times: Vec<f64>, link_time: f64) -> Result<Platform, PlatformError> {
        let p = cycle_times.len();
        let mut link = vec![link_time; p * p];
        for diagonal in link.iter_mut().step_by(p + 1) {
            *diagonal = 0.0;
        }
        Platform::new(cycle_times, link)
    }

    /// The experimental platform of the paper (§5.2): ten processors — five
    /// with cycle-time 6, three with cycle-time 10, two with cycle-time 15 —
    /// fully connected with unit links. Communication-to-computation ratios
    /// are modelled in the testbeds (`data = c × w`), not in the links.
    pub fn paper() -> Platform {
        let mut ct = Vec::with_capacity(10);
        ct.extend(std::iter::repeat_n(6.0, 5));
        ct.extend(std::iter::repeat_n(10.0, 3));
        ct.extend(std::iter::repeat_n(15.0, 2));
        Self::uniform_links(ct, 1.0).expect("paper platform parameters are valid")
    }

    /// Number of processors `p`.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.cycle_times.len()
    }

    /// Iterate over all processor ids `0..p`.
    pub fn procs(&self) -> impl ExactSizeIterator<Item = ProcId> + Clone {
        (0..self.num_procs() as u32).map(ProcId)
    }

    /// Cycle-time `t_i` of processor `i`.
    #[inline]
    pub fn cycle_time(&self, p: ProcId) -> f64 {
        self.cycle_times[p.index()]
    }

    /// All cycle-times, indexed by processor id.
    #[inline]
    pub fn cycle_times(&self) -> &[f64] {
        &self.cycle_times
    }

    /// Link latency `link(q, r)`; zero when `q == r`, possibly `+∞`.
    #[inline]
    pub fn link(&self, q: ProcId, r: ProcId) -> f64 {
        self.link[q.index() * self.num_procs() + r.index()]
    }

    /// Time to execute a task of weight `w` on processor `p`.
    #[inline]
    pub fn exec_time(&self, w: f64, p: ProcId) -> f64 {
        w * self.cycle_times[p.index()]
    }

    /// Time to transfer `data` items from `q` to `r` over the direct link
    /// (`comm(i, j, q, r) = data(i, j) × link(q, r)`), zero when `q == r`.
    #[inline]
    pub fn comm_time(&self, data: f64, q: ProcId, r: ProcId) -> f64 {
        if q == r {
            0.0
        } else {
            data * self.link(q, r)
        }
    }

    /// The fastest cycle-time `min_i t_i`.
    pub fn min_cycle_time(&self) -> f64 {
        self.cycle_times
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The id of a fastest processor (smallest cycle-time, lowest id wins).
    pub fn fastest_proc(&self) -> ProcId {
        let mut best = ProcId(0);
        for p in self.procs() {
            if self.cycle_time(p) < self.cycle_time(best) {
                best = p;
            }
        }
        best
    }

    /// Aggregate speed `Σ_i 1/t_i` (tasks of unit weight per time unit when
    /// perfectly load-balanced; paper §4.1).
    pub fn total_speed(&self) -> f64 {
        self.cycle_times.iter().map(|t| 1.0 / t).sum()
    }

    /// Harmonic-mean cycle-time `p / Σ 1/t_i`: the paper's per-unit
    /// computation estimate for bottom levels (§4.1 — a task of weight `w`
    /// contributes `p·w / Σ 1/t_i`).
    pub fn avg_cycle_time(&self) -> f64 {
        self.num_procs() as f64 / self.total_speed()
    }

    /// Harmonic mean of the finite off-diagonal link entries: the paper's
    /// per-data-item communication estimate for bottom levels (§4.1 —
    /// "replace link(q, r) by the inverse of the harmonic mean", i.e. use the
    /// average bandwidth). Returns 0 for a single-processor platform.
    pub fn avg_link_time(&self) -> f64 {
        let p = self.num_procs();
        let mut inv_sum = 0.0;
        let mut count = 0usize;
        for (q, row) in self.link.chunks(p).enumerate() {
            for (r, &l) in row.iter().enumerate() {
                if q != r {
                    if l.is_finite() && l > 0.0 {
                        inv_sum += 1.0 / l;
                        count += 1;
                    } else if l == 0.0 {
                        // zero-latency link: infinitely fast, skip
                        count += 1;
                    }
                }
            }
        }
        if count == 0 || inv_sum == 0.0 {
            0.0
        } else {
            count as f64 / inv_sum
        }
    }

    /// Whether all off-diagonal links are finite (complete network).
    pub fn is_fully_connected(&self) -> bool {
        let p = self.num_procs();
        self.link
            .chunks(p)
            .enumerate()
            .all(|(q, row)| row.iter().enumerate().all(|(r, l)| q == r || l.is_finite()))
    }

    /// The static routes every message follows (paper §4.3: "if there is
    /// no direct link from P2 to P1, we redo the previous step for all
    /// intermediate messages between adjacent processors"). Built once
    /// per platform value, on first use, and shared by every scheduler
    /// that borrows it.
    pub fn routes(&self) -> &RoutingTable {
        self.routes.get_or_init(|| RoutingTable::new(self))
    }

    /// The first ordered pair `(q, r)` with no route from `q` to `r`, or
    /// `None` when the platform is strongly connected. `O(p²)` and
    /// allocation-light, so it never builds the route table: every
    /// processor must reach `P0` and be reachable from it (a forward and
    /// a reverse search over the finite links), which on a directed graph
    /// is exactly strong connectivity.
    pub fn first_unreachable(&self) -> Option<(ProcId, ProcId)> {
        let p = self.num_procs();
        let reach = |reverse: bool| -> Option<usize> {
            let mut seen = vec![false; p];
            let mut stack = vec![0usize];
            if let Some(origin) = seen.first_mut() {
                *origin = true;
            }
            while let Some(q) = stack.pop() {
                for (r, seen_r) in seen.iter_mut().enumerate() {
                    let (from, to) = if reverse { (r, q) } else { (q, r) };
                    if !*seen_r && self.link.get(from * p + to).is_some_and(|l| l.is_finite()) {
                        *seen_r = true;
                        stack.push(r);
                    }
                }
            }
            seen.iter().position(|&ok| !ok)
        };
        if let Some(r) = reach(false) {
            return Some((ProcId(0), ProcId(r as u32)));
        }
        reach(true).map(|r| (ProcId(r as u32), ProcId(0)))
    }

    /// Whether all processors have the same cycle-time.
    pub fn is_homogeneous(&self) -> bool {
        self.cycle_times.windows(2).all(|w| w.first() == w.last())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_shape() {
        let p = Platform::paper();
        assert_eq!(p.num_procs(), 10);
        assert_eq!(p.cycle_time(ProcId(0)), 6.0);
        assert_eq!(p.cycle_time(ProcId(5)), 10.0);
        assert_eq!(p.cycle_time(ProcId(8)), 15.0);
        assert_eq!(p.link(ProcId(0), ProcId(1)), 1.0);
        assert_eq!(p.link(ProcId(3), ProcId(3)), 0.0);
        assert!(p.is_fully_connected());
        assert!(!p.is_homogeneous());
    }

    #[test]
    fn paper_total_speed() {
        let p = Platform::paper();
        // 5/6 + 3/10 + 2/15 = 0.8333... + 0.3 + 0.1333... = 1.2666...
        assert!((p.total_speed() - 19.0 / 15.0).abs() < 1e-12);
        assert_eq!(p.min_cycle_time(), 6.0);
        assert_eq!(p.fastest_proc(), ProcId(0));
    }

    #[test]
    fn exec_and_comm_times() {
        let p = Platform::paper();
        assert_eq!(p.exec_time(3.0, ProcId(0)), 18.0);
        assert_eq!(p.exec_time(3.0, ProcId(9)), 45.0);
        assert_eq!(p.comm_time(7.0, ProcId(0), ProcId(1)), 7.0);
        assert_eq!(p.comm_time(7.0, ProcId(2), ProcId(2)), 0.0);
    }

    #[test]
    fn homogeneous_helpers() {
        let p = Platform::homogeneous(5);
        assert!(p.is_homogeneous());
        assert_eq!(p.avg_cycle_time(), 1.0);
        assert_eq!(p.avg_link_time(), 1.0);
        assert_eq!(p.total_speed(), 5.0);
    }

    #[test]
    fn avg_cycle_time_harmonic() {
        let p = Platform::uniform_links(vec![1.0, 2.0], 1.0).unwrap();
        // 2 / (1 + 0.5) = 4/3
        assert!((p.avg_cycle_time() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn avg_link_time_harmonic() {
        // links 1 and 3 (both directions): harmonic mean = 4 / (1+1/3+1+1/3)
        let link = vec![0.0, 1.0, 3.0, 1.0, 0.0, 3.0, 3.0, 3.0, 0.0];
        let p = Platform::new(vec![1.0, 1.0, 1.0], link).unwrap();
        let got = p.avg_link_time();
        // off-diagonal entries: 1, 3, 1, 3, 3, 3
        let inv = 1.0 + 1.0 / 3.0 + 1.0 + 1.0 / 3.0 + 1.0 / 3.0 + 1.0 / 3.0;
        assert!((got - 6.0 / inv).abs() < 1e-12);
        assert!((got - 1.8).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            Platform::new(vec![], vec![]),
            Err(PlatformError::Empty)
        ));
        assert!(matches!(
            Platform::new(vec![1.0], vec![0.0, 1.0]),
            Err(PlatformError::WrongLinkShape { .. })
        ));
        assert!(matches!(
            Platform::uniform_links(vec![0.0], 1.0),
            Err(PlatformError::InvalidCycleTime { .. })
        ));
        assert!(matches!(
            Platform::new(vec![1.0, 1.0], vec![0.0, -1.0, 1.0, 0.0]),
            Err(PlatformError::InvalidLink { .. })
        ));
        assert!(matches!(
            Platform::new(vec![1.0, 1.0], vec![0.5, 1.0, 1.0, 0.0]),
            Err(PlatformError::NonZeroDiagonal(_))
        ));
    }

    #[test]
    fn infinite_links_allowed_but_not_fully_connected() {
        let link = vec![0.0, f64::INFINITY, 1.0, 0.0];
        let p = Platform::new(vec![1.0, 1.0], link).unwrap();
        assert!(!p.is_fully_connected());
    }

    #[test]
    fn first_unreachable_finds_a_cut_in_either_direction() {
        let inf = f64::INFINITY;
        // nothing leaves P0
        let p = Platform::new(vec![1.0; 2], vec![0.0, inf, 1.0, 0.0]).unwrap();
        assert_eq!(p.first_unreachable(), Some((ProcId(0), ProcId(1))));
        // P0 reaches everyone, but P2 cannot answer
        let link = vec![
            0.0, 1.0, 1.0, //
            1.0, 0.0, inf, //
            inf, inf, 0.0,
        ];
        let p = Platform::new(vec![1.0; 3], link).unwrap();
        assert_eq!(p.first_unreachable(), Some((ProcId(2), ProcId(0))));
        assert_eq!(Platform::paper().first_unreachable(), None);
        let line = crate::topology::line(vec![1.0; 4], 1.0).unwrap();
        assert_eq!(line.first_unreachable(), None);
    }

    #[test]
    fn deserialization_validates_like_new() {
        // a 2-processor platform with a 1-entry link matrix used to parse
        // and then index out of bounds on `link(P1, P0)`
        let short = r#"{"cycle_times":[1.0,1.0],"link":[0.0]}"#;
        assert!(serde_json::from_str::<Platform>(short).is_err());
        let bad_diagonal = r#"{"cycle_times":[1.0],"link":[2.0]}"#;
        assert!(serde_json::from_str::<Platform>(bad_diagonal).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let p = Platform::paper();
        let json = serde_json::to_string(&p).unwrap();
        let p2: Platform = serde_json::from_str(&json).unwrap();
        assert_eq!(p2.num_procs(), 10);
        assert_eq!(p2.cycle_times(), p.cycle_times());
    }
}
