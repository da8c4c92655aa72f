//! Constructors for common interconnect topologies.
//!
//! The paper's experiments use a fully-connected homogeneous network, but the
//! model (and the one-port machinery) supports arbitrary static topologies;
//! these constructors make it easy to study stars, rings and buses.

use crate::{Platform, PlatformError};

/// Star topology: processor 0 is the hub; every other processor has a direct
/// link only to the hub, with per-item latency `link_time`.
pub fn star(cycle_times: Vec<f64>, link_time: f64) -> Result<Platform, PlatformError> {
    let p = cycle_times.len();
    let inf = f64::INFINITY;
    let mut link = vec![inf; p * p];
    for q in 0..p {
        link[q * p + q] = 0.0;
        if q != 0 {
            link[q * p] = link_time;
            link[q] = link_time;
        }
    }
    Platform::new(cycle_times, link)
}

/// Bidirectional ring: processor `i` is linked to `(i±1) mod p` with per-item
/// latency `link_time`.
pub fn ring(cycle_times: Vec<f64>, link_time: f64) -> Result<Platform, PlatformError> {
    let p = cycle_times.len();
    let inf = f64::INFINITY;
    let mut link = vec![inf; p * p];
    for q in 0..p {
        link[q * p + q] = 0.0;
        if p > 1 {
            let next = (q + 1) % p;
            let prev = (q + p - 1) % p;
            link[q * p + next] = link_time;
            link[q * p + prev] = link_time;
        }
    }
    Platform::new(cycle_times, link)
}

/// Linear array (open chain): processor `i` is linked to `i±1` only.
pub fn line(cycle_times: Vec<f64>, link_time: f64) -> Result<Platform, PlatformError> {
    let p = cycle_times.len();
    let inf = f64::INFINITY;
    let mut link = vec![inf; p * p];
    for q in 0..p {
        link[q * p + q] = 0.0;
        if q + 1 < p {
            link[q * p + q + 1] = link_time;
            link[(q + 1) * p + q] = link_time;
        }
    }
    Platform::new(cycle_times, link)
}

/// A seeded random connected topology: a uniformly random spanning tree
/// (node `i` attaches to a uniform earlier node) plus each remaining
/// unordered pair linked with probability `extra_prob`. All links are
/// bidirectional with per-item latency `link_time`. Deterministic per
/// `seed` — the routed sweeps and proptests rely on it.
pub fn random_connected(
    cycle_times: Vec<f64>,
    link_time: f64,
    extra_prob: f64,
    seed: u64,
) -> Result<Platform, PlatformError> {
    let p = cycle_times.len();
    let inf = f64::INFINITY;
    let mut link = vec![inf; p * p];
    for q in 0..p {
        link[q * p + q] = 0.0;
    }
    // xorshift64* — tiny, deterministic, and dependency-free (the platform
    // crate deliberately has no RNG dependency).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let extra_prob = extra_prob.clamp(0.0, 1.0);
    for i in 1..p {
        let j = (next() % i as u64) as usize;
        link[i * p + j] = link_time;
        link[j * p + i] = link_time;
    }
    for i in 0..p {
        for j in (i + 1)..p {
            if link[i * p + j].is_finite() {
                continue; // already a tree edge
            }
            let draw = (next() >> 11) as f64 / (1u64 << 53) as f64;
            if draw < extra_prob {
                link[i * p + j] = link_time;
                link[j * p + i] = link_time;
            }
        }
    }
    Platform::new(cycle_times, link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcId;

    #[test]
    fn star_routes_via_hub() {
        let p = star(vec![1.0; 4], 2.0).unwrap();
        assert_eq!(p.link(ProcId(1), ProcId(0)), 2.0);
        assert!(!p.link(ProcId(1), ProcId(2)).is_finite());
        let rt = p.routes();
        assert_eq!(rt.route_latency(ProcId(1), ProcId(2)), 4.0);
        assert_eq!(
            rt.path(ProcId(1), ProcId(2)).unwrap(),
            vec![(ProcId(1), ProcId(0)), (ProcId(0), ProcId(2))]
        );
    }

    #[test]
    fn ring_wraps_around() {
        let p = ring(vec![1.0; 5], 1.0).unwrap();
        assert_eq!(p.link(ProcId(0), ProcId(4)), 1.0);
        assert_eq!(p.link(ProcId(4), ProcId(0)), 1.0);
        assert!(!p.link(ProcId(0), ProcId(2)).is_finite());
        let rt = p.routes();
        assert_eq!(rt.route_latency(ProcId(0), ProcId(2)), 2.0);
    }

    #[test]
    fn line_is_open() {
        let p = line(vec![1.0; 4], 1.0).unwrap();
        assert!(!p.link(ProcId(0), ProcId(3)).is_finite());
        let rt = p.routes();
        assert_eq!(rt.route_latency(ProcId(0), ProcId(3)), 3.0);
    }

    #[test]
    fn two_proc_ring_is_complete() {
        let p = ring(vec![1.0, 2.0], 1.0).unwrap();
        assert!(p.is_fully_connected());
    }

    #[test]
    fn singleton_topologies() {
        assert!(star(vec![1.0], 1.0).unwrap().is_fully_connected());
        assert!(ring(vec![1.0], 1.0).unwrap().is_fully_connected());
        assert!(line(vec![1.0], 1.0).unwrap().is_fully_connected());
        assert!(random_connected(vec![1.0], 1.0, 0.5, 3)
            .unwrap()
            .is_fully_connected());
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        for seed in 0..20u64 {
            let p = random_connected(vec![1.0; 7], 1.0, 0.2, seed).unwrap();
            assert_eq!(p.first_unreachable(), None, "seed {seed}");
            // symmetric links
            for q in p.procs() {
                for r in p.procs() {
                    assert_eq!(p.link(q, r), p.link(r, q), "seed {seed}");
                }
            }
            let again = random_connected(vec![1.0; 7], 1.0, 0.2, seed).unwrap();
            for q in p.procs() {
                for r in p.procs() {
                    assert_eq!(p.link(q, r), again.link(q, r), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn random_connected_extra_prob_extremes() {
        // prob 1: complete network; prob 0: exactly the spanning tree
        let full = random_connected(vec![1.0; 6], 1.0, 1.0, 9).unwrap();
        assert!(full.is_fully_connected());
        let tree = random_connected(vec![1.0; 6], 1.0, 0.0, 9).unwrap();
        let links = (0..6)
            .flat_map(|q| (0..6).map(move |r| (q, r)))
            .filter(|&(q, r)| q != r && tree.link(ProcId(q), ProcId(r)).is_finite())
            .count();
        assert_eq!(links, 2 * 5, "a spanning tree over 6 nodes has 5 edges");
    }
}
