//! Static routes for the placement engine.
//!
//! The paper's §4.3 notes the one-port machinery extends to routed networks:
//! "if there is no direct link from P2 to P1, we redo the previous step for
//! all intermediate messages between adjacent processors". This module
//! provides the static routing table the placement engine walks, one hop at
//! a time. A platform owns its table ([`Platform::routes`]), built once on
//! first use. On a fully connected platform every route is its direct link
//! (one hop), even where a detour would be cheaper: the paper places every
//! message on its direct link. Only a platform with missing links gets
//! shortest-path routes (Floyd–Warshall over link latencies, as in the
//! Sinnen–Sousa model the paper cites, where "each processor is provided
//! with a routing table" and routing is fully static).

use crate::{Platform, ProcId};

/// All-pairs static routes over the platform's direct links.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    p: usize,
    /// `dist[q * p + r]` = total per-item latency along the chosen route.
    dist: Vec<f64>,
    /// `next[q * p + r]` = next hop from `q` towards `r` (`u32::MAX` if
    /// unreachable).
    next: Vec<u32>,
    /// `last[q * p + r]` = per-item latency of the route's final hop into
    /// `r` (0 if `q == r`, `+∞` if unreachable).
    last: Vec<f64>,
    /// Hops on the longest route (at least 1).
    max_hops: usize,
}

impl RoutingTable {
    /// Build the routing table for `platform`: the direct links in
    /// `O(p²)` when the platform is fully connected, Floyd–Warshall in
    /// `O(p³)` otherwise. [`Platform::routes`] calls this once per
    /// platform value.
    pub(crate) fn new(platform: &Platform) -> RoutingTable {
        let p = platform.num_procs();
        let mut dist = Vec::with_capacity(p * p);
        let mut next = Vec::with_capacity(p * p);
        for q in platform.procs() {
            for r in platform.procs() {
                let l = if q == r { 0.0 } else { platform.link(q, r) };
                dist.push(l);
                next.push(if l.is_finite() { r.0 } else { u32::MAX });
            }
        }
        if platform.is_fully_connected() {
            return RoutingTable {
                p,
                last: dist.clone(),
                dist,
                next,
                max_hops: 1,
            };
        }
        // Floyd–Warshall. Row `k` and column `k` never change during
        // round `k` (latencies are non-negative), so a copy of row `k` and
        // each row's `(q, k)` entries read before its inner loop are exact.
        for k in 0..p {
            let via: Vec<f64> = dist.iter().skip(k * p).take(p).copied().collect();
            for (dist_q, next_q) in dist.chunks_mut(p).zip(next.chunks_mut(p)) {
                let (Some(&dqk), Some(&hop)) = (dist_q.get(k), next_q.get(k)) else {
                    continue;
                };
                if !dqk.is_finite() {
                    continue;
                }
                for ((d, n), &dkr) in dist_q.iter_mut().zip(next_q.iter_mut()).zip(&via) {
                    let alt = dqk + dkr;
                    if alt < *d {
                        *d = alt;
                        *n = hop;
                    }
                }
            }
        }
        let mut table = RoutingTable {
            p,
            dist,
            next,
            last: Vec::with_capacity(p * p),
            max_hops: 1,
        };
        // walk every route once for its final hop and its length
        for q in platform.procs() {
            for r in platform.procs() {
                let (mut prev, mut cur, mut hops) = (q, q, 0);
                while let Some(to) = table.first_hop(cur, r).filter(|_| hops < p) {
                    (prev, cur, hops) = (cur, to, hops + 1);
                }
                let last = match (q == r, cur == r) {
                    (true, _) => 0.0,
                    (false, true) => platform.link(prev, r),
                    (false, false) => f64::INFINITY,
                };
                table.last.push(last);
                table.max_hops = table.max_hops.max(hops);
            }
        }
        table
    }

    /// Total per-item latency of the static route from `q` to `r`
    /// (`+∞` if disconnected, 0 if `q == r`).
    #[inline]
    pub fn route_latency(&self, q: ProcId, r: ProcId) -> f64 {
        self.dist
            .get(q.index() * self.p + r.index())
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Per-item latency of the static route's final hop, the one into `r`
    /// (`+∞` if disconnected, 0 if `q == r`). Every message routed from
    /// `q` occupies `r`'s receive port for `data` times this.
    #[inline]
    pub fn last_hop_latency(&self, q: ProcId, r: ProcId) -> f64 {
        self.last
            .get(q.index() * self.p + r.index())
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// The number of hops on the longest route (at least 1; exactly 1 on
    /// a fully connected platform).
    #[inline]
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// Whether `r` is reachable from `q`.
    #[inline]
    pub fn reachable(&self, q: ProcId, r: ProcId) -> bool {
        self.route_latency(q, r).is_finite()
    }

    /// The first hop on the static route from `q` towards `r`
    /// (`None` when `q == r` or `r` is unreachable).
    #[inline]
    pub fn first_hop(&self, q: ProcId, r: ProcId) -> Option<ProcId> {
        if q == r {
            return None;
        }
        self.next
            .get(q.index() * self.p + r.index())
            .filter(|&&next| next != u32::MAX)
            .map(|&next| ProcId(next))
    }

    /// The sequence of hops `(from, to)` of the static route from `q` to `r`.
    /// Empty when `q == r`; `None` when disconnected.
    pub fn path(&self, q: ProcId, r: ProcId) -> Option<Vec<(ProcId, ProcId)>> {
        if !self.reachable(q, r) {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = q;
        while let Some(next) = self.first_hop(cur, r).filter(|_| hops.len() < self.p) {
            hops.push((cur, next));
            cur = next;
        }
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;

    /// Line topology 0 - 1 - 2 with unit links, no direct 0-2 link.
    fn line3() -> Platform {
        let inf = f64::INFINITY;
        let link = vec![
            0.0, 1.0, inf, //
            1.0, 0.0, 1.0, //
            inf, 1.0, 0.0,
        ];
        Platform::new(vec![1.0; 3], link).unwrap()
    }

    #[test]
    fn direct_links_route_directly() {
        let p = Platform::paper();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.route_latency(ProcId(0), ProcId(9)), 1.0);
        assert_eq!(
            rt.path(ProcId(0), ProcId(9)).unwrap(),
            vec![(ProcId(0), ProcId(9))]
        );
    }

    #[test]
    fn line_routes_through_middle() {
        let p = line3();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.route_latency(ProcId(0), ProcId(2)), 2.0);
        assert_eq!(
            rt.path(ProcId(0), ProcId(2)).unwrap(),
            vec![(ProcId(0), ProcId(1)), (ProcId(1), ProcId(2))]
        );
    }

    #[test]
    fn self_route_is_empty() {
        let p = line3();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.route_latency(ProcId(1), ProcId(1)), 0.0);
        assert_eq!(rt.path(ProcId(1), ProcId(1)).unwrap(), Vec::new());
    }

    #[test]
    fn disconnected_is_unreachable() {
        let inf = f64::INFINITY;
        let link = vec![0.0, inf, inf, 0.0];
        let p = Platform::new(vec![1.0, 1.0], link).unwrap();
        let rt = RoutingTable::new(&p);
        assert!(!rt.reachable(ProcId(0), ProcId(1)));
        assert_eq!(rt.path(ProcId(0), ProcId(1)), None);
        assert_eq!(p.first_unreachable(), Some((ProcId(0), ProcId(1))));
        assert_eq!(rt.first_hop(ProcId(0), ProcId(1)), None);
    }

    #[test]
    fn connected_platforms_have_no_unreachable_pair() {
        let p = line3();
        assert_eq!(p.first_unreachable(), None);
        // the O(p²) search agrees with the route table
        assert!(p
            .procs()
            .all(|q| p.procs().all(|r| p.routes().reachable(q, r))));
    }

    #[test]
    fn first_hop_walks_the_route() {
        let rt = RoutingTable::new(&line3());
        // chaining first_hop reproduces the full path
        let mut hops = Vec::new();
        let mut cur = ProcId(0);
        while let Some(next) = rt.first_hop(cur, ProcId(2)) {
            hops.push((cur, next));
            cur = next;
        }
        assert_eq!(hops, rt.path(ProcId(0), ProcId(2)).unwrap());
        assert_eq!(rt.first_hop(ProcId(0), ProcId(2)), Some(ProcId(1)));
        assert_eq!(rt.first_hop(ProcId(1), ProcId(1)), None);
    }

    #[test]
    fn last_hop_is_the_link_into_the_receiver() {
        // 0 -> 1 costs 1, 1 -> 0 costs 5: on a direct link the last hop is
        // the whole route
        let p = Platform::new(vec![1.0, 1.0], vec![0.0, 1.0, 5.0, 0.0]).unwrap();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.last_hop_latency(ProcId(1), ProcId(0)), 5.0);
        assert_eq!(rt.last_hop_latency(ProcId(0), ProcId(1)), 1.0);
        assert_eq!(rt.last_hop_latency(ProcId(0), ProcId(0)), 0.0);
        assert_eq!(rt.max_hops(), 1);
        // on a 0 - 1 - 2 line with a slow 1 -> 2 link, 0 reaches 2 through 1
        let inf = f64::INFINITY;
        let link = vec![
            0.0, 1.0, inf, //
            1.0, 0.0, 3.0, //
            inf, 1.0, 0.0,
        ];
        let line = RoutingTable::new(&Platform::new(vec![1.0; 3], link).unwrap());
        assert_eq!(line.route_latency(ProcId(0), ProcId(2)), 4.0);
        assert_eq!(line.last_hop_latency(ProcId(0), ProcId(2)), 3.0);
        assert_eq!(line.last_hop_latency(ProcId(2), ProcId(0)), 1.0);
        assert_eq!(line.max_hops(), 2);
        // disconnected pairs have no last hop
        let cut = Platform::new(vec![1.0, 1.0], vec![0.0, inf, inf, 0.0]).unwrap();
        assert_eq!(
            RoutingTable::new(&cut).last_hop_latency(ProcId(0), ProcId(1)),
            inf
        );
    }

    #[test]
    fn asymmetric_links_respected() {
        // 0 -> 1 costs 1, 1 -> 0 costs 5.
        let link = vec![0.0, 1.0, 5.0, 0.0];
        let p = Platform::new(vec![1.0, 1.0], link).unwrap();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.route_latency(ProcId(0), ProcId(1)), 1.0);
        assert_eq!(rt.route_latency(ProcId(1), ProcId(0)), 5.0);
    }

    #[test]
    fn routing_prefers_cheap_detour() {
        // direct 0 -> 2 costs 10, through 1 costs 2; the missing 2 -> 0
        // link is what makes the table search for routes at all
        let inf = f64::INFINITY;
        let link = vec![
            0.0, 1.0, 10.0, //
            1.0, 0.0, 1.0, //
            inf, 1.0, 0.0,
        ];
        let p = Platform::new(vec![1.0; 3], link).unwrap();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.route_latency(ProcId(0), ProcId(2)), 2.0);
        assert_eq!(rt.path(ProcId(0), ProcId(2)).unwrap().len(), 2);
        assert_eq!(rt.route_latency(ProcId(2), ProcId(0)), 2.0);
    }

    #[test]
    fn fully_connected_platforms_route_directly_even_past_a_cheaper_detour() {
        // the same costs with every link present: each pair keeps its
        // direct link, as the paper's one-port model places every message
        let link = vec![
            0.0, 1.0, 10.0, //
            1.0, 0.0, 1.0, //
            10.0, 1.0, 0.0,
        ];
        let p = Platform::new(vec![1.0; 3], link).unwrap();
        let rt = RoutingTable::new(&p);
        assert_eq!(rt.route_latency(ProcId(0), ProcId(2)), 10.0);
        assert_eq!(rt.last_hop_latency(ProcId(0), ProcId(2)), 10.0);
        assert_eq!(
            rt.path(ProcId(0), ProcId(2)).unwrap(),
            vec![(ProcId(0), ProcId(2))]
        );
        assert_eq!(rt.max_hops(), 1);
    }
}
