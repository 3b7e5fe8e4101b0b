//! Interconnect between cores and LLC slices.
//!
//! The paper's target machines (Fig 3) connect cores and LLC slices
//! through a mesh NoC. Latency therefore depends on *placement*: each
//! (core, slice) pair has its own hop count. This asymmetry matters for
//! the workload dynamics — it is one of the physical reasons concurrent
//! cores streaming the same data drift out of lockstep, which is the
//! de-synchronization LLaMCAT's balanced arbitration and throttling
//! fight. A uniform-latency mode is kept for controlled experiments.
//!
//! Topology: cores occupy a `W x H` grid (row-major); slices sit in a
//! row below the core grid, spread evenly. Latency = base + hops (XY
//! routing).

use std::collections::VecDeque;

use crate::config::NocConfig;
use crate::pool::{ReqHandle, ReqPool};
use crate::types::{Cycle, MemResp, SliceId};

/// One direction of lanes in structure-of-arrays form: a ring buffer of
/// arrival cycles (sorted, because every sorted-insert decision reads
/// only this array) parallel to a ring buffer of payloads. The seed's
/// `VecDeque<(Cycle, MemReq)>` moved 48-byte tuples on every sorted
/// insert; here the scan and the shift touch the dense `Cycle` ring,
/// and the payload shift moves 4-byte handles (requests) or 24-byte
/// responses.
#[derive(Debug, Clone)]
struct Lane<P: Copy> {
    at: VecDeque<Cycle>,
    payload: VecDeque<P>,
}

impl<P: Copy> Default for Lane<P> {
    fn default() -> Self {
        // Preallocated to the realistic in-flight high-water mark so
        // steady-state sends never grow the rings.
        Lane {
            at: VecDeque::with_capacity(128),
            payload: VecDeque::with_capacity(128),
        }
    }
}

impl<P: Copy> Lane<P> {
    /// Inserts keeping `at` sorted, stable on ties (FIFO among equal
    /// arrivals — the order the seed's `partition_point` insert
    /// produced).
    #[inline]
    fn insert_sorted(&mut self, at: Cycle, payload: P) {
        let pos = self.at.partition_point(|&t| t <= at);
        self.at.insert(pos, at);
        self.payload.insert(pos, payload);
    }

    #[inline]
    fn front_at(&self) -> Option<Cycle> {
        self.at.front().copied()
    }

    #[inline]
    fn pop_due(&mut self, now: Cycle) -> Option<P> {
        if *self.at.front()? <= now {
            self.at.pop_front();
            self.payload.pop_front()
        } else {
            None
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.at.is_empty()
    }
}

/// Delay pipe carrying requests to slices and responses to cores.
#[derive(Clone)]
pub struct Noc {
    to_slice: Vec<Lane<ReqHandle>>,
    to_core: Vec<Lane<MemResp>>,
    /// Request latency per (core, slice) pair (row-major by core).
    req_lat: Vec<u64>,
    /// Response latency per (core, slice) pair.
    resp_lat: Vec<u64>,
    num_slices: usize,
}

impl Noc {
    pub fn new(cfg: NocConfig, num_cores: usize, num_slices: usize) -> Self {
        let mut req_lat = vec![0; num_cores * num_slices];
        let mut resp_lat = vec![0; num_cores * num_slices];
        for c in 0..num_cores {
            for s in 0..num_slices {
                let hops = if cfg.mesh {
                    Self::hops(c, s, num_cores, num_slices)
                } else {
                    0
                };
                req_lat[c * num_slices + s] = cfg.req_base + cfg.hop_latency * hops;
                resp_lat[c * num_slices + s] = cfg.resp_base + cfg.hop_latency * hops;
            }
        }
        Noc {
            to_slice: vec![Lane::default(); num_slices],
            to_core: vec![Lane::default(); num_cores],
            req_lat,
            resp_lat,
            num_slices,
        }
    }

    /// XY hop count between core `c` (on a square-ish grid) and slice `s`
    /// (in a row below the grid, spread evenly).
    fn hops(c: usize, s: usize, num_cores: usize, num_slices: usize) -> u64 {
        let w = (num_cores as f64).sqrt().ceil() as usize;
        let h = num_cores.div_ceil(w);
        let (cx, cy) = (c % w, c / w);
        let sx = if num_slices >= w {
            s * w / num_slices
        } else {
            s * w / num_slices + w / (2 * num_slices.max(1))
        };
        let sy = h; // one row below the cores
        (cx.abs_diff(sx) + cy.abs_diff(sy)) as u64
    }

    /// Request latency for a (core, slice) pair.
    pub fn req_latency(&self, core: usize, slice: SliceId) -> u64 {
        self.req_lat[core * self.num_slices + slice]
    }

    /// Response latency for a (core, slice) pair.
    pub fn resp_latency(&self, core: usize, slice: SliceId) -> u64 {
        self.resp_lat[core * self.num_slices + slice]
    }

    /// Sends a pooled request towards `slice`, arriving after the pair
    /// latency. Returns the arrival cycle (the event-driven scheduler
    /// uses it to wake the receiving slice).
    pub fn send_req(&mut self, slice: SliceId, h: ReqHandle, now: Cycle, pool: &ReqPool) -> Cycle {
        let at = now + self.req_latency(pool.get(h).core, slice);
        // Distances differ per sender, so arrival times are not
        // monotonic in send order; keep sorted (stable on ties).
        self.to_slice[slice].insert_sorted(at, h);
        at
    }

    /// Sends a response towards its core, arriving after the pair
    /// latency beyond `ready_at` (which already includes data latency).
    /// Returns the arrival cycle.
    pub fn send_resp(&mut self, slice: SliceId, resp: MemResp, ready_at: Cycle) -> Cycle {
        let at = ready_at + self.resp_latency(resp.core, slice);
        self.to_core[resp.core].insert_sorted(at, resp);
        at
    }

    /// Earliest pending request arrival for `slice` (lanes are sorted
    /// by arrival time, so the front is the minimum).
    pub fn next_req_arrival(&self, slice: SliceId) -> Option<Cycle> {
        self.to_slice[slice].front_at()
    }

    /// Earliest pending response arrival for `core`.
    pub fn next_resp_arrival(&self, core: usize) -> Option<Cycle> {
        self.to_core[core].front_at()
    }

    /// Pops the next request due for `slice` at `now`, if any.
    #[inline]
    pub fn pop_due_req(&mut self, slice: SliceId, now: Cycle) -> Option<ReqHandle> {
        self.to_slice[slice].pop_due(now)
    }

    /// Pops the next response due for `core` at `now`, if any.
    #[inline]
    pub fn pop_due_resp(&mut self, core: usize, now: Cycle) -> Option<MemResp> {
        self.to_core[core].pop_due(now)
    }

    /// True when no messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.to_slice.iter().all(|q| q.is_empty()) && self.to_core.iter().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MemReq;

    fn cfg_uniform(lat: u64) -> NocConfig {
        NocConfig {
            req_base: lat,
            resp_base: lat,
            hop_latency: 1,
            mesh: false,
        }
    }

    fn req(pool: &mut ReqPool, id: u64, core: usize) -> ReqHandle {
        pool.alloc(MemReq {
            id,
            core,
            request: 0,
            line_addr: 0,
            is_write: false,
            issued_at: 0,
        })
    }

    #[test]
    fn request_arrives_after_latency() {
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(cfg_uniform(6), 1, 2);
        let h = req(&mut pool, 42, 0);
        noc.send_req(1, h, 10, &pool);
        assert_eq!(noc.pop_due_req(1, 15), None);
        let h = noc.pop_due_req(1, 16).expect("due at 16");
        assert_eq!(pool.get(h).id, 42);
        assert!(noc.is_idle());
    }

    #[test]
    fn order_is_preserved_for_equal_latency() {
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(cfg_uniform(3), 1, 1);
        for (id, at) in [(1, 0), (2, 0), (3, 1)] {
            let h = req(&mut pool, id, 0);
            noc.send_req(0, h, at, &pool);
        }
        let ids: Vec<_> = std::iter::from_fn(|| noc.pop_due_req(0, 100))
            .map(|h| pool.get(h).id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn responses_route_to_core() {
        let mut noc = Noc::new(cfg_uniform(5), 2, 1);
        noc.send_resp(
            0,
            MemResp {
                id: 9,
                core: 1,
                line_addr: 64,
            },
            20,
        );
        assert_eq!(noc.pop_due_resp(0, 100), None);
        assert_eq!(noc.pop_due_resp(1, 24), None);
        assert_eq!(noc.pop_due_resp(1, 25).map(|r| r.id), Some(9));
        assert!(noc.is_idle());
    }

    #[test]
    fn mesh_latencies_differ_by_placement() {
        let cfg = NocConfig {
            req_base: 2,
            resp_base: 2,
            hop_latency: 1,
            mesh: true,
        };
        let noc = Noc::new(cfg, 16, 8);
        // Core 0 (top-left) is closer to slice 0 (below-left) than to
        // slice 7 (below-right).
        assert!(noc.req_latency(0, 0) < noc.req_latency(0, 7));
        // And symmetric for the far corner core.
        assert!(noc.req_latency(15, 7) < noc.req_latency(15, 0));
        // All latencies at least the base.
        for c in 0..16 {
            for s in 0..8 {
                assert!(noc.req_latency(c, s) >= 3, "base + >=1 hop");
            }
        }
    }

    #[test]
    fn mesh_out_of_order_arrivals_are_sorted() {
        let cfg = NocConfig {
            req_base: 2,
            resp_base: 2,
            hop_latency: 2,
            mesh: true,
        };
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(cfg, 16, 8);
        // Core 3 sits at (3,0): 7 hops from slice 0. Core 12 sits at
        // (0,3): 1 hop. The far core sends first but arrives second.
        assert!(noc.req_latency(3, 0) > noc.req_latency(12, 0));
        let far = req(&mut pool, 1, 3);
        noc.send_req(0, far, 0, &pool);
        let near = req(&mut pool, 2, 12);
        noc.send_req(0, near, 0, &pool);
        let first = noc.pop_due_req(0, 1000).expect("two due");
        assert_eq!(pool.get(first).id, 2, "nearer sender arrives first");
        assert!(noc.pop_due_req(0, 1000).is_some());
        assert!(noc.is_idle());
    }
}
