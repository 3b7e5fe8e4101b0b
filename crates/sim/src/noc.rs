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
//!
//! Messages in flight live on two calendar wheels, one per direction
//! (see `Wheel`): each cycle's deliveries are one slot's list, so the
//! simulator drains a single slot per cycle instead of polling every
//! destination's queue.

use crate::config::{NocConfig, SystemConfig};
use crate::pool::{ReqHandle, ReqPool};
use crate::types::{Cycle, MemResp, SliceId};

/// End of an arena list.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node<P> {
    next: u32,
    dest: u32,
    payload: P,
}

/// A calendar wheel of messages in flight towards a set of
/// destinations.
///
/// Slot `at & (W - 1)` lists the messages arriving at cycle `at`, in
/// send order, so a destination sees its messages by arrival time and
/// FIFO among equal arrivals — the order a per-destination queue kept
/// sorted by a stable insert would give. Correct as long as every live
/// message arrives within `W` cycles of the earliest one still pending
/// (the owner sizes `W` from the configuration's latency horizon and
/// drains each slot at its cycle; debug builds check both).
///
/// Storage is flat and fixed-size, so cloning (snapshots, forks) keeps
/// every buffer's size and a resumed run never allocates: list nodes
/// live in one arena with an intrusive free list, preallocated to the
/// in-flight bound (and grown only if a run exceeds it); a per-
/// destination bitmask with one bit per slot answers "next arrival" in
/// O(1) for the usual single-word wheel.
#[derive(Clone)]
struct Wheel<P: Copy + Default> {
    /// `W - 1`; `W` is a power of two, at least 64.
    mask: usize,
    /// `W / 64`: bitmask words per destination.
    words: usize,
    /// First and last arena node of each slot's list.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Destination `d`'s slot occupancy, words `d * words ..`.
    bits: Vec<u64>,
    nodes: Vec<Node<P>>,
    /// Head of the arena's free list.
    free: u32,
    /// Arrival cycle of each occupied slot (window-overrun check).
    #[cfg(debug_assertions)]
    slot_at: Vec<Cycle>,
}

impl<P: Copy + Default> Wheel<P> {
    /// A wheel for `dests` destinations whose messages arrive at most
    /// `horizon` cycles after the earliest pending one, with `capacity`
    /// preallocated message nodes.
    fn new(dests: usize, horizon: u64, capacity: usize) -> Self {
        let slots = (horizon as usize + 1).next_power_of_two().max(64);
        let words = slots / 64;
        let capacity = capacity.max(1);
        let nodes = (0..capacity)
            .map(|i| Node {
                next: if i + 1 < capacity { i as u32 + 1 } else { NIL },
                dest: 0,
                payload: P::default(),
            })
            .collect();
        Wheel {
            mask: slots - 1,
            words,
            head: vec![NIL; slots],
            tail: vec![NIL; slots],
            bits: vec![0; dests * words],
            nodes,
            free: 0,
            #[cfg(debug_assertions)]
            slot_at: vec![0; slots],
        }
    }

    /// Queues `payload` for `dest`, arriving at cycle `at`.
    #[inline]
    fn push(&mut self, dest: usize, at: Cycle, payload: P) {
        let slot = at as usize & self.mask;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.head[slot] == NIL || self.slot_at[slot] == at,
                "NoC wheel overrun: arrival {at} shares a slot with {}",
                self.slot_at[slot]
            );
            self.slot_at[slot] = at;
        }
        let node = Node {
            next: NIL,
            dest: dest as u32,
            payload,
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        match self.tail[slot] {
            NIL => self.head[slot] = n,
            t => self.nodes[t as usize].next = n,
        }
        self.tail[slot] = n;
        self.bits[dest * self.words + slot / 64] |= 1 << (slot % 64);
    }

    /// Hands every message arriving at cycle `at` to `deliver(dest,
    /// payload)`, in send order, and empties the slot.
    #[inline]
    fn drain(&mut self, at: Cycle, mut deliver: impl FnMut(usize, P)) {
        let slot = at as usize & self.mask;
        let first = self.head[slot];
        if first == NIL {
            return;
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.slot_at[slot], at, "NoC wheel slot drained late");
        self.head[slot] = NIL;
        self.tail[slot] = NIL;
        let (word, clear) = (slot / 64, !(1u64 << (slot % 64)));
        let mut n = first;
        loop {
            let node = self.nodes[n as usize];
            self.bits[node.dest as usize * self.words + word] &= clear;
            deliver(node.dest as usize, node.payload);
            if node.next == NIL {
                break;
            }
            n = node.next;
        }
        // Splice the whole list onto the free list (LIFO reuse keeps
        // the hot nodes in cache).
        self.nodes[n as usize].next = self.free;
        self.free = first;
    }

    /// Earliest arrival for `dest`, given that every pending message
    /// arrives in `[from, from + W)`.
    #[inline]
    fn next_arrival(&self, dest: usize, from: Cycle) -> Option<Cycle> {
        let start = from as usize & self.mask;
        let bits = &self.bits[dest * self.words..(dest + 1) * self.words];
        if let [word] = bits {
            return match *word {
                0 => None,
                w => Some(from + u64::from(w.rotate_right(start as u32).trailing_zeros())),
            };
        }
        // Multiword: the start word from `start` up, the other words in
        // ring order, then the start word below `start`.
        let (w0, b0) = (start / 64, start % 64);
        let high = !0u64 << b0;
        for i in 0..=self.words {
            let w = (w0 + i) % self.words;
            let m = match i {
                0 => bits[w] & high,
                _ if i == self.words => bits[w] & !high,
                _ => bits[w],
            };
            if m != 0 {
                let slot = w * 64 + m.trailing_zeros() as usize;
                return Some(from + (slot.wrapping_sub(start) & self.mask) as u64);
            }
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Delay pipe carrying requests to slices and responses to cores.
#[derive(Clone)]
pub struct Noc {
    to_slice: Wheel<ReqHandle>,
    to_core: Wheel<MemResp>,
    /// Request latency per (core, slice) pair (row-major by core).
    req_lat: Vec<u64>,
    /// Response latency per (core, slice) pair.
    resp_lat: Vec<u64>,
    num_slices: usize,
}

impl Noc {
    /// The interconnect of `cfg`, with room for `in_flight` messages
    /// per direction before its arenas grow.
    ///
    /// Wheel horizons: a request travels at most the largest request
    /// latency; a response leaves its slice at most `data_latency`
    /// cycles after the tick that produced it, plus the largest
    /// response latency.
    pub fn new(cfg: &SystemConfig, in_flight: usize) -> Self {
        let (num_cores, num_slices) = (cfg.num_cores, cfg.l2.num_slices);
        let noc = cfg.noc;
        let mut req_lat = vec![0; num_cores * num_slices];
        let mut resp_lat = vec![0; num_cores * num_slices];
        for c in 0..num_cores {
            for s in 0..num_slices {
                let hops = if noc.mesh {
                    Self::hops(c, s, num_cores, num_slices)
                } else {
                    0
                };
                req_lat[c * num_slices + s] = noc.req_base + noc.hop_latency * hops;
                resp_lat[c * num_slices + s] = noc.resp_base + noc.hop_latency * hops;
            }
        }
        let req_horizon = req_lat.iter().copied().max().unwrap_or(0).max(1);
        let resp_horizon = cfg.l2.data_latency + resp_lat.iter().copied().max().unwrap_or(0);
        Noc {
            to_slice: Wheel::new(num_slices, req_horizon, in_flight),
            to_core: Wheel::new(num_cores, resp_horizon, in_flight),
            req_lat,
            resp_lat,
            num_slices,
        }
    }

    /// XY hop count between core `c` (on a square-ish grid) and slice `s`
    /// (in a row below the grid, spread evenly).
    fn hops(c: usize, s: usize, num_cores: usize, num_slices: usize) -> u64 {
        let (w, h) = Self::grid(num_cores);
        let (cx, cy) = (c % w, c / w);
        let sx = if num_slices >= w {
            s * w / num_slices
        } else {
            s * w / num_slices + w / (2 * num_slices.max(1))
        };
        let sy = h; // one row below the cores
        (cx.abs_diff(sx) + cy.abs_diff(sy)) as u64
    }

    /// The core grid's width and height.
    fn grid(num_cores: usize) -> (usize, usize) {
        let w = (num_cores as f64).sqrt().ceil() as usize;
        (w, num_cores.div_ceil(w))
    }

    /// An upper bound on the largest (core, slice) latency of `noc`
    /// with base latency `base` (`None` on overflow); every hop count is
    /// at most the grid's width plus its height.
    pub(crate) fn latency_bound(noc: &NocConfig, base: u64, num_cores: usize) -> Option<u64> {
        if !noc.mesh {
            return Some(base);
        }
        let (w, h) = Self::grid(num_cores.max(1));
        noc.hop_latency
            .checked_mul((w + h) as u64)?
            .checked_add(base)
    }

    /// Request latency for a (core, slice) pair.
    pub fn req_latency(&self, core: usize, slice: SliceId) -> u64 {
        self.req_lat[core * self.num_slices + slice]
    }

    /// Response latency for a (core, slice) pair.
    pub fn resp_latency(&self, core: usize, slice: SliceId) -> u64 {
        self.resp_lat[core * self.num_slices + slice]
    }

    /// Sends a pooled request towards `slice` from a core's tick at
    /// `now`; it is delivered after the pair latency, and never before
    /// the next cycle's delivery phase (this cycle's has run). Returns
    /// the delivery cycle (the event-driven scheduler uses it to wake
    /// the receiving slice).
    ///
    /// The clamp cannot reorder a slice's arrivals: every mesh pair is
    /// at least one hop apart, so a latency is zero only when the base
    /// is zero and hops add nothing (no mesh, or a zero hop latency),
    /// which makes every pair's latency zero.
    #[inline]
    pub fn send_req(&mut self, slice: SliceId, h: ReqHandle, now: Cycle, pool: &ReqPool) -> Cycle {
        let at = (now + self.req_latency(pool.get(h).core, slice)).max(now + 1);
        self.to_slice.push(slice, at, h);
        at
    }

    /// Sends a response towards its core, arriving after the pair
    /// latency beyond `ready_at` (which already includes data latency).
    /// Returns the arrival cycle, which may be the current one: the
    /// cores' delivery phase runs after the slices'.
    #[inline]
    pub fn send_resp(&mut self, slice: SliceId, resp: MemResp, ready_at: Cycle) -> Cycle {
        let at = ready_at + self.resp_latency(resp.core, slice);
        self.to_core.push(resp.core, at, resp);
        at
    }

    /// Earliest pending request arrival for `slice`; every pending
    /// request must arrive at or after `from`.
    #[inline]
    pub fn next_req_arrival(&self, slice: SliceId, from: Cycle) -> Option<Cycle> {
        self.to_slice.next_arrival(slice, from)
    }

    /// Earliest pending response arrival for `core`; every pending
    /// response must arrive at or after `from`.
    #[inline]
    pub fn next_resp_arrival(&self, core: usize, from: Cycle) -> Option<Cycle> {
        self.to_core.next_arrival(core, from)
    }

    /// Delivers every request arriving at `now` as `deliver(slice,
    /// handle)`, in send order. Must run at every cycle that has
    /// arrivals, before any send of that cycle.
    #[inline]
    pub fn drain_reqs(&mut self, now: Cycle, deliver: impl FnMut(SliceId, ReqHandle)) {
        self.to_slice.drain(now, deliver);
    }

    /// Delivers every response arriving at `now` as `deliver(core,
    /// resp)`, in send order. Must run at every cycle that has
    /// arrivals, after that cycle's response sends.
    #[inline]
    pub fn drain_resps(&mut self, now: Cycle, deliver: impl FnMut(usize, MemResp)) {
        self.to_core.drain(now, deliver);
    }

    /// True when no messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.to_slice.is_empty() && self.to_core.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::types::MemReq;
    use proptest::prelude::*;

    fn cfg_uniform(lat: u64, num_cores: usize, num_slices: usize) -> SystemConfig {
        let mut cfg = SystemConfig::table5();
        cfg.num_cores = num_cores;
        cfg.l2.num_slices = num_slices;
        cfg.noc = NocConfig {
            req_base: lat,
            resp_base: lat,
            hop_latency: 1,
            mesh: false,
        };
        cfg
    }

    fn cfg_mesh(base: u64, hop_latency: u64) -> SystemConfig {
        let mut cfg = SystemConfig::table5();
        cfg.noc = NocConfig {
            req_base: base,
            resp_base: base,
            hop_latency,
            mesh: true,
        };
        cfg
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

    fn drained_reqs(noc: &mut Noc, now: Cycle) -> Vec<(SliceId, ReqHandle)> {
        let mut out = Vec::new();
        noc.drain_reqs(now, |s, h| out.push((s, h)));
        out
    }

    #[test]
    fn request_arrives_after_latency() {
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(&cfg_uniform(6, 1, 2), 4);
        let h = req(&mut pool, 42, 0);
        assert_eq!(noc.send_req(1, h, 10, &pool), 16);
        assert_eq!(noc.next_req_arrival(1, 11), Some(16));
        assert_eq!(noc.next_req_arrival(0, 11), None);
        assert!(drained_reqs(&mut noc, 15).is_empty());
        assert_eq!(drained_reqs(&mut noc, 16), vec![(1, h)]);
        assert!(noc.is_idle());
    }

    #[test]
    fn zero_latency_request_is_delivered_next_cycle() {
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(&cfg_uniform(0, 1, 1), 4);
        let h = req(&mut pool, 7, 0);
        assert_eq!(noc.send_req(0, h, 10, &pool), 11);
        assert_eq!(drained_reqs(&mut noc, 11), vec![(0, h)]);
    }

    #[test]
    fn order_is_preserved_for_equal_latency() {
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(&cfg_uniform(3, 1, 1), 4);
        for id in [1, 2, 3] {
            let h = req(&mut pool, id, 0);
            noc.send_req(0, h, 0, &pool);
        }
        let ids: Vec<_> = drained_reqs(&mut noc, 3)
            .into_iter()
            .map(|(_, h)| pool.get(h).id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn responses_route_to_core() {
        let mut noc = Noc::new(&cfg_uniform(5, 2, 1), 4);
        let resp = MemResp {
            id: 9,
            core: 1,
            line_addr: 64,
        };
        assert_eq!(noc.send_resp(0, resp, 20), 25);
        assert_eq!(noc.next_resp_arrival(0, 20), None);
        assert_eq!(noc.next_resp_arrival(1, 20), Some(25));
        let mut got = Vec::new();
        noc.drain_resps(24, |c, r| got.push((c, r.id)));
        assert!(got.is_empty());
        noc.drain_resps(25, |c, r| got.push((c, r.id)));
        assert_eq!(got, vec![(1, 9)]);
        assert!(noc.is_idle());
    }

    #[test]
    fn mesh_latencies_differ_by_placement() {
        let noc = Noc::new(&cfg_mesh(2, 1), 4);
        // Core 0 (top-left) is closer to slice 0 (below-left) than to
        // slice 7 (below-right).
        assert!(noc.req_latency(0, 0) < noc.req_latency(0, 7));
        // And symmetric for the far corner core.
        assert!(noc.req_latency(15, 7) < noc.req_latency(15, 0));
        let bound = Noc::latency_bound(&cfg_mesh(2, 1).noc, 2, 16).unwrap();
        // All latencies at least the base, and within the bound.
        for c in 0..16 {
            for s in 0..8 {
                assert!(noc.req_latency(c, s) >= 3, "base + >=1 hop");
                assert!(noc.req_latency(c, s) <= bound);
            }
        }
    }

    #[test]
    fn mesh_out_of_order_arrivals_are_sorted() {
        let mut pool = ReqPool::default();
        let mut noc = Noc::new(&cfg_mesh(2, 2), 4);
        // Core 3 sits at (3,0): 7 hops from slice 0. Core 12 sits at
        // (0,3): 1 hop. The far core sends first but arrives second.
        assert!(noc.req_latency(3, 0) > noc.req_latency(12, 0));
        let far = req(&mut pool, 1, 3);
        let far_at = noc.send_req(0, far, 0, &pool);
        let near = req(&mut pool, 2, 12);
        let near_at = noc.send_req(0, near, 0, &pool);
        assert_eq!(noc.next_req_arrival(0, 1), Some(near_at));
        assert_eq!(drained_reqs(&mut noc, near_at), vec![(0, near)]);
        assert_eq!(noc.next_req_arrival(0, near_at + 1), Some(far_at));
        assert_eq!(drained_reqs(&mut noc, far_at), vec![(0, far)]);
        assert!(noc.is_idle());
    }

    #[test]
    fn wheel_grows_past_its_preallocated_arena() {
        let mut w = Wheel::<u32>::new(1, 4, 2);
        for p in 0..5 {
            w.push(0, 3, p);
        }
        let mut got = Vec::new();
        w.drain(3, |_, p| got.push(p));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(w.is_empty());
    }

    /// The per-destination queue the wheel replaced, kept as the
    /// oracle: arrival cycles kept sorted by a stable insert (FIFO among
    /// equal arrivals), popped while due.
    #[derive(Default)]
    struct SortedLane {
        at: VecDeque<Cycle>,
        payload: VecDeque<u32>,
    }

    impl SortedLane {
        fn insert_sorted(&mut self, at: Cycle, payload: u32) {
            let pos = self.at.partition_point(|&t| t <= at);
            self.at.insert(pos, at);
            self.payload.insert(pos, payload);
        }

        fn pop_due(&mut self, now: Cycle) -> Option<u32> {
            if *self.at.front()? <= now {
                self.at.pop_front();
                self.payload.pop_front()
            } else {
                None
            }
        }
    }

    // Random sends, drains and next-arrival queries against the sorted
    // lanes: each step sends at the current cycle (arrivals up to the
    // horizon ahead, the current cycle included, as responses may),
    // drains the current slot, answers next-arrival queries, sends again
    // for later cycles (as requests do) and jumps ahead — never past a
    // pending arrival, as the engines never skip one. Horizons above 64
    // exercise the multiword masks; long runs wrap the wheel many times.
    proptest! {
        #[test]
        fn wheel_matches_sorted_lanes(
            shape in (1usize..6, 0u64..150, 1usize..40),
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..6, 0u64..1000), 0..6),
                    proptest::collection::vec((0usize..6, 0u64..1000), 0..6),
                    0u64..1000,
                ),
                1..200,
            ),
        ) {
            let (dests, horizon, capacity) = shape;
            let mut wheel = Wheel::<u32>::new(dests, horizon, capacity);
            let mut lanes: Vec<SortedLane> = (0..dests).map(|_| SortedLane::default()).collect();
            let mut now: Cycle = 3;
            let mut next_payload = 0u32;
            for (early, late, jump) in steps {
                let mut send = |wheel: &mut Wheel<u32>, lanes: &mut [SortedLane], d: usize, at: Cycle| {
                    wheel.push(d % dests, at, next_payload);
                    lanes[d % dests].insert_sorted(at, next_payload);
                    next_payload += 1;
                };
                for &(d, x) in &early {
                    send(&mut wheel, &mut lanes, d, now + x % (horizon + 1));
                }
                let mut got: Vec<Vec<u32>> = vec![Vec::new(); dests];
                wheel.drain(now, |d, p| got[d].push(p));
                for (d, lane) in lanes.iter_mut().enumerate() {
                    let want: Vec<u32> = std::iter::from_fn(|| lane.pop_due(now)).collect();
                    prop_assert_eq!(&got[d], &want);
                }
                for (d, lane) in lanes.iter().enumerate() {
                    prop_assert_eq!(wheel.next_arrival(d, now + 1), lane.at.front().copied());
                }
                for &(d, x) in &late {
                    if horizon > 0 {
                        send(&mut wheel, &mut lanes, d, now + 1 + x % horizon);
                    }
                }
                prop_assert_eq!(wheel.is_empty(), lanes.iter().all(|l| l.at.is_empty()));
                let pending = lanes.iter().filter_map(|l| l.at.front().copied()).min();
                let limit = pending.unwrap_or(now + 1 + 3 * horizon) - now;
                now += 1 + jump % limit;
            }
        }
    }
}
