//! Tiered KV-cache memory model below the LLC.
//!
//! LLM serving keeps each request's attention KV blocks in a
//! capacity-limited **warm tier** (GPU/accelerator-local memory) backed
//! by a **slow second tier** (CXL memory or NVMe) holding everything
//! that does not fit — the architecture of LMCache-style multi-tier KV
//! layers. This module models that boundary at the point where it is
//! visible to this simulator: a DRAM read for a KV line may only
//! proceed once its KV block is resident in the warm tier. A cold block
//! must first be *promoted* over a serialized, latency- and
//! bandwidth-limited link with a bounded number of in-flight transfers;
//! reads for a block that is mid-promotion merge into the transfer and
//! wait. Completed promotions evict under a pluggable policy
//! ([`KvEviction`]): plain LRU, or prefix-pinning that protects the
//! cross-request shared-prompt window.
//!
//! ## Address classification
//!
//! The tier never sees instruction streams — it classifies the line
//! addresses the LLC misses on. The trace layer (`llamcat-trace`) lays
//! tensors out at fixed bases inside each request's 2^40-byte VA slot:
//! K at 2^32 and V at 2^36 (each region smaller than the next base).
//! Lines whose in-slot offset falls in either window are per-request KV
//! traffic. Addresses at or above [`SHARED_KV_BASE`] (2^56, above every
//! relocated slot) form the **shared-prefix window**: system-prompt KV
//! reused verbatim across requests, exempt from per-request relocation
//! (`llamcat_trace::mix` carves it out of the VA shift). A test in
//! `llamcat-trace` pins these constants against the trace-side tensor
//! map.
//!
//! ## Event-bound contract
//!
//! The tier is fully timestamped — transfers carry absolute completion
//! cycles, the LRU order is a sequence counter, and nothing accrues
//! per-cycle — so its closed-form `skip` is a no-op and
//! [`KvTier::next_event`] is exact: the earliest in-flight completion,
//! or "now" while released waiters are still draining into DRAM under
//! backpressure. `tests/kv_equiv.rs` pins Skip ≡ Cycle byte-equality
//! with the tier attached, including the per-request KV counters.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::stats::{KvTierStats, RequestKvStats};
use crate::types::{Addr, Cycle, SliceId};

/// Base of the shared-prefix KV window: above every per-request VA slot
/// (requests relocate in 2^40-byte strides), so shared-prompt KV blocks
/// alias across requests instead of relocating with them.
pub const SHARED_KV_BASE: Addr = 1 << 56;

/// Per-request VA slot mask (`llamcat_trace::mix::REQUEST_VA_STRIDE - 1`).
const VA_SLOT_MASK: Addr = (1 << 40) - 1;
/// K-tensor window inside a request's VA slot (trace-side `K_BASE` up
/// to the next tensor base).
const KV_K_WINDOW: std::ops::Range<Addr> = (1 << 32)..(1 << 35);
/// V-tensor window inside a request's VA slot.
const KV_V_WINDOW: std::ops::Range<Addr> = (1 << 36)..(1 << 39);

/// Whether a line address is KV traffic (per-request K/V tensors or the
/// shared-prefix window) and therefore subject to the tier.
#[inline]
pub fn is_kv_addr(addr: Addr) -> bool {
    if addr >= SHARED_KV_BASE {
        return true;
    }
    let off = addr & VA_SLOT_MASK;
    KV_K_WINDOW.contains(&off) || KV_V_WINDOW.contains(&off)
}

/// Eviction policy of the warm tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KvEviction {
    /// Least-recently-used over all warm blocks.
    #[default]
    Lru,
    /// LRU over per-request blocks first; shared-prefix blocks
    /// (at/above [`SHARED_KV_BASE`]) are evicted only when no
    /// per-request block remains.
    PrefixPin,
}

/// Configuration of the tiered KV store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvTierConfig {
    /// Warm-tier capacity in KV blocks.
    pub warm_capacity_blocks: usize,
    /// KV block size in bytes (promotion granularity; multiple of the
    /// line size).
    pub block_bytes: u64,
    /// Slow-tier access latency in core cycles (CXL ~ hundreds, NVMe ~
    /// tens of thousands), paid once per promotion.
    pub slow_latency: Cycle,
    /// Slow-tier link bandwidth in bytes per core cycle; promotions
    /// serialize on the link.
    pub slow_bytes_per_cycle: u64,
    /// Bound on concurrent in-flight promotions; cold reads beyond it
    /// wait at the head of their slice's DRAM queue.
    pub max_inflight: usize,
    pub eviction: KvEviction,
}

impl KvTierConfig {
    /// A CXL-class second tier: 4 KiB blocks, ~300-cycle access
    /// latency, 16 B/cycle link (~31 GB/s at 1.96 GHz), 8 transfers in
    /// flight.
    pub fn cxl(warm_capacity_blocks: usize, eviction: KvEviction) -> Self {
        KvTierConfig {
            warm_capacity_blocks,
            block_bytes: 4096,
            slow_latency: 300,
            slow_bytes_per_cycle: 16,
            max_inflight: 8,
            eviction,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.warm_capacity_blocks == 0 {
            return Err("kv: warm capacity must be at least one block".into());
        }
        if self.block_bytes == 0 || !self.block_bytes.is_multiple_of(crate::types::LINE_BYTES) {
            return Err(format!(
                "kv: block_bytes {} must be a positive multiple of the line size",
                self.block_bytes
            ));
        }
        if self.slow_bytes_per_cycle == 0 {
            return Err("kv: slow-tier bandwidth must be positive".into());
        }
        if self.slow_latency == 0 {
            return Err("kv: slow-tier latency must be at least one cycle".into());
        }
        if self.max_inflight == 0 {
            return Err("kv: max_inflight must be at least one".into());
        }
        Ok(())
    }

    /// Link occupancy of one block transfer.
    fn transfer_cycles(&self) -> Cycle {
        self.block_bytes.div_ceil(self.slow_bytes_per_cycle)
    }
}

/// How the tier disposes of one DRAM read at the head of a slice's
/// dispatch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvClass {
    /// Not KV traffic — dispatch to DRAM unconditionally.
    Bypass,
    /// KV block is warm — dispatch, then report the hit via
    /// [`KvTier::note_hit`].
    Warm,
    /// KV block is mid-promotion — absorb the read as a waiter
    /// ([`KvTier::merge_wait`]).
    Inflight,
    /// KV block is cold — start a promotion ([`KvTier::start_promotion`])
    /// if a transfer slot is free, otherwise retry next cycle.
    Cold,
}

/// A DRAM read parked in the tier until its block's promotion completes.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    line: Addr,
    slice: SliceId,
    request: u32,
}

/// One in-flight promotion.
#[derive(Debug, Clone)]
struct Promotion {
    done_at: Cycle,
    /// Request whose read started the transfer (evictions it later
    /// forces are charged here).
    initiator: u32,
    waiters: Vec<Waiter>,
}

/// The tiered KV store. Owned by [`crate::system::System`]; intercepts
/// the slice→DRAM read path.
#[derive(Clone)]
pub struct KvTier {
    cfg: KvTierConfig,
    /// Monotonic touch sequence backing the LRU order.
    seq: u64,
    /// Warm blocks → last-touch sequence number.
    warm: BTreeMap<Addr, u64>,
    /// In-flight promotions by block base.
    inflight: BTreeMap<Addr, Promotion>,
    /// Earliest `done_at` in `inflight` (`Cycle::MAX` when empty), kept
    /// current by `start_promotion` and `advance`, the only mutations
    /// of `inflight`; makes [`KvTier::next_event`] O(1).
    next_done: Cycle,
    /// The serialized slow-tier link is busy until this cycle.
    link_free_at: Cycle,
    /// Waiters whose promotion completed, draining into DRAM in FIFO
    /// order under channel backpressure.
    ready: VecDeque<Waiter>,
    /// Per-request count of parked reads (waiters + ready); a request
    /// with any is "mid-promotion" for the prefix-aware arbiter.
    busy: Vec<u32>,
    /// Set when `busy` changed; the system re-publishes the boolean
    /// view to the slices before their next arbitration.
    pub busy_dirty: bool,
    pub total: KvTierStats,
    /// Per-request attribution, grown on demand (mirrors `total`).
    pub req_stats: Vec<RequestKvStats>,
    /// Scratch for completion sweeps (kept to avoid per-event allocs).
    due_scratch: Vec<Addr>,
}

impl KvTier {
    pub fn new(cfg: KvTierConfig) -> Self {
        cfg.validate().expect("invalid KV tier configuration");
        KvTier {
            cfg,
            seq: 0,
            warm: BTreeMap::new(),
            inflight: BTreeMap::new(),
            next_done: Cycle::MAX,
            link_free_at: 0,
            ready: VecDeque::with_capacity(64),
            busy: Vec::new(),
            busy_dirty: true,
            total: KvTierStats::default(),
            req_stats: Vec::new(),
            due_scratch: Vec::with_capacity(16),
        }
    }

    /// Pre-sizes per-request state for `n` serving requests.
    pub fn reserve_requests(&mut self, n: usize) {
        if self.busy.len() < n {
            self.busy.resize(n, 0);
        }
        if self.req_stats.len() < n {
            self.req_stats.resize(n, RequestKvStats::default());
        }
    }

    pub fn config(&self) -> &KvTierConfig {
        &self.cfg
    }

    /// Block base containing `addr`.
    #[inline]
    fn block_of(&self, addr: Addr) -> Addr {
        addr - addr % self.cfg.block_bytes
    }

    #[inline]
    fn rstat(&mut self, r: u32) -> &mut RequestKvStats {
        let idx = r as usize;
        if idx >= self.req_stats.len() {
            self.req_stats.resize(idx + 1, RequestKvStats::default());
        }
        &mut self.req_stats[idx]
    }

    #[inline]
    fn busy_slot(&mut self, r: u32) -> &mut u32 {
        let idx = r as usize;
        if idx >= self.busy.len() {
            self.busy.resize(idx + 1, 0);
        }
        &mut self.busy[idx]
    }

    /// Per-request busy view (true = has a read parked in the tier).
    pub fn publish_busy(&self, out: &mut Vec<bool>) {
        out.clear();
        out.extend(self.busy.iter().map(|&c| c > 0));
    }

    /// Classifies the read at the head of a slice's dispatch queue.
    /// Pure — the caller commits via `note_hit` / `merge_wait` /
    /// `start_promotion` once the dispatch decision is final.
    pub fn classify(&self, line: Addr) -> KvClass {
        if !is_kv_addr(line) {
            return KvClass::Bypass;
        }
        let block = self.block_of(line);
        if self.warm.contains_key(&block) {
            KvClass::Warm
        } else if self.inflight.contains_key(&block) {
            KvClass::Inflight
        } else {
            KvClass::Cold
        }
    }

    /// Whether a cold read could start a promotion this cycle.
    pub fn can_start(&self) -> bool {
        self.inflight.len() < self.cfg.max_inflight
    }

    /// Records a warm hit (the read was dispatched to DRAM) and
    /// freshens the block's LRU position.
    pub fn note_hit(&mut self, line: Addr, request: u32) {
        let block = self.block_of(line);
        self.seq += 1;
        let seq = self.seq;
        *self.warm.get_mut(&block).expect("hit on a warm block") = seq;
        self.total.lookups += 1;
        self.total.hits += 1;
        let r = self.rstat(request);
        r.lookups += 1;
        r.hits += 1;
    }

    /// Parks a read behind the block's in-flight promotion.
    pub fn merge_wait(&mut self, line: Addr, request: u32, slice: SliceId) {
        let block = self.block_of(line);
        let w = Waiter {
            line,
            slice,
            request,
        };
        self.inflight
            .get_mut(&block)
            .expect("merge into an in-flight promotion")
            .waiters
            .push(w);
        self.total.lookups += 1;
        self.total.merges += 1;
        let r = self.rstat(request);
        r.lookups += 1;
        r.merges += 1;
        *self.busy_slot(request) += 1;
        self.busy_dirty = true;
    }

    /// Starts promoting a cold block; the read is parked as the first
    /// waiter. The caller checked [`KvTier::can_start`].
    pub fn start_promotion(&mut self, line: Addr, request: u32, slice: SliceId, now: Cycle) {
        debug_assert!(self.can_start(), "transfer queue full");
        let block = self.block_of(line);
        let start = now.max(self.link_free_at);
        let xfer = self.cfg.transfer_cycles();
        self.link_free_at = start + xfer;
        let done_at = start + self.cfg.slow_latency + xfer;
        debug_assert!(done_at > now, "promotions take at least one cycle");
        let prev = self.inflight.insert(
            block,
            Promotion {
                done_at,
                initiator: request,
                waiters: vec![Waiter {
                    line,
                    slice,
                    request,
                }],
            },
        );
        debug_assert!(prev.is_none(), "block was already in flight");
        self.next_done = self.next_done.min(done_at);
        self.total.lookups += 1;
        self.total.misses += 1;
        let r = self.rstat(request);
        r.lookups += 1;
        r.misses += 1;
        *self.busy_slot(request) += 1;
        self.busy_dirty = true;
    }

    /// Completes every promotion due by `now`: installs the block in
    /// the warm tier (evicting under the configured policy) and moves
    /// its waiters to the ready queue. Completions are processed in
    /// block-address order — deterministic and identical in both step
    /// modes, which execute this at the same cycles.
    pub fn advance(&mut self, now: Cycle) {
        if self.next_done > now {
            return; // nothing due (or nothing in flight)
        }
        self.due_scratch.clear();
        self.due_scratch.extend(
            self.inflight
                .iter()
                .filter(|(_, p)| p.done_at <= now)
                .map(|(&b, _)| b),
        );
        for i in 0..self.due_scratch.len() {
            let block = self.due_scratch[i];
            let p = self.inflight.remove(&block).expect("due promotion");
            self.total.promotions += 1;
            self.install_warm(block, p.initiator);
            self.ready.extend(p.waiters);
        }
        self.next_done = self.fresh_next_done();
    }

    /// The earliest in-flight completion, scanned from scratch.
    fn fresh_next_done(&self) -> Cycle {
        self.inflight
            .values()
            .map(|p| p.done_at)
            .min()
            .unwrap_or(Cycle::MAX)
    }

    fn install_warm(&mut self, block: Addr, initiator: u32) {
        self.seq += 1;
        self.warm.insert(block, self.seq);
        while self.warm.len() > self.cfg.warm_capacity_blocks {
            let victim = self.pick_victim().expect("warm tier over capacity");
            self.warm.remove(&victim);
            self.total.evictions += 1;
            self.rstat(initiator).evictions += 1;
        }
    }

    /// LRU victim under the configured policy. The warm set is small
    /// (the warm capacity), so a linear sweep is fine and keeps the
    /// order trivially deterministic.
    fn pick_victim(&self) -> Option<Addr> {
        let lru_of = |shared: Option<bool>| {
            self.warm
                .iter()
                .filter(|(&b, _)| shared.is_none_or(|s| (b >= SHARED_KV_BASE) == s))
                .min_by_key(|&(&b, &s)| (s, b))
                .map(|(&b, _)| b)
        };
        match self.cfg.eviction {
            KvEviction::Lru => lru_of(None),
            KvEviction::PrefixPin => lru_of(Some(false)).or_else(|| lru_of(Some(true))),
        }
    }

    /// Pops the next released waiter once its DRAM read was accepted;
    /// returns the tenant it belonged to.
    pub fn pop_ready(&mut self) -> u32 {
        let w = self.ready.pop_front().expect("ready waiter");
        let slot = self.busy_slot(w.request);
        debug_assert!(*slot > 0, "busy refcount underflow");
        *slot -= 1;
        self.busy_dirty = true;
        w.request
    }

    /// Head of the ready queue as `(line, slice)` for DRAM dispatch.
    pub fn ready_front(&self) -> Option<(Addr, SliceId)> {
        self.ready.front().map(|w| (w.line, w.slice))
    }

    /// True when no promotion is in flight and no released read is
    /// still waiting for a DRAM slot.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.ready.is_empty()
    }

    /// Event bound: the earliest cycle `>= now` at which
    /// [`KvTier::advance`] or the ready-queue drain could do anything.
    /// Never late — transfers carry absolute completion cycles and the
    /// ready queue retries every cycle under DRAM backpressure.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.ready.is_empty() {
            return Some(now);
        }
        debug_assert_eq!(self.next_done, self.fresh_next_done(), "stale KV bound");
        (self.next_done != Cycle::MAX).then(|| self.next_done.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> KvTierConfig {
        KvTierConfig {
            warm_capacity_blocks: 2,
            block_bytes: 256,
            slow_latency: 10,
            slow_bytes_per_cycle: 64,
            max_inflight: 2,
            eviction: KvEviction::Lru,
        }
    }

    const K0: Addr = 1 << 32; // inside the K window

    #[test]
    fn address_classification() {
        assert!(is_kv_addr(1 << 32), "K base");
        assert!(is_kv_addr((1 << 32) + 4096));
        assert!(is_kv_addr(1 << 36), "V base");
        assert!(!is_kv_addr(0x1000_0000), "Q tensor");
        assert!(!is_kv_addr(1 << 35), "score tensor");
        assert!(!is_kv_addr(1 << 39), "output tensor");
        // Relocated request slots keep their classification.
        assert!(is_kv_addr((3 << 40) + (1 << 32)));
        assert!(!is_kv_addr((3 << 40) + 0x1000_0000));
        // The shared-prefix window is KV wherever it lands.
        assert!(is_kv_addr(SHARED_KV_BASE));
        assert!(is_kv_addr(SHARED_KV_BASE + (1 << 52)));
    }

    #[test]
    fn cold_miss_promotes_then_hits() {
        let mut kv = KvTier::new(cfg());
        assert_eq!(kv.classify(K0), KvClass::Cold);
        kv.start_promotion(K0, 0, 0, 0);
        assert_eq!(kv.classify(K0), KvClass::Inflight);
        assert_eq!(kv.classify(K0 + 64), KvClass::Inflight, "same block");
        // latency 10 + ceil(256/64)=4 transfer cycles.
        assert_eq!(kv.next_event(0), Some(14));
        kv.advance(13);
        assert_eq!(kv.classify(K0), KvClass::Inflight, "not done yet");
        kv.advance(14);
        assert_eq!(kv.classify(K0), KvClass::Warm);
        assert_eq!(kv.ready_front(), Some((K0, 0)));
        assert_eq!(kv.pop_ready(), 0);
        assert!(kv.is_idle());
        kv.note_hit(K0 + 64, 0);
        assert_eq!(kv.total.lookups, 2);
        assert_eq!(kv.total.misses, 1);
        assert_eq!(kv.total.hits, 1);
        assert_eq!(kv.total.promotions, 1);
    }

    #[test]
    fn link_serializes_promotions() {
        let mut kv = KvTier::new(cfg());
        kv.start_promotion(K0, 0, 0, 0);
        kv.start_promotion(K0 + 256, 1, 0, 0);
        assert!(!kv.can_start(), "max_inflight reached");
        // Second transfer starts when the link frees at cycle 4:
        // done at 4 + 10 + 4 = 18.
        kv.advance(14);
        assert_eq!(kv.classify(K0), KvClass::Warm);
        assert_eq!(kv.classify(K0 + 256), KvClass::Inflight);
        assert_eq!(kv.next_event(14), Some(14), "ready waiter drains now");
        kv.pop_ready();
        assert_eq!(kv.next_event(15), Some(18));
        kv.advance(18);
        assert_eq!(kv.classify(K0 + 256), KvClass::Warm);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut kv = KvTier::new(cfg()); // capacity 2
        for (i, r) in [(0u64, 0u32), (1, 1), (2, 2)] {
            kv.start_promotion(K0 + i * 256, r, 0, i * 100);
            kv.advance(i * 100 + 1000);
            kv.pop_ready();
        }
        assert_eq!(kv.total.evictions, 1);
        assert_eq!(kv.req_stats[2].evictions, 1, "charged to the promoter");
        assert_eq!(kv.classify(K0), KvClass::Cold, "oldest evicted");
        assert_eq!(kv.classify(K0 + 256), KvClass::Warm);
        // A touch refreshes LRU position.
        kv.note_hit(K0 + 256, 1);
        kv.start_promotion(K0, 0, 0, 10_000);
        kv.advance(20_000);
        kv.pop_ready();
        assert_eq!(kv.classify(K0 + 512), KvClass::Cold, "unfreshed evicted");
        assert_eq!(kv.classify(K0 + 256), KvClass::Warm, "touched survives");
    }

    #[test]
    fn prefix_pin_protects_shared_window() {
        let mut c = cfg();
        c.eviction = KvEviction::PrefixPin;
        let mut kv = KvTier::new(c);
        // Shared-prefix block goes warm first (oldest by LRU).
        kv.start_promotion(SHARED_KV_BASE, 0, 0, 0);
        kv.advance(1000);
        kv.pop_ready();
        for i in 0..2u64 {
            kv.start_promotion(K0 + i * 256, 0, 0, 2000 + i * 1000);
            kv.advance(2000 + i * 1000 + 500);
            kv.pop_ready();
        }
        // Capacity 2, three blocks promoted: the per-request block was
        // evicted even though the shared block is older.
        assert_eq!(kv.classify(SHARED_KV_BASE), KvClass::Warm, "pinned");
        assert_eq!(kv.classify(K0), KvClass::Cold, "unpinned LRU evicted");
        assert_eq!(kv.classify(K0 + 256), KvClass::Warm);
    }

    #[test]
    fn busy_tracks_parked_requests() {
        let mut kv = KvTier::new(cfg());
        kv.reserve_requests(3);
        kv.start_promotion(K0, 1, 0, 0);
        kv.merge_wait(K0 + 64, 2, 3);
        let mut busy = Vec::new();
        kv.publish_busy(&mut busy);
        assert_eq!(busy, vec![false, true, true]);
        kv.advance(14);
        kv.pop_ready();
        kv.pop_ready();
        kv.publish_busy(&mut busy);
        assert_eq!(busy, vec![false, false, false]);
        assert_eq!(kv.total.merges, 1);
    }

    #[test]
    fn config_validation() {
        assert!(KvTierConfig::cxl(64, KvEviction::Lru).validate().is_ok());
        let mut c = cfg();
        c.warm_capacity_blocks = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.block_bytes = 100;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.slow_bytes_per_cycle = 0;
        assert!(c.validate().is_err());
    }
}
