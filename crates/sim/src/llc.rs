//! LLC slice: request queue, arbiter, tag/MSHR pipeline, response queue
//! and the shared storage port (Fig 4 of the paper).
//!
//! Flow of a request (numbers match Fig 4):
//! 1. it arrives from the interconnect into the request queue;
//! 2. the arbiter picks a request and the tag pipeline looks it up
//!    (`hit_latency` cycles); a hit returns to the core after
//!    `data_latency` further cycles;
//! 3. a miss consults the MSHR after `mshr_latency` more cycles: merge,
//!    allocate + fetch from DRAM, or — if neither dimension has space —
//!    stall the whole pipeline (no new arbitration until space frees);
//! 4. (and 4'.) a DRAM fill frees the MSHR entry and forwards data
//!    directly to the waiting cores, while a copy enters the response
//!    queue;
//! 5. when a response dequeues it is written into cache storage
//!    (alloc-on-fill, write-allocate), contending with the request path
//!    for the storage port under the configured request-response policy.
//!
//! Data-oriented hot path (see `DESIGN.md`, "Hot path anatomy"): a
//! request lives in the [`ReqPool`] arena from core issue to
//! hit/MSHR-resolution, and every queue here (`ingress`, `req_q`, the
//! tag and MSHR pipes) moves only its 4-byte [`ReqHandle`]. The slice
//! is generic over its arbiter, so the policy monomorphizes (no
//! virtual dispatch per tick).

use std::collections::VecDeque;

use crate::arb::{ArbiterCtx, PortPreference, RequestArbiter};
use crate::cache::{InsertPolicy, SetAssocCache};
use crate::config::L2Config;
use crate::mshr::{MshrFile, MshrOutcome, MshrTarget};
use crate::pool::{ReqHandle, ReqPool};
use crate::stats::{RequestLlcStats, SliceStats};
use crate::types::{Addr, Cycle, MemResp, SliceId};

/// A request in the tag or MSHR pipeline stage.
#[derive(Debug, Clone, Copy)]
struct PipeEntry {
    h: ReqHandle,
    ready_at: Cycle,
}

/// A response scheduled to leave the slice towards a core.
#[derive(Debug, Clone, Copy)]
pub struct OutboundResp {
    pub at: Cycle,
    pub resp: MemResp,
}

/// A pending DRAM fill that could not yet be processed (response queue
/// full).
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    line_addr: Addr,
}

/// A line waiting in the response queue for its storage write.
#[derive(Debug, Clone, Copy)]
struct RespQEntry {
    line_addr: Addr,
    dirty: bool,
}

/// Why the pipeline is stalled, if it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    None,
    EntryFull,
    TargetFull,
}

/// One slice of the shared L2.
#[derive(Clone)]
pub struct LlcSlice<A: RequestArbiter> {
    id: SliceId,
    cfg: L2Config,
    storage: SetAssocCache,
    mshr: MshrFile,
    arbiter: A,

    /// Requests delivered by the NoC but not yet admitted to the request
    /// queue (models wires/ingress buffering when the queue is full).
    ingress: VecDeque<ReqHandle>,
    /// FIFO-ordered request-queue handles (index 0 oldest). Arbitration
    /// removes from arbitrary positions; `Vec::remove` keeps the order
    /// stable and only shifts 4-byte handles.
    req_q: Vec<ReqHandle>,
    resp_q: VecDeque<RespQEntry>,
    tag_pipe: VecDeque<PipeEntry>,
    mshr_pipe: VecDeque<PipeEntry>,
    pending_fills: VecDeque<PendingFill>,
    /// Reads to dispatch to DRAM as `(line, serving request)` (drained
    /// by the system; the request tag lets the KV tier attribute and
    /// gate KV traffic at the dispatch boundary).
    pub dram_reads: VecDeque<(Addr, u32)>,
    /// Dirty victims to write back to DRAM (drained by the system).
    pub dram_writes: VecDeque<Addr>,
    /// Responses on their way to cores (drained by the system into the NoC).
    pub outbound: VecDeque<OutboundResp>,

    /// Per-core requests served since operator start (Fig 4 `cnt`).
    served: Vec<u64>,
    stall: StallKind,
    /// A standing stall's registration retry is guaranteed to fail
    /// again until a fill mutates the MSHR file (nothing else frees
    /// entries or targets), so the retry is skipped and the stall
    /// counters re-accrued directly. Cleared by `process_fill`.
    stall_sticky: bool,
    /// Data array busy serving a hit readout until this cycle.
    data_port_free_at: Cycle,
    /// Memoized probes of the pipeline heads, shared by `tick`,
    /// `next_event` and `skip` (`None` = not probed in this state):
    /// whether the tag-pipe head's line is in storage, and what MSHR
    /// registration would return for the MSHR-pipe head. Cleared where
    /// their inputs change: popping a pipe head, inserting into storage
    /// (`pop_response`), and registering or completing an MSHR entry.
    /// Pushing onto a pipe needs no clear (an empty pipe has no memo).
    tag_head_hits: Option<bool>,
    mshr_head_outcome: Option<MshrOutcome>,
    pub stats: SliceStats,
    /// Per-serving-request attribution, indexed by request id (grown on
    /// demand; solo traces only ever touch index 0). Every increment
    /// mirrors an untagged `stats` increment at the same pipeline point.
    pub request_stats: Vec<RequestLlcStats>,
    /// Per-request "KV mid-promotion" view, republished by the system
    /// from the KV tier whenever it changes (empty without a tier).
    /// Read-only input to KV-aware arbiters via [`ArbiterCtx`].
    pub kv_busy: Vec<bool>,
}

impl<A: RequestArbiter> LlcSlice<A> {
    pub fn new(id: SliceId, cfg: L2Config, num_cores: usize, arbiter: A) -> Self {
        let sets = cfg.sets_per_slice();
        let index_shift = (cfg.num_slices as u64).trailing_zeros();
        LlcSlice {
            id,
            cfg,
            storage: SetAssocCache::new(sets, cfg.associativity, index_shift),
            mshr: MshrFile::new(cfg.mshr_entries, cfg.mshr_targets),
            arbiter,
            // Preallocated to their realistic high-water marks so the
            // steady-state tick loop never grows a ring (pinned by
            // `tests/alloc_regression.rs`); they still grow if a
            // pathological configuration exceeds these. Ingress models
            // unbounded wires and can absorb most of the machine's
            // in-flight window on one hot slice — the system resizes it
            // to the configuration-derived bound via
            // [`LlcSlice::reserve_ingress`].
            ingress: VecDeque::with_capacity(64),
            req_q: Vec::with_capacity(cfg.req_q_size),
            resp_q: VecDeque::with_capacity(cfg.resp_q_size),
            tag_pipe: VecDeque::with_capacity(64),
            mshr_pipe: VecDeque::with_capacity(64),
            pending_fills: VecDeque::with_capacity(64),
            dram_reads: VecDeque::with_capacity(256),
            dram_writes: VecDeque::with_capacity(256),
            outbound: VecDeque::with_capacity(64),
            served: vec![0; num_cores],
            stall: StallKind::None,
            stall_sticky: false,
            data_port_free_at: 0,
            tag_head_hits: None,
            mshr_head_outcome: None,
            stats: SliceStats::default(),
            request_stats: Vec::new(),
            kv_busy: Vec::new(),
        }
    }

    /// The attribution slot of serving request `r`, grown on demand.
    #[inline]
    fn rstat(&mut self, r: u32) -> &mut RequestLlcStats {
        let idx = r as usize;
        if idx >= self.request_stats.len() {
            self.request_stats
                .resize(idx + 1, RequestLlcStats::default());
        }
        &mut self.request_stats[idx]
    }

    /// Preallocates the ingress ring for `capacity` buffered requests
    /// (the system passes its whole-machine in-flight bound, so a hot
    /// slice absorbing most of the window never grows the ring
    /// mid-run).
    pub fn reserve_ingress(&mut self, capacity: usize) {
        self.ingress
            .reserve(capacity.saturating_sub(self.ingress.capacity()));
    }

    /// Delivers a request from the interconnect.
    pub fn deliver(&mut self, h: ReqHandle) {
        self.ingress.push_back(h);
    }

    /// Delivers a completed DRAM fill.
    pub fn deliver_fill(&mut self, line_addr: Addr) {
        self.pending_fills.push_back(PendingFill { line_addr });
    }

    /// Per-core served counters (progress counters of the paper).
    pub fn served(&self) -> &[u64] {
        &self.served
    }

    /// Resets progress counters and arbiter history at operator start.
    pub fn start_operator(&mut self) {
        self.served.iter_mut().for_each(|c| *c = 0);
        self.arbiter.reset();
    }

    /// Swaps in a fresh arbiter, resetting it exactly as slice
    /// construction plus [`LlcSlice::start_operator`] would. Used by
    /// the snapshot layer to fork one pre-tick base system per policy
    /// cell: the forked slice is byte-identical to one built with this
    /// arbiter from scratch.
    pub fn replace_arbiter(&mut self, arbiter: A) {
        self.arbiter = arbiter;
        self.served.iter_mut().for_each(|c| *c = 0);
        self.arbiter.reset();
    }

    /// True when no work of any kind remains in the slice.
    pub fn is_idle(&self) -> bool {
        self.ingress.is_empty()
            && self.req_q.is_empty()
            && self.resp_q.is_empty()
            && self.tag_pipe.is_empty()
            && self.mshr_pipe.is_empty()
            && self.pending_fills.is_empty()
            && self.dram_reads.is_empty()
            && self.dram_writes.is_empty()
            && self.outbound.is_empty()
            && self.mshr.occupancy() == 0
    }

    /// Advances the slice by one core cycle.
    pub fn tick(&mut self, now: Cycle, pool: &mut ReqPool) {
        // Occupancy statistics (integrals for mean occupancy).
        self.stats.mshr_occupancy_integral += self.mshr.occupancy() as u64;
        self.stats.req_q_occupancy_integral += self.req_q.len() as u64;
        self.stats.resp_q_occupancy_integral += self.resp_q.len() as u64;

        // (4)/(4') Process at most one DRAM fill per cycle.
        self.process_fill(now, pool);

        // MSHR pipeline head: resolves misses, may stall the slice.
        self.advance_mshr_pipe(now, pool);

        // Tag pipeline: classify hits and misses.
        self.advance_tag_pipe(now, pool);

        // Storage port: response path vs request path.
        self.storage_port(now, pool);

        // Admit ingress traffic into the request queue.
        self.drain_ingress();

        self.arbiter.tick();
    }

    fn process_fill(&mut self, now: Cycle, pool: &ReqPool) {
        let Some(&PendingFill { line_addr }) = self.pending_fills.front() else {
            return;
        };
        if self.resp_q.len() >= self.cfg.resp_q_size {
            return; // response queue full: fill waits, MSHR stays occupied
        }
        self.pending_fills.pop_front();
        self.stall_sticky = false;
        // The MSHR file changes, and the replay below may reorder the
        // MSHR pipe and feed the tag pipe.
        self.mshr_head_outcome = None;
        self.tag_head_hits = None;
        let mut dirty = false;
        for t in self.mshr.complete(line_addr).unwrap_or(&[]) {
            if t.is_write {
                dirty = true;
            } else {
                // (4') direct forward to the requesting core.
                self.outbound.push_back(OutboundResp {
                    at: now,
                    resp: MemResp {
                        id: t.req_id,
                        core: t.core,
                        line_addr,
                    },
                });
            }
        }
        // The storage write happens when this response wins the port —
        // at least a cycle away; warm its set row now.
        self.storage.prefetch(line_addr);
        self.resp_q.push_back(RespQEntry { line_addr, dirty });
        self.arbiter.note_fill(line_addr);
        // Replay: misses queued behind the MSHR stage for this very line
        // (typically a request that stalled on a full target list) go
        // back through the tag pipeline — the line is arriving, so they
        // will hit in storage instead of refetching from DRAM. The pipe
        // is partitioned by rotating it in place (pop each entry once,
        // re-push the keepers), which preserves relative order without
        // the per-fill `VecDeque` rebuild the seed allocated here.
        if self
            .mshr_pipe
            .iter()
            .any(|p| pool.get(p.h).line_addr == line_addr)
        {
            for _ in 0..self.mshr_pipe.len() {
                let entry = self.mshr_pipe.pop_front().expect("iterating pipe length");
                if pool.get(entry.h).line_addr == line_addr {
                    self.tag_pipe.push_back(PipeEntry {
                        h: entry.h,
                        ready_at: now + self.cfg.hit_latency,
                    });
                } else {
                    self.mshr_pipe.push_back(entry);
                }
            }
        }
    }

    fn advance_mshr_pipe(&mut self, now: Cycle, pool: &mut ReqPool) {
        let sticky = self.stall_sticky;
        let prior = self.stall;
        self.stall = StallKind::None;
        let Some(head) = self.mshr_pipe.front().copied() else {
            return;
        };
        if head.ready_at > now {
            return;
        }
        if sticky {
            // No fill touched the MSHR since the last failed
            // registration: the retry would fail identically. Re-accrue
            // the same stall counters without the lookup.
            let request = pool.get(head.h).request;
            self.stall = prior;
            self.stats.stall_cycles += 1;
            match prior {
                StallKind::EntryFull => self.stats.stall_entry_full += 1,
                StallKind::TargetFull => self.stats.stall_target_full += 1,
                StallKind::None => unreachable!("sticky stall without a kind"),
            }
            self.rstat(request).stall_cycles += 1;
            return;
        }
        let req = *pool.get(head.h);
        let target = MshrTarget {
            req_id: req.id,
            core: req.core,
            is_write: req.is_write,
        };
        let outcome = self.mshr.register(req.line_addr, target);
        // A failed registration leaves file and head as they were: its
        // outcome is what a probe would say. Success pops the head.
        self.mshr_head_outcome = match outcome {
            MshrOutcome::FullEntries | MshrOutcome::FullTargets => Some(outcome),
            MshrOutcome::Merged | MshrOutcome::Allocated => None,
        };
        match outcome {
            MshrOutcome::Merged => {
                self.mshr_pipe.pop_front();
                pool.release(head.h);
                self.stats.mshr_merges += 1;
                self.stats.misses += 1;
                self.stats.lookups += 1;
                let r = self.rstat(req.request);
                r.mshr_merges += 1;
                r.misses += 1;
                r.lookups += 1;
            }
            MshrOutcome::Allocated => {
                self.mshr_pipe.pop_front();
                pool.release(head.h);
                self.stats.mshr_allocs += 1;
                self.stats.misses += 1;
                self.stats.lookups += 1;
                let r = self.rstat(req.request);
                r.mshr_allocs += 1;
                r.misses += 1;
                r.lookups += 1;
                self.dram_reads.push_back((req.line_addr, req.request));
            }
            MshrOutcome::FullEntries => {
                self.stall = StallKind::EntryFull;
                self.stall_sticky = true;
                self.stats.stall_cycles += 1;
                self.stats.stall_entry_full += 1;
                self.rstat(req.request).stall_cycles += 1;
            }
            MshrOutcome::FullTargets => {
                self.stall = StallKind::TargetFull;
                self.stall_sticky = true;
                self.stats.stall_cycles += 1;
                self.stats.stall_target_full += 1;
                self.rstat(req.request).stall_cycles += 1;
            }
        }
    }

    fn advance_tag_pipe(&mut self, now: Cycle, pool: &mut ReqPool) {
        let Some(head) = self.tag_pipe.front().copied() else {
            return;
        };
        if head.ready_at > now {
            return;
        }
        let req = *pool.get(head.h);
        // A hit readout needs the data port; while it is busy the tag
        // pipe backs up (hit bandwidth is a real, scarce resource).
        // Probe so misses are not blocked by port availability — but
        // only when the port is actually busy (the port-free common
        // case skips the tag scan entirely; `access` below decides).
        if now < self.data_port_free_at && !req.is_write && self.tag_head_in_storage(req.line_addr)
        {
            // The cache cannot accept this hit: a stall in the paper's
            // sense (t_cs counts every cycle the cache pipeline is
            // blocked, whatever the blocked resource is).
            self.stats.stall_cycles += 1;
            self.stats.stall_data_port += 1;
            self.rstat(req.request).stall_cycles += 1;
            return;
        }
        self.tag_pipe.pop_front();
        self.tag_head_hits = None;
        let hit = self.storage.access(req.line_addr, req.is_write);
        if hit {
            pool.release(head.h);
            self.stats.hits += 1;
            self.stats.lookups += 1;
            let r = self.rstat(req.request);
            r.hits += 1;
            r.lookups += 1;
            self.arbiter.note_hit(req.line_addr);
            if !req.is_write {
                self.data_port_free_at = now + self.cfg.hit_occupancy;
                self.outbound.push_back(OutboundResp {
                    at: now + self.cfg.data_latency,
                    resp: MemResp {
                        id: req.id,
                        core: req.core,
                        line_addr: req.line_addr,
                    },
                });
            }
        } else {
            self.mshr_pipe.push_back(PipeEntry {
                h: head.h,
                ready_at: now + self.cfg.mshr_latency,
            });
        }
    }

    fn storage_port(&mut self, now: Cycle, pool: &mut ReqPool) {
        let prefer = self
            .arbiter
            .port_preference(self.req_q.len(), self.resp_q.len(), self.cfg.resp_q_size)
            // Response-queue-first, the policy the paper's experiments
            // use: serve a response whenever one is queued.
            .unwrap_or(if self.resp_q.is_empty() {
                PortPreference::Request
            } else {
                PortPreference::Response
            });
        match prefer {
            PortPreference::Response => {
                if self.pop_response(now) {
                    self.stats.resp_port_cycles += 1;
                } else {
                    self.try_arbitrate(now, pool);
                }
            }
            PortPreference::Request => {
                if !self.try_arbitrate(now, pool) && self.pop_response(now) {
                    self.stats.resp_port_cycles += 1;
                }
            }
        }
    }

    /// (5) Response dequeue: write the line into storage.
    fn pop_response(&mut self, _now: Cycle) -> bool {
        let Some(entry) = self.resp_q.pop_front() else {
            return false;
        };
        self.stats.fills += 1;
        self.tag_head_hits = None;
        if let Some(victim) = self
            .storage
            .insert(entry.line_addr, entry.dirty, InsertPolicy::Mru)
        {
            if victim.dirty {
                self.stats.writebacks += 1;
                self.dram_writes.push_back(victim.line_addr);
            }
        }
        true
    }

    /// (2) Consult the arbiter and start a tag lookup. Returns true if a
    /// request entered the pipeline.
    fn try_arbitrate(&mut self, now: Cycle, pool: &ReqPool) -> bool {
        if self.stall != StallKind::None {
            return false; // MSHR reservation failure stalls the pipeline
        }
        if self.req_q.is_empty() {
            return false;
        }
        let ctx = ArbiterCtx {
            queue: &self.req_q,
            pool,
            mshr: &self.mshr,
            served: &self.served,
            kv_busy: &self.kv_busy,
            cycle: now,
        };
        let Some(idx) = self.arbiter.select(&ctx) else {
            return false;
        };
        debug_assert!(idx < self.req_q.len(), "arbiter returned invalid index");
        let chosen = self.req_q.remove(idx);
        self.served[pool.get(chosen).core] += 1;
        self.stats.req_port_cycles += 1;
        // The tag scan runs `hit_latency` simulated cycles from now —
        // ideal distance to hide the host-memory latency of the set row.
        self.storage.prefetch(pool.get(chosen).line_addr);
        self.tag_pipe.push_back(PipeEntry {
            h: chosen,
            ready_at: now + self.cfg.hit_latency,
        });
        true
    }

    fn drain_ingress(&mut self) {
        while self.req_q.len() < self.cfg.req_q_size {
            let Some(h) = self.ingress.pop_front() else {
                return;
            };
            self.req_q.push(h);
        }
        if !self.ingress.is_empty() {
            self.stats.req_q_rejects += 1;
        }
    }

    /// Whether the MSHR-pipeline head is ready but guaranteed to fail
    /// registration — the stall regime, where every tick accrues stall
    /// counters without changing state (only a fill can clear it, and
    /// fills are never skipped over).
    fn head_stalled(&mut self, now: Cycle, pool: &ReqPool) -> Option<MshrOutcome> {
        let head = self.mshr_pipe.front()?;
        if head.ready_at > now {
            return None;
        }
        let outcome = self.mshr_head_probe(pool.get(head.h).line_addr);
        matches!(outcome, MshrOutcome::FullEntries | MshrOutcome::FullTargets).then_some(outcome)
    }

    /// Whether the tag-pipeline head is ready, would hit, and is blocked
    /// on the busy data port — the other per-cycle stall regime, which
    /// resolves by itself when the port frees.
    fn head_port_blocked(&mut self, now: Cycle, pool: &ReqPool) -> bool {
        let Some(head) = self.tag_pipe.front() else {
            return false;
        };
        if head.ready_at > now || now >= self.data_port_free_at {
            return false;
        }
        let req = pool.get(head.h);
        !req.is_write && self.tag_head_in_storage(req.line_addr)
    }

    /// Whether the tag-pipe head's line (`line`) is in storage,
    /// memoized in `tag_head_hits`.
    fn tag_head_in_storage(&mut self, line: Addr) -> bool {
        match self.tag_head_hits {
            Some(hit) => {
                debug_assert_eq!(hit, self.storage.probe(line), "stale tag head probe");
                hit
            }
            None => *self.tag_head_hits.insert(self.storage.probe(line)),
        }
    }

    /// What MSHR registration would return for the MSHR-pipe head's line
    /// (`line`), memoized in `mshr_head_outcome`.
    fn mshr_head_probe(&mut self, line: Addr) -> MshrOutcome {
        match self.mshr_head_outcome {
            Some(outcome) => {
                debug_assert_eq!(outcome, self.mshr.probe(line), "stale MSHR head probe");
                outcome
            }
            None => *self.mshr_head_outcome.insert(self.mshr.probe(line)),
        }
    }

    /// Event bound for the fast-forward engine (see `DESIGN.md`, "The
    /// event-bound contract").
    ///
    /// Returns the first cycle `>= now` at which `tick` could do
    /// anything beyond the closed-form accrual applied by
    /// [`LlcSlice::skip`]: occupancy integrals, stall counters for a
    /// blocked pipeline head, ingress rejects, and arbiter aging.
    /// `None` means only external events (NoC deliveries, DRAM fills —
    /// both of which the system never skips over) can change the slice.
    pub fn next_event(&mut self, now: Cycle, pool: &ReqPool) -> Option<Cycle> {
        debug_assert!(self.outbound.is_empty(), "system drains outbound per tick");
        // Anything in these queues is acted on (or retried) every cycle.
        if !self.pending_fills.is_empty()
            || !self.resp_q.is_empty()
            || !self.dram_reads.is_empty()
            || !self.dram_writes.is_empty()
        {
            return Some(now);
        }
        let mut ev: Option<Cycle> = None;
        let mut merge = |at: Cycle| {
            ev = Some(ev.map_or(at, |e: Cycle| e.min(at)));
        };
        if let Some(&head) = self.tag_pipe.front() {
            if head.ready_at > now {
                merge(head.ready_at);
            } else if self.head_port_blocked(now, pool) {
                // Pure stall accrual until the data port frees.
                merge(self.data_port_free_at);
            } else {
                return Some(now); // head advances next tick
            }
        }
        if let Some(&head) = self.mshr_pipe.front() {
            if head.ready_at > now {
                merge(head.ready_at);
            } else if self.head_stalled(now, pool).is_some() {
                // Stall accrual; only a fill (an event) can clear it.
            } else {
                return Some(now); // registration succeeds next tick
            }
        }
        if !self.req_q.is_empty() && self.head_stalled(now, pool).is_none() {
            return Some(now); // arbitration can admit a request
        }
        if !self.ingress.is_empty() && self.req_q.len() < self.cfg.req_q_size {
            return Some(now); // ingress drains into the request queue
        }
        if let Some(at) = self.arbiter.next_event(now) {
            if at <= now {
                return Some(now);
            }
            merge(at);
        }
        ev
    }

    /// Fast-forwards `cycles` quiescent cycles, accruing exactly what
    /// the per-cycle [`LlcSlice::tick`] would have: occupancy
    /// integrals, MSHR-reservation stall counters, data-port stall
    /// counters, ingress rejects, and arbiter aging. Callers must have
    /// validated the window against [`LlcSlice::next_event`].
    pub fn skip(&mut self, now: Cycle, cycles: u64, pool: &ReqPool) {
        if cycles == 0 {
            return;
        }
        self.stats.mshr_occupancy_integral += self.mshr.occupancy() as u64 * cycles;
        self.stats.req_q_occupancy_integral += self.req_q.len() as u64 * cycles;
        self.stats.resp_q_occupancy_integral += self.resp_q.len() as u64 * cycles;
        // Stall attribution: a stalled pipeline head cannot change
        // during a validated skip window (registration keeps failing,
        // and only a fill — never skipped over — can unblock it), so
        // every stalled cycle charges the same request the per-cycle
        // tick would have charged.
        if let Some(outcome) = self.head_stalled(now, pool) {
            let head = self.mshr_pipe.front().expect("stalled head");
            let request = pool.get(head.h).request;
            self.stats.stall_cycles += cycles;
            match outcome {
                MshrOutcome::FullEntries => self.stats.stall_entry_full += cycles,
                MshrOutcome::FullTargets => self.stats.stall_target_full += cycles,
                _ => unreachable!("head_stalled returns only Full outcomes"),
            }
            self.rstat(request).stall_cycles += cycles;
        }
        if self.head_port_blocked(now, pool) {
            let head = self.tag_pipe.front().expect("blocked head");
            let request = pool.get(head.h).request;
            self.stats.stall_cycles += cycles;
            self.stats.stall_data_port += cycles;
            self.rstat(request).stall_cycles += cycles;
        }
        if !self.ingress.is_empty() {
            debug_assert!(self.req_q.len() >= self.cfg.req_q_size);
            self.stats.req_q_rejects += cycles;
        }
        self.arbiter.skip(cycles);
    }

    /// Slice id.
    pub fn id(&self) -> SliceId {
        self.id
    }

    /// Current MSHR occupancy (for tests and debugging).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshr.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arb::FifoArbiter;
    use crate::config::SystemConfig;
    use crate::types::{MemReq, LINE_BYTES};

    fn slice_cfg() -> L2Config {
        SystemConfig::table5().l2
    }

    fn mk_slice() -> (LlcSlice<FifoArbiter>, ReqPool) {
        (
            LlcSlice::new(0, slice_cfg(), 4, FifoArbiter),
            ReqPool::default(),
        )
    }

    fn read(pool: &mut ReqPool, id: u64, core: usize, line: u64) -> ReqHandle {
        pool.alloc(MemReq {
            id,
            core,
            request: 0,
            line_addr: line * LINE_BYTES * 8, // keep slice bits constant
            is_write: false,
            issued_at: 0,
        })
    }

    fn run(
        slice: &mut LlcSlice<FifoArbiter>,
        pool: &mut ReqPool,
        from: Cycle,
        cycles: Cycle,
    ) -> Cycle {
        for c in from..from + cycles {
            slice.tick(c, pool);
        }
        from + cycles
    }

    #[test]
    fn miss_allocates_and_dispatches_dram_read() {
        let (mut s, mut pool) = mk_slice();
        let h = read(&mut pool, 1, 0, 1);
        s.deliver(h);
        run(&mut s, &mut pool, 0, 20);
        assert_eq!(s.stats.misses, 1);
        assert_eq!(s.stats.mshr_allocs, 1);
        assert_eq!(s.dram_reads.len(), 1);
        assert_eq!(s.mshr_occupancy(), 1);
        assert_eq!(pool.live(), 0, "handle recycled at MSHR registration");
    }

    #[test]
    fn fill_forwards_directly_and_installs_line() {
        let (mut s, mut pool) = mk_slice();
        let r = read(&mut pool, 7, 2, 3);
        s.deliver(r);
        let now = run(&mut s, &mut pool, 0, 20);
        let (line, _) = s.dram_reads.pop_front().unwrap();
        s.deliver_fill(line);
        let now = run(&mut s, &mut pool, now, 5);
        // Direct forward (4') produced a response for core 2.
        let resp = s.outbound.pop_back().expect("forwarded response");
        assert_eq!(resp.resp.core, 2);
        assert_eq!(resp.resp.id, 7);
        assert_eq!(s.mshr_occupancy(), 0, "MSHR freed at fill");
        // The line is now resident: a second read hits.
        let now = run(&mut s, &mut pool, now, 5);
        let h = read(&mut pool, 8, 1, 3);
        s.deliver(h);
        run(&mut s, &mut pool, now, 40);
        assert_eq!(s.stats.hits, 1);
        assert_eq!(s.stats.fills, 1);
    }

    #[test]
    fn merges_share_one_dram_access() {
        let (mut s, mut pool) = mk_slice();
        for (id, core) in [(1, 0), (2, 1), (3, 2)] {
            let h = read(&mut pool, id, core, 5);
            s.deliver(h);
        }
        run(&mut s, &mut pool, 0, 40);
        assert_eq!(s.stats.mshr_allocs, 1);
        assert_eq!(s.stats.mshr_merges, 2);
        assert_eq!(s.dram_reads.len(), 1, "one fetch serves three requesters");
        let (line, _) = s.dram_reads.pop_front().unwrap();
        s.deliver_fill(line);
        run(&mut s, &mut pool, 40, 5);
        assert_eq!(s.outbound.len(), 3, "every requester gets data");
    }

    #[test]
    fn entry_exhaustion_stalls_pipeline() {
        let (mut s, mut pool) = mk_slice();
        let cfg = slice_cfg();
        // Fill all MSHR entries with distinct lines, then send one more.
        for i in 0..cfg.mshr_entries as u64 + 1 {
            let h = read(&mut pool, i, 0, 10 + i);
            s.deliver(h);
        }
        run(&mut s, &mut pool, 0, 200);
        assert_eq!(s.stats.mshr_allocs, cfg.mshr_entries as u64);
        assert!(s.stats.stall_cycles > 0, "pipeline must stall");
        assert!(s.stats.stall_entry_full > 0);
        assert_eq!(s.mshr_occupancy(), cfg.mshr_entries);
        // A fill releases the stall.
        let (line, _) = s.dram_reads.pop_front().unwrap();
        s.deliver_fill(line);
        run(&mut s, &mut pool, 200, 20);
        assert_eq!(
            s.stats.mshr_allocs,
            cfg.mshr_entries as u64 + 1,
            "stalled miss proceeds after the fill frees an entry"
        );
    }

    #[test]
    fn target_exhaustion_stalls_pipeline() {
        let (mut s, mut pool) = mk_slice();
        let cfg = slice_cfg();
        for i in 0..cfg.mshr_targets as u64 + 1 {
            let h = read(&mut pool, i, (i % 4) as usize, 5);
            s.deliver(h);
        }
        run(&mut s, &mut pool, 0, 300);
        assert_eq!(s.stats.mshr_allocs, 1);
        assert_eq!(s.stats.mshr_merges, cfg.mshr_targets as u64 - 1);
        assert!(s.stats.stall_target_full > 0);
    }

    #[test]
    fn write_miss_fetches_then_dirties() {
        let (mut s, mut pool) = mk_slice();
        let w = pool.alloc(MemReq {
            id: 1,
            core: 0,
            request: 0,
            line_addr: 9 * LINE_BYTES * 8,
            is_write: true,
            issued_at: 0,
        });
        s.deliver(w);
        run(&mut s, &mut pool, 0, 20);
        assert_eq!(s.stats.misses, 1, "write-allocate fetches the line");
        let (line, _) = s.dram_reads.pop_front().unwrap();
        s.deliver_fill(line);
        run(&mut s, &mut pool, 20, 10);
        assert!(s.outbound.is_empty(), "writes are posted: no response");
        // Evict it by filling the set: dirty writeback must appear.
        // (Directly test via invalidate-like path: insert conflicting lines.)
        assert_eq!(s.stats.fills, 1);
    }

    #[test]
    fn hit_latency_plus_data_latency() {
        let (mut s, mut pool) = mk_slice();
        let cfg = slice_cfg();
        let h = read(&mut pool, 1, 0, 4);
        s.deliver(h);
        run(&mut s, &mut pool, 0, 20);
        let (line, _) = s.dram_reads.pop_front().unwrap();
        s.deliver_fill(line);
        let now = run(&mut s, &mut pool, 20, 10);
        s.outbound.clear();
        // Second access hits: response time = arbitration + hit + data.
        let h = read(&mut pool, 2, 0, 4);
        s.deliver(h);
        let start = now;
        let mut resp_at = None;
        for c in now..now + 100 {
            s.tick(c, &mut pool);
            if let Some(o) = s.outbound.front() {
                resp_at = Some(o.at);
                break;
            }
        }
        let resp_at = resp_at.expect("hit response");
        // One cycle ingress + arbitration, hit_latency for tags, then
        // data_latency.
        let min = start + cfg.hit_latency + cfg.data_latency;
        assert!(
            resp_at >= min && resp_at <= min + 4,
            "hit response at {resp_at}, expected near {min}"
        );
    }

    #[test]
    fn served_counters_track_cores() {
        let (mut s, mut pool) = mk_slice();
        for (id, core, line) in [(1, 0, 1), (2, 1, 2), (3, 1, 3)] {
            let h = read(&mut pool, id, core, line);
            s.deliver(h);
        }
        run(&mut s, &mut pool, 0, 50);
        assert_eq!(s.served()[0], 1);
        assert_eq!(s.served()[1], 2);
        s.start_operator();
        assert_eq!(s.served()[1], 0);
    }

    #[test]
    fn req_q_capacity_backpressures_to_ingress() {
        let (mut s, mut pool) = mk_slice();
        let cfg = slice_cfg();
        // MSHR capacity is 6; deliver far more distinct misses at once.
        for i in 0..40u64 {
            let h = read(&mut pool, i, 0, 100 + i);
            s.deliver(h);
        }
        s.tick(0, &mut pool);
        assert!(s.req_q.len() <= cfg.req_q_size);
        run(&mut s, &mut pool, 1, 50);
        assert!(s.stats.req_q_rejects > 0, "ingress should have backed up");
    }
}
