//! Vector core with multiple instruction windows and runtime thread-block
//! scheduling (Section 3.1 of the paper).
//!
//! Each core owns one vector unit, a private L1, and
//! `num_inst_windows` instruction windows. A thread block is assigned to
//! a window; when the current window cannot make progress (its next
//! instruction waits on memory), the core switches to another window —
//! the warp-scheduler-like latency-hiding mechanism the paper models.
//! Throttling limits the number of *resident* thread blocks (`max_tb`);
//! already-running blocks always drain.

use std::collections::VecDeque;

use crate::config::{CoreConfig, L1Config};
use crate::l1::{L1Cache, L1Class, L1LoadOutcome};
use crate::pool::{ReqHandle, ReqPool};
use crate::prog::{FlatProgram, Instr, TbId};
use crate::sched::TbScheduler;
use crate::stats::CoreStats;
use crate::types::{line_of, Addr, CoreId, Cycle, MemReq, MemResp, LINE_BYTES};

/// Sentinel for "no thread block" / "past the end" (see `Window`).
const NONE32: u32 = u32::MAX;

/// One instruction window, packed to 12 bytes so a core's whole window
/// file fits one cache line — the issue loop re-reads it every awake
/// tick. `tb == NONE32` means empty; `pc == NONE32` is the
/// past-the-end sentinel ("all instructions issued, waiting on
/// outstanding loads").
#[derive(Debug, Clone, Copy)]
struct Window {
    tb: u32,
    pc: u32,
    /// Line loads in flight for this window's thread block.
    outstanding: u32,
}

impl Window {
    const EMPTY: Window = Window {
        tb: NONE32,
        pc: 0,
        outstanding: 0,
    };

    #[inline]
    fn tb(&self) -> Option<TbId> {
        (self.tb != NONE32).then_some(self.tb as TbId)
    }
}

/// Why the core could not issue this cycle (used for C_mem / C_idle
/// accounting that feeds the throttle controllers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueResult {
    Issued,
    AllBlockedOnMemory,
    ComputeBusy,
    NothingResident,
}

/// One simulated vector core.
#[derive(Clone)]
pub struct VectorCore {
    id: CoreId,
    cfg: CoreConfig,
    l1: L1Cache,
    windows: Vec<Window>,
    /// Throttle input: maximum resident thread blocks.
    pub max_tb: usize,
    /// Incrementally maintained count of windows holding a thread block
    /// (kept exactly in sync with `windows`; avoids the per-tick scans
    /// the seed paid in `resident_tbs`).
    resident: usize,
    /// A window is finished-but-unretired (pc sentinel reached with no
    /// outstanding loads). Gates the retire scan to the ticks that can
    /// actually retire something.
    retire_pending: bool,
    compute_busy_until: Cycle,
    next_seq: u64,
    last_issued: usize,
    /// All windows proved memory-blocked; nothing can change until a
    /// fill arrives or a new block is assigned, so issue evaluation is
    /// skipped (pure simulation speed-up, no behavioural effect).
    asleep: bool,
    /// Per-issue scratch of line classifications (reused; no per-load
    /// allocation after the first vector access).
    class_scratch: Vec<L1Class>,
    /// Requests bound for the interconnect, as pool handles — the
    /// arena slot is written once here at issue and the 4-byte handle
    /// is what travels (drained by the system).
    pub outbound: VecDeque<ReqHandle>,
    /// Thread blocks retired this tick (drained by the system, which
    /// maps them to serving requests for completion tracking).
    pub retired: Vec<TbId>,
    pub stats: CoreStats,
}

impl VectorCore {
    pub fn new(id: CoreId, cfg: CoreConfig, l1cfg: L1Config) -> Self {
        VectorCore {
            id,
            cfg,
            l1: L1Cache::new(l1cfg),
            windows: vec![Window::EMPTY; cfg.num_inst_windows],
            max_tb: cfg.num_inst_windows,
            resident: 0,
            retire_pending: false,
            compute_busy_until: 0,
            next_seq: 0,
            last_issued: 0,
            asleep: false,
            class_scratch: Vec::with_capacity(8),
            outbound: VecDeque::with_capacity(64),
            retired: Vec::with_capacity(cfg.num_inst_windows),
            stats: CoreStats::default(),
        }
    }

    /// Number of thread blocks currently resident.
    #[inline]
    pub fn resident_tbs(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.windows.iter().filter(|w| w.tb().is_some()).count(),
            "resident counter out of sync"
        );
        self.resident
    }

    /// True when the core holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.resident_tbs() == 0 && self.outbound.is_empty() && self.l1.outstanding() == 0
    }

    fn fresh_id(&mut self) -> u64 {
        let id = ((self.id as u64) << 40) | self.next_seq;
        self.next_seq += 1;
        id
    }

    /// Delivers a fill response from the LLC.
    pub fn on_resp(&mut self, resp: MemResp, now: Cycle) {
        self.asleep = false;
        for &(window, issued_at) in self.l1.fill(resp.line_addr, now) {
            let w = &mut self.windows[window];
            debug_assert!(w.outstanding > 0, "fill for window with no loads");
            w.outstanding = w.outstanding.saturating_sub(1);
            if w.outstanding == 0 && w.pc == NONE32 {
                self.retire_pending = true;
            }
            self.stats.load_latency_sum += now.saturating_sub(issued_at);
            self.stats.load_count += 1;
        }
    }

    /// Advances the core one cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        program: &FlatProgram,
        sched: &mut TbScheduler,
        pool: &mut ReqPool,
    ) {
        if self.asleep {
            // Fast path: every window is waiting on memory and no fill
            // has arrived since; re-evaluating issue would be a no-op.
            // A new block could only be assigned if a window were free,
            // which contradicts being asleep, unless max_tb just rose —
            // handled below by waking on spare window capacity.
            if self.resident_tbs() >= self.max_tb.min(self.cfg.num_inst_windows) || sched.is_empty()
            {
                self.stats.mem_stall_cycles += 1;
                return;
            }
            self.asleep = false;
        }
        self.retire_finished_blocks();
        self.assign_blocks(sched, now);
        match self.try_issue(now, program, pool) {
            IssueResult::Issued => {
                self.stats.active_cycles += 1;
                self.stats.instrs_issued += 1;
            }
            IssueResult::ComputeBusy => {
                self.stats.active_cycles += 1;
            }
            IssueResult::AllBlockedOnMemory => {
                self.stats.mem_stall_cycles += 1;
                // Sleep only if no window is finished-but-unretired; a
                // retirable window must pick up fresh work next cycle.
                self.asleep = !self.retire_pending;
            }
            IssueResult::NothingResident => {
                self.stats.idle_cycles += 1;
            }
        }
    }

    fn retire_finished_blocks(&mut self) {
        if !self.retire_pending {
            return;
        }
        for w in &mut self.windows {
            if let Some(tb) = w.tb() {
                // The pc sentinel marks "past the end, waiting on
                // outstanding loads" — see try_issue.
                if w.pc == NONE32 && w.outstanding == 0 {
                    w.tb = NONE32;
                    w.pc = 0;
                    self.resident -= 1;
                    self.stats.tbs_completed += 1;
                    self.retired.push(tb);
                }
            }
        }
        self.retire_pending = false;
    }

    fn assign_blocks(&mut self, sched: &mut TbScheduler, now: Cycle) {
        let mut resident = self.resident_tbs();
        while resident < self.max_tb.min(self.cfg.num_inst_windows) {
            let Some(slot) = self.windows.iter().position(|w| w.tb == NONE32) else {
                break;
            };
            // Each window draws from its own chunk of the core's trace
            // (window-strided streams; see `sched`).
            let Some(tb) = sched.next_for(self.id, slot, now) else {
                break;
            };
            debug_assert!(tb < NONE32 as usize, "TbId overflows the packed window");
            self.windows[slot] = Window {
                tb: tb as u32,
                pc: 0,
                outstanding: 0,
            };
            self.resident += 1;
            resident += 1;
        }
    }

    fn try_issue(&mut self, now: Cycle, program: &FlatProgram, pool: &mut ReqPool) -> IssueResult {
        if self.resident_tbs() == 0 {
            return IssueResult::NothingResident;
        }
        if self.compute_busy_until > now {
            return IssueResult::ComputeBusy;
        }
        let n = self.windows.len();
        for k in 0..n {
            let wi = (self.last_issued + k) % n;
            if self.try_issue_window(wi, now, program, pool) {
                self.last_issued = wi;
                return IssueResult::Issued;
            }
        }
        // Resident blocks exist but none issued: memory-blocked, or
        // (transiently, at a retire boundary) nothing issuable.
        IssueResult::AllBlockedOnMemory
    }

    /// Issues window `wi`'s next instruction if it can; returns whether
    /// one issued.
    fn try_issue_window(
        &mut self,
        wi: usize,
        now: Cycle,
        program: &FlatProgram,
        pool: &mut ReqPool,
    ) -> bool {
        let w = self.windows[wi];
        let Some(tb) = w.tb() else {
            return false;
        };
        if w.pc == NONE32 {
            // Implicit end-of-block barrier.
            return false;
        }
        let instrs = program.block(tb);
        let request = program.request_of(tb);
        if w.pc as usize >= instrs.len() {
            // Mark completed-pending-loads; retired next tick.
            self.windows[wi].pc = NONE32;
            if w.outstanding == 0 {
                self.retire_pending = true;
            }
            return false;
        }
        match instrs[w.pc as usize] {
            Instr::Compute { cycles } => {
                self.compute_busy_until = now + cycles as u64;
                self.windows[wi].pc += 1;
                true
            }
            Instr::Barrier => {
                let drained = w.outstanding == 0;
                if drained {
                    self.windows[wi].pc += 1;
                }
                drained
            }
            Instr::Load { addr, bytes } => {
                if self.issue_load(wi, addr, bytes, now, request, pool) {
                    self.windows[wi].pc += 1;
                    self.stats.loads += 1;
                    true
                } else {
                    false
                }
            }
            Instr::Store { addr, bytes } => {
                self.issue_store(addr, bytes, now, request, pool);
                self.windows[wi].pc += 1;
                self.stats.stores += 1;
                true
            }
        }
    }

    /// Issues every line of a vector load, or nothing (returns false)
    /// when the L1 miss table cannot accept it.
    ///
    /// Coalesced issue: a read-only classify pass proves every line
    /// admissible, then a commit pass applies the cached
    /// classifications — each line's tag scan and miss-table lookup run
    /// exactly once (the seed's feasibility pass re-ran them both).
    fn issue_load(
        &mut self,
        wi: usize,
        addr: Addr,
        bytes: u32,
        now: Cycle,
        request: u32,
        pool: &mut ReqPool,
    ) -> bool {
        // First pass: feasibility. All lines must be admissible this
        // cycle, else the whole vector access retries (coalesced issue).
        let mut line = line_of(addr);
        let end = addr + bytes as u64;
        self.class_scratch.clear();
        // Dry-run bookkeeping of how many fresh entries we need.
        let mut fresh = 0usize;
        while line < end {
            let class = self.l1.classify(line, fresh);
            match class {
                L1Class::Blocked => return false,
                L1Class::New => fresh += 1,
                _ => {}
            }
            self.class_scratch.push(class);
            line += LINE_BYTES;
        }
        // Second pass: commit the cached classifications (no L1 state
        // changed in between — same cycle, same window).
        let mut line = line_of(addr);
        for k in 0..self.class_scratch.len() {
            let class = self.class_scratch[k];
            self.stats.l1_lookups += 1;
            match self.l1.commit(line, class, wi, now) {
                L1LoadOutcome::Hit => {
                    self.stats.l1_hits += 1;
                }
                L1LoadOutcome::MergedMiss => {
                    self.stats.l1_merges += 1;
                    self.windows[wi].outstanding += 1;
                }
                L1LoadOutcome::NewMiss => {
                    self.windows[wi].outstanding += 1;
                    let id = self.fresh_id();
                    let h = pool.alloc(MemReq {
                        id,
                        core: self.id,
                        request,
                        line_addr: line,
                        is_write: false,
                        issued_at: now,
                    });
                    self.outbound.push_back(h);
                }
                L1LoadOutcome::Blocked => {
                    unreachable!("feasibility pass admitted this line");
                }
            }
            line += LINE_BYTES;
        }
        true
    }

    fn issue_store(
        &mut self,
        addr: Addr,
        bytes: u32,
        now: Cycle,
        request: u32,
        pool: &mut ReqPool,
    ) {
        let mut line = line_of(addr);
        let end = addr + bytes as u64;
        while line < end {
            self.l1.store(line);
            let id = self.fresh_id();
            let h = pool.alloc(MemReq {
                id,
                core: self.id,
                request,
                line_addr: line,
                is_write: true,
                issued_at: now,
            });
            self.outbound.push_back(h);
            line += LINE_BYTES;
        }
    }

    /// Event bound for the fast-forward engine (see
    /// `DESIGN.md`, "The event-bound contract").
    ///
    /// Given the core's post-tick state and `now` = the next cycle to be
    /// executed, returns the first cycle at which `tick` could do
    /// anything beyond the closed-form accrual that [`VectorCore::skip`]
    /// applies. `None` means the core cannot wake itself — only an
    /// external event (a fill via [`VectorCore::on_resp`], or a throttle
    /// decision raising `max_tb`) can change its state, and those arrive
    /// on cycles the system never skips.
    ///
    /// The three quiescent regimes and their per-cycle accruals:
    /// * no resident block and no fetchable work → `idle_cycles`;
    /// * asleep (every window memory-blocked) → `mem_stall_cycles`;
    /// * vector unit busy until `t` → `active_cycles`, event at `t`.
    pub fn next_event(&self, now: Cycle, sched: &TbScheduler) -> Option<Cycle> {
        debug_assert!(self.outbound.is_empty(), "system drains outbound per tick");
        let limit = self.max_tb.min(self.cfg.num_inst_windows);
        if self.resident_tbs() == 0 {
            if sched.has_work_for(self.id, now) {
                return Some(now); // would assign a block next tick
            }
            // Pure idle accrual until a gated request arrives (if ever).
            return sched.next_release_for(self.id, now);
        }
        if self.asleep {
            // tick()'s fast path re-checks this exact condition; if it
            // fails the core wakes and re-assigns next tick.
            if self.resident_tbs() >= limit || sched.is_empty() {
                return None; // pure C_mem accrual
            }
            if sched.has_work_for(self.id, now) {
                return Some(now);
            }
            // Every fetchable front is gated: the woken tick would only
            // re-accrue C_mem and fall back asleep until the earliest
            // release (stat-identical to staying asleep).
            return sched.next_release_for(self.id, now);
        }
        // A finished-but-unretired window retires next tick.
        if self.retire_pending {
            return Some(now);
        }
        // Capacity plus available work: a block would be assigned.
        let release = if self.resident_tbs() < limit {
            if sched.has_work_for(self.id, now) {
                return Some(now);
            }
            // Assignment happens even while the vector unit is busy, so
            // a gated arrival bounds the quiescent window too.
            sched.next_release_for(self.id, now)
        } else {
            None
        };
        if self.compute_busy_until > now {
            // Pure active-cycle accrual until the vector unit frees (or
            // a gated request arrives and would be assigned).
            let busy = self.compute_busy_until;
            return Some(release.map_or(busy, |r| r.min(busy)));
        }
        Some(now)
    }

    /// Fast-forwards `cycles` quiescent cycles, accruing exactly the
    /// statistics the per-cycle [`VectorCore::tick`] would have. Callers
    /// must have validated the window against [`VectorCore::next_event`].
    pub fn skip(&mut self, now: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if self.resident_tbs() == 0 {
            self.stats.idle_cycles += cycles;
        } else if self.asleep {
            self.stats.mem_stall_cycles += cycles;
        } else {
            debug_assert!(
                self.compute_busy_until >= now + cycles,
                "skip window exceeds the compute-busy bound"
            );
            self.stats.active_cycles += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::prog::{Program, ThreadBlock};

    fn setup(blocks: Vec<ThreadBlock>) -> (VectorCore, FlatProgram, TbScheduler, ReqPool) {
        let cfg = SystemConfig::table5();
        let program = Program::round_robin(blocks, 1);
        let sched = TbScheduler::new(&program, 1, 4);
        let core = VectorCore::new(0, cfg.core, cfg.l1);
        (core, FlatProgram::new(&program), sched, ReqPool::default())
    }

    fn load(addr: Addr) -> Instr {
        Instr::Load { addr, bytes: 128 }
    }

    #[test]
    fn executes_compute_only_block() {
        let tb = ThreadBlock {
            instrs: vec![Instr::Compute { cycles: 3 }, Instr::Compute { cycles: 2 }],
        };
        let (mut core, program, mut sched, mut pool) = setup(vec![tb]);
        let mut now = 0;
        while core.stats.tbs_completed == 0 && now < 100 {
            core.tick(now, &program, &mut sched, &mut pool);
            now += 1;
        }
        assert_eq!(core.stats.tbs_completed, 1);
        assert!(core.is_idle());
        assert_eq!(core.stats.instrs_issued, 2);
    }

    #[test]
    fn load_generates_line_requests_and_waits() {
        let tb = ThreadBlock {
            instrs: vec![load(0), Instr::Barrier],
        };
        let (mut core, program, mut sched, mut pool) = setup(vec![tb]);
        for now in 0..5 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        // 128 B vector load = 2 line requests.
        assert_eq!(core.outbound.len(), 2);
        assert_eq!(core.stats.loads, 1);
        assert_eq!(core.stats.tbs_completed, 0, "barrier holds completion");
        assert!(
            core.stats.mem_stall_cycles > 0,
            "C_mem accrues while waiting"
        );
        // Respond to both lines.
        for (i, h) in core
            .outbound
            .drain(..)
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            let req = *pool.get(h);
            pool.release(h);
            core.on_resp(
                MemResp {
                    id: req.id,
                    core: 0,
                    line_addr: req.line_addr,
                },
                10 + i as u64,
            );
        }
        for now in 12..16 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        assert_eq!(core.stats.tbs_completed, 1);
        assert_eq!(core.stats.load_count, 2);
    }

    #[test]
    fn window_switching_hides_latency() {
        // Two blocks, each: load + barrier. With 4 windows the core
        // issues block 2's load while block 1 waits.
        let mk = |addr| ThreadBlock {
            instrs: vec![load(addr), Instr::Barrier],
        };
        let (mut core, program, mut sched, mut pool) = setup(vec![mk(0), mk(4096)]);
        for now in 0..4 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        // Both blocks' loads are in flight concurrently.
        assert_eq!(core.outbound.len(), 4);
        assert_eq!(core.resident_tbs(), 2);
    }

    #[test]
    fn max_tb_limits_residency() {
        let mk = |addr| ThreadBlock {
            instrs: vec![load(addr), Instr::Barrier],
        };
        let blocks: Vec<_> = (0..6).map(|i| mk(i * 4096)).collect();
        let (mut core, program, mut sched, mut pool) = setup(blocks);
        core.max_tb = 1;
        for now in 0..3 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        assert_eq!(core.resident_tbs(), 1, "throttled to one block");
        assert_eq!(core.outbound.len(), 2, "only block 0's lines issued");
    }

    #[test]
    fn store_is_posted() {
        let tb = ThreadBlock {
            instrs: vec![Instr::Store {
                addr: 64,
                bytes: 64,
            }],
        };
        let (mut core, program, mut sched, mut pool) = setup(vec![tb]);
        for now in 0..4 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        assert_eq!(core.stats.stores, 1);
        let h = core.outbound.pop_front().unwrap();
        assert!(pool.get(h).is_write);
        assert_eq!(core.stats.tbs_completed, 1, "no waiting on stores");
    }

    #[test]
    fn idle_cycles_accrue_without_work() {
        let (mut core, program, mut sched, mut pool) = setup(vec![]);
        for now in 0..10 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        assert_eq!(core.stats.idle_cycles, 10);
    }

    #[test]
    fn l1_hit_avoids_traffic() {
        let tb = ThreadBlock {
            instrs: vec![load(0), Instr::Barrier, load(0), Instr::Barrier],
        };
        let (mut core, program, mut sched, mut pool) = setup(vec![tb]);
        for now in 0..5 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        let reqs: Vec<_> = core.outbound.drain(..).collect();
        assert_eq!(reqs.len(), 2);
        for (i, h) in reqs.into_iter().enumerate() {
            let req = *pool.get(h);
            pool.release(h);
            core.on_resp(
                MemResp {
                    id: req.id,
                    core: 0,
                    line_addr: req.line_addr,
                },
                6 + i as u64,
            );
        }
        for now in 8..20 {
            core.tick(now, &program, &mut sched, &mut pool);
        }
        assert_eq!(core.stats.tbs_completed, 1);
        assert_eq!(core.outbound.len(), 0, "second load hits in L1");
        assert_eq!(core.stats.l1_hits, 2);
    }
}
