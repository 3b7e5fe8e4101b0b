//! One DRAM channel: request queues, FR-FCFS command scheduling, refresh
//! and data-bus modelling.
//!
//! The controller issues at most one command per DRAM cycle (shared
//! command bus). Reads are prioritized over writes; writes drain in
//! batches governed by high/low watermarks, the standard technique to
//! amortize bus turnarounds. FR-FCFS: column commands to open rows go
//! first (row hits), otherwise the oldest request makes progress through
//! PRE/ACT.

use std::collections::VecDeque;

use crate::config::DramConfig;
use crate::stats::ChannelStats;
use crate::types::{Addr, SliceId};

use super::bank::{Bank, DramCycle, RankTiming};
use super::mapping::DramCoord;

/// A queued DRAM request.
#[derive(Debug, Clone, Copy)]
struct DramQueued {
    line_addr: Addr,
    coord: DramCoord,
    flat_bank: usize,
    slice: SliceId,
    enqueued_at: DramCycle,
    /// An ACT was issued on behalf of this request (row miss).
    saw_act: bool,
    /// A PRE was issued on behalf of this request (row conflict).
    saw_pre: bool,
}

/// A completed read waiting to be handed back to the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReturn {
    pub ready_at: DramCycle,
    pub line_addr: Addr,
    pub slice: SliceId,
}

/// Scheduling mode of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    WriteDrain,
}

/// One DRAM channel with its banks, queues and timing state.
#[derive(Clone)]
pub struct Channel {
    cfg: DramConfig,
    now: DramCycle,
    banks: Vec<Bank>,
    ranks: Vec<RankTiming>,
    read_q: VecDeque<DramQueued>,
    write_q: VecDeque<DramQueued>,
    returns: VecDeque<ReadReturn>,
    mode: Mode,
    /// Earliest cycle the next READ column command may issue.
    next_rd_cmd: DramCycle,
    /// Earliest cycle the next WRITE column command may issue.
    next_wr_cmd: DramCycle,
    /// Cached [`Channel::next_event`] bound, shared by both step modes:
    /// `None` = stale, `Some(DramCycle::MAX)` = no event. While cached
    /// it equals a fresh computation (checked in debug builds). Every
    /// enqueue and every tick that did something clears it; a pure
    /// clock advance (a tick before the bound, or [`Channel::skip`])
    /// keeps it. Cycle mode's `tick` returns early before the bound
    /// instead of rescanning the queues; the Skip planner reads it.
    bound: Option<DramCycle>,
    pub stats: ChannelStats,
}

impl Channel {
    pub fn new(cfg: DramConfig, channel_index: usize) -> Self {
        let banks = (0..cfg.banks_per_channel())
            .map(|_| Bank::default())
            .collect();
        // Stagger refresh across ranks and channels so refreshes do not
        // synchronize system-wide.
        let ranks = (0..cfg.ranks)
            .map(|r| {
                let offset = cfg.timing.trefi * (r + channel_index) as u64 / cfg.ranks as u64;
                RankTiming::new(cfg.timing.trefi + offset)
            })
            .collect();
        Channel {
            cfg,
            now: 0,
            banks,
            ranks,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            returns: VecDeque::new(),
            mode: Mode::Read,
            next_rd_cmd: 0,
            next_wr_cmd: 0,
            bound: None,
            stats: ChannelStats::default(),
        }
    }

    /// Whether the read queue can accept another request.
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.cfg.read_q_size
    }

    /// Whether the write queue can accept another request.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_q_size
    }

    /// Enqueues a read. Returns false if the queue is full.
    ///
    /// If a write to the same line is pending, the read is serviced by
    /// write-queue forwarding: data returns after a fixed short latency
    /// and no DRAM access is made.
    pub fn enqueue_read(&mut self, line_addr: Addr, coord: DramCoord, slice: SliceId) -> bool {
        if self.write_q.iter().any(|w| w.line_addr == line_addr) {
            self.returns.push_back(ReadReturn {
                ready_at: self.now + 4,
                line_addr,
                slice,
            });
            self.bound = None;
            return true;
        }
        if !self.can_accept_read() {
            return false;
        }
        self.bound = None;
        let flat_bank = coord.flat_bank(&self.cfg);
        self.read_q.push_back(DramQueued {
            line_addr,
            coord,
            flat_bank,
            slice,
            enqueued_at: self.now,
            saw_act: false,
            saw_pre: false,
        });
        true
    }

    /// Enqueues a write-back. Returns false if the queue is full.
    pub fn enqueue_write(&mut self, line_addr: Addr, coord: DramCoord) -> bool {
        if !self.can_accept_write() {
            return false;
        }
        self.bound = None;
        let flat_bank = coord.flat_bank(&self.cfg);
        self.write_q.push_back(DramQueued {
            line_addr,
            coord,
            flat_bank,
            slice: usize::MAX,
            enqueued_at: self.now,
            saw_act: false,
            saw_pre: false,
        });
        true
    }

    /// Advances the channel one DRAM cycle, pushing any completed reads
    /// into `out`.
    pub fn tick(&mut self, out: &mut Vec<ReadReturn>) {
        self.now += 1;
        if let Some(bound) = self.bound {
            if self.now < bound {
                // The cached bound (never late) proves this tick can
                // issue no command, refresh, mode flip or return.
                debug_assert_eq!(bound, self.fresh_bound(), "stale DRAM channel bound");
                return;
            }
        }
        let drained = self.drain_returns(out);
        let acted = if self.cfg.refresh && self.try_refresh() {
            true // refresh consumed the command slot
        } else {
            let flipped = self.update_mode();
            // Opportunistic write issue would complicate turnaround
            // accounting; idle cycles are left idle as real
            // read-priority controllers mostly do outside drains.
            let issued = self.try_issue(self.mode == Mode::Read);
            flipped || issued
        };
        self.bound = if drained || acted {
            None
        } else {
            Some(self.fresh_bound())
        };
    }

    /// Current DRAM cycle.
    pub fn now(&self) -> DramCycle {
        self.now
    }

    pub fn read_q_len(&self) -> usize {
        self.read_q.len()
    }

    pub fn write_q_len(&self) -> usize {
        self.write_q.len()
    }

    /// True when no request, return or queued write remains.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.returns.is_empty()
    }

    /// Whether the next tick's `update_mode` would switch scheduling
    /// mode given current queue occupancies.
    fn would_flip_mode(&self) -> bool {
        match self.mode {
            Mode::Read => {
                self.write_q.len() >= self.cfg.write_high_watermark
                    || (self.read_q.is_empty() && !self.write_q.is_empty())
            }
            Mode::WriteDrain => {
                self.write_q.len() <= self.cfg.write_low_watermark
                    && (!self.read_q.is_empty() || self.write_q.is_empty())
            }
        }
    }

    /// Lower bound on the cycle at which a command could issue for
    /// `req` (ignoring competition from other requests, which can only
    /// delay — never advance — the actual issue).
    fn issue_bound(&self, req: &DramQueued, reads: bool) -> DramCycle {
        let t = &self.cfg.timing;
        let bank = &self.banks[req.flat_bank];
        match bank.open_row {
            Some(open) if open == req.coord.row => {
                if reads {
                    self.next_rd_cmd.max(bank.next_rd)
                } else {
                    self.next_wr_cmd.max(bank.next_wr)
                }
            }
            Some(_) => bank.next_pre,
            None => bank
                .next_act
                .max(self.ranks[req.coord.rank].earliest_activate(t)),
        }
    }

    /// Event bound for the fast-forward engine, in DRAM cycles.
    ///
    /// Returns the first DRAM cycle `> now()` whose tick could do
    /// anything other than advance the clock: drain a due return, issue
    /// a refresh, flip the scheduling mode, or issue a command for a
    /// queued request. `None` means the channel is fully drained.
    /// Bounds may be early (the tick then does nothing and a new bound
    /// is computed) but never late.
    ///
    /// Served from the cache when nothing changed since the last
    /// computation (see the `bound` field); recomputed otherwise.
    pub fn next_event(&mut self) -> Option<DramCycle> {
        let bound = match self.bound {
            Some(bound) => {
                debug_assert_eq!(bound, self.fresh_bound(), "stale DRAM channel bound");
                bound
            }
            None => {
                let bound = self.fresh_bound();
                self.bound = Some(bound);
                bound
            }
        };
        (bound != DramCycle::MAX).then_some(bound)
    }

    /// [`Channel::next_event`] computed from scratch, bypassing the
    /// cache (`DramCycle::MAX` = no event). Cost: one pass over the
    /// active queue.
    pub fn fresh_bound(&self) -> DramCycle {
        let lb = self.now + 1;
        let mut ev = DramCycle::MAX;
        let mut merge = |at: DramCycle| ev = ev.min(at.max(lb));
        if let Some(r) = self.returns.front() {
            merge(r.ready_at);
        }
        if self.cfg.refresh {
            for rank in &self.ranks {
                merge(rank.next_refresh);
            }
        }
        if self.would_flip_mode() {
            merge(lb);
        }
        let (queue, reads) = match self.mode {
            Mode::Read => (&self.read_q, true),
            Mode::WriteDrain => (&self.write_q, false),
        };
        for req in queue {
            merge(self.issue_bound(req, reads));
        }
        ev
    }

    /// Fast-forwards `ticks` DRAM cycles during which (per
    /// [`Channel::next_event`]) every tick is a pure clock advance. The
    /// cached bound stays valid.
    pub fn skip(&mut self, ticks: DramCycle) {
        debug_assert!(
            self.fresh_bound() > self.now + ticks,
            "channel skip window crosses an event"
        );
        self.now += ticks;
    }

    /// Hands every due return to `out`; returns whether any was due.
    fn drain_returns(&mut self, out: &mut Vec<ReadReturn>) -> bool {
        let mut drained = false;
        while let Some(front) = self.returns.front() {
            if front.ready_at <= self.now {
                out.push(*front);
                self.returns.pop_front();
                drained = true;
            } else {
                break;
            }
        }
        drained
    }

    /// Switches the scheduling mode when the watermarks say so; returns
    /// whether it switched.
    fn update_mode(&mut self) -> bool {
        if !self.would_flip_mode() {
            return false;
        }
        self.mode = match self.mode {
            Mode::Read => Mode::WriteDrain,
            Mode::WriteDrain => Mode::Read,
        };
        true
    }

    /// Refresh handling: when a rank is due and all of its banks can
    /// precharge, close them all for tRFC. Returns true if a refresh
    /// command was issued this cycle.
    fn try_refresh(&mut self) -> bool {
        let t = self.cfg.timing;
        let banks_per_rank = self.cfg.bank_groups * self.cfg.banks_per_group;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            if self.now < rank.next_refresh {
                continue;
            }
            let bank_range = r * banks_per_rank..(r + 1) * banks_per_rank;
            let all_ready = self.banks[bank_range.clone()]
                .iter()
                .all(|b| b.open_row.is_none() || self.now >= b.next_pre);
            if !all_ready {
                continue; // wait for tRAS/tWR to elapse
            }
            for b in &mut self.banks[bank_range] {
                if b.open_row.is_some() {
                    b.precharge(self.now.max(b.next_pre), &t);
                }
                b.refresh_close(self.now + t.trfc);
            }
            rank.next_refresh += t.trefi;
            self.stats.refreshes += 1;
            return true;
        }
        false
    }

    /// FR-FCFS issue for the given direction. Returns true if any command
    /// was issued.
    fn try_issue(&mut self, reads: bool) -> bool {
        let t = self.cfg.timing;
        let now = self.now;
        let next_col = if reads {
            self.next_rd_cmd
        } else {
            self.next_wr_cmd
        };
        let queue = if reads { &self.read_q } else { &self.write_q };
        if queue.is_empty() {
            return false;
        }

        // Pass 1: oldest row-hit request whose column command is ready.
        let mut col_candidate: Option<usize> = None;
        if now >= next_col {
            for (i, req) in queue.iter().enumerate() {
                let bank = &self.banks[req.flat_bank];
                let bank_ready = if reads { bank.next_rd } else { bank.next_wr };
                if bank.open_row == Some(req.coord.row) && now >= bank_ready {
                    col_candidate = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = col_candidate {
            let req = if reads {
                self.read_q.remove(i).expect("index valid")
            } else {
                self.write_q.remove(i).expect("index valid")
            };
            self.issue_column(req, reads);
            return true;
        }

        // Pass 2: progress the oldest request that needs ACT or PRE.
        let queue = if reads { &self.read_q } else { &self.write_q };
        let mut act_target: Option<(usize, usize, u64)> = None; // (qi, bank, row)
        let mut pre_target: Option<usize> = None; // bank
        for req in queue.iter() {
            let bank = &self.banks[req.flat_bank];
            match bank.open_row {
                None => {
                    let rank = &self.ranks[req.coord.rank];
                    if now >= bank.next_act && rank.can_activate(now, &t) {
                        act_target = Some((req.flat_bank, req.coord.rank, req.coord.row));
                        break;
                    }
                }
                Some(open)
                    if open != req.coord.row && now >= bank.next_pre && pre_target.is_none() =>
                {
                    pre_target = Some(req.flat_bank);
                }
                // Keep scanning: an ACT for a younger request beats a
                // PRE for an older one only if no PRE is possible, so
                // do not break here.
                _ => {}
            }
        }
        if let Some((flat_bank, rank, row)) = act_target {
            self.banks[flat_bank].activate(now, row, &t);
            self.ranks[rank].record_activate(now, &t);
            self.stats.activates += 1;
            self.mark_row_transition(flat_bank, row, reads);
            return true;
        }
        if let Some(flat_bank) = pre_target {
            self.banks[flat_bank].precharge(now, &t);
            self.stats.precharges += 1;
            self.mark_pre(flat_bank, reads);
            return true;
        }
        false
    }

    /// Marks `saw_act` on the oldest unmarked request targeting
    /// (bank, row) — the request the ACTIVATE was issued for. Younger
    /// requests to the same row will issue against the now-open row and
    /// are correctly classified as row hits.
    fn mark_row_transition(&mut self, flat_bank: usize, row: u64, reads: bool) {
        let queue = if reads {
            &mut self.read_q
        } else {
            &mut self.write_q
        };
        for req in queue.iter_mut() {
            if req.flat_bank == flat_bank && req.coord.row == row && !req.saw_act {
                req.saw_act = true;
                return;
            }
        }
    }

    fn mark_pre(&mut self, flat_bank: usize, reads: bool) {
        let queue = if reads {
            &mut self.read_q
        } else {
            &mut self.write_q
        };
        for req in queue.iter_mut() {
            if req.flat_bank == flat_bank {
                req.saw_pre = true;
            }
        }
    }

    fn issue_column(&mut self, req: DramQueued, reads: bool) {
        let t = self.cfg.timing;
        let now = self.now;
        let bank = &mut self.banks[req.flat_bank];
        if reads {
            bank.read(now, &t);
            // Column spacing and read->write turnaround.
            self.next_rd_cmd = self.next_rd_cmd.max(now + t.tccd_l.max(t.tbl));
            self.next_wr_cmd = self
                .next_wr_cmd
                .max(now + t.cl + t.tbl.saturating_sub(t.cwl) + 2);
            self.returns.push_back(ReadReturn {
                ready_at: now + t.cl + t.tbl,
                line_addr: req.line_addr,
                slice: req.slice,
            });
            self.stats.reads += 1;
            self.stats.read_latency_sum += now + t.cl + t.tbl - req.enqueued_at;
        } else {
            bank.write(now, &t);
            self.next_wr_cmd = self.next_wr_cmd.max(now + t.tccd_l.max(t.tbl));
            // Write->read turnaround.
            self.next_rd_cmd = self.next_rd_cmd.max(now + t.cwl + t.tbl + t.twtr);
            self.stats.writes += 1;
        }
        self.stats.data_bus_busy += t.tbl;
        if req.saw_pre {
            self.stats.row_conflicts += 1;
        } else if req.saw_act {
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::mapping::{AddressMapping, MappingScheme};
    use crate::types::LINE_BYTES;

    fn channel() -> (Channel, AddressMapping) {
        let mut cfg = DramConfig::table5();
        cfg.refresh = false;
        let m = AddressMapping::new(&cfg, MappingScheme::RoBaRaCoCh);
        (Channel::new(cfg, 0), m)
    }

    fn run_until_returns(ch: &mut Channel, n: usize, max_cycles: u64) -> Vec<ReadReturn> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            ch.tick(&mut out);
            if out.len() >= n {
                break;
            }
        }
        out
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_bl() {
        let (mut ch, m) = channel();
        let t = DramConfig::table5().timing;
        let addr = 0u64; // channel 0
        assert!(ch.enqueue_read(addr, m.decode(addr), 0));
        let out = run_until_returns(&mut ch, 1, 1000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line_addr, addr);
        // ACT at cycle 1, RD at 1+tRCD, data at +CL+tBL, drained next tick.
        let expected = 1 + t.trcd + t.cl + t.tbl;
        assert!(
            out[0].ready_at >= expected && out[0].ready_at <= expected + 2,
            "ready_at {} expected about {}",
            out[0].ready_at,
            expected
        );
        assert_eq!(ch.stats.reads, 1);
        assert_eq!(ch.stats.row_misses, 1);
        assert_eq!(ch.stats.row_hits, 0);
    }

    #[test]
    fn sequential_reads_hit_open_row() {
        let (mut ch, m) = channel();
        // Lines 0, 4, 8, 12 are channel 0, same row, consecutive columns.
        for i in 0..4u64 {
            let a = i * 4 * LINE_BYTES;
            assert!(ch.enqueue_read(a, m.decode(a), 0));
        }
        let out = run_until_returns(&mut ch, 4, 2000);
        assert_eq!(out.len(), 4);
        assert_eq!(ch.stats.row_misses, 1, "first access opens the row");
        assert_eq!(ch.stats.row_hits, 3, "rest are row hits");
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let (mut ch, m) = channel();
        let cfg = DramConfig::table5();
        // Two addresses in the same bank, different rows.
        let lines_per_row = cfg.row_bytes / LINE_BYTES; // 32
        let banks = cfg.banks_per_channel() as u64;
        let a = 0u64;
        let b = a + lines_per_row * banks * cfg.channels as u64 * LINE_BYTES;
        let ca = m.decode(a);
        let cb = m.decode(b);
        assert_eq!(ca.flat_bank(&cfg), cb.flat_bank(&cfg));
        assert_ne!(ca.row, cb.row);
        assert!(ch.enqueue_read(a, ca, 0));
        let _ = run_until_returns(&mut ch, 1, 1000);
        assert!(ch.enqueue_read(b, cb, 0));
        let _ = run_until_returns(&mut ch, 1, 1000);
        assert_eq!(ch.stats.precharges, 1);
        assert_eq!(ch.stats.row_conflicts, 1);
    }

    #[test]
    fn write_queue_forwarding_serves_reads() {
        let (mut ch, m) = channel();
        let a = 0u64;
        assert!(ch.enqueue_write(a, m.decode(a)));
        assert!(ch.enqueue_read(a, m.decode(a), 3));
        let out = run_until_returns(&mut ch, 1, 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slice, 3);
        assert!(out[0].ready_at <= 10, "forwarded reads are fast");
        assert_eq!(ch.stats.reads, 0, "no DRAM read performed");
    }

    #[test]
    fn writes_drain_on_watermark() {
        let (mut ch, m) = channel();
        let cfg = DramConfig::table5();
        for i in 0..cfg.write_high_watermark as u64 {
            let a = i * LINE_BYTES * cfg.channels as u64;
            assert!(ch.enqueue_write(a, m.decode(a)));
        }
        let mut out = Vec::new();
        for _ in 0..5000 {
            ch.tick(&mut out);
            if ch.write_q_len() <= cfg.write_low_watermark {
                break;
            }
        }
        assert!(ch.write_q_len() <= cfg.write_low_watermark);
        assert!(ch.stats.writes > 0);
    }

    #[test]
    fn queue_capacity_respected() {
        let (mut ch, m) = channel();
        let cfg = DramConfig::table5();
        let mut accepted = 0;
        for i in 0..(cfg.read_q_size as u64 + 8) {
            let a = i * LINE_BYTES * cfg.channels as u64;
            if ch.enqueue_read(a, m.decode(a), 0) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, cfg.read_q_size);
        assert!(!ch.can_accept_read());
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut cfg = DramConfig::table5();
        cfg.refresh = true;
        let mut ch = Channel::new(cfg, 0);
        let mut out = Vec::new();
        for _ in 0..(cfg.timing.trefi * 3) {
            ch.tick(&mut out);
        }
        // 4 ranks refreshed roughly every tREFI over ~2-3 intervals each.
        assert!(
            ch.stats.refreshes >= 8,
            "expected several refreshes, got {}",
            ch.stats.refreshes
        );
    }

    #[test]
    fn bandwidth_saturates_near_peak_for_streaming() {
        let (mut ch, m) = channel();
        let cfg = DramConfig::table5();
        // Stream 64 sequential lines of channel 0.
        let mut sent = 0u64;
        let mut out = Vec::new();
        let mut cycles = 0u64;
        while out.len() < 64 {
            if sent < 64 {
                let a = sent * cfg.channels as u64 * LINE_BYTES;
                if ch.enqueue_read(a, m.decode(a), 0) {
                    sent += 1;
                }
            }
            ch.tick(&mut out);
            cycles += 1;
            assert!(cycles < 20_000, "streaming reads did not complete");
        }
        // 64 lines * 8 tCK/line = 512 busy cycles minimum; allow overheads.
        assert!(
            cycles < 1100,
            "streaming should approach one line per tBL, took {cycles} cycles"
        );
        assert!(ch.stats.row_hits as f64 >= 0.8 * 64.0);
    }
}
