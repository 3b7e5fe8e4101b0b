//! Global thread-block scheduler: per-window strided streams plus
//! cross-core migration.
//!
//! Two properties of the paper's runtime model are load-bearing:
//!
//! 1. **Window-strided assignment.** Each core's trace file is divided
//!    into `num_windows` contiguous chunks and each instruction window
//!    draws from its own chunk. An unthrottled core therefore streams
//!    `num_windows` distant positions of its trace *concurrently* —
//!    "the assigned thread blocks may span a wide range" (Section 6.4)
//!    — which multiplies the live working set and the distinct-line
//!    pressure on the MSHRs. Throttling to fewer thread blocks
//!    "constrains instruction window switching", collapsing the streams
//!    and shrinking the working set: exactly the paper's explanation of
//!    why the unoptimized version demands larger caches.
//!
//! 2. **Migration.** Blocks of a backlogged (slow) core can be handed
//!    to a fast core, "without this feature, our baselines would be
//!    underestimated" (Section 5).

use std::collections::VecDeque;

use crate::prog::{Program, TbId};
use crate::types::{CoreId, Cycle, WindowId};

/// Per-core, per-window queues of pending thread blocks.
#[derive(Clone)]
pub struct TbScheduler {
    /// `queues[core][window]` — contiguous chunk of the core's stream.
    queues: Vec<Vec<VecDeque<TbId>>>,
    /// Per-block release cycle (arrival of the block's request); empty
    /// for ungated (solo) programs — every block released at cycle 0.
    arrivals: Vec<Cycle>,
    remaining: usize,
    /// Number of chunks still holding >= 2 blocks — a necessary
    /// condition for migration stealing. Queues shrink on assignment
    /// (`pop_front_of`) and grow only at open-system injection
    /// (`inject`), both of which maintain the counter, so this is a
    /// cheap gate that skips the whole-machine steal scan once no chunk
    /// is stealable (the scan otherwise runs every tick a core has a
    /// free window and an empty home queue — the entire drain phase).
    steal_candidates: usize,
    migrations: u64,
}

/// The window whose chunk takes each of a core's `len` ordered blocks:
/// the list is split into `num_windows` contiguous chunks of
/// `len.div_ceil(num_windows)` blocks, so every window streams its own
/// stretch of the core's stream. The one chunking rule of both the
/// scheduler and the request injector.
pub(crate) fn window_chunks(len: usize, num_windows: usize) -> impl Iterator<Item = WindowId> {
    let chunk = len.div_ceil(num_windows).max(1);
    (0..len).map(move |i| (i / chunk).min(num_windows - 1))
}

impl TbScheduler {
    /// Splits each core's (ordered) block list into `num_windows`
    /// contiguous chunks.
    pub fn new(program: &Program, num_cores: usize, num_windows: usize) -> Self {
        assert!(num_windows > 0);
        let mut per_core: Vec<Vec<TbId>> = vec![Vec::new(); num_cores];
        for (tb, &core) in program.assignment.iter().enumerate() {
            per_core[core % num_cores].push(tb);
        }
        let queues: Vec<Vec<VecDeque<TbId>>> = per_core
            .into_iter()
            .map(|list| {
                let mut chunks: Vec<VecDeque<TbId>> = vec![VecDeque::new(); num_windows];
                for (&tb, window) in list.iter().zip(window_chunks(list.len(), num_windows)) {
                    chunks[window].push_back(tb);
                }
                chunks
            })
            .collect();
        let steal_candidates = queues
            .iter()
            .flat_map(|ws| ws.iter())
            .filter(|q| q.len() >= 2)
            .count();
        TbScheduler {
            queues,
            arrivals: program.arrivals.clone(),
            remaining: program.num_blocks(),
            steal_candidates,
            migrations: 0,
        }
    }

    /// Pops the front of chunk `(core, window)`, maintaining the
    /// remaining and steal-candidate counters.
    #[inline]
    fn pop_front_of(&mut self, core: CoreId, window: usize) -> TbId {
        let q = &mut self.queues[core][window];
        let tb = q.pop_front().expect("pop from non-empty chunk");
        if q.len() == 1 {
            self.steal_candidates -= 1;
        }
        self.remaining -= 1;
        tb
    }

    /// Release cycle of a block (0 for ungated programs).
    #[inline]
    fn release_of(&self, tb: TbId) -> Cycle {
        self.arrivals.get(tb).copied().unwrap_or(0)
    }

    /// Whether a queue's head block may be handed out at `now`. Queues
    /// are strictly FIFO: a gated front blocks the blocks behind it
    /// (per-window in-order delivery, the deterministic choice).
    #[inline]
    fn front_released(&self, q: &VecDeque<TbId>, now: Cycle) -> bool {
        q.front().is_some_and(|&tb| self.release_of(tb) <= now)
    }

    /// Fetches the next block for `core`'s window `window` at cycle
    /// `now`:
    /// 1. the window's own chunk;
    /// 2. the longest remaining chunk of the same core;
    /// 3. (migration) the longest backlogged chunk of any core.
    ///
    /// A block whose request has not yet arrived (`release > now`) is
    /// never handed out, and — queues being FIFO — shields the blocks
    /// queued behind it.
    pub fn next_for(&mut self, core: CoreId, window: WindowId, now: Cycle) -> Option<TbId> {
        if self.front_released(&self.queues[core][window], now) {
            return Some(self.pop_front_of(core, window));
        }
        // Drain sibling chunks before going remote.
        if let Some(w) = self.longest_released(core, now) {
            return Some(self.pop_front_of(core, w));
        }
        if self.steal_candidates == 0 {
            return None;
        }
        // Steal from the most backlogged chunk anywhere (>= 2 blocks so
        // we unload genuinely slow cores rather than racing starters).
        let mut best: Option<(usize, usize, usize)> = None; // (len, core, window)
        for (c, windows) in self.queues.iter().enumerate() {
            for (w, q) in windows.iter().enumerate() {
                if q.len() >= 2
                    && self.front_released(q, now)
                    && best.is_none_or(|(len, _, _)| q.len() > len)
                {
                    best = Some((q.len(), c, w));
                }
            }
        }
        let (_, c, w) = best?;
        let tb = self.pop_front_of(c, w);
        self.migrations += 1;
        Some(tb)
    }

    /// The longest chunk of `core` whose front is released (ties resolve
    /// to the later window, matching the pre-gating `max_by_key`
    /// behavior so ungated programs schedule identically).
    fn longest_released(&self, core: CoreId, now: Cycle) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (len, window)
        for (w, q) in self.queues[core].iter().enumerate() {
            if !q.is_empty()
                && self.front_released(q, now)
                && best.is_none_or(|(len, _)| q.len() >= len)
            {
                best = Some((q.len(), w));
            }
        }
        best.map(|(_, w)| w)
    }

    /// Whether a [`TbScheduler::next_for`] call from `core` (any window)
    /// could return a block at cycle `now`, without mutating any queue.
    ///
    /// Used by the fast-forward engine: a core with free capacity and
    /// `has_work_for == true` would assign a block on its next tick, so
    /// it cannot be skipped over. During a skip window the answer can
    /// only flip released→exhausted (queues shrink on assignment ticks,
    /// never skipped); it flips gated→released only at an arrival
    /// cycle, which [`TbScheduler::next_release_for`] bounds, and
    /// exhausted→released only at an open-system injection, which
    /// re-arms the affected cores' wake bounds at the admission cycle.
    pub fn has_work_for(&self, core: CoreId, now: Cycle) -> bool {
        if self.queues[core]
            .iter()
            .any(|q| self.front_released(q, now))
        {
            return true;
        }
        // Migration steals only from chunks holding >= 2 blocks.
        self.steal_candidates > 0
            && self.queues.iter().any(|windows| {
                windows
                    .iter()
                    .any(|q| q.len() >= 2 && self.front_released(q, now))
            })
    }

    /// Earliest future cycle at which `core` could gain fetchable work
    /// from a not-yet-arrived request: the minimum release cycle over
    /// its own queue fronts and (with migration) the fronts of
    /// steal-eligible chunks anywhere. `None` when no gated front can
    /// ever become available to this core.
    ///
    /// Never late: while every relevant front is gated, no queue pops
    /// (owners are gated too, and steals require a released front), so
    /// fronts — and therefore this bound — cannot move earlier.
    pub fn next_release_for(&self, core: CoreId, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut merge = |at: Cycle| next = Some(next.map_or(at, |n: Cycle| n.min(at)));
        for q in &self.queues[core] {
            if let Some(&tb) = q.front() {
                let at = self.release_of(tb);
                if at > now {
                    merge(at);
                }
            }
        }
        if self.steal_candidates > 0 {
            for windows in &self.queues {
                for q in windows {
                    if q.len() >= 2 {
                        if let Some(&tb) = q.front() {
                            let at = self.release_of(tb);
                            if at > now {
                                merge(at);
                            }
                        }
                    }
                }
            }
        }
        next
    }

    /// Switches to open-system mode: every queued block is withheld
    /// until re-introduced via [`TbScheduler::inject`] (the serving
    /// scheduler's admission path). Counters reset so
    /// [`TbScheduler::is_empty`] reflects injected work only. Must run
    /// before the first tick — withholding mid-run would strand blocks.
    pub fn withhold_all(&mut self) {
        for windows in &mut self.queues {
            for q in windows.iter_mut() {
                q.clear();
            }
        }
        self.remaining = 0;
        self.steal_candidates = 0;
    }

    /// Pushes one admitted block onto chunk `(core, window)` — the
    /// open-system injection path. Mirrors the bookkeeping of
    /// `TbScheduler::pop_front_of`: a queue growing to 2 blocks
    /// becomes a steal candidate. Injected blocks carry no `arrivals`
    /// entry (serve programs are arrival-free), so admission *is*
    /// release; the fast-forward engine must re-arm the wake bound of
    /// any core that can now fetch work, because pre-admission bounds
    /// never saw these blocks.
    pub fn inject(&mut self, tb: TbId, core: CoreId, window: WindowId) {
        debug_assert!(
            self.release_of(tb) == 0,
            "injected blocks must not also be arrival-gated"
        );
        let q = &mut self.queues[core][window];
        q.push_back(tb);
        if q.len() == 2 {
            self.steal_candidates += 1;
        }
        self.remaining += 1;
    }

    /// Withdraws every queued block matching `belongs` — the
    /// preemption path: a serving scheduler pulls a victim request's
    /// *unissued* blocks back out of the queues (blocks already handed
    /// to cores are untouched; there is no mid-block rollback). Returns
    /// the withdrawn blocks in deterministic queue-scan order and
    /// restores the remaining / steal-candidate counters, so a later
    /// [`TbScheduler::inject`] of the same blocks behaves exactly like
    /// a first admission. Withdrawal only *removes* schedulable work,
    /// so existing never-late wake bounds stay never-late.
    pub fn withdraw(&mut self, belongs: impl Fn(TbId) -> bool) -> Vec<TbId> {
        let mut removed = Vec::new();
        for windows in &mut self.queues {
            for q in windows.iter_mut() {
                let before = q.len();
                q.retain(|&tb| {
                    let take = belongs(tb);
                    if take {
                        removed.push(tb);
                    }
                    !take
                });
                if before >= 2 && q.len() < 2 {
                    self.steal_candidates -= 1;
                }
            }
        }
        self.remaining -= removed.len();
        removed
    }

    /// Blocks not yet handed out.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Number of blocks taken from a non-home queue.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total queued blocks for one core (all windows).
    pub fn queue_len(&self, core: CoreId) -> usize {
        self.queues[core].iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::ThreadBlock;

    fn program(n: usize, cores: usize) -> Program {
        Program::round_robin(vec![ThreadBlock::default(); n], cores)
    }

    #[test]
    fn windows_draw_strided_chunks() {
        // 8 blocks on 1 core, 4 windows: chunks [0,1], [2,3], [4,5], [6,7].
        let p = program(8, 1);
        let mut s = TbScheduler::new(&p, 1, 4);
        assert_eq!(s.next_for(0, 0, 0), Some(0));
        assert_eq!(s.next_for(0, 1, 0), Some(2));
        assert_eq!(s.next_for(0, 2, 0), Some(4));
        assert_eq!(s.next_for(0, 3, 0), Some(6));
        assert_eq!(s.next_for(0, 0, 0), Some(1));
        assert_eq!(s.next_for(0, 3, 0), Some(7));
        assert_eq!(s.remaining(), 2);
    }

    #[test]
    fn sibling_chunks_drain_before_migration() {
        let p = program(8, 1);
        let mut s = TbScheduler::new(&p, 1, 4);
        // Window 0 exhausts its chunk then pulls from siblings.
        assert_eq!(s.next_for(0, 0, 0), Some(0));
        assert_eq!(s.next_for(0, 0, 0), Some(1));
        let next = s.next_for(0, 0, 0).unwrap();
        assert!(next >= 2, "pulled from a sibling chunk");
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn migration_steals_backlogged_chunks() {
        // 2 cores, blocks 0..8: core 0 gets evens, core 1 odds.
        let p = program(8, 2);
        let mut s = TbScheduler::new(&p, 2, 2);
        // Core 0 drains everything it owns.
        for _ in 0..4 {
            assert!(s.next_for(0, 0, 0).is_some());
        }
        // Core 1 still has 4 blocks in 2 chunks of 2: core 0 steals.
        let stolen = s.next_for(0, 0, 0).unwrap();
        assert_eq!(stolen % 2, 1, "stole core 1's block");
        assert_eq!(s.migrations(), 1);
    }

    #[test]
    fn no_stealing_of_last_blocks() {
        let p = program(2, 2); // one block per core
        let mut s = TbScheduler::new(&p, 2, 2);
        assert_eq!(s.next_for(0, 0, 0), Some(0));
        assert_eq!(s.next_for(0, 0, 0), None, "peer's single block stays home");
        assert_eq!(s.next_for(1, 0, 0), Some(1));
    }

    #[test]
    fn withhold_then_inject_releases_blocks_on_demand() {
        let p = program(4, 2);
        let mut s = TbScheduler::new(&p, 2, 2);
        s.withhold_all();
        assert!(s.is_empty());
        assert!(!s.has_work_for(0, 0));
        assert_eq!(s.next_for(0, 0, 0), None);
        // Inject block 0 onto core 0 window 0, block 1 + 3 onto core 1.
        s.inject(0, 0, 0);
        s.inject(1, 1, 0);
        s.inject(3, 1, 0);
        assert_eq!(s.remaining(), 3);
        assert!(s.has_work_for(0, 5));
        assert_eq!(s.next_for(0, 0, 5), Some(0));
        // Core 1's chunk of 2 is a steal candidate for idle core 0.
        assert!(s.has_work_for(0, 5));
        assert_eq!(s.next_for(0, 0, 5), Some(1));
        assert_eq!(s.migrations(), 1);
        assert_eq!(s.next_for(1, 0, 5), Some(3));
        assert!(s.is_empty());
    }

    #[test]
    fn withdraw_removes_matching_blocks_and_fixes_counters() {
        let p = program(6, 2);
        let mut s = TbScheduler::new(&p, 2, 1);
        s.withhold_all();
        // Core 0 holds blocks 0, 2, 4; core 1 holds 1, 3.
        for &(tb, core) in &[(0, 0), (2, 0), (4, 0), (1, 1), (3, 1)] {
            s.inject(tb, core, 0);
        }
        assert_eq!(s.remaining(), 5);
        // Withdraw the "request" owning blocks 2 and 4 (core 0's tail).
        let removed = s.withdraw(|tb| tb == 2 || tb == 4);
        assert_eq!(removed, vec![2, 4]);
        assert_eq!(s.remaining(), 3);
        // Core 0's queue dropped to 1 block: no longer a steal
        // candidate, so idle core 1 cannot steal block 0.
        assert_eq!(s.next_for(1, 0, 0), Some(1));
        assert_eq!(s.next_for(1, 0, 0), Some(3));
        assert_eq!(s.next_for(1, 0, 0), None, "last home block stays put");
        // Re-injecting the withdrawn blocks behaves like an admission.
        s.inject(2, 1, 0);
        s.inject(4, 1, 0);
        assert_eq!(s.next_for(1, 0, 0), Some(2));
        assert_eq!(s.next_for(1, 0, 0), Some(4));
        assert_eq!(s.next_for(0, 0, 0), Some(0));
        assert!(s.is_empty());
        assert!(s.withdraw(|_| true).is_empty(), "nothing left to remove");
    }

    #[test]
    fn remaining_counts_down_to_empty() {
        let p = program(5, 2);
        let mut s = TbScheduler::new(&p, 2, 4);
        let mut got = 0;
        for _ in 0..10 {
            if s.next_for(0, 0, 0).is_some() || s.next_for(1, 1, 0).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 5);
        assert!(s.is_empty());
    }
}
