//! Private per-core L1 cache with a miss table (per-core MSHRs).
//!
//! Table 5: 64 KB, 8-way, 64 B lines, latency 1, allocate-on-fill,
//! streaming, write-no-allocate, write-through. Because the L1 is
//! write-through it never holds dirty data; stores are forwarded to the
//! LLC unconditionally and are posted (the core does not wait).

use crate::cache::{InsertPolicy, SetAssocCache};
use crate::config::L1Config;
use crate::hash::AddrHashMap;
use crate::types::{Addr, Cycle, WindowId};

/// Result of presenting one line-sized load to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1LoadOutcome {
    /// Data present: no stall (latency 1 is folded into issue).
    Hit,
    /// Line already being fetched; this window was added as a waiter.
    MergedMiss,
    /// New miss: a request must be sent to the LLC.
    NewMiss,
    /// Miss table exhausted: the instruction must retry later.
    Blocked,
}

/// A read-only classification of one line-sized load, produced by
/// [`L1Cache::classify`] and redeemable with [`L1Cache::commit`] in the
/// same cycle. Splitting the two halves lets the core's coalesced-issue
/// feasibility pass reuse its tag scans and hash lookups for the commit
/// pass (the seed re-ran both per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Class {
    /// Hit in storage at `(set, way)`.
    Hit { set: usize, way: usize },
    /// Mergeable into the pending miss in slot `slot`.
    Merge { slot: usize },
    /// Admissible as a fresh miss.
    New,
    /// Not admissible this cycle (miss table or target list full).
    Blocked,
}

/// The L1 cache plus its outstanding-miss bookkeeping.
///
/// The miss table is point-addressed: every operation resolves a line
/// through the `index` map in O(1) instead of scanning the entry array
/// (the scans dominated whole-simulation wall time — each issued vector
/// load probes the table several times per line, every cycle a blocked
/// window retries). The index is used for key lookups only, never
/// iterated, so behavior is bit-identical to the scanning version.
///
/// Data-oriented layout: waiter lists live in fixed-size windows of one
/// flat preallocated buffer (`miss_entries x miss_targets`), so the
/// table performs zero heap allocations after construction —
/// [`L1Cache::fill`] returns the waiters as a borrowed slice instead of
/// the per-miss `Vec` the seed allocated.
#[derive(Clone)]
pub struct L1Cache {
    cfg: L1Config,
    storage: SetAssocCache,
    /// Line address per miss slot (meaningful only for live slots).
    miss_line: Vec<Addr>,
    /// Live waiter count per miss slot.
    waiter_len: Vec<usize>,
    /// Flat waiter storage: slot `i` owns `[i * miss_targets ..]`.
    waiters: Vec<(WindowId, Cycle)>,
    /// line address -> slot (fast multiply hash; keys are internal).
    index: AddrHashMap<Addr, usize>,
    /// Free slots (stack; slot identity has no behavioral effect —
    /// entries are only ever resolved by line address).
    free: Vec<usize>,
    occupied: usize,
}

impl L1Cache {
    pub fn new(cfg: L1Config) -> Self {
        let sets = cfg.geometry.num_sets();
        let mut index = AddrHashMap::default();
        // 2x headroom keeps the live count at or below half the usable
        // capacity, so tombstone churn is absorbed by in-place rehashes
        // — the map never allocates again after construction (pinned by
        // `tests/alloc_regression.rs`).
        index.reserve(cfg.miss_entries * 2);
        L1Cache {
            cfg,
            storage: SetAssocCache::new(sets, cfg.geometry.associativity, 0),
            miss_line: vec![0; cfg.miss_entries],
            waiter_len: vec![0; cfg.miss_entries],
            waiters: vec![(0, 0); cfg.miss_entries * cfg.miss_targets],
            index,
            free: (0..cfg.miss_entries).rev().collect(),
            occupied: 0,
        }
    }

    fn insert_policy(&self) -> InsertPolicy {
        if self.cfg.streaming {
            InsertPolicy::Lru
        } else {
            InsertPolicy::Mru
        }
    }

    /// Classifies a line-sized load without mutating any state.
    ///
    /// `fresh_so_far` counts new misses already classified (but not yet
    /// committed) in the same coalesced vector access, so capacity is
    /// judged against the post-commit table.
    pub fn classify(&self, line_addr: Addr, fresh_so_far: usize) -> L1Class {
        if let Some((set, way)) = self.storage.find(line_addr) {
            return L1Class::Hit { set, way };
        }
        if let Some(&slot) = self.index.get(&line_addr) {
            if self.waiter_len[slot] >= self.cfg.miss_targets {
                L1Class::Blocked
            } else {
                L1Class::Merge { slot }
            }
        } else if self.occupied + fresh_so_far < self.miss_line.len() {
            L1Class::New
        } else {
            L1Class::Blocked
        }
    }

    /// Commits a classification from [`L1Cache::classify`]. Only valid
    /// in the same cycle with no intervening L1 mutations (the core's
    /// two-pass coalesced issue guarantees this).
    pub fn commit(
        &mut self,
        line_addr: Addr,
        class: L1Class,
        window: WindowId,
        now: Cycle,
    ) -> L1LoadOutcome {
        match class {
            L1Class::Hit { set, way } => {
                self.storage.touch(set, way, false);
                L1LoadOutcome::Hit
            }
            L1Class::Merge { slot } => {
                let len = self.waiter_len[slot];
                debug_assert!(len < self.cfg.miss_targets, "classified merge has room");
                self.waiters[slot * self.cfg.miss_targets + len] = (window, now);
                self.waiter_len[slot] = len + 1;
                L1LoadOutcome::MergedMiss
            }
            L1Class::New => {
                let slot = self.free.pop().expect("classified new miss has capacity");
                self.miss_line[slot] = line_addr;
                self.waiters[slot * self.cfg.miss_targets] = (window, now);
                self.waiter_len[slot] = 1;
                self.index.insert(line_addr, slot);
                self.occupied += 1;
                L1LoadOutcome::NewMiss
            }
            L1Class::Blocked => L1LoadOutcome::Blocked,
        }
    }

    /// Presents a line-sized load from `window` at cycle `now`
    /// (classify + commit in one step).
    pub fn load(&mut self, line_addr: Addr, window: WindowId, now: Cycle) -> L1LoadOutcome {
        let class = self.classify(line_addr, 0);
        self.commit(line_addr, class, window, now)
    }

    /// Presents a line-sized store. Write-no-allocate / write-through:
    /// updates the line if present; the caller always forwards the store
    /// to the LLC.
    pub fn store(&mut self, line_addr: Addr) {
        // Write-through: the L1 copy stays clean (dirty bit not set).
        self.storage.access(line_addr, false);
    }

    /// A fill returned from the LLC: installs the line (allocate-on-fill)
    /// and returns the waiting windows with their issue cycles as a
    /// slice borrowed from the flat waiter storage (valid until the next
    /// `load`).
    pub fn fill(&mut self, line_addr: Addr, now: Cycle) -> &[(WindowId, Cycle)] {
        let _ = now;
        let policy = self.insert_policy();
        self.storage.insert(line_addr, false, policy);
        if let Some(slot) = self.index.remove(&line_addr) {
            debug_assert_eq!(
                self.miss_line[slot], line_addr,
                "index points at wrong entry"
            );
            self.free.push(slot);
            self.occupied -= 1;
            let base = slot * self.cfg.miss_targets;
            return &self.waiters[base..base + self.waiter_len[slot]];
        }
        &[]
    }

    /// Outstanding distinct line misses.
    pub fn outstanding(&self) -> usize {
        self.occupied
    }

    /// Miss-table capacity (`miss_entries`).
    pub fn capacity(&self) -> usize {
        self.miss_line.len()
    }

    /// Probes storage without touching replacement state.
    pub fn probe(&self, line_addr: Addr) -> bool {
        self.storage.probe(line_addr)
    }

    /// Whether a miss for `line_addr` is pending.
    pub fn miss_pending(&self, line_addr: Addr) -> bool {
        self.index.contains_key(&line_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::types::LINE_BYTES;

    fn l1() -> L1Cache {
        L1Cache::new(SystemConfig::table5().l1)
    }

    fn a(line: u64) -> Addr {
        line * LINE_BYTES
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = l1();
        assert_eq!(c.load(a(1), 0, 0), L1LoadOutcome::NewMiss);
        assert_eq!(c.load(a(1), 1, 1), L1LoadOutcome::MergedMiss);
        assert!(c.miss_pending(a(1)));
        let waiters = c.fill(a(1), 10);
        assert_eq!(waiters, vec![(0, 0), (1, 1)]);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.load(a(1), 2, 11), L1LoadOutcome::Hit);
    }

    #[test]
    fn miss_table_exhaustion_blocks() {
        let cfg = SystemConfig::table5().l1;
        let mut c = L1Cache::new(cfg);
        for i in 0..cfg.miss_entries as u64 {
            assert_eq!(c.load(a(100 + i), 0, 0), L1LoadOutcome::NewMiss);
        }
        assert_eq!(c.load(a(999), 0, 0), L1LoadOutcome::Blocked);
        // Merging is still possible while full.
        assert_eq!(c.load(a(100), 1, 0), L1LoadOutcome::MergedMiss);
        c.fill(a(100), 5);
        assert_eq!(c.load(a(999), 0, 6), L1LoadOutcome::NewMiss);
    }

    #[test]
    fn target_exhaustion_blocks() {
        let cfg = SystemConfig::table5().l1;
        let mut c = L1Cache::new(cfg);
        assert_eq!(c.load(a(7), 0, 0), L1LoadOutcome::NewMiss);
        for w in 1..cfg.miss_targets {
            assert_eq!(c.load(a(7), w, 0), L1LoadOutcome::MergedMiss);
        }
        assert_eq!(c.load(a(7), 0, 0), L1LoadOutcome::Blocked);
    }

    #[test]
    fn store_does_not_allocate() {
        let mut c = l1();
        c.store(a(3));
        assert_eq!(c.load(a(3), 0, 0), L1LoadOutcome::NewMiss, "no allocation");
    }

    #[test]
    fn streaming_fills_evict_first() {
        // With streaming insertion, filling a 9th line into an 8-way set
        // evicts the previous streaming line rather than older reused data.
        let cfg = SystemConfig::table5().l1;
        let sets = cfg.geometry.num_sets() as u64; // 128
        let mut c = L1Cache::new(cfg);
        // Reuse line 0 so it is MRU-stamped by accesses.
        c.load(a(0), 0, 0);
        c.fill(a(0), 0);
        assert_eq!(c.load(a(0), 0, 1), L1LoadOutcome::Hit);
        // Stream 8 conflicting lines (same set: stride = number of sets).
        for i in 1..=8u64 {
            c.load(a(i * sets), 0, i);
            c.fill(a(i * sets), i);
        }
        // Line 0 was re-referenced, so it survives the stream.
        assert_eq!(c.load(a(0), 0, 100), L1LoadOutcome::Hit);
    }
}
