//! Set-associative cache storage with LRU replacement.
//!
//! This models the *storage arrays* (tag + data) shared by L1 and L2.
//! Policy differences between the two levels (Table 5) are expressed at
//! the call sites:
//!
//! * L1: streaming insertion (new lines enter at LRU position),
//!   write-no-allocate, write-through — so L1 never holds dirty lines.
//! * L2: write-allocate, write-back — insertions may return a dirty
//!   victim that must be written back to DRAM; alloc-on-fill means
//!   insertion happens on the response path, not at miss time.
//!
//! Replacement is exact true LRU kept in one byte per line: a per-set
//! `u8` recency rank, renumbered in place when a set's ranks run out
//! (see [`SetAssocCache`] for why that evicts exactly what per-line
//! `u64` timestamps would).

use crate::types::{Addr, LINE_BYTES};

/// An evicted line returned by [`SetAssocCache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    pub line_addr: Addr,
    pub dirty: bool,
}

/// How a newly inserted line is positioned in the replacement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPolicy {
    /// Most-recently-used insertion (default for caches expecting reuse).
    Mru,
    /// Least-recently-used insertion (streaming hint: the line is the
    /// first candidate for eviction unless it is re-referenced).
    Lru,
}

/// Sentinel for an empty way. Safe because a real tag is a line index
/// shifted right by at least the set bits: reaching `u64::MAX` would
/// require a byte address far beyond the simulated physical space.
const INVALID_TAG: u64 = u64::MAX;

/// Most ways a set may have: the dirty bitmask is one `u64` per set,
/// and renumbering sorts a set's ranks in a stack buffer of this size.
pub const MAX_ASSOC: usize = 64;

/// Set-associative cache storage with true-LRU replacement.
///
/// The cache operates on line-aligned addresses. Set indexing can be
/// offset by `index_shift` so that a sliced LLC can first peel off the
/// slice-select bits (`set = (line >> index_shift) % num_sets`).
///
/// Storage is structure-of-arrays: the lookup path scans a dense
/// `u64` tag row (one host cache line for an 8-way set, and the
/// compiler vectorizes the compare), while recency ranks and dirty
/// bits — needed only on hits and fills — live in separate arrays.
/// These scans are the single hottest memory pattern in the
/// simulator (multi-megabyte LLC models never fit the host cache).
///
/// # Replacement state: one byte per line
///
/// Each way holds a `u8` recency rank, and each set one `u8` `top`:
/// the highest rank issued in that set since its last renumbering, so
/// `top` is at least every rank in the row.
///
/// * A touch, a refresh or an MRU insert writes `top + 1` (and bumps
///   `top`): a blind store that never reads the rank row.
/// * An LRU (streaming) insert writes 0.
/// * When `top` would pass 255, the set's ranks are renumbered densely
///   in place (order kept, ties at 0 kept tied) before the store. A
///   set has at most 64 ways, so afterwards `top` is at most 64 and
///   the next renumbering is at least 191 touches away.
///
/// The result is exact true LRU: within a set, the ranks order the
/// ways exactly as per-line global `u64` timestamps would (a global
/// stamp too is above every stamp of the set when written, and 0 for a
/// streaming insert), and they tie only at 0. The victim — the first
/// way with the minimal rank — is therefore the same way a stamp-based
/// cache evicts (the test oracle `StampCache` pins this), for about
/// 1 + 1/assoc bytes of replacement state per line instead of 8.
///
/// # Storage materializes at the first fill
///
/// [`SetAssocCache::new`] records the geometry only: the four arrays
/// stay empty until the first [`SetAssocCache::insert`] allocates them
/// at once. A cache that has never held a line therefore owns no heap
/// storage, and a clone of it (a pre-tick [`crate::system::System`]
/// snapshot or fork) copies no tag rows. Every lookup on an empty cache
/// misses through the same bounds check that guards the row read.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Way tags, `num_sets * assoc`, [`INVALID_TAG`] = empty way; all
    /// four arrays are empty until the first insert.
    tags: Vec<u64>,
    /// Recency ranks (larger = more recently used), parallel to `tags`.
    ranks: Vec<u8>,
    /// Per-set highest rank issued since the set's last renumbering;
    /// never below any rank of the set.
    top: Vec<u8>,
    /// Per-set dirty bitmasks (bit `i` = way `i`; assoc <= 64).
    dirty: Vec<u64>,
    num_sets: usize,
    assoc: usize,
    /// Number of low line-index bits consumed by slice selection.
    index_shift: u32,
    /// `log2(num_sets)` when the set count is a power of two — the
    /// common case (every Table 5 geometry); turns the per-access
    /// div/mod pair in `set_of`/`tag_of` into shifts and masks on the
    /// hottest path of the whole simulator.
    sets_log2: Option<u32>,
}

impl SetAssocCache {
    /// Creates an empty cache with `num_sets` sets of `assoc` ways. No
    /// storage is allocated until the first [`SetAssocCache::insert`].
    ///
    /// `index_shift` is the number of line-index bits to skip before the
    /// set index (used by sliced caches; pass 0 for a private cache).
    pub fn new(num_sets: usize, assoc: usize, index_shift: u32) -> Self {
        assert!(num_sets > 0 && assoc > 0);
        assert!(assoc <= MAX_ASSOC, "a set holds at most {MAX_ASSOC} ways");
        SetAssocCache {
            tags: Vec::new(),
            ranks: Vec::new(),
            top: Vec::new(),
            dirty: Vec::new(),
            num_sets,
            assoc,
            index_shift,
            sets_log2: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
        }
    }

    /// Allocates the arrays of a cache that has never held a line: every
    /// way empty, every rank and dirty bit 0.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self) {
        let lines = self.num_sets * self.assoc;
        self.tags = vec![INVALID_TAG; lines];
        self.ranks = vec![0; lines];
        self.top = vec![0; self.num_sets];
        self.dirty = vec![0; self.num_sets];
    }

    #[inline]
    fn set_of(&self, line_addr: Addr) -> usize {
        let line = line_addr >> LINE_BYTES.trailing_zeros();
        let idx = line >> self.index_shift;
        match self.sets_log2 {
            Some(b) => (idx & ((1u64 << b) - 1)) as usize,
            None => (idx % self.num_sets as u64) as usize,
        }
    }

    #[inline]
    fn tag_of(&self, line_addr: Addr) -> u64 {
        let line = line_addr >> LINE_BYTES.trailing_zeros();
        let idx = line >> self.index_shift;
        match self.sets_log2 {
            Some(b) => idx >> b,
            None => idx / self.num_sets as u64,
        }
    }

    fn reconstruct(&self, set: usize, tag: u64) -> Addr {
        let line = (tag * self.num_sets as u64 + set as u64) << self.index_shift;
        line << LINE_BYTES.trailing_zeros()
    }

    /// Index of the way holding `tag` within `set`'s tag row, if any.
    /// [`INVALID_TAG`] marks empty ways, so no validity mask is needed
    /// on the lookup path — the scan is a dense `u64` compare. A cache
    /// that has never held a line has no rows, so the row read fails
    /// and every lookup misses.
    #[inline]
    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc;
        self.tags
            .get(base..base + self.assoc)?
            .iter()
            .position(|&t| t == tag)
    }

    /// Hints the host CPU to pull `line_addr`'s set (tag row and rank
    /// row) into cache. The modelled arrays span megabytes, so every
    /// set touch is a host cache miss unless issued ahead of use; the
    /// slice pipeline knows a line's set several simulated cycles
    /// before the scan (arbitration → tag lookup, fill → response
    /// dequeue) — exactly the window a prefetch needs. Behaviorally a
    /// no-op, and an empty cache has no rows to fetch.
    #[inline]
    pub fn prefetch(&self, line_addr: Addr) {
        if self.tags.is_empty() {
            return;
        }
        // SAFETY: past the early return the arrays are materialized:
        // `tags` and `ranks` hold `num_sets * assoc` entries, and
        // `set_of` is below `num_sets`, so both row starts are in bounds.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let base = self.set_of(line_addr) * self.assoc;
            _mm_prefetch(self.tags.as_ptr().add(base).cast::<i8>(), _MM_HINT_T0);
            _mm_prefetch(self.ranks.as_ptr().add(base).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line_addr;
    }

    /// Probes for `line_addr` without modifying replacement state.
    #[inline]
    pub fn probe(&self, line_addr: Addr) -> bool {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        self.way_of(set, tag).is_some()
    }

    /// Locates `line_addr` without modifying replacement state,
    /// returning its `(set, way)` for a later [`SetAssocCache::touch`].
    /// Lets a caller split the tag scan from the LRU update so a
    /// classify-then-commit sequence scans each set only once.
    #[inline]
    pub fn find(&self, line_addr: Addr) -> Option<(usize, usize)> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        self.way_of(set, tag).map(|way| (set, way))
    }

    /// Completes the hit that [`SetAssocCache::find`] located: makes the
    /// way most recently used (and sets its dirty bit for writes)
    /// exactly as [`SetAssocCache::access`] would have. Only valid while
    /// no other mutation has intervened since the `find`.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, write: bool) {
        self.promote(set, way);
        if write {
            self.dirty[set] |= 1 << way;
        }
    }

    /// Looks up `line_addr`; on hit, updates LRU (and the dirty bit when
    /// `write` is set) and returns true.
    pub fn access(&mut self, line_addr: Addr, write: bool) -> bool {
        match self.find(line_addr) {
            Some((set, way)) => {
                self.touch(set, way, write);
                true
            }
            None => false,
        }
    }

    /// Makes `set`'s way `way` its most recently used: rank `top + 1`,
    /// above every rank in the set. Stores without reading the rank row.
    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        let mut top = self.top[set];
        if top == u8::MAX {
            top = self.renumber(set);
        }
        top += 1;
        self.top[set] = top;
        self.ranks[set * self.assoc + way] = top;
    }

    /// Renumbers `set`'s ranks densely from 1 in their current order,
    /// keeping ties (rank 0 stays 0), and returns the new highest rank.
    /// Allocates nothing: the sort runs in a stack buffer.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self, set: usize) -> u8 {
        let base = set * self.assoc;
        let row = &mut self.ranks[base..base + self.assoc];
        // (rank, way) packed so that one integer sort orders by rank.
        let mut buf = [0u16; MAX_ASSOC];
        let order = &mut buf[..row.len()];
        for (way, (o, &rank)) in order.iter_mut().zip(row.iter()).enumerate() {
            *o = (u16::from(rank) << 8) | way as u16;
        }
        order.sort_unstable();
        let (mut prev, mut next) = (0u8, 0u8);
        for &o in order.iter() {
            let rank = (o >> 8) as u8;
            if rank != prev {
                prev = rank;
                next += 1;
            }
            row[usize::from(o & 0xff)] = next;
        }
        next
    }

    /// Inserts `line_addr` (replacing the LRU way if the set is full) and
    /// returns the victim if a valid line was evicted.
    ///
    /// If the line is already present this is a no-op hit-update (the
    /// dirty bit is OR-ed in) and `None` is returned.
    pub fn insert(&mut self, line_addr: Addr, dirty: bool, policy: InsertPolicy) -> Option<Victim> {
        if self.tags.is_empty() {
            self.materialize();
        }
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let base = set * self.assoc;
        // Already present: refresh.
        if let Some(way) = self.way_of(set, tag) {
            self.touch(set, way, dirty);
            return None;
        }
        // An empty way (the first, as the seed chose), else the LRU way:
        // the first minimal rank, as the seed's `min_by_key` returned.
        let (way, victim) = match self.way_of(set, INVALID_TAG) {
            Some(way) => (way, None),
            None => {
                let row = &self.ranks[base..base + self.assoc];
                let way = (0..self.assoc)
                    .min_by_key(|&i| row[i])
                    .expect("associativity > 0");
                let victim = Victim {
                    line_addr: self.reconstruct(set, self.tags[base + way]),
                    dirty: self.dirty[set] & (1 << way) != 0,
                };
                (way, Some(victim))
            }
        };
        self.tags[base + way] = tag;
        match policy {
            InsertPolicy::Mru => self.promote(set, way),
            // Rank 0 is the lowest: evicted first unless re-referenced.
            InsertPolicy::Lru => self.ranks[base + way] = 0,
        }
        if dirty {
            self.dirty[set] |= 1 << way;
        } else {
            self.dirty[set] &= !(1 << way);
        }
        victim
    }

    /// Removes `line_addr` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line_addr: Addr) -> Option<bool> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        let way = self.way_of(set, tag)?;
        self.tags[set * self.assoc + way] = INVALID_TAG;
        Some(self.dirty[set] & (1 << way) != 0)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    pub fn associativity(&self) -> usize {
        self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(line: u64) -> Addr {
        line * LINE_BYTES
    }

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssocCache::new(4, 2, 0);
        assert!(!c.access(addr(0), false));
        c.insert(addr(0), false, InsertPolicy::Mru);
        assert!(c.access(addr(0), false));
        assert!(c.probe(addr(0)));
        assert!(!c.probe(addr(4))); // same set, different tag
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: inserting 3 lines evicts the least recently used.
        let mut c = SetAssocCache::new(1, 2, 0);
        c.insert(addr(1), false, InsertPolicy::Mru);
        c.insert(addr(2), false, InsertPolicy::Mru);
        c.access(addr(1), false); // 2 is now LRU
        let v = c.insert(addr(3), false, InsertPolicy::Mru).unwrap();
        assert_eq!(v.line_addr, addr(2));
        assert!(c.probe(addr(1)));
        assert!(c.probe(addr(3)));
    }

    #[test]
    fn streaming_insert_is_first_victim() {
        let mut c = SetAssocCache::new(1, 2, 0);
        c.insert(addr(1), false, InsertPolicy::Mru);
        c.insert(addr(2), false, InsertPolicy::Lru); // streaming
        let v = c.insert(addr(3), false, InsertPolicy::Mru).unwrap();
        assert_eq!(v.line_addr, addr(2), "streaming line must be evicted first");
    }

    #[test]
    fn streaming_line_promoted_on_reuse() {
        let mut c = SetAssocCache::new(1, 2, 0);
        c.insert(addr(1), false, InsertPolicy::Mru);
        c.insert(addr(2), false, InsertPolicy::Lru);
        c.access(addr(2), false); // promoted by reuse
        let v = c.insert(addr(3), false, InsertPolicy::Mru).unwrap();
        assert_eq!(v.line_addr, addr(1));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = SetAssocCache::new(1, 1, 0);
        c.insert(addr(1), false, InsertPolicy::Mru);
        c.access(addr(1), true); // dirty it
        let v = c.insert(addr(2), false, InsertPolicy::Mru).unwrap();
        assert_eq!(v.line_addr, addr(1));
        assert!(v.dirty);
    }

    #[test]
    fn insert_existing_merges_dirty() {
        let mut c = SetAssocCache::new(1, 2, 0);
        c.insert(addr(1), false, InsertPolicy::Mru);
        assert!(c.insert(addr(1), true, InsertPolicy::Mru).is_none());
        let v = c.insert(addr(2), false, InsertPolicy::Mru);
        assert!(v.is_none());
        let v = c.insert(addr(3), false, InsertPolicy::Mru).unwrap();
        // Use order 1, 1 (the refresh), 2: addr(1) is still the LRU line.
        assert_eq!(v.line_addr, addr(1));
        assert!(v.dirty, "dirty bit must be merged on re-insert");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(2, 2, 0);
        c.insert(addr(0), true, InsertPolicy::Mru);
        assert_eq!(c.invalidate(addr(0)), Some(true));
        assert_eq!(c.invalidate(addr(0)), None);
        assert!(!c.probe(addr(0)));
    }

    #[test]
    fn victim_address_reconstruction_with_shift() {
        // 4 sets, shift 3 (8 slices): line index bits [3..5] select the set.
        let mut c = SetAssocCache::new(4, 1, 3);
        // Lines 8 and 8 + 4*8 = 40 share slice bits (line % 8 == 0) and set.
        let a = addr(8);
        let b = addr(8 + 32);
        c.insert(a, true, InsertPolicy::Mru);
        let v = c.insert(b, false, InsertPolicy::Mru).unwrap();
        assert_eq!(v.line_addr, a);
        assert!(v.dirty);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = SetAssocCache::new(4, 2, 0);
        assert_eq!(c.occupancy(), 0);
        c.insert(addr(0), false, InsertPolicy::Mru);
        c.insert(addr(1), false, InsertPolicy::Mru);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = SetAssocCache::new(2, 1, 0);
        c.insert(addr(0), false, InsertPolicy::Mru); // set 0
        c.insert(addr(1), false, InsertPolicy::Mru); // set 1
        assert!(c.probe(addr(0)));
        assert!(c.probe(addr(1)));
    }

    /// The stamp-based storage the ranks replaced, kept as the oracle:
    /// one global `u64` stamp, bumped on every access and insert, and a
    /// per-line `u64` copy of it (0 for a streaming insert).
    struct StampCache {
        tags: Vec<u64>,
        lru: Vec<u64>,
        dirty: Vec<u64>,
        num_sets: u64,
        assoc: usize,
        index_shift: u32,
        stamp: u64,
    }

    impl StampCache {
        fn new(num_sets: usize, assoc: usize, index_shift: u32) -> Self {
            StampCache {
                tags: vec![INVALID_TAG; num_sets * assoc],
                lru: vec![0; num_sets * assoc],
                dirty: vec![0; num_sets],
                num_sets: num_sets as u64,
                assoc,
                index_shift,
                stamp: 1,
            }
        }

        /// `(set, tag)` of `line_addr`.
        fn locate(&self, line_addr: Addr) -> (usize, u64) {
            let idx = (line_addr / LINE_BYTES) >> self.index_shift;
            ((idx % self.num_sets) as usize, idx / self.num_sets)
        }

        fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
            let base = set * self.assoc;
            self.tags[base..base + self.assoc]
                .iter()
                .position(|&t| t == tag)
        }

        fn find(&self, line_addr: Addr) -> Option<(usize, usize)> {
            let (set, tag) = self.locate(line_addr);
            self.way_of(set, tag).map(|way| (set, way))
        }

        fn touch(&mut self, set: usize, way: usize, write: bool) {
            self.stamp += 1;
            self.lru[set * self.assoc + way] = self.stamp;
            if write {
                self.dirty[set] |= 1 << way;
            }
        }

        fn access(&mut self, line_addr: Addr, write: bool) -> bool {
            let (set, tag) = self.locate(line_addr);
            self.stamp += 1;
            match self.way_of(set, tag) {
                Some(way) => {
                    self.lru[set * self.assoc + way] = self.stamp;
                    if write {
                        self.dirty[set] |= 1 << way;
                    }
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, line_addr: Addr, dirty: bool, policy: InsertPolicy) -> Option<Victim> {
            let (set, tag) = self.locate(line_addr);
            let base = set * self.assoc;
            self.stamp += 1;
            if let Some(way) = self.way_of(set, tag) {
                self.lru[base + way] = self.stamp;
                if dirty {
                    self.dirty[set] |= 1 << way;
                }
                return None;
            }
            let (way, victim) = match self.way_of(set, INVALID_TAG) {
                Some(way) => (way, None),
                None => {
                    let way = (0..self.assoc).min_by_key(|&i| self.lru[base + i]).unwrap();
                    let idx =
                        (self.tags[base + way] * self.num_sets + set as u64) << self.index_shift;
                    let victim = Victim {
                        line_addr: idx * LINE_BYTES,
                        dirty: self.dirty[set] & (1 << way) != 0,
                    };
                    (way, Some(victim))
                }
            };
            self.tags[base + way] = tag;
            self.lru[base + way] = match policy {
                InsertPolicy::Mru => self.stamp,
                InsertPolicy::Lru => 0,
            };
            if dirty {
                self.dirty[set] |= 1 << way;
            } else {
                self.dirty[set] &= !(1 << way);
            }
            victim
        }

        fn invalidate(&mut self, line_addr: Addr) -> Option<bool> {
            let (set, tag) = self.locate(line_addr);
            let way = self.way_of(set, tag)?;
            self.tags[set * self.assoc + way] = INVALID_TAG;
            Some(self.dirty[set] & (1 << way) != 0)
        }

        fn occupancy(&self) -> usize {
            self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
        }
    }

    // Ranks order every set exactly as the stamps did, so every lookup,
    // victim and dirty bit matches the stamp oracle over random
    // operation sequences on small geometries. Bursts of hits on one
    // line pass `top = 255` often, so sets renumber while other lines
    // keep old ranks and streaming lines sit at 0. Both caches start
    // fresh, and a sequence may open with lookups and invalidates (or
    // hold no insert at all), so the unmaterialized cache is checked
    // against the oracle's all-empty arrays too.
    proptest! {
        #[test]
        fn ranks_match_stamp_oracle(
            geometry in (1usize..5, 0usize..5, 0u32..3),
            ops in proptest::collection::vec((0u8..9, any::<u16>(), 0u8..255), 1..1000),
        ) {
            let (sets, ways, shift) = geometry;
            let ways = [1, 2, 3, 8, 64][ways];
            let mut c = SetAssocCache::new(sets, ways, shift);
            let mut o = StampCache::new(sets, ways, shift);
            // Lines of this cache's slice only (the low `shift` index
            // bits are zero), a few more per set than it has ways.
            let lines = (sets * (ways + 2)) as u64;
            let mut inserted = false;
            for (kind, x, burst) in ops {
                inserted |= matches!(kind, 1 | 2 | 3 | 8);
                let line = addr((u64::from(x) % lines) << shift);
                let flag = x & 0x8000 != 0;
                match kind {
                    0 => prop_assert_eq!(c.access(line, flag), o.access(line, flag)),
                    1 | 2 => prop_assert_eq!(
                        c.insert(line, flag, InsertPolicy::Mru),
                        o.insert(line, flag, InsertPolicy::Mru)
                    ),
                    3 => prop_assert_eq!(
                        c.insert(line, flag, InsertPolicy::Lru),
                        o.insert(line, flag, InsertPolicy::Lru)
                    ),
                    4 | 5 => {
                        let hit = c.find(line);
                        prop_assert_eq!(hit, o.find(line));
                        if let Some((set, way)) = hit {
                            c.touch(set, way, flag);
                            o.touch(set, way, flag);
                        }
                    }
                    6 => prop_assert_eq!(c.probe(line), o.find(line).is_some()),
                    7 => prop_assert_eq!(c.invalidate(line), o.invalidate(line)),
                    _ => {
                        prop_assert_eq!(
                            c.insert(line, flag, InsertPolicy::Mru),
                            o.insert(line, flag, InsertPolicy::Mru)
                        );
                        for _ in 0..burst {
                            prop_assert!(c.access(line, false) && o.access(line, false));
                        }
                    }
                }
            }
            // The arrays exist exactly when a line has been inserted.
            prop_assert_eq!(c.tags.is_empty(), !inserted);
            if inserted {
                prop_assert_eq!(&c.tags, &o.tags);
                prop_assert_eq!(&c.dirty, &o.dirty);
            } else {
                prop_assert!(o.tags.iter().all(|&t| t == INVALID_TAG));
            }
            prop_assert_eq!(c.occupancy(), o.occupancy());
        }
    }

    #[test]
    fn never_filled_cache_misses_and_owns_no_arrays() {
        let mut c = SetAssocCache::new(64, 8, 3);
        for line in [0, 1, 8, 64 * 8, u64::MAX / LINE_BYTES] {
            let a = addr(line);
            c.prefetch(a);
            assert!(!c.probe(a));
            assert_eq!(c.find(a), None);
            assert!(!c.access(a, true));
            assert_eq!(c.invalidate(a), None);
        }
        assert_eq!(c.occupancy(), 0);
        assert_eq!((c.num_sets(), c.associativity()), (64, 8));
        // Lookups, prefetches and invalidates allocate nothing, and a
        // clone (a pre-tick snapshot or fork) copies no storage.
        for cache in [&c, &c.clone()] {
            assert_eq!(cache.tags.capacity(), 0);
            assert_eq!(cache.ranks.capacity(), 0);
            assert_eq!(cache.top.capacity(), 0);
            assert_eq!(cache.dirty.capacity(), 0);
        }
    }

    #[test]
    fn first_insert_materializes_the_arrays() {
        let (sets, ways) = (4, 2);
        let mut c = SetAssocCache::new(sets, ways, 0);
        let mut o = StampCache::new(sets, ways, 0);
        assert!(!c.access(addr(5), false) && !o.access(addr(5), false));
        assert_eq!(c.insert(addr(5), true, InsertPolicy::Lru), None);
        assert_eq!(c.tags.len(), sets * ways);
        assert_eq!(c.ranks.len(), sets * ways);
        assert_eq!((c.top.len(), c.dirty.len()), (sets, sets));
        assert_eq!(c.occupancy(), 1);
        o.insert(addr(5), true, InsertPolicy::Lru);
        // From then on every hit, victim and dirty bit is the eagerly
        // allocated oracle's: lines 1, 5, 9, 13, ... share set 1.
        for (i, line) in [1, 9, 5, 13, 9, 17, 1, 21, 5].into_iter().enumerate() {
            let policy = if i % 3 == 0 {
                InsertPolicy::Lru
            } else {
                InsertPolicy::Mru
            };
            assert_eq!(
                c.access(addr(line), i % 2 == 0),
                o.access(addr(line), i % 2 == 0)
            );
            assert_eq!(
                c.insert(addr(line + 2), false, policy),
                o.insert(addr(line + 2), false, policy)
            );
            assert_eq!(
                c.insert(addr(line), false, policy),
                o.insert(addr(line), false, policy)
            );
        }
        assert_eq!(c.tags, o.tags);
        assert_eq!(c.dirty, o.dirty);
        assert!(c.clone().tags.capacity() >= sets * ways);
    }

    #[test]
    fn renumbering_keeps_the_eviction_order() {
        // One 4-way set. Each round touches its lines in a pseudo-random
        // order, then hits the most recent one ~100 times, so `top`
        // passes 255 every few rounds while the other lines keep their
        // old ranks; then a streaming line passes through. Every victim
        // must be the line a plain recency list names.
        let mut c = SetAssocCache::new(1, 4, 0);
        // Resident lines, least recently used first.
        let mut recency: Vec<u64> = (0..4).collect();
        for &l in &recency {
            c.insert(addr(l), false, InsertPolicy::Mru);
        }
        let (mut next_line, mut x, mut renumberings) = (100u64, 1u64, 0);
        for round in 0..60 {
            for _ in 0..8 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let l = recency[((x >> 33) % 4) as usize];
                assert!(c.access(addr(l), false));
                recency.retain(|&r| r != l);
                recency.push(l);
            }
            let mru = recency[3];
            for _ in 0..90 + round % 20 {
                let top = c.top[0];
                assert!(c.access(addr(mru), false));
                renumberings += usize::from(c.top[0] <= top);
            }
            // A streaming line evicts the LRU line and then is the first
            // victim itself, ahead of every touched line.
            let stream = next_line;
            let v = c.insert(addr(stream), false, InsertPolicy::Lru).unwrap();
            assert_eq!(v.line_addr, addr(recency.remove(0)));
            let v = c
                .insert(addr(stream + 1), false, InsertPolicy::Lru)
                .unwrap();
            assert_eq!(v.line_addr, addr(stream));
            // Re-referenced, it is promoted above every other line.
            assert!(c.access(addr(stream + 1), false));
            recency.push(stream + 1);
            next_line += 2;
        }
        assert!(renumberings >= 20, "{renumberings} renumberings");
        assert!(c.ranks.iter().all(|&r| r <= c.top[0]));
    }

    #[test]
    fn renumbering_keeps_streaming_lines_tied() {
        // Streaming lines in ways 0 and 1 (rank 0), used lines in ways 2
        // and 3; a renumbering; then a third streaming line in way 3. All
        // three tie at rank 0, so the first way goes first, as it did
        // with stamps.
        let mut c = SetAssocCache::new(1, 4, 0);
        c.insert(addr(0), false, InsertPolicy::Lru);
        c.insert(addr(1), false, InsertPolicy::Lru);
        c.insert(addr(2), false, InsertPolicy::Mru);
        c.insert(addr(3), false, InsertPolicy::Mru);
        for _ in 0..300 {
            assert!(c.access(addr(2), false));
        }
        assert!(c.top[0] < 100, "the set was renumbered");
        assert_eq!(c.find(addr(3)), Some((0, 3)));
        c.invalidate(addr(3));
        c.insert(addr(4), false, InsertPolicy::Lru);
        let victims: Vec<Addr> = (5..8)
            .map(|l| {
                c.insert(addr(l), false, InsertPolicy::Mru)
                    .unwrap()
                    .line_addr
            })
            .collect();
        assert_eq!(victims, [addr(0), addr(1), addr(4)]);
    }
}
