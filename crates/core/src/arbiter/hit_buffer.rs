//! The hit buffer: a FIFO of recently observed cache-hit line addresses
//! (Section 4.3.1, the red `hit buffer (FIFO)` of Fig 4).
//!
//! The arbiter cannot afford a real tag lookup per queued request, so it
//! *speculates*: an address that hit recently (or was just filled) is
//! likely to hit again. Mispredictions are harmless — the real lookup
//! still decides — they only cost arbitration quality.
//!
//! `contains` runs once per queued candidate per arbitration pass, which
//! made the naive 48-entry linear scan one of the hottest leaves of the
//! whole simulator. The FIFO is therefore shadowed by an occurrence-count
//! index (non-adjacent duplicates are legal, so a plain set is not
//! enough), keeping lookups O(1) while the observable FIFO semantics —
//! insertion order, eviction order, adjacent-duplicate coalescing — stay
//! exactly as before. A hash-free variant (a branch-free compare over
//! every entry, like the `sent_reqs` ring) was prototyped and measured
//! neutral end to end, so the index stays.

use std::collections::VecDeque;

use llamcat_sim::hash::AddrHashMap;
use llamcat_sim::types::Addr;

/// Bounded FIFO of line addresses used for cache-hit speculation.
#[derive(Debug, Clone)]
pub struct HitBuffer {
    entries: VecDeque<Addr>,
    /// Occurrences of each address currently in `entries` (duplicates
    /// arise when an address re-recorded after intervening traffic is
    /// still resident). Pre-reserved to `capacity`: no steady-state
    /// allocation (`tests/alloc_regression.rs` gates the hot path).
    index: AddrHashMap<Addr, u32>,
    capacity: usize,
}

impl HitBuffer {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let mut index = AddrHashMap::default();
        index.reserve(capacity);
        HitBuffer {
            entries: VecDeque::with_capacity(capacity),
            index,
            capacity,
        }
    }

    /// Records a (predicted-to-repeat) hit address; evicts the oldest
    /// entry when full. Duplicate of the newest entry is skipped to
    /// preserve capacity under bursty repeats.
    pub fn record(&mut self, line_addr: Addr) {
        if self.entries.back() == Some(&line_addr) {
            return;
        }
        if self.entries.len() == self.capacity {
            let old = self.entries.pop_front().expect("capacity > 0");
            match self.index.get_mut(&old) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.index.remove(&old);
                }
            }
        }
        self.entries.push_back(line_addr);
        *self.index.entry(line_addr).or_insert(0) += 1;
    }

    /// Speculative lookup.
    pub fn contains(&self, line_addr: Addr) -> bool {
        self.index.contains_key(&line_addr)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_finds() {
        let mut h = HitBuffer::new(4);
        h.record(0x40);
        h.record(0x80);
        assert!(h.contains(0x40));
        assert!(h.contains(0x80));
        assert!(!h.contains(0xc0));
    }

    #[test]
    fn fifo_eviction() {
        let mut h = HitBuffer::new(2);
        h.record(1);
        h.record(2);
        h.record(3);
        assert!(!h.contains(1), "oldest evicted");
        assert!(h.contains(2));
        assert!(h.contains(3));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn consecutive_duplicates_coalesce() {
        let mut h = HitBuffer::new(2);
        h.record(7);
        h.record(7);
        h.record(7);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut h = HitBuffer::new(2);
        h.record(1);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(1));
    }

    #[test]
    fn non_adjacent_duplicate_survives_single_eviction() {
        // [7, 8, 7] at capacity 3: evicting the front 7 must not make
        // the resident back 7 invisible to `contains`.
        let mut h = HitBuffer::new(3);
        h.record(7);
        h.record(8);
        h.record(7);
        assert_eq!(h.len(), 3);
        h.record(9); // evicts the front 7
        assert!(h.contains(7), "second occurrence still resident");
        assert!(h.contains(8));
        assert!(h.contains(9));
        h.record(10); // evicts 8
        h.record(11); // evicts the second 7
        assert!(!h.contains(7), "both occurrences gone");
    }
}
