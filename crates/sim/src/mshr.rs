//! Miss Status Holding Registers (Section 2.4 of the paper).
//!
//! The MSHR file has two dimensions that both cause pipeline stalls when
//! exhausted:
//!
//! * `numEntry` — distinct outstanding cache misses (one DRAM fetch each);
//! * `numTarget` — requests merged onto one outstanding miss.
//!
//! A *merge* ("MSHR hit") rides an already-pending DRAM access: its lookup
//! latency overlaps DRAM latency, which is exactly why the paper's MA
//! arbitration policy prioritizes predicted MSHR hits. The arbiter reads
//! the live file through [`crate::arb::ArbiterCtx::mshr`], modelling the
//! paper's "direct wire connection" (Section 4.3.1): nothing mutates the
//! file between the pipeline stages of a cycle and the `select` call, so
//! no per-cycle copy is needed.

use crate::types::{Addr, CoreId, ReqId};

/// Outcome of attempting to register a miss in the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; a DRAM fetch must be issued.
    Allocated,
    /// The miss was merged into an existing entry for the same line.
    Merged,
    /// All entries are in use and the line is not pending: stall.
    FullEntries,
    /// The line is pending but its target list is full: stall.
    FullTargets,
}

/// One requester waiting on an outstanding line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrTarget {
    pub req_id: ReqId,
    pub core: CoreId,
    pub is_write: bool,
}

/// Line address that marks a free entry slot. Line addresses are
/// 64-byte aligned, so no real line ever equals it.
pub const NO_LINE: Addr = Addr::MAX;

/// The MSHR file of one LLC slice.
///
/// Data-oriented layout: entry metadata lives in small parallel arrays
/// and every entry's target list occupies a fixed-size window of one
/// flat preallocated buffer. The file performs **zero heap allocations
/// after construction** — [`MshrFile::complete`] hands back the
/// retiring entry's targets as a borrowed slice instead of a fresh
/// `Vec` (the seed implementation allocated one `Vec` per LLC miss,
/// which dominated the steady-state tick's allocator traffic).
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Line address per entry slot; [`NO_LINE`] marks a free slot.
    lines: Vec<Addr>,
    /// Live target count per entry slot.
    target_len: Vec<usize>,
    /// Flat target storage: slot `i` owns `[i * num_targets ..]`.
    targets: Vec<MshrTarget>,
    num_targets: usize,
    occupied: usize,
}

impl MshrFile {
    pub fn new(num_entries: usize, num_targets: usize) -> Self {
        assert!(num_entries > 0 && num_targets > 0);
        let filler = MshrTarget {
            req_id: 0,
            core: 0,
            is_write: false,
        };
        MshrFile {
            lines: vec![NO_LINE; num_entries],
            target_len: vec![0; num_entries],
            targets: vec![filler; num_entries * num_targets],
            num_targets,
            occupied: 0,
        }
    }

    /// Slot holding `line_addr`, if pending. At most one slot holds a
    /// given line, so a branch-free pass over every slot finds the same
    /// slot a first-match scan would.
    #[inline]
    fn slot_of(&self, line_addr: Addr) -> Option<usize> {
        debug_assert_ne!(line_addr, NO_LINE, "the free-slot sentinel is not a line");
        let mut slot = usize::MAX;
        for (i, &l) in self.lines.iter().enumerate() {
            if l == line_addr {
                slot = i; // a select, not a branch: no early exit
            }
        }
        (slot != usize::MAX).then_some(slot)
    }

    /// Attempts to register a miss for `line_addr` on behalf of `target`.
    pub fn register(&mut self, line_addr: Addr, target: MshrTarget) -> MshrOutcome {
        // Merge path first: the line may already be pending.
        if let Some(slot) = self.slot_of(line_addr) {
            let len = self.target_len[slot];
            if len >= self.num_targets {
                return MshrOutcome::FullTargets;
            }
            self.targets[slot * self.num_targets + len] = target;
            self.target_len[slot] = len + 1;
            return MshrOutcome::Merged;
        }
        // Allocate a fresh entry.
        match self.lines.iter().position(|&l| l == NO_LINE) {
            Some(slot) => {
                self.lines[slot] = line_addr;
                self.targets[slot * self.num_targets] = target;
                self.target_len[slot] = 1;
                self.occupied += 1;
                MshrOutcome::Allocated
            }
            None => MshrOutcome::FullEntries,
        }
    }

    /// Frees the entry for `line_addr` (DRAM fill arrived) and returns its
    /// waiting targets as a slice borrowed from the file's flat storage
    /// (valid until the next `register`). Returns `None` if no entry
    /// matches (e.g. a write-back completion).
    pub fn complete(&mut self, line_addr: Addr) -> Option<&[MshrTarget]> {
        let slot = self.slot_of(line_addr)?;
        self.lines[slot] = NO_LINE;
        self.occupied -= 1;
        let base = slot * self.num_targets;
        Some(&self.targets[base..base + self.target_len[slot]])
    }

    /// What [`MshrFile::register`] would return for `line_addr`, without
    /// mutating the file. Used by the fast-forward engine to classify a
    /// ready pipeline head as "would advance" vs "stalls every cycle".
    pub fn probe(&self, line_addr: Addr) -> MshrOutcome {
        if let Some(slot) = self.slot_of(line_addr) {
            if self.target_len[slot] >= self.num_targets {
                MshrOutcome::FullTargets
            } else {
                MshrOutcome::Merged
            }
        } else if self.occupied == self.lines.len() {
            MshrOutcome::FullEntries
        } else {
            MshrOutcome::Allocated
        }
    }

    /// Whether `line_addr` currently has a pending entry.
    pub fn contains(&self, line_addr: Addr) -> bool {
        self.slot_of(line_addr).is_some()
    }

    /// Remaining target slots for a pending line (None if not pending).
    pub fn free_targets(&self, line_addr: Addr) -> Option<usize> {
        self.slot_of(line_addr)
            .map(|slot| self.num_targets - self.target_len[slot])
    }

    /// Occupied entries.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Total entries (`numEntry`).
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    pub fn is_full(&self) -> bool {
        self.occupied == self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: ReqId) -> MshrTarget {
        MshrTarget {
            req_id: id,
            core: (id % 4) as usize,
            is_write: false,
        }
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.register(0x40, t(1)), MshrOutcome::Allocated);
        assert_eq!(m.register(0x40, t(2)), MshrOutcome::Merged);
        assert_eq!(m.occupancy(), 1);
        assert!(m.contains(0x40));
    }

    #[test]
    fn target_exhaustion_stalls() {
        let mut m = MshrFile::new(2, 2);
        m.register(0x40, t(1));
        m.register(0x40, t(2));
        assert_eq!(m.register(0x40, t(3)), MshrOutcome::FullTargets);
        // A different line can still allocate.
        assert_eq!(m.register(0x80, t(4)), MshrOutcome::Allocated);
    }

    #[test]
    fn entry_exhaustion_stalls() {
        let mut m = MshrFile::new(2, 8);
        m.register(0x40, t(1));
        m.register(0x80, t(2));
        assert!(m.is_full());
        assert_eq!(m.register(0xc0, t(3)), MshrOutcome::FullEntries);
        // Merging into a pending line still works while full.
        assert_eq!(m.register(0x40, t(4)), MshrOutcome::Merged);
    }

    #[test]
    fn complete_returns_all_targets_in_order() {
        let mut m = MshrFile::new(2, 4);
        m.register(0x40, t(1));
        m.register(0x40, t(2));
        m.register(0x40, t(3));
        let targets = m.complete(0x40).unwrap();
        assert_eq!(
            targets.iter().map(|x| x.req_id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(m.occupancy(), 0);
        assert!(!m.contains(0x40));
        assert!(m.complete(0x40).is_none());
    }

    #[test]
    fn free_targets_tracking() {
        let mut m = MshrFile::new(2, 3);
        assert_eq!(m.free_targets(0x40), None);
        m.register(0x40, t(1));
        assert_eq!(m.free_targets(0x40), Some(2));
        m.register(0x40, t(2));
        assert_eq!(m.free_targets(0x40), Some(1));
    }

    #[test]
    fn entry_reuse_after_completion() {
        let mut m = MshrFile::new(1, 1);
        assert_eq!(m.register(0x40, t(1)), MshrOutcome::Allocated);
        assert_eq!(m.register(0x80, t(2)), MshrOutcome::FullEntries);
        m.complete(0x40);
        assert_eq!(m.register(0x80, t(2)), MshrOutcome::Allocated);
    }
}
