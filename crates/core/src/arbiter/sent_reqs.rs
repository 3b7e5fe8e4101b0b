//! The `sent_reqs` FIFO (Section 4.3.1, red in Fig 4/Fig 5).
//!
//! A request chosen by the arbiter appears in the live MSHR file only
//! after the tag pipeline (hit-latency) and the MSHR lookup
//! (mshr-latency) complete. During that window the MSHR view is stale:
//! without compensation the arbiter would double-allocate entries or
//! miss merge opportunities. `sent_reqs` tracks the in-flight chosen
//! requests for exactly `hit_latency + mshr_latency` cycles, each tagged
//! with its `spec_hit_result` bit — speculated cache hits are masked out
//! when estimating MSHR pressure, since hits never touch the MSHR.
//!
//! A slice arbitrates at most once per cycle, so the FIFO is a ring with
//! one slot per cycle of residency: a choice writes the current cycle's
//! slot, and each tick clears the slot it moves onto (the one written a
//! full residency ago). A speculated hit writes [`NO_LINE`], which is
//! exactly how its bit masks it out. The lookup is then a fixed-size,
//! branch-free compare over the ring.

use llamcat_sim::mshr::NO_LINE;
use llamcat_sim::types::Addr;

/// Recently chosen requests still invisible in the MSHR file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentReqs {
    /// One slot per cycle of residency (hit-latency + mshr-latency);
    /// [`NO_LINE`] marks an idle cycle or a speculated hit.
    ring: Vec<Addr>,
    /// Slot of the current cycle.
    now: usize,
    /// Whether this cycle's slot has been written (checks the
    /// one-choice-per-cycle invariant).
    pushed: bool,
}

impl SentReqs {
    pub fn new(hit_latency: u64, mshr_latency: u64) -> Self {
        let residency = hit_latency + mshr_latency;
        assert!(residency > 0, "sent_reqs needs a nonzero residency");
        SentReqs {
            ring: vec![NO_LINE; residency as usize],
            now: 0,
            pushed: false,
        }
    }

    /// Registers this cycle's chosen request with its speculated-hit bit.
    pub fn push(&mut self, line_addr: Addr, spec_hit: bool) {
        debug_assert!(!self.pushed, "at most one arbitration per cycle");
        self.pushed = true;
        self.ring[self.now] = if spec_hit { NO_LINE } else { line_addr };
    }

    /// Ages all entries by one cycle, retiring the one whose MSHR state
    /// is now architecturally visible.
    pub fn tick(&mut self) {
        self.now = if self.now + 1 == self.ring.len() {
            0
        } else {
            self.now + 1
        };
        self.ring[self.now] = NO_LINE;
        self.pushed = false;
    }

    /// Fast-forwards `cycles` consecutive [`SentReqs::tick`]s (for the
    /// simulator's idle-cycle-skipping engine): clears the
    /// `min(cycles, residency)` slots the clock passes.
    pub fn skip(&mut self, cycles: u64) {
        let len = self.ring.len() as u64;
        for _ in 0..cycles.min(len) {
            self.tick();
        }
        // Every slot is clear after `len` ticks; the rest moves the clock.
        self.now = ((self.now as u64 + cycles.saturating_sub(len) % len) % len) as usize;
    }

    /// Whether `line_addr` is in flight as a *non-hit* (i.e. will occupy
    /// or merge into an MSHR entry shortly). Used to predict MSHR hits
    /// for requests issued back-to-back to the same line.
    pub fn pending_miss(&self, line_addr: Addr) -> bool {
        self.ring
            .iter()
            .fold(false, |hit, &l| hit | (l == line_addr))
    }

    pub fn clear(&mut self) {
        self.ring.fill(NO_LINE);
        self.pushed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retires_after_latency() {
        let mut s = SentReqs::new(3, 5);
        s.push(0x40, false);
        for _ in 0..7 {
            s.tick();
            assert!(s.pending_miss(0x40));
        }
        s.tick(); // 8th cycle: retired
        assert!(!s.pending_miss(0x40));
    }

    #[test]
    fn spec_hits_are_masked() {
        let mut s = SentReqs::new(3, 5);
        s.push(0x40, true);
        assert!(!s.pending_miss(0x40), "hit-tagged entries never claim MSHR");
    }

    #[test]
    fn fifo_order_retirement() {
        let mut s = SentReqs::new(1, 1);
        s.push(1, false);
        s.tick();
        s.push(2, false);
        s.tick(); // entry 1 retires (2 cycles), entry 2 has 1 left
        assert!(!s.pending_miss(1));
        assert!(s.pending_miss(2));
    }

    #[test]
    #[should_panic(expected = "nonzero residency")]
    fn zero_residency_is_rejected() {
        SentReqs::new(0, 0);
    }
}
