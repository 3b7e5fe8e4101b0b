//! Property suite: the handle-based request queue preserves the
//! arbiter-visible selection order of the seed implementation.
//!
//! PR 5 replaced the slice's `Vec<QueuedReq>` (requests by value) with
//! a ring of 4-byte [`ReqHandle`]s backed by the [`ReqPool`] free-list
//! arena. The contract: at every arbitration the arbiter sees exactly
//! the FIFO order the seed's by-value queue would have shown — index 0
//! oldest, middle removals order-stable, ingress admitted in delivery
//! order. A recording arbiter drives an [`LlcSlice`] with
//! pseudo-random mid-queue selections while a seed-semantics model
//! queue (plain `VecDeque` of request ids, mirroring admission and
//! removal) checks the visible queue element-by-element on every
//! `select` call.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;

use llamcat_sim::arb::{ArbiterCtx, RequestArbiter};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::llc::LlcSlice;
use llamcat_sim::pool::ReqPool;
use llamcat_sim::types::{Cycle, MemReq, LINE_BYTES};

/// Seed-semantics model of the request queue: ingress + admitted ring
/// of request ids, with the exact admission rule of the slice
/// (`drain_ingress` tops the queue up to capacity after arbitration).
struct ModelQueue {
    ingress: VecDeque<u64>,
    admitted: VecDeque<u64>,
    capacity: usize,
}

impl ModelQueue {
    fn deliver(&mut self, id: u64) {
        self.ingress.push_back(id);
    }

    fn remove(&mut self, idx: usize) -> u64 {
        self.admitted.remove(idx).expect("model index valid")
    }

    fn drain_ingress(&mut self) {
        while self.admitted.len() < self.capacity {
            let Some(id) = self.ingress.pop_front() else {
                return;
            };
            self.admitted.push_back(id);
        }
    }
}

/// Arbiter that checks the visible queue against the model on every
/// call, then picks a pseudo-random (but deterministic) index.
struct RecordingArbiter {
    model: Rc<RefCell<ModelQueue>>,
    /// Selection salt (drives which index is chosen).
    salt: u64,
    calls: u64,
    /// Set on the first mismatch (proptest asserts after the run; a
    /// panic inside the slice would lose the minimal case).
    mismatch: Rc<RefCell<Option<String>>>,
}

impl RequestArbiter for RecordingArbiter {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        self.calls += 1;
        let visible: Vec<u64> = ctx.iter().map(|r| r.id).collect();
        let expected: Vec<u64> = {
            let m = self.model.borrow();
            m.admitted.iter().copied().collect()
        };
        if visible != expected && self.mismatch.borrow().is_none() {
            *self.mismatch.borrow_mut() = Some(format!(
                "call {}: arbiter saw {visible:?}, seed order is {expected:?}",
                self.calls
            ));
        }
        if ctx.is_empty() {
            return None;
        }
        // Pseudo-random mid-queue pick: exercises order stability of
        // removals at every position.
        let idx = ((self.calls.wrapping_mul(self.salt)) % ctx.len() as u64) as usize;
        self.model.borrow_mut().remove(idx);
        Some(idx)
    }
}

// Random request streams + random mid-queue selections: the
// arbiter-visible queue matches the seed model at every single
// arbitration.
proptest! {
    #[test]
    fn handle_queue_preserves_seed_selection_order(
        salt in 1u64..997,
        burst in 1usize..6,
        gap in 0u64..4,
        total in 20usize..160,
    ) {
        let mut cfg = SystemConfig::table5().l2;
        // A huge MSHR keeps the pipeline from stalling, so arbitration
        // (and therefore order checking) happens on every possible
        // cycle; distinct lines make every request a plain miss.
        cfg.mshr_entries = 4096;
        cfg.mshr_targets = 8;

        let model = Rc::new(RefCell::new(ModelQueue {
            ingress: VecDeque::new(),
            admitted: VecDeque::new(),
            capacity: cfg.req_q_size,
        }));
        let mismatch: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
        let arbiter = RecordingArbiter {
            model: Rc::clone(&model),
            salt,
            calls: 0,
            mismatch: Rc::clone(&mismatch),
        };
        let mut slice = LlcSlice::new(0, cfg, 4, arbiter);
        let mut pool = ReqPool::default();

        let mut delivered = 0u64;
        let mut now: Cycle = 0;
        let queue_live = |m: &Rc<RefCell<ModelQueue>>| {
            let m = m.borrow();
            !m.admitted.is_empty() || !m.ingress.is_empty()
        };
        while delivered < total as u64 || queue_live(&model) {
            if delivered < total as u64 && now.is_multiple_of(gap + 1) {
                for _ in 0..burst {
                    if delivered >= total as u64 {
                        break;
                    }
                    let id = delivered;
                    delivered += 1;
                    let h = pool.alloc(MemReq {
                        id,
                        core: (id % 4) as usize,
                        request: 0,
                        // Distinct lines, constant slice bits.
                        line_addr: id * LINE_BYTES * 8,
                        is_write: false,
                        issued_at: now,
                    });
                    slice.deliver(h);
                    model.borrow_mut().deliver(id);
                }
            }
            slice.tick(now, &mut pool);
            // Mirror the slice's own tick tail: ingress drains into the
            // request queue after arbitration.
            model.borrow_mut().drain_ingress();
            now += 1;
            prop_assert!(now < 100_000, "harness failed to drain");
            // DRAM reads are irrelevant to request-queue order; keep
            // the backlog from growing unboundedly.
            while slice.dram_reads.pop_front().is_some() {}
        }
        prop_assert!(
            mismatch.borrow().is_none(),
            "{}",
            mismatch.borrow().clone().unwrap_or_default()
        );
    }
}
