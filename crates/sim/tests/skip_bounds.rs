//! Property tests for the event-bound contract behind `StepMode::Skip`
//! (see `DESIGN.md`, "The event-bound contract").
//!
//! Four invariants, checked over randomly generated small programs and
//! request streams (case count capped by `PROPTEST_CASES`, like the
//! other property suites):
//!
//! 1. **Bounds are never late.** Whenever a component's `next_event`
//!    claims quiescence for a cycle, actually ticking that cycle must
//!    change nothing beyond the closed-form per-cycle accrual.
//! 2. **Throttle-period boundaries are preserved.** A period-driven
//!    throttle controller observes its sampling boundaries at exactly
//!    the same cycles in Skip mode as in Cycle mode — skipping never
//!    jumps over or reorders them.
//! 3. **Whole-system equivalence.** Random programs, core counts and
//!    periods produce byte-identical `SimStats` in both modes.
//! 4. **Cached bounds are exact.** A DRAM channel's cached `next_event`
//!    equals a fresh computation after every enqueue, tick and skip.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use llamcat_sim::arb::{FifoArbiter, ThrottleController, ThrottleInputs};
use llamcat_sim::config::{DramConfig, SystemConfig};
use llamcat_sim::dram::{AddressMapping, Channel, MappingScheme};
use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::sched::TbScheduler;
use llamcat_sim::system::{StepMode, System};
use llamcat_sim::types::{Cycle, MemResp, LINE_BYTES};

// ---------------------------------------------------------------------
// Program generation (the shim has no prop_oneof/prop_map; decode plain
// integer tuples instead).
// ---------------------------------------------------------------------

/// (address selector, shape selector, compute length) -> one block.
fn decode_block(addr_sel: u64, kind: u8, compute: u32) -> ThreadBlock {
    let addr = addr_sel * 128;
    let instrs = match kind % 4 {
        0 => vec![Instr::Load { addr, bytes: 128 }, Instr::Barrier],
        1 => vec![
            Instr::Compute { cycles: compute },
            Instr::Load { addr, bytes: 128 },
            Instr::Barrier,
        ],
        2 => vec![
            Instr::Store { addr, bytes: 64 },
            Instr::Compute { cycles: compute },
        ],
        _ => vec![
            Instr::Load { addr, bytes: 128 },
            Instr::Load {
                addr: addr + 4096,
                bytes: 128,
            },
            Instr::Barrier,
            Instr::Compute { cycles: compute },
        ],
    };
    ThreadBlock { instrs }
}

fn decode_program(blocks: &[(u64, u8, u32)], cores: usize) -> Program {
    Program::round_robin(
        blocks
            .iter()
            .map(|&(a, k, c)| decode_block(a, k, c))
            .collect(),
        cores,
    )
}

// ---------------------------------------------------------------------
// A boundary-recording periodic throttle: logs every sampling boundary
// it observes and alternates its decision so boundaries are
// behaviorally visible (a missed or reordered boundary changes the
// simulation, not just the log).
// ---------------------------------------------------------------------

struct PeriodicThrottle {
    period: u64,
    next: u64,
    fired: Rc<RefCell<Vec<Cycle>>>,
}

impl PeriodicThrottle {
    fn new(period: u64, fired: Rc<RefCell<Vec<Cycle>>>) -> Self {
        PeriodicThrottle {
            period,
            next: period,
            fired,
        }
    }
}

impl ThrottleController for PeriodicThrottle {
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]) {
        if inputs.cycle >= self.next {
            self.next = inputs.cycle + self.period;
            self.fired.borrow_mut().push(inputs.cycle);
            let tighten = (inputs.cycle / self.period) % 2 == 1;
            for m in max_tb.iter_mut() {
                *m = if tighten {
                    (inputs.num_windows - 1).max(1)
                } else {
                    inputs.num_windows
                };
            }
        }
    }

    fn reset(&mut self, _num_cores: usize) {
        self.next = self.period;
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        Some(self.next)
    }
}

fn run_recorded(
    cfg: SystemConfig,
    program: Program,
    period: u64,
    mode: StepMode,
) -> (String, bool, Vec<Cycle>) {
    let fired = Rc::new(RefCell::new(Vec::new()));
    let throttle = PeriodicThrottle::new(period, Rc::clone(&fired));
    let mut sys = System::new(cfg, program, &|_| FifoArbiter, throttle);
    let (stats, outcome) = sys.run_with_mode(400_000, mode);
    let boundaries = fired.borrow().clone();
    (
        serde_json::to_string(&stats).unwrap(),
        outcome == llamcat_sim::system::RunOutcome::Completed,
        boundaries,
    )
}

proptest! {
    // Invariants 2 and 3: identical stats bytes AND identical
    // throttle-boundary cycle sequences across step modes.
    #[test]
    fn random_programs_are_mode_equivalent(
        blocks in proptest::collection::vec((0u64..64, 0u8..4, 1u32..48), 1..16),
        period in 16u64..600,
        cores in 1usize..5,
    ) {
        let mut cfg = SystemConfig::table5();
        cfg.num_cores = cores;
        // Vary the clock-domain stress: refresh on for odd periods.
        cfg.dram.refresh = period % 2 == 1;
        let program = decode_program(&blocks, cores);
        let (stats_c, done_c, fired_c) =
            run_recorded(cfg, program.clone(), period, StepMode::Cycle);
        let (stats_s, done_s, fired_s) =
            run_recorded(cfg, program, period, StepMode::Skip);
        prop_assert_eq!(done_c, done_s, "outcome diverged");
        prop_assert_eq!(
            &fired_c, &fired_s,
            "throttle-period boundaries reordered by skipping"
        );
        prop_assert_eq!(stats_c, stats_s, "SimStats diverged");
    }

    // Invariant 1 for the DRAM channel: between `now` and the reported
    // bound, every tick must be a pure clock advance — no stat
    // changes, no queue movement, no returns.
    #[test]
    fn channel_bound_is_never_late(
        ops in proptest::collection::vec((0u64..96, any::<bool>()), 1..24),
        refresh in any::<bool>(),
    ) {
        let mut cfg = DramConfig::table5();
        cfg.refresh = refresh;
        let mapping = AddressMapping::new(&cfg, MappingScheme::RoBaRaCoCh);
        let mut ch = Channel::new(cfg, 0);
        for &(sel, is_write) in &ops {
            // Keep every address on channel 0.
            let addr = sel * cfg.channels as u64 * LINE_BYTES;
            let coord = mapping.decode(addr);
            if is_write {
                ch.enqueue_write(addr, coord);
            } else {
                ch.enqueue_read(addr, coord, 0);
            }
        }
        let mut out = Vec::new();
        for _ in 0..4_000 {
            let Some(event) = ch.next_event() else { break };
            prop_assert!(event > ch.now(), "bound not in the future");
            let quiet_ticks = event - 1 - ch.now();
            let before = (
                serde_json::to_string(&ch.stats).unwrap(),
                ch.read_q_len(),
                ch.write_q_len(),
            );
            for _ in 0..quiet_ticks {
                ch.tick(&mut out);
            }
            prop_assert!(out.is_empty(), "return popped inside a quiet window");
            let after = (
                serde_json::to_string(&ch.stats).unwrap(),
                ch.read_q_len(),
                ch.write_q_len(),
            );
            prop_assert_eq!(before, after, "channel changed inside a quiet window");
            // Execute the event tick itself (may or may not act).
            ch.tick(&mut out);
            out.clear();
            if ch.is_idle() && !refresh {
                break;
            }
        }
        if !refresh {
            prop_assert!(ch.is_idle(), "channel failed to drain");
        }
    }

    // Invariant 4, the cached channel bound: after any sequence of
    // enqueues, ticks and quiet skips, the bound `next_event` serves
    // equals one computed from scratch. Checks run after a random subset
    // of steps only, so the cache is also built and kept by `tick`
    // alone (debug builds cross-check that path inside `tick`).
    #[test]
    fn channel_cached_bound_equals_fresh(
        ops in proptest::collection::vec((0u8..4, 0u64..96, 0u64..48, any::<bool>()), 1..160),
        refresh in any::<bool>(),
    ) {
        let mut cfg = DramConfig::table5();
        cfg.refresh = refresh;
        let mapping = AddressMapping::new(&cfg, MappingScheme::RoBaRaCoCh);
        let mut ch = Channel::new(cfg, 0);
        let mut out = Vec::new();
        for &(op, sel, n, check) in &ops {
            // Keep every address on channel 0.
            let addr = sel * cfg.channels as u64 * LINE_BYTES;
            match op {
                0 => {
                    ch.enqueue_read(addr, mapping.decode(addr), 0);
                }
                1 => {
                    ch.enqueue_write(addr, mapping.decode(addr));
                }
                2 => {
                    for _ in 0..=n {
                        ch.tick(&mut out);
                    }
                }
                _ => {
                    // Skip up to `n` cycles, never onto the bound.
                    let quiet = ch
                        .next_event()
                        .map_or(n, |event| (event - 1 - ch.now()).min(n));
                    ch.skip(quiet);
                }
            }
            if check {
                let fresh = ch.fresh_bound();
                let fresh = (fresh != u64::MAX).then_some(fresh);
                prop_assert_eq!(ch.next_event(), fresh, "cached bound differs from a fresh one");
            }
        }
    }

    // Invariant 1 for the vector core: whenever `next_event` claims a
    // cycle is quiescent, ticking it must only bump exactly one of the
    // three accrual counters (idle / C_mem / active) and leave every
    // structural counter untouched.
    #[test]
    fn core_bound_is_never_late(
        blocks in proptest::collection::vec((0u64..48, 0u8..4, 1u32..48), 1..10),
        delay_salt in 1u64..97,
    ) {
        use llamcat_sim::core_model::VectorCore;

        let cfg = SystemConfig::table5();
        let program = decode_program(&blocks, 1);
        let total_blocks = program.num_blocks() as u64;
        let mut sched = TbScheduler::new(&program, 1, cfg.core.num_inst_windows);
        let flat = llamcat_sim::prog::FlatProgram::new(&program);
        let mut core = VectorCore::new(0, cfg.core, cfg.l1);
        let mut pool = llamcat_sim::pool::ReqPool::default();
        // (due cycle, response) — emulates the LLC/NoC round trip.
        let mut pending: Vec<(Cycle, MemResp)> = Vec::new();
        let mut completed = false;
        for now in 0..200_000u64 {
            let mut delivered = false;
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, resp) = pending.swap_remove(i);
                    core.on_resp(resp, now);
                    delivered = true;
                } else {
                    i += 1;
                }
            }
            let quiet = !delivered
                && core
                    .next_event(now, &sched)
                    .is_none_or(|bound| bound > now);
            let before = (
                core.stats.instrs_issued,
                core.stats.loads,
                core.stats.stores,
                core.stats.l1_lookups,
                core.stats.tbs_completed,
            );
            let accrual_before =
                core.stats.idle_cycles + core.stats.mem_stall_cycles + core.stats.active_cycles;
            core.tick(now, &flat, &mut sched, &mut pool);
            if quiet {
                let after = (
                    core.stats.instrs_issued,
                    core.stats.loads,
                    core.stats.stores,
                    core.stats.l1_lookups,
                    core.stats.tbs_completed,
                );
                prop_assert_eq!(before, after, "quiet tick changed structural state");
                prop_assert!(core.outbound.is_empty(), "quiet tick issued requests");
                let accrual_after = core.stats.idle_cycles
                    + core.stats.mem_stall_cycles
                    + core.stats.active_cycles;
                prop_assert_eq!(
                    accrual_after,
                    accrual_before + 1,
                    "quiet tick must accrue exactly one cycle"
                );
            }
            while let Some(h) = core.outbound.pop_front() {
                let req = *pool.get(h);
                pool.release(h);
                let due = now + 5 + (req.id.wrapping_mul(delay_salt)) % 60;
                pending.push((
                    due,
                    MemResp {
                        id: req.id,
                        core: req.core,
                        line_addr: req.line_addr,
                    },
                ));
            }
            if core.stats.tbs_completed == total_blocks && core.is_idle() {
                completed = true;
                break;
            }
        }
        prop_assert!(completed, "single-core harness failed to drain");
    }
}
