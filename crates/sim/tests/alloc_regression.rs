//! Allocation-regression gate for the data-oriented hot path.
//!
//! A counting global allocator wraps the system allocator; a
//! fig7-shaped memory-bound program (streaming vector loads with thin
//! compute, 16 cores, stores at block tails) is warmed up until every
//! ring buffer, arena and scratch vector has reached its steady-state
//! capacity, and then a long window of simulated cycles — one
//! `advance_with_mode` call per step mode — must perform **zero heap
//! allocations**. This pins the invariant that the steady-state loop is
//! allocation-free in both modes: its wake and watermark arrays are
//! preallocated scratch, MSHR target lists and
//! L1 waiter lists live in flat preallocated storage, requests are
//! recycled through the `ReqPool` arena, the NoC wheels reuse their
//! node arenas and the pipeline queues their rings, and the per-fill
//! `mshr_pipe` rebuild is an in-place rotation.
//!
//! Each L1 and LLC slice allocates its tag, rank and dirty arrays once,
//! at its first fill (a cache that has never held a line owns none), so
//! those allocations land inside the warm-up, never in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::{Instr, Program};
use llamcat_sim::system::{StepMode, System};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Diagnostics: while armed, the size of the last offending
/// (re)allocation is recorded so a regression points at its source
/// (1_000_000 + size marks a realloc).
static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static TRAP_SIZE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) {
            TRAP_SIZE.store(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) {
            TRAP_SIZE.store(1_000_000 + new_size as u64, Ordering::Relaxed);
        }
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A fig7-shaped decode program: every block streams vector loads
/// (128 B, split into two line requests each) over a distinct address
/// range with one compute cycle per row — the paper-default
/// memory-bound regime where the machine is busy nearly every cycle —
/// then barriers and posts a store (the attention-output write-back
/// shape), so the write path and DRAM write queues warm up too.
fn fig7_shaped_program(cores: usize, blocks_per_core: usize, rows: usize) -> Program {
    let mut blocks = Vec::new();
    for b in 0..(cores * blocks_per_core) as u64 {
        let base = b * (rows as u64) * 128;
        let mut instrs = Vec::new();
        for r in 0..rows as u64 {
            instrs.push(Instr::Load {
                addr: base + r * 128,
                bytes: 128,
            });
            instrs.push(Instr::Compute { cycles: 1 });
        }
        instrs.push(Instr::Barrier);
        instrs.push(Instr::Store {
            addr: base,
            bytes: 64,
        });
        blocks.push(instrs);
    }
    Program::round_robin(blocks, cores)
}

#[test]
fn steady_state_ticks_are_allocation_free() {
    let mut cfg = SystemConfig::table5();
    cfg.dram.refresh = true; // include the refresh machinery
    let program = fig7_shaped_program(cfg.num_cores, 24, 64);
    let mut system = System::new(cfg, program, &|_| FifoArbiter, NoThrottle);

    // Warm-up, in both modes: long enough for every queue, lane, arena
    // and scratch to reach its high-water capacity (the machine is in
    // steady state well before this).
    system.advance_with_mode(20_000, StepMode::Cycle);
    system.advance_with_mode(40_000, StepMode::Skip);
    assert!(
        !system.is_done(),
        "warm-up consumed the whole program; grow it so the window \
         measures steady state"
    );

    for mode in [StepMode::Cycle, StepMode::Skip] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        TRAP.store(true, Ordering::Relaxed);
        system.advance_with_mode(system.cycle() + 20_000, mode);
        TRAP.store(false, Ordering::Relaxed);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(
            !system.is_done(),
            "measurement window drained the program; grow it so the \
             window measures steady state"
        );
        assert_eq!(
            after - before,
            0,
            "{mode:?}: steady-state cycles allocated {} times (last size {})",
            after - before,
            TRAP_SIZE.load(Ordering::Relaxed)
        );
    }
}
