//! Allocation-regression gate for the *policy* hot paths.
//!
//! `crates/sim/tests/alloc_regression.rs` pins the substrate's
//! zero-alloc steady state under FIFO + no throttling; this companion
//! covers the paths that configuration exercises nowhere — the MSHR
//! snapshot rebuild, the MSHR-aware arbiter's speculation machinery
//! (hit buffer, `sent_reqs`, candidate scratch, balanced tie-break)
//! and DynMg's sampling-period work — by running the headline
//! `dynmg+BMA` cell through the same counting-allocator windows, one
//! per step mode.
//!
//! Each L1 and LLC slice allocates its tag, rank and dirty arrays once,
//! at its first fill (a cache that has never held a line owns none), so
//! those allocations land inside the warm-up, never in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use llamcat::spec::PolicySpec;
use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::{Instr, Program};
use llamcat_sim::system::{StepMode, System};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Same fig7-shaped memory-bound decode program as the substrate gate.
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
fn dynmg_bma_steady_state_ticks_are_allocation_free() {
    let mut cfg = SystemConfig::table5();
    cfg.dram.refresh = true;
    let program = fig7_shaped_program(cfg.num_cores, 24, 64);
    let spec = PolicySpec::dynmg_bma();
    let mut system = System::new(
        cfg,
        program,
        &|_| spec.arb.build_kind_for(&cfg.l2),
        spec.throttle.build_kind(),
    );

    // Warm-up, in both step modes, must span several DynMg sampling
    // periods (default 6000 cycles) so the controller's scratch and the
    // throttled machine's queue shapes all reach steady state.
    system.advance_with_mode(20_000, StepMode::Cycle);
    system.advance_with_mode(40_000, StepMode::Skip);
    assert!(!system.is_done(), "warm-up consumed the whole program");

    for mode in [StepMode::Cycle, StepMode::Skip] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        system.advance_with_mode(system.cycle() + 20_000, mode);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(!system.is_done(), "window drained the program");
        assert_eq!(
            after - before,
            0,
            "{mode:?}: dynmg+BMA steady-state cycles allocated {} times",
            after - before
        );
    }
}
