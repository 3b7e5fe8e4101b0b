//! Footprint gate for building and forking a pre-tick machine.
//!
//! A byte-counting global allocator wraps the system allocator, and a
//! pre-tick Table 5 `System` is built, snapshotted and forked, the
//! steps of the "build one scenario, fork it per policy" workflow
//! (`Experiment::snapshot_scenario` + `Experiment::run_forked`). No
//! cache has held a line yet, so no L1 or LLC slice owns tag, rank or
//! dirty arrays: each cache allocates them at its first fill. The
//! 16 MiB L2's arrays alone are about 2.5 MiB, so a machine that
//! allocated them up front would fail every bound below.
//!
//! The counters are process-wide, so this binary holds this one test:
//! a second test running on another thread would race it.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::{Instr, Program};
use llamcat_sim::system::System;

struct CountingAlloc;

/// Bytes requested by every allocation and reallocation so far.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `f` allocates, and its result.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// A small decode-shaped program: each block streams vector loads
/// over its own address range with one compute cycle per row.
fn decode_program(cores: usize, blocks_per_core: usize, rows: u64) -> Program {
    let blocks: Vec<Vec<Instr>> = (0..(cores * blocks_per_core) as u64)
        .map(|b| {
            (0..rows)
                .flat_map(|r| {
                    [
                        Instr::Load {
                            addr: (b * rows + r) * 128,
                            bytes: 128,
                        },
                        Instr::Compute { cycles: 1 },
                    ]
                })
                .collect()
        })
        .collect();
    Program::round_robin(blocks, cores)
}

const KIB: u64 = 1024;

#[test]
fn pre_tick_build_snapshot_and_fork_carry_no_cache_arrays() {
    let cfg = SystemConfig::table5();
    let program = decode_program(cfg.num_cores, 4, 32);

    let (built, system) = allocated_by(|| System::new(cfg, program, &|_| FifoArbiter, NoThrottle));
    let (snapped, snap) = allocated_by(|| system.snapshot());
    let (forked, fork) = allocated_by(|| snap.fork());
    assert_eq!((snap.cycle(), fork.cycle()), (0, 0), "pre-tick");
    println!("bytes allocated: System::new {built}, snapshot() {snapped}, fork() {forked}");

    assert!(
        built <= 1024 * KIB,
        "System::new allocated {built} bytes (bound 1 MiB)"
    );
    assert!(
        snapped <= 512 * KIB,
        "snapshot() allocated {snapped} bytes (bound 512 KiB)"
    );
    assert!(
        forked <= 512 * KIB,
        "fork() allocated {forked} bytes (bound 512 KiB)"
    );
}
