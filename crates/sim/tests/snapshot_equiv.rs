//! Differential suite for the snapshot/fork layer.
//!
//! The contract: a system forked (or restored) from a snapshot taken at
//! any cycle T and then run to its budget is **byte-identical** — same
//! serialized `SimStats` including per-request admission/TTFT/KV
//! counters, same `RunOutcome` — to the straight-line run that never
//! paused, in both step modes. Every component a snapshot must capture
//! is exercised: stateful arbiters and throttles (BMA + DynMg), the
//! MSHR files, DRAM timing registers mid-refresh, the KV tier
//! mid-promotion, and the request injector mid-queue.
//!
//! This is the guarantee the resumable campaign runner
//! (`llamcat-bench`) builds on, and what makes bisection debugging
//! (snapshot, run, rewind, re-run) trustworthy.

use proptest::prelude::*;

use llamcat::experiment::Experiment;
use llamcat::spec::PolicySpec;
use llamcat_sim::arb::{ArbiterCtx, FifoArbiter, NoThrottle, RequestArbiter};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::kv::{KvEviction, KvTierConfig};
use llamcat_sim::prog::{Instr, Program};
use llamcat_sim::serve::{RequestInjector, ServePolicy};
use llamcat_sim::stats::SimStats;
use llamcat_sim::system::{RunOutcome, StepMode, System};
use llamcat_sim::types::Cycle;
use llamcat_trace::workloads::WorkloadSpec;

const BUDGET: u64 = 50_000_000;

fn stats_json(stats: &SimStats) -> String {
    serde_json::to_string(stats).expect("stats serialize")
}

// ---------------------------------------------------------------------
// Closed-set workload under the paper's stateful policy pair.
// ---------------------------------------------------------------------

/// The paper's final policy (BMA arbiter + DynMg throttle) on a real
/// generated trace: both policies carry history that the snapshot must
/// capture exactly.
fn rich_system() -> System<llamcat::arbiter::ArbiterKind, llamcat::throttle::ThrottleKind> {
    let e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128).policy(PolicySpec::dynmg_bma());
    let program = e.build_program();
    let arb = e.policy.arb.clone();
    System::new(
        e.config,
        program,
        &move |_| arb.build_kind_for(&e.config.l2),
        e.policy.throttle.build_kind(),
    )
}

/// Fork-at-T ≡ straight-line, and restore-after-overrun ≡ straight-line,
/// at several cut points, in one step mode.
fn assert_fork_equivalent(mode: StepMode) {
    let mut reference = rich_system();
    let (stats_ref, out_ref) = reference.run_with_mode(BUDGET, mode);
    assert_eq!(out_ref, RunOutcome::Completed);
    let total = stats_ref.cycles;
    let json_ref = stats_json(&stats_ref);

    for frac in [1u64, 2, 3] {
        let t = total * frac / 4;
        let mut sys = rich_system();
        sys.run_with_mode(t, mode);
        assert_eq!(sys.cycle(), t, "paused exactly at the cut point");
        let snap = sys.snapshot();
        assert_eq!(snap.cycle(), t);

        // Fork an independent continuation.
        let mut fork = snap.fork();
        let (stats_f, out_f) = fork.run_with_mode(BUDGET, mode);
        assert_eq!(out_f, out_ref, "fork@{t} ({mode:?}): outcome diverged");
        assert_eq!(
            stats_json(&stats_f),
            json_ref,
            "fork@{t} ({mode:?}): SimStats diverged from straight line"
        );

        // Rewind the original after it ran past the cut point.
        sys.run_with_mode(BUDGET, mode);
        sys.restore(&snap);
        assert_eq!(sys.cycle(), t, "restore rewound to the snapshot cycle");
        let (stats_r, out_r) = sys.run_with_mode(BUDGET, mode);
        assert_eq!(out_r, out_ref, "restore@{t} ({mode:?}): outcome diverged");
        assert_eq!(
            stats_json(&stats_r),
            json_ref,
            "restore@{t} ({mode:?}): SimStats diverged from straight line"
        );
    }
}

#[test]
fn fork_at_cycle_t_matches_straight_line_cycle_mode() {
    assert_fork_equivalent(StepMode::Cycle);
}

#[test]
fn fork_at_cycle_t_matches_straight_line_skip_mode() {
    assert_fork_equivalent(StepMode::Skip);
}

/// A snapshot is mode-agnostic: pausing in one mode and resuming in the
/// other still lands on the straight-line Cycle-mode statistics (the
/// step-mode equivalence extends across the cut).
#[test]
fn cross_mode_fork_matches_straight_line() {
    let mut reference = rich_system();
    let (stats_ref, _) = reference.run_with_mode(BUDGET, StepMode::Cycle);
    let json_ref = stats_json(&stats_ref);
    let t = stats_ref.cycles / 2;
    for (pause, resume) in [
        (StepMode::Cycle, StepMode::Skip),
        (StepMode::Skip, StepMode::Cycle),
    ] {
        let mut sys = rich_system();
        sys.run_with_mode(t, pause);
        let mut fork = sys.snapshot().fork();
        let (stats, outcome) = fork.run_with_mode(BUDGET, resume);
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(
            stats_json(&stats),
            json_ref,
            "pause {pause:?} / resume {resume:?} diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Open system with a KV tier: snapshot mid-queue and mid-promotion.
// ---------------------------------------------------------------------

fn small_cfg(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::table5();
    cfg.num_cores = cores;
    cfg
}

fn tight_kv() -> KvTierConfig {
    KvTierConfig {
        warm_capacity_blocks: 4,
        block_bytes: 256,
        slow_latency: 400,
        slow_bytes_per_cycle: 16,
        max_inflight: 2,
        eviction: KvEviction::Lru,
    }
}

/// `n` request-tagged blocks-per-request, each mixing plain and
/// KV-window loads inside the request's VA slot (so the tier engages
/// and keeps promotions in flight).
fn open_kv_program(n: u32, blocks_per: usize) -> Program {
    let mut blocks = Vec::new();
    let mut tags = Vec::new();
    for r in 0..n {
        let slot = (r as u64) << 40;
        for b in 0..blocks_per {
            blocks.push(vec![
                Instr::Load {
                    addr: slot + (b as u64) * 256,
                    bytes: 128,
                },
                Instr::Load {
                    addr: slot + (1 << 32) + (b as u64) * 256,
                    bytes: 128,
                },
                Instr::Barrier,
            ]);
            tags.push(r);
        }
    }
    let assignment = vec![0; blocks.len()];
    Program::with_requests(blocks, assignment, tags, Vec::new())
}

fn open_kv_system(p: &Program, arrivals: Vec<u64>) -> System<FifoArbiter, NoThrottle> {
    let cfg = small_cfg(2);
    let injector = RequestInjector::new(
        p,
        arrivals,
        ServePolicy::ContinuousBatching { slots: 2 },
        2,
        cfg.core.num_inst_windows,
    )
    .expect("valid injector");
    let mut sys = System::new(cfg, p.clone(), &|_| FifoArbiter, NoThrottle);
    sys.attach_injector(injector);
    sys.attach_kv(tight_kv());
    sys
}

/// Snapshot between arrivals — admission queue populated, promotions in
/// flight — and resume: byte-identical to the straight line in both
/// modes, including per-request KV and latency counters.
#[test]
fn open_kv_fork_mid_injection_matches_straight_line() {
    let p = open_kv_program(3, 3);
    let arrivals = vec![0, 1_000, 2_500];
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let mut reference = open_kv_system(&p, arrivals.clone());
        let (stats_ref, out_ref) = reference.run_with_mode(BUDGET, mode);
        assert_eq!(out_ref, RunOutcome::Completed);
        let json_ref = stats_json(&stats_ref);
        assert!(
            stats_ref.kv.as_ref().is_some_and(|kv| kv.promotions > 0),
            "scenario must exercise the slow tier"
        );

        for t in [500, 1_500, 2_600, stats_ref.cycles / 2] {
            let mut sys = open_kv_system(&p, arrivals.clone());
            sys.run_with_mode(t, mode);
            let snap = sys.snapshot();
            let mut fork = snap.fork();
            let (stats_f, out_f) = fork.run_with_mode(BUDGET, mode);
            assert_eq!(out_f, out_ref);
            assert_eq!(
                stats_json(&stats_f),
                json_ref,
                "open+KV fork@{t} ({mode:?}) diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Out-of-registry policies: the type parameter is the extension point.
// ---------------------------------------------------------------------

/// A policy defined outside the `llamcat` registry: newest request
/// first, with every fourth pick going to the oldest so nothing
/// starves. The pick counter is history a snapshot must carry.
#[derive(Clone, Default)]
struct Lifo {
    picks: u64,
}

impl RequestArbiter for Lifo {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        if ctx.is_empty() {
            return None;
        }
        self.picks += 1;
        Some(if self.picks.is_multiple_of(4) {
            0
        } else {
            ctx.len() - 1
        })
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // state changes only at `select`, never by ticking
    }
}

#[test]
fn out_of_registry_policy_snapshots_and_forks() {
    let e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128);
    let program = e.build_program();
    let lifo = || System::new(e.config, program.clone(), &|_| Lifo::default(), NoThrottle);
    let (stats_fifo, _) = System::new(e.config, program.clone(), &|_| FifoArbiter, NoThrottle)
        .run_with_mode(BUDGET, StepMode::Cycle);

    for mode in [StepMode::Cycle, StepMode::Skip] {
        let (stats_ref, out_ref) = lifo().run_with_mode(BUDGET, mode);
        assert_eq!(out_ref, RunOutcome::Completed);
        let json_ref = stats_json(&stats_ref);
        assert_ne!(
            json_ref,
            stats_json(&stats_fifo),
            "the local policy must actually arbitrate"
        );
        for frac in [1u64, 2, 3] {
            let t = stats_ref.cycles * frac / 4;
            let mut sys = lifo();
            sys.run_with_mode(t, mode);
            let mut fork = sys.snapshot().fork();
            let (stats, outcome) = fork.run_with_mode(BUDGET, mode);
            assert_eq!(outcome, out_ref);
            assert_eq!(
                stats_json(&stats),
                json_ref,
                "lifo fork@{t} ({mode:?}) diverged from straight line"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Proptest: restore(snapshot()) at a random cycle of a random open
// program (KV tier + injector attached) resumes byte-identically.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn snapshot_restore_at_random_cycle_resumes_identically(
        shape in proptest::collection::vec((1usize..4, any::<bool>()), 2..5),
        gaps in proptest::collection::vec(0u64..2_000, 2..5),
        t_frac in 0u64..100,
        skip_mode in any::<bool>(),
    ) {
        let mode = if skip_mode { StepMode::Skip } else { StepMode::Cycle };
        // One request per `shape` entry: 1–3 blocks, optionally KV-heavy.
        let mut blocks = Vec::new();
        let mut tags = Vec::new();
        for (r, &(nblocks, kv_heavy)) in shape.iter().enumerate() {
            let slot = (r as u64) << 40;
            for b in 0..nblocks {
                let kv_base = if kv_heavy { 1u64 << 32 } else { 1u64 << 36 };
                blocks.push(vec![
                        Instr::Load { addr: slot + (b as u64) * 512, bytes: 128 },
                        Instr::Load {
                            addr: slot + kv_base + (b as u64) * 256,
                            bytes: 128,
                        },
                        Instr::Barrier,
                    ]);
                tags.push(r as u32);
            }
        }
        let assignment = vec![0; blocks.len()];
        let p = Program::with_requests(blocks, assignment, tags, Vec::new());
        let arrivals: Vec<u64> = gaps
            .iter()
            .take(shape.len())
            .chain(std::iter::repeat(&0))
            .take(shape.len())
            .scan(0u64, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();

        let mut sys = open_kv_system(&p, arrivals.clone());
        let (stats_ref, out_ref) = sys.run_with_mode(BUDGET, mode);
        prop_assert_eq!(out_ref, RunOutcome::Completed);
        let json_ref = stats_json(&stats_ref);
        let t = stats_ref.cycles * t_frac / 100;

        // Fresh run paused at T, snapshotted, run to completion …
        let mut sys = open_kv_system(&p, arrivals);
        sys.run_with_mode(t, mode);
        let snap = sys.snapshot();
        let (stats_a, out_a) = sys.run_with_mode(BUDGET, mode);
        prop_assert_eq!(out_a, out_ref);
        prop_assert_eq!(&stats_json(&stats_a), &json_ref, "paused run diverged");

        // … then rewound to T and re-run: byte-identical again.
        sys.restore(&snap);
        prop_assert_eq!(sys.cycle(), t);
        let (stats_b, out_b) = sys.run_with_mode(BUDGET, mode);
        prop_assert_eq!(out_b, out_ref);
        prop_assert_eq!(&stats_json(&stats_b), &json_ref, "restored run diverged");
    }
}
