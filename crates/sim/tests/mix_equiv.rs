//! Differential suite for multi-tenant serving mixes.
//!
//! Two contracts, on top of the solo-trace equivalence that
//! `step_mode_equiv.rs` pins:
//!
//! 1. **Mode equivalence with tags.** For every mix — both composition
//!    disciplines, staggered arrivals, the full 20-cell policy matrix —
//!    `StepMode::Skip` produces byte-identical `SimStats` *including
//!    the per-request breakdowns* and the same `RunOutcome` (which now
//!    carries per-request completion counts at a cycle limit).
//! 2. **Attribution is a partition.** Per-request LLC counters and
//!    stall cycles always sum to the untagged totals, and per-request
//!    block counters sum to the machine's completed thread blocks —
//!    checked over randomly tagged programs with random arrivals
//!    (proptest, case count capped by `PROPTEST_CASES`).

use proptest::prelude::*;

use llamcat::experiment::Experiment;
use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::stats::SimStats;
use llamcat_sim::system::{RunOutcome, StepMode, System};
use llamcat_trace::workloads::WorkloadSpec;

fn prefill(seq_len: usize, arrival: u64) -> (WorkloadSpec, usize, u64) {
    (
        WorkloadSpec::PrefillLogit {
            heads: 8,
            group_size: 8,
            head_dim: 128,
            query_tokens: 4,
        },
        seq_len,
        arrival,
    )
}

fn decode(seq_len: usize, arrival: u64) -> (WorkloadSpec, usize, u64) {
    (WorkloadSpec::llama3_70b(), seq_len, arrival)
}

fn mix_of(base: MixSpec, requests: &[(WorkloadSpec, usize, u64)]) -> MixSpec {
    requests
        .iter()
        .fold(base, |m, &(w, s, a)| m.request(w, s, a))
}

/// The canonical 2-request decode + prefill mix of the golden table.
fn canonical_mix() -> MixSpec {
    mix_of(MixSpec::interleaved(), &[decode(128, 0), prefill(128, 0)])
}

/// Runs one mix cell in both modes and asserts full observational
/// equivalence: outcome, per-request reports, serialized `SimStats`.
fn assert_mix_mode_equivalent(mix: &MixSpec, policy: PolicySpec, budget: Option<u64>) {
    let label = format!("{} / {}", mix.label(), policy.label());
    let run = |mode| {
        let mut e = Experiment::from_mix_spec(mix)
            .expect("valid mix")
            .policy(policy.clone())
            .step_mode(mode);
        e.max_cycles = budget;
        e.try_run().expect("mix runs")
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        serde_json::to_string(&cycle).unwrap(),
        serde_json::to_string(&skip).unwrap(),
        "{label}: RunReport (incl. per-request breakdowns) diverged (budget {budget:?})"
    );
    let stats_cycle = serde_json::to_string(cycle.stats.as_ref().unwrap()).unwrap();
    let stats_skip = serde_json::to_string(skip.stats.as_ref().unwrap()).unwrap();
    assert_eq!(
        stats_cycle, stats_skip,
        "{label}: SimStats diverged between step modes (budget {budget:?})"
    );
    cycle
        .stats
        .as_ref()
        .unwrap()
        .check_consistency()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// The canonical mix across the whole 20-cell policy matrix, run to
/// completion in both step modes (the CI release-mode gate).
#[test]
fn canonical_mix_is_mode_equivalent_across_policy_matrix() {
    let mix = canonical_mix();
    for policy in PolicySpec::matrix() {
        assert_mix_mode_equivalent(&mix, policy, None);
    }
}

/// Composition disciplines and staggered arrivals, on the interesting
/// policy corners (the mechanisms the solo grid already covers in
/// depth).
#[test]
fn mix_shapes_are_mode_equivalent() {
    let shapes = [
        mix_of(MixSpec::partitioned(), &[decode(128, 0), decode(128, 0)]),
        mix_of(
            MixSpec::partitioned(),
            &[decode(256, 0), prefill(128, 2_000)],
        ),
        mix_of(
            MixSpec::interleaved(),
            &[decode(128, 0), prefill(128, 10_000)],
        ),
        mix_of(
            MixSpec::interleaved(),
            &[decode(128, 0), decode(256, 500), prefill(128, 30_000)],
        ),
    ];
    for mix in &shapes {
        for policy in [PolicySpec::unoptimized(), PolicySpec::dynmg_bma()] {
            assert_mix_mode_equivalent(mix, policy, None);
        }
    }
}

/// Budget edges: both modes report the same `RunOutcome` — including
/// the per-request completion counts a `CycleLimit` now carries — at
/// every budget.
#[test]
fn mix_budget_edges_agree_on_per_request_completion() {
    let mix = mix_of(
        MixSpec::partitioned(),
        &[decode(128, 0), prefill(128, 4_000)],
    );
    // Find the completion cycle, then probe budgets around and below.
    let full = Experiment::from_mix_spec(&mix).unwrap().run();
    assert!(full.completed);
    let end = full.cycles;
    for budget in [1, 100, 4_001, end / 2, end - 1, end, end + 1] {
        let run = |mode| {
            Experiment::from_mix_spec(&mix)
                .unwrap()
                .step_mode(mode)
                .max_cycles(budget)
                .run()
        };
        let c = run(StepMode::Cycle);
        let s = run(StepMode::Skip);
        assert_eq!(
            serde_json::to_string(&c).unwrap(),
            serde_json::to_string(&s).unwrap(),
            "budget {budget}: reports diverged"
        );
        // Per-request completion flags match the completion cycles.
        for r in &c.requests {
            assert_eq!(
                r.completed,
                r.cycles > 0,
                "budget {budget}: completion flag inconsistent"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Proptests: random request-tagged programs at the simulator level.
// ---------------------------------------------------------------------

fn small_cfg(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::table5();
    cfg.num_cores = cores;
    cfg.dram.refresh = false;
    cfg
}

/// (address selector, shape selector, request tag) -> one block.
fn decode_block(addr_sel: u64, kind: u8) -> ThreadBlock {
    let addr = addr_sel * 128;
    let instrs = match kind % 4 {
        0 => vec![Instr::Load { addr, bytes: 128 }, Instr::Barrier],
        1 => vec![
            Instr::Compute { cycles: 17 },
            Instr::Load { addr, bytes: 128 },
            Instr::Barrier,
        ],
        2 => vec![
            Instr::Store { addr, bytes: 64 },
            Instr::Compute { cycles: 5 },
        ],
        _ => vec![
            Instr::Load { addr, bytes: 128 },
            Instr::Load {
                addr: addr + 4096,
                bytes: 128,
            },
            Instr::Barrier,
        ],
    };
    ThreadBlock { instrs }
}

/// Builds a randomly tagged, randomly staggered program. Tenants get
/// disjoint address windows (bit 30+) like real mixes.
fn tagged_program(blocks: &[(u64, u8, u8, u8)], cores: usize, num_requests: u32) -> Program {
    let mut bs = Vec::with_capacity(blocks.len());
    let mut tags = Vec::with_capacity(blocks.len());
    let mut arrivals = Vec::with_capacity(blocks.len());
    for &(addr_sel, kind, tag, arr) in blocks {
        let request = tag as u32 % num_requests;
        bs.push(decode_block(
            (addr_sel % 512) + ((request as u64) << 23),
            kind,
        ));
        tags.push(request);
        // Arrivals in 0, 100, 200, 300: short enough to complete, long
        // enough to gate scheduling.
        arrivals.push((arr as u64 % 4) * 100);
    }
    let assignment = (0..bs.len()).map(|i| i % cores).collect();
    Program::with_requests(bs, assignment, tags, arrivals)
}

fn run_mode(cfg: SystemConfig, p: Program, mode: StepMode) -> (SimStats, RunOutcome) {
    let mut sys = System::new(cfg, p, &|_| FifoArbiter, NoThrottle);
    sys.run_with_mode(2_000_000, mode)
}

proptest! {
    // Random tagged programs: byte-identical per-request stats across
    // modes, and per-request counters partition the untagged totals.
    #[test]
    fn random_tagged_programs_partition_and_match(
        blocks in proptest::collection::vec(
            (0u64..4096, 0u8..8, 0u8..8, 0u8..8), 1..24),
        cores in 1usize..5,
        num_requests in 1u32..4,
    ) {
        let p = tagged_program(&blocks, cores, num_requests);
        let (sc, oc) = run_mode(small_cfg(cores), p.clone(), StepMode::Cycle);
        let (ss, os) = run_mode(small_cfg(cores), p.clone(), StepMode::Skip);
        prop_assert_eq!(oc, os, "outcome diverged");
        prop_assert_eq!(
            serde_json::to_string(&sc).unwrap(),
            serde_json::to_string(&ss).unwrap(),
            "SimStats (incl. per-request) diverged"
        );
        prop_assert_eq!(oc, RunOutcome::Completed);
        // The partition property: per-request cycle/stall/event
        // counters sum to the untagged totals.
        if let Err(e) = sc.check_consistency() {
            prop_assert!(false, "consistency: {}", e);
        }
        let total_tbs: u64 = sc.cores.iter().map(|c| c.tbs_completed).sum();
        let tagged_tbs: u64 = sc.requests.iter().map(|r| r.blocks_completed).sum();
        prop_assert_eq!(total_tbs, tagged_tbs, "blocks not partitioned");
        prop_assert_eq!(sc.requests.len(), p.num_requests());
        let merges: u64 = sc.requests.iter().map(|r| r.llc.mshr_merges).sum();
        let total_merges: u64 = sc.slices.iter().map(|s| s.mshr_merges).sum();
        prop_assert_eq!(merges, total_merges, "merges not partitioned");
        // Every request completed no earlier than it arrived.
        for r in &sc.requests {
            if r.completed && r.blocks_total > 0 {
                prop_assert!(r.completion_cycle >= r.arrival);
            }
        }
    }
}
