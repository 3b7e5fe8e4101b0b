//! Differential suite: `StepMode::Skip` must be *observationally
//! equivalent* to the cycle-accurate `StepMode::Cycle` reference — not
//! merely "same cycle count" but byte-identical `SimStats` and the same
//! `RunOutcome` — across the entire policy grid the paper evaluates
//! (every arbitration × throttling cell of the golden table) and
//! across cycle-budget boundaries.
//!
//! This is the headline guarantee of the fast-forward engine: any
//! component whose `next_event` bound is ever *late* (claims quiescence
//! past a real state change) or whose `skip` accrual diverges from its
//! per-cycle tick shows up here as a counter mismatch.

use llamcat::experiment::Experiment;
use llamcat::spec::PolicySpec;
use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::{Instr, Program};
use llamcat_sim::system::{RunOutcome, StepMode, System};
use llamcat_trace::workloads::WorkloadSpec;

/// Llama3 70b decode at seq 128 with `compute_cycles_per_row` vector
/// cycles per K row (1 is the trace default, memory-bound).
fn experiment(policy: &PolicySpec, mode: StepMode, compute_cycles_per_row: u32) -> Experiment {
    let mut e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
        .policy(policy.clone())
        .step_mode(mode);
    e.tracegen.compute_cycles_per_row = compute_cycles_per_row;
    e
}

/// Runs one policy cell in both modes and asserts full observational
/// equivalence: outcome, serialized report, serialized `SimStats`.
fn assert_cell_equivalent(policy: &PolicySpec, budget: Option<u64>, compute_cycles_per_row: u32) {
    let run = |mode| {
        let mut e = experiment(policy, mode, compute_cycles_per_row);
        e.max_cycles = budget;
        e.run()
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        cycle.completed,
        skip.completed,
        "{}: RunOutcome diverged (budget {budget:?})",
        policy.label()
    );
    assert_eq!(
        cycle.cycles,
        skip.cycles,
        "{}: cycle count diverged (budget {budget:?})",
        policy.label()
    );
    assert_eq!(
        serde_json::to_string(&cycle).unwrap(),
        serde_json::to_string(&skip).unwrap(),
        "{}: RunReport diverged (budget {budget:?})",
        policy.label()
    );
    assert_eq!(
        serde_json::to_string(cycle.stats.as_ref().unwrap()).unwrap(),
        serde_json::to_string(skip.stats.as_ref().unwrap()).unwrap(),
        "{}: SimStats diverged (budget {budget:?})",
        policy.label()
    );
}

/// The full 20-cell grid of the golden table, run to completion in both
/// step modes.
#[test]
fn all_golden_cells_are_mode_equivalent() {
    for policy in PolicySpec::matrix() {
        assert_cell_equivalent(&policy, None, 1);
    }
}

/// Compute-heavy decode (64 cycles per K row) opens whole-machine idle
/// windows: the regime where Skip jumps furthest, under the baseline
/// and the paper's full policy stack.
#[test]
fn compute_heavy_decode_is_mode_equivalent() {
    for policy in [PolicySpec::unoptimized(), PolicySpec::dynmg_bma()] {
        assert_cell_equivalent(&policy, None, 64);
    }
}

/// Regression for the cycle-budget edge: in Skip mode a jump must never
/// overshoot `max_cycles`, and a budget-limited run must report
/// `CycleLimit` at exactly the cycle count the cycle-accurate run
/// reports — including budgets that land mid-stall, mid-skip-window and
/// right at the completion cycle.
#[test]
fn budget_exhaustion_is_mode_equivalent() {
    // Completion cycle of this cell (golden table: 12269 for the
    // unoptimized baseline, but derive it so the test survives
    // intentional golden updates).
    let completed = experiment(&PolicySpec::unoptimized(), StepMode::Cycle, 1).run();
    let full = completed.cycles;
    for policy in [PolicySpec::unoptimized(), PolicySpec::dynmg_bma()] {
        for budget in [
            1,
            2,
            97,
            1_000,
            full / 2,
            full - 1,
            full,
            full + 1,
            full + 10_000,
        ] {
            assert_cell_equivalent(&policy, Some(budget), 1);
        }
    }
    // And the budget is a hard ceiling in skip mode.
    let limited = experiment(&PolicySpec::unoptimized(), StepMode::Skip, 1)
        .max_cycles(full / 2)
        .run();
    assert!(!limited.completed);
    assert_eq!(limited.cycles, full / 2, "skip ran past the budget");
}

/// A longer sequence length exercises deeper queue/stall regimes
/// (multiple DynMg gear shifts, DRAM write drains, refresh windows).
#[test]
fn longer_run_is_mode_equivalent() {
    let run = |mode| {
        Experiment::from_spec(&WorkloadSpec::llama3_405b(), 256)
            .policy(PolicySpec::dynmg_bma())
            .step_mode(mode)
            .run()
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        serde_json::to_string(cycle.stats.as_ref().unwrap()).unwrap(),
        serde_json::to_string(skip.stats.as_ref().unwrap()).unwrap(),
        "dynmg+BMA @405b/256 diverged between step modes"
    );
}

/// Regression: a budget the machine has already reached leaves it where
/// it is, in both modes. Skip mode used to rewind the clock to the
/// budget (release builds) or overflow computing the skipped cycles
/// (debug builds); Cycle mode always stayed put.
#[test]
fn spent_budget_is_a_no_op_in_both_modes() {
    let cfg = SystemConfig::table5();
    let blocks = (0..64u64).map(|b| {
        [
            Instr::Load {
                addr: b * 4096,
                bytes: 128,
            },
            Instr::Barrier,
        ]
    });
    let program = Program::round_robin(blocks, cfg.num_cores);
    let mut finals = Vec::new();
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let mut system = System::new(cfg, program.clone(), &|_| FifoArbiter, NoThrottle);
        let outcome = system.advance_with_mode(100, mode);
        assert!(matches!(outcome, RunOutcome::CycleLimit { .. }), "{mode:?}");
        assert_eq!(system.cycle(), 100, "{mode:?}");
        let at_100 = serde_json::to_string(&system.collect_stats()).unwrap();
        for budget in [50, 99, 100] {
            let outcome = system.advance_with_mode(budget, mode);
            assert!(
                matches!(outcome, RunOutcome::CycleLimit { .. }),
                "{mode:?}: budget {budget} reported {outcome:?}"
            );
            assert_eq!(
                system.cycle(),
                100,
                "{mode:?}: budget {budget} moved the clock"
            );
            assert_eq!(
                serde_json::to_string(&system.collect_stats()).unwrap(),
                at_100,
                "{mode:?}: budget {budget} changed the statistics"
            );
        }
        let (stats, outcome) = system.run_with_mode(10_000_000, mode);
        assert!(outcome.is_complete(), "{mode:?}");
        finals.push(serde_json::to_string(&stats).unwrap());
    }
    assert_eq!(finals[0], finals[1], "modes diverged after a spent budget");
}
