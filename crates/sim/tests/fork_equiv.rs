//! Differential suite for warm-up-and-fork execution.
//!
//! The contract (`Experiment::snapshot_scenario` +
//! `Experiment::run_forked`): every policy cell forked off one
//! policy-neutral, pre-tick scenario snapshot — whatever its policy,
//! step mode or cycle budget — is **byte-identical** to its own
//! straight-line `Experiment::try_run`: same serialized
//! `RunReport`/`SimStats` (per-request admission, TTFT, rejection and
//! KV counters included), same `RunOutcome`. Covered: the 20-cell
//! golden policy matrix in both step modes (and both modes forked off
//! one snapshot), serving mixes, open-system serve cells (overload
//! shedding included — the cells whose blocks never retire), KV-tier
//! cells, budget edges around the exact completion cycle, and a
//! proptest over random open programs × budgets × step modes.
//!
//! `tests/snapshot_equiv.rs` pins the layer underneath: a snapshot
//! taken at any cycle resumes byte-identically.

use proptest::prelude::*;

use llamcat::experiment::{Experiment, RunReport};
use llamcat::spec::{ArrivalSpec, KvSpec, MixSpec, PolicySpec, ServePolicySpec, ServeSpec};
use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::kv::{KvEviction, KvTierConfig};
use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::serve::{RequestInjector, ServePolicy};
use llamcat_sim::system::{RunOutcome, StepMode, System, SystemState};
use llamcat_trace::workloads::WorkloadSpec;

const BUDGET: u64 = 50_000_000;

fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Asserts that forking every cell off one snapshot of the shared
/// scenario reproduces the cell's straight-line `try_run`
/// byte-for-byte. The snapshot comes from the first cell; cells differ
/// only in policy and step mode.
fn assert_forks_match_straight_line(cells: &[Experiment], label: &str) {
    let snap = cells[0].snapshot_scenario().expect("scenario builds");
    for (i, cell) in cells.iter().enumerate() {
        let straight = cell.try_run().expect("cell runs");
        let forked = cell.run_forked(&snap).expect("fork runs");
        assert_eq!(
            report_json(&forked),
            report_json(&straight),
            "{label}: cell {i} diverged from its straight-line run"
        );
    }
}

// ---------------------------------------------------------------------
// The golden 20-cell policy matrix, closed solo trace, both modes.
// ---------------------------------------------------------------------

fn matrix_cells(mode: StepMode) -> Vec<Experiment> {
    PolicySpec::matrix()
        .into_iter()
        .map(|p| {
            Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
                .policy(p)
                .step_mode(mode)
        })
        .collect()
}

#[test]
fn golden_matrix_forked_matches_straight_line_cycle_mode() {
    assert_forks_match_straight_line(&matrix_cells(StepMode::Cycle), "matrix/cycle");
}

#[test]
fn golden_matrix_forked_matches_straight_line_skip_mode() {
    assert_forks_match_straight_line(&matrix_cells(StepMode::Skip), "matrix/skip");
}

/// The snapshot is mode-neutral: cells of both step modes fork off the
/// same one and each matches its own straight-line run in its own mode.
#[test]
fn one_snapshot_forks_into_both_step_modes() {
    let cells: Vec<Experiment> = PolicySpec::matrix()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mode = if i % 2 == 0 {
                StepMode::Cycle
            } else {
                StepMode::Skip
            };
            Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
                .policy(p)
                .step_mode(mode)
        })
        .collect();
    assert_forks_match_straight_line(&cells, "matrix/mixed-modes");
}

// ---------------------------------------------------------------------
// Mix, serve (incl. overload shedding) and KV-tier scenarios.
// ---------------------------------------------------------------------

#[test]
fn mix_cells_forked_match_straight_line() {
    let mix = MixSpec::interleaved()
        .request(WorkloadSpec::llama3_70b(), 128, 0)
        .request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4,
            },
            128,
            0,
        );
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells: Vec<Experiment> = ["none+fifo", "dynmg+BMA", "lcs+MA", "dyncta+B"]
            .iter()
            .map(|n| {
                Experiment::from_mix_spec(&mix)
                    .expect("valid mix")
                    .policy(PolicySpec::from_name(n).expect("policy"))
                    .step_mode(mode)
            })
            .collect();
        assert_forks_match_straight_line(&cells, &format!("mix/{mode:?}"));
    }
}

#[test]
fn serve_cells_forked_match_straight_line() {
    let spec = ServeSpec::new(
        WorkloadSpec::llama3_70b(),
        128,
        3,
        ArrivalSpec::Poisson {
            mean_gap: 4_000,
            seed: 11,
        },
    )
    .scheduler(ServePolicySpec::ContinuousBatching { slots: 2 });
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells: Vec<Experiment> = ["none+fifo", "dynmg+BMA", "lcs+MA", "dyncta+B"]
            .iter()
            .map(|n| {
                Experiment::from_serve_spec(&spec)
                    .expect("valid serve")
                    .policy(PolicySpec::from_name(n).expect("policy"))
                    .step_mode(mode)
            })
            .collect();
        assert_forks_match_straight_line(&cells, &format!("serve/{mode:?}"));
    }
}

/// The overlapping-burst storm from `serve_equiv.rs`: the machine is
/// saturated when the second burst slams in, so admission-control
/// schedulers actually shed requests.
fn burst_storm() -> ArrivalSpec {
    ArrivalSpec::Bursty {
        burst: 3,
        gap_in_burst: 6_000,
        burst_gap: 2,
        seed: 13,
    }
}

/// Overload shedding on a fork: rejected/dropped requests' blocks
/// never retire, so this pins the forked completion accounting (the
/// shed-block counter behind the `is_done` fast path) along with the
/// per-request rejection ledger.
#[test]
fn overload_serve_cells_forked_match_straight_line() {
    for scheduler in [
        ServePolicySpec::RejectAboveQueue { slots: 2, depth: 1 },
        ServePolicySpec::DeadlineDrop {
            slots: 2,
            ttft_deadline: 9_000,
        },
    ] {
        let spec =
            ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, burst_storm()).scheduler(scheduler);
        for mode in [StepMode::Cycle, StepMode::Skip] {
            let cells: Vec<Experiment> = ["none+fifo", "dynmg+BMA"]
                .iter()
                .map(|n| {
                    Experiment::from_serve_spec(&spec)
                        .expect("valid serve")
                        .policy(PolicySpec::from_name(n).expect("policy"))
                        .step_mode(mode)
                })
                .collect();
            let probe = cells[0].try_run().expect("cell runs");
            assert!(
                probe.requests.iter().any(|r| r.rejected.is_some()),
                "scenario must actually shed requests"
            );
            assert_forks_match_straight_line(&cells, &format!("overload/{mode:?}"));
        }
    }
}

#[test]
fn kv_tier_cells_forked_match_straight_line() {
    let mut mix = MixSpec::interleaved();
    for _ in 0..3 {
        mix = mix.request(
            WorkloadSpec::SharedPrefix {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                prefix_len: 64,
            },
            128,
            0,
        );
    }
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells: Vec<Experiment> = ["none+fifo", "dynmg+BMA", "none+PFA"]
            .iter()
            .map(|n| {
                Experiment::with_mix(mix.clone().instantiate())
                    .kv(KvSpec::prefix_pin(16))
                    .policy(PolicySpec::from_name(n).expect("policy"))
                    .step_mode(mode)
            })
            .collect();
        assert_forks_match_straight_line(&cells, &format!("kv/{mode:?}"));
    }
}

// ---------------------------------------------------------------------
// Budget edges: forks stop at exact boundaries around completion.
// ---------------------------------------------------------------------

/// The paper's stateful policy pair (BMA + DynMg) on a real trace.
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

/// Forks of one pre-tick base system, each run under a budget
/// straddling the exact completion cycle, are byte-identical to a
/// freshly built system run under the same budget.
#[test]
fn budget_edges_forked_match_straight_line() {
    let base = SystemState::from(rich_system());
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let (stats_ref, out_ref) = rich_system().run_with_mode(BUDGET, mode);
        assert_eq!(out_ref, RunOutcome::Completed);
        let full = stats_ref.cycles;
        for b in [1, 2, 97, 1_000, full / 2, full - 1, full, full + 1] {
            let (stats, outcome) = base.fork().run_with_mode(b, mode);
            let (stats_s, out_s) = rich_system().run_with_mode(b, mode);
            assert_eq!(outcome, out_s, "budget {b} ({mode:?}): outcome diverged");
            assert_eq!(
                serde_json::to_string(&stats).unwrap(),
                serde_json::to_string(&stats_s).unwrap(),
                "budget {b} ({mode:?}): SimStats diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Proptest: random open programs × budgets × step modes.
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

/// Request-tagged blocks mixing plain and KV-window loads inside each
/// request's VA slot (so the slow tier engages with promotions in
/// flight), with a caller-chosen block count per request.
fn open_kv_program(blocks_per_request: &[usize]) -> Program {
    let mut blocks = Vec::new();
    let mut tags = Vec::new();
    for (r, &nblocks) in blocks_per_request.iter().enumerate() {
        let slot = (r as u64) << 40;
        for b in 0..nblocks {
            blocks.push(ThreadBlock {
                instrs: vec![
                    Instr::Load {
                        addr: slot + (b as u64) * 256,
                        bytes: 128,
                    },
                    Instr::Load {
                        addr: slot + (1 << 32) + (b as u64) * 256,
                        bytes: 128,
                    },
                    Instr::Barrier,
                ],
            });
            tags.push(r as u32);
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

// Random open-system KV programs, random budget cut points (so forks
// stop at arbitrary mid-flight cycles, requests still queued or KV
// promotions in flight) and random step modes: every fork of the
// pre-tick base is byte-identical to its own straight-line run.
proptest! {
    #[test]
    fn random_forks_match_straight_line(
        shape in proptest::collection::vec(1usize..4, 2..5),
        gaps in proptest::collection::vec(0u64..2_000, 4),
        cuts in proptest::collection::vec((0u64..110, any::<bool>()), 1..6),
    ) {
        let p = open_kv_program(&shape);
        let arrivals: Vec<u64> = gaps
            .iter()
            .take(shape.len())
            .scan(0u64, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();

        let mut reference = open_kv_system(&p, arrivals.clone());
        let (stats_ref, out_ref) = reference.run_with_mode(BUDGET, StepMode::Cycle);
        prop_assert_eq!(out_ref, RunOutcome::Completed);
        let full = stats_ref.cycles;

        // Budget at cut% of the full run: past-the-end budgets
        // complete, tiny ones stop almost immediately.
        let base = SystemState::from(open_kv_system(&p, arrivals.clone()));
        for &(frac, skip) in &cuts {
            let budget = (full * frac / 100).max(1);
            let mode = if skip { StepMode::Skip } else { StepMode::Cycle };
            let (stats, outcome) = base.fork().run_with_mode(budget, mode);
            let (stats_s, out_s) = open_kv_system(&p, arrivals.clone()).run_with_mode(budget, mode);
            prop_assert_eq!(outcome, out_s);
            prop_assert_eq!(
                serde_json::to_string(&stats).unwrap(),
                serde_json::to_string(&stats_s).unwrap(),
                "budget {} mode {:?} diverged",
                budget,
                mode
            );
        }
    }
}
