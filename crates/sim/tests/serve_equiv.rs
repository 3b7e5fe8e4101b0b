//! Differential suite for open-system serving (mid-run injection).
//!
//! Three contracts, on top of the closed-set equivalence that
//! `step_mode_equiv.rs` and `mix_equiv.rs` pin:
//!
//! 1. **Mode equivalence with injection.** For seeded arrival
//!    processes (fixed, Poisson, bursty, trace replay with duplicate
//!    cycles) under every serving policy and the full 20-cell cache
//!    policy matrix, `StepMode::Skip` produces byte-identical
//!    `RunReport`s — including per-request admission, TTFT and TBT —
//!    and byte-identical `SimStats`.
//! 2. **Budget edges with gated work.** When every remaining request
//!    is arrival-gated past `max_cycles` — closed programs with late
//!    release cycles or an injector whose queue can never drain —
//!    Skip must fast-forward straight to the budget (a handful of
//!    executed ticks, not millions) and both modes must agree on the
//!    exact `CycleLimit` outcome.
//! 3. **Same-cycle determinism.** Requests arriving on the same cycle
//!    are admitted in request-id order in both modes (proptest over
//!    random duplicate-heavy arrival batches).

use proptest::prelude::*;

use llamcat::experiment::Experiment;
use llamcat::spec::{ArrivalSpec, PolicySpec, ServePolicySpec, ServeSpec, SloSpec};
use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::serve::{RequestInjector, ServePolicy};
use llamcat_sim::stats::SimStats;
use llamcat_sim::stats::SloOutcome;
use llamcat_sim::system::{RunOutcome, StepMode, System};
use llamcat_trace::workloads::WorkloadSpec;

/// The canonical open-system scenario: three decode requests under a
/// seeded Poisson process, continuously batched two-at-a-time.
fn canonical_serve() -> ServeSpec {
    ServeSpec::new(
        WorkloadSpec::llama3_70b(),
        128,
        3,
        ArrivalSpec::Poisson {
            mean_gap: 4_000,
            seed: 11,
        },
    )
    .scheduler(ServePolicySpec::ContinuousBatching { slots: 2 })
}

/// Runs one serve cell in both modes and asserts full observational
/// equivalence: outcome, per-request latency reports (admission,
/// rejection, preemption, SLO verdicts), `SimStats`. Returns the
/// Cycle-mode report for further scenario-specific assertions.
fn assert_serve_mode_equivalent(
    spec: &ServeSpec,
    policy: PolicySpec,
    budget: Option<u64>,
) -> llamcat::experiment::RunReport {
    let label = format!("{} / {}", spec.label(), policy.label());
    let run = |mode| {
        let mut e = Experiment::from_serve_spec(spec)
            .expect("valid serve spec")
            .policy(policy.clone())
            .step_mode(mode);
        e.max_cycles = budget;
        e.try_run().expect("serve scenario runs")
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        serde_json::to_string(&cycle).unwrap(),
        serde_json::to_string(&skip).unwrap(),
        "{label}: RunReport (incl. admission/TTFT/TBT) diverged (budget {budget:?})"
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
    if budget.is_none() {
        let sheds = matches!(
            spec.scheduler,
            ServePolicySpec::RejectAboveQueue { .. } | ServePolicySpec::DeadlineDrop { .. }
        );
        for r in &cycle.requests {
            if let Some(rejected) = r.rejected {
                // Terminal rejection: allowed only under a shedding
                // policy, and exclusive with admission/completion.
                assert!(
                    sheds,
                    "{label}: request {} rejected under {:?}",
                    r.request, spec.scheduler
                );
                assert!(
                    !r.completed,
                    "{label}: request {} rejected yet completed",
                    r.request
                );
                assert_eq!(r.admitted, None);
                assert!(rejected >= r.arrival);
                continue;
            }
            assert!(r.completed, "{label}: request {} incomplete", r.request);
            let admitted = r
                .admitted
                .unwrap_or_else(|| panic!("{label}: request {} has no admission cycle", r.request));
            assert!(admitted >= r.arrival);
            assert!(r.ttft.expect("ttft") >= 1);
        }
    }
    cycle
}

/// The canonical serve scenario across the whole 20-cell policy matrix
/// (the CI release-mode gate for open-system serving).
#[test]
fn canonical_serve_is_mode_equivalent_across_policy_matrix() {
    let spec = canonical_serve();
    for policy in PolicySpec::matrix() {
        assert_serve_mode_equivalent(&spec, policy, None);
    }
}

/// Serving policies × arrival processes on the interesting cache-policy
/// corners, including trace replay with duplicate arrival cycles.
#[test]
fn serve_shapes_are_mode_equivalent() {
    let schedulers = [
        ServePolicySpec::Fcfs,
        ServePolicySpec::MaxConcurrency { max: 1 },
        ServePolicySpec::MaxConcurrency { max: 2 },
        ServePolicySpec::ContinuousBatching { slots: 2 },
        ServePolicySpec::ContinuousBatching { slots: 4 },
    ];
    let arrivals = [
        ArrivalSpec::Fixed {
            period: 1_500,
            start: 0,
        },
        ArrivalSpec::Poisson {
            mean_gap: 2_500,
            seed: 3,
        },
        ArrivalSpec::Bursty {
            burst: 2,
            gap_in_burst: 1,
            burst_gap: 8_000,
            seed: 5,
        },
        // Duplicate cycles and out-of-order input: the injector must
        // still admit in (arrival, id) order.
        ArrivalSpec::Trace {
            cycles: vec![700, 0, 700, 0],
        },
    ];
    for scheduler in schedulers {
        for arr in &arrivals {
            let spec = ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, arr.clone())
                .scheduler(scheduler);
            for policy in [PolicySpec::unoptimized(), PolicySpec::dynmg_bma()] {
                assert_serve_mode_equivalent(&spec, policy, None);
            }
        }
    }
}

/// The overlapping-burst storm: wide in-burst spacing with a tiny
/// inter-burst gap — exactly the shape that made the pre-fix Bursty
/// generator emit a non-monotonic schedule. Four requests land at
/// roughly [0, 6000, 12000, ~12001]: the machine is saturated when the
/// second burst slams in.
fn burst_storm() -> ArrivalSpec {
    ArrivalSpec::Bursty {
        burst: 3,
        gap_in_burst: 6_000,
        burst_gap: 2,
        seed: 13,
    }
}

/// The three overload policies under the burst storm, across the full
/// 20-cell cache-policy matrix: Skip ≡ Cycle byte-equality including
/// rejected/preempted counters and SLO verdicts, plus policy-shape
/// sanity (rejections only under shedding policies, preemptions only
/// under priority).
#[test]
fn overload_policies_under_burst_storm_across_policy_matrix() {
    let reject = ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, burst_storm())
        .scheduler(ServePolicySpec::RejectAboveQueue { slots: 2, depth: 1 })
        .slo(SloSpec::ttft(9_000));
    let drop = ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, burst_storm())
        .scheduler(ServePolicySpec::DeadlineDrop {
            slots: 2,
            ttft_deadline: 9_000,
        })
        .slo(SloSpec::ttft(9_000));
    let prio = ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, burst_storm())
        .scheduler(ServePolicySpec::PriorityPreempt { slots: 2 })
        .classes(vec![0, 1, 0, 1])
        .slo(SloSpec::ttft(9_000));
    for policy in PolicySpec::matrix() {
        // Slots 2, depth 1: the second burst's arrivals find both slots
        // busy and one request already waiting — terminal rejections,
        // under every cache policy.
        let r = assert_serve_mode_equivalent(&reject, policy.clone(), None);
        assert!(
            r.requests.iter().any(|q| q.rejected.is_some()),
            "burst storm must overflow the depth-1 queue ({})",
            policy.label()
        );
        // TTFT deadline 9000 « the ~30k-cycle service time: queued
        // burst victims expire before a slot frees up.
        let d = assert_serve_mode_equivalent(&drop, policy.clone(), None);
        assert!(
            d.requests.iter().any(|q| q.rejected.is_some()),
            "burst storm must shed deadline-expired waiters ({})",
            policy.label()
        );
        // Priority: class-1 arrivals preempt the running class-0
        // requests' unissued blocks; every request still completes.
        let p = assert_serve_mode_equivalent(&prio, policy.clone(), None);
        assert!(
            p.requests.iter().all(|q| q.completed),
            "preemption must never lose a request ({})",
            policy.label()
        );
        assert!(
            p.requests.iter().all(|q| q.rejected.is_none()),
            "priority-preempt never rejects ({})",
            policy.label()
        );
    }
}

/// GOLDEN_SLO: one pinned row of the SLO-aware overload table — the
/// burst storm under reject-above-queue admission with a TTFT-deadline
/// SLO. Any change to these numbers is a semantic change to rejection
/// accounting, SLO classification or goodput and must be deliberate.
///
/// Per-request (arrival, admitted, rejected) cycles.
type SloRequestRow = (u64, Option<u64>, Option<u64>);

/// (policy, cycles, met, missed, rejected,
///  [(arrival, admitted, rejected)] per request).
const GOLDEN_SLO: (&str, u64, usize, usize, usize, [SloRequestRow; 4]) = (
    "dynmg+BMA",
    51_601,
    2,
    1,
    1,
    [
        (0, Some(0), None),
        (6_000, Some(6_000), None),
        // Queued through the whole first wave; admitted at the first
        // completion, far past the 9000-cycle TTFT deadline (Missed).
        (12_000, Some(26_476), None),
        // Arrives to a full depth-1 queue: terminally rejected on the
        // spot (Rejected).
        (12_003, None, Some(12_003)),
    ],
);

#[test]
fn golden_slo_row_is_pinned() {
    let spec = ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, burst_storm())
        .scheduler(ServePolicySpec::RejectAboveQueue { slots: 2, depth: 1 })
        .slo(SloSpec::ttft(9_000));
    let report = Experiment::from_serve_spec(&spec)
        .unwrap()
        .policy(PolicySpec::from_name(GOLDEN_SLO.0).unwrap())
        .run();
    let slo = report.slo.as_ref().expect("slo configured");
    let observed: Vec<(u64, Option<u64>, Option<u64>)> = report
        .requests
        .iter()
        .map(|r| (r.arrival, r.admitted, r.rejected))
        .collect();
    assert_eq!(
        (
            report.cycles,
            slo.met,
            slo.missed,
            slo.rejected,
            observed.as_slice()
        ),
        (
            GOLDEN_SLO.1,
            GOLDEN_SLO.2,
            GOLDEN_SLO.3,
            GOLDEN_SLO.4,
            GOLDEN_SLO.5.as_slice()
        ),
        "GOLDEN_SLO drifted — cycles {} slo {slo:?} requests {observed:?}",
        report.cycles,
    );
    // Every request got a verdict; rejected requests classified as such.
    for r in &report.requests {
        match r.slo {
            Some(SloOutcome::Rejected) => assert!(r.rejected.is_some()),
            Some(_) => assert!(r.rejected.is_none()),
            None => panic!("request {} missing SLO verdict", r.request),
        }
    }
}

/// Budget edges across the serve path: both modes agree on the exact
/// `CycleLimit` report at every probed budget, including budgets that
/// land mid-queue.
#[test]
fn serve_budget_edges_agree() {
    let spec = ServeSpec::new(
        WorkloadSpec::llama3_70b(),
        128,
        3,
        ArrivalSpec::Fixed {
            period: 20_000,
            start: 1_000,
        },
    )
    .scheduler(ServePolicySpec::MaxConcurrency { max: 1 });
    let full = Experiment::from_serve_spec(&spec).unwrap().run();
    assert!(full.completed);
    let end = full.cycles;
    for budget in [1, 999, 1_000, 20_999, end / 2, end - 1, end, end + 1] {
        assert_serve_mode_equivalent(&spec, PolicySpec::unoptimized(), Some(budget));
    }
}

/// GOLDEN_SERVE: one pinned row of the open-system table. Any change
/// to these numbers is a semantic change to the serving path (injection
/// cycle accounting, admission order, or latency attribution) and must
/// be deliberate.
///
/// (policy, cycles, [(arrival, admitted, ttft)] per request). Note
/// request 2: it arrives at 6803 but both continuous-batching slots
/// are taken, so admission waits for the first completion at 32064 —
/// the queue delay the closed-world path could never express.
const GOLDEN_SERVE: (&str, u64, [(u64, u64, u64); 3]) = (
    "dynmg+BMA",
    52_330,
    [
        (1_521, 1_521, 773),
        (2_738, 2_738, 3_303),
        (6_803, 32_064, 27_615),
    ],
);

#[test]
fn golden_serve_row_is_pinned() {
    let report = Experiment::from_serve_spec(&canonical_serve())
        .unwrap()
        .policy(PolicySpec::from_name(GOLDEN_SERVE.0).unwrap())
        .run();
    assert!(report.completed);
    let observed: Vec<(u64, u64, u64)> = report
        .requests
        .iter()
        .map(|r| (r.arrival, r.admitted.unwrap(), r.ttft.unwrap()))
        .collect();
    assert_eq!(
        (report.cycles, observed.as_slice()),
        (GOLDEN_SERVE.1, GOLDEN_SERVE.2.as_slice()),
        "GOLDEN_SERVE drifted — run cycles {} requests {:?}",
        report.cycles,
        observed
    );
}

// ---------------------------------------------------------------------
// Budget edges with fully gated work (simulator level): Skip must jump
// straight to the budget, executing a handful of ticks, not millions.
// ---------------------------------------------------------------------

fn small_cfg(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::table5();
    cfg.num_cores = cores;
    cfg.dram.refresh = false;
    cfg
}

/// `requests × blocks_per` tiny streaming blocks, request-tagged, home
/// cores relative to `cores`, with per-block release cycles.
fn gated_program(requests: u32, blocks_per: usize, cores: usize, releases: &[u64]) -> Program {
    let mut blocks = Vec::new();
    let mut tags = Vec::new();
    let mut assignment = Vec::new();
    let mut arrivals = Vec::new();
    for r in 0..requests {
        for b in 0..blocks_per {
            blocks.push(ThreadBlock {
                instrs: vec![
                    Instr::Load {
                        addr: ((r as u64) << 40) + (b as u64) * 256,
                        bytes: 128,
                    },
                    Instr::Barrier,
                ],
            });
            tags.push(r);
            assignment.push(b % cores);
            arrivals.push(releases[r as usize]);
        }
    }
    Program::with_requests(blocks, assignment, tags, arrivals)
}

/// Returns (stats, outcome, (ticks executed, cycles skipped)).
fn run_gated(
    p: &Program,
    cores: usize,
    budget: u64,
    mode: StepMode,
) -> (SimStats, RunOutcome, (u64, u64)) {
    let mut sys = System::new(small_cfg(cores), p.clone(), &|_| FifoArbiter, NoThrottle);
    let (stats, outcome) = sys.run_with_mode(budget, mode);
    let counts = sys.step_counts();
    (stats, outcome, counts)
}

/// Every block's release cycle lies past the budget: nothing ever runs.
/// Skip must burn the whole budget in one jump; both modes agree on the
/// exact `CycleLimit` report.
#[test]
fn fully_gated_closed_program_jumps_to_budget() {
    let budget = 5_000_000;
    let p = gated_program(2, 3, 2, &[budget + 1, budget + 500_000]);
    let (stats_s, out_s, (executed, skipped)) = run_gated(&p, 2, budget, StepMode::Skip);
    let (stats_c, out_c, _) = run_gated(&p, 2, budget, StepMode::Cycle);
    assert_eq!(out_c, out_s, "outcome diverged");
    assert_eq!(
        out_s,
        RunOutcome::CycleLimit {
            requests_completed: 0,
            requests_total: 2
        }
    );
    assert_eq!(
        serde_json::to_string(&stats_c).unwrap(),
        serde_json::to_string(&stats_s).unwrap(),
        "SimStats diverged on the fully gated program"
    );
    assert_eq!(stats_s.cycles, budget);
    assert!(
        executed < 16,
        "Skip must jump straight to the budget, executed {executed} ticks"
    );
    assert_eq!(executed + skipped, budget);
}

/// Mixed case: one request completes inside the budget, the rest stay
/// gated past it. Both modes agree the partial run hit the limit with
/// exactly one completion; Skip's executed ticks are bounded by the
/// busy prefix, not the budget.
#[test]
fn partially_gated_program_agrees_at_the_limit() {
    let budget = 2_000_000;
    let p = gated_program(3, 2, 2, &[0, budget + 1, budget + 2]);
    let (stats_s, out_s, (executed, _)) = run_gated(&p, 2, budget, StepMode::Skip);
    let (stats_c, out_c, _) = run_gated(&p, 2, budget, StepMode::Cycle);
    assert_eq!(out_c, out_s);
    assert_eq!(
        out_s,
        RunOutcome::CycleLimit {
            requests_completed: 1,
            requests_total: 3
        }
    );
    assert_eq!(
        serde_json::to_string(&stats_c).unwrap(),
        serde_json::to_string(&stats_s).unwrap()
    );
    assert_eq!(stats_s.cycles, budget);
    assert!(
        executed < 10_000,
        "Skip executed {executed} ticks; the busy prefix is tiny"
    );
}

/// The injector variant: every arrival lies past the budget, so the
/// admission queue can never drain. Skip must jump straight to the
/// budget; both modes agree nothing was admitted.
#[test]
fn fully_gated_injector_jumps_to_budget() {
    let budget = 3_000_000;
    // Open program: no per-block arrivals; the injector gates releases.
    let p = gated_program(2, 3, 2, &[0, 0]);
    let p = Program::with_requests(
        p.blocks.clone(),
        p.assignment.clone(),
        p.request_tags.clone(),
        Vec::new(),
    );
    let run = |mode| {
        let injector = RequestInjector::new(
            &p,
            vec![budget + 1, budget + 100],
            ServePolicy::Fcfs,
            2,
            small_cfg(2).core.num_inst_windows,
        )
        .expect("valid injector");
        let mut sys = System::new(small_cfg(2), p.clone(), &|_| FifoArbiter, NoThrottle);
        sys.attach_injector(injector);
        let (stats, outcome) = sys.run_with_mode(budget, mode);
        let counts = sys.step_counts();
        (stats, outcome, counts)
    };
    let (stats_s, out_s, (executed, skipped)) = run(StepMode::Skip);
    let (stats_c, out_c, _) = run(StepMode::Cycle);
    assert_eq!(out_c, out_s);
    assert_eq!(
        out_s,
        RunOutcome::CycleLimit {
            requests_completed: 0,
            requests_total: 2
        }
    );
    assert_eq!(
        serde_json::to_string(&stats_c).unwrap(),
        serde_json::to_string(&stats_s).unwrap()
    );
    for r in &stats_s.requests {
        assert_eq!(r.admitted, None, "nothing can be admitted past the budget");
    }
    assert!(executed < 16, "Skip executed {executed} ticks");
    assert_eq!(executed + skipped, budget);
}

// ---------------------------------------------------------------------
// Proptest: duplicate-heavy same-cycle arrival batches (satellite 3).
// ---------------------------------------------------------------------

/// An open program of `n` single-barrier streaming requests homed on
/// relative core 0 — valid for every serving policy at any width.
fn narrow_open_program(n: u32, blocks_per: usize) -> Program {
    let mut blocks = Vec::new();
    let mut tags = Vec::new();
    for r in 0..n {
        for b in 0..blocks_per {
            blocks.push(ThreadBlock {
                instrs: vec![
                    Instr::Load {
                        addr: ((r as u64) << 40) + (b as u64) * 256,
                        bytes: 128,
                    },
                    Instr::Barrier,
                ],
            });
            tags.push(r);
        }
    }
    let assignment = vec![0; blocks.len()];
    Program::with_requests(blocks, assignment, tags, Vec::new())
}

fn run_open(p: &Program, arrivals: Vec<u64>, policy: ServePolicy, mode: StepMode) -> SimStats {
    let cfg = small_cfg(2);
    let injector = RequestInjector::new(p, arrivals, policy, 2, cfg.core.num_inst_windows)
        .expect("valid injector");
    let mut sys = System::new(cfg, p.clone(), &|_| FifoArbiter, NoThrottle);
    sys.attach_injector(injector);
    let (stats, outcome) = sys.run_with_mode(5_000_000, mode);
    assert_eq!(outcome, RunOutcome::Completed);
    stats
}

proptest! {
    // Random arrival batches with heavy same-cycle duplication: both
    // modes produce byte-identical per-request stats, and same-cycle
    // arrivals are admitted in request-id order (admission cycles
    // nondecreasing in id among equal arrivals).
    #[test]
    fn same_cycle_batches_admit_in_id_order_and_match(
        slots in proptest::collection::vec(0u64..3, 2..6),
        policy_sel in 0u8..3,
    ) {
        // 0..3 buckets × 400 cycles: most batches share a cycle.
        let arrivals: Vec<u64> = slots.iter().map(|s| s * 400).collect();
        let n = arrivals.len() as u32;
        let policy = match policy_sel {
            0 => ServePolicy::Fcfs,
            1 => ServePolicy::MaxConcurrency { max: 2 },
            _ => ServePolicy::ContinuousBatching { slots: 2 },
        };
        let p = narrow_open_program(n, 2);
        let sc = run_open(&p, arrivals.clone(), policy, StepMode::Cycle);
        let ss = run_open(&p, arrivals.clone(), policy, StepMode::Skip);
        prop_assert_eq!(
            serde_json::to_string(&sc).unwrap(),
            serde_json::to_string(&ss).unwrap(),
            "SimStats (incl. admission/latency) diverged"
        );
        // Same-cycle arrivals admit in id order.
        for i in 0..arrivals.len() {
            for j in (i + 1)..arrivals.len() {
                if arrivals[i] == arrivals[j] {
                    let (ai, aj) = (
                        sc.requests[i].admitted.expect("admitted"),
                        sc.requests[j].admitted.expect("admitted"),
                    );
                    prop_assert!(
                        ai <= aj,
                        "requests {} and {} arrived together but admitted out of order \
                         ({} > {})", i, j, ai, aj
                    );
                }
            }
        }
        for r in &sc.requests {
            prop_assert!(r.completed);
            prop_assert!(r.admitted.unwrap() >= r.arrival);
        }
    }
}
