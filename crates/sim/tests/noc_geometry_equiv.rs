//! Differential suite over NoC geometries other than Table 5's.
//!
//! Every other differential suite runs Table 5's mesh, whose latencies
//! (3–9 cycles; 34 for a hit's response) fit one 64-slot calendar
//! wheel per direction. This suite pins the same guarantees — Skip ≡
//! Cycle, forks of a pre-tick scenario ≡ straight line, and mid-run
//! snapshots ≡ straight line, all byte-identical — on two geometries
//! that stress the wheels' edges:
//!
//! * a zero-latency crossbar (`req_base = resp_base = 0`, no mesh): a
//!   request reaches its slice the cycle after it is sent, and a
//!   forwarded fill reaches its core in the very cycle its slice sends
//!   it;
//! * a long horizon (`data_latency = 100`): responses travel more than
//!   64 cycles, so the response wheel spans several bitmask words.

use llamcat::experiment::{Experiment, RunReport};
use llamcat::spec::{ArrivalSpec, PolicySpec, ServePolicySpec, ServeSpec};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::system::{RunOutcome, StepMode, System};
use llamcat_trace::workloads::WorkloadSpec;

const BUDGET: u64 = 50_000_000;
const POLICIES: [&str; 4] = ["none+fifo", "dynmg+BMA", "lcs+MA", "dyncta+B"];

fn zero_latency() -> SystemConfig {
    let mut cfg = SystemConfig::table5();
    cfg.noc.req_base = 0;
    cfg.noc.resp_base = 0;
    cfg.noc.mesh = false;
    cfg
}

fn long_horizon() -> SystemConfig {
    let mut cfg = SystemConfig::table5();
    cfg.l2.data_latency = 100;
    cfg
}

fn geometries() -> [(&'static str, SystemConfig); 2] {
    [
        ("zero-latency", zero_latency()),
        ("long-horizon", long_horizon()),
    ]
}

fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

fn solo(cfg: SystemConfig, policy: &str, mode: StepMode) -> Experiment {
    Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
        .config(cfg)
        .policy(PolicySpec::from_name(policy).expect("policy"))
        .step_mode(mode)
}

fn serve(cfg: SystemConfig, policy: &str, mode: StepMode) -> Experiment {
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
    Experiment::from_serve_spec(&spec)
        .expect("valid serve")
        .config(cfg)
        .policy(PolicySpec::from_name(policy).expect("policy"))
        .step_mode(mode)
}

/// Skip ≡ Cycle for every policy on a closed solo trace and an
/// open-system serve cell.
#[test]
fn skip_matches_cycle_on_other_geometries() {
    let builders: [fn(SystemConfig, &str, StepMode) -> Experiment; 2] = [solo, serve];
    for (label, cfg) in geometries() {
        for policy in POLICIES {
            for build in builders {
                let cycle = build(cfg, policy, StepMode::Cycle).run();
                let skip = build(cfg, policy, StepMode::Skip).run();
                assert!(cycle.completed, "{label}/{policy}: run completes");
                assert_eq!(
                    report_json(&skip),
                    report_json(&cycle),
                    "{label}/{policy}: Skip diverged from Cycle"
                );
            }
        }
    }
}

/// Every policy forked off one pre-tick scenario snapshot matches its
/// straight-line run, in both step modes.
#[test]
fn scenario_forks_match_straight_line_on_other_geometries() {
    for (label, cfg) in geometries() {
        for mode in [StepMode::Cycle, StepMode::Skip] {
            let snap = solo(cfg, POLICIES[0], mode)
                .snapshot_scenario()
                .expect("scenario builds");
            for policy in POLICIES {
                let cell = solo(cfg, policy, mode);
                assert_eq!(
                    report_json(&cell.run_forked(&snap).expect("fork runs")),
                    report_json(&cell.try_run().expect("cell runs")),
                    "{label}/{policy}/{mode:?}: fork diverged from straight line"
                );
            }
        }
    }
}

/// A snapshot taken mid-run — messages in flight on both wheels —
/// resumes byte-identically, in either step mode.
#[test]
fn mid_run_forks_match_straight_line_on_other_geometries() {
    for (label, cfg) in geometries() {
        let e = solo(cfg, "dynmg+BMA", StepMode::Cycle);
        let build = || {
            System::new(
                e.config,
                e.build_program(),
                &|_| e.policy.arb.build_kind_for(&e.config.l2),
                e.policy.throttle.build_kind(),
            )
        };
        let (stats_ref, out_ref) = build().run_with_mode(BUDGET, StepMode::Cycle);
        assert_eq!(out_ref, RunOutcome::Completed);
        let json_ref = serde_json::to_string(&stats_ref).unwrap();
        for (pause, resume) in [
            (StepMode::Cycle, StepMode::Cycle),
            (StepMode::Skip, StepMode::Skip),
            (StepMode::Cycle, StepMode::Skip),
            (StepMode::Skip, StepMode::Cycle),
        ] {
            for t in [stats_ref.cycles / 3, 2 * stats_ref.cycles / 3] {
                let mut sys = build();
                sys.run_with_mode(t, pause);
                assert_eq!(sys.cycle(), t);
                let (stats, out) = sys.snapshot().fork().run_with_mode(BUDGET, resume);
                assert_eq!(out, out_ref);
                assert_eq!(
                    serde_json::to_string(&stats).unwrap(),
                    json_ref,
                    "{label}: fork at {t} ({pause:?} -> {resume:?}) diverged"
                );
            }
        }
    }
}
