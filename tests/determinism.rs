//! Determinism regression tests.
//!
//! The simulator's contract (and the precondition for trusting the
//! rayon-parallel sweeps in `llamcat-bench`) is that identical
//! configuration and program yield *identical* results — not merely the
//! same cycle count, but byte-identical serialized statistics. These
//! tests run the same `Experiment` twice and compare the full
//! `SimStats` and `RunReport` serializations.

use llamcat::experiment::Experiment;
use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

/// Runs one experiment twice per step mode and asserts byte-identical
/// results — within each mode (determinism) and across the two modes
/// (the fast-forward engine's observational-equivalence contract).
fn assert_deterministic(model: WorkloadSpec, seq_len: usize, policy: PolicySpec) {
    let run = |mode| {
        Experiment::from_spec(&model, seq_len)
            .policy(policy.clone())
            .step_mode(mode)
            .run()
    };
    let mut serialized = Vec::new();
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let a = run(mode);
        let b = run(mode);

        assert_eq!(
            a.cycles,
            b.cycles,
            "cycle count diverged for {} ({mode:?})",
            policy.label()
        );
        assert!(a.completed && b.completed);

        // Byte-identical full statistics: every counter in every component.
        let stats_a = serde_json::to_string(a.stats.as_ref().expect("stats recorded")).unwrap();
        let stats_b = serde_json::to_string(b.stats.as_ref().expect("stats recorded")).unwrap();
        assert_eq!(
            stats_a,
            stats_b,
            "SimStats serialization diverged for {} ({mode:?})",
            policy.label()
        );

        // And the derived report (hit rates, bandwidth, latencies).
        let report_a = serde_json::to_string(&a).unwrap();
        let report_b = serde_json::to_string(&b).unwrap();
        assert_eq!(
            report_a,
            report_b,
            "RunReport diverged for {} ({mode:?})",
            policy.label()
        );
        serialized.push((stats_a, report_a));
    }
    let (cycle, skip) = (&serialized[0], &serialized[1]);
    assert_eq!(
        cycle.0,
        skip.0,
        "SimStats diverged between step modes for {}",
        policy.label()
    );
    assert_eq!(
        cycle.1,
        skip.1,
        "RunReport diverged between step modes for {}",
        policy.label()
    );
}

#[test]
fn unoptimized_is_deterministic() {
    assert_deterministic(WorkloadSpec::llama3_70b(), 256, PolicySpec::unoptimized());
}

#[test]
fn full_policy_stack_is_deterministic() {
    // dynmg+BMA exercises every mechanism at once: hit buffer,
    // sent_reqs ring, live MSHR file, two-level throttling.
    assert_deterministic(WorkloadSpec::llama3_70b(), 256, PolicySpec::dynmg_bma());
}

#[test]
fn baselines_are_deterministic() {
    assert_deterministic(WorkloadSpec::llama3_405b(), 128, PolicySpec::dyncta());
    assert_deterministic(WorkloadSpec::llama3_405b(), 128, PolicySpec::dynmg_cobrra());
}

/// The mix analogue of [`assert_deterministic`]: identical mix, policy
/// and step mode ⇒ byte-identical `SimStats` (including the per-request
/// breakdowns) and `RunReport`, within each mode and across the modes.
fn assert_mix_deterministic(mix: &MixSpec, policy: PolicySpec) {
    let run = |mode| {
        Experiment::from_mix_spec(mix)
            .expect("valid mix")
            .policy(policy.clone())
            .step_mode(mode)
            .run()
    };
    let mut serialized = Vec::new();
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let a = run(mode);
        let b = run(mode);
        assert!(a.completed && b.completed);
        assert_eq!(a.requests.len(), b.requests.len());
        let stats_a = serde_json::to_string(a.stats.as_ref().unwrap()).unwrap();
        let stats_b = serde_json::to_string(b.stats.as_ref().unwrap()).unwrap();
        assert_eq!(stats_a, stats_b, "mix SimStats diverged within {mode:?}");
        let report_a = serde_json::to_string(&a).unwrap();
        let report_b = serde_json::to_string(&b).unwrap();
        assert_eq!(report_a, report_b, "mix RunReport diverged within {mode:?}");
        serialized.push((stats_a, report_a));
    }
    assert_eq!(
        serialized[0], serialized[1],
        "mix run diverged between step modes (per-request stats included)"
    );
}

#[test]
fn interleaved_mix_is_deterministic_in_both_modes() {
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
    assert_mix_deterministic(&mix, PolicySpec::unoptimized());
    assert_mix_deterministic(&mix, PolicySpec::dynmg_bma());
}

#[test]
fn staggered_partitioned_mix_is_deterministic_in_both_modes() {
    let mix = MixSpec::partitioned()
        .request(WorkloadSpec::llama3_70b(), 128, 0)
        .request(WorkloadSpec::llama3_70b(), 128, 20_000);
    assert_mix_deterministic(&mix, PolicySpec::dynmg());
}
