//! The figure benches fan experiments out with `run_experiments`
//! (rayon). Parallel execution must not perturb results: each cell's
//! report has to match a sequential run of the same experiment, in
//! input order, every time — in both simulation step modes, whose JSONL
//! output must additionally be byte-identical to each other.

use llamcat::experiment::Experiment;
use llamcat::spec::PolicySpec;
use llamcat_bench::run_experiments;
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

/// Four policies on llama3 70b @ seq 128, 16 MB L2.
fn experiments(mode: StepMode) -> Vec<Experiment> {
    [
        PolicySpec::unoptimized(),
        PolicySpec::dynmg(),
        PolicySpec::dynmg_bma(),
        PolicySpec::lcs(),
    ]
    .into_iter()
    .map(|policy| {
        Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
            .policy(policy)
            .l2_mb(16)
            .step_mode(mode)
    })
    .collect()
}

#[test]
fn parallel_sweep_matches_sequential_runs() {
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let exps = experiments(mode);
        let parallel = run_experiments(&exps).unwrap();
        let sequential: Vec<_> = exps.iter().map(|e| e.run()).collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.policy_label, s.policy_label, "order not preserved");
            assert_eq!(
                p.cycles, s.cycles,
                "{}: parallel != sequential ({mode:?})",
                p.policy_label
            );
            assert_eq!(
                serde_json::to_string(p).unwrap(),
                serde_json::to_string(s).unwrap()
            );
        }
    }
}

#[test]
fn parallel_sweep_is_repeatable() {
    let exps = experiments(StepMode::Cycle);
    let a = run_experiments(&exps).unwrap();
    let b = run_experiments(&exps).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.cycles, y.cycles,
            "{}: repeat run diverged",
            x.policy_label
        );
    }
}

/// Rayon-parallel sweeps in Skip mode must stream the exact bytes the
/// cycle-accurate sweep streams: same reports, same order.
#[test]
fn parallel_skip_sweep_is_byte_identical_to_cycle_sweep() {
    let cycle = run_experiments(&experiments(StepMode::Cycle)).unwrap();
    let skip = run_experiments(&experiments(StepMode::Skip)).unwrap();
    let jsonl = |reports: &[llamcat::experiment::RunReport]| {
        reports
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(jsonl(&cycle), jsonl(&skip));
}

/// The same contract over a *mix* campaign: parallel execution is
/// repeatable, and the Skip-mode JSONL — per-request stats, fairness
/// records and all — is byte-identical to the cycle-accurate stream
/// except for the self-describing `step_mode` fields themselves.
#[test]
fn parallel_mix_campaign_is_repeatable_and_mode_equivalent() {
    use llamcat::spec::MixSpec;
    use llamcat_bench::Campaign;

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
    let campaign = |mode| {
        Campaign::new("mix-determinism")
            .mix(mix.clone())
            .policy(PolicySpec::unoptimized())
            .policy(PolicySpec::dynmg_bma())
            .baseline(PolicySpec::unoptimized())
            .step_mode(mode)
    };

    // Repeatability within each mode.
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let a = campaign(mode).run().unwrap().jsonl();
        let b = campaign(mode).run().unwrap().jsonl();
        assert_eq!(a, b, "mix campaign JSONL diverged across runs ({mode:?})");
    }

    // Cross-mode byte-equality of everything but the mode tag itself.
    let cycle = campaign(StepMode::Cycle).run().unwrap().jsonl();
    let skip = campaign(StepMode::Skip).run().unwrap().jsonl();
    assert_eq!(
        cycle.replace("\"step_mode\":\"Cycle\"", "\"step_mode\":\"Skip\""),
        skip,
        "mix campaign results diverged between step modes"
    );
}
