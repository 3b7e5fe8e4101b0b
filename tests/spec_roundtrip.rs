//! Serde round-trip property tests for the open experiment API: policy
//! specs (with embedded configurations), workload specs and run
//! reports must survive JSON → value → JSON losslessly, because
//! campaign definitions and JSONL result streams are the system's
//! interchange format.

use proptest::prelude::*;

use llamcat::experiment::Experiment;
use llamcat::spec::{ArbSpec, PolicySpec, ThrottleSpec};
use llamcat::throttle::{DynMgConfig, DynctaConfig, InCoreConfig};
use llamcat_trace::workloads::WorkloadSpec;

fn arb_from_index(i: usize) -> ArbSpec {
    match i % 5 {
        0 => ArbSpec::Fifo,
        1 => ArbSpec::Balanced,
        2 => ArbSpec::MshrAware,
        3 => ArbSpec::BalancedMshrAware,
        _ => ArbSpec::Cobrra,
    }
}

fn throttle_from_index(i: usize, period: u64, threshold: u64) -> ThrottleSpec {
    match i % 4 {
        0 => ThrottleSpec::None,
        1 => ThrottleSpec::Dyncta {
            config: DynctaConfig {
                period,
                idle_threshold: threshold,
                mem_high: threshold * 8,
                mem_low: threshold * 4,
            },
        },
        2 => ThrottleSpec::Lcs,
        _ => ThrottleSpec::DynMg {
            config: DynMgConfig {
                sampling_period: period,
                sub_period: (period / 5).max(1),
                max_gear: (threshold % 4 + 1) as usize,
                gear_fractions: vec![0.0, 0.125, 0.25, 0.5, 0.75],
                in_core: InCoreConfig {
                    c_idle_upper: threshold,
                    c_mem_upper: threshold * 3,
                    c_mem_lower: threshold * 2,
                },
            },
        },
    }
}

proptest! {
    #[test]
    fn policy_specs_round_trip(
        kinds in (0usize..5, 0usize..4),
        period in 1u64..100_000,
        threshold in 1u64..1000,
    ) {
        let (arb_i, thr_i) = kinds;
        let spec = PolicySpec::new(
            arb_from_index(arb_i),
            throttle_from_index(thr_i, period, threshold),
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: PolicySpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &spec);
        // Stability: re-serialization is byte-identical (JSONL relies
        // on this).
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn workload_specs_round_trip(
        shape in (0usize..3, 1usize..32, 1usize..32),
        extras in (1usize..8, 1usize..16),
    ) {
        let (kind, heads, group_size) = shape;
        let (head_dim_lines, query_tokens) = extras;
        let head_dim = head_dim_lines * 32; // whole cache lines
        let spec = match kind {
            0 => WorkloadSpec::Logit { heads, group_size, head_dim },
            1 => WorkloadSpec::AttnOutput { heads, group_size, head_dim },
            _ => WorkloadSpec::PrefillLogit { heads, group_size, head_dim, query_tokens },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn registry_specs_round_trip(idx in 0usize..9) {
        let name = PolicySpec::registry_names()[idx];
        let spec = PolicySpec::from_name(name).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: PolicySpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.label(), name);
        prop_assert_eq!(back, spec);
    }
}

#[test]
fn run_report_round_trips_through_json() {
    let report = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
        .policy(PolicySpec::dynmg_bma())
        .run();
    let json = serde_json::to_string(&report).unwrap();
    let back: llamcat::experiment::RunReport = serde_json::from_str(&json).unwrap();
    // `stats` is #[serde(skip)]; everything else must survive exactly,
    // which re-serialization equality pins (including f64 metrics —
    // the JSON emitter prints shortest-round-trip floats).
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.cycles, report.cycles);
    assert_eq!(back.policy_label, "dynmg+BMA");
    assert_eq!(back.workload_label, "llama3 70b");
    assert!(back.stats.is_none(), "skipped field defaults to None");
}
