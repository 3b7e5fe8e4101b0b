//! Tables 2–4: the throttling parameter sweeps.
//!
//! The paper obtains its Table 2 (sampling periods, max gear), Table 3
//! (t_cs contention bands) and Table 4 (in-core thresholds) by parameter
//! sweeping on its simulator. This bench repeats the sweeps on this
//! substrate: each candidate configuration runs the llama3 70b benchmark
//! and reports the speedup over unoptimized, so the chosen defaults are
//! auditable rather than folklore.
//!
//! Each sweep is one [`Campaign`] whose policy axis is the *same*
//! family (dynmg) with different embedded [`DynMgConfig`]s — the
//! configurations travel inside the `PolicySpec`s, which is exactly
//! what the removed `LLAMCAT_DYNMG_*` environment variables could not
//! express per-cell.

use llamcat::spec::PolicySpec;
use llamcat::throttle::{DynMgConfig, InCoreConfig};
use llamcat_bench::{scale_divisor, scale_label, Campaign};
use llamcat_trace::workloads::WorkloadSpec;

/// Runs one dynmg-config sweep and prints speedup-over-unoptimized per
/// candidate, tagging `default_idx` as the chosen operating point.
fn sweep(
    title: &str,
    header: &str,
    seq: usize,
    candidates: Vec<(String, DynMgConfig)>,
    default_idx: usize,
    default_note: &str,
) {
    let (labels, configs): (Vec<_>, Vec<_>) = candidates.into_iter().unzip();
    let report = Campaign::new(title)
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([seq])
        .policies(configs.into_iter().map(PolicySpec::dynmg_with))
        .baseline(PolicySpec::unoptimized())
        .run()
        .expect("sweep campaign");
    println!("\n### {title}");
    println!("{:<18} {:>10}", header, "speedup");
    for (i, rec) in report.records.iter().enumerate() {
        println!(
            "{:<18} {:>9.3}x{}",
            labels[i],
            rec.speedup.expect("baseline set"),
            if i == default_idx { default_note } else { "" }
        );
    }
}

fn main() {
    let seq = 8192 / scale_divisor();
    println!(
        "# Tables 2-4 — throttling parameter sweeps, llama3 70b @ {}K (scale: {})",
        seq / 1024,
        scale_label()
    );

    // Table 2: sampling period / sub-period.
    sweep(
        "Table 2 sweep: dynmg sampling period (sub-period = period/5)",
        "period/sub",
        seq,
        [1000u64, 2000, 4000, 6000, 12000, 24000]
            .into_iter()
            .map(|period| {
                (
                    format!("{}/{}", period, period / 5),
                    DynMgConfig {
                        sampling_period: period,
                        sub_period: period / 5,
                        ..Default::default()
                    },
                )
            })
            .collect(),
        3,
        "   <- default",
    );

    // Table 2: maximum gear.
    sweep(
        "Table 2 sweep: maximum gear",
        "max gear",
        seq,
        (1..=4usize)
            .map(|max_gear| {
                let fractions = [0.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0, 3.0 / 4.0];
                (
                    format!("gear {max_gear}"),
                    DynMgConfig {
                        max_gear,
                        gear_fractions: fractions[..=max_gear].to_vec(),
                        ..Default::default()
                    },
                )
            })
            .collect(),
        3,
        "   <- Table 2 value",
    );

    // Table 3: contention band placement (scale the band edges).
    println!("\n### Table 3 sweep: t_cs classification bands (edges scaled)");
    println!("{:<18} {:>10}", "band scale", "note");
    let unopt = Campaign::new("table3")
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([seq])
        .policy(PolicySpec::unoptimized())
        .run()
        .expect("table3 campaign");
    let t_cs = unopt.records[0].report.t_cs;
    for (scale, low, normal, high) in [
        (0.5, 0.05, 0.10, 0.1875),
        (1.0, 0.10, 0.20, 0.375),
        (1.5, 0.15, 0.30, 0.5625),
    ] {
        // The classification bands live in `Contention::classify`; the
        // sweep here reports how often each band fires at the
        // unoptimized operating point rather than recompiling the
        // classifier: measured t_cs decides which gear trajectory the
        // controller would follow.
        let band = if t_cs < low {
            "Low"
        } else if t_cs < normal {
            "Normal"
        } else if t_cs < high {
            "High"
        } else {
            "Extreme"
        };
        println!(
            "{:<18} t_cs={:.3} -> {}{}",
            format!("x{scale}"),
            t_cs,
            band,
            if scale == 1.0 {
                "   <- Table 3 bands"
            } else {
                ""
            }
        );
    }

    // Table 4: in-core thresholds.
    let sub = DynMgConfig::default().sub_period;
    sweep(
        "Table 4 sweep: in-core C_mem bounds (per sub-period)",
        "upper/lower",
        seq,
        [(0.4, 0.3), (0.625, 0.45), (0.8, 0.6), (0.95, 0.8)]
            .into_iter()
            .map(|(upper_frac, lower_frac)| {
                (
                    format!("{:.0}%/{:.0}%", upper_frac * 100.0, lower_frac * 100.0),
                    DynMgConfig {
                        in_core: InCoreConfig {
                            c_idle_upper: 4,
                            c_mem_upper: (sub as f64 * upper_frac) as u64,
                            c_mem_lower: (sub as f64 * lower_frac) as u64,
                        },
                        ..Default::default()
                    },
                )
            })
            .collect(),
        1,
        "   <- Table 4 ratio (250/400)",
    );
}
