//! Fig 7 (a)–(f): speedups of the Logit operator for Llama3 70b and
//! Llama3 405b across sequence lengths.
//!
//! * (a)/(d) throttling policies (dyncta, lcs, dynmg) vs unoptimized;
//! * (b)/(e) arbitration policies (cobrra, B, MA, BMA), each aided by
//!   dynmg, normalized against dynmg alone;
//! * (c)/(f) cumulative speedup of dynmg, dynmg+B, dynmg+MA, dynmg+BMA
//!   vs unoptimized.
//!
//! One declarative [`Campaign`] per model covers the union of the
//! three panels' policies; every cell simulates exactly once and the
//! panels are different normalizations of the same record grid.

use llamcat::spec::PolicySpec;
use llamcat_bench::{print_speedup_table, scale_divisor, scale_label, Campaign, CampaignReport};
use llamcat_trace::workloads::WorkloadSpec;

/// Policy-column indices into the union campaign (ladder order).
const UNOPT: usize = 0;
const DYNCTA: usize = 1;
const LCS: usize = 2;
const DYNMG: usize = 3;
const DYNMG_COBRRA: usize = 4;
const DYNMG_B: usize = 5;
const DYNMG_MA: usize = 6;
const DYNMG_BMA: usize = 7;

fn union_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::unoptimized(),
        PolicySpec::dyncta(),
        PolicySpec::lcs(),
        PolicySpec::dynmg(),
        PolicySpec::dynmg_cobrra(),
        PolicySpec::dynmg_b(),
        PolicySpec::dynmg_ma(),
        PolicySpec::dynmg_bma(),
    ]
}

/// One panel: `rows` (policy columns) normalized against the
/// `baseline` policy column, per scenario.
fn panel(report: &CampaignReport, title: &str, rows: &[usize], baseline: usize, note: &str) {
    let base_cycles: Vec<u64> = report
        .policy_records(baseline)
        .iter()
        .map(|r| r.report.cycles)
        .collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|&p| {
            (
                report.campaign.policies[p].label(),
                report
                    .policy_records(p)
                    .iter()
                    .zip(&base_cycles)
                    .map(|(r, &b)| b as f64 / r.report.cycles as f64)
                    .collect(),
            )
        })
        .collect();
    let xlabels = report.campaign.scenario_labels();
    print_speedup_table(title, &xlabels, &table, note);
}

fn main() {
    let div = scale_divisor();
    let seqs: Vec<usize> = [4096, 8192, 16384].iter().map(|s| s / div).collect();
    println!(
        "# Fig 7 — Logit operator speedups (scale: {}, seqs {:?})",
        scale_label(),
        seqs
    );

    for model in [WorkloadSpec::llama3_70b(), WorkloadSpec::llama3_405b()] {
        let report = Campaign::new("fig7")
            .workload(model)
            .seq_lens(seqs.iter().copied())
            .policies(union_policies())
            .run()
            .expect("fig7 campaign");
        let mlabel = model.label();
        panel(
            &report,
            &format!("Fig 7 {mlabel}: throttling policies"),
            &[DYNCTA, LCS, DYNMG],
            UNOPT,
            "normalized against unoptimized",
        );
        panel(
            &report,
            &format!("Fig 7 {mlabel}: arbitration policies (with dynmg)"),
            &[DYNMG_COBRRA, DYNMG_B, DYNMG_MA, DYNMG_BMA],
            DYNMG,
            "normalized against dynmg alone",
        );
        panel(
            &report,
            &format!("Fig 7 {mlabel}: cumulative speedup"),
            &[DYNMG, DYNMG_B, DYNMG_MA, DYNMG_BMA],
            UNOPT,
            "normalized against unoptimized",
        );
    }
    println!(
        "\nPaper reference: dynmg 1.08-1.44x (geomean 1.19x); BMA +1.04-1.07x \
         over dynmg; final dynmg+BMA 1.15-1.54x (geomean 1.26x)."
    );
}
