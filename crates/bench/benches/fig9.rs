//! Fig 9 (a)/(b): throttling and arbitration policies under cache-size
//! pressure — 32K sequences with L2 of 16 / 32 / 64 MB, normalized
//! against the unoptimized configuration at 32 MB.
//!
//! One [`Campaign`] per model: the L2-capacity axis crossed with the
//! policy set (unoptimized swept alongside, since the figure's
//! reference point is a *specific cell* — unoptimized @ 32 MB — rather
//! than a per-scenario baseline).

use llamcat::spec::PolicySpec;
use llamcat_bench::{fig9_policies, print_speedup_table, scale_divisor, scale_label, Campaign};
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let seq = 32768 / scale_divisor();
    let sizes = [16u64, 32, 64];
    println!(
        "# Fig 9 — cache-size sweep @ {}K (scale: {})",
        seq / 1024,
        scale_label()
    );

    for model in [WorkloadSpec::llama3_70b(), WorkloadSpec::llama3_405b()] {
        let mut policies = vec![PolicySpec::unoptimized()];
        policies.extend(fig9_policies());
        let report = Campaign::new("fig9")
            .workload(model)
            .seq_lens([seq])
            .l2_sizes_mb(sizes)
            .policies(policies)
            .run()
            .expect("fig9 campaign");

        // Reference cell: unoptimized (policy column 0) @ 32 MB.
        let unopt = report.policy_records(0);
        let ref_cycles = unopt
            .iter()
            .find(|r| r.cell.l2_mb == 32)
            .expect("32 MB scenario present")
            .report
            .cycles;

        let xlabels: Vec<String> = sizes.iter().map(|s| format!("{s}MB")).collect();
        let rows: Vec<(String, Vec<f64>)> = (0..report.campaign.policies.len())
            .map(|p| {
                let recs = report.policy_records(p);
                (
                    report.campaign.policies[p].label(),
                    recs.iter()
                        .map(|r| ref_cycles as f64 / r.report.cycles as f64)
                        .collect(),
                )
            })
            .collect();
        print_speedup_table(
            &format!("Fig 9 {} @ {}K", model.label(), seq / 1024),
            &xlabels,
            &rows,
            "normalized against unoptimized @ 32MB",
        );
    }
    println!(
        "\nPaper reference: @32MB dynmg+BMA reaches 1.50-1.66x (geomean \
         1.58x) over unoptimized and 1.18-1.35x (geomean 1.26x) over the \
         best baseline (dyncta); unoptimized degrades sharply at 16MB \
         while dynmg+BMA nearly saturates."
    );
}
