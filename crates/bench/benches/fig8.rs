//! Fig 8: detailed mechanism comparison for the llama3 70b 8K benchmark.
//!
//! Reports, for each policy in the unoptimized → dynmg → dynmg+BMA
//! ladder (plus the baselines), the quantities the paper plots:
//! normalized performance, MSHR entry utilization, L2 hit rate, MSHR hit
//! rate and average DRAM bandwidth. The paper's reading: performance
//! correlates with MSHR entry utilization and DRAM bandwidth; moving
//! from unoptimized to dynmg to dynmg+BMA converts cache hits into MSHR
//! hits (locality captured in the MSHRs rather than in storage).
//!
//! One [`Campaign`]: a single scenario crossed with the seven-policy
//! ladder, normalized against the unoptimized column.

use llamcat::spec::PolicySpec;
use llamcat_bench::{scale_divisor, scale_label, Campaign};
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let seq = 8192 / scale_divisor();
    println!(
        "# Fig 8 — mechanism metrics, llama3 70b @ {}K (scale: {})",
        seq / 1024,
        scale_label()
    );
    let report = Campaign::new("fig8")
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([seq])
        .policies([
            PolicySpec::unoptimized(),
            PolicySpec::dyncta(),
            PolicySpec::lcs(),
            PolicySpec::dynmg(),
            PolicySpec::dynmg_b(),
            PolicySpec::dynmg_ma(),
            PolicySpec::dynmg_bma(),
        ])
        .baseline(PolicySpec::unoptimized())
        .run()
        .expect("fig8 campaign");

    println!(
        "{:<14} {:>11} {:>8} {:>9} {:>8} {:>9} {:>11} {:>8} {:>9}",
        "policy",
        "perf(norm)",
        "entutil",
        "l2hit",
        "mshrhit",
        "t_cs",
        "dram(GB/s)",
        "dramacc",
        "migrations"
    );
    for rec in &report.records {
        let r = &rec.report;
        println!(
            "{:<14} {:>10.3}x {:>8.3} {:>9.3} {:>8.3} {:>9.3} {:>11.2} {:>8} {:>9}",
            r.policy_label,
            rec.speedup.expect("baseline set"),
            r.mshr_entry_util,
            r.l2_hit_rate,
            r.mshr_hit_rate,
            r.t_cs,
            r.dram_bandwidth_gbs,
            r.dram_accesses,
            r.tb_migrations,
        );
    }
    println!(
        "\nPaper reference (shape): DRAM accesses roughly constant across \
         policies; MSHR hit rate rises and L2 hit rate falls along \
         unoptimized -> dynmg -> dynmg+BMA; performance tracks MSHR entry \
         utilization and DRAM bandwidth."
    );
}
