//! Policy explorer: run every cell of the arbitration × throttling
//! matrix on one workload and print the full mechanism table (a
//! do-it-yourself Fig 8). The matrix is [`PolicySpec::matrix`].
//!
//! ```text
//! cargo run --release --example policy_explorer [seq_len] [70b|405b] [l2_mb]
//! ```

use llamcat::spec::PolicySpec;
use llamcat_bench::Campaign;
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seq_len: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2048);
    let model = match args.get(2).map(|s| s.as_str()) {
        Some("405b") => WorkloadSpec::llama3_405b(),
        _ => WorkloadSpec::llama3_70b(),
    };
    let l2_mb: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(16);

    let policies = PolicySpec::matrix();

    println!(
        "Exploring {} policies on {} seq={} L2={}MB\n",
        policies.len(),
        model.label(),
        seq_len,
        l2_mb
    );
    let report = Campaign::new("policy-explorer")
        .workload(model)
        .seq_lens([seq_len])
        .l2_sizes_mb([l2_mb])
        .policies(policies)
        .baseline(PolicySpec::unoptimized())
        .run()
        .expect("policy explorer campaign");

    println!(
        "{:<16} {:>11} {:>8} {:>7} {:>8} {:>8} {:>7} {:>11}",
        "policy", "cycles", "speedup", "l2hit", "mshrhit", "entutil", "t_cs", "dram(GB/s)"
    );
    let mut best: Option<(String, u64)> = None;
    for rec in &report.records {
        let r = &rec.report;
        println!(
            "{:<16} {:>11} {:>7.3}x {:>7.3} {:>8.3} {:>8.3} {:>7.3} {:>11.2}",
            r.policy_label,
            r.cycles,
            rec.speedup.expect("baseline set"),
            r.l2_hit_rate,
            r.mshr_hit_rate,
            r.mshr_entry_util,
            r.t_cs,
            r.dram_bandwidth_gbs
        );
        if best.as_ref().is_none_or(|(_, c)| r.cycles < *c) {
            best = Some((r.policy_label.clone(), r.cycles));
        }
    }
    let (name, cycles) = best.expect("at least one policy ran");
    println!("\nbest policy: {name} ({cycles} cycles)");
}
