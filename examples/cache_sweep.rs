//! Cache-capacity scenario (a runnable slice of Fig 9): how sensitive
//! each policy is to L2 size under a long context — expressed as one
//! declarative [`Campaign`] over the L2 axis.
//!
//! ```text
//! cargo run --release --example cache_sweep [seq_len] [70b|405b]
//! ```

use llamcat::spec::PolicySpec;
use llamcat_bench::Campaign;
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seq_len: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8192);
    let model = match args.get(2).map(|s| s.as_str()) {
        Some("405b") => WorkloadSpec::llama3_405b(),
        _ => WorkloadSpec::llama3_70b(),
    };
    let sizes = [8u64, 16, 32, 64];

    let report = Campaign::new("cache-sweep")
        .workload(model)
        .seq_lens([seq_len])
        .l2_sizes_mb(sizes)
        .policies([
            PolicySpec::unoptimized(),
            PolicySpec::dyncta(),
            PolicySpec::dynmg(),
            PolicySpec::dynmg_bma(),
        ])
        .run()
        .expect("cache sweep campaign");

    println!("L2 capacity sweep, {} @ seq {}\n", model.label(), seq_len);
    print!("{:<16}", "policy");
    for mb in sizes {
        print!("{:>10}", format!("{mb}MB"));
    }
    println!();
    // Normalize everything against unoptimized at the largest cache: the
    // "how much cache does this policy need" view.
    let ref_cycles = report
        .policy_records(0)
        .last()
        .expect("largest-cache record")
        .report
        .cycles;
    for (p, policy) in report.campaign.policies.iter().enumerate() {
        print!("{:<16}", policy.label());
        for rec in report.policy_records(p) {
            print!("{:>9.3}x", ref_cycles as f64 / rec.report.cycles as f64);
        }
        println!();
    }
    println!(
        "\n(values are speedups vs unoptimized @ {}MB; a flat row means the\n policy is insensitive to cache size — the paper's claim for dynmg+BMA)",
        sizes.last().expect("non-empty")
    );
}
