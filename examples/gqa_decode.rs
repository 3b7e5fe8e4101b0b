//! GQA decode scenario: how the policies behave as the decoded context
//! grows — the situation the paper's introduction motivates (long-context
//! decoding is KV-cache-bandwidth bound).
//!
//! Runs the fused `GqaDecode` workload (K and V streamed in one pass,
//! FlashDecoding-style — scores never touch memory), sweeping sequence
//! length for both model shapes and printing speedups of the
//! throttling+arbitration ladder over the unoptimized machine.
//!
//! ```text
//! cargo run --release --example gqa_decode [max_seq_k]
//! ```

use llamcat::experiment::{geomean, Experiment};
use llamcat::spec::PolicySpec;
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let max_k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let seqs: Vec<usize> = [1, 2, 4, 8, 16]
        .iter()
        .filter(|&&k| k <= max_k)
        .map(|&k| k * 1024)
        .collect();
    let policies = [PolicySpec::dynmg(), PolicySpec::dynmg_bma()];
    let models = [
        ("llama3 70b (H=8, G=8)", 8),
        ("llama3 405b (H=8, G=16)", 16),
    ];

    for (label, group_size) in models {
        let decode = WorkloadSpec::GqaDecode {
            heads: 8,
            group_size,
            head_dim: 128,
        };
        println!("\n=== {label} ===");
        print!("{:<14}", "policy");
        for s in &seqs {
            print!("{:>9}", format!("{}K", s / 1024));
        }
        println!("{:>10}", "geomean");
        let base: Vec<_> = seqs
            .iter()
            .map(|&s| Experiment::from_spec(&decode, s).run())
            .collect();
        for p in &policies {
            let mut speedups = Vec::new();
            print!("{:<14}", p.label());
            for (i, &s) in seqs.iter().enumerate() {
                let r = Experiment::from_spec(&decode, s).policy(p.clone()).run();
                let sp = r.speedup_over(&base[i]);
                speedups.push(sp);
                print!("{sp:>8.3}x");
            }
            println!("{:>9.3}x", geomean(&speedups));
        }
    }
    println!("\n(decode is KV-cache bound: speedups grow with context length\n as the working set outgrows the LLC, per the paper's Fig 7/9)");
}
