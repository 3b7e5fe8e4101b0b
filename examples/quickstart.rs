//! Quickstart: simulate the Llama3 70b Logit operator under the
//! unoptimized machine and under LLaMCAT's final policy (dynmg+BMA),
//! then print the speedup and the mechanism metrics.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use llamcat::experiment::Experiment;
use llamcat::spec::PolicySpec;
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let seq_len = 2048;
    println!("Simulating Llama3 70b Logit (QK^T), seq_len = {seq_len} ...");

    let model = WorkloadSpec::llama3_70b();
    let unopt = Experiment::from_spec(&model, seq_len).run();
    let ours = Experiment::from_spec(&model, seq_len)
        .policy(PolicySpec::dynmg_bma())
        .run();

    for r in [&unopt, &ours] {
        println!(
            "\n[{}]\n  cycles            {}\n  L2 hit rate       {:.3}\n  MSHR hit rate     {:.3}\n  MSHR entry util   {:.3}\n  cache stalls t_cs {:.3}\n  DRAM bandwidth    {:.2} GB/s\n  DRAM accesses     {}",
            r.policy_label,
            r.cycles,
            r.l2_hit_rate,
            r.mshr_hit_rate,
            r.mshr_entry_util,
            r.t_cs,
            r.dram_bandwidth_gbs,
            r.dram_accesses,
        );
    }
    println!(
        "\nspeedup (dynmg+BMA over unoptimized): {:.3}x",
        ours.speedup_over(&unopt)
    );
}
