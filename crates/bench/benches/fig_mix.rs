//! fig_mix: multi-tenant serving mixes across the full policy matrix.
//!
//! The paper evaluates every policy on one operator in isolation — the
//! regime where inter-core interference at the shared LLC is mildest.
//! This target opens the contended regime: decode/prefill serving
//! mixes, co-scheduled under both composition disciplines (core
//! partitioning and interleaving), swept across the same 20
//! arbitration × throttling cells the golden table pins.
//!
//! For every (mix, policy) cell the campaign engine also runs each
//! request solo under the same policy and reports per-request fairness:
//! slowdown vs the solo run, and the min/max/geomean per-request
//! speedup. The JSONL stream on stdout-adjacent files is deterministic
//! (byte-identical across runs) and each record carries its step mode.
//!
//! Scale via `LLAMCAT_SCALE` as usual (full | half | quick).

use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_bench::{scale_divisor, scale_label, Campaign};
use llamcat_trace::workloads::WorkloadSpec;

/// The 5 × 4 policy matrix of the golden table, ladder order.
fn policy_matrix() -> Vec<PolicySpec> {
    let arbs = ["fifo", "B", "MA", "BMA", "cobrra"];
    let throttles = ["none", "dyncta", "lcs", "dynmg"];
    let mut out = Vec::with_capacity(20);
    for arb in arbs {
        for thr in throttles {
            let name = format!("{thr}+{arb}");
            out.push(
                PolicySpec::from_name(&name)
                    .unwrap_or_else(|| panic!("matrix cell `{name}` must resolve")),
            );
        }
    }
    out
}

fn prefill(seq_len: usize, arrival: u64) -> (WorkloadSpec, usize, u64) {
    (
        WorkloadSpec::PrefillLogit {
            heads: 8,
            group_size: 8,
            head_dim: 128,
            query_tokens: 4,
        },
        seq_len,
        arrival,
    )
}

fn decode(seq_len: usize, arrival: u64) -> (WorkloadSpec, usize, u64) {
    (WorkloadSpec::llama3_70b(), seq_len, arrival)
}

fn mix_of(base: MixSpec, requests: &[(WorkloadSpec, usize, u64)]) -> MixSpec {
    requests
        .iter()
        .fold(base, |m, &(w, s, a)| m.request(w, s, a))
}

fn main() {
    let div = scale_divisor();
    let long = 4096 / div;
    let short = 1024 / div;
    println!(
        "# fig_mix — decode/prefill serving mixes across the 20-cell policy matrix \
         (scale: {}, seqs {short}/{long})",
        scale_label()
    );

    // The serving-mix scenario axis: homogeneous decode, decode+prefill
    // under both disciplines, and a staggered late prefill arrival.
    let mixes = vec![
        mix_of(MixSpec::partitioned(), &[decode(long, 0), decode(long, 0)]),
        mix_of(
            MixSpec::partitioned(),
            &[decode(long, 0), prefill(short, 0)],
        ),
        mix_of(
            MixSpec::interleaved(),
            &[decode(long, 0), prefill(short, 0)],
        ),
        mix_of(
            MixSpec::interleaved(),
            &[decode(long, 0), prefill(short, (short * 40) as u64)],
        ),
    ];

    let report = Campaign::new("fig_mix")
        .mixes(mixes)
        .policies(policy_matrix())
        .baseline(PolicySpec::unoptimized())
        .run()
        .expect("fig_mix campaign");

    let n_pol = report.campaign.policies.len();
    let labels = report.campaign.scenario_labels();
    for (s, label) in labels.iter().enumerate() {
        println!("\n### {label}");
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "policy", "perf", "min-spd", "geo-spd", "max-slow", "worst-tenant"
        );
        for p in 0..n_pol {
            let rec = &report.records[s * n_pol + p];
            let perf = rec.speedup.expect("baseline set");
            // Fairness is absent when the cell (or a solo reference)
            // hit its cycle budget; report the cell rather than abort
            // the sweep.
            match &rec.fairness {
                Some(f) => {
                    let worst = f
                        .per_request
                        .iter()
                        .max_by(|a, b| a.slowdown.total_cmp(&b.slowdown))
                        .expect("non-empty mix");
                    println!(
                        "{:<14} {:>9.3}x {:>10.3} {:>10.3} {:>9.3}x {:>12}",
                        rec.report.policy_label,
                        perf,
                        f.min_speedup,
                        f.geomean_speedup,
                        f.max_slowdown,
                        worst.label,
                    );
                }
                None => println!(
                    "{:<14} {:>9.3}x {:>10} {:>10} {:>10} {:>12}",
                    rec.report.policy_label, perf, "n/a", "n/a", "n/a", "(incomplete)"
                ),
            }
        }
    }

    // The archived artifact: deterministic JSONL, one self-describing
    // record per cell (mix spec, policy, step mode, per-request stats,
    // fairness).
    let jsonl = report.jsonl();
    println!(
        "\n[fig_mix] {} JSONL records, {} bytes (deterministic)",
        report.records.len(),
        jsonl.len()
    );
}
