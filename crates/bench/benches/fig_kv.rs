//! fig_kv: tiered KV cache — warm-capacity × prefix-share sweep.
//!
//! The paper evaluates LLC policies with all KV state DRAM-resident.
//! This target attaches the tiered KV subsystem (a capacity-limited
//! warm store over a CXL/NVMe-like slow tier) and asks whether the
//! paper's policy ranking survives KV pressure: a multi-tenant mix of
//! shared-prefix decode tenants runs under every (warm capacity ×
//! prefix share × policy) cell, plus a no-tier reference column.
//!
//! Two effects compete once the tier is attached:
//!
//! * a *shared* system-prompt prefix concentrates reuse — prefix-
//!   pinning eviction keeps those blocks warm for every tenant;
//! * *private* context overflows a tight warm tier, so requests stall
//!   on promotions and the prefix-cache-aware arbiter (`PFA`, and its
//!   throttled composition `dynmg+PFA`) gets room to reorder around
//!   mid-promotion tenants.
//!
//! Every cell runs in both step modes and asserts byte-identical
//! statistics (cycles, per-request reports, KV counters) — extending
//! the Skip ≡ Cycle guarantee to the KV tier. The report calls out the
//! cells whose policy ranking *inverts* relative to the no-tier
//! reference of the same prefix share. One JSON record per cell goes
//! to stdout; `LLAMCAT_FIG_KV_JSON` names an optional machine-readable
//! artifact with the inversions and every cell.
//!
//! Scale via `LLAMCAT_SCALE` as usual (full | half | quick).

use llamcat::spec::{KvSpec, MixSpec, PolicySpec};
use llamcat_bench::{scale_divisor, scale_label, Campaign, CellRecord};
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

const TENANTS: usize = 4;

fn shared_prefix_mix(seq_len: usize, prefix_len: usize) -> MixSpec {
    let mut mix = MixSpec::interleaved();
    for _ in 0..TENANTS {
        mix = mix.request(
            WorkloadSpec::SharedPrefix {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                prefix_len,
            },
            seq_len,
            0,
        );
    }
    mix
}

fn policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::unoptimized(),
        PolicySpec::dynmg_bma(),
        PolicySpec::from_name("PFA").expect("PFA resolves compositionally"),
        PolicySpec::from_name("dynmg+PFA").expect("dynmg+PFA resolves"),
    ]
}

/// Policy ranking of one scenario: labels ordered fastest-first
/// (ties broken by policy order, which is deterministic).
fn ranking(records: &[&CellRecord]) -> Vec<String> {
    let mut by_cycles: Vec<(u64, String)> = records
        .iter()
        .map(|r| (r.report.cycles, r.cell.policy.label()))
        .collect();
    by_cycles.sort_by_key(|r| r.0);
    by_cycles.into_iter().map(|(_, l)| l).collect()
}

fn assert_modes_match(cycle: &CellRecord, skip: &CellRecord, what: &str) {
    assert_eq!(cycle.report.cycles, skip.report.cycles, "{what}: cycles");
    assert_eq!(
        serde_json::to_string(&cycle.report.requests).unwrap(),
        serde_json::to_string(&skip.report.requests).unwrap(),
        "{what}: per-request stats diverged between step modes"
    );
    assert_eq!(
        serde_json::to_string(&cycle.report.kv).unwrap(),
        serde_json::to_string(&skip.report.kv).unwrap(),
        "{what}: KV tier counters diverged between step modes"
    );
}

fn main() {
    let div = scale_divisor();
    let seq_len = 512 / div;

    // Prefix shares (fraction of each tenant's context that is the
    // common system prompt) and warm capacities, sized against the
    // mix's KV footprint: each tenant streams seq_len/2 warm blocks of
    // K rows, so `4*seq_len` blocks hold everything with room to
    // spare and `seq_len/8` forces continuous eviction.
    let shares: &[f64] = if div >= 8 {
        &[0.0, 0.875]
    } else {
        &[0.0, 0.5, 0.875]
    };
    let caps: Vec<usize> = if div >= 8 {
        vec![(seq_len / 8).max(2), 4 * seq_len]
    } else {
        vec![(seq_len / 8).max(2), seq_len / 2, 4 * seq_len]
    };

    let mixes: Vec<(f64, usize, MixSpec)> = shares
        .iter()
        .map(|&s| {
            let prefix_len = (seq_len as f64 * s) as usize;
            (s, prefix_len, shared_prefix_mix(seq_len, prefix_len))
        })
        .collect();
    let kvs: Vec<KvSpec> = caps.iter().map(|&c| KvSpec::prefix_pin(c)).collect();
    let pols = policies();
    let n_pol = pols.len();
    let n_kv = kvs.len();

    println!(
        "# fig_kv — tiered KV cache: warm capacity x prefix share x policy \
         (scale: {}, seq {seq_len}, {TENANTS} tenants, caps {caps:?} blocks)",
        scale_label()
    );

    let tiered = |mode| {
        Campaign::new("fig_kv")
            .mixes(mixes.iter().map(|(_, _, m)| m.clone()))
            .kvs(kvs.iter().copied())
            .policies(pols.clone())
            .baseline(PolicySpec::unoptimized())
            .step_mode(mode)
    };
    let no_tier = |mode| {
        Campaign::new("fig_kv-reference")
            .mixes(mixes.iter().map(|(_, _, m)| m.clone()))
            .policies(pols.clone())
            .baseline(PolicySpec::unoptimized())
            .step_mode(mode)
    };

    // Both campaigns, both modes; Skip must reproduce Cycle exactly.
    let t_cycle = tiered(StepMode::Cycle).run().expect("tiered sweep");
    let t_skip = tiered(StepMode::Skip).run().expect("tiered sweep (skip)");
    let r_cycle = no_tier(StepMode::Cycle).run().expect("reference sweep");
    let r_skip = no_tier(StepMode::Skip)
        .run()
        .expect("reference sweep (skip)");
    for (c, s) in t_cycle.records.iter().zip(&t_skip.records) {
        assert_modes_match(c, s, "tiered");
    }
    for (c, s) in r_cycle.records.iter().zip(&r_skip.records) {
        assert_modes_match(c, s, "no-tier");
    }

    let mut json_points: Vec<String> = Vec::new();
    let mut inversions: Vec<String> = Vec::new();
    for (si, (share, prefix_len, _)) in mixes.iter().enumerate() {
        // Reference ranking: the same mix with DRAM-resident KV.
        let ref_recs: Vec<&CellRecord> = (0..n_pol)
            .map(|p| &r_cycle.records[si * n_pol + p])
            .collect();
        let ref_rank = ranking(&ref_recs);
        println!(
            "\n### prefix share {:.0}% (prefix {prefix_len} of {seq_len})  \
             no-tier ranking: {}",
            share * 100.0,
            ref_rank.join(" > ")
        );
        println!(
            "{:>10} {:>12} {:>12} {:>9} {:>11} {:>10} {:>9}",
            "warm-cap", "policy", "cycles", "speedup", "kv-hit-rate", "promotions", "evictions"
        );
        for (ki, cap) in caps.iter().enumerate() {
            let recs: Vec<&CellRecord> = (0..n_pol)
                .map(|p| &t_cycle.records[(si * n_kv + ki) * n_pol + p])
                .collect();
            for rec in &recs {
                let kv = rec.report.kv.as_ref().expect("tiered cells report KV");
                let hit_rate = kv.hits as f64 / (kv.lookups.max(1)) as f64;
                println!(
                    "{:>10} {:>12} {:>12} {:>8.3}x {:>11.3} {:>10} {:>9}",
                    cap,
                    rec.cell.policy.label(),
                    rec.report.cycles,
                    rec.speedup.unwrap_or(1.0),
                    hit_rate,
                    kv.promotions,
                    kv.evictions
                );
                json_points.push(format!(
                    "{{\"share\": {share}, \"prefix_len\": {prefix_len}, \
                     \"warm_capacity_blocks\": {cap}, \"policy\": \"{}\", \
                     \"cycles\": {}, \"speedup\": {:.6}, \"kv_hit_rate\": {hit_rate:.6}, \
                     \"promotions\": {}, \"evictions\": {}, \"spec_hash\": {}}}",
                    rec.cell.policy.label(),
                    rec.report.cycles,
                    rec.speedup.unwrap_or(1.0),
                    kv.promotions,
                    kv.evictions,
                    rec.spec_hash,
                ));
            }
            let rank = ranking(&recs);
            if rank != ref_rank {
                let msg = format!(
                    "share {:.0}% cap {cap}: {} (no-tier: {})",
                    share * 100.0,
                    rank.join(" > "),
                    ref_rank.join(" > ")
                );
                println!("    ranking INVERTS: {msg}");
                inversions.push(msg);
            }
        }
    }
    if inversions.is_empty() {
        println!("\nno ranking inversions: the paper's ordering survives the KV tier");
    } else {
        println!(
            "\n{} cell group(s) invert the paper's no-tier policy ranking",
            inversions.len()
        );
    }

    // Deterministic JSONL artifact (byte-identical across runs).
    println!("\n## JSONL");
    for line in &json_points {
        println!("{line}");
    }

    if let Ok(path) = std::env::var("LLAMCAT_FIG_KV_JSON") {
        let mut json = String::from("{\n  \"schema\": \"llamcat-fig-kv/2\",\n");
        json.push_str(&format!(
            "  \"seq_len\": {seq_len},\n  \"tenants\": {TENANTS},\n"
        ));
        json.push_str("  \"inversions\": [\n");
        for (i, msg) in inversions.iter().enumerate() {
            json.push_str(&format!(
                "    \"{msg}\"{}\n",
                if i + 1 == inversions.len() { "" } else { "," }
            ));
        }
        json.push_str("  ],\n  \"points\": [\n");
        for (i, line) in json_points.iter().enumerate() {
            json.push_str(&format!(
                "    {line}{}\n",
                if i + 1 == json_points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write fig_kv JSON report");
        println!("wrote {path}");
    }
}
