//! Differential suite for the tiered KV cache.
//!
//! Three contracts, on top of the closed-set and open-system
//! equivalences that `step_mode_equiv.rs`, `mix_equiv.rs` and
//! `serve_equiv.rs` pin:
//!
//! 1. **Mode equivalence with the tier attached.** The canonical
//!    prefix-reuse mix (three tenants sharing a system-prompt KV
//!    window) under a tight prefix-pinning warm tier produces
//!    byte-identical `RunReport`s and `SimStats` — including the
//!    per-request KV hit/miss/merge/eviction counters — across the
//!    full 20-cell policy matrix plus the KV-aware `PFA` compositions.
//! 2. **Budget edges.** Both modes agree on the exact `CycleLimit`
//!    report at budgets landing mid-promotion.
//! 3. **Determinism and accounting.** Proptests pin that the tier's
//!    eviction sequence is a pure function of its input sequence, that
//!    the warm set never exceeds its capacity, and that the per-request
//!    KV counters exactly partition the tier totals.
//!
//! `GOLDEN_KV` pins one row of the tiered table: any drift is a
//! semantic change to the KV path (classification, promotion timing,
//! eviction order or counter attribution) and must be deliberate.

use proptest::prelude::*;

use llamcat::experiment::Experiment;
use llamcat::spec::{KvSpec, MixSpec, PolicySpec};
use llamcat_sim::kv::{KvClass, KvEviction, KvTier, KvTierConfig, SHARED_KV_BASE};
use llamcat_trace::workloads::WorkloadSpec;

const SEQ_LEN: usize = 128;
const TENANTS: usize = 3;

/// The canonical prefix-reuse scenario: three shared-prefix decode
/// tenants (half their context is the common system prompt),
/// co-scheduled on an interleaved machine.
fn canonical_kv_mix() -> MixSpec {
    let mut mix = MixSpec::interleaved();
    for _ in 0..TENANTS {
        mix = mix.request(
            WorkloadSpec::SharedPrefix {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                prefix_len: SEQ_LEN / 2,
            },
            SEQ_LEN,
            0,
        );
    }
    mix
}

/// A warm tier tight enough that private context forces continuous
/// eviction while the pinned shared window stays resident.
fn canonical_kv() -> KvSpec {
    KvSpec::prefix_pin(16)
}

/// Runs the canonical KV scenario under one policy in both modes and
/// asserts full observational equivalence: `RunReport` (per-request KV
/// counters included), `SimStats`, consistency.
fn assert_kv_mode_equivalent(
    policy: PolicySpec,
    budget: Option<u64>,
) -> llamcat::experiment::RunReport {
    use llamcat_sim::system::StepMode;
    let label = policy.label();
    let run = |mode| {
        let mut e = Experiment::with_mix(canonical_kv_mix().instantiate())
            .kv(canonical_kv())
            .policy(policy.clone())
            .step_mode(mode);
        e.max_cycles = budget;
        e.try_run().expect("kv scenario runs")
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        serde_json::to_string(&cycle).unwrap(),
        serde_json::to_string(&skip).unwrap(),
        "{label}: RunReport (incl. per-request KV counters) diverged (budget {budget:?})"
    );
    let stats_cycle = serde_json::to_string(cycle.stats.as_ref().unwrap()).unwrap();
    let stats_skip = serde_json::to_string(skip.stats.as_ref().unwrap()).unwrap();
    assert_eq!(
        stats_cycle, stats_skip,
        "{label}: SimStats diverged between step modes (budget {budget:?})"
    );
    cycle
        .stats
        .as_ref()
        .unwrap()
        .check_consistency()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    if budget.is_none() {
        assert!(cycle.completed, "{label}: canonical scenario completes");
        let kv = cycle.kv.as_ref().expect("tier attached");
        assert!(kv.promotions > 0, "{label}: the tier must see traffic");
        assert!(kv.evictions > 0, "{label}: capacity 16 must force eviction");
    }
    cycle
}

/// The canonical prefix-reuse mix across the whole 20-cell policy
/// matrix (the CI release-mode gate for the KV tier).
#[test]
fn canonical_kv_mix_is_mode_equivalent_across_policy_matrix() {
    for policy in PolicySpec::matrix() {
        assert_kv_mode_equivalent(policy, None);
    }
}

/// The KV-aware arbiter compositions ride the same contract.
#[test]
fn prefix_aware_arbiter_is_mode_equivalent_with_tier() {
    for name in ["PFA", "dyncta+PFA", "lcs+PFA", "dynmg+PFA"] {
        let policy = PolicySpec::from_name(name).expect("PFA composes");
        assert_kv_mode_equivalent(policy, None);
    }
}

/// Budget edges: both modes agree on the exact `CycleLimit` report at
/// budgets landing mid-promotion, mid-drain and around the end.
#[test]
fn kv_budget_edges_agree() {
    let full = Experiment::with_mix(canonical_kv_mix().instantiate())
        .kv(canonical_kv())
        .run();
    assert!(full.completed);
    let end = full.cycles;
    for budget in [1, 301, end / 4, end / 2, end - 1, end, end + 1] {
        assert_kv_mode_equivalent(PolicySpec::unoptimized(), Some(budget));
    }
}

/// The tier counters of one pinned row: `(lookups, hits, misses,
/// merges, promotions, evictions)`.
type KvCounters = (u64, u64, u64, u64, u64, u64);

/// GOLDEN_KV: one pinned row of the tiered table —
/// `(policy, cycles, counters)` for the canonical scenario. Any change
/// is a semantic change to the KV path and must be deliberate.
const GOLDEN_KV: (&str, u64, KvCounters) =
    ("dynmg+BMA", 113_865, (8_202, 1_340, 415, 6_447, 415, 399));

#[test]
fn golden_kv_row_is_pinned() {
    let report = Experiment::with_mix(canonical_kv_mix().instantiate())
        .kv(canonical_kv())
        .policy(PolicySpec::from_name(GOLDEN_KV.0).unwrap())
        .run();
    assert!(report.completed);
    let kv = report.kv.as_ref().expect("tier attached");
    let observed = (
        kv.lookups,
        kv.hits,
        kv.misses,
        kv.merges,
        kv.promotions,
        kv.evictions,
    );
    assert_eq!(
        (report.cycles, observed),
        (GOLDEN_KV.1, GOLDEN_KV.2),
        "GOLDEN_KV drifted — run cycles {} kv {:?}",
        report.cycles,
        observed
    );
}

// ---------------------------------------------------------------------
// Proptests: tier determinism and counter partitioning.
// ---------------------------------------------------------------------

const K0: u64 = 1 << 32; // K-window base: always classified as KV

/// Drives a tier through one op sequence: each op advances time, then
/// touches an address from a small pool (hit / merge / promote as the
/// tier dictates), then drains whatever became ready. Returns the
/// serialized observable state.
fn drive(cfg: KvTierConfig, ops: &[(u8, u8)]) -> (String, String) {
    let mut kv = KvTier::new(cfg);
    kv.reserve_requests(4);
    let mut now = 0u64;
    for &(addr_sel, gap) in ops {
        now += u64::from(gap);
        kv.advance(now);
        while kv.ready_front().is_some() {
            kv.pop_ready();
        }
        // A pool of 8 per-request blocks plus 2 shared-prefix blocks.
        let line = if addr_sel % 10 < 8 {
            K0 + u64::from(addr_sel % 10) * cfg.block_bytes
        } else {
            SHARED_KV_BASE + u64::from(addr_sel % 2) * cfg.block_bytes
        };
        let request = u32::from(addr_sel % 3);
        match kv.classify(line) {
            KvClass::Warm => kv.note_hit(line, request),
            KvClass::Inflight => kv.merge_wait(line, request, 0),
            KvClass::Cold if kv.can_start() => kv.start_promotion(line, request, 0, now),
            KvClass::Cold => {}
            KvClass::Bypass => unreachable!("pool addresses are KV"),
        }
    }
    // Drain everything.
    now += 1_000_000;
    kv.advance(now);
    while kv.ready_front().is_some() {
        kv.pop_ready();
    }
    assert!(kv.is_idle());
    // The observable state: totals, per-request counters, and the warm
    // set as seen through `classify` over the whole pool.
    let warm: Vec<u8> = (0..10u8)
        .map(|i| {
            let line = if i < 8 {
                K0 + u64::from(i) * cfg.block_bytes
            } else {
                SHARED_KV_BASE + u64::from(i % 2) * cfg.block_bytes
            };
            u8::from(kv.classify(line) == KvClass::Warm)
        })
        .collect();
    assert!(
        warm.iter().map(|&w| usize::from(w)).sum::<usize>() <= cfg.warm_capacity_blocks,
        "warm set exceeds capacity"
    );
    let totals = serde_json::to_string(&kv.total).unwrap();
    let reqs = serde_json::to_string(&kv.req_stats).unwrap();
    (format!("{totals}|{warm:?}"), reqs)
}

proptest! {
    // The tier is a pure function of its input sequence: replaying the
    // same ops yields identical totals, per-request counters and warm
    // set — under both eviction policies — and the accounting
    // invariants hold (every miss starts exactly one promotion; the
    // warm set respects capacity, asserted inside `drive`).
    #[test]
    fn tier_eviction_is_deterministic(
        ops in proptest::collection::vec((0u8..255, 0u8..41), 1..60),
        capacity in 1usize..6,
        pin in any::<bool>(),
    ) {
        let cfg = KvTierConfig {
            warm_capacity_blocks: capacity,
            block_bytes: 256,
            slow_latency: 10,
            slow_bytes_per_cycle: 64,
            max_inflight: 3,
            eviction: if pin { KvEviction::PrefixPin } else { KvEviction::Lru },
        };
        let a = drive(cfg, &ops);
        let b = drive(cfg, &ops);
        prop_assert_eq!(a, b, "replay diverged");
    }

    // Per-request KV counters exactly partition the tier totals, and
    // the partition is identical in both step modes.
    #[test]
    fn kv_counters_partition_across_requests(
        tenants in 2usize..4,
        prefix_frac in 0u8..3,
        capacity in 8usize..48,
        pin in any::<bool>(),
    ) {
        use llamcat_sim::system::StepMode;
        let prefix_len = SEQ_LEN * usize::from(prefix_frac) / 2; // 0, 64, 128
        let mut mix = MixSpec::interleaved();
        for _ in 0..tenants {
            mix = mix.request(
                WorkloadSpec::SharedPrefix {
                    heads: 8,
                    group_size: 8,
                    head_dim: 128,
                    prefix_len,
                },
                SEQ_LEN,
                0,
            );
        }
        let kv_spec = if pin { KvSpec::prefix_pin(capacity) } else { KvSpec::lru(capacity) };
        let run = |mode| {
            Experiment::with_mix(mix.instantiate())
                .kv(kv_spec)
                .step_mode(mode)
                .try_run()
                .expect("kv mix runs")
        };
        let cycle = run(StepMode::Cycle);
        let skip = run(StepMode::Skip);
        prop_assert_eq!(
            serde_json::to_string(&cycle).unwrap(),
            serde_json::to_string(&skip).unwrap(),
            "modes diverged"
        );
        prop_assert!(cycle.completed);
        let kv = cycle.kv.as_ref().expect("tier attached");
        let sum = |f: fn(&llamcat::experiment::RequestReport) -> u64| -> u64 {
            cycle.requests.iter().map(f).sum()
        };
        prop_assert_eq!(sum(|r| r.kv_lookups), kv.lookups, "lookups partition");
        prop_assert_eq!(sum(|r| r.kv_hits), kv.hits, "hits partition");
        prop_assert_eq!(sum(|r| r.kv_misses), kv.misses, "misses partition");
        prop_assert_eq!(sum(|r| r.kv_merges), kv.merges, "merges partition");
        prop_assert_eq!(sum(|r| r.kv_evictions), kv.evictions, "evictions partition");
        prop_assert_eq!(kv.lookups, kv.hits + kv.misses + kv.merges);
        prop_assert_eq!(kv.promotions, kv.misses, "every miss promotes once");
    }
}
