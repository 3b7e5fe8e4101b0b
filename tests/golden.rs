//! Golden-baseline regression test.
//!
//! One small configuration (Llama3 70b, seq_len 128, 16 MB L2) per
//! cell of the 5 × 4 arbitration × throttling matrix
//! ([`PolicySpec::matrix`]), keyed by component names, with the cycle
//! count and the headline rates recorded from the seed implementation.
//! Future performance PRs diff against this table instead of merely
//! checking "it still completes"; an intentional behavior change must
//! update the table in the same commit and justify the delta.
//!
//! Regenerate the table after an intentional change with:
//! ```text
//! cargo test --test golden -- --ignored --nocapture
//! ```
//! and paste the printed rows over `GOLDEN`.

use llamcat::experiment::Experiment;
use llamcat::spec::{ArbSpec, MixSpec, PolicySpec, ThrottleSpec};
use llamcat_trace::workloads::WorkloadSpec;

const SEQ_LEN: usize = 128;

/// The matrix cell named by its arbitration and throttling components
/// (`"BMA"`, `"dynmg"`, …).
fn cell(arb: &str, throttle: &str) -> PolicySpec {
    PolicySpec::new(
        ArbSpec::from_name(arb).expect("arbitration name"),
        ThrottleSpec::from_name(throttle).expect("throttle name"),
    )
}

/// The (arb, throttle) names of every golden row, in table order.
fn keys<'a>(rows: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<PolicySpec> {
    rows.into_iter().map(|(a, t)| cell(a, t)).collect()
}

/// Recorded seed behavior: (arb, throttle, cycles, l2_hit_rate,
/// mshr_hit_rate). Rates are exact f64 values as printed by `{:?}`;
/// the simulator is deterministic, so equality is exact.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, f64, f64)] = &[
    ("fifo", "none", 12269, 0.004743889989791629, 0.8609870882104501),
    ("fifo", "dyncta", 12269, 0.004743889989791629, 0.8609870882104501),
    ("fifo", "lcs", 12269, 0.004743889989791629, 0.8609870882104501),
    ("fifo", "dynmg", 12668, 0.13891220916286878, 0.83947909049758),
    ("B", "none", 12786, 0.2341198366954851, 0.8187590640065848),
    ("B", "dyncta", 12786, 0.2341198366954851, 0.8187590640065848),
    ("B", "lcs", 12786, 0.2341198366954851, 0.8187590640065848),
    ("B", "dynmg", 14691, 0.3732421816437288, 0.7785485337032961),
    ("MA", "none", 12376, 0.012585778070780018, 0.8600345968255895),
    ("MA", "dyncta", 12376, 0.012585778070780018, 0.8600345968255895),
    ("MA", "lcs", 12376, 0.012585778070780018, 0.8600345968255895),
    ("MA", "dynmg", 12756, 0.1283430494621071, 0.8411417933602234),
    ("BMA", "none", 12688, 0.008498753716327818, 0.8604313060334383),
    ("BMA", "dyncta", 12688, 0.008498753716327818, 0.8604313060334383),
    ("BMA", "lcs", 12688, 0.008498753716327818, 0.8604313060334383),
    ("BMA", "dynmg", 12874, 0.12300717566877833, 0.8422458062307429),
    ("cobrra", "none", 11966, 0.005396006954853408, 0.8609922237627343),
    ("cobrra", "dyncta", 11966, 0.005396006954853408, 0.8609922237627343),
    ("cobrra", "lcs", 11966, 0.005396006954853408, 0.8609922237627343),
    ("cobrra", "dynmg", 12872, 0.17450769138684383, 0.8319254613348802),
];

fn run_cell(policy: &PolicySpec) -> (u64, f64, f64) {
    let report = Experiment::from_spec(&WorkloadSpec::llama3_70b(), SEQ_LEN)
        .policy(policy.clone())
        .run();
    assert!(
        report.completed,
        "golden cell {} did not complete",
        policy.label()
    );
    (report.cycles, report.l2_hit_rate, report.mshr_hit_rate)
}

#[test]
fn golden_baselines_match_recorded_seed_behavior() {
    assert_eq!(
        keys(GOLDEN.iter().map(|r| (r.0, r.1))),
        PolicySpec::matrix(),
        "golden table must cover every policy cell, in matrix order"
    );
    for &(arb, throttle, cycles, l2_hit, mshr_hit) in GOLDEN {
        let (got_cycles, got_l2, got_mshr) = run_cell(&cell(arb, throttle));
        assert_eq!(
            got_cycles, cycles,
            "{arb}/{throttle}: cycles changed (recorded {cycles}, got {got_cycles})"
        );
        assert_eq!(got_l2, l2_hit, "{arb}/{throttle}: L2 hit rate changed");
        assert_eq!(
            got_mshr, mshr_hit,
            "{arb}/{throttle}: MSHR hit rate changed"
        );
    }
}

/// The policy registry's canonical names must match the paper-figure
/// labels this file pins — one name per named point of the ladder,
/// resolving to the same (arb, throttle) cell the golden table records.
#[test]
fn registry_labels_match_paper_figure_labels() {
    let figure_policies = [
        ("unoptimized", cell("fifo", "none")),
        ("dyncta", cell("fifo", "dyncta")),
        ("lcs", cell("fifo", "lcs")),
        ("cobrra", cell("cobrra", "none")),
        ("dynmg", cell("fifo", "dynmg")),
        ("dynmg+B", cell("B", "dynmg")),
        ("dynmg+MA", cell("MA", "dynmg")),
        ("dynmg+BMA", cell("BMA", "dynmg")),
        ("dynmg+cobrra", cell("cobrra", "dynmg")),
    ];
    let names = PolicySpec::registry_names();
    assert_eq!(
        names.len(),
        figure_policies.len(),
        "registry must cover exactly the named figure points"
    );
    let golden = keys(GOLDEN.iter().map(|r| (r.0, r.1)));
    for (name, (label, policy)) in names.iter().zip(figure_policies) {
        assert_eq!(*name, label, "registry order must follow the figure ladder");
        assert_eq!(policy.label(), label, "figure label of `{name}`");
        let spec = PolicySpec::from_name(name)
            .unwrap_or_else(|| panic!("registry name `{name}` must resolve"));
        assert_eq!(spec, policy, "`{name}` resolves to the wrong cell");
        assert_eq!(spec.label(), *name, "label/name round trip for `{name}`");
        // The golden table covers this cell: the registry points into
        // the pinned 5 × 4 matrix, not outside it.
        assert!(
            golden.contains(&spec),
            "registry name `{name}` must map into the golden matrix"
        );
    }
}

/// Prints the current table in `GOLDEN` literal syntax.
#[test]
#[ignore = "regenerates the golden table; run with --ignored --nocapture"]
fn print_golden_table() {
    for policy in PolicySpec::matrix() {
        let (cycles, l2, mshr) = run_cell(&policy);
        println!(
            "    (\"{}\", \"{}\", {cycles}, {l2:?}, {mshr:?}),",
            policy.arb.label(),
            policy.throttle.label()
        );
    }
}

// ---------------------------------------------------------------------
// Serving-mix golden table: the multi-tenant analogue of `GOLDEN`.
// ---------------------------------------------------------------------

/// The canonical 2-request serving mix: the paper's decode Logit
/// co-scheduled (interleaved) with a chunked-prefill request on the
/// same machine — the smallest scenario where requests contend for
/// cores, MSHRs and the LLC at once.
fn canonical_mix() -> MixSpec {
    MixSpec::interleaved()
        .request(WorkloadSpec::llama3_70b(), SEQ_LEN, 0)
        .request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4,
            },
            SEQ_LEN,
            0,
        )
}

/// Recorded mix behavior per policy cell: (arb, throttle, machine
/// cycles, decode-request cycles-to-completion, prefill-request
/// cycles-to-completion, l2_hit_rate). Exact values — the simulator is
/// deterministic and both step modes are byte-identical.
#[rustfmt::skip]
const GOLDEN_MIX: &[(&str, &str, u64, u64, u64, f64)] = &[
    ("fifo", "none", 37906, 37509, 37819, 0.5032210855560497),
    ("fifo", "dyncta", 37906, 37509, 37819, 0.5032210855560497),
    ("fifo", "lcs", 37906, 37509, 37819, 0.5032210855560497),
    ("fifo", "dynmg", 37644, 36303, 37393, 0.39732885751994035),
    ("B", "none", 39751, 39158, 39671, 0.6325438609074868),
    ("B", "dyncta", 39751, 39158, 39671, 0.6325438609074868),
    ("B", "lcs", 39751, 39158, 39671, 0.6325438609074868),
    ("B", "dynmg", 40172, 39613, 39924, 0.5130677747528299),
    ("MA", "none", 39055, 38349, 38786, 0.5695312836876374),
    ("MA", "dyncta", 39055, 38349, 38786, 0.5695312836876374),
    ("MA", "lcs", 39055, 38349, 38786, 0.5695312836876374),
    ("MA", "dynmg", 38460, 37336, 38321, 0.5467932877420838),
    ("BMA", "none", 36184, 35688, 36084, 0.4770563143608083),
    ("BMA", "dyncta", 36184, 35688, 36084, 0.4770563143608083),
    ("BMA", "lcs", 36184, 35688, 36084, 0.4770563143608083),
    ("BMA", "dynmg", 39831, 37178, 39492, 0.5042102248317342),
    ("cobrra", "none", 38918, 37849, 38321, 0.45194224178723524),
    ("cobrra", "dyncta", 38918, 37849, 38321, 0.45194224178723524),
    ("cobrra", "lcs", 38918, 37849, 38321, 0.45194224178723524),
    ("cobrra", "dynmg", 39796, 39145, 39332, 0.46688846186938937),
];

fn run_mix_cell(policy: &PolicySpec) -> (u64, u64, u64, f64) {
    let report = Experiment::from_mix_spec(&canonical_mix())
        .expect("canonical mix is valid")
        .policy(policy.clone())
        .run();
    assert!(
        report.completed,
        "golden mix cell {} did not complete",
        policy.label()
    );
    assert_eq!(report.requests.len(), 2);
    assert!(report.requests.iter().all(|r| r.completed));
    report.stats.as_ref().unwrap().check_consistency().unwrap();
    (
        report.cycles,
        report.requests[0].cycles,
        report.requests[1].cycles,
        report.l2_hit_rate,
    )
}

#[test]
fn golden_mix_baselines_match_recorded_behavior() {
    assert_eq!(
        keys(GOLDEN_MIX.iter().map(|r| (r.0, r.1))),
        PolicySpec::matrix(),
        "golden mix table must cover every policy cell, in matrix order"
    );
    for &(arb, throttle, cycles, decode_cycles, prefill_cycles, l2_hit) in GOLDEN_MIX {
        let (got_cycles, got_decode, got_prefill, got_l2) = run_mix_cell(&cell(arb, throttle));
        assert_eq!(
            got_cycles, cycles,
            "{arb}/{throttle}: mix cycles changed (recorded {cycles}, got {got_cycles})"
        );
        assert_eq!(
            got_decode, decode_cycles,
            "{arb}/{throttle}: decode request completion changed"
        );
        assert_eq!(
            got_prefill, prefill_cycles,
            "{arb}/{throttle}: prefill request completion changed"
        );
        assert_eq!(got_l2, l2_hit, "{arb}/{throttle}: L2 hit rate changed");
    }
}

/// A single-request partitioned mix IS the solo experiment: it must
/// reproduce the recorded solo golden table bit-for-bit — the
/// no-behavioural-drift guarantee for every legacy experiment.
#[test]
fn single_request_mix_reproduces_solo_golden_table() {
    for &(arb, throttle, cycles, l2_hit, mshr_hit) in GOLDEN {
        let spec = MixSpec::partitioned().request(WorkloadSpec::llama3_70b(), SEQ_LEN, 0);
        let report = Experiment::from_mix_spec(&spec)
            .expect("solo mix is valid")
            .policy(cell(arb, throttle))
            .run();
        assert!(report.completed);
        assert_eq!(
            report.cycles, cycles,
            "{arb}/{throttle}: single-request mix drifted from the solo golden cycles"
        );
        assert_eq!(report.l2_hit_rate, l2_hit);
        assert_eq!(report.mshr_hit_rate, mshr_hit);
        assert_eq!(report.requests.len(), 1);
        assert!(report.requests[0].completed);
    }
}

/// Prints the current mix table in `GOLDEN_MIX` literal syntax.
#[test]
#[ignore = "regenerates the golden mix table; run with --ignored --nocapture"]
fn print_golden_mix_table() {
    for policy in PolicySpec::matrix() {
        let (cycles, decode, prefill, l2) = run_mix_cell(&policy);
        println!(
            "    (\"{}\", \"{}\", {cycles}, {decode}, {prefill}, {l2:?}),",
            policy.arb.label(),
            policy.throttle.label()
        );
    }
}
