//! Campaign acceptance tests: a JSON-defined campaign (multiple
//! workload families × sequence lengths × policies) must round-trip
//! through serde, execute deterministically in parallel, and stream
//! byte-identical JSONL across repeated runs.

use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_bench::{Campaign, CellRecord};
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

/// 2 workloads × 2 seq_lens × 3 policies, written as JSON by hand the
/// way a user (or a future CLI/distributed frontend) would.
const CAMPAIGN_JSON: &str = r#"{
  "name": "acceptance-grid",
  "workloads": [
    {"Logit": {"heads": 8, "group_size": 8, "head_dim": 128}},
    {"AttnOutput": {"heads": 8, "group_size": 8, "head_dim": 128}}
  ],
  "seq_lens": [128, 256],
  "l2_mb": [16],
  "policies": [
    {"arb": "Fifo", "throttle": "None"},
    {"arb": "Cobrra", "throttle": "None"},
    {"arb": "BalancedMshrAware", "throttle": {"DynMg": {"config": {
      "sampling_period": 6000, "sub_period": 1200, "max_gear": 4,
      "gear_fractions": [0.0, 0.125, 0.25, 0.5, 0.75],
      "in_core": {"c_idle_upper": 4, "c_mem_upper": 250, "c_mem_lower": 180}}}}}
  ],
  "baseline": {"arb": "Fifo", "throttle": "None"},
  "layout": "PairStream",
  "l_tile": 32,
  "max_cycles": null
}"#;

fn acceptance_campaign() -> Campaign {
    serde_json::from_str(CAMPAIGN_JSON).expect("acceptance JSON parses")
}

#[test]
fn json_campaign_round_trips() {
    let campaign = acceptance_campaign();
    assert_eq!(campaign.workloads.len(), 2);
    assert_eq!(campaign.seq_lens, vec![128, 256]);
    assert_eq!(campaign.policies.len(), 3);
    assert_eq!(campaign.policies[2], PolicySpec::dynmg_bma());
    assert_eq!(campaign.baseline, Some(PolicySpec::unoptimized()));

    // JSON → Campaign → JSON → Campaign is lossless, and the canonical
    // form is stable.
    let canonical = serde_json::to_string(&campaign).unwrap();
    let back: Campaign = serde_json::from_str(&canonical).unwrap();
    assert_eq!(back, campaign);
    assert_eq!(serde_json::to_string(&back).unwrap(), canonical);
}

#[test]
fn json_campaign_runs_deterministically_in_parallel() {
    let campaign = acceptance_campaign();
    let a = campaign.run().expect("first run");
    let b = campaign.run().expect("second run");
    let jsonl_a = a.jsonl();
    let jsonl_b = b.jsonl();
    assert_eq!(
        jsonl_a, jsonl_b,
        "JSONL streams must be byte-identical across runs"
    );
    assert_eq!(jsonl_a.lines().count(), 2 * 2 * 3, "one line per cell");

    // Records come back in deterministic cell order.
    let cells = campaign.cells();
    for (rec, cell) in a.records.iter().zip(&cells) {
        assert_eq!(&rec.cell, cell);
    }
    // Every record carries a baseline-relative speedup; the baseline's
    // own cells pin exactly 1.0.
    for rec in &a.records {
        let s = rec.speedup.expect("baseline set");
        assert!(s > 0.0);
        if rec.cell.policy == PolicySpec::unoptimized() {
            assert_eq!(s, 1.0);
        }
    }
}

#[test]
fn campaign_matches_direct_experiments() {
    // The declarative engine must agree cell-for-cell with hand-built
    // experiments — the property that lets the figure benches be thin
    // wrappers.
    let campaign = Campaign::new("direct-vs-campaign")
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([128])
        .policy(PolicySpec::dynmg_bma())
        .baseline(PolicySpec::unoptimized());
    let report = campaign.run().unwrap();

    use llamcat::experiment::Experiment;
    let direct = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
        .policy(PolicySpec::dynmg_bma())
        .run();
    let base = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128).run();
    assert_eq!(report.records[0].report.cycles, direct.cycles);
    assert_eq!(
        report.records[0].speedup.unwrap(),
        direct.speedup_over(&base)
    );
}

/// Every JSONL record must be self-describing: it carries the step
/// mode it ran under and round-trips through serde losslessly —
/// including records archived *before* the field existed, which parse
/// with the `Cycle` default.
#[test]
fn jsonl_records_round_trip_with_step_mode() {
    let campaign = Campaign::new("stamp")
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([128])
        .policy(PolicySpec::dynmg_bma())
        .step_mode(StepMode::Skip);
    let report = campaign.run().unwrap();
    let jsonl = report.jsonl();
    for line in jsonl.lines() {
        let rec: CellRecord = serde_json::from_str(line).expect("record parses");
        assert_eq!(rec.step_mode, StepMode::Skip, "record must carry its mode");
        // Round trip: parse → serialize reproduces the archived bytes.
        assert_eq!(serde_json::to_string(&rec).unwrap(), line);
        // A legacy record without the field still parses, as Cycle.
        let legacy = line.replace("\"step_mode\":\"Skip\",", "");
        let old: CellRecord = serde_json::from_str(&legacy).expect("legacy parses");
        assert_eq!(old.step_mode, StepMode::Cycle);
    }
}

/// A campaign mixing solo and mix scenarios streams self-describing
/// records: mix cells carry their `MixSpec` and fairness in the JSONL,
/// and both kinds round-trip.
#[test]
fn mix_campaign_jsonl_is_self_describing() {
    let campaign = Campaign::new("mix-jsonl")
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([128])
        .mix(
            MixSpec::partitioned()
                .request(WorkloadSpec::llama3_70b(), 128, 0)
                .request(WorkloadSpec::llama3_70b(), 128, 1_000),
        )
        .policy(PolicySpec::unoptimized())
        .baseline(PolicySpec::unoptimized());
    let report = campaign.run().unwrap();
    assert_eq!(report.records.len(), 2, "one solo + one mix cell");
    let jsonl = report.jsonl();
    let records: Vec<CellRecord> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).expect("record parses"))
        .collect();
    assert!(records[0].cell.mix.is_none() && records[0].fairness.is_none());
    let mix_rec = &records[1];
    let spec = mix_rec
        .cell
        .mix
        .as_ref()
        .expect("mix cell carries its spec");
    assert_eq!(spec.requests.len(), 2);
    assert_eq!(spec.requests[1].arrival, 1_000);
    let fairness = mix_rec
        .fairness
        .as_ref()
        .expect("mix cell carries fairness");
    assert_eq!(fairness.per_request.len(), 2);
    assert_eq!(mix_rec.report.requests.len(), 2);
    // Round trip of the full stream.
    let again: String = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    assert_eq!(again, jsonl);
}

#[test]
fn geomeans_summarize_policy_columns() {
    let report = acceptance_campaign().run().unwrap();
    let geo = report.geomeans();
    assert_eq!(geo.len(), 3);
    assert_eq!(geo[0].0, "unoptimized");
    assert_eq!(geo[0].1, 1.0);
    let rows = report.speedup_rows();
    assert_eq!(rows[2].0, "dynmg+BMA");
    assert_eq!(rows[2].1.len(), 4, "one speedup per scenario");
}

/// The 20-cell golden policy matrix: 5 arbiters × 4 throttles on one
/// scenario, baseline unoptimized.
fn golden_matrix(name: &str, mode: StepMode) -> Campaign {
    let mut c = Campaign::new(name)
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([128])
        .baseline(PolicySpec::unoptimized())
        .step_mode(mode);
    for arb in ["fifo", "B", "MA", "BMA", "cobrra"] {
        for thr in ["none", "dyncta", "lcs", "dynmg"] {
            c = c
                .policy_named(&format!("{thr}+{arb}"))
                .expect("matrix name");
        }
    }
    c
}

/// `campaign` re-parsed from JSON with the retired executor flag `key`
/// set — the shape of a grid file written when the flag still existed.
fn with_legacy_flag(campaign: &Campaign, key: &str) -> Campaign {
    let json = serde_json::to_string(campaign).expect("campaign serializes");
    let body = json.strip_prefix('{').expect("campaign is a JSON object");
    let legacy = format!("{{\"{key}\":true,{body}");
    serde_json::from_str(&legacy).expect("legacy campaign JSON parses")
}

fn report_json(report: &llamcat::experiment::RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// The golden matrix's campaign records are reproduced byte for byte
/// by forking one policy-neutral snapshot of the scenario per cell
/// (`Experiment::snapshot_scenario` + `run_forked`) — in both step
/// modes. A grid file still carrying the retired `fork_scenarios` flag
/// parses and streams the same JSONL.
#[test]
fn forked_golden_matrix_is_byte_identical_in_both_modes() {
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let campaign = golden_matrix("golden-matrix-fork", mode);
        let straight = campaign.run().expect("campaign run");
        assert_eq!(straight.records.len(), 20);

        let cells = campaign.cells();
        let snapshot = cells[0]
            .experiment(&campaign)
            .snapshot_scenario()
            .expect("scenario snapshot");
        for (rec, cell) in straight.records.iter().zip(&cells) {
            let forked = cell
                .experiment(&campaign)
                .run_forked(&snapshot)
                .expect("forked run");
            assert_eq!(
                report_json(&rec.report),
                report_json(&forked),
                "fork of the scenario snapshot diverged from the campaign ({mode:?}, {})",
                rec.report.policy_label
            );
        }

        let legacy = with_legacy_flag(&campaign, "fork_scenarios");
        assert_eq!(
            straight.jsonl(),
            legacy.run().expect("legacy-flag run").jsonl(),
            "retired fork_scenarios flag changed the stream ({mode:?})"
        );
    }
}

/// The golden matrix run as one campaign — its 20 cells executed as a
/// single parallel batch — is byte-identical, cell for cell, to each
/// cell's experiment run on its own, in both step modes. A grid file
/// still carrying the retired `batch_cells` flag parses and streams
/// the same JSONL.
#[test]
fn batched_golden_matrix_is_byte_identical_in_both_modes() {
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let campaign = golden_matrix("golden-matrix-batch", mode);
        let batched = campaign.run().expect("campaign run");
        assert_eq!(batched.records.len(), 20);

        for (rec, cell) in batched.records.iter().zip(&campaign.cells()) {
            let alone = cell.experiment(&campaign).try_run().expect("per-cell run");
            assert_eq!(
                report_json(&rec.report),
                report_json(&alone),
                "batched campaign diverged from the per-cell run ({mode:?}, {})",
                rec.report.policy_label
            );
        }

        let legacy = with_legacy_flag(&campaign, "batch_cells");
        assert_eq!(
            batched.jsonl(),
            legacy.run().expect("legacy-flag run").jsonl(),
            "retired batch_cells flag changed the stream ({mode:?})"
        );
    }
}

/// The golden matrix streams its records in the deterministic cell
/// order on the campaign's one execution path, in both step modes, and
/// the two modes agree on everything but the records' own mode stamp.
/// Resuming from an archive whose cached cells interleave with fresh
/// ones (every other cell) merges back to that exact stream: cached
/// cells slot back into position, fresh cells run.
#[test]
fn execution_paths_agree_on_record_order_with_interleaved_archive() {
    let dir = std::env::temp_dir().join(format!("llamcat-order-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut streams = Vec::new();
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let campaign = golden_matrix("order-pin", mode);
        let full = campaign.run().expect("uninterrupted run");
        let golden = full.jsonl();
        let cells = campaign.cells();
        assert_eq!(full.records.len(), 20);
        for (rec, cell) in full.records.iter().zip(&cells) {
            assert_eq!(&rec.cell, cell, "records must follow the cell order");
        }
        assert_eq!(full.records[0].report.policy_label, "unoptimized"); // none+fifo leads the grid

        let archive = dir.join(format!("{mode:?}.jsonl"));
        let mut seed = String::new();
        for rec in full.records.iter().step_by(2) {
            seed.push_str(&serde_json::to_string(rec).expect("record serializes"));
            seed.push('\n');
        }
        std::fs::write(&archive, seed).expect("seed archive");
        let resumed = campaign.run_resumable(&archive).expect("resumed run");
        assert_eq!(
            golden,
            resumed.jsonl(),
            "{mode:?}: interleaved resume diverged from the uninterrupted run"
        );
        assert!(
            resumed
                .warnings
                .iter()
                .any(|w| w.contains("10 of 20 cell(s) already archived")),
            "{mode:?}: resume must actually have interleaved cached cells: {:?}",
            resumed.warnings
        );
        streams.push(golden);
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        streams[1].replace(r#""step_mode":"Skip""#, r#""step_mode":"Cycle""#),
        streams[0],
        "Skip and Cycle streams differ beyond the mode stamp"
    );
}
