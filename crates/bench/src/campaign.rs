//! Declarative experiment campaigns: a serde-round-trippable grid of
//! workloads × sequence lengths × machine overrides × policies, executed
//! in parallel with the substrate's determinism guarantee.
//!
//! The paper's evaluation is a grid; the seed code re-implemented that
//! grid as ad-hoc loops in every bench target. A [`Campaign`] states it
//! once, as data:
//!
//! ```
//! use llamcat::spec::PolicySpec;
//! use llamcat_bench::campaign::Campaign;
//! use llamcat_trace::workloads::WorkloadSpec;
//!
//! let report = Campaign::new("demo")
//!     .workload(WorkloadSpec::llama3_70b())
//!     .seq_lens([128, 256])
//!     .policy(PolicySpec::dynmg_bma())
//!     .baseline(PolicySpec::unoptimized())
//!     .run()
//!     .unwrap();
//! assert_eq!(report.records.len(), 2);
//! let jsonl = report.jsonl();
//! assert_eq!(jsonl.lines().count(), 2);
//! ```
//!
//! Guarantees:
//!
//! * **Deterministic order** — [`Campaign::cells`] enumerates the cross
//!   product workload-major (workload → seq_len → l2_mb → policy), and
//!   [`Campaign::run`] returns records in exactly that order.
//! * **Parallel = sequential** — cells fan out over rayon; each
//!   simulation is single-threaded and deterministic, so the JSONL
//!   stream is byte-identical across runs
//!   (`crates/bench/tests/campaign.rs` pins this).
//! * **Round-trippable** — a campaign serializes to JSON and back
//!   losslessly, including every embedded policy configuration, so a
//!   sweep definition can live in a file, a commit message or a wire
//!   protocol.
//! * **Resumable** — [`Campaign::run_resumable`] content-addresses every
//!   cell with [`cell_spec_hash`], skips cells already present in a
//!   JSONL archive, appends the rest crash-safely, and merges into the
//!   deterministic cell order; `--shard i/n` splits ride on the same
//!   archive with byte-identical merged output.
//! * **Back-compatible** — keys a campaign file carries that this
//!   version no longer reads (such as the switches of retired
//!   executors) are ignored, so old grid files parse and run unchanged.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;

use llamcat::experiment::{Experiment, RunReport};
use llamcat::spec::{KvSpec, MixSpec, PolicySpec, ServeSpec};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::system::StepMode;
use llamcat_trace::mapping::Layout;
use llamcat_trace::workloads::WorkloadSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::geomean;

/// A declarative sweep: the full cross product of its axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Campaign name (carried into the result header).
    pub name: String,
    /// Workload families (sequence length crossed separately).
    pub workloads: Vec<WorkloadSpec>,
    /// Sequence lengths, one per workload instantiation.
    pub seq_lens: Vec<usize>,
    /// Multi-tenant serving mixes: extra scenarios appended after the
    /// solo workload × seq_len grid (each mix carries its own per-
    /// request sequence lengths, so it crosses only with `l2_mb` and
    /// `policies`). Mix records additionally carry per-request fairness
    /// metrics — slowdown vs a solo run of each request under the same
    /// policy and machine.
    #[serde(default)]
    pub mixes: Vec<MixSpec>,
    /// Open-system serve scenarios: appended after the mixes (each
    /// carries its own arrival schedule and serving policy, crossing
    /// only with `l2_mb` and `policies`). Serve records report
    /// per-request admission/TTFT/TBT latencies instead of fairness.
    #[serde(default)]
    pub serves: Vec<ServeSpec>,
    /// L2 capacities in MB (`SystemConfig` override axis).
    pub l2_mb: Vec<u64>,
    /// KV-tier configurations, crossed with every scenario as the
    /// innermost scenario axis (just outside the policy). Empty (the
    /// serde default, so older campaign files keep parsing) runs
    /// without a KV tier — all KV lines DRAM-resident, the pre-tier
    /// behavior.
    #[serde(default)]
    pub kvs: Vec<KvSpec>,
    /// Policies, with their configurations embedded.
    pub policies: Vec<PolicySpec>,
    /// Optional baseline: when set, every record carries its speedup
    /// over the baseline on the same scenario.
    pub baseline: Option<PolicySpec>,
    /// Dataflow layout for every cell.
    pub layout: Layout,
    /// L-dimension tile per thread block.
    pub l_tile: usize,
    /// Hard cycle budget; `None` derives one per cell.
    pub max_cycles: Option<u64>,
    /// Simulation step mode for every cell. `Skip` fast-forwards idle
    /// cycles with byte-identical statistics; `Cycle` (the serde
    /// default, so older campaign files keep parsing) is the
    /// cycle-accurate reference.
    #[serde(default)]
    pub step_mode: StepMode,
}

/// One point of the grid, fully self-describing (what to run).
///
/// Mix cells carry the full [`MixSpec`] in `mix`; their `workload` /
/// `seq_len` fields hold the first request's family and the mix's
/// largest sequence length as representatives (labels and axes come
/// from the spec itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    pub workload: WorkloadSpec,
    pub seq_len: usize,
    pub l2_mb: u64,
    pub policy: PolicySpec,
    /// The serving mix this cell runs, if it is a mix scenario.
    #[serde(default)]
    pub mix: Option<MixSpec>,
    /// The open-system serve scenario this cell runs, if any.
    #[serde(default)]
    pub serve: Option<ServeSpec>,
    /// The tiered-KV configuration attached to this cell's machine, if
    /// any (`None` = DRAM-resident KV).
    #[serde(default)]
    pub kv: Option<KvSpec>,
}

impl CampaignCell {
    /// The experiment this cell describes.
    ///
    /// Panics on a degenerate mix spec; [`Campaign::validate`] (run by
    /// [`Campaign::run`] before any cell executes) rejects those
    /// gracefully.
    pub fn experiment(&self, campaign: &Campaign) -> Experiment {
        let mut e = if let Some(spec) = &self.serve {
            Experiment::from_serve_spec(spec).expect("validated serve spec")
        } else {
            match &self.mix {
                Some(mix) => Experiment::with_mix(mix.instantiate()),
                None => Experiment::from_spec(&self.workload, self.seq_len),
            }
        };
        e = e
            .policy(self.policy.clone())
            .l2_mb(self.l2_mb)
            .layout(campaign.layout)
            .step_mode(campaign.step_mode);
        if let Some(kv) = self.kv {
            e = e.kv(kv);
        }
        e.l_tile = campaign.l_tile;
        e.max_cycles = campaign.max_cycles;
        e
    }
}

/// One request's fairness numbers inside a mix cell: its co-scheduled
/// completion time against a solo run of the same request under the
/// same policy and machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFairness {
    pub request: u32,
    pub label: String,
    /// Cycles the request takes running alone on the whole machine.
    pub solo_cycles: u64,
    /// Cycles from arrival to completion inside the mix.
    pub mix_cycles: u64,
    /// `solo / mix` — ≤ 1 when co-scheduling slows the request down.
    pub speedup: f64,
    /// `mix / solo` — the request's slowdown from interference.
    pub slowdown: f64,
}

/// Fairness summary of one mix cell (the min/max/geomean statistics the
/// multi-tenant scheduling literature reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessRecord {
    pub per_request: Vec<RequestFairness>,
    pub min_speedup: f64,
    pub max_speedup: f64,
    pub geomean_speedup: f64,
    /// The worst per-request slowdown (the fairness headline).
    pub max_slowdown: f64,
}

/// One executed cell: the cell, the step mode it ran under, its report,
/// and (when the campaign has a baseline) its speedup over the baseline
/// on the same scenario; mix cells additionally carry per-request
/// fairness. These are the JSONL stream's records, each line fully
/// self-describing for archived sweeps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    pub cell: CampaignCell,
    /// Content address of this record's configuration: a stable hash
    /// over the serialized `(machine, cell)` spec (see
    /// [`cell_spec_hash`]). Lets archived JSONL streams be joined,
    /// deduplicated and resumed across campaigns without comparing
    /// nested specs. Serde default `0` keeps pre-hash archives parsing
    /// and never matches a computed address.
    #[serde(default)]
    pub spec_hash: u64,
    /// Step mode the cell ran under (serde default `Cycle`, so JSONL
    /// archived before this field existed still parses).
    #[serde(default)]
    pub step_mode: StepMode,
    pub report: RunReport,
    pub speedup: Option<f64>,
    /// Per-request fairness vs solo runs (mix cells only).
    #[serde(default)]
    pub fairness: Option<FairnessRecord>,
    /// Why fairness entries were dropped from this mix cell, when any
    /// were (e.g. a solo reference hit the cycle budget). `fairness` is
    /// `None` with this set when every entry dropped — never a record
    /// of NaN/0.0 folds over an empty set.
    #[serde(default)]
    pub fairness_drop_reason: Option<String>,
}

/// A finished campaign: records in deterministic cell order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    pub campaign: Campaign,
    pub records: Vec<CellRecord>,
    /// Diagnostics collected during the run — dropped fairness
    /// entries, skipped archive lines, pending shards. Library code
    /// never prints; callers decide what (if anything) to surface.
    /// Not part of the JSONL stream; serde default keeps archived
    /// reports parsing.
    #[serde(default)]
    pub warnings: Vec<String>,
}

impl Campaign {
    /// An empty campaign on the Table 5 machine (16 MB L2, pair-stream
    /// layout, 32-token L tiles). Populate the axes with the builder
    /// methods.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            workloads: Vec::new(),
            seq_lens: Vec::new(),
            mixes: Vec::new(),
            serves: Vec::new(),
            l2_mb: vec![16],
            kvs: Vec::new(),
            policies: Vec::new(),
            baseline: None,
            layout: Layout::default(),
            l_tile: 32,
            max_cycles: None,
            step_mode: StepMode::default(),
        }
    }

    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.workloads.push(w);
        self
    }

    pub fn workloads(mut self, ws: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(ws);
        self
    }

    pub fn seq_lens(mut self, seqs: impl IntoIterator<Item = usize>) -> Self {
        self.seq_lens.extend(seqs);
        self
    }

    /// Adds a multi-tenant serving mix scenario (crossed with `l2_mb`
    /// and `policies`; the mix carries its own sequence lengths).
    pub fn mix(mut self, m: MixSpec) -> Self {
        self.mixes.push(m);
        self
    }

    pub fn mixes(mut self, ms: impl IntoIterator<Item = MixSpec>) -> Self {
        self.mixes.extend(ms);
        self
    }

    /// Adds an open-system serve scenario (crossed with `l2_mb` and
    /// `policies`; the scenario carries its own arrival schedule and
    /// serving policy).
    pub fn serve(mut self, s: ServeSpec) -> Self {
        self.serves.push(s);
        self
    }

    pub fn serves(mut self, ss: impl IntoIterator<Item = ServeSpec>) -> Self {
        self.serves.extend(ss);
        self
    }

    /// Replaces the L2-capacity axis (default: just 16 MB).
    pub fn l2_sizes_mb(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.l2_mb = sizes.into_iter().collect();
        self
    }

    /// Adds a tiered-KV configuration to the KV axis (crossed with
    /// every scenario; an empty axis runs without a KV tier).
    pub fn kv(mut self, kv: KvSpec) -> Self {
        self.kvs.push(kv);
        self
    }

    pub fn kvs(mut self, ks: impl IntoIterator<Item = KvSpec>) -> Self {
        self.kvs.extend(ks);
        self
    }

    pub fn policy(mut self, p: impl Into<PolicySpec>) -> Self {
        self.policies.push(p.into());
        self
    }

    pub fn policies(mut self, ps: impl IntoIterator<Item = PolicySpec>) -> Self {
        self.policies.extend(ps);
        self
    }

    /// Resolves a registry name (`"dynmg+BMA"`, `"dyncta+B"`, …) into
    /// the policy axis; unknown names error.
    pub fn policy_named(self, name: &str) -> Result<Self, String> {
        let spec =
            PolicySpec::from_name(name).ok_or_else(|| format!("unknown policy name `{name}`"))?;
        Ok(self.policy(spec))
    }

    pub fn baseline(mut self, p: impl Into<PolicySpec>) -> Self {
        self.baseline = Some(p.into());
        self
    }

    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Selects the simulation step mode for every cell (default:
    /// cycle-accurate).
    pub fn step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// The machine half of the `(machine, cell)` spec that
    /// [`cell_spec_hash`] content-addresses: the campaign-level knobs
    /// that change what a cell simulates but live outside
    /// [`CampaignCell`].
    pub fn machine_spec(&self) -> MachineSpec {
        MachineSpec {
            layout: self.layout,
            l_tile: self.l_tile,
            max_cycles: self.max_cycles,
        }
    }

    /// The solo scenario axes (everything but the policy), in
    /// enumeration order: workload-major, then seq_len, then l2_mb.
    /// Mix scenarios follow these in [`Campaign::cells`] order.
    pub fn scenarios(&self) -> Vec<(WorkloadSpec, usize, u64)> {
        let mut out = Vec::with_capacity(self.workloads.len() * self.seq_lens.len());
        for w in &self.workloads {
            for &seq in &self.seq_lens {
                for &mb in &self.l2_mb {
                    out.push((*w, seq, mb));
                }
            }
        }
        out
    }

    /// Every scenario in enumeration order — the solo grid first, then
    /// each mix crossed with `l2_mb` — expressed as policy-free cells
    /// (the `policy` field holds a placeholder; [`Campaign::cells`]
    /// substitutes each swept policy).
    fn all_scenarios(&self) -> Vec<CampaignCell> {
        let placeholder = PolicySpec::unoptimized();
        let mut base: Vec<CampaignCell> = self
            .scenarios()
            .into_iter()
            .map(|(workload, seq_len, l2_mb)| CampaignCell {
                workload,
                seq_len,
                l2_mb,
                policy: placeholder.clone(),
                mix: None,
                serve: None,
                kv: None,
            })
            .collect();
        for m in &self.mixes {
            for &mb in &self.l2_mb {
                base.push(CampaignCell {
                    workload: m.requests.first().map(|r| r.workload).unwrap_or(
                        // Degenerate (empty) mixes are rejected by
                        // `validate`; keep enumeration total anyway.
                        WorkloadSpec::llama3_70b(),
                    ),
                    seq_len: m.requests.iter().map(|r| r.seq_len).max().unwrap_or(0),
                    l2_mb: mb,
                    policy: placeholder.clone(),
                    mix: Some(m.clone()),
                    serve: None,
                    kv: None,
                });
            }
        }
        for s in &self.serves {
            for &mb in &self.l2_mb {
                base.push(CampaignCell {
                    workload: s.workload,
                    seq_len: s.seq_len,
                    l2_mb: mb,
                    policy: placeholder.clone(),
                    mix: None,
                    serve: Some(s.clone()),
                    kv: None,
                });
            }
        }
        // Cross the KV axis innermost: every scenario repeats once per
        // KV configuration, in `kvs` order. An empty axis is the single
        // no-tier option, leaving pre-KV campaigns byte-identical.
        if self.kvs.is_empty() {
            return base;
        }
        let mut out = Vec::with_capacity(base.len() * self.kvs.len());
        for cell in base {
            for &kv in &self.kvs {
                out.push(CampaignCell {
                    kv: Some(kv),
                    ..cell.clone()
                });
            }
        }
        out
    }

    /// Human-readable scenario labels (columns of a speedup table).
    /// Derived from the same enumeration as [`Campaign::cells`], so
    /// label order always matches record order.
    pub fn scenario_labels(&self) -> Vec<String> {
        let multi_w = self.workloads.len() > 1;
        let multi_l2 = self.l2_mb.len() > 1;
        let multi_kv = self.kvs.len() > 1;
        self.all_scenarios()
            .iter()
            .map(|cell| {
                let kv_suffix = match (&cell.kv, multi_kv) {
                    (Some(kv), true) => format!(" {}", kv.label()),
                    _ => String::new(),
                };
                if let Some(s) = &cell.serve {
                    let mut label = s.label();
                    if multi_l2 {
                        label.push_str(&format!(" {}MB", cell.l2_mb));
                    }
                    label.push_str(&kv_suffix);
                    return label;
                }
                if let Some(m) = &cell.mix {
                    let mut label = m.label();
                    if multi_l2 {
                        label.push_str(&format!(" {}MB", cell.l2_mb));
                    }
                    label.push_str(&kv_suffix);
                    return label;
                }
                let mut parts = Vec::new();
                if multi_w {
                    parts.push(cell.workload.label());
                }
                parts.push(if cell.seq_len % 1024 == 0 {
                    format!("{}K", cell.seq_len / 1024)
                } else {
                    format!("{}", cell.seq_len)
                });
                if multi_l2 {
                    parts.push(format!("{}MB", cell.l2_mb));
                }
                if let Some(kv) = &cell.kv {
                    if multi_kv {
                        parts.push(kv.label());
                    }
                }
                parts.join(" ")
            })
            .collect()
    }

    /// The full cell list in deterministic order (scenarios × policies,
    /// policy innermost; solo scenarios before mixes).
    pub fn cells(&self) -> Vec<CampaignCell> {
        let scenarios = self.all_scenarios();
        let mut out = Vec::with_capacity(scenarios.len() * self.policies.len());
        for scenario in scenarios {
            for p in &self.policies {
                let mut cell = scenario.clone();
                cell.policy = p.clone();
                out.push(cell);
            }
        }
        out
    }

    /// Rejects empty axes, invalid workloads and degenerate mixes
    /// before any simulation starts.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() && self.mixes.is_empty() && self.serves.is_empty() {
            return Err("campaign has no workloads, mixes or serve scenarios".into());
        }
        if !self.workloads.is_empty() && self.seq_lens.is_empty() {
            return Err("campaign has no sequence lengths".into());
        }
        if self.l2_mb.is_empty() {
            return Err("campaign has no L2 sizes".into());
        }
        if self.policies.is_empty() {
            return Err("campaign has no policies".into());
        }
        for w in &self.workloads {
            w.validate()
                .map_err(|e| format!("workload {}: {e}", w.label()))?;
        }
        for &seq in &self.seq_lens {
            if self.l_tile == 0 || seq % self.l_tile != 0 {
                return Err(format!(
                    "l_tile {} must divide every sequence length (got {seq})",
                    self.l_tile
                ));
            }
        }
        for (i, m) in self.mixes.iter().enumerate() {
            m.validate().map_err(|e| format!("mix {i}: {e}"))?;
            for r in &m.requests {
                if self.l_tile == 0 || r.seq_len % self.l_tile != 0 {
                    return Err(format!(
                        "mix {i}: l_tile {} must divide every request seq_len (got {})",
                        self.l_tile, r.seq_len
                    ));
                }
            }
        }
        for (i, kv) in self.kvs.iter().enumerate() {
            kv.validate().map_err(|e| format!("kv config {i}: {e}"))?;
        }
        let num_cores = SystemConfig::table5().num_cores;
        for (i, s) in self.serves.iter().enumerate() {
            s.validate(num_cores)
                .map_err(|e| format!("serve scenario {i}: {e}"))?;
            if self.l_tile == 0 || s.seq_len % self.l_tile != 0 {
                return Err(format!(
                    "serve scenario {i}: l_tile {} must divide seq_len {}",
                    self.l_tile, s.seq_len
                ));
            }
        }
        Ok(())
    }

    /// Runs the whole grid in parallel and assembles the report.
    ///
    /// The policy cells, (if not already a policy) the baseline cells,
    /// and the solo fairness-reference runs of every mix cell's
    /// requests run in one rayon batch; records come back in
    /// [`Campaign::cells`] order with baseline-relative speedups and
    /// (for mix cells) per-request fairness attached.
    pub fn run(&self) -> Result<CampaignReport, String> {
        self.validate()?;
        let cells = self.cells();
        let todo: Vec<usize> = (0..cells.len()).collect();
        let (records, warnings) = self.execute_cells(&cells, &todo, &HashMap::new())?;
        Ok(CampaignReport {
            campaign: self.clone(),
            records,
            warnings,
        })
    }

    /// [`Campaign::run`] with a JSONL archive: cells whose
    /// [`cell_spec_hash`] already appears in `archive` are skipped and
    /// their archived records reused; the rest run and are appended to
    /// the archive (whole lines, flushed as written, so a killed run
    /// loses at most the line being written). Records merge back in
    /// [`Campaign::cells`] order, so a resumed campaign's JSONL is
    /// byte-identical to an uninterrupted run's.
    pub fn run_resumable(&self, archive: impl AsRef<Path>) -> Result<CampaignReport, String> {
        self.run_resumable_shard(archive, 0, 1)
    }

    /// [`Campaign::run_resumable`] over the `shard`-th of `shards`
    /// index-interleaved slices of the grid: this invocation runs only
    /// cells with `index % shards == shard` (that are not already
    /// archived). Shards may run sequentially against one archive or
    /// independently against per-shard archives (concatenate them
    /// before the final merge run); either way, once every shard has
    /// run, the merged report is byte-identical to an unsharded run.
    /// Cells still pending in other shards are reported in
    /// [`CampaignReport::warnings`] and omitted from the records.
    pub fn run_resumable_shard(
        &self,
        archive: impl AsRef<Path>,
        shard: usize,
        shards: usize,
    ) -> Result<CampaignReport, String> {
        if shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        if shard >= shards {
            return Err(format!(
                "shard index {shard} out of range for {shards} shard(s)"
            ));
        }
        self.validate()?;
        let path = archive.as_ref();
        let machine = self.machine_spec();
        let cells = self.cells();
        let hashes: Vec<u64> = cells.iter().map(|c| cell_spec_hash(&machine, c)).collect();

        // Load the archive. Tolerate damage instead of failing the run:
        // a truncated final line is exactly what a killed run leaves
        // behind, and pre-schema records (spec_hash 0) can never be
        // trusted to describe this machine.
        let mut warnings = Vec::new();
        let mut cached: HashMap<u64, CellRecord> = HashMap::new();
        let mut torn_tail = false;
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read archive {}: {e}", path.display()))?;
            // A kill mid-write leaves a final line without a newline;
            // appending must not concatenate onto it.
            torn_tail = !text.is_empty() && !text.ends_with('\n');
            for (n, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<CellRecord>(line) {
                    Ok(rec) if rec.spec_hash != 0 => {
                        cached.insert(rec.spec_hash, rec);
                    }
                    Ok(_) => warnings.push(format!(
                        "archive line {}: pre-schema record without a spec_hash ignored",
                        n + 1
                    )),
                    Err(e) => warnings.push(format!(
                        "archive line {}: unparsable (truncated write?), re-running: {e}",
                        n + 1
                    )),
                }
            }
        }

        // Cycles of archived cells feed baseline speedups of cells that
        // still have to run, so the baseline is not re-simulated just
        // because its grid cell is already archived.
        let known_cycles: HashMap<usize, u64> = (0..cells.len())
            .filter_map(|i| cached.get(&hashes[i]).map(|r| (i, r.report.cycles)))
            .collect();
        let todo: Vec<usize> = (0..cells.len())
            .filter(|&i| i % shards == shard && !cached.contains_key(&hashes[i]))
            .collect();
        if path.exists() {
            warnings.push(format!(
                "resume: {} of {} cell(s) already archived, running {}",
                known_cycles.len(),
                cells.len(),
                todo.len()
            ));
        }

        let (new_records, mut exec_warnings) = self.execute_cells(&cells, &todo, &known_cycles)?;
        warnings.append(&mut exec_warnings);

        // Crash-safe append: whole lines, flushed one at a time, so a
        // kill mid-campaign preserves every completed cell.
        if !new_records.is_empty() {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open archive {}: {e}", path.display()))?;
            if torn_tail {
                f.write_all(b"\n")
                    .map_err(|e| format!("append to archive {}: {e}", path.display()))?;
            }
            for rec in &new_records {
                let line = serde_json::to_string(rec).expect("record serializes");
                f.write_all(line.as_bytes())
                    .and_then(|()| f.write_all(b"\n"))
                    .and_then(|()| f.flush())
                    .map_err(|e| format!("append to archive {}: {e}", path.display()))?;
            }
        }

        // Merge archived + fresh records into deterministic cell order.
        let mut by_hash = cached;
        for rec in new_records {
            by_hash.insert(rec.spec_hash, rec);
        }
        let mut records = Vec::with_capacity(cells.len());
        let mut missing = 0usize;
        for h in &hashes {
            match by_hash.get(h) {
                Some(rec) => records.push(rec.clone()),
                None => missing += 1,
            }
        }
        if missing > 0 {
            warnings.push(format!(
                "{missing} cell(s) not yet archived (pending in other shards)"
            ));
        }
        Ok(CampaignReport {
            campaign: self.clone(),
            records,
            warnings,
        })
    }

    /// Executes the cells at indices `todo` (into `cells`, which must
    /// be the full [`Campaign::cells`] enumeration) and returns their
    /// records in `todo` order plus any diagnostics.
    ///
    /// Support runs ride along in one batch behind the todo cells:
    /// a baseline run for every scenario whose baseline report is
    /// neither in the batch nor in `known_cycles` (cell index →
    /// archived cycles), then the deduplicated solo fairness
    /// references of every mix cell.
    fn execute_cells(
        &self,
        cells: &[CampaignCell],
        todo: &[usize],
        known_cycles: &HashMap<usize, u64>,
    ) -> Result<(Vec<CellRecord>, Vec<String>), String> {
        let machine = self.machine_spec();
        let n_pol = self.policies.len();
        // The baseline reuses its own policy column when it is one of
        // the swept policies.
        let baseline_in_grid = self
            .baseline
            .as_ref()
            .and_then(|b| self.policies.iter().position(|p| p == b));

        let mut batch: Vec<CampaignCell> = todo.iter().map(|&i| cells[i].clone()).collect();
        let batch_pos: HashMap<usize, usize> =
            todo.iter().enumerate().map(|(pos, &i)| (i, pos)).collect();

        // Baseline runs for scenarios that need one.
        let mut baseline_extra: HashMap<usize, usize> = HashMap::new(); // scenario → batch idx
        if self.baseline.is_some() {
            for &i in todo {
                let s = i / n_pol;
                if let Some(p) = baseline_in_grid {
                    let b_i = s * n_pol + p;
                    if batch_pos.contains_key(&b_i) || known_cycles.contains_key(&b_i) {
                        continue;
                    }
                }
                baseline_extra.entry(s).or_insert_with(|| {
                    let mut cell = cells[s * n_pol].clone();
                    cell.policy = self.baseline.clone().expect("baseline checked above");
                    batch.push(cell);
                    batch.len() - 1
                });
            }
        }

        // Fairness references: each mix cell compares every request
        // against a solo run of that request under the same policy and
        // machine. References are deduplicated across mixes and cells
        // by their serialized spec (hash-map lookup — the linear scan
        // this replaced was quadratic in the number of references).
        let mut solo_index: HashMap<String, usize> = HashMap::new(); // solo JSON → batch idx
        let mut fairness_refs: Vec<Option<Vec<usize>>> = Vec::with_capacity(todo.len());
        for &i in todo {
            let cell = &cells[i];
            fairness_refs.push(cell.mix.as_ref().map(|m| {
                m.requests
                    .iter()
                    .map(|r| {
                        let solo = CampaignCell {
                            workload: r.workload,
                            seq_len: r.seq_len,
                            l2_mb: cell.l2_mb,
                            policy: cell.policy.clone(),
                            mix: None,
                            serve: None,
                            // Fairness compares against a solo run on
                            // the *same* machine, KV tier included.
                            kv: cell.kv,
                        };
                        let key = serde_json::to_string(&solo).expect("cell serializes");
                        *solo_index.entry(key).or_insert_with(|| {
                            batch.push(solo);
                            batch.len() - 1
                        })
                    })
                    .collect()
            }));
        }

        let experiments: Vec<Experiment> = batch.iter().map(|c| c.experiment(self)).collect();
        let reports = run_experiments(&experiments)?;

        // Speedups and fairness first (borrowing the whole batch of
        // reports — the references point behind the todo prefix), then
        // move each todo report into its record.
        let mut warnings = Vec::new();
        let mut speedups: Vec<Option<f64>> = Vec::with_capacity(todo.len());
        let mut fairness_out: Vec<(Option<FairnessRecord>, Option<String>)> =
            Vec::with_capacity(todo.len());
        for (pos, &i) in todo.iter().enumerate() {
            let report = &reports[pos];
            let speedup = match &self.baseline {
                Some(_) => {
                    let s = i / n_pol;
                    let b = match baseline_in_grid {
                        Some(p) => {
                            let b_i = s * n_pol + p;
                            batch_pos
                                .get(&b_i)
                                .map(|&bp| reports[bp].cycles)
                                .or_else(|| known_cycles.get(&b_i).copied())
                                .unwrap_or_else(|| reports[baseline_extra[&s]].cycles)
                        }
                        None => reports[baseline_extra[&s]].cycles,
                    };
                    if b == 0 || report.cycles == 0 {
                        return Err(format!(
                            "degenerate zero-cycle run in cell {} ({})",
                            i, report.policy_label
                        ));
                    }
                    Some(b as f64 / report.cycles as f64)
                }
                None => None,
            };
            speedups.push(speedup);
            fairness_out.push(match fairness_refs[pos].as_ref() {
                Some(refs) => {
                    let (f, reason) = fairness_of(report, refs, &reports);
                    if let Some(r) = &reason {
                        warnings.push(format!(
                            "campaign `{}`: fairness entries dropped in cell {i} ({}): {r}",
                            self.name, report.policy_label
                        ));
                    }
                    (f, reason)
                }
                None => (None, None),
            });
        }

        let mut records = Vec::with_capacity(todo.len());
        for (((&i, report), speedup), (fairness, fairness_drop_reason)) in todo
            .iter()
            .zip(reports) // moves the batch; the support tail is dropped
            .zip(speedups)
            .zip(fairness_out)
        {
            let cell = cells[i].clone();
            let spec_hash = cell_spec_hash(&machine, &cell);
            records.push(CellRecord {
                cell,
                spec_hash,
                step_mode: self.step_mode,
                report,
                speedup,
                fairness,
                fairness_drop_reason,
            });
        }
        Ok((records, warnings))
    }
}

/// The campaign-level machine configuration that joins the cell in its
/// content address: every knob outside [`CampaignCell`] that changes
/// what the cell simulates. The base machine dimensions (Table 5) are
/// compile-time constants, so the varying knobs are the dataflow
/// layout, the L-dimension tile and the cycle budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    pub layout: Layout,
    pub l_tile: usize,
    pub max_cycles: Option<u64>,
}

/// Content address of one campaign cell: an FNV-1a hash over the
/// canonical JSON of the `(machine, cell)` spec — the campaign-level
/// [`MachineSpec`] the cell runs under, then the [`CampaignCell`]
/// itself. Two records with equal hashes describe the same simulation
/// configuration (same workload/scenario, machine, KV tier and
/// policy), regardless of which campaign produced them — so archived
/// JSONL streams can be joined, deduplicated or resumed
/// ([`Campaign::run_resumable`]) by this one `u64` instead of
/// comparing nested specs.
///
/// Hash schema v2. v1 hashed the cell alone, so two campaigns
/// differing only in campaign-level machine configuration (`l_tile`,
/// `layout`, `max_cycles`) gave their cells identical addresses — a
/// resume could silently reuse a record simulated on a different
/// machine. Folding the machine spec in gives every address a new v2
/// value, which is also the correct migration: v1 archives simply
/// never match and their cells re-run.
///
/// The step mode is deliberately *not* part of the address: Skip and
/// Cycle runs of a cell produce byte-identical statistics (the
/// substrate's core guarantee), so they are the same content. The
/// record's own `step_mode` field says which mode actually ran.
///
/// Stability: serde field order is declaration order and the specs are
/// plain data, so the serialization — and thus the hash — is stable
/// for a given schema. Schema evolution (new defaulted fields) changes
/// hashes, which is the correct behavior for a content address.
pub fn cell_spec_hash(machine: &MachineSpec, cell: &CampaignCell) -> u64 {
    let machine_json = serde_json::to_string(machine).expect("machine spec serializes");
    let cell_json = serde_json::to_string(cell).expect("cell serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
                                            // 0xff never occurs in UTF-8, so it separates the two halves of
                                            // the spec unambiguously.
    for b in machine_json
        .bytes()
        .chain(std::iter::once(0xff))
        .chain(cell_json.bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3); // FNV-1a prime
    }
    h
}

/// Assembles a mix cell's fairness record from its report and the solo
/// reference reports (`refs` holds indices into `all_reports`, the
/// cell batch the references ran in). A request whose slowdown would
/// be meaningless —
/// either side failed to complete, or completed in zero cycles — is
/// dropped *individually*, with the reasons joined into the second
/// return value. The record is `None` only when every entry dropped:
/// the summary folds never run over an empty set, so the JSONL carries
/// an explicit `null` + reason instead of `NaN`/`0.0`/infinite
/// sentinels.
fn fairness_of(
    report: &RunReport,
    refs: &[usize],
    all_reports: &[RunReport],
) -> (Option<FairnessRecord>, Option<String>) {
    let mut per_request = Vec::with_capacity(refs.len());
    let mut dropped: Vec<String> = Vec::new();
    for (r, &solo_idx) in refs.iter().enumerate() {
        let Some(mix_req) = report.requests.get(r) else {
            dropped.push(format!("request {r}: missing from the mix report"));
            continue;
        };
        // The solo reference time is the request's own completion in
        // its solo run (request 0 there), not the run's drain time —
        // so a single-request partitioned mix pins speedup exactly 1.
        let Some(solo_req) = all_reports.get(solo_idx).and_then(|s| s.requests.first()) else {
            dropped.push(format!("request {r}: missing solo reference run"));
            continue;
        };
        if !mix_req.completed {
            dropped.push(format!(
                "request {r} ({}): hit the cycle budget inside the mix",
                mix_req.label
            ));
            continue;
        }
        if !solo_req.completed {
            dropped.push(format!(
                "request {r} ({}): solo reference hit the cycle budget",
                mix_req.label
            ));
            continue;
        }
        if mix_req.cycles == 0 || solo_req.cycles == 0 {
            dropped.push(format!(
                "request {r} ({}): zero-cycle completion",
                mix_req.label
            ));
            continue;
        }
        let speedup = solo_req.cycles as f64 / mix_req.cycles as f64;
        per_request.push(RequestFairness {
            request: r as u32,
            label: mix_req.label.clone(),
            solo_cycles: solo_req.cycles,
            mix_cycles: mix_req.cycles,
            speedup,
            slowdown: 1.0 / speedup,
        });
    }
    let reason = (!dropped.is_empty()).then(|| dropped.join("; "));
    if per_request.is_empty() {
        return (
            None,
            Some(reason.unwrap_or_else(|| "mix cell reported no requests".into())),
        );
    }
    let speedups: Vec<f64> = per_request.iter().map(|f| f.speedup).collect();
    let record = FairnessRecord {
        min_speedup: speedups.iter().copied().fold(f64::INFINITY, f64::min),
        max_speedup: speedups.iter().copied().fold(0.0, f64::max),
        geomean_speedup: geomean(&speedups),
        max_slowdown: per_request.iter().map(|f| f.slowdown).fold(0.0, f64::max),
        per_request,
    };
    (Some(record), reason)
}

/// Runs a batch of experiments in parallel (rayon), returning reports
/// in input order. Simulations are independent and deterministic, so
/// parallel equals sequential — the property
/// `crates/bench/tests/parallel_determinism.rs` pins.
pub fn run_experiments(experiments: &[Experiment]) -> Result<Vec<RunReport>, String> {
    let results: Vec<Result<RunReport, String>> = experiments
        .par_iter()
        .map(|e| e.try_run().map_err(|err| err.to_string()))
        .collect();
    results.into_iter().collect()
}

impl CampaignReport {
    /// The records as one JSON object per line (JSONL). Deterministic:
    /// byte-identical across repeated runs of the same campaign.
    pub fn jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSON is UTF-8")
    }

    /// Streams the JSONL records to a writer, one record at a time.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for rec in &self.records {
            let line = serde_json::to_string(rec).expect("record serializes");
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Speedup table rows: one `(label, speedups-by-scenario)` row per
    /// policy, in policy order. Requires a baseline.
    pub fn speedup_rows(&self) -> Vec<(String, Vec<f64>)> {
        let n_pol = self.campaign.policies.len();
        let mut rows: Vec<(String, Vec<f64>)> = self
            .campaign
            .policies
            .iter()
            .map(|p| (p.label(), Vec::new()))
            .collect();
        for (i, rec) in self.records.iter().enumerate() {
            if let Some(s) = rec.speedup {
                rows[i % n_pol].1.push(s);
            }
        }
        rows
    }

    /// Per-policy geometric-mean speedup over the baseline, in policy
    /// order (the paper's summary statistic).
    pub fn geomeans(&self) -> Vec<(String, f64)> {
        self.speedup_rows()
            .into_iter()
            .map(|(label, speedups)| {
                let g = geomean(&speedups);
                (label, g)
            })
            .collect()
    }

    /// The records of one policy column, in scenario order.
    pub fn policy_records(&self, policy_index: usize) -> Vec<&CellRecord> {
        let n_pol = self.campaign.policies.len();
        self.records
            .iter()
            .skip(policy_index)
            .step_by(n_pol)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Campaign {
        Campaign::new("tiny")
            .workload(WorkloadSpec::llama3_70b())
            .seq_lens([128])
            .policy(PolicySpec::unoptimized())
            .policy(PolicySpec::dynmg_bma())
            .baseline(PolicySpec::unoptimized())
    }

    #[test]
    fn cell_order_is_policy_innermost() {
        let c = Campaign::new("order")
            .workload(WorkloadSpec::llama3_70b())
            .workload(WorkloadSpec::llama3_405b())
            .seq_lens([128, 256])
            .l2_sizes_mb([16, 32])
            .policy(PolicySpec::unoptimized())
            .policy(PolicySpec::dynmg());
        let cells = c.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // First scenario holds both policies before anything changes.
        assert_eq!(cells[0].policy, PolicySpec::unoptimized());
        assert_eq!(cells[1].policy, PolicySpec::dynmg());
        assert_eq!(cells[0].l2_mb, cells[1].l2_mb);
        // l2 is the next-fastest axis, then seq_len, then workload.
        assert_eq!(cells[2].l2_mb, 32);
        assert_eq!(cells[4].seq_len, 256);
        assert_eq!(cells[8].workload, WorkloadSpec::llama3_405b());
    }

    #[test]
    fn baseline_in_grid_reuses_its_column() {
        let r = tiny().run().unwrap();
        assert_eq!(r.records.len(), 2);
        // Baseline's own speedup is exactly 1.
        assert_eq!(r.records[0].speedup, Some(1.0));
        let s = r.records[1].speedup.unwrap();
        assert!(s > 0.0);
        let rows = r.speedup_rows();
        assert_eq!(rows[0].0, "unoptimized");
        assert_eq!(rows[1].0, "dynmg+BMA");
        assert_eq!(rows[1].1, vec![s]);
    }

    #[test]
    fn external_baseline_matches_in_grid_baseline() {
        let with_in_grid = tiny().run().unwrap();
        let mut external = tiny();
        external.policies.remove(0); // baseline no longer swept
        let r = external.run().unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(
            r.records[0].speedup, with_in_grid.records[1].speedup,
            "baseline cycles must not depend on where the baseline ran"
        );
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert!(Campaign::new("e").run().is_err());
        let no_policy = Campaign::new("e")
            .workload(WorkloadSpec::llama3_70b())
            .seq_lens([128]);
        assert!(no_policy.run().is_err());
        let bad_tile = tiny().seq_lens([100]); // 100 % 32 != 0
        assert!(bad_tile.run().is_err());
    }

    fn tiny_mix() -> MixSpec {
        use llamcat_trace::workloads::WorkloadSpec;
        MixSpec::interleaved()
            .request(WorkloadSpec::llama3_70b(), 128, 0)
            .request(
                WorkloadSpec::PrefillLogit {
                    heads: 8,
                    group_size: 8,
                    head_dim: 128,
                    query_tokens: 4,
                },
                128,
                0,
            )
    }

    #[test]
    fn mix_scenarios_append_after_solo_grid() {
        let c = tiny().mix(tiny_mix());
        let cells = c.cells();
        // 1 solo scenario × 2 policies + 1 mix scenario × 2 policies.
        assert_eq!(cells.len(), 4);
        assert!(cells[0].mix.is_none() && cells[1].mix.is_none());
        assert!(cells[2].mix.is_some() && cells[3].mix.is_some());
        let labels = c.scenario_labels();
        assert_eq!(labels.len(), 2);
        assert!(
            labels[1].starts_with("mix:ilv["),
            "mix label: {}",
            labels[1]
        );
    }

    #[test]
    fn mix_cells_carry_fairness_and_per_request_reports() {
        let report = tiny().mix(tiny_mix()).run().unwrap();
        assert_eq!(report.records.len(), 4);
        for rec in &report.records[..2] {
            assert!(rec.fairness.is_none(), "solo cells carry no fairness");
            assert_eq!(rec.report.requests.len(), 1);
        }
        for rec in &report.records[2..] {
            assert_eq!(rec.report.requests.len(), 2);
            let f = rec.fairness.as_ref().expect("mix cells carry fairness");
            assert_eq!(f.per_request.len(), 2);
            for pr in &f.per_request {
                assert!(pr.solo_cycles > 0 && pr.mix_cycles > 0);
                assert!(
                    pr.speedup <= 1.0 + 1e-9,
                    "co-scheduling cannot beat a solo run of the same request \
                     on the same machine ({}: {})",
                    pr.label,
                    pr.speedup
                );
                assert!((pr.slowdown * pr.speedup - 1.0).abs() < 1e-12);
            }
            assert!(f.min_speedup <= f.max_speedup);
            assert!(f.geomean_speedup >= f.min_speedup && f.geomean_speedup <= f.max_speedup);
            assert!(f.max_slowdown >= 1.0);
            // Mix cells still get baseline speedups.
            assert!(rec.speedup.is_some());
        }
    }

    #[test]
    fn single_request_partitioned_mix_pins_fairness_at_one() {
        use llamcat_trace::workloads::WorkloadSpec;
        let solo_mix = MixSpec::partitioned().request(WorkloadSpec::llama3_70b(), 128, 0);
        let c = Campaign::new("solo-mix")
            .mix(solo_mix)
            .policy(PolicySpec::unoptimized());
        let report = c.run().unwrap();
        let f = report.records[0].fairness.as_ref().unwrap();
        assert_eq!(f.per_request.len(), 1);
        assert_eq!(
            f.per_request[0].speedup, 1.0,
            "a lone tenant on the whole machine IS the solo run"
        );
        assert_eq!(f.geomean_speedup, 1.0);
        assert_eq!(f.max_slowdown, 1.0);
    }

    #[test]
    fn mix_only_campaigns_are_valid() {
        let c = Campaign::new("mix-only")
            .mix(tiny_mix())
            .policy(PolicySpec::unoptimized());
        assert!(c.validate().is_ok(), "no solo workloads needed");
        let bad_tile = Campaign::new("bad")
            .mix(MixSpec::partitioned().request(
                llamcat_trace::workloads::WorkloadSpec::llama3_70b(),
                100, // 100 % 32 != 0
                0,
            ))
            .policy(PolicySpec::unoptimized());
        assert!(bad_tile.validate().is_err());
        let empty_mix = Campaign::new("empty")
            .mix(MixSpec::partitioned())
            .policy(PolicySpec::unoptimized());
        assert!(empty_mix.validate().is_err());
    }

    fn tiny_serve() -> ServeSpec {
        use llamcat::spec::{ArrivalSpec, ServePolicySpec};
        use llamcat_trace::workloads::WorkloadSpec;
        ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            3,
            ArrivalSpec::Fixed {
                period: 5_000,
                start: 0,
            },
        )
        .scheduler(ServePolicySpec::MaxConcurrency { max: 2 })
    }

    #[test]
    fn serve_scenarios_append_after_mixes_with_latency_reports() {
        let c = tiny().mix(tiny_mix()).serve(tiny_serve());
        let cells = c.cells();
        // (1 solo + 1 mix + 1 serve) scenarios × 2 policies.
        assert_eq!(cells.len(), 6);
        assert!(cells[4].serve.is_some() && cells[5].serve.is_some());
        let labels = c.scenario_labels();
        assert!(
            labels[2].starts_with("serve:maxc2["),
            "serve label: {}",
            labels[2]
        );

        let report = c.run().unwrap();
        for rec in &report.records[4..] {
            assert!(rec.fairness.is_none(), "serve cells carry no fairness");
            assert!(rec.fairness_drop_reason.is_none());
            assert_eq!(rec.report.requests.len(), 3);
            for r in &rec.report.requests {
                assert!(r.completed);
                assert!(r.admitted.is_some() && r.ttft.is_some());
            }
            assert!(rec.speedup.is_some(), "serve cells get baseline speedups");
        }
    }

    #[test]
    fn serve_campaigns_validate_their_scenarios() {
        use llamcat::spec::ServePolicySpec;
        let c = Campaign::new("serve-only")
            .serve(tiny_serve())
            .policy(PolicySpec::unoptimized());
        assert!(c.validate().is_ok(), "no solo workloads needed");
        let bad = Campaign::new("bad")
            .serve(tiny_serve().scheduler(ServePolicySpec::ContinuousBatching { slots: 999 }))
            .policy(PolicySpec::unoptimized());
        assert!(bad.validate().is_err());
        let bad_tile = Campaign::new("bad-tile")
            .serve(ServeSpec {
                seq_len: 100,
                ..tiny_serve()
            })
            .policy(PolicySpec::unoptimized());
        assert!(bad_tile.validate().is_err());
    }

    #[test]
    fn starved_fairness_cells_emit_none_with_reason_not_nan() {
        // A budget so small that every run (mix and solo references)
        // hits CycleLimit: every fairness entry drops, and the record
        // must be an explicit None + reason — not folds over an empty
        // set leaking NaN / 0.0 / infinities into the JSONL.
        let report = Campaign::new("starved")
            .mix(tiny_mix())
            .policy(PolicySpec::unoptimized())
            .max_cycles(1_000)
            .run()
            .unwrap();
        let rec = &report.records[0];
        assert!(!rec.report.completed, "budget must bite for this test");
        assert!(rec.fairness.is_none());
        let reason = rec.fairness_drop_reason.as_ref().expect("drop reason");
        assert!(
            reason.contains("cycle budget"),
            "reason names the budget: {reason}"
        );

        // The record round-trips through its JSONL line intact.
        let jsonl = report.jsonl();
        assert!(!jsonl.contains("NaN") && !jsonl.contains("inf"), "{jsonl}");
        let line = jsonl.lines().next().unwrap();
        let back: CellRecord = serde_json::from_str(line).expect("reparse JSONL record");
        assert!(back.fairness.is_none());
        assert_eq!(back.fairness_drop_reason.as_deref(), Some(reason.as_str()));
        assert_eq!(back.cell, rec.cell);
    }

    #[test]
    fn records_carry_their_step_mode() {
        use llamcat_sim::system::StepMode;
        let cycle = tiny().run().unwrap();
        assert_eq!(cycle.records[0].step_mode, StepMode::Cycle);
        let skip = tiny().step_mode(StepMode::Skip).run().unwrap();
        assert_eq!(skip.records[0].step_mode, StepMode::Skip);
        let line = skip.jsonl();
        assert!(
            line.contains("\"step_mode\":\"Skip\""),
            "JSONL must be self-describing: {line}"
        );
    }

    #[test]
    fn kv_axis_crosses_every_scenario_outside_the_policy() {
        let c = tiny()
            .l2_sizes_mb([16, 32])
            .kv(KvSpec::lru(8))
            .kv(KvSpec::prefix_pin(8));
        let cells = c.cells();
        // 1 workload × 1 seq × 2 l2 × 2 kv × 2 policies.
        assert_eq!(cells.len(), 8);
        // Policy is innermost, kv next.
        assert_eq!(cells[0].kv, Some(KvSpec::lru(8)));
        assert_eq!(cells[1].kv, Some(KvSpec::lru(8)));
        assert_eq!(cells[2].kv, Some(KvSpec::prefix_pin(8)));
        assert_eq!(cells[0].l2_mb, cells[2].l2_mb);
        assert_eq!(cells[4].l2_mb, 32);
        let labels = c.scenario_labels();
        assert_eq!(labels.len(), 4);
        assert!(labels[0].contains("kv:lru@8"), "label: {}", labels[0]);
        assert!(labels[1].contains("kv:pin@8"), "label: {}", labels[1]);

        // Bad KV configs are rejected before any simulation starts.
        let mut bad = KvSpec::lru(4);
        bad.slow.block_bytes = 0;
        assert!(tiny().kv(bad).validate().is_err());
    }

    #[test]
    fn kv_cells_attach_the_tier_and_report_counters() {
        let report = Campaign::new("kv")
            .workload(WorkloadSpec::llama3_70b())
            .seq_lens([128])
            .policy(PolicySpec::dynmg_bma())
            .kv(KvSpec::lru(16))
            .run()
            .unwrap();
        assert_eq!(report.records.len(), 1);
        let rec = &report.records[0];
        let kv = rec.report.kv.as_ref().expect("kv cells report tier stats");
        assert!(kv.lookups > 0 && kv.promotions > 0);
        let req = &rec.report.requests[0];
        assert_eq!(
            req.kv_lookups, kv.lookups,
            "a solo request owns every tier lookup"
        );
        // The JSONL line is self-describing: tier spec and counters.
        let line = report.jsonl();
        assert!(
            line.contains("\"kv\":{\"warm_capacity_blocks\":16"),
            "{line}"
        );
        assert!(line.contains("\"promotions\""), "{line}");
    }

    #[test]
    fn records_are_content_addressed_by_spec_hash() {
        let r1 = tiny().run().unwrap();
        let r2 = tiny().step_mode(StepMode::Skip).run().unwrap();
        // Nonzero, distinct across cells, stable across runs.
        assert!(r1.records.iter().all(|r| r.spec_hash != 0));
        assert_ne!(r1.records[0].spec_hash, r1.records[1].spec_hash);
        assert_eq!(
            r1.records[0].spec_hash,
            tiny().run().unwrap().records[0].spec_hash
        );
        // Skip and Cycle runs of a cell are the same content (byte-
        // identical stats), so they share one address.
        assert_eq!(r1.records[0].spec_hash, r2.records[0].spec_hash);
        // And it matches the public function on the archived cell plus
        // the campaign's machine spec.
        assert_eq!(
            r1.records[0].spec_hash,
            cell_spec_hash(&r1.campaign.machine_spec(), &r1.records[0].cell)
        );

        // Pre-hash JSONL archives (no spec_hash field) still parse:
        // drop the field from the serialized line and reparse.
        let line = r1.jsonl().lines().next().unwrap().to_string();
        let needle = format!("\"spec_hash\":{},", r1.records[0].spec_hash);
        assert!(line.contains(&needle), "{line}");
        let stripped = line.replacen(&needle, "", 1);
        let back: CellRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.spec_hash, 0, "missing hash defaults to 0");
    }

    /// The regression the hash-schema bump fixes: campaign-level
    /// machine knobs (`l_tile`, `layout`, `max_cycles`) must change
    /// every cell's address. v1 hashed the cell alone, so two
    /// campaigns differing only in `l_tile` content-addressed their
    /// cells identically and a resume could reuse records simulated on
    /// a different machine.
    #[test]
    fn machine_config_is_part_of_the_spec_hash() {
        let a = tiny();
        let mut b = tiny();
        b.l_tile = 64;
        let mut c = tiny();
        c.max_cycles = Some(123_456);
        let cell = &a.cells()[0];
        assert_eq!(b.cells()[0], *cell, "cells alone do not differ");
        let h = |camp: &Campaign| cell_spec_hash(&camp.machine_spec(), cell);
        assert_ne!(h(&a), h(&b), "l_tile must change the address");
        assert_ne!(h(&a), h(&c), "max_cycles must change the address");
        assert_ne!(h(&b), h(&c));
    }

    #[test]
    fn campaign_round_trips_through_json() {
        let c = tiny().l2_sizes_mb([16, 64]).max_cycles(1_000_000);
        let json = serde_json::to_string(&c).unwrap();
        let back: Campaign = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn policy_named_resolves_registry() {
        let c = Campaign::new("n")
            .policy_named("dynmg+BMA")
            .unwrap()
            .policy_named("dyncta+B")
            .unwrap();
        assert_eq!(c.policies[0], PolicySpec::dynmg_bma());
        assert!(Campaign::new("n").policy_named("bogus").is_err());
    }

    /// Campaign files written while the campaign runner still had
    /// opt-in fork and lockstep-batch executors carry their switches.
    /// Those keys must keep parsing (unknown fields are ignored) and
    /// change nothing: same campaign, same bytes — solo cells, mix
    /// cells, fairness references and baseline speedups included, in
    /// both step modes.
    #[test]
    fn legacy_executor_flags_parse_and_change_nothing() {
        for mode in [StepMode::Cycle, StepMode::Skip] {
            let campaign = tiny().mix(tiny_mix()).step_mode(mode);
            let json = serde_json::to_string(&campaign).unwrap();
            let legacy = json.replacen('{', r#"{"fork_scenarios":true,"batch_cells":true,"#, 1);
            let parsed: Campaign = serde_json::from_str(&legacy).expect("legacy file parses");
            assert_eq!(parsed, campaign);
            assert_eq!(
                parsed.run().unwrap().jsonl(),
                campaign.run().unwrap().jsonl(),
                "legacy executor keys changed the stream ({mode:?})"
            );
        }
    }

    /// Solo fairness references are deduplicated across mixes and
    /// cells by a hash-map index. Shared references must collapse to
    /// one run each (identical solo_cycles wherever they are used) and
    /// the stream must stay deterministic across repeated runs.
    #[test]
    fn solo_reference_dedup_is_deterministic_across_a_mix_grid() {
        use llamcat_trace::workloads::WorkloadSpec;
        // Mix 2 repeats the 70b@128 request twice, and shares it with
        // mix 1 — three uses of one solo reference per policy.
        let grid = || {
            tiny().mix(tiny_mix()).mix(
                MixSpec::partitioned()
                    .request(WorkloadSpec::llama3_70b(), 128, 0)
                    .request(WorkloadSpec::llama3_70b(), 128, 0),
            )
        };
        let a = grid().run().unwrap();
        let b = grid().run().unwrap();
        assert_eq!(a.jsonl(), b.jsonl(), "mix grid must be deterministic");
        // Cells: solo ×2 policies, mix1 ×2, mix2 ×2. Per policy
        // column, the 70b@128 reference is request 0 of mix1 and both
        // requests of mix2.
        assert_eq!(a.records.len(), 6);
        for p in 0..2 {
            let f1 = a.records[2 + p].fairness.as_ref().expect("mix1 fairness");
            let f2 = a.records[4 + p].fairness.as_ref().expect("mix2 fairness");
            let solo = f1.per_request[0].solo_cycles;
            assert!(solo > 0);
            assert_eq!(f2.per_request[0].solo_cycles, solo);
            assert_eq!(f2.per_request[1].solo_cycles, solo);
        }
    }

    fn tmp_archive(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("llamcat-campaign-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    /// Kill-and-resume: a run that died halfway (archive holds half
    /// the stream plus a torn final line) resumes into a merged JSONL
    /// byte-identical to an uninterrupted run.
    #[test]
    fn resume_after_partial_archive_merges_byte_identically() {
        let campaign = tiny().mix(tiny_mix()); // 4 cells
        let clean = campaign.run().unwrap();
        let lines: Vec<String> = clean.jsonl().lines().map(String::from).collect();
        let path = tmp_archive("partial");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, format!("{}\n{}\n{{\"cell\":", lines[0], lines[1])).unwrap();

        let resumed = campaign.run_resumable(&path).unwrap();
        assert_eq!(
            resumed.jsonl(),
            clean.jsonl(),
            "merge must be byte-identical to a clean run"
        );
        assert!(
            resumed.warnings.iter().any(|w| w.contains("truncated")),
            "torn line must be surfaced: {:?}",
            resumed.warnings
        );

        // The archive now holds every cell: a second resume simulates
        // nothing and still reproduces the stream.
        let again = campaign.run_resumable(&path).unwrap();
        assert_eq!(again.jsonl(), clean.jsonl());
        assert!(
            again
                .warnings
                .iter()
                .any(|w| w.contains("4 of 4") && w.contains("running 0")),
            "{:?}",
            again.warnings
        );
        std::fs::remove_file(&path).ok();
    }

    /// Archived cells are *reused*, not re-simulated: tamper with an
    /// archived record's cycles and the merged report carries the
    /// tampered value through, proving the cell was skipped.
    #[test]
    fn resume_skips_archived_cells_without_rerunning() {
        let campaign = tiny(); // 2 cells
        let clean = campaign.run().unwrap();
        let mut rec = clean.records[1].clone();
        rec.report.cycles = 123_456_789; // spec_hash still describes the spec
        let path = tmp_archive("skip");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, format!("{}\n", serde_json::to_string(&rec).unwrap())).unwrap();

        let resumed = campaign.run_resumable(&path).unwrap();
        assert_eq!(
            resumed.records[1].report.cycles, 123_456_789,
            "archived cell must not re-run"
        );
        // The cell missing from the archive ran fresh and matches the
        // clean run exactly.
        assert_eq!(
            serde_json::to_string(&resumed.records[0]).unwrap(),
            serde_json::to_string(&clean.records[0]).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Pre-schema records (serde-default `spec_hash: 0`) are never
    /// trusted on resume: the cell re-runs instead of reusing a record
    /// whose machine is unknown.
    #[test]
    fn zero_spec_hash_never_matches_on_resume() {
        let campaign = tiny();
        let clean = campaign.run().unwrap();
        let mut rec = clean.records[0].clone();
        rec.spec_hash = 0;
        rec.report.cycles = 1; // would poison the merge if trusted
        let path = tmp_archive("zero-hash");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, format!("{}\n", serde_json::to_string(&rec).unwrap())).unwrap();

        let resumed = campaign.run_resumable(&path).unwrap();
        assert_eq!(
            resumed.jsonl(),
            clean.jsonl(),
            "pre-schema record must be ignored and its cell re-run"
        );
        assert!(
            resumed.warnings.iter().any(|w| w.contains("pre-schema")),
            "{:?}",
            resumed.warnings
        );
        std::fs::remove_file(&path).ok();
    }

    /// An `i/n` shard split over one shared archive: after every shard
    /// has run, the merged stream is byte-identical to an unsharded
    /// run — baseline speedups included, even when a cell's baseline
    /// ran in a different shard (its cycles come from the archive).
    #[test]
    fn sharded_runs_merge_byte_identically() {
        let campaign = tiny().mix(tiny_mix()); // 4 cells
        let clean = campaign.run().unwrap();
        let path = tmp_archive("shards");
        let _ = std::fs::remove_file(&path);

        let first = campaign.run_resumable_shard(&path, 0, 2).unwrap();
        assert_eq!(first.records.len(), 2, "half the grid is pending");
        assert!(
            first
                .warnings
                .iter()
                .any(|w| w.contains("pending in other shards")),
            "{:?}",
            first.warnings
        );
        let second = campaign.run_resumable_shard(&path, 1, 2).unwrap();
        assert_eq!(
            second.jsonl(),
            clean.jsonl(),
            "shard merge must equal the unsharded run"
        );

        // Degenerate shard arguments are rejected.
        assert!(campaign.run_resumable_shard(&path, 2, 2).is_err());
        assert!(campaign.run_resumable_shard(&path, 0, 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
