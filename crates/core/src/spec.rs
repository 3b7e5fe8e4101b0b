//! Policies as data: the serde-round-trippable [`PolicySpec`] and the
//! registry of canonical policy names.
//!
//! * [`ArbSpec`] / [`ThrottleSpec`] — one variant per policy family,
//!   with the family's *configuration embedded in the spec* (DynMg's
//!   Tables 1–4 parameters, DYNCTA's thresholds). A spec serializes to
//!   JSON and back losslessly, so policies and their parameters travel
//!   as data — through campaign files, over the wire, into JSONL logs.
//!   [`ArbSpec::build_kind`] / [`ThrottleSpec::build_kind`] instantiate
//!   them as the [`ArbiterKind`] / [`ThrottleKind`] enums the
//!   simulator runs.
//! * [`PolicySpec`] — an (arbitration, throttling) pair with the
//!   paper's figure labels and public factories for every named point.
//! * [`PolicySpec::registry_names`] / [`PolicySpec::from_name`] — the
//!   stable-name registry ("dynmg+BMA", "cobrra", …) mapping the labels
//!   pinned by the paper's figures (and `tests/golden.rs`) to specs
//!   with default configurations. Compositional names assemble the rest
//!   of the 5 × 4 matrix: `"<throttle>+<arb>"`, e.g. `"dyncta+B"`.
//!
//! A policy outside the registry needs no spec: any `RequestArbiter` /
//! `ThrottleController` type plugs into `llamcat_sim::system::System`
//! directly.

use std::sync::Arc;

use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::config::{L2Config, SystemConfig};
use llamcat_sim::kv::{KvEviction, KvTierConfig};
use llamcat_sim::serve::ServePolicy;
use llamcat_sim::types::Cycle;
pub use llamcat_trace::arrivals::ArrivalSpec;
use llamcat_trace::mix::{MixAssignment, WorkloadMix};
use llamcat_trace::workloads::{Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::arbiter::{
    ArbiterKind, BalancedArbiter, CobrraArbiter, MshrAwareArbiter, MshrAwareConfig,
    PrefixAwareArbiter, TieBreak,
};
use crate::throttle::{DynMg, DynMgConfig, Dyncta, DynctaConfig, Lcs, ThrottleKind};

/// Request-arbitration policy with its configuration embedded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArbSpec {
    /// Default FIFO (unoptimized).
    Fifo,
    /// Balanced ("B").
    Balanced,
    /// MSHR-aware with FIFO tie-break ("MA").
    MshrAware,
    /// MSHR-aware with balanced tie-break ("BMA").
    BalancedMshrAware,
    /// COBRRA baseline.
    Cobrra,
    /// Prefix-cache-aware ("PFA"): deprioritize tenants whose KV blocks
    /// are mid-promotion from the slow tier (no-op without a [`KvSpec`]).
    PrefixAware,
}

impl ArbSpec {
    /// Figure-style component label.
    pub fn label(&self) -> &'static str {
        match self {
            ArbSpec::Fifo => "fifo",
            ArbSpec::Balanced => "B",
            ArbSpec::MshrAware => "MA",
            ArbSpec::BalancedMshrAware => "BMA",
            ArbSpec::Cobrra => "cobrra",
            ArbSpec::PrefixAware => "PFA",
        }
    }

    /// Instantiates the arbiter as the closed-world [`ArbiterKind`]
    /// enum — the monomorphized construction path the experiment layer
    /// uses so the simulator tick loop is free of virtual dispatch —
    /// for a slice of the LLC `l2`: MA/BMA keep a `sent_reqs` entry for
    /// the slice's tag plus MSHR pipeline latency.
    pub fn build_kind_for(&self, l2: &L2Config) -> ArbiterKind {
        let mshr_aware = |tie| {
            let cfg = MshrAwareConfig {
                hit_latency: l2.hit_latency,
                mshr_latency: l2.mshr_latency,
                ..MshrAwareConfig::default()
            };
            ArbiterKind::MshrAware(MshrAwareArbiter::new(cfg, tie))
        };
        match self {
            ArbSpec::Fifo => ArbiterKind::Fifo(FifoArbiter),
            ArbSpec::Balanced => ArbiterKind::Balanced(BalancedArbiter),
            ArbSpec::MshrAware => mshr_aware(TieBreak::Fifo),
            ArbSpec::BalancedMshrAware => mshr_aware(TieBreak::Balanced),
            ArbSpec::Cobrra => ArbiterKind::Cobrra(CobrraArbiter::new()),
            ArbSpec::PrefixAware => ArbiterKind::PrefixAware(PrefixAwareArbiter),
        }
    }

    /// [`ArbSpec::build_kind_for`] on Table 5's LLC.
    pub fn build_kind(&self) -> ArbiterKind {
        self.build_kind_for(&SystemConfig::table5().l2)
    }

    /// Resolves a component name (`"B"`, `"cobrra"`, …).
    pub fn from_name(name: &str) -> Option<ArbSpec> {
        Some(match name {
            "fifo" => ArbSpec::Fifo,
            "B" => ArbSpec::Balanced,
            "MA" => ArbSpec::MshrAware,
            "BMA" => ArbSpec::BalancedMshrAware,
            "cobrra" => ArbSpec::Cobrra,
            "PFA" => ArbSpec::PrefixAware,
            _ => return None,
        })
    }
}

/// Thread-throttling policy with its configuration embedded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ThrottleSpec {
    /// No throttling (unoptimized).
    None,
    /// DYNCTA baseline.
    Dyncta { config: DynctaConfig },
    /// LCS baseline.
    Lcs,
    /// The paper's two-level dynamic multi-gear controller.
    DynMg { config: DynMgConfig },
}

impl ThrottleSpec {
    /// DYNCTA with the re-swept default thresholds.
    pub fn dyncta() -> Self {
        ThrottleSpec::Dyncta {
            config: DynctaConfig::default(),
        }
    }

    /// DynMg with the re-swept Table 2–4 defaults.
    pub fn dynmg() -> Self {
        ThrottleSpec::DynMg {
            config: DynMgConfig::default(),
        }
    }

    /// Figure-style component label.
    pub fn label(&self) -> &'static str {
        match self {
            ThrottleSpec::None => "none",
            ThrottleSpec::Dyncta { .. } => "dyncta",
            ThrottleSpec::Lcs => "lcs",
            ThrottleSpec::DynMg { .. } => "dynmg",
        }
    }

    /// Instantiates the controller as the closed-world
    /// [`ThrottleKind`] enum (see [`ArbSpec::build_kind`]).
    pub fn build_kind(&self) -> ThrottleKind {
        match self {
            ThrottleSpec::None => ThrottleKind::None(NoThrottle),
            ThrottleSpec::Dyncta { config } => ThrottleKind::Dyncta(Dyncta::new(*config)),
            ThrottleSpec::Lcs => ThrottleKind::Lcs(Lcs::new()),
            ThrottleSpec::DynMg { config } => ThrottleKind::DynMg(DynMg::new(config.clone())),
        }
    }

    /// Resolves a component name (`"dynmg"`, `"lcs"`, …) with default
    /// configuration.
    pub fn from_name(name: &str) -> Option<ThrottleSpec> {
        Some(match name {
            "none" => ThrottleSpec::None,
            "dyncta" => ThrottleSpec::dyncta(),
            "lcs" => ThrottleSpec::Lcs,
            "dynmg" => ThrottleSpec::dynmg(),
            _ => return None,
        })
    }
}

/// A complete policy — arbitration and throttling with their
/// configurations — as serializable data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    pub arb: ArbSpec,
    pub throttle: ThrottleSpec,
}

/// One registry entry: a canonical name and the factory producing its
/// default-configured spec.
pub type RegistryEntry = (&'static str, fn() -> PolicySpec);

/// The canonical names of the paper's figures, in ladder order. Each
/// resolves through [`PolicySpec::from_name`] to a spec whose
/// [`PolicySpec::label`] round-trips to the same name.
pub const REGISTRY: &[RegistryEntry] = &[
    ("unoptimized", PolicySpec::unoptimized),
    ("dyncta", PolicySpec::dyncta),
    ("lcs", PolicySpec::lcs),
    ("cobrra", PolicySpec::cobrra),
    ("dynmg", PolicySpec::dynmg),
    ("dynmg+B", PolicySpec::dynmg_b),
    ("dynmg+MA", PolicySpec::dynmg_ma),
    ("dynmg+BMA", PolicySpec::dynmg_bma),
    ("dynmg+cobrra", PolicySpec::dynmg_cobrra),
];

impl PolicySpec {
    pub fn new(arb: ArbSpec, throttle: ThrottleSpec) -> Self {
        PolicySpec { arb, throttle }
    }

    /// The unoptimized baseline (FIFO, no throttling).
    pub fn unoptimized() -> Self {
        PolicySpec::new(ArbSpec::Fifo, ThrottleSpec::None)
    }

    pub fn dyncta() -> Self {
        PolicySpec::new(ArbSpec::Fifo, ThrottleSpec::dyncta())
    }

    pub fn lcs() -> Self {
        PolicySpec::new(ArbSpec::Fifo, ThrottleSpec::Lcs)
    }

    pub fn cobrra() -> Self {
        PolicySpec::new(ArbSpec::Cobrra, ThrottleSpec::None)
    }

    pub fn dynmg() -> Self {
        PolicySpec::new(ArbSpec::Fifo, ThrottleSpec::dynmg())
    }

    pub fn dynmg_b() -> Self {
        PolicySpec::new(ArbSpec::Balanced, ThrottleSpec::dynmg())
    }

    pub fn dynmg_ma() -> Self {
        PolicySpec::new(ArbSpec::MshrAware, ThrottleSpec::dynmg())
    }

    /// The paper's final policy.
    pub fn dynmg_bma() -> Self {
        PolicySpec::new(ArbSpec::BalancedMshrAware, ThrottleSpec::dynmg())
    }

    pub fn dynmg_cobrra() -> Self {
        PolicySpec::new(ArbSpec::Cobrra, ThrottleSpec::dynmg())
    }

    /// DynMg with an explicit configuration (replaces the removed
    /// `LLAMCAT_DYNMG_*` environment variables).
    pub fn dynmg_with(config: DynMgConfig) -> Self {
        PolicySpec::new(ArbSpec::Fifo, ThrottleSpec::DynMg { config })
    }

    /// Figure-style label, e.g. `"dynmg+BMA"`. Labels identify the
    /// policy *family*; embedded configurations do not change them.
    pub fn label(&self) -> String {
        match (&self.throttle, &self.arb) {
            (ThrottleSpec::None, ArbSpec::Fifo) => "unoptimized".to_string(),
            (ThrottleSpec::None, arb) => arb.label().to_string(),
            (thr, ArbSpec::Fifo) => thr.label().to_string(),
            (thr, arb) => format!("{}+{}", thr.label(), arb.label()),
        }
    }

    /// The registry's canonical names, in ladder order.
    pub fn registry_names() -> Vec<&'static str> {
        REGISTRY.iter().map(|(name, _)| *name).collect()
    }

    /// The paper's 5 × 4 arbitration × throttling matrix with default
    /// configurations (the cells `tests/golden.rs` pins), arbitration
    /// outermost.
    pub fn matrix() -> Vec<PolicySpec> {
        let arbs = [
            ArbSpec::Fifo,
            ArbSpec::Balanced,
            ArbSpec::MshrAware,
            ArbSpec::BalancedMshrAware,
            ArbSpec::Cobrra,
        ];
        let throttles = [
            ThrottleSpec::None,
            ThrottleSpec::dyncta(),
            ThrottleSpec::Lcs,
            ThrottleSpec::dynmg(),
        ];
        arbs.iter()
            .flat_map(|a| {
                throttles
                    .iter()
                    .map(|t| PolicySpec::new(a.clone(), t.clone()))
            })
            .collect()
    }

    /// Resolves a stable name to a spec with default configurations.
    ///
    /// Canonical registry names resolve first; any other cell of the
    /// policy matrix is reachable compositionally as
    /// `"<throttle>+<arb>"` (e.g. `"dyncta+B"`), a bare arbitration
    /// name (`"B"`), or a bare throttle name.
    pub fn from_name(name: &str) -> Option<PolicySpec> {
        if let Some((_, ctor)) = REGISTRY.iter().find(|(n, _)| *n == name) {
            return Some(ctor());
        }
        if let Some((thr, arb)) = name.split_once('+') {
            return Some(PolicySpec::new(
                ArbSpec::from_name(arb)?,
                ThrottleSpec::from_name(thr)?,
            ));
        }
        if let Some(arb) = ArbSpec::from_name(name) {
            return Some(PolicySpec::new(arb, ThrottleSpec::None));
        }
        ThrottleSpec::from_name(name).map(|thr| PolicySpec::new(ArbSpec::Fifo, thr))
    }
}

/// Slow-tier (second tier) parameters of a [`KvSpec`]; the default is
/// the CXL-class tier of [`KvTierConfig::cxl`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvSlowTierSpec {
    /// KV block size in bytes (promotion granularity).
    pub block_bytes: u64,
    /// Slow-tier access latency in core cycles.
    pub latency: Cycle,
    /// Slow-tier link bandwidth in bytes per core cycle.
    pub bytes_per_cycle: u64,
    /// Bound on concurrent in-flight promotions.
    pub max_inflight: usize,
}

impl Default for KvSlowTierSpec {
    fn default() -> Self {
        let cxl = KvTierConfig::cxl(1, KvEviction::Lru);
        KvSlowTierSpec {
            block_bytes: cxl.block_bytes,
            latency: cxl.slow_latency,
            bytes_per_cycle: cxl.slow_bytes_per_cycle,
            max_inflight: cxl.max_inflight,
        }
    }
}

/// A tiered KV store as data: the serde counterpart of
/// [`KvTierConfig`], usable as a fourth policy axis (beside
/// arbitration x throttling x serving) of an experiment or campaign.
/// Eviction and the slow tier default to LRU over a CXL-class second
/// tier, so a hand-written doc only needs
/// `{"warm_capacity_blocks": 256}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvSpec {
    /// Warm-tier capacity in KV blocks.
    pub warm_capacity_blocks: usize,
    /// Eviction policy ([`KvEviction::Lru`] is the serde default).
    #[serde(default)]
    pub eviction: KvEviction,
    /// Second-tier latency/bandwidth model (CXL-class serde default).
    #[serde(default)]
    pub slow: KvSlowTierSpec,
}

impl KvSpec {
    /// A CXL-class tier with LRU eviction.
    pub fn lru(warm_capacity_blocks: usize) -> Self {
        KvSpec {
            warm_capacity_blocks,
            eviction: KvEviction::Lru,
            slow: KvSlowTierSpec::default(),
        }
    }

    /// A CXL-class tier that pins shared-prefix blocks.
    pub fn prefix_pin(warm_capacity_blocks: usize) -> Self {
        KvSpec {
            eviction: KvEviction::PrefixPin,
            ..KvSpec::lru(warm_capacity_blocks)
        }
    }

    /// The simulator-side configuration.
    pub fn to_config(&self) -> KvTierConfig {
        KvTierConfig {
            warm_capacity_blocks: self.warm_capacity_blocks,
            block_bytes: self.slow.block_bytes,
            slow_latency: self.slow.latency,
            slow_bytes_per_cycle: self.slow.bytes_per_cycle,
            max_inflight: self.slow.max_inflight,
            eviction: self.eviction,
        }
    }

    /// Rejects degenerate tiers (zero capacity, zero-byte blocks, …).
    pub fn validate(&self) -> Result<(), String> {
        self.to_config().validate()
    }

    /// Stable label, e.g. `kv:pin@256`.
    pub fn label(&self) -> String {
        let ev = match self.eviction {
            KvEviction::Lru => "lru",
            KvEviction::PrefixPin => "pin",
        };
        format!("kv:{ev}@{}", self.warm_capacity_blocks)
    }
}

/// One request of a serde-round-trippable serving mix: a workload
/// family instantiated at one sequence length, optionally arriving
/// mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSpec {
    pub workload: WorkloadSpec,
    pub seq_len: usize,
    /// Cycle at which the request arrives (0 = present from the start).
    #[serde(default)]
    pub arrival: Cycle,
    /// Serving priority class (higher = more urgent; 0 = best-effort,
    /// the serde default).
    #[serde(default)]
    pub class: u8,
}

impl RequestSpec {
    /// A request present from cycle 0.
    pub fn new(workload: WorkloadSpec, seq_len: usize) -> Self {
        RequestSpec {
            workload,
            seq_len,
            arrival: 0,
            class: 0,
        }
    }

    /// Assigns a priority class.
    pub fn with_class(mut self, class: u8) -> Self {
        self.class = class;
        self
    }
}

/// A multi-tenant serving mix as data: the serde counterpart of
/// [`WorkloadMix`], usable as a
/// campaign scenario axis next to solo workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixSpec {
    pub requests: Vec<RequestSpec>,
    /// Core-assignment discipline ([`MixAssignment::Partitioned`] is
    /// the serde default).
    #[serde(default)]
    pub assignment: MixAssignment,
}

impl MixSpec {
    /// An empty partitioned mix; populate with [`MixSpec::request`].
    pub fn partitioned() -> Self {
        MixSpec {
            requests: Vec::new(),
            assignment: MixAssignment::Partitioned,
        }
    }

    /// An empty interleaved mix; populate with [`MixSpec::request`].
    pub fn interleaved() -> Self {
        MixSpec {
            requests: Vec::new(),
            assignment: MixAssignment::Interleaved,
        }
    }

    /// Adds a best-effort (class 0) request to the mix.
    pub fn request(mut self, workload: WorkloadSpec, seq_len: usize, arrival: Cycle) -> Self {
        self.requests.push(RequestSpec {
            workload,
            seq_len,
            arrival,
            class: 0,
        });
        self
    }

    /// Rejects degenerate mixes: zero requests, a zero sequence length,
    /// or an invalid workload family.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests.is_empty() {
            return Err("mix has no requests".into());
        }
        for (i, r) in self.requests.iter().enumerate() {
            if r.seq_len == 0 {
                return Err(format!("mix request {i}: zero seq_len"));
            }
            r.workload
                .validate()
                .map_err(|e| format!("mix request {i}: {e}"))?;
        }
        self.instantiate().validate()
    }

    /// Builds the runnable [`WorkloadMix`]. Requests of one family at one
    /// sequence length share one workload instance, so the mix's trace
    /// holds their blocks once (see [`WorkloadMix::generate`]).
    pub fn instantiate(&self) -> WorkloadMix {
        let mut instances: Vec<((WorkloadSpec, usize), Arc<dyn Workload>)> = Vec::new();
        let mut mix = WorkloadMix::new(self.assignment);
        for r in &self.requests {
            let key = (r.workload, r.seq_len);
            let workload = match instances.iter().find(|(k, _)| *k == key) {
                Some((_, w)) => w.clone(),
                None => {
                    let w = r.workload.instantiate(r.seq_len);
                    instances.push((key, w.clone()));
                    w
                }
            };
            mix = mix.classed_request(workload, r.arrival, r.class);
        }
        mix
    }

    /// The label the instantiated mix reports (stable; carries every
    /// request's family, sequence length and staggered arrival).
    pub fn label(&self) -> String {
        self.instantiate().label()
    }
}

/// Serving-scheduler admission policy as serde data — the third policy
/// axis (beside arbitration x throttling) of an open-system run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ServePolicySpec {
    /// Admit every request the cycle it arrives.
    #[default]
    Fcfs,
    /// FCFS admission capped at `max` requests in flight.
    MaxConcurrency { max: usize },
    /// Continuous batching over `slots` contiguous core groups: a
    /// completion immediately hands the freed group to the next queued
    /// request.
    ContinuousBatching { slots: usize },
    /// Continuous batching with overload admission control: an arrival
    /// that finds `depth` requests already waiting is terminally
    /// rejected (reported, not silently stalled).
    RejectAboveQueue { slots: usize, depth: usize },
    /// Continuous batching that sheds queued requests whose waiting age
    /// has already blown the TTFT deadline — they could no longer meet
    /// the SLO, so serving them only hurts goodput.
    DeadlineDrop { slots: usize, ttft_deadline: Cycle },
    /// Class-priority continuous batching: a higher-class arrival
    /// preempts the lowest-class running request by withdrawing its
    /// *unissued* blocks back to the admission queue (no mid-block
    /// rollback; the victim re-admits later and resumes its remainder).
    PriorityPreempt { slots: usize },
}

impl ServePolicySpec {
    /// Stable name (labels, JSONL).
    pub fn label(&self) -> String {
        self.to_sim().label()
    }

    /// The simulator-side policy.
    pub fn to_sim(&self) -> ServePolicy {
        match *self {
            ServePolicySpec::Fcfs => ServePolicy::Fcfs,
            ServePolicySpec::MaxConcurrency { max } => ServePolicy::MaxConcurrency { max },
            ServePolicySpec::ContinuousBatching { slots } => {
                ServePolicy::ContinuousBatching { slots }
            }
            ServePolicySpec::RejectAboveQueue { slots, depth } => {
                ServePolicy::RejectAboveQueue { slots, depth }
            }
            ServePolicySpec::DeadlineDrop {
                slots,
                ttft_deadline,
            } => ServePolicy::DeadlineDrop {
                slots,
                ttft_deadline,
            },
            ServePolicySpec::PriorityPreempt { slots } => ServePolicy::PriorityPreempt { slots },
        }
    }

    /// The slot count of a slot-partitioned (continuous-batching
    /// family) policy, `None` for whole-machine admission.
    fn slots(&self) -> Option<usize> {
        match *self {
            ServePolicySpec::Fcfs | ServePolicySpec::MaxConcurrency { .. } => None,
            ServePolicySpec::ContinuousBatching { slots }
            | ServePolicySpec::RejectAboveQueue { slots, .. }
            | ServePolicySpec::DeadlineDrop { slots, .. }
            | ServePolicySpec::PriorityPreempt { slots } => Some(slots),
        }
    }
}

/// A serving-level objective: deadlines a request must meet to count
/// toward *goodput* (SLO-met completions per Mcycle) rather than raw
/// throughput. Deadlines are in core cycles; convert from wall time
/// with the config's frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSpec {
    /// TTFT deadline: arrival to first retired block, inclusive
    /// (matches `RequestStats::ttft`), queueing delay included.
    pub ttft_deadline: Cycle,
    /// Optional mean time-between-tokens deadline (cycles per block
    /// after the first); `None` judges TTFT only.
    #[serde(default)]
    pub tbt_deadline: Option<Cycle>,
}

impl SloSpec {
    /// A TTFT-only SLO.
    pub fn ttft(ttft_deadline: Cycle) -> Self {
        SloSpec {
            ttft_deadline,
            tbt_deadline: None,
        }
    }

    /// Adds a mean-TBT deadline.
    pub fn tbt(mut self, tbt_deadline: Cycle) -> Self {
        self.tbt_deadline = Some(tbt_deadline);
        self
    }

    /// Rejects degenerate deadlines (0 cycles can never be met).
    pub fn validate(&self) -> Result<(), String> {
        if self.ttft_deadline == 0 {
            return Err("slo: ttft_deadline must be >= 1".into());
        }
        if self.tbt_deadline == Some(0) {
            return Err("slo: tbt_deadline must be >= 1".into());
        }
        Ok(())
    }

    /// Stable name (labels, JSONL), e.g. `t50000` or `t50000b2000`.
    pub fn label(&self) -> String {
        match self.tbt_deadline {
            Some(b) => format!("t{}b{b}", self.ttft_deadline),
            None => format!("t{}", self.ttft_deadline),
        }
    }
}

/// An open-system serving scenario as data: `num_requests` copies of
/// one workload family, arrival cycles drawn from a seeded
/// [`ArrivalSpec`], admitted mid-run by a [`ServePolicySpec`]. The
/// serde counterpart of the simulator's request injector, usable as a
/// campaign scenario axis next to solo workloads and closed mixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSpec {
    pub workload: WorkloadSpec,
    pub seq_len: usize,
    pub num_requests: usize,
    pub arrivals: ArrivalSpec,
    /// Admission policy ([`ServePolicySpec::Fcfs`] is the serde
    /// default).
    #[serde(default)]
    pub scheduler: ServePolicySpec,
    /// Serving objective: when set, per-request SLO outcomes and
    /// goodput are reported beside the raw latency percentiles.
    #[serde(default)]
    pub slo: Option<SloSpec>,
    /// Per-request priority classes (higher = more urgent), indexed by
    /// request id; shorter-than-`num_requests` vectors pad with class
    /// 0. Only [`ServePolicySpec::PriorityPreempt`] acts on classes,
    /// but they are reported under every policy.
    #[serde(default)]
    pub classes: Vec<u8>,
}

impl ServeSpec {
    /// An FCFS serve scenario; override the scheduler with
    /// [`ServeSpec::scheduler`].
    pub fn new(
        workload: WorkloadSpec,
        seq_len: usize,
        num_requests: usize,
        arrivals: ArrivalSpec,
    ) -> Self {
        ServeSpec {
            workload,
            seq_len,
            num_requests,
            arrivals,
            scheduler: ServePolicySpec::Fcfs,
            slo: None,
            classes: Vec::new(),
        }
    }

    /// Sets the admission policy.
    pub fn scheduler(mut self, scheduler: ServePolicySpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the serving objective.
    pub fn slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets per-request priority classes (see [`ServeSpec::classes`]).
    pub fn classes(mut self, classes: Vec<u8>) -> Self {
        self.classes = classes;
        self
    }

    /// The per-request class vector padded to `num_requests` (class 0
    /// for requests beyond the configured prefix).
    pub fn padded_classes(&self) -> Vec<u8> {
        let mut c = self.classes.clone();
        c.resize(self.num_requests, 0);
        c
    }

    /// Relative home-core range each request's trace is generated on,
    /// for a machine of `num_cores` cores: the full machine for
    /// FCFS/max-concurrency, one slot's group for the
    /// continuous-batching family.
    pub fn cores_per_request(&self, num_cores: usize) -> usize {
        match self.scheduler.slots() {
            Some(slots) if slots > 0 => (num_cores / slots).max(1),
            _ => num_cores,
        }
    }

    /// Rejects degenerate scenarios: zero requests, zero seq_len, an
    /// invalid workload family, arrival schedule or scheduler shape.
    pub fn validate(&self, num_cores: usize) -> Result<(), String> {
        if self.num_requests == 0 {
            return Err("serve scenario has no requests".into());
        }
        if self.seq_len == 0 {
            return Err("serve scenario: zero seq_len".into());
        }
        self.workload
            .validate()
            .map_err(|e| format!("serve scenario: {e}"))?;
        self.arrivals.validate(self.num_requests)?;
        if let Some(slo) = &self.slo {
            slo.validate().map_err(|e| format!("serve scenario: {e}"))?;
        }
        if self.classes.len() > self.num_requests {
            return Err(format!(
                "serve scenario: {} classes for {} requests",
                self.classes.len(),
                self.num_requests
            ));
        }
        if let ServePolicySpec::DeadlineDrop {
            ttft_deadline: 0, ..
        } = self.scheduler
        {
            return Err("serve scenario: deadline-drop needs ttft_deadline >= 1".into());
        }
        match self.scheduler {
            ServePolicySpec::MaxConcurrency { max: 0 } => {
                Err("serve scenario: max-concurrency needs max >= 1".into())
            }
            _ => match self.scheduler.slots() {
                Some(slots) if slots == 0 || slots > num_cores => Err(format!(
                    "serve scenario: continuous-batching policies need 1 <= slots <= num_cores ({num_cores}), got {slots}"
                )),
                _ => Ok(()),
            },
        }
    }

    /// The per-request arrival schedule.
    pub fn request_arrivals(&self) -> Vec<Cycle> {
        self.arrivals.arrivals(self.num_requests)
    }

    /// Stable label, e.g.
    /// `serve:cb4[llama3 70b/L128 x8 @ poisson(g500,s7)]`; SLO and
    /// priority classes append as ` slo:t50000` / ` cls:2` segments,
    /// and a surplus arrival trace surfaces its full length (see
    /// `ArrivalSpec::label_for`).
    pub fn label(&self) -> String {
        let mut extras = String::new();
        if let Some(slo) = &self.slo {
            extras.push_str(&format!(" slo:{}", slo.label()));
        }
        if self.classes.iter().any(|&c| c != 0) {
            let distinct = {
                let mut c = self.padded_classes();
                c.sort_unstable();
                c.dedup();
                c.len()
            };
            extras.push_str(&format!(" cls:{distinct}"));
        }
        format!(
            "serve:{}[{}/L{} x{} @ {}{}]",
            self.scheduler.label(),
            self.workload.instantiate(self.seq_len).label(),
            self.seq_len,
            self.num_requests,
            self.arrivals.label_for(self.num_requests),
            extras
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_round_trip_their_labels() {
        for (name, ctor) in REGISTRY {
            let spec = ctor();
            assert_eq!(&spec.label(), name, "registry name/label mismatch");
            assert_eq!(
                PolicySpec::from_name(name),
                Some(spec),
                "from_name must resolve `{name}`"
            );
        }
    }

    #[test]
    fn compositional_names_cover_the_matrix() {
        let spec = PolicySpec::from_name("dyncta+B").unwrap();
        assert_eq!(spec.arb, ArbSpec::Balanced);
        assert!(matches!(spec.throttle, ThrottleSpec::Dyncta { .. }));
        assert_eq!(spec.label(), "dyncta+B");

        assert_eq!(
            PolicySpec::from_name("B"),
            Some(PolicySpec::new(ArbSpec::Balanced, ThrottleSpec::None))
        );
        assert_eq!(PolicySpec::from_name("lcs"), Some(PolicySpec::lcs()));
        assert_eq!(PolicySpec::from_name("nonsense"), None);
        assert_eq!(PolicySpec::from_name("dynmg+nope"), None);

        // Every matrix cell is reachable by its compositional name.
        let matrix = PolicySpec::matrix();
        assert_eq!(matrix.len(), 20);
        for cell in matrix {
            let name = format!("{}+{}", cell.throttle.label(), cell.arb.label());
            assert_eq!(PolicySpec::from_name(&name), Some(cell), "`{name}`");
        }
    }

    #[test]
    fn specs_round_trip_through_json_with_configs() {
        let cfg = DynMgConfig {
            sampling_period: 4321,
            sub_period: 777,
            ..Default::default()
        };
        let spec = PolicySpec::new(
            ArbSpec::BalancedMshrAware,
            ThrottleSpec::DynMg { config: cfg },
        );
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("4321"), "config must travel in the spec");
        let back: PolicySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn mix_spec_round_trips_through_json() {
        let mix = MixSpec::interleaved()
            .request(WorkloadSpec::llama3_70b(), 128, 0)
            .request(
                WorkloadSpec::PrefillLogit {
                    heads: 8,
                    group_size: 8,
                    head_dim: 128,
                    query_tokens: 4,
                },
                256,
                1_000,
            );
        let json = serde_json::to_string(&mix).unwrap();
        let back: MixSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mix);
        // Arrival and assignment serde defaults: a minimal hand-written
        // mix parses as partitioned, arriving at 0.
        let minimal: MixSpec = serde_json::from_str(
            r#"{"requests": [{"workload": {"Logit": {"heads": 8, "group_size": 8, "head_dim": 128}}, "seq_len": 128}]}"#,
        )
        .unwrap();
        assert_eq!(minimal.assignment, MixAssignment::Partitioned);
        assert_eq!(minimal.requests[0].arrival, 0);
        minimal.validate().unwrap();
    }

    #[test]
    fn mix_spec_rejects_degenerate_mixes() {
        assert!(MixSpec::partitioned().validate().is_err(), "zero requests");
        let zero_seq = MixSpec::partitioned().request(WorkloadSpec::llama3_70b(), 0, 0);
        assert!(zero_seq.validate().is_err(), "zero seq_len");
        let bad_family = MixSpec::partitioned().request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 0,
            },
            128,
            0,
        );
        assert!(bad_family.validate().is_err(), "invalid workload family");
    }

    #[test]
    fn mix_spec_labels_match_instantiated_mix() {
        let mix = MixSpec::partitioned()
            .request(WorkloadSpec::llama3_70b(), 128, 0)
            .request(WorkloadSpec::llama3_70b(), 256, 500);
        assert_eq!(
            mix.label(),
            "mix:part[llama3 70b/L128 + llama3 70b/L256@500]"
        );
    }

    #[test]
    fn mix_spec_requests_of_one_family_and_length_share_an_instance() {
        let mix = MixSpec::interleaved()
            .request(WorkloadSpec::llama3_70b(), 128, 0)
            .request(WorkloadSpec::llama3_70b(), 256, 0)
            .request(WorkloadSpec::llama3_70b(), 128, 500)
            .instantiate();
        let w = |r: usize| &mix.requests[r].workload;
        assert!(Arc::ptr_eq(w(0), w(2)), "same family and length");
        assert!(!Arc::ptr_eq(w(0), w(1)), "another length");
        assert_eq!(mix.requests[2].arrival, 500);
    }

    #[test]
    fn labels_ignore_embedded_config() {
        let cfg = DynMgConfig {
            max_gear: 2,
            ..Default::default()
        };
        assert_eq!(PolicySpec::dynmg_with(cfg).label(), "dynmg");
    }

    #[test]
    fn prefix_aware_resolves_compositionally_without_touching_registry() {
        assert_eq!(ArbSpec::from_name("PFA"), Some(ArbSpec::PrefixAware));
        assert_eq!(ArbSpec::PrefixAware.label(), "PFA");
        let spec = PolicySpec::from_name("dynmg+PFA").unwrap();
        assert_eq!(spec.arb, ArbSpec::PrefixAware);
        assert_eq!(spec.label(), "dynmg+PFA");
        assert_eq!(
            PolicySpec::from_name("PFA"),
            Some(PolicySpec::new(ArbSpec::PrefixAware, ThrottleSpec::None))
        );
        // The canonical registry is unchanged: golden tables built from
        // explicit name lists stay pinned.
        assert!(!PolicySpec::registry_names().contains(&"PFA"));
    }

    #[test]
    fn kv_spec_round_trips_and_defaults_the_slow_tier() {
        let spec = KvSpec::prefix_pin(256);
        assert_eq!(spec.label(), "kv:pin@256");
        spec.validate().expect("valid kv spec");
        assert_eq!(
            spec.to_config(),
            KvTierConfig::cxl(256, KvEviction::PrefixPin)
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: KvSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        // A minimal hand-written doc gets the CXL-class defaults.
        let minimal: KvSpec = serde_json::from_str(r#"{"warm_capacity_blocks": 64}"#).unwrap();
        assert_eq!(minimal, KvSpec::lru(64));
        assert_eq!(minimal.label(), "kv:lru@64");

        // Degenerate tiers are rejected.
        assert!(KvSpec::lru(0).validate().is_err(), "zero capacity");
        let mut bad = KvSpec::lru(64);
        bad.slow.block_bytes = 0;
        assert!(bad.validate().is_err(), "zero-byte blocks");
    }

    #[test]
    fn serve_spec_validates_and_labels() {
        let spec = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            8,
            ArrivalSpec::Poisson {
                mean_gap: 500,
                seed: 7,
            },
        )
        .scheduler(ServePolicySpec::ContinuousBatching { slots: 4 });
        spec.validate(16).expect("valid serve spec");
        assert_eq!(spec.cores_per_request(16), 4);
        assert_eq!(
            spec.label(),
            "serve:cb4[llama3 70b/L128 x8 @ poisson(g500,s7)]"
        );
        assert_eq!(spec.request_arrivals().len(), 8);

        let fcfs = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            2,
            ArrivalSpec::Fixed {
                period: 100,
                start: 0,
            },
        );
        assert_eq!(fcfs.cores_per_request(16), 16, "fcfs spans the machine");
        assert_eq!(fcfs.scheduler, ServePolicySpec::Fcfs, "default policy");
    }

    #[test]
    fn serve_spec_rejects_degenerate_shapes() {
        let base = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            4,
            ArrivalSpec::Fixed {
                period: 100,
                start: 0,
            },
        );
        assert!(
            ServeSpec {
                num_requests: 0,
                ..base.clone()
            }
            .validate(16)
            .is_err(),
            "zero requests"
        );
        assert!(
            base.clone()
                .scheduler(ServePolicySpec::MaxConcurrency { max: 0 })
                .validate(16)
                .is_err(),
            "max-concurrency with max 0"
        );
        assert!(
            base.clone()
                .scheduler(ServePolicySpec::ContinuousBatching { slots: 32 })
                .validate(16)
                .is_err(),
            "more slots than cores"
        );
        assert!(
            ServeSpec {
                arrivals: ArrivalSpec::Trace { cycles: vec![0] },
                ..base.clone()
            }
            .validate(16)
            .is_err(),
            "trace shorter than request count"
        );
    }

    #[test]
    fn serve_spec_serde_round_trips_and_defaults_scheduler() {
        let spec = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            256,
            4,
            ArrivalSpec::Bursty {
                burst: 2,
                gap_in_burst: 10,
                burst_gap: 1000,
                seed: 3,
            },
        )
        .scheduler(ServePolicySpec::MaxConcurrency { max: 2 });
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: ServeSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);

        // A hand-written doc omitting `scheduler` defaults to FCFS.
        let fcfs = ServeSpec {
            scheduler: ServePolicySpec::Fcfs,
            ..spec
        };
        let with_field = serde_json::to_string(&fcfs).expect("serialize fcfs");
        let probe = serde_json::to_string(&ServePolicySpec::Fcfs).expect("serialize policy");
        let without_field = with_field.replace(&format!(",\"scheduler\":{probe}"), "");
        assert_ne!(without_field, with_field, "scheduler field was stripped");
        let defaulted: ServeSpec =
            serde_json::from_str(&without_field).expect("deserialize without scheduler");
        assert_eq!(defaulted, fcfs);
    }
}
