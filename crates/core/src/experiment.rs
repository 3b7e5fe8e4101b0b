//! High-level experiment API: one call from (workload, policy) to a
//! finished simulation with the paper's metrics.
//!
//! This is the entry point the benchmark harness, the examples and most
//! downstream users go through. The workload layer is open — anything
//! implementing [`Workload`] runs; [`WorkloadSpec`] names the paper's
//! two Llama3 shapes and the other serializable families:
//!
//! ```
//! use llamcat::experiment::Experiment;
//! use llamcat::spec::PolicySpec;
//! use llamcat_trace::workloads::WorkloadSpec;
//!
//! let report = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 512)
//!     .policy(PolicySpec::dynmg_bma())
//!     .run();
//! assert!(report.completed);
//! ```
//!
//! Policies are data: [`Experiment::policy`] takes a [`PolicySpec`] —
//! a factory such as [`PolicySpec::dynmg_bma`], a registry name via
//! [`PolicySpec::from_name`], or a spec with explicit embedded
//! configurations (see [`crate::spec`]).

use std::sync::Arc;

use llamcat_sim::config::SystemConfig;
use llamcat_sim::prog::Program;
use llamcat_sim::serve::RequestInjector;
use llamcat_sim::stats::{KvTierStats, SimStats, SloOutcome};
use llamcat_sim::system::{RunOutcome, StepMode, System, SystemState};
use llamcat_trace::mix::{generate_serve_set, WorkloadMix};
use llamcat_trace::tracegen::TraceGenConfig;
use llamcat_trace::workloads::{Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::arbiter::ArbiterKind;
use crate::spec::{KvSpec, MixSpec, PolicySpec, ServeSpec};
use crate::throttle::ThrottleKind;

pub use llamcat_trace::mapping::Layout;

/// A failed experiment setup or run (degenerate inputs are rejected
/// with explicit errors rather than producing silent nonsense).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The machine configuration failed [`SystemConfig::validate`].
    InvalidConfig(String),
    /// The workload's shape failed validation.
    InvalidWorkload(String),
    /// The mapping does not legally tile the workload.
    InvalidMapping(String),
    /// The generated trace moves zero bytes — nothing to simulate, and
    /// the cycle-budget heuristic would be meaningless.
    EmptyTrace { workload: String },
    /// A serving mix failed validation or composition (zero requests,
    /// zero seq_len, more partitioned requests than cores, …).
    InvalidMix(String),
    /// An open-system serve scenario failed validation or composition
    /// (zero requests, invalid arrival schedule, more continuous-batching
    /// slots than cores, …).
    InvalidServe(String),
    /// A tiered KV store failed validation (zero warm capacity,
    /// zero-byte blocks, a dead slow-tier link, …).
    InvalidKv(String),
    /// An explicit cycle budget of zero can never complete.
    ZeroCycleBudget,
    /// The derived cycle budget (latest arrival + load-traffic bound +
    /// slack) does not fit in a `u64`.
    CycleBudgetOverflow { last_arrival: u64, load_bytes: u64 },
    /// A speedup ratio against a zero-cycle run is undefined.
    ZeroCycleSpeedup { detail: String },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::InvalidConfig(msg) => write!(f, "invalid system configuration: {msg}"),
            ExperimentError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            ExperimentError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
            ExperimentError::EmptyTrace { workload } => {
                write!(f, "workload `{workload}` generated a zero-byte trace")
            }
            ExperimentError::InvalidMix(msg) => write!(f, "invalid mix: {msg}"),
            ExperimentError::InvalidServe(msg) => write!(f, "invalid serve scenario: {msg}"),
            ExperimentError::InvalidKv(msg) => write!(f, "invalid kv tier: {msg}"),
            ExperimentError::ZeroCycleBudget => write!(f, "explicit cycle budget is zero"),
            ExperimentError::CycleBudgetOverflow {
                last_arrival,
                load_bytes,
            } => write!(
                f,
                "derived cycle budget overflows u64 (last arrival {last_arrival}, \
                 {load_bytes} load bytes)"
            ),
            ExperimentError::ZeroCycleSpeedup { detail } => {
                write!(f, "speedup undefined: {detail}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One experiment: workload, policy and machine overrides.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The operator under test (open world — see
    /// [`llamcat_trace::workloads`]). For mix experiments this holds
    /// the first request's workload; the trace comes from `mix`.
    pub workload: Arc<dyn Workload>,
    /// Multi-tenant serving mix; when set, the trace is the mix's
    /// request-tagged composition instead of the solo `workload`.
    pub mix: Option<WorkloadMix>,
    /// Open-system serve scenario; when set, requests are injected
    /// mid-run by a [`RequestInjector`] under the scenario's arrival
    /// schedule and serving policy instead of being scheduled up front.
    pub serve: Option<ServeSpec>,
    /// Tiered KV store; when set, KV-tensor DRAM reads gate on the warm
    /// tier (see [`llamcat_sim::kv`]) and the report carries per-request
    /// KV hit/promotion/eviction counters.
    pub kv: Option<KvSpec>,
    pub policy: PolicySpec,
    pub config: SystemConfig,
    /// Trace generation; the trace is laid over `tracegen.num_cores`
    /// cores, which every constructor and [`Experiment::config`] keep
    /// equal to `config.num_cores`.
    pub tracegen: TraceGenConfig,
    /// Dataflow layout (paper default: output-partitioned pair streams,
    /// [`Layout::PairStream`]).
    pub layout: Layout,
    /// L-dimension tile per thread block (32 = one output line).
    pub l_tile: usize,
    /// Hard cycle budget; `None` derives one from the workload size.
    pub max_cycles: Option<u64>,
    /// How the simulator advances time. [`StepMode::Skip`] fast-forwards
    /// provably idle cycles and is byte-identical to
    /// [`StepMode::Cycle`] in every statistic (the differential suite
    /// `crates/sim/tests/step_mode_equiv.rs` pins this across the whole
    /// policy grid); `Cycle` remains the default reference mode.
    pub step_mode: StepMode,
}

impl Experiment {
    /// An experiment over any [`Workload`] on the Table 5 machine.
    pub fn with_workload(workload: Arc<dyn Workload>) -> Self {
        let config = SystemConfig::table5();
        Experiment {
            workload,
            mix: None,
            serve: None,
            kv: None,
            policy: PolicySpec::unoptimized(),
            tracegen: TraceGenConfig {
                num_cores: config.num_cores,
                vector_len_bytes: config.core.vector_len_bytes,
                ..Default::default()
            },
            config,
            layout: Layout::default(),
            l_tile: 32,
            max_cycles: None,
            step_mode: StepMode::default(),
        }
    }

    /// Instantiates a serialized workload family at one sequence length.
    pub fn from_spec(workload: &WorkloadSpec, seq_len: usize) -> Self {
        Experiment::with_workload(workload.instantiate(seq_len))
    }

    /// An experiment over a multi-tenant serving mix. The mix must hold
    /// at least one request ([`Experiment::try_run`] rejects empty
    /// mixes gracefully; this constructor panics on them).
    pub fn with_mix(mix: WorkloadMix) -> Self {
        let first = mix
            .requests
            .first()
            .expect("mix must hold at least one request")
            .workload
            .clone();
        let mut e = Experiment::with_workload(first);
        e.mix = Some(mix);
        e
    }

    /// Instantiates a serialized [`MixSpec`].
    pub fn from_mix_spec(spec: &MixSpec) -> Result<Self, ExperimentError> {
        spec.validate().map_err(ExperimentError::InvalidMix)?;
        Ok(Experiment::with_mix(spec.instantiate()))
    }

    /// Instantiates a serialized open-system [`ServeSpec`]: requests
    /// arrive mid-run under the scenario's seeded arrival schedule and
    /// are admitted by its serving policy.
    pub fn from_serve_spec(spec: &ServeSpec) -> Result<Self, ExperimentError> {
        let mut e = Experiment::with_workload(spec.workload.instantiate(spec.seq_len));
        spec.validate(e.config.num_cores)
            .map_err(ExperimentError::InvalidServe)?;
        e.serve = Some(spec.clone());
        Ok(e)
    }

    pub fn policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Attaches a tiered KV store below the LLC.
    pub fn kv(mut self, kv: KvSpec) -> Self {
        self.kv = Some(kv);
        self
    }

    /// Overrides total L2 capacity (Fig 9 sweeps 16/32/64 MB).
    pub fn l2_mb(mut self, mb: u64) -> Self {
        self.config = self.config.with_l2_mb(mb);
        self
    }

    /// Replaces the whole machine configuration.
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.tracegen.num_cores = config.num_cores;
        self.tracegen.vector_len_bytes = config.core.vector_len_bytes;
        self.config = config;
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

    /// Selects the simulation step mode (default: cycle-accurate).
    pub fn step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Composes the serve scenario's trace, with its cycle budget.
    fn serve_program(&self, spec: &ServeSpec) -> Result<(Program, u64), ExperimentError> {
        spec.validate(self.config.num_cores)
            .map_err(ExperimentError::InvalidServe)?;
        let requests: Vec<Arc<dyn Workload>> =
            vec![spec.workload.instantiate(spec.seq_len); spec.num_requests];
        let (program, meta) = generate_serve_set(
            &requests,
            spec.cores_per_request(self.config.num_cores),
            self.layout,
            self.l_tile,
            &self.tracegen,
        )
        .map_err(ExperimentError::InvalidServe)?;
        if meta.total_load_bytes == 0 {
            return Err(ExperimentError::EmptyTrace {
                workload: spec.label(),
            });
        }
        let last_arrival = spec.request_arrivals().last().copied().unwrap_or(0);
        let budget = self.cycle_budget(last_arrival, meta.total_load_bytes)?;
        Ok((program, budget))
    }

    /// The serve scenario's request injector over its composed trace.
    fn serve_injector(
        &self,
        spec: &ServeSpec,
        program: &Program,
    ) -> Result<RequestInjector, ExperimentError> {
        let injector = RequestInjector::new(
            program,
            spec.request_arrivals(),
            spec.scheduler.to_sim(),
            self.config.num_cores,
            self.config.core.num_inst_windows,
        )
        .map_err(ExperimentError::InvalidServe)?;
        if spec.classes.is_empty() {
            return Ok(injector);
        }
        injector
            .with_classes(spec.padded_classes())
            .map_err(ExperimentError::InvalidServe)
    }

    /// Validates the experiment's trace inputs and generates its trace,
    /// with the run's cycle budget.
    fn checked_program(&self) -> Result<(Program, u64), ExperimentError> {
        if let Some(spec) = &self.serve {
            return self.serve_program(spec);
        }
        if let Some(mix) = &self.mix {
            let (program, meta) = mix
                .generate(self.layout, self.l_tile, &self.tracegen)
                .map_err(ExperimentError::InvalidMix)?;
            if meta.total_load_bytes == 0 {
                return Err(ExperimentError::EmptyTrace {
                    workload: mix.label(),
                });
            }
            let latest_arrival = mix.requests.iter().map(|r| r.arrival).max().unwrap_or(0);
            let budget = self.cycle_budget(latest_arrival, meta.total_load_bytes)?;
            return Ok((program, budget));
        }
        self.workload
            .validate()
            .map_err(ExperimentError::InvalidWorkload)?;
        let (program, meta) = self
            .workload
            .lower(self.layout, self.l_tile, &self.tracegen)
            .map_err(ExperimentError::InvalidMapping)?;
        if meta.total_load_bytes == 0 {
            return Err(ExperimentError::EmptyTrace {
                workload: self.workload.label(),
            });
        }
        let budget = self.cycle_budget(0, meta.total_load_bytes)?;
        Ok((program, budget))
    }

    /// The run's cycle budget: the explicit `max_cycles`, or one derived
    /// from the trace — the latest arrival, plus the assumption that the
    /// machine moves no less than 4 bytes of load traffic per cycle
    /// overall, plus fixed slack.
    fn cycle_budget(&self, last_arrival: u64, load_bytes: u64) -> Result<u64, ExperimentError> {
        match self.max_cycles {
            Some(0) => Err(ExperimentError::ZeroCycleBudget),
            Some(cycles) => Ok(cycles),
            None => last_arrival.checked_add(load_bytes / 4 + 20_000_000).ok_or(
                ExperimentError::CycleBudgetOverflow {
                    last_arrival,
                    load_bytes,
                },
            ),
        }
    }

    /// Validates the experiment and builds its system — trace, program
    /// mapping, flat program, component preallocation, injector and KV
    /// tier — pre-tick under `policy`, with the run's cycle budget.
    fn build_system(
        &self,
        policy: &PolicySpec,
    ) -> Result<(System<ArbiterKind, ThrottleKind>, u64), ExperimentError> {
        self.config
            .validate()
            .map_err(ExperimentError::InvalidConfig)?;
        if let Some(kv) = &self.kv {
            kv.validate().map_err(ExperimentError::InvalidKv)?;
        }
        let (program, budget) = self.checked_program()?;
        let injector = match &self.serve {
            Some(spec) => Some(self.serve_injector(spec, &program)?),
            None => None,
        };
        let mut system = System::new(
            self.config,
            program,
            &|_slice| policy.arb.build_kind_for(&self.config.l2),
            policy.throttle.build_kind(),
        );
        if let Some(injector) = injector {
            system.attach_injector(injector);
        }
        if let Some(kv) = &self.kv {
            system.attach_kv(kv.to_config());
        }
        Ok((system, budget))
    }

    /// Generates the trace for this experiment (exposed for inspection).
    ///
    /// Panics on invalid workload/mapping; [`Experiment::try_run`]
    /// reports those gracefully.
    pub fn build_program(&self) -> Program {
        self.checked_program().expect("experiment must be valid").0
    }

    /// Runs the experiment to completion, rejecting degenerate inputs.
    ///
    /// The system is built over the registry's policy enums
    /// (`System<ArbiterKind, ThrottleKind>`), so the whole tick loop
    /// monomorphizes.
    pub fn try_run(&self) -> Result<RunReport, ExperimentError> {
        let (mut system, budget) = self.build_system(&self.policy)?;
        let (stats, outcome) = system.run_with_mode(budget, self.step_mode);
        Ok(RunReport::from_stats(self, stats, outcome))
    }

    /// Builds this experiment's scenario — trace generation, program
    /// mapping, flat-program build, component preallocation, injector
    /// and KV tier — once, and freezes it pre-tick as a policy-neutral
    /// base snapshot. [`Experiment::run_forked`] then stamps any policy
    /// onto an independent fork.
    ///
    /// The experiment's own `policy` is ignored: everything captured is
    /// policy independent. Policies influence behaviour from the very
    /// first cycle (the throttle's sweep runs at cycle 0), so the
    /// snapshot is taken before any tick — the amortized work is the
    /// expensive scenario build, not simulated cycles.
    pub fn snapshot_scenario(&self) -> Result<ScenarioSnapshot, ExperimentError> {
        let (system, budget) = self.build_system(&PolicySpec::unoptimized())?;
        Ok(ScenarioSnapshot {
            state: SystemState::from(system),
            budget,
        })
    }

    /// Runs this experiment on a fork of `base` instead of building the
    /// scenario from scratch: the fork swaps in this experiment's
    /// policies (fresh, reset exactly as construction would) and runs
    /// under the snapshot's cycle budget.
    ///
    /// `base` must have been produced by [`Experiment::snapshot_scenario`]
    /// on an experiment identical up to `policy` and `step_mode`; the
    /// result is then byte-identical to [`Experiment::try_run`]
    /// (`crates/sim/tests/fork_equiv.rs` pins this across the golden
    /// policy matrix and the mix, serve and KV-tier scenario families).
    pub fn run_forked(&self, base: &ScenarioSnapshot) -> Result<RunReport, ExperimentError> {
        let mut system = base.state.fork();
        system.replace_policies(
            &|_slice| self.policy.arb.build_kind_for(&self.config.l2),
            self.policy.throttle.build_kind(),
        );
        let (stats, outcome) = system.run_with_mode(base.budget, self.step_mode);
        Ok(RunReport::from_stats(self, stats, outcome))
    }

    /// Runs the experiment to completion.
    ///
    /// Panics on degenerate inputs (invalid shape, zero-byte trace,
    /// zero cycle budget); use [`Experiment::try_run`] for a graceful
    /// error.
    pub fn run(&self) -> RunReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("experiment failed: {e}"),
        }
    }
}

/// A policy-neutral, pre-tick base system for one scenario — the
/// workload/mix/serve/KV/machine combination, everything except the
/// policy pair — produced by [`Experiment::snapshot_scenario`] and
/// forked (any number of times) by [`Experiment::run_forked`].
///
/// Cells sharing a scenario fork it to pay trace generation and system
/// construction once instead of once per policy.
pub struct ScenarioSnapshot {
    state: SystemState<ArbiterKind, ThrottleKind>,
    budget: u64,
}

impl ScenarioSnapshot {
    /// The cycle budget derived for (or configured on) the scenario.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// Per-request (tenant) results of one run: completion timing plus the
/// request's LLC interference profile. Solo runs report exactly one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestReport {
    /// Request id (index into the mix, 0 for solo runs).
    pub request: u32,
    /// The request's workload label.
    pub label: String,
    /// Cycle at which the request arrived.
    pub arrival: u64,
    /// Whether every thread block of the request retired in budget.
    pub completed: bool,
    /// Cycles from arrival to the retirement of the request's last
    /// thread block (0 when not completed).
    pub cycles: u64,
    /// Cycle at which a serving scheduler admitted the request to the
    /// machine (equals `arrival` for closed runs; `None` when the run
    /// ended with the request still queued).
    #[serde(default)]
    pub admitted: Option<u64>,
    /// Time to first token: cycles from arrival to the first retired
    /// thread block (`None` until one retires).
    #[serde(default)]
    pub ttft: Option<u64>,
    /// Mean time between tokens: cycles per thread block after the
    /// first (`None` unless the request completed with >= 2 blocks).
    #[serde(default)]
    pub mean_tbt: Option<f64>,
    /// Cycles the request waited in the admission queue (0 for closed
    /// runs; `None` when never admitted).
    #[serde(default)]
    pub queue_delay: Option<u64>,
    /// Cycle at which the admission policy terminally rejected or
    /// deadline-dropped the request (`None` everywhere else; a rejected
    /// request never admits and never completes).
    #[serde(default)]
    pub rejected: Option<u64>,
    /// Times the request was preempted (its unissued blocks withdrawn
    /// back to the admission queue by a higher-class arrival).
    #[serde(default)]
    pub preemptions: u32,
    /// Serving priority class (0 = best-effort): the mix request's
    /// class for mix runs, the serve spec's for serve runs, 0 for solo
    /// runs.
    #[serde(default)]
    pub class: u8,
    /// Verdict against the scenario's SLO (`None` when no SLO was
    /// configured).
    #[serde(default)]
    pub slo: Option<SloOutcome>,
    pub blocks_total: u64,
    pub blocks_completed: u64,
    /// LLC lookups attributed to the request.
    pub llc_lookups: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub mshr_merges: u64,
    /// LLC pipeline stall cycles charged to the request.
    pub llc_stall_cycles: u64,
    /// KV-tier lookups attributed to the request (0 without a tier).
    #[serde(default)]
    pub kv_lookups: u64,
    /// Warm-tier hits.
    #[serde(default)]
    pub kv_hits: u64,
    /// Cold misses that started a promotion from the slow tier.
    #[serde(default)]
    pub kv_misses: u64,
    /// Reads merged into an already-in-flight promotion.
    #[serde(default)]
    pub kv_merges: u64,
    /// Warm blocks of this request evicted under capacity pressure.
    #[serde(default)]
    pub kv_evictions: u64,
}

impl RequestReport {
    /// The request's own L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.llc_lookups == 0 {
            return 0.0;
        }
        self.llc_hits as f64 / self.llc_lookups as f64
    }

    /// The request's own warm-tier KV hit rate (0 without a tier).
    pub fn kv_hit_rate(&self) -> f64 {
        if self.kv_lookups == 0 {
            return 0.0;
        }
        self.kv_hits as f64 / self.kv_lookups as f64
    }
}

/// Run-level SLO attainment: how much of the offered load turned into
/// *useful* (deadline-meeting) completions. The serving literature's
/// goodput metric, in simulator units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// The TTFT deadline the verdicts were judged against (cycles).
    pub ttft_deadline: u64,
    /// The mean-TBT deadline, when one was configured.
    #[serde(default)]
    pub tbt_deadline: Option<u64>,
    /// Requests that completed within every deadline.
    pub met: usize,
    /// Admitted (or still queued) requests that blew a deadline or
    /// never finished in budget.
    pub missed: usize,
    /// Requests terminally rejected or deadline-dropped by the
    /// admission policy.
    pub rejected: usize,
    /// `met / num_requests` — the SLO attainment fraction.
    pub attainment: f64,
    /// SLO-met completions per million cycles — goodput. Comparable
    /// across policies at a fixed arrival schedule: admission control
    /// trades raw throughput for goodput under overload.
    pub goodput_per_mcycle: f64,
}

/// Results of one experiment, with the metrics the paper plots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    pub policy_label: String,
    pub workload_label: String,
    pub seq_len: usize,
    pub l2_mb: u64,
    pub completed: bool,
    /// Execution cycles (lower is better; speedups are ratios of these).
    pub cycles: u64,
    pub l2_hit_rate: f64,
    /// Merges / cache misses (the paper's MSHR hit rate).
    pub mshr_hit_rate: f64,
    /// Mean numEntry occupancy fraction.
    pub mshr_entry_util: f64,
    pub dram_bandwidth_gbs: f64,
    pub dram_accesses: u64,
    /// Proportion of cache-stall cycles.
    pub t_cs: f64,
    pub l1_hit_rate: f64,
    pub mean_load_latency: f64,
    pub tb_migrations: u64,
    pub row_hit_rate: f64,
    /// Per-request (tenant) breakdowns, in request order. Solo runs
    /// carry exactly one entry.
    #[serde(default)]
    pub requests: Vec<RequestReport>,
    /// SLO attainment and goodput (`None` unless the serve scenario
    /// configured an [`crate::spec::SloSpec`]).
    #[serde(default)]
    pub slo: Option<SloReport>,
    /// KV-tier totals (`None` when no tier was attached).
    #[serde(default)]
    pub kv: Option<KvTierStats>,
    /// Full component statistics for deep dives.
    #[serde(skip)]
    pub stats: Option<SimStats>,
}

impl RunReport {
    fn from_stats(exp: &Experiment, stats: SimStats, outcome: RunOutcome) -> Self {
        // A closed mix names and classes its requests; the simulator
        // sees neither.
        let mix_request = |i: usize| exp.mix.as_ref().map(|mix| &mix.requests[i]);
        let slo_spec = exp.serve.as_ref().and_then(|s| s.slo);
        let requests: Vec<RequestReport> = stats
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| RequestReport {
                request: i as u32,
                label: mix_request(i).map_or_else(|| exp.workload.label(), |m| m.workload.label()),
                arrival: r.arrival,
                completed: r.completed,
                cycles: r.cycles_to_completion(),
                admitted: r.admitted,
                ttft: r.ttft(),
                mean_tbt: r.mean_tbt(),
                queue_delay: r.queue_delay(),
                rejected: r.rejected,
                preemptions: r.preemptions,
                class: mix_request(i).map_or(r.class, |m| m.class),
                slo: slo_spec.map(|s| r.slo_outcome(s.ttft_deadline, s.tbt_deadline)),
                blocks_total: r.blocks_total,
                blocks_completed: r.blocks_completed,
                llc_lookups: r.llc.lookups,
                llc_hits: r.llc.hits,
                llc_misses: r.llc.misses,
                mshr_merges: r.llc.mshr_merges,
                llc_stall_cycles: r.llc.stall_cycles,
                kv_lookups: r.kv.lookups,
                kv_hits: r.kv.hits,
                kv_misses: r.kv.misses,
                kv_merges: r.kv.merges,
                kv_evictions: r.kv.evictions,
            })
            .collect();
        let slo = slo_spec.map(|s| {
            let count = |o: SloOutcome| requests.iter().filter(|r| r.slo == Some(o)).count();
            let (met, missed, rejected) = (
                count(SloOutcome::Met),
                count(SloOutcome::Missed),
                count(SloOutcome::Rejected),
            );
            let total = requests.len().max(1);
            SloReport {
                ttft_deadline: s.ttft_deadline,
                tbt_deadline: s.tbt_deadline,
                met,
                missed,
                rejected,
                attainment: met as f64 / total as f64,
                goodput_per_mcycle: if stats.cycles == 0 {
                    0.0
                } else {
                    met as f64 * 1e6 / stats.cycles as f64
                },
            }
        });
        let (workload_label, seq_len) = if let Some(spec) = &exp.serve {
            (spec.label(), spec.seq_len)
        } else {
            match &exp.mix {
                Some(mix) => (
                    mix.label(),
                    mix.requests
                        .iter()
                        .map(|r| r.workload.shape().seq_len)
                        .max()
                        .unwrap_or(0),
                ),
                None => (exp.workload.label(), exp.workload.shape().seq_len),
            }
        };
        RunReport {
            policy_label: exp.policy.label(),
            workload_label,
            seq_len,
            l2_mb: exp.config.l2.capacity_bytes / (1024 * 1024),
            completed: outcome.is_complete(),
            cycles: stats.cycles,
            l2_hit_rate: stats.l2_hit_rate(),
            mshr_hit_rate: stats.mshr_hit_rate(),
            mshr_entry_util: stats.mshr_entry_util(exp.config.l2.mshr_entries),
            dram_bandwidth_gbs: stats.dram_bandwidth_gbs(),
            dram_accesses: stats.dram_accesses(),
            t_cs: stats.t_cs(),
            l1_hit_rate: stats.l1_hit_rate(),
            mean_load_latency: stats.mean_load_latency(),
            tb_migrations: stats.tb_migrations,
            row_hit_rate: stats.row_hit_rate(),
            requests,
            slo,
            kv: stats.kv.clone(),
            stats: Some(stats),
        }
    }

    /// Speedup of `self` relative to `baseline` (cycles ratio),
    /// rejecting zero-cycle degenerate inputs.
    pub fn try_speedup_over(&self, baseline: &RunReport) -> Result<f64, ExperimentError> {
        if baseline.cycles == 0 || self.cycles == 0 {
            return Err(ExperimentError::ZeroCycleSpeedup {
                detail: format!(
                    "baseline `{}` ran {} cycles, `{}` ran {} cycles",
                    baseline.policy_label, baseline.cycles, self.policy_label, self.cycles
                ),
            });
        }
        Ok(baseline.cycles as f64 / self.cycles as f64)
    }

    /// Speedup of `self` relative to `baseline` (cycles ratio).
    ///
    /// Panics if either run recorded zero cycles; use
    /// [`RunReport::try_speedup_over`] for a graceful error.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        match self.try_speedup_over(baseline) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Geometric mean of a slice of speedups (the paper's summary
/// statistic). Empty input yields 0.0 (an impossible speedup,
/// deliberately conspicuous).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamcat_trace::workload::LogitOp;
    use llamcat_trace::workloads::{AttnOutputWorkload, LogitWorkload, PrefillLogitWorkload};

    #[test]
    fn policy_labels_match_figures() {
        assert_eq!(PolicySpec::unoptimized().label(), "unoptimized");
        assert_eq!(PolicySpec::dynmg().label(), "dynmg");
        assert_eq!(PolicySpec::dynmg_bma().label(), "dynmg+BMA");
        assert_eq!(PolicySpec::dynmg_cobrra().label(), "dynmg+cobrra");
        assert_eq!(PolicySpec::cobrra().label(), "cobrra");
        assert_eq!(PolicySpec::lcs().label(), "lcs");
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn tiny_experiment_completes() {
        let report = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128).run();
        assert!(report.completed, "tiny workload must finish");
        assert!(report.cycles > 0);
        assert!(report.dram_accesses > 0);
        assert_eq!(report.l2_mb, 16);
        assert_eq!(report.workload_label, "llama3 70b");
    }

    #[test]
    fn open_workloads_run_through_the_same_api() {
        let op = LogitOp {
            heads: 2,
            group_size: 4,
            seq_len: 128,
            head_dim: 128,
        };
        let av = Experiment::with_workload(Arc::new(AttnOutputWorkload::new(op)))
            .policy(PolicySpec::dynmg_bma())
            .run();
        assert!(av.completed);
        assert_eq!(av.workload_label, "attn-out h2 g4 d128");

        let pf = Experiment::with_workload(Arc::new(PrefillLogitWorkload::new(op, 4))).run();
        assert!(pf.completed);
        assert!(pf.cycles > 0);
    }

    #[test]
    fn policies_produce_different_machines_but_same_work() {
        let base = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128);
        let a = base.clone().policy(PolicySpec::unoptimized()).run();
        let b = base.policy(PolicySpec::dynmg_bma()).run();
        assert!(a.completed && b.completed);
        // Same trace: store traffic identical (reads may differ by reuse).
        let sa = a.stats.as_ref().unwrap();
        let sb = b.stats.as_ref().unwrap();
        let stores = |s: &SimStats| -> u64 { s.cores.iter().map(|c| c.stores).sum() };
        assert_eq!(stores(sa), stores(sb));
    }

    #[test]
    fn l2_size_override() {
        let e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128).l2_mb(32);
        assert_eq!(e.config.l2.capacity_bytes, 32 * 1024 * 1024);
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || {
            Experiment::from_spec(&WorkloadSpec::llama3_405b(), 128)
                .policy(PolicySpec::dynmg_bma())
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dram_accesses, b.dram_accesses);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        // Zero-cycle budget.
        let err = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
            .max_cycles(0)
            .try_run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::ZeroCycleBudget);

        // Invalid shape (zero-dim operator would produce an empty trace).
        let bad = LogitOp {
            heads: 0,
            group_size: 1,
            seq_len: 128,
            head_dim: 128,
        };
        let err = Experiment::with_workload(Arc::new(LogitWorkload::new(bad)))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::InvalidWorkload(_)));

        // l_tile not dividing seq_len.
        let mut e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128);
        e.l_tile = 48;
        assert!(matches!(
            e.try_run().unwrap_err(),
            ExperimentError::InvalidMapping(_)
        ));
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let base = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128);
        let mut three_slices = SystemConfig::table5();
        three_slices.l2.num_slices = 3;
        let mut endless_noc = SystemConfig::table5();
        endless_noc.noc.req_base = u64::MAX;
        for cfg in [three_slices, endless_noc] {
            let e = base.clone().config(cfg);
            assert!(matches!(
                e.try_run(),
                Err(ExperimentError::InvalidConfig(_))
            ));
            assert!(matches!(
                e.snapshot_scenario().err(),
                Some(ExperimentError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn solo_runs_report_one_request() {
        let report = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128).run();
        assert_eq!(report.requests.len(), 1);
        let r = &report.requests[0];
        assert!(r.completed);
        assert_eq!(r.request, 0);
        assert_eq!(r.label, "llama3 70b");
        assert_eq!(r.blocks_completed, r.blocks_total);
        assert!(r.cycles > 0 && r.cycles <= report.cycles);
        assert_eq!(
            r.llc_lookups,
            report.stats.as_ref().unwrap().l2_lookups(),
            "solo run: request 0 owns every lookup"
        );
    }

    #[test]
    fn mix_experiment_reports_per_request_completion() {
        use crate::spec::MixSpec;
        let spec = MixSpec::interleaved()
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
            );
        let report = Experiment::from_mix_spec(&spec).unwrap().run();
        assert!(report.completed);
        assert_eq!(report.requests.len(), 2);
        assert_eq!(report.requests[0].label, "llama3 70b");
        assert_eq!(report.requests[1].label, "prefill h8 g8 d128 q4");
        let stats = report.stats.as_ref().unwrap();
        stats.check_consistency().unwrap();
        for r in &report.requests {
            assert!(r.completed);
            assert!(r.cycles > 0);
            assert!(r.llc_lookups > 0, "both tenants reached the LLC");
        }
        // The machine finishes when the slower tenant does (both start
        // at cycle 0, so the slower tenant bounds the run).
        let slowest = report.requests.iter().map(|r| r.cycles).max().unwrap();
        assert!(slowest <= report.cycles);
    }

    #[test]
    fn mix_experiment_reports_request_classes() {
        use crate::spec::{MixSpec, RequestSpec};
        let mut spec = MixSpec::partitioned().request(WorkloadSpec::llama3_70b(), 128, 0);
        spec.requests
            .push(RequestSpec::new(WorkloadSpec::llama3_70b(), 128).with_class(2));
        let exp = Experiment::from_mix_spec(&spec).unwrap();
        assert!(exp.mix.as_ref().unwrap().label().ends_with("#c2]"));
        let report = exp.run();
        let classes: Vec<u8> = report.requests.iter().map(|r| r.class).collect();
        assert_eq!(classes, vec![0, 2]);
    }

    #[test]
    fn staggered_arrival_delays_a_request() {
        use crate::spec::MixSpec;
        let arrival = 50_000;
        let spec = MixSpec::partitioned()
            .request(WorkloadSpec::llama3_70b(), 128, 0)
            .request(WorkloadSpec::llama3_70b(), 128, arrival);
        let report = Experiment::from_mix_spec(&spec).unwrap().run();
        assert!(report.completed);
        let late = &report.requests[1];
        assert_eq!(late.arrival, arrival);
        assert!(
            report.cycles >= arrival,
            "the run cannot end before the late tenant arrives"
        );
        assert!(late.completed && late.cycles > 0);
    }

    #[test]
    fn degenerate_mixes_rejected_at_experiment_level() {
        use crate::spec::MixSpec;
        assert!(matches!(
            Experiment::from_mix_spec(&MixSpec::partitioned()).unwrap_err(),
            ExperimentError::InvalidMix(_)
        ));
        let zero_seq = MixSpec::partitioned().request(WorkloadSpec::llama3_70b(), 0, 0);
        assert!(Experiment::from_mix_spec(&zero_seq).is_err());
        // More partitioned tenants than cores is caught at run time.
        let mut spec = MixSpec::partitioned();
        for _ in 0..17 {
            spec = spec.request(WorkloadSpec::llama3_70b(), 128, 0);
        }
        let e = Experiment::from_mix_spec(&spec).unwrap();
        assert!(matches!(
            e.try_run().unwrap_err(),
            ExperimentError::InvalidMix(_)
        ));
    }

    #[test]
    fn serve_experiment_tracks_latencies_and_matches_modes() {
        use crate::spec::{ArrivalSpec, ServePolicySpec, ServeSpec};
        let spec = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            3,
            ArrivalSpec::Fixed {
                period: 2_000,
                start: 0,
            },
        )
        .scheduler(ServePolicySpec::ContinuousBatching { slots: 2 });
        let exp = Experiment::from_serve_spec(&spec)
            .unwrap()
            .policy(PolicySpec::dynmg_bma());
        let cycle = exp.clone().step_mode(StepMode::Cycle).run();
        let skip = exp.step_mode(StepMode::Skip).run();
        assert!(cycle.completed);
        assert_eq!(cycle.requests.len(), 3);
        for (c, s) in cycle.requests.iter().zip(&skip.requests) {
            assert_eq!(c, s, "Skip must report byte-identical request stats");
            assert!(c.completed);
            let admitted = c.admitted.expect("admitted");
            assert!(admitted >= c.arrival);
            assert_eq!(c.queue_delay, Some(admitted - c.arrival));
            assert!(c.ttft.expect("ttft") >= 1);
            assert!(c.mean_tbt.expect("tbt") > 0.0);
        }
        assert_eq!(cycle.cycles, skip.cycles);
        assert!(cycle.workload_label.starts_with("serve:cb2["));
    }

    #[test]
    fn degenerate_serves_rejected_at_experiment_level() {
        use crate::spec::{ArrivalSpec, ServePolicySpec, ServeSpec};
        let base = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            2,
            ArrivalSpec::Fixed {
                period: 100,
                start: 0,
            },
        );
        let zero = ServeSpec {
            num_requests: 0,
            ..base.clone()
        };
        assert!(matches!(
            Experiment::from_serve_spec(&zero).unwrap_err(),
            ExperimentError::InvalidServe(_)
        ));
        // Too many slots for the machine is caught against the actual
        // config at run time even if the spec was built elsewhere.
        let mut e = Experiment::from_serve_spec(&base).unwrap();
        e.serve = Some(base.scheduler(ServePolicySpec::ContinuousBatching { slots: 999 }));
        assert!(matches!(
            e.try_run().unwrap_err(),
            ExperimentError::InvalidServe(_)
        ));
    }

    /// An arrival near `u64::MAX` pushes the derived budget past the
    /// top of the range: every construction path rejects it with a typed
    /// error instead of overflowing (debug) or wrapping into a tiny
    /// budget that silently cuts the run short (release).
    #[test]
    fn derived_budget_overflow_is_an_error() {
        use crate::spec::{ArrivalSpec, ServeSpec};
        let late = u64::MAX - 5;
        let serve = ServeSpec::new(
            WorkloadSpec::llama3_70b(),
            128,
            2,
            ArrivalSpec::Trace {
                cycles: vec![0, late],
            },
        );
        let serve = Experiment::from_serve_spec(&serve)
            .unwrap()
            .step_mode(StepMode::Skip);
        let mix = MixSpec::interleaved()
            .request(WorkloadSpec::llama3_70b(), 128, 0)
            .request(WorkloadSpec::llama3_70b(), 128, late);
        let mix = Experiment::from_mix_spec(&mix).unwrap();
        for e in [serve, mix] {
            for err in [
                e.try_run().unwrap_err(),
                e.snapshot_scenario().err().unwrap(),
            ] {
                assert!(
                    matches!(
                        err,
                        ExperimentError::CycleBudgetOverflow {
                            last_arrival,
                            ..
                        } if last_arrival == late
                    ),
                    "{err}"
                );
            }
            // An explicit budget bypasses the derivation.
            assert!(e.max_cycles(1_000).try_run().is_ok());
        }
    }

    #[test]
    fn kv_tier_attaches_reports_counters_and_matches_modes() {
        let base = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
            .policy(PolicySpec::dynmg_bma())
            .kv(KvSpec::lru(16));
        let cycle = base.clone().step_mode(StepMode::Cycle).run();
        let skip = base.step_mode(StepMode::Skip).run();
        assert!(cycle.completed);
        let kv = cycle.kv.as_ref().expect("tier totals present");
        assert!(kv.lookups > 0, "KV tensors reached the tier");
        assert!(kv.promotions > 0, "a 16-block warm tier must promote");
        assert_eq!(kv.lookups, kv.hits + kv.misses + kv.merges);
        // Per-request counters surface in the report and partition the
        // totals (solo run: request 0 owns everything).
        let r = &cycle.requests[0];
        assert_eq!(r.kv_lookups, kv.lookups);
        assert_eq!(r.kv_hits, kv.hits);
        assert!(r.kv_hit_rate() > 0.0);
        cycle.stats.as_ref().unwrap().check_consistency().unwrap();
        // Skip mode is byte-identical with the tier attached.
        assert_eq!(cycle.cycles, skip.cycles);
        assert_eq!(cycle.kv, skip.kv);
        assert_eq!(cycle.requests, skip.requests);
        // The tier slows the run relative to an all-warm machine.
        let no_tier = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
            .policy(PolicySpec::dynmg_bma())
            .run();
        assert!(cycle.cycles > no_tier.cycles, "promotions cost cycles");

        // Degenerate tiers are rejected gracefully.
        let err = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
            .kv(KvSpec::lru(0))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::InvalidKv(_)));
    }

    #[test]
    fn zero_cycle_speedup_is_an_error() {
        let a = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128).run();
        let mut b = a.clone();
        b.cycles = 0;
        assert!(a.try_speedup_over(&b).is_err());
        assert!(b.try_speedup_over(&a).is_err());
        assert!(a.try_speedup_over(&a).unwrap() == 1.0);
    }
}
