//! # llamcat — Cache Arbitration and Throttling for LLM inference
//!
//! Reference implementation of the LLaMCAT policies (ICPP 2025):
//! optimizing the last-level cache *miss-handling architecture* for the
//! memory-bound LLM decode stage.
//!
//! The paper's contribution is **CAT**, three cooperating mechanisms at
//! the LLC arbiter and the cores:
//!
//! * **Balanced arbitration ("B")** — per-core progress counters; the
//!   arbiter serves the least-served core first
//!   ([`arbiter::BalancedArbiter`]);
//! * **MSHR-aware arbitration ("MA" / "BMA")** — a hit buffer,
//!   `sent_reqs` ring and the live MSHR file let the arbiter
//!   prioritize speculated cache hits and MSHR hits, keeping the miss
//!   pipeline from stalling ([`arbiter::MshrAwareArbiter`]);
//! * **Two-level dynamic multi-gear throttling ("dynmg")** — a global
//!   gear (driven by the cache-stall proportion `t_cs`) selects *how
//!   many* of the fastest cores to throttle, while an in-core DYNCTA-like
//!   controller selects *how much*, on a faster timescale
//!   ([`throttle::DynMg`]).
//!
//! The published baselines the paper compares against are implemented
//! alongside: DYNCTA ([`throttle::Dyncta`]), LCS ([`throttle::Lcs`]) and
//! COBRRA ([`arbiter::CobrraArbiter`]).
//!
//! [`experiment`] offers a one-call API from (workload, policy) to a
//! finished cycle-level simulation — the workload side is the open
//! [`Workload`](llamcat_trace::workloads::Workload) trait with the
//! paper's two Llama3 shapes as presets; [`spec`] makes policies
//! serializable data with a stable-name registry; [`area`] reproduces
//! the Section 6.1 hardware-cost evaluation analytically.
//!
//! ## Quick start
//!
//! ```
//! use llamcat::experiment::Experiment;
//! use llamcat::spec::PolicySpec;
//! use llamcat_trace::workloads::WorkloadSpec;
//!
//! let model = WorkloadSpec::llama3_70b();
//! let unopt = Experiment::from_spec(&model, 256).run();
//! let ours = Experiment::from_spec(&model, 256)
//!     .policy(PolicySpec::dynmg_bma())
//!     .run();
//! assert!(unopt.completed && ours.completed);
//! println!("speedup: {:.2}x", ours.speedup_over(&unopt));
//! ```

pub mod arbiter;
pub mod area;
pub mod experiment;
pub mod spec;
pub mod throttle;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::arbiter::{
        BalancedArbiter, CobrraArbiter, HitBuffer, MshrAwareArbiter, MshrAwareConfig,
        PrefixAwareArbiter, SentReqs, TieBreak,
    };
    pub use crate::area::{arbiter_area, hit_buffer_area, AreaConstants, AreaReport};
    pub use crate::experiment::{geomean, Experiment, ExperimentError, Layout, RunReport};
    pub use crate::spec::{ArbSpec, KvSpec, PolicySpec, ThrottleSpec};
    pub use crate::throttle::{Contention, DynMg, DynMgConfig, Dyncta, DynctaConfig, Lcs};
}
