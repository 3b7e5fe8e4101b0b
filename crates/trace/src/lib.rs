//! # llamcat-trace — analytical front-end of the LLaMCAT hybrid framework
//!
//! This crate is the Timeloop-class half of the paper's hybrid simulation
//! flow (Fig 6): *operator → dataflow mapping → memory trace*. It knows
//! nothing about cycles; it produces the per-core thread-block traces
//! that `llamcat-sim` executes.
//!
//! * [`workload`] — the decode-stage Logit operator (Q·Kᵀ) with GQA
//!   shapes (Llama3 70b / 405b presets) and tensor address maps;
//! * [`workloads`] — the open [`Workload`](workloads::Workload) trait
//!   (iteration space + block builder ⇒ program), impls for Logit,
//!   attention-output A·V and chunked-prefill, and the serde
//!   [`WorkloadSpec`](workloads::WorkloadSpec) campaign currency;
//! * [`mapping`] — loop-nest mapping IR with the paper's legality
//!   constraints (Section 6.2.2);
//! * [`tracegen`] — walks a mapping into an executable
//!   [`Program`](llamcat_sim::prog::Program);
//! * [`mix`] — multi-tenant serving mixes: N co-scheduled requests
//!   (mixed prefill/decode, staggered arrivals) composed into one
//!   request-tagged program via core partitioning or interleaving,
//!   plus the open-system serve-set composer;
//! * [`arrivals`] — deterministic seeded arrival processes (fixed /
//!   Poisson / bursty / trace replay) for open-system serving;
//! * [`format`](mod@format) — JSON and compact binary trace persistence.
//!
//! ## Example
//!
//! ```
//! use llamcat_trace::prelude::*;
//!
//! let op = LogitOp::llama3_70b(1024);
//! let mapping = Layout::Spatial.mapping(&op, 32, 16);
//! let (program, meta) = generate(&op, &mapping, &TraceGenConfig::default());
//! assert_eq!(meta.num_blocks, program.num_blocks());
//! // Every query head streams its group's K once:
//! assert!(meta.total_load_bytes >= op.k_bytes() * op.group_size as u64);
//! ```

pub mod arrivals;
pub mod format;
pub mod mapping;
pub mod mix;
pub mod tracegen;
pub mod workload;
pub mod workloads;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::arrivals::ArrivalSpec;
    pub use crate::format::TraceFile;
    pub use crate::mapping::{logit_mapping, Dim, Layout, Level, Loop, LoopKind, Mapping, TbOrder};
    pub use crate::mix::{
        generate_serve_set, MixAssignment, MixMeta, MixedRequest, WorkloadMix, REQUEST_VA_STRIDE,
    };
    pub use crate::tracegen::{
        generate, generate_default, generate_with, TraceGenConfig, TraceMeta,
    };
    pub use crate::workload::{LogitOp, ELEM_BYTES, K_BASE, Q_BASE, SCORE_BASE};
    pub use crate::workloads::{
        AttnOutputWorkload, LogitWorkload, PrefillLogitWorkload, Workload, WorkloadSpec, OUT_BASE,
        V_BASE,
    };
}
