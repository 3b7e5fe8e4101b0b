//! # llamcat-trace — analytical front-end of the LLaMCAT hybrid framework
//!
//! This crate is the Timeloop-class half of the paper's hybrid simulation
//! flow (Fig 6): *operator → dataflow mapping → memory trace*. It knows
//! nothing about cycles; it produces the per-core thread-block traces
//! that `llamcat-sim` executes.
//!
//! * [`workload`] — the decode-stage Logit operator (Q·Kᵀ) with GQA
//!   shapes (Llama3 70b / 405b presets): the {H, G, L, D} iteration
//!   space every workload shares, and the one tensor address map
//!   (Q, K, V, scores, partial outputs);
//! * [`workloads`] — the open [`Workload`](workloads::Workload) trait
//!   (iteration space + block builder ⇒ program), its five impls
//!   (decode Logit, attention-output A·V, chunked-prefill Logit,
//!   shared-prefix Logit and fused GQA decode), and the serde
//!   [`WorkloadSpec`](workloads::WorkloadSpec) campaign currency;
//! * [`mapping`] — loop-nest mapping IR with the paper's legality
//!   constraints (Section 6.2.2), and [`Layout`](mapping::Layout), the
//!   one selector of the four canned loop nests;
//! * [`tracegen`] — walks a mapping into an executable
//!   [`Program`](llamcat_sim::prog::Program), every thread block laid
//!   out by one shared template;
//! * [`mix`] — multi-tenant serving mixes: N co-scheduled requests
//!   (mixed prefill/decode, staggered arrivals) composed into one
//!   request-tagged program via core partitioning or interleaving,
//!   plus the open-system serve-set composer;
//! * [`arrivals`] — deterministic seeded arrival processes (fixed /
//!   Poisson / bursty / trace replay) for open-system serving;
//! * [`format`](mod@format) — JSON and compact binary trace persistence.
//!
//! There is one path from workload to trace:
//! [`Workload::lower`](workloads::Workload::lower) checks the `l_tile`,
//! builds the [`Layout`](mapping::Layout)'s mapping, validates it and
//! walks it with [`Workload::generate`](workloads::Workload::generate).
//! The solo experiment, the closed mixes and the serve sets all go
//! through it.
//!
//! ## Example
//!
//! ```
//! use llamcat_trace::prelude::*;
//!
//! let op = LogitOp::llama3_70b(1024);
//! let cfg = TraceGenConfig::default();
//! let mapping = Layout::Spatial.mapping(&op, 32, cfg.num_cores);
//! let (program, meta) = LogitWorkload::new(op).generate(&mapping, &cfg);
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
    pub use crate::mapping::{Dim, Layout, Level, Loop, LoopKind, Mapping};
    pub use crate::mix::{
        generate_serve_set, MixAssignment, MixMeta, MixedRequest, WorkloadMix, REQUEST_VA_STRIDE,
    };
    pub use crate::tracegen::{TraceGenConfig, TraceMeta};
    pub use crate::workload::{LogitOp, ELEM_BYTES, K_BASE, OUT_BASE, Q_BASE, SCORE_BASE, V_BASE};
    pub use crate::workloads::{
        AttnOutputWorkload, LogitWorkload, PrefillLogitWorkload, Workload, WorkloadSpec,
    };
}
