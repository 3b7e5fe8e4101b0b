//! # llamcat-sim — cycle-level simulator substrate for LLaMCAT
//!
//! A from-scratch, trace-driven, cycle-level simulator of an LLC-based
//! accelerator (GPU-class or AI-SoC-class), reproducing the simulation
//! substrate of *LLaMCAT: Optimizing Large Language Model Inference with
//! Cache Arbitration and Throttling* (ICPP 2025):
//!
//! * **Vector cores** with multiple instruction windows, runtime
//!   thread-block scheduling and cross-core migration ([`core_model`],
//!   [`sched`]);
//! * **Private L1s** (write-through, streaming) and a **sliced shared
//!   L2** with MSHRs, request/response queues and a pluggable arbiter
//!   ([`l1`], [`llc`], [`mshr`]);
//! * **DDR5 DRAM** with FR-FCFS scheduling, banks/ranks/channels,
//!   refresh and row-buffer accounting ([`dram`]);
//! * Policy interfaces for request arbitration and thread throttling
//!   ([`arb`]) — the paper's CAT policies and its baselines live in the
//!   companion `llamcat` crate;
//! * **Open-system serving** ([`serve`]) — a request injector that
//!   admits work mid-run under a pluggable serving policy (FCFS,
//!   max-concurrency, continuous batching), with a never-late wake
//!   bound so fast-forwarding stays exact;
//! * A **tiered KV store** ([`kv`]) — a capacity-modeled warm KV tier
//!   below the LLC backed by a CXL/NVMe-like slow tier, gating KV
//!   traffic at the DRAM dispatch boundary with LRU or prefix-pinning
//!   eviction.
//!
//! The simulator is deterministic: identical configuration and program
//! yield identical cycle counts and statistics.
//!
//! ## Quick start
//!
//! ```
//! use llamcat_sim::prelude::*;
//!
//! // Two thread blocks, each loading 256 bytes then synchronizing.
//! let cfg = SystemConfig::table5();
//! let mut program = Program::default();
//! for b in 0..2 {
//!     program.push_block(b as usize % cfg.num_cores, |instrs| {
//!         instrs.extend([
//!             Instr::Load { addr: b * 4096, bytes: 128 },
//!             Instr::Load { addr: b * 4096 + 128, bytes: 128 },
//!             Instr::Barrier,
//!         ])
//!     });
//! }
//! let mut system = System::new(cfg, program, &|_slice| FifoArbiter, NoThrottle);
//! let (stats, outcome) = system.run(1_000_000);
//! assert_eq!(outcome, RunOutcome::Completed);
//! assert!(stats.cycles > 0);
//! ```

pub mod arb;
pub mod cache;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod hash;
pub mod kv;
pub mod l1;
pub mod llc;
pub mod mshr;
pub mod noc;
pub mod pool;
pub mod prog;
pub mod sched;
pub mod serve;
pub mod stats;
pub mod system;
pub mod types;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::arb::{
        ArbiterCtx, FifoArbiter, NoThrottle, PortPreference, RequestArbiter, ThrottleController,
        ThrottleInputs,
    };
    pub use crate::config::{
        CacheGeometry, CoreConfig, DramConfig, DramTiming, L1Config, L2Config, NocConfig,
        SystemConfig,
    };
    pub use crate::kv::{KvEviction, KvTier, KvTierConfig, SHARED_KV_BASE};
    pub use crate::mshr::MshrFile;
    pub use crate::pool::{ReqHandle, ReqPool};
    pub use crate::prog::{Instr, Program, TbId};
    pub use crate::serve::{RequestInjector, ServePolicy};
    pub use crate::stats::SimStats;
    pub use crate::system::{RunOutcome, System};
    pub use crate::types::{Addr, CoreId, Cycle, MemReq, MemResp, SliceId, LINE_BYTES};
}
