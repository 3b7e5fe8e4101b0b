//! # llamcat-repro — umbrella crate for the LLaMCAT reproduction
//!
//! Re-exports the three library crates so examples, integration tests
//! and downstream users have a single dependency:
//!
//! * [`sim`] (`llamcat-sim`) — cycle-level simulator substrate
//!   (DDR5 DRAM, sliced LLC with MSHRs, vector cores, mesh NoC);
//! * [`trace`] (`llamcat-trace`) — analytical dataflow model and
//!   memory-trace generator (the Timeloop-class front-end), including
//!   the open `Workload` trait (decode Logit, attention-output A·V,
//!   chunked prefill, shared-prefix Logit, fused GQA decode) and the
//!   serde `WorkloadSpec` campaign currency;
//! * [`llamcat`] — the paper's contribution: balanced / MSHR-aware
//!   LLC arbitration and two-level dynamic multi-gear throttling, with
//!   the DYNCTA / LCS / COBRRA baselines, the experiment API and the
//!   serializable `PolicySpec` registry.
//!
//! Declarative grid sweeps (`Campaign`) live in the `llamcat-bench`
//! crate; see `examples/campaign.rs`.
//!
//! See README.md for the quickstart and DESIGN.md for the architecture.

pub use llamcat;
pub use llamcat_sim as sim;
pub use llamcat_trace as trace;

/// The README's Rust snippets, compiled as doctests. They are marked
/// `no_run`: each must build against the current API, but none
/// simulates anything.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeSnippets;

/// One-line smoke check used by docs and CI: simulates a tiny decode
/// workload end to end and returns the cycle count.
pub fn smoke() -> u64 {
    use llamcat::experiment::Experiment;
    use llamcat_trace::workloads::WorkloadSpec;
    Experiment::from_spec(&WorkloadSpec::llama3_70b(), 128)
        .run()
        .cycles
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs() {
        assert!(super::smoke() > 0);
    }
}
