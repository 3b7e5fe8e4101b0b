//! Open workload layer: operators as pluggable trait objects.
//!
//! The paper evaluates one operator (decode Logit, Q·Kᵀ) on two model
//! shapes ([`WorkloadSpec::llama3_70b`], [`WorkloadSpec::llama3_405b`]).
//! This module keeps that world open:
//!
//! * [`Workload`] — the trait an operator implements to participate in
//!   experiments: an {H, G, L, D} iteration space plus a per-thread-block
//!   instruction-stream builder. Mapping construction, thread-block
//!   enumeration and the block template are shared (see [`Layout`] and
//!   [`crate::tracegen`]); a builder only names the addresses one block
//!   loads, streams and stores. [`Workload::lower`] is the one checked
//!   path from a workload to its program.
//! * [`LogitWorkload`] — the paper's decode Logit operator.
//! * [`AttnOutputWorkload`] — the attention-output GEMV `A·V`: consumes
//!   the probabilities the Logit operator produced and streams the V
//!   cache, with the same GQA sharing structure (the G query heads of a
//!   group read the same `V[h]`).
//! * [`PrefillLogitWorkload`] — a chunked-prefill variant: several query
//!   tokens score against the K cache per pass, raising arithmetic
//!   intensity and widening each block's store footprint.
//! * [`SharedPrefixWorkload`] — decode Logit over a context whose first
//!   `prefix_len` tokens live in the *shared* KV window (a common system
//!   prompt reused across tenants; see `llamcat_sim::kv`).
//! * [`GqaDecodeWorkload`] — one fused GQA decode step (Logit +
//!   attention-output), streaming K and V back to back.
//! * [`WorkloadSpec`] — the serde-round-trippable description of a
//!   workload *family* (everything but the sequence length), so campaign
//!   definitions can cross workloads × sequence lengths as data.
//!
//! All five workloads share the {H, G, L, D} space and the tensor
//! address map of [`LogitOp`], so every [`Layout`] loop nest and the
//! legality constraints apply unchanged.

use std::fmt;
use std::sync::Arc;

use llamcat_sim::kv::SHARED_KV_BASE;
use llamcat_sim::prog::{Instr, Program};
use llamcat_sim::types::Addr;
use serde::{Deserialize, Serialize};

use crate::mapping::{Layout, Mapping};
use crate::tracegen::{tile_block, Lowering, TraceGenConfig, TraceMeta};
use crate::workload::{LogitOp, ELEM_BYTES};

/// An operator that can be lowered to per-core memory traces.
///
/// A workload is the pairing of an iteration space (`shape`, reusing
/// [`LogitOp`]'s {H, G, L, D} dimensions) with a block builder
/// (`build_block`). The provided methods derive everything else —
/// legal mappings per [`Layout`] and full [`Program`] generation — so
/// implementing a new operator means implementing two methods.
pub trait Workload: fmt::Debug + Send + Sync {
    /// Stable label, used in reports, campaign JSONL and figures.
    fn label(&self) -> String;

    /// The {H, G, L, D} iteration space the mapping machinery tiles.
    fn shape(&self) -> LogitOp;

    /// Writes the instruction stream of one thread block
    /// (`(h, g, l_tile_index, l_tile_extent)`) onto the end of `instrs`,
    /// the program's instruction arena.
    fn build_block(
        &self,
        cfg: &TraceGenConfig,
        h: usize,
        g: usize,
        lt: usize,
        l_tile: usize,
        instrs: &mut Vec<Instr>,
    );

    /// Validates the workload shape (graceful error, no panics).
    fn validate(&self) -> Result<(), String> {
        self.shape().validate()
    }

    /// The loop nest of `layout` over this workload's iteration space.
    fn mapping(&self, layout: Layout, l_tile: usize, num_cores: usize) -> Mapping {
        layout.mapping(&self.shape(), l_tile, num_cores)
    }

    /// Walks `mapping` into an executable program.
    ///
    /// Panics if the mapping is invalid for the shape; validate first
    /// ([`Mapping::validate`]) for a graceful error, or call
    /// [`Workload::lower`], which does.
    fn generate(&self, mapping: &Mapping, cfg: &TraceGenConfig) -> (Program, TraceMeta) {
        Lowering::new(self, mapping, cfg).into_program()
    }

    /// Lowers this workload to a program: the `layout` loop nest with
    /// `l_tile`-token thread blocks over `cfg.num_cores` cores, checked
    /// and then walked as [`Workload::generate`] walks it.
    ///
    /// Errs, without panicking, when `l_tile` does not divide the
    /// sequence length or the nest breaks the paper's mapping
    /// constraints. The shape itself is not checked: call
    /// [`Workload::validate`] first.
    fn lower(
        &self,
        layout: Layout,
        l_tile: usize,
        cfg: &TraceGenConfig,
    ) -> Result<(Program, TraceMeta), String> {
        Ok(plan(self, layout, l_tile, cfg, cfg.num_cores)?.into_program())
    }
}

/// The checked half of [`Workload::lower`], on `num_cores` cores: the
/// blocks of `workload`'s `layout` nest, planned but not yet built.
pub(crate) fn plan<'a, W: Workload + ?Sized>(
    workload: &'a W,
    layout: Layout,
    l_tile: usize,
    cfg: &TraceGenConfig,
    num_cores: usize,
) -> Result<Lowering<'a, W>, String> {
    let shape = workload.shape();
    if l_tile == 0 || !shape.seq_len.is_multiple_of(l_tile) {
        return Err(format!(
            "l_tile {l_tile} must divide seq_len {}",
            shape.seq_len
        ));
    }
    let mapping = workload.mapping(layout, l_tile, num_cores);
    mapping.validate(&shape)?;
    let cfg = TraceGenConfig { num_cores, ..*cfg };
    Ok(Lowering::new(workload, &mapping, &cfg))
}

/// The paper's evaluated operator: decode-stage Logit (Q·Kᵀ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogitWorkload {
    pub op: LogitOp,
}

impl LogitWorkload {
    pub fn new(op: LogitOp) -> Self {
        LogitWorkload { op }
    }
}

impl Workload for LogitWorkload {
    fn label(&self) -> String {
        match (self.op.heads, self.op.group_size, self.op.head_dim) {
            (8, 8, 128) => "llama3 70b".to_string(),
            (8, 16, 128) => "llama3 405b".to_string(),
            (h, g, d) => format!("logit h{h} g{g} d{d}"),
        }
    }

    fn shape(&self) -> LogitOp {
        self.op
    }

    fn build_block(
        &self,
        cfg: &TraceGenConfig,
        h: usize,
        g: usize,
        lt: usize,
        l_tile: usize,
        instrs: &mut Vec<Instr>,
    ) {
        let op = &self.op;
        let l0 = lt * l_tile;
        tile_block(
            instrs,
            cfg,
            [(op.q_addr(h, g, 0), op.k_row_bytes())],
            (l0..l0 + l_tile).map(|l| [op.k_addr(h, l, 0)]),
            op.k_row_bytes(),
            cfg.compute_cycles_per_row,
            [(op.score_addr(h, g, l0), l_tile as u64 * ELEM_BYTES)],
        )
    }
}

/// Attention-output GEMV `A·V`: for each (h, g) pair,
/// `out[d] = Σ_l A[h][g][l] · V[h][l][d]`.
///
/// The memory shape mirrors the Logit operator with roles swapped: the
/// small per-pair probability row `A[h][g]` replaces Q, the streamed V
/// cache replaces K (same footprint, same per-row bytes), and each
/// block writes its L-tile's *partial* output row (split-L partial sums
/// materialized for a later reduction pass), so stores never alias
/// across blocks. GQA temporal locality is identical: the G query heads
/// of a group stream the same `V[h]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnOutputWorkload {
    pub op: LogitOp,
}

impl AttnOutputWorkload {
    pub fn new(op: LogitOp) -> Self {
        AttnOutputWorkload { op }
    }
}

impl Workload for AttnOutputWorkload {
    fn label(&self) -> String {
        format!(
            "attn-out h{} g{} d{}",
            self.op.heads, self.op.group_size, self.op.head_dim
        )
    }

    fn shape(&self) -> LogitOp {
        self.op
    }

    fn build_block(
        &self,
        cfg: &TraceGenConfig,
        h: usize,
        g: usize,
        lt: usize,
        l_tile: usize,
        instrs: &mut Vec<Instr>,
    ) {
        let op = &self.op;
        let l0 = lt * l_tile;
        // Load the probability tile A[h][g][l0 .. l0+l_tile] (produced
        // by the Logit operator at the same addresses), stream the V
        // rows, then store this tile's partial output row.
        tile_block(
            instrs,
            cfg,
            [(op.score_addr(h, g, l0), l_tile as u64 * ELEM_BYTES)],
            (l0..l0 + l_tile).map(|l| [op.v_addr(h, l, 0)]),
            op.k_row_bytes(),
            cfg.compute_cycles_per_row,
            [(
                op.partial_out_addr(h, g, lt, op.seq_len / l_tile),
                op.k_row_bytes(),
            )],
        )
    }
}

/// Chunked-prefill Logit: `query_tokens` query rows score against the K
/// cache per pass (`score[t][l] = Σ_d q[t][d] · k[l][d]`).
///
/// Each thread block loads its pair's `query_tokens` Q rows, streams
/// the K rows of its L tile once (K traffic is *shared* across the
/// chunk — the higher arithmetic intensity that makes prefill
/// compute-friendlier than decode), and stores one score tile per query
/// token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillLogitWorkload {
    pub op: LogitOp,
    /// Query tokens scored per pass (the prefill chunk size).
    pub query_tokens: usize,
}

impl PrefillLogitWorkload {
    pub fn new(op: LogitOp, query_tokens: usize) -> Self {
        PrefillLogitWorkload { op, query_tokens }
    }

    /// Address of element `d` of query row `t` of pair (h, g)
    /// (row-major `[h][g][t][d]`).
    pub fn q_addr(&self, h: usize, g: usize, t: usize, d: usize) -> Addr {
        use crate::workload::Q_BASE;
        Q_BASE
            + ((((h * self.op.group_size + g) * self.query_tokens + t) * self.op.head_dim + d)
                as u64)
                * ELEM_BYTES
    }

    /// Address of `score[h][g][t][l]` (row-major `[h][g][t][l]`).
    pub fn score_addr(&self, h: usize, g: usize, t: usize, l: usize) -> Addr {
        use crate::workload::SCORE_BASE;
        SCORE_BASE
            + ((((h * self.op.group_size + g) * self.query_tokens + t) * self.op.seq_len + l)
                as u64)
                * ELEM_BYTES
    }
}

impl Workload for PrefillLogitWorkload {
    fn label(&self) -> String {
        format!(
            "prefill h{} g{} d{} q{}",
            self.op.heads, self.op.group_size, self.op.head_dim, self.query_tokens
        )
    }

    fn shape(&self) -> LogitOp {
        self.op
    }

    fn validate(&self) -> Result<(), String> {
        self.op.validate()?;
        if self.query_tokens == 0 {
            return Err("prefill chunk must cover at least one query token".into());
        }
        if self.query_tokens > 64 {
            return Err(format!(
                "prefill chunk of {} query tokens would overflow the instruction window",
                self.query_tokens
            ));
        }
        Ok(())
    }

    fn build_block(
        &self,
        cfg: &TraceGenConfig,
        h: usize,
        g: usize,
        lt: usize,
        l_tile: usize,
        instrs: &mut Vec<Instr>,
    ) {
        let op = &self.op;
        let l0 = lt * l_tile;
        let tokens = 0..self.query_tokens;
        // Every K row feeds `query_tokens` dot products; one score tile
        // per query token.
        tile_block(
            instrs,
            cfg,
            tokens
                .clone()
                .map(|t| (self.q_addr(h, g, t, 0), op.k_row_bytes())),
            (l0..l0 + l_tile).map(|l| [op.k_addr(h, l, 0)]),
            op.k_row_bytes(),
            cfg.compute_cycles_per_row * self.query_tokens as u32,
            tokens.map(|t| (self.score_addr(h, g, t, l0), l_tile as u64 * ELEM_BYTES)),
        )
    }
}

/// Decode Logit over a context whose first `prefix_len` tokens are a
/// *shared* prefix (a common system prompt): their K rows live in the
/// shared KV window at [`SHARED_KV_BASE`], which the multi-tenant
/// composers deliberately do **not** relocate per tenant — every
/// request with the same shape reads the *same* shared lines, the
/// cross-request reuse a tiered KV store's prefix cache exploits. The
/// per-request remainder of the context streams from the ordinary
/// (relocated) K window.
///
/// Two corners make it a complete KV-pressure family: `prefix_len = 0`
/// with a long `seq_len` is the pure per-request long-context shape
/// that forces warm-tier eviction, and a large `prefix_len` against a
/// small warm tier is the shape where prefix-pinning eviction and
/// prefix-aware arbitration separate from plain LRU/FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefixWorkload {
    pub op: LogitOp,
    /// Tokens of shared prefix (clamped to the sequence length).
    pub prefix_len: usize,
}

impl SharedPrefixWorkload {
    pub fn new(op: LogitOp, prefix_len: usize) -> Self {
        SharedPrefixWorkload { op, prefix_len }
    }

    /// The shared-prefix token count actually used (`prefix_len` clamped
    /// to the sequence length, so one family serves every `seq_len`).
    pub fn effective_prefix(&self) -> usize {
        self.prefix_len.min(self.op.seq_len)
    }

    /// Address of element `d` of shared-prefix row `K[h][l]`
    /// (row-major `[h][l][d]` in the shared window; `l` is the absolute
    /// token index, `l < effective_prefix()`).
    pub fn shared_k_addr(&self, h: usize, l: usize, d: usize) -> Addr {
        debug_assert!(h < self.op.heads && l < self.effective_prefix() && d < self.op.head_dim);
        SHARED_KV_BASE
            + (((h * self.effective_prefix() + l) * self.op.head_dim + d) as u64) * ELEM_BYTES
    }
}

impl Workload for SharedPrefixWorkload {
    fn label(&self) -> String {
        format!(
            "sharedpfx h{} g{} d{} p{}",
            self.op.heads, self.op.group_size, self.op.head_dim, self.prefix_len
        )
    }

    fn shape(&self) -> LogitOp {
        self.op
    }

    fn build_block(
        &self,
        cfg: &TraceGenConfig,
        h: usize,
        g: usize,
        lt: usize,
        l_tile: usize,
        instrs: &mut Vec<Instr>,
    ) {
        let op = &self.op;
        let prefix = self.effective_prefix();
        let l0 = lt * l_tile;
        // Shared-window K rows for the prefix, per-request rows for the
        // rest; the scores are per-request.
        tile_block(
            instrs,
            cfg,
            [(op.q_addr(h, g, 0), op.k_row_bytes())],
            (l0..l0 + l_tile).map(|l| {
                [if l < prefix {
                    self.shared_k_addr(h, l, 0)
                } else {
                    op.k_addr(h, l, 0)
                }]
            }),
            op.k_row_bytes(),
            cfg.compute_cycles_per_row,
            [(op.score_addr(h, g, l0), l_tile as u64 * ELEM_BYTES)],
        )
    }
}

/// One fused GQA decode step: Logit and attention-output in a single
/// pass (`out[d] = Σ_l softmax-weight(q·k[l]) · v[l][d]`,
/// FlashDecoding-style) — the scenario `examples/gqa_decode.rs` sweeps,
/// promoted to a first-class workload. Each block loads its pair's Q
/// row, streams the K **and** V rows of its L tile back to back
/// (double the KV traffic of Logit alone — both tensor windows gate on
/// a tiered KV store), and stores only the tile's partial output row;
/// scores never touch memory.
///
/// The fused block carries ~2x the instructions of a Logit block
/// (~141 at the minimum legal `l_tile` of 32), overrunning the nominal
/// 128-deep instruction window. That is a modeling approximation, not
/// an error: a window issues instructions sequentially, so depth bounds
/// in-flight instructions, never block length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GqaDecodeWorkload {
    pub op: LogitOp,
}

impl GqaDecodeWorkload {
    pub fn new(op: LogitOp) -> Self {
        GqaDecodeWorkload { op }
    }
}

impl Workload for GqaDecodeWorkload {
    fn label(&self) -> String {
        format!(
            "gqa-decode h{} g{} d{}",
            self.op.heads, self.op.group_size, self.op.head_dim
        )
    }

    fn shape(&self) -> LogitOp {
        self.op
    }

    fn build_block(
        &self,
        cfg: &TraceGenConfig,
        h: usize,
        g: usize,
        lt: usize,
        l_tile: usize,
        instrs: &mut Vec<Instr>,
    ) {
        let op = &self.op;
        let l0 = lt * l_tile;
        // Score each K row, then fold its V row into the accumulator;
        // scores stay in registers, only the partial output row is
        // stored.
        tile_block(
            instrs,
            cfg,
            [(op.q_addr(h, g, 0), op.k_row_bytes())],
            (l0..l0 + l_tile).map(|l| [op.k_addr(h, l, 0), op.v_addr(h, l, 0)]),
            op.k_row_bytes(),
            2 * cfg.compute_cycles_per_row,
            [(
                op.partial_out_addr(h, g, lt, op.seq_len / l_tile),
                op.k_row_bytes(),
            )],
        )
    }
}

/// Serde-round-trippable description of a workload family: every
/// parameter except the sequence length, which campaign grids cross
/// separately. [`WorkloadSpec::instantiate`] turns (spec, seq_len) into
/// a runnable [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Decode-stage Logit (Q·Kᵀ).
    Logit {
        heads: usize,
        group_size: usize,
        head_dim: usize,
    },
    /// Attention-output GEMV (A·V).
    AttnOutput {
        heads: usize,
        group_size: usize,
        head_dim: usize,
    },
    /// Chunked-prefill Logit (`query_tokens` queries per pass).
    PrefillLogit {
        heads: usize,
        group_size: usize,
        head_dim: usize,
        query_tokens: usize,
    },
    /// Decode Logit over a shared system-prompt prefix
    /// (`prefix_len` tokens in the shared KV window, clamped to the
    /// sequence length).
    SharedPrefix {
        heads: usize,
        group_size: usize,
        head_dim: usize,
        prefix_len: usize,
    },
    /// Fused GQA decode step (Logit + attention-output, K and V both
    /// streamed).
    GqaDecode {
        heads: usize,
        group_size: usize,
        head_dim: usize,
    },
}

impl WorkloadSpec {
    /// Llama3 70b decode Logit (H=8, G=8, D=128).
    pub fn llama3_70b() -> Self {
        WorkloadSpec::Logit {
            heads: 8,
            group_size: 8,
            head_dim: 128,
        }
    }

    /// Llama3 405b decode Logit (H=8, G=16, D=128).
    pub fn llama3_405b() -> Self {
        WorkloadSpec::Logit {
            heads: 8,
            group_size: 16,
            head_dim: 128,
        }
    }

    fn op(&self, seq_len: usize) -> LogitOp {
        let (heads, group_size, head_dim) = match *self {
            WorkloadSpec::Logit {
                heads,
                group_size,
                head_dim,
            }
            | WorkloadSpec::AttnOutput {
                heads,
                group_size,
                head_dim,
            }
            | WorkloadSpec::PrefillLogit {
                heads,
                group_size,
                head_dim,
                ..
            }
            | WorkloadSpec::SharedPrefix {
                heads,
                group_size,
                head_dim,
                ..
            }
            | WorkloadSpec::GqaDecode {
                heads,
                group_size,
                head_dim,
            } => (heads, group_size, head_dim),
        };
        LogitOp {
            heads,
            group_size,
            seq_len,
            head_dim,
        }
    }

    /// Builds the runnable workload for one sequence length.
    pub fn instantiate(&self, seq_len: usize) -> Arc<dyn Workload> {
        let op = self.op(seq_len);
        match *self {
            WorkloadSpec::Logit { .. } => Arc::new(LogitWorkload::new(op)),
            WorkloadSpec::AttnOutput { .. } => Arc::new(AttnOutputWorkload::new(op)),
            WorkloadSpec::PrefillLogit { query_tokens, .. } => {
                Arc::new(PrefillLogitWorkload::new(op, query_tokens))
            }
            WorkloadSpec::SharedPrefix { prefix_len, .. } => {
                Arc::new(SharedPrefixWorkload::new(op, prefix_len))
            }
            WorkloadSpec::GqaDecode { .. } => Arc::new(GqaDecodeWorkload::new(op)),
        }
    }

    /// The label an instantiated workload will report (seq-independent).
    pub fn label(&self) -> String {
        // Labels must not depend on seq_len; probe with a nominal one.
        self.instantiate(128).label()
    }

    /// Validates the family parameters without a sequence length.
    pub fn validate(&self) -> Result<(), String> {
        self.instantiate(128).validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{K_BASE, OUT_BASE, SCORE_BASE, V_BASE};
    use llamcat_sim::prog::Instr;
    use llamcat_sim::types::LINE_BYTES;
    use std::collections::HashSet;

    fn small_op() -> LogitOp {
        LogitOp {
            heads: 2,
            group_size: 4,
            seq_len: 128,
            head_dim: 128,
        }
    }

    #[test]
    fn preset_labels_are_stable() {
        assert_eq!(WorkloadSpec::llama3_70b().label(), "llama3 70b");
        assert_eq!(WorkloadSpec::llama3_405b().label(), "llama3 405b");
        assert_eq!(
            WorkloadSpec::AttnOutput {
                heads: 8,
                group_size: 8,
                head_dim: 128
            }
            .label(),
            "attn-out h8 g8 d128"
        );
        assert_eq!(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4
            }
            .label(),
            "prefill h8 g8 d128 q4"
        );
        assert_eq!(
            WorkloadSpec::SharedPrefix {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                prefix_len: 256
            }
            .label(),
            "sharedpfx h8 g8 d128 p256"
        );
        assert_eq!(
            WorkloadSpec::GqaDecode {
                heads: 8,
                group_size: 8,
                head_dim: 128
            }
            .label(),
            "gqa-decode h8 g8 d128"
        );
    }

    #[test]
    fn attn_output_streams_v_not_k() {
        let w = AttnOutputWorkload::new(small_op());
        let cfg = TraceGenConfig::default();
        let mapping = w.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (p, meta) = w.generate(&mapping, &cfg);
        // Same stream volume as the logit operator's K traffic, but all
        // bulk loads land in the V region and the per-pair row loads in
        // the score (A) region; nothing touches K.
        for b in p.blocks() {
            for i in b {
                if let Instr::Load { addr, .. } = &i {
                    let in_v = (V_BASE..OUT_BASE).contains(addr);
                    let in_a = (SCORE_BASE..V_BASE).contains(addr);
                    assert!(in_v || in_a, "load at {addr:#x} outside V/A regions");
                    assert!(!(K_BASE..SCORE_BASE).contains(addr));
                }
            }
        }
        let op = small_op();
        // V streamed once per query head + A read once per pair.
        assert_eq!(
            meta.total_load_bytes,
            op.k_bytes() * op.group_size as u64 + op.score_bytes()
        );
        // One partial output row per block.
        assert_eq!(
            meta.total_store_bytes,
            meta.num_blocks as u64 * op.k_row_bytes()
        );
    }

    #[test]
    fn attn_output_partial_stores_never_alias() {
        let w = AttnOutputWorkload::new(small_op());
        let cfg = TraceGenConfig::default();
        let mapping = w.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (p, _) = w.generate(&mapping, &cfg);
        let mut lines = HashSet::new();
        for b in p.blocks() {
            for i in b {
                if let Instr::Store { addr, bytes } = &i {
                    let mut a = *addr;
                    while a < addr + *bytes as u64 {
                        assert!(lines.insert(a / LINE_BYTES), "partial line stored twice");
                        a += LINE_BYTES;
                    }
                }
            }
        }
    }

    #[test]
    fn prefill_shares_k_across_query_tokens() {
        let op = small_op();
        let chunk = 4;
        let w = PrefillLogitWorkload::new(op, chunk);
        let cfg = TraceGenConfig::default();
        let mapping = w.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (_, meta) = w.generate(&mapping, &cfg);
        // K streamed once per (h, g) — NOT once per query token — while
        // Q and score traffic scale with the chunk.
        let k_traffic = op.k_bytes() * op.group_size as u64;
        let q_traffic =
            (op.heads * op.group_size * (op.seq_len / 32) * chunk) as u64 * op.k_row_bytes();
        assert_eq!(meta.total_load_bytes, k_traffic + q_traffic);
        assert_eq!(meta.total_store_bytes, op.score_bytes() * chunk as u64);
    }

    #[test]
    fn prefill_blocks_fit_instruction_window() {
        let w = PrefillLogitWorkload::new(LogitOp::llama3_70b(4096), 4);
        let cfg = TraceGenConfig::default();
        let mapping = w.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (_, meta) = w.generate(&mapping, &cfg);
        assert!(
            meta.max_block_instrs <= 128,
            "prefill blocks must fit the 128-deep instruction window, got {}",
            meta.max_block_instrs
        );
    }

    #[test]
    fn prefill_validation_bounds_chunk() {
        let op = small_op();
        assert!(PrefillLogitWorkload::new(op, 0).validate().is_err());
        assert!(PrefillLogitWorkload::new(op, 65).validate().is_err());
        assert!(PrefillLogitWorkload::new(op, 8).validate().is_ok());
    }

    #[test]
    fn shared_prefix_splits_k_between_windows() {
        let op = small_op();
        let prefix = 64; // half the 128-token context
        let w = SharedPrefixWorkload::new(op, prefix);
        let cfg = TraceGenConfig::default();
        let mapping = w.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (p, meta) = w.generate(&mapping, &cfg);
        let (mut shared_bytes, mut private_bytes) = (0u64, 0u64);
        for b in p.blocks() {
            for i in b {
                match &i {
                    Instr::Load { addr, bytes } if *addr >= SHARED_KV_BASE => {
                        shared_bytes += *bytes as u64;
                    }
                    Instr::Load { addr, bytes } => {
                        assert!(
                            (crate::workload::Q_BASE..SCORE_BASE).contains(addr),
                            "non-prefix load at {addr:#x} outside Q/K regions"
                        );
                        private_bytes += *bytes as u64;
                    }
                    Instr::Store { addr, .. } => {
                        assert!(*addr < SHARED_KV_BASE, "stores never hit the shared window");
                    }
                    _ => {}
                }
            }
        }
        // Half the K stream comes from the shared window, and K is
        // streamed once per query head under PairStream.
        assert_eq!(shared_bytes, op.k_bytes() / 2 * op.group_size as u64);
        assert_eq!(
            shared_bytes + private_bytes,
            meta.total_load_bytes,
            "every load is classified"
        );
        // Same traffic volume as plain decode Logit: only placement moved.
        let logit = LogitWorkload::new(op);
        let (_, logit_meta) = logit.generate(&mapping, &cfg);
        assert_eq!(meta.total_load_bytes, logit_meta.total_load_bytes);
        assert_eq!(meta.total_store_bytes, logit_meta.total_store_bytes);
    }

    #[test]
    fn shared_prefix_addresses_are_tenant_invariant_and_clamped() {
        let op = small_op();
        let w = SharedPrefixWorkload::new(op, 64);
        // Shared rows are pure functions of (shape, prefix): two
        // instantiations agree, which is what makes them shareable.
        assert_eq!(w.shared_k_addr(1, 63, 0), {
            SharedPrefixWorkload::new(op, 64).shared_k_addr(1, 63, 0)
        });
        assert!(w.shared_k_addr(0, 0, 0) >= SHARED_KV_BASE);
        // prefix_len clamps to seq_len: the whole context is shared.
        let all = SharedPrefixWorkload::new(op, 10_000);
        assert_eq!(all.effective_prefix(), op.seq_len);
        let cfg = TraceGenConfig::default();
        let mapping = all.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (p, _) = all.generate(&mapping, &cfg);
        for b in p.blocks() {
            for i in b {
                if let Instr::Load { addr, .. } = &i {
                    let in_q = *addr < K_BASE;
                    assert!(
                        in_q || *addr >= SHARED_KV_BASE,
                        "fully-shared context: every K load at {addr:#x} is shared"
                    );
                }
            }
        }
        // prefix_len = 0 degrades to plain decode Logit placement.
        let none = SharedPrefixWorkload::new(op, 0);
        let (p, _) = none.generate(&mapping, &cfg);
        for b in p.blocks() {
            for i in b {
                if let Instr::Load { addr, .. } = &i {
                    assert!(*addr < SCORE_BASE, "no shared traffic at p0");
                }
            }
        }
    }

    #[test]
    fn gqa_decode_streams_k_and_v_stores_only_output() {
        let op = small_op();
        let w = GqaDecodeWorkload::new(op);
        let cfg = TraceGenConfig::default();
        let mapping = w.mapping(Layout::PairStream, 32, cfg.num_cores);
        let (p, meta) = w.generate(&mapping, &cfg);
        // Fused step: K and V each streamed once per query head, plus Q
        // once per block.
        let q_traffic = meta.num_blocks as u64 * op.k_row_bytes();
        assert_eq!(
            meta.total_load_bytes,
            2 * op.k_bytes() * op.group_size as u64 + q_traffic
        );
        // Scores never touch memory: one partial out row per block.
        assert_eq!(
            meta.total_store_bytes,
            meta.num_blocks as u64 * op.k_row_bytes()
        );
        for b in p.blocks() {
            for i in b {
                match &i {
                    Instr::Load { addr, .. } => assert!(
                        *addr < SCORE_BASE || (V_BASE..OUT_BASE).contains(addr),
                        "load at {addr:#x} outside Q/K/V"
                    ),
                    Instr::Store { addr, .. } => {
                        assert!(*addr >= OUT_BASE, "store at {addr:#x} below OUT_BASE")
                    }
                    _ => {}
                }
            }
        }
        // Fused blocks overrun the nominal window by a bounded margin
        // (see the workload doc); pin the margin so it cannot creep.
        assert!(
            meta.max_block_instrs <= 160,
            "gqa-decode blocks must stay near the 128-deep window, got {}",
            meta.max_block_instrs
        );
    }

    #[test]
    fn kv_tier_classifies_every_kv_tensor_window() {
        use llamcat_sim::kv::is_kv_addr;
        let op = small_op();
        // The KV tier's address classifier and the trace tensor map are
        // two views of one contract: K and V windows (and the shared
        // prefix) gate on the tier; Q, scores and outputs bypass it.
        assert!(is_kv_addr(op.k_addr(0, 0, 0)));
        assert!(is_kv_addr(op.k_addr(
            op.heads - 1,
            op.seq_len - 1,
            op.head_dim - 1
        )));
        assert!(!is_kv_addr(op.q_addr(0, 0, 0)));
        assert!(!is_kv_addr(op.score_addr(0, 0, 0)));
        assert!(is_kv_addr(op.v_addr(0, 0, 0)));
        assert!(is_kv_addr(op.v_addr(
            op.heads - 1,
            op.seq_len - 1,
            op.head_dim - 1
        )));
        assert!(!is_kv_addr(op.partial_out_addr(0, 0, 0, 4)));
        let spfx = SharedPrefixWorkload::new(op, 64);
        assert!(is_kv_addr(spfx.shared_k_addr(0, 0, 0)));
        // Tenant relocation preserves the classification (the in-slot
        // window test is stride-periodic).
        use crate::mix::REQUEST_VA_STRIDE;
        assert!(is_kv_addr(op.k_addr(0, 0, 0) + 3 * REQUEST_VA_STRIDE));
        assert!(!is_kv_addr(op.q_addr(0, 0, 0) + 3 * REQUEST_VA_STRIDE));
        assert!(!is_kv_addr(op.score_addr(0, 0, 0) + 3 * REQUEST_VA_STRIDE));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let specs = [
            WorkloadSpec::llama3_70b(),
            WorkloadSpec::llama3_405b(),
            WorkloadSpec::AttnOutput {
                heads: 4,
                group_size: 2,
                head_dim: 64,
            },
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 8,
            },
            WorkloadSpec::SharedPrefix {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                prefix_len: 256,
            },
            WorkloadSpec::GqaDecode {
                heads: 8,
                group_size: 8,
                head_dim: 128,
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "round-trip failed for {json}");
        }
    }

    #[test]
    fn all_workloads_run_under_all_layouts() {
        let op = small_op();
        let workloads: Vec<Arc<dyn Workload>> = vec![
            Arc::new(LogitWorkload::new(op)),
            Arc::new(AttnOutputWorkload::new(op)),
            Arc::new(PrefillLogitWorkload::new(op, 2)),
            Arc::new(SharedPrefixWorkload::new(op, 32)),
            Arc::new(GqaDecodeWorkload::new(op)),
        ];
        // The second config flushes every 5 rows of a 32-row tile, so
        // every block ends with a trailing partial flush.
        let cfgs = [
            TraceGenConfig::default(),
            TraceGenConfig {
                compute_cycles_per_row: 3,
                compute_flush_rows: 5,
                ..Default::default()
            },
        ];
        // FNV-1a of every serialized program, per config, workload and
        // layout (in `Layout::ALL` order).
        const PINS: [[[u64; 4]; 5]; 2] = [
            [
                [
                    0xd93b35eec4f6853f,
                    0x13413639c4b822eb,
                    0x1e4eae1de45127d3,
                    0x13413639c4b822eb,
                ],
                [
                    0xa3a7fc82948a0812,
                    0x3a7dc7dcc1bc7566,
                    0xca81a55a27470242,
                    0x3a7dc7dcc1bc7566,
                ],
                [
                    0x8c43f0778eae4caf,
                    0x8c1725681e24aadb,
                    0x18080ef489b71e51,
                    0x8c1725681e24aadb,
                ],
                [
                    0x2bec268df655926b,
                    0xd876cfc2479028f7,
                    0xffc32ab7e0b13467,
                    0xd876cfc2479028f7,
                ],
                [
                    0x6bcbd92118a9cfda,
                    0xf35acbc0ce8d4d6e,
                    0x3b7b466ec5d9c98c,
                    0xf35acbc0ce8d4d6e,
                ],
            ],
            [
                [
                    0x01a46c1577eae241,
                    0x7593b9e59fe72bfd,
                    0xbafe0fd035d76ce1,
                    0x7593b9e59fe72bfd,
                ],
                [
                    0x6d6dcf13dbe7f8f4,
                    0xd86142ed52cc3128,
                    0xbc3d4234415c16ee,
                    0xd86142ed52cc3128,
                ],
                [
                    0x7eb01c392c16e0ef,
                    0x27f9dab3e225d41b,
                    0xec5346cbc0c97b59,
                    0x27f9dab3e225d41b,
                ],
                [
                    0x8c94024a5d467a71,
                    0x5de26601f4444cad,
                    0xf037bf62eb7204d9,
                    0x5de26601f4444cad,
                ],
                [
                    0x740ed1c42b65b0ee,
                    0x1e204fe73e7e30f2,
                    0x447314c167a3f05c,
                    0x1e204fe73e7e30f2,
                ],
            ],
        ];
        let mut got = [[[0u64; 4]; 5]; 2];
        for (c, cfg) in cfgs.iter().enumerate() {
            for (wi, w) in workloads.iter().enumerate() {
                w.validate().unwrap();
                for (li, layout) in Layout::ALL.into_iter().enumerate() {
                    let mapping = w.mapping(layout, 32, cfg.num_cores);
                    mapping.validate(&w.shape()).unwrap();
                    let (p, meta) = w.generate(&mapping, cfg);
                    assert_eq!(p.num_blocks(), meta.num_blocks);
                    assert!(meta.total_load_bytes > 0);
                    got[c][wi][li] = crate::format::program_fnv1a(&p);
                }
            }
        }
        assert_eq!(got, PINS, "a generated trace changed");
    }
}
