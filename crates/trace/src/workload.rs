//! LLM decode workloads: the Logit operator (Q·Kᵀ) under GQA, whose
//! {H, G, L, D} iteration space and tensor address map every workload
//! in [`crate::workloads`] shares.
//!
//! Section 6.2.2 of the paper: "we test our design against the Logit
//! operator (QKᵀ). Computation of this operator is executed across
//! multiple head groups (H), head group sizes (G), sequence lengths (L),
//! and dimensions per head (D). The operator sizes are set according to
//! Llama3 70b (H=8, G=8, D=128) and Llama3 405b (H=8, G=16, D=128)."
//!
//! During decode there is a single query token: for each KV head `h` and
//! each query head `g` within its group, the operator computes
//! `score[h][g][l] = Σ_d q[h][g][d] · k[h][l][d]` — a GEMV whose memory
//! traffic is dominated by streaming the K cache. The G query heads of a
//! group all read the *same* K\[h\], which is the temporal locality that
//! MSHR merging captures.

use serde::{Deserialize, Serialize};

use llamcat_sim::types::Addr;

/// Element width of KV-cache tensors (fp16 / bf16).
pub const ELEM_BYTES: u64 = 2;

/// Base virtual addresses of the operator's tensors. Generously spaced
/// so tensors never overlap for any realistic shape.
pub const Q_BASE: Addr = 0x1000_0000;
pub const K_BASE: Addr = 0x1_0000_0000;
pub const SCORE_BASE: Addr = 0x8_0000_0000;
/// Base of the V cache (attention-output and fused decode workloads).
/// Sits above the score region, which tops out well below it at
/// 2·H·G·L bytes for realistic shapes.
pub const V_BASE: Addr = 0x10_0000_0000;
/// Base of the attention-output partial results.
pub const OUT_BASE: Addr = 0x80_0000_0000;

/// The decode-stage Logit operator `Q · Kᵀ` with GQA dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogitOp {
    /// Number of KV head groups (H).
    pub heads: usize,
    /// Query heads per KV head (G).
    pub group_size: usize,
    /// Sequence length — number of cached KV tokens (L).
    pub seq_len: usize,
    /// Dimension per head (D).
    pub head_dim: usize,
}

impl LogitOp {
    /// Llama3 70b decode shape: H=8, G=8, D=128.
    pub fn llama3_70b(seq_len: usize) -> Self {
        LogitOp {
            heads: 8,
            group_size: 8,
            seq_len,
            head_dim: 128,
        }
    }

    /// Llama3 405b decode shape: H=8, G=16, D=128.
    pub fn llama3_405b(seq_len: usize) -> Self {
        LogitOp {
            heads: 8,
            group_size: 16,
            seq_len,
            head_dim: 128,
        }
    }

    /// Bytes of one K row (one token's key vector for one head).
    pub fn k_row_bytes(&self) -> u64 {
        self.head_dim as u64 * ELEM_BYTES
    }

    /// Total K-cache footprint for this operator.
    pub fn k_bytes(&self) -> u64 {
        self.heads as u64 * self.seq_len as u64 * self.k_row_bytes()
    }

    /// Total Q footprint (one token: H×G query rows).
    pub fn q_bytes(&self) -> u64 {
        (self.heads * self.group_size) as u64 * self.head_dim as u64 * ELEM_BYTES
    }

    /// Total attention-score output footprint.
    pub fn score_bytes(&self) -> u64 {
        (self.heads * self.group_size * self.seq_len) as u64 * ELEM_BYTES
    }

    /// Ideal (perfect-reuse) DRAM read traffic: each K row fetched once.
    pub fn min_read_bytes(&self) -> u64 {
        self.k_bytes() + self.q_bytes()
    }

    /// Worst-case (zero-reuse) read traffic: K streamed once per query
    /// head in the group.
    pub fn max_read_bytes(&self) -> u64 {
        self.k_bytes() * self.group_size as u64 + self.q_bytes()
    }

    /// Address of element `d` of `K[h][l]` (row-major `[h][l][d]`).
    pub fn k_addr(&self, h: usize, l: usize, d: usize) -> Addr {
        debug_assert!(h < self.heads && l < self.seq_len && d < self.head_dim);
        K_BASE + (((h * self.seq_len + l) * self.head_dim + d) as u64) * ELEM_BYTES
    }

    /// Address of element `d` of `Q[h][g]` (row-major `[h][g][d]`).
    pub fn q_addr(&self, h: usize, g: usize, d: usize) -> Addr {
        debug_assert!(h < self.heads && g < self.group_size && d < self.head_dim);
        Q_BASE + (((h * self.group_size + g) * self.head_dim + d) as u64) * ELEM_BYTES
    }

    /// Address of `score[h][g][l]` (row-major `[h][g][l]`).
    pub fn score_addr(&self, h: usize, g: usize, l: usize) -> Addr {
        debug_assert!(h < self.heads && g < self.group_size && l < self.seq_len);
        SCORE_BASE + (((h * self.group_size + g) * self.seq_len + l) as u64) * ELEM_BYTES
    }

    /// Address of element `d` of `V[h][l]` (row-major `[h][l][d]`, the
    /// same layout as K).
    pub fn v_addr(&self, h: usize, l: usize, d: usize) -> Addr {
        debug_assert!(h < self.heads && l < self.seq_len && d < self.head_dim);
        V_BASE + (((h * self.seq_len + l) * self.head_dim + d) as u64) * ELEM_BYTES
    }

    /// Address of the partial output row of block (h, g, l-tile) when
    /// the L dimension is split into `n_ltiles` tiles.
    pub fn partial_out_addr(&self, h: usize, g: usize, lt: usize, n_ltiles: usize) -> Addr {
        OUT_BASE + (((h * self.group_size + g) * n_ltiles + lt) as u64) * self.k_row_bytes()
    }

    /// Validates the shape (power-of-two friendly dims, positive sizes).
    pub fn validate(&self) -> Result<(), String> {
        if self.heads == 0 || self.group_size == 0 || self.seq_len == 0 || self.head_dim == 0 {
            return Err("all dimensions must be positive".into());
        }
        if !(self.head_dim * ELEM_BYTES as usize).is_multiple_of(64) {
            return Err("K rows must be a whole number of cache lines".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_70b_shape() {
        let op = LogitOp::llama3_70b(8192);
        assert_eq!(op.heads, 8);
        assert_eq!(op.group_size, 8);
        assert_eq!(op.head_dim, 128);
        // K: 8 heads * 8192 tokens * 256 B = 16 MB.
        assert_eq!(op.k_bytes(), 16 * 1024 * 1024);
        assert_eq!(op.k_row_bytes(), 256);
        op.validate().unwrap();
    }

    #[test]
    fn llama3_405b_doubles_group() {
        let op = LogitOp::llama3_405b(4096);
        assert_eq!(op.group_size, 16);
        assert_eq!(op.q_bytes(), 8 * 16 * 128 * 2);
    }

    #[test]
    fn traffic_bounds() {
        let op = LogitOp::llama3_70b(4096);
        assert!(op.min_read_bytes() < op.max_read_bytes());
        assert_eq!(
            op.max_read_bytes() - op.q_bytes(),
            (op.min_read_bytes() - op.q_bytes()) * 8
        );
    }

    #[test]
    fn addresses_are_disjoint_across_tensors() {
        let op = LogitOp::llama3_405b(32 * 1024);
        let q_end = op.q_addr(7, 15, 127) + ELEM_BYTES;
        let k_end = op.k_addr(7, op.seq_len - 1, 127) + ELEM_BYTES;
        let s_end = op.score_addr(7, 15, op.seq_len - 1) + ELEM_BYTES;
        assert!(q_end <= K_BASE);
        assert!(k_end <= SCORE_BASE);
        assert!(s_end > SCORE_BASE);
    }

    #[test]
    fn k_rows_are_contiguous() {
        let op = LogitOp::llama3_70b(1024);
        assert_eq!(op.k_addr(0, 0, 127) + 2, op.k_addr(0, 1, 0));
        assert_eq!(op.k_addr(0, 1023, 127) + 2, op.k_addr(1, 0, 0));
    }

    #[test]
    fn validation_rejects_ragged_rows() {
        let mut op = LogitOp::llama3_70b(128);
        op.head_dim = 100; // 200 B rows: not line-aligned
        assert!(op.validate().is_err());
        op.head_dim = 0;
        assert!(op.validate().is_err());
    }
}
