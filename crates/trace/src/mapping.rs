//! Loop-nest mapping IR — the "dataflow" of the hybrid framework.
//!
//! A mapping describes how the Logit operator's iteration space
//! {H, G, L, D} is tiled and ordered across memory levels, in the style
//! of Timeloop: each level holds an ordered list of loops (outermost
//! first), each loop bound to a dimension with a tile count, and tagged
//! spatial (parallel over cores / vector lanes) or temporal.
//!
//! The paper adds two constraints to every mapping (Section 6.2.2):
//!
//! 1. the fastest (innermost) axis is assigned to the vector unit so
//!    cache-line accesses are complete;
//! 2. at least 64 B of the L dimension map to the innermost L1 temporal
//!    level, so `AttScore` output lines are not falsely shared between
//!    cores; thread blocks cover 1–2 output cache lines.

use serde::{Deserialize, Serialize};

use crate::workload::{LogitOp, ELEM_BYTES};

/// Iteration-space dimensions of the Logit operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dim {
    /// KV head groups.
    H,
    /// Query heads within a group.
    G,
    /// Sequence (token) dimension.
    L,
    /// Per-head feature dimension (the reduction axis).
    D,
}

impl Dim {
    pub const ALL: [Dim; 4] = [Dim::H, Dim::G, Dim::L, Dim::D];
}

/// Whether a loop iterates in time or across parallel hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopKind {
    Temporal,
    /// Spread across cores (at the L2 level) or vector lanes (innermost).
    Spatial,
}

/// One loop of the nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Loop {
    pub dim: Dim,
    /// Trip count of this loop.
    pub extent: usize,
    pub kind: LoopKind,
}

/// Memory level a group of loops is anchored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Level {
    /// Off-chip: loops here stream tiles through the LLC.
    Dram,
    /// Shared L2: loops here define thread-block enumeration order and
    /// the spatial distribution over cores.
    L2,
    /// Private L1 / thread-block interior.
    L1,
    /// Vector unit lanes (always the innermost D loop).
    Vector,
}

/// A complete mapping: ordered levels, each with ordered loops
/// (outermost first within the level; levels are ordered Dram → Vector).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    pub levels: Vec<(Level, Vec<Loop>)>,
}

impl Mapping {
    /// Product of loop extents for `dim` across all levels.
    pub fn total_extent(&self, dim: Dim) -> usize {
        self.levels
            .iter()
            .flat_map(|(_, loops)| loops.iter())
            .filter(|l| l.dim == dim)
            .map(|l| l.extent)
            .product()
    }

    /// Loops of one level.
    pub fn level(&self, level: Level) -> &[Loop] {
        self.levels
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, loops)| loops.as_slice())
            .unwrap_or(&[])
    }

    /// L-dimension tile handled by one thread block.
    pub fn l1_l_tile(&self) -> usize {
        self.level(Level::L1)
            .iter()
            .chain(self.level(Level::Vector))
            .filter(|l| l.dim == Dim::L)
            .map(|l| l.extent)
            .product()
    }

    /// Validates that the mapping tiles the operator exactly and obeys
    /// the paper's constraints.
    pub fn validate(&self, op: &LogitOp) -> Result<(), String> {
        let expect = [
            (Dim::H, op.heads),
            (Dim::G, op.group_size),
            (Dim::L, op.seq_len),
            (Dim::D, op.head_dim),
        ];
        for (dim, total) in expect {
            let got = self.total_extent(dim);
            if got != total {
                return Err(format!(
                    "dimension {dim:?}: loops cover {got}, operator needs {total}"
                ));
            }
        }
        // Constraint 1: innermost level is a spatial D loop spanning at
        // least one cache line of elements (complete line accesses).
        let vec_loops = self.level(Level::Vector);
        let Some(inner) = vec_loops.last() else {
            return Err("mapping has no vector level".into());
        };
        if inner.dim != Dim::D || inner.kind != LoopKind::Spatial {
            return Err("fastest axis must be a spatial D loop on the vector unit".into());
        }
        if inner.extent as u64 * ELEM_BYTES < 64 {
            return Err("vector loop must cover at least one full cache line".into());
        }
        // Constraint 2: >= 64 B of L at the innermost L1 temporal level
        // (no false sharing of AttScore lines between cores).
        let l1_l_bytes = self.l1_l_tile() as u64 * ELEM_BYTES;
        if l1_l_bytes < 64 {
            return Err(format!(
                "L1 must keep >= 64 B of L innermost (got {l1_l_bytes} B)"
            ));
        }
        Ok(())
    }

    /// Number of thread blocks this mapping produces: the product of all
    /// L2/DRAM-level loop extents (temporal sequencing × spatial
    /// distribution — a spatially mapped iteration is still its own
    /// thread block, just resident on another core).
    pub fn num_thread_blocks(&self) -> usize {
        self.level(Level::L2)
            .iter()
            .chain(self.level(Level::Dram))
            .map(|l| l.extent)
            .product()
    }

    /// L2-level spatial split of the G dimension (1 when G is purely
    /// temporal, i.e. a round-robin mapping).
    pub fn spatial_g(&self) -> usize {
        self.level(Level::L2)
            .iter()
            .filter(|l| l.dim == Dim::G && l.kind == LoopKind::Spatial)
            .map(|l| l.extent)
            .product()
    }

    /// L2-level spatial split of the L dimension.
    pub fn spatial_l_segments(&self) -> usize {
        self.level(Level::L2)
            .iter()
            .filter(|l| l.dim == Dim::L && l.kind == LoopKind::Spatial)
            .map(|l| l.extent)
            .product()
    }

    /// Whether the L2 level distributes work spatially over cores.
    pub fn is_spatial(&self) -> bool {
        self.level(Level::L2)
            .iter()
            .any(|l| l.kind == LoopKind::Spatial)
    }
}

/// Thread-block-to-core dataflow layout: which canned loop nest a
/// workload's iteration space is walked with.
///
/// Lives next to the mapping builders it selects between; the
/// experiment layer re-exports it, and [`Layout::mapping`] is the
/// single place a layout name turns into a concrete [`Mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Layout {
    /// Output-partitioned (h, g) pair streams round-robin over cores,
    /// one pair per instruction window — the paper's evaluated workload
    /// shape and the default.
    #[default]
    PairStream,
    /// Spatial G (+ L segments) across cores: all cores stream one
    /// shared K tile in lockstep (tightest possible sharing).
    Spatial,
    /// Round-robin blocks over cores, sharers adjacent (G innermost):
    /// the G query heads sharing one K tile become *consecutive* thread
    /// blocks, landing on different cores at the same time, which is
    /// what lets the LLC capture GQA locality through hits and MSHR
    /// merges.
    RoundRobinGInner,
    /// Round-robin blocks, naive L-innermost order: each (h, g) pair
    /// streams all of K before moving on.
    RoundRobinLInner,
}

impl Layout {
    /// Builds the loop nest of this layout for a {H, G, L, D} iteration
    /// space (`op` carries the dimensions; the nest is workload-agnostic).
    ///
    /// Every layout shares the inner levels of the paper's hand-written
    /// mapping: an L1-level temporal L tile of `l_tile` tokens (one
    /// thread block covers `l_tile * 2 / 64` output lines) and a
    /// vector-level spatial D loop over the full head dimension. The
    /// layouts differ only in the L2-level loops, which order the
    /// thread blocks and spread them over `num_cores` cores.
    ///
    /// Panics if `l_tile` does not divide the sequence length.
    pub fn mapping(&self, op: &LogitOp, l_tile: usize, num_cores: usize) -> Mapping {
        assert!(
            op.seq_len.is_multiple_of(l_tile),
            "l_tile must divide seq_len"
        );
        let n_ltiles = op.seq_len / l_tile;
        let l2 = match self {
            Layout::PairStream => pair_stream_l2(op, n_ltiles),
            Layout::Spatial => spatial_l2(op, n_ltiles, num_cores),
            Layout::RoundRobinGInner => vec![
                temporal(Dim::H, op.heads),
                temporal(Dim::L, n_ltiles),
                temporal(Dim::G, op.group_size),
            ],
            Layout::RoundRobinLInner => vec![
                temporal(Dim::H, op.heads),
                temporal(Dim::G, op.group_size),
                temporal(Dim::L, n_ltiles),
            ],
        };
        Mapping {
            levels: vec![
                (Level::Dram, vec![]),
                (Level::L2, l2),
                (Level::L1, vec![temporal(Dim::L, l_tile)]),
                (Level::Vector, vec![spatial(Dim::D, op.head_dim)]),
            ],
        }
    }

    /// Stable names for all layouts (campaign definitions and docs).
    pub const ALL: [Layout; 4] = [
        Layout::PairStream,
        Layout::Spatial,
        Layout::RoundRobinGInner,
        Layout::RoundRobinLInner,
    ];
}

fn temporal(dim: Dim, extent: usize) -> Loop {
    Loop {
        dim,
        extent,
        kind: LoopKind::Temporal,
    }
}

fn spatial(dim: Dim, extent: usize) -> Loop {
    Loop {
        dim,
        extent,
        kind: LoopKind::Spatial,
    }
}

/// L2 loops of the output-partitioned "pair-stream" dataflow — the
/// layout the paper's evaluation workload uses.
///
/// The H·G (KV-head, query-head) output pairs are distributed round-robin
/// over the cores; each pair is an independent temporal stream of
/// L-tiles over the full K\[h\]. A core owning `H·G / num_cores` pairs
/// runs them *concurrently*, one per instruction window (the
/// window-strided chunks of the scheduler) — which is why "the assigned
/// thread blocks may span a wide range" on the unoptimized machine:
/// every core interleaves several full-K streams, multiplying the live
/// working set, while the G streams sharing one K\[h\] sit on different
/// cores and only merge in the MSHRs when the machine keeps them in
/// sync. This is the hardware-friendly kernel shape (contiguous output
/// per core, no false sharing) that "performs well on the unoptimized
/// architecture" (Section 6.2.2) yet exposes exactly the contention
/// LLaMCAT targets.
fn pair_stream_l2(op: &LogitOp, n_ltiles: usize) -> Vec<Loop> {
    vec![
        spatial(Dim::H, op.heads),
        spatial(Dim::G, op.group_size),
        temporal(Dim::L, n_ltiles),
    ]
}

/// L2 loops of the paper's spatial Logit dataflow: the G dimension (and,
/// when cores outnumber query heads, a split of L) is mapped *spatially*
/// across cores, so the whole machine streams each K\[h\] concurrently —
/// every core computing a different query head of the same group over
/// the same keys. This is the dataflow that exposes GQA sharing to the
/// LLC as simultaneous cross-core requests (MSHR merges when in sync,
/// cache hits or refetches when cores drift).
///
/// Loop structure (outermost first): spatial G, spatial L-segments,
/// temporal H, temporal G, temporal L-tiles; each core's temporal
/// sequence is `(h, l-tile)` over its own L segment.
fn spatial_l2(op: &LogitOp, n_ltiles: usize, num_cores: usize) -> Vec<Loop> {
    // Spatial split of G over cores; leftover parallelism splits L.
    let gs = op.group_size.min(num_cores);
    let gt = op.group_size / gs; // consecutive g's per core
    let mut segments = (num_cores / gs).max(1);
    while segments > 1 && !n_ltiles.is_multiple_of(segments) {
        segments -= 1;
    }
    vec![
        spatial(Dim::G, gs),
        spatial(Dim::L, segments),
        temporal(Dim::H, op.heads),
        temporal(Dim::G, gt),
        temporal(Dim::L, n_ltiles / segments),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logit_mapping_is_valid() {
        let op = LogitOp::llama3_70b(4096);
        let m = Layout::RoundRobinGInner.mapping(&op, 32, 16);
        m.validate(&op).unwrap();
        assert_eq!(m.total_extent(Dim::L), 4096);
        assert_eq!(m.l1_l_tile(), 32);
        assert_eq!(m.num_thread_blocks(), 8 * 8 * 128);
    }

    #[test]
    fn order_changes_loop_sequence_not_counts() {
        let op = LogitOp::llama3_70b(1024);
        let a = Layout::RoundRobinGInner.mapping(&op, 32, 16);
        let b = Layout::RoundRobinLInner.mapping(&op, 32, 16);
        assert_eq!(a.num_thread_blocks(), b.num_thread_blocks());
        assert_ne!(a.level(Level::L2), b.level(Level::L2));
    }

    #[test]
    fn validation_catches_partial_coverage() {
        let op = LogitOp::llama3_70b(4096);
        let mut m = Layout::RoundRobinGInner.mapping(&op, 32, 16);
        // Break the L coverage.
        m.levels[1].1[1].extent = 7;
        assert!(m.validate(&op).is_err());
    }

    #[test]
    fn validation_requires_vector_d() {
        let op = LogitOp::llama3_70b(4096);
        let mut m = Layout::RoundRobinGInner.mapping(&op, 32, 16);
        m.levels[3].1[0].kind = LoopKind::Temporal;
        assert!(m.validate(&op).is_err());
    }

    #[test]
    fn validation_enforces_l1_l_bytes() {
        let op = LogitOp::llama3_70b(4096);
        // 16 tokens * 2 B = 32 B < 64 B: violates constraint 2.
        let m = Layout::RoundRobinGInner.mapping(&op, 16, 16);
        assert!(m.validate(&op).is_err());
    }

    #[test]
    fn spatial_mapping_is_valid_for_both_models() {
        let op70 = LogitOp::llama3_70b(4096);
        let m = Layout::Spatial.mapping(&op70, 32, 16);
        m.validate(&op70).unwrap();
        assert!(m.is_spatial());
        assert_eq!(m.spatial_g(), 8);
        assert_eq!(m.spatial_l_segments(), 2);
        assert_eq!(m.num_thread_blocks(), 8 * 8 * 128);

        let op405 = LogitOp::llama3_405b(4096);
        let m = Layout::Spatial.mapping(&op405, 32, 16);
        m.validate(&op405).unwrap();
        assert_eq!(m.spatial_g(), 16);
        assert_eq!(m.spatial_l_segments(), 1);
        assert_eq!(m.num_thread_blocks(), 8 * 16 * 128);
    }

    #[test]
    fn spatial_mapping_handles_fewer_cores_than_heads() {
        let op = LogitOp::llama3_405b(1024); // G = 16
        let m = Layout::Spatial.mapping(&op, 32, 4);
        m.validate(&op).unwrap();
        assert_eq!(m.spatial_g(), 4);
        // 4 consecutive query heads per core, temporal.
        assert_eq!(m.total_extent(Dim::G), 16);
    }
}
