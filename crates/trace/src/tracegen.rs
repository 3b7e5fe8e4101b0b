//! Memory-trace generation: walking a mapping into per-core thread-block
//! instruction streams.
//!
//! "Since a mapping by definition is a hierarchy of nested loops mapped
//! to either the spatial or temporal domain, it can be translated to
//! memory traces simply by iterating through it" (Section 5). The
//! mapping decides which thread blocks exist, in what order, on which
//! core (`generate_with`); one thread block is one L1-level tile, and
//! every workload lays it out with the same template (`tile_block`):
//! load its inputs, stream the rows of its L tile with amortized
//! compute, synchronize, store its outputs.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::types::Addr;

use crate::mapping::{Dim, Level, LoopKind, Mapping};
use crate::workload::LogitOp;

/// Trace-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceGenConfig {
    /// Vector memory access width in bytes (Table 5: 128 B).
    pub vector_len_bytes: u64,
    /// Compute cycles modelled per K row (vector FMA work of one
    /// dot-product row).
    pub compute_cycles_per_row: u32,
    /// Rows between flushed `Compute` instructions (amortization).
    pub compute_flush_rows: usize,
    /// Cores the blocks are distributed over.
    pub num_cores: usize,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            vector_len_bytes: 128,
            compute_cycles_per_row: 1,
            compute_flush_rows: 4,
            num_cores: 16,
        }
    }
}

/// Summary of a generated trace (used by tests and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    pub num_blocks: usize,
    pub total_load_bytes: u64,
    pub total_store_bytes: u64,
    pub max_block_instrs: usize,
}

/// Generates a program for any workload sharing the {H, G, L, D}
/// iteration space: the mapping decides thread-block enumeration order
/// and core assignment, `build` supplies each block's instruction
/// stream (`(h, g, l_tile_index, l_tile_extent) -> ThreadBlock`).
///
/// Called only by [`Workload::generate`](crate::workloads::Workload::generate).
///
/// Panics if the mapping is invalid for the iteration space (call
/// [`Mapping::validate`] first for a graceful error).
pub(crate) fn generate_with<F>(
    op: &LogitOp,
    mapping: &Mapping,
    cfg: &TraceGenConfig,
    build: F,
) -> (Program, TraceMeta)
where
    F: Fn(usize, usize, usize, usize) -> ThreadBlock,
{
    mapping
        .validate(op)
        .expect("mapping must be valid for the operator");
    let l_tile = mapping.l1_l_tile();
    let n_ltiles = op.seq_len / l_tile;

    let spatial_h = mapping
        .level(Level::L2)
        .iter()
        .any(|l| l.dim == Dim::H && l.kind == LoopKind::Spatial);
    let (blocks, assignment) = if spatial_h {
        generate_pair_stream(op, cfg, l_tile, n_ltiles, &build)
    } else if mapping.is_spatial() {
        generate_spatial(op, mapping, cfg, l_tile, n_ltiles, &build)
    } else {
        // Round-robin: thread-block enumeration order from the L2-level
        // temporal loops, consecutive blocks on consecutive cores.
        let l2 = mapping.level(Level::L2);
        let order: Vec<Dim> = l2
            .iter()
            .filter(|l| l.kind == LoopKind::Temporal)
            .map(|l| l.dim)
            .collect();
        let mut blocks = Vec::with_capacity(op.heads * op.group_size * n_ltiles);
        let mut emit = |h: usize, g: usize, lt: usize| {
            blocks.push(build(h, g, lt, l_tile));
        };
        iterate(&order, op, n_ltiles, &mut emit);
        let assignment = (0..blocks.len()).map(|i| i % cfg.num_cores).collect();
        (blocks, assignment)
    };

    let meta = TraceMeta {
        num_blocks: blocks.len(),
        total_load_bytes: blocks.iter().map(|b| b.bytes_loaded()).sum(),
        total_store_bytes: blocks.iter().map(|b| b.bytes_stored()).sum(),
        max_block_instrs: blocks.iter().map(|b| b.instrs.len()).max().unwrap_or(0),
    };
    (Program::new(blocks, assignment), meta)
}

/// Pair-stream dataflow: (h, g) output pairs round-robin over cores,
/// each pair an independent full-K[h] temporal stream (see
/// [`Layout::PairStream`](crate::mapping::Layout::PairStream)). Blocks are emitted
/// pair-major so each core's queue holds its pairs' tiles contiguously —
/// the window-strided scheduler then runs one pair per window.
fn generate_pair_stream<F>(
    op: &LogitOp,
    cfg: &TraceGenConfig,
    l_tile: usize,
    n_ltiles: usize,
    build: &F,
) -> (Vec<ThreadBlock>, Vec<usize>)
where
    F: Fn(usize, usize, usize, usize) -> ThreadBlock,
{
    let pairs = op.heads * op.group_size;
    let mut blocks = Vec::with_capacity(pairs * n_ltiles);
    let mut assignment = Vec::with_capacity(pairs * n_ltiles);
    for p in 0..pairs {
        let (h, g) = (p / op.group_size, p % op.group_size);
        let core = p % cfg.num_cores;
        for lt in 0..n_ltiles {
            blocks.push(build(h, g, lt, l_tile));
            assignment.push(core);
        }
    }
    (blocks, assignment)
}

/// Spatial dataflow: query heads (and L segments) pinned to cores; all
/// cores stream the shared K[h] concurrently. Blocks are emitted in
/// `(h, l-tile, sharers)` order so that each core's subsequence — which
/// is what its scheduler queue preserves — is its own `(h, l-tile)`
/// temporal stream.
fn generate_spatial<F>(
    op: &LogitOp,
    mapping: &Mapping,
    cfg: &TraceGenConfig,
    l_tile: usize,
    n_ltiles: usize,
    build: &F,
) -> (Vec<ThreadBlock>, Vec<usize>)
where
    F: Fn(usize, usize, usize, usize) -> ThreadBlock,
{
    let gs = mapping.spatial_g();
    let gt = op.group_size / gs;
    let segments = mapping.spatial_l_segments();
    let tiles_per_seg = n_ltiles / segments;
    let mut blocks = Vec::with_capacity(op.heads * op.group_size * n_ltiles);
    let mut assignment = Vec::with_capacity(blocks.capacity());
    for h in 0..op.heads {
        for gi in 0..gt {
            for t in 0..tiles_per_seg {
                // All sharers of tile t (across g-spatial and segments)
                // are emitted adjacently; their home cores differ.
                for gsi in 0..gs {
                    for seg in 0..segments {
                        let g = gsi * gt + gi;
                        let lt = seg * tiles_per_seg + t;
                        let core = (gsi * segments + seg) % cfg.num_cores;
                        blocks.push(build(h, g, lt, l_tile));
                        assignment.push(core);
                    }
                }
            }
        }
    }
    (blocks, assignment)
}

/// Walks the (H, G, L-tile) iteration space in the order given by the
/// L2-level loop list.
fn iterate(
    order: &[Dim],
    op: &LogitOp,
    n_ltiles: usize,
    emit: &mut dyn FnMut(usize, usize, usize),
) {
    let extent = |d: Dim| match d {
        Dim::H => op.heads,
        Dim::G => op.group_size,
        Dim::L => n_ltiles,
        Dim::D => 1,
    };
    let dims: Vec<Dim> = order.iter().copied().filter(|d| *d != Dim::D).collect();
    assert_eq!(dims.len(), 3, "L2 level must order H, G and L");
    let (d0, d1, d2) = (dims[0], dims[1], dims[2]);
    let mut idx = [0usize; 3];
    for i0 in 0..extent(d0) {
        idx[0] = i0;
        for i1 in 0..extent(d1) {
            idx[1] = i1;
            for i2 in 0..extent(d2) {
                idx[2] = i2;
                let get = |dim: Dim| {
                    dims.iter()
                        .position(|d| *d == dim)
                        .map(|p| idx[p])
                        .unwrap_or(0)
                };
                emit(get(Dim::H), get(Dim::G), get(Dim::L));
            }
        }
    }
}

/// Builds one thread block from the template every workload shares:
///
/// 1. load each `(addr, bytes)` span of `inputs`;
/// 2. for each token `l` of the L tile `tile`, load the `N` rows
///    `rows(l)`, each `row_bytes` long, and accrue `compute_per_row`
///    cycles, flushed as one `Compute` every
///    [`compute_flush_rows`](TraceGenConfig::compute_flush_rows) tokens
///    and once more after the last;
/// 3. barrier;
/// 4. store each `(addr, bytes)` span of `outputs`.
///
/// Every span is split into vector-width accesses. The instructions go
/// into one allocation, sized up front.
pub(crate) fn tile_block<const N: usize, I, O>(
    cfg: &TraceGenConfig,
    inputs: I,
    tile: Range<usize>,
    rows: impl Fn(usize) -> [Addr; N],
    row_bytes: u64,
    compute_per_row: u32,
    outputs: O,
) -> ThreadBlock
where
    I: IntoIterator<Item = (Addr, u64)>,
    I::IntoIter: Clone,
    O: IntoIterator<Item = (Addr, u64)>,
    O::IntoIter: Clone,
{
    let vlen = cfg.vector_len_bytes;
    let flush = cfg.compute_flush_rows;
    let (inputs, outputs) = (inputs.into_iter(), outputs.into_iter());
    let accesses = |bytes: u64| bytes.div_ceil(vlen) as usize;
    let len = inputs.clone().map(|(_, b)| accesses(b)).sum::<usize>()
        + tile.len() * N * accesses(row_bytes)
        + tile.len().div_ceil(flush)
        + 1
        + outputs.clone().map(|(_, b)| accesses(b)).sum::<usize>();
    let mut instrs = Vec::with_capacity(len);

    for (addr, bytes) in inputs {
        push_vector_accesses(&mut instrs, addr, bytes, vlen, false);
    }
    let mut pending_compute = 0u32;
    for (i, l) in tile.enumerate() {
        for row in rows(l) {
            push_vector_accesses(&mut instrs, row, row_bytes, vlen, false);
        }
        pending_compute += compute_per_row;
        if (i + 1).is_multiple_of(flush) && pending_compute > 0 {
            instrs.push(Instr::Compute {
                cycles: pending_compute,
            });
            pending_compute = 0;
        }
    }
    if pending_compute > 0 {
        instrs.push(Instr::Compute {
            cycles: pending_compute,
        });
    }
    instrs.push(Instr::Barrier);
    for (addr, bytes) in outputs {
        push_vector_accesses(&mut instrs, addr, bytes, vlen, true);
    }
    ThreadBlock { instrs }
}

/// Splits a contiguous `bytes`-long access at `base` into vector-width
/// loads or stores.
fn push_vector_accesses(instrs: &mut Vec<Instr>, base: Addr, bytes: u64, vlen: u64, store: bool) {
    let mut off = 0;
    while off < bytes {
        let chunk = vlen.min(bytes - off) as u32;
        if store {
            instrs.push(Instr::Store {
                addr: base + off,
                bytes: chunk,
            });
        } else {
            instrs.push(Instr::Load {
                addr: base + off,
                bytes: chunk,
            });
        }
        off += chunk as u64;
    }
}

#[cfg(test)]
pub(crate) fn program_fnv1a(program: &Program) -> u64 {
    serde_json::to_vec(program)
        .expect("program serializes")
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Layout;
    use crate::workloads::{LogitWorkload, Workload};
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

    /// Decode Logit under `layout` with 32-token tiles.
    fn logit(op: &LogitOp, layout: Layout, cfg: &TraceGenConfig) -> (Program, TraceMeta) {
        let mapping = layout.mapping(op, 32, cfg.num_cores);
        LogitWorkload::new(*op).generate(&mapping, cfg)
    }

    #[test]
    fn block_count_matches_mapping() {
        let op = small_op();
        let (p, meta) = logit(&op, Layout::RoundRobinGInner, &TraceGenConfig::default());
        // 2 heads * 4 groups * (128/32) tiles = 32 blocks.
        assert_eq!(meta.num_blocks, 32);
        assert_eq!(p.num_blocks(), 32);
    }

    #[test]
    fn load_traffic_matches_analytical_model() {
        let op = small_op();
        let (_, meta) = logit(&op, Layout::RoundRobinGInner, &TraceGenConfig::default());
        // Every (h, g) streams K[h] once (+ its Q row once per tile).
        let k_traffic = op.k_bytes() * op.group_size as u64;
        let q_traffic = (op.heads * op.group_size * (op.seq_len / 32)) as u64 * op.k_row_bytes();
        assert_eq!(meta.total_load_bytes, k_traffic + q_traffic);
        assert_eq!(meta.total_store_bytes, op.score_bytes());
    }

    #[test]
    fn blocks_fit_instruction_window() {
        let op = LogitOp::llama3_70b(4096);
        let (_, meta) = logit(&op, Layout::Spatial, &TraceGenConfig::default());
        assert!(
            meta.max_block_instrs <= 128,
            "blocks must fit the 128-deep instruction window, got {}",
            meta.max_block_instrs
        );
    }

    #[test]
    fn g_inner_order_makes_sharers_adjacent() {
        let op = small_op();
        let (p, _) = logit(&op, Layout::RoundRobinGInner, &TraceGenConfig::default());
        // Blocks 0..group_size must all read the same K lines.
        let k_lines = |tb: usize| -> HashSet<u64> {
            p.blocks[tb]
                .instrs
                .iter()
                .filter_map(|i| match i {
                    Instr::Load { addr, .. } if *addr >= crate::workload::K_BASE => {
                        Some(addr / LINE_BYTES)
                    }
                    _ => None,
                })
                .collect()
        };
        let first = k_lines(0);
        assert!(!first.is_empty());
        for g in 1..op.group_size {
            assert_eq!(k_lines(g), first, "block {g} shares block 0's K tile");
        }
        // The next tile's blocks read different lines.
        assert!(k_lines(op.group_size).is_disjoint(&first));
    }

    #[test]
    fn l_inner_order_separates_sharers() {
        let op = small_op();
        let (p, _) = logit(&op, Layout::RoundRobinLInner, &TraceGenConfig::default());
        // Adjacent blocks stream different K tiles.
        let k_addrs = |tb: usize| -> Vec<u64> {
            p.blocks[tb]
                .instrs
                .iter()
                .filter_map(|i| match i {
                    Instr::Load { addr, .. } if *addr >= crate::workload::K_BASE => Some(*addr),
                    _ => None,
                })
                .collect()
        };
        assert_ne!(k_addrs(0), k_addrs(1));
    }

    #[test]
    fn store_addresses_cover_output_exactly_once() {
        let op = small_op();
        let (p, _) = logit(&op, Layout::RoundRobinGInner, &TraceGenConfig::default());
        let mut lines = HashSet::new();
        for b in &p.blocks {
            for i in &b.instrs {
                if let Instr::Store { addr, bytes } = i {
                    let mut a = *addr;
                    while a < addr + *bytes as u64 {
                        assert!(lines.insert(a / LINE_BYTES), "output line stored twice");
                        a += LINE_BYTES;
                    }
                }
            }
        }
        assert_eq!(lines.len() as u64, op.score_bytes() / LINE_BYTES);
    }

    #[test]
    fn compute_cycles_scale_with_rows() {
        let op = small_op();
        let cfg = TraceGenConfig {
            compute_cycles_per_row: 2,
            ..Default::default()
        };
        let (p, _) = logit(&op, Layout::RoundRobinGInner, &cfg);
        let total: u32 = p.blocks[0]
            .instrs
            .iter()
            .map(|i| match i {
                Instr::Compute { cycles } => *cycles,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 64, "32 rows * 2 cycles");
    }
}
