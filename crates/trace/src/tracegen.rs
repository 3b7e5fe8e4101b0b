//! Memory-trace generation: walking a mapping into per-core thread-block
//! instruction streams.
//!
//! "Since a mapping by definition is a hierarchy of nested loops mapped
//! to either the spatial or temporal domain, it can be translated to
//! memory traces simply by iterating through it" (Section 5). The
//! mapping decides which thread blocks exist, in what order, on which
//! core (`Lowering`); one thread block is one L1-level tile, and
//! every workload lays it out with the same template (`tile_block`):
//! load its inputs, stream the rows of its L tile with amortized
//! compute, synchronize, store its outputs.

use serde::{Deserialize, Serialize};

use llamcat_sim::prog::{Block, Instr, Program};
use llamcat_sim::types::Addr;

use crate::mapping::{Dim, Level, LoopKind, Mapping};
use crate::workload::LogitOp;
use crate::workloads::Workload;

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    pub num_blocks: usize,
    pub total_load_bytes: u64,
    pub total_store_bytes: u64,
    pub max_block_instrs: usize,
}

impl TraceMeta {
    /// Summary of `blocks`.
    pub(crate) fn of<'a>(blocks: impl Iterator<Item = Block<'a>>) -> Self {
        let mut meta = TraceMeta::default();
        blocks.for_each(|block| meta.add(block));
        meta
    }

    /// Adds one block to the summary.
    pub(crate) fn add(&mut self, block: Block<'_>) {
        self.num_blocks += 1;
        self.max_block_instrs = self.max_block_instrs.max(block.len());
        for i in block {
            match i {
                Instr::Load { bytes, .. } => self.total_load_bytes += bytes as u64,
                Instr::Store { bytes, .. } => self.total_store_bytes += bytes as u64,
                Instr::Compute { .. } | Instr::Barrier => {}
            }
        }
    }
}

/// A workload's thread blocks under one mapping, planned but not yet
/// built: the mapping decides which blocks exist, in what order and on
/// which core, and [`Lowering::build`] writes any one of them onto the
/// end of a program's instruction arena. A composer can so build the
/// blocks of several lowerings in any order, each exactly once, straight
/// into one program.
pub(crate) struct Lowering<'a, W: ?Sized> {
    workload: &'a W,
    cfg: TraceGenConfig,
    l_tile: usize,
    /// `[home core, h, g, l-tile index]` of every block, in trace order.
    pub(crate) blocks: Vec<[usize; 4]>,
}

impl<'a, W: Workload + ?Sized> Lowering<'a, W> {
    /// Walks `mapping` over `workload`'s iteration space.
    ///
    /// Panics if the mapping is invalid for it (call
    /// [`Mapping::validate`] first for a graceful error).
    pub(crate) fn new(workload: &'a W, mapping: &Mapping, cfg: &TraceGenConfig) -> Self {
        let op = &workload.shape();
        mapping
            .validate(op)
            .expect("mapping must be valid for the operator");
        let l_tile = mapping.l1_l_tile();
        let n_ltiles = op.seq_len / l_tile;
        let mut blocks = Vec::with_capacity(op.heads * op.group_size * n_ltiles);
        let mut emit = |core, h, g, lt| blocks.push([core, h, g, lt]);

        let spatial_h = mapping
            .level(Level::L2)
            .iter()
            .any(|l| l.dim == Dim::H && l.kind == LoopKind::Spatial);
        if spatial_h {
            // Pair-stream dataflow: (h, g) output pairs round-robin over
            // cores, each pair an independent full-K[h] temporal stream
            // (see [`Layout::PairStream`](crate::mapping::Layout::PairStream)).
            // Blocks are emitted pair-major so each core's queue holds its
            // pairs' tiles contiguously — the window-strided scheduler
            // then runs one pair per window.
            for p in 0..op.heads * op.group_size {
                for lt in 0..n_ltiles {
                    emit(p % cfg.num_cores, p / op.group_size, p % op.group_size, lt);
                }
            }
        } else if mapping.is_spatial() {
            // Spatial dataflow: query heads (and L segments) pinned to
            // cores; all cores stream the shared K[h] concurrently.
            // Blocks are emitted in `(h, l-tile, sharers)` order so that
            // each core's subsequence — which is what its scheduler queue
            // preserves — is its own `(h, l-tile)` temporal stream.
            let gs = mapping.spatial_g();
            let gt = op.group_size / gs;
            let segments = mapping.spatial_l_segments();
            let tiles_per_seg = n_ltiles / segments;
            for h in 0..op.heads {
                for gi in 0..gt {
                    for t in 0..tiles_per_seg {
                        // All sharers of tile t (across g-spatial and
                        // segments) are emitted adjacently; their home
                        // cores differ.
                        for gsi in 0..gs {
                            for seg in 0..segments {
                                let core = (gsi * segments + seg) % cfg.num_cores;
                                emit(core, h, gsi * gt + gi, seg * tiles_per_seg + t);
                            }
                        }
                    }
                }
            }
        } else {
            // Round-robin: thread-block enumeration order from the
            // L2-level temporal loops, consecutive blocks on consecutive
            // cores.
            let order: Vec<Dim> = mapping
                .level(Level::L2)
                .iter()
                .filter(|l| l.kind == LoopKind::Temporal)
                .map(|l| l.dim)
                .collect();
            let mut i = 0;
            iterate(&order, op, n_ltiles, &mut |h, g, lt| {
                emit(i % cfg.num_cores, h, g, lt);
                i += 1;
            });
        }
        Lowering {
            workload,
            cfg: *cfg,
            l_tile,
            blocks,
        }
    }

    /// What block `i`'s instructions depend on besides the generation
    /// config's vector width and compute model: the workload instance,
    /// the tile extent and the block's `(h, g, l-tile)` coordinates —
    /// never its home core. Blocks with equal keys are equal.
    pub(crate) fn template_key(&self, i: usize) -> (usize, usize, [usize; 3]) {
        let [_, h, g, lt] = self.blocks[i];
        let (instance, l_tile) = self.instance();
        (instance, l_tile, [h, g, lt])
    }

    /// The workload instance (by address) and tile extent every block
    /// of this lowering is built from.
    pub(crate) fn instance(&self) -> (usize, usize) {
        let at = (self.workload as *const W).cast::<()>() as usize;
        (at, self.l_tile)
    }

    /// Writes block `i` onto the end of `instrs`.
    pub(crate) fn build(&self, i: usize, instrs: &mut Vec<Instr>) {
        let [_, h, g, lt] = self.blocks[i];
        (self.workload).build_block(&self.cfg, h, g, lt, self.l_tile, instrs);
    }

    /// Instructions in all blocks if each is as long as the first: exact
    /// for every workload here, and what an arena is sized by.
    pub(crate) fn instrs_estimate(&self) -> usize {
        let mut first = Vec::new();
        if !self.blocks.is_empty() {
            self.build(0, &mut first);
        }
        first.len() * self.blocks.len()
    }

    /// The blocks built into a program of their own, with their summary.
    pub(crate) fn into_program(self) -> (Program, TraceMeta) {
        let mut program = Program::with_capacity(self.blocks.len(), self.instrs_estimate());
        for (i, &[core, ..]) in self.blocks.iter().enumerate() {
            program.push_block(core, |instrs| self.build(i, instrs));
        }
        program.shrink_to_fit();
        let meta = TraceMeta::of(program.blocks());
        (program, meta)
    }
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

/// Writes one thread block onto the end of `instrs` from the template
/// every workload shares:
///
/// 1. load each `(addr, bytes)` span of `inputs`;
/// 2. for each token of the L tile, load the `N` rows `rows` yields for
///    it, each `row_bytes` long, and accrue `compute_per_row` cycles,
///    flushed as one `Compute` every
///    [`compute_flush_rows`](TraceGenConfig::compute_flush_rows) tokens
///    and once more after the last;
/// 3. barrier;
/// 4. store each `(addr, bytes)` span of `outputs`.
///
/// Every span is split into vector-width accesses. The caller
/// ([`Lowering`]) sizes the arena up front.
pub(crate) fn tile_block<const N: usize>(
    instrs: &mut Vec<Instr>,
    cfg: &TraceGenConfig,
    inputs: impl IntoIterator<Item = (Addr, u64)>,
    rows: impl Iterator<Item = [Addr; N]>,
    row_bytes: u64,
    compute_per_row: u32,
    outputs: impl IntoIterator<Item = (Addr, u64)>,
) {
    let vlen = cfg.vector_len_bytes;
    let flush = cfg.compute_flush_rows;
    for (addr, bytes) in inputs {
        push_vector_accesses(instrs, addr, bytes, vlen, false);
    }
    let mut pending_compute = 0u32;
    for (i, token_rows) in rows.enumerate() {
        for row in token_rows {
            push_vector_accesses(instrs, row, row_bytes, vlen, false);
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
        push_vector_accesses(instrs, addr, bytes, vlen, true);
    }
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
            p.block(tb)
                .iter()
                .filter_map(|i| match &i {
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
            p.block(tb)
                .iter()
                .filter_map(|i| match &i {
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
        for b in p.blocks() {
            for i in b {
                if let Instr::Store { addr, bytes } = &i {
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
        let total: u32 = p
            .block(0)
            .iter()
            .map(|i| match &i {
                Instr::Compute { cycles } => *cycles,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 64, "32 rows * 2 cycles");
    }
}
