//! Multi-tenant serving mixes: N co-scheduled requests in one trace.
//!
//! Real serving never runs one operator in isolation: a machine holds
//! many requests at once — mixed prefill and decode, heterogeneous
//! sequence lengths, staggered arrivals — and the shared LLC is exactly
//! where they interfere. A [`WorkloadMix`] composes N requests (each any
//! [`Workload`] plus an optional arrival cycle) into a single
//! [`Program`] in which every thread block is tagged with its request
//! id, so the simulator can attribute completion and LLC behavior per
//! request (`SimStats::requests`).
//!
//! Two deterministic composition disciplines:
//!
//! * [`MixAssignment::Partitioned`] — the cores are split into N
//!   contiguous groups, one per request (earlier requests get the
//!   larger shares when the division is uneven). Requests interfere
//!   *only* through the shared LLC, MSHRs, NoC and DRAM — the spatial
//!   isolation discipline. A single-request partitioned mix is
//!   bit-identical to the solo trace.
//! * [`MixAssignment::Interleaved`] — every request is laid out over
//!   all cores and blocks are interleaved round-robin by request, so
//!   requests additionally contend for cores, instruction windows and
//!   L1s — the time-sharing discipline.
//!
//! Tenants live in disjoint address spaces: request `r`'s trace is
//! offset by `r * REQUEST_VA_STRIDE`, so no KV-cache line is ever
//! (falsely) shared across requests. The one deliberate exception is
//! the shared-prefix KV window (see
//! [`SharedPrefixWorkload`](crate::workloads::SharedPrefixWorkload)):
//! addresses at/above `SHARED_KV_BASE` are left unrelocated, so every
//! tenant reading a common system prompt hits the *same* lines.
//!
//! A [`WorkloadMix`] is the *closed-system* composition: the request
//! set and every arrival cycle are baked into the [`Program`] before
//! the run starts. Open-system serving — requests drawn from a seeded
//! [`ArrivalSpec`](crate::arrivals::ArrivalSpec) and injected mid-run
//! by a serving scheduler — instead composes its per-request traces
//! with [`generate_serve_set`], which leaves the program arrival-free
//! and home cores *relative* so the simulator's request injector can
//! place each admitted request at admission time.

use std::sync::Arc;

use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::types::{Addr, Cycle};
use serde::{Deserialize, Serialize};

use crate::mapping::Layout;
use crate::tracegen::{TraceGenConfig, TraceMeta};
use crate::workloads::Workload;

/// Virtual-address stride between tenants. Larger than every tensor
/// base the workloads use (the attention-output partials top out just
/// above `OUT_BASE` = 2^39), so tenant address spaces never overlap.
pub const REQUEST_VA_STRIDE: Addr = 1 << 40;

/// How a mix's thread blocks are laid over the machine's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MixAssignment {
    /// Deterministic core partitioning: request `r` owns a contiguous
    /// group of cores; interference is confined to the shared memory
    /// system.
    #[default]
    Partitioned,
    /// Interleaved block assignment: every request spans all cores,
    /// blocks alternate round-robin by request in trace order.
    Interleaved,
}

impl MixAssignment {
    /// Stable name (labels, JSONL).
    pub fn label(&self) -> &'static str {
        match self {
            MixAssignment::Partitioned => "part",
            MixAssignment::Interleaved => "ilv",
        }
    }
}

/// One co-scheduled request of a mix.
#[derive(Debug, Clone)]
pub struct MixedRequest {
    /// The request's operator (sequence length baked into the shape).
    pub workload: Arc<dyn Workload>,
    /// Cycle at which the request arrives; its thread blocks are not
    /// schedulable before this.
    pub arrival: Cycle,
    /// Serving priority class (higher = more urgent; 0 = best-effort).
    /// Trace generation ignores it — only class-aware admission
    /// policies (`PriorityPreempt`) act on it.
    pub class: u8,
}

/// Per-request and aggregate metadata of a generated mix trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixMeta {
    /// One [`TraceMeta`] per request, in request order.
    pub per_request: Vec<TraceMeta>,
    pub num_blocks: usize,
    pub total_load_bytes: u64,
    pub total_store_bytes: u64,
    pub max_block_instrs: usize,
}

impl MixMeta {
    /// Totals over the per-request metadata.
    fn fold(per_request: Vec<TraceMeta>) -> Self {
        MixMeta {
            num_blocks: per_request.iter().map(|m| m.num_blocks).sum(),
            total_load_bytes: per_request.iter().map(|m| m.total_load_bytes).sum(),
            total_store_bytes: per_request.iter().map(|m| m.total_store_bytes).sum(),
            max_block_instrs: per_request
                .iter()
                .map(|m| m.max_block_instrs)
                .max()
                .unwrap_or(0),
            per_request,
        }
    }
}

/// N requests composed into one multi-tenant trace.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    pub requests: Vec<MixedRequest>,
    pub assignment: MixAssignment,
}

impl WorkloadMix {
    /// An empty mix with the given core-assignment discipline.
    pub fn new(assignment: MixAssignment) -> Self {
        WorkloadMix {
            requests: Vec::new(),
            assignment,
        }
    }

    /// A single-request mix (reproduces the solo trace bit-for-bit
    /// under [`MixAssignment::Partitioned`]).
    pub fn solo(workload: Arc<dyn Workload>) -> Self {
        WorkloadMix::new(MixAssignment::Partitioned).request(workload, 0)
    }

    /// Adds a best-effort (class 0) request arriving at `arrival`.
    pub fn request(self, workload: Arc<dyn Workload>, arrival: Cycle) -> Self {
        self.classed_request(workload, arrival, 0)
    }

    /// Adds a request arriving at `arrival` with a priority class.
    pub fn classed_request(
        mut self,
        workload: Arc<dyn Workload>,
        arrival: Cycle,
        class: u8,
    ) -> Self {
        self.requests.push(MixedRequest {
            workload,
            arrival,
            class,
        });
        self
    }

    /// Stable label: the requests' labels and sequence lengths joined,
    /// prefixed with the assignment discipline for multi-tenant mixes.
    pub fn label(&self) -> String {
        let parts: Vec<String> = self
            .requests
            .iter()
            .map(|r| {
                let mut s = format!("{}/L{}", r.workload.label(), r.workload.shape().seq_len);
                if r.arrival > 0 {
                    s.push_str(&format!("@{}", r.arrival));
                }
                if r.class > 0 {
                    s.push_str(&format!("#c{}", r.class));
                }
                s
            })
            .collect();
        format!("mix:{}[{}]", self.assignment.label(), parts.join(" + "))
    }

    /// Rejects degenerate mixes: no requests, or any request with an
    /// invalid shape (zero sequence length included).
    pub fn validate(&self) -> Result<(), String> {
        if self.requests.is_empty() {
            return Err("mix has no requests".into());
        }
        for (r, req) in self.requests.iter().enumerate() {
            req.workload
                .validate()
                .map_err(|e| format!("mix request {r} ({}): {e}", req.workload.label()))?;
        }
        Ok(())
    }

    /// The contiguous core shares of a partitioned mix over `num_cores`
    /// cores: `(start, count)` per request, earlier requests taking the
    /// larger shares when the division is uneven.
    pub fn partition(&self, num_cores: usize) -> Result<Vec<(usize, usize)>, String> {
        let n = self.requests.len();
        if num_cores < n {
            return Err(format!(
                "partitioned mix of {n} requests needs at least {n} cores, machine has {num_cores}"
            ));
        }
        let base = num_cores / n;
        let extra = num_cores % n;
        let mut shares = Vec::with_capacity(n);
        let mut start = 0;
        for r in 0..n {
            let count = base + usize::from(r < extra);
            shares.push((start, count));
            start += count;
        }
        Ok(shares)
    }

    /// Lowers the mix to one request-tagged [`Program`].
    ///
    /// Every request is generated through the ordinary [`Workload`]
    /// machinery (same `layout`, same `l_tile`), relocated into its own
    /// address space, tagged, and composed per the assignment
    /// discipline. Deterministic: same mix, same program.
    pub fn generate(
        &self,
        layout: Layout,
        l_tile: usize,
        cfg: &TraceGenConfig,
    ) -> Result<(Program, MixMeta), String> {
        self.validate()?;
        let per_core_counts: Vec<(usize, usize)> = match self.assignment {
            MixAssignment::Partitioned => self.partition(cfg.num_cores)?,
            MixAssignment::Interleaved => vec![(0, cfg.num_cores); self.requests.len()],
        };

        // Lower each request on its core share, in its own address
        // space, then move it onto the share's cores.
        let mut programs = Vec::with_capacity(self.requests.len());
        let mut metas = Vec::with_capacity(self.requests.len());
        for (r, (req, &(start, count))) in self.requests.iter().zip(&per_core_counts).enumerate() {
            let (mut program, meta) =
                lower_tenant(req.workload.as_ref(), r, layout, l_tile, cfg, count)
                    .map_err(|e| format!("mix request {r}: {e}"))?;
            for core in &mut program.assignment {
                debug_assert!(*core < count);
                *core += start;
            }
            programs.push(program);
            metas.push(meta);
        }

        // Compose: request-major for partitioned (disjoint cores, order
        // across requests is immaterial per core), round-robin by
        // request for interleaved (per-core queues alternate tenants).
        let total_blocks: usize = metas.iter().map(|m| m.num_blocks).sum();
        let mut blocks = Vec::with_capacity(total_blocks);
        let mut assignment = Vec::with_capacity(total_blocks);
        let mut tags = Vec::with_capacity(total_blocks);
        let mut arrivals = Vec::with_capacity(total_blocks);
        let mut push = |r: usize, block: ThreadBlock, core: usize| {
            blocks.push(block);
            assignment.push(core);
            tags.push(r as u32);
            arrivals.push(self.requests[r].arrival);
        };
        match self.assignment {
            MixAssignment::Partitioned => {
                for (r, p) in programs.into_iter().enumerate() {
                    for (block, core) in p.blocks.into_iter().zip(p.assignment) {
                        push(r, block, core);
                    }
                }
            }
            MixAssignment::Interleaved => {
                let mut iters: Vec<_> = programs
                    .into_iter()
                    .map(|p| p.blocks.into_iter().zip(p.assignment))
                    .collect();
                loop {
                    let mut any = false;
                    for (r, it) in iters.iter_mut().enumerate() {
                        if let Some((block, core)) = it.next() {
                            push(r, block, core);
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                }
            }
        }

        Ok((
            Program::with_requests(blocks, assignment, tags, arrivals),
            MixMeta::fold(metas),
        ))
    }
}

/// Composes `requests` into one *open-system* serve set: every
/// request's trace is generated on the relative core range
/// `0..cores_per_request`, relocated into its own address space and
/// request-tagged — but the program carries **no arrivals** and the
/// home cores stay relative. The simulator's request injector decides
/// *when* each request's blocks become schedulable and *which*
/// absolute cores they land on (FCFS and concurrency caps keep the
/// relative range at core 0; continuous batching offsets it to the
/// admitting slot's core group).
///
/// Deterministic: same inputs, same program. Blocks are request-major,
/// so a request's blocks are contiguous in `TbId` order.
pub fn generate_serve_set(
    requests: &[Arc<dyn Workload>],
    cores_per_request: usize,
    layout: Layout,
    l_tile: usize,
    cfg: &TraceGenConfig,
) -> Result<(Program, MixMeta), String> {
    if requests.is_empty() {
        return Err("serve set has no requests".into());
    }
    if cores_per_request == 0 {
        return Err("serve set needs at least one core per request".into());
    }
    let mut blocks = Vec::new();
    let mut assignment = Vec::new();
    let mut tags = Vec::new();
    let mut metas = Vec::with_capacity(requests.len());
    for (r, req) in requests.iter().enumerate() {
        req.validate()
            .map_err(|e| format!("serve request {r} ({}): {e}", req.label()))?;
        let (program, meta) = lower_tenant(req.as_ref(), r, layout, l_tile, cfg, cores_per_request)
            .map_err(|e| format!("serve request {r}: {e}"))?;
        if program.blocks.is_empty() {
            return Err(format!("serve request {r}: trace has no thread blocks"));
        }
        for (block, core) in program.blocks.into_iter().zip(program.assignment) {
            debug_assert!(core < cores_per_request);
            blocks.push(block);
            assignment.push(core);
            tags.push(r as u32);
        }
        metas.push(meta);
    }
    Ok((
        Program::with_requests(blocks, assignment, tags, Vec::new()),
        MixMeta::fold(metas),
    ))
}

/// Lowers tenant `r` ([`Workload::lower`]) on `cores` cores, home cores
/// relative (`0..cores`), and moves it into the tenant's address space.
fn lower_tenant(
    workload: &dyn Workload,
    r: usize,
    layout: Layout,
    l_tile: usize,
    cfg: &TraceGenConfig,
    cores: usize,
) -> Result<(Program, TraceMeta), String> {
    let cfg = TraceGenConfig {
        num_cores: cores,
        ..*cfg
    };
    let (mut program, meta) = workload.lower(layout, l_tile, &cfg)?;
    let offset = r as Addr * REQUEST_VA_STRIDE;
    for block in &mut program.blocks {
        relocate(block, offset);
    }
    Ok((program, meta))
}

/// Shifts a block's memory accesses into a tenant's address space.
/// Shared-prefix KV lines (at/above
/// [`SHARED_KV_BASE`](llamcat_sim::kv::SHARED_KV_BASE)) are left in
/// place: one copy across all tenants is the whole point of a shared
/// system prompt.
fn relocate(block: &mut ThreadBlock, offset: Addr) {
    use llamcat_sim::kv::SHARED_KV_BASE;
    for instr in &mut block.instrs {
        match instr {
            Instr::Load { addr, .. } | Instr::Store { addr, .. } => {
                if *addr >= SHARED_KV_BASE {
                    continue;
                }
                debug_assert!(
                    *addr < REQUEST_VA_STRIDE,
                    "solo trace address {addr:#x} exceeds the tenant VA stride"
                );
                *addr += offset;
            }
            Instr::Compute { .. } | Instr::Barrier => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::LogitOp;
    use crate::workloads::{LogitWorkload, PrefillLogitWorkload};
    use std::collections::HashSet;

    fn decode(seq_len: usize) -> Arc<dyn Workload> {
        Arc::new(LogitWorkload::new(LogitOp {
            heads: 2,
            group_size: 4,
            seq_len,
            head_dim: 128,
        }))
    }

    fn prefill(seq_len: usize) -> Arc<dyn Workload> {
        Arc::new(PrefillLogitWorkload::new(
            LogitOp {
                heads: 2,
                group_size: 2,
                seq_len,
                head_dim: 128,
            },
            4,
        ))
    }

    fn cfg() -> TraceGenConfig {
        TraceGenConfig::default()
    }

    #[test]
    fn solo_partitioned_mix_reproduces_solo_trace() {
        let w = decode(128);
        let mix = WorkloadMix::solo(w.clone());
        let (p_mix, meta) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        let mapping = w.mapping(Layout::PairStream, 32, cfg().num_cores);
        let (p_solo, solo_meta) = w.generate(&mapping, &cfg());
        assert_eq!(p_mix.blocks, p_solo.blocks, "blocks must be bit-identical");
        assert_eq!(p_mix.assignment, p_solo.assignment);
        assert_eq!(p_mix.num_requests(), 1);
        assert_eq!(meta.per_request, vec![solo_meta]);
    }

    #[test]
    fn partitioned_requests_occupy_disjoint_cores_and_addresses() {
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(decode(128), 0)
            .request(prefill(128), 0);
        let (p, meta) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        assert_eq!(p.num_requests(), 2);
        assert_eq!(meta.per_request.len(), 2);
        let mut cores: Vec<HashSet<usize>> = vec![HashSet::new(), HashSet::new()];
        let mut lines: Vec<HashSet<u64>> = vec![HashSet::new(), HashSet::new()];
        for tb in 0..p.num_blocks() {
            let r = p.request_of(tb) as usize;
            cores[r].insert(p.assignment[tb]);
            for i in &p.blocks[tb].instrs {
                if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = i {
                    lines[r].insert(addr / 64);
                    assert_eq!(
                        (addr / REQUEST_VA_STRIDE) as usize,
                        r,
                        "address outside the tenant's VA window"
                    );
                }
            }
        }
        assert!(
            cores[0].is_disjoint(&cores[1]),
            "core shares must not overlap"
        );
        // Request 0 owns cores [0, 8), request 1 owns [8, 16); each uses
        // min(pairs, share) of its cores.
        assert!(cores[0].iter().all(|&c| c < 8));
        assert!(cores[1].iter().all(|&c| (8..16).contains(&c)));
        assert!(lines[0].is_disjoint(&lines[1]));
    }

    #[test]
    fn uneven_partition_favors_earlier_requests() {
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(decode(128), 0)
            .request(decode(128), 0)
            .request(decode(128), 0);
        // 16 cores over 3 requests: 6 + 5 + 5.
        assert_eq!(mix.partition(16).unwrap(), vec![(0, 6), (6, 5), (11, 5)]);
        assert!(mix.partition(2).is_err(), "more requests than cores");
    }

    #[test]
    fn interleaved_alternates_requests_in_block_order() {
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(decode(128), 0);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        // Both requests have the same block count: tags strictly
        // alternate 0, 1, 0, 1, ...
        for tb in 0..p.num_blocks() {
            assert_eq!(p.request_of(tb), (tb % 2) as u32);
        }
        // Both requests share the same (full-machine) core layout: the
        // decode shape has 8 (h, g) pairs, so both land on cores 0..8.
        let cores_of = |r: u32| -> HashSet<usize> {
            (0..p.num_blocks())
                .filter(|&tb| p.request_of(tb) == r)
                .map(|tb| p.assignment[tb])
                .collect()
        };
        assert_eq!(cores_of(0).len(), 8);
        assert_eq!(
            cores_of(0),
            cores_of(1),
            "interleaved tenants contend for cores"
        );
    }

    #[test]
    fn arrivals_tag_every_block_of_the_request() {
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(decode(128), 0)
            .request(decode(128), 5_000);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        for tb in 0..p.num_blocks() {
            let expect = if p.request_of(tb) == 0 { 0 } else { 5_000 };
            assert_eq!(p.arrival_of(tb), expect);
        }
        assert_eq!(p.request_arrivals(), vec![0, 5_000]);
    }

    #[test]
    fn labels_are_stable_and_carry_arrivals() {
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(prefill(256), 1_000);
        assert_eq!(
            mix.label(),
            "mix:ilv[logit h2 g4 d128/L128 + prefill h2 g2 d128 q4/L256@1000]"
        );
    }

    #[test]
    fn degenerate_mixes_are_rejected() {
        assert!(WorkloadMix::new(MixAssignment::Partitioned)
            .validate()
            .is_err());
        let zero_seq = WorkloadMix::solo(decode(0));
        assert!(
            zero_seq.validate().is_err(),
            "zero seq_len must be rejected"
        );
        let bad_tile = WorkloadMix::solo(decode(128));
        assert!(bad_tile.generate(Layout::PairStream, 48, &cfg()).is_err());
    }

    #[test]
    fn serve_set_is_relative_arrival_free_and_request_major() {
        let (p, meta) = generate_serve_set(
            &[decode(128), prefill(128)],
            4,
            Layout::PairStream,
            32,
            &cfg(),
        )
        .unwrap();
        assert_eq!(p.num_requests(), 2);
        assert!(p.arrivals.is_empty(), "serve programs carry no arrivals");
        assert_eq!(meta.per_request.len(), 2);
        assert_eq!(meta.num_blocks, p.num_blocks());
        // Home cores are relative to the request's slot.
        assert!(p.assignment.iter().all(|&c| c < 4));
        // Request-major: tags are nondecreasing.
        let tags: Vec<u32> = (0..p.num_blocks()).map(|tb| p.request_of(tb)).collect();
        assert!(tags.windows(2).all(|w| w[0] <= w[1]));
        // Disjoint tenant address spaces, as for closed mixes.
        for tb in 0..p.num_blocks() {
            for i in &p.blocks[tb].instrs {
                if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = i {
                    assert_eq!((addr / REQUEST_VA_STRIDE) as u32, p.request_of(tb));
                }
            }
        }
        assert!(
            generate_serve_set(&[], 4, Layout::PairStream, 32, &cfg()).is_err(),
            "empty serve set must be rejected"
        );
        assert!(
            generate_serve_set(&[decode(128)], 0, Layout::PairStream, 32, &cfg()).is_err(),
            "zero-core slots must be rejected"
        );
    }

    #[test]
    fn shared_prefix_lines_survive_relocation_across_tenants() {
        use crate::workloads::SharedPrefixWorkload;
        use llamcat_sim::kv::SHARED_KV_BASE;
        let shared = || -> Arc<dyn Workload> {
            Arc::new(SharedPrefixWorkload::new(
                LogitOp {
                    heads: 2,
                    group_size: 4,
                    seq_len: 128,
                    head_dim: 128,
                },
                64,
            ))
        };
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(shared(), 0)
            .request(shared(), 0);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        let mut shared_lines: Vec<HashSet<u64>> = vec![HashSet::new(), HashSet::new()];
        for tb in 0..p.num_blocks() {
            let r = p.request_of(tb) as usize;
            for i in &p.blocks[tb].instrs {
                if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = i {
                    if *addr >= SHARED_KV_BASE {
                        shared_lines[r].insert(addr / 64);
                    } else {
                        assert_eq!(
                            (addr / REQUEST_VA_STRIDE) as usize,
                            r,
                            "private address outside the tenant's VA window"
                        );
                    }
                }
            }
        }
        assert!(!shared_lines[0].is_empty(), "the prefix reached the trace");
        assert_eq!(
            shared_lines[0], shared_lines[1],
            "both tenants read the same shared-prefix lines"
        );
    }

    #[test]
    fn composed_traces_are_pinned() {
        use crate::tracegen::program_fnv1a;
        use crate::workloads::SharedPrefixWorkload;
        let shared: Arc<dyn Workload> = Arc::new(SharedPrefixWorkload::new(
            LogitOp {
                heads: 2,
                group_size: 4,
                seq_len: 128,
                head_dim: 128,
            },
            64,
        ));
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(shared.clone(), 3_000);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        assert_eq!(
            program_fnv1a(&p),
            12279896976348316285,
            "interleaved mix trace changed"
        );
        let (p, _) = generate_serve_set(
            &[decode(128), prefill(128), shared],
            4,
            Layout::Spatial,
            32,
            &cfg(),
        )
        .unwrap();
        assert_eq!(
            program_fnv1a(&p),
            14898795481515292273,
            "serve-set trace changed"
        );
    }

    #[test]
    fn mix_meta_sums_per_request_traffic() {
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(prefill(128), 0);
        let (p, meta) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        assert_eq!(meta.num_blocks, p.num_blocks());
        assert_eq!(
            meta.total_load_bytes,
            meta.per_request
                .iter()
                .map(|m| m.total_load_bytes)
                .sum::<u64>()
        );
        assert_eq!(meta.total_load_bytes, p.total_load_bytes());
        assert_eq!(meta.total_store_bytes, p.total_store_bytes());
    }
}
